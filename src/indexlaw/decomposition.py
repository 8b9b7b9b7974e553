"""Subgroup decomposability-gap estimation and inference.

A population split into K subgroups with drawing weights p_i has mixture law
``F = sum p_i F_i``.  For an index I with representation (h, q) under F and
per-group representations (h_i, q_i) under F_i (the scores may depend on the
underlying CDF and are rebuilt per group), the decomposability gap

    gd_n = I_n - sum_i (n_i*/n) I^(i)_{n_i*}

is asymptotically normal after sqrt(n)-scaling.  The variance splits into a
within-group part theta1^2 assembled from seven constants (three quadratic
pieces A1, A2, A3 = A31 + A32 and three cross pieces B1, B2, B3 of the
limiting Gaussian components) plus a multinomial label-noise part: theta2^2
(centering at the population gap gd) or theta3^2 (centering at the
plug-in-weighted gd_{0,n}), both weighted variances over groups.

All constants are integrals over transformed unit intervals; with empirical
group models every one of them is an exact step sum.  Every A3x and B-type
constant costs O(n log n) per group pair: A31/A32 through the sorted prefix
sums of ``bridge_kernel_quad``, B2/B3 through cell lookups in antiderivatives
built once per group, so no n-by-n kernel matrix is formed.  A3 takes
2K(K-1) kernel calls, with no K^3 term: per group i and excluded group h, one
for A31 and one for A32 on the concatenated cells of all groups j not in {i, h}.

The printed forms of the A32 and B3 constants in their source derivation
carry typographical slips; this module implements the forms obtained
directly from the covariances of the limiting independent Gaussian
components, which reduce to the printed A31/B1 structure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import DistributionModel, EmpiricalDistribution, Mixture
from .empirical import EmpiricalSample, build_sample
from .errors import BadParams, BadWeights, OutOfRange
from .indices import NamedIndex, named_estimate, named_representation
from .representation import (DEFAULT_GRID, IndexRepresentation,
                             confidence_interval, score_model)
from .ugrid import CellPoly, bridge_bilinear, bridge_cross, bridge_kernel_quad


@dataclass(frozen=True)
class SubgroupPartition:
    """Per-observation group labels (input order).

    ``labels`` holds integer codes 1..K.  Group i is weighted by its observed
    frequency n_i*/n; groups that happen to be empty are skipped in sums (the
    limit theory assumes all groups grow).
    """

    labels: np.ndarray
    n_groups: int
    names: tuple

    @staticmethod
    def from_labels(labels: Sequence) -> "SubgroupPartition":
        """Map arbitrary labels to 1..K in first-seen order."""
        seen: dict = {}
        codes = np.empty(len(labels), dtype=np.int64)
        for i, lab in enumerate(labels):
            if lab not in seen:
                seen[lab] = len(seen) + 1
            codes[i] = seen[lab]
        return SubgroupPartition(labels=codes, n_groups=len(seen), names=tuple(seen))


@dataclass(frozen=True)
class DecompositionVariance:
    """The seven constants and the three variance totals."""

    A1: float
    A2: float
    A31: float
    A32: float
    B1: float
    B2: float
    B3: float
    L: np.ndarray
    M: np.ndarray
    theta1_sq: float
    theta2_sq: float
    theta3_sq: float


@dataclass(frozen=True)
class GapInference:
    """Result of plug-in gap inference."""

    gap: float
    variance: float
    ci: tuple[float, float]
    center: str
    decomposition: DecompositionVariance
    group_estimates: np.ndarray
    weights: np.ndarray


def _split_values(sample: EmpiricalSample, partition: SubgroupPartition) -> list[np.ndarray]:
    if partition.labels.size != sample.n:
        raise OutOfRange(f"partition has {partition.labels.size} labels for a sample "
                         f"of {sample.n} values")
    inp = sample.input_values()
    return [inp[partition.labels == g] for g in range(1, partition.n_groups + 1)]


def _recompose(whole: EmpiricalSample, groups: Sequence[np.ndarray], index: NamedIndex,
               ) -> tuple[float, list[EmpiricalSample], list[float]]:
    """The gap ``I_n - sum (n_i*/n) I_i``, the nonempty group samples and
    their index estimates; empty groups are skipped."""
    samples = [build_sample(vals) for vals in groups if vals.size]
    estimates = [named_estimate(grp, index) for grp in samples]
    parts = sum((grp.n / whole.n) * est for grp, est in zip(samples, estimates))
    return named_estimate(whole, index) - parts, samples, estimates


def gap_estimate(sample: EmpiricalSample, partition: SubgroupPartition,
                 index: NamedIndex) -> float:
    """Exact decomposability gap: whole-sample index minus the
    count-weighted recomposition from the subgroups."""
    return _recompose(sample, _split_values(sample, partition), index)[0]


# ---------------------------------------------------------------------------
# Asymptotic variance constants
# ---------------------------------------------------------------------------


def _cell_values(model: DistributionModel, func, grid: int) -> tuple[np.ndarray, float]:
    """Cell-wise values of func(Q_i(s)) and the cell width.

    Exact at the sample values for empirical models; cell midpoints for
    parametric ones.
    """
    if model.kind == "empirical":
        x = model.sample.values
        return np.asarray(func(x), dtype=float), 1.0 / x.size
    mid = (np.arange(grid) + 0.5) / grid
    x = np.asarray(model.quantile(mid), dtype=float)
    return np.asarray(func(x), dtype=float), 1.0 / grid


def gap_variance(weights: Sequence[float], group_models: Sequence[DistributionModel],
                 rep_builder: Callable[[DistributionModel], IndexRepresentation],
                 global_rep: Optional[IndexRepresentation] = None,
                 grid: int = DEFAULT_GRID) -> DecompositionVariance:
    """All decomposition-variance constants for the given group laws.

    ``rep_builder`` maps a distribution model to the index representation
    under that model; it is applied to each subgroup law and (unless
    ``global_rep`` is supplied) to their mixture.
    """
    p = np.asarray(weights, dtype=float)
    k = p.size
    if len(group_models) != k or k == 0:
        raise BadWeights("weights and group models must align and be nonempty")
    if np.any(p <= 0) or not np.isclose(p.sum(), 1.0, atol=1e-9):
        raise BadWeights("weights must be positive and sum to 1")

    mixture = group_models[0] if k == 1 else Mixture(p, group_models)
    rep = global_rep or rep_builder(mixture)
    reps = [rep_builder(m) for m in group_models]
    breaks = rep.breaks

    h_global, q_global = rep.h, rep.q
    q_skip = rep.q_zero and all(r.q_zero for r in reps)

    # per-group grid models
    hstar = []      # (h - h_i) o Q_i
    cmods = []      # (p_i q - q_i) o Q_i
    for i in range(k):
        hi, qi = reps[i].h, reps[i].q
        hstar.append(score_model(group_models[i],
                                 lambda x, _hi=hi: np.asarray(h_global(x), dtype=float)
                                 - np.asarray(_hi(x), dtype=float), grid))
        if q_skip:
            cmods.append(CellPoly.constant(hstar[i].m, 0.0))
        else:
            cmods.append(score_model(group_models[i],
                                     lambda x, _qi=qi, _pi=p[i]:
                                     _pi * np.asarray(q_global(x), dtype=float)
                                     - np.asarray(_qi(x), dtype=float), grid))

    a1 = sum(p[i] * ((hstar[i] * hstar[i]).integral() - hstar[i].integral() ** 2)
             for i in range(k))
    a2 = 0.0 if q_skip else sum(p[i] * bridge_bilinear(cmods[i], cmods[i])
                                for i in range(k))
    b1 = 0.0 if q_skip else sum(p[i] * bridge_cross(hstar[i], cmods[i])
                                for i in range(k))

    a31 = a32 = b2 = b3 = 0.0
    if not q_skip:
        # q o Q_i and F_h o Q_i at the cells of every group
        qcells, widths, fcomp = [], [], {}
        for i in range(k):
            qv, w = _cell_values(group_models[i], q_global, grid)
            qcells.append(qv)
            widths.append(w)
            for hgrp in range(k):
                if hgrp != i:
                    fcomp[(hgrp, i)], _ = _cell_values(
                        group_models[i], group_models[hgrp].cdf, grid)
        aw = [qcells[i] * widths[i] for i in range(k)]
        for i in range(k):
            for hgrp in range(k):
                if hgrp == i:
                    continue
                u = fcomp[(hgrp, i)]
                a31 += p[i] ** 2 * p[hgrp] * bridge_kernel_quad(u, aw[i], u, aw[i])
                # linear in its second argument: one call covers all j not in {i, h}
                others = [j for j in range(k) if j not in (i, hgrp)]
                if others:
                    a32 += p[i] * p[hgrp] * bridge_kernel_quad(
                        u, aw[i], np.concatenate([fcomp[(hgrp, j)] for j in others]),
                        np.concatenate([p[j] * aw[j] for j in others]))
        # these depend on group i alone, so build them once, not per (j, i) pair
        c_parts = [(c.antiderivative(), (CellPoly.identity(c.m) * c).antiderivative(),
                    c.integral(), c.s_moment()) for c in cmods]
        h_parts = [(hs.antiderivative(), hs.integral()) for hs in hstar]
        for j in range(k):
            for i in range(k):
                if i == j:
                    continue
                v = fcomp[(i, j)]
                # inner(v) = int (s ^ v - s v) c_i(s) ds, exact in the cell models
                cum, s_cum, total, smom = c_parts[i]
                inner = s_cum.eval(v, side="left") + v * (total - cum.eval(v, side="left")) \
                    - v * smom
                b2 += p[j] * p[i] * float(np.sum(inner * qcells[j]) * widths[j])
                hc, ht = h_parts[i]
                kernel = hc.eval(v, side="left") - v * ht
                b3 += p[j] * p[i] * float(np.sum(kernel * qcells[j]) * widths[j])

    theta1 = a1 + a2 + a31 + a32 + 2.0 * (b1 + b2 + b3)

    # label-noise components
    ell = np.empty(k)
    mm = np.empty(k)
    for i in range(k):
        eh = group_models[i].integrate_score(h_global, breaks=breaks)
        value_i = reps[i].value(group_models[i])
        if q_skip:
            h_i = 0.0
        else:
            cdf_i = group_models[i].cdf
            h_i = sum(p[a] * group_models[a].integrate_score(
                lambda x, _c=cdf_i: np.asarray(_c(x), dtype=float)
                * np.asarray(q_global(x), dtype=float), breaks=breaks)
                for a in range(k))
        ell[i] = eh - value_i + h_i
        mm[i] = eh + h_i

    lbar = float(p @ ell)
    mbar = float(p @ mm)
    theta2 = float(p @ (ell - lbar) ** 2)
    theta3 = float(p @ (mm - mbar) ** 2)

    return DecompositionVariance(A1=a1, A2=a2, A31=a31, A32=a32, B1=b1, B2=b2,
                                 B3=b3, L=ell, M=mm, theta1_sq=theta1,
                                 theta2_sq=theta2, theta3_sq=theta3)


def gap_inference(sample: EmpiricalSample, partition: SubgroupPartition,
                  index: NamedIndex, center: str = "gd",
                  level: float = 0.95) -> GapInference:
    """Plug-in gap inference: estimate, asymptotic variance and normal CI.

    ``center='gd'`` targets the population gap (variance theta1^2 + theta2^2);
    ``center='gd0'`` targets the plug-in-weighted centering (theta1^2 +
    theta3^2).
    """
    if center not in ("gd", "gd0"):
        raise BadParams(f"center must be 'gd' or 'gd0', got {center!r}")
    values = _split_values(sample, partition)
    for name, vals in zip(partition.names, values):
        if vals.size == 1:
            warnings.warn(f"subgroup {name!r} has a single observation",
                          UserWarning, stacklevel=2)
    gap, groups, estimates = _recompose(sample, values, index)
    w = np.array([grp.n for grp in groups]) / sample.n
    w = w / w.sum()
    dec = gap_variance(w, [EmpiricalDistribution(grp) for grp in groups],
                       lambda m: named_representation(m, index))
    variance = dec.theta1_sq + (dec.theta2_sq if center == "gd" else dec.theta3_sq)
    ci = confidence_interval(gap, max(variance, 0.0), sample.n, level)
    return GapInference(gap=gap, variance=variance, ci=ci, center=center,
                        decomposition=dec, group_estimates=np.asarray(estimates),
                        weights=w)
