"""Subgroup decomposability-gap estimation and inference.

A population split into K subgroups with drawing weights p_i has mixture law
``F = sum p_i F_i``.  For an index I with representation (h, q) under F and
per-group representations (h_i, q_i) under F_i (the scores may depend on the
underlying CDF and are rebuilt per group), the decomposability gap

    gd_n = I_n - sum_i (n_i*/n) I^(i)_{n_i*}

is asymptotically normal after sqrt(n)-scaling.  Like a single statistic,
whose expansion is ``G_n(phi o F)`` with ``phi = h o Q + W``, the gap's
within-group part is one u-function per group: an observation of group g at
level s = F_g(x) contributes

    psi_g(s) = [h - h_g + sum_{a != g} p_a Tail_a](Q_g(s)) + T[(p_g q - q_g) o Q_g](s),

with ``Tail_a(x) = int_{y >= x} q dF_a`` and T the tail integral over
(s, 1), so that ``theta1^2 = sum_g p_g Var(psi_g(U))``.  Expanding the
variance gives the seven constants A1, A2, A31 + A32, B1, B2, B3 of the
derivation, but the centred form is a sum of squares, not a difference of
much larger constants.  The variance adds a multinomial label-noise part:
theta2^2 (centering at the population gap gd) or theta3^2 (centering at the
plug-in-weighted gd_{0,n}), both weighted variances over groups.

With empirical group models psi_g is exact on the group's cells: each Tail_a
is a suffix sum over the sorted values of group a, looked up by one
``searchsorted`` per group pair, so theta1^2 costs O(n log n) and no n-by-n
kernel is formed.  Parametric models use the grid models of ``score_model``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import DistributionModel, EmpiricalDistribution, Mixture
from .empirical import EmpiricalSample, build_sample
from .errors import BadParams, BadWeights, NonFiniteValue, OutOfRange
from .indices import NamedIndex, named_estimate, named_representation
from .representation import (DEFAULT_GRID, IndexRepresentation,
                             confidence_interval, score_model)
from .ugrid import covariance


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
        """Map arbitrary labels to 1..K in first-seen order.

        A float NaN label raises ``NonFiniteValue``: NaN equals nothing, not
        even another NaN, so each would silently form a group of its own.
        """
        seen: dict = {}
        codes = np.empty(len(labels), dtype=np.int64)
        for i, lab in enumerate(labels):
            if isinstance(lab, (float, np.floating)) and math.isnan(lab):
                raise NonFiniteValue(i)
            if lab not in seen:
                seen[lab] = len(seen) + 1
            codes[i] = seen[lab]
        return SubgroupPartition(labels=codes, n_groups=len(seen), names=tuple(seen))


@dataclass(frozen=True)
class DecompositionVariance:
    """The three variance parts and the per-group label-noise terms L, M."""

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
# Asymptotic variance
# ---------------------------------------------------------------------------


def _tail(model: DistributionModel, q, grid: int) -> Callable[[np.ndarray], np.ndarray]:
    """``x -> int_{y >= x} q dF``: the q-mass of the model at or above x.

    Empirical models sum ``q(x_t)/n`` over the sorted sample from the first
    value >= x, so a value tied with x counts as above it; parametric ones
    evaluate the tail integral of the q grid model at F(x).
    """
    if model.kind == "empirical":
        x = model.sample.values
        suffix = np.append(np.cumsum((np.asarray(q(x), dtype=float) / x.size)[::-1])[::-1], 0.0)
        return lambda y: suffix[np.searchsorted(x, y, side="left")]
    tail = score_model(model, q, grid).tail_integral_poly()
    return lambda y: tail.eval(model.cdf(y))


def gap_variance(weights: Sequence[float], group_models: Sequence[DistributionModel],
                 rep_builder: Callable[[DistributionModel], IndexRepresentation],
                 global_rep: Optional[IndexRepresentation] = None,
                 grid: int = DEFAULT_GRID) -> DecompositionVariance:
    """The within-group variance theta1^2 and the label-noise parts
    theta2^2, theta3^2 for the given group laws.

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
    tails = [] if q_skip else [_tail(m, q_global, grid) for m in group_models]

    theta1 = 0.0
    for g, (model, rep_g) in enumerate(zip(group_models, reps)):
        def point_part(x, _g=g, _hg=rep_g.h):
            # (h - h_g)(x) plus the other groups' q-mass at or above x
            out = np.asarray(h_global(x), dtype=float) - np.asarray(_hg(x), dtype=float)
            for a, tail in enumerate(tails):
                if a != _g:
                    out = out + p[a] * tail(x)
            return out

        psi = score_model(model, point_part, grid)
        if not q_skip:
            own = score_model(model, lambda x, _qg=rep_g.q, _pg=p[g]:
                              _pg * np.asarray(q_global(x), dtype=float)
                              - np.asarray(_qg(x), dtype=float), grid)
            psi = psi + own.tail_integral_poly()
        theta1 += p[g] * covariance(psi, psi)

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

    return DecompositionVariance(L=ell, M=mm, theta1_sq=theta1, theta2_sq=theta2,
                                 theta3_sq=theta3)


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
