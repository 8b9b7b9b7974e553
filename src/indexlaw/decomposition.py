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
kernel is formed.  Parametric models hold psi_g, and integrate the
label-noise expectations, on the group's mesh with every break of the call
as a cell edge; polynomial parts of scores take closed-form moments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import DistributionModel, EmpiricalDistribution, Mixture
from .empirical import EmpiricalSample, build_sample
from .errors import BadWeights, NonFiniteValue, OutOfRange
from .indices import NamedIndex, named_estimate, named_representation
from .representation import (IndexRepresentation, _combine, _covs, _mean, _scorer, _split,
                             _zero, confidence_interval)
from .ugrid import _cumsum


@dataclass(frozen=True)
class SubgroupPartition:
    """Per-observation group labels (input order).

    ``labels`` holds integer codes 1..K = ``len(names)`` (else ``OutOfRange``).
    Group i is weighted by its observed frequency n_i*/n; groups that happen
    to be empty are skipped in sums (the limit theory assumes all groups grow).
    """

    labels: np.ndarray
    names: tuple

    def __post_init__(self):
        codes = np.asarray(self.labels)
        if codes.ndim != 1 or not np.isin(codes, np.arange(1, self.n_groups + 1)).all():
            raise OutOfRange(f"labels must be a 1-d array of integer codes 1..{self.n_groups}")
        object.__setattr__(self, "labels", codes)

    @property
    def n_groups(self) -> int:
        return len(self.names)

    @staticmethod
    def from_labels(labels: Sequence) -> "SubgroupPartition":
        """Map hashable labels to 1..K in first-seen order (else ``OutOfRange``).

        A float NaN label raises ``NonFiniteValue``: NaN equals nothing, not
        even another NaN, so each would silently form a group of its own.
        """
        seen: dict = {}
        codes = []
        try:
            for i, lab in enumerate(labels):
                if isinstance(lab, (float, np.floating)) and math.isnan(lab):
                    raise NonFiniteValue(i)
                codes.append(seen.setdefault(lab, len(seen) + 1))
        except TypeError:
            raise OutOfRange("labels must be an iterable of hashable values") from None
        return SubgroupPartition(labels=np.array(codes, dtype=np.int64), names=tuple(seen))


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
    """Result of plug-in gap inference under both centerings: ``_gd`` targets
    the population gap (variance theta1^2 + theta2^2), ``_gd0`` the
    plug-in-weighted centering (theta1^2 + theta3^2)."""

    gap: float
    variance_gd: float
    variance_gd0: float
    ci_gd: tuple[float, float]
    ci_gd0: tuple[float, float]
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


def _tail(model: DistributionModel, q, score: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """``x -> int_{y >= x} q dF``: the q-mass of the model at or above x.

    Empirical models sum ``q(x_t)/n`` over the sorted sample from the first
    value >= x, compensated so the suffix does not drift with n, and a value
    tied with x counts as above it; parametric ones
    evaluate the tail integral of the q cell model ``score(q)`` at F(x).
    """
    if model.kind == "empirical":
        x = model.sample.values
        suffix = np.append(_cumsum((np.asarray(q(x), dtype=float) / x.size)[::-1])[::-1], 0.0)
        return lambda y: suffix[np.searchsorted(x, y, side="left")]
    tail = score(q).tail_integral_poly()
    return lambda y: tail.eval(model.cdf(y))


def _weights(weights: Sequence[float], group_models: Sequence) -> np.ndarray:
    """The drawing weights as a float array, ``BadWeights`` unless they are
    positive numbers summing to 1, one per group model."""
    try:
        p = np.asarray(weights, dtype=float)
    except (TypeError, ValueError):
        raise BadWeights(f"weights must be numbers, got {weights!r}") from None
    if p.ndim != 1 or len(group_models) != p.size or p.size == 0:
        raise BadWeights("weights must be a 1-d array aligned with the nonempty group models")
    if np.any(p <= 0) or not np.isclose(p.sum(), 1.0, atol=1e-9):
        raise BadWeights("weights must be positive and sum to 1")
    return p


def gap_variance(weights: Sequence[float], group_models: Sequence[DistributionModel],
                 rep_builder: Callable[[DistributionModel], IndexRepresentation]
                 ) -> DecompositionVariance:
    """The within-group variance theta1^2 and the label-noise parts
    theta2^2, theta3^2 for the given group laws.

    ``rep_builder`` maps a distribution model to the index representation
    under that model; it is applied to each subgroup law and to their
    mixture.  A representation without a weight (``q is None``, e.g. in a
    group in which nobody is poor) meets the others' weights as q = 0.
    """
    p = _weights(weights, group_models)
    k = p.size
    mixture = group_models[0] if k == 1 else Mixture(p, group_models)
    rep = rep_builder(mixture)
    reps = [rep_builder(m) for m in group_models]
    breaks = tuple(rep.breaks) + tuple(b for r in reps for b in r.breaks)

    h_global, q_global = rep.h, rep.q or _zero
    q_skip = rep.q is None and all(r.q is None for r in reps)
    scores = [_scorer(m, breaks) for m in group_models]
    tails = [] if q_skip else [_tail(m, q_global, sc) for m, sc in zip(group_models, scores)]

    theta1 = 0.0
    for g, (model_g, score, rep_g) in enumerate(zip(group_models, scores, reps)):
        def point_part(x, _g=g, _hg=rep_g.h):
            # (h - h_g)(x) plus the other groups' q-mass at or above x
            out = np.asarray(h_global(x), dtype=float) - np.asarray(_hg(x), dtype=float)
            for a, tail in enumerate(tails):
                if a != _g:
                    out = out + p[a] * tail(x)
            return out

        psi, poly = _split(model_g, score, point_part, _combine(1.0, rep.poly, -1.0, rep_g.poly))
        if not q_skip:
            own = score(lambda x, _qg=rep_g.q or _zero, _pg=p[g]:
                        _pg * np.asarray(q_global(x), dtype=float)
                        - np.asarray(_qg(x), dtype=float)).tail_integral_poly()
            psi = own if psi is None else psi + own
        parts = [(psi, poly)]
        theta1 += p[g] * float(_covs(model_g, score, parts, parts)[0, 0])

    # label-noise components
    ell = np.empty(k)
    mm = np.empty(k)
    for i in range(k):
        eh = _mean(group_models[i], scores[i], h_global, rep.poly)
        value_i = reps[i].value(group_models[i])
        if q_skip:
            h_i = 0.0
        else:
            cdf_i = group_models[i].cdf
            h_i = sum(p[a] * _mean(group_models[a], scores[a],
                                   lambda x, _c=cdf_i: np.asarray(_c(x), dtype=float)
                                   * np.asarray(q_global(x), dtype=float))
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
                  index: NamedIndex, level: float = 0.95) -> GapInference:
    """Plug-in gap inference: estimate, asymptotic variances and normal CIs."""
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
    var_gd, var_gd0 = dec.theta1_sq + dec.theta2_sq, dec.theta1_sq + dec.theta3_sq
    return GapInference(gap=gap, variance_gd=var_gd, variance_gd0=var_gd0,
                        ci_gd=confidence_interval(gap, max(var_gd, 0.0), sample.n, level),
                        ci_gd0=confidence_interval(gap, max(var_gd0, 0.0), sample.n, level),
                        decomposition=dec, group_estimates=np.asarray(estimates),
                        weights=w)
