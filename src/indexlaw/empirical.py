"""Order statistics, empirical CDF/quantile functions, ranks and the
functional empirical process.

The sample model is a sorted copy of the observations plus a read-only copy
in input order.  The empirical CDF is the right-continuous step function
``F_n(x) = #{j : X_j <= x} / n`` and the empirical quantile function is its
generalized inverse, the left-continuous step function taking the value
``X_{(j)}`` on ``((j-1)/n, j/n]``.

Ties follow the max-rank convention: the rank of an observation is
``n * F_n(X_j)``, so the identity ``R_j / n = F_n(X_j)`` holds exactly even
with repeated values.  (The asymptotic theory assumes a continuous underlying
distribution, where ties have probability zero; the convention only matters
for discrete data.)  Tied values share a max-rank, so one unstable sort per
column gives every rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptySample, NonFiniteScore, NonFiniteValue, OutOfRange

ScoreFunction = Callable[[np.ndarray], np.ndarray]
"""A measurable score: a vectorized callable mapping reals to reals."""


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted observations with rank access.

    Attributes
    ----------
    values : ndarray
        Observations sorted nondecreasing (read-only).

    ``n`` is the sample size.  The observations in input order are kept as
    a read-only copy, which ``input_values()`` returns.
    """

    values: np.ndarray
    _inputs: np.ndarray

    @property
    def n(self) -> int:
        return self.values.size

    def input_values(self) -> np.ndarray:
        """The observations in their original input order (read-only)."""
        return self._inputs


def build_sample(values) -> EmpiricalSample:
    """Validate and sort raw observations into an EmpiricalSample.

    Raises
    ------
    EmptySample
        If no observations are given.
    NonFiniteValue
        If any observation is NaN or infinite (reports the first offender).
    OutOfRange
        If the observations are not numbers.
    """
    try:
        arr = np.array(values, dtype=float).ravel()
    except (TypeError, ValueError):
        raise OutOfRange(f"observations must be numbers, got {values!r}") from None
    if arr.size == 0:
        raise EmptySample("need at least one observation")
    bad = ~np.isfinite(arr)
    if bad.any():
        raise NonFiniteValue(int(np.flatnonzero(bad)[0]))
    sorted_vals = np.sort(arr)
    sorted_vals.flags.writeable = False
    arr.flags.writeable = False
    return EmpiricalSample(values=sorted_vals, _inputs=arr)


def ecdf(sample: EmpiricalSample, x) -> float | np.ndarray:
    """Empirical CDF: fraction of observations <= x (vectorized in x);
    ``OutOfRange`` unless every point is a number other than nan."""
    try:
        points = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        points = np.array(np.nan)
    if np.isnan(points).any():
        raise OutOfRange(f"ecdf points must be numbers, got {x!r}")
    counts = np.searchsorted(sample.values, points, side="right")
    out = counts / sample.n
    return float(out) if np.isscalar(x) else out


def equantile(sample: EmpiricalSample, s: float) -> float:
    """Empirical quantile X_{(j)} with j the smallest integer >= n*s.

    Defined for s in (0, 1]; s = 1 returns the sample maximum.
    """
    if not (0.0 < s <= 1.0):
        raise OutOfRange(f"quantile level must lie in (0, 1], got {s}")
    j = math.ceil(sample.n * s)
    return float(sample.values[j - 1])


def ranks(sample: EmpiricalSample) -> np.ndarray:
    """Max-ranks of the observations in input order.

    Satisfies ``ranks[j] == n * ecdf(sample, X_j)`` exactly, ties included.
    """
    return _max_ranks(sample.input_values())


def _max_ranks(x: np.ndarray) -> np.ndarray:
    """Max-ranks ``#{k : x_k <= x_j}`` of a finite 1-d array, in its order.

    One argsort gives them: searching the sorted values for themselves is a
    monotone scan, and tied values share a max-rank, so the sort need not
    be stable.
    """
    order = np.argsort(x)
    v = x[order]
    out = np.empty(v.size, dtype=np.int64)
    out[order] = np.searchsorted(v, v, side="right")
    return out


def _scores(sample: EmpiricalSample, f: ScoreFunction) -> np.ndarray:
    vals = np.asarray(f(sample.values), dtype=float)
    if vals.shape != sample.values.shape:
        vals = np.broadcast_to(vals, sample.values.shape)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteScore("score function returned a non-finite value on the sample")
    return vals


def empirical_measure(sample: EmpiricalSample, f: ScoreFunction) -> float:
    """Integral of f against the empirical measure: the mean of f over the
    observations."""
    return float(np.mean(_scores(sample, f)))


def _real(value) -> float:
    """``value`` read through ``float()``, nan if it cannot be read."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def fep(sample: EmpiricalSample, f: ScoreFunction, mean_f: float) -> float:
    """Functional empirical process at f.

    ``sqrt(n) * (P_n(f) - mean_f)`` where ``mean_f`` is the caller-supplied
    theoretical mean of f(X), a number.  Exactly linear in f.
    """
    value = math.sqrt(sample.n) * (empirical_measure(sample, f) - _real(mean_f))
    if not math.isfinite(value):
        raise OutOfRange(f"the process at mean_f = {mean_f!r} is not a finite number")
    return value


def residual_stat(sample: EmpiricalSample, q: ScoreFunction, model) -> float:
    """Rank-induced residual of an L-statistic.

    ``(1/n) * sum_j (F_n(X_j) - F(X_j)) q(X_j)`` with F taken from the given
    distribution model (the true or reference CDF -- plugging in the sample's
    own empirical CDF gives identically zero).
    """
    qv = _scores(sample, q)
    # F_n at the sorted values; the max-rank form stays exact under ties
    fn = np.searchsorted(sample.values, sample.values, side="right") / sample.n
    ftrue = np.asarray(model.cdf(sample.values), dtype=float)
    return float(np.mean((fn - ftrue) * qv))
