"""The score-pair representation of an index and its covariance calculus.

An index whose centered, scaled estimation error expands as

    sqrt(n) (I_n - I) = G_n(h) + int_0^1 G_n(f_s) l(s) ds + o_P(1),

with G_n the functional empirical process, f_s the indicator of
``(-inf, Q(s)]`` and ``l = q o Q`` for a weight precursor q, is fully
described by the pair ``(h, q)`` together with its value functional.  Since
``f_s(X) = 1{U <= s}`` for ``U = F(X)``, the weight term is ``G_n(W o F)``
with ``W(s) = int_s^1 l(t) dt``, and the limiting variance splits into three
covariances of functions of one uniform U:

    gamma1 = Var h(X),
    gamma2 = Var W(U)            = int int (min(s,t) - s t) l(s) l(t) ds dt,
    gamma3 = Cov(h(Q(U)), W(U))  = int (int_0^s h(Q(u)) du - s E h) l(s) ds,

and the total is ``gamma1 + gamma2 + 2 gamma3``.  Cross-covariances between
two indices combine the same covariances bilinearly.

Empirical models evaluate every integral as an exact step sum over the n
sample cells.  Parametric models use piecewise-linear interpolants of the
integrands on a uniform grid (default 2048 cells) whose endpoint nodes fall
back to clipped quantiles ``[h/2, 1 - h/2]`` only where the quantile is
unbounded; integration of the interpolants is closed-form, so polynomial
cases are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import DistributionModel, normal_quantile
from .errors import BadLevel, NegativeVariance, NonFiniteIntegral, OutOfRange
from .ugrid import CellPoly, covariance

DEFAULT_GRID = 2048

ScoreFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IndexRepresentation:
    """A statistic's (h, q) score pair plus its value functional.

    ``value`` maps any distribution model to the theoretical index; ``h`` and
    ``q`` are the score and weight-precursor functions built against a
    reference model.  ``breaks`` lists x-values where the scores jump (used
    as quadrature subdivision hints) and ``q_zero`` marks pure-mean
    statistics whose beta-term vanishes identically.
    """

    h: ScoreFunction
    q: ScoreFunction
    value: Callable[[DistributionModel], float]
    breaks: tuple = ()
    q_zero: bool = False


@dataclass(frozen=True)
class CovarianceEstimate:
    """The three variance pieces and their total gamma1 + gamma2 + 2*gamma3."""

    gamma1: float
    gamma2: float
    gamma3: float
    total: float


# ---------------------------------------------------------------------------
# u-grid models of w(Q(s))
# ---------------------------------------------------------------------------


def check_grid(grid: int) -> None:
    """Reject a grid size that is not an integer >= 1."""
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 1:
        raise OutOfRange(f"grid size must be an integer >= 1, got {grid!r}")


def quantile_grid(model: DistributionModel, grid: int) -> np.ndarray:
    """Quantile values at the nodes k/grid, with unbounded endpoints clipped
    to [h/2, 1 - h/2]."""
    check_grid(grid)
    s = np.linspace(0.0, 1.0, grid + 1)
    x = np.asarray(model.quantile_extended(s), dtype=float)
    clip = 0.5 / grid
    if not np.isfinite(x[0]):
        x[0] = float(np.asarray(model.quantile_extended(clip)))
    if not np.isfinite(x[-1]):
        x[-1] = float(np.asarray(model.quantile_extended(1.0 - clip)))
    return x


def _evaluate(func: ScoreFunction, x: np.ndarray) -> np.ndarray:
    """``func(x)`` as a float array of x's shape; a scalar score broadcasts."""
    vals = np.asarray(func(x), dtype=float)
    return vals if vals.shape == x.shape else np.full(x.shape, vals)


def score_model(model: DistributionModel, func: ScoreFunction,
                grid: int = DEFAULT_GRID) -> CellPoly:
    """CellPoly model of ``s -> func(Q(s))`` on (0, 1).

    Exact step function for empirical models; piecewise-linear interpolant on
    ``grid`` cells for parametric ones.
    """
    if model.kind == "empirical":
        vals = _evaluate(func, model.sample.values)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegral("score is non-finite on the sample")
        return CellPoly.from_cells(vals)
    x = quantile_grid(model, grid)
    vals = _evaluate(func, x)
    if not np.all(np.isfinite(vals)):
        # retry the offending endpoints at clipped quantiles
        clip = 0.5 / grid
        for idx, sc in ((0, clip), (-1, 1.0 - clip)):
            if not np.isfinite(vals[idx]):
                vals[idx] = float(np.asarray(func(np.asarray(
                    model.quantile_extended(sc), dtype=float))))
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegral("score composed with quantile is not finite on (0, 1)")
    return CellPoly.from_nodes(vals)


# ---------------------------------------------------------------------------
# Elementary covariance operations
# ---------------------------------------------------------------------------


def score_covariance(model: DistributionModel, f: ScoreFunction, g: ScoreFunction,
                     breaks: Sequence[float] = ()) -> float:
    """Covariance of f(X) and g(X) under the model.

    For an empirical model this is the exact sample covariance with divisor
    n; otherwise expectations are integrated adaptively.
    """
    if model.kind == "empirical":
        fv = np.asarray(f(model.sample.values), dtype=float)
        gv = np.asarray(g(model.sample.values), dtype=float)
        if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
            raise NonFiniteIntegral("score is non-finite on the sample")
        return float(np.mean(fv * gv) - np.mean(fv) * np.mean(gv))
    ef = model.integrate_score(f, breaks=breaks)
    eg = ef if g is f else model.integrate_score(g, breaks=breaks)
    efg = model.integrate_score(lambda x: np.asarray(f(x), dtype=float)
                                * np.asarray(g(x), dtype=float), breaks=breaks)
    cov = efg - ef * eg
    if not np.isfinite(cov):
        raise NonFiniteIntegral("covariance integral is not finite")
    return float(cov)


def indicator_cov_closed_form(s: float, t: float) -> float:
    """Closed-form bridge covariance min(s, t) - s*t for levels in (0, 1)."""
    if not (0.0 < s < 1.0 and 0.0 < t < 1.0):
        raise OutOfRange(f"levels must lie in (0, 1), got ({s}, {t})")
    return min(s, t) - s * t


def beta_beta_cov(model: DistributionModel, q1: ScoreFunction, q2: ScoreFunction,
                  grid: int = DEFAULT_GRID) -> float:
    """Covariance of two beta-terms:
    ``int int (min(s,t) - s t) q1(Q(s)) q2(Q(t)) ds dt = Cov(W1(U), W2(U))``."""
    return covariance(score_model(model, q1, grid).tail_integral_poly(),
                      score_model(model, q2, grid).tail_integral_poly())


def beta_cross_cov(model: DistributionModel, h: ScoreFunction, q: ScoreFunction,
                   grid: int = DEFAULT_GRID) -> float:
    """Covariance of the score term with a beta-term:
    ``int (int_0^s h(Q(u)) du - s E h) q(Q(s)) ds = Cov(h(Q(U)), W(U))``."""
    return covariance(score_model(model, h, grid),
                      score_model(model, q, grid).tail_integral_poly())


def index_variance(model: DistributionModel, rep: IndexRepresentation,
                   grid: int = DEFAULT_GRID) -> CovarianceEstimate:
    """Asymptotic variance of sqrt(n) (I_n - I) for the given representation."""
    g1 = score_covariance(model, rep.h, rep.h, breaks=rep.breaks)
    if rep.q_zero:
        g2 = 0.0
        g3 = 0.0
    else:
        hm = score_model(model, rep.h, grid)
        w = score_model(model, rep.q, grid).tail_integral_poly()
        g2 = covariance(w, w)
        g3 = covariance(hm, w)
    total = g1 + g2 + 2.0 * g3
    if total < -1e-9:
        raise NegativeVariance(f"total variance {total} < -1e-9; inconsistent inputs")
    if total < 0.0:
        # negligible round-off deficit; absorb it in gamma3 so the stored
        # identity total == gamma1 + gamma2 + 2*gamma3 holds exactly
        g3 = -(g1 + g2) / 2.0
        total = g1 + g2 + 2.0 * g3
        total = max(total, 0.0)
    return CovarianceEstimate(gamma1=g1, gamma2=g2, gamma3=g3, total=total)


def index_cross_covariance(model: DistributionModel, rep_i: IndexRepresentation,
                           rep_j: IndexRepresentation, grid: int = DEFAULT_GRID) -> float:
    """Asymptotic covariance of two indices measured on the same sample."""
    breaks = tuple(rep_i.breaks) + tuple(rep_j.breaks)
    total = score_covariance(model, rep_i.h, rep_j.h, breaks=breaks)
    if not (rep_i.q_zero and rep_j.q_zero):
        hi = score_model(model, rep_i.h, grid)
        hj = score_model(model, rep_j.h, grid)
        wi = score_model(model, rep_i.q, grid).tail_integral_poly()
        wj = score_model(model, rep_j.q, grid).tail_integral_poly()
        total += covariance(wi, wj) + covariance(hi, wj) + covariance(wi, hj)
    return float(total)


def u_atoms(model: DistributionModel, rep: IndexRepresentation,
            grid: int = DEFAULT_GRID) -> CellPoly:
    """The u-function ``phi(s) = h(Q(s)) + W(s)``, ``W(s) = int_s^1 q(Q(t)) dt``.

    Since ``f_s(X) = 1{U <= s}`` for ``U = F(X)``, the beta-term is
    ``G_n(W o F)`` and the whole expansion is ``G_n(phi o F)``: the
    covariance of two representations is ``Cov(phi_a(U), phi_b(V))``, with
    U = V under one margin and (U, V) drawn from the copula across periods.
    """
    hm = score_model(model, rep.h, grid)
    if rep.q_zero:
        return hm
    return hm + score_model(model, rep.q, grid).tail_integral_poly()


def confidence_interval(estimate: float, variance: float, n: int,
                        level: float = 0.95) -> tuple[float, float]:
    """Normal confidence interval ``estimate -+ z * sqrt(variance / n)``."""
    if not (0.0 < level < 1.0):
        raise BadLevel(f"confidence level must lie in (0, 1), got {level}")
    if variance < 0.0:
        if variance < -1e-9:
            raise NegativeVariance(f"variance {variance} is negative")
        variance = 0.0
    if n < 1:
        raise OutOfRange("n must be a positive count")
    z = normal_quantile(0.5 * (1.0 + level))
    half = z * math.sqrt(variance / n)
    return (estimate - half, estimate + half)


def compose_ratio(rep_num: IndexRepresentation, rep_den: IndexRepresentation,
                  num_value: float, den_value: float) -> IndexRepresentation:
    """Representation of a ratio statistic A_n / B_n.

    Follows the expansion algebra for products and ratios of representable
    sequences: the composed score is ``(1/B) h_A - (A/B^2) h_B`` and the
    weight precursor combines the same way.
    """
    from .errors import ZeroDenominator

    if den_value == 0.0:
        raise ZeroDenominator("ratio composition needs a nonzero denominator value")
    ca = 1.0 / den_value
    cb = -num_value / den_value ** 2

    def h(x):
        return ca * np.asarray(rep_num.h(x), dtype=float) + cb * np.asarray(rep_den.h(x), dtype=float)

    def q(x):
        return ca * np.asarray(rep_num.q(x), dtype=float) + cb * np.asarray(rep_den.q(x), dtype=float)

    def value(model):
        return rep_num.value(model) / rep_den.value(model)

    return IndexRepresentation(
        h=h, q=q, value=value,
        breaks=tuple(rep_num.breaks) + tuple(rep_den.breaks),
        q_zero=rep_num.q_zero and rep_den.q_zero,
    )
