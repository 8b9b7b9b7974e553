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
sample cells.  Parametric models hold ``h o Q`` and ``W`` on one mesh per
model and call (:mod:`indexlaw.ugrid`) of the package's ``DEFAULT_GRID``
base cells, whose edges include the levels of every break of the call.  A
finite mesh cannot hold a polynomial of an unbounded quantile, so the
polynomial part of a score (``IndexRepresentation.poly``: the moment kinds,
the mean inside a ratio) takes its moments from the model's closed-form
central moments, and the mesh sees only the bounded remainder.
"""

from __future__ import annotations

import functools
import math
import sys
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .distributions import DistributionModel, _real, normal_quantile
from .empirical import ScoreFunction
from .errors import (BadLevel, BadParams, NegativeVariance, NonFiniteIntegral, OutOfRange,
                     ZeroDenominator)
from .ugrid import NODES, CellPoly, covariances, inner, sample_cells


@dataclass(frozen=True)
class Polynomial:
    """``sum_j coef[j] (x - center)^j``, the polynomial part of a score."""

    center: float
    coef: tuple

    def __call__(self, x):
        return npoly.polyval(np.asarray(x, dtype=float) - self.center, self.coef)

    def about(self, center: float) -> np.ndarray:
        """The coefficients in powers of ``x - center``."""
        shifted = npoly.Polynomial(self.coef)(npoly.Polynomial([center - self.center, 1.0]))
        return np.pad(shifted.coef, (0, len(self.coef) - shifted.coef.size))


def _combine(ca: float, pa: Optional[Polynomial], cb: float,
             pb: Optional[Polynomial]) -> Optional[Polynomial]:
    """``ca pa + cb pb`` about the first center, a missing part counting as 0."""
    parts = [(c, p) for c, p in ((ca, pa), (cb, pb)) if p is not None]
    if not parts:
        return None
    center = parts[0][1].center
    return Polynomial(center, tuple(functools.reduce(
        npoly.polyadd, [c * p.about(center) for c, p in parts])))


@dataclass(frozen=True)
class IndexRepresentation:
    """A statistic's (h, q) score pair plus its value functional.

    ``value`` maps any distribution model to the theoretical index; ``h`` and
    ``q`` are the score and weight-precursor functions built against a
    reference model; ``q`` is None for a pure-mean statistic, and reads as 0
    where it meets a present weight.  ``breaks`` lists x-values where the
    scores jump (cell edges of the parametric mesh).  ``poly`` is the
    polynomial part of h (``h is poly`` when h is all polynomial):
    ``h - poly`` is bounded and vanishes above the largest break.
    """

    h: ScoreFunction
    q: Optional[ScoreFunction]
    value: Callable[[DistributionModel], float]
    breaks: tuple = ()
    poly: Optional[Polynomial] = None


def _zero(x):
    """The zero score; ``rep.q or _zero`` reads an absent weight as 0."""
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class CovarianceEstimate:
    """The three variance pieces and their total gamma1 + gamma2 + 2*gamma3."""

    gamma1: float
    gamma2: float
    gamma3: float
    total: float


# ---------------------------------------------------------------------------
# Cell models of w(Q(s))
# ---------------------------------------------------------------------------


def _evaluate(func: ScoreFunction, x: np.ndarray) -> np.ndarray:
    """``func(x)`` as a float array of x's shape; a scalar score broadcasts."""
    vals = np.asarray(func(x), dtype=float)
    return vals if vals.shape == x.shape else np.full(x.shape, vals)


def _scorer(model: DistributionModel,
            breaks: Sequence[float] = ()) -> Callable[[ScoreFunction], CellPoly]:
    """``func -> score_model(model, func)`` with the nodes built once: the
    sorted sample of an empirical model and its n cells, else the model's
    mesh for ``breaks``; cells and mesh are built on first use."""
    if model.kind == "empirical":
        x = model.sample.values
        cells = functools.cache(lambda: sample_cells(x.size))

        def steps(func):
            vals = _evaluate(func, x)
            if not np.all(np.isfinite(vals)):
                raise NonFiniteIntegral("score is non-finite on the sample")
            return CellPoly(vals.reshape(-1, 1), *cells())

        return steps
    mesh = functools.cache(lambda: model.mesh(breaks))

    def nodes(func):
        edges, x = mesh()
        vals = _evaluate(func, x)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegral("score composed with quantile is not finite on (0, 1)")
        return CellPoly.fit(vals.reshape(-1, NODES), edges)

    return nodes


def score_model(model: DistributionModel, func: ScoreFunction) -> CellPoly:
    """CellPoly model of ``s -> func(Q(s))`` on (0, 1): the exact step
    function of a sample, or per-cell interpolants on a parametric mesh."""
    return _scorer(model)(func)


# ---------------------------------------------------------------------------
# Scores with a polynomial part
# ---------------------------------------------------------------------------


def _central_moments(model: DistributionModel, k: int) -> np.ndarray:
    """``E (X - mean)^j`` for j = 0..k."""
    return np.array([1.0, 0.0][: k + 1] + [model.central_moment(j) for j in range(2, k + 1)])


def _split(model: DistributionModel, score, h: ScoreFunction,
           poly: Optional[Polynomial]) -> tuple:
    """``h(Q(U))`` as (cells of its bounded part, coefficients of its polynomial
    part about the model's mean), either None; a sample keeps h in cells."""
    if poly is None or model.kind == "empirical":
        return score(h), None
    coef = poly.about(model.raw_moment(1))
    if h is poly:
        return None, coef
    return score(lambda x: _evaluate(h, x) - poly(x)), coef


def _mean(model: DistributionModel, score, h: ScoreFunction,
          poly: Optional[Polynomial] = None) -> float:
    """E h(X): the sample mean on a plug-in model, else the mesh integral
    of the bounded part plus the closed-form mean of the polynomial part."""
    if model.kind == "empirical":
        return model.integrate_score(h)
    cells, coef = _split(model, score, h, poly)
    total = 0.0 if cells is None else cells.integral()
    if coef is not None:
        total += math.fsum(coef * _central_moments(model, coef.size - 1))
    return total


def _covs(model: DistributionModel, score, rows: list, cols: list) -> np.ndarray:
    """Cov of every row and column split score ``(cells, polynomial
    coefficients)`` of U; ``cols is rows`` gives a symmetric matrix.

    The cells' covariances are exact on the mesh, each cell part centred and
    evaluated once (``ugrid.covariances``).  A polynomial part P meets the
    other side's bounded cells B through ``int (P - E P) B``, whose integrand
    vanishes where B does, with the cells of P - E P built once, and meets
    the other polynomial part through the central moments:
    ``sum a_i b_j (mu_{i+j} - mu_i mu_j)``.
    """
    out = np.zeros((len(rows), len(cols)))
    ri = [i for i, (c, _) in enumerate(rows) if c is not None]
    ci = ri if cols is rows else [j for j, (c, _) in enumerate(cols) if c is not None]
    if ri and ci:
        cells = [rows[i][0] for i in ri]
        out[np.ix_(ri, ci)] = covariances(cells, cells if cols is rows
                                          else [cols[j][0] for j in ci])
    centred = {}

    def poly_cells(p: np.ndarray) -> CellPoly:
        if id(p) not in centred:
            c = p.copy()
            c[0] -= math.fsum(p * _central_moments(model, p.size - 1))
            centred[id(p)] = score(Polynomial(model.raw_moment(1), tuple(c)))
        return centred[id(p)]

    for i, (ca, pa) in enumerate(rows):
        for j, (cb, pb) in enumerate(cols):
            if cols is rows and j < i:
                out[i, j] = out[j, i]
                continue
            total = float(out[i, j])
            for p, c in ((pa, cb), (pb, ca)):
                if p is not None and c is not None:
                    total += inner(poly_cells(p), c)
            if pa is not None and pb is not None:
                mu = _central_moments(model, pa.size + pb.size - 2)
                total += math.fsum(pa[k] * pb[m] * (mu[k + m] - mu[k] * mu[m])
                                   for k in range(1, pa.size) for m in range(1, pb.size))
            out[i, j] = total
    return out


def _sample_cov(fv: np.ndarray, gv: np.ndarray) -> float:
    """The centred covariance, divisor n, of two score vectors: a sample's gamma1."""
    return float(np.mean((fv - np.mean(fv)) * (gv - np.mean(gv))))


def _pieces(model: DistributionModel, rep_i: IndexRepresentation,
            rep_j: IndexRepresentation) -> tuple[float, float, float, float]:
    """``(Cov(h_i, h_j), Cov(W_i, W_j), Cov(h_i, W_j), Cov(W_i, h_j))`` of
    two representations on one sample or mesh; an absent weight's W terms
    are 0, and one representation shares its h and W."""
    same = rep_i is rep_j
    score = _scorer(model, rep_i.breaks if same else tuple(rep_i.breaks) + tuple(rep_j.breaks))
    exact = model.kind == "empirical"
    if exact and rep_i.q is None and rep_j.q is None:
        x = model.sample.values
        fv = np.asarray(rep_i.h(x), dtype=float)
        gv = fv if rep_j.h is rep_i.h else np.asarray(rep_j.h(x), dtype=float)
        if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
            raise NonFiniteIntegral("score is non-finite on the sample")
        return _sample_cov(fv, gv), 0.0, 0.0, 0.0

    def parts(rep):
        tail = None if rep.q is None else score(rep.q).tail_integral_poly()
        return [_split(model, score, rep.h, rep.poly), (tail, None)]

    rows = parts(rep_i)
    cols = rows if same else parts(rep_j)
    m = _covs(model, score, rows, cols)
    g1 = _sample_cov(rows[0][0].coef[:, 0], cols[0][0].coef[:, 0]) if exact else float(m[0, 0])
    return g1, float(m[1, 1]), float(m[0, 1]), float(m[1, 0])


def index_variance(model: DistributionModel, rep: IndexRepresentation) -> CovarianceEstimate:
    """Asymptotic variance of sqrt(n) (I_n - I) for the given representation."""
    g1, g2, g3, _ = _pieces(model, rep, rep)
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
                           rep_j: IndexRepresentation) -> float:
    """Asymptotic covariance of two indices measured on the same sample."""
    g1, g2, g3_ij, g3_ji = _pieces(model, rep_i, rep_j)
    return float(g1 + (g2 + g3_ij + g3_ji))


def u_atoms(model: DistributionModel, rep: IndexRepresentation) -> CellPoly:
    """The u-function ``phi(s) = h(Q(s)) + W(s)``, ``W(s) = int_s^1 q(Q(t)) dt``.

    Since ``f_s(X) = 1{U <= s}`` for ``U = F(X)``, the beta-term is
    ``G_n(W o F)`` and the whole expansion is ``G_n(phi o F)``: the
    covariance of two representations is ``Cov(phi_a(U), phi_b(V))``, with
    U = V under one margin and (U, V) drawn from the copula across periods.
    """
    return _period(model, [rep]).atoms[0]


@dataclass
class _Period:
    """The u-functions of one margin's representations, read-only, and their
    within-period covariance block, formed on first use.  The representations
    are held by weak reference: their scores may refer to the model, which
    holds the slot, and a cycle would outlive the model's last reference."""

    reps: tuple
    cells: int
    atoms: tuple
    _block: Optional[np.ndarray] = None

    def block(self) -> np.ndarray:
        """``ugrid.covariances`` of the atoms with themselves (read-only)."""
        if self._block is None:
            atoms = list(self.atoms)
            self._block = covariances(atoms, atoms)
            self._block.flags.writeable = False
        return self._block


def _period(model: DistributionModel, reps: Sequence[IndexRepresentation]) -> _Period:
    """The u-functions of ``reps`` under ``model``, on one set of nodes,
    from the model's two-slot memo.

    A slot is reused while the call passes the very same representations
    (``is``) on the same number of base cells, so patching
    ``ugrid.DEFAULT_GRID`` rebuilds it; a model's parameters cannot change.
    Otherwise the atoms are built and replace the slot used least recently.
    Two slots hold both periods of a joint law whose frame passes one model
    as both margins.
    """
    cells, periods = model._base_cells(), model._periods
    for slot in periods:
        if (slot.cells == cells and len(slot.reps) == len(reps)
                and all(ref() is rep for ref, rep in zip(slot.reps, reps))):
            break
    else:
        score = _scorer(model, [b for rep in reps for b in rep.breaks])
        atoms = []
        for rep in reps:
            hm = score(rep.h)
            atoms.append(hm if rep.q is None else hm + score(rep.q).tail_integral_poly())
            atoms[-1].coef.flags.writeable = False
        slot = _Period(tuple(map(weakref.ref, reps)), cells, tuple(atoms))
    if not periods or periods[0] is not slot:
        model._periods = (slot, *(p for p in periods if p is not slot))[:2]
    return slot


def _check_count(value, name: str) -> None:
    """Reject a count (draws, replicates, sample size) that is not an integer
    >= 1 or that lies beyond the float range."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not 1 <= value <= sys.float_info.max):
        raise BadParams(f"{name} must be an integer in [1, {sys.float_info.max:g}], "
                        f"got {value!r}")


@functools.lru_cache(maxsize=64)
def _two_sided_z(level: float) -> float:
    """The normal quantile of ``(1 + level) / 2``; the coverage experiment
    asks for the same level in every replicate."""
    return normal_quantile(0.5 * (1.0 + level))


def confidence_interval(estimate: float, variance: float, n: int,
                        level: float = 0.95) -> tuple[float, float]:
    """Normal confidence interval ``estimate -+ z * sqrt(variance / n)``."""
    if not (0.0 < level < 1.0):
        raise BadLevel(f"confidence level must lie in (0, 1), got {level}")
    estimate, variance = _real(estimate), _real(variance)
    if not (math.isfinite(estimate) and math.isfinite(variance)):
        raise OutOfRange(f"estimate and variance must be finite numbers, got "
                         f"({estimate}, {variance})")
    if variance < 0.0:
        if variance < -1e-9:
            raise NegativeVariance(f"variance {variance} is negative")
        variance = 0.0
    _check_count(n, "n")
    half = _two_sided_z(level) * math.sqrt(variance / n)
    return (estimate - half, estimate + half)


def compose_ratio(rep_num: IndexRepresentation, rep_den: IndexRepresentation,
                  num_value: float, den_value: float) -> IndexRepresentation:
    """Representation of a ratio statistic A_n / B_n.

    Follows the expansion algebra for products and ratios of representable
    sequences: the composed score is ``(1/B) h_A - (A/B^2) h_B`` and the
    weight precursor and the polynomial parts combine the same way.  The
    values A and B, B nonzero, and the weights 1/B and A/B^2 must be finite.
    """
    num_value, den_value = _real(num_value), _real(den_value)
    if den_value == 0.0:
        raise ZeroDenominator("ratio composition needs a nonzero denominator value")
    try:
        ca, cb = 1.0 / den_value, -num_value / den_value ** 2
    except (OverflowError, ZeroDivisionError):  # B^2 beyond the float range
        ca = cb = math.nan
    if not all(map(math.isfinite, (num_value, den_value, ca, cb))):
        raise OutOfRange(f"ratio composition needs finite A, B, 1/B and A/B^2, "
                         f"got A = {num_value}, B = {den_value}")

    def h(x):
        return ca * np.asarray(rep_num.h(x), dtype=float) + cb * np.asarray(rep_den.h(x), dtype=float)

    def q(x):
        return (ca * np.asarray((rep_num.q or _zero)(x), dtype=float)
                + cb * np.asarray((rep_den.q or _zero)(x), dtype=float))

    def value(model):
        return rep_num.value(model) / rep_den.value(model)

    return IndexRepresentation(
        h=h, q=None if rep_num.q is None and rep_den.q is None else q, value=value,
        breaks=tuple(rep_num.breaks) + tuple(rep_den.breaks),
        poly=_combine(ca, rep_num.poly, cb, rep_den.poly),
    )
