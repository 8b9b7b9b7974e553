"""Two-period joint laws: copula models, variation and relative variation.

Paired observations of the same population at two times are linked by a
copula C.  A representation ``(h, q)`` under a margin F expands the scaled
estimation error as ``G_n(phi o F)`` for the single u-function

    phi(s) = h(Q(s)) + W(s),    W(s) = int_s^1 q(Q(t)) dt,

so every entry of a joint covariance matrix is one covariance
``int phi(u) psi(v) dC(u, v) - int phi * int psi`` of two such atoms: within
a period both see the same U (an exact covariance on their shared cells),
across periods (U, V) ~ C.  The variance of a difference and, by the delta
method, the laws of relative variations are read off the assembled matrix.

Copula integrals: independence and comonotone copulas are closed forms;
empirical copulas are exact rank sums.  The Gaussian copula is Mehler's
expansion (1866),

    Cov(phi(U), psi(V)) = sum_{k >= 1} rho^k a_k b_k,
    a_k = int_0^1 phi(u) h_k(Phi^-1(u)) du,

with h_k the orthonormal Hermite polynomials.  The spectrum a_k of an atom
does not depend on rho.  It is taken on one mesh for every atom,
``ugrid.mesh_edges(DEFAULT_GRID)``, whose graded cells resolve
h_k(Phi^-1(u)) towards 0 and 1: the atom, centred once, is projected
exactly (in L2) on the degree-6 polynomials of each cell, and a_k is the
Gauss rule there at the nodes' normal scores.  The projection's error in
a_k is that of h_k's interpolant on the mesh, wherever the atom jumps, so
a sample's step functions read the bivariate normal to 1e-12 as a
parametric margin's do; it costs one pass over the atom's cells (the n
cells of a sample), and the series then runs on the mesh's nodes only.
The series stops at the smallest K with ``|rho|^(K+1) <= 2^-53``, which by
Bessel bounds the dropped tail by ``2^-53 |phi~| |psi~|`` (the L2 norms of
the centred atoms); K is 0 at rho = 0 (every entry exactly 0) and at most
``MEHLER_ORDER`` (4096).  The cap is reached above |rho| ~ 0.991, where
the dropped tail is bounded only by ``|rho|^4097 |phi~| |psi~|``; it keeps
rho next to +-1 finite in time.  Each margin's atoms are built on one
mesh, whose cell edges include the levels of every break of the
representations in the call.

Assembly: the atoms of one period form one block of covariances
(``ugrid.covariances``), each atom centred and evaluated once per Gauss
rule; the two periods meet in one block call of the copula's ``cross_cov``,
where the Gaussian copula forms one dot product of two spectra per entry,
and the empirical copula takes each atom's cell averages once.  Every entry
keeps the arithmetic of its pair.

Reuse: each margin keeps a two-slot memo of its last periods
(``representation._period``): the atoms of the representations passed and
their within-period block.  A slot is keyed on the
identity of those representations and on the mesh size
(``model._base_cells()``); two slots hold both periods of a frame that
passes one margin twice.  The Gaussian copula keeps each atom's spectrum,
K numbers, for as long as the atom lives (``_SPECTRA``, weakly keyed), and
takes it again, from the atom, when a larger |rho| asks for a larger K.  A
sweep over copulas with fixed margins and representations so projects each
margin once if its largest |rho| comes first, and then pays one product of
spectra per rho, with the bits of a fresh build.

A period's own entry is ``index_variance(...).total`` to round-off on an
empirical or bounded margin, or for a score without polynomial part.  Not
so for a polynomial part on an unbounded margin: ``phi`` holds ``h o Q``
whole on the mesh, where ``index_variance`` takes that part from closed-form
moments; on LogNormal(0, 1) the diagonal is 4.1% low for ``central_moment(3)``
and 61% low for ``even_moment(2)``.  The Gaussian cross entry of such a
score reads the same mesh: ``central_moment(2)`` on Normal(2, 1) margins
gives Isserlis' ``2 rho^2 sigma^4`` to 7e-12, and on LogNormal(0, 1) ->
LogNormal(log 1.1, 1) its closed form to 2.4e-6 (rho = 0.5) and 6.1e-5
(rho = 0.9), the mass the mesh's last cell misses.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ugrid
from .distributions import DistributionModel, _real, normal_quantile
from .empirical import _max_ranks
from .errors import (BadParams, NegativeVariance, NonFiniteValue, OutOfRange, TooFewPairs,
                     ZeroBaseIndex)
from .representation import IndexRepresentation, _period
from .ugrid import (NODES, CellPoly, covariance, gauss_legendre, gauss_nodes, gauss_weights,
                    mesh_edges, sample_cells)

MEHLER_ORDER = 4096    # the largest order of the Gaussian copula's Hermite series

# each atom's Hermite coefficients, kept while the atom lives: (the mesh
# size they were taken on, a_1 .. a_K)
_SPECTRA: "weakref.WeakKeyDictionary[CellPoly, tuple]" = weakref.WeakKeyDictionary()


# ---------------------------------------------------------------------------
# Copula models
# ---------------------------------------------------------------------------


class CopulaModel:
    """The coupling of two uniforms (U, V) with uniform margins, used as the
    integration measure of cross-period covariances."""

    def cross_cov(self, phi, psi):
        """``Cov(phi(U), psi(V))`` for (U, V) ~ C, with means taken under the
        same (possibly discretized) measure as the joint term, so a constant
        factor gives exactly 0 and assembled matrices stay consistent.

        Given two lists of atoms, the matrix of their pairs' covariances,
        one row per atom of ``phi``, each entry the pair's own value; the
        Gaussian copula projects each atom once (and keeps its spectrum
        while the atom lives), the empirical copula evaluates it once.
        """
        raise NotImplementedError


def _pairwise(block):
    """A copula's ``cross_cov`` from its block form, which takes two lists
    of atoms and returns their matrix: a pair of atoms gives the float."""

    @functools.wraps(block)
    def cross_cov(self, phi, psi):
        if isinstance(phi, CellPoly):
            return float(block(self, [phi], [psi])[0, 0])
        return block(self, list(phi), list(psi))

    return cross_cov


class IndependenceCopula(CopulaModel):
    @_pairwise
    def cross_cov(self, phis, psis):
        return np.zeros((len(phis), len(psis)))


class ComonotoneCopula(CopulaModel):
    @_pairwise
    def cross_cov(self, phis, psis):
        # U = V: exact also when the two periods' cells differ
        return np.array([[covariance(phi, psi) for psi in psis] for phi in phis])


def _mehler_order(rho: float) -> int:
    """The order K of the Gaussian copula's series: the smallest with
    ``|rho|^(K+1) <= 2^-53``, 0 at rho = 0, at most ``MEHLER_ORDER``."""
    if rho == 0.0:
        return 0
    return min(MEHLER_ORDER, math.ceil(-53.0 / math.log2(abs(rho))) - 1)


def _centred_projection(phi: CellPoly, edges: np.ndarray) -> np.ndarray:
    """``phi - int phi`` projected in L2 on the polynomials of degree
    ``NODES - 1`` on each cell of ``edges``: its values at
    ``gauss_nodes(edges)``, shape (cells, NODES).

    The products ``int_cell (phi - int phi) l_j`` with the Lagrange
    polynomials l_j of a cell's nodes are exact: sums of the cell's moments
    of x^p, each taken by a Gauss rule with nodes enough for its degree on
    every cell of the union of both meshes.  A node's value is its product
    over ``W_j`` times the cell's half width.
    """
    union = ugrid._distinct(np.concatenate([phi.edges, edges]))
    left, half = union[:-1], np.diff(union) / 2.0
    own = np.searchsorted(phi.edges, left, "right") - 1
    cell = np.searchsorted(edges, left, "right") - 1
    width = np.diff(edges)
    # the point x of a union cell is alpha + beta x in the coordinate of
    # phi's cell and gamma + delta x in that of the target cell
    beta = half * (2.0 / phi.h[own])
    alpha = (left - phi.edges[own]) * (2.0 / phi.h[own]) + (beta - 1.0)
    delta = half * (2.0 / width[cell])
    gamma = (left - edges[cell]) * (2.0 / width[cell]) + (delta - 1.0)
    coef, mean = phi.coef[own].T.copy(), phi.integral()
    sums = np.zeros((NODES, left.size))
    for x, w in zip(*gauss_legendre((phi.coef.shape[1] + NODES) // 2)):
        t, v = alpha + beta * x, coef[-1].copy()
        for c in coef[-2::-1]:    # Horner
            v *= t
            v += c
        v -= mean
        v *= w * half
        t = gamma + delta * x
        for row in sums:
            row += v
            v *= t
    moments = np.add.reduceat(sums, np.flatnonzero(np.diff(cell, prepend=-1)), axis=1)
    return (ugrid._FIT @ moments).T * (2.0 / width)[:, None] / ugrid._W


def _hermite(atoms: list[CellPoly], order: int) -> np.ndarray:
    """``a_k = int phi(u) h_k(Phi^-1(u)) du`` for k = 1 .. order, one row
    per atom, with h_k the orthonormal Hermite polynomials.

    Each atom is centred and projected on the mesh ``mesh_edges(DEFAULT_GRID)``
    (``_centred_projection``), and a_k is the Gauss rule there: the
    recurrence ``h_{k+1} = (z h_k - sqrt(k) h_{k-1}) / sqrt(k+1)`` runs
    over the nodes' normal scores z and is projected on the atoms at each
    step, so no order-by-node matrix is formed.  Row k is the same for
    every order.
    """
    edges = mesh_edges(ugrid.DEFAULT_GRID)
    z = normal_quantile(gauss_nodes(edges).ravel())
    weights = gauss_weights(edges)
    g = np.array([(_centred_projection(phi, edges) * weights).ravel() for phi in atoms])
    coef = np.empty((len(atoms), order))
    prev, cur = np.ones_like(z), z
    for k in range(1, order + 1):
        # numpy's own row sums, which unlike a BLAS product do not depend
        # on the thread count
        coef[:, k - 1] = (g * cur).sum(axis=1)
        prev, cur = cur, (z * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
    return coef


def _spectra(atoms: list[CellPoly], order: int) -> np.ndarray:
    """``a_1 .. a_order`` of each atom, one row per atom: kept in
    ``_SPECTRA`` from an earlier call on the same mesh size to at least
    that order, or else taken now, for all such atoms in one pass, and
    kept."""
    cells = ugrid.DEFAULT_GRID

    def kept(phi):
        have = _SPECTRA.get(phi)
        return have is not None and have[0] == cells and have[1].size >= order

    todo = list(dict.fromkeys(phi for phi in atoms if not kept(phi)))
    if todo:
        for phi, coef in zip(todo, _hermite(todo, order)):
            _SPECTRA[phi] = (cells, coef)
    return np.array([_SPECTRA[phi][1][:order] for phi in atoms])


class GaussianCopula(CopulaModel):
    def __init__(self, rho: float):
        value = _real(rho)
        if not -1.0 < value < 1.0:
            raise BadParams(f"gaussian copula needs rho in (-1, 1), got {rho!r}")
        self._rho = value

    rho = property(lambda self: self._rho)

    @_pairwise
    def cross_cov(self, phis, psis):
        # Mehler: sum_k rho^k a_k b_k, each entry one dot product of its
        # pair's coefficients
        order = _mehler_order(self.rho)
        out = np.zeros((len(phis), len(psis)))
        if order:
            spectra = _spectra(phis + psis, order)
            a = spectra[:len(phis)] * self.rho ** np.arange(1, order + 1)
            b = spectra[len(phis):]
            for i, j in np.ndindex(out.shape):
                out[i, j] = a[i] @ b[j]
        return out


class EmpiricalCopula(CopulaModel):
    """Rank-based copula estimate from paired observations (max-ranks).

    ``u_ranks`` and ``v_ranks`` are normalized ranks r/n, integers 1 <= r <= n.
    As an integration measure it is the checkerboard extension of the rank
    pairs: each pair spreads its 1/n mass uniformly over its rank rectangle, so
    cross brackets integrate per-cell averages, taken once per atom over the
    cells ending at the levels j/n and gathered by rank.  That keeps them
    consistent with the within-period pieces (Cauchy-Schwarz, a nonnegative
    variance of a difference) even for perfectly dependent data.
    """

    def __init__(self, u_ranks: np.ndarray, v_ranks: np.ndarray):
        try:
            u, v = np.asarray(u_ranks, dtype=float), np.asarray(v_ranks, dtype=float)
        except (TypeError, ValueError):
            u = v = np.empty(0)
        if u.ndim != 1 or u.size == 0 or u.shape != v.shape:
            raise OutOfRange("u_ranks and v_ranks must be non-empty 1-d arrays of one length")
        self._cells = (_rank_cells(u), _rank_cells(v))

    @classmethod
    def _from_cells(cls, u_cells: np.ndarray, v_cells: np.ndarray) -> "EmpiricalCopula":
        """The copula of the 0-based sample cells ``r - 1`` of known ranks."""
        copula = cls.__new__(cls)
        copula._cells = (u_cells, v_cells)
        return copula

    u_ranks = property(lambda self: (self._cells[0] + 1) / self._cells[0].size)
    v_ranks = property(lambda self: (self._cells[1] + 1) / self._cells[1].size)

    @_pairwise
    def cross_cov(self, phis, psis):
        edges = sample_cells(self._cells[0].size)[0]

        def at_ranks(phi: CellPoly, cells: np.ndarray) -> np.ndarray:
            # the average over the cell ending at each j/n, gathered by rank;
            # on the n sample cells that is phi's own j-th cell
            if phi.m == cells.size and np.array_equal(phi.edges, edges):
                return phi.cell_means()[cells]
            return phi.cell_average_at(edges[1:], side="left")[cells]

        qvs = [at_ranks(psi, self._cells[1]) for psi in psis]
        out = np.empty((len(phis), len(psis)))
        for i, phi in enumerate(phis):
            pv = at_ranks(phi, self._cells[0])
            for j, qv in enumerate(qvs):
                out[i, j] = np.mean(pv * qv) - np.mean(pv) * np.mean(qv)
        return out


def _rank_cells(ranks: np.ndarray) -> np.ndarray:
    """The 0-based sample cell ``r - 1`` of each normalized rank ``r / n``."""
    r = np.rint(ranks * ranks.size)
    if not np.all((r >= 1) & (r <= ranks.size) & (r / ranks.size == ranks)):  # nan, inf fail
        raise OutOfRange(f"ranks must be r/n with integers 1 <= r <= n = {ranks.size}")
    return r.astype(np.intp) - 1


def empirical_copula(pairs) -> EmpiricalCopula:
    """Estimate the copula of paired data by normalized max-ranks."""
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise OutOfRange("pairs must be an (n, 2) array of numbers")
    n = arr.shape[0]
    if n < 2:
        raise TooFewPairs("need at least two pairs")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise NonFiniteValue(int(np.flatnonzero(bad)[0]))
    return EmpiricalCopula._from_cells(_max_ranks(arr[:, 0]) - 1, _max_ranks(arr[:, 1]) - 1)


# ---------------------------------------------------------------------------
# Frames and joint covariances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BivariateFrame:
    """Two margins linked by a copula (the two-period data model)."""

    margin1: DistributionModel
    margin2: DistributionModel
    copula: CopulaModel

    def __post_init__(self) -> None:
        if not all(isinstance(m, DistributionModel) for m in (self.margin1, self.margin2)):
            raise BadParams("a frame's margins must be distribution models")
        if not isinstance(self.copula, CopulaModel):
            raise BadParams("a frame's copula must be one of IndependenceCopula, "
                            "ComonotoneCopula, GaussianCopula and EmpiricalCopula")


@dataclass(frozen=True)
class JointCovariance:
    """A joint covariance matrix over representation atoms, with its cross
    entry (cross-period or cross-index), the variance of the difference
    (delta_var) and the delta-method variance of the relative variation."""

    matrix: np.ndarray
    cross: Optional[float] = None
    delta_var: Optional[float] = None
    rel_var: Optional[float] = None
    gamma4: Optional[float] = None
    gamma5: Optional[float] = None


def _clamp_variance(value: float, what: str) -> float:
    if value < -1e-9:
        raise NegativeVariance(f"{what} = {value} < -1e-9")
    return max(value, 0.0)


def _relative_gradient(base, now) -> np.ndarray:
    """``(-now / base^2, 1 / base)``, the delta-method gradient of the
    relative variation ``(now - base) / base``."""
    base, now = _real(base), _real(now)
    if not (math.isfinite(base) and math.isfinite(now)):
        raise BadParams(f"relative variation needs finite indices, got ({base}, {now})")
    if base == 0.0:
        raise ZeroBaseIndex("relative variation needs a nonzero base index")
    with np.errstate(all="ignore"):
        return np.array([-now / np.float64(base) ** 2, 1.0 / np.float64(base)])


def _delta_form(grad_a: np.ndarray, matrix: np.ndarray, grad_b: np.ndarray) -> float:
    """``grad_a @ matrix @ grad_b``, which a base index near 0 can overflow."""
    with np.errstate(all="ignore"):
        value = float(grad_a @ matrix @ grad_b)
    if not math.isfinite(value):
        raise BadParams(f"delta-method form = {value}: a base index is too close to 0")
    return value


def _joint_matrix(frame: BivariateFrame, reps1: list[IndexRepresentation],
                  reps2: list[IndexRepresentation]) -> np.ndarray:
    """Covariance matrix of the u-functions of index i under margins 1 and 2,
    in the order (I_1, I_2, J_1, J_2, ...): the i-th of ``reps1`` at 2i and
    the i-th of ``reps2`` at 2i + 1.

    Atoms of one period share U and its mesh, so their block is the
    covariance matrix on that mesh; each margin's atoms and block come from
    its memo slot (``representation._period``).  Atoms of different periods
    are coupled by the frame's copula, with the period-1 atoms as its rows.
    """
    one, two = _period(frame.margin1, reps1), _period(frame.margin2, reps2)
    cross = frame.copula.cross_cov(list(one.atoms), list(two.atoms))
    out = np.empty((2 * len(reps1),) * 2)
    out[0::2, 0::2], out[1::2, 1::2] = one.block, two.block
    out[0::2, 1::2], out[1::2, 0::2] = cross, cross.T
    return out


def temporal_joint_covariance(frame: BivariateFrame, rep: IndexRepresentation,
                              rep2: IndexRepresentation) -> JointCovariance:
    """Joint law of one index at two periods.

    ``rep`` is the representation under margin 1 and ``rep2`` the one under
    margin 2: each period's scores are built under its own margin.
    """
    matrix = _joint_matrix(frame, [rep], [rep2])
    cross = float(matrix[0, 1])
    delta = _clamp_variance(float(matrix[0, 0] + matrix[1, 1] - 2.0 * cross),
                            "variance of the difference")
    return JointCovariance(matrix=matrix, cross=cross, delta_var=delta)


def relative_variation_law(frame: BivariateFrame, rep: IndexRepresentation,
                           index1: float, index2: float,
                           rep2: IndexRepresentation) -> JointCovariance:
    """Law of the relative variation (I2 - I1) / I1 by the delta method."""
    grad = _relative_gradient(index1, index2)
    joint = temporal_joint_covariance(frame, rep, rep2)
    rel = _clamp_variance(_delta_form(grad, joint.matrix, grad), "relative-variation variance")
    with np.errstate(all="ignore"):
        gamma5 = (np.float64(index2) - np.float64(index1)) / np.float64(index1) ** 2
    return JointCovariance(matrix=joint.matrix, cross=joint.cross,
                           delta_var=joint.delta_var, rel_var=rel,
                           gamma4=float(grad[1]), gamma5=float(gamma5))


def mutual_variation_covariance(frame: BivariateFrame, rep_i: IndexRepresentation,
                                rep_j: IndexRepresentation, rep_i2: IndexRepresentation,
                                rep_j2: IndexRepresentation) -> JointCovariance:
    """Joint law of the variations of two indices.

    ``rep_i``, ``rep_j`` are the representations under margin 1 and
    ``rep_i2``, ``rep_j2`` those under margin 2.  Assembles the 4x4
    covariance of (I*_1, I*_2, J*_1, J*_2); the covariance of the two
    differences is the contrast ``(-1, 1)`` applied to each block.
    """
    m = _joint_matrix(frame, [rep_i, rep_j], [rep_i2, rep_j2])
    cross = float(np.array([-1.0, 1.0, 0.0, 0.0]) @ m @ np.array([0.0, 0.0, -1.0, 1.0]))
    return JointCovariance(matrix=m, cross=cross)


def mutual_relative_covariance(frame: BivariateFrame, rep_i: IndexRepresentation,
                               rep_j: IndexRepresentation,
                               i1: float, i2: float, j1: float, j2: float,
                               rep_i2: IndexRepresentation, rep_j2: IndexRepresentation) -> float:
    """Covariance of the two relative variations by the bilinear delta
    method on the assembled 4x4 matrix."""
    grad_i = np.concatenate([_relative_gradient(i1, i2), [0.0, 0.0]])
    grad_j = np.concatenate([[0.0, 0.0], _relative_gradient(j1, j2)])
    joint = mutual_variation_covariance(frame, rep_i, rep_j, rep_i2, rep_j2)
    return _delta_form(grad_i, joint.matrix, grad_j)
