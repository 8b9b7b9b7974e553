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

Copula integrals: independence and comonotone copulas are closed forms; the
Gaussian copula integrates on a tensor of ``DEFAULT_COPULA_GRID`` (512)
midpoints per axis of its density, kept on the copula per rho.  The normal
quantiles of the midpoints are computed once, on the lower half and mirrored
to the upper half, and the density is point-symmetric,
``c(u, v) = c(1-u, 1-v)``, so the tensor is built from its first half of
rows; empirical copulas are exact rank sums.  Each
margin's atoms are built on one mesh, whose cell edges include the levels of
every break of the representations in the call.

Assembly: the atoms of one period form one block of covariances
(``ugrid.covariances``), each atom centred once and evaluated once per Gauss
rule; the two periods meet in one block call of the copula's ``cross_cov``,
where the Gaussian copula evaluates each atom once at the midpoints and forms
``pv @ dens`` once per period-1 atom, and the empirical copula takes each
atom's cell averages once.  Every entry keeps the arithmetic of its pair.

A period's own entry is ``index_variance(...).total`` to round-off on an
empirical or bounded margin, or for a score without polynomial part.  Not
so for a polynomial part on an unbounded margin: ``phi`` holds ``h o Q``
whole on the mesh, where ``index_variance`` takes that part from closed-form
moments; on LogNormal(0, 1) the diagonal is 4.1% low for ``central_moment(3)``
and 61% low for ``even_moment(2)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import DistributionModel, normal_quantile
from .empirical import _max_ranks
from .errors import (BadParams, NegativeVariance, NonFiniteValue, OutOfRange, TooFewPairs,
                     ZeroBaseIndex)
from .indices import _real
from .representation import IndexRepresentation, _u_functions, u_atoms
from .ugrid import CellPoly, covariance, covariances, sample_cells

DEFAULT_COPULA_GRID = 512    # midpoints per axis of the Gaussian copula's tensor


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
        Gaussian and empirical copulas evaluate each atom once for it.
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


@functools.lru_cache(maxsize=8)
def _normal_midpoints(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell midpoints ``(k + 1/2) / size`` and their standard normal
    quantiles, read-only; they depend on the size alone.

    The quantiles of the upper half are the negated lower half
    (``z[size-1-k] = -z[k]``, 0 in the middle of an odd size), so ``z`` is
    exactly antisymmetric at every size, as ``Phi^-1(1-p) = -Phi^-1(p)`` is.
    """
    mid = (np.arange(size) + 0.5) / size
    z = np.empty(size)
    half = (size + 1) // 2
    z[:half] = normal_quantile(mid[:half])
    z[half:] = -z[:size // 2][::-1]
    mid.flags.writeable = z.flags.writeable = False
    return mid, z


class GaussianCopula(CopulaModel):
    def __init__(self, rho: float):
        self.rho = rho
        self._memo: tuple = (None, None)

    @property
    def rho(self) -> float:
        return self._rho

    @rho.setter
    def rho(self, value) -> None:
        rho = _real(value)
        if not -1.0 < rho < 1.0:
            raise BadParams(f"gaussian copula needs rho in (-1, 1), got {value!r}")
        self._rho = rho

    def density_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Midpoints and copula density values on the tensor of the
        package's ``DEFAULT_COPULA_GRID`` midpoints per axis.

        The midpoints and their normal quantiles are shared by every copula
        (read-only arrays).  The density is point-symmetric,
        ``c(u, v) = c(1-u, 1-v)``, and so are the mirrored quantiles, so only
        the first half of the rows is formed, in place in the density's own
        buffer; the other rows are those rows reversed on both axes.
        """
        mid, z = _normal_midpoints(DEFAULT_COPULA_GRID)
        size = z.size
        rho = self.rho
        denom = 1.0 - rho * rho
        half = (size + 1) // 2
        dens = np.empty((size, size))
        top = dens[:half]
        zt = z[:half]
        np.add.outer(zt * zt, z * z, out=top)
        top *= rho * rho
        zz = np.multiply.outer(zt, z)
        zz *= 2.0 * rho
        top -= zz
        np.negative(top, out=top)
        top /= 2.0 * denom
        np.exp(top, out=top)
        top /= math.sqrt(denom)
        dens[half:] = top[:size // 2][::-1, ::-1]
        return mid, dens

    def _tensor(self) -> tuple:
        """``(mid, dens, total, row sums, column sums)``, built on first use
        and kept for the latest ``rho`` and tensor size only."""
        key = (self.rho, DEFAULT_COPULA_GRID)
        if self._memo[0] != key:
            mid, dens = self.density_grid()
            self._memo = (key, (mid, dens, float(dens.sum()), dens.sum(axis=1), dens.sum(axis=0)))
        return self._memo[1]

    @_pairwise
    def cross_cov(self, phis, psis):
        # each atom is evaluated once at the midpoints, and each row atom
        # meets the density once: ``(pv @ dens) @ qv`` for every column
        mid, dens, total, rows, cols = self._tensor()
        qvs = [psi.eval(mid) for psi in psis]
        mu_psi = [float(cols @ qv) / total for qv in qvs]
        out = np.empty((len(phis), len(psis)))
        for i, phi in enumerate(phis):
            pv = phi.eval(mid)
            weighted = pv @ dens
            mu_phi = float(rows @ pv) / total
            for j, qv in enumerate(qvs):
                out[i, j] = float(weighted @ qv) / total - mu_phi * mu_psi[j]
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
        u, v = np.asarray(u_ranks, dtype=float), np.asarray(v_ranks, dtype=float)
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


def _joint_matrix(frame: BivariateFrame, atoms: list[tuple[int, CellPoly]]) -> np.ndarray:
    """Covariance matrix of ``(period, phi)`` atoms.

    Atoms of one period share U and its mesh, so their block is the
    covariance matrix on that mesh; atoms of different periods are coupled
    by the frame's copula, with the period-1 atoms as its rows.  Each atom
    is centred and evaluated once per block.
    """
    place = {p: [i for i, (q, _) in enumerate(atoms) if q == p] for p in (1, 2)}
    phis = {p: [atoms[i][1] for i in place[p]] for p in (1, 2)}
    m = np.empty((len(atoms), len(atoms)))
    for p in (1, 2):
        m[np.ix_(place[p], place[p])] = covariances(phis[p], phis[p])
    cross = frame.copula.cross_cov(phis[1], phis[2])
    m[np.ix_(place[1], place[2])] = cross
    m[np.ix_(place[2], place[1])] = cross.T
    return m


def temporal_joint_covariance(frame: BivariateFrame, rep: IndexRepresentation,
                              rep2: Optional[IndexRepresentation] = None) -> JointCovariance:
    """Joint law of one index at two periods.

    ``rep`` is the representation under margin 1; ``rep2`` (defaulting to
    ``rep``) the one under margin 2 -- pass a margin-specific rebuild for
    indices whose scores depend on the underlying CDF.
    """
    matrix = _joint_matrix(frame, [(1, u_atoms(frame.margin1, rep)),
                                   (2, u_atoms(frame.margin2, rep2 or rep))])
    cross = float(matrix[0, 1])
    delta = _clamp_variance(float(matrix[0, 0] + matrix[1, 1] - 2.0 * cross),
                            "variance of the difference")
    return JointCovariance(matrix=matrix, cross=cross, delta_var=delta)


def relative_variation_law(frame: BivariateFrame, rep: IndexRepresentation,
                           index1: float, index2: float,
                           rep2: Optional[IndexRepresentation] = None) -> JointCovariance:
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
                                rep_j: IndexRepresentation,
                                rep_i2: Optional[IndexRepresentation] = None,
                                rep_j2: Optional[IndexRepresentation] = None) -> JointCovariance:
    """Joint law of the variations of two indices.

    Assembles the 4x4 covariance of (I*_1, I*_2, J*_1, J*_2); the covariance
    of the two differences is the contrast ``(-1, 1)`` applied to each block.
    """
    i1, j1 = _u_functions(frame.margin1, [rep_i, rep_j])
    i2, j2 = _u_functions(frame.margin2, [rep_i2 or rep_i, rep_j2 or rep_j])
    m = _joint_matrix(frame, [(1, i1), (2, i2), (1, j1), (2, j2)])
    cross = float(np.array([-1.0, 1.0, 0.0, 0.0]) @ m @ np.array([0.0, 0.0, -1.0, 1.0]))
    return JointCovariance(matrix=m, cross=cross)


def mutual_relative_covariance(frame: BivariateFrame, rep_i: IndexRepresentation,
                               rep_j: IndexRepresentation,
                               i1: float, i2: float, j1: float, j2: float,
                               rep_i2: Optional[IndexRepresentation] = None,
                               rep_j2: Optional[IndexRepresentation] = None) -> float:
    """Covariance of the two relative variations by the bilinear delta
    method on the assembled 4x4 matrix."""
    grad_i = np.concatenate([_relative_gradient(i1, i2), [0.0, 0.0]])
    grad_j = np.concatenate([[0.0, 0.0], _relative_gradient(j1, j2)])
    joint = mutual_variation_covariance(frame, rep_i, rep_j, rep_i2, rep_j2)
    return _delta_form(grad_i, joint.matrix, grad_j)
