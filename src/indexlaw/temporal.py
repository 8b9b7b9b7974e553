"""Two-period joint laws: copula models, variation and relative variation.

Paired observations of the same population at two times are linked by a
copula C.  A representation ``(h, q)`` under a margin F expands the scaled
estimation error as ``G_n(phi o F)`` for the single u-function

    phi(s) = h(Q(s)) + W(s),    W(s) = int_s^1 q(Q(t)) dt,

so every entry of a joint covariance matrix is one covariance
``int phi(u) psi(v) dC(u, v) - int phi * int psi`` of two such atoms.
Within a period both atoms see the same U, so the coupling is comonotone
(an exact product integral on the shared grid); across periods (U, V) ~ C.
The weight x weight part of a cross-period entry is the displayed double
integral of ``(C(s,t) - s t) l_1(s) l_2(t)``.

The variance of the difference is read off the assembled joint covariance
matrix (the variance of a difference subtracts twice the cross term), and
relative variations follow by the delta method with gradient
``(-I_2/I_1^2, 1/I_1)``.

Copula integrals: independence and comonotone copulas are evaluated in
closed form (product and diagonal rules); the Gaussian copula uses a tensor
midpoint grid on its density (default 512 per axis), built once per copula
and grid size and kept on the copula; empirical copulas are exact rank sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import DistributionModel, normal_quantile
from .errors import (BadParams, NegativeVariance, NonFiniteValue, OutOfRange, TooFewPairs,
                     ZeroBaseIndex)
from .representation import DEFAULT_GRID, IndexRepresentation, check_grid, u_atoms
from .ugrid import CellPoly

DEFAULT_COPULA_GRID = 512


# ---------------------------------------------------------------------------
# Copula models
# ---------------------------------------------------------------------------


class CopulaModel:
    """A bivariate CDF on the unit square with uniform margins."""

    kind = "abstract"

    def eval(self, u, v):  # pragma: no cover - abstract
        raise NotImplementedError

    def cross_cov(self, phi: CellPoly, psi: CellPoly, grid: int) -> float:
        """``Cov(phi(U), psi(V))`` for (U, V) ~ C.

        Computed with means taken under the same (possibly discretized)
        measure as the joint term, so brackets with a constant factor vanish
        exactly and assembled matrices stay consistent.
        """
        raise NotImplementedError


class IndependenceCopula(CopulaModel):
    kind = "independence"

    def eval(self, u, v):
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
        return u * v

    def cross_cov(self, phi, psi, grid):
        return 0.0


class ComonotoneCopula(CopulaModel):
    kind = "comonotone"

    def eval(self, u, v):
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
        return np.minimum(u, v)

    def cross_cov(self, phi, psi, grid):
        if phi.m == psi.m:
            return (phi * psi).integral() - phi.integral() * psi.integral()
        m = 4 * max(phi.m, psi.m)
        mid = (np.arange(m) + 0.5) / m
        pv, qv = phi.eval(mid), psi.eval(mid)
        return float(np.mean(pv * qv) - np.mean(pv) * np.mean(qv))


class GaussianCopula(CopulaModel):
    kind = "gaussian"

    def __init__(self, rho: float):
        if not (-1.0 < rho < 1.0):
            raise BadParams(f"gaussian copula needs rho in (-1, 1), got {rho}")
        self.rho = float(rho)
        self._tensors: dict = {}

    def eval(self, u, v):
        from scipy.stats import multivariate_normal

        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u_b, v_b = np.broadcast_arrays(u, v)
        flat_u, flat_v = u_b.ravel(), v_b.ravel()
        out = np.empty_like(flat_u)
        boundary_zero = (flat_u <= 0.0) | (flat_v <= 0.0)
        top_u = flat_v >= 1.0
        top_v = flat_u >= 1.0
        out[top_u] = flat_u[top_u]
        out[top_v] = flat_v[top_v]
        out[boundary_zero] = 0.0
        interior = ~(boundary_zero | top_u | top_v)
        if interior.any():
            pts = np.column_stack([normal_quantile(flat_u[interior]),
                                   normal_quantile(flat_v[interior])])
            mvn = multivariate_normal(mean=[0.0, 0.0],
                                      cov=[[1.0, self.rho], [self.rho, 1.0]])
            out[interior] = mvn.cdf(pts)
        out = out.reshape(u_b.shape)
        return float(out) if out.ndim == 0 else out

    def density_grid(self, grid: int) -> tuple[np.ndarray, np.ndarray]:
        """Midpoints and copula density values on a grid x grid tensor."""
        check_grid(grid)
        mid = (np.arange(grid) + 0.5) / grid
        z = np.asarray(normal_quantile(mid), dtype=float)
        rho = self.rho
        denom = 1.0 - rho * rho
        zz = z[:, None] * z[None, :]
        z2 = z * z
        expo = -(rho * rho * (z2[:, None] + z2[None, :]) - 2.0 * rho * zz) / (2.0 * denom)
        dens = np.exp(expo) / math.sqrt(denom)
        return mid, dens

    def _tensor(self, grid: int) -> tuple:
        """``(mid, dens, total, row sums, column sums)``, built on first use
        and kept per ``(rho, grid)``."""
        key = (self.rho, grid)
        if key not in self._tensors:
            mid, dens = self.density_grid(grid)
            self._tensors[key] = (mid, dens, float(dens.sum()),
                                  dens.sum(axis=1), dens.sum(axis=0))
        return self._tensors[key]

    def cross_cov(self, phi, psi, grid):
        mid, dens, total, rows, cols = self._tensor(grid)
        pv = phi.eval(mid)
        qv = psi.eval(mid)
        joint = float(pv @ dens @ qv) / total
        mu_phi = float(rows @ pv) / total
        mu_psi = float(cols @ qv) / total
        return joint - mu_phi * mu_psi


class EmpiricalCopula(CopulaModel):
    """Rank-based copula estimate from paired observations (max-ranks).

    As a CDF it is the exact rank step function.  As an integration measure
    for joint laws it uses the checkerboard extension: each pair spreads its
    1/n mass uniformly over its rank rectangle, so cross brackets integrate
    per-cell averages.  That keeps them Cauchy-Schwarz-consistent with the
    within-period pieces and the variance of a difference nonnegative even
    for perfectly dependent data.
    """

    kind = "empirical"

    def __init__(self, u_ranks: np.ndarray, v_ranks: np.ndarray):
        self.u_ranks = np.asarray(u_ranks, dtype=float)
        self.v_ranks = np.asarray(v_ranks, dtype=float)
        self.n = self.u_ranks.size

    def eval(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u_b, v_b = np.broadcast_arrays(u, v)
        flat_u, flat_v = u_b.ravel(), v_b.ravel()
        out = np.empty_like(flat_u)
        for i in range(flat_u.size):
            out[i] = np.mean((self.u_ranks <= flat_u[i]) & (self.v_ranks <= flat_v[i]))
        out = out.reshape(u_b.shape)
        return float(out) if out.ndim == 0 else out

    def cross_cov(self, phi, psi, grid):
        pv = phi.cell_average_at(self.u_ranks, side="left")
        qv = psi.cell_average_at(self.v_ranks, side="left")
        return float(np.mean(pv * qv) - np.mean(pv) * np.mean(qv))


def empirical_copula(pairs) -> EmpiricalCopula:
    """Estimate the copula of paired data by normalized max-ranks."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise OutOfRange("pairs must be an (n, 2) array")
    n = arr.shape[0]
    if n < 2:
        raise TooFewPairs("need at least two pairs")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise NonFiniteValue(int(np.flatnonzero(bad)[0]))
    x, y = arr[:, 0], arr[:, 1]
    rx = np.searchsorted(np.sort(x), x, side="right") / n
    ry = np.searchsorted(np.sort(y), y, side="right") / n
    return EmpiricalCopula(rx, ry)


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
    """A joint covariance matrix over representation atoms plus derived
    scalars: delta_var is the variance of the difference, rel_var the
    delta-method variance of the relative variation, cross the cross-period
    (or cross-index) covariance entry."""

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


def _joint_matrix(frame: BivariateFrame, atoms: list[tuple[int, CellPoly]],
                  copula_grid: int) -> np.ndarray:
    """Covariance matrix of ``(period, phi)`` atoms.

    Atoms of one period share U, so their entry is a comonotone covariance;
    atoms of different periods are coupled by the frame's copula, with the
    period-1 atom as its first argument.
    """
    m = np.empty((len(atoms), len(atoms)))
    for i, (pa, a) in enumerate(atoms):
        for j, (pb, b) in enumerate(atoms[i:], start=i):
            copula = ComonotoneCopula() if pa == pb else frame.copula
            first, second = (b, a) if pa > pb else (a, b)
            m[i, j] = m[j, i] = copula.cross_cov(first, second, copula_grid)
    return m


def temporal_joint_covariance(frame: BivariateFrame, rep: IndexRepresentation,
                              rep2: Optional[IndexRepresentation] = None,
                              grid: int = DEFAULT_GRID,
                              copula_grid: int = DEFAULT_COPULA_GRID) -> JointCovariance:
    """Joint law of one index at two periods.

    ``rep`` is the representation under margin 1; ``rep2`` (defaulting to
    ``rep``) the one under margin 2 -- pass a margin-specific rebuild for
    indices whose scores depend on the underlying CDF.
    """
    matrix = _joint_matrix(frame, [(1, u_atoms(frame.margin1, rep, grid)),
                                   (2, u_atoms(frame.margin2, rep2 or rep, grid))],
                           copula_grid)
    cross = float(matrix[0, 1])
    delta = _clamp_variance(float(matrix[0, 0] + matrix[1, 1] - 2.0 * cross),
                            "variance of the difference")
    return JointCovariance(matrix=matrix, cross=cross, delta_var=delta)


def relative_variation_law(frame: BivariateFrame, rep: IndexRepresentation,
                           index1: float, index2: float,
                           rep2: Optional[IndexRepresentation] = None,
                           grid: int = DEFAULT_GRID,
                           copula_grid: int = DEFAULT_COPULA_GRID) -> JointCovariance:
    """Law of the relative variation (I2 - I1) / I1 by the delta method."""
    if not (math.isfinite(index1) and math.isfinite(index2)):
        raise BadParams(f"relative variation needs finite indices, got ({index1}, {index2})")
    if index1 == 0.0:
        raise ZeroBaseIndex("relative variation needs a nonzero base index")
    joint = temporal_joint_covariance(frame, rep, rep2, grid, copula_grid)
    grad = np.array([-index2 / index1 ** 2, 1.0 / index1])
    rel = _clamp_variance(float(grad @ joint.matrix @ grad), "relative-variation variance")
    return JointCovariance(matrix=joint.matrix, cross=joint.cross,
                           delta_var=joint.delta_var, rel_var=rel,
                           gamma4=1.0 / index1,
                           gamma5=(index2 - index1) / index1 ** 2)


def mutual_variation_covariance(frame: BivariateFrame, rep_i: IndexRepresentation,
                                rep_j: IndexRepresentation,
                                rep_i2: Optional[IndexRepresentation] = None,
                                rep_j2: Optional[IndexRepresentation] = None,
                                grid: int = DEFAULT_GRID,
                                copula_grid: int = DEFAULT_COPULA_GRID) -> JointCovariance:
    """Joint law of the variations of two indices.

    Assembles the 4x4 covariance of (I*_1, I*_2, J*_1, J*_2); the covariance
    of the two differences is the contrast ``(-1, 1)`` applied to each block.
    """
    m = _joint_matrix(frame, [(1, u_atoms(frame.margin1, rep_i, grid)),
                              (2, u_atoms(frame.margin2, rep_i2 or rep_i, grid)),
                              (1, u_atoms(frame.margin1, rep_j, grid)),
                              (2, u_atoms(frame.margin2, rep_j2 or rep_j, grid))],
                      copula_grid)
    contrast_i = np.array([-1.0, 1.0, 0.0, 0.0])
    contrast_j = np.array([0.0, 0.0, -1.0, 1.0])
    cross = float(contrast_i @ m @ contrast_j)
    return JointCovariance(matrix=m, cross=cross)


def mutual_relative_covariance(frame: BivariateFrame, rep_i: IndexRepresentation,
                               rep_j: IndexRepresentation,
                               i1: float, i2: float, j1: float, j2: float,
                               rep_i2: Optional[IndexRepresentation] = None,
                               rep_j2: Optional[IndexRepresentation] = None,
                               grid: int = DEFAULT_GRID,
                               copula_grid: int = DEFAULT_COPULA_GRID) -> float:
    """Covariance of the two relative variations by the bilinear delta
    method on the assembled 4x4 matrix."""
    if not all(math.isfinite(v) for v in (i1, i2, j1, j2)):
        raise BadParams(f"relative variations need finite indices, got {(i1, i2, j1, j2)}")
    if i1 == 0.0 or j1 == 0.0:
        raise ZeroBaseIndex("relative variations need nonzero base indices")
    joint = mutual_variation_covariance(frame, rep_i, rep_j, rep_i2, rep_j2,
                                        grid, copula_grid)
    grad_i = np.array([-i2 / i1 ** 2, 1.0 / i1, 0.0, 0.0])
    grad_j = np.array([0.0, 0.0, -j2 / j1 ** 2, 1.0 / j1])
    return float(grad_i @ joint.matrix @ grad_j)
