"""Piecewise-polynomial functions of a uniform level s in (0, 1).

The covariance calculus reduces every one-dimensional integral to products,
cumulatives and moments of functions ``w(Q(s))`` with Q a quantile function.
On an empirical model these are step functions on the n cells
``((j-1)/n, j/n]``.  On a parametric model they live on the mesh of
:func:`mesh_edges`: the package's ``DEFAULT_GRID`` uniform cells plus the
levels F(b) of the breaks where the scores jump, with the cells next to 0, 1
and each level halved ``GRADING`` times.  A mesh cell carries the polynomial through the values at
its ``NODES`` interior Gauss-Legendre nodes, so a jump at a cell edge needs
no one-sided value.  Every integral of these per-cell polynomials is exact:
refining never changes empirical results.  Every variance piece is one
``covariance(a, b) = Cov(a(U), b(U))``, U uniform on (0, 1), of the score
``h o Q`` and the tail integral ``W = int_s^1 q(Q(t)) dt`` of a weight.

Local conventions: a uniform cell k covers ``[k/m, (k+1)/m]`` and stores
coefficients of ``tau = s - k/m``; a mesh cell ``[a, b]`` stores
coefficients of ``x = 2 (s - a) / (b - a) - 1`` in [-1, 1].
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly


NODES = 7             # Gauss-Legendre nodes per mesh cell
GRADING = 32          # geometric halvings towards each end and each break
DEFAULT_GRID = 256    # uniform base cells of every parametric mesh
# the narrowest graded cell: next to 1 it still spans 2**9 floats, so its
# Gauss nodes stay distinct and inside it
_FINEST = 2.0 ** -44


# nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1]
gauss_legendre = functools.lru_cache(maxsize=None)(legendre.leggauss)

_X, _W = gauss_legendre(NODES)
# the last weight absorbs the round-off of the others (an exact subtraction),
# so the weights added in order come to exactly 2
_W = np.append(_W[:-1], 2.0 - sum(_W[:-1].tolist()))
# node values -> coefficients in x of the interpolating polynomial: row i
# holds the Lagrange polynomial of node i
_FIT = np.array([npoly.polyfromroots(np.delete(_X, i)) / np.prod(_X[i] - np.delete(_X, i))
                 for i in range(NODES)])


def mesh_edges(cells: int, levels=()) -> np.ndarray:
    """Cell edges of the mesh: ``cells`` uniform cells and every level
    strictly inside (0, 1), with the cells next to 0, 1 and each level
    halved ``GRADING`` times towards it."""
    steps = 0.5 ** np.arange(1, GRADING + 1) / cells
    steps = steps[steps >= _FINEST]
    levels = np.asarray(levels, dtype=float).ravel()
    levels = levels[(levels > 0.0) & (levels < 1.0)]
    graded = np.concatenate([[0.0], levels, [1.0]])[:, None] + np.concatenate([-steps, steps])
    edges = np.concatenate([np.arange(cells + 1) / cells, levels, graded.ravel()])
    return _distinct(edges[(edges >= 0.0) & (edges <= 1.0)])


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values; ``np.unique`` loads 2 MB of code for it."""
    v = np.sort(values)
    return v[np.concatenate(([True], v[1:] > v[:-1]))]


def gauss_nodes(edges: np.ndarray) -> np.ndarray:
    """The ``NODES`` Gauss-Legendre levels of each cell, shape (cells, NODES)."""
    half = np.diff(edges) / 2.0
    return edges[:-1, None] + half[:, None] * (_X + 1.0)


def gauss_sum(edges: np.ndarray, values: np.ndarray) -> float:
    """``int_0^1`` by the Gauss rule from values at ``gauss_nodes(edges)``;
    the weights of a cell add up to exactly 2 in the order used, so a
    constant is integrated without round-off on cells of dyadic widths."""
    acc = values[:, 0] * _W[0]
    for i in range(1, NODES):
        acc = acc + values[:, i] * _W[i]
    return float(np.sum(np.diff(edges) / 2.0 * acc))


class CellPoly:
    """Piecewise polynomial on m cells of (0, 1): uniform when ``edges`` is
    None, else on the cells between consecutive ``edges``."""

    __slots__ = ("m", "h", "coef", "edges")

    def __init__(self, coef: np.ndarray, edges: np.ndarray | None = None, h=None):
        coef = np.atleast_2d(np.asarray(coef, dtype=float))
        self.coef = coef
        self.m = coef.shape[0]
        self.edges = edges
        # the width of every cell (uniform) or of each cell (mesh)
        self.h = h if h is not None else 1.0 / self.m if edges is None else np.diff(edges)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_cells(cls, values) -> "CellPoly":
        """Step function: values[k] on uniform cell k."""
        v = np.asarray(values, dtype=float).reshape(-1, 1)
        return cls(v)

    @classmethod
    def fit(cls, values, edges: np.ndarray) -> "CellPoly":
        """Per-cell interpolant of values at ``gauss_nodes(edges)``."""
        return cls(np.asarray(values, dtype=float) @ _FIT, edges)

    # -- algebra ------------------------------------------------------------

    def _aligned(self, other: "CellPoly") -> None:
        if self.m != other.m or not (self.edges is other.edges
                                     or np.array_equal(self.edges, other.edges)):
            raise ValueError(f"cell mismatch: {self.m} vs {other.m} cells")

    def __mul__(self, other: "CellPoly") -> "CellPoly":
        self._aligned(other)
        d1, d2 = self.coef.shape[1], other.coef.shape[1]
        out = np.zeros((self.m, d1 + d2 - 1))
        for i in range(d1):
            out[:, i:i + d2] += self.coef[:, i:i + 1] * other.coef
        return CellPoly(out, self.edges, self.h)

    def __add__(self, other: "CellPoly") -> "CellPoly":
        self._aligned(other)
        d = max(self.coef.shape[1], other.coef.shape[1])
        out = np.zeros((self.m, d))
        out[:, : self.coef.shape[1]] += self.coef
        out[:, : other.coef.shape[1]] += other.coef
        return CellPoly(out, self.edges, self.h)

    def plus_constant(self, c: float) -> "CellPoly":
        out = self.coef.copy()
        out[:, 0] += c
        return CellPoly(out, self.edges, self.h)

    # -- calculus -----------------------------------------------------------

    def cell_integrals(self) -> np.ndarray:
        p = np.arange(1, self.coef.shape[1] + 1)
        if self.edges is None:
            return self.coef @ (self.h ** p / p)
        # int_{-1}^{1} x^j dx is 2/(j+1) for even j and 0 for odd j
        return self.h / 2.0 * (self.coef @ np.where(p % 2 == 1, 2.0 / p, 0.0))

    def integral(self) -> float:
        return float(self.cell_integrals().sum())

    def antiderivative(self) -> "CellPoly":
        """Cumulative integral from 0, continuous across cells."""
        d = self.coef.shape[1]
        p = np.arange(1, d + 1)
        out = np.zeros((self.m, d + 1))
        if self.edges is None:
            out[:, 1:] = self.coef / p
        else:
            out[:, 1:] = self.coef / p * (self.h / 2.0)[:, None]
            out[:, 0] = -(out[:, 1:] @ (-1.0) ** p)    # 0 at the cell's left edge
        out[1:, 0] += np.cumsum(self.cell_integrals())[:-1]
        return CellPoly(out, self.edges, self.h)

    def tail_integral_poly(self) -> "CellPoly":
        """R(u) = integral of f over (u, 1), as a CellPoly."""
        cum = self.antiderivative()
        return CellPoly(-cum.coef, self.edges, self.h).plus_constant(self.integral())

    # -- evaluation ---------------------------------------------------------

    def _cell_index(self, s: np.ndarray, side: str) -> np.ndarray:
        if self.edges is not None:
            k = np.searchsorted(self.edges, s, side="left" if side == "left" else "right") - 1
            return np.clip(k, 0, self.m - 1)
        t = s * self.m
        # snap to boundaries that are boundaries up to round-off (grid
        # fractions like k/n scaled by m do not reproduce integers exactly)
        near = np.round(t)
        boundary = np.abs(t - near) <= 1e-9 * np.maximum(1.0, near)
        if side == "left":
            k = np.where(boundary, near - 1, np.ceil(t) - 1)
        else:
            k = np.where(boundary, near, np.floor(t))
        return np.clip(k.astype(int), 0, self.m - 1)

    def eval(self, s, side: str = "right"):
        """Evaluate at points of [0, 1].

        ``side`` resolves values at interior cell boundaries: "right" takes
        the cell starting there, "left" the cell ending there.  Step models
        built from empirical cells use "left" so that f(j/n) is the value on
        ``((j-1)/n, j/n]``.
        """
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        k = self._cell_index(s, side)
        if self.edges is None:
            tau = s - k * self.h
        else:
            tau = 2.0 * (s - self.edges[k]) / self.h[k] - 1.0
        coef = self.coef[k]
        out = np.zeros_like(s)
        for d in range(self.coef.shape[1] - 1, -1, -1):
            out = out * tau + coef[:, d]
        return float(out[0]) if scalar else out

    def cell_average_at(self, s, side: str = "right"):
        """Average of the function over the cell containing each point."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        k = self._cell_index(s, side)
        if self.edges is None:
            return self.cell_integrals()[k] * self.m
        return self.cell_integrals()[k] / self.h[k]


def inner(a: CellPoly, b: CellPoly) -> float:
    """``int_0^1 a(s) b(s) ds``, exact for the cell polynomials.

    Uniform cells integrate the product polynomial.  Mesh cells, and two
    different sets of cells (on the union of their edges), use a Gauss rule
    with enough nodes for the degree of the product.
    """
    aligned = a.m == b.m and (a.edges is b.edges or np.array_equal(a.edges, b.edges))
    if aligned and a.edges is None:
        return (a * b).integral()
    x, w = gauss_legendre((a.coef.shape[1] + b.coef.shape[1]) // 2)
    if aligned:
        half = a.h / 2.0
        av, bv = (p.coef @ x[None, :] ** np.arange(p.coef.shape[1])[:, None] for p in (a, b))
    else:
        edges = _distinct(np.concatenate([np.arange(p.m + 1) / p.m if p.edges is None
                                          else p.edges for p in (a, b)]))
        half = np.diff(edges) / 2.0
        s = (edges[:-1, None] + half[:, None] * (x + 1.0)).ravel()
        av, bv = (p.eval(s).reshape(-1, x.size) for p in (a, b))
    return float(np.sum(half * ((av * bv) @ w)))


def covariance(a: CellPoly, b: CellPoly) -> float:
    """Cov(a(U), b(U)) for U uniform on (0, 1), in centred form."""
    return inner(a.plus_constant(-a.integral()), b.plus_constant(-b.integral()))
