"""Piecewise-polynomial functions of a uniform level s in (0, 1).

The covariance calculus reduces every one-dimensional integral to products,
cumulatives and moments of functions ``w(Q(s))`` with Q a quantile function.
On an empirical model these are step functions on the n cells
``((j-1)/n, j/n]``: degree-0 polynomials on the edges ``arange(n + 1) / n``.
On a parametric model they live on the mesh of :func:`mesh_edges`: the
package's ``DEFAULT_GRID`` uniform cells plus the levels F(b) of the breaks
where the scores jump, with the cells next to 0, 1 and each level halved
``GRADING`` times.  A mesh cell carries the polynomial through the values at
its ``NODES`` interior Gauss-Legendre nodes, so a jump at a cell edge needs
no one-sided value.  Every integral of these per-cell polynomials is exact:
refining never changes empirical results.  Every variance piece is one
``covariance(a, b) = Cov(a(U), b(U))``, U uniform on (0, 1), of the score
``h o Q`` and the tail integral ``W = int_s^1 q(Q(t)) dt`` of a weight.

A cell ``[a, b]`` stores coefficients of ``x = 2 (s - a) / (b - a) - 1`` in
[-1, 1].
"""
from __future__ import annotations

import functools
from collections import Counter
from typing import Sequence

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
# the mean of x^j over [-1, 1]: 1/(j+1) for even j, 0 for odd j
_MEANS = np.where(np.arange(2 * NODES) % 2 == 0, 1.0 / np.arange(1, 2 * NODES + 1), 0.0)


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


def gauss_weights(edges: np.ndarray) -> np.ndarray:
    """The weights of the Gauss rule at ``gauss_nodes(edges)``, shape (cells, NODES)."""
    return (np.diff(edges) / 2.0)[:, None] * _W


def gauss_sum(edges: np.ndarray, values: np.ndarray) -> float:
    """``int_0^1`` by the Gauss rule from values at ``gauss_nodes(edges)``;
    the weights of a cell add up to exactly 2 in the order used, so a
    constant is integrated without round-off on cells of dyadic widths."""
    acc = values[:, 0] * _W[0]
    for i in range(1, NODES):
        acc = acc + values[:, i] * _W[i]
    return float(np.sum(np.diff(edges) / 2.0 * acc))


def sample_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges ``arange(n + 1) / n`` of the n sample cells and their widths,
    one read-only 1/n: near 1 the edges' differences are off by n ulps."""
    return np.arange(n + 1) / n, np.broadcast_to(1.0 / n, n)


def _cumsum(v: np.ndarray) -> np.ndarray:
    """``np.cumsum(v)``, overwriting v, with the rounding error of each step
    found by Knuth's TwoSum and added back: the sums do not drift with n."""
    s = np.cumsum(v)
    prev = np.concatenate(([0.0], s[:-1]))
    part = s - prev                  # the part of v[k] that was added
    v -= part                        # the error of step k is
    np.subtract(s, part, out=part)   # (prev - (s - part)) + (v - part)
    prev -= part
    prev += v
    s += np.cumsum(prev, out=prev)
    return s


class CellPoly:
    """Piecewise polynomial on the m cells between consecutive ``edges``."""

    __slots__ = ("m", "h", "coef", "edges", "__weakref__")

    def __init__(self, coef: np.ndarray, edges: np.ndarray, h=None):
        self.coef = coef                 # (cells, degree + 1) float array
        self.m = coef.shape[0]
        self.edges = edges
        self.h = np.diff(edges) if h is None else h    # the width of each cell

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_cells(cls, values) -> "CellPoly":
        """Step function: values[k] on the sample cell ``(k/n, (k+1)/n]``."""
        v = np.asarray(values, dtype=float).reshape(-1, 1)
        return cls(v, *sample_cells(v.shape[0]))

    @classmethod
    def fit(cls, values, edges: np.ndarray) -> "CellPoly":
        """Per-cell interpolant of values at ``gauss_nodes(edges)``."""
        return cls(np.asarray(values, dtype=float) @ _FIT, edges)

    # -- algebra ------------------------------------------------------------

    def _aligned(self, other: "CellPoly") -> bool:
        return self.m == other.m and (self.edges is other.edges
                                      or np.array_equal(self.edges, other.edges))

    def __add__(self, other: "CellPoly") -> "CellPoly":
        if not self._aligned(other):
            raise ValueError(f"cell mismatch: {self.m} vs {other.m} cells")
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

    def cell_means(self) -> np.ndarray:
        return self.coef @ _MEANS[: self.coef.shape[1]]

    def cell_integrals(self) -> np.ndarray:
        return self.h * self.cell_means()

    def integral(self) -> float:
        return float(self.cell_integrals().sum())

    def antiderivative(self) -> "CellPoly":
        """Cumulative integral from 0, continuous across cells."""
        p = np.arange(1, self.coef.shape[1] + 1)
        left = _cumsum(self.cell_integrals())    # before ``out``, to hold less at once
        out = np.empty((self.m, p.size + 1))
        np.divide(self.coef, p, out=out[:, 1:])
        out[:, 1:] *= (self.h / 2.0)[:, None]
        out[:, 0] = out[:, 1:] @ -(-1.0) ** p    # 0 at the cell's left edge
        out[1:, 0] += left[:-1]
        return CellPoly(out, self.edges, self.h)

    def tail_integral_poly(self) -> "CellPoly":
        """R(u) = integral of f over (u, 1), as a CellPoly."""
        tail = self.antiderivative()
        np.negative(tail.coef, out=tail.coef)
        tail.coef[:, 0] += self.integral()
        return tail

    # -- evaluation ---------------------------------------------------------

    def eval(self, s, side: str = "right"):
        """Evaluate at points of [0, 1].

        ``side`` resolves values at interior cell boundaries: "right" takes
        the cell starting there, "left" the cell ending there.  Step models
        built from empirical cells use "left" so that f(j/n) is the value on
        ``((j-1)/n, j/n]``.
        """
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(self.edges, s, side) - 1, 0, self.m - 1)
        x = 2.0 * (s - self.edges[k]) / self.h[k] - 1.0
        out = npoly.polyval(x, self.coef[k].T, tensor=False)
        return out if s.ndim else float(out)

    def cell_average_at(self, s, side: str = "right"):
        """Average of the function over the cell containing each point."""
        return self.cell_means()[np.clip(np.searchsorted(self.edges, s, side) - 1, 0, self.m - 1)]


@functools.lru_cache(maxsize=None)
def _node_powers(n: int, degree: int) -> tuple:
    """``x_k ** arange(degree)`` at each node x_k of the n-point rule."""
    return tuple(x ** np.arange(degree) for x in gauss_legendre(n)[0])


def _products(rows: Sequence[CellPoly], cols: Sequence[CellPoly],
              centre: bool = False) -> np.ndarray:
    """``int_0^1 r(s) c(s) ds`` for every row r and column c, exact for the
    cell polynomials; with ``centre``, of the functions less their integrals.

    Each entry takes a Gauss rule with enough nodes for the degree of its
    product, on the shared cells or else on the union of all the edges, and
    adds the weighted products of the nodes one after the other from 0.
    Each function is centred once and evaluated once per rule it meets, all
    at its first entry, and its values are dropped after the last entry
    that needs them.  When ``cols is rows`` the matrix is symmetric and only
    its upper triangle is summed.
    """
    funcs = list({id(f): f for f in (*rows, *cols)}.values())
    union = None
    if not all(funcs[0]._aligned(f) for f in funcs[1:]):
        union = _distinct(np.concatenate([f.edges for f in funcs]))
        union_half = np.diff(union) / 2.0
    entries = [(i, j, (a.coef.shape[1] + b.coef.shape[1]) // 2)
               for i, a in enumerate(rows) for j, b in enumerate(cols)
               if cols is not rows or j >= i]
    needs = [(id(f), n) for i, j, n in entries for f in (rows[i], cols[j])]
    uses, values = Counter(needs), {}

    def evaluate(p: CellPoly) -> None:
        """p at the nodes of each rule it meets, one row per node."""
        q = p.plus_constant(-p.integral()) if centre else p
        for n in {m for key, m in uses if key == id(p)}:
            vals = values[id(p), n] = np.empty((n, p.m if union is None else union.size - 1))
            if union is None:
                for row, powers in zip(vals, _node_powers(n, q.coef.shape[1])):
                    np.matmul(q.coef, powers, out=row)
            else:
                for row, x in zip(vals, gauss_legendre(n)[0]):
                    row[:] = q.eval(union[:-1] + union_half * (x + 1.0))

    out = np.empty((len(rows), len(cols)))
    for i, j, n in entries:
        a, b = rows[i], cols[j]
        for p in (a, b):
            if (id(p), n) not in values:
                evaluate(p)
        terms = gauss_legendre(n)[1][:, None] * values[id(a), n]
        terms *= values[id(b), n]
        # the rows added one after the other from 0, then times the half widths
        acc = np.add.reduce(terms, axis=0, initial=0.0)
        del terms
        acc *= a.h / 2.0 if union is None else union_half
        out[i, j] = np.sum(acc)
        if cols is rows:
            out[j, i] = out[i, j]
        for key in ((id(a), n), (id(b), n)):
            uses[key] -= 1
            if not uses[key]:
                del values[key]
    return out


def inner(a: CellPoly, b: CellPoly) -> float:
    """``int_0^1 a(s) b(s) ds``, exact for the cell polynomials."""
    return float(_products([a], [b])[0, 0])


def covariances(rows: Sequence[CellPoly], cols: Sequence[CellPoly]) -> np.ndarray:
    """``Cov(r(U), c(U))`` for every row r and column c, U uniform on (0, 1),
    in centred form, each function centred once; ``cols is rows`` gives a
    symmetric matrix from its upper triangle."""
    return _products(rows, cols, centre=True)


def covariance(a: CellPoly, b: CellPoly) -> float:
    """Cov(a(U), b(U)) for U uniform on (0, 1), in centred form."""
    return float(covariances([a], [b])[0, 0])
