"""Piecewise-polynomial functions on a uniform grid over (0, 1).

The covariance calculus reduces every one-dimensional integral to products,
cumulatives and moments of functions of the form ``w(Q(s))`` with Q a
quantile function.  On an empirical model these are genuine step functions
(constant on ``((j-1)/n, j/n]``); on a parametric model they are modelled as
piecewise-linear interpolants on a G-cell grid.  Representing both as
per-cell polynomials lets every downstream integral be evaluated in closed
form, so refining the grid never changes empirical results and polynomial
test cases are exact to round-off.

Every variance piece is one ``covariance(a, b) = Cov(a(U), b(U))`` of two
such cell functions, U uniform on (0, 1): the score ``h o Q`` and the tail
integral ``W = int_s^1 q(Q(t)) dt`` of a weight.

Local convention: cell k covers ``[k/m, (k+1)/m]`` and stores coefficients of
``tau = s - k/m``.
"""

from __future__ import annotations

import numpy as np


class CellPoly:
    """Piecewise polynomial on m uniform cells of (0, 1)."""

    __slots__ = ("m", "h", "coef")

    def __init__(self, coef: np.ndarray):
        coef = np.atleast_2d(np.asarray(coef, dtype=float))
        self.coef = coef
        self.m = coef.shape[0]
        self.h = 1.0 / self.m

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_cells(cls, values) -> "CellPoly":
        """Step function: values[k] on cell k."""
        v = np.asarray(values, dtype=float).reshape(-1, 1)
        return cls(v)

    @classmethod
    def from_nodes(cls, values) -> "CellPoly":
        """Piecewise-linear interpolant of node values at k/m, k = 0..m."""
        v = np.asarray(values, dtype=float)
        m = v.size - 1
        coef = np.empty((m, 2))
        coef[:, 0] = v[:-1]
        coef[:, 1] = (v[1:] - v[:-1]) * m
        return cls(coef)

    # -- algebra ------------------------------------------------------------

    def _aligned(self, other: "CellPoly") -> None:
        if self.m != other.m:
            raise ValueError(f"grid mismatch: {self.m} vs {other.m} cells")

    def __mul__(self, other: "CellPoly") -> "CellPoly":
        self._aligned(other)
        d1, d2 = self.coef.shape[1], other.coef.shape[1]
        out = np.zeros((self.m, d1 + d2 - 1))
        for i in range(d1):
            for j in range(d2):
                out[:, i + j] += self.coef[:, i] * other.coef[:, j]
        return CellPoly(out)

    def __add__(self, other: "CellPoly") -> "CellPoly":
        self._aligned(other)
        d = max(self.coef.shape[1], other.coef.shape[1])
        out = np.zeros((self.m, d))
        out[:, : self.coef.shape[1]] += self.coef
        out[:, : other.coef.shape[1]] += other.coef
        return CellPoly(out)

    def scaled(self, a: float) -> "CellPoly":
        return CellPoly(self.coef * a)

    def plus_constant(self, c: float) -> "CellPoly":
        out = self.coef.copy()
        out[:, 0] += c
        return CellPoly(out)

    # -- calculus -----------------------------------------------------------

    def cell_integrals(self) -> np.ndarray:
        powers = self.h ** np.arange(1, self.coef.shape[1] + 1)
        return self.coef @ (powers / np.arange(1, self.coef.shape[1] + 1))

    def integral(self) -> float:
        return float(self.cell_integrals().sum())

    def antiderivative(self) -> "CellPoly":
        """Cumulative integral from 0, continuous across cells."""
        d = self.coef.shape[1]
        out = np.zeros((self.m, d + 1))
        out[:, 1:] = self.coef / np.arange(1, d + 1)
        cells = self.cell_integrals()
        out[1:, 0] = np.cumsum(cells)[:-1]
        return CellPoly(out)

    def tail_integral_poly(self) -> "CellPoly":
        """R(u) = integral of f over (u, 1), as a CellPoly."""
        cum = self.antiderivative()
        return cum.scaled(-1.0).plus_constant(self.integral())

    # -- evaluation ---------------------------------------------------------

    def _cell_index(self, s: np.ndarray, side: str) -> np.ndarray:
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
        tau = s - k * self.h
        out = np.zeros_like(s)
        for d in range(self.coef.shape[1] - 1, -1, -1):
            out = out * tau + self.coef[k, d]
        return float(out[0]) if scalar else out

    def cell_average_at(self, s, side: str = "right"):
        """Average of the function over the cell containing each point."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        k = self._cell_index(s, side)
        return self.cell_integrals()[k] * self.m


def covariance(a: CellPoly, b: CellPoly) -> float:
    """Cov(a(U), b(U)) for U uniform on (0, 1), in centred form."""
    return (a.plus_constant(-a.integral()) * b.plus_constant(-b.integral())).integral()
