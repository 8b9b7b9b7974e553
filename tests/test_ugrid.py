"""Piecewise-polynomial machinery: closed-form integrals vs brute force."""

import numpy as np
import pytest

from indexlaw.ugrid import CellPoly, covariance


def brute_bilinear(l1, l2, m=4000):
    """Midpoint tensor oracle for the bridge form."""
    s = (np.arange(m) + 0.5) / m
    a = l1.eval(s)
    b = l2.eval(s)
    kern = np.minimum.outer(s, s) - np.outer(s, s)
    return float(a @ kern @ b) / m**2


def brute_cross(h, l, m=4000):
    s = (np.arange(m) + 0.5) / m
    hv = h.eval(s)
    cum = np.cumsum(hv) / m - hv / (2 * m)
    total = np.sum(hv) / m
    return float(np.sum((cum - s * total) * l.eval(s)) / m)


class TestCellPoly:
    def test_step_integral(self):
        f = CellPoly.from_cells([1.0, 3.0, 2.0, 0.0])
        assert f.integral() == pytest.approx((1 + 3 + 2 + 0) / 4)

    def test_linear_integral_exact(self):
        f = CellPoly.from_nodes(np.linspace(0, 1, 9) ** 1)  # f(s) = s
        assert f.integral() == pytest.approx(0.5, abs=1e-15)
        assert covariance(f, f) == pytest.approx(1 / 12, abs=1e-15)

    def test_antiderivative_continuous(self):
        f = CellPoly.from_cells([2.0, -1.0, 0.5])
        cum = f.antiderivative()
        s = np.linspace(0, 1, 301)
        want = np.array([2.0 * min(x, 1 / 3)
                         + -1.0 * max(0.0, min(x, 2 / 3) - 1 / 3)
                         + 0.5 * max(0.0, x - 2 / 3) for x in s])
        assert np.allclose(cum.eval(s), want, atol=1e-14)

    def test_product(self):
        f = CellPoly.from_nodes([0.0, 0.5, 1.0])   # f(s) = s on 2 cells
        g = CellPoly.from_nodes([1.0, 1.0, 1.0])
        assert (f * g).integral() == pytest.approx(0.5, abs=1e-15)
        assert (f * f).integral() == pytest.approx(1 / 3, abs=1e-15)

    def test_eval_sides(self):
        f = CellPoly.from_cells([1.0, 2.0])
        assert f.eval(0.5, side="right") == 2.0
        assert f.eval(0.5, side="left") == 1.0
        assert f.eval(0.25) == 1.0
        assert f.eval(1.0, side="left") == 2.0
        assert f.eval(0.0) == 1.0

    def test_tail_integral(self):
        f = CellPoly.from_cells([1.0, 1.0, 1.0, 1.0])
        r = f.tail_integral_poly()
        s = np.linspace(0, 1, 101)
        assert np.allclose(r.eval(s), 1 - s, atol=1e-15)


class TestBridgeForms:
    """The bridge forms as covariances of cell functions of one uniform U:
    gamma2 = Cov(W1, W2) and gamma3 = Cov(h, W) with W the tail integral."""

    def test_constant_weights_exact(self):
        w = CellPoly.from_cells(np.ones(64)).tail_integral_poly()
        assert covariance(w, w) == pytest.approx(1 / 12, abs=1e-15)

    def test_bilinear_vs_brute(self):
        rng = np.random.default_rng(3)
        l1 = CellPoly.from_cells(rng.normal(size=16))
        l2 = CellPoly.from_cells(rng.normal(size=16))
        got = covariance(l1.tail_integral_poly(), l2.tail_integral_poly())
        assert got == pytest.approx(brute_bilinear(l1, l2), abs=2e-4)

    def test_cross_vs_brute(self):
        rng = np.random.default_rng(4)
        h = CellPoly.from_cells(rng.normal(size=16))
        l = CellPoly.from_cells(rng.normal(size=16))
        assert covariance(h, l.tail_integral_poly()) == pytest.approx(brute_cross(h, l), abs=2e-4)

    def test_linear_h_identity_weight(self):
        # int (s^2/2 - s/2) ds = -1/12, exact for the piecewise-linear model
        m = 32
        h = CellPoly.from_nodes(np.linspace(0, 1, m + 1))
        one = CellPoly.from_cells(np.ones(m))
        assert covariance(h, one.tail_integral_poly()) == pytest.approx(-1 / 12, abs=1e-15)
