"""Piecewise-polynomial machinery: closed-form integrals vs brute force, and
the mesh sizes as constants of the package."""

import inspect

import numpy as np
import pytest

import indexlaw
from indexlaw import ugrid
from indexlaw.ugrid import NODES, CellPoly, covariance, gauss_nodes, inner


def line(cells):
    """``s`` on ``cells`` uniform mesh cells."""
    edges = np.linspace(0.0, 1.0, cells + 1)
    return CellPoly.fit(gauss_nodes(edges), edges)


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
        f = line(8)
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
        f = line(2)
        g = CellPoly.fit(np.ones((2, NODES)), f.edges)   # 1
        assert inner(f, g) == pytest.approx(0.5, abs=1e-15)
        assert inner(f, f) == pytest.approx(1 / 3, abs=1e-15)

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

    @pytest.mark.parametrize("n", [200_000, 500_000])
    def test_unit_weights_do_not_drift(self, n):
        # W = 1 - s on every cell: the running sum of n cell integrals
        # keeps each partial sum to about one rounding
        w = CellPoly.from_cells(np.ones(n)).tail_integral_poly()
        s = ((np.arange(n)[:, None] + [0.0, 0.5, 1.0]) / n).ravel()
        assert np.max(np.abs(w.eval(s, side="left") - (1.0 - s))) <= 1e-15
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
        # int (s^2/2 - s/2) ds = -1/12, exact for the cell polynomials
        h = line(32)
        one = CellPoly.from_cells(np.ones(32))
        assert covariance(h, one.tail_integral_poly()) == pytest.approx(-1 / 12, abs=1e-15)


def _inner_by_nodes(a, b):
    """``int a b`` node by node: the Gauss rule of ``inner`` summed one node
    at a time from 0, the reference for the batched products."""
    x, w = ugrid.gauss_legendre((a.coef.shape[1] + b.coef.shape[1]) // 2)
    if a._aligned(b):
        half = a.h / 2.0
        values = lambda p, i: p.coef @ x[i] ** np.arange(p.coef.shape[1])
    else:
        edges = np.unique(np.concatenate([a.edges, b.edges]))
        half = np.diff(edges) / 2.0
        values = lambda p, i: p.eval(edges[:-1] + half * (x[i] + 1.0))
    return float(np.sum(half * sum(w[i] * values(a, i) * values(b, i) for i in range(x.size))))


class TestCovarianceMatrix:
    """``covariances`` centres each function once and evaluates it once per
    Gauss rule; every entry is the node-by-node sum of its pair."""

    def _functions(self, rng, cells):
        edges = ugrid.mesh_edges(cells)
        fitted = [CellPoly.fit(rng.normal(size=(edges.size - 1, NODES)), edges) for _ in range(2)]
        return fitted + [fitted[0].tail_integral_poly(), fitted[0] + fitted[1].tail_integral_poly()]

    def test_entries_are_the_node_sums(self):
        rng = np.random.default_rng(31)
        steps = [CellPoly.from_cells(rng.lognormal(size=100_000)) for _ in range(2)]
        for funcs in (self._functions(rng, 24),
                      [steps[0], steps[1].tail_integral_poly(), steps[0].tail_integral_poly()]):
            got = ugrid.covariances(funcs, funcs)
            centred = [f.plus_constant(-f.integral()) for f in funcs]
            want = [[_inner_by_nodes(a, b) for b in centred] for a in centred]
            assert np.array_equal(np.triu(got), np.triu(want))
            assert np.array_equal(got, got.T)

    def test_cells_of_two_meshes(self):
        rng = np.random.default_rng(32)
        a, b = self._functions(rng, 24)[3], CellPoly.from_cells(rng.normal(size=50))
        ac, bc = a.plus_constant(-a.integral()), b.plus_constant(-b.integral())
        assert covariance(a, b) == _inner_by_nodes(ac, bc)
        assert inner(a, b) == _inner_by_nodes(a, b)
        assert np.array_equal(ugrid.covariances([a], [b, b]), [[covariance(a, b)] * 2])


def _public_signatures():
    """``{name: signature}`` of every exported function and class and of
    the public methods of every exported class."""
    out = {}
    for name in indexlaw.__all__:
        obj = getattr(indexlaw, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            out[name] = inspect.signature(obj)
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(
                    obj, lambda m: inspect.isfunction(m) or inspect.ismethod(m)):
                if not attr.startswith("_"):
                    out[f"{name}.{attr}"] = inspect.signature(member)
    return out


class TestMeshSizes:
    def test_no_public_mesh_size_parameters(self):
        # the mesh and the Gaussian copula's tensor are the package's own:
        # their sizes are module constants, not arguments
        signatures = _public_signatures()
        assert {"index_variance", "GaussianCopula.cross_cov", "LogNormal.mesh",
                "EmpiricalDistribution.mesh", "NamedIndex.sen"} <= set(signatures)
        knobs = [(name, arg) for name, sig in signatures.items()
                 for arg in sig.parameters if arg in ("grid", "copula_grid")]
        assert knobs == []
        assert not hasattr(ugrid, "check_grid")
