"""Two-period frame: copula models, joint laws, variations."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexlaw.distributions import (EmpiricalDistribution, Exponential, LogNormal,
                                    Mixture, Normal, Pareto, Uniform, normal_quantile)
from indexlaw.errors import (BadParams, IndexLawError, NonFiniteValue, OutOfRange,
                             TooFewPairs, ZeroBaseIndex)
from indexlaw.indices import NamedIndex, named_representation
from indexlaw.representation import (IndexRepresentation, index_cross_covariance,
                                     index_variance, score_model, u_atoms)
from indexlaw.rng import stream_seed, uniforms
from indexlaw.temporal import (BivariateFrame, ComonotoneCopula, EmpiricalCopula,
                               GaussianCopula, IndependenceCopula, _normal_midpoints,
                               empirical_copula, mutual_relative_covariance,
                               mutual_variation_covariance, relative_variation_law,
                               temporal_joint_covariance)
from indexlaw.ugrid import (NODES, CellPoly, covariance, gauss_legendre, gauss_nodes, inner,
                            mesh_edges)

one = lambda x: np.ones_like(np.asarray(x, dtype=float))
zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
beta_only = IndexRepresentation(h=zero, q=one, value=lambda m: 0.0)


def _step(cells, cut):
    """The indicator of ``s <= cut`` as a step function on ``cells`` cells."""
    return CellPoly.from_cells(np.where((np.arange(cells) + 0.5) / cells <= cut, 1.0, 0.0))


def _mesh_random(rng, cells):
    """A random function on the parametric mesh of ``cells`` base cells."""
    edges = mesh_edges(cells)
    return CellPoly.fit(rng.normal(size=(edges.size - 1, NODES)), edges)


def _line(cells):
    """``s`` on ``cells`` uniform mesh cells."""
    edges = np.linspace(0.0, 1.0, cells + 1)
    return CellPoly.fit(gauss_nodes(edges), edges)


class TestCopulaModels:
    def test_gaussian_rho_range(self):
        with pytest.raises(BadParams):
            GaussianCopula(1.0)

    @pytest.mark.parametrize("cop", [IndependenceCopula(), ComonotoneCopula(),
                                     GaussianCopula(-0.9), GaussianCopula(0.6),
                                     "empirical"])
    def test_constant_factor_and_cauchy_schwarz(self, cop, mesh):
        rng = np.random.default_rng(31)
        if cop == "empirical":
            xy = rng.normal(size=(200, 2))
            cop = empirical_copula(xy @ np.array([[1.0, 0.7], [0.0, 1.0]]))
        const = CellPoly.from_cells(np.full(50, 3.7))
        with mesh(copula_grid=128):
            for cells in (50, 73):
                for phi in (CellPoly.from_cells(rng.normal(size=cells)),
                            _mesh_random(rng, cells)):
                    assert abs(cop.cross_cov(phi, const)) <= 1e-15
                    assert abs(cop.cross_cov(const, phi)) <= 1e-15
                    for psi in (phi, _step(cells, 0.4), _line(8)):
                        bound = math.sqrt(covariance(phi, phi) * covariance(psi, psi))
                        assert abs(cop.cross_cov(phi, psi)) <= bound * (1 + 1e-12)


def _union_oracle_cov(a, b):
    """``Cov(a(U), b(U))`` on the union of both cells, each function's cell
    found once per union cell from its midpoint, so no Gauss node can land
    in a neighbouring cell."""
    edges = np.union1d(a.edges, b.edges)
    half = np.diff(edges) / 2.0
    x, w = gauss_legendre(NODES + 1)
    s = edges[:-1, None] + half[:, None] * (x + 1.0)
    vals = []
    for p in (a, b):
        k = np.searchsorted(p.edges, edges[:-1] + half) - 1
        t = 2.0 * (s - p.edges[k, None]) / p.h[k, None] - 1.0
        vals.append(sum(p.coef[k, j, None] * t ** j for j in range(p.coef.shape[1])))
    return float(np.sum(half * ((vals[0] * vals[1]) @ w))) - a.integral() * b.integral()


class TestComonotoneCopula:
    def test_mixed_cells_match_union_oracle(self):
        # a sample's cells against a parametric mesh graded towards
        # F(Z) = 0.5 = 75/150: Gauss nodes within 1e-9 of 0.5 belong to the
        # sample cell below it
        x = np.random.default_rng(11).lognormal(size=150)
        index = NamedIndex.sen(1.0)
        sample, margin = EmpiricalDistribution(x), LogNormal(0.0, 1.0)
        phi = u_atoms(sample, named_representation(sample, index))
        psi = u_atoms(margin, named_representation(margin, index))
        assert margin.cdf(1.0) == 0.5
        assert ComonotoneCopula().cross_cov(phi, psi) == pytest.approx(
            _union_oracle_cov(phi, psi), rel=1e-14)


class TestEmpiricalCopula:
    # the rank construction seen through the measure it defines: cross_cov
    # against the exact covariance of cell functions

    def test_comonotone_pairs(self):
        x = np.linspace(0, 1, 50)
        cop = empirical_copula(np.column_stack([x, x]))
        rng = np.random.default_rng(4)
        a, b = (CellPoly.from_cells(rng.normal(size=50)) for _ in range(2))
        assert cop.cross_cov(a, b) == pytest.approx(covariance(a, b), abs=1e-15)

    def test_countermonotone_pairs(self):
        x = np.linspace(0, 1, 50)
        cop = empirical_copula(np.column_stack([x, -x]))
        rng = np.random.default_rng(5)
        a_cells, b_cells = rng.normal(size=50), rng.normal(size=50)
        a, b = CellPoly.from_cells(a_cells), CellPoly.from_cells(b_cells)
        reversed_b = CellPoly.from_cells(b_cells[::-1])
        assert cop.cross_cov(a, b) == pytest.approx(covariance(a, reversed_b), abs=1e-15)

    def test_ties_share_a_max_rank(self):
        # tied values fall in the cell of their max-rank
        cop = empirical_copula([[1, 2], [3, 1], [1, 5], [2, 2]])
        assert np.array_equal(cop.u_ranks, [0.5, 1.0, 0.5, 0.75])
        assert np.array_equal(cop.v_ranks, [0.75, 0.25, 1.0, 0.75])

    def test_too_few(self):
        with pytest.raises(TooFewPairs):
            empirical_copula([[1.0, 2.0]])

    @pytest.mark.parametrize("u, v", [
        ([0.0, 1.0], [0.5, 1.0]),          # r = 0 would wrap to the last cell
        ([0.3, 1.0], [0.5, 1.0]),          # not r/n
        ([0.5, 1.5], [0.5, 1.0]),          # r > n
        ([float("nan"), 1.0], [0.5, 1.0]),
        ([0.5, 1.0], [0.5, float("inf")]),
        ([0.5, 1.0], [1 / 3, 2 / 3, 1.0]),  # lengths differ
    ])
    def test_ranks_must_be_r_over_n(self, u, v):
        with pytest.raises(OutOfRange):
            EmpiricalCopula(u, v)

    def test_rank_gather_matches_lookup_at_ranks(self):
        # the sorted lookup gathered by rank is the cell average at each rank
        rng = np.random.default_rng(12)
        cop = empirical_copula(rng.normal(size=(97, 2)))
        a, b = CellPoly.from_cells(rng.normal(size=97)), _mesh_random(rng, 40)
        pv = a.cell_average_at(cop.u_ranks, side="left")
        qv = b.cell_average_at(cop.v_ranks, side="left")
        want = np.mean(pv * qv) - np.mean(pv) * np.mean(qv)
        assert cop.cross_cov(a, b) == pytest.approx(want, rel=1e-14)

    def test_rank_cells_are_the_searched_form(self):
        # the copula is built from integer max-ranks; atoms on the n sample
        # cells read their own cell means, others are searched at j/n, and
        # both give exactly the sorted lookup gathered by rank
        rng = np.random.default_rng(13)
        xy = rng.normal(size=(97, 2))
        xy[::7, 0] = xy[0, 0]                 # ties share a max-rank
        cop = empirical_copula(xy)
        public = EmpiricalCopula(cop.u_ranks, cop.v_ranks)
        levels = np.arange(1, 98) / 97
        cells = [np.rint(r * 97).astype(int) - 1 for r in (cop.u_ranks, cop.v_ranks)]
        step, fine = CellPoly.from_cells(rng.normal(size=97)), _mesh_random(rng, 40)
        parametric = u_atoms(LogNormal(0, 1), named_representation(LogNormal(0, 1),
                                                                   NamedIndex.sen(1.0)))
        for a, b in ((step, fine), (fine, step), (step, step), (parametric, step)):
            pv = a.cell_average_at(levels, side="left")[cells[0]]
            qv = b.cell_average_at(levels, side="left")[cells[1]]
            want = float(np.mean(pv * qv) - np.mean(pv) * np.mean(qv))
            assert cop.cross_cov(a, b) == want == public.cross_cov(a, b)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_pair_rejected(self, bad):
        pairs = [[1.0, 2.0], [3.0, 1.0], [2.0, 5.0], [4.0, 4.0]]
        pairs[2][1] = bad
        pairs[3][0] = bad
        with pytest.raises(NonFiniteValue) as err:
            empirical_copula(pairs)
        assert err.value.index == 2

    def test_gaussian_pairs_converge(self):
        # each cross covariance is within two standard errors of the
        # Gaussian copula's at n = 1e4
        rho, n = 0.5, 10000
        z1 = np.asarray(normal_quantile(uniforms(stream_seed(77, 0), n)))
        z2 = np.asarray(normal_quantile(uniforms(stream_seed(77, 1), n)))
        y = rho * z1 + math.sqrt(1 - rho * rho) * z2
        emp = empirical_copula(np.column_stack([z1, y]))
        ana = GaussianCopula(rho)
        step, line = _step(100, 0.3), _line(64)
        for phi, psi in ((step, line), (step, step), (line, line)):
            bound = 2 * math.sqrt(covariance(phi, phi) * covariance(psi, psi) / n)
            assert abs(emp.cross_cov(phi, psi) - ana.cross_cov(phi, psi)) <= bound


class TestJointCovariance:
    @pytest.mark.parametrize("margin, z", [
        (LogNormal(0, 1), 1.0), (Normal(2, 1), 2.0), (Exponential(1.0), 0.7),
        (Uniform(0, 2), 1.0), (Pareto(1.0, 3.0), 1.3),
        (Mixture((0.5, 0.5), [LogNormal(0, 1), LogNormal(0.5, 1)]), 1.0), (Uniform(0, 1), None),
    ], ids=["lognormal", "normal", "exponential", "uniform", "pareto", "mixture", "moments"])
    def test_diagonal_is_index_variance(self, margin, z):
        # one mesh and one covariance calculus: a period's own entry of the
        # joint law is the index variance of a score without polynomial
        # part, and (z None) of the moment kinds on a bounded margin, whose
        # whole polynomial the mesh holds
        frame = BivariateFrame(margin, margin, GaussianCopula(0.3))
        if z is None:
            indices = (NamedIndex.central_moment(2), NamedIndex.central_moment(3),
                       NamedIndex.even_normalized(2), NamedIndex.odd_normalized(2))
        else:
            indices = (NamedIndex.fgt(0.0, z), NamedIndex.fgt(1.5, z), NamedIndex.sen(z),
                       NamedIndex.kakwani(3, z), NamedIndex.shorrocks(z), NamedIndex.takayama(z))
        for index in indices:
            rep = named_representation(margin, index)
            diagonal = temporal_joint_covariance(frame, rep).matrix[0, 0]
            assert diagonal == pytest.approx(index_variance(margin, rep).total, rel=1e-13)

    def test_independence_beta_cross_is_zero(self):
        frame = BivariateFrame(Uniform(0, 1), Uniform(0, 1), IndependenceCopula())
        j = temporal_joint_covariance(frame, beta_only)
        assert j.cross == 0.0

    def test_comonotone_beta_pair(self):
        frame = BivariateFrame(Uniform(0, 1), Uniform(0, 1), ComonotoneCopula())
        j = temporal_joint_covariance(frame, beta_only)
        assert j.cross == pytest.approx(1 / 12, abs=1e-12)

    @pytest.mark.parametrize("margin", [Uniform(0, 1), LogNormal(0, 1),
                                        EmpiricalDistribution(np.geomspace(0.1, 4, 80))])
    def test_comonotone_identical_margins_degenerate(self, margin):
        # within and across periods the same atom is coupled comonotonically,
        # so the two entries are one computation
        z = 0.5 if isinstance(margin, Uniform) else 1.0
        for idx in (NamedIndex.sen(z), NamedIndex.shorrocks(z), NamedIndex.fgt(1.0, z),
                    NamedIndex.central_moment(2)):
            rep = named_representation(margin, idx)
            j = temporal_joint_covariance(BivariateFrame(margin, margin, ComonotoneCopula()), rep)
            assert j.delta_var == 0.0, idx.label()
            assert j.cross == j.matrix[0, 0], idx.label()

    def test_independence_reduces_to_products(self):
        # every cross bracket is a product of one-dimensional integrals
        m1, m2 = LogNormal(0, 1), Exponential(1.0)
        rep1 = named_representation(m1, NamedIndex.shorrocks(1.0))
        rep2 = named_representation(m2, NamedIndex.shorrocks(0.8))
        j = temporal_joint_covariance(BivariateFrame(m1, m2, IndependenceCopula()),
                                      rep1, rep2=rep2)
        assert abs(j.cross) <= 1e-9
        assert j.delta_var == pytest.approx(j.matrix[0, 0] + j.matrix[1, 1], rel=1e-12)

    def test_matrix_shape_and_symmetry(self):
        frame = BivariateFrame(Uniform(0, 1), Uniform(0, 1.1), GaussianCopula(0.3))
        rep = named_representation(Uniform(0, 1), NamedIndex.fgt(1.0, 0.5))
        rep2 = named_representation(Uniform(0, 1.1), NamedIndex.fgt(1.0, 0.5))
        j = temporal_joint_covariance(frame, rep, rep2=rep2)
        assert j.matrix.shape == (2, 2)
        assert j.matrix[0, 1] == j.matrix[1, 0]


class TestRelativeVariation:
    def test_degenerate_periods(self):
        m = LogNormal(0, 1)
        rep = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        j = relative_variation_law(BivariateFrame(m, m, ComonotoneCopula()), rep, 0.3, 0.3)
        assert j.rel_var == pytest.approx(0.0, abs=1e-10)

    def test_independent_equal_periods(self):
        m = LogNormal(0, 1)
        rep = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        v = index_variance(m, rep).total
        j = relative_variation_law(BivariateFrame(m, m, IndependenceCopula()), rep, 1.0, 1.0)
        assert j.rel_var == pytest.approx(2 * j.matrix[0, 0], rel=1e-12)
        assert j.matrix[0, 0] == pytest.approx(v, rel=1e-4)
        assert j.gamma4 == 1.0 and j.gamma5 == 0.0

    def test_scaling(self):
        # scaling the index statistics by c scales rel_var by the gradient
        m = LogNormal(0, 1)
        rep = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        base = relative_variation_law(BivariateFrame(m, m, IndependenceCopula()),
                                      rep, 1.0, 1.5)
        crep = IndexRepresentation(h=lambda x: 2.0 * rep.h(x),
                                   q=lambda x: 2.0 * rep.q(x),
                                   value=rep.value, breaks=rep.breaks, q_zero=rep.q_zero)
        scaled = relative_variation_law(BivariateFrame(m, m, IndependenceCopula()),
                                        crep, 1.0, 1.5)
        assert scaled.rel_var == pytest.approx(4 * base.rel_var, rel=1e-12)

    def test_zero_base(self):
        m = Uniform(0, 1)
        rep = named_representation(m, NamedIndex.fgt(0.0, 0.5))
        with pytest.raises(ZeroBaseIndex):
            relative_variation_law(BivariateFrame(m, m, IndependenceCopula()), rep, 0.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_index(self, bad):
        m = LogNormal(0, 1)
        rep = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        frame = BivariateFrame(m, m, IndependenceCopula())
        for index1, index2 in ((bad, 0.3), (0.3, bad)):
            with pytest.raises(BadParams):
                relative_variation_law(frame, rep, index1, index2)
        for at in range(4):
            values = [0.3, 0.35, 0.2, 0.25]
            values[at] = bad
            with pytest.raises(BadParams):
                mutual_relative_covariance(frame, rep, rep, *values)


class TestMutualInfluence:
    def _frame(self):
        return BivariateFrame(LogNormal(0, 1), LogNormal(0.2, 1), GaussianCopula(0.5))

    def test_coincident_indices(self):
        frame = self._frame()
        rep1 = named_representation(frame.margin1, NamedIndex.fgt(1.0, 1.0))
        rep2 = named_representation(frame.margin2, NamedIndex.fgt(1.0, 1.0))
        jm = mutual_variation_covariance(frame, rep1, rep1, rep_i2=rep2, rep_j2=rep2)
        jd = temporal_joint_covariance(frame, rep1, rep2=rep2)
        assert jm.cross == pytest.approx(jd.delta_var, rel=1e-10)

    def test_degenerate_partner_zero_rows(self):
        frame = self._frame()
        rep = named_representation(frame.margin1, NamedIndex.fgt(1.0, 1.0))
        repc = IndexRepresentation(h=one, q=zero, value=lambda m: 1.0, q_zero=True)
        jm = mutual_variation_covariance(frame, rep, repc)
        assert np.allclose(jm.matrix[2:, :], 0.0, atol=1e-12)
        assert np.allclose(jm.matrix[:, 2:], 0.0, atol=1e-12)

    def test_psd_randomized(self, mesh):
        rng = np.random.default_rng(12)
        frame = self._frame()
        for _ in range(5):
            a, b = rng.normal(size=2)
            zc = rng.uniform(0.5, 2.0)
            rep_i = IndexRepresentation(
                h=lambda x, a=a, zc=zc: a * np.where(np.asarray(x) <= zc, 1.0, 0.0),
                q=lambda x, b=b, zc=zc: b * np.where(np.asarray(x) <= zc, zc - np.asarray(x), 0.0),
                value=lambda m: 0.0)
            rep_j = named_representation(frame.margin1, NamedIndex.fgt(1.0, 1.0))
            rep_j2 = named_representation(frame.margin2, NamedIndex.fgt(1.0, 1.0))
            with mesh(grid=512, copula_grid=256):
                jm = mutual_variation_covariance(frame, rep_i, rep_j, rep_j2=rep_j2)
            assert np.linalg.eigvalsh(jm.matrix).min() >= -1e-9

    def test_relative_coincides(self):
        frame = self._frame()
        rep1 = named_representation(frame.margin1, NamedIndex.fgt(1.0, 1.0))
        rep2 = named_representation(frame.margin2, NamedIndex.fgt(1.0, 1.0))
        i1, i2 = 0.25, 0.3
        cross = mutual_relative_covariance(frame, rep1, rep1, i1, i2, i1, i2,
                                           rep_i2=rep2, rep_j2=rep2)
        jd = relative_variation_law(frame, rep1, i1, i2, rep2=rep2)
        assert cross == pytest.approx(jd.rel_var, rel=1e-10)

    def test_sign_flip(self):
        # swapping the two periods of J negates the covariance of variations
        frame = self._frame()
        rep_i1 = named_representation(frame.margin1, NamedIndex.fgt(1.0, 1.0))
        rep_i2 = named_representation(frame.margin2, NamedIndex.fgt(1.0, 1.0))
        rep_j1 = named_representation(frame.margin1, NamedIndex.fgt(2.0, 1.0))
        rep_j2 = named_representation(frame.margin2, NamedIndex.fgt(2.0, 1.0))
        jm = mutual_variation_covariance(frame, rep_i1, rep_j1,
                                         rep_i2=rep_i2, rep_j2=rep_j2)
        # flip by contrast algebra on the same matrix
        ci = np.array([-1.0, 1.0, 0.0, 0.0])
        cj = np.array([0.0, 0.0, 1.0, -1.0])
        flipped = float(ci @ jm.matrix @ cj)
        assert flipped == pytest.approx(-jm.cross, rel=1e-12)

    def test_zero_base_raises(self):
        frame = self._frame()
        rep = named_representation(frame.margin1, NamedIndex.fgt(1.0, 1.0))
        with pytest.raises(ZeroBaseIndex):
            mutual_relative_covariance(frame, rep, rep, 0.0, 1.0, 1.0, 1.0)

    def test_entries_under_an_asymmetric_copula(self):
        # every entry is one covariance of u-functions: comonotone within a
        # period, the frame's copula (period-1 atom first) across periods
        rng = np.random.default_rng(8)
        x = rng.lognormal(size=60)
        y = x * rng.lognormal(0.0, 0.5, size=60)
        m1, m2 = EmpiricalDistribution(np.sort(x)), EmpiricalDistribution(np.sort(y))
        cop = empirical_copula(np.column_stack([x, y]))
        frame = BivariateFrame(m1, m2, cop)
        idx_i, idx_j = NamedIndex.sen(1.0), NamedIndex.fgt(2.0, 1.5)
        reps = [named_representation(m, ix) for ix in (idx_i, idx_j) for m in (m1, m2)]
        jm = mutual_variation_covariance(frame, reps[0], reps[2], reps[1], reps[3])
        phi = [u_atoms(m, r) for m, r in zip((m1, m2, m1, m2), reps)]
        same = ComonotoneCopula()
        for a, b in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 3)):
            assert jm.matrix[a, b] == same.cross_cov(phi[a], phi[b])
        for a, b in ((0, 1), (2, 3), (0, 3), (2, 1)):
            assert jm.matrix[a, b] == jm.matrix[b, a] == cop.cross_cov(phi[a], phi[b])
        assert cop.cross_cov(phi[1], phi[2]) != jm.matrix[1, 2]


class TestMcAgreement:
    def test_comonotone_fgt_delta_variance(self):
        # paired growth Y = 1.1 X, lognormal incomes: the variance of the
        # difference estimate matches simulation
        z = 1.5
        l1, l2 = LogNormal(0, 1), LogNormal(math.log(1.1), 1)
        idx = NamedIndex.fgt(1.0, z)
        rep1 = named_representation(l1, idx)
        rep2 = named_representation(l2, idx)
        frame = BivariateFrame(l1, l2, ComonotoneCopula())
        dv = temporal_joint_covariance(frame, rep1, rep2=rep2).delta_var
        n, reps = 2000, 400
        deltas = np.empty(reps)
        h = lambda t: np.where(t <= z, (z - t) / z, 0.0)
        for r in range(reps):
            x = np.asarray(l1.quantile(uniforms(stream_seed(5, r), n)))
            deltas[r] = float(np.mean(h(1.1 * x)) - np.mean(h(x)))
        assert n * np.var(deltas) == pytest.approx(dv, rel=0.15)


def _catalog(z):
    return [NamedIndex.fgt(alpha, z) for alpha in (0.0, 1.0, 2.0, 1.5)] + [
        NamedIndex.sen(z), NamedIndex.kakwani(3, z), NamedIndex.shorrocks(z),
        NamedIndex.thon(z), NamedIndex.takayama(z), NamedIndex.takayama_ratio(z),
        NamedIndex.central_moment(2), NamedIndex.central_moment(3),
        NamedIndex.odd_normalized(2), NamedIndex.even_normalized(2)]


class TestEmpiricalCopulaJointLaws:
    @pytest.mark.parametrize("index", _catalog(1.0), ids=lambda ix: ix.label())
    def test_diagonal_is_index_variance(self, index):
        # Var phi(U) = gamma1 + gamma2 + 2 gamma3 for phi = h o Q + W
        x = np.random.default_rng(21).lognormal(size=150)
        y = 1.1 * x * np.random.default_rng(22).lognormal(0.0, 0.3, size=150)
        m1, m2 = EmpiricalDistribution(np.sort(x)), EmpiricalDistribution(np.sort(y))
        frame = BivariateFrame(m1, m2, empirical_copula(np.column_stack([x, y])))
        rep1, rep2 = named_representation(m1, index), named_representation(m2, index)
        j = temporal_joint_covariance(frame, rep1, rep2=rep2)
        for k, (m, rep) in enumerate(((m1, rep1), (m2, rep2))):
            assert j.matrix[k, k] == pytest.approx(index_variance(m, rep).total, rel=1e-12)

    def test_pair_is_one_covariance(self):
        # on one margin, the covariance of two indices is Cov(phi_i(U), phi_j(U))
        m = EmpiricalDistribution(np.sort(np.random.default_rng(23).lognormal(size=300)))
        reps = [named_representation(m, ix) for ix in _catalog(1.0)]
        atoms = [u_atoms(m, rep) for rep in reps]
        for i, j in itertools.combinations(range(len(reps)), 2):
            assert index_cross_covariance(m, reps[i], reps[j]) == pytest.approx(
                covariance(atoms[i], atoms[j]), rel=1e-12), (i, j)

    def test_proportional_columns_nonnegative_difference(self):
        # perfectly dependent paired data: the checkerboard rank measure
        # keeps the variance of the difference nonnegative
        from indexlaw.distributions import EmpiricalDistribution
        from indexlaw.empirical import build_sample

        x = np.sort(np.random.default_rng(99).lognormal(size=400))
        for factor in (1.0, 1.08):
            y = factor * x
            m1 = EmpiricalDistribution(build_sample(x))
            m2 = EmpiricalDistribution(build_sample(y))
            frame = BivariateFrame(m1, m2, empirical_copula(np.column_stack([x, y])))
            idx = NamedIndex.sen(1.0)
            j = temporal_joint_covariance(frame, named_representation(m1, idx),
                                          rep2=named_representation(m2, idx))
            assert j.delta_var >= 0.0
            if factor == 1.0:
                assert j.delta_var <= 1e-4  # only the per-cell residual survives

    def test_rank_bracket_matches_within_piece(self):
        # for identical columns the score bracket under the rank measure
        # reproduces the within-period score variance exactly
        from indexlaw.distributions import EmpiricalDistribution
        from indexlaw.empirical import build_sample

        x = np.random.default_rng(3).lognormal(size=173)  # non-dyadic n
        m = EmpiricalDistribution(build_sample(x))
        rep = named_representation(m, NamedIndex.shorrocks(1.0))
        hm = score_model(m, rep.h)
        cop = empirical_copula(np.column_stack([x, x]))
        within = inner(hm, hm) - hm.integral() ** 2
        assert cop.cross_cov(hm, hm) == pytest.approx(within, abs=1e-14)


def _random_score_weight(rng, m, step):
    """A random score h and the tail integral W of a random weight on m
    cells: step functions when ``step`` (the empirical case), functions on
    the parametric mesh otherwise."""
    def make():
        return CellPoly.from_cells(rng.normal(size=m)) if step else _mesh_random(rng, m)

    hm, lm = make(), make()
    return hm, lm.tail_integral_poly()


def _random_pairs_copula():
    xy = np.random.default_rng(41).normal(size=(300, 2))
    return empirical_copula(xy @ np.array([[1.0, 0.4], [0.0, 1.0]]))


class TestOneBilinearCall:
    @pytest.mark.parametrize("cop", [
        IndependenceCopula(), ComonotoneCopula(), GaussianCopula(-0.9), GaussianCopula(0.0),
        GaussianCopula(0.6), _random_pairs_copula(),
    ], ids=["independence", "comonotone", "gauss-0.9", "gauss0", "gauss0.6", "empirical"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_summed_call_equals_four_brackets(self, cop, seed, mesh):
        # the call on the u-functions h + W equals the four score/weight
        # brackets, so one atom per period carries the whole covariance
        rng = np.random.default_rng(seed)
        step = rng.uniform() < 0.5
        m1, m2 = (int(m) for m in rng.integers(20, 90, size=2))
        for b_cells in (m1, m2):  # equal and (usually) unequal grids across periods
            a, b = _random_score_weight(rng, m1, step), _random_score_weight(rng, b_cells, step)
            with mesh(copula_grid=96):
                brackets = [cop.cross_cov(p, q) for p in a for q in b]
                got = cop.cross_cov(a[0] + a[1], b[0] + b[1])
            scale = sum(abs(x) for x in brackets)
            if getattr(cop, "rho", None) == 0.0:
                # every bracket is 0 up to cancellation; measure against the
                # size of the terms that cancel instead
                mid = (np.arange(96) + 0.5) / 96
                scale = sum(np.mean(np.abs(p.eval(mid))) * np.mean(np.abs(q.eval(mid)))
                            for p in a for q in b)
            assert abs(got - sum(brackets)) <= 1e-12 * scale


class TestOneAssembly:
    """A joint law centres each atom once and couples the periods in one
    block per copula, whose entries are the pair form's."""

    _COPULAS = [IndependenceCopula(), ComonotoneCopula(), GaussianCopula(-0.7),
                GaussianCopula(0.5), _random_pairs_copula()]
    _IDS = ["independence", "comonotone", "gauss-0.7", "gauss0.5", "empirical"]

    @pytest.mark.parametrize("cop", _COPULAS, ids=_IDS)
    def test_block_entries_are_the_pairs(self, cop):
        rng = np.random.default_rng(17)
        phis = [_mesh_random(rng, 30), CellPoly.from_cells(rng.normal(size=300))]
        psis = [_mesh_random(rng, 50), _mesh_random(rng, 50), CellPoly.from_cells(rng.normal(size=300))]
        block = cop.cross_cov(phis, psis)
        assert block.shape == (2, 3)
        assert np.array_equal(block, [[cop.cross_cov(p, q) for q in psis] for p in phis])

    @pytest.mark.parametrize("cop", [GaussianCopula(0.4), IndependenceCopula(),
                                     _random_pairs_copula()], ids=["gauss", "independence",
                                                                   "empirical"])
    def test_each_atom_centred_once(self, monkeypatch, cop):
        calls = []
        original = CellPoly.plus_constant

        def counted(self, c):
            calls.append(id(self))
            return original(self, c)

        monkeypatch.setattr(CellPoly, "plus_constant", counted)
        frame = BivariateFrame(LogNormal(0, 1), LogNormal(0.1, 0.9), cop)
        idx = (NamedIndex.sen(1.0), NamedIndex.fgt(1.0, 1.0))
        r = ([named_representation(frame.margin1, ix) for ix in idx]
             + [named_representation(frame.margin2, ix) for ix in idx])
        mutual_variation_covariance(frame, r[0], r[1], r[2], r[3])
        assert len(calls) == len(set(calls)) == 4


class TestGaussianDensityOnce:
    def _reps(self, frame):
        idx = (NamedIndex.sen(1.0), NamedIndex.fgt(1.0, 1.0))
        return ([named_representation(frame.margin1, ix) for ix in idx]
                + [named_representation(frame.margin2, ix) for ix in idx])

    def test_one_density_per_joint_law(self, monkeypatch, mesh):
        # one density, one cross block of the 2 x 2 period-crossing entries,
        # and one evaluation of each of the 4 atoms at the midpoints
        calls = {"density_grid": 0, "cross_cov": 0, "eval": 0}
        for owner, name in ((GaussianCopula, "density_grid"), (GaussianCopula, "cross_cov"),
                            (CellPoly, "eval")):
            original = getattr(owner, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(owner, name, counted)
        frame = BivariateFrame(LogNormal(0, 1), LogNormal(0.1, 0.9), GaussianCopula(0.4))
        r = self._reps(frame)
        with mesh(grid=256, copula_grid=128):
            mutual_variation_covariance(frame, r[0], r[1], r[2], r[3])
        assert calls == {"density_grid": 1, "cross_cov": 1, "eval": 4}

    def test_memo_follows_rho(self, mesh):
        frame = BivariateFrame(LogNormal(0, 1), LogNormal(0.1, 0.9), GaussianCopula(0.4))
        r = self._reps(frame)
        with mesh(grid=256, copula_grid=128):
            mutual_variation_covariance(frame, r[0], r[1])
            frame.copula.rho = -0.3
            moved = mutual_variation_covariance(frame, r[0], r[1])
            fresh = BivariateFrame(frame.margin1, frame.margin2, GaussianCopula(-0.3))
            want = mutual_variation_covariance(fresh, r[0], r[1])
        assert np.array_equal(moved.matrix, want.matrix)

    @pytest.mark.parametrize("bad", [1.0, math.nan, 1.5])
    def test_assigned_rho_is_checked(self, bad):
        cop = GaussianCopula(0.4)
        with pytest.raises(BadParams):
            cop.rho = bad
        assert cop.rho == 0.4

    def test_assigned_rho_reads_as_the_constructor_reads(self):
        cop = GaussianCopula(0.4)
        cop.rho = "0.2"
        assert cop.rho == 0.2 and type(cop.rho) is float
        assert np.array_equal(cop.density_grid()[1], GaussianCopula(0.2).density_grid()[1])


def _full_density(z, rho):
    """The copula density on the whole tensor of quantiles ``z``, every
    entry by the same elementwise steps as ``density_grid``."""
    denom = 1.0 - rho * rho
    z2 = z * z
    dens = np.add.outer(z2, z2)
    dens *= rho * rho
    zz = np.multiply.outer(z, z)
    zz *= 2.0 * rho
    dens -= zz
    np.negative(dens, out=dens)
    dens /= 2.0 * denom
    np.exp(dens, out=dens)
    dens /= math.sqrt(denom)
    return dens


class TestPointSymmetricDensity:
    @pytest.mark.parametrize("size", [512, 128, 96, 15])
    def test_mirrored_quantiles_are_antisymmetric(self, size):
        mid, z = _normal_midpoints(size)
        assert np.array_equal(z, -z[::-1])
        assert np.array_equal(mid, (np.arange(size) + 0.5) / size)
        if size % 2:
            assert math.copysign(1.0, z[size // 2]) == 1.0 and z[size // 2] == 0.0

    @pytest.mark.parametrize("size", [16, 128, 512, 4096])
    def test_dyadic_quantiles_are_as241(self, size):
        # at dyadic sizes AS241 is itself antisymmetric on the midpoints
        mid, z = _normal_midpoints(size)
        assert np.array_equal(z, normal_quantile(mid))

    @pytest.mark.parametrize("size", [512, 128, 96, 15])
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.45, 0.9])
    def test_half_build_is_the_full_tensor(self, mesh, size, rho):
        with mesh(copula_grid=size):
            mid, dens = GaussianCopula(rho).density_grid()
        want_mid, z = _normal_midpoints(size)
        assert mid is want_mid
        assert dens.shape == (size, size) and dens.flags.c_contiguous
        assert np.array_equal(dens, _full_density(z, rho))



# values outside the documented domain of a numeric argument, and some inside
_NUMBERS = [None, math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1, -3, -0.25, 0.5, 2.5,
            1e-300, 1e300, 5e-324, True, np.float64(0.3), np.int64(16), "0.5", "abc", "",
            b"1", [], np.array([]), np.array([0.3, 0.4]), np.zeros((2, 2)),
            np.zeros((0, 2)), [[0.1, 0.2, 0.3]], [[1.0, None], [2.0, 3.0]]]
_ANY = st.one_of(st.sampled_from(_NUMBERS), st.floats(), st.integers(-40, 40),
                 st.lists(st.lists(st.one_of(st.floats(), st.just("x")), max_size=3),
                          max_size=4))


def _numbers(j):
    """Every number a joint law computed."""
    return [j.matrix] + [v for v in (j.cross, j.delta_var, j.rel_var, j.gamma4, j.gamma5)
                         if v is not None]


def _contract_table():
    """``{argument: call}``, one call per numeric argument of the temporal
    API; each call puts its value in that argument and valid values in the
    others, and returns every number it computed.  Run them on a small mesh
    (32 base cells, 16 copula midpoints per axis)."""
    m1, m2 = Uniform(0, 1), Uniform(0, 1.25)
    r1, r2 = (named_representation(m, NamedIndex.fgt(1.0, 0.5)) for m in (m1, m2))
    frame = BivariateFrame(m1, m2, GaussianCopula(0.3))
    a, b = CellPoly.from_cells(np.linspace(-1.0, 2.0, 8)), _step(8, 0.4)
    table = {
        "GaussianCopula.rho": lambda v: _numbers(temporal_joint_covariance(
            BivariateFrame(m1, m2, GaussianCopula(v)), r1, r2)),
        "empirical_copula.pairs": lambda v: [empirical_copula(v).cross_cov(a, b)],
    }
    functions = [
        ("relative_variation_law", dict(index1=0.2, index2=0.3),
         lambda **kw: _numbers(relative_variation_law(frame, r1, rep2=r2, **kw))),
        ("mutual_relative_covariance", dict(i1=0.2, i2=0.3, j1=0.25, j2=0.2),
         lambda **kw: [mutual_relative_covariance(frame, r1, r1, rep_i2=r2, rep_j2=r2,
                                                  **kw)]),
    ]
    for name, valid, fn in functions:
        for arg in valid:
            table[f"{name}.{arg}"] = (
                lambda v, fn=fn, valid=valid, arg=arg: fn(**dict(valid, **{arg: v})))
    return table


_CONTRACT = _contract_table()


class TestContract:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(_CONTRACT)), _ANY)
    def test_typed_error_or_finite_values(self, mesh, argument, value):
        try:
            with mesh(grid=32, copula_grid=16):
                numbers = _CONTRACT[argument](value)
        except IndexLawError:
            return
        assert all(np.all(np.isfinite(x)) for x in numbers), (argument, value, numbers)

    @pytest.mark.parametrize("rho", [None, "abc", np.array([0.1, 0.2]), np.array([])])
    def test_gaussian_rho_needs_one_number(self, rho):
        with pytest.raises(BadParams):
            GaussianCopula(rho)

    def test_numbers_read_as_named_index_reads_them(self):
        # one rule for the package: what float() reads is a number
        assert GaussianCopula("0.5").rho == 0.5
        assert type(GaussianCopula(np.float64(0.25)).rho) is float

    def test_index_values_need_numbers(self):
        m = LogNormal(0, 1)
        rep = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        frame = BivariateFrame(m, m, IndependenceCopula())
        with pytest.raises(BadParams):
            relative_variation_law(frame, rep, None, 1.0)
        with pytest.raises(BadParams):
            relative_variation_law(frame, rep, 0.3, "abc")
        with pytest.raises(BadParams):
            mutual_relative_covariance(frame, rep, rep, 0.3, None, 0.2, 0.25)

    @pytest.mark.parametrize("base", [1e-100, 1e-200, 5e-324, -1e-170])
    def test_base_index_near_zero(self, base):
        # the delta-method variance (1e-100) or the gradient itself (the
        # others) leaves the float range: a typed error, not an inf variance
        m = LogNormal(0, 1)
        rep = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        frame = BivariateFrame(m, m, IndependenceCopula())
        with pytest.raises(BadParams):
            relative_variation_law(frame, rep, base, 0.3)
        if base != 1e-100:  # there the mixed form is about 1e200, still finite
            with pytest.raises(BadParams):
                mutual_relative_covariance(frame, rep, rep, 0.3, 0.3, base, 0.3)
