"""Two-period frame: copula models, joint laws, variations."""

import gc
import itertools
import math
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexlaw import temporal, ugrid
from indexlaw.decomposition import SubgroupPartition, gap_inference, gap_variance
from indexlaw.distributions import (EmpiricalDistribution, Exponential, LogNormal,
                                    Mixture, Normal, Pareto, Uniform, normal_quantile)
from indexlaw.empirical import build_sample, ecdf, fep
from indexlaw.errors import (BadLevel, BadParams, BadThreshold, BadWeights, EmptySample,
                             IndexLawError, NonFiniteMoment, NonFiniteValue, OutOfRange,
                             TooFewPairs, ZeroBaseIndex)
from indexlaw.indices import NamedIndex, named_estimate, named_representation
from indexlaw.montecarlo import (coverage_experiment, cre2_diagnostic,
                                 decomposability_experiment, draw, ks_pvalue, ks_statistic,
                                 normality_experiment)
from indexlaw.representation import (IndexRepresentation, _period, _scorer, compose_ratio,
                                     confidence_interval, index_cross_covariance,
                                     index_variance)
from indexlaw.rng import stream_seed, uniforms
from indexlaw.temporal import (BivariateFrame, ComonotoneCopula, EmpiricalCopula,
                               GaussianCopula, IndependenceCopula, MEHLER_ORDER,
                               empirical_copula, mutual_relative_covariance,
                               mutual_variation_covariance, relative_variation_law,
                               temporal_joint_covariance)
from indexlaw.ugrid import (NODES, CellPoly, covariance, gauss_legendre, gauss_nodes, inner,
                            mesh_edges)

one = lambda x: np.ones_like(np.asarray(x, dtype=float))
zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
beta_only = IndexRepresentation(h=zero, q=one, value=lambda m: 0.0)


def _atom(model, rep):
    """The u-function ``h o Q + W`` of one representation under ``model``."""
    return _period(model, [rep]).atoms[0]


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
    def test_constant_factor_and_cauchy_schwarz(self, cop):
        rng = np.random.default_rng(31)
        if cop == "empirical":
            xy = rng.normal(size=(200, 2))
            cop = empirical_copula(xy @ np.array([[1.0, 0.7], [0.0, 1.0]]))
        const = CellPoly.from_cells(np.full(50, 3.7))
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
        phi = _atom(sample, named_representation(sample, index))
        psi = _atom(margin, named_representation(margin, index))
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
        parametric = _atom(LogNormal(0, 1), named_representation(LogNormal(0, 1),
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
            diagonal = temporal_joint_covariance(frame, rep, rep).matrix[0, 0]
            assert diagonal == pytest.approx(index_variance(margin, rep).total, rel=1e-13)

    @pytest.mark.xfail(strict=True, reason="the mesh holds h o Q whole: the tails of a "
                       "polynomial score on an unbounded margin are lost (4.06% low)")
    def test_diagonal_is_index_variance_polynomial_unbounded(self):
        margin = LogNormal(0, 1)
        rep = named_representation(margin, NamedIndex.central_moment(3))
        diagonal = temporal_joint_covariance(BivariateFrame(margin, margin, GaussianCopula(0.3)),
                                             rep, rep).matrix[0, 0]
        assert diagonal == pytest.approx(index_variance(margin, rep).total, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_gaussian_cross_entry_isserlis(self, rho):
        # Cov((X - mu)^2, (Y - mu)^2) = 2 rho^2 sigma^4 for a bivariate normal
        margin = Normal(2, 1)
        rep = named_representation(margin, NamedIndex.central_moment(2))
        j = temporal_joint_covariance(BivariateFrame(margin, margin, GaussianCopula(rho)),
                                      rep, rep)
        assert j.cross == pytest.approx(2.0 * rho ** 2, rel=1e-9)

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_lognormal_cross_entry_closed_form(self, rho):
        # Cov((X - m1)^2, (Y - m2)^2) for X = exp(Z1), Y = 1.1 exp(Z2) from
        # E X^a Y^b = exp(a mu1 + b mu2 + (a^2 + b^2 + 2 a b rho) / 2); the
        # mesh ends 2^-40 short of 1 and so drops 2.4e-6 (rho 0.5) and
        # 6.1e-5 (rho 0.9) of it
        mu = (0.0, math.log(1.1))
        moment = lambda a, b: math.exp(a * mu[0] + b * mu[1]
                                       + (a * a + b * b + 2 * a * b * rho) / 2)
        cov = lambda a, b: moment(a, b) - moment(a, 0) * moment(0, b)
        m1, m2 = moment(1, 0), moment(0, 1)
        want = cov(2, 2) - 2 * m2 * cov(2, 1) - 2 * m1 * cov(1, 2) + 4 * m1 * m2 * cov(1, 1)
        margins = LogNormal(mu[0], 1.0), LogNormal(mu[1], 1.0)
        reps = [named_representation(m, NamedIndex.central_moment(2)) for m in margins]
        j = temporal_joint_covariance(BivariateFrame(*margins, GaussianCopula(rho)), *reps)
        assert j.cross == pytest.approx(want, rel=1e-4)

    @pytest.mark.parametrize("margin", [LogNormal(0, 1), EmpiricalDistribution(
        np.random.default_rng(5).lognormal(size=300))], ids=["lognormal", "sample"])
    @pytest.mark.parametrize("index", [NamedIndex.fgt(0.0, 1.0), NamedIndex.fgt(1.0, 1.0),
                                       NamedIndex.central_moment(3)], ids=lambda ix: ix.label())
    def test_zero_weight_is_no_weight(self, margin, index):
        # q = 0 at every node and q = None give one variance and, on a sample,
        # one joint law; on a mesh the zero tail raises the cell degree, and
        # with it the Gauss rule of the within-period block
        rep = named_representation(margin, index)
        assert rep.q is None
        zq = IndexRepresentation(h=rep.h, q=zero, value=rep.value, breaks=rep.breaks,
                                 poly=rep.poly)
        assert index_variance(margin, zq) == index_variance(margin, rep)
        for cop in (GaussianCopula(0.5), ComonotoneCopula()):
            frame = BivariateFrame(margin, margin, cop)
            got = temporal_joint_covariance(frame, zq, zq).matrix
            want = temporal_joint_covariance(frame, rep, rep).matrix
            if margin.kind == "empirical":
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_independence_beta_cross_is_zero(self):
        frame = BivariateFrame(Uniform(0, 1), Uniform(0, 1), IndependenceCopula())
        j = temporal_joint_covariance(frame, beta_only, beta_only)
        assert j.cross == 0.0

    def test_comonotone_beta_pair(self):
        frame = BivariateFrame(Uniform(0, 1), Uniform(0, 1), ComonotoneCopula())
        j = temporal_joint_covariance(frame, beta_only, beta_only)
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
            j = temporal_joint_covariance(BivariateFrame(margin, margin, ComonotoneCopula()),
                                          rep, rep)
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
        j = relative_variation_law(BivariateFrame(m, m, ComonotoneCopula()), rep, 0.3, 0.3, rep)
        assert j.rel_var == pytest.approx(0.0, abs=1e-10)

    def test_independent_equal_periods(self):
        m = LogNormal(0, 1)
        rep = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        v = index_variance(m, rep).total
        j = relative_variation_law(BivariateFrame(m, m, IndependenceCopula()), rep, 1.0, 1.0,
                                   rep)
        assert j.rel_var == pytest.approx(2 * j.matrix[0, 0], rel=1e-12)
        assert j.matrix[0, 0] == pytest.approx(v, rel=1e-4)
        assert j.gamma4 == 1.0 and j.gamma5 == 0.0

    def test_scaling(self):
        # scaling the index statistics by c scales rel_var by the gradient
        m = LogNormal(0, 1)
        rep = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        base = relative_variation_law(BivariateFrame(m, m, IndependenceCopula()),
                                      rep, 1.0, 1.5, rep)
        crep = IndexRepresentation(h=lambda x: 2.0 * rep.h(x), q=None,
                                   value=rep.value, breaks=rep.breaks)
        scaled = relative_variation_law(BivariateFrame(m, m, IndependenceCopula()),
                                        crep, 1.0, 1.5, crep)
        assert scaled.rel_var == pytest.approx(4 * base.rel_var, rel=1e-12)

    def test_zero_base(self):
        m = Uniform(0, 1)
        rep = named_representation(m, NamedIndex.fgt(0.0, 0.5))
        with pytest.raises(ZeroBaseIndex):
            relative_variation_law(BivariateFrame(m, m, IndependenceCopula()), rep, 0.0, 0.1,
                                   rep)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_index(self, bad):
        m = LogNormal(0, 1)
        rep = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        frame = BivariateFrame(m, m, IndependenceCopula())
        for index1, index2 in ((bad, 0.3), (0.3, bad)):
            with pytest.raises(BadParams):
                relative_variation_law(frame, rep, index1, index2, rep)
        for at in range(4):
            values = [0.3, 0.35, 0.2, 0.25]
            values[at] = bad
            with pytest.raises(BadParams):
                mutual_relative_covariance(frame, rep, rep, *values, rep, rep)


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
        repc = IndexRepresentation(h=one, q=None, value=lambda m: 1.0)
        jm = mutual_variation_covariance(frame, rep, repc, rep, repc)
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
            with mesh(grid=512):
                jm = mutual_variation_covariance(frame, rep_i, rep_j, rep_i, rep_j2)
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
            mutual_relative_covariance(frame, rep, rep, 0.0, 1.0, 1.0, 1.0, rep, rep)

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
        phi = [_atom(m, r) for m, r in zip((m1, m2, m1, m2), reps)]
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
        atoms = [_atom(m, rep) for rep in reps]
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
        hm = _scorer(m)(rep.h)
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


class TestMehlerSeries:
    """The Gaussian copula as ``sum_k rho^k a_k b_k`` over the atoms' Hermite
    spectra, against closed forms and under changes of mesh and order."""

    _IDX = (NamedIndex.sen(1.0), NamedIndex.fgt(1.0, 1.0))

    @pytest.mark.parametrize("margins, z", [
        ((Normal(2, 1), Normal(2.2, 1.1)), 1.5),
        ((LogNormal(0, 1), LogNormal(math.log(1.1), 1)), 1.0),
    ], ids=["normal", "lognormal"])
    @pytest.mark.parametrize("rho", [-0.9, 0.3, 0.5, 0.9, 0.99])
    def test_fgt0_cross_entry_is_the_bivariate_normal(self, margins, z, rho):
        # Cov(1{X <= z}, 1{Y <= z}) = Phi2(a, b; rho) - Phi(a) Phi(b) with
        # a, b the normal scores of F1(z), F2(z)
        stats = pytest.importorskip("scipy.stats")
        a, b = (float(stats.norm.ppf(float(m.cdf(z)))) for m in margins)
        want = (stats.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]]).cdf([a, b])
                - stats.norm.cdf(a) * stats.norm.cdf(b))
        reps = [named_representation(m, NamedIndex.fgt(0.0, z)) for m in margins]
        j = temporal_joint_covariance(BivariateFrame(*margins, GaussianCopula(rho)), *reps)
        assert abs(j.cross - want) <= 1e-12

    @pytest.mark.parametrize("n", [3, 2000, 50000])
    @pytest.mark.parametrize("rho", [-0.9, 0.5, 0.99])
    def test_fgt0_on_samples_is_the_bivariate_normal(self, n, rho):
        # on sample margins the atom jumps at F_n(z) = k / n, a sample cell
        # edge that need not be one of the spectrum's mesh
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(n)
        xs = ((np.array([0.5, 1.5, 3.0]), np.array([0.2, 0.7, 1.2])) if n == 3
              else (rng.lognormal(size=n), rng.lognormal(0.1, 0.9, size=n)))
        margins = [EmpiricalDistribution(x) for x in xs]
        p = [float(np.mean(x <= 1.0)) for x in xs]
        a, b = (float(stats.norm.ppf(q)) for q in p)
        want = (stats.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]]).cdf([a, b])
                - p[0] * p[1])
        reps = [named_representation(m, NamedIndex.fgt(0.0, 1.0)) for m in margins]
        j = temporal_joint_covariance(BivariateFrame(*margins, GaussianCopula(rho)), *reps)
        assert abs(j.cross - want) <= 1e-12

    def test_sample_spectra_cost_one_pass_over_the_sample(self):
        # the sample's atoms are projected once on the mesh, and the series
        # runs there: 3,656 orders on 100,000-value margins in a bounded time
        rng = np.random.default_rng(5)
        m1, m2 = (EmpiricalDistribution(rng.lognormal(size=100_000)) for _ in range(2))
        reps = [named_representation(m, ix) for m in (m1, m2) for ix in self._IDX]
        start = time.perf_counter()
        matrix = mutual_variation_covariance(BivariateFrame(m1, m2, GaussianCopula(0.99)),
                                             *reps).matrix
        assert time.perf_counter() - start < 2.0
        assert np.array_equal(matrix, matrix.T) and np.linalg.eigvalsh(matrix).min() >= -1e-9

    @pytest.mark.parametrize("rho", [-0.9, 0.5, 0.9])
    def test_cross_entries_hold_on_a_doubled_mesh(self, mesh, rho):
        got = []
        for cells in (ugrid.DEFAULT_GRID, 2 * ugrid.DEFAULT_GRID):
            with mesh(grid=cells):
                m1, m2 = LogNormal(0, 1), LogNormal(0.1, 0.9)
                reps = [named_representation(m, ix) for m in (m1, m2) for ix in self._IDX]
                matrix = mutual_variation_covariance(
                    BivariateFrame(m1, m2, GaussianCopula(rho)), *reps).matrix
            # (I*_1, I*_2, J*_1, J*_2): the entries across periods
            got.append(matrix[np.ix_([0, 2], [1, 3])])
        assert np.all(np.abs(got[1] - got[0]) < 1e-10 * np.abs(got[0]))

    @pytest.mark.parametrize("rho", [1.0 - 2.0 ** -52, -(1.0 - 2.0 ** -52)], ids=["+", "-"])
    def test_rho_next_to_one(self, rho):
        # the order stops at MEHLER_ORDER: a finite, symmetric, PSD law in
        # a bounded time
        start = time.perf_counter()
        m1, m2 = LogNormal(0, 1), LogNormal(0.1, 0.9)
        reps = [named_representation(m, ix) for m in (m1, m2) for ix in self._IDX]
        matrix = mutual_variation_covariance(BivariateFrame(m1, m2, GaussianCopula(rho)),
                                             *reps).matrix
        assert time.perf_counter() - start < 1.0
        assert temporal._mehler_order(rho) == MEHLER_ORDER
        assert np.all(np.isfinite(matrix)) and np.array_equal(matrix, matrix.T)
        assert np.linalg.eigvalsh(matrix).min() >= -1e-9

    @pytest.mark.parametrize("rho, order", [(0.0, 0), (-0.0, 0), (2.0 ** -53, 0), (0.5, 52),
                                            (-0.5, 52), (0.9, 348), (0.991, 4063)])
    def test_order_rule(self, rho, order):
        # the smallest K with |rho|^(K+1) <= 2^-53
        assert temporal._mehler_order(rho) == order
        if order:
            assert abs(rho) ** (order + 1) <= 2.0 ** -53 < abs(rho) ** order


def _random_pairs_copula():
    xy = np.random.default_rng(41).normal(size=(300, 2))
    return empirical_copula(xy @ np.array([[1.0, 0.4], [0.0, 1.0]]))


class TestOneBilinearCall:
    @pytest.mark.parametrize("cop", [
        IndependenceCopula(), ComonotoneCopula(), GaussianCopula(-0.9), GaussianCopula(0.0),
        GaussianCopula(0.6), _random_pairs_copula(),
    ], ids=["independence", "comonotone", "gauss-0.9", "gauss0", "gauss0.6", "empirical"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_summed_call_equals_four_brackets(self, cop, seed):
        # the call on the u-functions h + W equals the four score/weight
        # brackets, so one atom per period carries the whole covariance;
        # at rho = 0 every bracket and the call are exactly 0
        rng = np.random.default_rng(seed)
        step = rng.uniform() < 0.5
        m1, m2 = (int(m) for m in rng.integers(20, 90, size=2))
        for b_cells in (m1, m2):  # equal and (usually) unequal grids across periods
            a, b = _random_score_weight(rng, m1, step), _random_score_weight(rng, b_cells, step)
            brackets = [cop.cross_cov(p, q) for p in a for q in b]
            got = cop.cross_cov(a[0] + a[1], b[0] + b[1])
            scale = sum(abs(x) for x in brackets)
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
    """The Gaussian copula's parameter, and its work per margin: one Hermite
    spectrum of each atom, kept while the atom lives."""

    def _reps(self, frame):
        idx = (NamedIndex.sen(1.0), NamedIndex.fgt(1.0, 1.0))
        return ([named_representation(frame.margin1, ix) for ix in idx]
                + [named_representation(frame.margin2, ix) for ix in idx])

    @staticmethod
    def _count(monkeypatch):
        # atoms through the Hermite recurrence, atoms projected on its mesh,
        # and cross blocks
        calls = {"spectra": 0, "projections": 0, "cross_cov": 0}
        hermite, project = temporal._hermite, temporal._centred_projection
        cross_cov = GaussianCopula.cross_cov

        def counted_hermite(atoms, order):
            calls["spectra"] += len(atoms)
            return hermite(atoms, order)

        def counted_project(phi, edges):
            calls["projections"] += 1
            return project(phi, edges)

        def counted_cross_cov(self, phi, psi):
            calls["cross_cov"] += 1
            return cross_cov(self, phi, psi)

        monkeypatch.setattr(temporal, "_hermite", counted_hermite)
        monkeypatch.setattr(temporal, "_centred_projection", counted_project)
        monkeypatch.setattr(GaussianCopula, "cross_cov", counted_cross_cov)
        return calls

    def test_one_density_per_joint_law(self, monkeypatch):
        # the copula enters a joint law once: one cross block of the 2 x 2
        # period-crossing entries, and one projection and spectrum of each
        # of the 4 atoms
        calls = self._count(monkeypatch)
        frame = BivariateFrame(LogNormal(0, 1), LogNormal(0.1, 0.9), GaussianCopula(0.4))
        r = self._reps(frame)
        mutual_variation_covariance(frame, r[0], r[1], r[2], r[3])
        assert calls == {"spectra": 4, "projections": 4, "cross_cov": 1}

    def test_one_spectrum_per_margin(self, monkeypatch):
        # a sweep of 7 rho led by its largest |rho|: each atom's spectrum is
        # taken once, and each rho is one cross block with the bits of fresh
        # margins; a larger |rho| takes the spectra again, to its order
        calls = self._count(monkeypatch)
        m1, m2 = LogNormal(0, 1), LogNormal(0.1, 0.9)
        r = self._reps(BivariateFrame(m1, m2, IndependenceCopula()))
        sweep = [-0.9, 0.0, 0.3, -0.5, 0.6, -0.75, 0.9]
        got = [mutual_variation_covariance(BivariateFrame(m1, m2, GaussianCopula(rho)),
                                           *r).matrix for rho in sweep]
        assert calls == {"spectra": 4, "projections": 4, "cross_cov": 7}
        mutual_variation_covariance(BivariateFrame(m1, m2, GaussianCopula(0.95)), *r)
        assert calls == {"spectra": 8, "projections": 8, "cross_cov": 8}
        for rho, matrix in zip(sweep, got):
            frame = BivariateFrame(LogNormal(0, 1), LogNormal(0.1, 0.9), GaussianCopula(rho))
            assert np.array_equal(matrix, mutual_variation_covariance(
                frame, *self._reps(frame)).matrix)

    def test_spectra_live_with_their_atoms(self):
        # only the coefficients are kept, and they go with the margin
        m1, m2 = LogNormal(0, 1), LogNormal(0.1, 0.9)
        r = self._reps(BivariateFrame(m1, m2, IndependenceCopula()))
        mutual_variation_covariance(BivariateFrame(m1, m2, GaussianCopula(0.9)), *r)
        atoms = [a for m in (m1, m2) for a in m._periods[0].atoms]
        assert [temporal._SPECTRA[a][1].shape for a in atoms] == [(348,)] * 4
        refs = [weakref.ref(a) for a in atoms]
        del m1, m2, r, atoms
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4

    @pytest.mark.parametrize("bad", [0.9, 1.0, math.nan, 1.5])
    def test_assigned_rho_is_checked(self, bad):
        # rho is read-only: any assignment is refused and leaves it as built
        cop = GaussianCopula(0.4)
        with pytest.raises(AttributeError):
            cop.rho = bad
        assert cop.rho == 0.4

    def test_string_rho_reads_as_the_float(self):
        cop = GaussianCopula("0.2")
        assert cop.rho == 0.2 and type(cop.rho) is float


class TestPeriodMemo:
    """Each margin keeps the u-functions of its last period and their
    within-period block; only the copula's cross block is new per call.
    Representations depend on the mesh size, so each test builds its own
    inside one ``mesh`` block."""

    _IDX = (NamedIndex.sen(1.0), NamedIndex.fgt(1.0, 1.0))

    @staticmethod
    def _margins():
        return LogNormal(0, 1), LogNormal(0.1, 0.9)

    def _reps(self, m1, m2):
        return [named_representation(m, ix) for m in (m1, m2) for ix in self._IDX]

    def _fresh(self, copula):
        """The joint law of fresh margins and representations."""
        m1, m2 = self._margins()
        return mutual_variation_covariance(BivariateFrame(m1, m2, copula),
                                           *self._reps(m1, m2)).matrix

    def test_rho_sweep_is_fresh_bits(self, mesh):
        with mesh(grid=64):
            m1, m2 = self._margins()
            r = self._reps(m1, m2)
            for cop in [GaussianCopula(rho) for rho in np.linspace(-0.9, 0.9, 7)] + [
                    ComonotoneCopula(), IndependenceCopula()]:
                got = mutual_variation_covariance(BivariateFrame(m1, m2, cop), *r).matrix
                assert np.array_equal(got, self._fresh(cop))

    def test_hit_builds_no_mesh_and_no_block(self, monkeypatch, mesh):
        from indexlaw import representation
        calls = {"mesh": 0, "covariances": 0}
        mesh_of, covariances_of = LogNormal.mesh, representation.covariances

        def counted_mesh(self, *args):
            calls["mesh"] += 1
            return mesh_of(self, *args)

        def counted_covariances(*args):
            calls["covariances"] += 1
            return covariances_of(*args)

        with mesh(grid=64):
            m1, m2 = self._margins()
            r = self._reps(m1, m2)
            monkeypatch.setattr(LogNormal, "mesh", counted_mesh)
            monkeypatch.setattr(representation, "covariances", counted_covariances)
            for rho in (0.2, -0.5, 0.7):
                mutual_variation_covariance(BivariateFrame(m1, m2, GaussianCopula(rho)), *r)
        assert calls == {"mesh": 2, "covariances": 2}

    def test_alternating_rep_tuples(self, mesh):
        cop = GaussianCopula(0.6)
        with mesh(grid=64):
            m1, m2 = self._margins()
            r = self._reps(m1, m2)
            frame = BivariateFrame(m1, m2, cop)
            want_mutual = self._fresh(cop)
            a, b = self._margins()
            want_single = temporal_joint_covariance(
                BivariateFrame(a, b, cop), *self._reps(a, b)[::2]).matrix
            for _ in range(3):
                assert np.array_equal(
                    mutual_variation_covariance(frame, *r).matrix, want_mutual)
                assert np.array_equal(
                    temporal_joint_covariance(frame, r[0], r[2]).matrix, want_single)

    @pytest.mark.parametrize("cop", [GaussianCopula(0.5), ComonotoneCopula()],
                             ids=["gauss", "comonotone"])
    def test_one_margin_in_both_periods(self, cop, mesh):
        with mesh(grid=64):
            m = LogNormal(0, 1)
            rep, rep2 = (named_representation(m, ix) for ix in self._IDX)
            frame = BivariateFrame(m, m, cop)
            for second in (rep, rep2, rep):
                a, b = LogNormal(0, 1), LogNormal(0, 1)
                first = named_representation(a, self._IDX[0])
                want = temporal_joint_covariance(
                    BivariateFrame(a, b, cop), first,
                    first if second is rep else named_representation(b, self._IDX[1])).matrix
                assert np.array_equal(temporal_joint_covariance(frame, rep, second).matrix, want)
            a, b = LogNormal(0, 1), LogNormal(0, 1)
            want = mutual_variation_covariance(BivariateFrame(a, b, cop), *self._reps(a, b))
            assert np.array_equal(mutual_variation_covariance(frame, rep, rep2, rep, rep2).matrix,
                                  want.matrix)

    def test_one_margin_two_representations_builds_two_periods(self, monkeypatch, mesh):
        # the margin's two slots hold both periods of the joint law
        from indexlaw import representation
        builds = []
        init = representation._Period.__init__

        def counted(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(representation._Period, "__init__", counted)
        with mesh(grid=64):
            m = LogNormal(0, 1)
            rep, rep2 = (named_representation(m, ix) for ix in self._IDX)
            frame = BivariateFrame(m, m, GaussianCopula(0.5))
            for _ in range(3):
                temporal_joint_covariance(frame, rep, rep2)
        assert len(builds) == 2

    def test_mesh_size_change_rebuilds(self, mesh):
        # one model and its representations across a patched mesh size: the
        # second call is that of fresh margins at the patched size
        cop = GaussianCopula(0.3)
        with mesh(grid=64):
            m1, m2 = self._margins()
            r = self._reps(m1, m2)
            before = mutual_variation_covariance(BivariateFrame(m1, m2, cop), *r).matrix
        with mesh(grid=96):
            got = mutual_variation_covariance(BivariateFrame(m1, m2, cop), *r).matrix
            want = mutual_variation_covariance(BivariateFrame(*self._margins(), cop), *r).matrix
        assert np.array_equal(got, want)
        assert not np.array_equal(got, before)

    def test_margin_freed_with_its_last_reference(self, mesh):
        # the slot holds no reference back to the margin: no cycle to collect
        with mesh(grid=32):
            m1, m2 = self._margins()
            r = self._reps(m1, m2)
            mutual_variation_covariance(BivariateFrame(m1, m2, GaussianCopula(0.5)), *r)
        refs = weakref.ref(m1), weakref.ref(m2)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del m1, m2, r
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("model", [LogNormal(0, 1), EmpiricalDistribution([0.5, 1.5, 3.0])],
                             ids=["lognormal", "sample"])
    def test_atoms_are_read_only(self, model, mesh):
        with mesh(grid=32):
            rep = named_representation(model, NamedIndex.sen(1.0))
            atom = _atom(model, rep)
            assert _atom(model, rep).coef is atom.coef
        with pytest.raises(ValueError):
            atom.coef[0, 0] = 1.0


class TestPointSymmetricDensity:
    """The Gaussian copula's density is point-symmetric, ``c(1-u, 1-v) =
    c(u, v)``, as the normal scores are: ``Phi^-1(1-p) = -Phi^-1(p)``."""

    @pytest.mark.parametrize("size", [16, 128, 512, 4096])
    def test_dyadic_quantiles_are_as241(self, size):
        # at dyadic sizes AS241 is itself antisymmetric on the midpoints
        z = normal_quantile((np.arange(size) + 0.5) / size)
        assert np.array_equal(z, -z[::-1])

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.45, 0.9])
    @pytest.mark.parametrize("cells", [16, 73])
    def test_reflected_atoms_keep_the_cross_entry(self, rho, cells):
        # phi(1-u) against psi(1-v) reads the same as phi against psi
        rng = np.random.default_rng(cells)
        phi, psi = rng.normal(size=cells), rng.normal(size=cells)
        cop = GaussianCopula(rho)
        want = cop.cross_cov(CellPoly.from_cells(phi), CellPoly.from_cells(psi))
        got = cop.cross_cov(CellPoly.from_cells(phi[::-1]), CellPoly.from_cells(psi[::-1]))
        bound = math.sqrt(np.var(phi) * np.var(psi))
        assert abs(got - want) <= 1e-12 * bound


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
            with mesh(grid=32):
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
            relative_variation_law(frame, rep, None, 1.0, rep)
        with pytest.raises(BadParams):
            relative_variation_law(frame, rep, 0.3, "abc", rep)
        with pytest.raises(BadParams):
            mutual_relative_covariance(frame, rep, rep, 0.3, None, 0.2, 0.25, rep, rep)

    @pytest.mark.parametrize("base", [1e-100, 1e-200, 5e-324, -1e-170])
    def test_base_index_near_zero(self, base):
        # the delta-method variance (1e-100) or the gradient itself (the
        # others) leaves the float range: a typed error, not an inf variance
        m = LogNormal(0, 1)
        rep = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        frame = BivariateFrame(m, m, IndependenceCopula())
        with pytest.raises(BadParams):
            relative_variation_law(frame, rep, base, 0.3, rep)
        if base != 1e-100:  # there the mixed form is about 1e200, still finite
            with pytest.raises(BadParams):
                mutual_relative_covariance(frame, rep, rep, 0.3, 0.3, base, 0.3, rep, rep)


def _sweep_table():
    """``{argument: call}`` like ``_contract_table``, for the numeric
    arguments of the partition, gap-variance, sample-quantile, KS,
    confidence-interval, ratio and fep functions, the Monte Carlo seeds and
    the family and copula constructors."""
    groups = [Uniform(0, 1), Uniform(0, 1.25)]
    sample = EmpiricalDistribution([0.4, 1.0, 2.5, 3.0])
    partition = SubgroupPartition.from_labels([1, 2, 1, 2])

    def inference(v):
        result = gap_inference(sample.sample, partition, NamedIndex.sen(1.5), level=v)
        return [result.ci_gd, result.ci_gd0]

    def gap(v):
        dec = gap_variance(v, groups, NamedIndex.sen(0.5))
        return [dec.gap_value, dec.L, dec.M, dec.theta1_sq, dec.theta2_sq, dec.theta3_sq]

    def experiment(v):
        report = decomposability_experiment(groups, v, NamedIndex.sen(0.5), 20, 2, 1)
        return [report.replicate_values, report.extra["variance"]]

    def mixture(v):
        mix = Mixture(v, groups)
        return [mix.weights, mix.quantile(0.5)]

    def frame(position):
        def call(v):
            parts = [groups[0], groups[0], IndependenceCopula()]
            parts[position] = v
            joint = BivariateFrame(*parts)
            fgt = named_representation(groups[0], NamedIndex.fgt(1.0, 0.5))
            return [temporal_joint_covariance(joint, fgt, fgt).matrix]
        return call

    def family(cls, param):
        def call(v):
            model = cls(**{param: v})
            return [model.raw_moment(1), model.central_moment(2)]
        return call

    families = {f"{cls.__name__}.{param}": family(cls, param)
                for cls, params in ((Uniform, "ab"), (Normal, ("mu", "sigma")),
                                    (LogNormal, ("mu", "sigma")), (Exponential, ("rate",)),
                                    (Pareto, ("xm", "a")))
                for param in params}
    return families | {
        "SubgroupPartition.from_labels": lambda v: [SubgroupPartition.from_labels(v).labels],
        "gap_variance.weights": gap,
        "decomposability_experiment.weights": experiment,
        "Mixture.weights": mixture,
        "BivariateFrame.margin1": frame(0),
        "BivariateFrame.margin2": frame(1),
        "BivariateFrame.copula": frame(2),
        "DistributionModel.quantile": lambda v: [LogNormal(0, 1).quantile(v)],
        "EmpiricalDistribution.quantile": lambda v: [sample.quantile(v)],
        "ks_pvalue.stat": lambda v: [ks_pvalue(v, 10)],
        "ks_pvalue.n": lambda v: [ks_pvalue(0.1, v)],
        # the quantile is -inf at 0 and +inf at 1 by definition; tanh keeps a nan
        "normal_quantile": lambda v: [np.tanh(normal_quantile(v))],
        "ecdf": lambda v: [ecdf(sample.sample, v)],
        "ks_statistic": lambda v: [ks_statistic(v)],
        "NamedIndex.fgt.poverty_line": lambda v: [
            named_estimate(sample.sample, NamedIndex.fgt(1.0, v))],
        "NamedIndex.fgt.alpha": lambda v: [named_estimate(sample.sample, NamedIndex.fgt(v, 1.0))],
        "confidence_interval.estimate": lambda v: [confidence_interval(v, 1.0, 10)],
        "confidence_interval.variance": lambda v: [confidence_interval(0.5, v, 10)],
        "confidence_interval.n": lambda v: [confidence_interval(0.5, 1.0, v)],
        "confidence_interval.level": lambda v: [confidence_interval(0.5, 1.0, 10, v)],
        "coverage_experiment.level": lambda v: [
            coverage_experiment(Uniform(0, 1), NamedIndex.sen(0.5), 20, 2, v, 1).coverage],
        "gap_inference.level": inference,
        "fep.mean_f": lambda v: [fep(sample.sample, np.sqrt, v)],
        "compose_ratio.den_value": lambda v: [
            compose_ratio(beta_only, beta_only, 1.0, v).q(sample.sample.values)],
        "EmpiricalCopula": lambda v: [EmpiricalCopula(v, v).u_ranks],
    } | {f"{name}.seed": run for name, run in _seeded().items()}


def _seeded():
    """``{function: call}``: each call runs a seeded function of the Monte
    Carlo harness on a small configuration and returns the numbers it drew."""
    model, sen = Uniform(0, 1), NamedIndex.sen(0.5)
    groups = [model, Uniform(0, 1.25)]
    return {
        "draw": lambda seed: [draw(model, 3, seed).values],
        "normality_experiment": lambda seed: [
            normality_experiment(model, sen, 20, 2, seed).replicate_values],
        "coverage_experiment": lambda seed: [
            coverage_experiment(model, sen, 20, 2, 0.9, seed).replicate_values],
        "cre2_diagnostic": lambda seed: [cre2_diagnostic(model, np.sqrt, [10], 2, seed)],
        "decomposability_experiment": lambda seed: [
            decomposability_experiment(groups, [0.5, 0.5], sen, 20, 2, seed).replicate_values],
    }


_SWEEP = _sweep_table()


class TestContractSweep:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(_SWEEP)), _ANY)
    def test_typed_error_or_finite_values(self, mesh, argument, value):
        try:
            with mesh(grid=32):
                numbers = _SWEEP[argument](value)
        except IndexLawError:
            return
        assert all(np.all(np.isfinite(x)) for x in numbers), (argument, value, numbers)

    @pytest.mark.parametrize("call, error", [
        (lambda: normal_quantile(math.nan), OutOfRange),
        (lambda: normal_quantile(np.array([0.5, math.nan])), OutOfRange),
        (lambda: ecdf(EmpiricalDistribution([1.0, 2.0]).sample, "x"), OutOfRange),
        (lambda: ks_statistic([]), EmptySample),
        (lambda: ks_statistic([math.nan]), NonFiniteValue),
        (lambda: NamedIndex.fgt(math.nan, 1.5), BadThreshold),
        (lambda: NamedIndex.fgt(1.0, math.inf), BadThreshold),
        (lambda: ecdf(EmpiricalDistribution([1.0, 2.0]).sample, math.nan), OutOfRange),
        (lambda: EmpiricalDistribution([1.0, 2.0]).cdf(np.array([1.5, math.nan])), OutOfRange),
        (lambda: confidence_interval(0.5, math.nan, 10), OutOfRange),
        (lambda: confidence_interval(math.nan, 1.0, 10), OutOfRange),
        (lambda: confidence_interval(0.5, 1.0, 2.5), BadParams),
        (lambda: confidence_interval(0.5, 1.0, True), BadParams),
        (lambda: confidence_interval(0.5, 1.0, 10 ** 400), BadParams),
        (lambda: fep(EmpiricalDistribution([1.0, 2.0]).sample, np.sqrt, "a"), OutOfRange),
        (lambda: fep(EmpiricalDistribution([1.0, 2.0]).sample, np.sqrt, math.nan), OutOfRange),
        (lambda: fep(EmpiricalDistribution([1.0, 2.0]).sample, np.sqrt, -1.7e308), OutOfRange),
        (lambda: compose_ratio(beta_only, beta_only, 1.0, math.nan), OutOfRange),
        (lambda: compose_ratio(beta_only, beta_only, 1.0, "x"), OutOfRange),
        (lambda: compose_ratio(beta_only, beta_only, 1.0, 1e-200), OutOfRange),
        (lambda: EmpiricalCopula("a", "b"), OutOfRange),
        (lambda: Uniform(-1e308, 1e308), BadParams),
        (lambda: named_estimate(build_sample([1e200, -1e200, 3.0]),
                                NamedIndex.central_moment(2)), NonFiniteMoment),
        (lambda: named_estimate(build_sample([1e200, -1e200, 3.0]),
                                NamedIndex.odd_normalized(2)), NonFiniteMoment),
        (lambda: named_estimate(build_sample([1e200, -1e200, 3.0]),
                                NamedIndex.even_normalized(2)), NonFiniteMoment),
        (lambda: confidence_interval(0.5, 1.0, 10, "abc"), BadLevel),
        (lambda: confidence_interval(0.5, 1.0, 10, None), BadLevel),
        (lambda: coverage_experiment(Uniform(0, 1), NamedIndex.sen(0.5), 20, 2, "abc", 1),
         BadLevel),
        (lambda: gap_inference(build_sample([0.4, 1.0, 2.5, 3.0]),
                               SubgroupPartition.from_labels([1, 2, 1, 2]),
                               NamedIndex.sen(1.5), level=None), BadLevel),
        (lambda: BivariateFrame(1, 2, 3), BadParams),
        (lambda: BivariateFrame(LogNormal(0, 1), "x", IndependenceCopula()), BadParams),
        (lambda: BivariateFrame(LogNormal(0, 1), LogNormal(0, 1), 0.5), BadParams),
    ], ids=["normal-quantile-nan", "normal-quantile-nan-in-array", "ecdf-string",
            "ks-empty", "ks-nan", "fgt-alpha-nan", "fgt-line-inf", "ecdf-nan",
            "sample-cdf-nan-in-array", "ci-variance-nan", "ci-estimate-nan", "ci-n-fraction",
            "ci-n-bool", "ci-n-beyond-float", "fep-mean-text", "fep-mean-nan",
            "fep-value-beyond-float", "ratio-denominator-nan", "ratio-denominator-text",
            "ratio-weight-beyond-float", "copula-text-ranks", "uniform-width-beyond-float",
            "sample-moment-beyond-float", "sample-odd-moment-beyond-float",
            "sample-even-moment-beyond-float", "ci-level-text", "ci-level-none",
            "coverage-level-text", "gap-inference-level-none", "frame-numbers",
            "frame-text-margin", "frame-number-copula"])
    def test_typed_error(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("seed", ["7", math.nan, 7.0, True],
                             ids=["text", "nan", "float", "bool"])
    @pytest.mark.parametrize("name", sorted(_seeded()))
    def test_seed_must_be_an_integer(self, name, seed):
        with pytest.raises(BadParams):
            _seeded()[name](seed)

    @pytest.mark.parametrize("name", sorted(_seeded()))
    def test_integer_seed_reads_modulo_2_64(self, name):
        run = _seeded()[name]
        for seed, same in ((5, 5 + 2 ** 64), (-1, 2 ** 64 - 1), (7, np.uint64(7))):
            assert all(np.array_equal(a, b) for a, b in zip(run(seed), run(same)))

    def test_cdf_and_quantile_at_the_float_limit(self):
        # the standardized point leaves the float range; F there is 0 or 1
        assert Normal(0, 0.2).cdf(1e308) == 1.0
        assert Uniform(0, 0.5).cdf(1e308) == 1.0
        assert Uniform(0, 0.5).cdf(-1e308) == 0.0
        assert Normal(0, 1.5e308).quantile_extended(0.9) == math.inf

    @pytest.mark.parametrize("stat, n", [(math.nan, 10), (0.1, -5), (1.5, 10), (-0.1, 10),
                                         (0.1, 0), (0.1, 2.5), ("abc", 10)])
    def test_ks_pvalue_domain(self, stat, n):
        with pytest.raises(IndexLawError):
            ks_pvalue(stat, n)

    @pytest.mark.parametrize("labels", [[[1], [2]], np.zeros((2, 2)), 3, None])
    def test_labels_need_hashable_values(self, labels):
        with pytest.raises(OutOfRange):
            SubgroupPartition.from_labels(labels)

    @pytest.mark.parametrize("weights, groups", [
        ("a", [Uniform(0, 1)]), (1.0, [Uniform(0, 1)]), ([0.5, "x"], [Uniform(0, 1)] * 2)])
    def test_gap_weights_need_one_row_of_numbers(self, weights, groups):
        with pytest.raises(BadWeights):
            gap_variance(weights, groups, NamedIndex.sen(0.5))

    @pytest.mark.parametrize("level", ["abc", [[0.5], [0.5, 0.2]]])
    def test_sample_quantile_levels_need_numbers(self, level):
        with pytest.raises(OutOfRange):
            EmpiricalDistribution([1.0, 2.0]).quantile(level)

    @pytest.mark.parametrize("model", [LogNormal(0, 1), Uniform(0, 1), Normal(0, 1),
                                       Mixture([0.5, 0.5], [Uniform(0, 1), Uniform(0, 2)])],
                             ids=["lognormal", "uniform", "normal", "mixture"])
    @pytest.mark.parametrize("level", ["abc", [[0.1], [0.2, 0.3]], {}])
    def test_parametric_quantile_levels_need_numbers(self, model, level):
        with pytest.raises(OutOfRange):
            model.quantile(level)

    def test_mixture_weights_need_numbers(self):
        with pytest.raises(BadParams):
            Mixture("ab", [Uniform(0, 1), Uniform(0, 1.25)])

    @pytest.mark.parametrize("weights", [[0.5, "x"], "ab", [[0.5, 0.5]], [0.5, 0.6]])
    def test_experiment_weights_are_checked_first(self, weights):
        with pytest.raises(BadWeights):
            decomposability_experiment([Uniform(0, 1), Uniform(0, 1.25)], weights,
                                       NamedIndex.sen(0.5), 20, 2, 1)

    @pytest.mark.parametrize("weights, groups", [
        ([0.5, 0.500004], [Uniform(0, 1), Uniform(0, 1.25)]), ([1.000004], [Uniform(0, 1)])],
        ids=["two-groups", "one-group"])
    def test_one_weights_rule(self, weights, groups):
        # the sum is within numpy's default relative tolerance of 1, but not
        # within the 1e-9 that a mixture of the groups needs
        sen = NamedIndex.sen(0.5)
        with pytest.raises(BadWeights):
            gap_variance(weights, groups, sen)
        with pytest.raises(BadWeights):
            decomposability_experiment(groups, weights, sen, 20, 2, 1)
        with pytest.raises(BadWeights):
            Mixture(weights, groups)
