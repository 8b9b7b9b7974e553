"""Covariance calculus: analytic oracles, bilinearity, the discretized
Gaussian oracle, cross-covariances and interval construction."""

import math

import numpy as np
import pytest

from indexlaw import representation
from indexlaw.distributions import (EmpiricalDistribution, Exponential, LogNormal,
                                    Mixture, Normal, Uniform, normal_quantile)
from indexlaw.errors import BadLevel, NegativeVariance
from indexlaw.indices import NamedIndex, named_representation
from indexlaw.representation import (IndexRepresentation, compose_ratio,
                                     confidence_interval, index_cross_covariance,
                                     index_variance)

ident = lambda x: np.asarray(x, dtype=float)
one = lambda x: np.ones_like(np.asarray(x, dtype=float))
zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))


def _pair(h, q=None, breaks=()):
    """A bare score pair ``(h, q)``; its value functional is never read."""
    return IndexRepresentation(h=h, q=q, value=lambda m: math.nan, breaks=breaks)


def _cov(model, f, g):
    """``Cov(f(X), g(X))``: the cross-covariance of two weightless pairs."""
    return index_cross_covariance(model, _pair(f), _pair(g))


def _bridge(model, q1, q2):
    """``Cov(W1(U), W2(U)) = int int (min(s,t) - s t) q1(Q(s)) q2(Q(t)) ds dt``:
    the cross-covariance of two pairs whose h is 0."""
    return index_cross_covariance(model, _pair(zero, q1), _pair(zero, q2))


class TestScoreCovariance:
    """gamma1, ``Cov(h_i(X), h_j(X))``, of weightless pairs."""

    def test_two_point(self):
        assert index_variance(EmpiricalDistribution([1.0, 3.0]), _pair(ident)).gamma1 == 1.0

    def test_constant_score(self):
        m = EmpiricalDistribution([1.0, 2.0, 7.0])
        assert _cov(m, one, lambda x: x ** 2) == pytest.approx(0.0, abs=1e-12)

    def test_constant_score_is_exactly_zero(self):
        # centred: a constant that is not a power of 2 leaves no round-off
        m = EmpiricalDistribution(np.random.default_rng(8).lognormal(size=400))
        c = lambda x: np.full(np.shape(x), -1.6687)
        assert index_variance(m, _pair(c)).gamma1 == 0.0

    @pytest.mark.parametrize("model", [EmpiricalDistribution([1.0, 2.0, 7.0, 7.5]),
                                       Exponential(1.0)], ids=["empirical", "parametric"])
    def test_one_score_evaluated_once(self, model):
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return np.asarray(x, dtype=float) ** 2

        square = lambda x: np.asarray(x, dtype=float) ** 2
        assert (index_variance(model, _pair(counted)).gamma1
                == index_variance(model, _pair(square)).gamma1)
        assert len(calls) == 1

    def test_bernoulli_half(self):
        f = lambda x: (np.asarray(x) <= 0.5).astype(float)
        assert index_variance(Uniform(0, 1), _pair(f, breaks=(0.5,))).gamma1 == pytest.approx(
            0.25, abs=1e-10)

    def test_parametric_moments(self):
        # Exponential(1): E X = 1, E X^2 = 2, E X^3 = 6, on the mesh
        m = Exponential(1.0)
        assert index_variance(m, _pair(ident)).gamma1 == pytest.approx(1.0, rel=1e-9)
        assert _cov(m, ident, lambda x: x ** 2) == pytest.approx(4.0, rel=1e-9)

    def test_bilinearity(self):
        m = EmpiricalDistribution(np.linspace(0.1, 3.0, 17))
        f = lambda x: np.sin(x)
        g = lambda x: x ** 2
        h = lambda x: np.exp(-x)
        for a, b in [(2.0, -1.5), (0.3, 7.0)]:
            lhs = _cov(m, lambda x: a * f(x) + b * g(x), h)
            rhs = a * _cov(m, f, h) + b * _cov(m, g, h)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestClosedForms:
    """The bridge kernel min(s, t) - s t and its forms 1/12 and -1/12, read
    off the pieces of ``index_variance`` and ``index_cross_covariance``."""

    def test_indicator_cov(self):
        # headcounts on [1, 2, 3, 4] (and 5) at poverty lines of level s and t
        def kernel(x, z1, z2):
            m = EmpiricalDistribution(x)
            return index_cross_covariance(m, named_representation(m, NamedIndex.fgt(0.0, z1)),
                                          named_representation(m, NamedIndex.fgt(0.0, z2)))

        m = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        assert index_variance(m, named_representation(m, NamedIndex.fgt(0.0, 2.5))).gamma1 == 0.25
        assert kernel([1.0, 2.0, 3.0, 4.0], 1.5, 3.5) == 0.0625
        assert kernel([1.0, 2.0, 3.0, 4.0, 5.0], 0.5, 2.5) == pytest.approx(0.0, abs=1e-9)

    def test_indicator_cov_range(self):
        # at the ends of the level range, s = 0 and s = 1, the kernel is 0
        m = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        for z in (0.5, 4.5):
            rep = named_representation(m, NamedIndex.fgt(0.0, z))
            assert index_variance(m, rep).gamma1 == 0.0

    @pytest.mark.parametrize("model", [Uniform(0, 1), LogNormal(0, 1),
                                       EmpiricalDistribution(np.linspace(1, 2, 50))])
    def test_beta_beta_constant_weight(self, model):
        # int int (min - st) ds dt = 1/3 - 1/4 = 1/12 for any F when q = 1
        assert index_variance(model, _pair(zero, one)).gamma2 == pytest.approx(1 / 12, abs=1e-9)

    def test_beta_beta_zero_and_scaling(self):
        m = Uniform(0, 1)
        assert _bridge(m, zero, one) == 0.0
        two = lambda x: 2.0 * one(x)
        assert index_variance(m, _pair(zero, two)).gamma2 == pytest.approx(1 / 3, abs=1e-9)

    def test_beta_cross_uniform_identity(self):
        # int (s^2/2 - s/2) ds = -1/12
        assert index_variance(Uniform(0, 1), _pair(ident, one)).gamma3 == pytest.approx(
            -1 / 12, abs=1e-9)

    def test_beta_cross_trivial(self):
        m = Uniform(0, 1)
        assert index_variance(m, _pair(ident, zero)).gamma3 == 0.0
        assert index_variance(m, _pair(one, lambda x: np.cos(x))).gamma3 == pytest.approx(
            0.0, abs=1e-12)

    def test_beta_forms_bilinear(self):
        m = EmpiricalDistribution(np.linspace(0.0, 1.0, 23))
        q1 = lambda x: np.sin(3 * x)
        q2 = lambda x: x - 0.3
        a, b = 1.7, -0.4
        combo = lambda x: a * q1(x) + b * q2(x)
        lhs = _bridge(m, combo, q2)
        rhs = a * _bridge(m, q1, q2) + b * _bridge(m, q2, q2)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        gamma3 = lambda q: index_variance(m, _pair(ident, q)).gamma3
        assert gamma3(combo) == pytest.approx(a * gamma3(q1) + b * gamma3(q2), rel=1e-10)


def _counting(cls):
    """A subclass of ``cls`` that counts its mesh builds and quantile calls."""

    class Counting(cls):
        grids = 0
        quantiles = 0

        def mesh(self, breaks=()):
            Counting.grids += 1
            return super().mesh(breaks)

        def quantile_extended(self, s):
            Counting.quantiles += 1
            return super().quantile_extended(s)

    return Counting


def _bench_mixture(cls=Mixture):
    return cls((0.5, 0.5), [LogNormal(0.0, 1.0), LogNormal(0.5, 1.0)])


class TestOneQuantileGrid:
    """The score models of one call share one mesh, and one evaluation of
    the quantile on it, per model."""

    def test_index_variance_builds_one_grid(self):
        for model in (_counting(LogNormal)(0.0, 1.0), _bench_mixture(_counting(Mixture))):
            rep = named_representation(model, NamedIndex.sen(1.0))
            type(model).grids = 0
            index_variance(model, rep)
            assert type(model).grids == 1

    def test_mutual_variation_builds_one_grid_per_margin(self):
        from indexlaw.temporal import (BivariateFrame, GaussianCopula,
                                       mutual_variation_covariance)

        cls = _counting(LogNormal)
        m1, m2 = cls(0.0, 1.0), cls(0.1, 0.9)
        sen, fgt = NamedIndex.sen(1.0), NamedIndex.fgt(1.0, 1.0)
        reps = [named_representation(m, ix) for m in (m1, m2) for ix in (sen, fgt)]
        cls.grids = 0
        mutual_variation_covariance(BivariateFrame(m1, m2, GaussianCopula(0.4)), *reps)
        assert cls.grids == 2

    def test_mixture_quantile_once_per_variance(self):
        # the bisection quantile of the mixture runs once, on the whole mesh
        mix = _bench_mixture(_counting(Mixture))
        rep = named_representation(mix, NamedIndex.sen(1.0))
        type(mix).quantiles = 0
        index_variance(mix, rep)
        assert type(mix).quantiles == 1

    def test_mixture_quantile_takes_half_the_cdf_points(self, monkeypatch):
        # the bisection quantile evaluated the mixture cdf at 85,890 points in
        # 58 passes over the mesh's 2,695 levels; Newton steps from the
        # components' widest brackets took 32,280 in 52, and from the brackets
        # of one pass over a grid of component quantiles 23,804 in 52
        sizes = []
        original = Mixture.cdf

        def counted(self, x):
            sizes.append(np.size(x))
            return original(self, x)

        mix = _bench_mixture()
        rep = named_representation(mix, NamedIndex.sen(1.0))
        monkeypatch.setattr(Mixture, "cdf", counted)
        index_variance(mix, rep)
        assert sum(sizes) <= 23_804 and len(sizes) <= 52

    def test_kakwani_constants_take_one_mesh_and_cdf_pass(self, monkeypatch):
        # jk and core share each component's mesh and the mixture cdf at its
        # poor nodes: 1 + 2,345 points, where one pass per integral took
        # 2 meshes per component and 1 + 4,690 points
        cls = _counting(LogNormal)
        mix = Mixture((0.5, 0.5), [cls(0.0, 1.0), cls(0.5, 1.0)])
        sizes = []
        original = Mixture.cdf

        def counted(self, x):
            sizes.append(np.size(x))
            return original(self, x)

        monkeypatch.setattr(Mixture, "cdf", counted)
        named_representation(mix, NamedIndex.sen(1.0))
        assert cls.grids == 2
        assert sizes[0] == 1 and sum(sizes[1:]) == 2_345 and len(sizes) == 3

    @pytest.mark.parametrize("model", [
        EmpiricalDistribution(np.random.default_rng(4).lognormal(size=300)),
        LogNormal(0.0, 1.0), _bench_mixture()], ids=["empirical", "lognormal", "mixture"])
    def test_one_scorer_matches_score_model(self, model, mesh):
        rep = named_representation(model, NamedIndex.sen(1.0))
        with mesh(grid=512):
            score = representation._scorer(model)
            for f in (rep.h, rep.q):
                # one scorer for both scores gives the score models of a fresh one each
                assert np.array_equal(score(f).coef, representation._scorer(model)(f).coef)


@pytest.fixture(scope="module")
def large_lognormal():
    x = np.sort(np.random.default_rng(1).lognormal(size=200_000))
    return x, EmpiricalDistribution(x)


class TestIndexVariance:
    def test_headcount(self):
        rep = named_representation(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5))
        assert index_variance(Uniform(0, 1), rep).total == pytest.approx(0.25, abs=1e-10)

    def test_constant_h(self):
        rep = IndexRepresentation(h=one, q=None, value=lambda m: 1.0)
        cv = index_variance(Uniform(0, 1), rep)
        assert cv.total == pytest.approx(0.0, abs=1e-12)

    def test_absent_weight_is_none(self):
        with pytest.raises(TypeError):
            IndexRepresentation(h=one, q=None, value=lambda m: 1.0, q_zero=True)

    def test_sample_variance_statistic_normal(self):
        # Var((X - m)^2) = mu4 - sigma^4 = 3 - 1 = 2 under N(0, 1)
        rep = named_representation(Normal(0, 1), NamedIndex.central_moment(2))
        assert index_variance(Normal(0, 1), rep).total == pytest.approx(2.0, rel=1e-8)

    def test_total_identity(self):
        m = EmpiricalDistribution(np.linspace(0.5, 4.0, 40))
        rep = named_representation(m, NamedIndex.shorrocks(2.0))
        cv = index_variance(m, rep)
        assert cv.total == cv.gamma1 + cv.gamma2 + 2 * cv.gamma3

    @pytest.mark.parametrize("model", [EmpiricalDistribution([0.5, 1.0, 2.0]), LogNormal(0, 1)],
                             ids=["empirical", "lognormal"])
    def test_scalar_weight_broadcasts(self, model):
        # a constant q written as a scalar is the same weight as its array form
        scalar = IndexRepresentation(h=ident, q=lambda x: 1.0, value=lambda m: 0.0)
        array = IndexRepresentation(h=ident, q=one, value=lambda m: 0.0)
        assert index_variance(model, scalar) == index_variance(model, array)

    def test_empirical_grid_invariance(self, mesh):
        m = EmpiricalDistribution(np.geomspace(0.2, 5.0, 31))
        rep = named_representation(m, NamedIndex.sen(1.0))
        with mesh(grid=64):
            a = index_variance(m, rep).total
        with mesh(grid=4096):
            b = index_variance(m, rep).total
        assert a == b

    def test_discretized_gaussian_oracle(self):
        # brute-force the variance of G(h) + sum_k G(f_{s_k}) l(s_k) ds on a
        # midpoint grid with the closed-form covariances
        m = EmpiricalDistribution(np.sort(np.random.default_rng(11).lognormal(size=200)))
        rep = named_representation(m, NamedIndex.shorrocks(1.0))
        cv = index_variance(m, rep)
        k = 2048
        s = (np.arange(k) + 0.5) / k
        xq = np.asarray(m.quantile(s))
        hv = np.asarray(rep.h(xq))
        lv = np.asarray(rep.q(xq))
        eh = np.mean(np.asarray(rep.h(m.sample.values)))
        # Gamma(h, f_s) = int_0^s h(Q(u)) du - s E h
        cum = np.cumsum(hv) / k - hv / (2 * k)
        gh_fs = cum - s * eh
        gamma1 = float(np.var(np.asarray(rep.h(m.sample.values))))
        kern = np.minimum.outer(s, s) - np.outer(s, s)
        gamma2 = float(lv @ kern @ lv) / k**2
        gamma3 = float(np.sum(gh_fs * lv)) / k
        oracle = gamma1 + gamma2 + 2 * gamma3
        assert cv.total == pytest.approx(oracle, rel=0.02)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                        reason="long double is no wider than float64 here")
    @pytest.mark.parametrize("index", [NamedIndex.sen(1.0), NamedIndex.kakwani(2, 1.0),
                                       NamedIndex.kakwani(3, 1.0), NamedIndex.shorrocks(1.0),
                                       NamedIndex.takayama(1.0)], ids=lambda ix: ix.label())
    def test_weight_pieces_vs_long_double(self, index, large_lognormal):
        # gamma2 + 2 gamma3 against a long-double evaluation of the same
        # cells: h is a step and W = int_s^1 q(Q) is linear on each cell
        x, m = large_lognormal
        rep = named_representation(m, index)
        cv = index_variance(m, rep)
        ld = np.longdouble
        n = x.size
        hv = np.asarray(rep.h(x), dtype=float).astype(ld)
        lv = np.asarray(rep.q(x), dtype=float).astype(ld)
        w = np.append(np.cumsum(lv[::-1])[::-1], ld(0)) / n   # W at the nodes j/n
        w -= np.sum(w[:-1] + w[1:]) / (2 * n)
        hc = hv - np.sum(hv) / n
        g2 = np.sum(w[:-1] ** 2 + w[:-1] * w[1:] + w[1:] ** 2) / (3 * n)
        g3 = np.sum(hc * (w[:-1] + w[1:])) / (2 * n)
        err = abs(ld(cv.gamma2) + 2 * ld(cv.gamma3) - (g2 + 2 * g3))
        assert float(err) <= 1e-14 * cv.total

    def test_negative_variance_guard(self):
        # a variance assembled from one (F, h, q) is nonnegative by
        # construction; the guard fires on externally supplied variances
        with pytest.raises(NegativeVariance):
            confidence_interval(0.0, -1e-6, 10, 0.95)
        # tiny round-off deficits are clamped instead
        assert confidence_interval(0.0, -1e-12, 10, 0.95) == (0.0, 0.0)


class TestCrossCovariance:
    def test_coincides_with_variance(self):
        m = EmpiricalDistribution(np.geomspace(0.1, 4.0, 60))
        rep = named_representation(m, NamedIndex.sen(1.0))
        assert index_cross_covariance(m, rep, rep) == pytest.approx(
            index_variance(m, rep).total, rel=1e-12)

    def test_degenerate_partner(self):
        m = EmpiricalDistribution(np.linspace(0.1, 2.0, 25))
        repi = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        repj = IndexRepresentation(h=one, q=None, value=lambda mm: 1.0)
        assert index_cross_covariance(m, repi, repj) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_psd(self):
        m = EmpiricalDistribution(np.sort(np.random.default_rng(2).lognormal(size=120)))
        ri = named_representation(m, NamedIndex.fgt(1.0, 1.0))
        rj = named_representation(m, NamedIndex.shorrocks(1.0))
        vi = index_variance(m, ri).total
        vj = index_variance(m, rj).total
        cij = index_cross_covariance(m, ri, rj)
        eig = np.linalg.eigvalsh(np.array([[vi, cij], [cij, vj]]))
        assert eig.min() >= -1e-9


class TestCompose:
    def test_ratio_matches_delta_method(self):
        m = EmpiricalDistribution(np.sort(np.random.default_rng(8).lognormal(size=150)))
        num = named_representation(m, NamedIndex.takayama(1.0))
        den = IndexRepresentation(h=ident, q=None, value=lambda mm: mm.raw_moment(1))
        a, b = num.value(m), den.value(m)
        comp = compose_ratio(num, den, a, b)
        v = index_variance(m, comp).total
        sig = np.array([[index_variance(m, num).total,
                         index_cross_covariance(m, num, den)],
                        [index_cross_covariance(m, num, den),
                         index_variance(m, den).total]])
        grad = np.array([1 / b, -a / b**2])
        assert v == pytest.approx(float(grad @ sig @ grad), rel=1e-10)

    def test_ratio_value(self):
        m = EmpiricalDistribution([1.0, 2.0, 3.0])
        num = IndexRepresentation(h=ident, q=None, value=lambda mm: mm.raw_moment(2))
        den = IndexRepresentation(h=ident, q=None, value=lambda mm: mm.raw_moment(1))
        comp = compose_ratio(num, den, 1.0, 1.0)
        assert comp.value(m) == pytest.approx(m.raw_moment(2) / m.raw_moment(1))


class TestConfidenceInterval:
    def test_zero_variance(self):
        assert confidence_interval(1.3, 0.0, 50, 0.95) == (1.3, 1.3)

    def test_z975(self):
        lo, hi = confidence_interval(0.0, 1.0, 100, 0.95)
        assert hi == pytest.approx(0.195996, abs=1e-3)
        assert lo == -hi

    def test_z75(self):
        lo, hi = confidence_interval(0.0, 1.0, 1, 0.5)
        assert hi == pytest.approx(0.67449, abs=1e-4)

    def test_bad_level(self):
        with pytest.raises(BadLevel):
            confidence_interval(0.0, 1.0, 10, 1.0)

    def test_quantile_once_per_level(self, monkeypatch):
        levels = []

        def counted(p):
            levels.append(p)
            return normal_quantile(p)

        monkeypatch.setattr(representation, "normal_quantile", counted)
        representation._two_sided_z.cache_clear()
        for level in (0.95, 0.9, 0.95, np.float64(0.9), 0.95):
            half = normal_quantile(0.5 * (1.0 + level)) * math.sqrt(2.0 / 50)
            assert confidence_interval(1.0, 2.0, 50, level) == (1.0 - half, 1.0 + half)
        assert levels == [0.975, 0.95]
