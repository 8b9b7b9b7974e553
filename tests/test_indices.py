"""Catalog estimators and representations: worked values, invariances,
GPI instantiations and moment scores."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indexlaw.distributions import (EmpiricalDistribution, Exponential, LogNormal,
                                    Normal, Pareto, Uniform)
from indexlaw.empirical import build_sample, ecdf, ranks
from indexlaw.errors import (BadParams, BadThreshold, NonFiniteMoment, OutOfRange,
                             ThresholdOutsideSupport, ZeroMean, ZeroVariance)
from indexlaw.indices import (_MOMENT_KINDS, _POVERTY_KINDS, GpiSpec, NamedIndex,
                              gpi_constants, gpi_estimate, gpi_representation,
                              named_estimate, named_representation)
from indexlaw.montecarlo import draw
from indexlaw.representation import index_variance
from indexlaw.rng import stream_seed
from indexlaw.temporal import empirical_copula

asarray = lambda x: np.asarray(x, dtype=float)


def fgt(values, poverty_line, alpha):
    return named_estimate(build_sample(values), NamedIndex.fgt(alpha, poverty_line))


class TestFgt:
    def test_headcount(self):
        assert fgt([1, 2, 3, 4], 2.5, 0) == 0.5

    def test_gap(self):
        assert fgt([1, 2, 3, 4], 2.5, 1) == pytest.approx(0.2, abs=1e-15)

    def test_nobody_poor(self):
        assert fgt([3, 4], 2.5, 2) == 0.0

    def test_zero_power_convention(self):
        # 0^0 = 1: an observation exactly at the line counts in the headcount
        assert fgt([2.5, 5.0], 2.5, 0) == 0.5

    def test_bad_threshold(self):
        with pytest.raises(BadThreshold):
            fgt([1.0], 0.0, 1)

    def test_monotone_in_income(self):
        base = [0.5, 1.0, 1.5, 3.0]
        z = 2.0
        for alpha in (0.5, 1, 2):
            lower = fgt(base, z, alpha)
            bumped = list(base)
            bumped[0] = 0.9  # raise one poor income, staying below z
            higher = fgt(bumped, z, alpha)
            assert higher <= lower


class TestNamedEstimates:
    """Frozen oracle values: direct evaluation of the finite-n displays."""

    @pytest.mark.parametrize("index,want", [
        (NamedIndex.sen(2.0), 0.25),
        (NamedIndex.shorrocks(2.0), 0.375),
        (NamedIndex.thon(2.0), 1 / 3),
        (NamedIndex.kakwani(1, 2.0), 0.25),
        (NamedIndex.takayama(2.0), 0.5),
    ])
    def test_two_point_oracles(self, index, want):
        assert named_estimate(build_sample([1, 3]), index) == pytest.approx(want, abs=1e-15)

    def test_sen_direct_formula(self):
        vals = [0.5, 0.8, 1.9, 2.5, 4.0]
        z = 2.0
        s = build_sample(vals)
        n, srt = len(vals), sorted(vals)
        q = sum(v <= z for v in srt)
        want = 2.0 / (n * (q + 1)) * sum((q - j + 1) * (z - srt[j - 1]) / z
                                         for j in range(1, q + 1))
        assert named_estimate(s, NamedIndex.sen(z)) == pytest.approx(want, abs=1e-15)

    def test_nobody_poor_convention(self):
        s = build_sample([3.0, 4.0])
        assert named_estimate(s, NamedIndex.sen(2.0)) == 0.0
        assert named_estimate(s, NamedIndex.kakwani(2, 2.0)) == 0.0

    def test_takayama_rank_identity(self):
        # C_n equals the 1/n^2-normalized rank-weighted sum, ties included
        vals = [0.5, 1.2, 1.2, 0.9, 3.0, 1.2]
        z = 1.5
        s = build_sample(vals)
        n = s.n
        rank_sum = sum((n - round(n * ecdf(s, v)) + 1) * v
                       for v in vals if v <= z) / n**2
        assert named_estimate(s, NamedIndex.takayama(z)) == pytest.approx(rank_sum, abs=1e-14)

    def test_takayama_ratio(self):
        s = build_sample([1, 3])
        c = named_estimate(s, NamedIndex.takayama(2.0))
        assert named_estimate(s, NamedIndex.takayama_ratio(2.0)) == pytest.approx(c / 2.0)

    def test_takayama_zero_mean(self):
        with pytest.raises(ZeroMean):
            named_estimate(build_sample([0.0, 0.0]), NamedIndex.takayama_ratio(1.0))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=20),
           st.floats(min_value=0.5, max_value=50.0),
           st.floats(min_value=0.1, max_value=10.0))
    def test_scale_invariance(self, vals, z, c):
        m, mc = EmpiricalDistribution(vals), EmpiricalDistribution([c * v for v in vals])
        for index in (NamedIndex.fgt(1.0, z), NamedIndex.sen(z), NamedIndex.kakwani(2, z),
                      NamedIndex.shorrocks(z), NamedIndex.thon(z)):
            base = named_estimate(m.sample, index)
            scaled_index = NamedIndex(kind=index.kind, alpha=index.alpha, k=index.k,
                                      order=index.order, poverty_line=c * z, d=index.d)
            scaled = named_estimate(mc.sample, scaled_index)
            assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12)
            if min(vals) <= z < max(vals):  # 0 < F_n(Z) < 1, as Sen's scores need
                assert index_variance(mc, named_representation(mc, scaled_index)).total == (
                    pytest.approx(index_variance(m, named_representation(m, index)).total,
                                  rel=1e-12, abs=1e-12))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=40),
           st.floats(min_value=0.5, max_value=50.0))
    def test_kakwani_one_is_sen(self, vals, z):
        s = build_sample(vals)
        assert named_estimate(s, NamedIndex.kakwani(1, z)) == pytest.approx(
            named_estimate(s, NamedIndex.sen(z)), rel=1e-12, abs=1e-12)

    CATALOG = (lambda z: NamedIndex.fgt(0.0, z), lambda z: NamedIndex.fgt(1.5, z),
               NamedIndex.sen, lambda z: NamedIndex.kakwani(2, z), NamedIndex.shorrocks,
               NamedIndex.thon, NamedIndex.takayama, NamedIndex.takayama_ratio,
               lambda z: NamedIndex.central_moment(3), lambda z: NamedIndex.odd_normalized(2),
               lambda z: NamedIndex.even_normalized(2))

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2,
                               max_size=30),
           st.floats(min_value=0.05, max_value=0.95))
    def test_permutation_invariance(self, data, vals, frac):
        # Z strictly inside [min, max) keeps 0 < F_n(Z) < 1 for every poverty kind
        z = min(vals) + frac * (max(vals) - min(vals))
        assume(min(vals) <= z < max(vals))
        perm = data.draw(st.permutations(vals))
        s, sp = build_sample(vals), build_sample(perm)
        assert np.array_equal(s.values, sp.values)
        m, mp = EmpiricalDistribution(s), EmpiricalDistribution(sp)
        for make in self.CATALOG:
            index = make(z)
            assert named_estimate(sp, index) == named_estimate(s, index)
            assert (index_variance(mp, named_representation(mp, index)).total
                    == index_variance(m, named_representation(m, index)).total)

    def test_signed_zeros(self):
        # np.sort is not stable and -0.0 == +0.0, so the signs of the sorted
        # zeros may come in any order; no estimate, variance or rank may move
        x = np.random.default_rng(3).choice([-0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0], size=60)
        y = np.random.default_rng(4).choice([-0.0, 0.0, 1.0, 2.0], size=60)
        assert np.signbit(x).any() and np.signbit(y).any()
        x0, y0 = x + 0.0, y + 0.0
        assert not np.signbit(x0).any()
        s, s0 = build_sample(x), build_sample(x0)
        m, m0 = EmpiricalDistribution(s), EmpiricalDistribution(s0)
        catalog = [NamedIndex.fgt(a, 1.0) for a in (0.0, 1.0, 2.0, 1.5)] + [
            NamedIndex.sen(1.0), NamedIndex.kakwani(2, 1.0), NamedIndex.kakwani(3, 1.0),
            NamedIndex.shorrocks(1.0), NamedIndex.thon(1.0), NamedIndex.takayama(1.0),
            NamedIndex.takayama_ratio(1.0), NamedIndex.central_moment(2),
            NamedIndex.central_moment(3), NamedIndex.odd_normalized(2),
            NamedIndex.odd_normalized(3), NamedIndex.even_normalized(2)]
        assert {ix.kind for ix in catalog} == set(_POVERTY_KINDS + _MOMENT_KINDS)
        for index in catalog:
            assert named_estimate(s, index) == named_estimate(s0, index)
            assert (index_variance(m, named_representation(m, index)).total
                    == index_variance(m0, named_representation(m0, index)).total)
        assert np.array_equal(ranks(s), ranks(s0))
        cop, cop0 = empirical_copula(np.column_stack([x, y])), empirical_copula(
            np.column_stack([x0, y0]))
        assert np.array_equal(cop.u_ranks, cop0.u_ranks)
        assert np.array_equal(cop.v_ranks, cop0.v_ranks)


class TestMoments:
    def test_first_central_moment_zero(self):
        s = build_sample([1.0, 5.0, -2.0])
        assert named_estimate(s, NamedIndex.central_moment(1)) == 0.0

    def test_two_point_variance(self):
        assert named_estimate(build_sample([1, 3]), NamedIndex.central_moment(2)) == 1.0

    def test_symmetric_sample_skewness(self):
        assert named_estimate(build_sample([-1.0, 1.0]), NamedIndex.odd_normalized(2)) == 0.0

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            named_estimate(build_sample([2.0, 2.0]), NamedIndex.even_normalized(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-53, 1e-80, 1e-81, 1e-110, 1e-200, 1e-300])
    def test_normalized_moments_of_a_tiny_scale(self, scale):
        # mu_2^(top/2) underflows at these scales, to 0 or, at 1e-53 (top 6)
        # and 1e-80 and 1e-81 (top 4), to a subnormal with few digits left;
        # the ratios are scale-free
        values = [1.0, 2.0, 4.0, 7.0]
        for index in (NamedIndex.even_normalized(2), NamedIndex.odd_normalized(2),
                      NamedIndex.even_normalized(3)):
            want = named_estimate(build_sample(values), index)
            got = named_estimate(build_sample([scale * v for v in values]), index)
            assert got == pytest.approx(want, rel=1e-12)

    def test_influence_simplifies_to_centered_square(self):
        # A(2)(x) == (x - m1)^2 pointwise
        model = EmpiricalDistribution(np.sort(np.random.default_rng(17).lognormal(size=40)))
        rep = named_representation(model, NamedIndex.central_moment(2))
        m1 = model.raw_moment(1)
        x = np.random.default_rng(18).uniform(-3, 3, size=20)
        assert np.max(np.abs(rep.h(x) - (x - m1) ** 2)) < 1e-10

    def test_moment_rep_centering(self):
        # E A(l)(X) == mu_l up to the additive constant killed by the fep:
        # check the variance against the classical formula for l = 2
        model = Normal(0, 1)
        rep = named_representation(model, NamedIndex.central_moment(2))
        assert index_variance(model, rep).total == pytest.approx(2.0, rel=1e-8)

    def test_skewness_variance_normal(self):
        rep = named_representation(Normal(0, 1), NamedIndex.odd_normalized(2))
        assert index_variance(Normal(0, 1), rep).total == pytest.approx(6.0, rel=1e-6)

    def test_kurtosis_variance_normal(self):
        rep = named_representation(Normal(0, 1), NamedIndex.even_normalized(2))
        assert index_variance(Normal(0, 1), rep).total == pytest.approx(24.0, rel=1e-6)

    def test_odd_value_vanishes_for_symmetric(self):
        rep = named_representation(Normal(0, 1), NamedIndex.odd_normalized(2))
        assert rep.value(Normal(0, 1)) == pytest.approx(0.0, abs=1e-9)
        assert Normal(0, 1).integrate_score(rep.h) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("index", [NamedIndex.central_moment(3),
                                       NamedIndex.even_normalized(2),
                                       NamedIndex.odd_normalized(2)],
                             ids=lambda ix: ix.label())
    def test_infinite_score_variance_raises(self, index):
        # tail index 5: the variance of A(3) needs E X^6, of A(4) E X^8
        with pytest.raises(NonFiniteMoment):
            named_representation(Pareto(1.0, 5.0), index)

    def test_finite_score_variance_on_heavy_tail(self):
        # Var A(2) = mu_4 - sigma^4 needs E X^4, finite for tail index 5
        model = Pareto(1.0, 5.0)
        m = [model.raw_moment(k) for k in range(5)]
        mu = m[1]
        central4 = m[4] - 4 * mu * m[3] + 6 * mu**2 * m[2] - 3 * mu**4
        var = m[2] - mu**2
        rep = named_representation(model, NamedIndex.central_moment(2))
        assert index_variance(model, rep).total == pytest.approx(central4 - var**2, rel=1e-6)


class TestRepresentations:
    def test_fgt_weight_is_zero(self):
        rep = named_representation(LogNormal(0, 1), NamedIndex.fgt(1.5, 1.0))
        assert rep.q is None

    def test_shorrocks_score_example(self):
        rep = named_representation(Uniform(0, 1), NamedIndex.shorrocks(0.5))
        assert rep.h(np.array([0.25]))[0] == pytest.approx(0.75, abs=1e-14)
        assert rep.q(np.array([0.25]))[0] == pytest.approx(-1.0, abs=1e-14)

    def test_threshold_outside_support(self):
        with pytest.raises(ThresholdOutsideSupport):
            named_representation(Uniform(0, 1), NamedIndex.sen(2.0))

    @pytest.mark.parametrize("index", [
        NamedIndex.sen(0.5), NamedIndex.kakwani(3, 0.5), NamedIndex.shorrocks(0.5),
        NamedIndex.thon(0.5), NamedIndex.takayama(0.5), NamedIndex.takayama_ratio(0.5)],
        ids=lambda ix: ix.kind)
    def test_nobody_poor_is_zero(self, index):
        # F(Z) = 0: the zero score pair with the value 0
        model = Uniform(1, 2)
        rep = named_representation(model, index)
        assert rep.value(model) == 0.0
        assert index_variance(model, rep).total == 0.0

    def test_sen_value_by_simulation(self):
        # named_estimate converges to value(F) within 3 SE
        model = Exponential(1.0)
        idx = NamedIndex.sen(1.0)
        rep = named_representation(model, idx)
        val = rep.value(model)
        gam = index_variance(model, rep).total
        n = 100000
        est = named_estimate(draw(model, n, stream_seed(21, 0)), idx)
        assert abs(est - val) <= 3.0 * math.sqrt(gam / n)

    def test_thon_shares_shorrocks_limit(self):
        model = LogNormal(0, 1)
        r1 = named_representation(model, NamedIndex.shorrocks(1.0))
        r2 = named_representation(model, NamedIndex.thon(1.0))
        assert r1.value(model) == pytest.approx(r2.value(model), rel=1e-12)


def _sen_gpi_spec(z):
    return GpiSpec(A=lambda Q, n, Z: Q, w=lambda t: t, d=asarray,
                   mu=(0, 1, 1, 1), c=lambda x, y: x * (x - y),
                   pi=lambda x, y: y, Z=z,
                   dc_dx=lambda x, y: 2 * x - y, dc_dy=lambda x, y: -x,
                   dpi_dx=lambda x, y: 0.0, dpi_dy=lambda x, y: 1.0)


def _kakwani_gpi_spec(z, k):
    # normalization with H_pi = 1: c = (k+1)(1 - y/x)^k, pi = (k+1) y^k / x^(k+1)
    return GpiSpec(
        A=lambda Q, n, Z: Q, w=lambda t: t ** k, d=asarray, mu=(0, 1, 1, 1),
        c=lambda x, y: (k + 1) * (1 - y / x) ** k,
        pi=lambda x, y: (k + 1) * y ** k / x ** (k + 1),
        Z=z,
        dc_dx=lambda x, y: (k + 1) * k * (1 - y / x) ** (k - 1) * y / x ** 2,
        dc_dy=lambda x, y: -(k + 1) * k * (1 - y / x) ** (k - 1) / x,
        dpi_dx=lambda x, y: -(k + 1) ** 2 * y ** k / x ** (k + 2),
        dpi_dy=lambda x, y: (k + 1) * k * y ** (k - 1) / x ** (k + 1))


class TestGpi:
    def test_sen_parameters_reproduce_sen(self):
        s = build_sample([1, 3])
        assert gpi_estimate(s, _sen_gpi_spec(2.0)) == pytest.approx(0.25, abs=1e-12)
        s2 = build_sample([0.3, 0.9, 1.4, 2.2, 5.0])
        assert gpi_estimate(s2, _sen_gpi_spec(1.5)) == pytest.approx(
            named_estimate(s2, NamedIndex.sen(1.5)), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kakwani_parameters_reproduce_kakwani(self, k):
        s = build_sample([0.3, 0.9, 1.4, 2.2, 5.0])
        spec = GpiSpec(A=lambda Q, n, Z: Q, w=lambda t: t ** k, d=asarray,
                       mu=(0, 1, 1, 1), c=lambda x, y: x * (x - y) ** k,
                       pi=lambda x, y: y ** k, Z=1.5)
        assert gpi_estimate(s, spec) == pytest.approx(
            named_estimate(s, NamedIndex.kakwani(k, 1.5)), abs=1e-12)

    def test_shorrocks_parameters(self):
        s = build_sample([0.3, 0.9, 1.4, 2.2, 5.0])
        spec = GpiSpec(A=lambda Q, n, Z: (Q * (Q + 1) / 2) / n, w=lambda t: t,
                       d=asarray, mu=(2, 0, 2, 1), c=lambda x, y: 2 * (x - y),
                       pi=lambda x, y: y, Z=1.5)
        assert gpi_estimate(s, spec) == pytest.approx(
            named_estimate(s, NamedIndex.shorrocks(1.5)), abs=1e-12)

    def test_thon_parameters(self):
        s = build_sample([0.3, 0.9, 1.4, 2.2, 5.0])
        n = s.n
        spec = GpiSpec(A=lambda Q, nn, Z: Q * (Q + 1) / (nn + 1), w=lambda t: t,
                       d=asarray, mu=(1, 0, 1, 1), c=lambda x, y: 2 * (x - y),
                       pi=lambda x, y: y, Z=1.5)
        assert gpi_estimate(s, spec) == pytest.approx(
            named_estimate(s, NamedIndex.thon(1.5)), abs=1e-12)

    def test_zero_gap_function(self):
        spec = _sen_gpi_spec(2.0)
        spec = GpiSpec(A=spec.A, w=spec.w, d=lambda t: np.zeros_like(asarray(t)),
                       mu=spec.mu, c=spec.c, pi=spec.pi, Z=spec.Z)
        assert gpi_estimate(build_sample([1, 3]), spec) == 0.0

    def test_nobody_poor(self):
        assert gpi_estimate(build_sample([3.0, 4.0]), _sen_gpi_spec(2.0)) == 0.0

    def test_kakwani_constants_uniform(self):
        # H_c = int_0^0.5 2 (1 - 2y)^2 dy = 1/3 (exact); H_pi = 1 by the
        # normalization; J = H_c
        consts = gpi_constants(Uniform(0, 1), _kakwani_gpi_spec(0.5, 1))
        assert consts.H_pi == pytest.approx(1.0, abs=1e-9)
        assert consts.H_c == pytest.approx(1 / 3, abs=1e-9)
        assert consts.J == pytest.approx(1 / 3, abs=1e-9)

    def test_k_collapses_when_c_free_of_x(self):
        # c independent of its first argument and H_pi = 1: K = -H_c K_pi
        spec = GpiSpec(A=lambda Q, n, Z: 1.0, w=lambda t: 1.0, d=asarray,
                       mu=(0, 1, 1, 1), c=lambda x, y: 1.0 - y,
                       pi=lambda x, y: 2.0 * y / x ** 2, Z=0.5,
                       dc_dx=lambda x, y: 0.0, dc_dy=lambda x, y: -1.0,
                       dpi_dx=lambda x, y: -4.0 * y / x ** 3,
                       dpi_dy=lambda x, y: 2.0 / x ** 2)
        consts = gpi_constants(Uniform(0, 1), spec)
        assert consts.H_pi == pytest.approx(1.0, abs=1e-9)
        assert consts.K_c == pytest.approx(0.0, abs=1e-12)
        assert consts.K == pytest.approx(-consts.H_c * consts.K_pi, rel=1e-9)

    def test_generic_matches_closed_form_kakwani(self):
        model = Uniform(0, 1)
        grep = gpi_representation(model, _kakwani_gpi_spec(0.5, 1))
        krep = named_representation(model, NamedIndex.kakwani(1, 0.5))
        grid = np.linspace(1e-4, 1 - 1e-4, 1001)
        assert np.max(np.abs(grep.h(grid) - krep.h(grid))) < 1e-6
        assert np.max(np.abs(grep.q(grid) - krep.q(grid))) < 1e-6
        assert grep.value(model) == pytest.approx(krep.value(model), rel=1e-9)

    def test_numeric_partials_fallback(self):
        spec = _kakwani_gpi_spec(0.5, 1)
        nop = GpiSpec(A=spec.A, w=spec.w, d=spec.d, mu=spec.mu, c=spec.c,
                      pi=spec.pi, Z=spec.Z)
        with_partials = gpi_constants(Uniform(0, 1), spec)
        without = gpi_constants(Uniform(0, 1), nop)
        assert without.K == pytest.approx(with_partials.K, rel=1e-6, abs=1e-8)

    def test_spec_calls_do_not_grow_with_n(self):
        # every spec callable takes the whole array: its number of calls is
        # the same for 50 points as for 5,000
        def calls(n):
            counts = {}

            def counted(name, f):
                def call(*args):
                    counts[name] = counts.get(name, 0) + 1
                    return f(*args)
                return call

            spec = _kakwani_gpi_spec(1.0, 2)
            spec = GpiSpec(**{name: counted(name, f) if callable(f) else f
                              for name, f in spec.__dict__.items()})
            sample = build_sample(np.random.default_rng(n).lognormal(size=n))
            model = EmpiricalDistribution(sample)
            gpi_estimate(sample, spec)
            index_variance(model, gpi_representation(model, spec))
            return counts

        small, large = calls(50), calls(5000)
        assert set(small) == {"A", "w", "d", "c", "pi", "dc_dx", "dc_dy", "dpi_dx", "dpi_dy"}
        assert small == large


class TestNamedIndexValidation:
    def test_bad_kind(self):
        with pytest.raises(OutOfRange):
            NamedIndex("gini", poverty_line=1.0)

    def test_poverty_line_required(self):
        with pytest.raises(BadThreshold):
            NamedIndex("sen")

    @pytest.mark.parametrize("factory", [
        lambda z: NamedIndex.fgt(1.0, z), NamedIndex.sen, lambda z: NamedIndex.kakwani(2, z),
        NamedIndex.shorrocks, NamedIndex.thon, NamedIndex.takayama, NamedIndex.takayama_ratio,
    ], ids=["fgt", "sen", "kakwani", "shorrocks", "thon", "takayama", "takayama_ratio"])
    def test_factory_without_poverty_line(self, factory):
        with pytest.raises(BadThreshold):
            factory(None)

    def test_kakwani_k(self):
        with pytest.raises(OutOfRange):
            NamedIndex.kakwani(0, 1.0)

    def test_moment_orders(self):
        with pytest.raises(OutOfRange):
            NamedIndex.central_moment(0)
        with pytest.raises(OutOfRange):
            NamedIndex.odd_normalized(1)

    @pytest.mark.parametrize("make, error", [
        (lambda: NamedIndex.fgt(None, 1.0), BadThreshold),
        (lambda: NamedIndex.fgt(float("nan"), 1.0), BadThreshold),
        (lambda: NamedIndex.kakwani(None, 1.0), OutOfRange),
        (lambda: NamedIndex.kakwani(2.5, 1.0), OutOfRange),
        (lambda: NamedIndex.kakwani(float("inf"), 1.0), OutOfRange),
        (lambda: NamedIndex.central_moment(None), OutOfRange),
        (lambda: NamedIndex.central_moment(2.7), OutOfRange),
        (lambda: NamedIndex.odd_normalized(2.5), OutOfRange),
        (lambda: NamedIndex.even_normalized(float("nan")), OutOfRange),
        (lambda: NamedIndex.fgt(float("inf"), 1.0), BadThreshold),
        (lambda: NamedIndex.sen(float("inf")), BadThreshold),
        (lambda: NamedIndex.fgt(1.0, float("inf")), BadThreshold),
        (lambda: NamedIndex("sen", poverty_line="abc"), BadThreshold),
        (lambda: NamedIndex.sen("abc"), BadThreshold),
        (lambda: NamedIndex.thon(10 ** 400), BadThreshold),
        (lambda: NamedIndex.fgt("abc", 1.0), BadThreshold),
        (lambda: NamedIndex.kakwani(True, 1.0), OutOfRange),
        (lambda: NamedIndex.central_moment(True), OutOfRange),
        (lambda: NamedIndex.even_normalized(np.True_), OutOfRange),
        (lambda: NamedIndex.central_moment("2"), OutOfRange),
    ], ids=["fgt-none", "fgt-nan", "kakwani-none", "kakwani-2.5", "kakwani-inf",
            "central-none", "central-2.7", "odd-2.5", "even-nan", "fgt-alpha-inf",
            "sen-line-inf", "fgt-line-inf", "sen-line-abc-direct", "sen-line-abc",
            "thon-line-overflow", "fgt-alpha-abc", "kakwani-bool", "central-bool",
            "even-numpy-bool", "central-text"])
    def test_missing_or_fractional_parameter(self, make, error):
        with pytest.raises(error):
            make()

    # the parameters each kind takes, and a valid value of every parameter
    TAKES = {"fgt": ("alpha", "poverty_line"), "sen": ("poverty_line",),
             "kakwani": ("k", "poverty_line"), "shorrocks": ("poverty_line",),
             "thon": ("poverty_line",), "takayama": ("poverty_line", "d"),
             "takayama_ratio": ("poverty_line", "d"), "central_moment": ("order",),
             "odd_moment": ("order",), "even_moment": ("order",)}
    VALID = {"alpha": 1.0, "k": 2, "order": 2, "poverty_line": 1.0, "d": np.sqrt}

    def test_takes_covers_every_kind(self):
        assert set(self.TAKES) == set(_POVERTY_KINDS + _MOMENT_KINDS)

    @pytest.mark.parametrize("kind", sorted(TAKES))
    def test_stray_parameter(self, kind):
        own = {name: self.VALID[name] for name in self.TAKES[kind]}
        NamedIndex(kind, **own)
        for name in self.VALID.keys() - own.keys():
            with pytest.raises(BadParams):
                NamedIndex(kind, **own, **{name: self.VALID[name]})

    def test_stray_parameter_examples(self):
        with pytest.raises(BadParams):
            NamedIndex("sen", k=2.5, poverty_line=1)
        with pytest.raises(BadParams):
            NamedIndex("central_moment", order=2, poverty_line="x")

    def test_integral_floats_accepted(self):
        assert NamedIndex.kakwani(2.0, 1.0) == NamedIndex.kakwani(2, 1.0)
        assert type(NamedIndex.kakwani(2.0, 1.0).k) is int
        assert NamedIndex.central_moment(3.0).order == 3
        assert NamedIndex.even_normalized(np.int64(4)).order == 4
        assert NamedIndex.fgt(1, 1.0).alpha == 1.0


class TestCatalogDeclaration:
    """A kind built directly coerces, defaults and prints as its factory builds it."""

    @pytest.mark.parametrize("kind, factory", [
        ("takayama", NamedIndex.takayama), ("takayama_ratio", NamedIndex.takayama_ratio),
    ])
    def test_direct_takayama_matches_factory(self, kind, factory):
        direct, built = NamedIndex(kind, poverty_line=1.0), factory(1.0)
        assert direct == built
        s = build_sample([0.3, 0.8, 1.0, 1.7, 2.4, 0.6])
        assert named_estimate(s, direct) == named_estimate(s, built)
        m = EmpiricalDistribution(s)
        rd, rb = named_representation(m, direct), named_representation(m, built)
        assert np.array_equal(rd.h(s.values), rb.h(s.values))
        assert np.array_equal(rd.q(s.values), rb.q(s.values))
        assert index_variance(m, rd) == index_variance(m, rb)

    def test_poverty_line_is_coerced_to_float(self):
        assert NamedIndex("sen", poverty_line="1.5") == NamedIndex.sen(1.5)
        assert type(NamedIndex("sen", poverty_line=2).poverty_line) is float

    @pytest.mark.parametrize("index, want", [
        (NamedIndex.fgt(0, 0.5), "fgt(alpha=0, Z=0.5)"),
        (NamedIndex.fgt(1.5, 2), "fgt(alpha=1.5, Z=2)"),
        (NamedIndex.sen(1.0), "sen(Z=1)"),
        (NamedIndex.kakwani(12345678, 1), "kakwani(k=12345678, Z=1)"),
        (NamedIndex.shorrocks(0.25), "shorrocks(Z=0.25)"),
        (NamedIndex.thon(1e-7), "thon(Z=1e-07)"),
        (NamedIndex.takayama(3.5), "takayama(Z=3.5)"),
        (NamedIndex.takayama_ratio(1234567.0), "takayama_ratio(Z=1.23457e+06)"),
        (NamedIndex.central_moment(3), "central_moment(order=3)"),
        (NamedIndex.odd_normalized(2), "odd_moment(order=2)"),
        (NamedIndex.even_normalized(4.0), "even_moment(order=4)"),
    ])
    def test_label(self, index, want):
        assert index.label() == want


class TestCatalogConsistency:
    """named_estimate at large n lands within 4 SE of value(F) for every
    catalog kind (moment preconditions respected per family)."""

    CASES = [
        (NamedIndex.fgt(0.0, 0.5), Uniform(0, 1)),
        (NamedIndex.fgt(1.0, 1.0), LogNormal(0, 1)),
        (NamedIndex.sen(1.0), Exponential(1.0)),
        (NamedIndex.kakwani(2, 2.0), Pareto(1.0, 3.0)),
        (NamedIndex.shorrocks(1.0), LogNormal(0, 1)),
        (NamedIndex.thon(0.5), Uniform(0, 1)),
        (NamedIndex.takayama(1.0), Exponential(1.0)),
        (NamedIndex.takayama_ratio(1.0), LogNormal(0, 1)),
        (NamedIndex.central_moment(2), Normal(0, 1)),
        (NamedIndex.central_moment(3), Uniform(0, 1)),
        (NamedIndex.odd_normalized(2), Normal(0, 1)),
        (NamedIndex.even_normalized(2), Uniform(0, 1)),
    ]

    @pytest.mark.parametrize("index,family", CASES,
                             ids=[c[0].label() for c in CASES])
    def test_estimate_near_value(self, index, family):
        rep = named_representation(family, index)
        value = rep.value(family)
        gamma = index_variance(family, rep).total
        n = 40000
        est = named_estimate(draw(family, n, stream_seed(314, 0)), index)
        assert abs(est - value) <= 4.0 * math.sqrt(gamma / n)
