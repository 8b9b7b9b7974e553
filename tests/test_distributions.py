"""Distribution models: AS241, families, empirical plug-in, mixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from indexlaw.distributions import (EmpiricalDistribution, Exponential, LogNormal,
                                    Mixture, Normal, Pareto, Uniform, normal_cdf,
                                    normal_quantile)
from indexlaw.empirical import build_sample
from indexlaw.errors import BadParams, NonFiniteMoment, OutOfRange


class TestNormalQuantile:
    def test_against_scipy(self):
        p = np.concatenate([np.linspace(1e-10, 1 - 1e-10, 2001),
                            [1e-15, 1 - 1e-15, 0.5]])
        ours = normal_quantile(p)
        ref = stats.norm.ppf(p)
        assert np.max(np.abs(ours - ref)) < 1e-9

    def test_key_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_quantile(0.75) == pytest.approx(0.674489750196082, abs=1e-9)
        assert normal_quantile(0.5) == 0.0

    def test_endpoints(self):
        assert normal_quantile(0.0) == -np.inf
        assert normal_quantile(1.0) == np.inf

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            normal_quantile(1.5)


FAMILIES = [Uniform(0, 1), Uniform(-2, 5), Exponential(0.7), LogNormal(0, 1),
            LogNormal(0.5, 0.3), Pareto(1.0, 3.0), Normal(0, 1), Normal(1, 2)]


class TestFamilies:
    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
    def test_quantile_cdf_roundtrip(self, model):
        s = np.linspace(0.001, 0.999, 97)
        x = np.asarray(model.quantile(s))
        back = np.asarray(model.cdf(x))
        assert np.max(np.abs(back - s)) < 1e-12

    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
    def test_cdf_monotone_and_limits(self, model):
        lo = float(np.asarray(model.quantile(1e-9)))
        hi = float(np.asarray(model.quantile(1 - 1e-9)))
        xs = np.linspace(lo, hi, 500)
        f = np.asarray(model.cdf(xs))
        assert np.all(np.diff(f) >= -1e-15)
        assert float(np.asarray(model.cdf(lo - abs(lo) - 1e3))) <= 1e-8
        assert float(np.asarray(model.cdf(hi + abs(hi) + 1e3))) >= 1 - 1e-6

    @pytest.mark.parametrize("model,k", [(Uniform(0, 1), 3), (Exponential(2.0), 4),
                                         (LogNormal(0.2, 0.8), 3), (Normal(0.5, 1.5), 4),
                                         (Pareto(2.0, 5.0), 2)])
    def test_raw_moment_vs_quadrature(self, model, k):
        closed = model.raw_moment(k)
        quad = DistributionQuad(model).raw_moment(k)
        # tolerance limited by the oracle's endpoint truncation, not the closed form
        assert closed == pytest.approx(quad, rel=1e-6)

    def test_pareto_infinite_moment(self):
        with pytest.raises(NonFiniteMoment):
            Pareto(1.0, 3.0).raw_moment(3)

    @pytest.mark.parametrize("ctor", [lambda: Uniform(1, 1), lambda: Exponential(0),
                                      lambda: LogNormal(0, 0), lambda: Pareto(1, 2),
                                      lambda: Normal(0, -1)])
    def test_bad_params(self, ctor):
        with pytest.raises(BadParams):
            ctor()


class DistributionQuad:
    """Independent moment oracle through generic quadrature."""

    def __init__(self, model):
        self.model = model

    def raw_moment(self, k):
        import warnings

        from scipy import integrate

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return integrate.quad(
                lambda u: float(np.asarray(self.model.quantile(u))) ** k,
                1e-12, 1 - 1e-12, limit=300)[0]


class TestEmpiricalModel:
    def test_exact_cdf_and_quantile(self):
        m = EmpiricalDistribution(build_sample([1, 2, 2, 5]))
        assert m.cdf(2) == 0.75
        assert m.quantile(0.5) == 2.0
        assert m.integrate_score(lambda x: x) == 2.5
        assert m.raw_moment(2) == pytest.approx((1 + 4 + 4 + 25) / 4)

    def test_kind(self):
        assert EmpiricalDistribution([1.0]).kind == "empirical"
        assert Uniform(0, 1).kind == "parametric"


class TestMixture:
    def test_cdf_is_weighted_sum(self):
        mix = Mixture([0.3, 0.7], [Uniform(0, 1), Uniform(0, 2)])
        x = np.linspace(-0.5, 2.5, 50)
        want = 0.3 * np.clip(x, 0, 1) + 0.7 * np.clip(x / 2, 0, 1)
        assert np.allclose(np.asarray(mix.cdf(x)), want)

    def test_quantile_inverts_cdf(self):
        mix = Mixture([0.5, 0.5], [LogNormal(0, 1), LogNormal(0.5, 1)])
        for s in (0.05, 0.3, 0.5, 0.77, 0.99):
            x = float(np.asarray(mix.quantile(s)))
            assert float(mix.cdf(x)) == pytest.approx(s, abs=1e-10)

    def test_moments(self):
        mix = Mixture([0.25, 0.75], [Exponential(1.0), Exponential(2.0)])
        assert mix.raw_moment(1) == pytest.approx(0.25 * 1.0 + 0.75 * 0.5)

    def test_bad_weights(self):
        with pytest.raises(BadParams):
            Mixture([0.5, 0.6], [Uniform(0, 1), Uniform(0, 2)])


_PAIRS = {
    "lognormal": Mixture([0.5, 0.5], [LogNormal(0, 1), LogNormal(0.5, 1)]),
    "exponential": Mixture([0.25, 0.75], [Exponential(1.0), Exponential(2.0)]),
    "disjoint-uniform": Mixture([0.5, 0.5], [Uniform(0, 1), Uniform(2, 3)]),
}


class TestMixtureGeneralizedInverse:
    @pytest.mark.parametrize("name", sorted(_PAIRS))
    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_smallest_float_reaching_level(self, name, s):
        mix = _PAIRS[name]
        q = mix.quantile(s)
        assert mix.cdf(q) >= s > mix.cdf(np.nextafter(q, -np.inf))

    @pytest.mark.parametrize("name", sorted(_PAIRS))
    def test_vector_matches_scalar(self, name):
        mix = _PAIRS[name]
        s = np.random.default_rng(8).uniform(size=300)
        q = mix.quantile(s)
        assert np.all(np.asarray(mix.cdf(q)) >= s)
        assert np.all(np.asarray(mix.cdf(np.nextafter(q, -np.inf))) < s)
        assert np.array_equal(q, [mix.quantile(x) for x in s])

    def test_flat_region_left_end(self):
        assert _PAIRS["disjoint-uniform"].quantile(0.5) == 1.0

    def test_endpoints(self):
        mix = _PAIRS["lognormal"]
        assert mix.quantile_extended(0.0) == 0.0
        assert np.array_equal(mix.quantile_extended(np.array([0.0, 1.0])), [0.0, np.inf])

    def test_matches_brentq_oracle(self):
        # the parametric-variance mixture of the benchmark at 2,049 nodes
        from scipy.optimize import brentq

        mix = _PAIRS["lognormal"]
        s = np.linspace(0.0, 1.0, 2049)
        got = mix.quantile_extended(s)
        want = np.empty_like(s)
        want[[0, -1]] = 0.0, np.inf
        for i, si in enumerate(s[1:-1], start=1):
            brackets = [float(c.quantile_extended(si)) for c in mix.components]
            want[i] = brentq(lambda x: float(mix.cdf(x)) - si, min(brackets), max(brackets),
                             xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert np.array_equal(got[[0, -1]], want[[0, -1]])
        inner = slice(1, -1)
        assert np.max(np.abs(got[inner] - want[inner]) / want[inner]) <= 1e-12


class TestNanLevels:
    @pytest.mark.parametrize("model", [LogNormal(), _PAIRS["lognormal"],
                                       EmpiricalDistribution([3.0, 1.0, 2.0])],
                             ids=["lognormal", "mixture", "empirical"])
    @pytest.mark.parametrize("s", [np.nan, np.array([np.nan, 0.5])], ids=["scalar", "array"])
    def test_nan_level_rejected(self, model, s):
        with pytest.raises(OutOfRange):
            model.quantile(s)


def test_normal_cdf_quantile_consistency():
    p = np.linspace(0.001, 0.999, 201)
    assert np.max(np.abs(normal_cdf(normal_quantile(p)) - p)) < 1e-13


def test_draw_generalized_inverse_identity():
    # inverse-CDF outputs satisfy F(Q(u)) == u to 1e-12 for continuous families
    from indexlaw.rng import stream_seed, uniforms

    for model in (Uniform(0, 1), Exponential(1.0), LogNormal(0, 1), Pareto(1, 3)):
        u = uniforms(stream_seed(5, 1), 300)
        x = np.asarray(model.quantile(u))
        assert np.max(np.abs(np.asarray(model.cdf(x)) - u)) < 1e-12
