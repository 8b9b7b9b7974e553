"""Distribution models: AS241, families, empirical plug-in, mixtures, the
Gauss-Legendre mesh rule for scores and a reference table of the catalog's
parametric numbers."""

import copy
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from indexlaw import distributions, ugrid
from indexlaw.distributions import (DistributionModel, EmpiricalDistribution, Exponential,
                                    LogNormal, Mixture, Normal, Pareto, Uniform, normal_cdf,
                                    normal_quantile)
from indexlaw.empirical import build_sample
from indexlaw.errors import BadParams, NonFiniteIntegral, NonFiniteMoment, OutOfRange
from indexlaw.indices import GpiSpec, NamedIndex, gpi_constants, named_representation
from indexlaw.representation import index_variance
from indexlaw.ugrid import NODES, gauss_sum


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

    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
    def test_scalar_cdf_is_the_arrays(self, model):
        # a quantile brackets F on arrays, and its callers read F on scalars
        x = np.asarray(model.quantile(np.random.default_rng(5).uniform(size=400)))
        assert np.array_equal([model.cdf(v) for v in x], model.cdf(x))
        assert np.array_equal([model.pdf(v) for v in x], model.pdf(x))

    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
    def test_pdf_matches_scipy(self, model):
        frozen = _scipy(model)
        x = np.concatenate([np.asarray(model.quantile(np.linspace(0.001, 0.999, 97))),
                            [-1e100, -1.0, 0.0, 1e100]])
        assert np.allclose(np.asarray(model.pdf(x)), frozen.pdf(x), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
    def test_sf_matches_scipy_deep_in_the_upper_tail(self, model):
        # from S = 0.1 down to 1e-300, where 1 - F is 0 or one ulp
        frozen = _scipy(model)
        x = frozen.isf(10.0 ** -np.linspace(1, 300, 120))
        want = frozen.sf(x)
        if isinstance(model, Uniform):   # scipy's is 1 - F; the exact S instead
            b, width = Fraction(model.b), Fraction(model.b) - Fraction(model.a)
            want = [float((b - Fraction(v)) / width) for v in x]
        assert np.allclose(model.sf(x), want, rtol=1e-12, atol=0.0)
        deep = frozen.sf(x) < 1e-17
        assert np.all(1.0 - np.asarray(model.cdf(x[deep])) <= np.finfo(float).eps)

    @pytest.mark.parametrize("model", FAMILIES + [
        Mixture([0.3, 0.7], [LogNormal(0, 1), Normal(2, 1)]),
        EmpiricalDistribution(np.random.default_rng(6).lognormal(size=99))],
        ids=lambda m: type(m).__name__)
    def test_cdf_and_sf_add_to_one(self, model):
        x = np.asarray(model.quantile(np.linspace(0.001, 0.999, 97)))
        total = np.asarray(model.cdf(x)) + np.asarray(model.sf(x))
        assert np.max(np.abs(total - 1.0)) <= 4 * np.finfo(float).eps
        assert [model.sf(v) for v in x] == list(model.sf(x))

    def test_empirical_sf_counts(self):
        values = np.random.default_rng(7).integers(0, 20, size=60).astype(float)
        m = EmpiricalDistribution(values)
        x = np.arange(-1.0, 21.0, 0.5)
        assert np.array_equal(m.sf(x), [np.sum(values > v) / 60 for v in x])
        with pytest.raises(OutOfRange):
            m.sf(np.nan)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model,k", [(LogNormal(0, 1), 200), (Uniform(0, 10), 400),
                                         (Exponential(1), 200), (Normal(0, 1), 400),
                                         (Pareto(1e200, 3.0), 2),
                                         # rate ** k underflows to 0
                                         (Exponential(1e-300), 2),
                                         # the sample power overflows to inf, or
                                         # to nan from -inf + inf
                                         (EmpiricalDistribution([1e200, 2.0]), 2),
                                         (EmpiricalDistribution([-1e200, 1e200]), 3)],
                             ids=lambda v: type(v).__name__ if not isinstance(v, int) else str(v))
    def test_raw_moment_beyond_float_range(self, model, k):
        with pytest.raises(NonFiniteMoment, match=f"order {k} is beyond the float range"):
            model.raw_moment(k)

    @pytest.mark.filterwarnings("error")
    def test_raw_moment_sum_beyond_float_range(self):
        # every power is finite but their sum is not: the mean still is
        assert EmpiricalDistribution([1e308, 1e308]).raw_moment(1) == 1e308
        assert EmpiricalDistribution([1.5e308, 1.5e308, -1e308]).raw_moment(1) == pytest.approx(
            1.5e308 / 3 * 2 - 1e308 / 3, rel=1e-15)
        assert EmpiricalDistribution([1e154, 1e154]).raw_moment(2) == pytest.approx(1e308,
                                                                                     rel=1e-15)

    def test_moment_score_beyond_float_range(self):
        # central_moment(19) asks for E X^38, about e^722 under LogNormal(0, 1)
        with pytest.raises(NonFiniteMoment):
            named_representation(LogNormal(0, 1), NamedIndex.central_moment(19))

    @pytest.mark.filterwarnings("error")
    def test_sample_moment_score_beyond_float_range(self):
        # central_moment(2) asks for the fourth sample moment, about 5e639
        with pytest.raises(NonFiniteMoment):
            named_representation(EmpiricalDistribution([1e160, 2.0]), NamedIndex.central_moment(2))

    @pytest.mark.parametrize("ctor", [lambda: Uniform(1, 1), lambda: Exponential(0),
                                      lambda: LogNormal(0, 0), lambda: Pareto(1, 2),
                                      lambda: Normal(0, -1),
                                      # parameters that are not numbers
                                      lambda: Uniform("a", 1), lambda: Normal("a", 1),
                                      lambda: LogNormal(None, 1), lambda: Exponential("x"),
                                      lambda: Pareto("x", 3)])
    def test_bad_params(self, ctor):
        with pytest.raises(BadParams):
            ctor()

    @pytest.mark.filterwarnings("error")
    def test_exponential_cdf_far_below_zero(self):
        # the expm1 branch is not taken below 0, and must not overflow there
        m = Exponential(1.0)
        assert m.cdf(-1e300) == 0.0
        x = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e3, 200), [1e300, np.inf]])
        assert np.array_equal(m.cdf(x), -np.expm1(-m.rate * x))

    @pytest.mark.filterwarnings("error")
    def test_exponential_far_above_zero(self):
        # rate x passes the float range: F is 1, S and the density 0, and a
        # mixture search that evaluates them at the largest float goes on
        m = Exponential(3.0)
        assert (m.cdf(1e308), m.sf(1e308), m.pdf(1e308)) == (1.0, 0.0, 0.0)
        mix = Mixture([0.5, 0.5], [m, LogNormal(0, 300)])
        assert mix.quantile_extended(0.999) == np.inf


def _scipy(model):
    """The frozen scipy law of one of the package's families."""
    return {Uniform: lambda m: stats.uniform(m.a, m.b - m.a),
            Exponential: lambda m: stats.expon(scale=1 / m.rate),
            LogNormal: lambda m: stats.lognorm(m.sigma, scale=np.exp(m.mu)),
            Pareto: lambda m: stats.pareto(m.a, scale=m.xm),
            Normal: lambda m: stats.norm(m.mu, m.sigma)}[type(model)](model)


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
        for weights, components in (
                ([0.5, 0.6], [Uniform(0, 1), Uniform(0, 2)]),
                ([[0.5, 0.5]], [LogNormal(), LogNormal(0.5, 1)]),   # weights not 1-d
                ([1.0], ["x"])):                                    # not a model
            with pytest.raises(BadParams):
                Mixture(weights, components)

    def test_weights_that_are_not_numbers(self):
        with pytest.raises(BadParams):
            Mixture("ab", [Uniform(0, 1), Uniform(0, 2)])

    def test_pdf_is_weighted_sum_or_missing(self):
        mix = Mixture([0.3, 0.7], [Normal(0, 1), Exponential(2.0)])
        x = np.linspace(-3.0, 4.0, 71)
        assert np.array_equal(mix.pdf(x), 0.3 * Normal(0, 1).pdf(x) + 0.7 * Exponential(2.0).pdf(x))
        assert Mixture([0.5, 0.5], [mix, EmpiricalDistribution([1.0, 2.0])]).pdf(x) is None


_PAIRS = {
    "lognormal": Mixture([0.5, 0.5], [LogNormal(0, 1), LogNormal(0.5, 1)]),
    "exponential": Mixture([0.25, 0.75], [Exponential(1.0), Exponential(2.0)]),
    "disjoint-uniform": Mixture([0.5, 0.5], [Uniform(0, 1), Uniform(2, 3)]),
    # a density that is 0 below the Pareto's x_m but for the normal part
    "normal-pareto": Mixture([0.6, 0.4], [Normal(1.0, 0.5), Pareto(1.5, 3.5)]),
    # no density: every step bisects, and F jumps at the sample points
    "with-empirical": Mixture([0.5, 0.5], [LogNormal(0, 1), EmpiricalDistribution(
        np.random.default_rng(3).lognormal(size=200))]),
    "nested": Mixture([0.3, 0.7], [Mixture([0.5, 0.5], [LogNormal(0, 1), Normal(2, 1)]),
                                   Exponential(0.7)]),
}

# the 2,695 levels at which a Sen variance with poverty line 1 on the
# benchmark's mixture evaluates the mixture quantile: its mesh's Gauss nodes
BENCH_LEVELS = ugrid.gauss_nodes(ugrid.mesh_edges(
    ugrid.DEFAULT_GRID, [float(_PAIRS["lognormal"].cdf(1.0))])).ravel()


class TestFixedParameters:
    """A model's parameters are set by its constructor alone."""

    @pytest.mark.parametrize("model, names", [
        (Uniform(0, 2), ("a", "b")), (Exponential(2.0), ("rate",)),
        (LogNormal(0, 1), ("mu", "sigma")), (Pareto(1, 3), ("xm", "a")),
        (Normal(0, 1), ("mu", "sigma")), (EmpiricalDistribution([1.0, 2.0]), ("sample",)),
        (Mixture([0.5, 0.5], [Uniform(0, 1), Uniform(0, 2)]), ("weights", "components")),
    ], ids=["uniform", "exponential", "lognormal", "pareto", "normal", "empirical", "mixture"])
    def test_assignment_and_deletion_raise(self, model, names):
        for name in names:
            before = getattr(model, name)
            with pytest.raises(AttributeError):
                setattr(model, name, 5.0)
            with pytest.raises(AttributeError):
                delattr(model, name)
            assert getattr(model, name) is before

    def test_mixture_weights_and_components_are_fixed(self):
        mix = Mixture([0.3, 0.7], [Uniform(0, 1), Uniform(0, 2)])
        with pytest.raises(ValueError):
            mix.weights[0] = 0.9
        assert isinstance(mix.components, tuple)
        assert mix.weights.tolist() == [0.3, 0.7]

    def test_caller_weights_stay_writeable(self):
        weights = np.array([0.25, 0.75])
        Mixture(weights, [Uniform(0, 1), Uniform(0, 2)])
        weights[0] = 0.5
        assert weights.flags.writeable


class TestMixtureGeneralizedInverse:
    @pytest.mark.parametrize("name", sorted(_PAIRS))
    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_smallest_float_reaching_level(self, name, s):
        mix = _PAIRS[name]
        q = mix.quantile(s)
        assert _reaches(mix, q, s) and not _reaches(mix, np.nextafter(q, -np.inf), s)

    @pytest.mark.parametrize("name", sorted(_PAIRS))
    def test_vector_matches_scalar(self, name):
        mix = _PAIRS[name]
        s = np.random.default_rng(8).uniform(size=300)
        q = mix.quantile(s)
        assert np.all(_reaches(mix, q, s))
        assert not np.any(_reaches(mix, np.nextafter(q, -np.inf), s))
        assert np.array_equal(q, [mix.quantile(x) for x in s])

    @pytest.mark.parametrize("passes", [0, 3])
    def test_bisection_closes_what_newton_leaves(self, monkeypatch, passes):
        # the cap on the Newton passes hands every bracket still open to
        # bisection, which ends on the same float
        s = np.random.default_rng(9).uniform(size=400)
        want = {name: mix.quantile(s) for name, mix in _PAIRS.items()}
        monkeypatch.setattr(distributions, "_NEWTON_PASSES", passes)
        for name, mix in _PAIRS.items():
            assert np.array_equal(mix.quantile(s), want[name])

    def test_flat_region_left_end(self):
        assert _PAIRS["disjoint-uniform"].quantile(0.5) == 1.0

    @pytest.mark.parametrize("name", sorted(_PAIRS))
    def test_nan_level_leaves_the_others(self, name):
        # a nan level must not reach the grid that brackets the other levels
        mix = _PAIRS[name]
        got = mix.quantile_extended(np.array([np.nan, 0.3, 0.9]))
        assert np.isnan(got[0])
        assert np.array_equal(got[1:], mix.quantile_extended(np.array([0.3, 0.9])))

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

    @pytest.mark.parametrize("name", sorted(_PAIRS))
    def test_bisection_oracle_on_bench_mesh(self, name):
        mix = _PAIRS[name]
        assert np.array_equal(mix.quantile_extended(BENCH_LEVELS), _bit_bisection(mix, BENCH_LEVELS))

    @pytest.mark.parametrize("seed", range(60))
    def test_bisection_oracle_on_random_mixtures(self, seed):
        rng = np.random.default_rng([seed, 30])
        mix = _random_mixture(rng)
        s = np.concatenate([rng.uniform(size=200), 10.0 ** -rng.uniform(1, 300, 20),
                            1.0 - 10.0 ** -rng.uniform(1, 16, 20)])
        assert np.array_equal(mix.quantile_extended(s), _bit_bisection(mix, s))

    def test_root_beyond_the_float_range(self):
        # F at the largest float is about 0.9955, so a higher level has its
        # root at +inf, as LogNormal(0, 300)'s own quantile there; its
        # bracket [x, inf] used to bisect to inf without end
        components = [LogNormal(0, 300), LogNormal(0, 1)]
        mix = _CdfPasses([0.5, 0.5], components)
        assert np.array_equal(mix.quantile_extended(np.array([0.999, 1 - 1e-12])), [np.inf] * 2)
        # F and S on the grid, then S at the largest float
        assert mix.passes == [4, 4, 2]
        plain = Mixture([0.5, 0.5], components)
        s = np.array([0.999, 0.3, 0.99, 0.995, 0.9955])
        assert np.array_equal(plain.quantile_extended(s), _bit_bisection(plain, s))

    def test_level_beyond_the_total_weight(self):
        # these weights add up, as F(inf), to 1 - 2^-52 in floats, so F never
        # reaches the level 1 - 2^-53, whose root on F was +inf.  Solved on
        # S, which is 0 at the uniforms' end however the weights round, its
        # root is the smallest float where S falls to 2^-53: two below 5
        w = [0.0178319779747, 0.1132633576592, 0.1917000020765, 0.3900471898913,
             0.2871574723982]
        components = [Uniform(0, j + 1) for j in range(5)]
        mix = _CdfPasses(w, components)
        s = np.array([1 - 2 ** -53, 0.5])
        assert mix.cdf(np.inf) < s[0] and mix.sf(5.0) == 0.0
        mix.passes.clear()
        got = mix.quantile_extended(s)
        assert got[0] == np.nextafter(np.nextafter(5.0, 0.0), 0.0)
        assert np.array_equal(got, _bit_bisection(Mixture(w, components), s))
        # F and S on the grid, then three passes, two of them on both sides
        assert mix.passes == [7, 7, 1, 1, 1, 1, 1]

    def test_scalar_matches_batch_on_bench_mesh(self):
        # a level's first bracket comes from the grid of its whole call
        mix = _PAIRS["lognormal"]
        batch = mix.quantile_extended(BENCH_LEVELS)
        assert np.array_equal(batch, [mix.quantile_extended(float(s)) for s in BENCH_LEVELS])

    def test_bench_mesh_passes_and_points(self):
        # F and S on the grid, then each pass evaluates F and S on the
        # brackets still open on each side: 16,470 points in 14 passes of
        # 27 calls, and the density at 12,231.  Solved on F alone the upper
        # half met F's staircase of absolute steps 2^-53, and took 21,451
        # points in 49 passes and the density at 14,718
        mix = _CdfPasses([0.5, 0.5], [LogNormal(0, 1), LogNormal(0.5, 1)])
        mix.quantile_extended(BENCH_LEVELS)
        assert len(mix.passes) <= 27 and sum(mix.passes) <= 16_470

    def test_bench_mesh_matches_scipy_accurate_side(self):
        # an oracle from scipy's lognormal cdf and sf, solved on the same
        # sides; on F alone the upper half was up to 5.3e-4 relative off
        mix = _PAIRS["lognormal"]
        parts = [(p, stats.lognorm(c.sigma, scale=np.exp(c.mu)))
                 for p, c in zip(mix.weights, mix.components)]
        want = _bit_bisection(mix, BENCH_LEVELS,
                              cdf=lambda x: sum(p * f.cdf(x) for p, f in parts),
                              sf=lambda x: sum(p * f.sf(x) for p, f in parts))
        got = mix.quantile_extended(BENCH_LEVELS)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_model_without_its_own_sf(self, seed):
        # a user's model with cdf, quantile and pdf only: its sf is 1 - F
        rng = np.random.default_rng([seed, 35])
        own = _OwnCdf(Exponential(rng.uniform(0.3, 3)))
        x = np.asarray(own.quantile(rng.uniform(size=50)))
        assert np.array_equal(own.sf(x), 1.0 - own.cdf(x))
        mix = Mixture([0.4, 0.6], [own, LogNormal(rng.uniform(-1, 1), rng.uniform(0.2, 1.5))])
        s = np.concatenate([rng.uniform(size=200), 1.0 - 10.0 ** -rng.uniform(1, 16, 20),
                            BENCH_LEVELS[::7]])
        assert np.array_equal(mix.quantile_extended(s), _bit_bisection(mix, s))


class _OwnCdf(DistributionModel):
    """A model defined by its cdf, quantile and pdf alone, as a user's
    subclass may be, so that its sf is the base class's ``1 - F``."""

    def __init__(self, model):
        self.model = model

    def cdf(self, x):
        return self.model.cdf(x)

    def quantile_extended(self, s):
        return self.model.quantile_extended(s)

    def pdf(self, x):
        return self.model.pdf(x)


class _CdfPasses(Mixture):
    """A mixture that records the size of each call of ``cdf`` or ``sf`` (a
    pass of the quantile search makes one on each side with brackets still
    open) and fails past 2,048 of them, so that a search that would not end
    stops there."""

    def __init__(self, weights, components):
        super().__init__(weights, components)
        self.passes = []

    def _count(self, x):
        self.passes.append(np.size(x))
        assert len(self.passes) <= 2048, "the quantile search does not end"

    def cdf(self, x):
        self._count(x)
        return super().cdf(x)

    def sf(self, x):
        self._count(x)
        return super().sf(x)


def _reaches(model, x, s, cdf=None, sf=None):
    """Whether x reaches level s on the side of F that holds its digits:
    ``F(x) >= s`` for s up to 1/2 and ``-S(x) >= -(1 - s)`` above, with
    the model's own cdf and sf unless others are given."""
    cdf, sf = cdf or model.cdf, sf or model.sf
    s = np.asarray(s, dtype=float)
    return np.where(s > 0.5, -np.asarray(sf(x)) >= s - 1.0, np.asarray(cdf(x)) >= s)


_SIGN = np.int64(np.iinfo(np.int64).min)


def _bit_bisection(mix, s, **sides):
    """``inf {x : x reaches s}`` on the accurate side (``_reaches``) by
    bisection on the int64 bit patterns of the floats, ordered as the floats
    are (-0.0 and 0.0 share a key), from the bracket (-inf, inf]; each pass
    evaluates F and S once at every level."""
    def key(x):
        bits = np.asarray(x, dtype=float).view(np.int64)
        return np.where(bits < 0, -(bits & ~_SIGN), bits)

    def value(k):
        return np.where(k < 0, -k | _SIGN, k).view(np.float64)

    s = np.asarray(s, dtype=float)
    lo, hi = key(np.full(s.shape, -np.inf)), key(np.full(s.shape, np.inf))
    while (open_ := lo + 1 < hi).any():
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        above = _reaches(mix, value(mid), s, **sides)
        hi, lo = np.where(open_ & above, mid, hi), np.where(open_ & ~above, mid, lo)
    return value(hi)


def _random_mixture(rng):
    """One to three components of the parametric families, random weights."""
    families = [lambda: Normal(rng.uniform(-2, 2), rng.uniform(0.2, 2)),
                lambda: LogNormal(rng.uniform(-1, 1), rng.uniform(0.2, 1.5)),
                lambda: Exponential(rng.uniform(0.3, 3)),
                lambda: Pareto(rng.uniform(0.5, 2), rng.uniform(2.1, 5)),
                lambda: Uniform(a := rng.uniform(-1, 1), a + rng.uniform(0.1, 2))]
    k = int(rng.integers(1, 4))
    components = [families[int(rng.integers(5))]() for _ in range(k)]
    w = rng.dirichlet(np.ones(k))
    w[-1] = 1.0 - w[:-1].sum()
    return Mixture(w, components)


class TestNanLevels:
    @pytest.mark.parametrize("model", [LogNormal(), _PAIRS["lognormal"],
                                       EmpiricalDistribution([3.0, 1.0, 2.0])],
                             ids=["lognormal", "mixture", "empirical"])
    @pytest.mark.parametrize("s", [np.nan, np.array([np.nan, 0.5])], ids=["scalar", "array"])
    def test_nan_level_rejected(self, model, s):
        with pytest.raises(OutOfRange):
            model.quantile(s)


class TestNormalCdf:
    @pytest.mark.parametrize("lo, hi, rel", [(-8.0, 8.3, 1e-14), (-37.5, -8.0, 1e-13)])
    def test_matches_scipy_erfc(self, lo, hi, rel):
        from scipy.special import erfc

        z = np.random.default_rng(19).uniform(lo, hi, 3000)
        ref = 0.5 * erfc(-z / np.sqrt(2.0))
        assert np.max(np.abs(normal_cdf(z) / ref - 1.0)) < rel

    def test_shapes_and_special_values(self):
        assert type(normal_cdf(0.0)) is float and normal_cdf(0.0) == 0.5
        assert type(normal_cdf(np.array(1.0))) is float
        assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)
        assert normal_cdf([]).shape == (0,)
        out = normal_cdf([np.nan, np.inf, -np.inf])
        assert np.isnan(out[0]) and out[1] == 1.0 and out[2] == 0.0

    @pytest.mark.parametrize("s", [1e-300, 1e-311, 1e-315, 1e-318, 1e-320, 5e-324])
    def test_lognormal_far_lower_tail(self, s):
        # the cdf reaches the subnormal levels its quantile is asked for
        m = LogNormal(0.0, 1.0)
        back = float(m.cdf(m.quantile(s)))
        assert back > 0.0
        if s >= 1e-318:
            assert back == pytest.approx(s, rel=1e-4)


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


@pytest.mark.parametrize("model", [
    Uniform(-1, 3), Exponential(2.0), LogNormal(0.3, 0.8), Pareto(1, 3), Normal(2, 1.5),
    Mixture((0.3, 0.7), [LogNormal(0.0, 1.0), Exponential(0.5)]),
    EmpiricalDistribution([0.5, 1.0, 1.0, 2.5, 4.0, 7.0, 7.0, 9.5])],
    ids=["uniform", "exponential", "lognormal", "pareto", "normal", "mixture", "empirical"])
def test_quantile_on_a_block_is_rowwise(model):
    # the Monte Carlo harness draws a block of rows in one quantile call and
    # relies on each row holding the bits of a call on that row alone
    from indexlaw.rng import stream_seed, uniforms

    block = uniforms(stream_seed(3, np.arange(19)), 257)
    got = np.asarray(model.quantile(block), dtype=float)
    assert got.shape == block.shape
    for u, row in zip(block, got):
        assert row.tobytes() == np.asarray(model.quantile(u), dtype=float).tobytes()


def scalar_integrals(model, scores, breaks=()):
    """Per-point reference for ``_integrals``, under ``integrate_score`` and
    the Kakwani constants: the same Gauss rule on the same mesh, with the
    scores evaluated at one quantile node at a time on a 0-d array."""
    edges, x = model.mesh(breaks)
    vals = [[float(np.asarray(v, dtype=float)) for v in scores(np.asarray(node))]
            for node in x.tolist()]
    return [gauss_sum(edges, np.reshape(col, (-1, NODES))) for col in zip(*vals)]


BENCH_MIXTURE = Mixture((0.5, 0.5), [LogNormal(0.0, 1.0), LogNormal(0.5, 1.0)])
# model and a poverty line with 0 < F(Z) < 1
BATCH_MODELS = {"lognormal": (LogNormal(0, 1), 1.0), "normal": (Normal(2, 1), 2.0),
                "exponential": (Exponential(1.0), 0.7), "uniform": (Uniform(0, 2), 1.0),
                "mixture": (BENCH_MIXTURE, 1.0)}


def _poverty_catalog(z):
    return [NamedIndex.fgt(alpha, z) for alpha in (0.0, 1.0, 2.0, 1.5)] + [
        NamedIndex.sen(z), NamedIndex.kakwani(3, z), NamedIndex.shorrocks(z),
        NamedIndex.thon(z), NamedIndex.takayama(z), NamedIndex.takayama_ratio(z)]


def _moment_catalog():
    return [NamedIndex.central_moment(2), NamedIndex.central_moment(3),
            NamedIndex.odd_normalized(2), NamedIndex.odd_normalized(3),
            NamedIndex.even_normalized(2)]


def _numbers(model, index):
    rep = named_representation(model, index)
    v = index_variance(model, rep)
    return np.array([rep.value(model), v.gamma1, v.gamma2, v.gamma3, v.total])


def _reference_numbers(monkeypatch, model, indices):
    """The catalog numbers with the parametric ``_integrals`` replaced by the
    reference; a mixture's reach it through its components."""
    with monkeypatch.context() as m:
        m.setattr(DistributionModel, "_integrals",
                  lambda self, scores, breaks=(): scalar_integrals(self, scores, breaks))
        return [_numbers(model, index) for index in indices]


class TestBatchedQuadrature:
    """``integrate_score`` evaluates f(Q(u)) at every node of the mesh in one
    array call but returns what a per-point callback gives."""

    @pytest.mark.parametrize("name", BATCH_MODELS)
    def test_poverty_catalog_matches_scalar_reference(self, name, monkeypatch):
        model, z = BATCH_MODELS[name]
        indices = _poverty_catalog(z)
        want = _reference_numbers(monkeypatch, model, indices)
        for index, ref in zip(indices, want):
            assert np.array_equal(_numbers(model, index), ref), index.label()

    def test_pareto_within_round_off(self, monkeypatch):
        # on a 0-d input the poverty scores' powers are numpy scalar
        # arithmetic, which rounds some values differently from the array loop
        model = Pareto(1.0, 5.0)
        indices = _poverty_catalog(1.3)
        want = _reference_numbers(monkeypatch, model, indices)
        for index, ref in zip(indices, want):
            assert _numbers(model, index) == pytest.approx(ref, rel=1e-12, abs=0), index.label()

    def test_levels_evaluated_alone(self):
        model = LogNormal(0, 1)
        rep = named_representation(model, NamedIndex.sen(1.0))
        batched = model.integrate_score(rep.h, breaks=rep.breaks)
        sizes = []

        def alone(x):
            sizes.append(x.size)
            return np.concatenate([rep.h(x[i:i + 1]) for i in range(x.size)])

        # every node evaluated on its own 1-element array
        assert model.integrate_score(alone, breaks=rep.breaks) == batched

    def test_few_array_calls(self):
        model = LogNormal(0, 1)
        rep = named_representation(model, NamedIndex.sen(1.0))
        cells = model.mesh(rep.breaks)[0].size - 1
        for f in (rep.h, lambda x: rep.h(x) ** 2):
            sizes = []

            def counted(x, f=f):
                sizes.append(np.size(x))
                return f(x)

            model.integrate_score(counted, breaks=rep.breaks)
            # one call on the quantiles at all nodes of the mesh
            assert sizes == [cells * NODES]


class TestMeshQuadrature:
    @pytest.mark.parametrize("score, breaks", [
        (lambda x: np.full_like(x, np.nan), ()),
        (lambda x: np.where(x > 2.0, np.nan, x), (2.0,)),
        (lambda x: np.where(x > 30.0, np.nan, x), ()),
    ], ids=["everywhere", "above-break", "far-tail"])
    def test_nan_score_raises(self, score, breaks):
        with pytest.raises(NonFiniteIntegral):
            LogNormal(0, 1).integrate_score(score, breaks=breaks)

    def test_break_levels_are_cell_edges(self):
        model = LogNormal(0, 1)
        edges, _ = model.mesh((1.0, 2.5))
        levels = model.cdf(np.array([1.0, 2.5]))
        assert np.isin(levels, edges).all()
        assert edges[0] == 0.0 and edges[-1] == 1.0 and np.all(np.diff(edges) > 0)
        # a jump at a cell edge is integrated exactly: F(Z) itself
        assert model.integrate_score(lambda x: (x <= 2.5) * 1.0, breaks=(2.5,)) == \
            pytest.approx(levels[1], rel=1e-15)

    def test_constant_on_dyadic_cells_is_exact(self):
        # the headcount of U(0, 1) at Z = 1/2 is exactly 1/2
        rep = named_representation(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5))
        assert rep.value(Uniform(0, 1)) == 0.5


# ---------------------------------------------------------------------------
# Reference table: the parametric numbers of the catalog against oracles
# ---------------------------------------------------------------------------

REFERENCE_MODELS = {**BATCH_MODELS, "pareto": (Pareto(1.0, 3.0), 1.3)}
# exact raw moments E X^j of the moment-kind models
EXACT_RAW = {
    "normal": (Normal(2, 1), lambda j: Fraction(sum(
        math.comb(j, i) * 2 ** (j - i) * math.prod(range(i - 1, 0, -2)) for i in range(0, j + 1, 2)))),
    "exponential": (Exponential(1.0), lambda j: Fraction(math.factorial(j))),
    "uniform": (Uniform(0, 2), lambda j: Fraction(2 ** j, j + 1)),
    "pareto": (Pareto(1.0, 12.0), lambda j: Fraction(12, 12 - j)),
    "normal-1000": (Normal(1000, 1), lambda j: Fraction(sum(
        math.comb(j, i) * 1000 ** (j - i) * math.prod(range(i - 1, 0, -2))
        for i in range(0, j + 1, 2)))),
}


def _density(model):
    """pdf and support of a family or mixture, from scipy.stats."""
    if isinstance(model, Mixture):
        parts = [(p, *_density(c)) for p, c in zip(model.weights, model.components)]
        return (lambda x: sum(p * pdf(x) for p, pdf, _ in parts),
                (min(s[0] for *_, s in parts), max(s[1] for *_, s in parts)))
    frozen = {LogNormal: lambda m: stats.lognorm(m.sigma, scale=math.exp(m.mu)),
              Normal: lambda m: stats.norm(m.mu, m.sigma),
              Exponential: lambda m: stats.expon(scale=1.0 / m.rate),
              Uniform: lambda m: stats.uniform(m.a, m.b - m.a),
              Pareto: lambda m: stats.pareto(m.a, scale=m.xm)}[type(model)](model)
    return frozen.pdf, frozen.support()


def x_expectation(model, f, z):
    """E f(X) by scipy's ``quad`` in x at epsrel 2e-14, split at the line z."""
    pdf, (lo, hi) = _density(model)
    cuts = [lo, *([z] if lo < z < hi else []), hi]

    def g(x):
        return float(np.asarray(f(np.array([x])), dtype=float)[0]) * pdf(x)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return math.fsum(integrate.quad(g, a, b, epsrel=2e-14, epsabs=0.0, limit=500)[0]
                         for a, b in zip(cuts, cuts[1:]))


def _value_integrand(model, index):
    """The score whose expectation is the index value."""
    z = index.poverty_line
    fz = float(model.cdf(z))
    gap = lambda x: (z - x) / z
    poor = lambda f: (lambda x: np.where(x <= z, f(np.minimum(x, z)), 0.0))
    if index.kind == "fgt":
        return poor(lambda x: gap(x) ** index.alpha)
    if index.kind in ("sen", "kakwani"):
        k = index.k or 1
        return poor(lambda x: (k + 1) * (1 - model.cdf(x) / fz) ** k * gap(x))
    if index.kind in ("shorrocks", "thon"):
        return poor(lambda x: 2 * (1 - model.cdf(x)) * gap(x))
    mean = model.raw_moment(1) if index.kind == "takayama_ratio" else 1.0
    return poor(lambda x: (1 - model.cdf(x)) * x / mean)


def _close(got, want, what):
    assert abs(got - want) <= max(1e-9 * abs(want), 1e-12), f"{what}: {got!r} vs {want!r}"


def _cached_mesh(model):
    """``model`` with its mesh kept per breaks and mesh size, so one fine
    mesh serves a whole catalog."""
    meshes = {}
    build = model.mesh

    def mesh(breaks=()):
        key = (tuple(breaks), ugrid.DEFAULT_GRID)
        if key not in meshes:
            meshes[key] = build(breaks)
        return meshes[key]

    model.mesh = mesh
    return model


def _exact_moment_numbers(raw, index):
    """Value and gamma1 of a moment kind from exact raw moments: the score
    ``sigma^-t (A(t) - t/2 sigma^-2 mu_t A(2))`` (A(t) for the central
    moment), ``A(t) = (x - mu)^t - t mu_{t-1} (x - mu)``, in exact arithmetic."""
    mean = raw(1)
    top_order = {"central_moment": index.order, "odd_moment": 2 * index.order - 1,
                 "even_moment": 2 * index.order}[index.kind]
    need = 2 * top_order
    mu = [sum(math.comb(j, i) * raw(i) * (-mean) ** (j - i) for i in range(j + 1))
          for j in range(need + 1)]

    def influence(t):
        c = [Fraction(0)] * (t + 1)
        c[t] = Fraction(1)
        if t > 2:
            c[1] = -t * mu[t - 1]
        return c

    c = influence(top_order)
    if index.kind == "central_moment":
        value, scale = float(mu[top_order]), 1
    else:
        sigma2 = mu[2]
        for i, a in enumerate(influence(2)):
            c[i] -= Fraction(top_order, 2) / sigma2 * mu[top_order] * a
        value, scale = float(mu[top_order]) / float(sigma2) ** (top_order / 2), sigma2 ** top_order
    var = sum(c[i] * c[j] * (mu[i + j] - mu[i] * mu[j])
              for i in range(1, len(c)) for j in range(1, len(c)))
    return value, float(var / scale)


class TestReferenceTable:
    """Every parametric value, gamma1 and total of the catalog within 1e-9
    relative (1e-12 absolute near 0) of an oracle: scipy's ``quad`` in x for
    the poverty values and gamma1, exact moments for the moment kinds, and
    the same mesh at 2**14 base cells for totals with a weight term."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_poverty_catalog(self, name, mesh):
        model, z = REFERENCE_MODELS[name]
        model = _cached_mesh(copy.copy(model))
        for index in _poverty_catalog(z):
            rep = named_representation(model, index)
            got = index_variance(model, rep)
            label = f"{name} {index.label()}"
            _close(rep.value(model), x_expectation(model, _value_integrand(model, index), z),
                   f"{label} value")
            eh = x_expectation(model, rep.h, z)
            eh2 = x_expectation(model, lambda x: np.asarray(rep.h(x)) ** 2, z)
            _close(got.gamma1, eh2 - eh * eh, f"{label} gamma1")
            if rep.q is None:
                _close(got.total, eh2 - eh * eh, f"{label} total")
            else:
                with mesh(grid=2 ** 14):
                    want = index_variance(model, rep)
                _close(got.total, want.total, f"{label} total")

    @pytest.mark.parametrize("name", sorted(EXACT_RAW))
    def test_moment_catalog(self, name):
        model, raw = EXACT_RAW[name]
        for index in _moment_catalog():
            rep = named_representation(model, index)
            got = index_variance(model, rep)
            value, gamma1 = _exact_moment_numbers(raw, index)
            _close(rep.value(model), value, f"{name} {index.label()} value")
            _close(got.gamma1, gamma1, f"{name} {index.label()} gamma1")
            assert got.total == got.gamma1 and got.gamma2 == got.gamma3 == 0.0

    @pytest.mark.parametrize("index, gamma1", [
        (NamedIndex.central_moment(3), 6.0), (NamedIndex.even_normalized(2), 24.0),
        (NamedIndex.odd_normalized(2), 6.0), (NamedIndex.central_moment(2), 2.0)],
        ids=lambda v: v.label() if isinstance(v, NamedIndex) else str(v))
    def test_normal_far_from_zero(self, index, gamma1):
        # the central form does not cancel when |mean| >> sd
        model = Normal(1000, 1)
        assert index_variance(model, named_representation(model, index)).gamma1 == \
            pytest.approx(gamma1, rel=1e-12)

    @pytest.mark.parametrize("index, value, gamma1", [
        # 60-digit evaluations of the exact lognormal moments
        (NamedIndex.central_moment(2), 4.670774270471605, 2463.8352715880564),
        (NamedIndex.central_moment(3), 62.433027559087523, 63047044.714285252),
        (NamedIndex.odd_normalized(2), 6.1848771386325548, 532124.39299136231),
        (NamedIndex.even_normalized(2), 113.93639217631153, 164431681427.97851),
    ], ids=lambda v: v.label() if isinstance(v, NamedIndex) else "")
    def test_lognormal_closed_forms(self, index, value, gamma1):
        model = LogNormal(0, 1)
        rep = named_representation(model, index)
        assert rep.value(model) == pytest.approx(value, rel=1e-13)
        assert index_variance(model, rep).gamma1 == pytest.approx(gamma1, rel=1e-13)

    def test_moment_kinds_build_no_mesh(self, monkeypatch):
        def no_mesh(*args, **kwargs):
            raise AssertionError("a moment kind reached the mesh")

        monkeypatch.setattr(DistributionModel, "mesh", no_mesh)
        for model in (LogNormal(0, 1), BENCH_MIXTURE, Pareto(1.0, 12.0)):
            for index in _moment_catalog():
                rep = named_representation(model, index)
                rep.value(model)
                index_variance(model, rep)


def _kakwani2_gpi_spec(partials):
    # Kakwani(2) in GPI form; without partials they are central differences
    k = 2
    exact = dict(dc_dx=lambda x, y: (k + 1) * k * (1 - y / x) ** (k - 1) * y / x ** 2,
                 dpi_dx=lambda x, y: -(k + 1) ** 2 * y ** k / x ** (k + 2))
    return GpiSpec(A=lambda Q, n, Z: Q, w=lambda t: t ** 2, d=np.asarray, mu=(0, 1, 1, 1),
                   c=lambda x, y: 3 * (1 - y / x) ** 2, pi=lambda x, y: 3 * y ** 2 / x ** 3,
                   Z=1.0, **(exact if partials else {}))


class TestGpiOnMesh:
    def test_parametric_constants_match_scipy(self):
        model = LogNormal(0, 1)
        spec = _kakwani2_gpi_spec(partials=False)
        ours = gpi_constants(model, spec)
        fz = float(model.cdf(spec.Z))
        dc_dx, dpi_dx = (lambda x, y: (spec.c(x + 1e-5, y) - spec.c(x - 1e-5, y)) / 2e-5,
                         lambda x, y: (spec.pi(x + 1e-5, y) - spec.pi(x - 1e-5, y)) / 2e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            k_c = integrate.quad(lambda s: dc_dx(fz, s) * (spec.Z - model.quantile(s)) / spec.Z,
                                 0.0, fz, epsrel=2e-14, epsabs=0.0, limit=500)[0]
            k_pi = integrate.quad(lambda s: dpi_dx(fz, s), 0.0, fz, epsrel=2e-14,
                                  epsabs=0.0, limit=500)[0]
        _close(ours.K_c, k_c, "K_c")
        _close(ours.K_pi, k_pi, "K_pi")

    def test_plug_in_constants_are_exact_per_cell(self):
        # the step quantile is constant on each sample cell, and the partials
        # are polynomials in the level: the mesh integrates them exactly
        x = np.sort(np.random.default_rng(21).lognormal(size=50))
        model = EmpiricalDistribution(x)
        spec = _kakwani2_gpi_spec(partials=True)
        ours = gpi_constants(model, spec)
        n, fz = x.size, float(model.cdf(spec.Z))
        cells = [(j / n, (j + 1) / n, (spec.Z - v) / spec.Z)
                 for j, v in enumerate(x) if v <= spec.Z]
        k_c = math.fsum(gap * integrate.quad(lambda s: spec.dc_dx(fz, s), a, b)[0]
                        for a, b, gap in cells)
        k_pi = math.fsum(integrate.quad(lambda s: spec.dpi_dx(fz, s), a, b)[0]
                         for a, b, _ in cells)
        assert ours.K_c == pytest.approx(k_c, rel=1e-13)
        assert ours.K_pi == pytest.approx(k_pi, rel=1e-13)
