"""Distribution models: AS241, families, empirical plug-in, mixtures, the
in-package QUADPACK and the batched quadrature of scores."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from indexlaw import distributions, indices, quadpack
from indexlaw.distributions import (DistributionModel, EmpiricalDistribution, Exponential,
                                    LogNormal, Mixture, Normal, Pareto, Uniform, normal_cdf,
                                    normal_quantile)
from indexlaw.empirical import build_sample
from indexlaw.errors import BadParams, NonFiniteIntegral, NonFiniteMoment, OutOfRange
from indexlaw.indices import GpiSpec, NamedIndex, gpi_constants, named_representation
from indexlaw.representation import index_variance


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model,k", [(LogNormal(0, 1), 200), (Uniform(0, 10), 400),
                                         (Exponential(1), 200), (Normal(0, 1), 400),
                                         (Pareto(1e200, 3.0), 2),
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


def scalar_integrate_score(model, f, breaks=(), one_element=False):
    """Per-point reference for ``integrate_score``: the same ``quad`` call on a
    scalar callback that evaluates ``f(Q(u))`` at one level at a time, on a
    0-d array through ``quantile`` or, with ``one_element``, on a 1-element
    array."""
    pts = sorted({float(model.cdf(b)) for b in breaks if 0.0 < model.cdf(b) < 1.0})

    def g(u):
        u = min(max(u, 1e-300), 1.0 - 1e-16)
        if one_element:
            return float(np.asarray(f(model.quantile(np.array([u]))), dtype=float)[0])
        return float(np.asarray(f(np.asarray(model.quantile(u)))))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(g, 0.0, 1.0, points=pts, limit=200)
    return float(val)


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


def _reference_numbers(monkeypatch, model, indices, **reference):
    """The catalog numbers with ``integrate_score`` replaced by the reference."""
    with monkeypatch.context() as m:
        m.setattr(DistributionModel, "integrate_score",
                  lambda self, f, breaks=(): scalar_integrate_score(self, f, breaks, **reference))
        return [_numbers(model, index) for index in indices]


class TestBatchedQuadrature:
    """``integrate_score`` evaluates f(Q(u)) in batches of QUADPACK nodes but
    returns what a per-point callback gives."""

    @pytest.mark.parametrize("name", BATCH_MODELS)
    def test_poverty_catalog_matches_scalar_reference(self, name, monkeypatch):
        model, z = BATCH_MODELS[name]
        indices = _poverty_catalog(z)
        want = _reference_numbers(monkeypatch, model, indices)
        for index, ref in zip(indices, want):
            assert np.array_equal(_numbers(model, index), ref), index.label()

    def test_pareto_within_round_off(self, monkeypatch):
        # on a 0-d input Pareto's (1 - s) ** (-1/a) is numpy scalar
        # arithmetic, which rounds some levels differently from the array loop
        model = Pareto(1.0, 5.0)
        indices = _poverty_catalog(1.3)
        want = _reference_numbers(monkeypatch, model, indices)
        for index, ref in zip(indices, want):
            assert _numbers(model, index) == pytest.approx(ref, rel=1e-12, abs=0), index.label()

    @pytest.mark.parametrize("model", [Normal(2, 1), Exponential(1.0), Uniform(0, 2),
                                       Pareto(1.0, 12.0)], ids=lambda m: type(m).__name__)
    def test_moment_catalog_matches_one_element_reference(self, model, monkeypatch):
        # the moment scores raise a 0-d input to powers in numpy scalar
        # arithmetic; on a 1-element array they round as in the batch
        indices = _moment_catalog()
        want = _reference_numbers(monkeypatch, model, indices, one_element=True)
        for index, ref in zip(indices, want):
            assert np.array_equal(_numbers(model, index), ref), index.label()

    def test_levels_evaluated_alone(self, monkeypatch):
        model = LogNormal(0, 1)
        rep = named_representation(model, NamedIndex.sen(1.0))
        batched = model.integrate_score(rep.h, breaks=rep.breaks)
        sizes = []

        def h(x):
            sizes.append(np.size(x))
            return rep.h(x)

        def alone(f, **kwargs):
            return quadpack.quad(
                lambda u: np.concatenate([f(u[i:i + 1]) for i in range(u.size)]), **kwargs)

        # every node of each rule pass evaluated on its own 1-element array
        monkeypatch.setattr(distributions, "quad", alone)
        assert model.integrate_score(h, breaks=rep.breaks) == batched
        assert set(sizes) == {1} and len(sizes) > 100

    def test_few_array_calls(self):
        model = LogNormal(0, 1)
        rep = named_representation(model, NamedIndex.sen(1.0))
        for f in (rep.h, lambda x: rep.h(x) ** 2):
            sizes = []

            def counted(x, f=f):
                sizes.append(np.size(x))
                return f(x)

            model.integrate_score(counted, breaks=rep.breaks)
            # one call for both initial intervals and one per bisection
            assert len(sizes) <= 10 and set(sizes) == {42}, sizes


def scipy_quad(f, points=()):
    """``scipy.integrate.quad`` on (0, 1) at ``limit=200`` with a per-point
    callback that evaluates the vectorized ``f`` on a 1-element array:
    (result, abserr, converged).  A list of points, empty too, runs SciPy's
    ``dqagpe``; ``points=None`` runs its ``dqagse``."""
    def g(u):
        return float(np.asarray(f(np.array([u])), dtype=float)[0])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(g, 0.0, 1.0, points=None if points is None else list(points),
                             limit=200, full_output=1)
    # a fourth item, the message, comes only with a nonzero ier
    return out[0], out[1], len(out) == 3


def _jump(u):
    return np.where(u < 0.3, 1.0, 2.5) * np.exp(u)


# integrand, points; log u, u^-0.9 and 1/sqrt(u) need the epsilon-algorithm
# extrapolation, sin(1/u) near u = 0 exhausts the 200 subintervals
_QUAD_CASES = {
    "log": (np.log, ()),
    "power-0.9": (lambda u: u ** -0.9, ()),
    "inverse-sqrt": (lambda u: 1.0 / np.sqrt(u), ()),
    "jump-no-break": (_jump, ()),
    "jump-break": (_jump, [0.3]),
    "jump-break-repeated-and-outside": (_jump, [1.5, 0.3, 0.3, 0.0]),
    "two-breaks": (lambda u: np.where(u < 0.3, 1.0, 2.5) + np.where(u < 0.7, 0.0, u ** 2),
                   [0.7, 0.3]),
    "power-at-break": (lambda u: np.abs(u - 0.4) ** -0.8, [0.4]),
    "log-at-break": (lambda u: np.log(np.abs(u - 0.45)), [0.45]),
    "hits-limit": (lambda u: np.sin(1.0 / (u + 1e-4)), ()),
    "hits-limit-with-break": (lambda u: np.sin(1.0 / (u + 1e-4)), [0.5]),
}


class TestQuadpack:
    """``quadpack.quad`` returns SciPy's numbers bit for bit."""

    @pytest.mark.parametrize("name", _QUAD_CASES)
    def test_matches_scipy(self, name):
        f, points = _QUAD_CASES[name]
        result, abserr, ier = quadpack.quad(f, points=points)
        assert (result, abserr, ier == 0) == scipy_quad(f, points)
        if not points:
            # SciPy's dqagse, which runs without points, agrees on these
            assert (result, abserr, ier == 0) == scipy_quad(f, None)
        if name.startswith("hits-limit"):
            assert ier == 1

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(0.01, 0.99), p=st.floats(0.05, 0.95), jump=st.floats(-2.0, 2.0),
           at_s=st.booleans(), extra=st.lists(st.floats(0.0, 1.0), max_size=2))
    def test_singularity_and_break_points(self, s, p, jump, at_s, extra):
        def f(u):
            with np.errstate(divide="ignore"):
                return np.abs(u - s) ** -p + jump * (u > s)

        points = [s, *extra] if at_s else extra
        result, abserr, ier = quadpack.quad(f, points=points)
        want = scipy_quad(f, points)
        assert np.array_equal([result, abserr, ier == 0], want, equal_nan=True)

    def test_most_break_points(self):
        points = np.linspace(0.0, 1.0, 200)[1:-1].tolist()
        assert quadpack.quad(np.exp, points=points)[:2] == scipy_quad(np.exp, points)[:2]
        with pytest.raises(ValueError, match="at most 198 break points, got 199"):
            quadpack.quad(np.exp, points=[*points, 0.5 / 199])

    def test_gpi_constants_match_scipy(self, monkeypatch):
        # Kakwani(2) in GPI form, with the x-partials left to central differences
        spec = GpiSpec(A=lambda Q, n, Z: Q, w=lambda t: t ** 2, d=np.asarray, mu=(0, 1, 1, 1),
                       c=lambda x, y: 3 * (1 - y / x) ** 2,
                       pi=lambda x, y: 3 * y ** 2 / x ** 3, Z=1.0)
        model = LogNormal(0, 1)
        ours = gpi_constants(model, spec)
        with monkeypatch.context() as m:
            m.setattr(indices, "quad", lambda f, points: (*scipy_quad(f, points)[:2], 0))
            want = gpi_constants(model, spec)
        assert ours == want and ours.K_c != 0.0 and ours.K_pi != 0.0

    @pytest.mark.parametrize("score, breaks", [
        (lambda x: np.full_like(x, np.nan), ()),
        (lambda x: np.where(x > 2.0, np.nan, x), (2.0,)),
        (lambda x: np.where(x > 30.0, np.nan, x), ()),
    ], ids=["everywhere", "above-break", "far-tail"])
    def test_nan_score_raises(self, score, breaks):
        with pytest.raises(NonFiniteIntegral):
            LogNormal(0, 1).integrate_score(score, breaks=breaks)
