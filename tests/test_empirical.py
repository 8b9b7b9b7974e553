"""Order statistics, empirical functions, ranks and the fep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexlaw import (build_sample, ecdf, empirical_measure, equantile, fep,
                      ranks, residual_stat)
from indexlaw.distributions import EmpiricalDistribution, Uniform
from indexlaw.errors import EmptySample, NonFiniteValue, OutOfRange
from indexlaw.temporal import empirical_copula

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestBuildSample:
    def test_sorts(self):
        s = build_sample([3, 1, 2])
        assert np.array_equal(s.values, [1, 2, 3])
        assert s.n == 3

    def test_singleton(self):
        s = build_sample([5])
        assert np.array_equal(s.values, [5]) and s.n == 1

    def test_ties_kept(self):
        s = build_sample([1, 2, 2, 5])
        assert np.array_equal(s.values, [1, 2, 2, 5])

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            build_sample([])

    def test_nonfinite_reports_position(self):
        with pytest.raises(NonFiniteValue) as exc:
            build_sample([1.0, float("nan"), 2.0])
        assert exc.value.index == 1

    def test_input_order_recoverable(self):
        raw = [3.0, 1.0, 2.0, 1.0]
        s = build_sample(raw)
        assert np.array_equal(s.input_values(), raw)

    def test_caller_array_not_shared(self):
        raw = np.array([3.0, 1.0, 2.0, 1.0])
        s = build_sample(raw)
        raw[:] = 9.0
        assert np.array_equal(s.values, [1.0, 1.0, 2.0, 3.0])
        assert np.array_equal(s.input_values(), [3.0, 1.0, 2.0, 1.0])
        for arr in (s.values, s.input_values()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestEcdfQuantile:
    @pytest.mark.parametrize("x,want", [(2, 0.75), (0, 0.0), (5, 1.0)])
    def test_ecdf_examples(self, x, want):
        s = build_sample([1, 2, 2, 5])
        assert ecdf(s, x) == want

    @pytest.mark.parametrize("s_level,want", [(0.5, 2.0), (0.25, 1.0), (1.0, 5.0)])
    def test_equantile_examples(self, s_level, want):
        s = build_sample([1, 2, 2, 5])
        assert equantile(s, s_level) == want

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001])
    def test_equantile_range(self, bad):
        with pytest.raises(OutOfRange):
            equantile(build_sample([1, 2]), bad)

    def test_step_structure(self):
        s = build_sample([1, 2, 2, 5])
        # jumps of multiplicity/n at distinct values
        assert ecdf(s, 1) == 0.25
        assert ecdf(s, 2 - 1e-12) == 0.25
        assert ecdf(s, 2) == 0.75

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=30),
           st.floats(min_value=1e-9, max_value=1.0),
           finite_floats)
    def test_generalized_inverse(self, vals, s_level, x):
        sample = build_sample(vals)
        left = equantile(sample, s_level) <= x
        right = s_level <= ecdf(sample, x)
        assert left == right

    def test_composition_identity(self):
        # quantile(ecdf(X_(j))) == X_(j) for every order statistic
        s = build_sample([0.3, 1.7, 1.7, 2.0, 5.5])
        for v in s.values:
            assert equantile(s, ecdf(s, v)) == v


class TestRanks:
    @pytest.mark.parametrize("vals,want", [
        ([1, 3], [1, 2]),
        ([3, 1, 2], [3, 1, 2]),
        ([2, 2], [2, 2]),  # max-rank tie convention
    ])
    def test_examples(self, vals, want):
        assert np.array_equal(ranks(build_sample(vals)), want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=25))
    def test_rank_identity(self, vals):
        # R_j = n * ecdf(X_j), exactly, including ties
        s = build_sample(list(map(float, vals)))
        r = ranks(s)
        inp = s.input_values()
        assert np.array_equal(r, [round(s.n * ecdf(s, x)) for x in inp])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=-4, max_value=4),
                              st.integers(min_value=-4, max_value=4)), min_size=2, max_size=40))
    def test_ranks_match_searchsorted(self, pairs):
        # the max-rank formula searching every value in the sorted column
        arr = np.array(pairs, dtype=float)
        n = len(pairs)
        cop = empirical_copula(arr)
        for col, got in ((arr[:, 0], cop.u_ranks), (arr[:, 1], cop.v_ranks)):
            want = np.searchsorted(np.sort(col), col, side="right")
            assert np.array_equal(ranks(build_sample(col)), want)
            assert np.array_equal(got, want / n)


class TestFep:
    def test_measure_examples(self):
        assert empirical_measure(build_sample([1, 3]), lambda x: x) == 2.0
        assert empirical_measure(build_sample([7, 2]), lambda x: np.full_like(x, 3.0)) == 3.0
        assert empirical_measure(build_sample([1, 2, 3]), lambda x: x ** 2) == pytest.approx(14 / 3)

    def test_fep_examples(self):
        assert fep(build_sample([1, 3]), lambda x: x, 2.0) == 0.0
        assert fep(build_sample([1, 3]), lambda x: x, 0.0) == pytest.approx(2 * math.sqrt(2))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=20),
           st.floats(min_value=-10, max_value=10),
           st.floats(min_value=-10, max_value=10))
    def test_linearity(self, vals, a, b):
        s = build_sample(vals)
        f = lambda x: np.sin(x / 1e3)
        g = lambda x: x / 1e3
        lhs = fep(s, lambda x: a * f(x) + b * g(x), 0.0)
        rhs = a * fep(s, f, 0.0) + b * fep(s, g, 0.0)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestResidual:
    def test_zero_weight(self):
        s = build_sample([0.1, 0.9])
        assert residual_stat(s, lambda x: np.zeros_like(x), Uniform(0, 1)) == 0.0

    def test_plug_in_is_zero(self):
        s = build_sample([0.2, 0.5, 0.9])
        model = EmpiricalDistribution(s)
        assert residual_stat(s, lambda x: np.ones_like(x), model) == 0.0

    def test_uniform_example(self):
        # ((0.5 - 0.25) + (1 - 0.75)) / 2 = 0.25
        s = build_sample([0.25, 0.75])
        assert residual_stat(s, lambda x: np.ones_like(x), Uniform(0, 1)) == pytest.approx(0.25)
