"""Two-period frame: copula models, joint laws, variations."""

import itertools
import math

import numpy as np
import pytest

from indexlaw.distributions import (EmpiricalDistribution, Exponential, LogNormal,
                                    Uniform, normal_quantile)
from indexlaw.errors import (BadParams, NonFiniteValue, OutOfRange, TooFewPairs,
                             ZeroBaseIndex)
from indexlaw.indices import NamedIndex, named_representation
from indexlaw.representation import (IndexRepresentation, index_cross_covariance,
                                     index_variance, score_model, u_atoms)
from indexlaw.rng import stream_seed, uniforms
from indexlaw.temporal import (BivariateFrame, ComonotoneCopula,
                               GaussianCopula, IndependenceCopula,
                               empirical_copula, mutual_relative_covariance,
                               mutual_variation_covariance, relative_variation_law,
                               temporal_joint_covariance)
from indexlaw.ugrid import CellPoly, covariance

one = lambda x: np.ones_like(np.asarray(x, dtype=float))
zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
beta_only = IndexRepresentation(h=zero, q=one, value=lambda m: 0.0)


class TestCopulaModels:
    @pytest.mark.parametrize("cop", [IndependenceCopula(), ComonotoneCopula(),
                                     GaussianCopula(0.6), GaussianCopula(-0.4)])
    def test_grounded_and_margins(self, cop):
        u = np.linspace(0.05, 0.95, 10)
        assert np.allclose(cop.eval(np.zeros_like(u), u), 0.0, atol=1e-9)
        assert np.allclose(cop.eval(u, np.ones_like(u)), u, atol=1e-9)
        assert np.allclose(cop.eval(np.ones_like(u), u), u, atol=1e-9)

    @pytest.mark.parametrize("cop", [IndependenceCopula(), ComonotoneCopula(),
                                     GaussianCopula(0.5)])
    def test_two_increasing(self, cop):
        rng = np.random.default_rng(1)
        for _ in range(25):
            u1, u2 = np.sort(rng.uniform(0.01, 0.99, 2))
            v1, v2 = np.sort(rng.uniform(0.01, 0.99, 2))
            vol = (cop.eval(u2, v2) - cop.eval(u1, v2)
                   - cop.eval(u2, v1) + cop.eval(u1, v1))
            assert vol >= -1e-9

    def test_gaussian_rho_range(self):
        with pytest.raises(BadParams):
            GaussianCopula(1.0)


class TestEmpiricalCopula:
    def test_comonotone_pairs(self):
        x = np.linspace(0, 1, 50)
        cop = empirical_copula(np.column_stack([x, x]))
        for u, v in [(0.3, 0.8), (0.5, 0.5), (0.9, 0.2)]:
            assert cop.eval(u, v) == pytest.approx(min(u, v), abs=1 / 50)

    def test_countermonotone_pairs(self):
        x = np.linspace(0, 1, 50)
        cop = empirical_copula(np.column_stack([x, -x]))
        for u, v in [(0.3, 0.8), (0.5, 0.5), (0.9, 0.2)]:
            assert cop.eval(u, v) == pytest.approx(max(u + v - 1, 0.0), abs=1 / 50)

    def test_corner(self):
        cop = empirical_copula([[1, 2], [3, 1], [2, 5]])
        assert cop.eval(1.0, 1.0) == 1.0

    def test_too_few(self):
        with pytest.raises(TooFewPairs):
            empirical_copula([[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_pair_rejected(self, bad):
        pairs = [[1.0, 2.0], [3.0, 1.0], [2.0, 5.0], [4.0, 4.0]]
        pairs[2][1] = bad
        pairs[3][0] = bad
        with pytest.raises(NonFiniteValue) as err:
            empirical_copula(pairs)
        assert err.value.index == 2

    def test_gaussian_pairs_converge(self):
        # sup-norm against the analytic Gaussian copula <= 2/sqrt(n) at n = 1e4
        rho, n = 0.5, 10000
        z1 = np.asarray(normal_quantile(uniforms(stream_seed(77, 0), n)))
        z2 = np.asarray(normal_quantile(uniforms(stream_seed(77, 1), n)))
        y = rho * z1 + math.sqrt(1 - rho * rho) * z2
        emp = empirical_copula(np.column_stack([z1, y]))
        ana = GaussianCopula(rho)
        grid = np.linspace(0.05, 0.95, 19)
        uu, vv = np.meshgrid(grid, grid)
        assert np.max(np.abs(emp.eval(uu, vv) - ana.eval(uu, vv))) <= 2 / math.sqrt(n)


class TestJointCovariance:
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

    def test_psd_randomized(self):
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
            jm = mutual_variation_covariance(frame, rep_i, rep_j, rep_j2=rep_j2,
                                             grid=512, copula_grid=256)
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
            assert jm.matrix[a, b] == same.cross_cov(phi[a], phi[b], 512)
        for a, b in ((0, 1), (2, 3), (0, 3), (2, 1)):
            assert jm.matrix[a, b] == jm.matrix[b, a] == cop.cross_cov(phi[a], phi[b], 512)
        assert cop.cross_cov(phi[1], phi[2], 512) != jm.matrix[1, 2]


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
        within = (hm * hm).integral() - hm.integral() ** 2
        assert cop.cross_cov(hm, hm, 512) == pytest.approx(within, abs=1e-14)


def _random_score_weight(rng, m, step):
    """A random score h and the tail integral W of a random weight on m
    cells: step functions when ``step`` (the empirical case), piecewise-linear
    interpolants otherwise."""
    make = CellPoly.from_cells if step else CellPoly.from_nodes
    hm = make(rng.normal(size=m if step else m + 1))
    lm = make(rng.normal(size=m if step else m + 1))
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
    def test_summed_call_equals_four_brackets(self, cop, seed):
        # the call on the u-functions h + W equals the four score/weight
        # brackets, so one atom per period carries the whole covariance
        rng = np.random.default_rng(seed)
        step = rng.uniform() < 0.5
        m1, m2 = (int(m) for m in rng.integers(20, 90, size=2))
        for b_cells in (m1, m2):  # equal and (usually) unequal grids across periods
            a, b = _random_score_weight(rng, m1, step), _random_score_weight(rng, b_cells, step)
            brackets = [cop.cross_cov(p, q, 96) for p in a for q in b]
            got = cop.cross_cov(a[0] + a[1], b[0] + b[1], 96)
            scale = sum(abs(x) for x in brackets)
            if getattr(cop, "rho", None) == 0.0:
                # every bracket is 0 up to cancellation; measure against the
                # size of the terms that cancel instead
                mid = (np.arange(96) + 0.5) / 96
                scale = sum(np.mean(np.abs(p.eval(mid))) * np.mean(np.abs(q.eval(mid)))
                            for p in a for q in b)
            assert abs(got - sum(brackets)) <= 1e-12 * scale


class TestGaussianDensityOnce:
    def _reps(self, frame):
        idx = (NamedIndex.sen(1.0), NamedIndex.fgt(1.0, 1.0))
        return ([named_representation(frame.margin1, ix) for ix in idx]
                + [named_representation(frame.margin2, ix) for ix in idx])

    def test_one_density_per_joint_law(self, monkeypatch):
        calls = {"density_grid": 0, "cross_cov": 0}
        for name in calls:
            original = getattr(GaussianCopula, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(GaussianCopula, name, counted)
        frame = BivariateFrame(LogNormal(0, 1), LogNormal(0.1, 0.9), GaussianCopula(0.4))
        r = self._reps(frame)
        mutual_variation_covariance(frame, r[0], r[1], r[2], r[3], grid=256, copula_grid=128)
        assert calls == {"density_grid": 1, "cross_cov": 4}

    def test_memo_follows_rho(self):
        frame = BivariateFrame(LogNormal(0, 1), LogNormal(0.1, 0.9), GaussianCopula(0.4))
        r = self._reps(frame)
        mutual_variation_covariance(frame, r[0], r[1], grid=256, copula_grid=128)
        frame.copula.rho = -0.3
        moved = mutual_variation_covariance(frame, r[0], r[1], grid=256, copula_grid=128)
        fresh = BivariateFrame(frame.margin1, frame.margin2, GaussianCopula(-0.3))
        want = mutual_variation_covariance(fresh, r[0], r[1], grid=256, copula_grid=128)
        assert np.array_equal(moved.matrix, want.matrix)

    @pytest.mark.parametrize("copula_grid", [0, -3, 2.5])
    def test_bad_copula_grid(self, copula_grid):
        frame = BivariateFrame(LogNormal(0, 1), LogNormal(0.1, 0.9), GaussianCopula(0.4))
        r = self._reps(frame)
        with pytest.raises(OutOfRange):
            mutual_variation_covariance(frame, r[0], r[1], grid=64, copula_grid=copula_grid)
        with pytest.raises(OutOfRange):
            frame.copula.density_grid(copula_grid)
