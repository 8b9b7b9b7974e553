"""Decomposability gap: exact estimates, the within-group variance vs a
brute-force seven-constant oracle, inference plumbing."""

import math

import numpy as np
import pytest

from indexlaw.decomposition import (SubgroupPartition, _tail, gap_estimate, gap_inference,
                                    gap_variance)
from indexlaw.distributions import EmpiricalDistribution, LogNormal, Mixture
from indexlaw.empirical import build_sample
from indexlaw.errors import NonFiniteValue, OutOfRange
from indexlaw.indices import NamedIndex, named_representation
from indexlaw.representation import confidence_interval


class TestPartition:
    def test_first_seen_mapping(self):
        p = SubgroupPartition.from_labels(["urban", "rural", "urban", "rural"])
        assert np.array_equal(p.labels, [1, 2, 1, 2])
        assert p.names == ("urban", "rural")

    @pytest.mark.parametrize("labels, position", [
        (np.array([np.nan, np.nan, 1.0, 1.0]), 0),
        ([1.0, 2.0, float("nan")], 2),
        (np.array([2.0, np.nan], dtype=np.float32), 1)])
    def test_nan_label_is_rejected(self, labels, position):
        with pytest.raises(NonFiniteValue, match=f"position {position}"):
            SubgroupPartition.from_labels(labels)

    def test_none_and_string_labels_are_groups(self):
        p = SubgroupPartition.from_labels([None, "nan", None, 3.0])
        assert np.array_equal(p.labels, [1, 2, 1, 3])
        assert p.names == (None, "nan", 3.0)

    @pytest.mark.parametrize("labels", [[1, 1, 2, 2, 3, 3], [0, 1, 2], [1, 1.5, 2], [[1, 2]]])
    def test_labels_outside_the_names_are_rejected(self, labels):
        # a label without a name was dropped from every group: with a third
        # group unnamed, the FGT(1) gap of six values read 0.1167, not 0
        with pytest.raises(OutOfRange):
            SubgroupPartition(labels=np.array(labels), names=("a", "b"))

    def test_group_count_is_the_names(self):
        with pytest.raises(TypeError):
            SubgroupPartition(labels=np.array([1, 2, 2]), n_groups=2, names=("a", "b"))
        assert SubgroupPartition(labels=np.array([1, 2, 2]), names=("a", "b")).n_groups == 2

    @pytest.mark.parametrize("n_labels", [100, 300])
    @pytest.mark.parametrize("entry", [gap_estimate, gap_inference])
    def test_partition_must_match_sample(self, entry, n_labels):
        s = build_sample(np.random.default_rng(2).lognormal(size=200))
        part = SubgroupPartition.from_labels(np.arange(n_labels) % 3)
        with pytest.raises(OutOfRange, match=f"{n_labels} labels .* 200 values"):
            entry(s, part, NamedIndex.sen(1.0))


class TestGapEstimate:
    def test_sen_two_group_oracle(self):
        # whole-sample Sen minus the half-half recomposition; by direct
        # evaluation of the display: 7/30 - (0.3 + 0.1)/2 = 1/30
        s = build_sample([1, 3, 2, 4])
        part = SubgroupPartition.from_labels([1, 1, 2, 2])
        assert gap_estimate(s, part, NamedIndex.sen(2.5)) == pytest.approx(1 / 30, abs=1e-14)

    def test_fgt_always_zero(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(5, 60))
            vals = rng.lognormal(size=n)
            labels = rng.integers(1, 1 + int(rng.integers(1, 5)), size=n)
            s = build_sample(vals)
            part = SubgroupPartition.from_labels(labels)
            for alpha in (0.0, 1.0, 2.0):
                assert abs(gap_estimate(s, part, NamedIndex.fgt(alpha, 1.0))) <= 1e-12

    def test_single_group_zero(self):
        s = build_sample([0.5, 1.5, 2.5])
        part = SubgroupPartition.from_labels([1, 1, 1])
        assert gap_estimate(s, part, NamedIndex.shorrocks(2.0)) == 0.0

    def test_relabel_invariance(self):
        rng = np.random.default_rng(5)
        vals = rng.lognormal(size=40)
        labels = rng.integers(0, 3, size=40)
        s = build_sample(vals)
        idx = NamedIndex.sen(1.0)
        g1 = gap_estimate(s, SubgroupPartition.from_labels(labels), idx)
        remap = {0: "c", 1: "a", 2: "b"}
        g2 = gap_estimate(s, SubgroupPartition.from_labels([remap[l] for l in labels]), idx)
        assert g1 == g2


def brute_theta1(p, groups, rep_builder):
    """Independent oracle: all seven constants by explicit cell sums.

    Works on empirical groups only, where every transformed integrand is a
    step function and the kernels have closed per-cell-pair integrals.
    """
    k = len(p)
    mix = Mixture(p, groups) if k > 1 else groups[0]
    rep = rep_builder(mix)
    reps = [rep_builder(g) for g in groups]
    h, q = rep.h, rep.q

    cells = []  # per group: (edges, hstar vals, c vals, q vals)
    for i, g in enumerate(groups):
        x = g.sample.values
        n = x.size
        edges = np.arange(n + 1) / n
        hstar = np.asarray(h(x), dtype=float) - np.asarray(reps[i].h(x), dtype=float)
        cvals = p[i] * np.asarray(q(x), dtype=float) - np.asarray(reps[i].q(x), dtype=float)
        qvals = np.asarray(q(x), dtype=float)
        cells.append((edges, hstar, cvals, qvals, x))

    def pair_min_integral(a, b, c, d):
        if b <= c:
            return 0.5 * (b * b - a * a) * (d - c)
        if d <= a:
            return 0.5 * (d * d - c * c) * (b - a)
        assert (a, b) == (c, d)
        return (b**3 - a**3) / 3.0 - a * a * (b - a)

    a1 = a2 = b1 = 0.0
    for i in range(k):
        edges, hstar, cvals, qvals, x = cells[i]
        n = hstar.size
        w = 1.0 / n
        mean_h = np.sum(hstar) * w
        a1 += p[i] * (np.sum(hstar**2) * w - mean_h**2)
        for j in range(n):
            for l in range(n):
                v = (pair_min_integral(edges[j], edges[j + 1], edges[l], edges[l + 1])
                     - 0.25 * (edges[j + 1]**2 - edges[j]**2) * (edges[l + 1]**2 - edges[l]**2))
                a2 += p[i] * cvals[j] * cvals[l] * v
        cum = np.concatenate([[0.0], np.cumsum(hstar) * w])
        total = cum[-1]
        for j in range(n):
            a, b = edges[j], edges[j + 1]
            piece = 0.5 * (cum[j] + cum[j + 1]) * (b - a) - total * 0.5 * (b * b - a * a)
            b1 += p[i] * piece * cvals[j]

    a31 = a32 = b2 = b3 = 0.0
    for i in range(k):
        edges_i, hstar_i, cvals_i, qvals_i, xi = cells[i]
        ni = xi.size
        for hg in range(k):
            if hg == i:
                continue
            u = np.asarray(groups[hg].cdf(xi), dtype=float)
            for j in range(ni):
                for l in range(ni):
                    a31 += (p[i]**2 * p[hg] * qvals_i[j] * qvals_i[l]
                            * (min(u[j], u[l]) - u[j] * u[l]) / ni / ni)
    for i in range(k):
        for j in range(k):
            if j == i:
                continue
            for hg in range(k):
                if hg in (i, j):
                    continue
                edges_i, _, _, qv_i, xi = cells[i]
                edges_j, _, _, qv_j, xj = cells[j]
                ui = np.asarray(groups[hg].cdf(xi), dtype=float)
                uj = np.asarray(groups[hg].cdf(xj), dtype=float)
                for a in range(xi.size):
                    for b in range(xj.size):
                        a32 += (p[i] * p[j] * p[hg] * qv_i[a] * qv_j[b]
                                * (min(ui[a], uj[b]) - ui[a] * uj[b]) / xi.size / xj.size)
    for j in range(k):
        edges_j, _, _, qv_j, xj = cells[j]
        nj = xj.size
        for i in range(k):
            if i == j:
                continue
            edges_i, hstar_i, cvals_i, _, xi = cells[i]
            ni = xi.size
            v = np.asarray(groups[i].cdf(xj), dtype=float)
            # B2: int (s ^ v - s v) c_i(s) ds per j-cell, exact over i-cells
            for b in range(nj):
                inner = 0.0
                for a in range(ni):
                    lo, hi = edges_i[a], edges_i[a + 1]
                    vb = v[b]
                    # int_lo^hi min(s, vb) ds
                    if vb <= lo:
                        mint = vb * (hi - lo)
                    elif vb >= hi:
                        mint = 0.5 * (hi * hi - lo * lo)
                    else:
                        mint = 0.5 * (vb * vb - lo * lo) + vb * (hi - vb)
                    inner += cvals_i[a] * (mint - vb * 0.5 * (hi * hi - lo * lo))
                b2 += p[j] * p[i] * inner * qv_j[b] / nj
            # B3: [C_hstar(v) - v * total] per j-cell
            knots = np.arange(ni + 1) / ni
            cumh = np.concatenate([[0.0], np.cumsum(hstar_i) / ni])
            for b in range(nj):
                cv = np.interp(v[b], knots, cumh)
                b3 += p[j] * p[i] * (cv - v[b] * cumh[-1]) * qv_j[b] / nj
    return a1 + a2 + a31 + a32 + 2.0 * (b1 + b2 + b3), (a1, a2, a31, a32, b1, b2, b3)


class TestGapVariance:
    def test_unit_q_tail_does_not_drift(self):
        # the q-mass at or above the j-th smallest of n values is (n - j)/n;
        # a plain suffix cumsum of 1/n drifts by 2.3e-12 at n = 2e5
        n = 200_000
        x = np.sort(np.random.default_rng(5).lognormal(size=n))
        tail = _tail(EmpiricalDistribution(build_sample(x)), np.ones_like, None)
        assert np.max(np.abs(tail(x) - (n - np.arange(n)) / n)) <= 2e-16
        assert tail(x[-1] + 1.0) == 0.0

    # ids "index0".."index2" are untied K = 3 groups; with "-ties" values lie
    # on a 0.1 grid and tie within and across groups, where a value of
    # another group tied with a group's cell must count as at or above it
    @pytest.mark.parametrize("index, k, ties", [
        pytest.param(index, k, ties, id=f"index{i}" + (f"-ties-k{k}" if ties else ""))
        for ties, k in ((False, 3), (True, 3), (True, 4))
        for i, index in enumerate((NamedIndex.shorrocks(1.0), NamedIndex.sen(1.0),
                                   NamedIndex.takayama(1.0)))])
    def test_constants_match_brute_force(self, index, k, ties):
        if ties:
            rng = np.random.default_rng(43)
            values = [np.maximum(np.round(rng.lognormal(size=m), 1), 0.1)
                      for m in (7, 9, 6, 8)[:k]]
            assert any(np.intersect1d(values[0], v).size for v in values[1:])
        else:
            rng = np.random.default_rng(42)
            values = [rng.lognormal(size=m) for m in (6, 8, 5)]
        groups = [EmpiricalDistribution(build_sample(v)) for v in values]
        p = [0.3, 0.5, 0.2] if k == 3 else [0.3, 0.3, 0.25, 0.15]
        builder = lambda m: named_representation(m, index)
        dec = gap_variance(p, groups, builder)
        want_theta1, _ = brute_theta1(p, groups, builder)
        assert dec.theta1_sq == pytest.approx(want_theta1, rel=1e-10)

    # ids "index0"/"index1" are the K = 3 cases; K = 4 and 5 give each group
    # the tails of three and four other groups
    @pytest.mark.parametrize("index, k", [
        pytest.param(index, k, id=f"index{i}" + (f"-k{k}" if k > 3 else ""))
        for k in (3, 4, 5)
        for i, index in enumerate((NamedIndex.shorrocks(1.0), NamedIndex.takayama(1.0)))])
    def test_a3_constants_match_dense_sum_large_groups(self, index, k):
        # theta1^2 = sum_g p_g Var(psi_g) with the cross-group part of psi_g
        # (whose variance is A31 + A32) built from the dense comparison
        # matrix of other groups' values against group g's; groups of a few
        # hundred points, so the suffix sums must order many values exactly
        rng = np.random.default_rng(17)
        groups = [EmpiricalDistribution(build_sample(rng.lognormal(mean=mu, sigma=0.8, size=m)))
                  for mu, m in ((-0.3, 300), (0.0, 420), (0.4, 250), (0.2, 280),
                                (-0.1, 350))[:k]]
        p = {3: [0.3, 0.45, 0.25], 4: [0.3, 0.3, 0.25, 0.15],
             5: [0.25, 0.3, 0.2, 0.15, 0.1]}[k]
        builder = lambda m: named_representation(m, index)
        dec = gap_variance(p, groups, builder)
        rep = builder(Mixture(p, groups))
        x = [g.sample.values for g in groups]
        want = 0.0
        for g in range(k):
            n = x[g].size
            rep_g = builder(groups[g])
            cross = sum(p[a] * (np.greater_equal.outer(x[a], x[g]).T.astype(float)
                                @ (rep.q(x[a]) / x[a].size))
                        for a in range(k) if a != g)
            c = p[g] * rep.q(x[g]) - rep_g.q(x[g])
            # psi_g on cell j is mid_j + c_j (1/(2n) - tau), tau in [0, 1/n]
            mid = (rep.h(x[g]) - rep_g.h(x[g]) + cross
                   + np.cumsum(c[::-1])[::-1] / n - c / (2 * n))
            want += p[g] * (np.mean((mid - np.mean(mid)) ** 2) + np.mean(c**2) / (12 * n * n))
        assert want > 0.0
        assert dec.theta1_sq == pytest.approx(want, rel=1e-12)

    def test_single_group_all_zero(self):
        g = EmpiricalDistribution(build_sample(np.linspace(0.2, 3.0, 25)))
        dec = gap_variance([1.0], [g], lambda m: named_representation(m, NamedIndex.sen(1.0)))
        assert dec.theta1_sq == 0.0
        assert dec.theta2_sq == 0.0
        assert dec.theta3_sq == 0.0

    def test_fgt_within_part_zero(self):
        rng = np.random.default_rng(9)
        groups = [EmpiricalDistribution(build_sample(rng.lognormal(size=30))) for _ in range(3)]
        dec = gap_variance([0.25, 0.25, 0.5], groups,
                           lambda m: named_representation(m, NamedIndex.fgt(1.0, 1.0)))
        assert dec.theta1_sq == 0.0
        assert dec.theta2_sq == 0.0
        # the plug-in-weighted centering keeps the multinomial dispersion of
        # the per-group index values
        want = float(np.array([0.25, 0.25, 0.5]) @ (dec.M - np.array([0.25, 0.25, 0.5]) @ dec.M) ** 2)
        assert dec.theta3_sq == pytest.approx(want)

    def test_weighted_variance_identity_nonnegative(self):
        rng = np.random.default_rng(3)
        groups = [EmpiricalDistribution(build_sample(rng.lognormal(size=20))) for _ in range(4)]
        dec = gap_variance([0.25] * 4, groups,
                           lambda m: named_representation(m, NamedIndex.shorrocks(1.0)))
        assert dec.theta2_sq >= 0.0
        assert dec.theta3_sq >= 0.0
        p = np.full(4, 0.25)
        assert dec.theta2_sq == pytest.approx(float(p @ dec.L**2 - (p @ dec.L) ** 2), abs=1e-12)

    def test_parametric_grid_convergence(self, mesh):
        groups = [LogNormal(0, 1), LogNormal(0.5, 1)]
        builder = lambda m: named_representation(m, NamedIndex.shorrocks(1.0))
        with mesh(grid=512):
            d1 = gap_variance([0.5, 0.5], groups, builder)
        with mesh(grid=1024):
            d2 = gap_variance([0.5, 0.5], groups, builder)
        assert d2.theta1_sq == pytest.approx(d1.theta1_sq, rel=0.005)
        # the rank-weighted kinds: 2,048 base cells are within 1e-2 of a four
        # times finer mesh
        for index in (NamedIndex.sen(1.0), NamedIndex.takayama(1.0)):
            builder = lambda m, _index=index: named_representation(m, _index)
            with mesh(grid=2048):
                coarse = gap_variance([0.5, 0.5], groups, builder)
            with mesh(grid=8192):
                fine = gap_variance([0.5, 0.5], groups, builder)
            assert coarse.theta1_sq == pytest.approx(fine.theta1_sq, rel=1e-2)

    def test_identical_groups_decomposable_score(self):
        # equal group laws with a q = 0 index: every L_i identical -> theta2 = 0
        g = EmpiricalDistribution(build_sample(np.geomspace(0.2, 3.0, 30)))
        dec = gap_variance([0.5, 0.5], [g, g],
                           lambda m: named_representation(m, NamedIndex.fgt(1.0, 1.0)))
        assert dec.theta2_sq == pytest.approx(0.0, abs=1e-15)
        assert dec.theta3_sq == pytest.approx(0.0, abs=1e-15)


class TestGapInference:
    def test_fgt_zero_gap_zero_width(self):
        rng = np.random.default_rng(1)
        vals = rng.lognormal(size=80)
        labels = rng.integers(1, 3, size=80)
        res = gap_inference(build_sample(vals), SubgroupPartition.from_labels(labels),
                            NamedIndex.fgt(1.0, 1.0))
        assert res.gap == pytest.approx(0.0, abs=1e-12)
        assert res.variance_gd == pytest.approx(0.0, abs=1e-12)
        assert res.ci_gd[0] == pytest.approx(res.ci_gd[1], abs=1e-9)

    def test_single_observation_group_warns(self):
        vals = [0.5, 1.5, 2.5, 0.7]
        labels = [1, 1, 1, 2]
        with pytest.warns(UserWarning):
            gap_inference(build_sample(vals), SubgroupPartition.from_labels(labels),
                          NamedIndex.fgt(0.0, 1.0))

    def test_gap_is_gap_estimate(self):
        rng = np.random.default_rng(12)
        vals = rng.lognormal(size=400)
        labels = rng.integers(0, 4, size=400)
        s = build_sample(vals)
        part = SubgroupPartition.from_labels(labels)
        for index in (NamedIndex.sen(1.0), NamedIndex.shorrocks(1.2)):
            res = gap_inference(s, part, index)
            assert res.gap == gap_estimate(s, part, index)
            assert res.group_estimates.size == 4

    def test_gd0_centering_uses_theta3(self):
        rng = np.random.default_rng(7)
        vals = rng.lognormal(size=60)
        labels = rng.integers(1, 3, size=60)
        s = build_sample(vals)
        res = gap_inference(s, SubgroupPartition.from_labels(labels),
                            NamedIndex.shorrocks(1.0), level=0.9)
        dec = res.decomposition
        assert res.variance_gd == dec.theta1_sq + dec.theta2_sq
        assert res.variance_gd0 == dec.theta1_sq + dec.theta3_sq
        for var, ci in ((res.variance_gd, res.ci_gd), (res.variance_gd0, res.ci_gd0)):
            assert ci == confidence_interval(res.gap, max(var, 0.0), s.n, 0.9)
