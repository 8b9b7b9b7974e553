"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here and nowhere else.
"""

import json
import math
import time

import numpy as np

from indexlaw.decomposition import SubgroupPartition, gap_estimate, gap_variance
from indexlaw.distributions import (EmpiricalDistribution, Exponential, LogNormal,
                                    Normal, Uniform)
from indexlaw.empirical import build_sample
from indexlaw.indices import NamedIndex, named_estimate, named_representation
from indexlaw.montecarlo import (coverage_experiment, cre2_diagnostic,
                                 decomposability_experiment, draw,
                                 normality_experiment)
from indexlaw.representation import IndexRepresentation, index_variance
from indexlaw.rng import stream_seed
from indexlaw.temporal import (BivariateFrame, ComonotoneCopula, GaussianCopula,
                               IndependenceCopula, mutual_variation_covariance,
                               temporal_joint_covariance)

ident = lambda x: np.asarray(x, dtype=float)
one = lambda x: np.ones_like(ident(x))
zero = lambda x: np.zeros_like(ident(x))


def report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def test_criterion_1_exact_formula_oracles():
    t0 = time.perf_counter()
    s4 = build_sample([1, 2, 3, 4])
    s2 = build_sample([1, 3])
    cases = [
        (named_estimate(s4, NamedIndex.fgt(1, 2.5)), 0.2),
        (named_estimate(s2, NamedIndex.sen(2.0)), 0.25),
        (named_estimate(s2, NamedIndex.shorrocks(2.0)), 0.375),
        (named_estimate(s2, NamedIndex.thon(2.0)), 1 / 3),
        (named_estimate(s2, NamedIndex.kakwani(1, 2.0)), 0.25),
        (named_estimate(s2, NamedIndex.takayama(2.0)), 0.5),
    ]
    for got, want in cases:
        assert abs(got - want) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"six exact point-estimate oracles at 1e-12 in {elapsed:.3f}s")


def test_criterion_2_headcount_ci_coverage():
    t0 = time.perf_counter()
    rep = coverage_experiment(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5),
                              n=1000, n_replicates=2000, level=0.95, master_seed=42)
    elapsed = time.perf_counter() - t0
    assert 0.935 <= rep.coverage <= 0.965
    assert elapsed < 60.0
    report(2, f"plug-in 95% CI coverage {rep.coverage:.4f} in [0.935, 0.965] "
              f"({elapsed:.1f}s)")


def test_criterion_3_normality_of_standardized_estimates():
    t0 = time.perf_counter()
    rep = normality_experiment(LogNormal(0, 1), NamedIndex.fgt(1.0, 1.0),
                               n=2000, n_replicates=2000, master_seed=7)
    elapsed = time.perf_counter() - t0
    assert rep.ks_stat < 0.04
    assert rep.ks_pvalue > 0.01
    assert elapsed < 120.0
    report(3, f"KS of standardized replicates {rep.ks_stat:.4f} < 0.04 "
              f"(p = {rep.ks_pvalue:.3f}, {elapsed:.1f}s)")


def test_criterion_4_analytic_integral_checks():
    # gamma2 of a unit weight is the bridge form 1/12 under any law, gamma3
    # of (x, 1) under U(0, 1) is -1/12, and a headcount at the median of a
    # sample has gamma1 = min(s, s) - s^2 = 1/4 at s = 1/2
    unit = IndexRepresentation(h=zero, q=one, value=lambda m: 0.0)
    for model in (Uniform(0, 1), LogNormal(0, 1), Exponential(1.0)):
        assert abs(index_variance(model, unit).gamma2 - 1 / 12) <= 1e-9
    cross = IndexRepresentation(h=ident, q=one, value=lambda m: 0.0)
    assert abs(index_variance(Uniform(0, 1), cross).gamma3 + 1 / 12) <= 1e-9
    sample = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
    headcount = named_representation(sample, NamedIndex.fgt(0.0, 2.5))
    assert index_variance(sample, headcount).gamma1 == 0.25
    report(4, "beta-beta 1/12, beta-cross -1/12, indicator kernel 0.25")


def test_criterion_5_moment_scores_and_variances():
    # (a) the order-2 influence score is the centered square
    model = EmpiricalDistribution(build_sample(
        np.sort(np.random.default_rng(50).lognormal(size=60))))
    rep = named_representation(model, NamedIndex.central_moment(2))
    m1 = model.raw_moment(1)
    pts = np.random.default_rng(51).uniform(-4, 4, size=20)
    assert np.max(np.abs(rep.h(pts) - (pts - m1) ** 2)) <= 1e-10

    # (b) plug-in variance of the sample variance under N(0,1), one draw
    sample = draw(Normal(0, 1), 100000, stream_seed(3, 0))
    plug = EmpiricalDistribution(sample)
    total = index_variance(plug, named_representation(plug, NamedIndex.central_moment(2))).total
    assert abs(total - 2.0) <= 0.02 * 2.0

    # (c) kurtosis-score variance 24 by simulation
    idx = NamedIndex.even_normalized(2)
    vals = np.empty(1000)
    for r in range(1000):
        s = draw(Normal(0, 1), 5000, stream_seed(3, r, channel=1))
        vals[r] = named_estimate(s, idx)
    mc = 5000 * np.var(vals)
    assert abs(mc - 24.0) <= 0.05 * 24.0
    report(5, f"A(2) score exact; plug-in variance {total:.4f} (2 +- 2%); "
              f"kurtosis MC variance {mc:.2f} (24 +- 5%)")


def test_criterion_6_decomposability():
    t0 = time.perf_counter()
    # (a) FGT gap identically zero over 100 random partitions
    rng = np.random.default_rng(600)
    for _ in range(100):
        n = int(rng.integers(5, 40))
        vals = rng.lognormal(size=n)
        k = int(rng.integers(1, 5))
        labels = rng.integers(1, k + 1, size=n)
        gap = gap_estimate(build_sample(vals), SubgroupPartition.from_labels(labels),
                           NamedIndex.fgt(float(rng.integers(0, 3)), 1.0))
        assert abs(gap) <= 1e-12
    # (b) single-group variance identically zero
    g = EmpiricalDistribution(build_sample(rng.lognormal(size=50)))
    dec = gap_variance([1.0], [g], lambda m: named_representation(m, NamedIndex.sen(1.0)))
    assert dec.theta1_sq == 0.0 and dec.theta2_sq == 0.0
    # (c) Shorrocks two-group experiment passes KS
    rep = decomposability_experiment([LogNormal(0, 1), LogNormal(0.5, 1)], [0.5, 0.5],
                                     NamedIndex.shorrocks(1.0), n=4000,
                                     n_replicates=500, master_seed=11)
    elapsed = time.perf_counter() - t0
    assert rep.ks_pvalue > 0.01
    assert elapsed < 300.0
    report(6, f"FGT gaps exact zeros; K=1 variance zero; Shorrocks experiment "
              f"KS p = {rep.ks_pvalue:.3f} > 0.01 ({elapsed:.1f}s)")


def test_criterion_7_temporal_laws():
    # (a) independent periods have zero cross-period weight covariance
    beta_only = IndexRepresentation(h=zero, q=one, value=lambda m: 0.0)
    frame_ind = BivariateFrame(Uniform(0, 1), Uniform(0, 1), IndependenceCopula())
    assert abs(temporal_joint_covariance(frame_ind, beta_only).cross) <= 1e-10
    # (b) perfectly dependent identical periods are degenerate
    margin = LogNormal(0, 1)
    srep = named_representation(margin, NamedIndex.sen(1.0))
    frame_com = BivariateFrame(margin, margin, ComonotoneCopula())
    assert temporal_joint_covariance(frame_com, srep).delta_var <= 1e-8
    # (c) the variance of the difference matches simulation for FGT(1) under
    # ten-percent growth (family and line free in the criterion; lognormal
    # incomes with Z = 1.5)
    z = 1.5
    l1, l2 = LogNormal(0, 1), LogNormal(math.log(1.1), 1)
    idx = NamedIndex.fgt(1.0, z)
    frame = BivariateFrame(l1, l2, ComonotoneCopula())
    dv = temporal_joint_covariance(frame, named_representation(l1, idx),
                                   rep2=named_representation(l2, idx)).delta_var
    n, reps = 2000, 1000
    deltas = np.empty(reps)
    for r in range(reps):
        x = draw(l1, n, stream_seed(5, r)).values
        deltas[r] = (named_estimate(build_sample(1.1 * x), idx)
                     - named_estimate(build_sample(x), idx))
    mc = n * np.var(deltas)
    assert abs(mc - dv) <= 0.10 * dv
    report(7, f"independence cross 0; comonotone degenerate; MC delta variance "
              f"{mc:.6f} within 10% of {dv:.6f}")


def test_criterion_8_cre2_diagnostic_decreases():
    out = cre2_diagnostic(Uniform(0, 1), ident, n_grid=[100, 400, 1600, 6400],
                          n_replicates=200, master_seed=9)
    vals = [v for _, v in out]
    assert vals[0] > vals[1] > vals[2] > vals[3]
    report(8, "residual-condition diagnostic strictly decreasing: "
              + ", ".join(f"{v:.5f}" for v in vals))


def test_criterion_9_randomized_joint_laws_psd(mesh):
    rng = np.random.default_rng(900)
    margins = [Uniform(0, 1), Uniform(0.1, 2.0), Exponential(1.0), LogNormal(0, 0.5)]

    def random_rep(scale):
        a, b, c = rng.normal(size=3) * scale
        zc = rng.uniform(0.2, 2.0)
        return IndexRepresentation(
            h=lambda x, a=a, b=b, zc=zc: a * ident(x) + b * np.where(ident(x) <= zc, 1.0, 0.0),
            q=lambda x, c=c, zc=zc: c * np.where(ident(x) <= zc, zc - ident(x), 0.0),
            value=lambda m: 0.0)

    worst = np.inf
    with mesh(grid=512):
        for trial in range(1000):
            m1, m2 = rng.choice(margins, 2, replace=True)
            cop = [IndependenceCopula(), ComonotoneCopula(),
                   GaussianCopula(rng.uniform(-0.9, 0.9))][int(rng.integers(0, 3))]
            scale = 10.0 ** rng.uniform(-2, 1)
            jm = mutual_variation_covariance(BivariateFrame(m1, m2, cop),
                                             random_rep(scale), random_rep(scale))
            assert np.array_equal(jm.matrix, jm.matrix.T)
            worst = min(worst, float(np.linalg.eigvalsh(jm.matrix).min()))
    assert worst >= -1e-9
    report(9, f"1000 randomized joint matrices symmetric PSD "
              f"(worst eigenvalue {worst:.2e})")


def test_criterion_10_determinism():
    def run():
        rep = decomposability_experiment([LogNormal(0, 1), LogNormal(0.5, 1)],
                                         [0.5, 0.5], NamedIndex.shorrocks(1.0),
                                         n=500, n_replicates=40, master_seed=11)
        return json.dumps(rep.to_dict(), sort_keys=True)

    first, second = run(), run()
    assert first == second
    rep_a = normality_experiment(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5),
                                 n=300, n_replicates=60, master_seed=42)
    rep_b = normality_experiment(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5),
                                 n=300, n_replicates=60, master_seed=42)
    assert json.dumps(rep_a.to_dict(), sort_keys=True) == json.dumps(
        rep_b.to_dict(), sort_keys=True)
    report(10, "seeded experiments reproduce byte-identical reports")
