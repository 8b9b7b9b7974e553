"""Simulation harness: determinism, KS machinery, experiment behavior."""

import json
import math
import warnings

import numpy as np
import pytest

from indexlaw.decomposition import _recompose, gap_variance
from indexlaw.distributions import EmpiricalDistribution, Exponential, LogNormal, Mixture, Uniform
from indexlaw.empirical import build_sample
from indexlaw.errors import BadParams, BadWeights, ZeroVariance
from indexlaw.indices import NamedIndex, named_estimate, named_representation
from indexlaw.montecarlo import (McReport, coverage_experiment, cre2_diagnostic,
                                 decomposability_experiment, draw, ks_pvalue,
                                 ks_statistic, normality_experiment)
from indexlaw.representation import confidence_interval, index_variance
from indexlaw.rng import stream_seed, uniforms

ident = lambda x: np.asarray(x, dtype=float)


class TestDraw:
    def test_uniform_range(self):
        s = draw(Uniform(0, 1), 500, stream_seed(3, 0))
        assert s.values.min() > 0.0 and s.values.max() < 1.0

    def test_determinism(self):
        a = draw(LogNormal(0, 1), 100, stream_seed(11, 4))
        b = draw(LogNormal(0, 1), 100, stream_seed(11, 4))
        assert np.array_equal(a.values, b.values)

    def test_lognormal_mean(self):
        s = draw(LogNormal(0, 1), 100000, stream_seed(1, 0))
        want = np.exp(0.5)
        se = np.sqrt((np.exp(2) - np.exp(1)) / 100000)
        assert abs(np.mean(s.values) - want) < 4 * se

    def test_bad_n(self):
        with pytest.raises(BadParams):
            draw(Uniform(0, 1), 0, 1)


class TestKs:
    def test_uniform_sanity(self):
        u = uniforms(stream_seed(1, 0), 10000)
        d = ks_statistic(u, cdf=lambda x: np.clip(x, 0, 1))
        assert ks_pvalue(d, 10000) > 0.001

    def test_exponential_vs_uniform(self):
        u = uniforms(stream_seed(1, 0), 10000)
        e = np.asarray(Exponential(1.0).quantile(u))
        d = ks_statistic(e, cdf=lambda x: np.clip(x, 0, 1))
        assert ks_pvalue(d, 10000) < 1e-6

    def test_pvalue_monotone(self):
        assert ks_pvalue(0.01, 100) > ks_pvalue(0.2, 100)
        assert ks_pvalue(0.0, 50) == 1.0


class TestNormalityExperiment:
    def test_headcount_uniform(self):
        rep = normality_experiment(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5),
                                   n=1000, n_replicates=2000, master_seed=42)
        assert rep.ks_pvalue > 0.01
        assert rep.extra["variance"] == pytest.approx(0.25, abs=1e-10)

    def test_zero_variance_refused(self):
        # an index whose score is constant: central moment of order 1
        with pytest.raises(ZeroVariance):
            normality_experiment(Uniform(0, 1), NamedIndex.central_moment(1),
                                 n=100, n_replicates=10, master_seed=0)

    def test_degenerate_family_rejected(self):
        with pytest.raises(BadParams):
            Uniform(1.0, 1.0)


class TestCoverageExperiment:
    def test_small_sample_completes(self):
        rep = coverage_experiment(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5),
                                  n=10, n_replicates=25, level=0.95, master_seed=2)
        assert 0.0 <= rep.coverage <= 1.0

    def test_level_monotone(self):
        lo = coverage_experiment(LogNormal(0, 1), NamedIndex.fgt(1.0, 1.0),
                                 n=200, n_replicates=60, level=0.5, master_seed=6)
        hi = coverage_experiment(LogNormal(0, 1), NamedIndex.fgt(1.0, 1.0),
                                 n=200, n_replicates=60, level=0.999, master_seed=6)
        assert hi.coverage >= lo.coverage


class TestCre2:
    def test_constant_weight_vanishes(self):
        out = cre2_diagnostic(Uniform(0, 1), lambda x: np.ones_like(ident(x)),
                              n_grid=[50, 100], n_replicates=10, master_seed=4)
        assert all(v == 0.0 for _, v in out)

    def test_continuous_weight_decreases(self):
        out = cre2_diagnostic(Uniform(0, 1), ident, n_grid=[100, 400, 1600],
                              n_replicates=60, master_seed=9)
        vals = [v for _, v in out]
        assert vals[0] > vals[1] > vals[2]


class TestDecomposabilityExperiment:
    def test_fgt_gaps_zero(self):
        rep = decomposability_experiment([LogNormal(0, 1), LogNormal(0.5, 1)], [0.5, 0.5],
                                         NamedIndex.fgt(1.0, 1.0), n=300,
                                         n_replicates=20, master_seed=3)
        assert np.max(np.abs(rep.replicate_values)) <= 1e-12

    def test_empty_group_in_a_replicate(self):
        # with n = 40 and weights 0.02 some replicates draw nobody into a
        # group; the recomposition skips it and the gap stays finite
        p, n, seed = [0.96, 0.02, 0.02], 40, 8
        cut = np.cumsum(p)[:-1]
        empty = [np.unique(np.searchsorted(cut, uniforms(stream_seed(seed, r, channel=0), n),
                                           side="left")).size < 3 for r in range(10)]
        assert any(empty)
        rep = decomposability_experiment([LogNormal(0, 1), LogNormal(0.5, 1), LogNormal(-0.5, 1)],
                                         p, NamedIndex.shorrocks(1.0), n=n,
                                         n_replicates=10, master_seed=seed)
        assert np.all(np.isfinite(rep.replicate_values))
        assert np.all(np.isfinite(rep.standardized))

    @pytest.mark.parametrize("families, weights", [
        ([LogNormal(0, 1), LogNormal(0.5, 1)], [0.7, 0.7]),
        ([LogNormal(0, 1), LogNormal(0.5, 1)], [1.0]),
    ], ids=["sum", "align"])
    def test_bad_weights_checked_by_gap_variance(self, families, weights):
        with pytest.raises(BadWeights):
            decomposability_experiment(families, weights, NamedIndex.shorrocks(1.0), n=50,
                                       n_replicates=5, master_seed=1)

    def test_single_group_gaps_zero(self):
        rep = decomposability_experiment([LogNormal(0, 1)], [1.0],
                                         NamedIndex.shorrocks(1.0), n=200,
                                         n_replicates=10, master_seed=3)
        assert np.max(np.abs(rep.replicate_values)) <= 1e-15


@pytest.mark.parametrize("run", [
    lambda: normality_experiment(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5), n=50,
                                 n_replicates=0, master_seed=1),
    lambda: coverage_experiment(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5), n=50,
                                n_replicates=0, level=0.95, master_seed=1),
    lambda: cre2_diagnostic(Uniform(0, 1), ident, n_grid=[50], n_replicates=0,
                            master_seed=1),
    lambda: cre2_diagnostic(Uniform(0, 1), ident, n_grid=[50, 0], n_replicates=5,
                            master_seed=1),
    lambda: decomposability_experiment([LogNormal(0, 1), LogNormal(0.5, 1)], [0.5, 0.5],
                                       NamedIndex.shorrocks(1.0), n=50, n_replicates=0,
                                       master_seed=1),
], ids=["normality", "coverage", "cre2", "cre2-n-zero", "decomposability"])
def test_no_replicates_rejected(run):
    # rejected before any work: a numpy warning on the way would fail the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams):
            run()


def _run_counts(name, n, reps):
    fgt = NamedIndex.fgt(0.0, 0.5)
    if name == "draw":
        return draw(Uniform(0, 1), n, 1)
    if name == "normality":
        return normality_experiment(Uniform(0, 1), fgt, n=n, n_replicates=reps, master_seed=1)
    if name == "coverage":
        return coverage_experiment(Uniform(0, 1), fgt, n=n, n_replicates=reps, level=0.95,
                                   master_seed=1)
    if name == "cre2":
        return cre2_diagnostic(Uniform(0, 1), ident, n_grid=[30, n], n_replicates=reps,
                               master_seed=1)
    return decomposability_experiment([LogNormal(0, 1), LogNormal(0.5, 1)], [0.5, 0.5],
                                      NamedIndex.shorrocks(1.0), n=n, n_replicates=reps,
                                      master_seed=1)


_COUNTS = [("draw", "n")] + [(name, which) for name in
                              ("normality", "coverage", "cre2", "decomposability")
                              for which in ("n", "n_replicates")]


@pytest.mark.parametrize("bad", [2.5, 20.0, True, "3", None, np.float64(3.0)],
                         ids=["2.5", "20.0", "bool", "str", "none", "np-float"])
@pytest.mark.parametrize("name, which", _COUNTS, ids=[f"{n}-{w}" for n, w in _COUNTS])
def test_counts_must_be_integers(name, which, bad):
    # n is a draw count or, for cre2, one n_grid entry; rejected before any work
    n, reps = (bad, 3) if which == "n" else (30, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams):
            _run_counts(name, n, reps)


@pytest.mark.parametrize("name", ["draw", "normality", "coverage", "cre2", "decomposability"])
def test_numpy_integer_counts_accepted(name):
    out = _run_counts(name, np.int64(30), np.int32(3))
    if name == "cre2":
        assert out == _run_counts(name, 30, 3)
    else:
        assert out.n == 30


class TestDeterminism:
    def test_reports_bit_identical(self):
        a = normality_experiment(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5),
                                 n=200, n_replicates=50, master_seed=5)
        b = normality_experiment(Uniform(0, 1), NamedIndex.fgt(0.0, 0.5),
                                 n=200, n_replicates=50, master_seed=5)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_replicate_order_insensitive(self):
        # substreams are counter-derived: replicate r's sample is the same no
        # matter how many replicates run
        s3 = draw(Uniform(0, 1), 10, stream_seed(9, 3))
        full = [draw(Uniform(0, 1), 10, stream_seed(9, r)) for r in range(5)]
        assert np.array_equal(s3.values, full[3].values)

    def test_discontinuous_weight_reports_without_failing(self):
        # an indicator weight need not produce a decreasing diagnostic; the
        # run must still complete and report finite values
        out = cre2_diagnostic(Uniform(0, 1), lambda x: (ident(x) <= 0.5).astype(float),
                              n_grid=[50, 200], n_replicates=10, master_seed=4)
        assert all(np.isfinite(v) for _, v in out)


def _report(experiment, seed, n, values, standardized, **kw):
    """The report an experiment builds from its replicate values."""
    stat = ks_statistic(standardized)
    return McReport(experiment=experiment, master_seed=seed, n=n, n_replicates=values.size,
                    replicate_values=values, standardized=standardized, ks_stat=stat,
                    ks_pvalue=ks_pvalue(stat, values.size), **kw)


def _json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


class TestBlocksMatchReplicateLoop:
    """Experiments draw CHUNK replicates per block; one replicate at a time
    with ``draw`` and ``stream_seed`` gives the same report, byte for byte.
    37 replicates end on a short block."""

    R = 37

    def test_normality(self):
        family, index, n, seed = LogNormal(0, 1), NamedIndex.fgt(1.0, 1.0), 300, 11
        rep = named_representation(family, index)
        value, gamma = rep.value(family), index_variance(family, rep).total
        est = np.array([named_estimate(draw(family, n, stream_seed(seed, r)), index)
                        for r in range(self.R)])
        want = _report("normality", seed, n, est, math.sqrt(n) * (est - value) / math.sqrt(gamma),
                       extra={"value": value, "variance": gamma, "index": index.label()})
        assert _json(normality_experiment(family, index, n, self.R, seed)) == _json(want)

    def test_coverage(self):
        family, index, n, seed, level = Uniform(0, 1), NamedIndex.fgt(0.0, 0.5), 200, 7101, 0.9
        value = named_representation(family, index).value(family)
        est, std, hits = np.empty(self.R), np.empty(self.R), 0
        for r in range(self.R):
            sample = draw(family, n, stream_seed(seed, r))
            est[r] = named_estimate(sample, index)
            plug = EmpiricalDistribution(sample)
            var = index_variance(plug, named_representation(plug, index)).total
            lo, hi = confidence_interval(est[r], var, n, level)
            hits += int(lo <= value <= hi)
            std[r] = math.sqrt(n) * (est[r] - value) / math.sqrt(var) if var > 0 else 0.0
        want = _report("coverage", seed, n, est, std, coverage=hits / self.R,
                       extra={"value": value, "level": level, "index": index.label()})
        got = coverage_experiment(family, index, n, self.R, level, seed)
        assert _json(got) == _json(want)

    @pytest.mark.parametrize("family, q", [
        (Uniform(0, 1), ident), (LogNormal(0, 0.5), lambda x: np.log1p(ident(x)))],
        ids=["uniform", "lognormal"])
    def test_cre2(self, family, q):
        n_grid, seed = [50, 300], 424242
        want = []
        for idx, n in enumerate(n_grid):
            edges = np.arange(n + 1) / n
            widths = np.diff(edges)
            acc = 0.0
            for r in range(self.R):
                u = np.sort(uniforms(stream_seed(seed, r, channel=idx), n))
                total = 0.0
                for frac in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
                    s = edges[:-1] + frac * widths
                    total += 0.5 * float(np.sum(widths * (s - u) * (q(family.quantile(u))
                                                                    - q(family.quantile(s)))))
                acc += abs(math.sqrt(n) * total)
            want.append((n, acc / self.R))
        got = cre2_diagnostic(family, q, n_grid, self.R, seed)
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("families, p, n, seed", [
        ([LogNormal(0, 1), LogNormal(0.5, 1)], [0.5, 0.5], 300, 11),
        ([LogNormal(0, 1), LogNormal(0.5, 1), LogNormal(-0.5, 1)], [0.96, 0.02, 0.02], 40, 8)],
        ids=["two-groups", "empty-group"])
    def test_decomposability(self, families, p, n, seed):
        index, k = NamedIndex.shorrocks(1.0), len(p)
        cut = np.cumsum(p)[:-1]
        gaps, empty = np.empty(self.R), []
        for r in range(self.R):
            labels = np.searchsorted(cut, uniforms(stream_seed(seed, r, channel=0), n))
            v = uniforms(stream_seed(seed, r, channel=1), n)
            x = np.empty(n)
            for g in range(k):
                x[labels == g] = families[g].quantile(v[labels == g])
            gaps[r] = _recompose(build_sample(x), [x[labels == g] for g in range(k)], index)[0]
            empty.append(np.unique(labels).size < k)
        if k == 3:
            assert any(empty) and not all(empty)
        dec = gap_variance(p, families, lambda m: named_representation(m, index))
        variance = dec.theta1_sq + dec.theta2_sq
        mixture = Mixture(p, families)
        gd = named_representation(mixture, index).value(mixture) - float(sum(
            pi * named_representation(f, index).value(f) for pi, f in zip(p, families)))
        want = _report("decomposability", seed, n, gaps,
                       math.sqrt(n) * (gaps - gd) / math.sqrt(variance),
                       extra={"gap_value": gd, "variance": variance, "index": index.label()})
        got = decomposability_experiment(families, p, index, n, self.R, seed)
        assert _json(got) == _json(want)
