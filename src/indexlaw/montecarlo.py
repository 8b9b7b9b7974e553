"""Seeded Monte Carlo harness validating the implemented limit laws.

Every experiment derives one substream per replicate from a 64-bit master
seed (see :mod:`indexlaw.rng`), draws by inverse-CDF transform, reduces in
replicate order, and returns a fully deterministic :class:`McReport`.

Replicates are drawn in blocks of ``CHUNK`` rows: one ``uniforms`` call and
one quantile call per block, then the per-replicate estimator on each row.
Stream arithmetic and quantiles are elementwise, so every row holds the bits
that drawing its replicate alone (``draw``) gives, and reports do not depend
on the block size.

Experiments
-----------
* ``normality_experiment``     -- standardizes replicate index estimates by
  the analytic-model variance and runs a Kolmogorov-Smirnov test against the
  standard normal (isolates the central limit claim).
* ``coverage_experiment``      -- per-replicate plug-in variance and normal
  confidence interval; reports the fraction covering the true value
  (isolates the practical procedure).
* ``cre2_diagnostic``          -- the integral condition coupling the
  uniform quantile process with the weight increment, evaluated exactly over
  the sample cells; its mean absolute value should shrink with n when the
  transformed weight is continuous.
* ``decomposability_experiment`` -- multinomial group labels, per-group
  draws, gap statistics standardized by the analytic decomposition variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .decomposition import _recompose, _weights, gap_variance
from .distributions import (DistributionModel, EmpiricalDistribution, Mixture, _real,
                            normal_cdf)
from .empirical import EmpiricalSample, build_sample
from .errors import BadParams, OutOfRange, ZeroVariance
from .indices import NamedIndex, named_estimate, named_representation
from .representation import _check_count, confidence_interval, index_variance
from .rng import stream_seed, uniforms

_GAUSS2 = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))

# replicates per block: one quantile call on 16 rows of 1,000-6,400 draws
# pays numpy's per-call cost once and keeps the block in cache (64 rows ran
# slower on a 2-core machine)
CHUNK = 16


@dataclass
class McReport:
    """Replication report; bit-identical across runs for a fixed seed."""

    experiment: str
    master_seed: int
    n: int
    n_replicates: int
    replicate_values: np.ndarray
    standardized: np.ndarray
    ks_stat: float = float("nan")
    ks_pvalue: float = float("nan")
    coverage: Optional[float] = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "n": self.n,
            "replicates": self.n_replicates,
            "ks_stat": self.ks_stat,
            "ks_pvalue": self.ks_pvalue,
            "coverage": self.coverage,
            "replicate_values": [float(v) for v in self.replicate_values],
            "standardized": [float(v) for v in self.standardized],
        }
        out.update(self.extra)
        return out


# ---------------------------------------------------------------------------
# Sampling and the KS test
# ---------------------------------------------------------------------------


def _inverse_cdf(family: DistributionModel, n: int, seeds) -> np.ndarray:
    """n unsorted inverse-CDF draws per stream seed: one row per seed of an array."""
    return np.asarray(family.quantile(uniforms(seeds, n)), dtype=float)


def _check_seed(value, name: str) -> None:
    """Reject a seed that is not an integer; an integer is read modulo 2**64."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadParams(f"{name} must be an integer, got {value!r}")


def draw(family: DistributionModel, n: int, stream_seed_value: int) -> EmpiricalSample:
    """n inverse-CDF draws from a deterministic uniform stream."""
    _check_count(n, "n")
    _check_seed(stream_seed_value, "stream_seed_value")
    return build_sample(_inverse_cdf(family, n, stream_seed_value))


def _blocks(n_replicates: int):
    """The replicate indices in blocks of ``CHUNK``; the last may be shorter."""
    for start in range(0, n_replicates, CHUNK):
        yield np.arange(start, min(start + CHUNK, n_replicates))


def _samples(family: DistributionModel, n: int, n_replicates: int, master_seed: int):
    """``(r, draw(family, n, stream_seed(master_seed, r)))`` in replicate
    order, drawn a block of rows at a time."""
    for rows in _blocks(n_replicates):
        for r, x in zip(rows.tolist(), _inverse_cdf(family, n, stream_seed(master_seed, rows))):
            yield r, build_sample(x)


def ks_statistic(values: Sequence[float], cdf=normal_cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a continuous CDF;
    the values are checked as ``build_sample`` checks observations."""
    x = build_sample(values).values
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(grid_hi - f, f - grid_lo)))


def ks_pvalue(stat: float, n: int) -> float:
    """Asymptotic Kolmogorov p-value 2 sum (-1)^(k-1) exp(-2 k^2 lambda^2),
    lambda = sqrt(n) stat in [0, 1], n >= 1, to 100 terms or one below 1e-16."""
    _check_count(n, "n")
    if not 0.0 <= _real(stat) <= 1.0:
        raise OutOfRange(f"a KS statistic lies in [0, 1], got {stat!r}")
    lam = math.sqrt(n) * float(stat)
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * (k * lam) ** 2)
        total += term
        if abs(term) < 1e-16:
            break
    return float(min(max(total, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def normality_experiment(family: DistributionModel, index: NamedIndex, n: int,
                         n_replicates: int, master_seed: int) -> McReport:
    """KS test of sqrt(n) (I_n - I) / sqrt(Gamma) against the standard
    normal, with value and variance from the analytic model."""
    _check_count(n, "n")
    _check_count(n_replicates, "n_replicates")
    _check_seed(master_seed, "master_seed")
    rep = named_representation(family, index)
    value = rep.value(family)
    gamma = index_variance(family, rep).total
    if gamma <= 1e-14:
        raise ZeroVariance("the index has zero asymptotic variance under this model")
    scale = math.sqrt(gamma)
    estimates = np.empty(n_replicates)
    for r, sample in _samples(family, n, n_replicates, master_seed):
        estimates[r] = named_estimate(sample, index)
    standardized = math.sqrt(n) * (estimates - value) / scale
    stat = ks_statistic(standardized)
    return McReport(experiment="normality", master_seed=master_seed, n=n,
                    n_replicates=n_replicates, replicate_values=estimates,
                    standardized=standardized, ks_stat=stat,
                    ks_pvalue=ks_pvalue(stat, n_replicates),
                    extra={"value": value, "variance": gamma, "index": index.label()})


def coverage_experiment(family: DistributionModel, index: NamedIndex, n: int,
                        n_replicates: int, level: float, master_seed: int) -> McReport:
    """Fraction of plug-in normal confidence intervals covering the true
    index value."""
    _check_count(n, "n")
    _check_count(n_replicates, "n_replicates")
    _check_seed(master_seed, "master_seed")
    rep = named_representation(family, index)
    value = rep.value(family)
    estimates = np.empty(n_replicates)
    standardized = np.empty(n_replicates)
    hits = 0
    for r, sample in _samples(family, n, n_replicates, master_seed):
        est = named_estimate(sample, index)
        plug = EmpiricalDistribution(sample)
        var = index_variance(plug, named_representation(plug, index)).total
        lo, hi = confidence_interval(est, var, n, level)
        hits += int(lo <= value <= hi)
        estimates[r] = est
        standardized[r] = (math.sqrt(n) * (est - value) / math.sqrt(var)
                           if var > 0 else 0.0)
    stat = ks_statistic(standardized)
    return McReport(experiment="coverage", master_seed=master_seed, n=n,
                    n_replicates=n_replicates, replicate_values=estimates,
                    standardized=standardized, ks_stat=stat,
                    ks_pvalue=ks_pvalue(stat, n_replicates),
                    coverage=hits / n_replicates,
                    extra={"value": value, "level": level, "index": index.label()})


def cre2_diagnostic(family: DistributionModel, q, n_grid: Sequence[int],
                    n_replicates: int, master_seed: int) -> list[tuple[int, float]]:
    """Mean absolute value of ``int sqrt(n) (s - V_n(s)) (l(V_n(s)) - l(s)) ds``
    per sample size, with V_n the uniform sample quantile function.

    The V_n factor is integrated exactly over its cells; the smooth l-factor
    uses two-point Gauss nodes per cell, which is exact whenever l is
    piecewise linear.  ``q`` must act elementwise: it sees a block of rows.
    """
    _check_count(n_replicates, "n_replicates")
    _check_seed(master_seed, "master_seed")
    for n in n_grid:
        _check_count(n, "every sample size")

    def ell(s):
        return np.asarray(q(np.asarray(family.quantile(s), dtype=float)), dtype=float)

    results = []
    for idx, n in enumerate(n_grid):
        acc = 0.0
        edges = np.arange(n + 1) / n
        widths = np.diff(edges)
        at_nodes = [(s, ell(s)) for s in (edges[:-1] + frac * widths for frac in _GAUSS2)]
        for rows in _blocks(n_replicates):
            u = np.sort(uniforms(stream_seed(master_seed, rows, channel=idx), n), axis=1)
            for u_row, lu_row in zip(u, ell(u)):
                total = 0.0
                for s, ls in at_nodes:
                    total += 0.5 * float(np.sum(widths * (s - u_row) * (lu_row - ls)))
                acc += abs(math.sqrt(n) * total)
        results.append((int(n), acc / n_replicates))
    return results


def decomposability_experiment(families: Sequence[DistributionModel],
                               weights: Sequence[float], index: NamedIndex,
                               n: int, n_replicates: int, master_seed: int) -> McReport:
    """Multinomial subgroup draws; gap statistics standardized by the
    analytic decomposition variance (theta1^2 + theta2^2)."""
    _check_count(n, "n")
    _check_count(n_replicates, "n_replicates")
    _check_seed(master_seed, "master_seed")
    p = _weights(weights, families)
    k = p.size
    dec = gap_variance(p, list(families), lambda m: named_representation(m, index))
    variance = dec.theta1_sq + dec.theta2_sq
    mixture = families[0] if k == 1 else Mixture(p, families)
    rep = named_representation(mixture, index)
    gd_true = rep.value(mixture) - float(sum(
        pi * named_representation(f, index).value(f) for pi, f in zip(p, families)))
    cut = np.cumsum(p)[:-1]
    gaps = np.empty(n_replicates)
    for rows in _blocks(n_replicates):
        labels = np.searchsorted(cut, uniforms(stream_seed(master_seed, rows, channel=0), n),
                                 side="left")
        v = uniforms(stream_seed(master_seed, rows, channel=1), n)
        x = np.empty(v.shape)
        for g in range(k):
            mask = labels == g
            if mask.any():
                x[mask] = np.asarray(families[g].quantile(v[mask]), dtype=float)
        for r, x_row, l_row in zip(rows.tolist(), x, labels):
            gaps[r] = _recompose(build_sample(x_row), [x_row[l_row == g] for g in range(k)],
                                 index)[0]
    if variance > 1e-14:
        standardized = math.sqrt(n) * (gaps - gd_true) / math.sqrt(variance)
        stat = ks_statistic(standardized)
        pval = ks_pvalue(stat, n_replicates)
    else:
        standardized = np.zeros_like(gaps)
        stat = float("nan")
        pval = float("nan")
    return McReport(experiment="decomposability", master_seed=master_seed, n=n,
                    n_replicates=n_replicates, replicate_values=gaps,
                    standardized=standardized, ks_stat=stat, ks_pvalue=pval,
                    extra={"gap_value": gd_true, "variance": variance,
                           "index": index.label()})
