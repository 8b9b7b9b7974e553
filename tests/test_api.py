"""The public surface of the package: a name that appears in or leaves
``indexlaw.__all__``, and a parameter or default that appears in or leaves
the signature of a public callable, shows up as a change to these lists."""

import inspect
import re

import indexlaw

PUBLIC = [
    "BivariateFrame", "ComonotoneCopula", "CovarianceEstimate", "DecompositionVariance",
    "DistributionModel", "EmpiricalCopula", "EmpiricalDistribution", "EmpiricalSample",
    "Exponential", "GapInference", "GaussianCopula", "GpiConstants", "GpiSpec",
    "IndependenceCopula", "IndexRepresentation", "JointCovariance", "LogNormal", "McReport",
    "Mixture", "NamedIndex", "Normal", "Pareto", "SubgroupPartition", "Uniform",
    "build_sample", "compose_ratio", "confidence_interval", "coverage_experiment",
    "cre2_diagnostic", "decomposability_experiment", "decomposition", "distributions", "draw",
    "ecdf", "empirical", "empirical_copula", "empirical_measure", "equantile", "errors", "fep",
    "gap_estimate", "gap_inference", "gap_variance", "gpi_constants", "gpi_estimate",
    "gpi_representation", "index_cross_covariance", "index_variance", "indices", "ks_pvalue",
    "ks_statistic", "montecarlo", "mutual_relative_covariance", "mutual_variation_covariance",
    "named_estimate", "named_representation", "normal_cdf", "normal_quantile",
    "normality_experiment", "ranks", "relative_variation_law", "representation",
    "residual_stat", "rng", "temporal", "temporal_joint_covariance", "ugrid",
]

# the parameters of every public callable, with their defaults, without
# annotations; a function default shows without its address
SIGNATURES = {
    "BivariateFrame": "(margin1, margin2, copula)",
    "ComonotoneCopula": "()",
    "CovarianceEstimate": "(gamma1, gamma2, gamma3, total)",
    "DecompositionVariance": "(gap_value, L, M, theta1_sq, theta2_sq, theta3_sq)",
    "DistributionModel": "()",
    "EmpiricalCopula": "(u_ranks, v_ranks)",
    "EmpiricalDistribution": "(sample)",
    "EmpiricalSample": "(values, _inputs)",
    "Exponential": "(rate=1.0)",
    "GapInference":
        "(gap, variance_gd, variance_gd0, ci_gd, ci_gd0, decomposition, group_estimates, weights)",
    "GaussianCopula": "(rho)",
    "GpiConstants": "(H_c, H_pi, J, K_c, K_pi, K)",
    "GpiSpec": "(A, w, d, mu, c, pi, Z, dc_dx=None, dc_dy=None, dpi_dx=None, dpi_dy=None)",
    "IndependenceCopula": "()",
    "IndexRepresentation": "(h, q, value, breaks=(), poly=None)",
    "JointCovariance":
        "(matrix, cross=None, delta_var=None, rel_var=None, gamma4=None, gamma5=None)",
    "LogNormal": "(mu=0.0, sigma=1.0)",
    "McReport":
        "(experiment, master_seed, n, n_replicates, replicate_values, standardized, "
        "ks_stat=nan, ks_pvalue=nan, coverage=None, extra=<factory>)",
    "Mixture": "(weights, components)",
    "NamedIndex": "(kind, alpha=None, k=None, order=None, poverty_line=None, d=None)",
    "Normal": "(mu=0.0, sigma=1.0)",
    "Pareto": "(xm=1.0, a=3.0)",
    "SubgroupPartition": "(labels, names)",
    "Uniform": "(a=0.0, b=1.0)",
    "build_sample": "(values)",
    "compose_ratio": "(rep_num, rep_den, num_value, den_value)",
    "confidence_interval": "(estimate, variance, n, level=0.95)",
    "coverage_experiment": "(family, index, n, n_replicates, level, master_seed)",
    "cre2_diagnostic": "(family, q, n_grid, n_replicates, master_seed)",
    "decomposability_experiment": "(families, weights, index, n, n_replicates, master_seed)",
    "draw": "(family, n, stream_seed_value)",
    "ecdf": "(sample, x)",
    "empirical_copula": "(pairs)",
    "empirical_measure": "(sample, f)",
    "equantile": "(sample, s)",
    "fep": "(sample, f, mean_f)",
    "gap_estimate": "(sample, partition, index)",
    "gap_inference": "(sample, partition, index, level=0.95)",
    # takes the index, not a builder of representations: each model's own scores
    "gap_variance": "(weights, group_models, index)",
    "gpi_constants": "(model, spec)",
    "gpi_estimate": "(sample, spec)",
    "gpi_representation": "(model, spec)",
    "index_cross_covariance": "(model, rep_i, rep_j)",
    "index_variance": "(model, rep)",
    "ks_pvalue": "(stat, n)",
    "ks_statistic": "(values, cdf=<function normal_cdf>)",
    # the joint laws take each period's representations, with no default for period 2
    "mutual_relative_covariance": "(frame, rep_i, rep_j, i1, i2, j1, j2, rep_i2, rep_j2)",
    "mutual_variation_covariance": "(frame, rep_i, rep_j, rep_i2, rep_j2)",
    "named_estimate": "(sample, index)",
    "named_representation": "(model, index)",
    "normal_cdf": "(x)",
    "normal_quantile": "(p)",
    "normality_experiment": "(family, index, n, n_replicates, master_seed)",
    "ranks": "(sample)",
    "relative_variation_law": "(frame, rep, index1, index2, rep2)",
    "residual_stat": "(sample, q, model)",
    "temporal_joint_covariance": "(frame, rep, rep2)",
}


def _signature(obj) -> str:
    sig = inspect.signature(obj)
    sig = sig.replace(parameters=[p.replace(annotation=p.empty)
                                  for p in sig.parameters.values()],
                      return_annotation=sig.empty)
    return re.sub(r" at 0x[0-9a-f]+", "", str(sig))


def test_public_names():
    assert sorted(indexlaw.__all__) == PUBLIC


def test_public_signatures():
    public = {name: getattr(indexlaw, name) for name in indexlaw.__all__}
    assert {name: _signature(obj) for name, obj in public.items()
            if callable(obj) and not inspect.ismodule(obj)} == SIGNATURES
