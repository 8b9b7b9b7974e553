"""The public surface of the package: a name that appears in or leaves
``indexlaw.__all__`` shows up as a change to this list."""

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


def test_public_names():
    assert sorted(indexlaw.__all__) == PUBLIC
