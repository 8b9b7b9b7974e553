"""indexlaw: plug-in estimation and joint asymptotic laws for statistical
indices represented by a score pair (h, q).

The package covers point estimation of welfare, poverty and moment indices,
their asymptotic variances and cross-covariances, joint laws across two time
periods linked by a copula, subgroup decomposability-gap inference, and a
seeded Monte Carlo harness validating every limit law it implements.
"""

from .empirical import (EmpiricalSample, build_sample, ecdf, equantile,
                        empirical_measure, fep, ranks, residual_stat)
from .distributions import (DistributionModel, EmpiricalDistribution, Exponential,
                            LogNormal, Mixture, Normal, Pareto, Uniform,
                            normal_cdf, normal_quantile)
from .representation import (CovarianceEstimate, IndexRepresentation, compose_ratio,
                             confidence_interval, index_cross_covariance, index_variance)
from .indices import (GpiConstants, GpiSpec, NamedIndex, central_moment_estimate,
                      fgt_estimate, gpi_constants, gpi_estimate, gpi_representation,
                      moment_representation, named_estimate, named_representation,
                      normalized_moment_estimate, normalized_moment_representation)
from .temporal import (BivariateFrame, ComonotoneCopula, EmpiricalCopula,
                       GaussianCopula, IndependenceCopula, JointCovariance,
                       empirical_copula, mutual_relative_covariance,
                       mutual_variation_covariance, relative_variation_law,
                       temporal_joint_covariance)
from .decomposition import (DecompositionVariance, GapInference, SubgroupPartition,
                            gap_estimate, gap_inference, gap_variance)
from .montecarlo import (McReport, coverage_experiment, cre2_diagnostic,
                         decomposability_experiment, draw, ks_pvalue, ks_statistic,
                         normality_experiment)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
