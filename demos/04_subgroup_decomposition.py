"""Decomposability gaps: reporting a weighted index from subgroup surveys.

Weighted poverty indices (Sen, Kakwani, Shorrocks, ...) are not additively
decomposable: the population index differs from the count-weighted
recomposition of subgroup indices.  The gap is estimable, and its asymptotic
law turns local surveys into a global report with an honest interval.
"""

import numpy as np

from indexlaw import (NamedIndex, SubgroupPartition, build_sample, gap_estimate,
                      gap_inference, named_estimate)

rng = np.random.default_rng(4)
Z = 1.0

# two regions with different income laws, drawn with unequal frequency
n = 6000
labels = np.where(rng.uniform(size=n) < 0.6, "north", "south")
incomes = np.where(labels == "north",
                   rng.lognormal(0.0, 1.0, size=n),
                   rng.lognormal(0.5, 0.8, size=n))

sample = build_sample(incomes)
partition = SubgroupPartition.from_labels(labels)
index = NamedIndex.shorrocks(Z)

whole = named_estimate(sample, index)
print(f"population Shorrocks index: {whole:.4f}")
for name, code in zip(partition.names, range(1, partition.n_groups + 1)):
    grp = build_sample(incomes[partition.labels == code])
    print(f"  {name}: n = {grp.n}, index = {named_estimate(grp, index):.4f}")

gap = gap_estimate(sample, partition, index)
print(f"decomposability gap: {gap:+.5f}")

# FGT is additively decomposable, so its gap vanishes identically
fgt_gap = gap_estimate(sample, partition, NamedIndex.fgt(1.0, Z))
print(f"FGT(1) gap (exactly zero): {fgt_gap:.2e}")

result = gap_inference(sample, partition, index, level=0.95)
dec = result.decomposition
print("\nvariance pieces:")
print(f"  within-group   theta1^2 = {dec.theta1_sq:.5f}")
print(f"  label noise    theta2^2 = {dec.theta2_sq:.5f} (population centering)")
print(f"                 theta3^2 = {dec.theta3_sq:.5f} (plug-in centering)")
print(f"95% CI for the gap: [{result.ci_gd[0]:+.5f}, {result.ci_gd[1]:+.5f}]")
