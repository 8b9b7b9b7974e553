"""Inside the variance calculus: the three covariance pieces of a score pair.

An index with representation pair (h, q) has limiting variance

    gamma1 + gamma2 + 2 gamma3

where gamma1 is the plain score variance, gamma2 the Brownian-bridge form of
the weight, and gamma3 their coupling.  This script shows the pieces for a
rank-weighted index, reads three closed forms of the bridge kernel
min(s, t) - s t off the pieces of simple score pairs, and shows the joint
law of two indices on the same sample and the ratio-composition rule.
"""

import numpy as np

from indexlaw import (EmpiricalDistribution, IndexRepresentation, LogNormal, NamedIndex,
                      Uniform, compose_ratio, index_cross_covariance, index_variance,
                      named_representation)
from indexlaw.representation import Polynomial

model = LogNormal(0.0, 1.0)
Z = 1.0

# the Shorrocks index weights the poor by 2(1 - F): its beta-term is active
rep = named_representation(model, NamedIndex.shorrocks(Z))
cv = index_variance(model, rep)
print("Shorrocks pieces under the lognormal law:")
print(f"  gamma1 (score variance)  = {cv.gamma1:.6f}")
print(f"  gamma2 (bridge form)     = {cv.gamma2:.6f}")
print(f"  gamma3 (coupling)        = {cv.gamma3:.6f}")
print(f"  total                    = {cv.total:.6f}")

# the bridge kernel has closed forms worth knowing: a headcount at the
# median of a sample has gamma1 = min(s, s) - s^2 at s = 1/2, a unit weight
# has gamma2 = 1/12 under any law, and (x, 1) has gamma3 = -1/12 under U(0, 1)
sample = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
headcount = named_representation(sample, NamedIndex.fgt(0.0, 2.5))
print(f"\nbridge kernel at (1/2, 1/2): {index_variance(sample, headcount).gamma1}")
one = lambda x: np.ones_like(np.asarray(x, dtype=float))
ident = lambda x: np.asarray(x, dtype=float)
unit = IndexRepresentation(h=lambda x: np.zeros_like(ident(x)), q=one, value=lambda m: 0.0)
print(f"unit-weight bridge form (= 1/12): {index_variance(model, unit).gamma2:.12f}")
coupled = IndexRepresentation(h=ident, q=one, value=lambda m: 0.0)
print(f"identity/unit coupling on uniform (= -1/12): "
      f"{index_variance(Uniform(0, 1), coupled).gamma3:.12f}")

# two indices on one sample: the joint 2x2 law
rep_fgt = named_representation(model, NamedIndex.fgt(1.0, Z))
cross = index_cross_covariance(model, rep, rep_fgt)
v1 = cv.total
v2 = index_variance(model, rep_fgt).total
corr = cross / np.sqrt(v1 * v2)
print(f"\nShorrocks / poverty-gap asymptotic correlation: {corr:.4f}")

# ratio composition: the Takayama welfare ratio C / mean; the mean's score
# x is all polynomial, so it declares that part and its moments come in
# closed form instead of from the quadrature mesh
rep_c = named_representation(model, NamedIndex.takayama(Z))
rep_mu = IndexRepresentation(h=ident, q=None, value=lambda m: m.raw_moment(1),
                             poly=Polynomial(0.0, (0.0, 1.0)))
ratio = compose_ratio(rep_c, rep_mu, rep_c.value(model), model.raw_moment(1))
print(f"Takayama ratio variance via composition: "
      f"{index_variance(model, ratio).total:.6f}")
