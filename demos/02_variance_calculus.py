"""Inside the variance calculus: the three covariance pieces of a score pair.

An index with representation pair (h, q) has limiting variance

    gamma1 + gamma2 + 2 gamma3

where gamma1 is the plain score variance, gamma2 the Brownian-bridge form of
the weight, and gamma3 their coupling.  This script shows the pieces for a
rank-weighted index, the joint law of two indices on the same sample, and
the ratio-composition rule.
"""

import numpy as np

from indexlaw import (LogNormal, NamedIndex, beta_beta_cov, beta_cross_cov,
                      compose_ratio, index_cross_covariance, index_variance,
                      indicator_cov_closed_form, named_representation)
from indexlaw.representation import IndexRepresentation, Polynomial

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

# the elementary kernels have closed forms worth knowing
print(f"\nbridge kernel at (1/2, 1/2): {indicator_cov_closed_form(0.5, 0.5)}")
one = lambda x: np.ones_like(np.asarray(x, dtype=float))
ident = lambda x: np.asarray(x, dtype=float)
print(f"unit-weight bridge form (= 1/12): {beta_beta_cov(model, one, one):.12f}")
from indexlaw import Uniform
print(f"identity/unit coupling on uniform (= -1/12): "
      f"{beta_cross_cov(Uniform(0, 1), ident, one):.12f}")

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
