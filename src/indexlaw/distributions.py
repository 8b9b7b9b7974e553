"""Distribution models: empirical plug-in, parametric families, mixtures.

A distribution model is anything exposing

* ``cdf(x)``            -- nondecreasing, right-continuous,
* ``pdf(x)``            -- the density, or None where there is none,
* ``quantile(s)``       -- the generalized inverse on (0, 1),
* ``integrate_score(f)``-- the expectation of a score under the model,
* ``raw_moment(k)`` and ``central_moment(k)`` -- closed-form moments,
* ``kind``              -- ``"empirical"`` or ``"parametric"``.

Empirical models integrate scores exactly as sample means; parametric models
integrate ``E f(X) = int_0^1 f(Q(u)) du`` by the Gauss-Legendre rule on
their ``mesh`` (:mod:`indexlaw.ugrid`), whose cell edges include the levels
F(b) of the points b where f jumps; a mixture sums its components'.
Polynomial parts of scores take closed-form central moments instead, formed
where each family's closed form does not cancel.  ``quantile_extended`` is
the quantile on [0, 1], with the (possibly infinite) endpoint limits.

The inverse standard normal CDF is Wichura's AS241 rational approximation
(PPND16), accurate to ~1e-15 in double precision.  The standard normal CDF
is ``0.5 erfc(-x / sqrt(2))`` with libm's ``math.erfc`` per element, within
about 1e-14 relative on [-8, 8.3] and 2e-13 down to -37.5, so the package
runs on numpy alone.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .empirical import EmpiricalSample, _real, build_sample, ecdf
from .errors import BadParams, NonFiniteIntegral, NonFiniteMoment, OutOfRange
from . import ugrid
from .ugrid import gauss_nodes, gauss_sum, mesh_edges

# ---------------------------------------------------------------------------
# AS241 inverse standard normal (Wichura 1988, PPND16)
# ---------------------------------------------------------------------------

_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
      2.8729085735721942674e4, 5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
      6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
      5.47593808499534494600e-4, 1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
      1.42151175831644588870e-7, 2.04426310338993978564e-15)


_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NEWTON_PASSES = 64          # Mixture quantiles: passes before bisection takes over


def _poly(coefs, x):
    r = coefs[7]
    for c in coefs[6::-1]:
        r = r * x + c
    return r


def normal_quantile(p):
    """Inverse standard normal CDF (AS241); vectorized, +-inf at 0 and 1."""
    p = _levels(p)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if not np.all((p >= 0.0) & (p <= 1.0)):   # nan fails both
        raise OutOfRange("probability outside [0, 1]")
    out = np.empty_like(p)
    q = p - 0.5
    central = np.abs(q) <= 0.425
    if central.any():
        r = 0.180625 - q[central] ** 2
        out[central] = q[central] * _poly(_A, r) / _poly(_B, r)
    if (~central).any():
        qe = q[~central]
        pe = p[~central]
        r = np.where(qe < 0.0, pe, 1.0 - pe)
        with np.errstate(divide="ignore"):
            r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        val[near] = _poly(_C, r[near] - 1.6) / _poly(_D, r[near] - 1.6)
        far = ~near
        finite = far & np.isfinite(r)
        val[finite] = _poly(_E, r[finite] - 5.0) / _poly(_F, r[finite] - 5.0)
        val[far & ~np.isfinite(r)] = np.inf
        out[~central] = np.where(qe < 0.0, -val, val)
    return float(out[0]) if scalar else out


def normal_cdf(x):
    """Standard normal CDF ``0.5 erfc(-x / sqrt(2))``, with libm's
    ``math.erfc`` applied per element; vectorized, nan stays nan.

    Against a 40-digit mpmath reference the largest relative error is
    about 1e-14 on [-8, 8.3], 5e-14 on [-20, -8] and 2e-13 on [-37.5, -20],
    all set by the rounding of ``-x / sqrt(2)``.  Lower tail values reach
    the subnormal range instead of flushing to 0.
    """
    arg = -np.asarray(x, dtype=float) / math.sqrt(2.0)
    out = 0.5 * np.fromiter(map(math.erfc, arg.ravel().tolist()), float,
                            arg.size).reshape(arg.shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def _closed_form(moment: Callable[["DistributionModel", int], float]):
    """Mark a closed-form ``raw_moment`` or ``central_moment``: one beyond
    the float range raises ``NonFiniteMoment``, where Python's float powers,
    ``math.exp`` and big-integer division raise ``OverflowError``, a divisor
    such as ``rate ** k`` underflows to 0, and a sum can reach inf (or, on a
    sample, nan from opposite infinite powers)."""

    @functools.wraps(moment)
    def checked(self, k: int) -> float:
        try:
            value = float(moment(self, k))
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not math.isfinite(value):
            raise NonFiniteMoment(f"{type(self).__name__} moment of order {k} "
                                  f"is beyond the float range")
        return value

    return checked


def _shifted(moments: Sequence[float], d: float, k: int) -> float:
    """``E (Y + d)^k`` from the moments ``E Y^j``, j = 0..k."""
    return math.fsum(math.comb(k, j) * moments[j] * d ** (k - j) for j in range(k + 1))


def _levels(s) -> np.ndarray:
    """Quantile levels as a float array; ``OutOfRange`` unless they are numbers."""
    try:
        return np.asarray(s, dtype=float)
    except (TypeError, ValueError):
        raise OutOfRange(f"quantile levels must be numbers, got {s!r}") from None


class DistributionModel:
    """Base class; concrete models fill in cdf/quantile and moments.

    A model's parameters are set once, by its constructor; setting or
    deleting one later raises ``AttributeError``.  The one attribute set
    again is ``_periods``, the memo of the model's last two periods of
    u-functions (``representation._period``).
    """

    kind = "parametric"
    _periods = ()

    def __setattr__(self, name: str, value) -> None:
        if name != "_periods" and name in vars(self):
            raise AttributeError(f"{type(self).__name__}.{name} is fixed at construction")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is fixed at construction")

    def cdf(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def quantile(self, s):
        """Generalized inverse CDF on (0, 1)."""
        s_arr = _levels(s)
        if np.any(~((s_arr > 0.0) & (s_arr < 1.0))):
            raise OutOfRange("quantile level must lie in (0, 1)")
        return self.quantile_extended(s)

    def quantile_extended(self, s):  # pragma: no cover - abstract
        """Quantile as a total function on [0, 1]; may return +-inf at the ends."""
        raise NotImplementedError

    def pdf(self, x):
        """The density of F at x, or None for a model without one."""
        return None

    def mesh(self, breaks: Sequence[float] = ()):
        """The cell edges of the mesh for scores that jump at ``breaks``, and
        the quantile at the cells' Gauss nodes, flattened cell by cell."""
        edges = mesh_edges(self._base_cells(), [float(np.asarray(self.cdf(b))) for b in breaks])
        return edges, np.asarray(self.quantile_extended(gauss_nodes(edges).ravel()), dtype=float)

    def _base_cells(self) -> int:
        """The uniform cells of the mesh: the package's ``ugrid.DEFAULT_GRID``."""
        return ugrid.DEFAULT_GRID

    def integrate_score(self, f: Callable, breaks: Sequence[float] = ()) -> float:
        """E f(X) by the Gauss-Legendre rule on ``mesh(breaks)``.

        ``breaks`` lists x-values where f jumps (e.g. a poverty line); their
        levels F(b) are cell edges, so the rule never straddles a jump.
        """
        return self._integrals(lambda x: (f(x),), breaks)[0]

    def _integrals(self, scores: Callable, breaks: Sequence[float] = ()) -> list:
        """``[E f(X) for f in the scores]``, where ``scores(x)`` returns the
        values of every score at x: one mesh and one call for them all."""
        edges, x = self.mesh(breaks)
        out = []
        for values in scores(x):
            vals = np.broadcast_to(np.asarray(values, dtype=float), x.shape)
            if not np.all(np.isfinite(vals)):
                raise NonFiniteIntegral("score composed with quantile is not finite on (0, 1)")
            out.append(gauss_sum(edges, vals.reshape(edges.size - 1, -1)))
        return out


class EmpiricalDistribution(DistributionModel):
    """Plug-in model built from a sample; all integrals are exact sums."""

    kind = "empirical"

    def __init__(self, sample: EmpiricalSample | Sequence[float]):
        if not isinstance(sample, EmpiricalSample):
            sample = build_sample(sample)
        self.sample = sample

    def cdf(self, x):
        return ecdf(self.sample, x)

    def quantile(self, s):
        s_arr = _levels(s)
        if np.any(~((s_arr > 0.0) & (s_arr <= 1.0))):
            raise OutOfRange("quantile level must lie in (0, 1]")
        return self.quantile_extended(s)

    def quantile_extended(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        j = np.clip(np.ceil(self.sample.n * s_arr).astype(int), 1, self.sample.n)
        out = self.sample.values[j - 1]
        return float(out[0]) if np.asarray(s).ndim == 0 else out

    def _base_cells(self) -> int:
        """The n sample cells ``((j-1)/n, j/n]``."""
        return self.sample.n

    def _integrals(self, scores, breaks=()) -> list:
        out = []
        for values in scores(self.sample.values):
            vals = np.asarray(values, dtype=float)
            if not np.all(np.isfinite(vals)):
                raise NonFiniteIntegral("score is non-finite on the sample")
            out.append(float(np.mean(vals)))
        return out

    @_closed_form
    def raw_moment(self, k: int) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            powers = self.sample.values ** k
            mean = np.mean(powers)
            if not np.isfinite(mean) and np.isfinite(powers).all():
                # the sum overflowed although every power is finite
                mean = np.sum(powers / self.sample.n)
        return float(mean)

    @_closed_form
    def central_moment(self, k: int) -> float:
        x = self.sample.values
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.mean((x - np.mean(x)) ** k))


class Uniform(DistributionModel):
    def __init__(self, a: float = 0.0, b: float = 1.0):
        a, b = _real(a), _real(b)
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise BadParams(f"uniform requires numbers a < b, got ({a}, {b})")
        self.a, self.b = a, b

    def cdf(self, x):
        with np.errstate(over="ignore"):  # a point near the float limit is beyond b or a
            return np.clip((np.asarray(x, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def quantile_extended(self, s):
        return self.a + (self.b - self.a) * np.asarray(s, dtype=float)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    @_closed_form
    def raw_moment(self, k: int) -> float:
        return (self.b ** (k + 1) - self.a ** (k + 1)) / ((k + 1) * (self.b - self.a))

    @_closed_form
    def central_moment(self, k: int) -> float:
        return 0.0 if k % 2 else (0.5 * (self.b - self.a)) ** k / (k + 1)


class Exponential(DistributionModel):
    def __init__(self, rate: float = 1.0):
        rate = _real(rate)
        if not (np.isfinite(rate) and rate > 0):
            raise BadParams(f"exponential rate must be a positive number, got {rate}")
        self.rate = rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def quantile_extended(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return -np.log1p(-s) / self.rate

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))

    @_closed_form
    def raw_moment(self, k: int) -> float:
        return math.factorial(k) / self.rate ** k

    @_closed_form
    def central_moment(self, k: int) -> float:
        # k! sum_j (-1)^j / j! is the subfactorial, an integer
        return functools.reduce(lambda d, j: j * d + (-1) ** j, range(1, k + 1), 1) / self.rate ** k


class LogNormal(DistributionModel):
    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        mu, sigma = _real(mu), _real(sigma)
        if not (np.isfinite(mu) and np.isfinite(sigma) and sigma > 0):
            raise BadParams(f"lognormal requires numbers mu and sigma > 0, got ({mu}, {sigma})")
        self.mu, self.sigma = mu, sigma

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        pos = x > 0.0
        out[pos] = normal_cdf((np.log(x[pos]) - self.mu) / self.sigma)
        return float(out) if out.ndim == 0 else out

    def quantile_extended(self, s):
        s = np.asarray(s, dtype=float)
        z = normal_quantile(s)
        with np.errstate(over="ignore"):
            return np.exp(self.mu + self.sigma * np.asarray(z, dtype=float))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z = (np.log(x) - self.mu) / self.sigma
            dens = np.exp(-0.5 * z * z) / (x * (self.sigma * _SQRT_2PI))
        return np.where(x > 0.0, dens, 0.0)

    @_closed_form
    def raw_moment(self, k: int) -> float:
        return math.exp(k * self.mu + 0.5 * (k * self.sigma) ** 2)

    @_closed_form
    def central_moment(self, k: int) -> float:
        # E X^j / mean^j = exp(j (j - 1) sigma^2 / 2); the binomial sum of
        # the 1s vanishes, so summing expm1 keeps the small differences
        mean = math.exp(self.mu + 0.5 * self.sigma ** 2)
        return mean ** k * math.fsum(
            math.comb(k, j) * (-1) ** (k - j) * math.expm1(0.5 * j * (j - 1) * self.sigma ** 2)
            for j in range(k + 1))


class Pareto(DistributionModel):
    """Pareto with scale x_m and tail index a > 2 (finite variance)."""

    def __init__(self, xm: float = 1.0, a: float = 3.0):
        xm, a = _real(xm), _real(a)
        if not (np.isfinite(xm) and xm > 0 and np.isfinite(a) and a > 2):
            raise BadParams(f"pareto requires xm > 0 and tail index a > 2, got ({xm}, {a})")
        self.xm, self.a = xm, a

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        # np.power, not a numpy scalar's ``**`` (libm's pow), so that a scalar
        # x gets the value an array holding it gets
        out = np.where(x <= self.xm, 0.0, 1.0 - np.power(self.xm / np.maximum(x, self.xm), self.a))
        return float(out) if out.ndim == 0 else out

    def quantile_extended(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return self.xm * (1.0 - s) ** (-1.0 / self.a)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.xm, 0.0,
                        self.a / self.xm * np.power(self.xm / np.maximum(x, self.xm), self.a + 1.0))

    @_closed_form
    def raw_moment(self, k: int) -> float:
        if k >= self.a:
            raise NonFiniteMoment(f"pareto moment of order {k} is infinite for tail index {self.a}")
        return self.a * self.xm ** k / (self.a - k)

    @_closed_form
    def central_moment(self, k: int) -> float:
        # about the lower end: X / xm - 1 is Lomax, E (X/xm - 1)^j = j! / prod_{i<=j} (a - i)
        self.raw_moment(k)  # NonFiniteMoment for k >= a
        lomax = np.cumprod([1.0] + [j / (self.a - j) for j in range(1, k + 1)])
        return self.xm ** k * _shifted(lomax, -1.0 / (self.a - 1.0), k)


class Normal(DistributionModel):
    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        mu, sigma = _real(mu), _real(sigma)
        if not (np.isfinite(mu) and np.isfinite(sigma) and sigma > 0):
            raise BadParams(f"normal requires numbers mu and sigma > 0, got ({mu}, {sigma})")
        self.mu, self.sigma = mu, sigma

    def cdf(self, x):
        with np.errstate(over="ignore"):  # an infinite standardized point has F 0 or 1
            return normal_cdf((np.asarray(x, dtype=float) - self.mu) / self.sigma)

    def quantile_extended(self, s):
        z = normal_quantile(s)
        with np.errstate(over="ignore"):  # a quantile beyond the float range is inf
            return self.mu + self.sigma * np.asarray(z, dtype=float)

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    @_closed_form
    def raw_moment(self, k: int) -> float:
        # E (mu + sigma W)^k with E W^(2j) = (2j-1)!!
        total = 0.0
        for j in range(0, k // 2 + 1):
            total += (math.comb(k, 2 * j) * self.mu ** (k - 2 * j)
                      * self.sigma ** (2 * j) * _double_factorial(2 * j - 1))
        return total

    @_closed_form
    def central_moment(self, k: int) -> float:
        return 0.0 if k % 2 else self.sigma ** k * _double_factorial(k - 1)


def _double_factorial(m: int) -> float:
    if m <= 0:
        return 1.0
    return float(math.prod(range(m, 0, -2)))


class Mixture(DistributionModel):
    """Finite mixture sum_i p_i F_i; the law of a subgroup-labelled draw."""

    def __init__(self, weights: Sequence[float], components: Sequence[DistributionModel]):
        try:
            w = np.asarray(weights, dtype=float)
        except (TypeError, ValueError):
            raise BadParams(f"mixture weights must be numbers, got {weights!r}") from None
        if w.ndim != 1 or len(components) != w.size or w.size == 0:
            raise BadParams("weights must be a 1-d sequence aligned with nonempty components")
        if not all(isinstance(c, DistributionModel) for c in components):
            raise BadParams("mixture components must be distribution models")
        if np.any(w <= 0) or not math.isclose(float(w.sum()), 1.0, abs_tol=1e-9):
            raise BadParams("mixture weights must be positive and sum to 1")
        w = w / w.sum()
        w.flags.writeable = False
        self.weights, self.components = w, tuple(components)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(p * np.asarray(c.cdf(x), dtype=float)
                  for p, c in zip(self.weights, self.components))
        return float(out) if np.asarray(out).ndim == 0 else out

    def pdf(self, x):
        """The weighted sum of the components' densities; None if one has none."""
        parts = [c.pdf(x) for c in self.components]
        if any(part is None for part in parts):
            return None
        return sum(p * np.asarray(part, dtype=float) for p, part in zip(self.weights, parts))

    def quantile_extended(self, s):
        """Generalized inverse ``inf {x : F(x) >= s}`` by safeguarded Newton steps.

        Each interior level starts between the two adjacent points of a
        sorted grid of component quantiles that one pass of F brackets it
        by, widened where round-off makes it miss, so that
        ``F(lo) < s <= F(hi)``.  Every pass then evaluates F once on the
        brackets still open and moves one of their ends to the trial point:
        the Newton point on the mixture density (rtsafe, Press et al.),
        aimed one reach past the root, or the bisection point
        ``lo + (hi - lo) / 2`` where the Newton point leaves the bracket,
        the density is 0 or missing, or the step is not at most half the one
        before last.  A bracket closes on two adjacent floats, and its upper
        end, the smallest float found with ``F(x) >= s``, is returned, so in
        a flat region of F the result is its left end.  Levels <= 0 and >= 1
        give the smallest and the largest component endpoint, a level whose
        root lies beyond the float range gives +-inf, and a nan level gives
        nan.
        """
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.full_like(s_arr, np.nan)
        low, high = s_arr <= 0.0, s_arr >= 1.0
        out[low] = min(np.min(c.quantile_extended(0.0)) for c in self.components)
        out[high] = max(np.max(c.quantile_extended(1.0)) for c in self.components)
        inner = (s_arr > 0.0) & (s_arr < 1.0)   # a nan level stays nan
        if inner.any():
            out[inner] = self._roots(s_arr[inner])
        return float(out[0]) if np.asarray(s).ndim == 0 else out

    def _roots(self, level: np.ndarray) -> np.ndarray:
        """``inf {x : F(x) >= s}`` for every level s of a 1-d array in (0, 1)."""
        comp = np.array([c.quantile_extended(level) for c in self.components], dtype=float)
        # The root of level s lies between the components' quantiles at s.
        # One pass of F over a sorted grid of component quantiles -- at every
        # NODES-th level, one per cell of a mesh call, and the extremes of
        # all -- brackets each level between two adjacent grid points.
        grid = np.sort(np.concatenate([comp[:, ::ugrid.NODES].ravel(),
                                       [comp.min(), comp.max()]]))
        f_grid = np.asarray(self.cdf(grid), dtype=float)
        # the first grid point whose F reaches s, read off the running
        # maximum so that a round-off dip of F cannot hide it
        k = np.searchsorted(np.maximum.accumulate(f_grid), level)
        upper, lower = np.minimum(k, grid.size - 1), np.maximum(k - 1, 0)
        lo, hi, f_lo, f_hi = grid[lower], grid[upper], f_grid[lower], f_grid[upper]
        # where a component's cdf and quantile disagree by round-off (deep
        # tails) the grid can miss a level; widen until F(lo) < s <= F(hi),
        # or until the end is infinite
        step = hi - lo + np.abs(lo) + np.abs(hi) + np.finfo(float).tiny
        with np.errstate(over="ignore"):
            while (miss := (f_hi < level) & (hi < np.inf)).any():
                lo[miss], hi[miss], f_lo[miss] = hi[miss], hi[miss] + step[miss], f_hi[miss]
                step[miss] *= 2.0
                f_hi[miss] = self.cdf(hi[miss])
            while (miss := (f_lo >= level) & (lo > -np.inf)).any():
                lo[miss], hi[miss], f_hi[miss] = lo[miss] - step[miss], lo[miss], f_lo[miss]
                step[miss] *= 2.0
                f_lo[miss] = self.cdf(lo[miss])
        # An infinite end (a component quantile or a widening overflowed) is
        # the largest float of its sign.  A level that F has not reached
        # there, or has passed, has its root beyond the float range: +inf or
        # -inf, as a component's own quantile gives.
        for end, f_end in ((hi, f_hi), (lo, f_lo)):
            if (wide := np.isinf(end)).any():
                end[wide] = np.copysign(np.finfo(float).max, end[wide])
                f_end[wide] = self.cdf(end[wide])
        found = np.where(f_hi < level, np.inf, -np.inf)
        idx = np.flatnonzero((f_lo < level) & (level <= f_hi))  # the open brackets
        level, lo, hi, f_lo, f_hi = (a[idx] for a in (level, lo, hi, f_lo, f_hi))
        # the first trial is the false-position point of the bracket
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = lo - (f_lo - level) * ((hi - lo) / (f_hi - f_lo))
        t = np.where((t > lo) & (t < hi), t, lo + 0.5 * (hi - lo))
        d = hi - lo                        # the step before last (rtsafe's dxold)
        bisect = np.zeros(level.size, dtype=bool)
        # A bracket bisects from the pass where the density is 0 or missing or
        # the bracket is narrower than Newton's resolution.  A level's steps
        # depend on the grid, so on the other levels of the call, but its
        # result does not: every bracket closes on the same two floats.  The
        # cap on the passes only guards termination; bisection closes the rest.
        for _ in range(_NEWTON_PASSES):
            if not idx.size or bisect.all():
                break
            g = np.asarray(self.cdf(t), dtype=float) - level
            above = g >= 0.0
            lo, hi = np.where(above, lo, t), np.where(above, t, hi)
            open_ = np.nextafter(lo, hi) < hi
            if not open_.all():
                found[idx[~open_]] = hi[~open_]
                idx, level, lo, hi, t, g, above, d, bisect = (
                    a[open_] for a in (idx, level, lo, hi, t, g, above, d, bisect))
            mid = lo + 0.5 * (hi - lo)
            dens = self.pdf(t)
            if dens is None:
                t = mid
                break
            # Within round-off of s, F is a staircase whose steps span many
            # floats, and a Newton point on the root lands on the same side
            # again and again.  So each trial aims one reach past the root,
            # towards the bracket's other end: the x-width of one ulp of s
            # under the density, at least one float.  There the steps are
            # noise, and rtsafe's halving test gives way to the bracket.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                root = t - g / dens
                corr = np.abs(root - t)
                reach = np.maximum(np.spacing(level) / dens, np.spacing(np.abs(root)))
            trial = np.where(above, root - reach, root + reach)
            near = np.abs(g) <= 64.0 * np.spacing(level)
            bisect |= ~(dens > 0.0) | (hi - lo <= 4.0 * reach)
            take = ~bisect & (trial > lo) & (trial < hi) & (near | (corr <= 0.5 * d))
            d = np.where(take, corr, 0.5 * (hi - lo))
            t = np.where(take, trial, mid)
        # no Newton step left to take: bisection closes the rest
        while idx.size:
            above = np.asarray(self.cdf(t)) >= level
            lo, hi = np.where(above, lo, t), np.where(above, t, hi)
            open_ = np.nextafter(lo, hi) < hi
            if not open_.all():
                found[idx[~open_]] = hi[~open_]
                idx, level, lo, hi = (a[open_] for a in (idx, level, lo, hi))
            t = lo + 0.5 * (hi - lo)
        return found

    def _integrals(self, scores, breaks=()) -> list:
        parts = zip(*(c._integrals(scores, breaks) for c in self.components))
        return [float(sum(p * v for p, v in zip(self.weights, values))) for values in parts]

    def raw_moment(self, k: int) -> float:
        return float(sum(p * c.raw_moment(k) for p, c in zip(self.weights, self.components)))

    @_closed_form
    def central_moment(self, k: int) -> float:
        # each component's central moments shifted from its mean to the mixture's
        mean = self.raw_moment(1)
        return math.fsum(p * _shifted([1.0, 0.0] + [c.central_moment(j) for j in range(2, k + 1)],
                                      c.raw_moment(1) - mean, k)
                         for p, c in zip(self.weights, self.components))
