"""Distribution models: empirical plug-in, parametric families, mixtures.

A distribution model is anything exposing

* ``cdf(x)``            -- nondecreasing, right-continuous,
* ``quantile(s)``       -- the generalized inverse on (0, 1),
* ``integrate_score(f)``-- the expectation of a score under the model,
* ``kind``              -- ``"empirical"`` or ``"parametric"``.

Empirical models integrate scores exactly as sample means; parametric models
integrate through the quantile substitution ``E f(X) = int_0^1 f(Q(u)) du``
with scipy's adaptive QUADPACK rule.  The nodes it asks for are evaluated in
batches, one vectorized ``f(Q(u))`` call per bisected subinterval pair, so
the result is that of evaluating each node on a 1-element array; it differs
from a 0-d evaluation only where numpy scalar arithmetic rounds a power
differently from the array loop.  Models additionally expose
``quantile_extended``, a total function on [0, 1] returning the (possibly
infinite) endpoint limits; grid-based routines use it to decide where the
quantile needs clipping.

The inverse standard normal CDF is Wichura's AS241 rational approximation
(PPND16), accurate to ~1e-15 in double precision.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Callable, Sequence

import numpy as np

from .empirical import EmpiricalSample, build_sample, ecdf, equantile
from .errors import BadParams, NonFiniteIntegral, NonFiniteMoment, OutOfRange

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


def _poly(coefs, x):
    r = coefs[7]
    for c in coefs[6::-1]:
        r = r * x + c
    return r


def normal_quantile(p):
    """Inverse standard normal CDF (AS241); vectorized, +-inf at 0 and 1."""
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if np.any((p < 0.0) | (p > 1.0)):
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
    """Standard normal CDF via erfc (double precision accurate)."""
    from scipy.special import erfc

    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def _closed_form(moment: Callable[["DistributionModel", int], float]):
    """Mark a closed-form ``raw_moment``: one beyond the float range raises
    ``NonFiniteMoment``, where Python's float powers, ``math.exp`` and
    big-integer division raise ``OverflowError`` and a sum can reach inf
    (or, on a sample, nan from opposite infinite powers)."""

    @functools.wraps(moment)
    def raw_moment(self, k: int) -> float:
        try:
            value = float(moment(self, k))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise NonFiniteMoment(f"{type(self).__name__} moment of order {k} "
                                  f"is beyond the float range")
        return value

    return raw_moment


class DistributionModel:
    """Base class; concrete models fill in cdf/quantile and moments."""

    kind = "parametric"

    def cdf(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def quantile(self, s):
        """Generalized inverse CDF on (0, 1)."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(~((s_arr > 0.0) & (s_arr < 1.0))):
            raise OutOfRange("quantile level must lie in (0, 1)")
        return self.quantile_extended(s)

    def quantile_extended(self, s):  # pragma: no cover - abstract
        """Quantile as a total function on [0, 1]; may return +-inf at the ends."""
        raise NotImplementedError

    def integrate_score(self, f: Callable, breaks: Sequence[float] = ()) -> float:
        """E f(X) by adaptive quadrature of f(Q(u)) on (0, 1).

        ``breaks`` lists x-values where f jumps (e.g. a poverty line); they
        are forwarded to the integrator as subdivision points.  ``quad``
        asks for one level at a time; :class:`_KronrodNodes` answers from
        batched evaluations of ``f`` at the nodes it will ask for.
        """
        cuts = {float(self.cdf(b)) for b in breaks}
        pts = sorted(c for c in cuts if 0.0 < c < 1.0)

        def integrand(u):
            # deep subdivision next to a singular endpoint can round u onto
            # it; nudge back inside the open interval
            x = self.quantile_extended(np.minimum(np.maximum(u, 1e-300), 1.0 - 1e-16))
            return np.broadcast_to(np.asarray(f(np.asarray(x)), dtype=float), u.shape)

        import warnings

        from scipy import integrate

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(_KronrodNodes(integrand, [0.0, *pts, 1.0]), 0.0, 1.0,
                                    points=pts or None, limit=200)
        if not np.isfinite(val):
            raise NonFiniteIntegral("score integral did not converge")
        return float(val)

    def raw_moment(self, k: int) -> float:
        """E X^k; overridden with closed forms where available."""
        return self.integrate_score(lambda x: np.asarray(x, dtype=float) ** k)

    def mean(self) -> float:
        return self.raw_moment(1)


# QUADPACK's 21-point Kronrod abscissae (dqk21) other than the centre
_XGK21 = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                   0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                   0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                   0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                   0.294392862701460198131126603103866, 0.148874338981631210884826001129720])


class _KronrodNodes:
    """A scalar integrand for ``quad`` that evaluates ``integrand`` in batches.

    QUADPACK integrates each subinterval [a, b] with the 21-point rule at
    ``c`` and ``c -+ h*xgk`` (``c = (a+b)/2``, ``h = (b-a)/2``) and refines
    by bisecting one subinterval, always evaluating both halves.  The table
    mirrors its subintervals: it starts with the nodes of the intervals
    between ``edges``, and a level it does not hold bisects the subinterval
    holding it and evaluates both halves' 42 nodes in one call.  A level
    still missing is evaluated alone, so no value depends on predicting the
    nodes.
    """

    def __init__(self, integrand: Callable, edges: Sequence[float]):
        self.integrand = integrand
        self.edges = list(edges)
        self.values: dict = {}
        self._fill(self.edges[:-1], self.edges[1:])

    def _fill(self, a, b) -> None:
        a, b = np.asarray(a), np.asarray(b)
        c, off = 0.5 * (a + b), np.multiply.outer(0.5 * (b - a), _XGK21)
        u = np.concatenate([c, (c[:, None] - off).ravel(), (c[:, None] + off).ravel()])
        self.values.update(zip(u.tolist(), self.integrand(u).tolist()))

    def __call__(self, u: float) -> float:
        if u not in self.values:
            i = bisect.bisect_left(self.edges, u, 1)
            a, b = self.edges[i - 1], self.edges[i]
            mid = 0.5 * (a + b)
            self.edges.insert(i, mid)
            self._fill([a, mid], [mid, b])
        value = self.values.get(u)
        return float(self.integrand(np.array([u]))[0]) if value is None else value


class EmpiricalDistribution(DistributionModel):
    """Plug-in model built from a sample; all integrals are exact sums."""

    kind = "empirical"

    def __init__(self, sample: EmpiricalSample | Sequence[float]):
        if not isinstance(sample, EmpiricalSample):
            sample = build_sample(sample)
        self.sample = sample

    @property
    def n(self) -> int:
        return self.sample.n

    def cdf(self, x):
        return ecdf(self.sample, x)

    def quantile(self, s):
        s_arr = np.asarray(s, dtype=float)
        if s_arr.ndim == 0:
            return equantile(self.sample, float(s_arr))
        if np.any(~((s_arr > 0.0) & (s_arr <= 1.0))):
            raise OutOfRange("quantile level must lie in (0, 1]")
        j = np.ceil(self.sample.n * s_arr).astype(int)
        return self.sample.values[j - 1]

    def quantile_extended(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        j = np.clip(np.ceil(self.sample.n * s_arr).astype(int), 1, self.sample.n)
        out = self.sample.values[j - 1]
        return float(out[0]) if np.asarray(s).ndim == 0 else out

    def integrate_score(self, f, breaks=()) -> float:
        vals = np.asarray(f(self.sample.values), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegral("score is non-finite on the sample")
        return float(np.mean(vals))

    @_closed_form
    def raw_moment(self, k: int) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            powers = self.sample.values ** k
            mean = np.mean(powers)
            if not np.isfinite(mean) and np.isfinite(powers).all():
                # the sum overflowed although every power is finite
                mean = np.sum(powers / self.sample.n)
        return float(mean)


class Uniform(DistributionModel):
    def __init__(self, a: float = 0.0, b: float = 1.0):
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise BadParams(f"uniform requires a < b, got ({a}, {b})")
        self.a, self.b = float(a), float(b)

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def quantile_extended(self, s):
        return self.a + (self.b - self.a) * np.asarray(s, dtype=float)

    @_closed_form
    def raw_moment(self, k: int) -> float:
        return (self.b ** (k + 1) - self.a ** (k + 1)) / ((k + 1) * (self.b - self.a))


class Exponential(DistributionModel):
    def __init__(self, rate: float = 1.0):
        if not (np.isfinite(rate) and rate > 0):
            raise BadParams(f"exponential rate must be positive, got {rate}")
        self.rate = float(rate)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * x))

    def quantile_extended(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return -np.log1p(-s) / self.rate

    @_closed_form
    def raw_moment(self, k: int) -> float:
        return math.factorial(k) / self.rate ** k


class LogNormal(DistributionModel):
    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        if not (np.isfinite(mu) and np.isfinite(sigma) and sigma > 0):
            raise BadParams(f"lognormal requires sigma > 0, got ({mu}, {sigma})")
        self.mu, self.sigma = float(mu), float(sigma)

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

    @_closed_form
    def raw_moment(self, k: int) -> float:
        return math.exp(k * self.mu + 0.5 * (k * self.sigma) ** 2)


class Pareto(DistributionModel):
    """Pareto with scale x_m and tail index a > 2 (finite variance)."""

    def __init__(self, xm: float = 1.0, a: float = 3.0):
        if not (np.isfinite(xm) and xm > 0 and np.isfinite(a) and a > 2):
            raise BadParams(f"pareto requires xm > 0 and tail index a > 2, got ({xm}, {a})")
        self.xm, self.a = float(xm), float(a)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x <= self.xm, 0.0, 1.0 - (self.xm / np.maximum(x, self.xm)) ** self.a)
        return float(out) if out.ndim == 0 else out

    def quantile_extended(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return self.xm * (1.0 - s) ** (-1.0 / self.a)

    @_closed_form
    def raw_moment(self, k: int) -> float:
        if k >= self.a:
            raise NonFiniteMoment(f"pareto moment of order {k} is infinite for tail index {self.a}")
        return self.a * self.xm ** k / (self.a - k)


class Normal(DistributionModel):
    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        if not (np.isfinite(mu) and np.isfinite(sigma) and sigma > 0):
            raise BadParams(f"normal requires sigma > 0, got ({mu}, {sigma})")
        self.mu, self.sigma = float(mu), float(sigma)

    def cdf(self, x):
        return normal_cdf((np.asarray(x, dtype=float) - self.mu) / self.sigma)

    def quantile_extended(self, s):
        z = normal_quantile(s)
        return self.mu + self.sigma * np.asarray(z, dtype=float)

    @_closed_form
    def raw_moment(self, k: int) -> float:
        # E (mu + sigma W)^k with E W^(2j) = (2j-1)!!
        total = 0.0
        for j in range(0, k // 2 + 1):
            total += (math.comb(k, 2 * j) * self.mu ** (k - 2 * j)
                      * self.sigma ** (2 * j) * _double_factorial(2 * j - 1))
        return total


def _double_factorial(m: int) -> float:
    if m <= 0:
        return 1.0
    return float(math.prod(range(m, 0, -2)))


class Mixture(DistributionModel):
    """Finite mixture sum_i p_i F_i; the law of a subgroup-labelled draw."""

    def __init__(self, weights: Sequence[float], components: Sequence[DistributionModel]):
        w = np.asarray(weights, dtype=float)
        if len(components) != w.size or w.size == 0:
            raise BadParams("weights and components must align and be nonempty")
        if np.any(w <= 0) or not math.isclose(float(w.sum()), 1.0, abs_tol=1e-9):
            raise BadParams("mixture weights must be positive and sum to 1")
        self.weights = w / w.sum()
        self.components = list(components)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(p * np.asarray(c.cdf(x), dtype=float)
                  for p, c in zip(self.weights, self.components))
        return float(out) if np.asarray(out).ndim == 0 else out

    def quantile_extended(self, s):
        """Generalized inverse ``inf {x : F(x) >= s}`` by vectorized bisection.

        Each interior level is bracketed by the smallest and the largest
        component quantile, and all brackets are bisected together with one
        vectorized ``cdf`` call per step until each is two adjacent floats.
        The upper end, the smallest float found with ``F(x) >= s``, is
        returned, so in a flat region of F the result is its left end.
        Levels <= 0 and >= 1 give the smallest and the largest component
        endpoint.
        """
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s_arr)
        low, high = s_arr <= 0.0, s_arr >= 1.0
        out[low] = min(np.min(c.quantile_extended(0.0)) for c in self.components)
        out[high] = max(np.max(c.quantile_extended(1.0)) for c in self.components)
        inner = ~(low | high)
        level = s_arr[inner]
        comp = np.array([c.quantile_extended(level) for c in self.components], dtype=float)
        lo, hi = comp.min(axis=0), comp.max(axis=0)
        # where a component's cdf and quantile disagree by round-off (deep
        # tails) a bracket can miss; widen it until F(lo) < s <= F(hi)
        step = hi - lo + np.abs(lo) + np.abs(hi) + np.finfo(float).tiny
        while (miss := np.asarray(self.cdf(hi)) < level).any():
            lo[miss], hi[miss] = hi[miss], hi[miss] + step[miss]
            step[miss] *= 2.0
        while (miss := np.asarray(self.cdf(lo)) >= level).any():
            lo[miss], hi[miss] = lo[miss] - step[miss], lo[miss]
            step[miss] *= 2.0
        open_ = (lo < hi) & (np.nextafter(lo, hi) < hi)
        while open_.any():
            mid = lo[open_] + 0.5 * (hi[open_] - lo[open_])
            above = np.asarray(self.cdf(mid)) >= level[open_]
            idx = np.flatnonzero(open_)
            hi[idx[above]] = mid[above]
            lo[idx[~above]] = mid[~above]
            open_[idx] = np.nextafter(lo[idx], hi[idx]) < hi[idx]
        out[inner] = hi
        return float(out[0]) if np.asarray(s).ndim == 0 else out

    def integrate_score(self, f, breaks=()) -> float:
        return float(sum(p * c.integrate_score(f, breaks=breaks)
                         for p, c in zip(self.weights, self.components)))

    def raw_moment(self, k: int) -> float:
        return float(sum(p * c.raw_moment(k) for p, c in zip(self.weights, self.components)))
