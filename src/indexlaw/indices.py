"""The statistic catalog: FGT, Sen, Kakwani, Shorrocks, Thon, Takayama,
the general poverty index, central moments and normalized moments.

:class:`NamedIndex` is the one declaration of the catalog: which kinds
exist (the CLI reads its ``--index`` choices from them), which parameters
each kind takes and how an index prints.  Each catalog entry provides two
things: an exact finite-n point estimator over a sample, and an
:class:`~indexlaw.representation.IndexRepresentation` (the (h, q) score pair
plus the value functional) built against a reference distribution model,
from which asymptotic variances and joint laws follow.
The poverty scores share one masked form, ``f(x, F(x))`` on the poor and 0
above the line, and two families cover most of the catalog: Sen is Kakwani
with k = 1, and Shorrocks, Thon and the Takayama C statistic share the
rank-linear pair ``h = (1 - F) d``, ``q = -d`` (``d`` twice the normalized
gap for Shorrocks and Thon, the user's ``d`` for Takayama).

Conventions adopted for finite data:

* a "poor" observation satisfies ``X <= Z``; the poverty line Z is fixed;
* FGT uses ``0**0 = 1`` so that alpha = 0 is the headcount ratio;
* weighted indices whose displayed denominators involve the number of poor
  (Sen, Kakwani) are defined as 0 when nobody is poor, the limit of the
  formulas; under a model with F(Z) = 0 every rank-weighted kind has the
  zero score pair and the value 0;
* the Takayama statistic is handled through its rank form
  ``C_n = (1/n) sum (1 - F_n(X_j) + 1/n) d(X_j) 1_{X_j <= Z}`` and the
  ratio variant ``T_n = C_n / mean_n`` whose representation composes the
  C-representation with the mean through the ratio rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import DistributionModel, EmpiricalDistribution, _real
from .empirical import EmpiricalSample, ScoreFunction
from .errors import (BadParams, BadThreshold, NonFiniteConstant, OutOfRange,
                     ThresholdOutsideSupport, ZeroDenominator, ZeroHpi,
                     ZeroMean, ZeroVariance)
from .representation import IndexRepresentation, Polynomial, _zero, compose_ratio
from .ugrid import NODES, gauss_nodes, gauss_sum

_POVERTY_KINDS = ("fgt", "sen", "kakwani", "shorrocks", "thon", "takayama",
                  "takayama_ratio")
_MOMENT_KINDS = ("central_moment", "odd_moment", "even_moment")
# what a kind takes besides the poverty line (poverty kinds) or the order
_OWN_PARAMS = {"fgt": ("alpha",), "kakwani": ("k",), "takayama": ("d",),
               "takayama_ratio": ("d",)}
# every parameter a kind may take, in display order, with its label format
_PARAM_FORMATS = {"alpha": "alpha={:g}", "k": "k={}", "order": "order={}",
                  "poverty_line": "Z={:g}"}


def _identity(x):
    return np.asarray(x, dtype=float)


_MEAN = Polynomial(0.0, (0.0, 1.0))   # the mean's score x, all polynomial


def _whole(value, least: int, message: str) -> int:
    """``value`` as an int if it is a whole number >= ``least``, else
    OutOfRange; a bool is not a number here."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise OutOfRange(message)


@dataclass(frozen=True)
class NamedIndex:
    """A catalog index: a kind tag plus its parameters."""

    kind: str
    alpha: Optional[float] = None
    k: Optional[int] = None
    order: Optional[int] = None
    poverty_line: Optional[float] = None
    d: Optional[ScoreFunction] = None

    def __post_init__(self):
        if self.kind not in _POVERTY_KINDS + _MOMENT_KINDS:
            raise OutOfRange(f"unknown index kind {self.kind!r}")
        takes = _OWN_PARAMS.get(self.kind, ()) + (
            ("poverty_line",) if self.kind in _POVERTY_KINDS else ("order",))
        stray = [name for name in (*_PARAM_FORMATS, "d")
                 if name not in takes and getattr(self, name) is not None]
        if stray:
            raise BadParams(f"{self.kind} takes no {', '.join(stray)}")
        if self.kind in _POVERTY_KINDS:
            line = _real(self.poverty_line)
            if not 0 < line < math.inf:
                raise BadThreshold("poverty kinds need a finite positive poverty line")
            object.__setattr__(self, "poverty_line", line)
        if self.kind == "fgt":
            alpha = _real(self.alpha)
            if not 0 <= alpha < math.inf:
                raise BadThreshold("fgt needs a finite alpha >= 0")
            object.__setattr__(self, "alpha", alpha)
        if self.kind == "kakwani":
            object.__setattr__(self, "k", _whole(self.k, 1, "kakwani needs an integer k >= 1"))
        if self.kind in ("takayama", "takayama_ratio") and self.d is None:
            object.__setattr__(self, "d", _identity)
        if self.kind in _MOMENT_KINDS:
            least = 1 if self.kind == "central_moment" else 2
            object.__setattr__(self, "order", _whole(
                self.order, least, f"{self.kind} needs an integer order >= {least}"))

    # constructors ----------------------------------------------------------

    @staticmethod
    def fgt(alpha: float, poverty_line: float) -> "NamedIndex":
        return NamedIndex("fgt", alpha=alpha, poverty_line=poverty_line)

    @staticmethod
    def sen(poverty_line: float) -> "NamedIndex":
        return NamedIndex("sen", poverty_line=poverty_line)

    @staticmethod
    def kakwani(k: int, poverty_line: float) -> "NamedIndex":
        return NamedIndex("kakwani", k=k, poverty_line=poverty_line)

    @staticmethod
    def shorrocks(poverty_line: float) -> "NamedIndex":
        return NamedIndex("shorrocks", poverty_line=poverty_line)

    @staticmethod
    def thon(poverty_line: float) -> "NamedIndex":
        return NamedIndex("thon", poverty_line=poverty_line)

    @staticmethod
    def takayama(poverty_line: float, d: Optional[ScoreFunction] = None) -> "NamedIndex":
        return NamedIndex("takayama", poverty_line=poverty_line, d=d)

    @staticmethod
    def takayama_ratio(poverty_line: float, d: Optional[ScoreFunction] = None) -> "NamedIndex":
        return NamedIndex("takayama_ratio", poverty_line=poverty_line, d=d)

    @staticmethod
    def central_moment(order: int) -> "NamedIndex":
        return NamedIndex("central_moment", order=order)

    @staticmethod
    def odd_normalized(p: int) -> "NamedIndex":
        return NamedIndex("odd_moment", order=p)

    @staticmethod
    def even_normalized(p: int) -> "NamedIndex":
        return NamedIndex("even_moment", order=p)

    def params(self) -> dict:
        """The parameters that are set, in the order alpha, k, order, poverty_line."""
        return {name: getattr(self, name) for name in _PARAM_FORMATS
                if getattr(self, name) is not None}

    def label(self) -> str:
        shown = ", ".join(_PARAM_FORMATS[name].format(value)
                          for name, value in self.params().items())
        return f"{self.kind}({shown})" if shown else self.kind


# ---------------------------------------------------------------------------
# Point estimators
# ---------------------------------------------------------------------------


def _poor_gaps(sample: EmpiricalSample, z: float) -> tuple[int, np.ndarray]:
    """The number q of poor (``X <= z``, a prefix of the sorted values) and
    their normalized gaps ``(z - X) / z``."""
    q = int(np.searchsorted(sample.values, z, side="right"))
    gaps = (z - sample.values[:q]) / z
    return q, gaps


def named_estimate(sample: EmpiricalSample, index: NamedIndex) -> float:
    """Exact finite-n value of a catalog index over the sample."""
    n = sample.n
    z = index.poverty_line
    if index.kind == "fgt":
        _, gaps = _poor_gaps(sample, z)
        return float(np.sum(gaps ** index.alpha) / n)
    if index.kind in ("sen", "kakwani"):
        k = 1 if index.kind == "sen" else index.k
        q, gaps = _poor_gaps(sample, z)
        if q == 0:
            return 0.0
        j = np.arange(1, q + 1)
        phi = float(np.sum(j.astype(float) ** k))
        return float(q / (n * phi) * np.sum((q - j + 1.0) ** k * gaps))
    if index.kind == "shorrocks":
        q, gaps = _poor_gaps(sample, z)
        j = np.arange(1, q + 1)
        return float(np.sum((2 * n - 2 * j + 1) * gaps) / n ** 2)
    if index.kind == "thon":
        q, gaps = _poor_gaps(sample, z)
        j = np.arange(1, q + 1)
        return float(2.0 / (n * (n + 1)) * np.sum((n - j + 1) * gaps))
    if index.kind == "takayama":
        return _takayama_rank_form(sample, z, index.d)
    if index.kind == "takayama_ratio":
        mean = float(np.mean(sample.values))
        if mean == 0.0:
            raise ZeroMean("takayama ratio needs a nonzero sample mean")
        return _takayama_rank_form(sample, z, index.d) / mean
    return _moment_estimate(sample, *_moment_key(index))


def _takayama_rank_form(sample: EmpiricalSample, z: float, d: ScoreFunction) -> float:
    q, _ = _poor_gaps(sample, z)
    poor = sample.values[:q]
    fn = np.searchsorted(sample.values, poor, side="right") / sample.n
    dv = np.asarray(d(poor), dtype=float)
    return float(np.sum((1.0 - fn + 1.0 / sample.n) * dv) / sample.n)


def _moment_key(index: NamedIndex) -> tuple[int, bool]:
    """A moment kind as the order of its numerator moment (the order itself
    for central_moment, 2p - 1 for odd_moment, 2p for even_moment) and
    whether that moment is normalized by ``mu_2^(order/2)``."""
    p = index.order
    if index.kind == "central_moment":
        return p, False
    return (2 * p - 1 if index.kind == "odd_moment" else 2 * p), True


def _variance(mu2: float) -> float:
    """``mu2``, the variance a normalized moment divides by; ZeroVariance
    unless it is positive."""
    if mu2 <= 0.0:
        raise ZeroVariance("normalized moments need positive variance")
    return mu2


def _moment_estimate(sample: EmpiricalSample, top: int, normalized: bool) -> float:
    """Plug-in central moment ``(1/n) sum (X_i - mean)^top`` of the sample,
    normalized if asked; exactly 0 at order 1, where the sum vanishes
    identically.  A moment beyond the float range raises ``NonFiniteMoment``,
    as the plug-in model's does."""
    plug_in = EmpiricalDistribution(sample)
    central = lambda k: 0.0 if k == 1 else plug_in.central_moment(k)
    if not normalized:
        return central(top)
    return central(top) / _variance(central(2)) ** (top / 2.0)


# ---------------------------------------------------------------------------
# Representations of the poverty catalog
# ---------------------------------------------------------------------------


def _check_threshold(model: DistributionModel, z: float) -> float:
    """F(Z), which must be < 1: nobody poor (F(Z) = 0) is allowed."""
    fz = float(np.asarray(model.cdf(z)))
    if not (0.0 <= fz < 1.0):
        raise ThresholdOutsideSupport(f"need 0 <= F(Z) < 1, got F({z}) = {fz}")
    return fz


def _gap(z: float, x: np.ndarray) -> np.ndarray:
    return (z - x) / z


def _poor_scores(z: float, f: Callable[[np.ndarray, Optional[np.ndarray]], tuple],
                 model: Optional[DistributionModel] = None) -> Callable[[np.ndarray], list]:
    """The scores ``x -> f(x, F(x))[i]`` on ``x <= Z`` and 0 above the line,
    from one evaluation of ``f`` and of ``F``.

    ``f`` and the model CDF ``F`` (``None`` without a model) see the poor
    points only, so neither is evaluated at a negative gap.
    """

    def scores(x):
        x = np.asarray(x, dtype=float)
        poor = x <= z
        xp = x[poor]
        out = []
        for values in f(xp, None if model is None else np.asarray(model.cdf(xp), dtype=float)):
            score = np.zeros_like(x)
            score[poor] = values
            out.append(score)
        return out

    return scores


def _poor_score(z: float, f: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray],
                model: Optional[DistributionModel] = None) -> ScoreFunction:
    """The one score ``x -> f(x, F(x))`` of ``_poor_scores``."""
    scores = _poor_scores(z, lambda x, fx: (f(x, fx),), model)
    return lambda x: scores(x)[0]


def _kakwani_constants(model: DistributionModel, z: float, k: int) -> tuple[float, float, float]:
    fz = _check_threshold(model, z)
    if fz == 0.0:
        return fz, 0.0, 0.0
    # jk and core integrate over one set of nodes with one F pass at the poor
    jk, core = model._integrals(_poor_scores(
        z, lambda x, fx: ((k + 1.0) * (1.0 - fx / fz) ** k * _gap(z, x),
                          (1.0 - fx / fz) ** (k - 1) * _gap(z, x)), model), breaks=(z,))
    kk = k * (k + 1.0) / fz * core + jk / fz
    if not (np.isfinite(jk) and np.isfinite(kk)):
        raise NonFiniteConstant("Kakwani constants are not finite")
    return fz, jk, kk


def _kakwani_representation(model: DistributionModel, z: float, k: int) -> IndexRepresentation:
    fz, jk, kk = _kakwani_constants(model, z, k)
    value = lambda m: _kakwani_constants(m, z, k)[1]
    if fz == 0.0:  # nobody poor: the zero score pair
        return IndexRepresentation(h=_zero, q=None, value=value, breaks=(z,))
    h = _poor_score(z, lambda x, fx: (k + 1.0) * ((1.0 - fx / fz) ** k * _gap(z, x)
                                                  - (jk / fz) * (fx / fz) ** k) + kk, model)
    q = _poor_score(z, lambda x, fx: (-k * (k + 1.0) / fz
                                      * ((1.0 - fx / fz) ** (k - 1) * _gap(z, x)
                                         + (jk / fz) * (fx / fz) ** (k - 1))), model)
    return IndexRepresentation(h=h, q=q, value=value, breaks=(z,))


def _rank_linear_representation(model: DistributionModel, z: float,
                                d: ScoreFunction) -> IndexRepresentation:
    """``h = (1 - F) d`` and ``q = -d`` on the poor; the value is E h under
    whatever model it is applied to."""

    def h_under(m):
        return _poor_score(z, lambda x, fx: (1.0 - fx) * d(x), m)

    def value(m):
        return m.integrate_score(h_under(m), breaks=(z,))

    if _check_threshold(model, z) == 0.0:  # nobody poor: the zero score pair
        return IndexRepresentation(h=_zero, q=None, value=value, breaks=(z,))
    return IndexRepresentation(h=h_under(model), q=_poor_score(z, lambda x, _: -d(x)),
                               value=value, breaks=(z,))


def named_representation(model: DistributionModel, index: NamedIndex) -> IndexRepresentation:
    """Closed-form (h, q) pair and value functional of a catalog index.

    The scores are built against the supplied model (plug-in or parametric);
    the value field stays a true functional and recomputes its constants from
    whatever model it is applied to.
    """
    z = index.poverty_line
    kind = index.kind

    if kind == "fgt":
        # no interior-threshold requirement: the FGT scores do not involve F,
        # and the variance degenerates gracefully when F(Z) hits 0 or 1
        h = _poor_score(z, lambda x, _: _gap(z, x) ** index.alpha)
        return IndexRepresentation(
            h=h, q=None, value=lambda m: m.integrate_score(h, breaks=(z,)), breaks=(z,))

    if kind in ("sen", "kakwani"):
        return _kakwani_representation(model, z, 1 if kind == "sen" else index.k)

    if kind in ("shorrocks", "thon"):
        return _rank_linear_representation(model, z, lambda x: 2.0 * _gap(z, x))

    if kind in ("takayama", "takayama_ratio"):
        c_rep = _rank_linear_representation(
            model, z, lambda x: np.asarray(index.d(x), dtype=float))
        if kind == "takayama":
            return c_rep
        mu = model.raw_moment(1)
        if mu == 0.0:
            raise ZeroMean("takayama ratio needs a nonzero mean")
        mean_rep = IndexRepresentation(h=_MEAN, q=None, value=lambda m: m.raw_moment(1),
                                       poly=_MEAN)
        return compose_ratio(c_rep, mean_rep, c_rep.value(model), mu)

    return _moment_representation(model, *_moment_key(index))


# ---------------------------------------------------------------------------
# Moment representations
# ---------------------------------------------------------------------------


def _influence(model: DistributionModel, order: int) -> np.ndarray:
    """Coefficients about the mean mu of the central-moment score
    ``A(order) = (x - mu)^order - order mu_{order-1} (x - mu)``.

    Its additive constant is left out (the functional empirical process
    kills it), so A(2) is the centred square.  Asks for ``mu_{2 order}``
    first, so a model on which the score's variance is infinite raises
    ``NonFiniteMoment`` here.
    """
    model.central_moment(2 * order)
    coef = np.zeros(order + 1)
    coef[order] = 1.0
    if order > 2:
        coef[1] = -order * model.central_moment(order - 1)
    return coef


def _moment_representation(model: DistributionModel, top: int,
                           normalized: bool) -> IndexRepresentation:
    """Representation (q = 0) of the central moment of order ``top``, or of
    its normalized form ``mu_top / sigma^top``.

    The score is A(top), or ``sigma^-top (A(top) - top/2 sigma^-2 mu_top
    A(2))`` normalized: all polynomial, so its moments are closed-form under
    any model.  The first central moment is identically 0, so its pair is
    ``h = 0`` with the value 0.
    """
    if top == 1:
        return IndexRepresentation(h=_zero, q=None, value=lambda m: 0.0)
    coef = _influence(model, top)
    value = lambda m: m.central_moment(top)
    if normalized:
        sigma2 = _variance(model.central_moment(2))
        a2 = _influence(model, 2)
        coef[: a2.size] -= 0.5 * top / sigma2 * model.central_moment(top) * a2
        coef *= sigma2 ** (-top / 2.0)
        value = lambda m: m.central_moment(top) / _variance(m.central_moment(2)) ** (top / 2.0)
    poly = Polynomial(model.raw_moment(1), tuple(coef))
    return IndexRepresentation(h=poly, q=None, value=value, poly=poly)


# ---------------------------------------------------------------------------
# The general poverty index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GpiSpec:
    """Parameters of the general poverty index

    ``A(Q, n, Z) / (n B(Q, n)) * sum_{j<=Q} w(mu1 n + mu2 Q - mu3 j + mu4)
    d((Z - X_(j)) / Z)``

    with ``B(Q, n) = sum_{i<=Q} w(i)``, together with the limit pair
    ``(c, pi)`` describing the rank weights: ``A h^-1 w(mu1 n + mu2 Q - mu3 j
    + mu4) -> c(Q/n, j/n)`` and ``w(j) h^-1 -> pi(Q/n, j/n)/n`` for a
    normalizing sequence h(n, Q).  Partial derivatives of c and pi may be
    supplied; missing ones are approximated by central differences.

    ``w``, ``d``, ``c``, ``pi`` and the partials act on arrays, like every
    score function: ``w`` and ``d`` take a float array, ``c``, ``pi`` and the
    partials a scalar x = F(Z) and a float array of levels y.  Each returns
    an array of its argument's shape or a scalar, which is broadcast, and is
    called a fixed number of times whatever the sample size.  ``A`` takes the
    scalars Q, n and Z.
    """

    A: Callable[[int, int, float], float]
    w: Callable[[np.ndarray], np.ndarray]
    d: ScoreFunction
    mu: tuple[float, float, float, float]
    c: Callable[[float, np.ndarray], np.ndarray]
    pi: Callable[[float, np.ndarray], np.ndarray]
    Z: float
    dc_dx: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    dc_dy: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    dpi_dx: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    dpi_dy: Optional[Callable[[float, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class GpiConstants:
    """The scalar constants of the GPI representation."""

    H_c: float
    H_pi: float
    J: float
    K_c: float
    K_pi: float
    K: float


def gpi_estimate(sample: EmpiricalSample, spec: GpiSpec) -> float:
    """Finite-n general poverty index for the given parameter set."""
    n = sample.n
    z = spec.Z
    q = int(np.searchsorted(sample.values, z, side="right"))
    if q == 0:
        return 0.0
    j = np.arange(1, q + 1, dtype=float)
    b = float(np.sum(np.broadcast_to(np.asarray(spec.w(j), dtype=float), j.shape)))
    if b == 0.0:
        raise ZeroDenominator("B(Q, n) = sum w(i) vanished")
    mu1, mu2, mu3, mu4 = spec.mu
    weights = np.asarray(spec.w(mu1 * n + mu2 * q - mu3 * j + mu4), dtype=float)
    gaps = np.asarray(spec.d((z - sample.values[:q]) / z), dtype=float)
    a = float(spec.A(q, n, z))
    return float(a / (n * b) * np.sum(weights * gaps))


def _num_partial(f: Callable[[float, np.ndarray], np.ndarray], arg: int,
                 step: float = 1e-5) -> Callable[[float, np.ndarray], np.ndarray]:
    def deriv(x, y):
        if arg == 0:
            return (f(x + step, y) - f(x - step, y)) / (2.0 * step)
        return (f(x, y + step) - f(x, y - step)) / (2.0 * step)

    return deriv


def _gpi_gaps(spec: GpiSpec, x: np.ndarray) -> np.ndarray:
    return np.asarray(spec.d(_gap(spec.Z, x)), dtype=float)


def gpi_constants(model: DistributionModel, spec: GpiSpec) -> GpiConstants:
    """The constants H_c, H_pi, J, K_c, K_pi, K of the GPI representation."""
    z = spec.Z
    fz = _check_threshold(model, z)
    dc_dx = spec.dc_dx or _num_partial(spec.c, 0)
    dpi_dx = spec.dpi_dx or _num_partial(spec.pi, 0)

    h_c = model.integrate_score(_poor_score(
        z, lambda x, fx: spec.c(fz, fx) * _gpi_gaps(spec, x), model), breaks=(z,))
    h_pi = model.integrate_score(_poor_score(z, lambda x, fx: spec.pi(fz, fx), model),
                                 breaks=(z,))
    if h_pi == 0.0 or not np.isfinite(h_pi):
        raise ZeroHpi(f"H_pi = {h_pi}")

    # K_c and K_pi integrate over the level s on the model's mesh; a plug-in
    # model's mesh has the sample cells, on which the step quantile is constant
    edges, x = model.mesh((z,))
    s = gauss_nodes(edges).ravel()
    poor = x <= z

    def level_integral(integrand):
        vals = np.zeros(x.size)
        vals[poor] = integrand(s[poor], x[poor])
        return gauss_sum(edges, vals.reshape(-1, NODES))

    k_c = level_integral(lambda s, x: dc_dx(fz, s) * _gpi_gaps(spec, x))
    k_pi = level_integral(lambda s, x: dpi_dx(fz, s))
    j = h_c / h_pi
    k = k_c / h_pi - h_c * k_pi / h_pi ** 2
    consts = GpiConstants(H_c=h_c, H_pi=h_pi, J=j, K_c=k_c, K_pi=k_pi, K=k)
    for name, val in consts.__dict__.items():
        if not np.isfinite(val):
            raise NonFiniteConstant(f"GPI constant {name} = {val}")
    return consts


def gpi_representation(model: DistributionModel, spec: GpiSpec) -> IndexRepresentation:
    """The (h, q) pair of the general poverty index against the given model."""
    z = spec.Z
    fz = _check_threshold(model, z)
    consts = gpi_constants(model, spec)
    dc_dy = spec.dc_dy or _num_partial(spec.c, 1)
    dpi_dy = spec.dpi_dy or _num_partial(spec.pi, 1)
    ca = 1.0 / consts.H_pi
    cb = -consts.H_c / consts.H_pi ** 2

    h = _poor_score(z, lambda x, fx: (ca * spec.c(fz, fx) * _gpi_gaps(spec, x)
                                      + cb * spec.pi(fz, fx) + consts.K), model)
    q = _poor_score(z, lambda x, fx: (ca * dc_dy(fz, fx) * _gpi_gaps(spec, x)
                                      + cb * dpi_dy(fz, fx)), model)

    return IndexRepresentation(
        h=h, q=q, value=lambda m: gpi_constants(m, spec).J,
        breaks=(z,))
