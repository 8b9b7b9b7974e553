"""Independent evaluation of the catalog formulas, for checking CLI output.

Each function takes the observations in any order and evaluates the
published finite-n formula directly, with ``math.fsum`` so that the only
rounding is in the terms.  Nothing here imports indexlaw.
"""

from __future__ import annotations

import math

import numpy as np


def _poor_gaps(x: np.ndarray, z: float):
    """Sorted sample, number of poor q = #{X <= Z} and their relative gaps,
    poorest first."""
    xs = np.sort(np.asarray(x, dtype=float))
    q = int(np.count_nonzero(xs <= z))
    return xs, q, (z - xs[:q]) / z


def fgt(x, z: float, alpha: float) -> float:
    """``(1/n) sum_{X <= Z} ((Z - X) / Z)^alpha``."""
    xs, _, g = _poor_gaps(x, z)
    return math.fsum(g ** alpha) / xs.size


def sen(x, z: float) -> float:
    """``2 / (n (q + 1)) sum_{j <= q} (q - j + 1) g_j``."""
    xs, q, g = _poor_gaps(x, z)
    if q == 0:
        return 0.0
    j = np.arange(1, q + 1, dtype=float)
    return 2.0 * math.fsum((q - j + 1.0) * g) / (xs.size * (q + 1.0))


def kakwani(x, z: float, k: int) -> float:
    """``q / (n sum_{j <= q} j^k) sum_{j <= q} (q - j + 1)^k g_j``."""
    xs, q, g = _poor_gaps(x, z)
    if q == 0:
        return 0.0
    j = np.arange(1, q + 1, dtype=float)
    return q * math.fsum((q - j + 1.0) ** k * g) / (xs.size * math.fsum(j ** k))


def shorrocks(x, z: float) -> float:
    """``(1/n^2) sum_{j <= q} (2n - 2j + 1) g_j``."""
    xs, q, g = _poor_gaps(x, z)
    n = xs.size
    j = np.arange(1, q + 1, dtype=float)
    return math.fsum((2.0 * n - 2.0 * j + 1.0) * g) / (float(n) * n)


def thon(x, z: float) -> float:
    """``2 / (n (n + 1)) sum_{j <= q} (n - j + 1) g_j``."""
    xs, q, g = _poor_gaps(x, z)
    n = xs.size
    j = np.arange(1, q + 1, dtype=float)
    return 2.0 * math.fsum((n - j + 1.0) * g) / (float(n) * (n + 1.0))


def takayama(x, z: float) -> float:
    """``(1/n) sum_{X_i <= Z} (1 - F_n(X_i) + 1/n) X_i`` with the max-rank
    empirical CDF ``F_n``."""
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    poor = xs[xs <= z]
    fn = np.searchsorted(xs, poor, side="right") / n
    return math.fsum((1.0 - fn + 1.0 / n) * poor) / n


def central_moment(x, order: int) -> float:
    """``(1/n) sum (X_i - mean)^order``."""
    xs = np.asarray(x, dtype=float)
    mean = math.fsum(xs) / xs.size
    return math.fsum((xs - mean) ** order) / xs.size


def agrees(printed: float, exact: float, scale: float | None = None) -> bool:
    """True when a CLI number matches a reference value to 1e-12 relative.

    The CLI prints 12 significant digits, so half a unit in the twelfth
    digit of ``exact`` is allowed on top.  ``scale`` (default ``|exact|``) is
    the magnitude the 1e-12 is relative to; a difference of nearly equal
    terms passes the size of its terms.
    """
    scale = abs(exact) if scale is None else scale
    printing = 0.0 if exact == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - 11)
    return abs(printed - exact) <= 1e-12 * scale + printing
