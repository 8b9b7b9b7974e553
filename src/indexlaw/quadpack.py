"""Adaptive Gauss-Kronrod quadrature on (0, 1): QUADPACK's ``dqagpe``.

A line-by-line translation of the QUADPACK routines (Piessens,
de Doncker-Kapenga, Ueberhuber & Kahaner, 1983) ``dqagpe`` (adaptive
bisection with epsilon-algorithm extrapolation, started from the intervals
between the user's break points, of which there may be none), the 21-point
Gauss-Kronrod rule ``dqk21``, the error list ordering ``dqpsrt`` and the
epsilon algorithm ``dqelg``.  Lists are 1-based, as in the Fortran, so
every index reads as in the original.

The integrand is vectorized: each ``dqk21`` pass takes its nodes from one
call of ``f`` on a float array (all intervals of the first pass together,
both halves of each bisection together), and the rule's sums are formed in
Python floats in QUADPACK's scalar order.  With the same node values the
results are those of SciPy's ``quad(f, 0, 1, points=list(points),
limit=200)``, which runs the same routines on a per-point callback; an
empty ``points`` list, too, takes SciPy's ``dqagpe`` path.  Where C
arithmetic gives inf or nan and Python raises (a float power that
overflows, a division by zero) the C outcome is taken.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_EPSABS = _EPSREL = 1.49e-8  # SciPy's quad defaults
_LIMIT = 200  # the most subintervals, SciPy's ``limit``

# dqk21: Kronrod abscissae xgk(1..10) (xgk(11) = 0 is the centre), their
# weights wgk(1..11) and the 10-point Gauss weights wg(1..5) of xgk(2), xgk(4), ...
_XGK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = (None, 0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077600525056804, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (None, 0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def quad(f: Callable[[np.ndarray], np.ndarray],
         points: Sequence[float] = ()) -> tuple[float, float, int]:
    """``int_0^1 f`` as SciPy's ``quad(f, 0, 1, points=list(points),
    limit=200)`` computes it: ``dqagpe`` at ``epsabs = epsrel = 1.49e-8``
    on the distinct points strictly inside (0, 1), of which there may be
    none, or at most 198.  ``f`` maps a 1-d float array of nodes to an
    array of its values.  Returns the result, QUADPACK's error estimate and
    its ``ier`` code (0 when the requested accuracy was reached).
    """
    inner = sorted({float(p) for p in points if 0.0 < p < 1.0})
    if len(inner) > _LIMIT - 2:
        raise ValueError(f"at most {_LIMIT - 2} break points, got {len(inner)}")
    return _dqagpe(f, inner)


def _dqk21(f, lefts: Sequence[float], rights: Sequence[float]) -> list:
    """``(result, abserr, resabs, resasc)`` of the 21-point rule on each
    interval [lefts[i], rights[i]], from one call of ``f`` on all nodes."""
    m = len(lefts)
    a, b = np.asarray(lefts, dtype=float), np.asarray(rights, dtype=float)
    c, off = 0.5 * (a + b), np.multiply.outer(0.5 * (b - a), _XGK)
    u = np.concatenate([c, (c[:, None] - off).ravel(), (c[:, None] + off).ravel()])
    values = np.asarray(f(u), dtype=float).tolist()
    out = []
    for i in range(m):
        # fv1(j), fv2(j): the values at centr - hlgth*xgk(j), centr + hlgth*xgk(j)
        fv1 = [None, *values[m + 10 * i:m + 10 * i + 10]]
        fv2 = [None, *values[11 * m + 10 * i:11 * m + 10 * i + 10]]
        fc = values[i]
        hlgth = 0.5 * (rights[i] - lefts[i])
        dhlgth = abs(hlgth)
        resg = 0.0
        resk = _WGK[11] * fc
        resabs = abs(resk)
        for j in range(1, 6):
            jtw = 2 * j
            fsum = fv1[jtw] + fv2[jtw]
            resg = resg + _WG[j] * fsum
            resk = resk + _WGK[jtw] * fsum
            resabs = resabs + _WGK[jtw] * (abs(fv1[jtw]) + abs(fv2[jtw]))
        for j in range(1, 6):
            jtwm1 = 2 * j - 1
            fsum = fv1[jtwm1] + fv2[jtwm1]
            resk = resk + _WGK[jtwm1] * fsum
            resabs = resabs + _WGK[jtwm1] * (abs(fv1[jtwm1]) + abs(fv2[jtwm1]))
        reskh = resk * 0.5
        resasc = _WGK[11] * abs(fc - reskh)
        for j in range(1, 11):
            resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
        result = resk * hlgth
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        abserr = abs((resk - resg) * hlgth)
        if resasc != 0.0 and abserr != 0.0:
            try:
                scale = (200.0 * abserr / resasc) ** 1.5
            except OverflowError:
                scale = math.inf
            abserr = resasc * min(1.0, scale)
        if resabs > _UFLOW / (50.0 * _EPMACH):
            abserr = max((_EPMACH * 50.0) * resabs, abserr)
        out.append((result, abserr, resabs, resasc))
    return out


def _dqpsrt(last: int, maxerr: int, elist: list, iord: list,
            nrmax: int) -> tuple[int, float, int]:
    """Keep ``iord`` listing the error estimates in descending order and
    return the next interval to bisect: ``(maxerr, ermax, nrmax)``."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > _LIMIT // 2 + 2:
            jupbn = _LIMIT + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
            maxerr = iord[nrmax]
            return maxerr, elist[maxerr], nrmax
        # insert errmax at i - 1, then errmin bottom-up; a pass through
        # the whole loop leaves k = i - 1, where errmin belongs
        iord[i - 1] = maxerr
        k = jbnd
        for _ in range(i, jbnd + 1):
            isucc = iord[k]
            if errmin < elist[isucc]:
                break
            iord[k + 1] = isucc
            k -= 1
        iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """Wynn's epsilon algorithm on the table ``epstab(1..n)`` (updated in
    place, as is ``res3la``); returns ``(n, result, abserr, nres)``."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 are equal to within machine accuracy
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1.0e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


class _Subintervals:
    """The subinterval lists of ``dqagpe`` (1-based, as in the Fortran) and
    the bookkeeping it does on each bisection."""

    def __init__(self, f):
        size = _LIMIT + 1
        self.f = f
        self.alist, self.blist = [0.0] * size, [0.0] * size
        self.rlist, self.elist = [0.0] * size, [0.0] * size
        self.iord = [0] * size
        self.maxerr = self.nrmax = 1
        self.errmax = self.errsum = self.area = 0.0
        self.iroff1 = self.iroff2 = self.iroff3 = 0
        self.ier = self.ierro = 0
        self.extrap = False

    def bisect(self, last: int) -> tuple[float, float]:
        """Bisect interval ``maxerr`` into intervals ``maxerr`` and ``last``;
        update the error sum, the area, the roundoff counters and the
        ``ier``/``ierro`` flags; find the next interval to bisect.  Returns
        ``(erlast, erro12)``: the bisected interval's old error estimate
        and its halves' summed estimate."""
        alist, blist, rlist, elist = self.alist, self.blist, self.rlist, self.elist
        maxerr = self.maxerr
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        (area1, error1, _, defab1), (area2, error2, _, defab2) = _dqk21(self.f, [a1, a2], [b1, b2])
        erlast = self.errmax
        area12 = area1 + area2
        erro12 = error1 + error2
        self.errsum = self.errsum + erro12 - erlast
        self.area = self.area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1.0e-5 * abs(area12)
                    or erro12 < 0.99 * erlast):
                if self.extrap:
                    self.iroff2 += 1
                else:
                    self.iroff1 += 1
            if last > 10 and erro12 > erlast:
                self.iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        if self.iroff1 + self.iroff2 >= 10 or self.iroff3 >= 20:
            self.ier = 2
        if self.iroff2 >= 5:
            self.ierro = 3
        if last == _LIMIT:
            self.ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            self.ier = 4
        # append the two halves, the one with the larger error at maxerr
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        self.maxerr, self.errmax, self.nrmax = _dqpsrt(last, maxerr, elist, self.iord, self.nrmax)
        return erlast, erro12

    def finish(self, result: float, abserr: float, correc: float, ksgn: int,
               defabs: float, last: int, sum_up: bool) -> tuple[float, float, int]:
        """The ending of ``dqagpe`` (labels 170-210): keep the extrapolated
        result or sum the interval results, then test for divergence."""
        ier, area, errsum = self.ier, self.area, self.errsum
        if not sum_up and abserr != _OFLOW and ier + self.ierro != 0:
            if self.ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                sum_up = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                sum_up = True
            elif area == 0.0:
                return result, abserr, ier - 1 if ier > 2 else ier
        elif abserr == _OFLOW:
            sum_up = True
        if sum_up:
            result = 0.0
            for k in range(1, last + 1):
                result = result + self.rlist[k]
            abserr = errsum
        elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            ratio = _c_divide(result, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
        return result, abserr, ier - 1 if ier > 2 else ier


def _c_divide(x: float, y: float) -> float:
    """``x / y`` as C computes it, inf or nan where Python raises."""
    if y != 0.0:
        return x / y
    if x == 0.0 or math.isnan(x):
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _dqagpe(f, points: list) -> tuple[float, float, int]:
    npts = len(points)
    s = _Subintervals(f)
    level = [0] * (_LIMIT + 1)
    pts = [0.0, *points, 1.0]
    nint = npts + 1
    result = abserr = resabs = 0.0
    ndin = [0] * (nint + 1)
    first = _dqk21(f, pts[:-1], pts[1:])
    for i, (area1, error1, defabs, resa) in enumerate(first, start=1):
        abserr = abserr + error1
        result = result + area1
        if error1 == resa and error1 != 0.0:
            ndin[i] = 1
        resabs = resabs + defabs
        s.elist[i] = error1
        s.alist[i] = pts[i - 1]
        s.blist[i] = pts[i]
        s.rlist[i] = area1
        s.iord[i] = i
    errsum = 0.0
    for i in range(1, nint + 1):
        if ndin[i] == 1:
            s.elist[i] = abserr
        errsum = errsum + s.elist[i]
    dres = abs(result)
    errbnd = max(_EPSABS, _EPSREL * dres)
    if nint != 1:
        # order the intervals by decreasing error estimate
        iord, elist = s.iord, s.elist
        for i in range(1, npts + 1):
            ind1 = iord[i]
            k = i
            for j in range(i + 1, nint + 1):
                ind2 = iord[j]
                if elist[ind1] > elist[ind2]:
                    continue
                ind1 = ind2
                k = j
            if ind1 != iord[i]:
                iord[k] = iord[i]
                iord[i] = ind1
    if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd:
        return result, abserr, 2
    if abserr <= errbnd:
        return result, abserr, 0

    rlist2, res3la = [0.0] * 53, [0.0] * 4
    rlist2[1] = result
    s.maxerr = s.iord[1]
    s.errmax = s.elist[s.maxerr]
    s.area = result
    s.errsum = errsum
    nres = 0
    numrl2 = 1
    ktmin = 0
    noext = False
    erlarg = errsum
    ertest = errbnd
    levmax = 1
    abserr = _OFLOW
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * resabs else -1
    correc = 0.0
    sum_up = False
    for last in range(npts + 2, _LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        levcur = level[s.maxerr] + 1
        level[s.maxerr] = level[last] = levcur
        erlast, erro12 = s.bisect(last)
        errbnd = max(_EPSABS, _EPSREL * abs(s.area))
        if s.errsum <= errbnd:
            sum_up = True
            break
        if s.ier != 0:
            break
        if noext:
            continue
        erlarg = erlarg - erlast
        if levcur + 1 <= levmax:
            erlarg = erlarg + erro12
        if not s.extrap:
            # is the interval to be bisected next the smallest one?
            if level[s.maxerr] + 1 <= levmax:
                continue
            s.extrap = True
            s.nrmax = 2
        if not (s.ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the larger
            # intervals first, while their error exceeds the test
            jupbnd = last
            if last > 2 + _LIMIT // 2:
                jupbnd = _LIMIT + 3 - last
            larger = False
            for _ in range(s.nrmax, jupbnd + 1):
                s.maxerr = s.iord[s.nrmax]
                s.errmax = s.elist[s.maxerr]
                if level[s.maxerr] + 1 <= levmax:
                    larger = True
                    break
                s.nrmax += 1
            if larger:
                continue
        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = s.area
        if numrl2 > 2:
            numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1.0e-3 * s.errsum:
                s.ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(_EPSABS, _EPSREL * abs(reseps))
                if abserr < ertest:
                    break
            if numrl2 == 1:
                noext = True
            if s.ier >= 5:
                break
        # prepare bisection of the smallest interval
        s.maxerr = s.iord[1]
        s.errmax = s.elist[s.maxerr]
        s.nrmax = 1
        s.extrap = False
        levmax += 1
        erlarg = s.errsum
    return s.finish(result, abserr, correc, ksgn, resabs, last, sum_up)
