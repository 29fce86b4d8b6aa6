"""Adaptive quadrature over [0, +inf): a pure-Python port of QUADPACK dqagie.

R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and D. K. Kahaner,
QUADPACK: A Subroutine Package for Automatic Integration, Springer 1983.

The routines keep their QUADPACK names and follow the Fortran operation order
literally, so every intermediate double is rounded as in the original:

- dqk15i, the 15-point Gauss-Kronrod rule on the transform x = (1-t)/t;
- dqpsrt, which keeps the interval list ordered by error estimate;
- dqelg, the epsilon algorithm that extrapolates the sequence of area sums;
- quad_semi_infinite, the adaptive bisection loop of dqagie.

The result equals scipy.integrate.quad(f, 0, inf, limit=200) with its default
tolerances bit for bit (value, error estimate and interval count); the tests
compare the two.  Only what the library uses is kept: the lower bound 0
(QUADPACK's inf = 1, bound = 0), epsabs = epsrel = 1.49e-8, limit = 200
subintervals, and no error flag ier, so the divergence test, which only sets
that flag, is left out.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_EPSABS = _EPSREL = 1.49e-8  # scipy.integrate.quad's defaults
_LIMIT = 200  # most subintervals, QUADPACK's limit

# Kronrod nodes xgk, Kronrod weights wgk and Gauss weights wg (zero where
# xgk is a Kronrod-only node); index 7 is the centre of the interval.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)


class QuadResult(NamedTuple):
    value: float
    abserr: float
    last: int  # number of subintervals of (0, 1] in the final partition


def dqk15i(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """15-point rule on the part (a, b) of (0, 1] of the transformed integrand.

    Returns (result, abserr, resabs, resasc) as QUADPACK does.  Adding
    QUADPACK's lower bound 0.0 to a node changes no bit, so it is left out.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = (f((1.0 - centr) / centr) / centr) / centr
    resg = _WG[7] * fc
    resk = _WGK[7] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 7
    fv2 = [0.0] * 7
    for j in range(7):
        absc = hlgth * _XGK[j]
        absc1 = centr - absc
        absc2 = centr + absc
        fval1 = (f((1.0 - absc1) / absc1) / absc1) / absc1
        fval2 = (f((1.0 - absc2) / absc2) / absc2) / absc2
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, ratio**1.5), where float ** raises OverflowError past 1e205
        # and Fortran's pow returns inf
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio**1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def dqpsrt(
    last: int, maxerr: int, elist: list[float], iord: list[int], nrmax: int
) -> tuple[int, float, int]:
    """Insert the two newest intervals into the descending error order iord.

    Indices are 1-based as in QUADPACK (elist[0] and iord[0] are unused).
    Returns the new (maxerr, errmax, nrmax).
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # a difficult integrand raised the error of the bisected interval:
        # move it up past the entries it now exceeds
        while nrmax > 1:
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the jupbn largest errors are kept in order: that many
        # bisections at most remain
        jupbn = last
        if last > _LIMIT // 2 + 2:
            jupbn = _LIMIT + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd:
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
            i += 1
        if i > jbnd:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            # errmax goes in at i - 1; errmin is inserted from the bottom up
            iord[i - 1] = maxerr
            k = jbnd
            while k >= i:
                isucc = iord[k]
                if errmin < elist[isucc]:
                    break
                iord[k + 1] = isucc
                k -= 1
            iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def dqelg(n: int, epstab: list[float], res3la: list[float], nres: int) -> tuple[int, int, float, float]:
    """Extrapolate the limit of the table epstab[1..n] with the epsilon algorithm.

    epstab (rlist2 of QUADPACK, 52 entries) and res3la (its last three
    results) are 1-based and updated in place; nres counts the calls.
    Returns the new (n, nres, result, abserr).
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
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
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy: converged
                result = res
                abserr = err2 + err3
                converged = True
                break
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
            if not epsinf > 0.1e-3:
                # irregular behaviour: omit part of the table
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
        if not converged:
            # shift the table
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 1 if num % 2 else 2
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
                abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    return n, nres, result, max(abserr, 5.0 * _EPMACH * abs(result))


def quad_semi_infinite(f: Callable[[float], float]) -> QuadResult:
    """Integral of f over [0, +inf): QUADPACK dqagie.

    Exceptions raised by f propagate unchanged.
    """
    # 1-based lists as in QUADPACK; index 0 is unused
    alist = [0.0] * (_LIMIT + 1)
    blist = [0.0] * (_LIMIT + 1)
    rlist = [0.0] * (_LIMIT + 1)
    elist = [0.0] * (_LIMIT + 1)
    iord = [0] * (_LIMIT + 2)
    blist[1] = 1.0

    # first approximation to the integral; it is returned when roundoff
    # keeps it from the requested accuracy (QUADPACK's ier = 2) or reaches it
    result, abserr, defabs, resabs = dqk15i(f, 0.0, 1.0)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    dres = abs(result)
    errbnd = max(_EPSABS, _EPSREL * dres)
    if (
        (abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
        or (abserr <= errbnd and abserr != resabs)
        or abserr == 0.0
    ):
        return QuadResult(result, abserr, last)

    # the epsilon table of area sums: rlist2 (1-based) holding numrl2 entries
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    nres = 0
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    ktmin = 0
    numrl2 = 2
    ier = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0

    # the loop ends either at summing the interval list (QUADPACK's label
    # 115) or at choosing between extrapolated and summed values (label 100)
    summed = False
    for last in range(2, _LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = dqk15i(f, a1, b1)
        area2, error2, resabs, defab2 = dqk15i(f, a2, b2)

        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 0.1e-4 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(_EPSABS, _EPSREL * abs(area))

        # roundoff, the interval limit and bad integrand behaviour
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == _LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the new intervals to the list
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

        maxerr, errmax, nrmax = dqpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # decrease the error sum over the larger intervals (erlarg)
            jupbnd = last
            if last > 2 + _LIMIT // 2:
                jupbnd = _LIMIT + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, nres, reseps, abseps = dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 0.1e-2 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(_EPSABS, _EPSREL * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not summed:
        # set the final result and error estimate
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
        if not summed:
            return QuadResult(result, abserr, last)
    # compute the global integral sum
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return QuadResult(result, errsum, last)
