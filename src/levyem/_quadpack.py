"""Ports of the two scipy routines the radial densities need.

``quad`` is QUADPACK's ``dqagse`` (Piessens et al., 1983), the globally
adaptive 21-point Gauss-Kronrod integrator with epsilon-algorithm
extrapolation behind ``scipy.integrate.quad`` on a finite interval.
``brentq`` is Brent's (1973) zero finder behind ``scipy.optimize.brentq``.
Both perform the floating-point operations of the compiled routines in the
same order, so they return the same bits; ``tests/test_quadpack.py`` checks
that against scipy.  Only what the callers use is ported: finite bounds,
scipy's default tolerances, no weight functions and no full output.  They
stay because the ``mc-tempered`` benchmark digest pins the bits they return.

The QUADPACK routines keep the Fortran's 1-based indexing (slot 0 of each
work list is unused), so every line reads against its original.
"""

from __future__ import annotations

import math
import sys
import warnings

EPMACH = sys.float_info.epsilon
UFLOW = sys.float_info.min
OFLOW = sys.float_info.max
EPSABS = EPSREL = 1.49e-8
XTOL, RTOL, MAXITER = 2e-12, 4 * EPMACH, 100

# the 21-point Kronrod abscissae (the odd 1-based ones are the 10-point
# Gauss abscissae), their weights, and the weights of the Gauss rule
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.000000000000000000000000000000000)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

# scipy's warning text for each failure code of dqagse
_MESSAGES = {
    1: ("The maximum number of subdivisions ({limit}) has been achieved.\n  "
        "If increasing the limit yields no improvement it is advised to "
        "analyze \n  the integrand in order to determine the difficulties.  "
        "If the position of a \n  local difficulty can be determined "
        "(singularity, discontinuity) one will \n  probably gain from "
        "splitting up the interval and calling the integrator \n  on the "
        "subranges.  Perhaps a special-purpose integrator should be used."),
    2: ("The occurrence of roundoff error is detected, which prevents \n  "
        "the requested tolerance from being achieved.  "
        "The error may be \n  underestimated."),
    3: ("Extremely bad integrand behavior occurs at some points of the\n  "
        "integration interval."),
    4: ("The algorithm does not converge.  Roundoff error is detected\n  "
        "in the extrapolation table.  It is assumed that the requested "
        "tolerance\n  cannot be achieved, and that the returned result "
        "(if full_output = 1) is \n  the best which can be obtained."),
    5: "The integral is probably divergent, or slowly convergent.",
}


class IntegrationWarning(UserWarning):
    """QUADPACK did not reach the requested accuracy."""


def _div(x: float, y: float) -> float:
    """x / y with the IEEE result (an infinity or NaN) where Python raises."""
    try:
        return x / y
    except ZeroDivisionError:
        if x == 0.0 or x != x:
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)


def quad(f, a: float, b: float, limit: int) -> tuple:
    """``scipy.integrate.quad(f, a, b, limit=limit)`` for finite a < b:
    (value, abserr), with scipy's warning when QUADPACK reports a failure."""
    result, abserr, _, ier = qagse(f, a, b, limit)
    if ier:
        warnings.warn(_MESSAGES[ier].format(limit=limit), IntegrationWarning, stacklevel=2)
    return result, abserr


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in range(1, 6):
        jtw = 2 * j
        absc = hlgth * _XGK[jtw - 1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j - 1] * fsum
        resk = resk + _WGK[jtw - 1] * fsum
        resabs = resabs + _WGK[jtw - 1] * (abs(fval1) + abs(fval2))
    for j in range(1, 6):
        jtwm1 = 2 * j - 1
        absc = hlgth * _XGK[jtwm1 - 1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1 - 1] * fsum
        resabs = resabs + _WGK[jtwm1 - 1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(1, 11):
        resasc = resasc + _WGK[j - 1] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, ratio^1.5) without the OverflowError Python raises for a huge ratio
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio ** 1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord descending by error; return (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
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
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmin by traversing the list bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg, the epsilon algorithm: return (n, result, abserr, nres)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
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
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: assume convergence
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
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
        abserr = OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def qagse(f, a: float, b: float, limit: int) -> tuple:
    """dqagse at scipy's default tolerances: (result, abserr, last, ier),
    ``last`` the number of subintervals and ``ier`` the failure code (0 on
    success)."""
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b
    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, last, ier

    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1

    # where the loop leaves to: dqagse's label 115 sums the interval list,
    # 100 weighs the extrapolated result, 110 tests for divergence
    exit_to = 100
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(EPSABS, EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4
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
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            exit_to = 115
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
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
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # decrease erlarg, the error over the larger intervals
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
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
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
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

    if exit_to == 100:
        if abserr == OFLOW:
            exit_to = 115
        elif ier + ierro == 0:
            exit_to = 110
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                exit_to = 115 if abserr / abs(result) > errsum / abs(area) else 110
            elif abserr > errsum:
                exit_to = 115
            elif area != 0.0:
                exit_to = 110
    if exit_to == 110:
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            ratio = _div(result, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    elif exit_to == 115:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, last, ier


def brentq(f, xa: float, xb: float) -> float:
    """``scipy.optimize.brentq(f, xa, xb)``: a zero of f in the bracket
    [xa, xb], across which f changes sign."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre
        delta = (XTOL + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
