"""One-dimensional searches, written as generators and run in lockstep.

A search is a generator that yields each abscissa it needs, is sent the
function value there, and returns its result.  lockstep runs any number
of them side by side and evaluates the pending abscissae of all of them in
one batch per round, so a caller pays one vectorised evaluation per round
instead of one call per point.  When the batched evaluation gives each
lane the value a one-point evaluation would, every search takes exactly
the steps it would take alone.

_brentq and _bounded_brent retrace scipy's brentq and bounded
minimize_scalar with scipy's arithmetic, so their iterates are those of
the scipy calls they replace.
"""

import math

import numpy as np

_EPS = float(np.finfo(float).eps)


def lockstep(searches, evaluate) -> list:
    """Run the searches to their ends; returns their results in order.

    Each round sends every pending search the value at its last abscissa
    and then calls evaluate(x, lanes) once: x holds the new abscissae of
    the searches still running, lanes their indices into searches, and
    the values returned are read in that order.
    """
    searches = list(searches)
    results = [None] * len(searches)
    sent = dict.fromkeys(range(len(searches)))
    while sent:
        at = {}
        for k, value in sent.items():
            try:
                at[k] = searches[k].send(value)
            except StopIteration as done:
                results[k] = done.value
        lanes = list(at)
        values = (evaluate(np.array([at[k] for k in lanes]), np.array(lanes))
                  if lanes else [])
        sent = dict(zip(lanes, map(float, values)))
    return results


def _checked(value, x):
    """value, unless it is NaN (scipy's brentq raises there)."""
    if math.isnan(value):
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return value


def _brentq(xa: float, xb: float, fa: float, fb: float):
    """scipy's brentq(f, xa, xb, xtol=1e-15) as a generator, with the
    arithmetic of scipy's C brentq, started from the caller's values
    fa = f(xa) and fb = f(xb): it yields each further abscissa, is sent f
    there, and returns the root.  Like scipy it raises ValueError when f
    is NaN or has one sign at both ends, and RuntimeError when 100 steps
    do not converge."""
    xtol, rtol, maxiter = 1e-15, 4.0 * _EPS, 100
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _checked(float(fa), xpre), _checked(float(fb), xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _checked((yield xcur), xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")


def _bounded_brent(lo: float, hi: float):
    """scipy's minimize_scalar(method="bounded", bounds=(lo, hi),
    options={"xatol": 1e-12}) as a generator, with scipy's arithmetic: it
    yields each abscissa, is sent f there, and returns the least f found
    (Brent's golden-section and parabolic steps, at most 500 values)."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    xatol = 1e-12
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = yield xf
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return fx
