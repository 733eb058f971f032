"""One-dimensional searches, written as generators and run in lockstep.

A search is a generator that yields each abscissa it needs, is sent the
function value there, and returns its result.  lockstep runs any number
of them side by side and evaluates the pending abscissae of all of them in
one batch per round, so a caller pays one vectorised evaluation per round
instead of one call per point.  When the batched evaluation gives each
lane the value a one-point evaluation would, every search takes exactly
the steps it would take alone.

_bounded_brent retraces scipy's bounded minimize_scalar with scipy's
arithmetic, so its iterates are those of the scipy call it replaces; the
witness searches of faber run it in lockstep.
"""

import math

import numpy as np


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
