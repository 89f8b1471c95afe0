"""Powell's method with Brent's line search, evaluation for evaluation as scipy.

A port of the unbounded path of scipy 1.17.1's
``scipy.optimize.minimize(fun, x0, method="Powell",
options={"maxfev": maxfev, "xtol": xtol, "ftol": ftol})``: Powell's
conjugate-direction loop (Powell, Comput. J. 7, 1964), scipy's `bracket`, and
Brent's parabolic line search (Brent, Algorithms for Minimization without
Derivatives, 1973).  It evaluates the same points, in the same order, and
returns the same evaluation count.  The statement order and the numpy-scalar
arithmetic are scipy's, since reordering a sum moves bits.  Bounds, callbacks,
custom directions, messages and the result object are left out.
"""

from __future__ import annotations

import numpy as np


class _MaxFevReached(Exception):
    pass


def minimize(fun, x0, maxfev: int, xtol: float, ftol: float) -> int:
    """Minimize fun from x0 by Powell's method; return the number of evaluations.

    The run stops when a sweep over the directions gains less than ftol
    relatively or starts and ends at NaN, or before evaluation maxfev + 1.
    Any exception fun raises propagates unchanged.  Every point passed to fun
    is a fresh array that the method never writes to.

    The quantifier search of `opsyslab.logic` calls this routine as
    ``logic.minimize``, looked up at call time, so a caller may replace that
    attribute to observe each run (perfbench/tracer.py does).  It lives in the
    package because importing scipy.optimize costs more than the rest of the
    package, and so that the search's values do not depend on the installed
    scipy version.
    """
    ncalls = 0

    def func(x):
        nonlocal ncalls
        if ncalls >= maxfev:
            raise _MaxFevReached
        ncalls += 1
        return fun(x)

    x = np.asarray(x0, dtype=float).flatten()
    n = len(x)
    direc = np.eye(n, dtype=float)
    tol = xtol * 100
    fval = func(x)
    x1 = x
    try:
        while True:
            fx = fval
            bigind = 0
            delta = 0.0
            for i in range(n):
                fx2 = fval
                fval, x, _ = _linesearch(func, x, direc[i], tol, fval)
                if (fx2 - fval) > delta:
                    delta = fx2 - fval
                    bigind = i
            bnd = ftol * (np.abs(fx) + np.abs(fval)) + 1e-20
            if 2.0 * (fx - fval) <= bnd:
                break
            # scipy stops here at the cap too, which changes nothing: the next
            # evaluation raises _MaxFevReached before anything else happens
            if np.isnan(fx) and np.isnan(fval):
                break
            # the extrapolated point
            direc1 = x - x1
            x1 = x
            fx2 = func(x + direc1)
            if fx > fx2:
                t = 2.0 * (fx + fx2 - 2.0 * fval)
                temp = fx - fval - delta
                t *= temp * temp
                temp = fx - fx2
                t -= delta * temp * temp
                if t < 0.0:
                    fval, x, direc1 = _linesearch(func, x, direc1, tol, fval)
                    if np.any(direc1):
                        direc[bigind] = direc[-1]
                        direc[-1] = direc1
    except _MaxFevReached:
        pass
    return ncalls


def _linesearch(func, p, xi, tol, fval):
    """Minimize func(p + alpha xi) over alpha; return (value, point, step)."""
    if not np.any(xi):
        return fval, p, xi

    def myfunc(alpha):
        return func(p + alpha * xi)

    xa, xb, xc, fa, fb, fc = _bracket(myfunc)
    valid = (((fb < fc and fb <= fa) or (fb < fa and fb <= fc))
             and (xa < xb < xc or xc < xb < xa)
             and np.isfinite(xa) and np.isfinite(xb) and np.isfinite(xc))
    if valid:
        alpha_min, fret = _brent(myfunc, tol, xa, xb, xc, fb)
    elif np.any(np.isnan([[xa, xb, xc], [fa, fb, fc]])):
        alpha_min, fret = np.nan, np.nan
    else:
        # scipy's recovery from an invalid bracket: its least point
        imin = np.argmin([fa, fb, fc])
        alpha_min, fret = [xa, xb, xc][imin], [fa, fb, fc][imin]
    xi = alpha_min * xi
    return fret, p + xi, xi


def _bracket(func):
    """scipy's `bracket` from (0, 1): three points, downhill, meant to enclose a minimum.

    The caller checks the result, which may not enclose a minimum (for
    instance, where func is unbounded below and the steps overflow).
    """
    _gold = 1.618034
    _verysmall_num = 1e-21
    grow_limit = 110.0
    maxiter = 1000
    xa, xb = np.asarray([0.0, 1.0])
    fa = func(xa)
    fb = func(xb)
    if fa < fb:
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + _gold * (xb - xa)
    fc = func(xc)
    nit = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        if np.abs(val) < _verysmall_num:
            denom = 2.0 * _verysmall_num
        else:
            denom = 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + grow_limit * (xc - xb)
        if nit > maxiter:
            raise RuntimeError("no valid bracket was found before the iteration limit")
        nit += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = func(w)
            if fw < fc:
                xa = xb
                xb = w
                fa = fb
                fb = fw
                break
            elif fw > fb:
                xc = w
                fc = fw
                break
            w = xc + _gold * (xc - xb)
            fw = func(w)
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = func(w)
        elif (w - wlim) * (xc - w) > 0.0:
            fw = func(w)
            if fw < fc:
                xb = xc
                xc = w
                w = xc + _gold * (xc - xb)
                fb = fc
                fc = fw
                fw = func(w)
        else:
            w = xc + _gold * (xc - xb)
            fw = func(w)
        xa = xb
        xb = xc
        xc = w
        fa = fb
        fb = fc
        fc = fw
    return xa, xb, xc, fa, fb, fc


def _brent(func, tol, xa, xb, xc, fb):
    """scipy's `Brent.optimize` on a valid bracket; return (x, func(x))."""
    _mintol = 1.0e-11
    _cg = 0.3819660
    maxiter = 500
    x = w = v = xb
    fw = fv = fx = fb
    if xa < xc:
        a = xa
        b = xc
    else:
        a = xc
        b = xa
    deltax = 0.0
    nit = 0
    while nit < maxiter:
        tol1 = tol * np.abs(x) + _mintol
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if np.abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        # deltax starts at 0, so the first pass takes a golden step and sets rat
        if np.abs(deltax) <= tol1:
            if x >= xmid:
                deltax = a - x
            else:
                deltax = b - x
            rat = _cg * deltax
        else:
            # a parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = np.abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if (p > tmp2 * (a - x) and p < tmp2 * (b - x)
                    and np.abs(p) < np.abs(0.5 * tmp2 * dx_temp)):
                rat = p * 1.0 / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    if xmid - x >= 0:
                        rat = tol1
                    else:
                        rat = -tol1
            else:
                # the parabola is no use: a golden step
                if x >= xmid:
                    deltax = a - x
                else:
                    deltax = b - x
                rat = _cg * deltax
        if np.abs(rat) < tol1:
            # move by at least tol1
            if rat >= 0:
                u = x + tol1
            else:
                u = x - tol1
        else:
            u = x + rat
        fu = func(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v = w
                w = u
                fv = fw
                fw = fu
            elif fu <= fv or v == x or v == w:
                v = u
                fv = fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v = w
            w = x
            x = u
            fv = fw
            fw = fx
            fx = fu
        nit += 1
    return x, fx
