"""The in-package Powell method against scipy's, point for point."""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from opsyslab._powell import minimize

_TOLS = {"xtol": 1e-5, "ftol": 1e-8}


def _objectives(rng, n):
    a = rng.standard_normal((n + 1, n))
    c = rng.standard_normal(n + 1)
    return {
        "smooth": lambda x: float(np.sum((a @ x - c) ** 2) + np.sum(np.sin(5 * x))),
        "nonsmooth": lambda x: float(np.sum(np.abs(a @ x - c))),
        # unbounded below: the bracket overflows and comes back invalid
        "unbounded": lambda x: float(np.max(np.abs(a @ x)) - np.linalg.norm(x)),
        # NaN off a ball: the NaN recovery and the NaN stop
        "partial": lambda x: float(np.sum((a @ x - c) ** 2)) if x @ x < 4 else np.nan,
    }


def _recorded(f):
    calls = []

    def fun(x):
        value = f(x)
        calls.append((x.tobytes(), np.float64(value).tobytes()))  # NaN-safe, bit for bit
        return value

    return calls, fun


def _both(f, x0, maxfev):
    ours, fun = _recorded(f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        nfev = minimize(fun, x0, maxfev, **_TOLS)
        theirs, fun = _recorded(f)
        res = scipy_minimize(fun, x0, method="Powell", options={"maxfev": maxfev, **_TOLS})
    return (ours, nfev), (theirs, res.nfev)


def test_powell_evaluates_scipys_points_in_scipys_order():
    rng = np.random.default_rng(20)
    kinds = set()
    for _ in range(25):
        n = int(rng.integers(1, 9))
        maxfev = int(rng.integers(5, 401))
        x0 = rng.uniform(-1, 1, n)
        for kind, f in _objectives(rng, n).items():
            ours, theirs = _both(f, x0, maxfev)
            assert ours == theirs, (kind, n, maxfev)
            assert ours[1] <= maxfev
            kinds.add((kind, ours[1] == maxfev))
    # each objective ran both into its cap and to its tolerances
    assert len(kinds) == 8


def test_every_cap_gives_scipys_points():
    # every cap up to the uncapped count, so some cap falls at the end of a sweep
    rng = np.random.default_rng(5)
    f = _objectives(rng, 2)["smooth"]
    x0 = rng.uniform(-1, 1, 2)
    uncapped = _both(f, x0, 10_000)[0][1]
    for maxfev in range(1, uncapped + 2):
        ours, theirs = _both(f, x0, maxfev)
        assert ours == theirs, maxfev


def test_a_zero_direction_costs_no_evaluation():
    # 1 at the start, 0 after: the first sweep stays put, so the extrapolated
    # direction is zero and its line search evaluates nothing
    def stateful():
        values = iter([1.0])
        return _recorded(lambda x: next(values, 0.0))

    ours, fun = stateful()
    nfev = minimize(fun, np.zeros(2), 100, **_TOLS)
    theirs, fun = stateful()
    res = scipy_minimize(fun, np.zeros(2), method="Powell", options={"maxfev": 100, **_TOLS})
    assert (ours, nfev) == (theirs, res.nfev)


class _Stop(Exception):
    pass


def test_an_exception_from_fun_propagates_after_scipys_calls():
    rng = np.random.default_rng(3)
    f = _objectives(rng, 3)["smooth"]
    x0 = rng.uniform(-1, 1, 3)

    def stopping_at(k):
        calls, fun = _recorded(f)

        def stopping(x):
            if len(calls) == k - 1:
                raise _Stop
            return fun(x)

        return calls, stopping

    ours, fun = stopping_at(40)
    with pytest.raises(_Stop):
        minimize(fun, x0, 400, **_TOLS)
    theirs, fun = stopping_at(40)
    with pytest.raises(_Stop):
        scipy_minimize(fun, x0, method="Powell", options={"maxfev": 400, **_TOLS})
    assert len(ours) == 39
    assert ours == theirs
