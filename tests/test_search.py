"""The generator searches of faberzol.search against the scipy calls they
retrace, and the lockstep driver against one-lane runs."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from faberzol.search import _bounded_brent, _brentq, lockstep


def _alone(search, f):
    """Run one search on f by itself: (abscissae, result)."""
    xs, value = [], None
    try:
        while True:
            xs.append(search.send(value))
            value = f(xs[-1])
    except StopIteration as done:
        return xs, done.value


def _brentq_alone(f, a, b):
    """_brentq on f from the ends' values: (every abscissa of f, root),
    the ends first, as scipy evaluates them."""
    xs, root = _alone(_brentq(a, b, f(a), f(b)), f)
    return [a, b] + xs, root


def _scipy_brentq(f, a, b):
    seen = []

    def recorded(x):
        seen.append(x)
        return f(x)

    return seen, brentq(recorded, a, b, xtol=1e-15)


CASES = {
    "cubic": (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    "zero_at_a": (lambda x: x - 0.25, 0.25, 1.0),
    "zero_at_b": (lambda x: math.sin(x), -1.0, 0.0),
    "negative_zero": (lambda x: -0.0 if x == 0.5 else x - 0.5, 0.5, 2.0),
    "step": (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0),
    "steep": (lambda x: math.tanh(1e6 * (x - 0.123456789)), 0.0, 1.0),
    "reversed": (lambda x: math.cos(x), 3.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_brentq_retraces_scipy(name):
    f, a, b = CASES[name]
    assert _brentq_alone(f, a, b) == _scipy_brentq(f, a, b)


def test_brentq_retraces_scipy_on_random_brackets():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        root, slope, bend = rng.normal(size=3)
        a = root - rng.exponential()
        b = root + rng.exponential()
        if rng.random() < 0.5:
            a, b = b, a

        def f(x, root=root, slope=slope, bend=abs(bend)):
            # monotone, so [a, b] brackets the one root
            return slope * ((x - root) + bend * (x - root) ** 3)

        assert _brentq_alone(f, a, b) == _scipy_brentq(f, a, b)


def test_brentq_raises_where_scipy_does():
    for f, a, b in ((lambda x: x * x + 1.0, -1.0, 1.0),
                    (lambda x: -1.0 - abs(x), 0.0, 2.0)):
        with pytest.raises(ValueError, match="different signs"):
            brentq(f, a, b, xtol=1e-15)
        with pytest.raises(ValueError, match="different signs"):
            _brentq_alone(f, a, b)

    def nan_inside(x):
        return math.nan if 0.0 < x < 1.0 else x - 0.5

    with pytest.raises(ValueError, match="NaN"):
        brentq(nan_inside, 0.0, 1.0, xtol=1e-15)
    with pytest.raises(ValueError, match="NaN"):
        _brentq_alone(nan_inside, 0.0, 1.0)


def test_lockstep_lanes_take_the_steps_of_one_lane_runs():
    # lanes of both searches, finishing in different rounds; each round
    # evaluates every pending lane in one call
    funcs = [lambda x, c=c: math.cos(x) - c for c in (0.1, 0.5, 0.9)]
    funcs.append(lambda x: (x - 0.7) ** 2)
    funcs.append(lambda x: -abs(math.sin(9.0 * x)))

    def searches():
        return [_brentq(0.0, 2.0, f(0.0), f(2.0)) for f in funcs[:3]] + [
            _bounded_brent(0.0, 1.0), _bounded_brent(0.1, 0.4)]

    alone = [_alone(search, f) for search, f in zip(searches(), funcs)]
    seen = [[] for _ in funcs]
    rounds = []

    def evaluate(x, lanes):
        rounds.append(list(lanes))
        for xi, k in zip(x, lanes):
            seen[k].append(xi)
        return [funcs[k](xi) for xi, k in zip(x, lanes)]

    results = lockstep(searches(), evaluate)
    assert results == [result for _, result in alone]
    assert seen == [xs for xs, _ in alone]
    assert len(rounds) == max(len(xs) for xs, _ in alone)
    assert all(lanes == sorted(lanes) for lanes in rounds)
    assert lockstep([], evaluate) == []
