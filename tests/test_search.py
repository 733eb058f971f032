"""The lockstep driver of faberzol.search against one-lane runs."""

import math

from faberzol.search import _bounded_brent, lockstep


def _alone(search, f):
    """Run one search on f by itself: (abscissae, result)."""
    xs, value = [], None
    try:
        while True:
            xs.append(search.send(value))
            value = f(xs[-1])
    except StopIteration as done:
        return xs, done.value


def test_lockstep_lanes_take_the_steps_of_one_lane_runs():
    # bounded Brent lanes that finish in different rounds; each round
    # evaluates every pending lane in one call
    funcs = [lambda x: (x - 0.7) ** 2,
             lambda x: -abs(math.sin(9.0 * x)),
             lambda x: math.cos(3.0 * x) + 0.1 * x,
             lambda x: abs(x - 0.25),
             lambda x: x]
    brackets = [(0.0, 1.0), (0.1, 0.4), (0.5, 2.0), (0.0, 1.0), (0.2, 0.3)]

    def searches():
        return [_bounded_brent(lo, hi) for lo, hi in brackets]

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
    assert len({len(xs) for xs, _ in alone}) > 1
    assert lockstep([], evaluate) == []
