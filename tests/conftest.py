"""Shared fixtures: the expensive conformal solves run once per session."""

import math

import numpy as np
import pytest

from faberzol.conformal import mobius_two_disks, solve_annulus_map
from faberzol.geometry import disk, rectangle


def two_disk_h(c1, r1, c2, r2):
    """Annulus parameter of a disjoint disk pair via the inversive distance."""
    delta = (abs(c1 - c2) ** 2 - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)
    return delta + math.sqrt(delta * delta - 1.0)


def random_disk_pair(rng):
    """A disjoint disk pair: gap 1.5-4, radii 0.2-0.45 of the gap."""
    gap = rng.uniform(1.5, 4.0)
    r1, r2 = rng.uniform(0.2, 0.45, 2) * gap
    c1 = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0)
    c2 = c1 + (gap + r1 + r2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return disk(c1, r1), disk(c2, r2)


@pytest.fixture(scope="session")
def disk_pair():
    return disk(1.0, 0.7), disk(-1.0, 0.7)


@pytest.fixture(scope="session")
def disk_map(disk_pair):
    return mobius_two_disks(*disk_pair)


@pytest.fixture(scope="session")
def disk_amap(disk_pair):
    # same pair through the general solver, for cross-checks
    return solve_annulus_map(*disk_pair, tol=1e-10)


@pytest.fixture(scope="session")
def rect_pair():
    e = rectangle((0.3, 1.3), (-1.3, 1.3))
    return e, e.negated()


@pytest.fixture(scope="session")
def rect_map(rect_pair):
    return solve_annulus_map(*rect_pair, tol=1e-8)
