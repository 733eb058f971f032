"""Shared fixtures: the expensive conformal solves run once per session."""

import math

import numpy as np
import pytest

from faberzol.conformal import mobius_two_disks, phi, solve_annulus_map
from faberzol.faber import _pole_marked
from faberzol.geometry import disk, rectangle
from faberzol.quadrature import _HIT_RTOL, _nodal_derivative


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


def direct_cauchy_boundary(values, quad, z, f_at):
    """Reference for cauchy_boundary, independent of CauchyKernel: the
    subtracted sum f(z) + (1/2 pi i) sum_j (v_j - f(z)) w_j/(zeta_j - z),
    divided out directly for every target, where a node hit
    (|zeta_j - z| <= _HIT_RTOL times the diameter) contributes
    w_j f'(zeta_j)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    f_at = np.broadcast_to(np.asarray(f_at, dtype=complex).ravel(), z.shape)
    vals = np.asarray(values, dtype=complex)
    diff = quad.nodes[None, :] - z[:, None]
    hit = np.abs(diff) <= _HIT_RTOL * quad.diameter
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (vals[None, :] - f_at[:, None]) * quad.weights[None, :] / diff
    rows, cols = np.nonzero(hit)
    deriv = _nodal_derivative(vals, quad)
    terms[rows, cols] = quad.weights[cols] * deriv[cols]
    return f_at + terms.sum(axis=1) / (2j * math.pi)


def direct_inv_rn(ctx, region, t):
    """Reference for 1/r_n at boundary params t of region (E or F): R_n
    and then 1/r_n by direct_cauchy_boundary, pole-marked as in faber."""
    z = region.boundary_point(t)
    rn = direct_cauchy_boundary(ctx.phi_n_on_e, ctx.quad_e, z,
                                phi(ctx.map, z) ** ctx.n)
    return _pole_marked(rn, lambda inv: direct_cauchy_boundary(
        ctx.inv_rn_on_f, ctx.quad_f, z, inv))


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
