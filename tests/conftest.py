"""Shared fixtures: the expensive conformal solves run once per session."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from faberzol.conformal import mobius_two_disks, phi, solve_annulus_map
from faberzol.faber import _POLE_EPS, _reciprocal, _scan
from faberzol.geometry import disk, rectangle
from faberzol.quadrature import (_HIT_RTOL, _ldexp, _nodal_derivative,
                                 cauchy_kernel)


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
    """Reference for calling a CauchyKernel, independent of it: the
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
    and then 1/r_n by direct_cauchy_boundary in unscaled arithmetic (the
    F density 2^e/R_n of ctx divided by 2^e first), pole-marked as in
    faber."""
    z = region.boundary_point(t)
    rn = direct_cauchy_boundary(ctx.phi_n_on_e, ctx.quad_e, z,
                                phi(ctx.map, z) ** ctx.n)
    small = np.abs(rn) < _POLE_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(small, 0.0, 1.0 / rn)
    out = direct_cauchy_boundary(_ldexp(ctx.inv_rn_on_f, -ctx.exponent),
                                 ctx.quad_f, z, inv)
    out[small] = np.inf + 0.0j
    return out


def unscaled_context(data, n):
    """Reference for degree_context in the unscaled arithmetic it replaced:
    (Phi^n on E, 1/R_n on F), R_n on F by one kernel across E at the F
    nodes with Phi^n itself as the subtracted value."""
    phi_n_on_e = data.e_nodes.phi ** n
    rn = cauchy_kernel(data.quad_e, data.quad_f.nodes)(phi_n_on_e,
                                                       data.f_nodes.phi ** n)
    return phi_n_on_e, 1.0 / rn


def _unscaled_inv_rn(n, phi_n_on_e, inv_rn_on_f, scan):
    """1/r_n at the points of scan through one kernel per boundary over
    all of them, built here."""
    rn = cauchy_kernel(scan.quad_e, scan.z)(phi_n_on_e, scan.phi ** n)
    small = np.abs(rn) < _POLE_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(small, 0.0, 1.0 / rn)
    out = cauchy_kernel(scan.quad_f, scan.z)(inv_rn_on_f, inv)
    out[small] = np.inf + 0.0j
    return out


def unscaled_witness(data, n):
    """Reference for empirical_ratio in the unscaled arithmetic and the
    per-degree search it replaced: on each boundary the dense scan's best
    point, refined by scipy's minimize_scalar(method="bounded", xatol
    1e-12) on one-point scans.  Returns the witness and the number of
    values each search took (E, F)."""
    phi_n_on_e, inv_rn_on_f = unscaled_context(data, n)
    ratio, evaluations = 1.0, []
    for scan, region, magnitude in (
            (data.e_scan, data.map.region_e,
             lambda inv: np.abs(_reciprocal(inv))),
            (data.f_scan, data.map.region_f, np.abs)):
        vals = magnitude(_unscaled_inv_rn(n, phi_n_on_e, inv_rn_on_f, scan))
        i = int(np.argmax(vals))
        t0, half_width = float(scan.t[i]), 1.0 / scan.t.size

        def fun(t):
            point = _scan(data, region, scan.shift, np.array([t]))
            return -float(magnitude(_unscaled_inv_rn(
                n, phi_n_on_e, inv_rn_on_f, point))[0])

        res = minimize_scalar(fun, bounds=(t0 - half_width, t0 + half_width),
                              method="bounded", options={"xatol": 1e-12})
        ratio *= max(float(vals[i]), -float(res.fun))
        evaluations.append(res.nfev)
    return ratio, evaluations


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
