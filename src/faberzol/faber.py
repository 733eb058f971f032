"""Faber rationals built by Cauchy-filtering powers of the annulus map.

R_n is the filtered version of Phi^n across the E boundary; filtering
1/R_n across the F boundary yields 1/r_n, where r_n is a type (n, n)
rational whose sup/inf ratio witnesses the Zolotarev number upper bound.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import geometry
from .conformal import ExteriorOf, phi
from .errors import EvaluationDomainError, InvalidRegionError, UncertifiedError
from .quadrature import (
    BoundaryQuadrature,
    CauchyKernel,
    cauchy_boundary,
    cauchy_kernel,
    cauchy_stabilized,
    winding_of_polyline,
)

_POLE_EPS = 1e-14  # |R_n| below this marks a pole of 1/r_n (a zero of r_n)


@dataclass(frozen=True)
class _Scan:
    """The dense scan of one boundary: parameters t, Phi at the points, and
    the kernels of the subtracted transforms across each boundary there."""

    t: np.ndarray
    phi: np.ndarray
    across_e: CauchyKernel
    across_f: CauchyKernel


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Degree-independent boundary data of one map at one quadrature size.

    Holds the two boundary quadratures and Phi at their nodes, so that
    every degree n built on it (degree_context) costs a power of the cached
    Phi and one transform.  The dense scans of empirical_ratio are built on
    first use.
    """

    map: object  # MobiusMap or AnnulusMap
    quad_e: BoundaryQuadrature
    quad_f: BoundaryQuadrature
    phi_e: np.ndarray
    phi_f: np.ndarray

    @functools.cached_property
    def scans(self):
        """(E scan, F scan) at t = i/(4 len(quad_e)), i < 4 len(quad_e).

        Each of the four kernels takes 64 n_quad^2 bytes (16 MiB at 512
        nodes).
        """
        n_samples = 4 * len(self.quad_e)
        t = np.arange(n_samples) / n_samples
        scans = []
        for region in (self.map.region_e, self.map.region_f):
            z = region.boundary_point(t)
            scans.append(_Scan(t, phi(self.map, z),
                               cauchy_kernel(self.quad_e, z),
                               cauchy_kernel(self.quad_f, z)))
        return tuple(scans)


def boundary_data(amap, n_quad: int = 512) -> BoundaryData:
    """Boundary quadratures of n_quad nodes (>= 64) and Phi at the nodes."""
    if n_quad < 64:
        raise ValueError("need at least 64 quadrature nodes per boundary")
    if isinstance(amap.region_f, ExteriorOf):
        raise InvalidRegionError(
            "Faber construction implemented for bounded E and F only"
        )
    quad_e = geometry.boundary_samples(amap.region_e, n_quad)
    quad_f = geometry.boundary_samples(amap.region_f, n_quad)
    return BoundaryData(amap, quad_e, quad_f,
                        phi(amap, quad_e.nodes), phi(amap, quad_f.nodes))


@dataclass(frozen=True)
class FaberContext:
    """Quadrature-backed evaluator state for one map and one degree n.

    phi_n_on_e holds Phi^n at the E-boundary nodes (the density whose
    transforms give R_n); inv_rn_on_f holds 1/R_n at the F-boundary nodes
    (the density whose transforms give 1/r_n).
    """

    data: BoundaryData
    n: int
    phi_n_on_e: np.ndarray
    inv_rn_on_f: np.ndarray

    @property
    def map(self):
        return self.data.map

    @property
    def quad_e(self) -> BoundaryQuadrature:
        return self.data.quad_e

    @property
    def quad_f(self) -> BoundaryQuadrature:
        return self.data.quad_f

    def diameter(self) -> float:
        return max(self.quad_e.diameter, self.quad_f.diameter)


def degree_context(data: BoundaryData, n: int) -> FaberContext:
    """The degree-n context on shared boundary data.

    Raises UncertifiedError if the map residual cannot certify
    |Phi^n| <= 1 on the E boundary.
    """
    if n < 0 or n != int(n):
        raise ValueError("degree n must be a non-negative integer")
    n = int(n)
    phi_n_on_e = data.phi_e ** n
    excess = float(np.abs(phi_n_on_e).max()) - 1.0
    if excess > 4.0 * n * data.map.residual + 1e-10:
        raise UncertifiedError(
            "map residual does not certify |Phi^n| <= 1 on the E boundary "
            f"(measured max 1 + {excess:.3e})"
        )
    rn_on_f = cauchy_boundary(phi_n_on_e, data.quad_e, data.quad_f.nodes,
                              data.phi_f ** n)
    return FaberContext(data, n, phi_n_on_e, 1.0 / rn_on_f)


def build_context(amap, n: int, n_quad: int = 512) -> FaberContext:
    """The data needed to evaluate R_n and r_n for one degree: the
    degree-n context on fresh boundary data of n_quad nodes (>= 64)."""
    return degree_context(boundary_data(amap, n_quad), n)


def _rn(ctx, z, phi_z):
    """R_n at points z on the E boundary or outside E, given Phi(z): Phi^n
    filtered across the E boundary, with Phi^n(z) itself as the subtracted
    value so accuracy holds up to and on the boundary.
    """
    return cauchy_boundary(ctx.phi_n_on_e, ctx.quad_e, z, phi_z ** ctx.n)


def _pole_marked(rn, across_f):
    """1/r_n from R_n at targets on the F boundary or outside F: across_f,
    the transform across the F boundary at those targets, applied to 1/R_n.
    Where |R_n| < _POLE_EPS the result is the pole marker inf+0j (a zero
    of r_n).
    """
    small = np.abs(rn) < _POLE_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_rn = np.where(small, 0.0, 1.0 / rn)
    out = across_f(inv_rn)
    out[small] = np.inf + 0.0j
    return out


def _inv_rn(ctx, z, rn):
    """1/r_n at points z on the F boundary or outside F, given R_n there:
    1/R_n filtered across the F boundary (see _pole_marked).
    """
    return _pole_marked(
        rn, lambda inv: cauchy_boundary(ctx.inv_rn_on_f, ctx.quad_f, z, inv))


def _classify(ctx, z):
    """Strict-interior masks of the targets in E and in F (contour points
    count as outside)."""
    zf = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    in_e, _ = geometry.contains_many(ctx.map.region_e, zf)
    in_f, _ = geometry.contains_many(ctx.map.region_f, zf)
    return zf, in_e, in_f


def _shaped(out, z_arr):
    if z_arr.ndim == 0:
        return complex(out[0])
    return out.reshape(z_arr.shape)


def _rn_by_side(ctx, zf, in_e):
    """R_n at targets outside F, dispatched on their E membership.

    Inside E it is the stabilized interior transform of the R_n boundary
    values at the E nodes.
    """
    out = np.empty(zf.shape, dtype=complex)
    if np.any(in_e):
        density = _rn(ctx, ctx.quad_e.nodes, ctx.data.phi_e)
        out[in_e] = cauchy_stabilized(density, ctx.quad_e, zf[in_e])
    rest = ~in_e
    if np.any(rest):
        out[rest] = _rn(ctx, zf[rest], phi(ctx.map, zf[rest]))
    return out


def eval_Rn(ctx: FaberContext, z):
    """R_n(z) on E and on the doubly connected exterior domain.

    Points in F are outside the domain of R_n.
    """
    z_arr = np.asarray(z, dtype=complex)
    zf, in_e, in_f = _classify(ctx, z_arr)
    if np.any(in_f):
        raise EvaluationDomainError("R_n undefined in F")
    return _shaped(_rn_by_side(ctx, zf, in_e), z_arr)


def eval_inv_rn(ctx: FaberContext, z):
    """1/r_n(z) everywhere; r_n itself is the reciprocal.

    Inside the F boundary this is the stabilized interior transform of
    the 1/r_n boundary values at the F nodes.  Near a zero of R_n
    (|R_n| < 1e-14) the result is the pole marker inf+0j; callers
    evaluating r_n treat it as a zero of r_n.
    """
    z_arr = np.asarray(z, dtype=complex)
    zf, in_e, in_f = _classify(ctx, z_arr)
    out = np.empty(zf.shape, dtype=complex)
    if np.any(in_f):
        nodes = ctx.quad_f.nodes
        density = _inv_rn(ctx, nodes, _rn(ctx, nodes, ctx.data.phi_f))
        out[in_f] = cauchy_stabilized(density, ctx.quad_f, zf[in_f])
    rest = ~in_f
    if np.any(rest):
        rn = _rn_by_side(ctx, zf[rest], in_e[rest])
        out[rest] = _inv_rn(ctx, zf[rest], rn)
    return _shaped(out, z_arr)


def _reciprocal(inv):
    """r_n from 1/r_n values; pole markers (non-finite values) become zeros."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 / inv
    out[~np.isfinite(inv)] = 0.0
    return out


def eval_rn(ctx: FaberContext, z):
    """r_n(z) as the reciprocal of eval_inv_rn; pole markers become zeros."""
    inv = np.asarray(eval_inv_rn(ctx, z))
    return _shaped(_reciprocal(np.atleast_1d(inv)), inv)


def _inv_rn_on_boundary(ctx, region, t):
    """1/r_n at boundary params t of region (E or F)."""
    z = region.boundary_point(t)
    return _inv_rn(ctx, z, _rn(ctx, z, phi(ctx.map, z)))


def rn_on_e_boundary(ctx: FaberContext, t):
    """r_n at E-boundary params t, via the boundary-limit transforms."""
    return _reciprocal(_inv_rn_on_boundary(ctx, ctx.map.region_e, t))


def rn_on_f_boundary(ctx: FaberContext, t):
    """r_n at F-boundary params t (boundary limits of 1/r_n, inverted)."""
    return _reciprocal(_inv_rn_on_boundary(ctx, ctx.map.region_f, t))


def _refine_max(fun, t0: float, half_width: float) -> float:
    res = minimize_scalar(
        lambda t: -float(fun(np.array([t]))[0]),
        bounds=(t0 - half_width, t0 + half_width),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return -float(res.fun)


def _scan_inv_rn(ctx, scan):
    """1/r_n at the points of a dense scan: _inv_rn_on_boundary through the
    scan's precomputed kernels."""
    rn = scan.across_e(ctx.phi_n_on_e, scan.phi ** ctx.n)
    return _pole_marked(rn, lambda inv: scan.across_f(ctx.inv_rn_on_f, inv))


def empirical_ratio(ctx: FaberContext) -> float:
    """max over the E boundary of |r_n| over min over the F boundary.

    Extrema on the boundaries bound the extrema over the sets by the
    maximum principle, so the value upper-bounds the Zolotarev number up
    to sampling error.  Dense sampling (4x the node count, through the
    scan kernels of ctx.data) is followed by a bounded 1-D refinement
    around the best parameter, evaluated pointwise.
    """
    scan_e, scan_f = ctx.data.scans
    ratio = 1.0
    # max |r_n| on the E boundary times max |1/r_n| on the F boundary
    for scan, magnitude, region in (
        (scan_e, lambda inv: np.abs(_reciprocal(inv)), ctx.map.region_e),
        (scan_f, np.abs, ctx.map.region_f),
    ):
        vals = magnitude(_scan_inv_rn(ctx, scan))
        i = int(np.argmax(vals))

        def fun(s):
            return magnitude(_inv_rn_on_boundary(ctx, region, s))

        ratio *= max(float(vals[i]),
                     _refine_max(fun, float(scan.t[i]), 1.0 / scan.t.size))
    return ratio


def _phi_derivative(amap, z, step: float):
    return (phi(amap, z + step) - phi(amap, z - step)) / (2.0 * step)


def _segment_level_start(ctx, rho: float) -> complex:
    """A point with |Phi| = rho on the straight run between the two sets."""
    a = geometry.interior_anchor(ctx.map.region_e)
    b = geometry.interior_anchor(ctx.map.region_f)
    s = np.linspace(0.0, 1.0, 257)
    pts = a + s * (b - a)
    in_e, on_e = geometry.contains_many(ctx.map.region_e, pts)
    in_f, on_f = geometry.contains_many(ctx.map.region_f, pts)
    free = ~(in_e | on_e | in_f | on_f)
    if not np.any(free):
        raise UncertifiedError("no gap found between E and F on the center line")
    idx = np.nonzero(free)[0]
    vals = np.abs(phi(ctx.map, pts[idx]))
    below = idx[vals < rho]
    above = idx[vals > rho]
    if len(below) == 0 or len(above) == 0:
        raise UncertifiedError("level curve not bracketed between E and F")
    ends = sorted((float(s[below[-1]]), float(s[above[0]])))

    def gap(u):
        return float(abs(phi(ctx.map, a + u * (b - a)))) - rho

    return complex(a + brentq(gap, *ends, xtol=1e-15) * (b - a))


def _trace_level_curve(ctx, rho: float, n_points: int):
    """Discretize {|Phi| = rho} by Newton continuation in arg Phi."""
    amap = ctx.map
    step = 1e-7 * ctx.diameter()
    z0 = _segment_level_start(ctx, rho)
    theta0 = float(np.angle(phi(amap, z0)))

    def newton(z, w, iters=12):
        for _ in range(iters):
            f = phi(amap, z) - w
            if abs(f) <= 1e-12 * rho:
                break
            z = z - f / _phi_derivative(amap, z, step)
        return z

    n_coarse = 128
    coarse = np.empty(n_coarse + 1, dtype=complex)
    coarse[0] = z0
    for k in range(1, n_coarse + 1):
        w = rho * np.exp(1j * (theta0 + 2.0 * math.pi * k / n_coarse))
        coarse[k] = newton(coarse[k - 1], w)
    if abs(coarse[-1] - z0) > 1e-6 * ctx.diameter():
        raise UncertifiedError("level curve tracing failed to close")

    # refine all points in parallel from interpolated starts
    frac = np.arange(n_points) / n_points
    pos = frac * n_coarse
    base = np.minimum(pos.astype(int), n_coarse - 1)
    lam = pos - base
    z = coarse[base] * (1.0 - lam) + coarse[base + 1] * lam
    w = rho * np.exp(1j * (theta0 + 2.0 * math.pi * frac))
    for _ in range(12):
        f = phi(amap, z) - w
        if np.abs(f).max() <= 1e-12 * rho:
            break
        z = z - f / _phi_derivative(amap, z, step)
    if np.abs(phi(amap, z) - w).max() > 1e-9 * rho:
        raise UncertifiedError("level curve refinement did not converge")
    return z


def count_zeros(ctx: FaberContext) -> int:
    """Zero count of R_n inside a level curve |Phi| = rho.

    rho is chosen with rho^n > 1 + max |R_n on E| so that, on the curve,
    |R_n - Phi^n| <= 1 + sup_E |R_n| < |Phi^n| and the winding of R_n
    equals that of Phi^n (argument principle).  rho must also stay below
    |Phi(infinity)|: at that value the level set passes through infinity
    and beyond it the curve surrounds F, not E.  Returns the winding
    number, which must equal n.
    """
    if ctx.n == 0:
        raise UncertifiedError("zero count not certified at this n")
    h = ctx.map.h
    t_dense = np.arange(4 * len(ctx.quad_e)) / (4 * len(ctx.quad_e))
    z_dense = ctx.map.region_e.boundary_point(t_dense)
    sup_rn = float(np.abs(_rn(ctx, z_dense, phi(ctx.map, z_dense))).max())
    zc = ctx.quad_e.nodes.mean()
    far = zc + 1e7 * ctx.diameter() * np.exp(0.5j * math.pi * np.arange(4))
    phi_inf = float(np.abs(phi(ctx.map, far)).min())
    rho_min = (1.02 * (1.0 + sup_rn)) ** (1.0 / ctx.n)
    rho_cap = 0.98 * min(h, phi_inf)
    if rho_min >= rho_cap:
        raise UncertifiedError("zero count not certified at this n")
    rho = math.sqrt(rho_min * rho_cap)

    n_points = max(512, 32 * ctx.n)
    for _ in range(3):
        curve = _trace_level_curve(ctx, rho, n_points)
        values = np.atleast_1d(eval_Rn(ctx, curve))
        closed = np.concatenate([values, values[:1]])
        steps = np.angle(closed[1:] / closed[:-1])
        if np.abs(steps).max() < 0.5 * math.pi:
            break
        n_points *= 2
    winding = winding_of_polyline(values)
    if winding != ctx.n:
        raise UncertifiedError(
            f"winding of R_n on the level curve is {winding}, expected {ctx.n}"
        )
    return winding
