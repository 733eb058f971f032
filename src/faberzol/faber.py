"""Faber rationals built by Cauchy-filtering powers of the annulus map.

R_n is the filtered version of Phi^n across the E boundary; filtering
1/R_n across the F boundary yields 1/r_n, where r_n is a type (n, n)
rational whose sup/inf ratio witnesses the Zolotarev number upper bound.

On and beyond the F boundary |Phi^n| is about h^n, which leaves the float
range at moderate n (h ~ 142 overflows at n = 144).  The F side is
therefore carried at an exact power-of-two scale: Phi^n there is taken as
(Phi 2^-a)^n with a = round(log2 h), so R_n is held as R_n 2^-an and 1/R_n
as 2^an/R_n, and the transforms that mix the two scales multiply their
products by the power of two (CauchyKernel's exponent).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .conformal import AnnulusMap, ExteriorOf, dlog_phi, phi, psi_boundary
from .errors import EvaluationDomainError, InvalidRegionError, UncertifiedError
from .quadrature import (
    BoundaryQuadrature,
    CauchyKernel,
    _flat,
    _ldexp,
    _shaped,
    cauchy_boundary,
    cauchy_kernel,
    cauchy_stabilized,
    winding_of_polyline,
)
from .search import _bounded_brent, lockstep

_POLE_EPS = 1e-14  # |R_n| below this marks a pole of 1/r_n (a zero of r_n)
_NEWTON_STEPS = 30  # per stage of _level_curve


@dataclass(frozen=True, eq=False)
class _Scan:
    """Boundary points z at parameters t, Phi there, the kernels of the
    transforms across each boundary at those points (see _scan), and the
    power-of-two shift a of Phi on this boundary: 0 on E,
    BoundaryData.f_shift on F."""

    t: np.ndarray
    z: np.ndarray
    phi: np.ndarray
    across_e: CauchyKernel
    across_f: CauchyKernel
    shift: int

    def row(self, i: int) -> "_Scan":
        """The scan at its i-th point alone."""
        return _Scan(self.t[i:i + 1], self.z[i:i + 1], self.phi[i:i + 1],
                     self.across_e.row(i), self.across_f.row(i), self.shift)


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Degree-independent boundary data of one map at one quadrature size.

    Holds the two boundary quadratures, Phi at their nodes and
    across_e_at_f, the kernel of the transform across the E boundary at the
    F nodes (4 MiB at 512 nodes), so that every degree n built on it
    (degree_context) costs a power of the cached Phi and one application of
    that kernel.  The dense scans are built on first use, by
    empirical_ratios, count_zeros or adi.faber_shifts, and then serve every
    degree.
    """

    map: AnnulusMap
    quad_e: BoundaryQuadrature
    quad_f: BoundaryQuadrature
    phi_e: np.ndarray
    phi_f: np.ndarray
    across_e_at_f: CauchyKernel

    @property
    def f_shift(self) -> int:
        """a = round(log2 h): Phi 2^-a has modulus near 1 on the F boundary."""
        return round(math.log2(self.map.h))

    @functools.cached_property
    def scans(self):
        """(E scan, F scan) at t = i/(4 len(quad_e)), i < 4 len(quad_e).

        The points where empirical_ratios scans |r_n| and where
        adi.faber_shifts samples r_k for its fits; each degree then costs
        four matrix-vector products.  Each of the four kernels takes
        64 n_quad^2 bytes (16 MiB at 512 nodes).
        """
        n_samples = 4 * len(self.quad_e)
        t = np.arange(n_samples) / n_samples
        return (_scan(self, self.map.region_e, t),
                _scan(self, self.map.region_f, t))


def _scan(data: BoundaryData, region, t) -> _Scan:
    """The _Scan of data at boundary params t of region (E or F)."""
    z = region.boundary_point(t)
    shift = data.f_shift if region == data.map.region_f else 0
    return _Scan(t, z, phi(data.map, z), cauchy_kernel(data.quad_e, z),
                 cauchy_kernel(data.quad_f, z), shift)


def boundary_data(amap, n_quad: int = 512) -> BoundaryData:
    """Boundary quadratures of n_quad nodes (>= 64), Phi at the nodes and
    the E-to-F kernel."""
    if n_quad < 64:
        raise ValueError("need at least 64 quadrature nodes per boundary")
    if isinstance(amap.region_f, ExteriorOf):
        raise InvalidRegionError(
            "Faber construction implemented for bounded E and F only"
        )
    quad_e = geometry.boundary_samples(amap.region_e, n_quad)
    quad_f = geometry.boundary_samples(amap.region_f, n_quad)
    return BoundaryData(amap, quad_e, quad_f,
                        phi(amap, quad_e.nodes), phi(amap, quad_f.nodes),
                        cauchy_kernel(quad_e, quad_f.nodes))


@dataclass(frozen=True, eq=False)
class FaberContext:
    """Quadrature-backed evaluator state for one map and one degree n.

    phi_n_on_e holds Phi^n at the E-boundary nodes (the density whose
    transforms give R_n); inv_rn_on_f holds 2^exponent/R_n at the F-boundary
    nodes, with exponent = a n for the shift a of data.f_shift (the density
    whose transforms give 1/r_n, kept near modulus 1).
    """

    data: BoundaryData
    n: int
    phi_n_on_e: np.ndarray
    inv_rn_on_f: np.ndarray
    exponent: int

    @property
    def map(self):
        return self.data.map

    @property
    def quad_e(self) -> BoundaryQuadrature:
        return self.data.quad_e

    @property
    def quad_f(self) -> BoundaryQuadrature:
        return self.data.quad_f


def _rn_on_f(data: BoundaryData, phi_n_on_e, n: int):
    """R_n 2^-an at the F nodes, a = data.f_shift: the E-to-F kernel applied
    to Phi^n on E, with (Phi 2^-a)^n as the subtracted value."""
    a = data.f_shift
    phi_n_on_f = _ldexp(data.phi_f, -a) ** n
    return data.across_e_at_f(phi_n_on_e, phi_n_on_f, -a * n)


def degree_context(data: BoundaryData, n: int) -> FaberContext:
    """The degree-n context on shared boundary data.

    Raises UncertifiedError if the map residual cannot certify
    |Phi^n| <= 1 on the E boundary, or if the scaled Phi^n or 1/R_n
    density on the F boundary is not finite (only where |log2 h - a| n
    passes the float exponent range, a = data.f_shift: n > 2000 at least).
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
    with np.errstate(over="ignore", invalid="ignore"):  # raises below
        rn_on_f = _rn_on_f(data, phi_n_on_e, n)
    # a finite, nonzero R_n is a finite 1/R_n density
    if np.all(np.isfinite(rn_on_f) & (rn_on_f != 0.0)):
        return FaberContext(data, n, phi_n_on_e, 1.0 / rn_on_f,
                            data.f_shift * n)
    raise UncertifiedError(
        f"degree {n}: Phi^n or 1/R_n overflows on the F boundary "
        f"(h = {data.map.h:.6g}), so the witness is not finite")


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


def _pole_marked(ctx, rn, across_f, scale=0):
    """2^scale/r_n from R_n 2^-scale at targets on the F boundary or outside
    F: across_f, the transform across the F boundary at those targets
    (called as a CauchyKernel), applied to the F density of ctx.  Where
    |R_n| < _POLE_EPS the result is the pole marker inf+0j (a zero of r_n).
    """
    small = np.abs(rn) < math.ldexp(_POLE_EPS, -scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_rn = np.where(small, 0.0, 1.0 / rn)
    out = across_f(ctx.inv_rn_on_f, inv_rn, scale - ctx.exponent)
    out[small] = np.inf + 0.0j
    return out


def _inv_rn(ctx, z, rn, scale=0):
    """2^scale/r_n at points z on the F boundary or outside F, given
    R_n 2^-scale there: 1/R_n filtered across the F boundary (see
    _pole_marked).
    """
    return _pole_marked(ctx, rn, lambda values, f_at, exponent: (
        cauchy_boundary(values, ctx.quad_f, z, f_at, exponent)), scale)


def _classify(ctx, z):
    """Strict-interior masks of the targets in E and in F (contour points
    count as outside).  Raises EvaluationDomainError for non-finite
    targets."""
    zf = _flat(z)
    bad = int(np.count_nonzero(~np.isfinite(zf)))
    if bad:
        raise EvaluationDomainError(f"{bad} non-finite target(s)")
    in_e, _ = geometry.contains_many(ctx.map.region_e, zf)
    in_f, _ = geometry.contains_many(ctx.map.region_f, zf)
    return zf, in_e, in_f


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
        with np.errstate(over="ignore", invalid="ignore"):  # raises below
            out[rest] = _rn(ctx, zf[rest], phi(ctx.map, zf[rest]))
    _require_finite(ctx, "R_n", out)
    return out


def _require_finite(ctx, name, values):
    """Raise UncertifiedError where values (of R_n or r_n at targets near
    or on the F boundary, |Phi|^n about h^n) left the float range."""
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise UncertifiedError(
            f"degree {ctx.n}: {name} overflows at {bad} target(s) "
            f"(h = {ctx.map.h:.6g})")


def eval_Rn(ctx: FaberContext, z):
    """R_n(z) on E and on the doubly connected exterior domain.

    Points in F and non-finite targets are outside the domain of R_n
    (EvaluationDomainError).  Raises UncertifiedError where R_n leaves the
    float range: near F, |R_n| is about h^n.
    """
    zf, in_e, in_f = _classify(ctx, z)
    if np.any(in_f):
        raise EvaluationDomainError("R_n undefined in F")
    return _shaped(_rn_by_side(ctx, zf, in_e), z)


def eval_inv_rn(ctx: FaberContext, z):
    """1/r_n(z) at every finite z; r_n itself is the reciprocal.

    Inside the F boundary this is the stabilized interior transform of
    the 1/r_n boundary values at the F nodes.  Near a zero of R_n
    (|R_n| < 1e-14) the result is the pole marker inf+0j; callers
    evaluating r_n treat it as a zero of r_n.  Inside F the values are
    interpolated at the 2^e scale of the F density and then scaled back,
    so they underflow gracefully; on and outside F the R_n of eval_Rn is
    needed, which raises where it overflows.
    """
    zf, in_e, in_f = _classify(ctx, z)
    out = np.empty(zf.shape, dtype=complex)
    if np.any(in_f):
        # the ratio form is homogeneous: interpolate 2^e/r_n, then scale
        e = ctx.exponent
        rn = _rn_on_f(ctx.data, ctx.phi_n_on_e, ctx.n)
        density = _inv_rn(ctx, ctx.quad_f.nodes, rn, e)
        out[in_f] = _ldexp(cauchy_stabilized(density, ctx.quad_f, zf[in_f]),
                           -e)
    rest = ~in_f
    if np.any(rest):
        rn = _rn_by_side(ctx, zf[rest], in_e[rest])
        out[rest] = _inv_rn(ctx, zf[rest], rn)
    return _shaped(out, z)


def _reciprocal(inv):
    """r_n from 1/r_n values; pole markers (non-finite values) become zeros."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 / inv
    out[~np.isfinite(inv)] = 0.0
    return out


def eval_rn(ctx: FaberContext, z):
    """r_n(z) as the reciprocal of eval_inv_rn; pole markers become zeros.

    Raises UncertifiedError where r_n (like R_n, about h^n near F) leaves
    the float range.
    """
    with np.errstate(over="ignore"):  # raises below
        out = _reciprocal(_flat(eval_inv_rn(ctx, z)))
    _require_finite(ctx, "r_n", out)
    return _shaped(out, z)


def _scan_rn(ctx, scan):
    """R_n 2^-s at the points of a scan, s = scan.shift n: the transform
    across E, with (Phi 2^-scan.shift)^n as the subtracted value."""
    phi_n = _ldexp(scan.phi, -scan.shift) ** ctx.n
    return scan.across_e(ctx.phi_n_on_e, phi_n, -scan.shift * ctx.n)


def _scaled_inv_rn(ctx, scan):
    """2^s/r_n at the points of a scan, s = scan.shift n: R_n 2^-s by
    _scan_rn, then 1/R_n across F (see _pole_marked)."""
    return _pole_marked(ctx, _scan_rn(ctx, scan), scan.across_f,
                        scan.shift * ctx.n)


def _scan_inv_rn(ctx, scan):
    """1/r_n at the points of a scan; on F it underflows to 0 where
    h^-n leaves the float range."""
    return _ldexp(_scaled_inv_rn(ctx, scan), -scan.shift * ctx.n)


def _side_maxima(contexts, scan, region, magnitude):
    """max of magnitude(2^s/r_n) over one boundary for each context: the
    dense scan's maximum, then every context's bounded Brent search around
    its best scan point, all searches in lockstep (see empirical_ratios)."""
    data = contexts[0].data
    half_width = 1.0 / scan.t.size
    best, searches = [], []
    for ctx in contexts:
        vals = magnitude(_scaled_inv_rn(ctx, scan))
        i = int(np.argmax(vals))
        best.append(float(vals[i]))
        t0 = float(scan.t[i])
        searches.append(_bounded_brent(t0 - half_width, t0 + half_width))

    def negated(t, lanes):
        points = _scan(data, region, t)
        return [-float(magnitude(_scaled_inv_rn(contexts[k],
                                                points.row(row)))[0])
                for row, k in enumerate(lanes)]

    return [max(top, -least)
            for top, least in zip(best, lockstep(searches, negated))]


def empirical_ratios(contexts) -> list:
    """empirical_ratio of each context; the contexts share one BoundaryData.

    For each boundary and context the dense scan (4x the node count,
    through the scan kernels of the data) gives the best parameter, and
    scipy's bounded Brent search (xatol 1e-12) refines it within one scan
    step.  The searches of all contexts run in lockstep (search.lockstep):
    each round evaluates their pending abscissae on one batched scan (one
    boundary_point, one phi, two kernels) and applies each context's
    densities to its own row.  phi gives each point its one-point value
    and each row is a one-target kernel, so every search takes exactly the
    values, and therefore the steps, of its own one-point search.  A grid
    of candidates or another bracketing search would land on other
    near-corner and near-node spikes of the transforms and move the
    witnesses; Brent's iterates keep those of the per-degree search.

    The F-side maxima are of 2^e/r_n (e = ctx.exponent), so the witness
    max|r_n on E| 2^e max|1/r_n on F| 2^-e is formed with one ldexp,
    rounded to nearest; below the float range it is 0.0.  Raises
    UncertifiedError for the first context whose witness is not finite.
    """
    contexts = list(contexts)
    if not contexts:
        return []
    data = contexts[0].data
    if any(ctx.data is not data for ctx in contexts):
        raise ValueError("contexts must share one BoundaryData")
    # max |r_n| on the E boundary, max |2^e/r_n| on the F boundary
    max_e, max_f = (
        _side_maxima(contexts, scan, region, magnitude)
        for scan, region, magnitude in zip(
            data.scans, (data.map.region_e, data.map.region_f),
            (lambda inv: np.abs(_reciprocal(inv)), np.abs)))
    ratios = []
    for ctx, top_e, top_f in zip(contexts, max_e, max_f):
        ratio = math.ldexp(top_e * top_f, -ctx.exponent)
        if not math.isfinite(ratio):
            raise UncertifiedError(
                f"degree {ctx.n}: the witness is not finite ({ratio})")
        ratios.append(ratio)
    return ratios


def empirical_ratio(ctx: FaberContext) -> float:
    """max over the E boundary of |r_n| over min over the F boundary.

    Extrema on the boundaries bound the extrema over the sets by the
    maximum principle, so the value upper-bounds the Zolotarev number up
    to sampling error.  The one-context case of empirical_ratios.
    """
    return empirical_ratios([ctx])[0]


def _level_curve(amap, rho: float, n_points: int):
    """Points z_k with Phi(z_k) = rho exp(2 pi i k/n_points): the E-boundary
    points of these angles (psi_boundary), moved all at once by Newton on
    Phi'/Phi to |Phi| = sqrt(rho), then to rho.  Raises UncertifiedError if
    a stage misses 1e-12 rho after _NEWTON_STEPS steps."""
    unit = np.exp(2j * math.pi * np.arange(n_points) / n_points)
    z = psi_boundary(amap, unit)
    # a step off the domain may overflow; a non-finite miss fails the test
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for w in (math.sqrt(rho) * unit, rho * unit):
            for _ in range(_NEWTON_STEPS):
                value = phi(amap, z)
                if np.all(np.abs(value - w) <= 1e-12 * rho):
                    break
                z = z - (value - w) / (value * dlog_phi(amap, z))
            else:
                raise UncertifiedError(
                    f"level curve |Phi| = {rho:.6g}: Newton did not "
                    f"converge in {_NEWTON_STEPS} steps")
    return z


def count_zeros(ctx: FaberContext) -> int:
    """Zero count of R_n inside a level curve |Phi| = rho.

    rho is chosen with rho^n > 1 + max |R_n on E| so that, on the curve,
    |R_n - Phi^n| <= 1 + sup_E |R_n| < |Phi^n| and the winding of R_n
    equals that of Phi^n (argument principle).  rho must also stay below
    |Phi(infinity)| = exp(Re g(infinity)): at that value the level set
    passes through infinity and beyond it the curve surrounds F, not E.
    Returns the winding number, which must equal n.

    Raises UncertifiedError when the window rho_min < rho_cap is empty
    (always at n = 0), when Newton misses the curve or when the winding
    is not n; the errors of psi_boundary and eval_Rn pass through.
    """
    h = ctx.map.h
    sup_rn = float(np.abs(_scan_rn(ctx, ctx.data.scans[0])).max())
    # g(infinity) is the constant coefficient: F is bounded (case A1)
    phi_inf = math.exp(ctx.map.coef[0].real)
    rho_min = (1.02 * (1.0 + sup_rn)) ** (1.0 / ctx.n) if ctx.n else math.inf
    rho_cap = 0.98 * min(h, phi_inf)
    if not rho_min < rho_cap:
        cap_by = "h" if h < phi_inf else "|Phi(inf)|"
        raise UncertifiedError(
            f"zero count not certified at this n: rho_min = {rho_min:.6g} "
            f"is not below rho_cap = 0.98 {cap_by} = {rho_cap:.6g}")
    rho = math.sqrt(rho_min * rho_cap)

    n_points = max(512, 32 * ctx.n)
    for _ in range(3):
        values = eval_Rn(ctx, _level_curve(ctx.map, rho, n_points))
        steps = np.angle(values / np.roll(values, 1))
        if np.abs(steps).max() < 0.5 * math.pi:
            break
        n_points *= 2
    winding = winding_of_polyline(values)
    if winding != ctx.n:
        raise UncertifiedError(
            f"winding of R_n on the level curve is {winding}, expected {ctx.n}"
        )
    return winding
