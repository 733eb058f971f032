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
    _kernel_blocks,
    _ldexp,
    _shaped,
    cauchy_kernel,
    winding_of_polyline,
)
from .search import _bounded_brent, lockstep

_POLE_EPS = 1e-14  # |R_n| below this marks a pole of 1/r_n (a zero of r_n)
_NEWTON_STEPS = 30  # per stage of _level_curve


@dataclass(frozen=True, eq=False)
class _Scan:
    """One target set: points z, Phi there (None where _rn is not used),
    the power-of-two shift of Phi on the boundary the set was built on
    (round(log2 h) on F, else 0) and, on a boundary, the parameters t of
    the points.  The kernels across E and across F at z are built on first
    read and then kept; no module forms a kernel anywhere else, and faber
    reads them only on a set that fits one part (_parts) or on one
    point."""

    quad_e: BoundaryQuadrature
    quad_f: BoundaryQuadrature
    z: np.ndarray
    phi: np.ndarray | None
    shift: int = 0
    t: np.ndarray | None = None

    @functools.cached_property
    def across_e(self) -> CauchyKernel:
        return cauchy_kernel(self.quad_e, self.z)

    @functools.cached_property
    def across_f(self) -> CauchyKernel:
        return cauchy_kernel(self.quad_f, self.z)


def _parts(targets: _Scan):
    """(block, target set) over the _kernel_blocks of the kernels over
    n_quad nodes at the points of targets (1 MiB a kernel, no lone last
    point): targets itself when that leaves one block, so that it keeps its
    kernels, else a fresh set for each block, whose kernels go with it."""
    blocks = _kernel_blocks(targets.z.size, len(targets.quad_e))
    if len(blocks) == 1:
        yield blocks[0], targets
        return
    z, phi_z = targets.z, targets.phi
    for block in blocks:
        yield block, _Scan(targets.quad_e, targets.quad_f, z[block],
                           None if phi_z is None else phi_z[block],
                           targets.shift)


def _by_blocks(targets: _Scan, lanes: int, evaluate):
    """The values of `lanes` lanes at the points of targets, one row per
    lane, over the _parts of targets: evaluate(block, part) gives every
    lane's values at the part's points, so each part's kernels serve every
    lane before the next part is built.

    A lane's values depend neither on the blocks (see _kernel_blocks) nor
    on the other lanes.
    """
    out = np.empty((lanes, targets.z.size), dtype=complex)
    if lanes:
        for block, part in _parts(targets):
            out[:, block] = evaluate(block, part)
    return out


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Degree-independent boundary data of one map at one quadrature size.

    Holds the two boundary quadratures and the target sets of their nodes
    and, built on first use, of the two dense boundary scans (points, Phi
    there and boundary parameters).  A set's kernels are applied part by
    part (_by_blocks), each part's for every degree of the call:
    degree_contexts applies the kernel across E at the F nodes for all its
    degrees, empirical_ratios and adi.faber_shifts the four scan kernels
    for all their contexts.  Only a set that fits one part, a kernel of at
    most 2^16 entries, keeps its kernels between calls: the node sets
    up to 256 nodes, whose kernel across E at the F nodes boundary_data
    builds at once, and the scans up to 128.
    """

    map: AnnulusMap
    quad_e: BoundaryQuadrature
    quad_f: BoundaryQuadrature
    e_nodes: _Scan
    f_nodes: _Scan

    @functools.cached_property
    def e_scan(self) -> _Scan:
        """The E-boundary points at t = i/(4 len(quad_e)), i < 4 len(quad_e):
        where empirical_ratios scans |r_n|, count_zeros |R_n| and
        adi.faber_shifts samples r_k for its fits."""
        return _dense_scan(self, self.map.region_e, self.e_nodes.shift)

    @functools.cached_property
    def f_scan(self) -> _Scan:
        """The F-boundary points at the parameters of e_scan."""
        return _dense_scan(self, self.map.region_f, self.f_nodes.shift)


def _scan(data: BoundaryData, region, shift: int, t) -> _Scan:
    """The target set of data at boundary params t of region (E or F),
    where Phi carries the given shift."""
    z = region.boundary_point(t)
    return _Scan(data.quad_e, data.quad_f, z, phi(data.map, z), shift, t)


def _dense_scan(data: BoundaryData, region, shift: int) -> _Scan:
    """The target set of data at t = i/(4 n_quad), i < 4 n_quad, on the
    boundary of region."""
    n_samples = 4 * len(data.quad_e)
    return _scan(data, region, shift, np.arange(n_samples) / n_samples)


def boundary_data(amap, n_quad: int = 512) -> BoundaryData:
    """Boundary quadratures of n_quad nodes (>= 64), the target sets of
    their nodes and, where a node set fits one part (n_quad <= 256), the
    kernel across E at the F nodes."""
    if n_quad < 64:
        raise ValueError("need at least 64 quadrature nodes per boundary")
    if isinstance(amap.region_f, ExteriorOf):
        raise InvalidRegionError(
            "Faber construction implemented for bounded E and F only"
        )
    quad_e = geometry.boundary_samples(amap.region_e, n_quad)
    quad_f = geometry.boundary_samples(amap.region_f, n_quad)
    # Phi 2^-a has modulus near 1 on the F boundary, a = round(log2 h)
    e_nodes, f_nodes = (
        _Scan(quad_e, quad_f, quad.nodes, phi(amap, quad.nodes), shift)
        for quad, shift in ((quad_e, 0), (quad_f, round(math.log2(amap.h)))))
    if next(_parts(f_nodes))[1] is f_nodes:
        f_nodes.across_e  # kept and built now: every degree applies it
    return BoundaryData(amap, quad_e, quad_f, e_nodes, f_nodes)


@dataclass(frozen=True, eq=False)
class FaberContext:
    """Quadrature-backed evaluator state for one map and one degree n.

    phi_n_on_e holds Phi^n at the E-boundary nodes (the density whose
    transforms give R_n); inv_rn_on_f holds 2^exponent/R_n at the F-boundary
    nodes, with exponent = a n for the shift a of data.f_nodes (the density
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


def _rn(phi_n_on_e, n: int, targets: _Scan):
    """R_n 2^-s at targets on the E boundary or outside E, s = targets.shift
    n: Phi^n (phi_n_on_e at the E nodes) filtered across the E boundary,
    with (Phi 2^-targets.shift)^n as the subtracted value, so accuracy
    holds up to and on the boundary."""
    phi_n = _ldexp(targets.phi, -targets.shift) ** n
    return targets.across_e(phi_n_on_e, phi_n, -targets.shift * n)


def degree_contexts(data: BoundaryData, degrees):
    """The degree-n contexts on shared boundary data, one per degree, in
    order.

    The kernel across E at the F nodes is built part by part once for all
    the degrees, before the first context is yielded; each context
    then equals that of degree_context(data, n), bit for bit.  A degree
    that cannot be certified raises when its turn comes, after the contexts
    of the degrees before it: UncertifiedError if the map residual cannot
    certify |Phi^n| <= 1 on the E boundary, or if the scaled Phi^n or 1/R_n
    density on the F boundary is not finite (only where |log2 h - a| n
    passes the float exponent range, a = data.f_nodes.shift: n > 2000 at
    least).
    """
    degrees = list(degrees)
    if any(n < 0 or n != int(n) for n in degrees):
        raise ValueError("degree n must be a non-negative integer")
    checked = []
    for n in map(int, degrees):
        phi_n_on_e = data.e_nodes.phi ** n
        excess = float(np.abs(phi_n_on_e).max()) - 1.0
        checked.append((n, phi_n_on_e, excess,
                        excess <= 4.0 * n * data.map.residual + 1e-10))
    lanes = [(phi_n_on_e, n) for n, phi_n_on_e, _, ok in checked if ok]
    with np.errstate(over="ignore", invalid="ignore"):  # raises below
        rn_on_f = iter(_by_blocks(data.f_nodes, len(lanes), lambda _, part: [
            _rn(*lane, part) for lane in lanes]))
    for n, phi_n_on_e, excess, ok in checked:
        if not ok:
            raise UncertifiedError(
                "map residual does not certify |Phi^n| <= 1 on the E "
                f"boundary (measured max 1 + {excess:.3e})")
        rn = next(rn_on_f)
        # a finite, nonzero R_n is a finite 1/R_n density
        if not np.all(np.isfinite(rn) & (rn != 0.0)):
            raise UncertifiedError(
                f"degree {n}: Phi^n or 1/R_n overflows on the F boundary "
                f"(h = {data.map.h:.6g}), so the witness is not finite")
        yield FaberContext(data, n, phi_n_on_e, 1.0 / rn,
                           data.f_nodes.shift * n)


def degree_context(data: BoundaryData, n: int) -> FaberContext:
    """The degree-n context on shared boundary data: the one-degree case of
    degree_contexts, which names what it raises."""
    return next(degree_contexts(data, [n]))


def build_context(amap, n: int, n_quad: int = 512) -> FaberContext:
    """The data needed to evaluate R_n and r_n for one degree: the
    degree-n context on fresh boundary data of n_quad nodes (>= 64)."""
    return degree_context(boundary_data(amap, n_quad), n)


def _inv_rn(ctx, targets: _Scan, rn=None):
    """2^s/r_n at targets on the F boundary or outside F, s =
    targets.shift n, from R_n 2^-s there (by _rn if rn is None): 1/R_n
    filtered across the F boundary, applied to the F density of ctx.
    Where |R_n| < _POLE_EPS the result is the pole marker inf+0j (a zero
    of r_n).
    """
    scale = targets.shift * ctx.n
    if rn is None:
        rn = _rn(ctx.phi_n_on_e, ctx.n, targets)
    small = np.abs(rn) < math.ldexp(_POLE_EPS, -scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_rn = np.where(small, 0.0, 1.0 / rn)
    out = targets.across_f(ctx.inv_rn_on_f, inv_rn, scale - ctx.exponent)
    out[small] = np.inf + 0.0j
    return out


def _rn_at(ctx, targets: _Scan):
    """R_n 2^-s of ctx (_rn) at the points of targets, by _by_blocks."""
    return _by_blocks(targets, 1, lambda _, part: [
        _rn(ctx.phi_n_on_e, ctx.n, part)])[0]


def _inv_rn_at(contexts, targets: _Scan):
    """2^s/r_n (_inv_rn) of each context at the points of targets, one row
    per context, by _by_blocks.  On each part every context takes its R_n
    before any takes its 1/r_n, so that each kernel stays in cache while
    it serves every context."""
    def evaluate(_, part):
        rns = [_rn(ctx.phi_n_on_e, ctx.n, part) for ctx in contexts]
        return [_inv_rn(ctx, part, rn) for ctx, rn in zip(contexts, rns)]

    return _by_blocks(targets, len(contexts), evaluate)


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

    Inside E it is the stabilized interior transform (CauchyKernel.
    stabilized) of the R_n boundary values at the E nodes.
    """
    out = np.empty(zf.shape, dtype=complex)
    if np.any(in_e):
        density = _rn_at(ctx, ctx.data.e_nodes)
        out[in_e] = _by_blocks(
            _Scan(ctx.quad_e, ctx.quad_f, zf[in_e], None), 1,
            lambda _, part: [part.across_e.stabilized(density)])[0]
    rest = ~in_e
    if np.any(rest):
        z = zf[rest]
        with np.errstate(over="ignore", invalid="ignore"):  # raises below
            out[rest] = _rn_at(ctx, _Scan(ctx.quad_e, ctx.quad_f, z,
                                          phi(ctx.map, z)))
    _require_finite(ctx, "R_n", out, np.isnan(ctx.phi_n_on_e).any())
    return out


def _require_finite(ctx, name, values, nan=False):
    """Raise UncertifiedError where values of name at the targets are not
    finite: NaN if nan (they come from a NaN density, and a NaN spreads to
    every transform of it), else out of the float range (near F, |R_n|
    and |r_n| are about h^n; an overflow may leave NaN parts)."""
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        what = "is NaN" if nan else "overflows"
        raise UncertifiedError(
            f"degree {ctx.n}: {name} {what} at {bad} target(s) "
            f"(h = {ctx.map.h:.6g})")


def eval_Rn(ctx: FaberContext, z):
    """R_n(z) on E and on the doubly connected exterior domain.

    Points in F and non-finite targets are outside the domain of R_n
    (EvaluationDomainError).  Raises UncertifiedError where R_n is NaN or
    leaves the float range: near F, |R_n| is about h^n.
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
    needed, which raises where it overflows.  Raises UncertifiedError
    where 1/r_n is NaN.
    """
    zf, in_e, in_f = _classify(ctx, z)
    out = np.empty(zf.shape, dtype=complex)
    if np.any(in_f):
        # the ratio form is homogeneous: interpolate 2^e/r_n, then scale
        density = _inv_rn_at([ctx], ctx.data.f_nodes)[0]
        out[in_f] = _ldexp(_by_blocks(
            _Scan(ctx.quad_e, ctx.quad_f, zf[in_f], None), 1,
            lambda _, part: [part.across_f.stabilized(density)])[0],
            -ctx.exponent)
    rest = ~in_f
    if np.any(rest):
        rn = _rn_by_side(ctx, zf[rest], in_e[rest])
        out[rest] = _by_blocks(
            _Scan(ctx.quad_e, ctx.quad_f, zf[rest], None), 1,
            lambda block, part: [_inv_rn(ctx, part, rn[block])])[0]
    # a pole marker is inf; only a NaN density makes a NaN
    _require_finite(ctx, "1/r_n", out[np.isnan(out)], nan=True)
    return _shaped(out, z)


def _reciprocal(inv):
    """r_n from 1/r_n values; pole markers inf+0j become zeros."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 / inv
    out[inv == np.inf + 0.0j] = 0.0
    return out


def eval_rn(ctx: FaberContext, z):
    """r_n(z) as the reciprocal of eval_inv_rn; pole markers become zeros.

    Raises UncertifiedError where 1/r_n is NaN or where r_n (like R_n,
    about h^n near F) leaves the float range.
    """
    with np.errstate(over="ignore"):  # raises below
        out = _reciprocal(_flat(eval_inv_rn(ctx, z)))
    _require_finite(ctx, "r_n", out)
    return _shaped(out, z)


def _scan_inv_rn(contexts, scan):
    """1/r_n of each context at the points of a boundary target set, one
    row per context; on F it underflows to 0 where h^-n leaves the float
    range."""
    return [_ldexp(inv, -scan.shift * ctx.n)
            for ctx, inv in zip(contexts, _inv_rn_at(contexts, scan))]


def _side_maxima(contexts, scan, region, magnitude):
    """max of magnitude(2^s/r_n) over one boundary for each context: the
    dense scan's maximum, then every context's bounded Brent search around
    its best scan point, all searches in lockstep (see empirical_ratios)."""
    data = contexts[0].data
    half_width = 1.0 / scan.t.size
    best, searches = [], []
    for inv in _inv_rn_at(contexts, scan):
        vals = magnitude(inv)
        i = int(np.argmax(vals))
        best.append(float(vals[i]))
        t0 = float(scan.t[i])
        searches.append(_bounded_brent(t0 - half_width, t0 + half_width))

    def negated(t, lanes):
        # every lane is a one-point target set on the round's points
        z = region.boundary_point(t)
        phi_z = phi(data.map, z)
        return [-float(magnitude(_inv_rn(contexts[k], _Scan(
                    data.quad_e, data.quad_f, z[i:i + 1], phi_z[i:i + 1],
                    scan.shift)))[0])
                for i, k in enumerate(lanes)]

    return [max(top, -least)
            for top, least in zip(best, lockstep(searches, negated))]


def empirical_ratios(contexts) -> list:
    """empirical_ratio of each context; the contexts share one BoundaryData.

    For each boundary and context the dense scan (4x the node count, its
    kernels built part by part once for all the contexts) gives the best
    parameter, and a bounded Brent search (search._bounded_brent, xatol
    1e-12, which calls no scipy) refines it within one scan step.  The
    searches of all contexts run in lockstep (search.lockstep): each round
    takes the points of their pending abscissae from one boundary_point
    and one phi, and applies each context's densities on its own one-point
    target set.  phi gives each point its one-point value, so every search
    takes exactly the values, and therefore the steps, of its own
    one-point search.  A grid of
    candidates or another bracketing search would land on other
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
        for scan, region, magnitude in (
            (data.e_scan, data.map.region_e,
             lambda inv: np.abs(_reciprocal(inv))),
            (data.f_scan, data.map.region_f, np.abs)))
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
    sup_rn = float(np.abs(_rn_at(ctx, ctx.data.e_scan)).max())
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
