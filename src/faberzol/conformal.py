"""Conformal maps from the complement of a pair of disjoint sets onto an
annulus A = {1 < |w| < h}.

Two representations are provided:

* MobiusMap: exact closed form when both sets are disks.
* AnnulusMap: a numerical map for general pairs, written as

      Phi(z) = (z - z_E)/(z - z_F) * exp(g(z))        (case A1)
      Phi(z) = (z - z_E) * exp(g(z))                  (case A2)

  with g analytic on the domain.  g is expanded in Laurent-type series
  anchored inside each set plus poles clustered exponentially toward the
  corners (lightning-style), and the real-linear conditions log|Phi| = 0
  on the E boundary and log|Phi| = L on the F boundary are solved by
  weighted least squares with the level L = log h as an extra unknown.
  Exponentiating the log ansatz removes every branch-cut issue.

Case A1 has two compact sets; case A2 has E inside the bounded
complement of an unbounded F (ExteriorOf a compact region).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import brentq

from . import geometry
from .errors import (
    EvaluationDomainError,
    InvalidRegionError,
    MapNotResolvedError,
    NotDisjointError,
)
from .geometry import Disk, Polygon, Region

_TWO_PI = 2.0 * math.pi
_MAX_DEGREE = 128
_POLES_PER_CORNER = 64
_POLE_TAPER = 4.0
# Dyadic sampling levels per polygon side toward each corner: enough to
# resolve the deepest pole cluster level of the taper.
_PER_SIDE = max(30, math.ceil(
    _POLE_TAPER * (math.sqrt(_POLES_PER_CORNER) - 1.0) / math.log(2.0)) + 3)
_EPS = float(np.finfo(float).eps)
# How far inside gelsd's keep-everything range a ladder step's condition
# estimate must lie for back substitution to replace the SVD solve.
_SVD_MARGIN = 1e-3


@dataclass(frozen=True)
class ExteriorOf:
    """The closed unbounded complement of the interior of ``inner``."""

    inner: Region


def boundary_region(region) -> Region:
    """The compact region with the same boundary: the inner region of an
    ExteriorOf, the region itself otherwise."""
    return region.inner if isinstance(region, ExteriorOf) else region


@dataclass(frozen=True)
class MobiusMap:
    """Phi(z) = (a z + b)/(c z + d) mapping the two-disk complement onto
    1 < |w| < h, with |Phi| = 1 on the E circle and h on the F circle."""

    residual = 0.0  # closed form: no boundary residual

    a: complex
    b: complex
    c: complex
    d: complex
    h: float
    region_e: Region
    region_f: Region

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c) == 0.0:
            raise InvalidRegionError("degenerate Mobius map (ad - bc = 0)")

    def inverse(self, w):
        w = np.asarray(w, dtype=complex)
        return (self.d * w - self.b) / (-self.c * w + self.a)


def mobius_two_disks(region_e: Region, region_f: Region) -> MobiusMap:
    """Exact annulus map for two disjoint closed disks.

    The limit points p (inside E) and q (inside F) of the coaxial circle
    pencil are the common inverse points of the two circles; the map
    (z - p)/(z - q), normalized to 1 at the far endpoint of E on the
    center line, sends the circles to concentric circles about 0.
    """
    if not (isinstance(region_e, Disk) and isinstance(region_f, Disk)):
        raise InvalidRegionError("mobius_two_disks needs two disk regions")
    c1, r1 = region_e.center, region_e.radius
    c2, r2 = region_f.center, region_f.radius
    d = abs(c2 - c1)
    if d <= r1 + r2 + 1e-15 * (r1 + r2):
        raise NotDisjointError("disks overlap or touch")
    direction = (c2 - c1) / d
    big_b = d * d + r1 * r1 - r2 * r2
    disc = math.sqrt(big_b * big_b - 4.0 * d * d * r1 * r1)
    p = (big_b - disc) / (2.0 * d)
    q = (big_b + disc) / (2.0 * d)
    pp = c1 + p * direction
    qq = c1 + q * direction
    z_far_e = c1 - r1 * direction
    t_star = (z_far_e - pp) / (z_far_e - qq)
    # Phi(z) = (z - pp) / (t_star * (z - qq))
    a, b = 1.0 + 0.0j, -pp
    c, dd = t_star, -t_star * qq
    z_far_f = c2 + r2 * direction
    h = abs((z_far_f - pp) / (t_star * (z_far_f - qq)))
    return MobiusMap(a=a, b=b, c=c, d=dd, h=float(h),
                     region_e=region_e, region_f=region_f)


# -- numerical annulus map -------------------------------------------------

@dataclass(frozen=True)
class _LogBasis:
    """The ansatz Phi = base * exp(g) of one ladder step: the base factor
    and the columns of the analytic part g, shared by solver and evaluator.
    base is (z - anchor_e)/(z - anchor_f) in A1 and z - anchor_e in A2."""

    variant: str
    anchor_e: complex
    anchor_f: complex  # unused in A2
    scale_e: float
    scale_f: float     # outer polynomial scale in A2
    degree: int        # Laurent degree about each anchor
    poles: np.ndarray        # clustered pole locations (possibly empty)
    pole_scales: np.ndarray  # one positive scale per pole

    @property
    def n_columns(self) -> int:
        return 1 + 2 * self.degree + len(self.poles)

    def columns(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex).ravel()
        cols = np.empty((z.size, self.n_columns), dtype=complex)
        cols[:, 0] = 1.0
        if self.variant == "A1":
            outer = self.scale_f / (z - self.anchor_f)
        else:
            outer = (z - self.anchor_e) / self.scale_f
        j = 1
        for base in (self.scale_e / (z - self.anchor_e), outer):
            term = np.ones_like(z)
            for _ in range(self.degree):
                term = term * base
                cols[:, j] = term
                j += 1
        cols[:, j:] = self.pole_scales / (z[:, None] - self.poles)
        return cols

    def log_abs_base(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.log(np.abs(z - self.anchor_e))
        if self.variant == "A1":
            out = out - np.log(np.abs(z - self.anchor_f))
        return out

    def g(self, coef, z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.zeros(flat.shape, dtype=complex)
        step = max(1, (1 << 21) // max(1, self.n_columns))
        for lo in range(0, flat.size, step):
            hi = min(flat.size, lo + step)
            out[lo:hi] = self.columns(flat[lo:hi]) @ coef
        return out.reshape(z.shape)


@dataclass(frozen=True)
class AnnulusMap:
    """Numerically solved annulus map; evaluate through phi()."""

    region_e: Region
    region_f: object  # Region or ExteriorOf
    h: float
    residual: float
    basis: _LogBasis
    coef: np.ndarray  # complex coefficients aligned with basis columns

    @property
    def variant(self) -> str:
        return self.basis.variant


def phi(annulus_map, z):
    """Evaluate the annulus map at points of the closed domain."""
    if isinstance(annulus_map, MobiusMap):
        m = annulus_map
        z = np.asarray(z, dtype=complex)
        return (m.a * z + m.b) / (m.c * z + m.d)
    b = annulus_map.basis
    g = b.g(annulus_map.coef, z)
    z = np.asarray(z, dtype=complex)
    if b.variant == "A1":
        return (z - b.anchor_e) / (z - b.anchor_f) * np.exp(g)
    return (z - b.anchor_e) * np.exp(g)


# -- sampling for the least-squares solve ----------------------------------

def _corner_clustered_params(region: Polygon, uniform: int):
    """Boundary params clustered geometrically toward each polygon corner."""
    cum = region._cumulative()
    params = []
    n_edges = len(cum) - 1
    offsets = np.array([1.0, 0.78, 0.55])
    for k in range(n_edges):
        lo, hi = cum[k], cum[k + 1]
        width = hi - lo
        # uniform interior coverage
        params.append(lo + width * (np.arange(1, uniform + 1) / (uniform + 1)))
        # dyadic clusters toward both corners
        depth = np.concatenate(
            [0.5 * (0.5**j) * offsets for j in range(_PER_SIDE)]
        )
        depth = depth[depth > 1e-13]
        params.append(lo + width * depth)
        params.append(hi - width * depth)
    return np.unique(np.concatenate(params))


def _solver_params(region, degree: int):
    if isinstance(region, Polygon):
        # 3x oversampling per edge: at 1.5x the ill-conditioned directions
        # of the fit are unconstrained between samples and blow up there
        uniform = max(24, int(math.ceil(3.0 * degree)))
        return _corner_clustered_params(region, uniform)
    n = max(256, 6 * degree)
    return np.arange(n) / n


def _validation_params(params: np.ndarray):
    p = np.sort(params)
    mids = (p + np.roll(p, -1)) / 2.0
    mids[-1] = (p[-1] + 1.0 + p[0]) / 2.0 % 1.0
    return np.unique(np.concatenate([p, mids]))


def _corner_poles(region):
    """Lightning poles: clustered at each corner along the bisector pointing
    into the region, scaled to half the shorter adjacent edge.  A smooth
    region (not a Polygon) has none.

    Tapered spacing d_j = exp(-_POLE_TAPER (sqrt(N) - sqrt(j))), with
    N = _POLES_PER_CORNER, rather than a fixed geometric ratio: the fixed
    ratio stalls near 1e-4 on rectangle pairs while the taper converges
    like exp(-c sqrt(N)) down to 1e-9 and below.
    """
    if not isinstance(region, Polygon):
        return np.empty(0, complex), np.empty(0)
    v = region._verts()
    n = len(v)
    poles, scales = [], []
    j = np.arange(1, _POLES_PER_CORNER + 1)
    profile = np.exp(-_POLE_TAPER * (np.sqrt(_POLES_PER_CORNER) - np.sqrt(j)))
    for k in range(n):
        u, w = v[k - 1], v[(k + 1) % n]
        e_in = v[k] - u
        e_out = w - v[k]
        len_min = min(abs(e_in), abs(e_out))
        bis = (u - v[k]) / abs(u - v[k]) + (w - v[k]) / abs(w - v[k])
        if abs(bis) < 1e-12:
            # straight angle: the left normal, inward on a counterclockwise
            # boundary
            bis = 1j * e_out / abs(e_out)
        elif (np.conj(e_in) * e_out).imag < 0.0:
            # right turn of the counterclockwise vertices: a reflex corner,
            # where the edge bisector points out of the region
            bis = -bis
        bis = bis / abs(bis)
        dist = 0.5 * len_min * profile
        # drop levels too deep for boundary sampling to see between nodes
        dist = dist[dist > 1e-12 * len_min]
        poles.extend(v[k] + bis * dist)
        scales.extend(dist)
    return np.asarray(poles, dtype=complex), np.asarray(scales, dtype=float)


def _region_scale(region, anchor) -> float:
    # In-radius about the anchor: keeps |scale/(z - anchor)|^k <= 1 on the
    # boundary, so high Laurent degrees stay well behaved in the fit.
    t = np.linspace(0.0, 1.0, 1024, endpoint=False)
    return 0.95 * float(np.abs(region.boundary_point(t) - anchor).min())


def _spine_poles(region, count: int):
    """Simple poles along the principal axis of an elongated region.

    A Laurent family about one anchor diverges on boundary arcs closer to
    the anchor than the region's own singularity spread, which stalls the
    fit near 1e-6 on tall boxes; point charges along the spine restore it.
    Near-circular regions (extent ratio below 2) return no poles.
    """
    t = np.arange(1024) / 1024.0
    pts = region.boundary_point(t)
    c = pts.mean()
    xy = np.column_stack([(pts - c).real, (pts - c).imag])
    val, vec = np.linalg.eigh(xy.T @ xy)
    if val[1] <= 4.0 * val[0] or count < 1:
        return np.empty(0, complex), np.empty(0)
    u = complex(vec[0, 1], vec[1, 1])
    s = ((pts - c) * np.conj(u)).real
    lo, hi = s.min(), s.max()
    cand = c + u * np.linspace(lo, hi, count + 2)[1:-1]
    clear = np.abs(cand[:, None] - pts[None, :]).min(axis=1)
    keep = clear >= 0.05 * (hi - lo)
    return cand[keep], clear[keep]


@dataclass(frozen=True)
class LadderStep:
    """One degree-ladder step of solve_annulus_map.

    rows x columns is the real least-squares system of the step.  When the
    step was solved, residual is its validated boundary residual, is_bound
    is False and condition is the 1-norm condition estimate of its QR
    triangle, which chose between back substitution and the SVD solve
    (see _solve_level).  When the QR floor already certified that the
    residual exceeds tol, the solve and the validation were skipped,
    residual is that certified lower bound, is_bound is True and condition
    is None.
    """

    degree: int
    rows: int
    columns: int
    residual: float
    is_bound: bool
    condition: float | None = None


def solve_annulus_map(region_e, region_f, tol: float = 1e-8) -> AnnulusMap:
    """Solve for the annulus map of a disjoint pair (case A1 or A2).

    Laurent degrees climb 8, 16, ... up to _MAX_DEGREE until the boundary
    residual max(| |Phi|-1 | on dE, | |Phi|/h - 1 | on dF) meets tol.  A
    step whose least-squares floor already certifies a residual above tol
    is not solved (see _solve_level).  Otherwise MapNotResolvedError
    carries the ladder and the best residual reached; its .residual is the
    smallest certified lower bound when no step was solved.  tol must be
    finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    variant = "A2" if isinstance(region_f, ExteriorOf) else "A1"
    f_inner = boundary_region(region_f)
    _check_pair(region_e, region_f, variant)

    anchor_e = geometry.interior_anchor(region_e)
    if variant == "A1":
        anchor_f = geometry.interior_anchor(f_inner)
        scale_f = _region_scale(f_inner, anchor_f)
        spined = (region_e, f_inner)
    else:
        anchor_f = 0.0 + 0.0j
        # outer polynomial scale: radius of the outer boundary about anchor_e
        t = np.linspace(0.0, 1.0, 256, endpoint=False)
        scale_f = float(np.abs(f_inner.boundary_point(t) - anchor_e).max())
        spined = (region_e,)
    scale_e = _region_scale(region_e, anchor_e)
    corners = [_corner_poles(region_e), _corner_poles(f_inner)]

    best = None
    ladder = []
    degree = 8
    while degree <= _MAX_DEGREE:
        charges = corners + [_spine_poles(reg, degree) for reg in spined]
        basis = _LogBasis(
            variant=variant,
            anchor_e=anchor_e,
            anchor_f=anchor_f,
            scale_e=scale_e,
            scale_f=scale_f,
            degree=degree,
            poles=np.concatenate([poles for poles, _ in charges]),
            pole_scales=np.concatenate([scales for _, scales in charges]),
        )
        rows, columns, floor, condition, solution = _solve_level(
            region_e, f_inner, variant, basis, anchor_e, anchor_f, degree, tol)
        if solution is None:
            ladder.append(LadderStep(degree, rows, columns, floor, True))
        else:
            coef, level = solution
            residual = _map_residual(region_e, f_inner, basis, coef, level)
            ladder.append(LadderStep(degree, rows, columns, residual, False,
                                     condition))
            if best is None or residual < best[0]:
                best = (residual, basis, coef, level)
            if residual <= tol:
                break
        degree *= 2
    if best is None or best[0] > tol:
        solved = best is not None
        residual = best[0] if solved else min(s.residual for s in ladder)
        what = "residual" if solved else "certified residual bound"
        raise MapNotResolvedError(
            f"map not resolved: {what} {residual:.3e} > tol {tol:.1e} over "
            f"degrees {ladder[0].degree}-{ladder[-1].degree}; ladder "
            + ", ".join(_step_text(step) for step in ladder),
            residual=residual, ladder=tuple(ladder),
        )
    residual, basis, coef, level = best
    h = math.exp(level)
    if h <= 1.0:
        raise MapNotResolvedError(f"map not resolved: h = {h} <= 1",
                                  residual=residual, ladder=tuple(ladder))
    return AnnulusMap(
        region_e=region_e,
        region_f=region_f,
        h=float(h),
        residual=float(residual),
        basis=basis,
        coef=coef,
    )


def _step_text(step: LadderStep) -> str:
    if step.is_bound:
        return (f"{step.degree}: {step.rows}x{step.columns} residual "
                f">= {step.residual:.2e}")
    return (f"{step.degree}: {step.rows}x{step.columns} residual "
            f"= {step.residual:.2e} (condition {step.condition:.1e})")


def _check_pair(region_e, region_f, variant):
    f_inner = boundary_region(region_f)
    te = np.linspace(0.0, 1.0, 512, endpoint=False)
    be = region_e.boundary_point(te)
    bf = f_inner.boundary_point(te)
    if variant == "A1":
        in_f, on_f = geometry.contains_many(region_f, be)
        in_e, on_e = geometry.contains_many(region_e, bf)
        if np.any(in_f | on_f) or np.any(in_e | on_e):
            raise NotDisjointError("E and F boundaries intersect or overlap")
    else:
        inside, on = geometry.contains_many(f_inner, be)
        if not np.all(inside & ~on):
            raise NotDisjointError("case A2 requires E inside the bounded "
                                   "complement of F")


def _level_system(region_e, f_inner, basis):
    """The weighted real least-squares system of the ladder step of basis.

    Unknowns are [Re a0, (Re, Im) per remaining column, L]; returns the
    column-normalised matrix (Fortran order), the right-hand side and the
    column scales.  The rows are the solver points of both boundaries,
    weighted by sqrt(spacing), and the spacings sum to 1 on each boundary.
    """
    rows_a, rhs_a, wts = [], [], []
    is_f_side = []
    for region, f_side in ((region_e, False), (f_inner, True)):
        params = _solver_params(region, basis.degree)
        pts = region.boundary_point(params)
        spacing = _param_spacing(params)
        w = np.sqrt(spacing)
        cols = basis.columns(pts)
        rows_a.append(cols)
        rhs_a.append(-basis.log_abs_base(pts))
        wts.append(w)
        is_f_side.append(np.full(pts.size, f_side))
    cols = np.vstack(rows_a)
    rhs = np.concatenate(rhs_a)
    w = np.concatenate(wts)
    f_side = np.concatenate(is_f_side)

    n_cols = basis.n_columns
    a_real = np.empty((cols.shape[0], 1 + 2 * (n_cols - 1) + 1))
    a_real[:, 0] = cols[:, 0].real
    a_real[:, 1 : 2 * n_cols - 1 : 2] = cols[:, 1:].real
    a_real[:, 2 : 2 * n_cols - 1 : 2] = -cols[:, 1:].imag
    a_real[:, -1] = np.where(f_side, -1.0, 0.0)
    a_real *= w[:, None]
    b = rhs * w

    scale = np.linalg.norm(a_real, axis=0)
    scale[scale == 0.0] = 1.0
    return np.divide(a_real, scale, order="F"), b, scale


def _coef_level(x, scale):
    """(coef, level) of a solution x of the column-normalised system."""
    x = x / scale
    n_cols = x.size // 2
    coef = np.empty(n_cols, dtype=complex)
    coef[0] = x[0]
    coef[1:] = x[1 : 2 * n_cols - 1 : 2] + 1j * x[2 : 2 * n_cols - 1 : 2]
    return coef, float(x[-1])


def _solve_level(region_e, f_inner, variant, basis, anchor_e, anchor_f,
                 degree, tol):
    """Solve one ladder step, unless its residual is certain to miss tol.

    Returns (rows, columns, floor, condition, solution).  solution is
    (coef, level), or None when floor > tol; floor is then a lower bound on
    the residual _map_residual would report for the solved step, and
    condition is None.  variant, anchor_e, anchor_f and degree repeat
    fields of basis: the head stays positional because perfbench/spans.py
    (Tracer.count_ladder) wraps it so and reads basis and degree.

    The solve starts as np.linalg.lstsq (LAPACK gelsd, rcond = eps
    max(m, n)) does on systems with m >= 1.6 n, as every ladder system is:
    a Householder QR with Q^T b, given the workspace gelsd hands it (its
    optimal size less n).  Then LAPACK dtrcon estimates the 1-norm
    condition number of the triangle R, and one of two paths solves
    R x = (Q^T b)[:n]:

    * back substitution (dtrtrs) when the estimate is at least _SVD_MARGIN
      inside 1/rcond, the condition number beyond which gelsd drops
      singular values.  There gelsd keeps every singular value (the ladder
      audit in tests/test_conformal.py checks it on each such step), so
      both solve the same full-rank problem and their h agree to rounding.
    * otherwise gelsd's own second half, the truncated-SVD solve on the
      triangle, so the solution is bitwise that of the one-call lstsq at
      one BLAS thread.  On the rank-deficient README rectangles at degree
      32 this path is what meets tol.

    Either way the step's map is validated by _map_residual afterwards;
    the gate picks the faster solve, not whether the map is certified.

    Why floor is certified: ||(Q^T b)[n:]||_2 is the minimum over all x of
    ||W (A x - b)||_2, the weighted residual of the log-modulus conditions.
    The squared weights sum to 1 on each boundary, so the largest pointwise
    residual is at least that minimum over sqrt(2).  The validation points
    contain the solver points and |expm1(r)| >= 1 - exp(-|r|), so the
    validated residual is at least -expm1(-lb).  The QR tail is reduced by
    a rounding allowance of 10 m eps ||W b|| first; on the zoo systems the
    computed tail exceeds the weighted residual of the computed solution
    by under 0.01 m eps ||W b||.
    """
    a, b, scale = _level_system(region_e, f_inner, basis)
    m, n = a.shape
    rcond = _EPS * max(m, n)
    lwork = int(lapack.dgelsd_lwork(m, n, 1, rcond)[0]) - n
    qr, tau, _, info_qr = lapack.dgeqrf(a, lwork=lwork, overwrite_a=True)
    qtb, _, info_q = lapack.dormqr("L", "T", qr, tau, b[:, None], lwork)
    if info_qr != 0 or info_q != 0:
        raise np.linalg.LinAlgError(
            f"QR of the map system failed (info {info_qr}, {info_q})")
    tail = float(np.linalg.norm(qtb[n:, 0]))
    slack = 10.0 * m * _EPS * float(np.linalg.norm(b))
    floor = -math.expm1(-max(0.0, tail - slack) / math.sqrt(2.0))
    if floor > tol:
        return m, n, floor, None, None
    # a square copy of the triangle: scipy's dtrcon misreads the leading
    # dimension of the tall qr array, and lstsq needs the zeros below
    r = np.array(qr[:n], order="F")
    r[np.tri(n, k=-1, dtype=bool)] = 0.0
    rcond_r, info_c = lapack.dtrcon(r)
    if info_c != 0:
        raise np.linalg.LinAlgError(
            f"condition estimate of the map system failed (info {info_c})")
    condition = 1.0 / rcond_r if rcond_r > 0.0 else math.inf
    if _needs_svd(condition, m, n):
        x, *_ = np.linalg.lstsq(r, qtb[:n, 0], rcond=rcond)
    else:
        x, info_t = lapack.dtrtrs(r, qtb[:n])
        if info_t != 0:
            raise np.linalg.LinAlgError(
                f"back substitution on the map system failed (info {info_t})")
        x = x[:, 0]
    return m, n, floor, condition, _coef_level(x, scale)


def _needs_svd(condition, m, n) -> bool:
    """Whether a solved ladder step of an m x n system takes the SVD path:
    its condition estimate is not at least _SVD_MARGIN inside gelsd's
    cut-off 1/(eps max(m, n)); an infinite or NaN estimate needs it."""
    return not condition <= _SVD_MARGIN / (_EPS * max(m, n))


def _param_spacing(params):
    p = np.sort(params)
    gaps = np.diff(np.concatenate([p, [p[0] + 1.0]]))
    spacing = (gaps + np.roll(gaps, 1)) / 2.0
    return spacing


def _map_residual(region_e, f_inner, basis, coef, level):
    worst = 0.0
    for region, target in ((region_e, 0.0), (f_inner, level)):
        params = _validation_params(_solver_params(region, basis.degree))
        pts = region.boundary_point(params)
        log_mod = basis.log_abs_base(pts) + np.real(basis.g(coef, pts))
        with np.errstate(over="ignore"):
            # | |Phi| - target_modulus | / target_modulus = |exp(err) - 1|
            err = np.abs(np.expm1(log_mod - target))
        worst = max(worst, float(err.max()))
    return worst


# -- boundary correspondence -----------------------------------------------

def psi_boundary(annulus_map, w):
    """Points z on the E (|w| = 1) or F (|w| = h) boundary with phi(z) = w.

    w is one value or an array of values on one annulus circle; the result
    has its shape (a complex for a scalar).  Phi is tabulated once per call
    on the boundary; the root of each w lies in the first table interval
    where arg(Phi/w) changes sign with both ends within pi/2 (the crossing
    through 0, not the jump at +-pi), and is refined there in 1-D.  For a
    MobiusMap the closed-form inverse is used.
    """
    w_arr = np.asarray(w, dtype=complex)
    ws = np.atleast_1d(w_arr).ravel()
    h = annulus_map.h
    mod = np.abs(ws)
    if np.all(np.abs(mod - 1.0) <= 1e-6):
        on_e = True
    elif np.all(np.abs(mod - h) <= 1e-6 * max(1.0, h)):
        on_e = False
    else:
        raise EvaluationDomainError(
            f"|w| in [{mod.min():g}, {mod.max():g}] is not on one annulus "
            f"boundary (1 or {h:g})"
        )
    if isinstance(annulus_map, MobiusMap):
        z = annulus_map.inverse(ws)
    else:
        region = (annulus_map.region_e if on_e
                  else boundary_region(annulus_map.region_f))
        n = 4096
        t = np.arange(n + 1) / n
        vals = phi(annulus_map, region.boundary_point(t % 1.0))
        ang = np.unwrap(np.angle(vals))
        gap = np.angle(vals * np.conj(ws)[:, None])
        near = np.abs(gap) < math.pi / 2
        cross = (gap[:, :-1] * gap[:, 1:] <= 0.0) & near[:, :-1] & near[:, 1:]
        if (abs(abs(ang[-1] - ang[0]) - _TWO_PI) > 1e-3
                or not np.all(cross.any(axis=1))):
            raise EvaluationDomainError(
                "boundary correspondence not resolved; increase samples"
            )
        first = np.argmax(cross, axis=1)
        z = np.array([_psi_on(annulus_map, region, t[i], t[i + 1], complex(wi))
                      for i, wi in zip(first, ws)])
    if w_arr.ndim == 0:
        return complex(z[0])
    return z.reshape(w_arr.shape)


def _psi_on(annulus_map, region, t_lo, t_hi, w) -> complex:
    """psi_boundary for one w whose root the table brackets in the boundary
    params [t_lo, t_hi] of region."""

    def angle_gap(tau):
        val = phi(annulus_map, region.boundary_point(np.array([tau % 1.0])))[0]
        return float(np.angle(val * np.conj(w)))

    g_lo, g_hi = angle_gap(t_lo), angle_gap(t_hi)
    if g_lo * g_hi <= 0.0 and max(abs(g_lo), abs(g_hi)) < math.pi / 2:
        # brentq returns an end whose gap is exactly 0 as it stands
        t_star = brentq(angle_gap, t_lo, t_hi, xtol=1e-15)
    else:
        # the single-point ends can differ from the table by rounding when
        # the root sits on a table node; take the closer end, certified below
        t_star = t_lo if abs(g_lo) <= abs(g_hi) else t_hi
    z = complex(region.boundary_point(np.array([t_star % 1.0]))[0])
    err = abs(complex(phi(annulus_map, np.array([z]))[0]) - w)
    scale = max(1.0, abs(w))
    if err > 1e-8 * scale + 10.0 * annulus_map.residual * scale:
        raise EvaluationDomainError(
            f"psi_boundary did not converge: |phi(z) - w| = {err:g}"
        )
    return z
