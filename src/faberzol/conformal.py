"""Conformal maps from the complement of a pair of disjoint sets onto an
annulus A = {1 < |w| < h}.

Every map is an AnnulusMap, written as

    Phi(z) = (z - z_E)/(z - z_F) * exp(g(z))        (case A1)
    Phi(z) = (z - z_E) * exp(g(z))                  (case A2)

with g analytic on the domain.  For a general pair (solve_annulus_map) g
is expanded in Laurent-type series anchored inside each set plus poles
clustered exponentially toward the corners (lightning-style), and the
real-linear conditions log|Phi| = 0 on the E boundary and log|Phi| = L on
the F boundary are solved by weighted least squares with the level
L = log h as an extra unknown.  Exponentiating the log ansatz removes
every branch-cut issue.  A pair with F = -E, or with each set its own
mirror image in the real axis, is solved on the symmetric subspace of
that system (_Ties): half the rows and unknowns per symmetry.  For two
disks (mobius_two_disks) the anchors are the limit points of the circle
pencil and g is a constant: the exact Mobius map, as a degree-0
AnnulusMap with residual 0.

Case A1 has two compact sets; case A2 has E inside the bounded
complement of an unbounded F (ExteriorOf a compact region).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import geometry
from .errors import (
    EvaluationDomainError,
    InvalidRegionError,
    MapNotResolvedError,
    NotDisjointError,
)
from .geometry import Disk, Polygon, Region
from .quadrature import _blocks, _flat, _shaped
from .search import _brentq, lockstep

_TWO_PI = 2.0 * math.pi
_MAX_DEGREE = 128
_POLES_PER_CORNER = 64
_POLE_TAPER = 4.0
# Dyadic sampling levels per polygon side toward each corner: enough to
# resolve the deepest pole cluster level of the taper.
_PER_SIDE = max(30, math.ceil(
    _POLE_TAPER * (math.sqrt(_POLES_PER_CORNER) - 1.0) / math.log(2.0)) + 3)
_EPS = float(np.finfo(float).eps)
# Intervals of the boundary Phi tables that psi_boundary brackets roots on.
_PSI_TABLE = 4096
# Two region data (vertices, disk centres and radii, curve coefficients)
# that agree to this fraction of their largest magnitude are one symmetry
# image of the other: hexagon vertices built from exp(i pi k/3) are mirror
# images only to about 1e-16 of their size.
_SYMMETRY_RTOL = 64.0 * _EPS


@dataclass(frozen=True)
class ExteriorOf:
    """The closed unbounded complement of the interior of ``inner``."""

    inner: Region


def boundary_region(region) -> Region:
    """The compact region with the same boundary: the inner region of an
    ExteriorOf, the region itself otherwise."""
    return region.inner if isinstance(region, ExteriorOf) else region


# -- annulus map -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _LogBasis:
    """The ansatz Phi = base * exp(g) of one ladder step, or of the
    two-disk closed form at degree 0: the base factor and the columns of
    the analytic part g, shared by solver and evaluator.  base is
    (z - anchor_e)/(z - anchor_f) in A1 and z - anchor_e in A2.

    symmetry names the symmetries of a symmetric pair as _pair_symmetry
    does: "negation" (F = -E, with anchor_f = -anchor_e and scale_f =
    scale_e), "conjugation" (each set its own mirror image in the real
    axis, with real anchors), both joined by "+", or "".  The poles must be
    closed under each; the basis pairs them by value (negated, conjugated).
    See _Ties for the symmetric subspace they define."""

    variant: str
    anchor_e: complex
    anchor_f: complex  # unused in A2
    scale_e: float
    scale_f: float     # outer polynomial scale in A2
    degree: int        # Laurent degree about each anchor
    poles: np.ndarray        # clustered pole locations (possibly empty)
    pole_scales: np.ndarray  # one positive scale per pole
    symmetry: str = ""

    @property
    def n_columns(self) -> int:
        return 1 + 2 * self.degree + len(self.poles)

    @functools.cached_property
    def negated(self):
        """The index of the pole at -p for each pole p, or None."""
        return _pole_images(self, "negation", np.negative)

    @functools.cached_property
    def conjugated(self):
        """The index of the pole at conj(p) for each pole p, or None."""
        return _pole_images(self, "conjugation", np.conj)

    @functools.cached_property
    def ties(self):
        """The _Ties of the basis: one unknown per column when it carries
        no symmetry."""
        return _Ties.of(self)

    def _bases(self, z):
        """The Laurent bases at z: scale_e/(z - anchor_e), and the outer
        one, scale_f/(z - anchor_f) in A1 and (z - anchor_e)/scale_f in
        A2."""
        if self.variant == "A1":
            outer = self.scale_f / (z - self.anchor_f)
        else:
            outer = (z - self.anchor_e) / self.scale_f
        return self.scale_e / (z - self.anchor_e), outer

    def columns(self, z) -> np.ndarray:
        cols = np.empty((z.size, self.n_columns), dtype=complex)
        cols[:, 0] = 1.0
        j = 1
        for base in self._bases(z):
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
        """g at z, without the columns: Horner on both Laurent families at
        once, and the pole terms of one _blocks block of points at a time,
        divided in place into one block x poles buffer and summed by rows.
        Every step is elementwise or a sum along one point's row, so a
        point's value does not depend on the batch it is evaluated in.
        Keep the Horner steps out of place: numpy rounds an in-place
        complex product of a single element differently from a longer
        one."""
        zf = _flat(z)
        out = np.empty(zf.shape, dtype=complex)
        d = self.degree
        # Horner coefficients, highest degree first: step k adds
        # laurent[k], whose rows are the E and the outer family
        laurent = np.stack([coef[d:0:-1], coef[2 * d:d:-1]], 1)[..., None]
        pole_coef = self.pole_scales * coef[1 + 2 * d:]
        for block in _blocks(zf.size, max(1, self.poles.size)):
            zb = zf[block]
            total = np.full(zb.shape, coef[0])
            if d:
                bases = np.stack(self._bases(zb))
                h = laurent[0] * bases
                for c in laurent[1:]:
                    h = (h + c) * bases
                total = total + h[0] + h[1]
            if self.poles.size:
                terms = zb[:, None] - self.poles
                np.divide(pole_coef, terms, out=terms)
                total = total + terms.sum(axis=1)
            out[block] = total
        return _shaped(out, z)

    def g_prime(self, coef, z):
        """g' at z.  On each Laurent family p(b): Horner on b p'(b), as g
        runs it on p(b), times (log b)' = -1/(z - anchor) for a base
        scale/(z - anchor) and 1/(z - anchor_e) for the A2 outer base.
        The pole terms -s_p c_p/(z - p)^2 come one _blocks block at a time.
        """
        zf = _flat(z)
        out = np.empty(zf.shape, dtype=complex)
        d = self.degree
        # k c_k, highest degree first, as in g
        laurent = (np.stack([coef[d:0:-1], coef[2 * d:d:-1]], 1)
                   * np.arange(d, 0, -1)[:, None])[..., None]
        pole_coef = -self.pole_scales * coef[1 + 2 * d:]
        for block in _blocks(zf.size, max(1, self.poles.size)):
            zb = zf[block]
            total = np.zeros(zb.shape, dtype=complex)
            if d:
                bases = np.stack(self._bases(zb))
                h = laurent[0] * bases
                for c in laurent[1:]:
                    h = (h + c) * bases
                outer = (1.0 / (self.anchor_f - zb) if self.variant == "A1"
                         else 1.0 / (zb - self.anchor_e))
                total = h[1] * outer - h[0] / (zb - self.anchor_e)
            if self.poles.size:
                terms = zb[:, None] - self.poles
                total = total + (pole_coef / (terms * terms)).sum(axis=1)
            out[block] = total
        return _shaped(out, z)


def _pole_images(basis, symmetry, image):
    """The index of the pole at image(p) for each pole p of basis, when
    basis has symmetry, else None.  The poles are matched by exact value:
    sorted (complex order: by real, then imaginary part), each image is
    looked up by bisection and must equal the pole found, so a pole set
    that is not closed under the symmetry, or holds a value twice, raises
    ValueError rather than pairing a pole with a near one."""
    if symmetry not in basis.symmetry:
        return None
    poles = basis.poles
    order = np.argsort(poles)
    target = image(poles)
    found = order[np.minimum(np.searchsorted(poles[order], target),
                             poles.size - 1)]
    if not (np.array_equal(poles[found], target)
            and np.array_equal(found[found], np.arange(poles.size))):
        raise ValueError(f"the basis poles are not closed under {symmetry}")
    return found


@dataclass(frozen=True, eq=False)
class AnnulusMap:
    """Annulus map of a pair; evaluate through phi().  residual is the
    validated boundary residual of the solve, 0 for a closed form."""

    region_e: Region
    region_f: object  # Region or ExteriorOf
    h: float
    residual: float
    basis: _LogBasis
    coef: np.ndarray  # complex coefficients aligned with basis columns

    @property
    def variant(self) -> str:
        return self.basis.variant

    @functools.cached_property
    def _psi_tables(self):
        """(E table, F table): Phi at the boundary params t = i/_PSI_TABLE,
        i = 0.._PSI_TABLE, of each boundary, the last point repeating the
        first.  Built on the first psi_boundary call and shared by every
        later one on this map."""
        t = np.arange(_PSI_TABLE + 1) / _PSI_TABLE
        return tuple(phi(self, region.boundary_point(t % 1.0))
                     for region in (self.region_e,
                                    boundary_region(self.region_f)))


def phi(annulus_map, z):
    """Evaluate the annulus map at points of the closed domain."""
    b = annulus_map.basis
    return _times_base(b, z, b.g(annulus_map.coef, z))


def dlog_phi(annulus_map, z):
    """Phi'/Phi at points of the domain: 1/(z - z_E) - 1/(z - z_F) + g'
    in case A1, 1/(z - z_E) + g' in case A2."""
    b = annulus_map.basis
    z = np.asarray(z, dtype=complex)
    out = 1.0 / (z - b.anchor_e) + b.g_prime(annulus_map.coef, z)
    if b.variant == "A1":
        out = out - 1.0 / (z - b.anchor_f)
    return out


def _times_base(b, z, g):
    """Phi = base * exp(g) at z, given g there."""
    z = np.asarray(z, dtype=complex)
    if b.variant == "A1":
        return (z - b.anchor_e) / (z - b.anchor_f) * np.exp(g)
    return (z - b.anchor_e) * np.exp(g)


def mobius_two_disks(region_e: Region, region_f: Region) -> AnnulusMap:
    """Exact annulus map for two disjoint closed disks.

    The limit points p (inside E) and q (inside F) of the coaxial circle
    pencil are the common inverse points of the two circles; the map
    (z - p)/(z - q), normalized to 1 at the far endpoint of E on the
    center line, sends the circles to concentric circles about 0.  It is
    the degree-0 AnnulusMap with anchors p, q and g = -log t_star, where
    t_star is (z - p)/(z - q) at that endpoint.
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
    z_far_f = c2 + r2 * direction
    h = abs((z_far_f - pp) / (t_star * (z_far_f - qq)))
    basis = _LogBasis("A1", pp, qq, 1.0, 1.0, 0,
                      np.empty(0, complex), np.empty(0))
    return AnnulusMap(region_e, region_f, float(h), 0.0, basis,
                      np.array([-np.log(t_star)]))


# -- sampling for the least-squares solve ----------------------------------

def _corner_clustered_params(region: Polygon, uniform: int):
    """Boundary params clustered geometrically toward each polygon corner."""
    cum = region._cumulative
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


def _corner_poles(region, image):
    """Lightning poles: clustered at each corner along the bisector pointing
    into the region, scaled to half the shorter adjacent edge.  A smooth
    region (not a Polygon) has none.  Returns (poles, scales).

    Tapered spacing d_j = exp(-_POLE_TAPER (sqrt(N) - sqrt(j))), with
    N = _POLES_PER_CORNER, rather than a fixed geometric ratio: the fixed
    ratio stalls near 1e-4 on rectangle pairs while the taper converges
    like exp(-c sqrt(N)) down to 1e-9 and below.

    image, when not None, is the _mirror_map of a region that is its own
    mirror image in the real axis: image[k] is the corner at conj(v[k]).
    The poles of a corner on the axis are then made real, and those of a
    corner after its image in the vertex order are the conjugates of the
    image's, so the set is exactly symmetric.
    """
    if not isinstance(region, Polygon):
        return np.empty(0, complex), np.empty(0)
    v = region._verts
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
        poles.append(v[k] + bis * dist)
        scales.append(dist)
    for k, m in enumerate(() if image is None else image):
        if m == k:
            poles[k] = poles[k].real + 0j
        elif m < k:
            poles[k], scales[k] = np.conj(poles[m]), scales[m]
    return (np.concatenate(poles).astype(complex),
            np.concatenate(scales).astype(float))


def _region_scale(region, anchor) -> float:
    # In-radius about the anchor: keeps |scale/(z - anchor)|^k <= 1 on the
    # boundary, so high Laurent degrees stay well behaved in the fit.
    t = np.linspace(0.0, 1.0, 1024, endpoint=False)
    return 0.95 * float(np.abs(region.boundary_point(t) - anchor).min())


def _spine_poles(region, count: int, mirrored):
    """Simple poles along the principal axis of an elongated region.

    A Laurent family about one anchor diverges on boundary arcs closer to
    the anchor than the region's own singularity spread, which stalls the
    fit near 1e-6 on tall boxes; point charges along the spine restore it.
    Near-circular regions (extent ratio below 2) return no poles.  Returns
    (poles, scales) like _corner_poles.

    The centre is the mean of 1024 boundary samples, a set that is not
    symmetric even when the region is.  So for a region that is its own
    mirror image in the real axis (mirrored), the spine is centred on the
    axis and runs along it or across it, and its ends, poles and scales
    are made exactly symmetric.
    """
    t = np.arange(1024) / 1024.0
    pts = region.boundary_point(t)
    c = pts.mean()
    xy = np.column_stack([(pts - c).real, (pts - c).imag])
    val, vec = np.linalg.eigh(xy.T @ xy)
    if val[1] <= 4.0 * val[0] or count < 1:
        return np.empty(0, complex), np.empty(0)
    u = complex(vec[0, 1], vec[1, 1])
    across = False
    if mirrored:
        c = complex(c.real, 0.0)
        across = abs(u.imag) > abs(u.real)
        u = 1j if across else 1.0 + 0j
    s = ((pts - c) * np.conj(u)).real
    lo, hi = s.min(), s.max()
    if across:
        hi = max(hi, -lo)
        lo = -hi
    along = np.linspace(lo, hi, count + 2)[1:-1]
    if across:
        along = (along - along[::-1]) / 2.0
    cand = c + u * along
    clear = np.abs(cand[:, None] - pts[None, :]).min(axis=1)
    if across:
        clear = np.minimum(clear, clear[::-1])
    keep = clear >= 0.05 * (hi - lo)
    return cand[keep], clear[keep]


@dataclass(frozen=True)
class LadderStep:
    """One degree-ladder step of solve_annulus_map.

    rows x columns is the real least-squares system of the step.  When the
    step was solved, residual is its validated boundary residual, is_bound
    is False, condition is the bound on the condition number of its QR
    triangle that decided whether the step took the SVD solve rather than
    back substitution, and svd says which it took (see _solve_level).
    When the QR floor already certified that the residual exceeds tol, the
    solve and the validation were skipped, residual is that certified
    lower bound, is_bound is True and condition and svd are None.
    symmetry names the symmetries whose subspace the system was reduced to
    (_LogBasis.symmetry), "" when the step solved the full system.
    """

    degree: int
    rows: int
    columns: int
    residual: float
    is_bound: bool
    condition: float | None = None
    svd: bool | None = None
    symmetry: str = ""


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

    symmetry, anchors, (image_e, image_f) = _pair_symmetry(region_e,
                                                           region_f)
    negation = "negation" in symmetry
    mirrored = "conjugation" in symmetry

    anchor_e = anchors[0]
    scale_e = _region_scale(region_e, anchor_e)
    corners = [_corner_poles(region_e, image_e)]
    if variant == "A2":
        anchor_f = 0.0 + 0.0j
        # outer polynomial scale: radius of the outer boundary about anchor_e
        t = np.linspace(0.0, 1.0, 256, endpoint=False)
        scale_f = float(np.abs(f_inner.boundary_point(t) - anchor_e).max())
        corners.append(_corner_poles(f_inner, image_f))
    elif negation:
        anchor_f, scale_f = -anchor_e, scale_e
        corners.append((-corners[0][0], corners[0][1]))
    else:
        anchor_f = anchors[1]
        scale_f = _region_scale(f_inner, anchor_f)
        corners.append(_corner_poles(f_inner, image_f))

    best = None
    ladder = []
    degree = 8
    while degree <= _MAX_DEGREE:
        charges = corners + [_spine_poles(region_e, degree, mirrored)]
        if variant == "A1":
            charges.append((-charges[2][0], charges[2][1]) if negation
                           else _spine_poles(f_inner, degree, mirrored))
        basis = _LogBasis(variant, anchor_e, anchor_f, scale_e, scale_f,
                          degree, np.concatenate([p for p, _ in charges]),
                          np.concatenate([s for _, s in charges]), symmetry)
        rows, columns, floor, condition, svd, solution = _solve_level(
            region_e, f_inner, variant, basis, anchor_e, anchor_f, degree, tol)
        if solution is None:
            ladder.append(LadderStep(degree, rows, columns, floor, True,
                                     symmetry=symmetry))
        else:
            coef, level = solution
            residual = _map_residual(region_e, f_inner, basis, coef, level)
            ladder.append(LadderStep(degree, rows, columns, residual, False,
                                     condition, svd, symmetry))
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
        text = (f"{step.degree}: {step.rows}x{step.columns} residual "
                f">= {step.residual:.2e}")
    else:
        text = (f"{step.degree}: {step.rows}x{step.columns} residual "
                f"= {step.residual:.2e} (condition {step.condition:.1e})")
    return f"{text} [{step.symmetry}]" if step.symmetry else text


# -- symmetry of the pair --------------------------------------------------

def _pair_symmetry(region_e, region_f):
    """The symmetries of the pair that its ladder solves on, named as
    _LogBasis.symmetry names them, with what the basis takes from them:
    returns (symmetry, anchors, images).  Negation: F = -E (case A1).
    Conjugation: each set is its own mirror image in the real axis, and
    the anchor of each compact set, moved onto the axis, is inside it.

    anchors are geometry.interior_anchor of E and, in case A1 without
    negation, of F (with negation F's anchor is E's negated), on the real
    axis under conjugation.  images are the _mirror_map of E and of F's
    boundary region under conjugation, (None, None) otherwise.

    The regions are compared by their data (polygon vertices up to a
    cyclic shift, disk centre and radius, curve coefficients), to
    _SYMMETRY_RTOL of the largest magnitude in the data of the pair.  A
    symmetry that holds only to that tolerance is still safe: the rows
    kept are solver points, and every map is validated on both full
    boundaries.
    """
    f_inner = boundary_region(region_f)
    tol = _SYMMETRY_RTOL * max(np.abs(_region_data(region)[0]).max()
                               for region in (region_e, f_inner))
    exterior = isinstance(region_f, ExteriorOf)
    negation = (not exterior
                and _same_region(region_e.negated(), f_inner, tol))
    compact = (region_e,) if exterior or negation else (region_e, f_inner)
    anchors = [geometry.interior_anchor(region) for region in compact]
    images = [_mirror_map(region, tol) for region in (region_e, f_inner)]
    on_axis = [complex(anchor.real, 0.0) for anchor in anchors]
    conjugation = (all(image is not None for image in images)
                   and all(geometry.contains_many(region, np.array([a]))[0][0]
                           for region, a in zip(compact, on_axis)))
    if conjugation:
        anchors = on_axis
    else:
        images = [None, None]
    symmetry = "+".join(name for name, holds in (
        ("negation", negation), ("conjugation", conjugation)) if holds)
    return symmetry, anchors, images


def _region_data(region):
    """The numbers that define a region, as one complex array, and the
    wavenumbers of a curve's coefficients (empty for other kinds)."""
    if isinstance(region, Disk):
        return np.array([region.center, region.radius]), ()
    if isinstance(region, Polygon):
        return region._verts, ()
    return (np.array([c for _, c in region.coefficients], dtype=complex),
            tuple(k for k, _ in region.coefficients))


def _same_region(a, b, tol) -> bool:
    """Whether a and b are the same kind and their data agree to tol, the
    vertices of a polygon up to a cyclic shift."""
    (da, ka), (db, kb) = _region_data(a), _region_data(b)
    if type(a) is not type(b) or ka != kb or da.size != db.size:
        return False
    shifts = range(da.size) if isinstance(a, Polygon) else (0,)
    return any(np.abs(np.roll(da, k) - db).max() <= tol for k in shifts)


def _mirror_map(region, tol):
    """The vertex mirror map of a region that is its own mirror image in
    the real axis, to tol, and None for another region.  For a polygon
    whose vertex images are its vertices in reversed cyclic order, the map
    holds the index of the vertex nearest to conj(v[k]) for each vertex
    v[k]; it is empty for a disk centred on the axis or a curve with real
    coefficients (z(-t) = conj z(t))."""
    data, _ = _region_data(region)
    if not isinstance(region, Polygon):
        return np.empty(0, int) if np.abs(data.imag).max() <= tol else None
    image = np.abs(np.conj(data)[:, None] - data[None, :]).argmin(axis=1)
    if (np.abs(np.conj(data) - data[image]).max() <= tol
            and np.all((image - np.roll(image, -1)) % data.size == 1)):
        return image
    return None


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

    The unknowns and column order are those of basis.ties (_Ties), the
    rows those of the solver points of both boundaries that _Ties.kept_rows
    keeps, weighted by sqrt(spacing) times the root of the number of
    points each row stands for; the spacings sum to 1 on each boundary.
    For a basis without symmetry that is the full system: unknowns [Re a0,
    (Re, Im) per remaining column, L], every solver point a row.  Returns
    the column-normalised matrix (Fortran order), the right-hand side, the
    column scales and the sum of the squared row weights.

    The matrix is allocated once, in Fortran order, and filled in row
    blocks (_fill_rows) of at most _CHUNK basis entries and 1/8 of the
    matrix's entries: the basis columns of a symmetric subspace's rows are
    several times its matrix.  So the build peaks at about the matrix plus
    one block of basis columns.  The squared column norms are summed one
    row at a time, the order in which np.linalg.norm(axis=0) sums a
    C-order array, so the system equals the dense formula bit for bit.
    """
    ties = basis.ties
    sides = []
    for region, f_side in ((region_e, False), (f_inner, True)):
        if f_side and ties.negation:
            continue
        params = _solver_params(region, basis.degree)
        pts, w = ties.kept_rows(region.boundary_point(params),
                                np.sqrt(_param_spacing(params)))
        sides.append((pts, w, f_side))
    m = sum(pts.size for pts, _, _ in sides)
    a = np.empty((m, ties.order.size), order="F")
    b = np.empty(m)
    norm2 = np.zeros(2 * ties.size)
    lo = 0
    for pts, w, f_side in sides:
        b[lo : lo + pts.size] = -basis.log_abs_base(pts) * w
        for rows in _blocks(pts.size, basis.n_columns, a.size // 8):
            wz = w[rows]
            level = 0.5 * wz if ties.negation else -wz if f_side else 0.0
            _fill_rows(a[lo + rows.start : lo + rows.stop],
                       ties.combine(basis.columns(pts[rows])), wz, level,
                       norm2, ties.order)
        lo += pts.size
    scale = np.sqrt(norm2[ties.order])
    scale[scale == 0.0] = 1.0
    a /= scale
    mass = sum(float(w @ w) for _, w, _ in sides)
    return a, b, scale, mass


def _fill_rows(block, cols, w, level, norm2, order):
    """Write the rows of block from the complex columns cols of its points,
    weighted by w, with the level column's entries level, and add their
    squares to norm2 row by row.

    The rows are built in place in cols, whose real view is [Re c0, Im c0,
    Re c1, Im c1, ...]: c0 is the constant column, whose Im c0 = 0 makes
    room for the level column, so the view holds [Re c0, L, Re c1, -Im c1,
    ...].  The view columns order lists are copied into block once (for
    the full system [Re c0, Re c1, -Im c1, ..., L]).  norm2 follows the
    view's order.
    """
    v = cols.view(float)
    v *= w[:, None]
    np.negative(v[:, 3::2], out=v[:, 3::2])
    v[:, 1] = level
    block[:] = v[:, order]
    np.square(v, out=v)
    # a C-order reduction over axis 0 adds row after row: this is
    # ((norm2 + s_0) + s_1) + ..., the running sum continued
    v[0] += norm2
    np.add.reduce(v, axis=0, out=norm2)


@dataclass(frozen=True, eq=False)
class _Ties:
    """The unknowns of a ladder step: its symmetric subspace, the whole
    space of the basis when it carries no symmetry.

    A symmetric pair has a symmetric map, and the least-squares solution
    of a symmetric system lies in the symmetric subspace:

    * negation (F = -E, case A1): log|Phi(z)| + log|Phi(-z)| = L, so
      Re g(z) + Re g(-z) = L.  The F Laurent coefficient of degree k is
      d_k = -(-1)^k c_k, the pole at -p takes the coefficient of p, and
      Re a0 = L/2.  The condition at a point -z of F is then the one at z
      of E, so only the E rows are kept, weighted by sqrt(2) w;
    * conjugation (each set its own mirror image in the real axis):
      Re g(conj z) = Re g(z).  The Laurent coefficients are real, the pole
      at conj(p) takes the conjugate of the coefficient of p, and a pole
      on the axis takes a real one.  The rows on or above the axis are
      kept (kept_rows), and those off it weighted by sqrt(2) w.

    Each orbit of basis columns under the symmetries is one unknown u.
    Its members, in orbit order (the column, its negation image, its
    conjugation image, the negation image of that; repeats dropped), hold
    sign u, or sign conj(u) for a conjugation image, so a row sees
    Re(u C) with C the sum, in orbit order, of sign col or sign conj(col)
    over the members (combine).  u is real when the orbit reaches one
    column both directly and by conjugation; its members then all hold
    sign u.  Unknown 0 is the constant column, and with negation it is
    L/2, so the system drops it.  Without symmetry every column is an
    orbit of its own and the system is the full one.

    slots[s] holds the s-th members of all orbits that have one, as index
    arrays (unknown, column, sign, conjugated); slots[0] is every orbit's
    own first column, in unknown order.  order lists the system's columns
    as indices into the real view of the unknowns, [Re u0, L, Re u1,
    Im u1, ...] (see _fill_rows): Re u0 unless negation, then Re u_r and,
    for a complex u_r, Im u_r, then L.
    """

    slots: tuple
    order: np.ndarray
    negation: bool
    conjugation: bool

    @property
    def size(self) -> int:
        """The number of complex unknowns, unknown 0 included."""
        return self.slots[0][0].size

    @classmethod
    def of(cls, basis):
        """The ties of the symmetries basis carries (_LogBasis)."""
        n = basis.n_columns
        k = np.arange(1, basis.degree + 1)
        first_pole = 1 + 2 * basis.degree
        images = []  # (column image, sign, conjugated) of each symmetry
        if basis.negated is not None:
            flip = -(-1.0) ** k
            neg = np.concatenate([[0], k + basis.degree, k,
                                  first_pole + basis.negated])
            sign = np.concatenate([[1.0], flip, flip,
                                   np.ones(basis.negated.size)])
            images.append((neg, sign, False))
        if basis.conjugated is not None:
            conj = np.concatenate([np.arange(first_pole),
                                   first_pole + basis.conjugated])
            images.append((conj, np.ones(n), True))
            if basis.negated is not None:
                images.append((neg[conj], sign[conj], True))
        members = [[(0, 0, 1.0, False)]]
        order = [] if basis.negated is not None else [0]
        seen = np.zeros(n, dtype=bool)
        unknown = 0
        for j in range(1, n):
            if seen[j]:
                continue
            unknown += 1
            orbit = {j: (1.0, False)}
            real = False
            for image, sign, conj in images:
                i = int(image[j])
                if i in orbit:
                    real = real or orbit[i][1] != conj
                else:
                    orbit[i] = (float(sign[j]), conj)
            for s, (i, (sign, conj)) in enumerate(orbit.items()):
                if s == len(members):
                    members.append([])
                members[s].append((unknown, i, sign, conj and not real))
                seen[i] = True
            order.extend([2 * unknown] if real
                         else [2 * unknown, 2 * unknown + 1])
        order.append(1)
        slots = tuple(
            tuple(np.array(field) for field in zip(*slot)) for slot in members)
        return cls(slots, np.array(order), basis.negated is not None,
                   basis.conjugated is not None)

    def kept_rows(self, pts, w):
        """The solver points of one boundary that the subspace keeps, and
        their weights: w times the square root of the number of points of
        the full system that each one stands for.  A point within
        _axis_band of the real axis is its own mirror image."""
        count = np.full(pts.size, 2.0 if self.negation else 1.0)
        if self.conjugation:
            band = _axis_band(pts)
            keep = pts.imag >= -band
            count[pts.imag > band] *= 2.0
            pts, w, count = pts[keep], w[keep], count[keep]
        return pts, w * np.sqrt(count)

    def combine(self, cols):
        """The complex columns C of the unknowns, from the basis columns
        cols of some points: cols itself when every orbit is one column."""
        if len(self.slots) == 1:
            return cols
        out = np.take(cols, self.slots[0][1], axis=1)
        for unknown, column, sign, conj in self.slots[1:]:
            terms = sign * cols[:, column]
            np.conjugate(terms, out=terms, where=conj)
            out[:, unknown] += terms
        return out

    def expand(self, u):
        """The coefficients of all basis columns from those of the
        unknowns."""
        coef = np.empty(sum(slot[0].size for slot in self.slots),
                        dtype=complex)
        for unknown, column, sign, conj in self.slots:
            value = u[unknown]
            coef[column] = sign * np.where(conj, np.conj(value), value)
        return coef


def _axis_band(pts) -> float:
    """The distance from the real axis within which a boundary point is
    on it: rounding of the boundary parametrisation, such as the 7e-17
    imaginary part of a disk's point at half a turn."""
    return 16.0 * _EPS * float(np.abs(pts).max())


def _coef_level(x, scale, basis):
    """(coef, level) of a solution x of the column-normalised system of
    basis: coef holds the coefficients of every basis column, expanded
    from the unknowns of its _Ties."""
    ties = basis.ties
    view = np.zeros(2 * ties.size)
    view[ties.order] = x / scale
    u = view.view(complex)
    level = float(u[0].imag)
    u[0] = 0.5 * level if ties.negation else u[0].real
    return ties.expand(u), level


def _solve_level(region_e, f_inner, variant, basis, anchor_e, anchor_f,
                 degree, tol):
    """Solve one ladder step, unless its residual is certain to miss tol.

    Returns (rows, columns, floor, condition, svd, solution).  solution is
    (coef, level), or None when floor > tol; floor is then a lower bound on
    the residual _map_residual would report for the solved step, and
    condition and svd are None.  svd says which of the two solves below
    the step took.  variant, anchor_e, anchor_f and degree repeat
    fields of basis: the head stays positional because perfbench/spans.py
    (Tracer.count_ladder) wraps it so and reads basis and degree.

    The solve starts as np.linalg.lstsq (LAPACK gelsd, rcond = eps
    max(m, n)) does on systems with m >= 1.6 n, as every ladder system is:
    a Householder QR with Q^T b, given the workspace gelsd hands it (its
    optimal size less n).  One rule then picks the solve of
    R x = (Q^T b)[:n].  gelsd drops singular values when the 2-norm
    condition number of R exceeds the cut-off 1/rcond, and condition is
    the rigorous bound ||R||_F ||R^-1||_F on it (_condition_bound):

    * back substitution (dtrtrs) when condition is at most half the
      cut-off; the half leaves room for the rounding of the computed
      inverse and of gelsd's own singular values.  There gelsd keeps every
      singular value (the ladder audit in tests/test_conformal.py checks
      it on each such step), so both solve the same full-rank problem and
      their h agree to rounding.
    * otherwise gelsd's own second half, the truncated-SVD solve on the
      triangle, so the solution is bitwise that of the one-call lstsq at
      one BLAS thread.  On the rank-deficient README rectangles at degree
      32 this path is what meets tol.

    Either way the step's map is validated by _map_residual afterwards;
    the rule picks the faster solve, not whether the map is certified.

    Why floor is certified: ||(Q^T b)[n:]||_2 is the minimum over all x of
    ||W (A x - b)||_2, the weighted residual of the log-modulus conditions
    at the system's points (over the symmetric subspace for a symmetric
    basis, where every solution of the step lies).  So the largest
    pointwise residual there is at least that minimum over the square root
    of the sum of the squared row weights: about 2 for the full system,
    whose squared weights sum to 1 on each boundary.  The validation
    points contain the solver points, the kept rows of a symmetric system
    among them, and |expm1(r)| >= 1 - exp(-|r|), so the validated residual
    is at least -expm1(-lb).  The QR tail is reduced by
    a rounding allowance of 10 m eps ||W b|| first; on the zoo systems the
    computed tail exceeds the weighted residual of the computed solution
    by under 0.01 m eps ||W b||.
    """
    a, b, scale, mass = _level_system(region_e, f_inner, basis)
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
    floor = -math.expm1(-max(0.0, tail - slack) / math.sqrt(mass))
    if floor > tol:
        return m, n, floor, None, None, None
    # lstsq needs the zeros below the triangle
    r = np.array(qr[:n], order="F")
    r[np.tri(n, k=-1, dtype=bool)] = 0.0
    condition = _condition_bound(r)
    svd = not condition <= 0.5 / rcond
    if svd:
        x, *_ = np.linalg.lstsq(r, qtb[:n, 0], rcond=rcond)
    else:
        x, info_t = lapack.dtrtrs(r, qtb[:n])
        if info_t != 0:
            raise np.linalg.LinAlgError(
                f"back substitution on the map system failed (info {info_t})")
        x = x[:, 0]
    return m, n, floor, condition, svd, _coef_level(x, scale, basis)


def _condition_bound(r) -> float:
    """||r||_F ||r^-1||_F, an upper bound on the 2-norm condition number of
    the upper triangle r, with r^-1 from LAPACK dtrtri; inf when r has an
    exact zero on its diagonal.
    """
    inverse, info = lapack.dtrtri(r)
    if info < 0:
        raise np.linalg.LinAlgError(
            f"inverse of the map triangle failed (info {info})")
    if info > 0:
        return math.inf
    return float(np.linalg.norm(r) * np.linalg.norm(inverse))


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
    has its shape (a complex for a scalar).  Phi is tabulated once per map
    on each boundary (AnnulusMap._psi_tables) and the table is reused by
    every call; the root of each w lies in the first table interval where
    arg(Phi/w) (_angle_gap) changes sign with both ends within pi/2 (the
    crossing through 0, not the jump at +-pi).  All roots of a call are
    then refined at once, by brentq searches (xtol 1e-15) run in lockstep
    on the boundary params, each started from the table's values at its
    bracket ends, so the search sees the sign change the table found.  phi
    and boundary_point give each point the value it has alone, so every
    root is that of its own one-point search.  Every map, the closed-form
    two-disk map included, takes this one path.
    """
    ws = _flat(w)
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
    region = (annulus_map.region_e if on_e
              else boundary_region(annulus_map.region_f))
    vals = annulus_map._psi_tables[0 if on_e else 1]
    ang = np.unwrap(np.angle(vals))
    if abs(abs(ang[-1] - ang[0]) - _TWO_PI) > 1e-3:
        raise EvaluationDomainError("boundary correspondence not resolved: "
                                    "arg Phi on the table does not wind once")
    gap = _angle_gap(vals, ws[:, None])
    lo, hi = gap[:, :-1], gap[:, 1:]
    cross = ((np.minimum(lo, hi) <= 0.0) & (np.maximum(lo, hi) >= 0.0)
             & (np.abs(lo) < math.pi / 2) & (np.abs(hi) < math.pi / 2))
    if not np.all(cross.any(axis=1)):
        raise EvaluationDomainError("boundary correspondence not resolved: "
                                    "no table interval brackets arg w")
    first = np.argmax(cross, axis=1)
    t = lockstep(
        (_brentq(i / _PSI_TABLE, (i + 1) / _PSI_TABLE, lo[k, i], hi[k, i])
         for k, i in enumerate(first)),
        lambda x, lanes: _angle_gap(
            phi(annulus_map, region.boundary_point(x)), ws[lanes]))
    z = region.boundary_point(np.array(t, dtype=float))
    err = np.abs(phi(annulus_map, z) - ws)
    scale = np.maximum(1.0, np.abs(ws))
    if np.any(err > 1e-8 * scale + 10.0 * annulus_map.residual * scale):
        raise EvaluationDomainError(
            f"psi_boundary did not converge: |phi(z) - w| = {err.max():g}"
        )
    return _shaped(z, w)


def _angle_gap(vals, w):
    """arg(vals conj(w)) from real products, the one formula of the
    psi_boundary table and of its searches.  numpy rounds a product of
    complex scalars differently from one of complex arrays; a product of
    reals rounds the same in every loop."""
    return np.arctan2(vals.imag * w.real - vals.real * w.imag,
                      vals.real * w.real + vals.imag * w.imag)
