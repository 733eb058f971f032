"""Compact regions of the complex plane with oriented Jordan boundaries.

Every region exposes a counterclockwise boundary parameterization over
t in [0, 1), an exact or numerically certified total rotation, convexity
and membership predicates, and boundary quadrature rules suitable for
Cauchy-type contour integrals.  ``negated()`` mirrors a region (F = -E) by
negating its own data: polygon vertices, curve coefficients, disk center.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegionError
from .quadrature import BoundaryQuadrature, _blocks, _flat

_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)

# Gauss-Legendre order per polygon panel; panels are graded toward the
# corners with ratio 1/2 and never shrink below _MIN_PANEL of the edge.
_GL_ORDER = 8
_MIN_PANEL = 1e-8

# Boundary membership tolerance, relative to the region diameter.
_BOUNDARY_RTOL = 1e-12

# Samples of a curve boundary on which its turning is measured.
_TURN_SAMPLES = 4096


def _as_complex(value) -> complex:
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return complex(value[0], value[1])
    return complex(value)


class Region:
    """Base class; use the disk/rectangle/polygon/curve constructors."""

    # -- shape interface (t is an ndarray in [0, 1)) ----------------------
    def _point(self, t):
        raise NotImplementedError

    def _tangent(self, t):
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def negated(self) -> "Region":
        """The mirrored set -E = {-z : z in E}."""
        raise NotImplementedError

    # -- public geometry --------------------------------------------------
    def boundary_point(self, t):
        return self._point(np.asarray(t, dtype=float) % 1.0)

    def boundary_tangent(self, t):
        """d/dt of boundary_point; never zero for a valid region."""
        return self._tangent(np.asarray(t, dtype=float) % 1.0)


@dataclass(frozen=True)
class Disk(Region):
    center: complex = 0.0 + 0.0j
    radius: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.center) and np.isfinite(self.radius)):
            raise InvalidRegionError("disk center and radius must be finite")
        if not self.radius > 0:
            raise InvalidRegionError("disk radius must be positive")

    def _point(self, t):
        return self.center + self.radius * np.exp(2j * math.pi * t)

    def _tangent(self, t):
        return 2j * math.pi * self.radius * np.exp(2j * math.pi * t)

    def diameter(self):
        return 2.0 * self.radius

    def negated(self):
        # the same circle about -center, parametrized from half a turn around
        return dataclasses.replace(self, center=-self.center)


@dataclass(frozen=True)
class Polygon(Region):
    vertices: tuple = ()

    def __post_init__(self):
        verts = np.asarray([_as_complex(v) for v in self.vertices], dtype=complex)
        if verts.size < 3:
            raise InvalidRegionError("polygon needs at least 3 vertices")
        if not np.all(np.isfinite(verts)):
            raise InvalidRegionError("polygon vertices must be finite")
        # an overflow gives NaN or inf, which the checks below let through
        with np.errstate(over="ignore", invalid="ignore"):
            edges = np.roll(verts, -1) - verts
            # Enforce counterclockwise orientation via the shoelace area.
            area = 0.5 * np.sum(verts.real * np.roll(verts, -1).imag
                                - verts.imag * np.roll(verts, -1).real)
            if not (np.isfinite(area) and np.isfinite(np.abs(edges).sum())):
                raise InvalidRegionError("polygon area or perimeter overflows")
        if np.any(np.abs(edges) == 0.0):
            raise InvalidRegionError("polygon has a zero-length edge")
        if area == 0.0:
            raise InvalidRegionError("polygon is degenerate (zero area)")
        if _edges_cross(verts):
            raise InvalidRegionError("polygon edges cross or touch: the "
                                     "vertex list is not a simple polygon")
        if area < 0.0:
            verts = verts[::-1]
        object.__setattr__(self, "vertices", tuple(verts.tolist()))

    # Edge data, built once per polygon and read-only; not fields, like
    # SmoothCurve._samples
    @functools.cached_property
    def _verts(self):
        v = np.asarray(self.vertices, dtype=complex)
        v.flags.writeable = False
        return v

    @functools.cached_property
    def _cumulative(self):
        """Arc-length fraction at each vertex, closing with 1.0."""
        v = self._verts
        lengths = np.abs(np.roll(v, -1) - v)
        cum = np.concatenate([[0.0], np.cumsum(lengths)]) / lengths.sum()
        cum.flags.writeable = False
        return cum

    def _point(self, t):
        v = self._verts
        cum = self._cumulative
        idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(v) - 1)
        frac = (t - cum[idx]) / (cum[idx + 1] - cum[idx])
        nxt = (idx + 1) % len(v)
        return v[idx] + frac * (v[nxt] - v[idx])

    def _tangent(self, t):
        v = self._verts
        cum = self._cumulative
        idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(v) - 1)
        nxt = (idx + 1) % len(v)
        return (v[nxt] - v[idx]) / (cum[idx + 1] - cum[idx])

    def diameter(self):
        v = self._verts
        return float(np.max(np.abs(v[:, None] - v[None, :])))

    def negated(self):
        # a half-turn keeps the orientation, so the vertex order stays
        return dataclasses.replace(self, vertices=tuple((-self._verts).tolist()))


def _edges_cross(verts) -> bool:
    """Whether two non-adjacent edges of the closed vertex list meet.

    O(n^2): every pair of edges is tested with the four orientation signs
    of the segment test; collinear pairs meet where their projections on
    the line overlap.  Touching counts as meeting.
    """
    n = len(verts)
    a, b = verts, np.roll(verts, -1)
    i, j = np.triu_indices(n, k=2)
    keep = ~((i == 0) & (j == n - 1))  # the last edge is adjacent to the first
    i, j = i[keep], j[keep]
    if i.size == 0:
        return False

    def cross(u, v):
        return u.real * v.imag - u.imag * v.real

    p, q, r, s = a[i], b[i], a[j], b[j]
    d1, d2 = cross(q - p, r - p), cross(q - p, s - p)
    d3, d4 = cross(s - r, p - r), cross(s - r, q - r)
    meet = (d1 * d2 <= 0.0) & (d3 * d4 <= 0.0)
    collinear = (d1 == 0.0) & (d2 == 0.0)
    # on a common line, parametrise both segments along q - p
    direction = q - p
    t_r = (np.conj(direction) * (r - p)).real
    t_s = (np.conj(direction) * (s - p)).real
    overlap = ((np.maximum(t_r, t_s) >= 0.0)
               & (np.minimum(t_r, t_s) <= np.abs(direction) ** 2))
    return bool(np.any(meet & (~collinear | overlap)))


@dataclass(frozen=True)
class SmoothCurve(Region):
    """Region bounded by a trigonometric curve sum_k c_k e^{2 pi i k t}.

    ``coefficients`` maps integer wavenumbers k to complex c_k.  The curve
    must be a counterclockwise Jordan curve with nonvanishing tangent.
    """

    coefficients: tuple = ()  # tuple of (k, complex) pairs

    def __post_init__(self):
        coeff = tuple((int(k), _as_complex(c)) for k, c in self.coefficients)
        if not all(np.isfinite(c) for _, c in coeff):
            raise InvalidRegionError("curve coefficients must be finite")
        if not any(k != 0 for k, _ in coeff):
            raise InvalidRegionError("curve needs a nonconstant coefficient")
        object.__setattr__(self, "coefficients", coeff)

    def _derivative(self, t, order: int):
        """d^order/dt^order of the boundary point; order 0 is the point."""
        z = np.zeros(np.shape(t), dtype=complex)
        for k, c in self.coefficients:
            rate = 2j * math.pi * k
            z = z + c * rate**order * np.exp(rate * t)
        return z

    def _point(self, t):
        return self._derivative(t, 0)

    def _tangent(self, t):
        return self._derivative(t, 1)

    def diameter(self):
        return self._diameter

    @functools.cached_property
    def _diameter(self):
        # once per region: 512^2 distances; not a field, so equality,
        # hashing and negated() see only the coefficients
        t = np.linspace(0.0, 1.0, 512, endpoint=False)
        z = self._point(t)
        return float(np.max(np.abs(z[:, None] - z[None, :])))

    @functools.cached_property
    def _samples(self):
        # once per region, read-only: the 4096 boundary samples membership
        # is judged on (_polyline); not a field, like _diameter
        pts = self.boundary_point(np.linspace(0.0, 1.0, 4096, endpoint=False))
        pts.flags.writeable = False
        return pts

    def negated(self):
        return dataclasses.replace(
            self, coefficients=tuple((k, -c) for k, c in self.coefficients))


# -- constructors ---------------------------------------------------------

def disk(center=0.0, radius=1.0) -> Disk:
    return Disk(center=_as_complex(center), radius=float(radius))


def rectangle(re, im) -> Polygon:
    """Axis-aligned box [re0, re1] x [im0, im1] as a 4-gon."""
    a, b = float(re[0]), float(re[1])
    c, d = float(im[0]), float(im[1])
    if not (b > a and d > c):
        raise InvalidRegionError("rectangle intervals must be increasing")
    return polygon((complex(a, c), complex(b, c), complex(b, d), complex(a, d)))


def polygon(vertices) -> Polygon:
    return Polygon(vertices=tuple(_as_complex(v) for v in vertices))


def curve(coefficients) -> SmoothCurve:
    """coefficients: mapping or iterable of (k, c_k) pairs."""
    if hasattr(coefficients, "items"):
        coefficients = coefficients.items()
    return SmoothCurve(
        coefficients=tuple((k, _as_complex(c)) for k, c in coefficients))


# -- rotation and convexity ----------------------------------------------

def _turning(region: Region):
    """The boundary's turning and the least value that still counts as a
    left turn (zero up to rounding): the exterior angle at each polygon
    vertex (between edges k-1 and k), or d(arg tangent)/dt at
    _TURN_SAMPLES samples of a curve."""
    if isinstance(region, Polygon):
        v = region._verts
        edges = np.roll(v, -1) - v
        return np.roll(np.angle(np.roll(edges, -1) / edges), 1), -1e-12 * math.pi
    if not isinstance(region, SmoothCurve):
        raise InvalidRegionError(f"unsupported region kind {type(region).__name__}")
    t = np.linspace(0.0, 1.0, _TURN_SAMPLES, endpoint=False)
    dz = region._tangent(t)
    speed = np.abs(dz)
    if speed.min() < 1e-12 * speed.max():
        raise InvalidRegionError("rotation undefined: vanishing tangent")
    rate = np.imag(region._derivative(t, 2) / dz)
    return rate, -1e-9 * np.abs(rate).max()


def rotation(region: Region) -> float:
    """Total rotation of the boundary: (1/2 pi) * integral of |d arg tangent|.

    Exactly 1 for convex regions; a polygon contributes the sum of the
    absolute exterior angles divided by 2 pi.
    """
    if isinstance(region, Disk):
        return 1.0
    turn, left = _turning(region)
    if np.all(turn >= left):
        return 1.0
    if isinstance(region, Polygon):
        if np.any(np.abs(np.abs(turn) - math.pi) < 1e-12):
            raise InvalidRegionError("rotation undefined: cusp (straight reversal)")
        return float(np.sum(np.abs(turn)) / _TWO_PI)
    value = float(np.sum(np.abs(turn)) / _TURN_SAMPLES / _TWO_PI)
    if value < 1.0 - 1e-6:
        raise InvalidRegionError("rotation below 1: curve is not Jordan")
    return max(value, 1.0)


def is_convex(region: Region) -> bool:
    if isinstance(region, Disk):
        return True
    turn, left = _turning(region)
    return bool(np.all(turn >= left))


# -- membership -----------------------------------------------------------

def boundary_distance(region: Region, z) -> np.ndarray:
    """Distances from the points z to the boundary, in the shape of z (one
    for a scalar z); a dense-sample estimate off disks and polygons."""
    zf, shape = _flat(z), np.shape(z) or 1
    if isinstance(region, Disk):
        return np.abs(np.abs(zf - region.center) - region.radius).reshape(shape)
    a = _polyline(region)
    ab = np.roll(a, -1) - a
    distance = (_segment_distance if isinstance(region, Polygon)
                else _sample_distance)
    out = np.empty(zf.size)
    for block in _blocks(zf.size, a.size):
        out[block] = np.min(distance(zf[block, None], a, ab), axis=1)
    return out.reshape(shape)


def _segment_distance(z, a, ab):
    """Elementwise distance from z to the segment from a to a + ab."""
    s = np.clip(((z - a) * np.conj(ab)).real / np.abs(ab) ** 2, 0.0, 1.0)
    return np.abs(z - (a + s * ab))


def _sample_distance(z, a, ab):
    """Elementwise distance from z to the start a of an edge."""
    return np.abs(z - a)


def contains_many(region: Region, z):
    """Vectorized membership: (inside, on_boundary) bool arrays shaped as z.

    A point within _BOUNDARY_RTOL * diameter of the boundary is on it and
    not inside.  Off disks both masks come from the closed polyline of
    _polyline (_polyline_masks): inside is a nonzero winding number, and
    on is boundary_distance's test, to the nearest edge of a polygon and
    to the nearest sample of a curve.  Only the edges whose y-span holds
    a point are visited, so the cost grows with the points times the edges
    a horizontal line crosses, not with the points times the edges.
    """
    zf, shape = _flat(z), np.shape(z) or 1
    thr = _BOUNDARY_RTOL * region.diameter()
    if isinstance(region, Disk):
        on = boundary_distance(region, zf) <= thr
        inside = np.abs(zf - region.center) < region.radius
    else:
        distance = (_segment_distance if isinstance(region, Polygon)
                    else _sample_distance)
        winding, on = _polyline_masks(_polyline(region), zf, thr, distance)
        inside = winding != 0
    return (inside & ~on).reshape(shape), on.reshape(shape)


def _polyline(region: Region):
    """The closed polyline membership is judged on: the vertices of a
    polygon, the 4096 boundary samples of a curve (cached per region)."""
    if isinstance(region, Polygon):
        return region._verts
    return region._samples


def _polyline_masks(pts, z, thr, distance):
    """Winding numbers of the closed polyline pts about the points z, and
    whether distance(z, a, b - a) <= thr for one of its edges a -> b.

    The winding number is the signed crossing count of Hormann and Agathos
    (The point in polygon problem for arbitrary polygons, CGTA 2001): an
    edge whose half-open y-span [min, max) holds Im z adds +1 when it runs
    upward with z on its left and -1 when it runs downward with z on its
    right, by the sign of (b - a) x (z - a).  A point on the polyline gets
    an arbitrary count; the caller's on mask wins there.

    The points are sorted by y, so each edge finds the points of its span
    by bisection.  The span is widened by a pad for the distance test: an
    edge within thr of z has |Im z - y| <= thr at some y of its span, and
    the pad also covers the rounding of the differences, of the nearest
    point and of the span ends, so the mask equals the dense test of
    boundary_distance bit for bit.  The (edge, point) pairs are formed in
    _blocks, however many edges a line crosses.
    """
    order = np.argsort(z.imag, kind="stable")
    zs = z[order]
    a, b = pts, np.roll(pts, -1)
    ab = b - a
    bottom, top = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    rising = b.imag > a.imag
    pad = 4.0 * thr + 16.0 * _EPS * np.abs(pts.imag).max()
    lo = np.searchsorted(zs.imag, bottom - pad)
    hi = np.searchsorted(zs.imag, top + pad, side="right")
    # the padded spans that hold each sorted point
    cost = np.cumsum(np.bincount(lo, minlength=z.size + 1)
                     - np.bincount(hi, minlength=z.size + 1))[:-1]
    winding = np.empty(z.size, dtype=int)
    on = np.zeros(z.size, dtype=bool)
    for block in _blocks(z.size, cost):
        start, stop = block.start, block.stop
        edge, point = _span_pairs(np.clip(lo, start, stop),
                                  np.clip(hi, start, stop))
        zp, ae, abe = zs[point], a[edge], ab[edge]
        on[point[distance(zp, ae, abe) <= thr]] = True
        rel = zp - ae
        side = abe.real * rel.imag - abe.imag * rel.real
        held = (bottom[edge] <= zp.imag) & (zp.imag < top[edge])
        up, down = held & rising[edge], held & ~rising[edge]
        point -= start
        winding[start:stop] = (
            np.bincount(point[up & (side > 0.0)], minlength=stop - start)
            - np.bincount(point[down & (side < 0.0)], minlength=stop - start))
    out_winding, out_on = np.empty_like(winding), np.empty_like(on)
    out_winding[order], out_on[order] = winding, on
    return out_winding, out_on


def _span_pairs(lo, hi):
    """The index pairs (i, j) with lo[i] <= j < hi[i], grouped by i."""
    count = hi - lo
    i = np.repeat(np.arange(count.size), count)
    j = np.arange(i.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    return i, j


# -- anchors --------------------------------------------------------------

def interior_anchor(region: Region) -> complex:
    """A deterministic interior point: the disk center, else the area
    centroid when it lies strictly inside, else the first of 19 points
    probed inward from the boundary that does."""
    if isinstance(region, Disk):
        return region.center
    if isinstance(region, Polygon):
        pts = _polyline(region)
    else:
        pts = region.boundary_point(np.linspace(0.0, 1.0, 2048, endpoint=False))
    x, y = pts.real, pts.imag
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = cross.sum() / 2.0
    centroid = complex((x + xn) @ cross, (y + yn) @ cross) / (6.0 * area)
    t0 = np.linspace(0.05, 0.95, 19)
    tangent = region.boundary_tangent(t0)
    probes = region.boundary_point(t0) + 1j * tangent / np.abs(tangent) * (
        0.05 * region.diameter()
    )
    candidates = np.concatenate([[centroid], probes])
    inside, _ = contains_many(region, candidates)
    if not inside.any():
        raise InvalidRegionError("could not locate an interior anchor")
    return complex(candidates[np.argmax(inside)])


# -- boundary quadrature ---------------------------------------------------

def boundary_samples(region: Region, n_points: int) -> BoundaryQuadrature:
    """Quadrature rule for contour integrals over the region boundary.

    Smooth boundaries (disk, trig curve) get the periodic trapezoid rule
    with exactly n_points nodes.  Polygon boundaries get composite
    Gauss-Legendre panels per edge, graded geometrically toward the
    corners (ratio 1/2, panels never below 1e-8 of the edge), with at
    least n_points nodes in total.  Weights approximate the complex
    increments d zeta, so sum(values * weights) approximates the contour
    integral.
    """
    if n_points < 16:
        raise InvalidRegionError("n_points must be at least 16")
    if isinstance(region, Polygon):
        return _polygon_quadrature(region, n_points)
    t = np.arange(n_points) / n_points
    nodes = region.boundary_point(t)
    weights = region.boundary_tangent(t) / n_points
    return BoundaryQuadrature(nodes=nodes, weights=weights, arc_params=t)


def _graded_breakpoints(n_panels: int):
    """Breakpoints in [0, 1] graded with ratio 1/2 toward both ends."""
    m = max(1, n_panels // 2)
    # Panel lengths on [0, 1/2]: proportional to 2^i, smallest at the corner.
    raw = np.array([2.0**i for i in range(1, m + 1)])
    lengths = raw / raw.sum() / 2.0
    lengths = np.maximum(lengths, _MIN_PANEL)
    lengths = lengths / lengths.sum() / 2.0
    left = np.concatenate([[0.0], np.cumsum(lengths)])
    right = 1.0 - left[::-1]
    return np.concatenate([left, right[1:]])


def _polygon_quadrature(region: Polygon, n_points: int) -> BoundaryQuadrature:
    v = np.asarray(region.vertices, dtype=complex)
    n_edges = len(v)
    lengths = np.abs(np.roll(v, -1) - v)
    per = lengths.sum()
    cum = region._cumulative
    gl_x, gl_w = np.polynomial.legendre.leggauss(_GL_ORDER)
    gl_x = (gl_x + 1.0) / 2.0  # map to [0, 1]
    gl_w = gl_w / 2.0

    share = n_points * lengths / per
    panels = []
    for k in range(n_edges):
        budget = max(2 * _GL_ORDER, int(round(share[k])))
        panels.append(max(2, 2 * int(round(budget / (2 * _GL_ORDER)))))
    # rounding can leave the rule short of n_points: add panel pairs where
    # an edge's share is least met
    while _GL_ORDER * sum(panels) < n_points:
        panels[int(np.argmax(share - _GL_ORDER * np.array(panels)))] += 2

    nodes, weights, params = [], [], []
    for k in range(n_edges):
        breaks = _graded_breakpoints(panels[k])
        a, b = v[k], v[(k + 1) % n_edges]
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            frac = lo + (hi - lo) * gl_x
            nodes.append(a + frac * (b - a))
            weights.append((hi - lo) * gl_w * (b - a))
            params.append(cum[k] + frac * (cum[k + 1] - cum[k]))
    return BoundaryQuadrature(nodes=np.concatenate(nodes),
                              weights=np.concatenate(weights),
                              arc_params=np.concatenate(params))


def random_points(region: Region, count: int, rng) -> np.ndarray:
    """count points drawn uniformly from the interior of the region.

    Rejection sampling in the bounding box of the boundary; rng is a
    numpy Generator.
    """
    t = np.arange(2048) / 2048.0
    pts = region.boundary_point(t)
    lo_r, hi_r = pts.real.min(), pts.real.max()
    lo_i, hi_i = pts.imag.min(), pts.imag.max()
    out = np.empty(count, dtype=complex)
    filled = 0
    for _ in range(1000):
        draw = (rng.uniform(lo_r, hi_r, size=4 * count)
                + 1j * rng.uniform(lo_i, hi_i, size=4 * count))
        inside, _ = contains_many(region, draw)
        keep = draw[inside]
        take = min(count - filled, keep.size)
        out[filled:filled + take] = keep[:take]
        filled += take
        if filled == count:
            return out
    raise InvalidRegionError("rejection sampling failed to fill the region")
