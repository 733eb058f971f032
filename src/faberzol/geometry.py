"""Compact regions of the complex plane with oriented Jordan boundaries.

Every region exposes a counterclockwise boundary parameterization over
t in [0, 1), an exact or numerically certified total rotation, convexity
and membership predicates, and boundary quadrature rules suitable for
Cauchy-type contour integrals.  Affine images a*z + b of the base shapes
are supported directly so that mirrored pairs (F = -E) stay exact.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegionError
from .quadrature import _CHUNK, BoundaryQuadrature

_TWO_PI = 2.0 * math.pi

# Gauss-Legendre order per polygon panel; panels are graded toward the
# corners with ratio 1/2 and never shrink below _MIN_PANEL of the edge.
_GL_ORDER = 8
_MIN_PANEL = 1e-8

# Boundary membership tolerance, relative to the region diameter.
_BOUNDARY_RTOL = 1e-12


def _as_complex(value) -> complex:
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return complex(value[0], value[1])
    return complex(value)


@dataclass(frozen=True)
class Region:
    """Base class; use the disk/rectangle/polygon/curve constructors.

    ``transform`` is the affine map z -> scale*z + shift applied to the
    base shape.  scale is complex (rotation plus dilation), so the image
    stays a counterclockwise Jordan region.
    """

    scale: complex = 1.0 + 0.0j
    shift: complex = 0.0 + 0.0j

    # -- base-shape interface (t is an ndarray in [0, 1)) ----------------
    def _base_point(self, t):
        raise NotImplementedError

    def _base_tangent(self, t):
        raise NotImplementedError

    def _base_diameter(self) -> float:
        raise NotImplementedError

    # -- public geometry --------------------------------------------------
    def boundary_point(self, t):
        t = np.asarray(t, dtype=float) % 1.0
        return self.scale * self._base_point(t) + self.shift

    def boundary_tangent(self, t):
        """d/dt of boundary_point; never zero for a valid region."""
        t = np.asarray(t, dtype=float) % 1.0
        return self.scale * self._base_tangent(t)

    def diameter(self) -> float:
        return abs(self.scale) * self._base_diameter()

    def transformed(self, scale=1.0, shift=0.0) -> "Region":
        """Region for scale*self + shift (composition of affine maps)."""
        scale = _as_complex(scale)
        shift = _as_complex(shift)
        return dataclasses.replace(
            self, scale=scale * self.scale, shift=scale * self.shift + shift
        )

    def negated(self) -> "Region":
        """The mirrored set -E = {-z : z in E}."""
        return self.transformed(scale=-1.0)


@dataclass(frozen=True)
class Disk(Region):
    center: complex = 0.0 + 0.0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidRegionError("disk radius must be positive")

    def _base_point(self, t):
        return self.center + self.radius * np.exp(2j * math.pi * t)

    def _base_tangent(self, t):
        return 2j * math.pi * self.radius * np.exp(2j * math.pi * t)

    def _base_diameter(self):
        return 2.0 * self.radius

    @property
    def true_center(self) -> complex:
        return self.scale * self.center + self.shift

    @property
    def true_radius(self) -> float:
        return abs(self.scale) * self.radius


@dataclass(frozen=True)
class Polygon(Region):
    vertices: tuple = ()

    def __post_init__(self):
        verts = np.asarray([_as_complex(v) for v in self.vertices], dtype=complex)
        if verts.size < 3:
            raise InvalidRegionError("polygon needs at least 3 vertices")
        edges = np.roll(verts, -1) - verts
        if np.any(np.abs(edges) == 0.0):
            raise InvalidRegionError("polygon has a zero-length edge")
        # Enforce counterclockwise orientation via the shoelace area.
        area = 0.5 * np.sum(
            verts.real * np.roll(verts, -1).imag - verts.imag * np.roll(verts, -1).real
        )
        if area == 0.0:
            raise InvalidRegionError("polygon is degenerate (zero area)")
        if area < 0.0:
            verts = verts[::-1]
        object.__setattr__(self, "vertices", tuple(verts.tolist()))

    # Cached edge data ----------------------------------------------------
    def _verts(self):
        return np.asarray(self.vertices, dtype=complex)

    def _edge_lengths(self):
        v = self._verts()
        return np.abs(np.roll(v, -1) - v)

    def _cumulative(self):
        lengths = self._edge_lengths()
        per = lengths.sum()
        return np.concatenate([[0.0], np.cumsum(lengths)]) / per

    def _base_point(self, t):
        v = self._verts()
        cum = self._cumulative()
        idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(v) - 1)
        frac = (t - cum[idx]) / (cum[idx + 1] - cum[idx])
        nxt = (idx + 1) % len(v)
        return v[idx] + frac * (v[nxt] - v[idx])

    def _base_tangent(self, t):
        v = self._verts()
        cum = self._cumulative()
        idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(v) - 1)
        nxt = (idx + 1) % len(v)
        return (v[nxt] - v[idx]) / (cum[idx + 1] - cum[idx])

    def _base_diameter(self):
        v = self._verts()
        return float(np.max(np.abs(v[:, None] - v[None, :])))


@dataclass(frozen=True)
class SmoothCurve(Region):
    """Region bounded by a trigonometric curve sum_k c_k e^{2 pi i k t}.

    ``coefficients`` maps integer wavenumbers k to complex c_k.  The curve
    must be a counterclockwise Jordan curve with nonvanishing tangent.
    """

    coefficients: tuple = ()  # tuple of (k, complex) pairs

    def __post_init__(self):
        coeff = tuple((int(k), _as_complex(c)) for k, c in self.coefficients)
        if not any(k != 0 for k, _ in coeff):
            raise InvalidRegionError("curve needs a nonconstant coefficient")
        object.__setattr__(self, "coefficients", coeff)

    def _base_point(self, t):
        z = np.zeros(np.shape(t), dtype=complex)
        for k, c in self.coefficients:
            z = z + c * np.exp(2j * math.pi * k * t)
        return z

    def _base_tangent(self, t):
        z = np.zeros(np.shape(t), dtype=complex)
        for k, c in self.coefficients:
            z = z + c * (2j * math.pi * k) * np.exp(2j * math.pi * k * t)
        return z

    def _base_second(self, t):
        z = np.zeros(np.shape(t), dtype=complex)
        for k, c in self.coefficients:
            z = z + c * (2j * math.pi * k) ** 2 * np.exp(2j * math.pi * k * t)
        return z

    def _base_diameter(self):
        t = np.linspace(0.0, 1.0, 512, endpoint=False)
        z = self._base_point(t)
        return float(np.max(np.abs(z[:, None] - z[None, :])))


# -- constructors ---------------------------------------------------------

def disk(center=0.0, radius=1.0, scale=1.0, shift=0.0) -> Disk:
    return Disk(
        center=_as_complex(center),
        radius=float(radius),
        scale=_as_complex(scale),
        shift=_as_complex(shift),
    )


def rectangle(re, im, scale=1.0, shift=0.0) -> Polygon:
    """Axis-aligned box [re0, re1] x [im0, im1] as a 4-gon (pre-transform)."""
    a, b = float(re[0]), float(re[1])
    c, d = float(im[0]), float(im[1])
    if not (b > a and d > c):
        raise InvalidRegionError("rectangle intervals must be increasing")
    return polygon((complex(a, c), complex(b, c), complex(b, d), complex(a, d)),
                   scale=scale, shift=shift)


def polygon(vertices, scale=1.0, shift=0.0) -> Polygon:
    return Polygon(
        vertices=tuple(_as_complex(v) for v in vertices),
        scale=_as_complex(scale),
        shift=_as_complex(shift),
    )


def curve(coefficients, scale=1.0, shift=0.0) -> SmoothCurve:
    """coefficients: mapping or iterable of (k, c_k) pairs."""
    if hasattr(coefficients, "items"):
        coefficients = coefficients.items()
    return SmoothCurve(
        coefficients=tuple((k, _as_complex(c)) for k, c in coefficients),
        scale=_as_complex(scale),
        shift=_as_complex(shift),
    )


# -- rotation and convexity ----------------------------------------------

def _polygon_exterior_angles(region: Polygon):
    v = np.asarray(region.vertices, dtype=complex) * region.scale + region.shift
    edges = np.roll(v, -1) - v
    turn = np.angle(np.roll(edges, -1) / edges)  # exterior angle at each vertex
    return np.roll(turn, 1)  # angle at vertex k between edges k-1 and k


def rotation(region: Region) -> float:
    """Total rotation of the boundary: (1/2 pi) * integral of |d arg tangent|.

    Exactly 1 for convex regions; a polygon contributes the sum of the
    absolute exterior angles divided by 2 pi.
    """
    if isinstance(region, Disk):
        return 1.0
    if isinstance(region, Polygon):
        if is_convex(region):
            return 1.0
        turn = _polygon_exterior_angles(region)
        if np.any(np.abs(np.abs(turn) - math.pi) < 1e-12):
            raise InvalidRegionError("rotation undefined: cusp (straight reversal)")
        return float(np.sum(np.abs(turn)) / _TWO_PI)
    if isinstance(region, SmoothCurve):
        n = 4096
        t = np.linspace(0.0, 1.0, n, endpoint=False)
        dz = region.scale * region._base_tangent(t)
        d2z = region.scale * region._base_second(t)
        speed = np.abs(dz)
        if speed.min() < 1e-12 * speed.max():
            raise InvalidRegionError("rotation undefined: vanishing tangent")
        theta_dot = np.imag(d2z / dz)
        value = float(np.sum(np.abs(theta_dot)) / n / _TWO_PI)
        if is_convex(region):
            return 1.0
        if value < 1.0 - 1e-6:
            raise InvalidRegionError("rotation below 1: curve is not Jordan")
        return max(value, 1.0)
    raise InvalidRegionError(f"unsupported region kind {type(region).__name__}")


def is_convex(region: Region) -> bool:
    if isinstance(region, Disk):
        return True
    if isinstance(region, Polygon):
        turn = _polygon_exterior_angles(region)
        scale = math.pi
        return bool(np.all(turn >= -1e-12 * scale))
    if isinstance(region, SmoothCurve):
        n = 4096
        t = np.linspace(0.0, 1.0, n, endpoint=False)
        dz = region.scale * region._base_tangent(t)
        d2z = region.scale * region._base_second(t)
        theta_dot = np.imag(d2z / dz)
        return bool(np.all(theta_dot >= -1e-9 * np.abs(theta_dot).max()))
    raise InvalidRegionError(f"unsupported region kind {type(region).__name__}")


# -- membership -----------------------------------------------------------

def boundary_distance(region: Region, z) -> np.ndarray:
    """Distances from the points z to the boundary (dense-sample estimate
    off disks and polygons)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if isinstance(region, Disk):
        return np.abs(np.abs(z - region.true_center) - region.true_radius)
    if isinstance(region, Polygon):
        a = _polyline(region)
        ab = np.roll(a, -1) - a
        s = np.clip(
            ((z[:, None] - a[None, :]) * np.conj(ab)[None, :]).real
            / (np.abs(ab) ** 2)[None, :],
            0.0,
            1.0,
        )
        return np.min(np.abs(z[:, None] - (a[None, :] + s * ab[None, :])), axis=1)
    pts = _polyline(region)
    return _by_chunks(
        lambda chunk: np.min(np.abs(chunk[:, None] - pts[None, :]), axis=1),
        z, pts.size)


def contains_many(region: Region, z):
    """Vectorized membership: returns (inside, on_boundary) bool arrays.

    A point within _BOUNDARY_RTOL * diameter of the boundary is on it and
    not inside.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    on = boundary_distance(region, z) <= _BOUNDARY_RTOL * region.diameter()
    if isinstance(region, Disk):
        inside = np.abs(z - region.true_center) < region.true_radius
    else:
        pts = _polyline(region)
        inside = _by_chunks(
            lambda chunk: _winding_polyline_many(pts, chunk) != 0, z, pts.size)
    return inside & ~on, on


def _polyline(region: Region):
    """The closed polyline membership is judged on: the vertices of a
    polygon, 4096 boundary samples of a curve."""
    if isinstance(region, Polygon):
        return np.asarray(region.vertices, dtype=complex) * region.scale + region.shift
    return region.boundary_point(np.linspace(0.0, 1.0, 4096, endpoint=False))


def _by_chunks(fn, z, width: int):
    """fn over slices of z, each small enough that its slice-by-width
    temporaries stay within _CHUNK entries."""
    step = max(1, _CHUNK // width)
    return np.concatenate([fn(z[lo:lo + step])
                           for lo in range(0, max(1, z.size), step)])


def _winding_polyline_many(pts, z):
    rel = pts[None, :] - z[:, None]
    # exact node hits are boundary points; the caller's "on" mask wins, so
    # any nonzero placeholder keeps the arithmetic clean
    rel = np.where(rel == 0.0, 1.0, rel)
    ang = np.angle(np.roll(rel, -1, axis=1) / rel)
    return np.rint(ang.sum(axis=1) / _TWO_PI).astype(int)


# -- anchors --------------------------------------------------------------

def interior_anchor(region: Region) -> complex:
    """A deterministic interior point: the disk center, else the area
    centroid when it lies strictly inside, else the first of 19 points
    probed inward from the boundary that does."""
    if isinstance(region, Disk):
        return region.true_center
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
    cum = region._cumulative()
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
    nodes = region.scale * np.concatenate(nodes) + region.shift
    weights = region.scale * np.concatenate(weights)
    params = np.concatenate(params)
    return BoundaryQuadrature(nodes=nodes, weights=weights, arc_params=params)


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
