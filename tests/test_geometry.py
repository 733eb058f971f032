import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberzol import geometry, quadrature
from faberzol.errors import InvalidRegionError
from faberzol.geometry import (
    boundary_distance,
    boundary_samples,
    contains_many,
    curve,
    disk,
    interior_anchor,
    is_convex,
    polygon,
    random_points,
    rectangle,
    rotation,
)

L_VERTS = [0.0, 2.0, 2.0 + 1.0j, 1.0 + 1.0j, 1.0 + 2.0j, 2.0j]


def test_disk_boundary_is_a_circle():
    d = disk(1.0 + 2.0j, 0.5)
    t = np.linspace(0.0, 1.0, 64, endpoint=False)
    z = d.boundary_point(t)
    assert np.abs(np.abs(z - (1.0 + 2.0j)) - 0.5).max() < 1e-14
    assert d.center == 1.0 + 2.0j
    assert d.radius == 0.5


def test_rectangle_boundary_stays_on_the_box():
    r = rectangle((0.3, 1.3), (-0.5, 0.5))
    t = np.linspace(0.0, 1.0, 4096, endpoint=False)
    z = r.boundary_point(t)
    assert z.real.min() >= 0.3 - 1e-12 and z.real.max() <= 1.3 + 1e-12
    assert z.imag.min() >= -0.5 - 1e-12 and z.imag.max() <= 0.5 + 1e-12
    for corner in (0.3 - 0.5j, 1.3 - 0.5j, 1.3 + 0.5j, 0.3 + 0.5j):
        assert np.abs(z - corner).min() < 2e-3


@pytest.mark.parametrize("region", [
    disk(1.5 + 0.2j, 0.7),
    rectangle((0.3, 1.3), (-1.3, 1.3)),
    polygon(L_VERTS),
    curve({1: 1.0, -2: 0.3}),  # nonconvex: rotation about 1.06
], ids=["disk", "rectangle", "l_shape", "curve"])
def test_negated_region_mirrors_the_boundary(region):
    mirror = region.negated()
    assert type(mirror) is type(region)
    t = np.linspace(0.0, 1.0, 200, endpoint=False)
    if isinstance(region, geometry.Disk):
        # the same circle about -center, so compare as sets
        assert (mirror.center, mirror.radius) == (-region.center, region.radius)
        assert boundary_distance(region, -mirror.boundary_point(t)).max() < 1e-14
    else:
        assert np.array_equal(mirror.boundary_point(t), -region.boundary_point(t))
    assert rotation(mirror) == rotation(region)
    assert is_convex(mirror) == is_convex(region)
    q, q_mirror = boundary_samples(region, 256), boundary_samples(mirror, 256)
    # the contour closes (the increments sum to zero) and encloses the same
    # positive area, 1/2 Im sum conj(z) dz, so it runs counterclockwise
    assert abs(q_mirror.weights.sum()) < 1e-12
    area = 0.5 * np.imag(np.conj(q_mirror.nodes) @ q_mirror.weights)
    assert area > 0.0
    assert area == pytest.approx(0.5 * np.imag(np.conj(q.nodes) @ q.weights),
                                 rel=1e-12)


def test_contains_distinguishes_the_three_cases():
    d = disk(0.0, 1.0)
    inside, on = contains_many(d, [0.2 + 0.3j, 1.5, 1.0])
    assert inside.tolist() == [True, False, False]
    assert on.tolist() == [False, False, True]


def test_contains_many_returns_inside_and_on_masks():
    r = rectangle((0.0, 1.0), (0.0, 1.0))
    z = np.array([0.5 + 0.5j, 2.0, 0.5, 1.0 + 0.5j])
    inside, on = contains_many(r, z)
    assert inside.tolist() == [True, False, False, False]
    assert on.tolist() == [False, False, True, True]


def test_polygon_orientation_is_normalized():
    # clockwise input gets reversed, so the winding stays +1
    p_ccw = polygon([0.0, 1.0, 1.0 + 1.0j])
    p_cw = polygon([0.0, 1.0 + 1.0j, 1.0])
    assert p_ccw.vertices == tuple(reversed(p_cw.vertices)) or contains_many(
        p_cw, 0.6 + 0.3j
    )[0][0]


def test_rotation_is_one_for_convex_shapes():
    assert rotation(disk(2.0, 0.3)) == 1.0
    assert rotation(rectangle((0.0, 2.0), (0.0, 1.0))) == 1.0
    assert rotation(polygon([0.0, 1.0, 0.5 + 1.0j])) == 1.0


def test_rotation_counts_the_reentrant_corner():
    l_shape = polygon(L_VERTS)
    assert not is_convex(l_shape)
    assert rotation(l_shape) == pytest.approx(1.5, abs=1e-12)


def test_convexity_predicates():
    assert is_convex(disk())
    assert is_convex(rectangle((0.0, 1.0), (0.0, 1.0)))
    assert not is_convex(polygon(L_VERTS))


def test_smooth_curve_region():
    # unit circle with a mild third harmonic, still convex-ish and Jordan
    c = curve({1: 1.0, 3: 0.05})
    t = np.linspace(0.0, 1.0, 256, endpoint=False)
    z = c.boundary_point(t)
    assert np.all(np.isfinite(z))
    inside, on = contains_many(c, [0.0, 3.0])
    assert inside.tolist() == [True, False] and not on.any()
    assert rotation(c) >= 1.0


def test_chunked_contains_many_matches_one_block(monkeypatch):
    # 1300 points span three 512-point chunks of a 4096-sample curve: curve
    # samples (on), points just off the curve between samples, and
    # interior and exterior points
    c = curve({1: 1.0, 3: 0.05})
    rng = np.random.default_rng(2)
    z = np.concatenate([
        rng.uniform(-1.5, 1.5, 1000) + 1j * rng.uniform(-1.5, 1.5, 1000),
        c.boundary_point(np.arange(150) / 4096.0),
        c.boundary_point(rng.uniform(0.0, 1.0, 150)) * (1.0 + 1e-10),
    ])
    inside, on = contains_many(c, z)
    monkeypatch.setattr(quadrature, "_CHUNK", 4096 * z.size)
    one_inside, one_on = contains_many(c, z)
    assert np.array_equal(inside, one_inside)
    assert np.array_equal(on, one_on)
    assert on.sum() >= 150 and inside.sum() > 100 and (~inside & ~on).any()


def _dense_contains(region, z):
    """contains_many by the dense rule the crossing kernel replaced: the
    boundary_distance test, and the winding number as the angle sum of the
    polyline seen from each point, 256 points at a time."""
    z = np.asarray(z, dtype=complex)
    on = boundary_distance(region, z) <= (geometry._BOUNDARY_RTOL
                                          * region.diameter())
    pts = geometry._polyline(region)
    winding = []
    for lo in range(0, z.size, 256):
        rel = pts[None, :] - z[lo:lo + 256, None]
        rel = np.where(rel == 0.0, 1.0, rel)
        angles = np.angle(np.roll(rel, -1, axis=1) / rel)
        winding.append(np.rint(angles.sum(axis=1) / (2.0 * np.pi)))
    return (np.concatenate(winding) != 0) & ~on, on


MEMBERSHIP_REGIONS = {
    "ellipse": curve({1: 1.0, -1: 0.2}),
    "third_harmonic": curve({1: 1.0, 3: 0.05}),
    "disk_curve_f": curve({0: 4.0, 1: 0.8}),
    "rectangle": rectangle((0.3, 1.3), (-1.3, 1.3)),
    "l_shape": polygon(L_VERTS),
    "c_shape": polygon([0.0, 3.0, 3.0 + 1.0j, 1.0 + 1.0j, 1.0 + 2.0j,
                        3.0 + 2.0j, 3.0 + 3.0j, 3.0j]),
    "hexagon": polygon([1.5 + 0.6 * np.exp(1j * np.pi * k / 3.0)
                        for k in range(6)]),
    "triangle": polygon([1.0, 2.0, 1.5 + 1.0j]),
}


def _membership_targets(region, rng):
    """A random cloud about the region, a grid on the horizontal lines
    through the vertices (every vertex of a polygon, 64 samples of a
    curve), the polyline's vertices, points 0.7 of the on-tolerance away
    from them in random directions, and boundary points 1e-10 inside and
    outside."""
    pts = geometry._polyline(region)
    lo = complex(pts.real.min(), pts.imag.min())
    span = complex(pts.real.max(), pts.imag.max()) - lo
    cloud = (lo - 0.2 * span
             + 1.4 * (span.real * rng.uniform(0.0, 1.0, 1000)
                      + 1j * span.imag * rng.uniform(0.0, 1.0, 1000)))
    xs = lo.real + span.real * np.linspace(-0.1, 1.1, 23)
    if isinstance(region, geometry.Polygon):
        xs, ys, vertices = np.concatenate([xs, pts.real]), pts.imag, pts
    else:
        ys = pts.imag[::64]
        vertices = pts[::4]
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    t = rng.uniform(0.0, 1.0, 250)
    tangent = region.boundary_tangent(t)
    normal = -1j * tangent / np.abs(tangent)
    near = region.boundary_point(t)
    off = np.concatenate([near + 1e-10 * normal, near - 1e-10 * normal])
    thr = geometry._BOUNDARY_RTOL * region.diameter()
    close = vertices + 0.7 * thr * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, vertices.size))
    return np.concatenate([cloud, grid, vertices, close, off])


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_REGIONS))
def test_contains_many_matches_the_dense_angle_sum(name):
    region = MEMBERSHIP_REGIONS[name]
    z = _membership_targets(region, np.random.default_rng(7))
    inside, on = contains_many(region, z)
    dense_inside, dense_on = _dense_contains(region, z)
    assert np.array_equal(inside, dense_inside)
    assert np.array_equal(on, dense_on)
    assert inside.any() and on.any() and (~inside & ~on).any()


def test_contains_many_in_small_blocks_matches_one_block(monkeypatch):
    # the star-shaped r = 1 + 0.08 cos(60 theta): a horizontal line crosses
    # up to 22 edges, so with _CHUNK = 8 the pairs of one point can fill
    # more than a block
    comb = curve({1: 1.0, 61: 0.04, -59: 0.04})
    z = _membership_targets(comb, np.random.default_rng(3))
    inside, on = contains_many(comb, z)
    monkeypatch.setattr(quadrature, "_CHUNK", 8)
    small_inside, small_on = contains_many(comb, z)
    assert np.array_equal(inside, small_inside)
    assert np.array_equal(on, small_on)
    dense_inside, dense_on = _dense_contains(comb, z)
    assert np.array_equal(inside, dense_inside)
    assert np.array_equal(on, dense_on)


def test_curve_polyline_is_sampled_once_per_region(monkeypatch):
    # contains_many, boundary_distance and interior_anchor share one
    # read-only sample array per curve; the masks are those of fresh
    # samples, and equality, hashing and negated() ignore the cache
    twin = curve({0: 4.0, 1: 0.8})
    z = _membership_targets(twin, np.random.default_rng(5))
    samples = twin.boundary_point(np.linspace(0.0, 1.0, 4096,
                                              endpoint=False))
    thr = geometry._BOUNDARY_RTOL * twin.diameter()
    winding, fresh_on = geometry._polyline_masks(
        samples, z, thr, geometry._sample_distance)
    evaluations = []
    point = geometry.SmoothCurve._point

    def counted(self, t):
        evaluations.append(np.size(t))
        return point(self, t)

    monkeypatch.setattr(geometry.SmoothCurve, "_point", counted)
    region = curve({0: 4.0, 1: 0.8})
    for _ in range(3):
        inside, on = contains_many(region, z)
        assert np.array_equal(inside, (winding != 0) & ~fresh_on)
        assert np.array_equal(on, fresh_on)
        distance = boundary_distance(region, z[:20])
    assert evaluations.count(4096) == 1
    assert np.array_equal(geometry._polyline(region), samples)
    assert not geometry._polyline(region).flags.writeable
    assert np.array_equal(
        distance, np.abs(z[:20, None] - samples[None, :]).min(axis=1))
    interior_anchor(region)
    assert evaluations.count(4096) == 1
    assert twin == region and hash(twin) == hash(region)
    assert "_samples" not in vars(region.negated())


def test_polygon_edge_data_is_built_once_and_read_only():
    # boundary_point and boundary_tangent equal the formula on arrays
    # rebuilt from the vertices, bit for bit; the cache is read-only and
    # equality, hashing and negated() ignore it
    rng = np.random.default_rng(11)
    hexagon = polygon([1.5 + 0.6 * np.exp(1j * np.pi * k / 3.0)
                       for k in range(6)])
    for region in (hexagon, rectangle((0.3, 1.3), (-1.3, 1.3)),
                   polygon(L_VERTS)):
        t = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.0, 0.5]])
        v = np.asarray(region.vertices, dtype=complex)
        lengths = np.abs(np.roll(v, -1) - v)
        cum = np.concatenate([[0.0], np.cumsum(lengths)]) / lengths.sum()
        idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0,
                      len(v) - 1)
        nxt = (idx + 1) % len(v)
        frac = (t - cum[idx]) / (cum[idx + 1] - cum[idx])
        assert np.array_equal(region.boundary_point(t),
                              v[idx] + frac * (v[nxt] - v[idx]))
        assert np.array_equal(region.boundary_tangent(t),
                              (v[nxt] - v[idx]) / (cum[idx + 1] - cum[idx]))
        assert region._verts is region._verts
        assert not region._verts.flags.writeable
        assert not region._cumulative.flags.writeable
        twin = polygon(list(region.vertices))
        assert twin == region and hash(twin) == hash(region)
        assert "_verts" not in vars(region.negated())


def test_boundary_distance_matches_the_disk_formula():
    d = disk(1.0j, 2.0)
    assert boundary_distance(d, 1.0j) == pytest.approx(2.0)
    assert boundary_distance(d, 1.0j + 5.0) == pytest.approx(3.0)


def test_interior_anchor_probes_inward_when_the_centroid_is_outside():
    # the centroid of this C lies in its notch, outside the region
    c_shape = polygon([0.0, 3.0, 3.0 + 1.0j, 1.0 + 1.0j, 1.0 + 2.0j,
                       3.0 + 2.0j, 3.0 + 3.0j, 3.0j])
    anchor = interior_anchor(c_shape)
    assert anchor == 0.8 + 0.21213203435596428j
    inside, on = contains_many(c_shape, anchor)
    assert inside[0] and not on[0]


def test_polygon_rules_have_at_least_the_requested_nodes():
    # six equal edges round 512/6 nodes down to 80 each without the top-up
    hexagon = polygon([1.5 + 0.6 * np.exp(1j * np.pi * k / 3.0)
                       for k in range(6)])
    assert len(boundary_samples(hexagon, 512)) >= 512


def test_boundary_samples_integrate_cauchy_kernels():
    # sum(w) ~ contour integral of dz = 0; sum(w/(z-a)) ~ 2*pi*i inside
    for region in (disk(0.3, 1.1), rectangle((-1.0, 1.0), (-0.5, 0.5)),
                   curve({1: 1.0, -2: 0.1})):
        q = boundary_samples(region, 256)
        assert abs(q.weights.sum()) < 1e-10
        a = interior_anchor(region)
        integral = (q.weights / (q.nodes - a)).sum() / (2j * np.pi)
        assert abs(integral - 1.0) < 1e-8


def test_polygon_quadrature_is_graded_into_corners():
    q = boundary_samples(rectangle((0.0, 1.0), (0.0, 1.0)), 512)
    gap_to_corner = np.abs(q.nodes).min()
    assert gap_to_corner < 1e-4  # geometric panels pile up near the vertex
    assert gap_to_corner > 0.0
    # uniform spacing would leave the nearest node ~ perimeter / n away
    assert gap_to_corner < 0.1 * (4.0 / 512.0)


def test_random_points_fall_inside():
    rng = np.random.default_rng(3)
    for region in (disk(1.0, 0.7), polygon(L_VERTS)):
        pts = random_points(region, 200, rng)
        inside, on = contains_many(region, pts)
        assert inside.all() and not on.any()


def test_random_points_are_reproducible():
    region = rectangle((0.0, 1.0), (0.0, 2.0))
    a = random_points(region, 50, np.random.default_rng(11))
    b = random_points(region, 50, np.random.default_rng(11))
    assert np.array_equal(a, b)


def test_invalid_regions_are_rejected():
    with pytest.raises(InvalidRegionError):
        disk(0.0, -1.0)
    with pytest.raises(InvalidRegionError):
        polygon([0.0, 1.0])
    with pytest.raises(InvalidRegionError):
        rectangle((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(InvalidRegionError):
        curve({0: 1.0})
    with pytest.raises(InvalidRegionError):
        boundary_samples(disk(), 8)


@pytest.mark.parametrize("make", [
    lambda: disk(complex(np.nan, 0.0), 0.5),
    lambda: disk(complex(np.inf, 0.0), 0.5),
    lambda: disk(0.0, np.inf),
    lambda: curve({0: 4.0, 1: complex(np.nan, 0.0)}),
    lambda: polygon([0.0, 1.0, complex(np.nan, 1.0)]),
], ids=["disk_nan_center", "disk_inf_center", "disk_inf_radius",
        "curve_nan_coefficient", "polygon_nan_vertex"])
def test_non_finite_region_data_is_rejected(make):
    with pytest.raises(InvalidRegionError, match="must be finite"):
        make()


def test_polygons_whose_area_or_perimeter_overflows_are_rejected():
    # finite vertices whose shoelace area is NaN and whose perimeter is inf
    with pytest.raises(InvalidRegionError, match="overflows"):
        polygon([1e308, 1.5e308, 1.2e308 + 1e308j])
    # an edge of length inf: the area is inf
    with pytest.raises(InvalidRegionError, match="overflows"):
        polygon([-1e308, 1e308, 1e308j])


@pytest.mark.parametrize("vertices", [
    # an asymmetric bow-tie: its lobes do not cancel, so the shoelace area
    # is not zero and only the crossing gives it away
    [0.0, 2.0, 0.5 + 1.0j, 2.0 + 1.0j],
    # a pentagram, traced point to point
    [np.exp(2j * np.pi * (0.25 + 0.4 * k)) for k in range(5)],
    # a vertex touching a non-adjacent edge
    [0.0, 2.0, 2.0 + 2.0j, 1.0, 2.0j],
    # collinear non-adjacent edges that overlap
    [0.0, 3.0, 3.0 + 1.0j, 2.0, 1.0, 1.0j],
], ids=["bow_tie", "pentagram", "touching", "collinear_overlap"])
def test_self_intersecting_polygons_are_rejected(vertices):
    with pytest.raises(InvalidRegionError, match="not a simple polygon"):
        polygon(vertices)


@pytest.mark.parametrize("vertices", [
    L_VERTS,
    [1.0, 2.0, 1.5 + 1.0j],
    [1.5 + 0.6 * np.exp(1j * np.pi * k / 3.0) for k in range(6)],
    [0.3 - 1.3j, 1.3 - 1.3j, 1.3 + 1.3j, 0.3 + 1.3j],
    [-0.3 + 1.3j, -1.3 + 1.3j, -1.3 - 1.3j, -0.3 - 1.3j],
    # collinear adjacent edges: a straight angle
    [0.0, 1.0, 2.0, 2.0 + 1.0j, 1.0j],
    # collinear non-adjacent edges that do not overlap: a notch from below
    [0.0, 1.0, 1.0 + 1.0j, 2.0 + 1.0j, 2.0, 3.0, 3.0 + 2.0j, 2.0j],
], ids=["l_shape", "triangle", "hexagon", "rectangle", "mirrored_rectangle",
        "straight_angle", "notch"])
def test_simple_polygons_are_accepted(vertices):
    assert len(polygon(vertices).vertices) == len(vertices)


@given(
    cx=st.floats(-3.0, 3.0),
    cy=st.floats(-3.0, 3.0),
    r=st.floats(0.1, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_disk_invariants(cx, cy, r):
    d = disk(complex(cx, cy), r)
    assert rotation(d) == 1.0
    inside, on = contains_many(d, complex(cx, cy))
    assert inside[0] and not on[0]
    assert boundary_distance(d, complex(cx, cy)) == pytest.approx(r)
    assert interior_anchor(d) == complex(cx, cy)
