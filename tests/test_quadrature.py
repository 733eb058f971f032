"""Contour transforms against closed-form Cauchy integrals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_cauchy_boundary
from faberzol import quadrature
from faberzol.conformal import phi, psi_boundary
from faberzol.faber import build_context, eval_rn
from faberzol.geometry import (
    boundary_distance,
    boundary_samples,
    contains_many,
    curve,
    disk,
    rectangle,
)
from faberzol.quadrature import (
    _HIT_RTOL,
    _NEAR,
    _blocks,
    _kernel_blocks,
    _ldexp,
    _nodal_derivative,
    _passing,
    cauchy_kernel,
)
from faberzol.rational import BarycentricRational, bary_eval


@pytest.fixture(scope="module")
def circle():
    return boundary_samples(disk(0.0, 1.0), 256)


def _transform(values, quad, z):
    """(1/2 pi i) CauchyKernel.plain: the Cauchy transform of values at
    targets off the contour, inside or outside it."""
    return cauchy_kernel(quad, z).plain(values) / (2j * np.pi)


def test_interior_transform_reproduces_analytic_values(circle):
    z = np.array([0.2 + 0.1j, -0.4j, 0.6])
    vals = _transform(np.exp(circle.nodes), circle, z)
    assert np.abs(vals - np.exp(z)).max() < 1e-13


def test_interior_transform_of_an_exterior_pole(circle):
    # f analytic inside, so the transform is exact there too
    a = 2.0 + 1.0j
    z = np.array([0.3, -0.2 + 0.4j])
    vals = _transform(1.0 / (circle.nodes - a), circle, z)
    assert np.abs(vals - 1.0 / (z - a)).max() < 1e-13


def test_exterior_transform_kills_the_analytic_part(circle):
    z = np.array([2.0 + 1.0j, -3.0])
    assert np.abs(_transform(np.exp(circle.nodes), circle, z)).max() < 1e-13


def test_exterior_transform_keeps_the_residue(circle):
    b = 0.3j
    z = np.array([2.0 + 1.0j, -3.0])
    vals = _transform(1.0 / (circle.nodes - b), circle, z)
    assert np.abs(vals + 1.0 / (z - b)).max() < 1e-13


def test_jump_identity_across_the_contour():
    # plus and minus limits differ by the density as the offset shrinks
    z0 = np.exp(1j * np.array([0.3, 2.0, 4.5]))
    errs = []
    for eps, n in [(1e-2, 2048), (1e-3, 16384), (1e-4, 131072)]:
        q = boundary_samples(disk(0.0, 1.0), n)
        f = np.exp(q.nodes)
        jump = (_transform(f, q, z0 * (1 - eps))
                - _transform(f, q, z0 * (1 + eps)))
        errs.append(np.abs(jump - np.exp(z0)).max())
    assert errs[0] < 0.1 and errs[1] < 1e-2 and errs[2] < 1e-3
    assert errs[2] < errs[1] < errs[0]


def test_boundary_transform_at_the_nodes(circle):
    vals = np.exp(circle.nodes)
    out = cauchy_kernel(circle, circle.nodes)(vals, vals)
    assert np.abs(out - vals).max() < 1e-12


def test_boundary_transform_between_nodes(circle):
    t = np.array([0.1234, 0.5001, 0.777])
    z = disk(0.0, 1.0).boundary_point(t)
    out = cauchy_kernel(circle, z)(np.exp(circle.nodes), np.exp(z))
    assert np.abs(out - np.exp(z)).max() < 1e-12
    # the same transform outside: exp continues across the contour and
    # is kept, while a pole inside the contour is filtered out entirely
    for scale in (1.0 + 1e-6, 3.0):
        zo = scale * z
        kernel = cauchy_kernel(circle, zo)
        out = kernel(np.exp(circle.nodes), np.exp(zo))
        assert np.abs(out - np.exp(zo)).max() < 1e-12
        out = kernel(1.0 / (circle.nodes - 0.3j), 1.0 / (zo - 0.3j))
        assert np.abs(out).max() < 1e-12


def test_boundary_transform_on_panel_rules():
    # Gauss-Legendre panels: quadrature weights differ from barycentric
    # ones, so node collisions exercise the derivative correction
    box = rectangle((-1.0, 1.0), (-0.5, 0.5))
    q = boundary_samples(box, 512)
    vals = np.exp(q.nodes)
    at_nodes = cauchy_kernel(q, q.nodes[::7])(vals, vals[::7])
    assert np.abs(at_nodes - vals[::7]).max() < 1e-10


def _looped_nodal_derivative(vals, quad, j):
    """The panel-rule derivative at node j by its definition: one lstsq
    fit of a degree-8 polynomial through the 9 nodes around it."""
    sel = (j + np.arange(-4, 5)) % len(quad)
    dz = quad.nodes[sel] - quad.nodes[j]
    s = np.abs(dz).max()
    a = np.vander(dz / s, N=9, increasing=True)
    coef, *_ = np.linalg.lstsq(a, vals[sel], rcond=None)
    return coef[1] / s


@pytest.mark.parametrize("region, n_quad", [
    (disk(0.0, 1.0), 128),                       # trapezoid rule
    (rectangle((-1.0, 1.0), (-0.5, 0.5)), 512),  # Gauss-Legendre panels
])
def test_nodal_derivative_matches_exp_and_the_per_node_fit(region, n_quad):
    q = boundary_samples(region, n_quad)
    vals = np.exp(q.nodes)
    deriv = _nodal_derivative(vals, q)
    assert np.abs(deriv - vals).max() <= 1e-8 * np.abs(vals).max()
    if n_quad == 512:
        # the one batched solve (LU) agrees with a per-node lstsq fit (SVD)
        # to the rounding of the corner Vandermonde systems: both are
        # 1.4e-10 and 2.1e-10 of max|f'| from f' = exp, 9.7e-11 apart
        looped = np.array([_looped_nodal_derivative(vals, q, j)
                           for j in range(len(q))])
        assert np.abs(deriv - looped).max() <= 1e-9 * np.abs(vals).max()


@pytest.mark.parametrize("region, n_quad", [
    (disk(0.0, 1.0), 128),                       # trapezoid rule
    (rectangle((-1.0, 1.0), (-0.5, 0.5)), 256),  # Gauss-Legendre panels
])
def test_kernel_sets_its_pairs_apart_and_matches_the_transform(region, n_quad):
    q = boundary_samples(region, n_quad)
    t = np.arange(4 * n_quad) / (4 * n_quad)
    # every node is a target, once more between scan points and once off
    # the contour
    z = np.concatenate([region.boundary_point(t), q.nodes,
                        1.001 * q.nodes[::5]])
    kernel = cauchy_kernel(q, z)
    diff = q.nodes[None, :] - z[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = q.weights[None, :] / diff
    hit = np.abs(diff) <= _HIT_RTOL * q.diameter
    near = (np.abs(ratio) > _NEAR) & ~hit
    assert hit.sum() >= q.nodes.size
    for mask, rows, cols in ((hit, kernel.hit_rows, kernel.hit_cols),
                             (near, kernel.near_rows, kernel.near_cols)):
        assert np.array_equal(np.ravel_multi_index((rows, cols), mask.shape),
                              np.flatnonzero(mask))
    assert np.all(kernel.matrix[hit | near] == 0.0)
    assert np.array_equal(kernel.matrix[~(hit | near)], ratio[~(hit | near)])
    assert np.array_equal(kernel.near_diff,
                          diff[kernel.near_rows, kernel.near_cols])
    vals, f_at = np.exp(q.nodes), np.exp(z)
    ref = direct_cauchy_boundary(vals, q, z, f_at)
    assert np.abs(kernel(vals, f_at) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("region, n_quad", [
    (disk(0.0, 1.0), 128),
    (rectangle((-1.0, 1.0), (-0.5, 0.5)), 256),
])
def test_kernel_rows_and_exponents(region, n_quad):
    q = boundary_samples(region, n_quad)
    t = np.arange(2 * n_quad) / (2 * n_quad)
    # targets between nodes, on nodes (hits), near nodes and off the contour
    z = np.concatenate([region.boundary_point(t)[:40], q.nodes[:6],
                        q.nodes[:6] + 1e-9, 1.2 * q.nodes[::17]])
    kernel = cauchy_kernel(q, z)
    vals, f_at = np.exp(q.nodes), np.exp(z)
    whole = kernel(vals, f_at)
    # the exponent scales the density's products exactly where they stay
    # normal, and a density and f_at both scaled give the scaled result
    for k in (-40, 7, 0):
        assert np.array_equal(kernel(vals, f_at, k),
                              kernel(vals * 2.0 ** k, f_at))
    assert np.array_equal(kernel(vals, _ldexp(f_at, -900), -900),
                          _ldexp(whole, -900))


def _dense_kernel(quad, z):
    """(matrix, row_sums, near_rows, near_cols, near_diff, hit_rows,
    hit_cols) of the Cauchy kernel by the dense search, which tests every
    entry against the cut: the reference for cauchy_kernel's run boxes."""
    z = np.asarray(z, dtype=complex).ravel()
    tol = quadrature._HIT_RTOL * quad.diameter
    matrix = quad.nodes[None, :] - z[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(quad.weights[None, :], matrix, out=matrix)
    cut = min(_NEAR, 0.5 * quad.min_weight / tol)
    rows, cols = np.divmod(np.flatnonzero(np.abs(matrix) > cut), len(quad))
    diff = quad.nodes[cols] - z[rows]
    hit = np.abs(diff) <= tol
    near = ~hit & (np.abs(matrix[rows, cols]) > _NEAR)
    matrix[rows[hit | near], cols[hit | near]] = 0.0
    return (matrix, matrix.sum(axis=1), rows[near], cols[near], diff[near],
            rows[hit], cols[hit])


def _assert_dense_kernel(quad, z):
    kernel = cauchy_kernel(quad, z)
    got = (kernel.matrix, kernel.row_sums, kernel.near_rows,
           kernel.near_cols, kernel.near_diff, kernel.hit_rows,
           kernel.hit_cols)
    for field, expect in zip(got, _dense_kernel(quad, z)):
        assert field.shape == expect.shape
        assert np.array_equal(field, expect, equal_nan=True)
    return kernel


_README = rectangle((0.3, 1.3), (-1.3, 1.3))


KERNEL_CASES = ["disk_scan_hits", "graded_corners", "off_the_contour",
                "interior_grid", "other_boundary", "short_last_run",
                "one_target"]


@pytest.fixture(scope="module")
def kernel_cases():
    """name -> (rule, targets) for the run-box search."""
    circle = boundary_samples(disk(0.0, 1.0), 128)
    rect = boundary_samples(_README, 512)
    odd = boundary_samples(_README, 100)  # 112 nodes: a short last run
    t = np.arange(512) / 512
    corners = np.array([0.3 - 1.3j, 1.3 - 1.3j, 1.3 + 1.3j, 0.3 + 1.3j])
    # points off the contour by 1e-3 ... 1e-12 of the spacing, beside the
    # midpoints of the node gaps and beside the nodes
    mid = 0.5 * (rect.nodes + np.roll(rect.nodes, -1))[::23]
    step = np.abs(np.roll(rect.nodes, -1) - rect.nodes)[::23]
    normal = -1j * rect.weights[::23] / np.abs(rect.weights[::23])
    offsets = 10.0 ** -np.arange(3, 13)[:, None]
    off = np.concatenate([(mid + offsets * step * normal).ravel(),
                          (rect.nodes[::23] - offsets * step * normal).ravel()])
    xs, ys = np.linspace(0.2, 1.4, 40), np.linspace(-1.4, 1.4, 40)
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    return {
        # every fourth scan point is a node
        "disk_scan_hits": (circle, disk(0.0, 1.0).boundary_point(t)),
        "graded_corners": (rect, np.concatenate([
            corners, (corners[:, None] + np.array([1e-9, 1e-5j, -1e-3, 0.01j,
                      0.02 - 0.01j])).ravel(), rect.nodes[:40] + 1e-7,
            rect.nodes[:3], rect.nodes[-3:]])),
        "off_the_contour": (rect, off),
        "interior_grid": (rect, grid),
        "other_boundary": (rect, _README.negated().boundary_point(t)),
        "short_last_run": (odd, np.concatenate([
            _README.boundary_point(t), odd.nodes[-20:]])),
        "one_target": (rect, rect.nodes[7:8] + 1e-6),
    }


@pytest.mark.parametrize("dense_test", [None, 0])
@pytest.mark.parametrize("case", KERNEL_CASES)
def test_kernel_equals_the_dense_search_bit_for_bit(kernel_cases, case,
                                                    dense_test, monkeypatch):
    # dense_test 0 sends every kernel through the run boxes, one target too
    if dense_test is not None:
        monkeypatch.setattr(quadrature, "_DENSE_TEST", dense_test)
    quad, z = kernel_cases[case]
    kernel = _assert_dense_kernel(quad, z)
    if case in ("disk_scan_hits", "graded_corners"):
        assert kernel.hit_rows.size and kernel.near_rows.size


def test_targets_outside_every_run_box_yield_no_candidate(monkeypatch):
    monkeypatch.setattr(quadrature, "_DENSE_TEST", 0)
    quad = boundary_samples(_README, 512)
    cols, boxes, (lo_re, hi_re, lo_im, hi_im) = quad.runs
    # inside the rule's box but in no run's box, and outside the rule's box
    z = np.array([0.8 + 0.3j, 0.8 - 0.5j, 5.0 + 5.0j, -3.0j, np.inf, np.nan])
    for box in boxes.T:
        assert not np.any((z.real >= box[0]) & (z.real <= box[1])
                          & (z.imag >= box[2]) & (z.imag <= box[3]))
    assert ((z.real[:2] >= lo_re) & (z.real[:2] <= hi_re)
            & (z.imag[:2] >= lo_im) & (z.imag[:2] <= hi_im)).all()
    kernel = _assert_dense_kernel(quad, z)
    rows, cols = _passing(quad, z, kernel.matrix, _NEAR)
    assert rows.size == cols.size == 0


def test_a_raised_hit_radius_takes_the_dense_search(monkeypatch):
    quad = boundary_samples(_README, 512)
    monkeypatch.setattr(quadrature, "_HIT_RTOL", 1e-5)
    assert 0.5 * quad.min_weight / (1e-5 * quad.diameter) < _NEAR
    z = np.concatenate([_README.boundary_point(np.arange(300) / 300),
                        quad.nodes[::9] + 1e-6])
    kernel = _assert_dense_kernel(quad, z)
    assert kernel.hit_rows.size > quad.nodes[::9].size


def test_kernel_blocks_hold_the_budget_and_join_a_lone_row(monkeypatch):
    monkeypatch.setattr(quadrature, "_KERNEL_BLOCK", 40)
    assert _kernel_blocks(9, 10) == [slice(0, 4), slice(4, 9)]
    assert _kernel_blocks(8, 10) == [slice(0, 4), slice(4, 8)]
    assert _kernel_blocks(1, 10) == [slice(0, 1)]
    assert _kernel_blocks(3, 50) == [slice(0, 1), slice(1, 3)]
    assert _kernel_blocks(0, 10) == []
    # a lower _CHUNK caps kernel blocks too
    monkeypatch.setattr(quadrature, "_CHUNK", 20)
    assert _kernel_blocks(5, 10) == [slice(0, 2), slice(2, 5)]


def test_boundary_transform_is_the_kernel_within_one_block(circle):
    # 1000 targets by 256 nodes make 4 _kernel_blocks; the kernels of the
    # blocks give the values of the one kernel over all the targets
    z = np.concatenate([disk(0.0, 1.0).boundary_point(np.arange(900) / 900),
                        circle.nodes[::3], 1.5 * circle.nodes[:14]])
    vals, f_at = np.exp(circle.nodes), np.exp(z)
    blocks = _kernel_blocks(z.size, len(circle))
    assert len(blocks) == 4
    for transform in (lambda k, rows: k(vals, f_at[rows]),
                      lambda k, rows: k.plain(vals),
                      lambda k, rows: k.stabilized(vals)):
        blocked = np.concatenate([
            transform(cauchy_kernel(circle, z[rows]), rows)
            for rows in blocks])
        whole = transform(cauchy_kernel(circle, z), slice(None))
        assert np.array_equal(blocked, whole, equal_nan=True)


def test_stabilized_transform_near_the_boundary(circle):
    z = 0.999999 * np.exp(1j * np.array([0.7, 3.1]))
    vals = cauchy_kernel(circle, z).stabilized(np.exp(circle.nodes))
    assert np.abs(vals - np.exp(z)).max() < 1e-9


def test_stabilized_transform_takes_the_node_value_on_a_hit(circle):
    vals = np.exp(circle.nodes)
    nodes = circle.nodes[::9]
    # exactly on a node, and within the hit radius of one
    offset = 0.5 * _HIT_RTOL * circle.diameter * np.exp(0.3j)
    for z in (nodes, nodes + offset):
        got = cauchy_kernel(circle, np.append(z, 0.1 + 0.2j)).stabilized(vals)
        assert np.array_equal(got[:-1], vals[::9])
        assert abs(got[-1] - np.exp(0.1 + 0.2j)) < 1e-13


def test_stabilized_transform_matches_plain_far_away(circle):
    z = np.array([0.1 + 0.2j, -0.3j])
    a = cauchy_kernel(circle, z).stabilized(np.exp(circle.nodes))
    b = _transform(np.exp(circle.nodes), circle, z)
    assert np.abs(a - b).max() < 1e-13


def test_transforms_on_a_smooth_curve_boundary():
    region = curve({1: 1.0, 2: 0.15, -1: 0.1})
    q = boundary_samples(region, 512)
    f = 1.0 / (q.nodes - 4.0)
    z = np.array([0.05 + 0.1j])
    assert np.abs(_transform(f, q, z) - 1.0 / (z - 4.0)).max() < 1e-12


@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                           allow_infinity=False),
        min_size=1, max_size=5,
    ),
    t=st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=30, deadline=None)
def test_interior_transform_is_exact_on_polynomials(coeffs, t):
    q = boundary_samples(disk(0.0, 1.2), 128)
    z0 = 0.6 * disk(0.0, 1.0).boundary_point(np.array([t]))
    vals = np.polyval(coeffs, q.nodes)
    expect = np.polyval(coeffs, z0)
    scale = max(1.0, np.abs(vals).max())
    assert np.abs(_transform(vals, q, z0) - expect).max() < 1e-11 * scale


def test_blocks_hold_what_the_budget_allows(monkeypatch):
    monkeypatch.setattr(quadrature, "_CHUNK", 10)
    # equal costs w make blocks of floor(budget / w) items
    for w, size in ((1, 10), (3, 3), (4, 2), (10, 1)):
        assert list(_blocks(7, np.full(7, w))) == list(_blocks(7, w))
        blocks = list(_blocks(7, w))
        assert blocks == [slice(lo, min(lo + size, 7))
                          for lo in range(0, 7, size)]
    # a cap below _CHUNK sets the budget; one above it does not
    for cost in (2, np.full(4, 2)):
        assert list(_blocks(4, cost, 5)) == [slice(0, 2), slice(2, 4)]
        assert list(_blocks(4, cost, 100)) == [slice(0, 4)]
    # an item over the budget is a block of its own
    assert list(_blocks(5, np.array([4, 11, 3, 3, 5]))) == [
        slice(0, 1), slice(1, 2), slice(2, 4), slice(4, 5)]
    assert list(_blocks(0, 3)) == list(_blocks(0, np.zeros(0))) == []


def _unit_targets(shape):
    """Distinct points of the unit circle in the given shape."""
    n = int(np.prod(shape))
    return np.exp(2j * np.pi * (0.1 + np.arange(n) / (n + 1))).reshape(shape)


@pytest.fixture(scope="module")
def evaluators(circle, disk_map):
    """name -> (evaluator of unit-circle targets w, whether a scalar w
    gives an array of one element rather than a scalar)."""
    ctx = build_context(disk_map, 2, 64)
    rational = BarycentricRational([1.0, -1.0, 1.0j], [1.0, 2.0, 3.0],
                                   [1.0, -1.0, 1.0])
    regions = {"disk": disk(0.0, 1.0),
               "polygon": rectangle((-1.0, 1.0), (-1.0, 1.0)),
               "curve": curve({1: 1.0, 3: 0.05})}
    table = {
        "phi": (lambda w: phi(disk_map, 3.0 + 0.1 * w), False),
        "psi_boundary": (lambda w: psi_boundary(disk_map, w), False),
        "bary_eval": (lambda w: bary_eval(rational, 0.5 * w), False),
        "eval_rn": (lambda w: eval_rn(ctx, 1.5 * w), False),
    }
    for kind, region in regions.items():
        table[f"contains_many_{kind}"] = (
            lambda w, r=region: contains_many(r, 0.98 * w), True)
        table[f"boundary_distance_{kind}"] = (
            lambda w, r=region: boundary_distance(r, 0.5 * w), True)
    return table


EVALUATORS = ["phi", "psi_boundary", "bary_eval", "eval_rn"] + [
    f"{name}_{kind}" for name in ("contains_many", "boundary_distance")
    for kind in ("disk", "polygon", "curve")]


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=str)
@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_return_the_shape_of_their_targets(evaluators, name,
                                                      shape):
    # the flat call's values in the targets' shape; a scalar target gives
    # a scalar, or one element from membership and distances
    evaluate, one_element = evaluators[name]
    w = _unit_targets(shape)
    out, flat = evaluate(w), evaluate(w.ravel())
    pairs = zip(out, flat) if isinstance(out, tuple) else [(out, flat)]
    for got, ref in pairs:
        assert np.shape(got) == (shape or ((1,) if one_element else ()))
        assert np.array_equal(np.ravel(got), ref)
