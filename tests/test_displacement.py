"""Structured matrices, their displacement equations, and the node-disk h."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faberzol.displacement import (
    cauchy_matrix,
    singular_value_bounds,
    singular_values,
    vandermonde_h,
    vandermonde_matrix,
)
from faberzol.errors import InvalidRegionError
from faberzol.geometry import disk, random_points


def test_cauchy_entries_and_shape():
    x = np.array([1.0, 2.0, 3.0 + 1.0j])
    y = np.array([-1.0, -2.0])
    cm = cauchy_matrix(x, y)
    assert cm.shape == (3, 2)
    assert cm[0, 0] == pytest.approx(1.0 / 2.0)


def test_cauchy_displacement_has_rank_one():
    rng = np.random.default_rng(2)
    x = random_points(disk(1.0, 0.7), 40, rng)
    y = random_points(disk(-1.0, 0.7), 40, rng)
    c = np.asarray(cauchy_matrix(x, y))
    resid = np.diag(x) @ c - c @ np.diag(y)
    s = np.linalg.svd(resid, compute_uv=False)
    assert s[1] / s[0] < 1e-12


def test_vandermonde_displacement_has_rank_one():
    rng = np.random.default_rng(4)
    alpha = random_points(disk(0.2 + 0.1j, 0.4), 30, rng)
    v = np.asarray(vandermonde_matrix(alpha, 20))
    q = np.zeros((20, 20))
    q[0, -1] = 1.0
    q[1:, :-1] = np.eye(19)
    resid = np.diag(alpha) @ v - v @ q
    s = np.linalg.svd(resid, compute_uv=False)
    assert s[1] / s[0] < 1e-12


def test_node_collisions_are_rejected():
    with pytest.raises(ValueError):
        cauchy_matrix(np.array([1.0, 1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        cauchy_matrix(np.array([1.0]), np.array([1.0, 3.0]))
    with pytest.raises(ValueError):
        vandermonde_matrix(np.array([0.1, 0.1, 0.2]), 4)


def test_node_disk_h_frozen_value():
    # reference value computed from the closed form by hand
    assert vandermonde_h((2.0 + 1.0j) / 10.0, 0.4) == pytest.approx(
        2.3493504301605315, rel=1e-12
    )


def test_node_disk_h_centered_case():
    assert vandermonde_h(0.0, 0.25) == pytest.approx(4.0)
    # tiny offsets stay continuous with the centered formula
    assert vandermonde_h(1e-9, 0.25) == pytest.approx(4.0, rel=1e-6)


def test_node_disk_h_degrades_toward_the_unit_circle():
    # as the disk approaches the unit circle, separation is lost
    assert vandermonde_h(0.0, 1.0 - 1e-6) == pytest.approx(1.0, abs=1e-3)


def test_node_disk_h_rejections():
    with pytest.raises(InvalidRegionError):
        vandermonde_h(0.5, 0.0)
    with pytest.raises(InvalidRegionError):
        vandermonde_h(0.5, -0.1)
    with pytest.raises(InvalidRegionError):
        vandermonde_h(0.7, 0.4)  # pokes out of the unit disk


def test_singular_value_bound_scaling():
    zj = [1.0, 0.1, 0.01]
    out = singular_value_bounds(zj, 5.0)
    assert np.allclose(out, [5.0, 0.5, 0.05])
    with pytest.raises(ValueError):
        singular_value_bounds([2.0, 0.1], 1.0)


def test_singular_values_match_lapack():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
    sv = singular_values(mat, 8)
    assert np.allclose(sv, np.linalg.svd(mat, compute_uv=False))
    with pytest.raises(ValueError):
        singular_values(np.array([[np.inf, 0.0], [0.0, 1.0]]), 2)
    with pytest.raises(ValueError):
        singular_values(mat, 0)


def _sketch_matches_dense(mat, count):
    # each value within half the rounding floor max(m, p) eps sigma_1 of
    # the dense SVD; all of them, bit for bit, once count >= min(m, p)
    dense = np.linalg.svd(mat, compute_uv=False)
    sv = singular_values(mat, count)
    if count >= min(mat.shape):
        assert np.array_equal(sv, dense)
        return
    assert sv.shape == (count,)
    floor = 0.5 * max(mat.shape) * np.finfo(float).eps * dense[0]
    assert np.all(np.abs(sv - dense[:count]) <= floor)


@given(
    gap=st.floats(0.01, 4.0),
    m=st.integers(20, 120),
    p=st.integers(20, 120),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(gap=0.01, m=30, p=30, count=1, seed=0)  # sketches fail: dense SVD
@example(gap=4.0, m=120, p=120, count=18, seed=0)
@settings(max_examples=60, deadline=None)
def test_sketched_cauchy_singular_values_match_the_dense_svd(gap, m, p,
                                                             count, seed):
    # unit disks from near-touching to far apart
    rng = np.random.default_rng(seed)
    x = random_points(disk(-1.0 - gap / 2.0, 1.0), m, rng)
    y = random_points(disk(1.0 + gap / 2.0, 1.0), p, rng)
    _sketch_matches_dense(cauchy_matrix(x, y), count)


@given(
    r=st.floats(0.0, 0.5),
    angle=st.floats(0.0, 2.0 * np.pi),
    eta=st.floats(0.05, 0.45),
    m=st.integers(20, 120),
    p=st.integers(20, 120),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_sketched_vandermonde_singular_values_match_the_dense_svd(
        r, angle, eta, m, p, count, seed):
    nodes = random_points(disk(r * np.exp(1j * angle), eta), m,
                          np.random.default_rng(seed))
    _sketch_matches_dense(vandermonde_matrix(nodes, p), count)


@given(
    re=st.floats(-0.4, 0.4),
    im=st.floats(-0.4, 0.4),
    eta=st.floats(0.05, 0.4),
)
@settings(max_examples=60, deadline=None)
def test_node_disk_h_exceeds_one_inside(re, im, eta):
    z0 = complex(re, im)
    if abs(z0) + eta >= 0.999:
        return
    h = vandermonde_h(z0, eta)
    assert h > 1.0
    # shrinking the disk can only improve the separation
    assert vandermonde_h(z0, eta / 2.0) >= h - 1e-12
