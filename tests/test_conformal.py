import numpy as np
import pytest

from conftest import two_disk_h
from faberzol.conformal import (
    ExteriorOf,
    mobius_two_disks,
    phi,
    psi_boundary,
    solve_annulus_map,
)
from faberzol.errors import EvaluationDomainError, NotDisjointError
from faberzol.geometry import boundary_distance, disk, rectangle


def test_two_disk_closed_form(disk_map):
    assert disk_map.h == pytest.approx(two_disk_h(1.0, 0.7, -1.0, 0.7),
                                       rel=1e-12)


def test_two_disk_closed_form_off_axis():
    amap = mobius_two_disks(disk(0.3 + 0.2j, 0.5), disk(2.5 - 1.0j, 0.9))
    assert amap.h == pytest.approx(two_disk_h(0.3 + 0.2j, 0.5, 2.5 - 1.0j, 0.9),
                                   rel=1e-12)


def test_mobius_map_moduli_on_both_boundaries(disk_pair, disk_map):
    e, f = disk_pair
    t = np.linspace(0.0, 1.0, 400, endpoint=False)
    mod_e = np.abs(phi(disk_map, e.boundary_point(t)))
    mod_f = np.abs(phi(disk_map, f.boundary_point(t)))
    assert np.abs(mod_e - 1.0).max() < 1e-12
    assert np.abs(mod_f - disk_map.h).max() < 1e-10


def test_solver_agrees_with_the_closed_form(disk_amap):
    assert disk_amap.h == pytest.approx(two_disk_h(1.0, 0.7, -1.0, 0.7),
                                        rel=1e-8)
    assert disk_amap.residual <= 1e-10


def test_solver_map_moduli(rect_pair, rect_map):
    e, f = rect_pair
    t = np.linspace(0.0, 1.0, 500, endpoint=False)
    mod_e = np.abs(phi(rect_map, e.boundary_point(t)))
    mod_f = np.abs(phi(rect_map, f.boundary_point(t)))
    assert np.abs(mod_e - 1.0).max() < 1e-6
    assert np.abs(mod_f - rect_map.h).max() < 1e-6 * rect_map.h


def test_mixed_rectangle_disk_pair():
    amap = solve_annulus_map(rectangle((-2.0, -1.0), (-0.5, 0.5)),
                             disk(2.0, 0.6), tol=1e-8)
    assert amap.variant == "A1"
    assert amap.residual <= 1e-8
    t = np.linspace(0.0, 1.0, 300, endpoint=False)
    mod_e = np.abs(phi(amap, amap.region_e.boundary_point(t)))
    assert np.abs(mod_e - 1.0).max() < 1e-6
    # w = 1 lands on a node of psi_boundary's angle table, where rounding
    # can leave both bracket ends with one sign
    for w in (1.0, amap.h):
        z = psi_boundary(amap, w)
        region = amap.region_e if w == 1.0 else amap.region_f
        assert boundary_distance(region, z) < 1e-12
        assert abs(phi(amap, np.array([z]))[0] - w) < 1e-6 * abs(w)


def test_concentric_exterior_variant():
    # annulus 1 < |z| < 2 maps to itself, so h is the radius ratio
    amap = solve_annulus_map(disk(0.0, 1.0), ExteriorOf(disk(0.0, 2.0)),
                             tol=1e-8)
    assert amap.variant == "A2"
    assert amap.h == pytest.approx(2.0, rel=1e-8)


def test_inverse_map_roundtrip_on_the_inner_circle(disk_amap, disk_pair):
    e, _ = disk_pair
    for t in (0.05, 0.3, 0.62, 0.9):
        w = np.exp(2j * np.pi * t)
        z = psi_boundary(disk_amap, w)
        # psi lands on the E boundary and phi undoes it
        assert abs(abs(z - 1.0) - 0.7) < 1e-6
        assert abs(phi(disk_amap, np.array([z]))[0] - w) < 1e-5


def test_inverse_map_roundtrip_on_the_outer_circle(disk_amap):
    w = disk_amap.h * np.exp(2j * np.pi * 0.17)
    z = psi_boundary(disk_amap, w)
    assert abs(abs(z + 1.0) - 0.7) < 1e-6


def test_vectorised_psi_boundary_equals_single_calls(disk_amap, disk_map):
    roots = np.exp(2j * np.pi * np.arange(6) / 6)
    for amap in (disk_amap, disk_map):
        for w in (roots, amap.h * roots):
            single = np.array([psi_boundary(amap, wi) for wi in w])
            assert np.array_equal(psi_boundary(amap, w), single)
    with pytest.raises(EvaluationDomainError):
        psi_boundary(disk_amap, np.array([1.0, disk_amap.h]))


def test_far_field_modulus_is_sqrt_h_for_mirrored_pairs(disk_map):
    # by symmetry the point at infinity sits halfway through the annulus
    far = 1e8 * np.exp(1j * np.array([0.1, 2.0, 4.0]))
    mod = np.abs(phi(disk_map, far))
    assert np.abs(mod - np.sqrt(disk_map.h)).max() < 1e-6


def test_overlapping_pairs_are_rejected():
    with pytest.raises(NotDisjointError):
        mobius_two_disks(disk(0.0, 1.0), disk(0.5, 1.0))
    with pytest.raises(NotDisjointError):
        solve_annulus_map(rectangle((0.0, 1.0), (0.0, 1.0)),
                          rectangle((0.5, 1.5), (0.0, 1.0)))


def test_h_exceeds_one_for_disjoint_pairs(disk_map, rect_map):
    assert disk_map.h > 1.0
    assert rect_map.h > 1.0
