import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faberzol
from conftest import random_disk_pair, two_disk_h
from faberzol import conformal
from faberzol.conformal import (
    ExteriorOf,
    mobius_two_disks,
    phi,
    psi_boundary,
    solve_annulus_map,
)
from faberzol.errors import (
    EvaluationDomainError,
    MapNotResolvedError,
    NotDisjointError,
)
from faberzol.geometry import (
    boundary_distance,
    contains_many,
    curve,
    disk,
    polygon,
    rectangle,
)


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
    # w = 1 lands on a node of psi_boundary's angle table: the search
    # starts from the table's own value at the bracket end there
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


def test_vectorised_psi_boundary_equals_single_calls(disk_amap, disk_map,
                                                     rect_map):
    # each root of the lockstep is that of its own one-lane search
    roots = np.exp(2j * np.pi * np.arange(6) / 6)
    for amap in (disk_amap, disk_map, rect_map, _batch_map("rect_disk")):
        for w in (roots, amap.h * roots):
            single = np.array([psi_boundary(amap, wi) for wi in w])
            assert np.array_equal(psi_boundary(amap, w), single)
    with pytest.raises(EvaluationDomainError):
        psi_boundary(disk_amap, np.array([1.0, disk_amap.h]))


def test_psi_boundary_of_no_points_is_an_empty_complex_array(disk_map):
    for w in (np.array([]), np.empty((0, 3))):
        z = psi_boundary(disk_map, w)
        assert z.dtype == complex and z.shape == w.shape


@functools.cache
def _batch_map(name):
    return solve_annulus_map(*AUDIT_PAIRS[name][0](), tol=1e-8)


@pytest.mark.parametrize("name", ["readme", "hexagons", "rect_disk",
                                  "disk_curve", "rect_in_exterior",
                                  "far_disks"])
def test_batched_values_equal_one_point_calls(name):
    # the lockstep searches rely on it: in any batch, boundary_point, phi
    # and psi_boundary's angle gap give each point its one-point value
    amap = _batch_map(name)
    rng = np.random.default_rng(7)
    for region in (amap.region_e, conformal.boundary_region(amap.region_f)):
        for size in (1, 2, *rng.integers(1, 61, 6)):
            t = rng.uniform(0.0, 1.0, size)
            w = np.exp(2j * math.pi * rng.uniform(0.0, 1.0, size))
            z = region.boundary_point(t)
            vals = phi(amap, z)
            gap = conformal._angle_gap(vals, w)
            for i in range(size):
                zi = region.boundary_point(t[i:i + 1])
                vi = phi(amap, zi)
                assert zi[0] == z[i] and vi[0] == vals[i]
                assert conformal._angle_gap(vi, w[i:i + 1])[0] == gap[i]


@pytest.mark.parametrize("name", ["readme", "hexagons", "rect_in_exterior"])
def test_fused_g_is_the_columns_times_the_coefficients(name):
    # g, which builds no columns, is the columns times the coefficients
    # to a few eps of the sum of the terms' moduli
    amap = _batch_map(name)
    basis = amap.basis
    t = np.linspace(0.0, 1.0, 500, endpoint=False)
    z = np.concatenate([amap.region_e.boundary_point(t),
                        conformal.boundary_region(amap.region_f)
                        .boundary_point(t)])
    cols = basis.columns(z)
    terms = np.abs(cols) @ np.abs(amap.coef)
    error = np.abs(basis.g(amap.coef, z) - cols @ amap.coef)
    assert np.all(error <= 64.0 * np.finfo(float).eps * terms)


def _off_boundaries(amap, margin=0.2):
    """Points of a grid in the domain of amap at least margin from both
    boundaries."""
    x = np.linspace(-5.0, 5.0, 41)
    z = (x[:, None] + 1j * x).ravel()
    f_inner = conformal.boundary_region(amap.region_f)
    in_e, _ = contains_many(amap.region_e, z)
    in_f, _ = contains_many(f_inner, z)
    keep = ~in_e & (in_f == (amap.variant == "A2"))
    for region in (amap.region_e, f_inner):
        keep &= boundary_distance(region, z) >= margin
    return z[keep]


def test_dlog_phi_of_the_two_disk_map_is_that_of_its_mobius_form(disk_map):
    z = _off_boundaries(disk_map)
    p, q = disk_map.basis.anchor_e, disk_map.basis.anchor_f
    expect = 1.0 / (z - p) - 1.0 / (z - q)
    scale = np.abs(1.0 / (z - p)) + np.abs(1.0 / (z - q))
    error = np.abs(conformal.dlog_phi(disk_map, z) - expect)
    assert np.all(error <= 4.0 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("name", ["readme", "hexagons", "rect_disk",
                                  "disk_curve", "rect_in_exterior"])
def test_dlog_phi_agrees_with_a_central_difference(name):
    # fourth order at step s: the truncation error is about (s/0.2)^4 at
    # 0.2 off the boundaries, beyond which the singularities lie
    amap = _batch_map(name)
    z = _off_boundaries(amap)
    s = 1e-3
    slope = (8.0 * (phi(amap, z + s) - phi(amap, z - s))
             - phi(amap, z + 2.0 * s) + phi(amap, z - 2.0 * s)) / (12.0 * s)
    exact = conformal.dlog_phi(amap, z)
    assert np.all(np.abs(slope / phi(amap, z) - exact)
                  <= 1e-8 * np.abs(exact))


def test_psi_boundary_names_the_table_check_that_failed(disk_pair):
    amap = mobius_two_disks(*disk_pair)
    flat = np.ones(conformal._PSI_TABLE + 1, dtype=complex)
    amap.__dict__["_psi_tables"] = (flat, flat)
    with pytest.raises(EvaluationDomainError,
                       match="arg Phi on the table does not wind once"):
        psi_boundary(amap, 1.0)
    # a table that winds once in steps of 100 degrees: w at 5 degrees is
    # more than 90 degrees from one end of (0, 100) and on one side of
    # both ends of (300, 360); w at 50 degrees is bracketed by (0, 100)
    coarse = np.exp(1j * np.deg2rad([0.0, 100.0, 200.0, 300.0, 360.0]))
    amap.__dict__["_psi_tables"] = (coarse, coarse)
    with pytest.raises(EvaluationDomainError,
                       match="no table interval brackets arg w"):
        psi_boundary(amap, np.exp(1j * np.deg2rad([5.0, 50.0])))


def test_far_field_modulus_is_sqrt_h_for_mirrored_pairs(disk_map):
    # by symmetry the point at infinity sits halfway through the annulus
    far = 1e8 * np.exp(1j * np.array([0.1, 2.0, 4.0]))
    mod = np.abs(phi(disk_map, far))
    assert np.abs(mod - np.sqrt(disk_map.h)).max() < 1e-6


def _two_disk_closed_form(e, f):
    """(p, q, t) of the exact two-disk map Phi(z) = (z - p)/(t (z - q)):
    p and q are the limit points of the circle pencil, and t makes
    Phi = 1 at the point of the E circle farthest from F."""
    d = abs(f.center - e.center)
    u = (f.center - e.center) / d
    b = d * d + e.radius**2 - f.radius**2
    root = math.sqrt(b * b - 4.0 * d * d * e.radius**2)
    p = e.center + (b - root) / (2.0 * d) * u
    q = e.center + (b + root) / (2.0 * d) * u
    z = e.center - e.radius * u
    return p, q, (z - p) / (z - q)


def test_two_disk_map_matches_its_closed_form_and_inverse():
    rng = np.random.default_rng(20260815)
    t9 = np.arange(9) / 9.0
    for _ in range(20):
        e, f = random_disk_pair(rng)
        amap = mobius_two_disks(e, f)
        p, q, t = _two_disk_closed_form(e, f)

        # Phi on both circles and at domain points outside both disks
        cloud = e.center + 6.0 * (f.center - e.center) * (
            rng.uniform(-1.0, 1.0, 400) + 1j * rng.uniform(-1.0, 1.0, 400))
        outside = ((np.abs(cloud - e.center) > e.radius)
                   & (np.abs(cloud - f.center) > f.radius))
        s = np.linspace(0.0, 1.0, 64, endpoint=False)
        z = np.concatenate([e.boundary_point(s), f.boundary_point(s),
                            cloud[outside]])
        exact = (z - p) / (t * (z - q))
        assert (np.abs(phi(amap, z) - exact) / np.abs(exact)).max() <= 1e-13

        # psi_boundary at 9 points per circle against (p - t q w)/(1 - t w)
        scale = max(e.radius, f.radius)
        for w in (np.exp(2j * np.pi * t9), amap.h * np.exp(2j * np.pi * t9)):
            inverse = (p - t * q * w) / (1.0 - t * w)
            assert np.abs(psi_boundary(amap, w) - inverse).max() <= 1e-13 * scale


def test_overlapping_pairs_are_rejected():
    with pytest.raises(NotDisjointError):
        mobius_two_disks(disk(0.0, 1.0), disk(0.5, 1.0))
    with pytest.raises(NotDisjointError):
        solve_annulus_map(rectangle((0.0, 1.0), (0.0, 1.0)),
                          rectangle((0.5, 1.5), (0.0, 1.0)))


def test_h_exceeds_one_for_disjoint_pairs(disk_map, rect_map):
    assert disk_map.h > 1.0
    assert rect_map.h > 1.0


def _mirrored(re, im):
    e = rectangle(re, im)
    return e, e.negated()


def _hexagons():
    hexagon = [1.5 + 0.6 * np.exp(1j * math.pi * k / 3.0) for k in range(6)]
    return polygon(hexagon), polygon([-v for v in hexagon])


def _random_pair(seed):
    return random_disk_pair(np.random.default_rng(seed))


def _seeded_pair(kind, seed):
    """A seeded symmetric pair: a rectangle on the real axis, with sides
    0.4-1.4 and a gap 0.3-1.2 to the imaginary axis, against its negation
    ("mirror") or against a disk on the axis ("rect_disk")."""
    rng = np.random.default_rng(seed)
    width, height = rng.uniform(0.4, 1.4, 2)
    gap = rng.uniform(0.3, 1.2)
    e = rectangle((-gap - width, -gap), (-height / 2.0, height / 2.0))
    if kind == "mirror":
        return e, e.negated()
    radius = rng.uniform(0.3, 0.8)
    return e, disk(gap + rng.uniform(0.2, 1.0) + radius, radius)


ALL_TOLS = (1e-8, 1e-9, 1e-10)
# The pairs of the tier-1 tests, the fixed pairs of the benchmark zoo and
# three random disk pairs, with the tols each ladder is audited at.  Below
# 1e-8 the mirrored rectangles and the hexagons climb to degree 128 with
# solved steps, minutes of reference solves, so they are audited at the
# default tol only; so are the triangle and the L-shape, whose floors stay
# above 1e-7 and so skip the same steps at every tol.
AUDIT_PAIRS = {
    "disks": (lambda: (disk(1.0, 0.7), disk(-1.0, 0.7)), ALL_TOLS),
    "far_disks": (lambda: (disk(3.0, 0.5), disk(-3.0, 0.5)), ALL_TOLS),
    "random0": (lambda: _random_pair(1), ALL_TOLS),
    "random1": (lambda: _random_pair(2), ALL_TOLS),
    "random2": (lambda: _random_pair(3), ALL_TOLS),
    "disk_curve": (lambda: (disk(0.0, 1.0), curve({0: 4.0, 1: 0.8})),
                   ALL_TOLS),
    "disk_in_exterior": (lambda: (disk(0.0, 1.0), ExteriorOf(disk(0.0, 2.0))),
                         ALL_TOLS),
    "rect_in_exterior": (lambda: (rectangle((-0.8, 0.8), (-0.6, 0.6)),
                                  ExteriorOf(disk(0.0, 2.0))), ALL_TOLS),
    "rect_disk": (lambda: (rectangle((-2.0, -1.0), (-0.5, 0.5)),
                           disk(2.0, 0.6)), ALL_TOLS),
    "triangle_disk": (lambda: (polygon([1.0, 2.0, 1.5 + 1.0j]),
                               disk(-1.5, 0.5)), (1e-8,)),
    "lshape_disk": (lambda: (polygon([0.0, 2.0, 2.0 + 1.0j, 1.0 + 1.0j,
                                      1.0 + 2.0j, 2.0j]), disk(5.0, 0.5)),
                    (1e-8,)),
    "readme": (lambda: _mirrored((0.3, 1.3), (-1.3, 1.3)), (1e-8,)),
    "short_rects": (lambda: _mirrored((0.3, 1.3), (-0.5, 0.5)), (1e-8,)),
    "mirror045": (lambda: _mirrored((-0.85, -0.05), (-0.6, 0.6)), (1e-8,)),
    "mirror060": (lambda: _mirrored((-1.0, -0.2), (-0.6, 0.6)), (1e-8,)),
    "mirror100": (lambda: _mirrored((-1.4, -0.6), (-0.6, 0.6)), (1e-8,)),
    "mirror300": (lambda: _mirrored((-3.4, -2.6), (-0.6, 0.6)), (1e-8,)),
    "hexagons": (_hexagons, (1e-8,)),
    # short_rects and rect_in_exterior moved off the axes: the same
    # geometry without its symmetry, so its ladder solves the full system
    "short_rects_shifted": (lambda: (rectangle((0.3, 1.3), (0.0, 1.0)),
                                     rectangle((-1.3, -0.3), (0.0, 1.0))),
                            (1e-8,)),
    "rect_in_exterior_shifted": (
        lambda: (rectangle((-0.6, 1.0), (-0.4, 0.8)),
                 ExteriorOf(disk(0.2 + 0.2j, 2.0))), (1e-8,)),
    "seeded_mirror0": (lambda: _seeded_pair("mirror", 0), (1e-8,)),
    "seeded_mirror1": (lambda: _seeded_pair("mirror", 1), (1e-8,)),
    "seeded_rect_disk0": (lambda: _seeded_pair("rect_disk", 0), ALL_TOLS),
    "seeded_rect_disk1": (lambda: _seeded_pair("rect_disk", 1), ALL_TOLS),
}


def _reference(system, region_e, f_inner, basis):
    """(coef, level, residual, rank) of one np.linalg.lstsq call on a
    system of basis, validated like the solver."""
    a, b, scale = system[:3]
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    coef, level = conformal._coef_level(x, scale, basis)
    residual = conformal._map_residual(region_e, f_inner, basis, coef, level)
    return coef, level, residual, int(rank)


def _ladder_audit(names):
    """Every ladder step of the AUDIT_PAIRS solves of names, against a
    reference step solved in one np.linalg.lstsq call and validated like
    the solver.

    Returns {pair: [step record]}.  A step record holds the tol, degree,
    symmetry and system shape, whether the step was skipped, its certified
    floor, and the reference's residual and rank.  A solved step also
    records the condition bound that picked its path, whether the solver
    took the SVD path, whether its coef and level equal the reference bit
    for bit, |h/h_ref - 1| and, off the SVD path, its own validated
    residual.  A step of a symmetric pair, which solved its symmetric
    subspace, also records a second reference: one lstsq of the full
    system of the same basis (_dense_level_system), its residual, rank and
    column count and, when the step was solved, |h/h_full - 1|.
    """
    level_system, solve_level = conformal._level_system, conformal._solve_level
    systems, steps = {}, []

    def recorded_system(region_e, f_inner, basis):
        a, b, scale, mass = level_system(region_e, f_inner, basis)
        systems[basis.degree] = (a.copy(order="F"), b.copy(), scale.copy())
        return a, b, scale, mass

    def recorded_solve(*args):
        out = solve_level(*args)
        steps.append((args, out))
        return out

    conformal._level_system = recorded_system
    conformal._solve_level = recorded_solve
    report = {}
    try:
        for name in names:
            region_e, region_f = AUDIT_PAIRS[name][0]()
            systems.clear()
            references, full_references = {}, {}
            report[name] = []
            for tol in AUDIT_PAIRS[name][1]:
                steps.clear()
                try:
                    solve_annulus_map(region_e, region_f, tol=tol)
                except MapNotResolvedError:
                    pass
                for args, out in steps:
                    rows, columns, floor, condition, svd, solution = out
                    e, f_inner, _, basis, _, _, degree, _ = args
                    if degree not in references:
                        references[degree] = _reference(
                            systems[degree], e, f_inner, basis)
                    coef, level, residual, rank = references[degree]
                    record = {
                        "tol": tol, "degree": degree, "rows": rows,
                        "columns": columns, "symmetry": basis.symmetry,
                        "skipped": solution is None, "floor": floor,
                        "reference": residual, "reference_rank": rank,
                    }
                    report[name].append(record)
                    if basis.symmetry:
                        if degree not in full_references:
                            full = dataclasses.replace(basis, symmetry="")
                            system = _dense_level_system(e, f_inner, full)
                            full_references[degree] = (
                                system[0].shape[1],
                                _reference(system, e, f_inner, full))
                        full_columns, (_, full_level, full_residual,
                                       full_rank) = full_references[degree]
                        record.update(full_reference=full_residual,
                                      full_rank=full_rank,
                                      full_columns=full_columns)
                        if solution is not None:
                            record["full_h_rel"] = abs(
                                math.expm1(solution[1] - full_level))
                    if solution is None:
                        continue
                    record.update(
                        condition=condition, svd=svd,
                        bitwise=bool(np.array_equal(solution[0], coef)
                                     and solution[1] == level),
                        h_rel=abs(math.expm1(solution[1] - level)),
                        residual=None if svd else conformal._map_residual(
                            e, f_inner, basis, *solution),
                    )
    finally:
        conformal._level_system = level_system
        conformal._solve_level = solve_level
    return report


# The audit's pairs in two halves of about equal cost, each run in its own
# subprocess: at one BLAS thread, each half takes about 16 s when run
# alone.  Per pair: L-shape 3.7 s, README 2.8 s, seeded_mirror1 2.5 s,
# rect_disk 2.3 s, rect_in_exterior 2.2 s, seeded_rect_disk1 and
# short_rects_shifted 2.1 s, hexagons 2.0 s, seeded_rect_disk0 1.9 s, the
# mirror pairs, short_rects and seeded_mirror0 1.4-1.6 s each, triangle
# 1.0 s, rect_in_exterior_shifted 0.7 s, the rest 0.2 s together.  Most of
# it is the references: each step of a symmetric pair is also checked
# against one lstsq of the full system of its basis.
_AUDIT_HALVES = (
    ("lshape_disk", "rect_disk", "seeded_mirror1", "short_rects_shifted",
     "mirror045", "seeded_mirror0", "mirror060", "triangle_disk"),
    ("readme", "rect_in_exterior", "seeded_rect_disk0", "hexagons",
     "seeded_rect_disk1", "short_rects", "mirror100", "mirror300",
     "rect_in_exterior_shifted", "disk_curve", "disks", "far_disks",
     "random0", "random1", "random2", "disk_in_exterior"),
)


@pytest.fixture(scope="module")
def ladder_audit():
    # One BLAS thread in each subprocess: threaded OpenBLAS builds split
    # the QR differently, so the SVD path equals the one-call solve bit for
    # bit only there.  The two halves run at once, one per core.
    src = Path(faberzol.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    code = ("import json, sys, test_conformal; "
            "print(json.dumps(test_conformal._ladder_audit(sys.argv[1:])))")
    workers = [subprocess.Popen([sys.executable, "-c", code, *half], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
               for half in _AUDIT_HALVES]
    report = {}
    try:
        for worker in workers:
            out, err = worker.communicate(timeout=900)
            assert worker.returncode == 0, err
            report.update(json.loads(out))
    finally:
        for worker in workers:
            worker.kill()
            worker.wait()
    return report


@pytest.mark.parametrize("name", sorted(AUDIT_PAIRS))
def test_skipped_steps_fail_and_solved_steps_match_one_lstsq(ladder_audit,
                                                             name):
    records = ladder_audit[name]
    assert {r["tol"] for r in records} == set(AUDIT_PAIRS[name][1])
    for r in records:
        # the floor is a certified lower bound on the validated residual
        assert r["floor"] <= r["reference"], r
        if not r["skipped"]:
            # one rule picks the path: the bound against half the cut-off
            assert r["svd"] == (r["condition"] > 0.5 * _cutoff(r)), r
        if r["skipped"]:
            assert r["floor"] > r["tol"] and r["reference"] > r["tol"], r
        elif r["svd"]:
            assert r["bitwise"], r
        else:
            # back substitution: gelsd truncated nothing on this system,
            # and the step passes or fails tol exactly as the reference
            assert r["reference_rank"] == r["columns"], r
            assert (r["residual"] <= r["tol"]) == (r["reference"] <= r["tol"]), r
            assert r["h_rel"] <= 1e-12, r
        if r["symmetry"]:
            # the step solved its symmetric subspace: it passes or fails
            # tol as one lstsq of the full system of its basis does, and a
            # solved step has that h, to 1e-10 where the full system is
            # rank-deficient (README at degree 32: 3.3e-12)
            passes = not r["skipped"] and (
                r["reference"] if r["svd"] else r["residual"]) <= r["tol"]
            assert passes == (r["full_reference"] <= r["tol"]), r
            if not r["skipped"]:
                full_rank = r["full_rank"] == r["full_columns"]
                assert r["full_h_rel"] <= (1e-12 if full_rank else 1e-10), r


def test_rank_deficient_readme_step_takes_the_svd_path(ladder_audit):
    # the one rank-deficient step of the audit keeps the bitwise branch
    # covered: back substitution there misses tol
    [step] = [r for r in ladder_audit["readme"] if r["degree"] == 32]
    assert step["reference_rank"] < step["columns"], step
    assert step["svd"] and step["bitwise"], step


def _cutoff(step):
    """gelsd's cut-off 1/rcond for the condition number of a step."""
    return 1.0 / (conformal._EPS * max(step["rows"], step["columns"]))


def test_full_rank_rect_disk_step_is_cleared_by_the_frobenius_bound(
        ladder_audit, monkeypatch):
    # ||R||_F ||R^-1||_F, a bound on kappa_2, of rect_disk at degree 16 is
    # within half the cut-off: the step is back-substituted, and gelsd
    # would have kept every singular value
    [step] = [r for r in ladder_audit["rect_disk"]
              if r["degree"] == 16 and not r["skipped"]]
    assert not step["svd"], step
    assert step["reference_rank"] == step["columns"], step
    assert step["h_rel"] <= 1e-12, step

    solved = {}
    solve_level = conformal._solve_level

    def recorded(*args):
        solved[args[6]] = args
        return solve_level(*args)

    monkeypatch.setattr(conformal, "_solve_level", recorded)
    solve_annulus_map(*AUDIT_PAIRS["rect_disk"][0]())
    region_e, f_inner, _, basis, *_ = solved[16]
    assert basis.symmetry == "conjugation"
    a, *_ = conformal._level_system(region_e, f_inner, basis)
    r = np.linalg.qr(a, mode="r")
    bound = np.linalg.norm(r) * np.linalg.norm(np.linalg.inv(r))
    assert bound <= 0.5 * _cutoff(step)


@pytest.mark.parametrize("name, degree", [("short_rects_shifted", 16),
                                          ("rect_in_exterior_shifted", 32)])
def test_steps_the_bound_cannot_clear_keep_the_svd_path(ladder_audit, name,
                                                        degree):
    # steps whose Frobenius bound exceeds half the cut-off, by a factor
    # of 1.09 and 3.5: the bitwise SVD solve stays.  On the axes these
    # pairs solve their symmetric subspace, where both steps are
    # back-substituted, so the witnesses are moved off them
    steps = [r for r in ladder_audit[name]
             if r["degree"] == degree and not r["skipped"]]
    assert steps
    for step in steps:
        assert step["condition"] > 0.5 * _cutoff(step), step
        assert step["svd"] and step["bitwise"], step


def test_condition_bound_picks_the_solve_by_one_rule():
    # the rule of _solve_level: back substitution only where the bound is
    # within half the cut-off 1/rcond
    rcond = 1e-12

    def svd(r):
        return not conformal._condition_bound(r) <= 0.5 / rcond

    # sqrt(3) sqrt(3), 3 to rounding
    assert conformal._condition_bound(np.eye(3)) == pytest.approx(3.0)
    assert not svd(np.eye(3))
    # a 1e-13 pivot: the bound is above 1e13, past half the cut-off
    assert svd(np.diag([1.0, 1.0, 1e-13]))
    # an exact zero on the diagonal: dtrtri reports it, and the step takes
    # the SVD path instead of raising
    singular = np.triu(np.ones((3, 3)))
    singular[2, 2] = 0.0
    assert conformal._condition_bound(singular) == math.inf
    assert svd(singular)


class _LadderStop(Exception):
    pass


def _ladder_system_args(name, degree, monkeypatch):
    """(region_e, f_inner, basis) of the ladder step of degree of the
    AUDIT_PAIRS pair name; the steps below it are skipped unsolved."""
    return _pair_system_args(AUDIT_PAIRS[name][0](), degree, monkeypatch)


def _pair_system_args(pair, degree, monkeypatch):
    """_ladder_system_args of the pair (region_e, region_f)."""
    seen = {}

    def record(region_e, f_inner, variant, basis, anchor_e, anchor_f, step,
               tol):
        if step == degree:
            seen["args"] = (region_e, f_inner, basis)
            raise _LadderStop
        return 0, 0, math.inf, None, None, None

    monkeypatch.setattr(conformal, "_solve_level", record)
    with pytest.raises(_LadderStop):
        solve_annulus_map(*pair)
    monkeypatch.undo()
    return seen["args"]


def _solver_sides(region_e, f_inner, basis):
    """(points, sqrt(spacing) weights, on F) of the solver points of each
    boundary."""
    sides = []
    for region, f_side in ((region_e, False), (f_inner, True)):
        params = conformal._solver_params(region, basis.degree)
        sides.append((region.boundary_point(params),
                      np.sqrt(conformal._param_spacing(params)), f_side))
    return sides


def _dense_level_system(region_e, f_inner, basis):
    """_level_system's definition: every column of both sides at once, the
    real matrix in C order, np.linalg.norm column scales."""
    sides = _solver_sides(region_e, f_inner, basis)
    pts = np.concatenate([z for z, _, _ in sides])
    w = np.concatenate([w for _, w, _ in sides])
    f_side = np.concatenate([np.full(z.size, on_f) for z, _, on_f in sides])
    cols = basis.columns(pts)
    rhs = -basis.log_abs_base(pts)

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


def _kept_sides(region_e, f_inner, basis):
    """The rows the symmetric subspace of basis keeps, as (points, weights,
    on F, count) per side: the E solver points only under negation, those
    at or above the real axis under conjugation (a point within
    conformal._axis_band of it is on it).  count is the number of
    full-system points a kept point stands for: 2 for negation, times 2
    off the axis for conjugation."""
    negation = basis.negated is not None
    sides = []
    for z, w, on_f in _solver_sides(region_e, f_inner, basis):
        if on_f and negation:
            continue
        count = np.full(z.size, 2.0 if negation else 1.0)
        if basis.conjugated is not None:
            band = conformal._axis_band(z)
            count[z.imag > band] *= 2.0
            keep = z.imag >= -band
            z, w, count = z[keep], w[keep], count[keep]
        sides.append((z, w, on_f, count))
    return sides


def _tied_unknowns(basis):
    """The unknowns of the symmetric subspace of basis, after the first:
    for each, its (column, sign, conjugated) members in orbit order (the
    column, its negation image, its conjugation image, the negation image
    of that; repeats dropped) and whether it is real."""
    n, degree = basis.n_columns, basis.degree
    first_pole = 1 + 2 * degree

    def negation(j):
        if j > 2 * degree:
            return first_pole + basis.negated[j - first_pole], 1.0, False
        k = j if j <= degree else j - degree
        return (j + degree if j <= degree else j - degree,
                -(-1.0) ** k, False)

    def conjugation(j):
        if j < first_pole:
            return j, 1.0, True
        return first_pole + basis.conjugated[j - first_pole], 1.0, True

    images = []
    if basis.negated is not None:
        images.append(negation)
    if basis.conjugated is not None:
        images.append(conjugation)
        if basis.negated is not None:
            images.append(lambda j: (*negation(conjugation(j)[0])[:2], True))
    unknowns, seen = [], set()
    for j in range(1, n):
        if j in seen:
            continue
        orbit, real = {j: (1.0, False)}, False
        for image in images:
            i, sign, conj = image(j)
            if i in orbit:
                real = real or orbit[i][1] != conj
            else:
                orbit[i] = (sign, conj)
        seen.update(orbit)
        unknowns.append(([(i, sign, conj and not real)
                          for i, (sign, conj) in orbit.items()], real))
    return unknowns


def _dense_tied_system(region_e, f_inner, basis):
    """The system of a symmetric basis by its definition (see
    conformal._Ties), every kept row at once, the real matrix in C order,
    np.linalg.norm column scales; and the sum of the squared row weights.

    Rows: _kept_sides, each weighted by sqrt(spacing) times the square
    root of the number of full-system points it stands for.  Columns:
    Re a0 unless negation (then Re a0 = L/2), the real part and, for a
    complex unknown, minus the imaginary part of each unknown's summed
    members, and L."""
    negation = basis.negated is not None
    sides = _kept_sides(region_e, f_inner, basis)
    wts = [w * np.sqrt(count) for _, w, _, count in sides]
    z = np.concatenate([z for z, _, _, _ in sides])
    w = np.concatenate(wts)
    f_side = np.concatenate([np.full(z.size, on_f) for z, _, on_f, _ in sides])
    cols = basis.columns(z)
    entries = [] if negation else [cols[:, 0].real]
    for members, real in _tied_unknowns(basis):
        total = cols[:, members[0][0]]
        for i, sign, conj in members[1:]:
            total = total + sign * (np.conj(cols[:, i]) if conj else cols[:, i])
        entries.extend([total.real] if real else [total.real, -total.imag])
    level = np.full(z.size, 0.5) if negation else np.where(f_side, -1.0, 0.0)
    a_real = np.column_stack(entries + [level]) * w[:, None]
    b = -basis.log_abs_base(z) * w
    scale = np.linalg.norm(a_real, axis=0)
    scale[scale == 0.0] = 1.0
    return (np.divide(a_real, scale, order="F"), b, scale,
            sum(float(x @ x) for x in wts))


# The symmetries the ladder of each pair solves on; every other pair of
# AUDIT_PAIRS has none
SYMMETRIES = {
    "readme": "negation+conjugation", "hexagons": "negation+conjugation",
    "far_disks": "negation+conjugation", "disks": "negation+conjugation",
    "short_rects": "negation+conjugation", "mirror045": "negation+conjugation",
    "mirror060": "negation+conjugation", "mirror100": "negation+conjugation",
    "mirror300": "negation+conjugation",
    "seeded_mirror0": "negation+conjugation",
    "seeded_mirror1": "negation+conjugation",
    "disk_curve": "conjugation", "rect_in_exterior": "conjugation",
    "rect_disk": "conjugation", "disk_in_exterior": "conjugation",
    "seeded_rect_disk0": "conjugation", "seeded_rect_disk1": "conjugation",
}


@pytest.mark.parametrize("name, degree", [
    ("readme", 8), ("readme", 16), ("readme", 32), ("rect_disk", 8),
    ("rect_disk", 16), ("hexagons", 8), ("disk_curve", 8),
    ("disk_curve", 16), ("rect_in_exterior", 8), ("rect_in_exterior", 16),
    ("rect_in_exterior", 32), ("lshape_disk", 128), ("triangle_disk", 32),
    ("random0", 16)])
def test_level_system_equals_the_dense_definition_bit_for_bit(
        name, degree, monkeypatch):
    # bit for bit keeps every solved map, the rank-deficient README step
    # and the audit's bitwise SVD check as they were; a symmetric pair's
    # system is its symmetric subspace's (_dense_tied_system)
    args = _ladder_system_args(name, degree, monkeypatch)
    assert args[2].symmetry == SYMMETRIES.get(name, "")
    a, b, scale, mass = conformal._level_system(*args)
    if args[2].symmetry:
        dense_a, dense_b, dense_scale, dense_mass = _dense_tied_system(*args)
    else:
        dense_a, dense_b, dense_scale = _dense_level_system(*args)
        dense_mass = 2.0
    assert a.flags.f_contiguous
    assert a.shape == dense_a.shape and a.shape[0] > a.shape[1]
    assert np.array_equal(a, dense_a)
    assert np.array_equal(b, dense_b)
    assert np.array_equal(scale, dense_scale)
    assert mass == pytest.approx(dense_mass, rel=1e-14)
    _assert_images_close(args[2])


def _assert_images_close(basis):
    """Each symmetry of basis pairs every pole with its exact image, and
    each index map is an involution."""
    poles = basis.poles
    for name, index, image in (("negation", basis.negated, np.negative),
                               ("conjugation", basis.conjugated, np.conj)):
        assert (index is not None) == (name in basis.symmetry)
        if index is not None:
            assert np.array_equal(poles[index], image(poles))
            assert np.array_equal(index[index], np.arange(poles.size))


def test_a_pole_one_ulp_off_its_conjugate_is_not_paired():
    # pole images are matched by exact value: no tolerance, no nearest pole
    poles = np.array([1.5 + 0.5j, 1.5 - 0.5j, 2.0 + 0.0j])
    basis = conformal._LogBasis("A1", 1.75, -1.75, 1.0, 1.0, 2, poles,
                                np.ones(3), symmetry="conjugation")
    assert basis.ties.conjugation
    assert np.array_equal(basis.conjugated, [1, 0, 2])
    moved = dataclasses.replace(basis, poles=np.array(
        [1.5 + 0.5j, complex(1.5, np.nextafter(-0.5, 0.0)), 2.0 + 0.0j]))
    with pytest.raises(ValueError, match="not closed under conjugation"):
        moved.ties


@st.composite
def _mirrored_polygons(draw):
    """A polygon with N = 3..9 vertices 2 + r_k exp(i theta_k), theta_k =
    2 pi k/N or, offset, 2 pi k/N + pi/N, and radii in [0.6, 1] mirrored
    (r_k = r_(N-k), or r_(N-1-k) offset).  It is its own mirror image in
    the real axis to rounding only; some are non-convex, and most have a
    corner on the axis, at theta = 0 or pi."""
    n = draw(st.integers(3, 9))
    offset = draw(st.booleans())
    radii = draw(st.lists(st.floats(0.6, 1.0), min_size=n, max_size=n))
    k = np.arange(n)
    mate = (n - 1 - k) if offset else (n - k) % n
    r = np.array(radii)[np.minimum(k, mate)]
    theta = 2.0 * math.pi * k / n + (math.pi / n if offset else 0.0)
    return polygon(2.0 + r * np.exp(1j * theta))


@given(_mirrored_polygons())
@settings(max_examples=25, deadline=None)
def test_mirrored_polygon_systems_pair_their_poles_exactly(e):
    for f, symmetry in ((e.negated(), "negation+conjugation"),
                        (disk(-2.0, 0.5), "conjugation")):
        assert conformal._pair_symmetry(e, f)[0] == symmetry
        with pytest.MonkeyPatch.context() as monkeypatch:
            args = _pair_system_args((e, f), 8, monkeypatch)
        assert args[2].symmetry == symmetry
        _assert_images_close(args[2])
        a, b, scale, _ = conformal._level_system(*args)
        dense_a, dense_b, dense_scale, _ = _dense_tied_system(*args)
        assert np.array_equal(a, dense_a)
        assert np.array_equal(b, dense_b)
        assert np.array_equal(scale, dense_scale)


@pytest.mark.parametrize("name", sorted(AUDIT_PAIRS))
def test_symmetries_are_detected_from_the_region_data(name):
    region_e, region_f = AUDIT_PAIRS[name][0]()
    symmetry, _, _ = conformal._pair_symmetry(region_e, region_f)
    assert symmetry == SYMMETRIES.get(name, "")


def test_a_mirrored_pair_moved_off_the_axes_takes_the_full_system(
        monkeypatch):
    # short_rects moved up by 1e-3: neither F = -E nor a mirror image in
    # the real axis, so its ladder builds the full system
    e = rectangle((0.3, 1.3), (-0.5 + 1e-3, 0.5 + 1e-3))
    f = rectangle((-1.3, -0.3), (-0.5 + 1e-3, 0.5 + 1e-3))
    assert conformal._pair_symmetry(e, f)[0] == ""
    ladder = []
    solve_level = conformal._solve_level

    def recorded(*args):
        out = solve_level(*args)
        ladder.append((args[3], out))
        return out

    monkeypatch.setattr(conformal, "_solve_level", recorded)
    solve_annulus_map(e, f)
    basis, (rows, columns, *_) = ladder[0]
    assert not basis.symmetry
    assert columns == 2 * basis.n_columns
    assert rows == sum(conformal._solver_params(r, 8).size for r in (e, f))


def test_ladder_steps_name_the_symmetry_they_solved_on():
    # the README rectangles below their rounding level: every step is on
    # the subspace of both symmetries, and the failure text says so
    e, f = AUDIT_PAIRS["readme"][0]()
    with pytest.raises(MapNotResolvedError) as info:
        solve_annulus_map(e, f, tol=1e-14)
    ladder = info.value.ladder
    assert {step.symmetry for step in ladder} == {"negation+conjugation"}
    assert str(info.value).count(" [negation+conjugation]") == len(ladder)
    # a pair without symmetry keeps the text it had
    e, f = AUDIT_PAIRS["triangle_disk"][0]()
    with pytest.raises(MapNotResolvedError) as info:
        solve_annulus_map(e, f)
    assert {step.symmetry for step in info.value.ladder} == {""}
    assert "[" not in str(info.value)


@pytest.mark.parametrize("name, degree", [("readme", 32),
                                          ("lshape_disk", 128)])
def test_level_system_peaks_within_twice_its_matrix(name, degree,
                                                     monkeypatch):
    # the dense build held four full-size copies: its traced peak was 4.0x
    args = _ladder_system_args(name, degree, monkeypatch)
    tracemalloc.start()
    try:
        a, *_ = conformal._level_system(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * a.nbytes, (peak, a.nbytes)


def test_traced_solve_counts_its_ladder_and_keeps_the_map(monkeypatch):
    # perfbench --trace 1 wraps _solve_level by position and reads basis
    # and degree; a solve under its spans must count the ladder and give
    # the untraced map bit for bit
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import spans

    e, f = AUDIT_PAIRS["rect_disk"][0]()
    plain = solve_annulus_map(e, f)
    solve_level = conformal._solve_level
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        traced = conformal.solve_annulus_map(e, f)
    finally:
        spans.restore(undo)
    assert conformal._solve_level is solve_level
    ladder = tracer.ladders
    assert ladder[0] == 8
    assert all(b == 2 * a for a, b in zip(ladder, ladder[1:]))
    assert tracer.counts["conformal.ladder_steps"] == len(ladder)
    assert tracer.counts["conformal.basis_columns"] > 0
    assert traced.h == plain.h
    assert np.array_equal(traced.coef, plain.coef)


def test_failing_map_reports_its_ladder():
    e, f = AUDIT_PAIRS["triangle_disk"][0]()
    with pytest.raises(MapNotResolvedError) as info:
        solve_annulus_map(e, f, tol=1e-8)
    err = info.value
    assert [step.degree for step in err.ladder] == [8, 16, 32, 64, 128]
    assert all(step.rows > step.columns > 0 for step in err.ladder)
    # no step can reach 1e-8, so none is solved and .residual is the
    # smallest certified bound
    assert all(step.is_bound for step in err.ladder)
    assert err.residual == min(step.residual for step in err.ladder) > 1e-8
    assert all(step.condition is None for step in err.ladder)
    message = str(err)
    assert message.startswith("map not resolved: ")
    assert "degrees 8-128" in message and "\n" not in message


def test_failing_ladder_shows_the_condition_of_each_solved_step():
    # below the rounding level of the disk pair's map: degrees 32-128 are
    # solved and fail, each on a well-conditioned triangle
    e, f = AUDIT_PAIRS["disks"][0]()
    with pytest.raises(MapNotResolvedError) as info:
        solve_annulus_map(e, f, tol=1e-16)
    err = info.value
    solved = [step for step in err.ladder if not step.is_bound]
    assert [step.degree for step in solved] == [32, 64, 128]
    for step in solved:
        assert 1.0 <= step.condition < 1e3
        assert step.svd is False
        assert (f"{step.degree}: {step.rows}x{step.columns} residual = "
                f"{step.residual:.2e} (condition {step.condition:.1e})"
                in str(err))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_tol_must_be_finite_and_positive(tol):
    # a NaN or infinite tol would pass an unresolved map as resolved, and
    # tol <= 0 would climb the whole ladder before failing
    e, f = AUDIT_PAIRS["triangle_disk"][0]()
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_annulus_map(e, f, tol=tol)
