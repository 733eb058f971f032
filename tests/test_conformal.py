import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def _mirrored(re, im):
    e = rectangle(re, im)
    return e, e.negated()


def _hexagons():
    hexagon = [1.5 + 0.6 * np.exp(1j * math.pi * k / 3.0) for k in range(6)]
    return polygon(hexagon), polygon([-v for v in hexagon])


def _random_pair(seed):
    return random_disk_pair(np.random.default_rng(seed))


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
}


def _ladder_audit(names):
    """Every ladder step of the AUDIT_PAIRS solves of names, against a
    reference step solved in one np.linalg.lstsq call and validated like
    the solver.

    Returns {pair: [step record]}.  A step record holds the tol, degree and
    system shape, whether the step was skipped, its certified floor, and
    the reference's residual and rank.  A solved step also records its
    condition estimate, whether that sent it down the SVD path, whether its
    coef and level equal the reference bit for bit, |h/h_ref - 1| and, off
    the SVD path, its own validated residual.
    """
    level_system, solve_level = conformal._level_system, conformal._solve_level
    systems, steps = {}, []

    def recorded_system(region_e, f_inner, basis):
        a, b, scale = level_system(region_e, f_inner, basis)
        systems[basis.degree] = (a.copy(order="F"), b.copy(), scale.copy())
        return a, b, scale

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
            references = {}
            report[name] = []
            for tol in AUDIT_PAIRS[name][1]:
                steps.clear()
                try:
                    solve_annulus_map(region_e, region_f, tol=tol)
                except MapNotResolvedError:
                    pass
                for args, out in steps:
                    rows, columns, floor, condition, solution = out
                    e, f_inner, _, basis, _, _, degree, _ = args
                    if degree not in references:
                        a, b, scale = systems[degree]
                        x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
                        coef, level = conformal._coef_level(x, scale)
                        residual = conformal._map_residual(
                            e, f_inner, basis, coef, level)
                        references[degree] = (coef, level, residual,
                                              int(rank))
                    coef, level, residual, rank = references[degree]
                    record = {
                        "tol": tol, "degree": degree, "rows": rows,
                        "columns": columns, "skipped": solution is None,
                        "floor": floor, "reference": residual,
                        "reference_rank": rank,
                    }
                    report[name].append(record)
                    if solution is None:
                        continue
                    svd = conformal._needs_svd(condition, rows, columns)
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
# subprocess: at one BLAS thread each half takes about 17 s (L-shape 5.4 s,
# README 4.7 s, rect_in_exterior 4.3 s, rect_disk 3.8 s, hexagons 3.5 s,
# short_rects 2.6 s, each mirror pair 2.1 s, triangle 1.3 s, the rest
# under 0.4 s together).
_AUDIT_HALVES = (
    ("lshape_disk", "rect_disk", "short_rects", "mirror045", "mirror100",
     "triangle_disk"),
    ("readme", "rect_in_exterior", "hexagons", "mirror060", "mirror300",
     "disk_curve", "disks", "far_disks", "random0", "random1", "random2",
     "disk_in_exterior"),
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


def test_rank_deficient_readme_step_takes_the_svd_path(ladder_audit):
    # the one rank-deficient step of the audit keeps the bitwise branch
    # covered: back substitution there misses tol
    [step] = [r for r in ladder_audit["readme"] if r["degree"] == 32]
    assert step["reference_rank"] < step["columns"], step
    assert step["svd"] and step["bitwise"], step


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
        assert not conformal._needs_svd(step.condition, step.rows,
                                        step.columns)
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
