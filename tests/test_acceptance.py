"""End-to-end acceptance checks.

Each test covers one headline claim of the package: closed-form agreement
on disk pairs, the bound sandwich on mirrored rectangles, the asymptotic
ratio constant, singular-value bounds for structured matrices, ADI error
certification, and the supporting inequality/property suites.  Every test
prints a one-line summary with the measured margins.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_disk_pair, two_disk_h
from faberzol.adi import (adi_iterate, error_certificate, faber_shifts,
                          fejer_shifts, leja_shifts, sylvester_problem)
from faberzol.bounds import (GeometryConstants, asymptotic_constant, m_n,
                             sup_rn_bound, validity_constants, zolotarev_lower,
                             zolotarev_upper)
from faberzol.conformal import mobius_two_disks, phi, solve_annulus_map
from faberzol.displacement import (cauchy_matrix, singular_value_bounds,
                                   singular_values, vandermonde_h,
                                   vandermonde_matrix)
from faberzol.faber import (boundary_data, build_context, count_zeros,
                            degree_context, empirical_ratio, eval_Rn, eval_rn)
from faberzol.geometry import (boundary_samples, contains_many, disk,
                               polygon, random_points, rectangle)
from faberzol.quadrature import cauchy_kernel
from faberzol.rational import aaa_fit, bary_eval

L_VERTS = [0.0, 2.0, 2.0 + 1.0j, 1.0 + 1.0j, 1.0 + 2.0j, 2.0j]


def _omega_grid(e, f, margin=0.12):
    c1, r1 = e.center, e.radius
    c2, r2 = f.center, f.radius
    lo_r = min(c1.real - r1, c2.real - r2) - 0.5
    hi_r = max(c1.real + r1, c2.real + r2) + 0.5
    lo_i = min(c1.imag - r1, c2.imag - r2) - 0.5
    hi_i = max(c1.imag + r1, c2.imag + r2) + 0.5
    gx, gy = np.meshgrid(np.linspace(lo_r, hi_r, 20), np.linspace(lo_i, hi_i, 20))
    grid = (gx + 1j * gy).ravel()
    # quadrature-based evaluation needs clearance from the contours
    keep = (np.abs(grid - c1) > r1 * (1.0 + margin)) & (
        np.abs(grid - c2) > r2 * (1.0 + margin)
    )
    return grid[keep]


def test_two_disk_pairs_match_closed_form_end_to_end():
    # ten random disjoint disk pairs: solver h vs the inversive-distance
    # closed form, r_n vs Phi^n on a grid, empirical ratio vs h^-n
    start = time.time()
    rng = np.random.default_rng(20260815)
    worst_h = worst_grid = worst_ratio = 0.0
    for _ in range(10):
        e, f = random_disk_pair(rng)
        exact_h = two_disk_h(e.center, e.radius, f.center, f.radius)
        amap = solve_annulus_map(e, f, tol=1e-9)
        worst_h = max(worst_h, abs(amap.h - exact_h) / exact_h)

        mm = mobius_two_disks(e, f)
        ctx = build_context(mm, 6, n_quad=256)
        pts = _omega_grid(e, f)
        assert pts.size >= 150
        target = phi(mm, pts) ** 6
        err = np.abs(eval_rn(ctx, pts) - target) / np.maximum(1.0, np.abs(target))
        worst_grid = max(worst_grid, float(err.max()))

        data = boundary_data(mm, n_quad=256)
        for n in range(1, 11):
            emp = empirical_ratio(degree_context(data, n))
            worst_ratio = max(worst_ratio, abs(emp - mm.h**-n) / mm.h**-n)
    elapsed = time.time() - start
    print(
        f"two-disk suite: h err {worst_h:.2e} (tol 1e-6), grid err "
        f"{worst_grid:.2e} (tol 1e-8), ratio err {worst_ratio:.2e} (tol 1e-6), "
        f"{elapsed:.0f}s"
    )
    assert worst_h <= 1e-6
    assert worst_grid <= 1e-8
    assert worst_ratio <= 1e-6
    assert elapsed < 120.0


def test_mirrored_rectangle_sandwich_holds_for_all_degrees():
    # four mirrored rectangle pairs; h targets are read off the annulus
    # moduli of these fixed geometries, tolerance 2 percent
    start = time.time()
    expected = {0.45: 1.5, 0.6: 3.4, 1.0: 10.7, 3.0: 103.3}
    violations = []
    h_errs = []
    for alpha, h_exp in expected.items():
        e = rectangle((-0.4 - alpha, 0.4 - alpha), (-0.6, 0.6))
        f = e.negated()
        amap = solve_annulus_map(e, f, tol=1e-8)
        h_errs.append(abs(amap.h - h_exp) / h_exp)
        gc = GeometryConstants.from_regions(e, f, amap.h)
        data = boundary_data(amap, n_quad=512)
        for n in range(1, 31):
            emp = empirical_ratio(degree_context(data, n))
            lo = zolotarev_lower(amap.h, n)
            bv = zolotarev_upper(gc, n)
            if emp < lo * (1.0 - 1e-6):
                violations.append((alpha, n, "lower", emp, lo))
            if bv.upper_valid and emp > bv.upper * (1.0 + 1e-6):
                violations.append((alpha, n, "upper", emp, bv.upper))
    elapsed = time.time() - start
    print(
        f"rectangle sandwich: max h err {max(h_errs):.4f} (tol 0.02), "
        f"{len(violations)} violations over 4x30 degrees, {elapsed:.0f}s"
    )
    assert max(h_errs) <= 0.02
    assert violations == []
    assert elapsed < 600.0


def test_bound_ratio_approaches_rotation_constant():
    # upper/lower at the first n with h^-n <= 1e-4 sits within 1 percent of
    # (2 RotE + 1)(2 RotF + 1), for a convex and a nonconvex pair
    cases = []

    e, f = disk(1.0, 0.5), disk(-1.0, 0.5)
    h = two_disk_h(1.0, 0.5, -1.0, 0.5)
    cases.append((GeometryConstants.from_regions(e, f, h), "convex disks"))

    ell = polygon(L_VERTS)
    cases.append(
        (GeometryConstants.from_regions(ell, disk(5.0, 0.5), 40.0), "L-shape")
    )

    reports = []
    for gc, label in cases:
        n = 1
        while gc.h**-n > 1e-4:
            n += 1
        bv = zolotarev_upper(gc, n)
        assert bv.upper_valid and not bv.clamped
        ratio = bv.upper / zolotarev_lower(gc.h, n)
        limit = asymptotic_constant(gc.rot_e, gc.rot_f)
        rel = abs(ratio - limit) / limit
        reports.append(f"{label}: n={n} ratio={ratio:.4f} limit={limit:.0f} rel={rel:.2e}")
        assert rel <= 0.01
    print("asymptotic ratio: " + "; ".join(reports) + " (tol 1e-2)")


def test_structured_matrix_singular_values_respect_bounds():
    start = time.time()
    rng = np.random.default_rng(0)

    e = rectangle((0.3, 1.3), (-0.5, 0.5))
    f = e.negated()
    amap = solve_annulus_map(e, f, tol=1e-8)
    gc = GeometryConstants.from_regions(e, f, amap.h)
    x = random_points(e, 100, rng)
    y = random_points(f, 100, rng)
    sv = singular_values(cauchy_matrix(x, y), 18)
    zj = np.array([zolotarev_upper(gc, j).upper for j in range(18)])
    caps = singular_value_bounds(zj, sv[0])
    cauchy_bad = int(np.sum(sv[:18] > caps))

    z0, eta = (2.0 + 1.0j) / 10.0, 0.4
    hv = vandermonde_h(z0, eta)
    assert abs(hv - 2.3493504301605315) <= 1e-12 * hv
    assert abs(hv - 2.35) <= 0.005
    nodes = random_points(disk(z0, eta), 100, rng)
    svv = singular_values(vandermonde_matrix(nodes, 80), 18)
    vand_caps = singular_value_bounds(hv ** -np.arange(18.0), svv[0])
    vand_bad = int(np.sum(svv[:18] > vand_caps))

    elapsed = time.time() - start
    print(
        f"structured matrices: cauchy h={amap.h:.3f} violations={cauchy_bad}, "
        f"vandermonde h={hv:.4f} violations={vand_bad}, {elapsed:.0f}s"
    )
    assert cauchy_bad == 0
    assert vand_bad == 0
    assert elapsed < 120.0


def test_adi_error_within_bound_and_certificates_track_rate(
    rect_pair, rect_map, disk_pair, disk_map
):
    start = time.time()
    e, f = rect_pair
    gc = GeometryConstants.from_regions(e, f, rect_map.h)
    problem = sylvester_problem(e, f, 100, seed=0)
    ctx = build_context(rect_map, 8, n_quad=512)
    shifts, = faber_shifts([ctx])
    err = problem.relative_error(adi_iterate(problem, shifts)[-1])
    cert = error_certificate(shifts, ctx.quad_e, ctx.quad_f)
    bound = zolotarev_upper(gc, 8)
    assert bound.upper_valid
    assert err <= bound.upper
    assert err <= cert + 1e-10

    # certificate decay rates approach 1/h on the disk pair by k = 20
    de, df = disk_pair
    qe, qf = boundary_samples(de, 600), boundary_samples(df, 600)
    gaps = {}
    for shift_set in (fejer_shifts(disk_map, 20), leja_shifts(qe, qf, 20)):
        rate = error_certificate(shift_set, qe, qf) ** (1.0 / 20.0)
        gaps[shift_set.kind] = abs(rate - 1.0 / disk_map.h)
    elapsed = time.time() - start
    print(
        f"adi: rel err {err:.2e} <= cert {cert:.2e} <= bound "
        f"{bound.upper:.2e}; rate gaps fejer {gaps['fejer']:.4f} "
        f"leja {gaps['leja']:.4f} (tol 0.05), {elapsed:.0f}s"
    )
    assert gaps["fejer"] <= 0.05
    assert gaps["leja"] <= 0.05
    assert elapsed < 300.0


def _cloud(region_e, region_f, rng, count, box, margin):
    # uniform box samples, kept clear of both sets and their boundaries
    t = np.arange(512) / 512.0
    bnd = np.concatenate([region_e.boundary_point(t), region_f.boundary_point(t)])
    pts = np.empty(0, dtype=complex)
    while pts.size < count:
        z = rng.uniform(-box, box, 4 * count) + 1j * rng.uniform(-box, box, 4 * count)
        z = z[np.abs(z[:, None] - bnd[None, :]).min(axis=1) > margin]
        in_e, _ = contains_many(region_e, z)
        in_f, _ = contains_many(region_f, z)
        pts = np.concatenate([pts, z[~in_e & ~in_f]])
    return pts[:count]


def test_inequality_and_property_suites_have_zero_violations(
    disk_pair, disk_map, rect_pair, rect_map
):
    violations = []

    # boundary magnitude and deviation inequalities on two geometries
    rng = np.random.default_rng(11)
    t = (np.arange(1500) + 0.5) / 1500.0
    for label, pair, amap, n, nq in (
        ("disks", disk_pair, disk_map, 5, 256),
        ("rectangles", rect_pair, rect_map, 6, 512),
    ):
        e, f = pair
        ctx = build_context(amap, n, n_quad=nq)
        gc = GeometryConstants.from_regions(e, f, amap.h)
        cap = sup_rn_bound(gc.rot_e, gc.rot_f, gc.h, n)
        sup_e = float(np.abs(eval_Rn(ctx, e.boundary_point(t))).max())
        if sup_e > cap + 1e-8:
            violations.append(f"{label}: boundary sup {sup_e:.3e} > {cap:.3e}")
        cloud = _cloud(e, f, rng, 1000, 2.6, 0.08 * e.diameter())
        dev = np.abs(eval_Rn(ctx, cloud) - phi(amap, cloud) ** n)
        if float(dev.max()) > 1.0 + cap + 1e-6:
            violations.append(f"{label}: deviation {dev.max():.3e} > 1 + {cap:.3e}")

    # zero count equals the degree on three geometries
    mixed = solve_annulus_map(
        rectangle((-2.0, -1.0), (-0.5, 0.5)), disk(2.0, 0.6), tol=1e-8
    )
    for label, amap, n, nq in (
        ("disks", disk_map, 3, 256),
        ("rectangles", rect_map, 4, 512),
        ("mixed", mixed, 2, 384),
    ):
        found = count_zeros(build_context(amap, n, n_quad=nq))
        if found != n:
            violations.append(f"zero count {label}: {found} != {n}")

    # jump relation: interior minus exterior limit recovers the density
    c = disk(0.0, 1.0)
    dens = lambda z: np.exp(z) / (z - 2.0)
    jump_errs = []
    ring = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32.0)
    for eps, nq in ((1e-2, 2048), (1e-3, 16384)):
        quad = boundary_samples(c, nq)
        # the plain sums, 2 pi i times the transforms, on either side
        vals = dens(quad.nodes)
        inner = cauchy_kernel(quad, ring * (1.0 - eps)).plain(vals)
        outer = cauchy_kernel(quad, ring * (1.0 + eps)).plain(vals)
        jump = (inner - outer) / (2j * np.pi)
        jump_errs.append(float(np.abs(jump - dens(ring)).max()))
    if not (jump_errs[0] < 0.1 and jump_errs[1] < 1e-2 and jump_errs[1] < jump_errs[0]):
        violations.append(f"jump errors {jump_errs}")

    # threshold and witness inequalities on an (h, rotation, degree) grid;
    # the witness cap carries the extra factor c that its derivation yields
    checked = 0
    for h in (1.5, 2.0, 3.0, 5.0, 10.0, 40.0):
        for rot_e, rot_f in ((1.0, 1.0), (1.5, 1.0), (2.0, 1.5)):
            _, n0 = validity_constants(rot_e, rot_f, h)
            for n in range(math.floor(n0) + 1, math.floor(n0) + 13):
                hn = h**n
                c_n = 1.0 + m_n(rot_e, rot_f, h, n)
                checked += 1
                if not hn > c_n:
                    violations.append(f"threshold h={h} rot=({rot_e},{rot_f}) n={n}")
                    continue
                a0 = (hn - c_n) / (2.0 * n * hn)
                shrunk = (1.0 - a0) ** n * hn
                if not (0.0 < a0 <= 0.5 / n and shrunk > c_n):
                    violations.append(f"witness range h={h} n={n}")
                    continue
                lhs = 4.0 * (1.0 - a0) * c_n / (a0 * shrunk * (shrunk - c_n))
                rhs = 32.0 * n * hn * c_n / ((hn - c_n) ** 2 * (hn + c_n))
                if lhs > rhs * (1.0 + 1e-12):
                    violations.append(f"witness h={h} rot=({rot_e},{rot_f}) n={n}")
    assert checked == 216

    # exact rational recovery at degree 12
    rng = np.random.default_rng(3)
    zeros = 0.7 * (rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12))
    poles = 2.0 + rng.uniform(0.0, 1.0, 12) + 1j * rng.uniform(-1.0, 1.0, 12)
    samples = np.exp(2j * np.pi * np.arange(400) / 400.0)
    vals = np.ones_like(samples)
    for zz, pp in zip(zeros, poles):
        vals *= (samples - zz) / (samples - pp)
    fit = aaa_fit(samples, vals, tol=1e-13)
    probe = 0.9 * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64.0)
    truth = np.ones_like(probe)
    for zz, pp in zip(zeros, poles):
        truth *= (probe - zz) / (probe - pp)
    rec = np.abs(bary_eval(fit, probe) - truth) / np.abs(truth)
    if float(rec.max()) > 1e-10:
        violations.append(f"rational recovery err {rec.max():.2e}")

    # every certificate dominates its measured ADI error
    e, f = disk_pair
    problem = sylvester_problem(e, f, 40, seed=1)
    qe, qf = boundary_samples(e, 600), boundary_samples(f, 600)
    for k in (3, 8):
        for shifts in (
            faber_shifts([build_context(disk_map, k, n_quad=256)])[0],
            fejer_shifts(disk_map, k),
            leja_shifts(qe, qf, k),
        ):
            err = problem.relative_error(adi_iterate(problem, shifts)[-1])
            cert = error_certificate(shifts, qe, qf)
            if err > cert + 1e-10:
                violations.append(f"certificate {shifts.kind} k={k}: {err:.3e} > {cert:.3e}")

    print(
        f"property suites: {checked} grid points, 6 families, "
        f"{len(violations)} violations"
    )
    assert violations == []
