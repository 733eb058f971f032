import dataclasses

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import direct_inv_rn
from faberzol.adi import (
    ShiftSet,
    _drop_doublets,
    _pick_near,
    adi_iterate,
    error_certificate,
    faber_shifts,
    fejer_shifts,
    leja_shifts,
    sylvester_problem,
)
from faberzol.conformal import ExteriorOf, solve_annulus_map
from faberzol.errors import FaberzolError, InvalidRegionError, UncertifiedError
from faberzol.faber import (
    _reciprocal,
    boundary_data,
    build_context,
    degree_context,
)
from faberzol.geometry import boundary_samples, contains_many, disk
from faberzol.rational import aaa_fit, poles_zeros


@pytest.fixture(scope="module")
def disk_problem(disk_pair):
    return sylvester_problem(*disk_pair, 40, seed=1)


@pytest.fixture(scope="module")
def disk_quads(disk_pair):
    e, f = disk_pair
    return boundary_samples(e, 600), boundary_samples(f, 600)


def test_problem_spectra_live_in_their_regions(disk_pair, disk_problem):
    e, f = disk_pair
    for lam, region in ((disk_problem.spectrum_a, e),
                        (disk_problem.spectrum_b, f)):
        inside, on = contains_many(region, lam)
        assert (inside | on).all()
    res = (np.diag(disk_problem.spectrum_a) @ disk_problem.solution
           - disk_problem.solution @ np.diag(disk_problem.spectrum_b)
           - disk_problem.rhs)
    assert (np.linalg.norm(res, 2)
            < 1e-10 * np.linalg.norm(disk_problem.rhs, 2))


def test_one_by_one_problem_is_solved_in_one_step():
    e, f = disk(1.0, 0.1), disk(-1.0, 0.1)
    problem = sylvester_problem(e, f, 1, seed=0)
    a, b = problem.spectrum_a[0], problem.spectrum_b[0]
    shifts = ShiftSet("faber", (a,), (b,))
    assert problem.relative_error(adi_iterate(problem, shifts)[-1]) < 1e-12


def test_zero_steps_return_the_initial_error(disk_problem):
    # no shifts, no steps: the iterate stays X^(0) = 0, whose error is 1
    assert adi_iterate(disk_problem, ShiftSet("fejer", (), ())) == []
    assert disk_problem.relative_error(np.zeros(disk_problem.shape)) == 1.0


def test_spectrum_shifts_solve_exactly(disk_pair):
    # with kappa = eig(A) and tau = eig(B) the error rational vanishes
    problem = sylvester_problem(*disk_pair, 6, seed=3)
    shifts = ShiftSet("leja", tuple(problem.spectrum_a),
                      tuple(problem.spectrum_b))
    assert problem.relative_error(adi_iterate(problem, shifts)[-1]) < 1e-10


def _dense_adi(problem, shifts, k):
    # the half-steps as dense solves with A = diag(spectrum_a), B = diag(...)
    a, b = np.diag(problem.spectrum_a), np.diag(problem.spectrum_b)
    m, p = problem.shape
    x = np.zeros((m, p), dtype=complex)
    for tau, kappa in zip(shifts.tau[:k], shifts.kappa[:k]):
        half = np.linalg.solve(a - tau * np.eye(m),
                               x @ (b - tau * np.eye(p)) + problem.rhs)
        x = np.linalg.solve((b - kappa * np.eye(p)).T,
                            ((a - kappa * np.eye(m)) @ half - problem.rhs).T).T
    return x


def test_spectral_steps_match_dense_solves_on_a_rectangular_problem(
        disk_pair, disk_quads):
    # m != p, so a transposed broadcast of the spectra cannot pass
    problem = sylvester_problem(*disk_pair, 12, 9, seed=2)
    assert problem.shape == (12, 9)
    shifts = leja_shifts(*disk_quads, 3)
    x = adi_iterate(problem, shifts)[-1]
    ref = _dense_adi(problem, shifts, 3)
    assert np.linalg.norm(x - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2)
    hit = ShiftSet("leja", (shifts.kappa[0],), (problem.spectrum_a[0],))
    with pytest.raises(FaberzolError):
        adi_iterate(problem, hit)


def test_too_few_resolved_shifts_raise(disk_pair):
    e, _ = disk_pair
    samples = e.boundary_point(np.arange(64) / 64.0)
    with pytest.raises(UncertifiedError):
        _pick_near(np.array([1.0 + 0.1j]), e, samples, 2, "zeros")


def test_surplus_shifts_keep_the_nearest_in_order():
    # 0.5 lies inside the unit disk and 1.2 is 0.2 from its boundary; 3
    # is the farthest and goes, with a warning
    e = disk(0.0, 1.0)
    samples = e.boundary_point(np.arange(64) / 64.0)
    with pytest.warns(UserWarning,
                      match="3 zeros resolved; keeping the 2 nearest"):
        kept = _pick_near(np.array([3.0, 0.5, 1.2]), e, samples, 2, "zeros")
    assert kept.tolist() == [0.5, 1.2]
    # the kept candidates stay in their given order, not nearest first
    with pytest.warns(UserWarning):
        kept = _pick_near(np.array([1.2, 3.0, 0.5]), e, samples, 2, "zeros")
    assert kept.tolist() == [1.2, 0.5]


def test_doublets_pair_closest_first():
    # pole 0.5 is nearer zero 0.9 than zero 0.0, but the closest pair
    # (0.9, 1.0) goes first; (0.0, 0.5) is then beyond tol
    poles, zeros = _drop_doublets(np.array([0.5, 1.0]),
                                  np.array([0.0, 0.9]), 0.45)
    assert poles.tolist() == [0.5]
    assert zeros.tolist() == [0.0]


def test_a_doublet_exactly_at_tol_is_dropped():
    poles, zeros = np.array([1.0 + 0.0j]), np.array([1.25 + 0.0j])
    kept = _drop_doublets(poles, zeros, 0.25)
    assert kept[0].size == 0 and kept[1].size == 0
    kept = _drop_doublets(poles, zeros, np.nextafter(0.25, 0.0))
    assert kept[0].tolist() == [1.0] and kept[1].tolist() == [1.25]


def test_unmatched_roots_survive_in_order():
    poles, zeros = _drop_doublets(np.array([-2.0, 1.0 + 1e-9j, 3.0j]),
                                  np.array([1.0]), 1e-6)
    assert poles.tolist() == [-2.0, 3.0j]
    assert zeros.size == 0


def test_doublets_of_empty_root_sets():
    for poles, zeros in (([], []), ([], [1.0, 2.0]), ([0.5], [])):
        kept_p, kept_z = _drop_doublets(poles, zeros, 1.0)
        assert kept_p.tolist() == poles and kept_z.tolist() == zeros
        assert kept_p.dtype == kept_z.dtype == complex


def test_a_noisy_fit_keeps_its_doublet_until_the_shift_filter():
    # AAA absorbs 1e-10 noise on (z - 0.5)/(z + 2) into a pole/zero pair
    # near the unit circle; poles_zeros reports it, _drop_doublets drops it
    z = np.exp(2j * np.pi * np.arange(512) / 512)
    rng = np.random.default_rng(3)
    f = (z - 0.5) / (z + 2.0) + 1e-10 * (rng.standard_normal(512)
                                         + 1j * rng.standard_normal(512))
    poles, zeros = poles_zeros(aaa_fit(z, f, 1e-12, 13))
    assert poles.size == zeros.size == 2
    assert np.abs(zeros[:, None] - poles[None, :]).min() < 1e-8
    span = float(np.abs(z - z.mean()).max())
    poles, zeros = _drop_doublets(poles, zeros, 1e-5 * span)
    assert poles.size == zeros.size == 1
    assert abs(poles[0] + 2.0) < 1e-8 and abs(zeros[0] - 0.5) < 1e-8


def test_shift_order_does_not_change_the_result(disk_pair, disk_problem):
    amap = solve_annulus_map(*disk_pair, tol=1e-10)
    shifts = fejer_shifts(amap, 4)
    shuffled = ShiftSet("fejer", shifts.kappa[::-1], shifts.tau[::-1])
    a = disk_problem.relative_error(adi_iterate(disk_problem, shifts)[-1])
    b = disk_problem.relative_error(adi_iterate(disk_problem, shuffled)[-1])
    assert a == pytest.approx(b, rel=1e-8)


def test_faber_shift_certificate_attains_the_annulus_decay(
        disk_map, disk_quads):
    # for a disk pair the degree-k rational is optimal, so the
    # certificate matches the lower bound h^(-k)
    ctx = build_context(disk_map, 5, n_quad=256)
    shifts = faber_shifts(ctx)
    cert = error_certificate(shifts, *disk_quads)
    assert cert == pytest.approx(disk_map.h ** -5, rel=1e-6)


def test_faber_shifts_refuse_non_finite_samples(disk_map):
    # aaa_fit would raise a plain ValueError on them
    ctx = build_context(disk_map, 3, n_quad=128)
    broken = dataclasses.replace(
        ctx, inv_rn_on_f=np.full_like(ctx.inv_rn_on_f, np.nan))
    with pytest.raises(UncertifiedError, match="r_k is not finite at 512 "):
        faber_shifts(broken)


def _pointwise_faber_shifts(ctx):
    """faber_shifts with r_k sampled pointwise by direct_inv_rn at the
    scan params, not through the scan kernels; returns
    (kappa, tau, span) with span the larger boundary radius."""
    k = ctx.n
    picked, spans = [], []
    for scan, region, want in zip(
            ctx.data.scans, (ctx.map.region_e, ctx.map.region_f),
            ("zeros", "poles")):
        z = region.boundary_point(scan.t)
        rk = _reciprocal(direct_inv_rn(ctx, region, scan.t))
        poles, zeros = poles_zeros(aaa_fit(z, rk, 1e-12, k + 12))
        span = float(np.abs(z - z.mean()).max())
        poles, zeros = _drop_doublets(poles, zeros, 1e-5 * span)
        cand = zeros if want == "zeros" else poles
        picked.append(_pick_near(cand, region, z, k, want))
        spans.append(span)
    return picked[0], picked[1], max(spans)


def _matched_distance(a, b):
    """Largest distance between two point sets paired by least total
    distance (so reordered conjugate pairs still match)."""
    dist = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max())


@pytest.mark.parametrize("pair, k, kappa_tol", [
    ("rect", 4, 1e-8),
    # on two disks r_k = Phi^k: its zero and its pole are k-fold, so a
    # perturbation eps of the samples moves each of them by about eps^(1/k)
    ("disk", 5, 1e-3),
])
def test_faber_shifts_from_scan_kernels_match_pointwise_fits(
        pair, k, kappa_tol, rect_map, disk_map):
    amap = rect_map if pair == "rect" else disk_map
    ctx = build_context(amap, k, n_quad=512 if pair == "rect" else 256)
    shifts = faber_shifts(ctx)
    kappa, tau, span = _pointwise_faber_shifts(ctx)
    assert _matched_distance(shifts.kappa, kappa) <= kappa_tol * span
    # the F-side poles of r_k sit in k-point clusters, where one ulp of
    # sample noise moves them far more than the zeros
    assert _matched_distance(shifts.tau, tau) <= 1e-3 * span
    # the mean of a cluster does not share that sensitivity
    for got, ref in ((shifts.kappa, kappa), (shifts.tau, tau)):
        assert abs(np.mean(got) - np.mean(ref)) <= 1e-12 * span


def test_faber_certificates_hold_on_the_rectangles_for_every_k(
        rect_pair, rect_map):
    problem = sylvester_problem(*rect_pair, 60, seed=4)
    quads = [boundary_samples(region, 512) for region in rect_pair]
    data = boundary_data(rect_map)
    for k in range(1, 7):
        shifts = faber_shifts(degree_context(data, k))
        err = problem.relative_error(adi_iterate(problem, shifts)[-1])
        assert err <= error_certificate(shifts, *quads)


def test_fejer_shifts_on_a_tabulated_map_equal_a_fresh_one(rect_map):
    fejer_shifts(rect_map, 1)  # builds the map's psi_boundary tables
    assert "_psi_tables" in vars(rect_map)
    for k in range(1, 5):
        fresh = dataclasses.replace(rect_map)
        assert "_psi_tables" not in vars(fresh)
        assert fejer_shifts(rect_map, k) == fejer_shifts(fresh, k)


def test_fejer_shift_certificate_on_a_concentric_annulus():
    # zeros at the k-th roots of unity, poles at their h-dilates, so the
    # shift product is (z^k - c)/(z^k - h^k c) and the extremal ratio is
    # exactly 4 h^k / (h^k + 1)^2
    e = disk(0.0, 1.0)
    f = ExteriorOf(disk(0.0, 2.0))
    amap = solve_annulus_map(e, f, tol=1e-8)
    shifts = fejer_shifts(amap, 6)
    cert = error_certificate(shifts, boundary_samples(e, 600),
                             boundary_samples(disk(0.0, 2.0), 600))
    hk = 2.0 ** 6
    assert cert == pytest.approx(4.0 * hk / (hk + 1.0) ** 2, rel=1e-6)


@pytest.mark.parametrize("kind", ["faber", "fejer", "leja"])
def test_certificates_are_sound(kind, disk_pair, disk_map, disk_problem,
                                disk_quads):
    if kind == "faber":
        shifts = faber_shifts(build_context(disk_map, 5, n_quad=256))
    elif kind == "fejer":
        shifts = fejer_shifts(solve_annulus_map(*disk_pair, tol=1e-10), 5)
    else:
        shifts = leja_shifts(*disk_quads, 5)
    cert = error_certificate(shifts, *disk_quads)
    err = disk_problem.relative_error(adi_iterate(disk_problem, shifts)[-1])
    assert err <= cert + 1e-10


def test_shift_set_validation():
    with pytest.raises(ValueError):
        ShiftSet("newton", (1.0,), (2.0,))
    with pytest.raises(ValueError):
        ShiftSet("faber", (1.0,), (2.0, 3.0))
    with pytest.raises(ValueError):
        ShiftSet("faber", (1.0,), (1.0,))  # zero meets pole


def test_certificate_requires_shifts(disk_quads):
    with pytest.raises(ValueError):
        error_certificate(ShiftSet("leja", (), ()), *disk_quads)


def test_overflowing_certificate_raises_with_its_log_ratio(disk_quads):
    # zeros at the F center and poles at the E center: each of the 300
    # pairs multiplies the ratio by about (2.7/0.7)^2, far past the float
    # range, where an inf would pass for a certificate
    shifts = ShiftSet("leja", (-1.0,) * 300, (1.0,) * 300)
    with pytest.raises(UncertifiedError, match=r"log ratio 8\d\d\."):
        error_certificate(shifts, *disk_quads)


def test_leja_needs_dense_boundaries(disk_pair):
    e, f = disk_pair
    with pytest.raises(ValueError):
        leja_shifts(boundary_samples(e, 100), boundary_samples(f, 100), 3)


def test_unbounded_spectra_are_rejected():
    with pytest.raises(InvalidRegionError):
        sylvester_problem(disk(0.0, 1.0), ExteriorOf(disk(0.0, 2.0)), 5)
