import numpy as np
import pytest

from faberzol.adi import (
    ShiftSet,
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
from faberzol.faber import build_context
from faberzol.geometry import boundary_samples, contains_many, disk


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


def test_leja_needs_dense_boundaries(disk_pair):
    e, f = disk_pair
    with pytest.raises(ValueError):
        leja_shifts(boundary_samples(e, 100), boundary_samples(f, 100), 3)


def test_unbounded_spectra_are_rejected():
    with pytest.raises(InvalidRegionError):
        sylvester_problem(disk(0.0, 1.0), ExteriorOf(disk(0.0, 2.0)), 5)
