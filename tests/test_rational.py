import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from faberzol.errors import FaberzolError
from faberzol.rational import (
    BarycentricRational,
    aaa_fit,
    bary_eval,
    poles_zeros,
)

UNIT = np.exp(2j * np.pi * np.arange(400) / 400)


def test_exact_recovery_of_a_degree_twelve_rational():
    rng = np.random.default_rng(0)
    zeros = 0.7 * (rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12))
    poles = 2.0 + rng.uniform(0, 1, 12) + 1j * rng.uniform(-2, 2, 12)

    def f(z):
        val = np.ones_like(z, dtype=complex)
        for a, b in zip(zeros, poles):
            val *= (z - a) / (z - b)
        return val

    fit = aaa_fit(UNIT, f(UNIT), tol=1e-13)
    assert fit.degree <= 14
    assert not fit.stagnated
    probe = 0.9 * np.exp(1j * np.linspace(0.1, 6.0, 37))
    err = np.abs(bary_eval(fit, probe) - f(probe))
    assert err.max() < 1e-10 * np.abs(f(probe)).max()


def test_support_points_evaluate_exactly():
    fit = aaa_fit(UNIT, np.exp(UNIT), tol=1e-13)
    assert np.array_equal(bary_eval(fit, fit.support), fit.values)


def test_scalar_evaluation_returns_a_scalar():
    fit = aaa_fit(UNIT, 1.0 / (UNIT - 2.0), tol=1e-13)
    out = bary_eval(fit, 0.3 + 0.1j)
    assert isinstance(out, complex)
    assert out == pytest.approx(1.0 / (0.3 + 0.1j - 2.0), rel=1e-12)


def test_pole_and_zero_extraction():
    f = (UNIT - 0.5) / (UNIT + 2.0)
    poles, zeros = poles_zeros(aaa_fit(UNIT, f, tol=1e-13))
    assert len(poles) == 1 and len(zeros) == 1
    assert poles[0] == pytest.approx(-2.0, abs=1e-9)
    assert zeros[0] == pytest.approx(0.5, abs=1e-9)


def test_eigensolver_failure_is_a_named_error(monkeypatch):
    fit = aaa_fit(UNIT, (UNIT - 0.5) / (UNIT + 2.0), tol=1e-13)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(scipy.linalg, "eigvals", fail)
    with pytest.raises(FaberzolError, match="arrowhead eigensolver failed"):
        poles_zeros(fit)


def test_roots_are_sorted_and_filtered():
    f = (UNIT - 0.2) * (UNIT + 0.4j) / ((UNIT - 3.0) * (UNIT + 2.0 - 1.0j))
    poles, zeros = poles_zeros(aaa_fit(UNIT, f, tol=1e-13))
    assert len(poles) == 2 and len(zeros) == 2
    assert np.allclose(np.sort(poles.real), [-2.0, 3.0], atol=1e-8)
    assert np.all(np.diff(poles.real) >= 0)  # lexicographic order
    assert np.allclose(sorted(z for z in zeros), [-0.4j, 0.2], atol=1e-8)


def test_a_zero_on_a_support_point_is_kept():
    # r(z) = z through (-1, -1), (0, 0), (1, 1): N = 2/(z^2 - 1) and
    # D = 2/(z (z^2 - 1)).  The zero 0 is the support point whose
    # coefficient w_j f_j vanishes, where the kernel residual is 0/0
    poles, zeros = poles_zeros(
        BarycentricRational([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                            [1.0, -2.0, 1.0]))
    assert poles.size == 0
    assert zeros.size == 1 and abs(zeros[0]) <= 1e-14


def test_entire_functions_fit_to_tolerance():
    fit = aaa_fit(UNIT, np.exp(UNIT), tol=1e-12)
    assert fit.residual <= 1e-12 * np.abs(np.exp(UNIT)).max()


def test_degenerate_input_validation():
    with pytest.raises(ValueError):
        aaa_fit(UNIT[:3], np.ones(3))
    with pytest.raises(ValueError):
        aaa_fit(UNIT, np.full(len(UNIT), np.nan))
    with pytest.raises(ValueError):
        BarycentricRational(np.array([1.0, 1.0]), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        BarycentricRational(np.array([1.0, 2.0]), np.ones(2), np.zeros(2))


def test_max_degree_caps_the_support_size():
    noisy = np.exp(UNIT) + 1e-3 * np.cos(17 * np.angle(UNIT))
    fit = aaa_fit(UNIT, noisy, tol=1e-15, max_degree=6)
    assert fit.degree <= 6


@given(
    angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=3),
    zshift=st.floats(-0.5, 0.5),
)
@settings(max_examples=25, deadline=None)
def test_low_degree_rationals_are_recovered(angles, zshift):
    # poles kept a unit away from the sample circle
    poles = 2.0 * np.exp(1j * np.asarray(angles))

    def f(z):
        val = np.ones_like(z, dtype=complex) * (z - zshift)
        for b in poles:
            val /= z - b
        return val

    fit = aaa_fit(UNIT, f(UNIT), tol=1e-13)
    probe = 0.5 * np.exp(1j * np.linspace(0.0, 6.0, 11))
    err = np.abs(bary_eval(fit, probe) - f(probe))
    assert err.max() < 1e-9 * max(1.0, np.abs(f(probe)).max())
