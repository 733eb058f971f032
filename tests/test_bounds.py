import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberzol.bounds import (
    BoundValue,
    GeometryConstants,
    _bound_quotient,
    asymptotic_constant,
    m_n,
    sup_rn_bound,
    tilde_m_n,
    validity_constants,
    zolotarev_lower,
    zolotarev_upper,
)
from faberzol.errors import InvalidRegionError
from faberzol.geometry import disk, polygon, rectangle

L_VERTS = [0.0, 2.0, 2.0 + 1.0j, 1.0 + 1.0j, 1.0 + 2.0j, 2.0j]


def test_lower_bound_is_the_annulus_decay():
    assert zolotarev_lower(2.0, 3) == 0.125
    assert zolotarev_lower(5.0, 0) == 1.0


def test_asymptotic_constant_values():
    assert asymptotic_constant(1.0, 1.0) == 9.0
    assert asymptotic_constant(1.5, 1.0) == 12.0


def test_m_n_limits():
    # the h^(-n) terms die off, leaving 2 RotE + 1
    assert m_n(1.0, 1.0, 10.0, 50) == pytest.approx(3.0)
    assert tilde_m_n(1.0, 1.0, 10.0, 50) == pytest.approx(2.0)
    assert m_n(1.0, 1.0, 2.0, 0) == 6.0


def test_constants_from_regions():
    gc = GeometryConstants.from_regions(disk(1.0, 0.7), disk(-1.0, 0.7), 6.0)
    assert gc.rot_e == gc.rot_f == 1.0
    assert gc.variant == "A1"

    gc2 = GeometryConstants.from_regions(polygon(L_VERTS), disk(5.0, 0.5),
                                         40.0)
    assert gc2.rot_e == pytest.approx(1.5)


def test_invalid_constants_are_rejected():
    with pytest.raises(InvalidRegionError):
        GeometryConstants(h=1.0)
    with pytest.raises(InvalidRegionError):
        GeometryConstants(h=2.0, rot_e=0.5)
    with pytest.raises(InvalidRegionError):
        GeometryConstants(h=2.0, variant="A3")


def test_upper_bound_value_fields():
    gc = GeometryConstants(h=6.0)
    bv = zolotarev_upper(gc, 5)
    assert isinstance(bv, BoundValue)
    assert bv.n == 5
    assert bv.lower == pytest.approx(6.0 ** -5)
    assert bv.upper_valid and not bv.clamped
    assert bv.lower <= bv.upper <= 1.0


def _convex_display(h, n):
    """The Rot = 1 display of the upper-bound bracket, in q = h^(-n)."""
    q = h ** (-n)
    q2 = q * q
    guard = 1.0 - 4.0 * q - 3.0 * q2
    if guard <= 0.0:
        return math.inf
    numer = 9.0 * (1.0 + q) ** 2 / (1.0 - q2) + 96.0 * n * (1.0 + q) * q / guard**2
    denom = (1.0 - 9.0 * (1.0 + q) ** 2 / (1.0 - q2) * q
             - 3.0 * (1.0 + q) / guard * q - q2)
    if denom <= 0.0:
        return math.inf
    return numer / denom


def test_convex_display_matches_the_general_quotient():
    for h in (1.05, 1.5, 2.0, 6.0, 40.0):
        for n in range(41):
            m = m_n(1.0, 1.0, h, n)
            general = _bound_quotient(m, m, h, n)
            display = _convex_display(h, n)
            if math.isinf(display):
                assert math.isinf(general)
            else:
                assert general == pytest.approx(display, rel=1e-12)


def test_upper_bound_clamps_at_small_degree():
    gc = GeometryConstants(h=6.0)
    for n in (0, 1):
        bv = zolotarev_upper(gc, n)
        assert bv.clamped and bv.upper == 1.0
    assert not zolotarev_upper(gc, 3).clamped


def test_upper_bound_validity_threshold():
    gc = GeometryConstants(h=6.0)
    x0, n0 = validity_constants(1.0, 1.0, 6.0)
    assert x0 == pytest.approx(2.0 + math.sqrt(7.0))
    n_first = math.floor(n0) + 1
    assert zolotarev_upper(gc, n_first).upper_valid
    assert not zolotarev_upper(gc, math.floor(n0)).upper_valid


def test_ratio_approaches_the_asymptotic_constant():
    gc = GeometryConstants(h=13.928388277184118)
    bv = zolotarev_upper(gc, 4)
    assert bv.upper / bv.lower == pytest.approx(9.0, rel=1e-2)

    gc2 = GeometryConstants(h=40.0, rot_e=1.5)
    bv2 = zolotarev_upper(gc2, 3)
    assert bv2.upper / bv2.lower == pytest.approx(12.0, rel=1e-2)


def test_exterior_variant_tightens_the_bracket():
    a1 = zolotarev_upper(GeometryConstants(h=5.0), 4)
    a2 = zolotarev_upper(GeometryConstants(h=5.0, variant="A2"), 4)
    assert a2.upper < a1.upper


def test_sup_bound_grows_with_rotation():
    assert (sup_rn_bound(1.5, 1.0, 5.0, 4)
            > sup_rn_bound(1.0, 1.0, 5.0, 4))


def test_negative_degree_is_rejected():
    with pytest.raises(ValueError):
        zolotarev_upper(GeometryConstants(h=2.0), -1)


@given(
    h=st.floats(1.05, 1e4),
    n=st.integers(0, 60),
    rot_e=st.floats(1.0, 3.0),
    rot_f=st.floats(1.0, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_bound_invariants(h, n, rot_e, rot_f):
    gc = GeometryConstants(h=h, rot_e=rot_e, rot_f=rot_f)
    bv = zolotarev_upper(gc, n)
    assert 0.0 < bv.lower <= 1.0
    assert bv.lower <= bv.upper <= 1.0
    if bv.clamped:
        assert bv.upper == 1.0
    if bv.upper_valid and not bv.clamped:
        # the bracket always exceeds the asymptotic constant
        assert bv.upper / bv.lower >= asymptotic_constant(rot_e, rot_f) - 1e-9
