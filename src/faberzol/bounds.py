"""Closed-form upper and lower bounds on Zolotarev numbers.

The lower bound is h^(-n).  The upper bound is an explicit quotient in
h^(-n) and the total rotations of the two boundaries, valid for n above
a geometry threshold N0; outside validity the trivial bound 1 applies.
Where h^(-n) is not a normal double, both bounds come from log space and
are rounded outward: lower down, upper up (never below 5e-324).
"""

import math
import sys
from dataclasses import dataclass

from . import geometry
from .conformal import ExteriorOf, boundary_region
from .errors import InvalidRegionError


@dataclass(frozen=True)
class GeometryConstants:
    """Everything the bound formulas need to know about a pair (E, F)."""

    h: float
    rot_e: float = 1.0
    rot_f: float = 1.0
    variant: str = "A1"

    def __post_init__(self):
        if not self.h > 1.0:
            raise InvalidRegionError("bounds need h > 1 (disjoint pair)")
        if self.rot_e < 1.0 or self.rot_f < 1.0:
            raise InvalidRegionError("total rotation is at least 1")
        if self.variant not in ("A1", "A2"):
            raise InvalidRegionError("variant must be 'A1' or 'A2'")

    @classmethod
    def from_regions(cls, region_e, region_f, h: float) -> "GeometryConstants":
        return cls(h=float(h), rot_e=geometry.rotation(region_e),
                   rot_f=geometry.rotation(boundary_region(region_f)),
                   variant="A2" if isinstance(region_f, ExteriorOf) else "A1")


@dataclass(frozen=True)
class BoundValue:
    n: int
    lower: float
    upper: float
    upper_valid: bool
    clamped: bool
    m_ef: float
    m_fe: float
    x0: float
    n0: float


def m_n(rot_e: float, rot_f: float, h: float, n: int) -> float:
    """2 RotE + 2 h^(-n) RotF + 1 + h^(-n); tends to 2 RotE + 1."""
    q = h ** (-n)
    return 2.0 * rot_e + 2.0 * q * rot_f + 1.0 + q


def tilde_m_n(rot_e: float, rot_f: float, h: float, n: int) -> float:
    """2 RotE + 2 h^(-n) RotF: the variant for an unbounded F."""
    q = h ** (-n)
    return 2.0 * rot_e + 2.0 * q * rot_f


def validity_constants(rot_e: float, rot_f: float, h: float,
                       variant: str = "A1"):
    """(x0, N0): the upper bound formula applies for n > N0."""
    if variant == "A1":
        x0 = rot_e + 1.0 + math.sqrt((rot_e + 1.0) ** 2 + 2.0 * rot_f + 1.0)
    elif variant == "A2":
        x0 = rot_e + 0.5 + math.sqrt((rot_e + 0.5) ** 2 + 2.0 * rot_f)
    else:
        raise InvalidRegionError("variant must be 'A1' or 'A2'")
    n0 = max(1.0 + 1.0 / (h - 1.0), math.log(x0) / math.log(h))
    return x0, n0


def zolotarev_lower(h: float, n: int) -> float:
    """h^(-n), from the condenser capacity characterization; rounded down
    where it is not a normal double."""
    lower = float(h) ** (-n)
    if lower < sys.float_info.min:
        log_h = math.log(h)
        lower = _outward_exp(-n * log_h, n * log_h, up=False)
    return lower


def _outward_exp(log_value: float, magnitude: float, up: bool) -> float:
    """exp(log_value) rounded up (or down) past the rounding of exp and of
    the few flops that formed log_value from terms of total size magnitude.

    Callers pass magnitude >= n log h > 708, so the slack also covers the
    relative rounding of the bound quotient.
    """
    slack = 8.0 * sys.float_info.epsilon * magnitude
    if up:
        return math.nextafter(math.exp(log_value + slack), math.inf)
    return math.nextafter(math.exp(log_value - slack), 0.0)


def asymptotic_constant(rot_e: float, rot_f: float) -> float:
    """Limit of upper/lower as n grows: (2 RotE + 1)(2 RotF + 1)."""
    return (2.0 * rot_e + 1.0) * (2.0 * rot_f + 1.0)


def _bound_quotient(m_ef: float, m_fe: float, h: float, n: int) -> float:
    """The bracket multiplying h^(-n) in the explicit upper bound."""
    q = h ** (-n)
    q2 = q * q
    guard = 1.0 - (1.0 + m_ef) * q
    if guard <= 0.0:
        return math.inf
    numer = m_ef * m_fe / (1.0 - q2) + 32.0 * n * m_ef * q / guard**2
    denom = 1.0 - m_ef * m_fe / (1.0 - q2) * q - m_ef / guard * q - q2
    if denom <= 0.0:
        return math.inf
    return numer / denom


def zolotarev_upper(gc: GeometryConstants, n: int) -> BoundValue:
    """Explicit upper bound at degree n, clamped to 1 outside validity.

    upper_valid records whether n > N0 and the denominator is positive;
    whenever the formula is invalid or exceeds 1 the trivial bound 1 is
    reported with clamped = True.  lower is always h^(-n).  Where h^(-n)
    is not a normal double, upper is quotient * h^(-n) taken in log space
    and rounded up, so it is never 0.0.
    """
    if n < 0 or n != int(n):
        raise ValueError("degree n must be a non-negative integer")
    n = int(n)
    h = gc.h
    if gc.variant == "A1":
        m_ef = m_n(gc.rot_e, gc.rot_f, h, n)
        m_fe = m_n(gc.rot_f, gc.rot_e, h, n)
    else:
        m_ef = tilde_m_n(gc.rot_e, gc.rot_f, h, n)
        m_fe = tilde_m_n(gc.rot_f, gc.rot_e, h, n)
    x0, n0 = validity_constants(gc.rot_e, gc.rot_f, h, gc.variant)
    lower = zolotarev_lower(h, n)

    quotient = _bound_quotient(m_ef, m_fe, h, n)
    valid = n > n0 and math.isfinite(quotient)
    if not valid:
        upper = math.inf
    elif lower >= sys.float_info.min:
        upper = quotient * lower
    else:
        log_q, log_h = math.log(quotient), math.log(h)
        upper = _outward_exp(log_q - n * log_h, abs(log_q) + n * log_h,
                             up=True)
    clamped = not valid or upper > 1.0
    if clamped:
        upper = 1.0
    return BoundValue(n=n, lower=lower, upper=float(upper), upper_valid=valid,
                      clamped=clamped, m_ef=m_ef, m_fe=m_fe, x0=x0, n0=n0)


# -- intermediate bounds on the filtered rationals --------------------------

def sup_rn_bound(rot_e: float, rot_f: float, h: float, n: int) -> float:
    """Upper bound for sup over E of |R_n|: M_n(E,F)/(1 - h^(-2n))."""
    return m_n(rot_e, rot_f, h, n) / (1.0 - h ** (-2 * n))
