"""ADI iteration for AX - XB = M and the three shift families.

Shift quality is judged by the certificate
    max_{z in dE} |s_k(z)| / min_{z in dF} |s_k(z)|,
with s_k(z) = prod_j (z - kappa_j)/(z - tau_j), which bounds the relative
2-norm error of k ADI steps when A and B are normal with spectra in E, F.
Test problems have diagonal A and B, stored as their spectra, so they are
normal by construction and every ADI half-step is an entrywise division.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .conformal import ExteriorOf, psi_boundary
from .errors import (
    FaberzolError,
    InvalidRegionError,
    QuadratureError,
    UncertifiedError,
)
from .faber import _reciprocal, _scan_inv_rn
from .geometry import Region, contains_many, random_points
from .quadrature import BoundaryQuadrature
from .rational import aaa_fit, poles_zeros

_SHIFT_KINDS = ("faber", "fejer", "leja")


@dataclass(frozen=True)
class ShiftSet:
    """k shift pairs: kappa near E (zeros side), tau near F (poles side)."""

    kind: str
    kappa: tuple
    tau: tuple

    def __post_init__(self):
        if self.kind not in _SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}")
        kappa = tuple(complex(z) for z in self.kappa)
        tau = tuple(complex(z) for z in self.tau)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "tau", tau)
        if len(kappa) != len(tau):
            raise ValueError("shift lists must have the same length")
        if set(kappa) & set(tau):
            raise ValueError("kappa and tau shifts must be distinct")

    @property
    def k(self) -> int:
        return len(self.kappa)


@dataclass(frozen=True, eq=False)
class SylvesterProblem:
    """AX - XB = M with diagonal A = diag(spectrum_a), B = diag(spectrum_b)
    and a reference X."""

    region_e: Region
    region_f: Region
    spectrum_a: np.ndarray
    spectrum_b: np.ndarray
    rhs: np.ndarray
    solution: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.spectrum_a, dtype=complex)
        b = np.asarray(self.spectrum_b, dtype=complex)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("spectra of A and B must be 1-D arrays")
        m, p = a.size, b.size
        rhs = np.asarray(self.rhs, dtype=complex)
        sol = np.asarray(self.solution, dtype=complex)
        if rhs.shape != (m, p) or sol.shape != (m, p):
            raise ValueError("right-hand side and solution must be m x p")
        for lam, region, name in ((a, self.region_e, "A"),
                                  (b, self.region_f, "B")):
            inside, on = contains_many(region, lam)
            if not np.all(inside | on):
                raise InvalidRegionError(
                    f"spectrum of {name} is not contained in its region"
                )
        object.__setattr__(self, "spectrum_a", a)
        object.__setattr__(self, "spectrum_b", b)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "solution", sol)

    @property
    def shape(self):
        return self.rhs.shape

    @functools.cached_property
    def solution_norm(self) -> float:
        """2-norm of the reference solution, computed once per problem."""
        return np.linalg.norm(self.solution, 2)

    def relative_error(self, x) -> float:
        """Relative 2-norm error of an iterate against the reference."""
        return float(np.linalg.norm(x - self.solution, 2) / self.solution_norm)


def sylvester_problem(region_e, region_f, m: int, p=None, seed=0):
    """Random diagonal test problem with spectra inside E and F.

    The reference solution is closed form: X_ij = M_ij / (a_i - b_j).
    """
    if isinstance(region_e, ExteriorOf) or isinstance(region_f, ExteriorOf):
        raise InvalidRegionError("spectra must lie in bounded regions")
    p = m if p is None else p
    if m < 1 or p < 1:
        raise ValueError("matrix dimensions must be positive")
    rng = np.random.default_rng(seed)
    a = random_points(region_e, m, rng)
    b = random_points(region_f, p, rng)
    rhs = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
    sol = rhs / (a[:, None] - b[None, :])
    return SylvesterProblem(region_e, region_f, a, b, rhs, sol)


def adi_iterate(problem: SylvesterProblem, shifts: ShiftSet):
    """Run one ADI step per shift pair from X^(0) = 0.

    Each step solves the two half-step systems
        (A - tau_j I) X^(j-1/2) = X^(j-1) (B - tau_j I) + M,
        X^(j) (B - kappa_j I) = (A - kappa_j I) X^(j-1/2) - M,
    which for diagonal A and B are entrywise divisions by a_i - tau_j and
    b_l - kappa_j.  A shift on the spectrum raises FaberzolError.
    Returns the list [X^(1), ..., X^(k)] with k = shifts.k; the error of
    an iterate x is problem.relative_error(x).
    """
    a = problem.spectrum_a[:, None]
    b = problem.spectrum_b[None, :]
    rhs = problem.rhs
    x = np.zeros(problem.shape, dtype=complex)
    history = []
    for kappa, tau in zip(shifts.kappa, shifts.tau):
        with np.errstate(divide="ignore", invalid="ignore"):
            half = (x * (b - tau) + rhs) / (a - tau)
            x = ((a - kappa) * half - rhs) / (b - kappa)
        if not np.all(np.isfinite(x)):
            raise FaberzolError("shift collides with spectrum")
        history.append(x)
    return history


def _log_shift_product(z, kappa, tau):
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.sum(np.log(np.abs(z[:, None] - kappa[None, :])), axis=1)
        den = np.sum(np.log(np.abs(z[:, None] - tau[None, :])), axis=1)
        return num - den


def error_certificate(shifts: ShiftSet,
                      quad_e: BoundaryQuadrature,
                      quad_f: BoundaryQuadrature) -> float:
    """max_{dE} |s_k| / min_{dF} |s_k|, computed in log magnitude.

    Bounds the relative 2-norm ADI error after k steps for normal
    coefficients with spectra in E and F.  A ratio beyond the float range
    raises UncertifiedError with its natural log.
    """
    if shifts.k == 0:
        raise ValueError("shift set is empty")
    kappa = np.asarray(shifts.kappa)
    tau = np.asarray(shifts.tau)
    log_e = _log_shift_product(quad_e.nodes, kappa, tau)
    log_f = _log_shift_product(quad_f.nodes, kappa, tau)
    # a kappa zero on dE (or tau pole on dF) only pushes that sample away
    # from the extremum; the opposite collision poisons it
    max_e = float(np.max(log_e))
    min_f = float(np.min(log_f))
    if not (math.isfinite(max_e) and math.isfinite(min_f)):
        raise QuadratureError(
            "shift coincides with a boundary sample; refine the sampling"
        )
    try:
        return math.exp(max_e - min_f)
    except OverflowError:
        raise UncertifiedError(
            f"certificate overflows: log ratio {max_e - min_f:.6g} exceeds "
            "the float range; the shifts do not separate E from F"
        ) from None


def _drop_doublets(poles, zeros, tol: float):
    """Remove near-cancelling zero/pole pairs from a rational fit.

    Fits of noisy boundary data absorb the data error into spurious pairs
    whose zero and pole nearly coincide; a genuine zero and pole of r_k
    sit in E and F respectively and can never be within tol of each other.
    Pairs are matched greedily, closest first.
    """
    poles = np.asarray(poles, dtype=complex)
    zeros = np.asarray(zeros, dtype=complex)
    while poles.size and zeros.size:
        dist = np.abs(zeros[:, None] - poles[None, :])
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[i, j] > tol:
            break
        zeros = np.delete(zeros, i)
        poles = np.delete(poles, j)
    return poles, zeros


def _pick_near(candidates, region, samples, k, label):
    """Keep the k candidates nearest the region; fewer than k raises."""
    if candidates.size < k:
        raise UncertifiedError(
            f"shifts uncertified: {candidates.size} {label} resolved, need {k}"
        )
    dist = np.abs(candidates[:, None] - samples[None, :]).min(axis=1)
    inside, on = contains_many(region, candidates)
    dist[inside | on] = 0.0
    order = np.argsort(dist, kind="stable")
    if candidates.size > k:
        warnings.warn(
            f"{candidates.size} {label} resolved; keeping the {k} nearest",
            stacklevel=4,
        )
    return candidates[np.sort(order[:k])]


def faber_shifts(contexts) -> list:
    """The shift set of each context: zeros and poles of r_k, k = ctx.n,
    recovered from boundary fits; the contexts share one BoundaryData.

    r_k is sampled at the dense-scan points of each boundary (4 n_quad of
    them), whose kernels are built part by part once for all the
    contexts, and fit by AAA; kappa are the zeros of the E-side fit, tau
    the poles of the F-side fit.  Each set equals that of a call with its
    context alone, bit for bit.  Raises for the first context, E side
    before F side, whose samples are not finite or whose fit does not
    resolve k zeros or poles.
    """
    contexts = list(contexts)
    if any(ctx.n < 1 for ctx in contexts):
        raise ValueError("need at least one shift")
    if not contexts:
        return []
    data = contexts[0].data
    if any(ctx.data is not data for ctx in contexts):
        raise ValueError("contexts must share one BoundaryData")
    sides = [(scan, region, want, _scan_inv_rn(contexts, scan))
             for scan, region, want in (
                 (data.e_scan, data.map.region_e, "zeros"),
                 (data.f_scan, data.map.region_f, "poles"))]
    shift_sets = []
    for i, ctx in enumerate(contexts):
        picked = []
        for scan, region, want, inv in sides:
            picked.append(tuple(_fit_shifts(
                scan.z, region, want, _reciprocal(inv[i]), ctx.n)))
        shift_sets.append(ShiftSet("faber", *picked))
    return shift_sets


def _fit_shifts(z, region, want, f, k):
    """The k zeros (want "zeros") or poles of an AAA fit of samples f of r_k
    at the boundary points z of region, nearest the region."""
    bad = int(np.count_nonzero(~np.isfinite(f)))
    if bad:  # aaa_fit takes finite samples only
        raise UncertifiedError(f"shifts uncertified: r_k is not finite "
                               f"at {bad} boundary sample(s)")
    fit = aaa_fit(z, f, 1e-12, k + 12)  # tol, max_degree
    scale = float(np.max(np.abs(f)))
    if fit.residual > 1e-6 * scale:
        raise UncertifiedError(
            "shifts uncertified: boundary fit residual "
            f"{fit.residual / scale:.2e} exceeds 1e-06"
        )
    poles, zeros = poles_zeros(fit)
    span = float(np.abs(z - z.mean()).max())
    poles, zeros = _drop_doublets(poles, zeros, 1e-5 * span)
    cand = zeros if want == "zeros" else poles
    return _pick_near(cand, region, z, k, want)


def fejer_shifts(amap, k: int) -> ShiftSet:
    """Images of equispaced annulus boundary points under the inverse map."""
    if k < 1:
        raise ValueError("need at least one shift")
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    kappa = psi_boundary(amap, roots)
    tau = psi_boundary(amap, amap.h * roots)
    return ShiftSet("fejer", tuple(kappa), tuple(tau))


def leja_shifts(quad_e: BoundaryQuadrature,
                quad_f: BoundaryQuadrature, k: int) -> ShiftSet:
    """Greedy shifts: grow s_j one zero/pole pair at a time.

    kappa_{j+1} maximizes |s_j| over the E samples, then tau_{j+1}
    minimizes |s_j (z - kappa_{j+1})| over the F samples.  Products are
    tracked in log magnitude; ties break to the lowest sample index, so
    with s_0 = 1 the first zero is the first E sample.
    """
    if k < 1:
        raise ValueError("need at least one shift")
    z_e, z_f = quad_e.nodes, quad_f.nodes
    if z_e.size < 500 or z_f.size < 500:
        raise ValueError("need at least 500 boundary samples per side")
    log_e = np.zeros(z_e.size)
    log_f = np.zeros(z_f.size)
    kappa, tau = [], []
    with np.errstate(divide="ignore"):
        for _ in range(k):
            kap = z_e[int(np.argmax(log_e))]
            log_e += np.log(np.abs(z_e - kap))
            log_f += np.log(np.abs(z_f - kap))
            ta = z_f[int(np.argmin(log_f))]
            log_e -= np.log(np.abs(z_e - ta))
            log_f -= np.log(np.abs(z_f - ta))
            kappa.append(kap)
            tau.append(ta)
    return ShiftSet("leja", tuple(kappa), tuple(tau))
