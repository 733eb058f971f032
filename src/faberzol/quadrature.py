"""Contour quadrature and Cauchy-transform kernels.

All transforms work on a BoundaryQuadrature whose complex weights
approximate the increments d zeta of a counterclockwise closed contour,
so that sum(values * weights) ~ the contour integral of the sampled
function.  cauchy_stabilized (interior targets) and cauchy_boundary
(targets on or outside the contour) stay accurate up to the contour itself;
cauchy_kernel precomputes cauchy_boundary for targets that many densities
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationDomainError, QuadratureError

_TWO_PI_I = 2j * math.pi

# Chunk size (complex entries) for node-by-target outer products.
_CHUNK = 1 << 21

# A target within this fraction of the contour diameter of a node is a hit.
_HIT_RTOL = 1e-13

# Kernel entries |w_j/(zeta_j - z_i)| above this are kept out of the
# precomputed matrix of a CauchyKernel (see cauchy_kernel).
_NEAR = 1.0


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Nodes, complex weights ~ d zeta, and arc parameters in [0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    arc_params: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex)
        weights = np.asarray(self.weights, dtype=complex)
        params = np.asarray(self.arc_params, dtype=float)
        if not (nodes.size == weights.size == params.size):
            raise QuadratureError("nodes, weights, arc_params must align")
        if nodes.size < 16:
            raise QuadratureError("need at least 16 quadrature nodes")
        closure = abs(weights.sum())
        if closure > 1e-10 * np.abs(weights).sum():
            raise QuadratureError(
                f"weights do not close up: |sum w| = {closure:g}"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "arc_params", params)

    def __len__(self):
        return self.nodes.size

    @property
    def diameter(self) -> float:
        lo, hi = self.nodes.real.min(), self.nodes.real.max()
        lo2, hi2 = self.nodes.imag.min(), self.nodes.imag.max()
        return float(math.hypot(hi - lo, hi2 - lo2))


def _kernel_sum(coeffs, nodes, z):
    """sum_j coeffs_j / (nodes_j - z), vectorized and chunked over z."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zf = np.atleast_1d(z).ravel()
    out = np.empty(zf.shape, dtype=complex)
    step = max(1, _CHUNK // nodes.size)
    for lo in range(0, zf.size, step):
        hi = min(zf.size, lo + step)
        out[lo:hi] = (coeffs[None, :] / (nodes[None, :] - zf[lo:hi, None])).sum(axis=1)
    if scalar:
        return complex(out[0])
    return out.reshape(z.shape)


def _raw_transform(values, quad: BoundaryQuadrature, z):
    values = np.asarray(values, dtype=complex)
    return _kernel_sum(values * quad.weights, quad.nodes, z) / _TWO_PI_I


def winding_of_polyline(points) -> int:
    """Winding number of a closed sampled curve about 0, by argument
    accumulation (exact for the polyline as long as it avoids 0)."""
    rel = np.asarray(points, dtype=complex)
    if np.any(np.abs(rel) == 0.0):
        raise QuadratureError("curve passes through the base point")
    ang = np.angle(np.roll(rel, -1) / rel)
    total = ang.sum() / (2.0 * math.pi)
    nearest = round(total)
    if abs(total - nearest) > 1e-8:
        raise QuadratureError("winding accumulation did not close up")
    return int(nearest)


def cauchy_plus(values, quad: BoundaryQuadrature, z):
    """Interior Cauchy transform (1/2 pi i) * oint values/(zeta - z) d zeta.

    Plain quadrature; accurate for z well inside the contour.  A winding
    estimate flags targets outside the contour.
    """
    _check_winding(quad, z, 1)
    return _raw_transform(values, quad, z)


def cauchy_minus(values, quad: BoundaryQuadrature, z):
    """Exterior Cauchy transform, same integral for z outside the contour."""
    _check_winding(quad, z, 0)
    return _raw_transform(values, quad, z)


def _check_winding(quad, z, winding: int):
    """Raise unless every target has the given winding number (1 inside)."""
    w = _kernel_sum(quad.weights, quad.nodes, z) / _TWO_PI_I
    bad = np.abs(np.atleast_1d(w) - winding) > 0.5
    if np.any(bad):
        where = "inside" if winding else "outside"
        raise EvaluationDomainError(
            f"{int(bad.sum())} target(s) are not {where} the contour"
        )


def _nodal_derivative(vals, quad: BoundaryQuadrature):
    """d values / d zeta at the quadrature nodes.

    Equispaced arc parameters (trapezoid rules) get spectral FFT
    differentiation; otherwise a local degree-8 polynomial through the 9
    nearest nodes is differentiated at its center.  Weights w_j ~ zeta'(t_j)
    dt convert parameter derivatives to spatial ones.
    """
    n = len(quad)
    t = quad.arc_params
    dt = np.diff(t)
    if np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        k = np.fft.fftfreq(n, d=1.0 / n)
        if n % 2 == 0:
            k[n // 2] = 0.0
        dfdt = np.fft.ifft(_TWO_PI_I * k * np.fft.fft(vals))
        return dfdt / (quad.weights * n)
    out = np.empty(n, dtype=complex)
    half = 4
    offsets = np.arange(-half, half + 1)
    for j in range(n):
        sel = (j + offsets) % n
        dz = quad.nodes[sel] - quad.nodes[j]
        s = np.abs(dz).max()
        a = np.vander(dz / s, N=offsets.size, increasing=True)
        coef, *_ = np.linalg.lstsq(a, vals[sel], rcond=None)
        out[j] = coef[1] / s
    return out


def cauchy_boundary(values, quad: BoundaryQuadrature, z, f_at):
    """Cauchy filter of f at targets z on or outside the contour:
    f(z) + (1/2 pi i) Int (f(zeta) - f(z))/(zeta - z) d zeta.

    Valid when f extends analytically across the contour to z, which makes
    the subtracted integrand regular; f_at supplies f(z).  Outside the
    contour this is f(z) plus the exterior transform, since
    oint d zeta/(zeta - z) = 0 there, and the subtraction keeps full
    quadrature accuracy up to the contour.  On it this is the
    enclosed-side boundary limit; unlike the barycentric ratio form it
    stays an interpolant between the nodes of panel-based rules, where
    quadrature weights differ from barycentric weights.  A node collision
    contributes w_j f'(node), with f' from _nodal_derivative.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    f_at = np.broadcast_to(np.asarray(f_at, dtype=complex).ravel(), z.shape)
    vals = np.asarray(values, dtype=complex)
    tol = _HIT_RTOL * quad.diameter
    out = np.empty(z.shape, dtype=complex)
    step = max(1, _CHUNK // len(quad))
    deriv = None
    for lo in range(0, z.size, step):
        hi = min(z.size, lo + step)
        diff = quad.nodes[None, :] - z[lo:hi, None]
        hit = np.abs(diff) <= tol
        # in place: a fresh temporary per step of a chunk this large is
        # paid for in page faults
        terms = vals[None, :] - f_at[lo:hi, None]
        terms *= quad.weights[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms /= diff
        if np.any(hit):
            if deriv is None:
                deriv = _nodal_derivative(vals, quad)
            rows, cols = np.nonzero(hit)
            terms[rows, cols] = quad.weights[cols] * deriv[cols]
        out[lo:hi] = terms.sum(axis=1)
    return f_at + out / _TWO_PI_I


@dataclass(frozen=True, eq=False)
class CauchyKernel:
    """cauchy_boundary at fixed targets z_i, precomputed as a matrix.

    matrix[i, j] = w_j/(zeta_j - z_i) and row_sums its row sums, with two
    kinds of pair left out and listed apart: near pairs (near_rows,
    near_cols, near_diff = zeta_j - z_i), whose subtracted terms
    (f(zeta_j) - f(z_i)) w_j/(zeta_j - z_i) are formed per call, since
    splitting them into two large products would cancel; and node hits
    (hit_rows, hit_cols), which contribute w_j f'(zeta_j) as in
    cauchy_boundary.  Applying the kernel costs one matrix-vector product,
    against a fresh node-by-target division per call of cauchy_boundary;
    the two agree to rounding, not bitwise.
    """

    quad: BoundaryQuadrature
    matrix: np.ndarray
    row_sums: np.ndarray
    near_rows: np.ndarray
    near_cols: np.ndarray
    near_diff: np.ndarray
    hit_rows: np.ndarray
    hit_cols: np.ndarray

    def __call__(self, values, f_at):
        """cauchy_boundary(values, quad, z, f_at) at the kernel's targets."""
        vals = np.asarray(values, dtype=complex)
        f_at = np.asarray(f_at, dtype=complex)
        total = self.matrix @ vals - f_at * self.row_sums
        near = self.near_cols
        terms = vals[near] - f_at[self.near_rows]
        terms *= self.quad.weights[near]
        terms /= self.near_diff
        np.add.at(total, self.near_rows, terms)
        if self.hit_rows.size:
            deriv = _nodal_derivative(vals, self.quad)
            hit = self.hit_cols
            np.add.at(total, self.hit_rows, self.quad.weights[hit] * deriv[hit])
        return f_at + total / _TWO_PI_I


def cauchy_kernel(quad: BoundaryQuadrature, z) -> CauchyKernel:
    """The kernel of cauchy_boundary over quad at targets z (on or outside
    the contour), for transforming many densities at the same targets.

    A pair is near when |w_j/(zeta_j - z_i)| > _NEAR, that is when the
    target is closer to node j than about the node spacing there.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    diff = quad.nodes[None, :] - z[:, None]
    hit = np.abs(diff) <= _HIT_RTOL * quad.diameter
    with np.errstate(divide="ignore", invalid="ignore"):
        matrix = quad.weights[None, :] / diff
    near = np.abs(matrix) > _NEAR
    near &= ~hit
    near_rows, near_cols = np.nonzero(near)
    near_diff = diff[near]
    matrix[near | hit] = 0.0
    hit_rows, hit_cols = np.nonzero(hit)
    return CauchyKernel(quad, matrix, matrix.sum(axis=1), near_rows,
                        near_cols, near_diff, hit_rows, hit_cols)


def cauchy_stabilized(values, quad: BoundaryQuadrature, z):
    """Interior Cauchy transform in barycentric ratio form
        [sum v_j w_j/(z_j - z)] / [sum w_j/(z_j - z)],
    exact for constant values at any interior z and usable up to the
    contour, where it reduces to an interpolant of the samples.
    """
    values = np.asarray(values, dtype=complex)
    z = np.asarray(z, dtype=complex)
    zf = np.atleast_1d(z).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        num = _kernel_sum(values * quad.weights, quad.nodes, zf)
        den = _kernel_sum(quad.weights, quad.nodes, zf)
        out = np.atleast_1d(num / den)
    bad = ~np.isfinite(out)
    if np.any(bad):
        # target collided with a node: the interpolant takes its value
        idx = np.abs(quad.nodes[None, :] - zf[bad, None]).argmin(axis=1)
        out[bad] = values[idx]
    if z.ndim == 0:
        return complex(out[0])
    return out.reshape(z.shape)
