"""Contour quadrature and Cauchy-transform kernels.

All transforms work on a BoundaryQuadrature whose complex weights
approximate the increments d zeta of a counterclockwise closed contour,
so that sum(values * weights) ~ the contour integral of the sampled
function.  cauchy_stabilized (interior targets) and cauchy_boundary
(targets on or outside the contour) stay accurate up to the contour itself.
Every transform is a sum over w_j/(zeta_j - z), formed only by
cauchy_kernel, one block of targets at a time; a kernel kept for fixed
targets serves any number of densities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationDomainError, QuadratureError

_TWO_PI_I = 2j * math.pi

# Budget (entries) of one block of a node-by-target product (_blocks).
_CHUNK = 1 << 19

# A target within this fraction of the contour diameter of a node is a hit.
_HIT_RTOL = 1e-13

# Kernel entries |w_j/(zeta_j - z_i)| above this are kept out of the
# precomputed matrix of a CauchyKernel (see cauchy_kernel).
_NEAR = 1.0


@dataclass(frozen=True, eq=False)
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

    # cached: every cauchy_kernel over this rule reads both
    @functools.cached_property
    def diameter(self) -> float:
        lo, hi = self.nodes.real.min(), self.nodes.real.max()
        lo2, hi2 = self.nodes.imag.min(), self.nodes.imag.max()
        return float(math.hypot(hi - lo, hi2 - lo2))

    @functools.cached_property
    def min_weight(self) -> float:
        """min_j |w_j|."""
        return float(np.abs(self.weights).min())


def _blocks(n, cost, cap=math.inf):
    """Consecutive slices of n items costing at most min(_CHUNK, cap) in
    all, or of one item that costs more; cost is one number for every item
    or an ndarray of n.  _CHUNK is read at each call."""
    budget = min(_CHUNK, cap)
    total = np.cumsum(cost) if isinstance(cost, np.ndarray) else None
    start = 0
    while start < n:
        reach = (start + budget // cost if total is None else np.searchsorted(
            total, total[start] - cost[start] + budget, "right"))
        stop = min(n, max(start + 1, int(reach)))
        yield slice(start, stop)
        start = stop


def _kernels(quad: BoundaryQuadrature, z):
    """(block, cauchy_kernel(quad, z[block])) for the _blocks of flat z."""
    for block in _blocks(z.size, len(quad)):
        yield block, cauchy_kernel(quad, z[block])


def _flat(z):
    return np.asarray(z, dtype=complex).ravel()


def _shaped(out, z):
    """out (flat) in the shape of the targets z; a scalar for a scalar z."""
    z = np.asarray(z)
    if z.ndim == 0:
        return complex(out[0])
    return out.reshape(z.shape)


def _ldexp(z, k):
    """z times 2**k for a complex array z: each part is scaled exactly, or
    rounded to nearest where it leaves the normal range (z itself for
    k = 0)."""
    if k == 0:
        return z
    return np.ldexp(np.ascontiguousarray(z).view(float), k).view(complex)


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
    return _plain_transform(values, quad, z, 1)


def cauchy_minus(values, quad: BoundaryQuadrature, z):
    """Exterior Cauchy transform, same integral for z outside the contour."""
    return _plain_transform(values, quad, z, 0)


def _plain_transform(values, quad, z, winding: int):
    """(1/2 pi i) sum_j values_j w_j/(zeta_j - z) at targets z, after
    checking that every target has the given winding number (1 inside),
    estimated by the same sum for values 1 (inf on a node)."""
    num, den, _ = _plain_sums(values, quad, z)
    bad = np.abs(den / _TWO_PI_I - winding) > 0.5
    if np.any(bad):
        where = "inside" if winding else "outside"
        raise EvaluationDomainError(
            f"{int(bad.sum())} target(s) are not {where} the contour"
        )
    return _shaped(num / _TWO_PI_I, z)


def _plain_sums(values, quad, z):
    """CauchyKernel.plain of values and of 1 at the targets z, flattened,
    and the node each target hits (-1 for none)."""
    ones = np.ones(len(quad))
    z = _flat(z)
    num = np.empty(z.shape, dtype=complex)
    den = np.empty(z.shape, dtype=complex)
    node = np.full(z.shape, -1)
    for block, kernel in _kernels(quad, z):
        num[block] = kernel.plain(values)
        den[block] = kernel.plain(ones)
        node[block][kernel.hit_rows] = kernel.hit_cols
    return num, den, node


def _nodal_derivative(vals, quad: BoundaryQuadrature):
    """d values / d zeta at the quadrature nodes.

    Equispaced arc parameters (trapezoid rules) get spectral FFT
    differentiation; otherwise a local degree-8 polynomial through the 9
    nearest nodes is differentiated at its center, all nodes in one
    batched solve of their 9 x 9 Vandermonde systems.  Weights
    w_j ~ zeta'(t_j) dt convert parameter derivatives to spatial ones.
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
    sel = (np.arange(n)[:, None] + np.arange(-4, 5)) % n
    dz = quad.nodes[sel] - quad.nodes[:, None]
    s = np.abs(dz).max(axis=1)
    # rows 1, x, x^2, ... of each node's Vandermonde matrix, as np.vander
    vander = np.ones(dz.shape + (9,), dtype=complex)
    vander[:, :, 1:] = (dz / s[:, None])[:, :, None]
    np.multiply.accumulate(vander[:, :, 1:], axis=2, out=vander[:, :, 1:])
    coef = np.linalg.solve(vander, vals[sel][:, :, None])
    return coef[:, 1, 0] / s


def cauchy_boundary(values, quad: BoundaryQuadrature, z, f_at, exponent=0):
    """Cauchy filter of f at targets z on or outside the contour:
    f(z) + (1/2 pi i) Int (f(zeta) - f(z))/(zeta - z) d zeta,
    where f(zeta) = values 2^exponent at the nodes (see CauchyKernel).

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
    zf = _flat(z)
    f_at = np.broadcast_to(np.asarray(f_at, dtype=complex).ravel(), zf.shape)
    out = np.empty(zf.shape, dtype=complex)
    for block, kernel in _kernels(quad, zf):
        out[block] = kernel(values, f_at[block], exponent)
    return _shaped(out, z)


@dataclass(frozen=True, eq=False)
class CauchyKernel:
    """The Cauchy sums over quad at fixed targets z_i, precomputed.

    matrix[i, j] = w_j/(zeta_j - z_i) and row_sums its row sums, with two
    kinds of pair left out and listed apart: near pairs (near_rows,
    near_cols, near_diff = zeta_j - z_i), whose terms are formed per call,
    since in the subtracted form splitting them into two large products
    would cancel; and node hits (hit_rows, hit_cols), where the target is
    a node.  Calling the kernel gives the subtracted form of
    cauchy_boundary, plain the plain sum; each costs one matrix-vector
    product.  A density kept at another scale than f_at passes an exponent:
    the products with the values are multiplied by 2^exponent after they
    are formed, so no product of the values underflows or overflows on the
    way, and the scaling is exact wherever the result stays normal.
    """

    quad: BoundaryQuadrature
    matrix: np.ndarray
    row_sums: np.ndarray
    near_rows: np.ndarray
    near_cols: np.ndarray
    near_diff: np.ndarray
    hit_rows: np.ndarray
    hit_cols: np.ndarray

    def __call__(self, values, f_at, exponent=0):
        """cauchy_boundary(values, quad, z, f_at, exponent) at the kernel's
        targets: a node hit contributes w_j f'(zeta_j), f' from
        _nodal_derivative."""
        vals = np.asarray(values, dtype=complex)
        f_at = np.asarray(f_at, dtype=complex)
        total = _ldexp(self.matrix @ vals, exponent) - f_at * self.row_sums
        near = self.near_cols
        if near.size:
            terms = _ldexp(vals[near], exponent) - f_at[self.near_rows]
            terms *= self.quad.weights[near]
            terms /= self.near_diff
            np.add.at(total, self.near_rows, terms)
        if self.hit_rows.size:
            deriv = _nodal_derivative(vals, self.quad)
            hit = self.hit_cols
            np.add.at(total, self.hit_rows,
                      _ldexp(self.quad.weights[hit] * deriv[hit], exponent))
        return f_at + total / _TWO_PI_I

    def plain(self, values):
        """sum_j values_j w_j/(zeta_j - z_i) at the kernel's targets; a row
        with a node hit is flagged inf."""
        vals = np.asarray(values, dtype=complex)
        total = self.matrix @ vals
        near = self.near_cols
        np.add.at(total, self.near_rows,
                  vals[near] * self.quad.weights[near] / self.near_diff)
        total[self.hit_rows] = np.inf
        return total


def cauchy_kernel(quad: BoundaryQuadrature, z) -> CauchyKernel:
    """The Cauchy kernel over quad at targets z, for transforming many
    densities at the same targets; every transform here is built from it.

    A pair is near when |w_j/(zeta_j - z_i)| > _NEAR, that is when the
    target is closer to node j than about the node spacing there; a pair
    is a hit when |zeta_j - z_i| <= _HIT_RTOL times the contour diameter.
    """
    z = _flat(z)
    tol = _HIT_RTOL * quad.diameter
    # one buffer: the differences zeta_j - z_i, then w_j over them in place
    matrix = quad.nodes[None, :] - z[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(quad.weights[None, :], matrix, out=matrix)
    # a hit has |w_j/(zeta_j - z_i)| >= |w_j|/tol, so it passes the cut too
    cut = min(_NEAR, 0.5 * quad.min_weight / tol)
    rows, cols = np.divmod(np.flatnonzero(np.abs(matrix) > cut), len(quad))
    diff = quad.nodes[cols] - z[rows]
    hit = np.abs(diff) <= tol
    near = ~hit & (np.abs(matrix[rows, cols]) > _NEAR)
    matrix[rows[hit | near], cols[hit | near]] = 0.0
    return CauchyKernel(quad, matrix, matrix.sum(axis=1), rows[near],
                        cols[near], diff[near], rows[hit], cols[hit])


def cauchy_stabilized(values, quad: BoundaryQuadrature, z):
    """Interior Cauchy transform in barycentric ratio form
        [sum v_j w_j/(z_j - z)] / [sum w_j/(z_j - z)],
    exact for constant values at any interior z and usable up to the
    contour, where it reduces to an interpolant of the samples: a target on
    a node takes that node's value.
    """
    vals = np.asarray(values, dtype=complex)
    num, den, node = _plain_sums(vals, quad, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    hit = node >= 0
    out[hit] = vals[node[hit]]
    return _shaped(out, z)
