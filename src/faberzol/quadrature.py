"""Contour quadrature and Cauchy-transform kernels.

All transforms work on a BoundaryQuadrature whose complex weights
approximate the increments d zeta of a counterclockwise closed contour,
so that sum(values * weights) ~ the contour integral of the sampled
function.  Every transform is a method of the CauchyKernel that
cauchy_kernel forms at fixed targets: the plain sum, the barycentric ratio
(stabilized, interior targets) and the subtracted form (a call, targets on
or outside the contour), the last two accurate up to the contour itself.
A kernel serves any number of densities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

_TWO_PI_I = 2j * math.pi

# Budget (entries) of one block of a node-by-target product (_blocks).
_CHUNK = 1 << 19

# Budget (entries) of one block of a Cauchy kernel (_kernel_blocks): 1 MiB,
# so that a block's kernel stays in a core's cache while it serves every
# density applied to it.
_KERNEL_BLOCK = 1 << 16

# A target within this fraction of the contour diameter of a node is a hit.
_HIT_RTOL = 1e-13

# Kernel entries |w_j/(zeta_j - z_i)| above this are kept out of the
# precomputed matrix of a CauchyKernel (see cauchy_kernel).
_NEAR = 1.0

# Consecutive nodes of one run of BoundaryQuadrature.runs.
_RUN = 32

# A kernel of fewer entries takes the dense near-pair test (cauchy_kernel),
# which costs less there than the box tests of the runs.
_DENSE_TEST = 1 << 14


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

    @functools.cached_property
    def _equispaced(self) -> bool:
        """Whether the arc parameters are equispaced (a trapezoid rule):
        _nodal_derivative then differentiates by FFT."""
        dt = np.diff(self.arc_params)
        return bool(np.allclose(dt, dt[0], rtol=1e-9, atol=0.0))

    @functools.cached_property
    def runs(self):
        """(cols, boxes, box) of the runs of _RUN consecutive nodes, the
        last run shorter: cols[k] the columns of run k, padded with -1;
        boxes[:, k] its min Re, max Re, min Im and max Im widened by twice
        its max |w_j| over _NEAR; box the same over the whole rule.  A
        target outside the box of a run is farther than 2|w_j|/_NEAR from
        each node j of it, so |w_j/(zeta_j - z)| < _NEAR/2, and rounding
        cannot lift it past _NEAR."""
        n = len(self)
        cols = np.arange(-(-n // _RUN) * _RUN).reshape(-1, _RUN)
        cols[cols >= n] = -1
        reach = 2.0 * np.abs(self.weights)[cols].max(axis=1) / _NEAR
        re, im = self.nodes.real[cols], self.nodes.imag[cols]
        boxes = np.stack([re.min(axis=1) - reach, re.max(axis=1) + reach,
                          im.min(axis=1) - reach, im.max(axis=1) + reach])
        box = (boxes[0].min(), boxes[1].max(), boxes[2].min(),
               boxes[3].max())
        return cols, boxes, box


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


def _kernel_blocks(n_targets: int, n_quad: int):
    """The blocks of the rows of a kernel at n_targets targets over n_quad
    nodes: _blocks of at most _KERNEL_BLOCK entries, save that a lone last
    row joins the block before it.  A block of 2 or more rows rounds its
    matrix-vector products as the same rows of one product over all the
    targets, while one row alone rounds differently, so every row's value
    is that of the one-block kernel whatever the number of targets."""
    blocks = list(_blocks(n_targets, n_quad, _KERNEL_BLOCK))
    if len(blocks) > 1 and blocks[-1].stop - blocks[-1].start == 1:
        blocks[-2:] = [slice(blocks[-2].start, blocks[-1].stop)]
    return blocks


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


def _nodal_derivative(vals, quad: BoundaryQuadrature):
    """d values / d zeta at the quadrature nodes.

    Equispaced arc parameters (trapezoid rules) get spectral FFT
    differentiation; otherwise a local degree-8 polynomial through the 9
    nearest nodes is differentiated at its center, all nodes in one
    batched solve of their 9 x 9 Vandermonde systems.  Weights
    w_j ~ zeta'(t_j) dt convert parameter derivatives to spatial ones.
    """
    n = len(quad)
    if quad._equispaced:
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


@dataclass(frozen=True, eq=False)
class CauchyKernel:
    """The Cauchy sums over quad at fixed targets z_i, precomputed.

    matrix[i, j] = w_j/(zeta_j - z_i) and row_sums its row sums, with two
    kinds of pair left out and listed apart: near pairs (near_rows,
    near_cols, near_diff = zeta_j - z_i), whose terms are formed per call,
    since in the subtracted form splitting them into two large products
    would cancel; and node hits (hit_rows, hit_cols), where the target is
    a node.  Calling the kernel gives the subtracted form, plain the plain
    sum and stabilized their barycentric ratio.  A density kept at another
    scale than f_at passes an exponent to the call: the products with the
    values are multiplied by 2^exponent after they are formed, so no
    product of the values underflows or overflows on the way, and the
    scaling is exact wherever the result stays normal.
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
        """The Cauchy filter of f at the kernel's targets z_i on or outside
        the contour, in subtracted form:
            f(z_i) + (1/2 pi i) sum_j (f(zeta_j) - f(z_i)) w_j/(zeta_j - z_i),
        where f(zeta_j) = values_j 2^exponent and f_at supplies f(z_i).

        Valid when f extends analytically across the contour to z_i, which
        makes the subtracted integrand regular.  Outside the contour this
        is f(z_i) plus the exterior transform, since oint d zeta/(zeta - z)
        = 0 there, and the subtraction keeps full quadrature accuracy up to
        the contour.  On it this is the enclosed-side boundary limit;
        unlike the barycentric ratio it stays an interpolant between the
        nodes of panel-based rules, where quadrature weights differ from
        barycentric weights.  A node hit contributes w_j f'(zeta_j), f'
        from _nodal_derivative.
        """
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
        """sum_j values_j w_j/(zeta_j - z_i) at the kernel's targets, 2 pi i
        times the Cauchy transform off the contour; a row with a node hit
        is flagged inf."""
        vals = np.asarray(values, dtype=complex)
        total = self.matrix @ vals
        near = self.near_cols
        np.add.at(total, self.near_rows,
                  vals[near] * self.quad.weights[near] / self.near_diff)
        total[self.hit_rows] = np.inf
        return total

    def stabilized(self, values):
        """The interior Cauchy transform in barycentric ratio form
            [sum_j v_j w_j/(zeta_j - z_i)] / [sum_j w_j/(zeta_j - z_i)],
        plain(values) / plain(1): exact for constant values at any interior
        target and usable up to the contour, where it reduces to an
        interpolant of the samples; a target on a node takes that node's
        value."""
        vals = np.asarray(values, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.plain(vals) / self.plain(np.ones(len(self.quad)))
        out[self.hit_rows] = vals[self.hit_cols]
        return out


def _passing(quad: BoundaryQuadrature, z, matrix, cut):
    """(rows, cols) of the entries of matrix = cauchy_kernel's w_j/(zeta_j
    - z_i) with modulus above cut, in row-major order.

    For cut = _NEAR only the runs of quad whose box (BoundaryQuadrature.
    runs) holds a target can pass: each target is checked against the
    whole rule's box, then against the run boxes, and only the entries of
    the runs that hold it are read.  A lower cut, or a kernel of fewer than
    _DENSE_TEST entries, reads every entry."""
    if cut < _NEAR or matrix.size < _DENSE_TEST:
        return np.divmod(np.flatnonzero(np.abs(matrix) > cut), len(quad))
    cols, boxes, (lo_re, hi_re, lo_im, hi_im) = quad.runs
    re, im = z.real, z.imag
    inside = np.flatnonzero((re >= lo_re) & (re <= hi_re)
                            & (im >= lo_im) & (im <= hi_im))
    re, im = re[inside, None], im[inside, None]
    rows, runs = np.nonzero((re >= boxes[0]) & (re <= boxes[1])
                            & (im >= boxes[2]) & (im <= boxes[3]))
    cols = cols[runs]
    # flat indices of the runs' entries; a padding column -1 reads another
    # entry, and is masked out
    flat = cols + (inside[rows] * len(quad))[:, None]
    passed = np.abs(matrix.ravel()[flat]) > cut
    passed &= cols >= 0
    return np.divmod(flat[passed], len(quad))


def cauchy_kernel(quad: BoundaryQuadrature, z) -> CauchyKernel:
    """The Cauchy kernel over quad at targets z, for transforming many
    densities at the same targets (see CauchyKernel).

    A pair is near when |w_j/(zeta_j - z_i)| > _NEAR, that is when the
    target is closer to node j than about the node spacing there; a pair
    is a hit when |zeta_j - z_i| <= _HIT_RTOL times the contour diameter.
    """
    z = _flat(z)
    tol = _HIT_RTOL * quad.diameter
    # one buffer: the differences zeta_j - z_i, then w_j over them in place
    matrix = np.empty((z.size, len(quad)), dtype=complex)
    matrix[:] = quad.nodes
    matrix -= z[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(quad.weights, matrix, out=matrix)
    # a hit has |w_j/(zeta_j - z_i)| >= |w_j|/tol, so it passes the cut too
    cut = min(_NEAR, 0.5 * quad.min_weight / tol)
    rows, cols = _passing(quad, z, matrix, cut)
    diff = quad.nodes[cols] - z[rows]
    hit = np.abs(diff) <= tol
    near = ~hit & (np.abs(matrix[rows, cols]) > _NEAR)
    matrix[rows[hit | near], cols[hit | near]] = 0.0
    return CauchyKernel(quad, matrix, matrix.sum(axis=1), rows[near],
                        cols[near], diff[near], rows[hit], cols[hit])
