"""Singular-value bounds for matrices with low displacement rank.

A matrix X with rank(AX - XB) <= nu for normal A, B whose spectra lie in
E and F inherits singular value decay from the Zolotarev numbers of the
pair: sigma_{j nu + 1}(X) <= Z_j(E, F) sigma_1(X).  This module builds
the two classical examples (Cauchy and Vandermonde matrices), verifies
their rank-1 displacement identities, evaluates the closed-form h
for Vandermonde nodes confined to a disk inside the unit circle, and
computes the leading singular values of such a matrix from a certified
range sketch.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidRegionError

# Extra sketch columns beyond the values asked for, and the fixed seed of
# the Gaussian sketch (see singular_values).
_OVERSAMPLE = 16
_SKETCH_SEED = 0


def _distinct(nodes, label):
    nodes = np.atleast_1d(np.asarray(nodes, dtype=complex)).ravel()
    if nodes.size == 0:
        raise ValueError(f"{label} nodes are empty")
    if np.unique(nodes).size < nodes.size:
        raise ValueError(f"{label} nodes must be distinct")
    return nodes


def cauchy_matrix(x, y) -> np.ndarray:
    """C_jk = 1/(x_j - y_k) for disjoint node sets x and y.

    diag(x) C - C diag(y) is the all-ones matrix; the identity is checked
    to 1e-12 (times the node scale) before the matrix is returned.
    """
    x = _distinct(x, "x")
    y = _distinct(y, "y")
    diff = x[:, None] - y[None, :]
    if np.any(diff == 0):
        raise ValueError("x and y nodes must not coincide")
    c = 1.0 / diff
    resid = x[:, None] * c - c * y[None, :] - 1.0
    tol = 1e-12 * max(1.0, np.abs(x).max(), np.abs(y).max())
    if np.abs(resid).max() > tol:
        raise ValueError("displacement identity failed; nodes too close")
    return c


def vandermonde_matrix(nodes, p: int) -> np.ndarray:
    """V_jk = alpha_j^(k-1) for distinct nodes, k = 1..p.

    diag(alpha) V - V Q with the circulant shift Q equals the rank-1
    outer product (alpha^p - 1) e_p^T; verified before returning.
    """
    alpha = _distinct(nodes, "alpha")
    if p < 1:
        raise ValueError("column count p must be at least 1")
    v = alpha[:, None] ** np.arange(p)[None, :]
    # V Q shifts the columns of V left by one, cyclically
    resid = alpha[:, None] * v - np.roll(v, -1, axis=1)
    resid[:, -1] -= alpha**p - 1.0
    tol = 1e-12 * max(1.0, np.abs(v).max())
    if np.abs(resid).max() > tol:
        raise ValueError("displacement identity failed for these nodes")
    return v


def vandermonde_h(z0, eta0: float) -> float:
    """Annulus modulus for the pair (disk |z - z0| < eta0, exterior of
    the unit disk); the Zolotarev bound for Vandermonde nodes in the disk
    is then sigma_{j+1} <= h^-j sigma_1.

    The disk must lie inside the open unit disk.  A disk centered at the
    origin gives h = 1/eta0; the general formula reduces to it
    continuously as z0 -> 0.
    """
    z0 = complex(z0)
    eta0 = float(eta0)
    if eta0 <= 0.0:
        raise InvalidRegionError("disk radius must be positive")
    r = abs(z0)
    if r + eta0 >= 1.0:
        raise InvalidRegionError("the node disk must lie inside the unit disk")
    if r < 1e-12:
        return 1.0 / eta0
    c = r * r - eta0 * eta0
    # rationalized form of (1 + c - sqrt((1+c)^2 - 4 r^2))/(2r): no
    # cancellation as z0 -> 0
    beta = 2.0 * r / (1.0 + c + math.sqrt((1.0 + c) ** 2 - 4.0 * r * r))
    h = abs((z0 - r * beta * (z0 + eta0)) / (r * (z0 + eta0) - beta * z0))
    if not h > 1.0:
        raise InvalidRegionError("degenerate pair: computed modulus is not > 1")
    return h


def singular_value_bounds(zj, sigma1: float) -> np.ndarray:
    """Bounds zj[j] * sigma1 on sigma_{j nu + 1}, j = 0, 1, ...

    zj are Zolotarev upper bounds for the displacement pair, whose
    displacement rank is nu.
    """
    zj = np.asarray(zj, dtype=float).ravel()
    if zj.size == 0:
        raise ValueError("need at least one Zolotarev bound")
    if not zj[0] <= 1.0:
        raise ValueError("Z_0 must be at most 1")
    if not sigma1 >= 0.0:
        raise ValueError("sigma1 must be non-negative")
    return zj * sigma1


def singular_values(matrix, count: int) -> np.ndarray:
    """The count largest singular values of matrix, descending.

    A matrix of low displacement rank is numerically low rank, so only
    its range is computed: Y = A Omega for a Gaussian Omega of count +
    _OVERSAMPLE columns drawn from a fixed seed, Q an orthonormal basis of
    Y, and the singular values of B = Q^H A (Halko, Martinsson & Tropp,
    "Finding structure with randomness", SIAM Review 2011).  They are
    returned only when the residual passes

        ||A - Q B||_F <= 1/2 max(m, p) eps sigma_1(B),

    and then, by Weyl, sigma_j(B) <= sigma_j(A) <= sigma_j(B) + ||A - Q B||_2:
    each value lies within half the rounding floor max(m, p) eps sigma_1 of
    the exact sigma_j(A), up to the rounding of the decompositions
    themselves.  A sketch that fails doubles its width.  Once the width
    would reach min(m, p), or when count >= min(m, p), the values come
    from the dense SVD (all min(m, p) of them in the latter case).
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    if count < 1:
        raise ValueError("count must be at least 1")
    m, p = mat.shape
    rng = np.random.default_rng(_SKETCH_SEED)
    width = count + _OVERSAMPLE
    floor = 0.5 * max(m, p) * np.finfo(float).eps
    while width < min(m, p):
        q = np.linalg.qr(mat @ rng.standard_normal((p, width)))[0]
        b = q.conj().T @ mat
        sv = np.linalg.svd(b, compute_uv=False)
        resid = q @ b  # Q B - A in place: one m x p temporary
        resid -= mat
        if np.linalg.norm(resid) <= floor * sv[0]:
            return sv[:count]
        width *= 2
    return np.linalg.svd(mat, compute_uv=False)[:count]
