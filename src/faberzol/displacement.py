"""Singular-value bounds for matrices with low displacement rank.

A matrix X with rank(AX - XB) <= nu for normal A, B whose spectra lie in
E and F inherits singular value decay from the Zolotarev numbers of the
pair: sigma_{j nu + 1}(X) <= Z_j(E, F) sigma_1(X).  This module builds
the two classical examples (Cauchy and Vandermonde matrices), verifies
their rank-1 displacement identities, and evaluates the closed-form h
for Vandermonde nodes confined to a disk inside the unit circle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidRegionError


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


def singular_values(matrix) -> np.ndarray:
    """All singular values, descending, by a dense decomposition."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return np.linalg.svd(mat, compute_uv=False)
