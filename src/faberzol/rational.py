"""Barycentric rational fitting and pole/zero extraction.

aaa_fit implements the adaptive greedy interpolation scheme: support
points are chosen where the current fit is worst, and the weights are the
least-squares null direction of the Loewner matrix on the remaining
samples.  Poles and zeros come from arrowhead generalized eigenvalue
pencils built from the support data.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FaberzolError
from .quadrature import _flat, _shaped


@dataclass(frozen=True, eq=False)
class BarycentricRational:
    """N(z)/D(z) with N = sum w_j f_j/(z - z_j), D = sum w_j/(z - z_j)."""

    support: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    residual: float = 0.0
    stagnated: bool = False

    def __post_init__(self):
        support = np.asarray(self.support, dtype=complex)
        values = np.asarray(self.values, dtype=complex)
        weights = np.asarray(self.weights, dtype=complex)
        if not (len(support) == len(values) == len(weights)):
            raise ValueError("support, values, weights must align")
        if len(support) == 0:
            raise ValueError("empty rational")
        if len(np.unique(support)) != len(support):
            raise ValueError("support points must be distinct")
        if not np.any(weights != 0.0):
            raise ValueError("weights must not all vanish")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @property
    def degree(self) -> int:
        return len(self.support) - 1


def bary_eval(rational: BarycentricRational, z):
    """Evaluate; support points return their stored values exactly."""
    zf = _flat(z)
    diff = zf[:, None] - rational.support[None, :]
    exact_i, exact_j = np.nonzero(diff == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = rational.weights[None, :] / diff
        num = (kernel * rational.values[None, :]).sum(axis=1)
        den = kernel.sum(axis=1)
        out = num / den
    out[exact_i] = rational.values[exact_j]
    return _shaped(out, z)


_STALL_STEPS = 5


def aaa_fit(points, values, tol: float = 1e-13,
            max_degree: int = 100) -> BarycentricRational:
    """Greedy barycentric fit of samples (points, values).

    Stops when the maximum deviation over the unused samples drops to
    tol * max|values| or the degree reaches max_degree.  If the residual
    stalls for five consecutive steps, the best fit so far is returned
    with stagnated = True.
    """
    z = np.asarray(points, dtype=complex).ravel()
    f = np.asarray(values, dtype=complex).ravel()
    if z.shape != f.shape:
        raise ValueError("points and values must align")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(f))):
        raise ValueError("samples must be finite")
    z, idx = np.unique(z, return_index=True)
    f = f[idx]
    if len(z) < 4:
        raise ValueError("need at least 4 distinct samples")

    scale = float(np.abs(f).max())
    if scale == 0.0:
        return BarycentricRational(z[:1], f[:1], np.ones(1), residual=0.0)

    in_support = np.zeros(len(z), dtype=bool)
    fit = f.mean() * np.ones(len(z), dtype=complex)
    best = None
    history: list[float] = []
    for _ in range(min(max_degree + 1, len(z) - 1)):
        j = int(np.argmax(np.where(in_support, -np.inf, np.abs(f - fit))))
        in_support[j] = True
        zs, fs = z[in_support], f[in_support]
        zr, fr = z[~in_support], f[~in_support]

        cauchy = 1.0 / (zr[:, None] - zs[None, :])
        loewner = (fr[:, None] - fs[None, :]) * cauchy
        _, _, vh = np.linalg.svd(loewner, full_matrices=False)
        weights = vh[-1].conj()

        num = cauchy @ (weights * fs)
        den = cauchy @ weights
        with np.errstate(divide="ignore", invalid="ignore"):
            fit_r = num / den
        bad = ~np.isfinite(fit_r)
        if np.any(bad):
            fit_r[bad] = fr[bad]
        residual = float(np.abs(fr - fit_r).max()) if len(fr) else 0.0
        fit = np.where(in_support, f, 0.0)
        fit[~in_support] = fit_r

        candidate = BarycentricRational(zs, fs, weights, residual=residual)
        if best is None or residual < best.residual:
            best = candidate
        history.append(residual)
        if residual <= tol * scale:
            return candidate
        # a stall only counts once the fit has actually progressed: greedy
        # steps on winding-n data sit at max|f| until the degree reaches n
        if (
            len(history) > _STALL_STEPS
            and best.residual < 1e-2 * history[0]
            and residual >= 0.999 * min(history[:-_STALL_STEPS])
        ):
            return BarycentricRational(
                best.support, best.values, best.weights,
                residual=best.residual, stagnated=True,
            )
    return best


def _arrowhead_eigenvalues(support, top_row):
    m = len(support) + 1
    pencil_a = np.zeros((m, m), dtype=complex)
    pencil_a[0, 1:] = top_row
    pencil_a[1:, 0] = 1.0
    pencil_a[1:, 1:] = np.diag(support)
    pencil_b = np.eye(m)
    pencil_b[0, 0] = 0.0
    try:
        eigvals = scipy.linalg.eigvals(pencil_a, pencil_b)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(pencil_a)
        raise FaberzolError(
            f"arrowhead eigensolver failed (pencil condition ~ {cond:.2e})"
        ) from exc
    return eigvals[np.isfinite(eigvals)]


def _diameter(rational) -> float:
    pts = rational.support
    span = float(np.abs(pts[:, None] - pts[None, :]).max())
    return span if span > 0.0 else 1.0


def _keep_roots(candidates, support, coeffs, diam):
    """Spurious-eigenvalue filter: bounded modulus and a kernel residual."""
    if len(candidates) == 0:
        return candidates
    keep = np.abs(candidates) <= 1e6 * diam
    candidates = candidates[keep]
    if len(candidates) == 0:
        return candidates
    diff = candidates[:, None] - support[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = coeffs[None, :] / diff
        resid = np.abs(kernel.sum(axis=1)) / np.abs(kernel).sum(axis=1)
    # a root on a support point is genuine iff that point's coefficient
    # vanishes there (e.g. a zero at a support point where f = 0)
    hit_row, hit_col = np.nonzero(np.abs(diff) <= 1e-14 * diam)
    if len(hit_row):
        coeff_scale = float(np.abs(coeffs).max())
        resid[hit_row] = np.where(
            np.abs(coeffs[hit_col]) <= 1e-12 * coeff_scale, 0.0, 1.0
        )
    return candidates[resid <= 1e-6]


def poles_zeros(rational: BarycentricRational):
    """(poles, zeros) from the arrowhead pencils, sorted by real then
    imaginary part.  _keep_roots removes spurious eigenvalues; pole/zero
    doublets are left to the caller (adi._drop_doublets)."""
    diam = _diameter(rational)
    poles = _keep_roots(
        _arrowhead_eigenvalues(rational.support, rational.weights),
        rational.support, rational.weights, diam,
    )
    wf = rational.weights * rational.values
    if np.any(wf != 0.0):
        zeros = _keep_roots(
            _arrowhead_eigenvalues(rational.support, wf),
            rational.support, wf, diam,
        )
    else:
        zeros = np.empty(0, dtype=complex)

    order = np.lexsort((poles.imag, poles.real))
    poles = poles[order]
    order = np.lexsort((zeros.imag, zeros.real))
    return poles, zeros[order]
