"""Horizon-kernel geometry: band decomposition, merge distance, simplex QP.

The kernel weighs per-band key differences by how much each frequency band
matters over a distribution of future offsets; the QP recovers an offset
distribution from weighted linear measurements by projected gradient over
the probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cache import at_least

FREQ_BASE = 10000.0
KAPPA_DUAL_EPS = 1e-6


@dataclass
class HorizonDistribution:
    """Probability distribution over non-negative integer future offsets."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.support.shape != self.weights.shape or self.support.ndim != 1:
            raise ValueError("support and weights must be matching 1-D arrays")
        if self.support.size == 0:
            raise ValueError("empty support")
        if np.any(self.support < 0):
            raise ValueError("offsets must be non-negative")
        if not np.all(self.weights >= 0):
            raise ValueError("weights must be non-negative")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")


def truncated_geometric(horizon: int) -> HorizonDistribution:
    """Default offset distribution: geometric with rate 1/2 over
    0..horizon, renormalized."""
    at_least("horizon", horizon, 0)
    support = np.arange(horizon + 1)
    w = 0.5 ** support.astype(np.float64)
    return HorizonDistribution(support, w / w.sum())


def kappa(pi: HorizonDistribution, omega):
    """Characteristic function of the offset distribution at frequency
    ``omega``, a scalar or an array of frequencies."""
    return np.exp(1j * np.multiply.outer(omega, pi.support)) @ pi.weights


def band_view(vectors: np.ndarray) -> np.ndarray:
    """Band spectra of C-contiguous float64 ``vectors``, sharing their memory:
    band f pairs components (2f, 2f+1) as one complex128."""
    return vectors.view(np.complex128)


def band_frequencies(dim: int) -> np.ndarray:
    """Rotary-style frequency schedule: omega_f = FREQ_BASE^(-2f/d)."""
    if dim % 2 != 0 or dim < 2:
        raise ValueError("dim must be even and >= 2")
    f = np.arange(dim // 2, dtype=np.float64)
    return FREQ_BASE ** (-2.0 * f / dim)


def band_decompose(vector: np.ndarray) -> np.ndarray:
    """Band spectrum of a 1-D even-length vector: :func:`band_view` of a
    copy, so it never aliases ``vector``."""
    v = np.array(vector, dtype=np.float64)
    if v.ndim != 1 or v.size % 2 != 0:
        raise ValueError("vector must be 1-D with even length")
    return band_view(v)


def kappa_magnitudes(pi: HorizonDistribution, frequencies: np.ndarray) -> np.ndarray:
    """|kappa(w_f)| at each band frequency."""
    return np.abs(kappa(pi, frequencies))


def d_kappa_batch(coefficients: np.ndarray, reference: np.ndarray,
                  magnitudes: np.ndarray) -> np.ndarray:
    """Merge distance of each row of ``coefficients`` (bands last) to the
    ``reference`` coefficients: sum_f magnitudes_f * |c_f - r_f|.

    A row's distance has the same bits as the distance of that row alone.
    ``np.add.reduce`` is the reduction ``ndarray.sum`` calls.
    """
    return np.add.reduce(magnitudes * np.abs(coefficients - reference),
                         axis=-1)


def d_kappa(a: np.ndarray, b: np.ndarray, pi: HorizonDistribution) -> float:
    """Kernel-weighted merge distance between band spectra:
    sum_f |kappa(w_f)| * |a_f - b_f|."""
    if a.shape != b.shape:
        raise ValueError(f"band spectra of shapes {a.shape} and {b.shape}")
    return float(d_kappa_batch(a, b, kappa_magnitudes(
        pi, band_frequencies(2 * a.size))))


def kappa_norm(vector: np.ndarray, pi: HorizonDistribution) -> float:
    """Band norm: sum_f |kappa(w_f)| * ||x_f||_2."""
    spec = band_decompose(vector)
    return d_kappa(spec, np.zeros_like(spec), pi)


def kappa_dual_norm(vector: np.ndarray, pi: HorizonDistribution) -> float:
    """Dual pairing for the band norm: max_f ||q_f||_2 / max(|kappa|, eps)."""
    spec = band_decompose(vector)
    mags = np.maximum(kappa_magnitudes(pi, band_frequencies(2 * spec.size)),
                      KAPPA_DUAL_EPS)
    return float(np.max(np.abs(spec) / mags))


def rms2_decomposition(query_norms: np.ndarray, mu_norm: float) -> tuple[float, float, float]:
    """Split the RMS2 scale into its triangle part plus a variance correction.

    Returns ``(alpha_rms2, alpha_tri, variance_term)`` with
    ``alpha_rms2 = alpha_tri + variance_term`` (population variance).
    """
    q = np.asarray(query_norms, dtype=np.float64)
    if q.size == 0:
        raise ValueError("empty sample")
    if np.any(q < 0) or mu_norm < 0:
        raise ValueError("norms must be non-negative")
    mean_q = float(q.mean())
    denom = mean_q + mu_norm
    if denom == 0.0:
        raise ValueError("zero denominator: E||q|| + ||mu|| must be positive")
    alpha_rms2 = (float(np.mean(q * q)) - mu_norm * mu_norm) / denom
    alpha_tri = mean_q - mu_norm
    variance_term = float(q.var()) / denom
    return alpha_rms2, alpha_tri, variance_term


@dataclass
class QPInstance:
    """min over the simplex of ||W^(1/2) (A pi - tau)||^2.

    ``design`` is the linear map A (named to avoid clashing with the cache
    budget), ``target`` is tau, ``weights`` the diagonal of W.
    """

    design: np.ndarray
    target: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("design", "target", "weights"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, value)
        if self.design.ndim != 2 or self.design.shape[1] == 0:
            raise ValueError("design must be a matrix of at least one column")
        m = self.design.shape[0]
        if self.target.shape != (m,) or self.weights.shape != (m,):
            raise ValueError("target/weights must match design rows")
        if not np.all(self.weights >= 0):
            raise ValueError("weights must be non-negative")

    def objective(self, pi: np.ndarray) -> float:
        r = self.design @ pi - self.target
        return float(np.sum(self.weights * r * r))

    def gradient(self, pi: np.ndarray) -> np.ndarray:
        return 2.0 * self.design.T @ (self.weights * (self.design @ pi - self.target))


@dataclass
class QPSolution:
    pi: np.ndarray
    iterations: int
    residual: float
    objectives: list[float] = field(default_factory=list)


class QPConvergenceError(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"projected gradient did not converge in {iterations} iterations "
            f"(final residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("project_to_simplex needs finite input")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def solve_horizon_qp(instance: QPInstance, max_iters: int = 20000,
                     tol: float = 1e-9) -> QPSolution:
    """Projected gradient on the simplex with a 1/L step, L being the
    exact largest eigenvalue of the Hessian 2 A^T W A.

    The convergence certificate is the fixed-point residual
    ``||pi - P(pi - (1/L) grad)||_2``; raises :class:`QPConvergenceError`
    when it stays above ``tol`` after ``max_iters`` iterations.
    """
    a = instance.design
    lam = np.linalg.eigvalsh(2.0 * a.T @ (instance.weights[:, None] * a))[-1]
    n = a.shape[1]
    pi = np.full(n, 1.0 / n)
    objectives = [instance.objective(pi)]
    if lam <= 0.0:
        # Objective is constant in pi; any simplex point is optimal.
        return QPSolution(pi=pi, iterations=0, residual=0.0,
                          objectives=objectives)
    step = 1.0 / (lam * (1.0 + 1e-9))
    residual = np.inf
    for it in range(1, max_iters + 1):
        nxt = project_to_simplex(pi - step * instance.gradient(pi))
        residual = float(np.linalg.norm(pi - nxt))
        pi = nxt
        objectives.append(instance.objective(pi))
        if residual <= tol:
            return QPSolution(pi=pi, iterations=it, residual=residual,
                              objectives=objectives)
    raise QPConvergenceError(max_iters, residual)
