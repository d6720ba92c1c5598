"""Husimi Q function on phase-space grids and its radius-integrated angular form."""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import StableSum, StateVector, log_factorial
from .exceptions import InvalidParameterError
from .phase import PhaseProfile, simpson_weights, theta_grid
from .states import StateSpec, normalization_constant


def _overlap_weights(mags: np.ndarray, dim: int) -> np.ndarray:
    """|beta|^n e^{-|beta|^2/2}/sqrt(n!) per (beta, n), assembled in log space.

    Large |beta| and large n never overflow; |beta| = 0 keeps only n = 0.
    """
    n = np.arange(dim)
    half_lf = 0.5 * np.array([log_factorial(k) for k in range(dim)])
    safe = np.where(mags > 0.0, mags, 1.0)
    log_mag = np.where(mags > 0.0, np.log(safe), -1.0e18)
    logw = log_mag[:, None] * n[None, :] - half_lf[None, :] - 0.5 * (mags * mags)[:, None]
    with np.errstate(under="ignore"):
        return np.exp(logw)


def q_function(s: StateVector, beta) -> float | np.ndarray:
    """Q(beta) = |<beta|s>|^2 / pi, for a scalar or an array of beta values.

    The overlap weights conj(beta)^n e^{-|beta|^2/2}/sqrt(n!) are assembled
    in log space, so large |beta| and large n never overflow.
    """
    scalar = np.isscalar(beta) or np.asarray(beta).ndim == 0
    betas = np.atleast_1d(np.asarray(beta, dtype=np.complex128)).ravel()
    n = np.arange(s.dim)
    phases = np.exp(-1j * np.angle(betas)[:, None] * n[None, :])
    rows = _overlap_weights(np.abs(betas), s.dim) * phases
    amp = rows @ s.amplitudes
    out = (np.abs(amp) ** 2) / math.pi
    return float(out[0]) if scalar else out.reshape(np.shape(beta))


def q_polar(s: StateVector, radii, n_angles: int) -> np.ndarray:
    """Q(r e^{i theta}) for every radius against ``theta_grid(n_angles)``, shape (radii, angles).

    With theta_j = -pi + 2 pi j / N the overlap at radius r is
    sum_n c_n (-1)^n w_n(r) e^{-2 pi i n j / N}: one length-N DFT over the
    Fock index per radius. Indices past N are folded mod N, which the DFT's
    periodicity makes exact.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
    signs = np.where(np.arange(s.dim) % 2, -1.0, 1.0)
    folds = -(-s.dim // n_angles)
    coeffs = np.zeros((len(radii), folds * n_angles), dtype=np.complex128)
    coeffs[:, : s.dim] = _overlap_weights(radii, s.dim) * (signs * s.amplitudes)[None, :]
    amp = np.fft.fft(coeffs.reshape(len(radii), folds, n_angles).sum(axis=1), axis=1)
    return (amp.real**2 + amp.imag**2) / math.pi


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Polar quadrature grid with weights for integrals over d^2 beta = r dr dtheta."""

    beta_samples: np.ndarray
    weights: np.ndarray


def radial_nodes(s: StateVector, n_radial: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(beta_max, nodes, weights): Gauss-Legendre quadrature for dr on [0, beta_max].

    The radial extent sqrt(<N>) + 8 covers Gaussian-like Q tails; boundary
    mass beyond it is negligible for any state respecting the truncation.
    """
    beta_max = math.sqrt(max(s.mean_photon_number(), 0.0)) + 8.0
    x, w = leggauss(n_radial)
    return beta_max, 0.5 * beta_max * (x + 1.0), 0.5 * beta_max * w


def phase_space_grid(s: StateVector, n_angles: int = 360, n_radial: int = 160) -> PhaseSpaceGrid:
    """Gauss-Legendre (radial) x uniform (angular) grid covering the state's support.

    Samples are radius-major: row i of ``q_polar(s, radii, n_angles)`` holds
    the samples i * n_angles .. (i + 1) * n_angles - 1.
    """
    _, r, wr = radial_nodes(s, n_radial)
    th = theta_grid(n_angles)
    wt = 2.0 * math.pi / n_angles
    rr, tt = np.meshgrid(r, th, indexing="ij")
    betas = rr * np.exp(1j * tt)
    weights = (r * wr)[:, None] * np.full(n_angles, wt)[None, :]
    return PhaseSpaceGrid(betas.ravel(), weights.ravel())


def q_integral(s: StateVector, grid: PhaseSpaceGrid | None = None) -> float:
    """Total Q mass over the grid; 1 within 1e-6 for any normalized state."""
    grid = grid if grid is not None else phase_space_grid(s)
    return float(np.dot(q_function(s, grid.beta_samples), grid.weights))


def angular_q(s: StateVector, n_angles: int = 720, n_radial: int = 160) -> PhaseProfile:
    """Radius-integrated Q: Q_theta = integral of Q(r e^{i theta}) r dr.

    Integrates over theta to 1; a warning is emitted when the estimated
    mass beyond the radial cutoff is not negligible.
    """
    beta_max, r, wr = radial_nodes(s, n_radial)
    q = q_polar(s, r, n_angles)
    density = (r * wr) @ q
    tail_estimate = float(q[-1].max()) * beta_max
    if tail_estimate > 1e-8:
        warnings.warn(
            f"angular Q radial tail estimate {tail_estimate:.2e} exceeds 1e-8",
            stacklevel=2,
        )
    integral = float(np.dot(simpson_weights(n_angles), density))
    return PhaseProfile(theta_grid(n_angles), density, integral)


def q_function_closed_form(spec: StateSpec, beta: complex, max_terms: int = 2048) -> float:
    """Q of a photon-added/subtracted displaced-Fock spec from its closed-form series.

    Evaluates the family's Q-function series from the spec parameters alone,
    independent of any constructed state vector; used to cross-check
    ``q_function`` on the displaced-Fock family.
    """
    # The series covers photon addition or subtraction, not both at once.
    if spec.info.group != "dfs" or spec.family == "PASDFS":
        raise InvalidParameterError(f"no closed-form Q-function series for {spec.family!r}")
    n, u, v = spec.param("n"), spec.param("added"), spec.param("subtracted")
    alpha = spec.alpha
    beta = complex(beta)
    lam, bmag = abs(alpha) ** 2, abs(beta)
    log_amag = math.log(abs(alpha)) if alpha != 0 else -1.0e18
    log_bmag = math.log(bmag) if bmag > 0 else -1.0e18
    unit_a = cmath.exp(1j * spec.alpha_phase)
    unit_b = np.conjugate(beta) / bmag if bmag > 0 else 1.0

    total = 0j
    for p in range(n + 1):
        inner = StableSum()
        for m in range(max_terms):
            idx = m + p + u - v
            if idx < 0 or (v and m + p - v < 0):
                continue
            log_mag = (
                m * log_amag
                + idx * log_bmag
                - log_factorial(m)
                - 0.5 * lam
                - 0.5 * bmag * bmag
            )
            if v:
                log_mag += log_factorial(m + p) - log_factorial(m + p - v)
            if inner.add(math.exp(log_mag) * unit_a**m * unit_b**idx):
                break
        total += math.comb(n, p) * (-np.conjugate(alpha)) ** (n - p) * inner.total
    nsq = normalization_constant(spec) ** 2
    return nsq / (math.pi * math.factorial(n)) * abs(total) ** 2
