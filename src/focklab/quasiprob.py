"""Husimi Q function on phase-space grids and its radius-integrated angular form."""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import StateVector, log_factorials
from .phase import PhaseProfile, angular_dft, simpson_weights, theta_grid
from .states import StateSpec, ladder_log_amplitudes


def _overlap_weights(mags: np.ndarray, dim: int) -> np.ndarray:
    """|beta|^n e^{-|beta|^2/2}/sqrt(n!) per (beta, n), assembled in log space.

    Large |beta| and large n never overflow; |beta| = 0 keeps only n = 0.
    """
    n = np.arange(dim)
    half_lf = 0.5 * log_factorials(dim)
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

    The overlap at radius r is sum_n c_n w_n(r) e^{-i n theta_j}: one
    ``angular_dft`` over the Fock index per radius.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
    amp = angular_dft(_overlap_weights(radii, s.dim) * s.amplitudes[None, :], n_angles)
    return (amp.real**2 + amp.imag**2) / math.pi


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Polar quadrature grid with weights for integrals over d^2 beta = r dr dtheta.

    ``radii`` are the grid's Gauss-Legendre radial nodes, the radii
    ``q_polar`` takes to evaluate Q on the same samples.
    """

    beta_samples: np.ndarray
    weights: np.ndarray
    radii: np.ndarray


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(n)`` on [-1, 1], computed once per n; the cached arrays are read-only."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def radial_nodes(s: StateVector, n_radial: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(beta_max, nodes, weights): Gauss-Legendre quadrature for dr on [0, beta_max].

    The radial extent sqrt(<N>) + 8 covers Gaussian-like Q tails; boundary
    mass beyond it is negligible for any state respecting the truncation.
    """
    beta_max = math.sqrt(max(s.mean_photon_number(), 0.0)) + 8.0
    x, w = _gauss_legendre(n_radial)
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
    return PhaseSpaceGrid(betas.ravel(), weights.ravel(), r)


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


def q_function_closed_form(spec: StateSpec, beta: complex) -> float:
    """Q(beta) = |sum_m c_m conj(beta)^m e^{-|beta|^2/2} / sqrt(m!)|^2 / pi of any spec.

    The c_m are the closed-form amplitudes of ``states.ladder_log_amplitudes``,
    read from the spec parameters alone, and the coherent-state weights are
    assembled here in log space, not by ``_overlap_weights``; used to
    cross-check ``q_function`` on every family.
    """
    log_c, phase = ladder_log_amplitudes(spec)
    beta = complex(beta)
    bmag = abs(beta)
    m = np.arange(len(log_c))
    log_w = m * (math.log(bmag) if bmag > 0 else -1.0e18) - 0.5 * bmag * bmag - 0.5 * log_factorials(len(m))
    with np.errstate(under="ignore"):
        terms = np.exp(log_c + log_w) * phase * np.exp(-1j * cmath.phase(beta) * m)
    return abs(complex(np.sum(terms))) ** 2 / math.pi
