"""Number-state phase distributions and phase-fluctuation parameters.

The phase distribution of a pure state is the squared magnitude of its
amplitude Fourier series against the (non-normalizable) phase states,
normalized to unit mass on [-pi, pi). The Carruthers-Nieto fluctuation
parameters are built from the Barnett-Pegg sine/cosine operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector
from .exceptions import PhaseUndefinedError
from .moments import moment_oracle
from .states import StateSpec, ladder_log_amplitudes

DEFAULT_GRID_POINTS = 720


def theta_grid(n_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Uniform grid over [-pi, pi), endpoint excluded (the density is periodic)."""
    return -math.pi + 2.0 * math.pi * np.arange(n_points) / n_points


def simpson_weights(n_points: int) -> np.ndarray:
    """Composite-Simpson weights on the periodic grid (n_points must be even)."""
    if n_points % 2:
        raise ValueError("Simpson weights need an even point count")
    h = 2.0 * math.pi / n_points
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    return w * h / 3.0


@dataclass(frozen=True)
class PhaseProfile:
    """Sampled distribution over theta in [-pi, pi) with its mass check."""

    theta: np.ndarray
    density: np.ndarray
    integral_check: float


@dataclass(frozen=True)
class FluctuationTriple:
    """Carruthers-Nieto U, S, Q phase-fluctuation parameters.

    U and Q are undefined (None) on states whose sine and cosine expectations
    both vanish (no preferred phase, e.g. Fock states); S is always defined.
    """

    u: float | None
    s: float
    q: float | None


def angular_dft(rows: np.ndarray, n_angles: int) -> np.ndarray:
    """sum_n rows[..., n] e^{-i n theta_j} for every theta_j of ``theta_grid(n_angles)``.

    With theta_j = -pi + 2 pi j / N, e^{-i n theta_j} = (-1)^n e^{-2 pi i n j / N}:
    one length-N FFT of the sign-flipped rows over their last axis. Indices
    past N are folded mod N, which the DFT's periodicity makes exact.
    """
    dim = rows.shape[-1]
    lead = rows.shape[:-1]
    folds = -(-dim // n_angles)
    padded = np.zeros(lead + (folds * n_angles,), dtype=np.complex128)
    padded[..., :dim] = rows * np.where(np.arange(dim) % 2, -1.0, 1.0)
    return np.fft.fft(padded.reshape(lead + (folds, n_angles)).sum(axis=-2), axis=-1)


def phase_distribution(s: StateVector, n_points: int = DEFAULT_GRID_POINTS) -> PhaseProfile:
    """P(theta) = |sum_n c_n e^{-i n theta}|^2 / 2pi on a uniform grid."""
    amp = angular_dft(s.amplitudes, n_points)
    density = (amp.real**2 + amp.imag**2) / (2.0 * math.pi)
    integral = float(np.dot(simpson_weights(n_points), density))
    return PhaseProfile(theta_grid(n_points), density, integral)


def phase_distribution_closed_form(spec: StateSpec, thetas: np.ndarray) -> np.ndarray:
    """P(theta) = |sum_m c_m e^{-i m theta}|^2 / 2pi of any spec from its closed-form amplitudes.

    Kept as a verification target for ``phase_distribution``. The c_m come
    from ``states.ladder_log_amplitudes``, whose errors it raises, and the
    sum is taken with its own exponential kernel, not the FFT it checks.
    """
    log_c, phase = ladder_log_amplitudes(spec)
    with np.errstate(under="ignore"):
        c = np.exp(log_c) * phase
    m = np.arange(len(c))
    amp = np.exp(-1j * np.asarray(thetas, dtype=np.float64)[:, None] * m[None, :]) @ c
    return (amp.real**2 + amp.imag**2) / (2.0 * math.pi)


def phase_dispersion(s: StateVector) -> float:
    """D = 1 - |first circular moment of P(theta)|^2, in [0, 1].

    The first moment of |sum_n c_n e^{-i n theta}|^2 / 2pi over theta is
    sum_n c_n conj(c_{n+1}) exactly, so no grid is needed.
    """
    first = np.vdot(s.amplitudes[1:], s.amplitudes[:-1])
    d = 1.0 - abs(first) ** 2
    return float(min(max(d, 0.0), 1.0))


def barnett_pegg_fluctuations(s: StateVector) -> FluctuationTriple:
    """Carruthers-Nieto U, S, Q from the Barnett-Pegg sine/cosine operators.

    The operators are scaled by 1/(2 sqrt(<N>+1/2)); U < 1/2 witnesses
    antibunching. U and Q come back None when <sin>^2 + <cos>^2 <= 1e-14.
    """
    a1 = moment_oracle(s, 0, 1)
    a2 = moment_oracle(s, 0, 2)
    n1 = moment_oracle(s, 1, 1).real
    n2 = n1 + moment_oracle(s, 2, 2).real  # <N^2>
    var_n = n2 - n1 * n1
    scale = 4.0 * (n1 + 0.5)
    sin_mean = a1.imag / math.sqrt(n1 + 0.5)
    cos_mean = a1.real / math.sqrt(n1 + 0.5)
    sin_sq = (2.0 * n1 + 1.0 - 2.0 * a2.real) / scale
    cos_sq = (2.0 * n1 + 1.0 + 2.0 * a2.real) / scale
    var_sin = sin_sq - sin_mean * sin_mean
    var_cos = cos_sq - cos_mean * cos_mean
    s_param = var_n * var_sin
    norm_sq = sin_mean * sin_mean + cos_mean * cos_mean
    if norm_sq <= 1e-14:
        return FluctuationTriple(None, s_param, None)
    u = var_n * (var_sin + var_cos) / norm_sq
    q = s_param / (cos_mean * cos_mean) if cos_mean * cos_mean > 1e-14 else None
    return FluctuationTriple(u, s_param, q)


def fluctuation_u(s: StateVector) -> float:
    """U parameter, raising PhaseUndefinedError on phase-symmetric states."""
    triple = barnett_pegg_fluctuations(s)
    if triple.u is None:
        raise PhaseUndefinedError("U is undefined: <sin> and <cos> both vanish")
    return triple.u
