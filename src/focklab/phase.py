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

from .core import LOG_FACTORIAL, StateVector, log_factorial
from .exceptions import ConvergenceError, InvalidParameterError, PhaseUndefinedError
from .moments import moment_oracle
from .states import StateSpec, normalization_constant

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


def phase_distribution(s: StateVector, n_points: int = DEFAULT_GRID_POINTS) -> PhaseProfile:
    """P(theta) = |sum_n c_n e^{-i n theta}|^2 / 2pi on a uniform grid."""
    th = theta_grid(n_points)
    kernel = np.exp(-1j * th[:, None] * np.arange(s.dim)[None, :])
    density = np.abs(kernel @ s.amplitudes) ** 2 / (2.0 * math.pi)
    density = np.where(density < 0.0, 0.0, density)
    integral = float(np.dot(simpson_weights(n_points), density))
    return PhaseProfile(th, density, integral)


def _series_cutoff(mag: float, offset: int, max_terms: int = 4096) -> int:
    """Index beyond which |alpha|^m sqrt((m+offset)!)/m! terms are negligible."""
    if mag == 0.0:
        return offset + 2
    best = -math.inf
    cut = max_terms
    for m in range(max_terms):
        log_t = m * math.log(mag) + 0.5 * log_factorial(m + offset) - log_factorial(m)
        best = max(best, log_t)
        if log_t < best - 64.0:  # far below the peak term, with margin for
            cut = m              # the polynomially growing subtraction weights
            break
    return max(cut, offset + 2)


def phase_distribution_closed_form(
    spec: StateSpec, thetas: np.ndarray, max_terms: int = 4096
) -> np.ndarray:
    """The double-series closed form of P(theta) for the displaced-Fock family.

    Kept as a verification target for ``phase_distribution``; supports the
    Coherent/DFS/PADFS/PSDFS/PASDFS specs and evaluates the literal
    (m, m') double sum at each grid angle.
    """
    if spec.info.group != "dfs":
        raise InvalidParameterError(f"no closed-form phase-distribution series for {spec.family!r}")
    n, k, q = spec.param("n"), spec.param("added"), spec.param("subtracted")

    mag = spec.alpha_mag
    theta2 = spec.alpha_phase
    lam = mag * mag
    cut = min(_series_cutoff(mag, n + k), max_terms)
    if cut + n + k > len(LOG_FACTORIAL):
        raise ConvergenceError(f"phase-distribution series needs more than {len(LOG_FACTORIAL)} terms")
    thetas = np.asarray(thetas, dtype=np.float64)

    # Single (p, m) block of weights; the (p', m') block is identical (the
    # displacement phase has been moved into the theta - theta2 kernel).
    m = np.arange(cut)
    w = np.zeros((n + 1, cut), dtype=np.float64)
    for p in range(n + 1):
        idx = m + p + k - q
        valid = idx >= 0
        log_t = np.where(
            valid,
            (m + 0.0) * (math.log(mag) if mag > 0 else -1.0e18)
            + LOG_FACTORIAL[m + p + k]
            - LOG_FACTORIAL[m]
            - 0.5 * LOG_FACTORIAL[np.where(valid, idx, 0)],
            -np.inf,
        )
        sign = (-1.0) ** (n - p)
        w[p] = sign * math.comb(n, p) * mag ** (n - p) * np.where(valid, np.exp(log_t - 0.5 * lam), 0.0)
    # Literal double sum over (p, m) x (p', m') with the relative-phase kernel.
    out = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        acc = 0j
        for p in range(n + 1):
            for pp in range(n + 1):
                rel = np.exp(1j * (th - theta2) * ((m[None, :] + pp) - (m[:, None] + p)))
                acc += np.einsum("a,b,ab->", w[p], w[pp], rel)
        out[i] = acc.real
    nsq = normalization_constant(spec) ** 2
    return nsq / (2.0 * math.pi * math.factorial(n)) * out


def phase_dispersion(s: StateVector, n_points: int = DEFAULT_GRID_POINTS) -> float:
    """D = 1 - |first circular moment of P(theta)|^2, in [0, 1].

    Trapezoid integration on the periodic grid is spectrally accurate for
    these smooth densities.
    """
    profile = phase_distribution(s, n_points)
    h = 2.0 * math.pi / n_points
    first = np.sum(np.exp(-1j * profile.theta) * profile.density) * h
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
