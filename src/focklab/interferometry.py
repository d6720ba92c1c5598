"""Two-mode constructions: 50:50 beam splitter, entanglement potential, phase estimation.

The beam splitter is realized by its exact combinatorial action on Fock
amplitudes (no matrix exponentiation), so the split is unitary on the
truncated space by construction. Entanglement potential is the linear
entropy of one output mode; the triple-sum closed forms are
implemented alongside the numeric partial trace that validates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LOG_FACTORIAL, StateVector
from .exceptions import AnnihilatedStateError, InvalidParameterError, StationaryPointError
from .states import StateSpec, normalization_constant_closed_form

# Family groups with a closed-form linear-entropy series.
ENTROPY_SERIES_GROUPS = ("ecs", "kerr", "binomial")


@dataclass(frozen=True)
class TwoModeState:
    """Complex amplitudes c[j, m] over the product basis |j> x |m>."""

    amplitudes: np.ndarray
    dims: tuple[int, int]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class JzStatistics:
    """Interferometer input statistics and the resulting signal variance at phi."""

    mean_jz: float
    mean_jx: float
    var_jz: float
    var_jx: float
    cov_xz: float
    phi: float

    @property
    def var_jz_out(self) -> float:
        c, s = math.cos(self.phi), math.sin(self.phi)
        return c * c * self.var_jz + s * s * self.var_jx - 2.0 * s * c * self.cov_xz

    @property
    def signal_derivative(self) -> float:
        return -math.sin(self.phi) * self.mean_jz - math.cos(self.phi) * self.mean_jx


def beam_splitter_split(s: StateVector) -> TwoModeState:
    """Exact 50:50 split of |s> against vacuum: c[j, n-j] = c_n sqrt(C(n,j)) / 2^{n/2}."""
    d = s.dim
    out = np.zeros((d, d), dtype=np.complex128)
    for n in range(d):
        c = s.amplitudes[n]
        if c == 0:
            continue
        j = np.arange(n + 1)
        log_w = (
            0.5 * (LOG_FACTORIAL[n] - LOG_FACTORIAL[j] - LOG_FACTORIAL[n - j])
            - 0.5 * n * math.log(2.0)
        )
        out[j, n - j] = c * np.exp(log_w)
    return TwoModeState(out, (d, d))


def linear_entropy(s: StateVector) -> float:
    """Entanglement potential: 1 - Tr(rho_B^2) after splitting s against vacuum.

    Computed from the singular values of the two-mode amplitude matrix
    (the squared singular values are the Schmidt weights of either mode).
    """
    split = beam_splitter_split(s)
    sv = np.linalg.svd(split.amplitudes, compute_uv=False)
    purity = float(np.sum(sv**4))
    return max(1.0 - purity, 0.0)  # clip the roundoff of exactly-product outputs


def _vandermonde_binom(total: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """log C(total, pick) with C = 0 outside 0 <= pick <= total (as -inf)."""
    ok = (pick >= 0) & (pick <= total)
    t = np.where(ok, total, 0)
    k = np.where(ok, pick, 0)
    val = LOG_FACTORIAL[t] - LOG_FACTORIAL[k] - LOG_FACTORIAL[t - k]
    return np.where(ok, val, -np.inf)


def _le_sum_ladder(lam: float, chi: float | None, variant: str, cut: int) -> float:
    """Triple sum over (n, m, r) shared by the ECS- and Kerr-family entropies.

    The inner binomial-pair sum collapses by Vandermonde convolution to
    C(n+r, m) (or C(n+r+2, m+1) for the photon-added variants); terms with
    out-of-range binomials vanish by the C(a, b) = 0 convention.
    """
    start = 1 if variant == "filtered" else 0
    n = np.arange(start, cut)
    r = np.arange(start, cut)
    m = np.arange(start, 2 * cut)
    N, M, R = np.meshgrid(n, m, r, indexing="ij")
    log_lam = math.log(lam) if lam > 0 else -1.0e18
    log_mag = (N + R) * log_lam - LOG_FACTORIAL[N] - LOG_FACTORIAL[R]
    if variant == "added":
        log_bin = _vandermonde_binom(N + R + 2, M + 1) - (N + R + 2) * math.log(2.0)
        weight = (M + 1.0) * (N + R - M + 1.0)
    else:
        log_bin = _vandermonde_binom(N + R, M) - (N + R) * math.log(2.0)
        weight = 1.0
    if variant == "filtered":
        # The filtered state's vacuum hole also bars the fourth quartic index
        # n + r - m from hitting zero.
        log_bin = np.where(N + R - M >= 1, log_bin, -np.inf)
    if chi is None:
        even = lambda x: np.where(x % 2 == 0, 2.0, 0.0)
        parity = even(N) * even(M) * even(R) * even(N + R - M)
        with np.errstate(under="ignore"):
            return float(np.sum(np.exp(log_mag + log_bin) * weight * parity))
    phase = np.exp(2j * chi * (M - N) * (M - R))
    with np.errstate(under="ignore"):
        total = np.sum(np.exp(log_mag + log_bin) * weight * phase)
    return float(total.real)


def _le_sum_binomial(p: float, M_max: int, variant: str) -> float:
    start = 1 if variant == "filtered" else 0
    n = np.arange(start, M_max + 1)
    r = np.arange(start, M_max + 1)
    m = np.arange(start, M_max + 1)
    N, Mm, R = np.meshgrid(n, m, r, indexing="ij")
    log_p = math.log(p) if p > 0 else -1.0e18
    log_1p = math.log(1.0 - p) if p < 1 else -1.0e18
    ok = (N + R - Mm >= 0) & (Mm <= M_max) & (N + R - Mm <= M_max)
    if variant == "filtered":
        ok &= N + R - Mm >= 1  # the vacuum hole bars the fourth quartic index too
    s_idx = np.where(ok, N + R - Mm, 0)
    log_g = (
        2.0 * LOG_FACTORIAL[M_max]
        + (N + R) * log_p
        + (2 * M_max - N - R) * log_1p
        - 0.5
        * (
            LOG_FACTORIAL[M_max - N]
            + LOG_FACTORIAL[M_max - Mm]
            + LOG_FACTORIAL[M_max - R]
            + LOG_FACTORIAL[M_max - s_idx]
        )
        - LOG_FACTORIAL[N]
        - LOG_FACTORIAL[R]
    )
    log_g = np.where(ok, log_g, -np.inf)
    if variant == "added":
        log_bin = _vandermonde_binom(N + R + 2, Mm + 1) - (N + R + 2) * math.log(2.0)
        weight = (Mm + 1.0) * (N + R - Mm + 1.0)
    else:
        log_bin = _vandermonde_binom(N + R, Mm) - (N + R) * math.log(2.0)
        weight = 1.0
    with np.errstate(under="ignore"):
        return float(np.sum(np.exp(log_g + log_bin) * weight))


def linear_entropy_closed_form(spec: StateSpec) -> float:
    """Closed-form entanglement potential for the nine ECS/BS/KS states.

    Agrees with ``linear_entropy(build_state(spec))`` within 1e-8; any other
    family raises InvalidParameterError.
    """
    info = spec.info
    if info.group not in ENTROPY_SERIES_GROUPS:
        raise InvalidParameterError(f"no closed-form linear-entropy series for {spec.family!r}")
    lam = spec.alpha_mag**2
    variant = info.hole or "plain"
    if info.hole is not None:
        constant = normalization_constant_closed_form(spec)
        if constant is None:
            raise AnnihilatedStateError(f"{spec.family} is empty for these parameters")
        prefactor = constant**4
    elif info.group == "ecs":
        prefactor = math.exp(-2.0 * lam) / (4.0 * (1.0 + math.exp(-2.0 * lam)) ** 2)
    elif info.group == "kerr":
        prefactor = math.exp(-2.0 * lam)
    else:
        prefactor = 1.0
    if info.group == "binomial":
        return 1.0 - prefactor * _le_sum_binomial(spec.p, spec.M, variant)
    cut = int(lam + 14.0 * math.sqrt(lam + 1.0) + 24)
    chi = spec.chi if info.group == "kerr" else None
    return 1.0 - prefactor * _le_sum_ladder(lam, chi, variant, cut)


def two_mode_input(s: StateVector, aux_dim: int = 4) -> TwoModeState:
    """The interferometer input |s> x |0> with working headroom on both axes."""
    amps = np.zeros((s.dim + 2, aux_dim), dtype=np.complex128)
    amps[: s.dim, 0] = s.amplitudes
    return TwoModeState(amps, (s.dim + 2, aux_dim))


def apply_jz(tm: TwoModeState) -> TwoModeState:
    j = np.arange(tm.dims[0])[:, None]
    m = np.arange(tm.dims[1])[None, :]
    return TwoModeState(0.5 * (j - m) * tm.amplitudes, tm.dims)


def apply_jx(tm: TwoModeState) -> TwoModeState:
    """Jx = (a† b + b† a)/2 acting on the product amplitudes."""
    da, db = tm.dims
    out = np.zeros_like(tm.amplitudes)
    j = np.arange(da)[:, None]
    m = np.arange(db)[None, :]
    # a† b term: (j, m) -> (j+1, m-1) with sqrt((j+1) m)/2
    src = tm.amplitudes[: da - 1, 1:]
    out[1:, : db - 1] += 0.5 * np.sqrt((j[1:, :] ) * (m[:, 1:])) * src
    # b† a term: (j, m) -> (j-1, m+1) with sqrt(j (m+1))/2
    src = tm.amplitudes[1:, : db - 1]
    out[: da - 1, 1:] += 0.5 * np.sqrt((j[1:, :]) * (m[:, 1:])) * src
    return TwoModeState(out, tm.dims)


def _expectation(tm: TwoModeState, transformed: TwoModeState) -> float:
    return float(np.real(np.vdot(tm.amplitudes, transformed.amplitudes)))


def input_jz_statistics(s: StateVector, phi: float) -> JzStatistics:
    """All Jx/Jz input statistics of |s> x |0>, by direct operator application."""
    tm = two_mode_input(s)
    jz1 = apply_jz(tm)
    jx1 = apply_jx(tm)
    mean_jz = _expectation(tm, jz1)
    mean_jx = _expectation(tm, jx1)
    var_jz = _expectation(tm, apply_jz(jz1)) - mean_jz**2
    var_jx = _expectation(tm, apply_jx(jx1)) - mean_jx**2
    sym = 0.5 * (_expectation(tm, apply_jx(jz1)) + _expectation(tm, apply_jz(jx1)))
    cov = sym - mean_jx * mean_jz
    return JzStatistics(mean_jz, mean_jx, var_jz, var_jx, cov, phi)


def phase_estimation_uncertainty(s: StateVector, phi: float) -> float:
    """Mach-Zehnder phase uncertainty dphi = std(Jz) / |d<Jz>/dphi| at phase phi.

    The input is |s> x |0|>; the phi dependence enters through the standard
    interferometer transformation of the Jz mean and variance. Raises
    StationaryPointError where the signal derivative vanishes.
    """
    stats = input_jz_statistics(s, phi)
    derivative = stats.signal_derivative
    if abs(derivative) <= 1e-14:
        raise StationaryPointError(f"signal derivative vanishes at phi={phi}")
    return math.sqrt(max(stats.var_jz_out, 0.0)) / abs(derivative)
