"""Two-mode constructions: 50:50 beam splitter, entanglement potential, phase estimation.

The beam splitter is realized by its exact combinatorial action on Fock
amplitudes (no matrix exponentiation), so the split is unitary on the
truncated space by construction. Entanglement potential is the linear
entropy of one output mode; the triple-sum closed forms are
implemented alongside the numeric partial trace that validates them.
Mach-Zehnder phase estimation with the input |s> x |0> needs only the
photon statistics of |s> (Yurke, McCall & Klauder, PRA 33, 4033 (1986)).
"""

from __future__ import annotations

import math

import numpy as np

from .core import LOG_FACTORIAL, StateVector
from .exceptions import AnnihilatedStateError, InvalidParameterError, StationaryPointError
from .states import StateSpec, normalization_constant_closed_form

# Family groups with a closed-form linear-entropy series.
ENTROPY_SERIES_GROUPS = ("ecs", "kerr", "binomial")


def beam_splitter_split(s: StateVector) -> np.ndarray:
    """Exact 50:50 split of |s> against vacuum, as the (dim, dim) two-mode amplitude matrix.

    c[j, n-j] = c_n sqrt(C(n,j)) / 2^{n/2} over the product basis |j> x |m>.
    """
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
    return out


def linear_entropy(s: StateVector) -> float:
    """Entanglement potential: 1 - Tr(rho_B^2) after splitting s against vacuum.

    Computed from the singular values of the two-mode amplitude matrix
    (the squared singular values are the Schmidt weights of either mode).
    """
    sv = np.linalg.svd(beam_splitter_split(s), compute_uv=False)
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


def phase_estimation_uncertainty(s: StateVector, phi: float) -> float:
    """Mach-Zehnder phase uncertainty dphi = std(Jz_out) / |d<Jz_out>/dphi| at phase phi.

    For the input |s> x |0> the Schwinger statistics reduce to the photon
    statistics of |s>: <Jz> = <N>/2, Var Jz = Var N/4, Var Jx = <N>/4 and
    <Jx> = Cov(Jx, Jz) = 0. With Jz_out = cos(phi) Jz - sin(phi) Jx this gives
    dphi = sqrt(cos^2 phi Var N + sin^2 phi <N>) / (|sin phi| <N>). Raises
    StationaryPointError where the signal derivative -sin(phi) <N>/2 vanishes.
    """
    p = s.probabilities()
    n = np.arange(s.dim)
    mean_n = float(p @ n)
    var_n = float(p @ (n - mean_n) ** 2)
    c, si = math.cos(phi), math.sin(phi)
    derivative = -0.5 * si * mean_n
    if abs(derivative) <= 1e-14:
        raise StationaryPointError(f"signal derivative vanishes at phi={phi}")
    var_out = 0.25 * (c * c * var_n + si * si * mean_n)
    return math.sqrt(max(var_out, 0.0)) / abs(derivative)
