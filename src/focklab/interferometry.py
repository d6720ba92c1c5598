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
from .exceptions import (
    AnnihilatedStateError,
    ConvergenceError,
    InvalidParameterError,
    StationaryPointError,
)
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


def _pair_sums(log_w: np.ndarray, rows: int, chi: float) -> tuple[np.ndarray, np.ndarray]:
    """Anti-diagonal sums sum_{j+k=s} e^{log_w[j] + log_w[k]} e^{i chi (j-k)^2 / 2} for s < rows.

    Returned as (shift[s], mantissa[s]) with the sum e^{shift} * mantissa:
    each row is exponentiated against its own largest term, so no row's
    scale over- or underflows another's. A row with no admissible pair has
    shift -inf and mantissa 0.
    """
    j = np.arange(len(log_w))
    k = np.arange(rows)[:, None] - j
    ok = (k >= 0) & (k < len(log_w))
    log_t = np.where(ok, log_w[j] + log_w[np.where(ok, k, 0)], -np.inf)
    shift = np.max(log_t, axis=1)
    live = np.isfinite(shift)
    terms = np.exp(log_t - np.where(live, shift, 0.0)[:, None])
    if chi:
        terms = terms * np.exp(0.5j * chi * (j - k) ** 2)
    return np.where(live, shift, -np.inf), terms.sum(axis=1)


def _le_sum(log_a: np.ndarray, log_b: np.ndarray, chi: float, added: bool, log_prefactor: float) -> float:
    """prefactor * the (n, m, r) triple sum shared by the ECS, Kerr and binomial entropies.

    The inner binomial-pair sum collapses by Vandermonde convolution to
    C(s, m)/2^s with s = n + r (C(s+2, m+1)/2^{s+2} (m+1)(s-m+1) for the
    photon-added variants, which is (s+2)!/(m! (s-m)!)/2^{s+2}). The summand
    is then e^{a(n) + a(r)} e^{b(m) + b(s-m)} s!/2^s (or (s+2)!/2^{s+2}) times
    the Kerr phase e^{2i chi (m-n)(m-r)} = e^{i chi (2m-s)^2/2} e^{-i chi (n-r)^2/2},
    so the sum is sum_s s!/2^s A[s] B[s] over two anti-diagonal sums of
    O(cut^2) terms each. The per-index log-weights log_a, log_b carry the family:
    -inf marks an index outside the sum (parity, vacuum hole, binomial range).
    """
    rows = 2 * len(log_a) - 1
    shift_a, a = _pair_sums(log_a, rows, -chi)
    shift_b, b = _pair_sums(log_b, rows, chi)
    s = np.arange(rows) + (2 if added else 0)
    log_row = LOG_FACTORIAL[s] - s * math.log(2.0) + log_prefactor
    return float(np.sum(np.exp(shift_a + shift_b + log_row) * a * b).real)


def linear_entropy_closed_form(spec: StateSpec) -> float:
    """Closed-form entanglement potential for the nine ECS/BS/KS states.

    Agrees with ``linear_entropy(build_state(spec))`` within 1e-8; any other
    family raises InvalidParameterError, and a series longer than the
    log-factorial table or an overflowing normalization raises
    ConvergenceError.
    """
    info = spec.info
    if info.group not in ENTROPY_SERIES_GROUPS:
        raise InvalidParameterError(f"no closed-form linear-entropy series for {spec.family!r}")
    lam = spec.alpha_mag**2
    cut = spec.M + 1 if info.group == "binomial" else int(lam + 14.0 * math.sqrt(lam + 1.0) + 24)
    if 2 * cut + 2 > len(LOG_FACTORIAL):
        raise ConvergenceError(f"entropy series needs more than {len(LOG_FACTORIAL)} log-factorials")
    if info.hole is not None:
        constant = normalization_constant_closed_form(spec)
        if constant is None:
            raise AnnihilatedStateError(f"{spec.family} is empty for these parameters")
        log_prefactor = 4.0 * math.log(constant)
    elif info.group == "ecs":
        log_prefactor = -2.0 * lam - math.log(4.0) - 2.0 * math.log1p(math.exp(-2.0 * lam))
    elif info.group == "kerr":
        log_prefactor = -2.0 * lam
    else:
        log_prefactor = 0.0
    n = np.arange(cut)
    if info.group == "binomial":
        M = spec.M
        log_p = math.log(spec.p) if spec.p > 0 else -1.0e18
        log_1p = math.log(1.0 - spec.p) if spec.p < 1 else -1.0e18
        log_b = -LOG_FACTORIAL[n] - 0.5 * LOG_FACTORIAL[M - n]
        log_a = LOG_FACTORIAL[M] + n * log_p + (M - n) * log_1p + log_b
    else:
        m = np.arange(2 * cut - 1)  # m runs up to s = n + r
        log_lam = math.log(lam) if lam > 0 else -1.0e18
        log_a = n * log_lam - LOG_FACTORIAL[n]
        log_b = -LOG_FACTORIAL[m]
        if info.group == "ecs":
            log_a += np.where(n % 2 == 0, math.log(2.0), -np.inf)
            log_b += np.where(m % 2 == 0, math.log(2.0), -np.inf)
    if info.hole == "filtered":
        # The vacuum hole bars n, r, m and the fourth quartic index s - m from zero.
        log_a[0] = log_b[0] = -np.inf
    chi = spec.chi if info.group == "kerr" else 0.0
    return 1.0 - _le_sum(log_a, log_b, chi, info.hole == "added", log_prefactor)


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
