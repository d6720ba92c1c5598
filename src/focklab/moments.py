"""General moments <a†^t a^j>, computed two independent ways.

``moment_oracle`` applies ladder operators directly to a truncated state
vector; exact up to floating point on that space. ``moment_series``
evaluates the closed-form series of each family from its
parameters alone, never touching a state vector. Witnesses consume the
oracle; the test suite holds the two within 1e-8 of each other.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import DEFAULT_POLICY, StableSum, StateVector, TruncationPolicy, log_factorial, lower_amplitudes
from .exceptions import (
    AnnihilatedStateError,
    ConvergenceError,
    InvalidParameterError,
    TruncationUnsafeError,
)
from .states import StateSpec

# Power budget: truncation error grows with t + j, so cap the order.
MAX_TOTAL_ORDER = 16


def moment_oracle(s: StateVector, t: int, j: int, edge_tolerance: float = 1e-6) -> complex:
    """<s| a†^t a^j |s> by direct ladder application on the amplitude vector.

    Computed as the inner product of a^t|s> and a^j|s>, which never leaves
    the truncated space; exact up to floating point for the stored state.
    For a state that was truncated (tail_mass > 0) the discarded occupation
    just past the edge contributes at most about tail_mass * dim^((t+j)/2)
    to a moment of this order (the factorial decay of real tails makes this
    a loose upper envelope); the call fails when that estimate exceeds
    edge_tolerance relative to the moment's own scale. States built with
    the default 1e-12 tail pass for all admissible orders; states pinned
    against max_dim do not.
    """
    if t < 0 or j < 0:
        raise ValueError("operator powers must be >= 0")
    if t + j > MAX_TOTAL_ORDER:
        raise InvalidParameterError(f"moment order {t + j} exceeds cap {MAX_TOTAL_ORDER}")
    bra = lower_amplitudes(s.amplitudes, t)
    ket = lower_amplitudes(s.amplitudes, j)
    d = min(len(bra), len(ket))
    value = complex(np.vdot(bra[:d], ket[:d])) if d else 0j
    if s.tail_mass > 0.0 and t + j > 0:
        tail_error = s.tail_mass * (s.dim + t + j) ** (0.5 * (t + j))
        if tail_error > edge_tolerance * max(1.0, abs(value)):
            raise TruncationUnsafeError(
                f"truncation-edge error estimate {tail_error:.2e} is too large for "
                f"a moment of order {t + j}; rebuild with a tighter tail tolerance"
            )
    return value


def mean_photon(s: StateVector) -> float:
    return moment_oracle(s, 1, 1).real


def _dfs_group_series(
    alpha: complex, n: int, k: int, q: int, t: int, j: int, max_terms: int
) -> float:
    """Radial part of the moment series for a^q a†^k D(alpha)|n>.

    Returns the real series S(t, j); the full moment is
    e^{i theta (j - t)} S(t, j) / S(0, 0). Terms whose factorial arguments
    go negative correspond to annihilated Fock components and are skipped.
    """
    mag = abs(alpha)
    log_mag = math.log(mag) if mag > 0.0 else None
    lam = mag * mag
    total = 0.0
    for p in range(n + 1):
        for pp in range(n + 1):
            sign = -1.0 if (p + pp) % 2 else 1.0
            log_pref = (
                log_factorial(n)
                - log_factorial(p)
                - log_factorial(n - p)
                - log_factorial(pp)
                - log_factorial(n - pp)
                - lam
            )
            acc = StableSum()
            done = False
            for m in range(max_terms):
                bra_shift = m + p - pp - j + t
                low = m + p + k - q - j
                if bra_shift < 0 or low < 0:
                    continue
                e_alpha = 2 * n + 2 * m - 2 * pp - j + t
                if log_mag is None:
                    if e_alpha != 0:
                        continue
                    log_pow = 0.0
                else:
                    log_pow = e_alpha * log_mag
                log_t = (
                    log_pow
                    + log_factorial(m + p + k)
                    + log_factorial(m + p + k - j + t)
                    - log_factorial(m)
                    - log_factorial(bra_shift)
                    - log_factorial(low)
                )
                if acc.add(math.exp(log_pref + log_t)):
                    done = True
                    break
            if not done and log_mag is not None:
                raise ConvergenceError(
                    f"moment series did not stabilize within {max_terms} terms"
                )
            total += sign * acc.total.real
    return total


def _ladder_series(
    h_logmag, h_phase, start: int, t: int, j: int, max_terms: int
) -> complex:
    """sum_i h*(i-j+t) h(i) / (i-j)! for ladder-group families.

    ``h_logmag``/``h_phase`` give the bare numerator h_i of the family's
    coefficients c_i = N h_i / sqrt(i!); ``start`` is the lowest occupied
    Fock index (1 for vacuum-filtered and photon-added variants).
    """
    acc = StableSum()
    i0 = max(j, start, start + j - t)
    for i in range(i0, i0 + max_terms):
        bra = i - j + t
        lm = h_logmag(bra) + h_logmag(i) - log_factorial(i - j)
        if lm < -745.0:  # exp underflows to 0; counts toward the quiet run
            if acc.add(0j):
                return acc.total
            continue
        term = math.exp(lm) * np.conjugate(h_phase(bra)) * h_phase(i)
        if acc.add(term):
            return acc.total
    raise ConvergenceError(f"moment series did not stabilize within {max_terms} terms")


def _ecs_like_params(spec: StateSpec):
    """(h_logmag, h_phase, start, N^2) for the ECS/Kerr ladder families."""
    fam, hole = spec.family, spec.info.hole
    mag, theta, chi = spec.alpha_mag, spec.alpha_phase, spec.chi
    lam = mag * mag
    log_mag = math.log(mag) if mag > 0 else -1.0e18

    def parity_logmag(i: int) -> float:
        return i * log_mag if i % 2 == 0 else -math.inf

    def parity_phase(i: int) -> complex:
        return 2.0 * cmath.exp(1j * theta * i)

    def kerr_logmag(i: int) -> float:
        return i * log_mag

    def kerr_phase(i: int) -> complex:
        return cmath.exp(1j * (theta * i - chi * i * (i - 1)))

    def shifted(fn):
        return lambda i: fn(i - 1)

    def shifted_logmag(fn):
        return lambda i: fn(i - 1) + math.log(i)

    if spec.info.group == "ecs":
        h_logmag, h_phase = parity_logmag, parity_phase
    else:
        h_logmag, h_phase = kerr_logmag, kerr_phase
    if hole == "added":
        h_logmag, h_phase = shifted_logmag(h_logmag), shifted(h_phase)
    elif hole == "filtered" and lam == 0.0:
        raise AnnihilatedStateError(f"{fam} is empty at alpha = 0")
    if fam == "ECS":
        n_sq = math.exp(-lam) / (2.0 * (1.0 + math.exp(-2.0 * lam)))
    elif fam == "VFECS":
        n_sq = 1.0 / (4.0 * (math.cosh(lam) - 1.0))
    elif fam == "PAECS":
        n_sq = 0.25 / (math.cosh(lam) + lam * math.sinh(lam))
    elif fam == "Kerr":
        n_sq = math.exp(-lam)
    elif fam == "VFKS":
        n_sq = 1.0 / (math.exp(lam) - 1.0)
    else:  # PAKS
        n_sq = math.exp(-lam) / (1.0 + lam)
    return h_logmag, h_phase, 0 if hole is None else 1, n_sq


def _binomial_params(spec: StateSpec):
    """(h_logmag, h_phase, start, N^2) for the binomial families."""
    hole = spec.info.hole
    p, M = spec.p, spec.M
    log_p = math.log(p) if p > 0 else -1.0e18
    log_1p = math.log(1.0 - p) if p < 1 else -1.0e18

    def bs_logmag(i: int) -> float:
        # h_i = sqrt(C(M,i) p^i (1-p)^(M-i) i!)
        if i > M or i < 0:
            return -math.inf
        val = log_factorial(M) - log_factorial(i) - log_factorial(M - i)
        val += (i * log_p if i else 0.0) + ((M - i) * log_1p if M - i else 0.0)
        return 0.5 * val + 0.5 * log_factorial(i)

    def one(_i: int) -> complex:
        return 1.0 + 0j

    def pabs_logmag(i: int) -> float:
        if i < 1:
            return -math.inf
        return bs_logmag(i - 1) + 0.5 * math.log(i) + 0.5 * (log_factorial(i) - log_factorial(i - 1))

    if hole is None:
        return bs_logmag, one, 0, 1.0
    if hole == "filtered":
        weight = 1.0 - (1.0 - p) ** M
        if weight <= 0.0:
            raise AnnihilatedStateError("VFBS is empty for p = 0 or M = 0")
        return bs_logmag, one, 1, 1.0 / weight
    return pabs_logmag, one, 1, 1.0 / (1.0 + M * p)


def moment_series(
    spec: StateSpec, t: int, j: int, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """<a†^t a^j> from the family's closed-form series.

    All fifteen families are covered: the plain Fock, coherent and displaced
    Fock states evaluate through the photon-added series with zero photons
    added. Raises ConvergenceError if the stopping rule is not met within
    policy.max_dim terms.
    """
    if t < 0 or j < 0:
        raise ValueError("operator powers must be >= 0")
    if t + j > MAX_TOTAL_ORDER:
        raise InvalidParameterError(f"moment order {t + j} exceeds cap {MAX_TOTAL_ORDER}")
    group = spec.info.group
    max_terms = max(policy.max_dim, 512)
    if group in ("fock", "dfs"):
        alpha = spec.param("alpha")
        n, k, q = spec.param("n"), spec.param("added"), spec.param("subtracted")
        num = _dfs_group_series(alpha, n, k, q, t, j, max_terms)
        den = _dfs_group_series(alpha, n, k, q, 0, 0, max_terms)
        if den < 1e-250:
            raise AnnihilatedStateError(f"{spec.family} state vanishes for these parameters")
        theta = cmath.phase(alpha) if alpha != 0 else 0.0
        return cmath.exp(1j * theta * (j - t)) * (num / den)
    params = _binomial_params if group == "binomial" else _ecs_like_params
    h_logmag, h_phase, start, n_sq = params(spec)
    return n_sq * _ladder_series(h_logmag, h_phase, start, t, j, max_terms)
