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
from .states import StateSpec, _dfs_group_series, _log_damping, normalization_constant_closed_form

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


def _ladder_series(
    h_logmag, h_phase, start: int, t: int, j: int, max_terms: int
) -> complex:
    """sum_i h*(i-j+t) h(i) / (i-j)! for ladder-group families.

    ``h_logmag``/``h_phase`` give the bare numerator h_i of the family's
    coefficients c_i = N h_i / sqrt(i!); ``start`` is the lowest occupied
    Fock index (1 for vacuum-filtered and photon-added variants). Raises
    ConvergenceError when a term or the running sum leaves the float range.
    """
    acc = StableSum()
    i0 = max(j, start, start + j - t)
    for i in range(i0, i0 + max_terms):
        bra = i - j + t
        lm = h_logmag(bra) + h_logmag(i) - log_factorial(i - j)
        if lm < -745.0:  # exp underflows to 0
            if acc.peak == 0.0 and lm > -math.inf:
                continue  # ahead of the series' bulk: not a quiet term of its tail
            term = 0j
        else:
            try:
                term = math.exp(lm) * h_phase(bra).conjugate() * h_phase(i)
            except OverflowError:
                term = math.inf
        done = acc.add(term)
        if not cmath.isfinite(acc.total):
            raise ConvergenceError(f"moment series leaves the float range at term {i}")
        if done:
            return acc.total
    raise ConvergenceError(f"moment series did not stabilize within {max_terms} terms")


def _plain_ladder(spec: StateSpec):
    """(h_logmag, h_phase) of the plain series of an ECS, Kerr or binomial family.

    h_i is (1 + (-1)^i) alpha^i for ECS, alpha^i e^{-i chi i (i-1)} for Kerr
    and sqrt(C(M, i) p^i (1-p)^(M-i) i!) for the binomial state.
    """
    if spec.info.group == "binomial":
        p, M = spec.p, spec.M
        log_p = math.log(p) if p > 0 else -1.0e18
        log_1p = math.log(1.0 - p) if p < 1 else -1.0e18

        def bs_logmag(i: int) -> float:
            if i > M or i < 0:
                return -math.inf
            val = log_factorial(M) - log_factorial(i) - log_factorial(M - i)
            val += (i * log_p if i else 0.0) + ((M - i) * log_1p if M - i else 0.0)
            return 0.5 * val + 0.5 * log_factorial(i)

        return bs_logmag, lambda _i: 1.0 + 0j
    mag, theta, chi = spec.alpha_mag, spec.alpha_phase, spec.chi
    log_mag = math.log(mag) if mag > 0 else -1.0e18
    if spec.info.group == "ecs":
        return (
            lambda i: i * log_mag if i % 2 == 0 else -math.inf,
            lambda i: 2.0 * cmath.exp(1j * theta * i),
        )
    return lambda i: i * log_mag, lambda i: cmath.exp(1j * (theta * i - chi * i * (i - 1)))


def moment_series(
    spec: StateSpec, t: int, j: int, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """<a†^t a^j> from the family's closed-form series.

    All fifteen families are covered: the plain Fock, coherent and displaced
    Fock states evaluate through the photon-added series with zero photons
    added. The ECS, Kerr and binomial families take their normalization
    from ``normalization_constant_closed_form``. Raises ConvergenceError if
    the stopping rule is not met within policy.max_dim terms or the series
    leaves the float range.
    """
    if t < 0 or j < 0:
        raise ValueError("operator powers must be >= 0")
    if t + j > MAX_TOTAL_ORDER:
        raise InvalidParameterError(f"moment order {t + j} exceeds cap {MAX_TOTAL_ORDER}")
    info = spec.info
    max_terms = max(policy.max_dim, 512)
    if info.group in ("fock", "dfs"):
        alpha = spec.param("alpha")
        n, k, q = spec.param("n"), spec.param("added"), spec.param("subtracted")
        num = _dfs_group_series(alpha, n, k, q, t, j, max_terms)
        den = _dfs_group_series(alpha, n, k, q, 0, 0, max_terms)
        if den < 1e-250:
            raise AnnihilatedStateError(f"{spec.family} state vanishes for these parameters")
        theta = cmath.phase(alpha) if alpha != 0 else 0.0
        return cmath.exp(1j * theta * (j - t)) * (num / den)
    constant = normalization_constant_closed_form(spec)
    if constant is None:
        raise AnnihilatedStateError(f"{spec.family} is empty for these parameters")
    h_logmag, h_phase = _plain_ladder(spec)
    if info.hole == "added":  # a† shifts the ladder up one slot: h_i -> i h_{i-1}
        plain_logmag, plain_phase = h_logmag, h_phase
        h_logmag = lambda i: plain_logmag(i - 1) + math.log(i)
        h_phase = lambda i: plain_phase(i - 1)
    n_sq = constant**2 * math.exp(2.0 * _log_damping(spec))
    start = 0 if info.hole is None else 1
    return n_sq * _ladder_series(h_logmag, h_phase, start, t, j, max_terms)
