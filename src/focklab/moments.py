"""General moments <a†^t a^j>, computed two independent ways.

``moment_oracle`` takes the inner product of two ladder rows a^k|s> that
each state caches; exact up to floating point on the truncated space. It
keeps each answer, with its truncation verdict, in a memo on the state, so
a witness that asks again for a moment pays a dict lookup.
``moment_series`` evaluates the closed-form series of each family from its
parameters alone, never touching a state vector. Witnesses consume the
oracle; the test suite holds the two within 1e-8 of each other.
"""

from __future__ import annotations

import operator

import numpy as np

from .core import DEFAULT_POLICY, StateVector, TruncationPolicy
from .exceptions import FockLabError, InvalidParameterError, TruncationUnsafeError
from .states import StateSpec, ladders

# Power budget: truncation error grows with t + j, so cap the order.
MAX_TOTAL_ORDER = 16
# Largest truncation-edge error estimate a moment accepts, relative to its scale.
EDGE_TOLERANCE = 1e-6


def _check_powers(t: int, j: int) -> None:
    try:
        operator.index(t), operator.index(j)
    except TypeError:
        raise InvalidParameterError(f"operator powers must be integers, got {t!r} and {j!r}") from None
    if t < 0 or j < 0:
        raise InvalidParameterError("operator powers must be >= 0")
    if t + j > MAX_TOTAL_ORDER:
        raise InvalidParameterError(f"moment order {t + j} exceeds cap {MAX_TOTAL_ORDER}")


def moment_oracle(s: StateVector, t: int, j: int) -> complex:
    """<s| a†^t a^j |s>, the vdot of the state's cached rows a^t|s> and a^j|s>.

    Exact up to floating point for the stored state. This is the one
    truncation guard for moments: for a truncated state (tail_mass > 0) the
    occupation past the edge adds at most about tail_mass * dim^((t+j)/2) to
    a moment of this order (a loose envelope for factorially decaying tails),
    and the call fails when that exceeds EDGE_TOLERANCE relative to the
    moment's own scale. States built with the default 1e-12 tail pass for all
    admissible orders; states pinned against max_dim do not.

    Each state keeps a memo of its answers, keyed by (t, j): the value and
    the guard's verdict, which depends only on the state, t, j and the
    value. A repeated call returns the same value or raises the same
    TruncationUnsafeError, as if it were computed again. The powers are
    checked on every call, before the memo is read, so a power that is
    negative, over the cap or not an integer is refused however warm the
    memo is. An entry is published in one assignment, so threads racing on
    a fresh state only repeat work.
    """
    _check_powers(t, j)
    memo = s.__dict__.setdefault("_moment_memo", {})
    entry = memo.get((t, j))
    if entry is None:
        bra, ket = s.lowered(t), s.lowered(j)
        d = min(len(bra), len(ket))
        value = complex(np.vdot(bra[:d], ket[:d])) if d else 0j
        unsafe = None
        if s.tail_mass > 0.0 and t + j > 0:
            tail_error = s.tail_mass * (s.dim + t + j) ** (0.5 * (t + j))
            if tail_error > EDGE_TOLERANCE * max(1.0, abs(value)):
                unsafe = (
                    f"truncation-edge error estimate {tail_error:.2e} is too large for "
                    f"a moment of order {t + j}; rebuild with a tighter tail tolerance"
                )
        entry = memo[t, j] = (value, unsafe)
    value, unsafe = entry
    if unsafe is not None:
        raise TruncationUnsafeError(unsafe)
    return value


def _log_falling(x: np.ndarray, order: int) -> np.ndarray:
    """log(x!/(x - order)!) for each x >= order, as a sum of order logs."""
    return np.log(x[:, None] - np.arange(order)).sum(axis=1)


def moment_series(
    spec: StateSpec, t: int, j: int, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """<a†^t a^j> from the family's closed-form amplitudes, for all fifteen families.

    Sums sum_i conj(c_{i-j+t}) c_i sqrt((i-j+t)!/(i-j)! i!/(i-j)!) over the
    normalized amplitudes of ``states.ladder_log_amplitudes``, whose errors
    (AnnihilatedStateError, ConvergenceError) it passes on. ``policy`` is
    unused: the ladder sets its own length. It stays because
    ``perfbench/workloads.py`` passes it.
    """
    return _moment_sum(ladders([spec])[0], t, j)


def _moment_sum(ladder: tuple[np.ndarray, np.ndarray] | FockLabError, t: int, j: int) -> complex:
    """``moment_series`` over one ``states.ladders`` entry: the powers are checked, then an error entry is raised."""
    _check_powers(t, j)
    if isinstance(ladder, FockLabError):
        raise ladder
    log_c, phase = ladder
    i = np.arange(j, len(log_c) + min(j - t, 0))  # both i and i - j + t on the ladder
    bra = i - j + t
    log_t = log_c[bra] + log_c[i] + 0.5 * (_log_falling(bra, t) + _log_falling(i, j))
    return complex(np.sum(np.exp(log_t) * (phase[bra].conj() * phase[i])))
