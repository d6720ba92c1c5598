"""General moments <a†^t a^j>, computed two independent ways.

``moment_oracle`` takes the inner product of two ladder rows a^k|s> that
each state caches; exact up to floating point on the truncated space. It
keeps each answer, with its truncation verdict, in a memo on the state, so
a witness that asks again for a moment pays a dict lookup.
``moment_series`` evaluates the closed-form series of each family from its
parameters alone, never touching a state vector; ``moment_sums`` is its
batched form, one vectorised pass per (t, j). Witnesses consume the
oracle; the test suite holds the two within 1e-8 of each other.
"""

from __future__ import annotations

import itertools
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

    The one-point case of ``moment_sums``. Sums
    sum_i conj(c_{i-j+t}) c_i sqrt((i-j+t)!/(i-j)! i!/(i-j)!) over the
    normalized amplitudes of ``states.ladder_log_amplitudes``, whose errors
    (AnnihilatedStateError, ConvergenceError) it passes on once the powers
    pass. ``policy`` is unused: the ladder sets its own length. It stays
    because ``perfbench/workloads.py`` passes it.
    """
    _check_powers(t, j)
    (ladder,) = ladders([spec])
    if isinstance(ladder, FockLabError):
        raise ladder
    return _moment_pass([ladder], t, j)[0]


def moment_sums(points: list[tuple[StateSpec, int, int]]) -> list[complex | FockLabError]:
    """For each (spec, t, j) in order, its ``moment_series`` or the FockLabError that call raises.

    A point's powers are checked first, then its ladder comes from one
    ``states.ladders`` call over the points whose powers pass. The points of
    one (t, j) are summed in one vectorised pass over their ladders laid end
    to end (``_moment_pass``), and each point's terms are reduced by np.sum
    over its own contiguous slice, so every value is bitwise its one-point
    sum.
    """
    results: list = [None] * len(points)
    valid = []
    for index, (_, t, j) in enumerate(points):
        try:
            _check_powers(t, j)
        except InvalidParameterError as exc:
            results[index] = exc
        else:
            valid.append(index)
    groups: dict[tuple[int, int], list] = {}
    for index, ladder in zip(valid, ladders([points[index][0] for index in valid])):
        if isinstance(ladder, FockLabError):
            results[index] = ladder
        else:
            _, t, j = points[index]
            groups.setdefault((operator.index(t), operator.index(j)), []).append((index, ladder))
    for (t, j), group in groups.items():
        for (index, _), value in zip(group, _moment_pass([ladder for _, ladder in group], t, j)):
            results[index] = value
    return results


def _moment_pass(group: list[tuple[np.ndarray, np.ndarray]], t: int, j: int) -> list[complex]:
    """<a†^t a^j> over each ladder of ``group`` in one pass; a lone ladder is read in place.

    Each point sums its terms i = j .. len - 1 + min(j - t, 0), those with
    both i and i - j + t on its ladder. The ladders are laid end to end, so
    a point's terms form one contiguous slice of the pass, read at its
    ladder's offset.
    """
    if len(group) == 1:
        ((log_c, phase),) = group
        i = local = np.arange(j, len(log_c) + min(j - t, 0))
        bra = local_bra = i - j + t
    else:
        counts = [max(len(ladder[0]) + min(j - t, 0) - j, 0) for ladder in group]
        log_c = np.concatenate([ladder[0] for ladder in group])
        phase = np.concatenate([ladder[1] for ladder in group])
        firsts = [0, *itertools.accumulate(counts[:-1])]  # each point's first term in the pass
        offsets = np.repeat([0, *itertools.accumulate(len(ladder[0]) for ladder in group[:-1])], counts)
        local = np.arange(sum(counts)) - np.repeat([first - j for first in firsts], counts)
        local_bra = local - j + t
        i, bra = local + offsets, local_bra + offsets
    log_t = log_c[bra] + log_c[i] + 0.5 * (_log_falling(local_bra, t) + _log_falling(local, j))
    terms = np.exp(log_t) * (phase[bra].conj() * phase[i])
    if len(group) == 1:
        return [complex(np.sum(terms))]
    return [complex(np.sum(terms[first : first + count])) for first, count in zip(firsts, counts)]
