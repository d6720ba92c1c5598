"""Truncated-Fock-space state vectors and ladder-operator primitives.

Everything in this module works directly on complex amplitude vectors
over |0>..|D-1>. It is deliberately free of any closed-form state
knowledge: the engineered-state factories and series engines elsewhere
in the package are all validated against these O(D) operator routines.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    AnnihilatedStateError,
    ConvergenceError,
    DimensionError,
    InvalidParameterError,
    TruncationOverflowError,
)

# The most log-factorials ``log_factorials`` serves (32 MiB); it also caps
# TruncationPolicy.max_dim, so every admitted basis has its log-factorials,
# and it caps the square-root table of the ladder operators.
MAX_LOG_FACTORIALS = 1 << 22


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls how infinite Fock expansions are cut off.

    max_dim is a hard cap on the basis size, an integer in
    [1, MAX_LOG_FACTORIALS]; tail_tolerance is the largest probability mass
    that may be discarded by the cut. Either out of range raises
    InvalidParameterError.
    """

    max_dim: int = 512
    tail_tolerance: float = 1e-12

    def __post_init__(self):
        try:
            max_dim = operator.index(self.max_dim)  # Python and numpy integers, not 1e3
        except TypeError:
            raise InvalidParameterError(f"max_dim must be an integer, got {self.max_dim!r}") from None
        if not 1 <= max_dim <= MAX_LOG_FACTORIALS:
            raise InvalidParameterError(f"max_dim must be >= 1 and <= {MAX_LOG_FACTORIALS}, got {max_dim}")
        object.__setattr__(self, "max_dim", max_dim)
        if not 0.0 < self.tail_tolerance < 1.0:
            raise InvalidParameterError("tail_tolerance must lie in (0, 1)")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True, eq=False)
class StateVector:
    """A pure bosonic state as complex amplitudes over |0>..|dim-1>.

    Instances are immutable; every operation returns a new value, so states
    are safe to share across threads and parameter sweeps.  tail_mass is an
    upper bound on the probability discarded when the state was truncated.
    Its cached rows a^k|s> (``lowered``) are read-only and published atomically;
    ``moments.moment_oracle`` keeps its memo of the state's moments, each with
    its truncation verdict, next to them.
    Equality is identity and states hash by identity; compare the
    amplitudes of two states with ``overlap`` or ``states.state_distance``.
    """

    amplitudes: np.ndarray = field(repr=False)
    dim: int
    tail_mass: float = 0.0

    def __post_init__(self):
        # Copy so the read-only flag never leaks onto a caller's array.
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if self.dim != len(amps) or self.dim < 1:
            raise DimensionError(f"dim {self.dim} does not match amplitude vector")
        if not 0.0 <= self.tail_mass < 1.0:
            raise ValueError("tail_mass must lie in [0, 1)")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def mean_photon_number(self) -> float:
        p = self.probabilities()
        return float(np.dot(np.arange(self.dim), p))

    def lowered(self, k: int) -> np.ndarray:
        """Read-only a^k|s>, bitwise ``lower_amplitudes(amplitudes, k)``; empty for k >= dim."""
        if k < 0:
            raise ValueError("k must be >= 0")
        rows = self.__dict__.get("_lowered", (self.amplitudes,))
        while len(rows) <= min(k, self.dim):  # each step publishes a new, longer tuple
            rows += (lower_amplitudes(rows[-1]),)
            rows[-1].setflags(write=False)
            self.__dict__["_lowered"] = rows
        return rows[min(k, self.dim)]

    def overlap(self, other: "StateVector") -> complex:
        """<self|other> on the common truncated support."""
        d = min(self.dim, other.dim)
        return complex(np.vdot(self.amplitudes[:d], other.amplitudes[:d]))


def checked_norm(nrm: float) -> float:
    """``nrm`` if an amplitude vector of that norm is a state: the package's one existence rule.

    A squared norm of exactly 0 is an empty state (AnnihilatedStateError); a
    subnormal, inf or NaN one has left the float range (ConvergenceError).
    Nothing else is refused for being small. ``normalization_constant_closed_form``
    applies the same rule to 1/N^2.
    """
    nrm = float(nrm)  # a Python float: its square goes to inf with no overflow warning
    norm_sq = nrm * nrm
    if norm_sq == 0.0:
        raise AnnihilatedStateError("amplitude vector has zero norm: the state is empty")
    if not sys.float_info.min <= norm_sq < math.inf:
        raise ConvergenceError(f"squared norm {norm_sq!r} of the amplitude vector leaves the float range")
    return nrm


def state_from_amplitudes(amps: np.ndarray, tail_mass: float = 0.0) -> StateVector:
    """Normalize a raw amplitude vector into a StateVector; ``checked_norm`` says whether it is one.

    The global phase is kept: phase analysis depends on it.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(amps)
    return StateVector(amps / checked_norm(nrm), len(amps), tail_mass)


def make_fock(n: int, dim: int) -> StateVector:
    """The number state |n> in a basis of size dim."""
    if n < 0:
        raise DimensionError("photon number must be non-negative")
    if n >= dim:
        raise DimensionError(f"Fock index {n} does not fit in dim {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(amps, dim, 0.0)


_square_root_table = np.zeros(1)  # sqrt 0 = 0; grown by ``_square_roots``


def _square_roots(n: int) -> np.ndarray:
    """Read-only view of sqrt(k), k < n, as float64: the ladder factors of a vector of n amplitudes.

    One table serves every row that ``lower_amplitudes`` and
    ``raise_amplitudes`` compute; it at least doubles when a longer prefix is
    asked for, up to MAX_LOG_FACTORIALS entries. A longer prefix is computed
    for that call alone. IEEE sqrt is correctly rounded, so each factor is
    bitwise ``np.sqrt`` of its index however it was computed.
    """
    global _square_root_table
    table = _square_root_table
    if n > len(table):
        if n > MAX_LOG_FACTORIALS:
            return np.sqrt(np.arange(n, dtype=np.float64))
        table = np.sqrt(np.arange(min(max(n, 2 * len(table)), MAX_LOG_FACTORIALS), dtype=np.float64))
        table.setflags(write=False)
        _square_root_table = table
    return table[:n]


def raise_amplitudes(amps: np.ndarray, k: int = 1) -> np.ndarray:
    """Raw action of the k-fold creation operator along the last axis, growing it by k.

    A block of vectors, one per row, is raised row by row, each row bitwise
    as it is raised alone.
    """
    out = np.asarray(amps, dtype=np.complex128)
    for _ in range(k):
        size = out.shape[-1] + 1
        grown = np.zeros(out.shape[:-1] + (size,), dtype=np.complex128)
        grown[..., 1:] = _square_roots(size)[1:] * out
        out = grown
    return out


def lower_amplitudes(amps: np.ndarray, k: int = 1) -> np.ndarray:
    """Raw action of the k-fold annihilation operator along the last axis, shrinking it by k (to 0 at most).

    A block of vectors is lowered row by row, as ``raise_amplitudes`` raises it.
    """
    out = np.asarray(amps, dtype=np.complex128)
    for _ in range(k):
        size = out.shape[-1]
        if size <= 1:
            return np.zeros(out.shape[:-1] + (0,), dtype=np.complex128)
        out = _square_roots(size)[1:] * out[..., 1:]
    return out


def apply_create(
    s: StateVector, k: int = 1, policy: TruncationPolicy = DEFAULT_POLICY
) -> tuple[StateVector, float]:
    """Apply the creation operator k times and renormalize.

    Returns the new state and the pre-normalization norm sqrt(<a^k a†^k>).
    The basis auto-extends to hold the raised amplitudes; if that would
    exceed policy.max_dim and the clipped mass matters, the call fails.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return s, 1.0
    raw = raise_amplitudes(s.amplitudes, k)
    if len(raw) > policy.max_dim:
        clipped = float(np.sum(np.abs(raw[policy.max_dim:]) ** 2))
        total = float(np.sum(np.abs(raw) ** 2))
        if clipped > policy.tail_tolerance * total:
            raise TruncationOverflowError(
                f"raising past max_dim={policy.max_dim} would clip mass {clipped:.3e}"
            )
        raw = raw[: policy.max_dim]
    nrm = float(np.linalg.norm(raw))
    return state_from_amplitudes(raw, s.tail_mass), nrm


def apply_annihilate(s: StateVector, k: int = 1) -> tuple[StateVector, float]:
    """Apply the annihilation operator k times and renormalize.

    Returns the new state and the pre-normalization norm sqrt(<a†^k a^k>).
    Annihilating the whole state (e.g. a|0>) raises AnnihilatedStateError.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return s, 1.0
    raw = lower_amplitudes(s.amplitudes, k)
    return state_from_amplitudes(raw, s.tail_mass), float(np.linalg.norm(raw))


def photon_number_distribution(s: StateVector) -> np.ndarray:
    """p_n = |c_n|^2; the vector sums to one within 1e-12."""
    p = s.probabilities()
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized (sum p = {total!r})")
    return p


_log_factorial_table = np.zeros(1)  # log 0! = 0; grown by ``log_factorials``


def log_factorials(n: int) -> np.ndarray:
    """Read-only view of log k! = math.lgamma(k + 1) for k < n.

    Every log-factorial in the package is read from this one table, which
    at least doubles when a longer prefix is asked for, up to
    MAX_LOG_FACTORIALS entries; past that it raises ConvergenceError.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if n > len(table):
        if n > MAX_LOG_FACTORIALS:
            raise ConvergenceError(f"{n} log-factorials requested, past the {MAX_LOG_FACTORIALS}-entry cap")
        size = min(max(n, 2 * len(table)), MAX_LOG_FACTORIALS)
        table = np.concatenate((table, [math.lgamma(k + 1) for k in range(len(table), size)]))
        table.setflags(write=False)
        _log_factorial_table = table
    return table[:n]


def log_factorial_entry(k: int) -> float:
    """log k!, bitwise entry k of the ``log_factorials`` table, read without growing it.

    For a few entries far past the table, as ``states._cut`` reads judging
    a binomial at its cap. A k at or past MAX_LOG_FACTORIALS, which the
    table never holds, raises IndexError, as reading the full table would.
    """
    if k < len(_log_factorial_table):
        return _log_factorial_table.item(k)
    if k >= MAX_LOG_FACTORIALS:
        raise IndexError(f"log {k}! is past the {MAX_LOG_FACTORIALS}-entry cap")
    return math.lgamma(k + 1)
