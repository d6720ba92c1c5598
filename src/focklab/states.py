"""Engineered-state factory over the truncated Fock basis.

Every family is built two independent ways: ``build_state`` evaluates the
closed-form Fock coefficients directly, while ``build_by_composition``
assembles the same state from operator primitives (displace, add photons,
subtract photons, vacuum-filter), and ``compositions`` does so for a batch
of specs, one block per family. Their elementwise agreement is the
anti-drift oracle for every closed form in the package. The closed-form
coefficients are written once, as log amplitudes in
``_bare_log_amplitudes``: ``build_state`` exponentiates them (and
``build_states`` does so for a batch of specs in one kernel pass), and
``ladder_log_amplitudes`` normalizes them for the series that sum over them
without a state vector (moments, entropy, phase, Q).

Supported families: Fock, Coherent, DFS (displaced Fock), PADFS / PSDFS /
PASDFS (photon-added / -subtracted / added-then-subtracted DFS), ECS (even
coherent), Binomial, Kerr, plus the hole-burnt variants VFECS/VFBS/VFKS
(vacuum filtered) and PAECS/PABS/PAKS (single photon added).
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_POLICY,
    MAX_LOG_FACTORIALS,
    StateVector,
    TruncationPolicy,
    checked_norm,
    log_factorials,
    lower_amplitudes,
    make_fock,
    raise_amplitudes,
)
from .exceptions import (
    AnnihilatedStateError,
    ConvergenceError,
    FockLabError,
    InvalidParameterError,
    TruncationOverflowError,
)

# Exponent used in place of log(0) so that 0^e underflows to exactly 0.0 for
# e > 0 while 0^0 stays exp(0 * _LOG_ZERO) = 1.
_LOG_ZERO = -1.0e18


@dataclass(frozen=True)
class Family:
    """One state family: its series group, hole-burning step and parameters.

    ``group`` is the coefficient series the family is built on: "fock",
    "dfs" (displaced Fock, with photon addition/subtraction), "ecs" (even
    coherent), "kerr" or "binomial". ``hole`` is the step that burns the
    vacuum hole into the group's plain state: None, "filtered" (c_0 zeroed)
    or "added" (one photon added). ``fields`` names the StateSpec fields the
    family reads; "alpha" covers both its magnitude and its phase.
    """

    name: str
    group: str
    hole: str | None
    fields: tuple[str, ...]


# The one place a family is defined; every dispatch reads group/hole/fields.
_TABLE = (
    Family("Fock", "fock", None, ("n",)),
    Family("Coherent", "dfs", None, ("alpha",)),
    Family("DFS", "dfs", None, ("alpha", "n")),
    Family("PADFS", "dfs", None, ("alpha", "n", "added")),
    Family("PSDFS", "dfs", None, ("alpha", "n", "subtracted")),
    Family("PASDFS", "dfs", None, ("alpha", "n", "added", "subtracted")),
    Family("ECS", "ecs", None, ("alpha",)),
    Family("VFECS", "ecs", "filtered", ("alpha",)),
    Family("PAECS", "ecs", "added", ("alpha",)),
    Family("Binomial", "binomial", None, ("p", "M")),
    Family("VFBS", "binomial", "filtered", ("p", "M")),
    Family("PABS", "binomial", "added", ("p", "M")),
    Family("Kerr", "kerr", None, ("alpha", "chi")),
    Family("VFKS", "kerr", "filtered", ("alpha", "chi")),
    Family("PAKS", "kerr", "added", ("alpha", "chi")),
)

FAMILY_INFO = {family.name: family for family in _TABLE}
FAMILIES = tuple(FAMILY_INFO)

_CANONICAL = {name.lower(): name for name in FAMILIES}

# Families whose photon-number distribution has an exact hole at n = 0.
HOLE_AT_VACUUM = tuple(family.name for family in _TABLE if family.hole)


def canonical_family(name: str) -> str:
    try:
        return _CANONICAL[name.strip().lower()]
    except KeyError:
        raise InvalidParameterError(f"unknown state family {name!r}") from None


@dataclass(frozen=True)
class StateSpec:
    """Tagged parameter record naming a state family and its parameters.

    Only the fields its family lists in ``FAMILY_INFO`` are read: ``alpha``
    for every displaced/coherent-like family, ``n`` for the Fock parameter
    of the DFS families, ``added``/``subtracted`` for photon
    addition/subtraction counts, ``p``/``M`` for the binomial families,
    ``chi`` for the Kerr coupling appearing in exp(-i chi n (n-1)).
    """

    family: str
    alpha: complex = 0j
    n: int = 0
    added: int = 0
    subtracted: int = 0
    p: float = 0.0
    M: int = 0
    chi: float = 0.0

    def __post_init__(self):
        # Each field already of its stored type (an exact str name, complex,
        # int or float) skips its conversion; every check still runs.
        family = self.family
        info = FAMILY_INFO.get(family) if type(family) is str else None
        if info is None:
            info = FAMILY_INFO[canonical_family(family)]
            object.__setattr__(self, "family", info.name)
        alpha = self.alpha
        if type(alpha) is not complex:
            alpha = complex(alpha)
            object.__setattr__(self, "alpha", alpha)
        for attr in ("n", "added", "subtracted", "M"):
            value = getattr(self, attr)
            if type(value) is not int:
                try:
                    value = operator.index(value)  # Python and numpy integers, not 1.5
                except TypeError:
                    raise InvalidParameterError(f"{attr} must be an integer, got {value!r}") from None
                object.__setattr__(self, attr, value)
            if value < 0:
                raise InvalidParameterError(f"{attr} must be >= 0")
        for attr in ("p", "chi"):
            value = getattr(self, attr)
            if type(value) is not float:
                if not isinstance(value, numbers.Real):
                    raise InvalidParameterError(f"{attr} must be a real number, got {value!r}")
                # Stored as float, as alpha is as complex: an int chi would enter the
                # Kerr phase as int64, which wraps, and alone in another dtype than in a batch.
                object.__setattr__(self, attr, float(value))
        for attr, value in (("alpha", alpha), ("p", self.p), ("chi", self.chi)):
            if not cmath.isfinite(value):
                raise InvalidParameterError(f"{attr} must be finite, got {value}")
        # Every alpha-reading series starts from |alpha|^2; hypot, unlike abs, returns inf rather than raise.
        mag = math.hypot(alpha.real, alpha.imag)
        if mag * mag == math.inf and "alpha" in info.fields:
            raise InvalidParameterError(f"|alpha| = {mag} is too large: |alpha|^2 leaves the float range")
        if "p" in info.fields and not 0.0 <= self.p <= 1.0:
            raise InvalidParameterError(f"binomial probability p={self.p} not in [0, 1]")

    @property
    def info(self) -> Family:
        return FAMILY_INFO[self.family]

    def param(self, field: str):
        """The value of ``field`` if this family reads it, else 0."""
        return getattr(self, field) if field in FAMILY_INFO[self.family].fields else 0

    @property
    def alpha_mag(self) -> float:
        return abs(self.alpha)

    @property
    def alpha_phase(self) -> float:
        # alpha = 0 is an exact origin; its phase is meaningless and ignored.
        return cmath.phase(self.alpha) if self.alpha != 0 else 0.0


def _per_spec(values: list):
    """One Python scalar per spec as a kernel operand: the scalar itself for one spec, else a (specs, 1) column.

    The kernels broadcast these over the basis, so their results carry a
    leading axis per spec only when there is more than one.
    """
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _shared(specs: list[StateSpec], field: str):
    """A count field (n, added, subtracted, M) as a kernel operand: the one int its specs share, else their column.

    A shared count keeps the kernels on their one-shape path, with the same
    numpy calls as for one spec; only a group that mixes counts pays for
    per-spec masks and gathers.
    """
    first = specs[0].param(field)
    if len(specs) == 1:
        return first
    counts = [spec.param(field) for spec in specs]
    return first if counts.count(first) == len(counts) else np.array(counts)[:, None]


def _largest(count: int | np.ndarray) -> int:
    """The largest value of a ``_shared`` operand."""
    return int(count.max()) if isinstance(count, np.ndarray) else count


def _gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[..., index] along the basis axis, with one index row per spec when ``index`` has them."""
    return values.take(index, axis=-1) if index.ndim == 1 else np.take_along_axis(values, index, axis=-1)


def _log_pow(mags: list[float], exponent) -> np.ndarray:
    """exponent * log(mag) for each mag, with mag = 0 handled so 0^0 = 1 and 0^e = 0."""
    log_mags = _per_spec([math.log(mag) if mag > 0.0 else _LOG_ZERO for mag in mags])
    return np.asarray(exponent, dtype=np.float64) * log_mags


# Rows of the Laguerre recurrence are scaled down by this exact power of two
# whenever they pass it, so they never overflow.
_RESCALE = 2.0**500


def _displaced_fock(alphas: list[complex], n: int | np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(log|<m|D(alpha)|n>|, e^{i arg <m|D(alpha)|n>}) for m < dim, a row per alpha (``_per_spec``).

    <m|D(alpha)|n> = sqrt(lo!/hi!) (alpha or -alpha*)^a e^{-x/2} L_lo^(a)(x),
    with lo, hi = min, max(m, n), a = hi - lo and x = |alpha|^2: alpha^a for
    m >= n, (-alpha*)^a below (Cahill & Glauber, Phys. Rev. 177, 1857 (1969);
    de Oliveira et al., PRA 41, 2645 (1990)). The Laguerre factor runs as
    ell_k = L_k^(a)(x) / C(k+a, k) through the forward recurrence
    (k+1+a) ell_{k+1} = (2k+1+a-x) ell_k - k ell_{k-1}, vectorised over alpha
    and m, and each m reads its ell at k = lo; the prefactor stays in log
    form. No alternating sum is formed, so nothing cancels as n grows. An
    exactly zero Laguerre factor gives log|.| = -inf; at alpha = 0 the
    off-diagonal elements read -1e18 |m - n| (``_log_pow``), which
    exponentiate to 0.0. ``n`` is one int or a (specs, 1) column
    (``_shared``); with a column the recurrence runs to the largest
    min(n, dim) for every row, and each row reads its own degrees. Every
    element is computed by itself, so a row is bitwise the same whatever its
    batch and whatever the dim it is cut from.
    """
    mags = [abs(alpha) for alpha in alphas]
    x = _per_spec([mag**2 for mag in mags])
    m = np.arange(dim)
    a = np.abs(m - n)
    shape = (dim,) if len(alphas) == 1 else (len(alphas), dim)
    log_ell, sign = np.zeros(shape), np.ones(shape)  # ell_0 = 1, the factor of every row when n = 0
    mixed = isinstance(n, np.ndarray)  # a column of per-spec n, not one shared n
    top = _largest(n)
    # Taken before the recurrence, so a table past its cap refuses before any step runs.
    log_fact = log_factorials(max(dim, top + 1))
    steps = min(top, dim)  # no row reads a degree past min(n, dim - 1)
    if steps:
        prev, ell = np.zeros(shape), np.ones(shape)
        log_scale = np.zeros(shape)
        if mixed:  # rows m >= n read ell at degree n, kept here as each row reaches it
            counts = n[:, 0].tolist()
            tail_log, tail_sign = np.zeros(shape), np.ones(shape)
        for k in range(steps):
            prev, ell = ell, ((2 * k + 1 - x + a) * ell - k * prev) / (k + 1 + a)
            if not np.abs(ell).max() <= _RESCALE:  # a NaN past some row's own degree must not hide the others
                grown = np.abs(ell) > _RESCALE
                prev[grown] /= _RESCALE
                ell[grown] /= _RESCALE
                log_scale[grown] += math.log(_RESCALE)
            if k + 1 < steps:  # row m = k + 1 < n has reached its degree lo = m
                value = ell[..., k + 1]
                logs = [math.log(abs(v)) if v else -math.inf for v in np.ravel(value).tolist()]
                log_ell[..., k + 1] = np.reshape(logs, value.shape) + log_scale[..., k + 1]
                sign[..., k + 1] = np.copysign(1.0, value)
            if mixed:
                done = [row for row, count in enumerate(counts) if count == k + 1]
                if done:
                    with np.errstate(divide="ignore"):
                        tail_log[done] = np.log(np.abs(ell[done])) + log_scale[done]
                    tail_sign[done] = np.sign(ell[done])
        if mixed:
            log_ell = np.where(m >= n, tail_log, log_ell)
            sign = np.where(m >= n, tail_sign, sign)
        else:
            with np.errstate(divide="ignore"):
                log_ell[..., n:] = np.log(np.abs(ell[..., n:])) + log_scale[..., n:]  # rows m >= n have lo = n
            sign[..., n:] = np.sign(ell[..., n:])
        sign = np.where((m < n) & (a % 2 == 1), -sign, sign)  # (-alpha*)^a below the diagonal
    lo = np.minimum(m, n)
    log_mag = (
        0.5 * (log_fact[lo + a] - log_fact[lo])
        - log_fact[a]
        + _log_pow(mags, a)
        - 0.5 * x
        + log_ell
    )
    turn = _per_spec([1j * (cmath.phase(alpha) if alpha != 0 else 0.0) for alpha in alphas])
    return log_mag, sign * np.exp(turn * (m - n))


def _dfs_log_amplitudes(
    alphas: list[complex], n: int | np.ndarray, added: int | np.ndarray, subtracted: int | np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """(log|c_j|, e^{i arg c_j}) for j < dim of a^q a†^k D(alpha)|n>  (k = added, q = subtracted), a row per alpha.

    c_j = sqrt((j+q)!/j!) sqrt((j+q)!/m!) <m|D(alpha)|n> with m = j + q - k:
    the two ladder powers are square-root factor shifts of the displaced-Fock
    kernel. log|c_j| is -inf where m < 0. n, k and q are each one int or a
    (specs, 1) column (``_shared``).
    """
    top = _largest(subtracted)
    log_d, phase_d = _displaced_fock(alphas, n, dim + top)
    if not isinstance(added, np.ndarray) and not added and not top:  # the shift is exactly zero
        return log_d, phase_d
    j = np.arange(dim)
    m = j + subtracted - added
    valid = m >= 0
    m = np.where(valid, m, 0)
    log_fact = log_factorials(dim + top)
    shift = log_fact[j + subtracted] - 0.5 * (log_fact[j] + log_fact[m])
    log_c = np.where(valid, _gather(log_d, m) + shift, -np.inf)
    return log_c, np.where(valid, _gather(phase_d, m), 0.0)


def _bare_log_amplitudes(specs: list[StateSpec], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(log|b_i|, e^{i arg b_i}) for i < dim of the bare closed-form series, a row per spec (``_per_spec``).

    The specs share one family; every parameter may differ. This is the one
    transcription of the thesis coefficients c_i = N b_i, with
    N = ``normalization_constant_closed_form(spec)``. Fock is b_i = 1 at
    i = n and 0 elsewhere (log|b_i| = 0 and -inf). The DFS group reads
    b_i = <i|a^q a†^k D(alpha)|n> from the displaced-Fock kernel, whose
    recurrence runs to the specs' largest min(n, dim) for every row. The
    others are b_i = h_i / sqrt(i!) with h_i =
    (1 + (-1)^i) alpha^i (ECS), alpha^i e^{-|alpha|^2/2} e^{-i chi i (i-1)}
    (plain Kerr, whose N is therefore 1; the hole variants drop the damping) or
    sqrt(M!/(M-i)! p^i (1-p)^(M-i)) (binomial, zero past M). Filtration sets
    b_0 = 0 and photon addition maps b_i -> sqrt(i) b_{i-1}. log|b_i| is -inf
    where b_i = 0, except off the kernel's diagonal at alpha = 0: there it is
    about -1e18 |i - n|, finite so ``_grows_at_cut`` stays an argmax, and exp
    gives 0.0. In log form no term over- or underflows. The per-spec scalars
    (log |alpha|, its phase, log p, chi) are Python floats, as in a one-spec
    call, and counts the specs share stay ints (``_shared``), so each row is
    bitwise that spec's series alone.
    """
    spec = specs[0]
    info = spec.info
    base = dim - (info.hole == "added")  # photon addition shifts the series up one
    i = np.arange(base)
    if info.group == "fock":  # exact: no kernel pass for a Kronecker delta
        log_b = np.where(i == _per_spec([s.n for s in specs]), 0.0, -np.inf)
        phase = np.ones(log_b.shape, dtype=np.complex128)
    elif info.group == "dfs":
        alphas = [s.param("alpha") for s in specs]
        counts = _shared(specs, "n"), _shared(specs, "added"), _shared(specs, "subtracted")
        log_b, phase = _dfs_log_amplitudes(alphas, *counts, base)
    elif info.group == "binomial":
        M = _shared(specs, "M")
        log_fact = log_factorials(_largest(M) + 1)
        k = np.minimum(i, M)
        log_h = 0.5 * (
            log_fact[M]
            - log_fact[k]
            - log_fact[M - k]
            + _log_pow([s.p for s in specs], k)
            + _log_pow([1.0 - s.p for s in specs], M - k)
        )
        log_b = np.where(i <= M, log_h, -np.inf)
        phase = np.ones(log_b.shape, dtype=np.complex128)
    else:
        mags = [s.alpha_mag for s in specs]
        log_b = _log_pow(mags, i) - 0.5 * log_factorials(base)
        turn = _per_spec([s.alpha_phase for s in specs]) * i
        if info.group == "ecs":
            log_b += np.where(i % 2 == 0, math.log(2.0), -np.inf)
        else:
            if info.hole is None:  # plain Kerr carries the coherent damping
                log_b = log_b - _per_spec([0.5 * mag**2 for mag in mags])
            turn = turn - _per_spec([s.chi for s in specs]) * i * (i - 1)
        phase = np.exp(1j * turn)
    if info.hole == "filtered":
        log_b[..., 0] = -np.inf
    elif info.hole == "added":
        log_b = _raised(log_b + 0.5 * np.log(np.arange(1, dim)), -np.inf)
        phase = _raised(phase, 1.0)
    return log_b, phase


def _raised(values: np.ndarray, vacuum: float) -> np.ndarray:
    """``values`` moved up one term along the basis axis, with ``vacuum`` as the new term 0."""
    out = np.empty(values.shape[:-1] + (values.shape[-1] + 1,), dtype=values.dtype)
    out[..., 0] = vacuum
    out[..., 1:] = values
    return out


def bare_coefficients(spec: StateSpec, dim: int) -> np.ndarray:
    """The bare series b_i, i < dim, of ``_bare_log_amplitudes`` as a vector.

    Its norm is what the family's closed-form normalization constant must
    invert; ``normalization_constant`` and
    ``normalization_constant_closed_form`` compare these two quantities. An
    undamped series past the float range overflows to inf here.
    """
    log_b, phase = _bare_log_amplitudes([spec], dim)
    with np.errstate(under="ignore", over="ignore"):
        return np.exp(log_b) * phase


def _support(spec: StateSpec) -> int | None:
    """Length of the whole Fock expansion of a Fock or binomial family; None for the others."""
    info = spec.info
    if info.group == "fock":
        return spec.n + 1
    if info.group == "binomial":
        return spec.M + (2 if info.hole == "added" else 1)
    return None


def _initial_dim(spec: StateSpec, policy: TruncationPolicy) -> int:
    support = _support(spec)
    if support is not None:
        return min(support, policy.max_dim)
    n, added = spec.param("n"), spec.param("added")
    mean = spec.alpha_mag**2 + n + added + 1.0
    guess = int(mean + 14.0 * math.sqrt(mean) + 32) + added + n
    return min(max(guess, 24), policy.max_dim)


def build_state(spec: StateSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> StateVector:
    """Normalized state vector of ``spec`` from its closed-form coefficients.

    ``build_states`` with one spec. The basis size is chosen adaptively so
    the discarded tail mass stays within ``policy.tail_tolerance``, capped
    at ``policy.max_dim``. Raises AnnihilatedStateError when subtraction
    kills the state (e.g. PSDFS with v >= 1 from the vacuum),
    TruncationOverflowError when max_dim cuts the series before its peak,
    and ConvergenceError when the squared norm overflows (the undamped ECS
    series and Kerr hole variants past |alpha|^2 ~ 710) or goes subnormal.
    """
    (state,) = build_states([spec], policy)
    if isinstance(state, FockLabError):
        raise state
    return state


def build_states(
    specs: list[StateSpec], policy: TruncationPolicy = DEFAULT_POLICY
) -> list[StateVector | FockLabError]:
    """For each spec in order, its ``build_state`` vector or the FockLabError that call raises.

    Specs of one family share one pass of the series kernel at the widest of
    their initial bases, whatever their n, added, subtracted, M, alpha, p or
    chi, and the specs whose series outgrow their basis share one more pass
    at their doubled bases (``_adaptive_bare``). The rows that pass their
    guards on a pass are trimmed and normalized as one block (``_finished``),
    where only the reductions whose bits depend on a row's own length run
    row by row, so every state is bitwise the one ``build_state`` gives. A
    DFS-group pass runs the Laguerre recurrence to the group's largest
    min(n, dim) for every row, so one large n makes its whole family pay for
    it. Memory grows with the batch: callers with many specs pass them a
    chunk at a time.
    """
    return _by_family(specs, _adaptive_bare, policy, _finished)


def _by_family(specs: list[StateSpec], run_group, *args) -> list:
    """``run_group(group, *args)`` of each family's specs, its results put back in the specs' order.

    ``run_group`` maps a list of specs of one family to one result per spec.
    """
    if len(specs) == 1:
        return run_group(specs, *args)
    groups: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.family, []).append(index)
    results: list = [None] * len(specs)
    for indices in groups.values():
        for index, result in zip(indices, run_group([specs[index] for index in indices], *args)):
            results[index] = result
    return results


def _adaptive_bare(group: list[StateSpec], policy: TruncationPolicy, finish) -> list:
    """``finish`` of each spec's bare series on its adaptive basis, or the FockLabError that series raises; one family.

    Each basis starts at ``_initial_dim`` and doubles until the last
    coefficient holds at most tail_tolerance * 1e-4 of the squared norm, or
    reaches max_dim; a Fock or binomial family is built whole at once (up to
    max_dim). The specs on their first bases, then those that double, share
    one ``_bare_log_amplitudes`` pass at their widest basis, exponentiated
    as one block; a pass that runs out of log-factorials leaves each spec to
    take its own. Each row is judged on its own length: ConvergenceError
    where its squared norm overflows, TruncationOverflowError where max_dim
    cuts the series while it still grows, then what ``checked_norm`` raises.
    ``finish(specs, policy, raw, lengths, norms, edges)`` maps a pass to a
    result per row from its length (0 for a row that failed or doubles,
    whose result is not read), ``_norm`` and edge occupation. One errstate
    covers it all: an overflowing row reads inf or NaN, which the guards refuse.
    """
    results: list = [None] * len(group)
    rows, specs, sizes = range(len(group)), group, [_initial_dim(spec, policy) for spec in group]
    edge_bound = policy.tail_tolerance * 1e-4
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        while rows:
            try:
                log_b, phase = _bare_log_amplitudes(specs, max(sizes))
            except FockLabError as exc:  # the log-factorials run out: each spec takes its own passes
                for index, spec in zip(rows, specs):
                    results[index] = exc if len(rows) == 1 else _adaptive_bare([spec], policy, finish)[0]
                break
            count = len(rows)
            raw_rows = (np.exp(log_b) * phase).reshape(count, -1)
            lengths, norms, edges = [0] * count, [0.0] * count, [0.0] * count
            doubled = []  # (index, spec, size) of each spec whose series outgrows its basis
            for row in range(count):
                spec, size = specs[row], sizes[row]
                nrm = norms[row] = _norm(raw_rows[row, :size])
                try:
                    # The bare series of the undamped families reaches e^{|alpha|^2/2}; refuse
                    # before its squared norm (or an amplitude) leaves the float range.
                    if not math.isfinite(nrm * nrm):
                        raise ConvergenceError(f"{spec.family} bare series norm leaves the float range at {spec}")
                    if size >= policy.max_dim and (_support(spec) or math.inf) > size and _grows_at_cut(spec, size):
                        raise TruncationOverflowError(
                            f"{spec.family} bare series still grows where max_dim={policy.max_dim} cuts it at {spec}"
                        )
                    checked_norm(nrm)
                except FockLabError as exc:
                    results[rows[row]] = exc
                    continue
                edge = edges[row] = abs(raw_rows[row, size - 1]) ** 2 / (nrm * nrm)
                if size < policy.max_dim and not edge <= edge_bound and _support(spec) is None:
                    doubled.append((rows[row], spec, min(size * 2, policy.max_dim)))
                else:
                    lengths[row] = size
            finished = finish(specs, policy, raw_rows, lengths, norms, edges)
            for row in range(count):
                if lengths[row]:
                    results[rows[row]] = finished[row]
            rows, specs, sizes = zip(*doubled) if doubled else ((), (), ())
    return results


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, bitwise: the two BLAS dots it runs, without its dispatch."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _finished(specs, policy: TruncationPolicy, raw: np.ndarray, lengths: list[int], norms: list, edges=None, bases=None) -> list:
    """Each row of a block trimmed and normalized into its StateVector, or the FockLabError that raises.

    ``raw`` holds a row per spec; a row of length n > 0 has a ``_norm`` over
    its n entries that passed ``checked_norm``, a row of length 0 gets None
    (``specs`` and ``edges`` are not read). Each row drops its trailing tail
    while the discarded mass stays within tail_tolerance; kept whole on a
    basis (``bases``, else its length) that reached max_dim and with
    significant edge occupation, its uncaptured mass is estimated by
    geometric extrapolation of its trailing probabilities, so downstream
    moment guards can refuse the state. p = |raw|^2, the suffix-mass scan, the keep index
    and the division by the norm are block ops on p zero-masked past each
    row's length (adding exact zeros is exact, so each row's suffix keeps its
    bits), and a row of length 0 is masked whole, so a row that failed its
    guards never reaches them. Only the reductions whose bits depend on a
    row's length, its total p[:n].sum() and the norm of its kept prefix, and
    the reads of its tail and StateVector run row by row, under the caller's
    errstate.
    """
    tol = policy.tail_tolerance
    count, width = len(lengths), max(lengths)
    results: list = [None] * count
    if not width:
        return results
    p = np.abs(raw[:, :width]) ** 2
    back = p[:, ::-1]  # each row backwards from the longest row's end, so its suffix masses are a cumsum
    if min(lengths) < width:
        back = np.where(np.arange(width - 1, -1, -1) < _per_spec(lengths), back, 0.0)
    totals = [p[row, :n].sum() if n else 1.0 for row, n in enumerate(lengths)]
    suffix = back.cumsum(axis=1)
    suffix /= _per_spec(totals)
    # A row keeps up to the last index >= 1 whose suffix mass is not within
    # tolerance, else index 0 alone; `<=` counts a NaN suffix as not within it.
    within = suffix <= tol
    within[:, -1] = False
    cuts = within.argmin(axis=1).tolist()  # the last kept index, counted from the back
    tails = [0.0] * count
    scales = [1.0] * count
    for row, (n, cut, total) in enumerate(zip(lengths, cuts, totals)):
        if not n:
            continue
        k = width - cut
        tail = suffix.item(row, cut - 1) if cut else 0.0  # the suffix mass just past the kept entries
        if k == n and max(n, bases[row] if bases else n) >= policy.max_dim:
            edge = p[row, k - 1] / total
            if edge > tol:
                ratio = p[row, k - 1] / p[row, k - 2] if k >= 2 and p[row, k - 2] > 0 else 1.0
                tail = edge * ratio / (1.0 - ratio) if ratio < 1.0 else 0.5
                tail = float(min(max(tail, edge), 0.99))
        tails[row] = tail
        try:
            scales[row] = norms[row] if k == n else checked_norm(_norm(raw[row, :k]))
        except FockLabError as exc:
            results[row] = exc
    amplitudes = raw[:, : width - min(cuts)] / _per_spec(scales)
    for row, (n, cut, tail) in enumerate(zip(lengths, cuts, tails)):
        if n and results[row] is None:
            results[row] = StateVector(amplitudes[row, : width - cut], width - cut, tail)
    return results


def _grows_at_cut(spec: StateSpec, dim: int) -> bool:
    """Whether a basis of ``dim`` states cuts the family's series before its peak.

    Only asked of a series that runs past ``dim`` terms. Judged on the bare
    log magnitudes, which never underflow, over two terms past the cut (an
    ECS series is live on every other term): the series grows at the cut
    when it has not started by then or peaks past the cut.
    """
    log_b, _ = _bare_log_amplitudes([spec], dim + 2)
    # The last maximum: where |alpha|^2 dwarfs dim the log series still grows
    # by less than its ulp per term, and plateaus in float.
    peak = len(log_b) - 1 - int(np.argmax(log_b[::-1]))
    return peak >= dim or log_b[peak] == -np.inf


def displacement_coefficients(alpha: complex, n: int, dim: int) -> np.ndarray:
    """Exact Fock coefficients <m|D(alpha)|n>, m < dim, in Laguerre form; no renormalization applied."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    log_d, phase = _displaced_fock([alpha], n, dim)
    with np.errstate(under="ignore"):
        return np.exp(log_d) * phase


def build_by_composition(spec: StateSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> StateVector:
    """Same state as ``build_state`` but assembled from operator primitives.

    ``compositions`` with one spec. Photon addition/subtraction is literal
    repeated ladder application; vacuum filtration literally zeroes c_0 and
    renormalizes. Raises ConvergenceError where the composition leaves the
    float range (n! from n = 171, or an overflowing recurrence or norm),
    TruncationOverflowError where max_dim caps the basis so far below the
    state that its starting vector is empty, and AnnihilatedStateError for
    an empty state.
    """
    (state,) = compositions([spec], policy)
    if isinstance(state, FockLabError):
        raise state
    return state


def compositions(
    specs: list[StateSpec], policy: TruncationPolicy = DEFAULT_POLICY
) -> list[StateVector | FockLabError]:
    """For each spec in order, its ``build_by_composition`` vector or the FockLabError that call raises.

    Specs of one family are composed as one block at the widest of their
    bases (``_composed``); each row is then cut to its own basis and checked
    on its own, and the rows that pass are trimmed and normalized as one
    block (``_finished``), so every state is bitwise the one-spec one. A DFS
    group runs its (a† - alpha*) steps to the group's largest n for every
    row, so one large n makes its whole family pay for it.
    """
    return _by_family(specs, _composed_group, policy)


def _sqrt_factorial(n: int) -> float:
    """sqrt(n!) as a float; ConvergenceError where n! itself leaves the float range (from n = 171), before n! is formed."""
    if n > 170:
        raise ConvergenceError(f"{n}! leaves the float range: DFS cannot be composed at n = {n}")
    return math.sqrt(math.factorial(n))


def _composed_group(group: list[StateSpec], policy: TruncationPolicy) -> list:
    """``compositions`` of specs of one family: one ``_composed`` block, finished as one block by ``_finished``.

    A DFS-group spec whose n! leaves the float range gets its error before
    any arithmetic and stays out of the block. A block that runs out of
    log-factorials leaves each spec to compose alone. Each row is cut to its
    basis (at most max_dim); where its dim is max_dim and its squared norm
    is 0 or subnormal because its starting vector already is, max_dim cut
    the state away (TruncationOverflowError), else ``checked_norm`` judges
    it. Under one errstate an overflowing row reads inf or NaN, which
    ``checked_norm`` refuses.
    """
    info = group[0].info
    if info.group == "fock":
        return [make_fock(spec.n, spec.n + 1) for spec in group]
    results: list = [None] * len(group)
    if info.group == "dfs":
        for index, spec in enumerate(group):
            try:
                _sqrt_factorial(spec.param("n"))
            except ConvergenceError as exc:
                results[index] = exc
    live = [index for index, result in enumerate(results) if result is None]
    specs = [group[index] for index in live]
    if not specs:
        return results
    added = [spec.param("added") for spec in specs]
    subtracted = [spec.param("subtracted") for spec in specs]
    dims = [
        min(_initial_dim(spec, policy) + k + q + 8, policy.max_dim) for spec, k, q in zip(specs, added, subtracted)
    ]
    try:
        start, raw = _composed(specs, dims)
    except FockLabError as exc:
        if len(specs) > 1:
            return [result or _composed_group([spec], policy)[0] for spec, result in zip(group, results)]
        results[live[0]] = exc
        return results
    # Photon addition may have grown a row past the cap.
    sizes = [min(max(dim + k - q, 0), policy.max_dim) for dim, k, q in zip(dims, added, subtracted)]
    tiny = sys.float_info.min
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        start_rows, raw_rows = start.reshape(len(specs), -1), raw.reshape(len(specs), -1)
        lengths, norms = [0] * len(specs), [0.0] * len(specs)
        for row, (index, spec, dim, size) in enumerate(zip(live, specs, dims, sizes)):
            nrm = norms[row] = _norm(raw_rows[row, :size])
            try:
                if nrm * nrm < tiny and dim >= policy.max_dim and _norm(start_rows[row, :dim]) ** 2 < tiny:
                    raise TruncationOverflowError(
                        f"{spec.family} composition is cut away where max_dim={policy.max_dim} caps its basis at {spec}"
                    )
                checked_norm(nrm)
            except FockLabError as exc:
                results[index] = exc
            else:
                lengths[row] = size
        for index, length, result in zip(live, lengths, _finished(specs, policy, raw_rows, lengths, norms, bases=dims)):
            if length:
                results[index] = result
    return results


def _composed(specs: list[StateSpec], dims: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(start, raw) for specs of one family, a row per spec (``_per_spec``), on the widest of ``dims``.

    start is the vector a composition starts from: the coherent state
    |alpha> = D(alpha)|0> from the displaced-Fock kernel, or for the binomial
    families the plain binomial series of ``_bare_log_amplitudes``. raw is
    the state assembled from it by operator steps: the DFS group takes
    D(alpha)|n> = (a† - alpha*)^n |alpha> / sqrt(n!) (the conjugation identity
    D(alpha) a† D†(alpha) = a† - alpha*, so the only closed form read is the
    coherent state) and then a^q a†^k; ECS takes |alpha> + |-alpha>, as
    |-alpha> = (-1)^N |alpha>; Kerr takes e^{-i chi N(N-1)} |alpha>; then the
    family's hole step zeroes c_0 or applies a†. n, k and q are each one int
    or a per-spec column (``_shared``); with a column each row takes its own
    count of steps. Every step is elementwise along the basis, so row i's
    first dims[i] + k_i - q_i entries are bitwise its one-spec composition.
    The steps run under one errstate: an overflow leaves inf or NaN for
    ``checked_norm`` to refuse. This is the one composition kernel.
    """
    info = specs[0].info
    width = max(dims)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        if info.group == "binomial":
            plain = next(family.name for family in _TABLE if family.group == info.group and family.hole is None)
            log_s, phase = _bare_log_amplitudes([StateSpec(plain, p=s.p, M=s.M) for s in specs], width)
        else:
            log_s, phase = _displaced_fock([s.alpha for s in specs], 0, width)
        start = np.exp(log_s) * phase
        raw = start
        if info.group == "dfs":
            n = _shared(specs, "n")
            conj = _per_spec([s.alpha.conjugate() for s in specs])
            for step in range(_largest(n)):
                stepped = raise_amplitudes(raw)[..., :width] - conj * raw
                raw = np.where(step < n, stepped, raw) if isinstance(n, np.ndarray) else stepped
            scale = _per_spec([_sqrt_factorial(s.param("n")) for s in specs])
            if isinstance(n, np.ndarray):
                raw = np.where(n > 0, raw / scale, raw)
            elif n:
                raw = raw / scale
            k, q = _shared(specs, "added"), _shared(specs, "subtracted")
            raw = _ladder_power(raw, k, raise_amplitudes, raw.shape[-1] + _largest(k))
            raw = _ladder_power(raw, q, lower_amplitudes, raw.shape[-1])
        elif info.group == "ecs":
            raw = raw + (-1.0) ** np.arange(width) * raw
        elif info.group == "kerr":
            j = np.arange(width)
            raw = raw * np.exp(_per_spec([-1j * s.chi for s in specs]) * j * (j - 1))
        if info.hole == "filtered":
            raw = raw.copy()
            raw[..., 0] = 0.0
        elif info.hole == "added":
            raw = raise_amplitudes(raw)[..., :width]
    return start, raw


def _ladder_power(block: np.ndarray, count: int | np.ndarray, step, width: int) -> np.ndarray:
    """``step(block, count)`` for ``step`` one of the core ladder operators and ``count`` a ``_shared`` operand.

    With a per-spec column of counts, each row is stepped once per unit of its
    own count, in a block of ``width`` columns: a raised row is cut back to
    the width and a lowered one keeps its last entries, so only entries past
    the row's own length differ from stepping it alone.
    """
    if not isinstance(count, np.ndarray):
        return step(block, count)
    out = np.zeros((len(block), width), dtype=np.complex128)
    out[:, : block.shape[-1]] = block
    for done in range(_largest(count)):
        rows = count[:, 0] > done
        stepped = step(out[rows])[:, :width]
        out[rows, : stepped.shape[-1]] = stepped
    return out


def normalization_constant(spec: StateSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Numeric normalization constant: 1 / norm of the family's bare coefficient series.

    ``normalization_constants`` with one spec. The series is summed on
    ``build_state``'s adaptive basis. Raises ConvergenceError where its
    squared norm leaves the float range, and TruncationOverflowError where
    max_dim cuts it short of a negligible edge.
    """
    (constant,) = normalization_constants([spec], policy)
    if isinstance(constant, FockLabError):
        raise constant
    return constant


def normalization_constants(specs: list[StateSpec], policy: TruncationPolicy = DEFAULT_POLICY) -> list[float | FockLabError]:
    """For each spec in order, its ``normalization_constant`` or the FockLabError that call raises.

    Each family's bare series come from one kernel pass, as in
    ``build_states``, so every constant is bitwise the one-spec value.
    """
    return _by_family(specs, _adaptive_bare, policy, _normalization_rows)


def _normalization_rows(specs, policy: TruncationPolicy, raw, lengths: list[int], norms: list, edges: list) -> list:
    """``normalization_constant`` of each row of an ``_adaptive_bare`` pass (``raw`` unused); None for a row of length 0."""
    results: list = []
    for spec, length, nrm, edge in zip(specs, lengths, norms, edges):
        if not length:
            results.append(None)
        elif edge > policy.tail_tolerance * 1e-4 and (_support(spec) or math.inf) > length:
            results.append(
                TruncationOverflowError(
                    f"{spec.family} bare series is cut at max_dim={policy.max_dim} with edge occupation {edge:.2e}"
                )
            )
        else:
            results.append(1.0 / nrm)
    return results


def _dfs_norm_sq(lam: float, n: int, k: int, q: int) -> float:
    """||a^q a†^k D(alpha)|n>||^2 with lam = |alpha|^2, a finite sum of squares of positive sums.

    a^q a†^k D(alpha) = D(alpha) (a + alpha)^q (a† + alpha*)^k, and each term
    C(k, i) C(q, j) alpha*^(k-i) alpha^(q-j) a^j a†^i |n> that lands on
    |n + i - j> carries the same phase e^{i arg(alpha) (q - k + i - j)}, so
    every Fock component is a sum of positive terms and nothing cancels at
    any |alpha|. k = q = 0 gives exactly 1.0.
    """
    components = [0.0] * (k + q + 1)  # the amplitude on |n + i - j> sits at i - j + q
    for i in range(k + 1):
        for j in range(min(q, n + i) + 1):
            term = math.comb(k, i) * math.comb(q, j) * lam ** ((k - i + q - j) / 2)
            components[i - j + q] += term * math.sqrt(math.perm(n + i, i) * math.perm(n + i, j))
    return math.fsum(c * c for c in components)


# 1/N^2, the squared norm of the bare series, as (lam, spec) -> float per
# (group, hole), in forms that neither cancel at small |alpha| or p nor
# overflow before 1/N^2 itself does: 4 (cosh lam - 1) = 8 sinh^2(lam/2),
# e^lam - 1 = expm1(lam) and 1 - (1-p)^M = -expm1(M log1p(-p)). Plain ECS
# writes N itself; every other (group, hole) not listed has N = 1.
_NORM_SQ = {
    ("dfs", None): lambda lam, s: _dfs_norm_sq(lam, s.param("n"), s.param("added"), s.param("subtracted")),
    ("ecs", "filtered"): lambda lam, s: 8.0 * math.sinh(0.5 * lam) ** 2,
    ("ecs", "added"): lambda lam, s: 4.0 * (math.cosh(lam) + lam * math.sinh(lam)),
    ("kerr", "filtered"): lambda lam, s: math.expm1(lam),
    ("kerr", "added"): lambda lam, s: math.exp(lam) * (1.0 + lam),
    ("binomial", "filtered"): lambda lam, s: -math.expm1(s.M * math.log1p(-s.p)) if s.p < 1.0 else float(s.M > 0),
    ("binomial", "added"): lambda lam, s: 1.0 + s.M * s.p,
}


def normalization_constant_closed_form(spec: StateSpec) -> float:
    """The analytic normalization constant N of ``bare_coefficients(spec)``.

    This is the one place a family's N is written; the moment and entropy
    series take theirs from here. The whole displaced-Fock group (Coherent,
    DFS, PADFS, PSDFS and PASDFS) reads one finite sum, ``_dfs_norm_sq``;
    Fock and the plain Kerr and binomial series are normalized as written.
    Raises AnnihilatedStateError where filtration or subtraction leaves
    nothing to normalize (1/N^2 = 0, e.g. the vacuum-filtered vacuum), and
    ConvergenceError where 1/N^2 overflows or goes subnormal, or N itself
    goes subnormal (ECS past |alpha|^2 ~ 1416).
    """
    key = (spec.info.group, spec.info.hole)
    lam = abs(spec.param("alpha")) ** 2
    if key == ("ecs", None):
        constant = math.exp(-0.5 * lam) / math.sqrt(2.0 * (1.0 + math.exp(-2.0 * lam)))
        if constant >= sys.float_info.min:
            return constant
    elif key not in _NORM_SQ:
        return 1.0
    else:
        try:
            norm_sq = _NORM_SQ[key](lam, spec)
        except OverflowError:
            norm_sq = math.inf
        if norm_sq == 0.0:
            raise AnnihilatedStateError(f"{spec.family} is empty for these parameters")
        if sys.float_info.min <= norm_sq < math.inf:
            return norm_sq**-0.5
    raise ConvergenceError(f"{spec.family} normalization leaves the float range at {spec}")


def ladder_log_amplitudes(spec: StateSpec) -> tuple[np.ndarray, np.ndarray]:
    """(log|c_i|, e^{i arg c_i}) of the normalized closed-form amplitudes of any family.

    ``ladders`` with one spec. c_i = N b_i over the bare series of
    ``_bare_log_amplitudes``, the same one ``build_state`` exponentiates,
    with N from ``normalization_constant_closed_form``. The closed forms
    (moments, entropy, phase, Q) sum over this ladder without a state
    vector: ``build_by_composition`` checks its coefficients and each
    operator oracle checks its sum. The ladder runs to M + 1 (binomial) or
    |alpha|^2 + n + 14 sqrt((|alpha|^2 + 1)(2n + 1)) + 24 terms, one more per
    added photon; log|c_i| is -inf where c_i = 0. Raises what N raises
    (AnnihilatedStateError for an empty state, ConvergenceError out of the
    float range), and ConvergenceError where the ladder needs more
    log-factorials than ``core`` serves.
    """
    (ladder,) = ladders([spec])
    if isinstance(ladder, FockLabError):
        raise ladder
    return ladder


def ladders(specs: list[StateSpec]) -> list[tuple[np.ndarray, np.ndarray] | FockLabError]:
    """For each spec in order, its ``ladder_log_amplitudes`` pair or the FockLabError that call raises.

    Each spec finds its N, its length and its log-factorial cap alone; the
    specs of one family then share one ``_bare_log_amplitudes`` pass at
    their longest ladder, and each row is cut to its own length, so every
    ladder is bitwise its one-spec value. As in ``build_states``, one long
    ladder makes its whole family pay for its length.
    """
    return _by_family(specs, _ladder_group)


def _ladder_size(spec: StateSpec) -> tuple[float, int]:
    """(log N, the ladder's length) of ``spec``; raises what ``ladder_log_amplitudes`` raises."""
    info = spec.info
    constant = normalization_constant_closed_form(spec)
    if info.group == "binomial":
        cut = spec.M + 1
    else:
        lam, n = abs(spec.param("alpha")) ** 2, spec.param("n")
        cut = int(lam + n + 14.0 * math.sqrt((lam + 1.0) * (2 * n + 1)) + 24) + spec.param("added")
    needed = cut + spec.param("subtracted")  # the most log-factorials the ladder's kernels read
    if needed > MAX_LOG_FACTORIALS:  # refuse before allocating cut-long arrays
        raise ConvergenceError(f"{spec.family} ladder needs {needed} log-factorials, past the {MAX_LOG_FACTORIALS}-entry cap")
    return math.log(constant), cut + (info.hole == "added")


def _ladder_group(group: list[StateSpec]) -> list:
    """``ladders`` of specs of one family."""
    if len(group) == 1:  # nothing to share: the spec takes its own 1-D pass
        return [_ladder(group[0])]
    sizes: list = []
    for spec in group:
        try:
            sizes.append(_ladder_size(spec))
        except FockLabError as exc:
            sizes.append(exc)
    live = [index for index, size in enumerate(sizes) if not isinstance(size, FockLabError)]
    rows: dict[int, tuple] = {}
    if len(live) > 1:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # a row run past its own length must not warn
                block = _bare_log_amplitudes([group[index] for index in live], max(sizes[index][1] for index in live))
            rows = dict(zip(live, zip(*block)))
        except FockLabError:  # the group's widest pass runs out of log-factorials: each spec takes its own
            pass
    return [
        size if isinstance(size, FockLabError) else _ladder(spec, size, rows.get(index))
        for index, (spec, size) in enumerate(zip(group, sizes))
    ]


def _ladder(spec: StateSpec, size: tuple[float, int] | None = None, series: tuple | None = None):
    """``ladder_log_amplitudes`` of one spec, or the FockLabError it raises.

    ``size`` is the spec's ``_ladder_size`` and ``series`` its row of the
    family's shared pass, when the caller has them.
    """
    try:
        log_n, length = size or _ladder_size(spec)
    except FockLabError as exc:
        return exc
    if series is None:  # its own pass, exactly its length
        log_b, phase = _bare_log_amplitudes([spec], length)
        return log_b + log_n, phase
    log_b, phase = series
    return log_b[:length] + log_n, phase[:length]


def state_distance(a: StateVector, b: StateVector) -> float:
    """Max elementwise amplitude difference on the common truncated support."""
    d = min(a.dim, b.dim)
    return float(np.max(np.abs(a.amplitudes[:d] - b.amplitudes[:d])))


def limiting_cases(spec: StateSpec) -> list[StateSpec]:
    """Specs this state must equal elementwise (the family reduction lattice)."""
    out = []
    fam = spec.family
    fields = spec.info.fields
    if ("added" in fields or "subtracted" in fields) and spec.param("added") == spec.param("subtracted") == 0:
        out.append(StateSpec("DFS", alpha=spec.alpha, n=spec.n))
    if fam == "PADFS":
        out.append(StateSpec("PASDFS", alpha=spec.alpha, n=spec.n, added=spec.added))
    if fam == "PSDFS":
        out.append(StateSpec("PASDFS", alpha=spec.alpha, n=spec.n, subtracted=spec.subtracted))
    if fam == "DFS" and spec.n == 0:
        out.append(StateSpec("Coherent", alpha=spec.alpha))
    if fam == "DFS" and spec.alpha == 0:
        out.append(StateSpec("Fock", n=spec.n))
    if fam == "Coherent" and spec.alpha == 0:
        out.append(StateSpec("Fock", n=0))
    if fam == "Kerr" and spec.chi == 0.0:
        out.append(StateSpec("Coherent", alpha=spec.alpha))
    if fam == "Binomial" and spec.p == 1.0:
        out.append(StateSpec("Fock", n=spec.M))
    return out
