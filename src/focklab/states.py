"""Engineered-state factory over the truncated Fock basis.

Every family is built two independent ways: ``build_state`` evaluates the
closed-form Fock coefficients, written once as log amplitudes in
``_bare_log_amplitudes`` (``build_states`` runs a batch in one kernel pass,
and ``ladder_log_amplitudes`` normalizes them for the series that sum
without a state vector: moments, entropy, phase, Q), while
``build_by_composition`` (``compositions`` for a batch) applies the family's
operator word to a start block in ``focklab.oracle``. Their elementwise
agreement is the anti-drift oracle for every closed form in the package.

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

from . import oracle
from .core import (
    DEFAULT_POLICY,
    MAX_LOG_FACTORIALS,
    StateVector,
    TruncationPolicy,
    checked_norm,
    log_factorial_entry,
    log_factorials,
    make_fock,
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
    """One state family: its series group, hole-burning step, parameters and operator word.

    ``group`` is the coefficient series the family is built on: "fock",
    "dfs" (displaced Fock, with photon addition/subtraction), "ecs" (even
    coherent), "kerr" or "binomial". ``hole`` is the step that burns the
    vacuum hole into the group's plain state: None, "filtered" (c_0 zeroed)
    or "added" (one photon added). ``fields`` names the StateSpec fields the
    family reads; "alpha" covers both its magnitude and its phase. ``word``
    is the family's operators, applied in order by ``oracle.composed`` to its
    start: |alpha>, or the plain binomial series for the binomial group
    (``_start``). Fock, D(0)|n> = |n>, is composed exactly, without its word.
    """

    name: str
    group: str
    hole: str | None
    fields: tuple[str, ...]
    word: tuple[str, ...]


# The one place a family is defined; every dispatch reads group/hole/fields/word.
_TABLE = (
    Family("Fock", "fock", None, ("n",), ("D_n",)),
    Family("Coherent", "dfs", None, ("alpha",), ()),
    Family("DFS", "dfs", None, ("alpha", "n"), ("D_n",)),
    Family("PADFS", "dfs", None, ("alpha", "n", "added"), ("D_n", "a†^k")),
    Family("PSDFS", "dfs", None, ("alpha", "n", "subtracted"), ("D_n", "a^q")),
    Family("PASDFS", "dfs", None, ("alpha", "n", "added", "subtracted"), ("D_n", "a†^k", "a^q")),
    Family("ECS", "ecs", None, ("alpha",), ("1+Π",)),
    Family("VFECS", "ecs", "filtered", ("alpha",), ("1+Π", "F")),
    Family("PAECS", "ecs", "added", ("alpha",), ("1+Π", "a†")),
    Family("Binomial", "binomial", None, ("p", "M"), ()),
    Family("VFBS", "binomial", "filtered", ("p", "M"), ("F",)),
    Family("PABS", "binomial", "added", ("p", "M"), ("a†",)),
    Family("Kerr", "kerr", None, ("alpha", "chi"), ("K",)),
    Family("VFKS", "kerr", "filtered", ("alpha", "chi"), ("K", "F")),
    Family("PAKS", "kerr", "added", ("alpha", "chi"), ("K", "a†")),
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
    about -1e18 |i - n|, and exp gives 0.0. In log form no term over- or
    underflows. The per-spec scalars
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
    """Length of a finite Fock expansion (Fock, binomial, or any family at |alpha|^2 = 0); else None."""
    info = spec.info
    if info.group == "fock":
        return spec.n + 1
    if info.group == "binomial" or abs(spec.param("alpha")) ** 2 == 0.0:  # M (0 at p = 0), or n + k at alpha = 0
        top = (spec.M if spec.p else 0) if info.group == "binomial" else spec.param("n") + spec.param("added")
        return top + 1 + (info.hole == "added")
    return None


# A build sizes its kernel pass at this fraction of tail_tolerance, so the
# suffix trim, not the pass, decides every kept length.
_PASS_HEADROOM = 1e-4
# The relative tail every closed-form ladder leaves out.
_LADDER_TAIL = 1e-34


def _cut(spec: StateSpec, tail: float, cap: int | None = None, norm: float | None = None) -> tuple[int, float]:
    """(D, bound): the shortest basis D <= cap past which the bare series holds at most ``bound`` <= ``tail`` of its squared norm.

    The one place a Fock expansion is sized: a finite support (``_support``)
    is D, with bound 0. Any other series has a majorant t_i >= |b_i|^2 whose
    step ratio r_i = t_{i+s} / t_i (s = 2 for the ECS group, zero on every
    other term, else 1) never grows past the mode, so the mass past D is at
    most t_D / (1 - r_D) over the total 1/N^2 (``norm`` is N if the caller has
    it). With x = |alpha|^2: Kerr x^i / i! (times e^{-x} for plain Kerr),
    r_i = x / (i + 1); ECS 4 x^i / i! on even i, r_i = x^2 / ((i + 1)(i + 2));
    DFS: D(alpha)|n> = (a† - alpha*)^n |alpha> / sqrt(n!) bounds
    |<m|D(alpha)|n>|^2 by the coherent term times a polynomial,
    e^{-x} x^(m-n) (x + m)^(2n) / (m! n!), and a^q a†^k multiplies it by
    (i+q)!^2 / (i! m!), m = i + q - k; a binomial past cap, judged there
    alone: C(M, i) <= M^i / i! gives (1-p)^M y^i / i!, y = M p / (1 - p).
    Photon addition maps t_i to i t_{i-1}, k + 1 in the DFS form, which at
    n = k = q = 0 is the coherent form and so serves every family; filtration
    drops t_0. D is found by bisection of the live terms from two below the
    mean, each probe the log bound's Newton step where that stays inside the
    bracket: a few log-factorials a probe, no scan. Where no D <= cap (core's
    log-factorial cap by default) passes, it returns (cap, inf). Raises what
    N raises where 1/N^2 overflows, as the bare series' squared norm then does.
    """
    cap = MAX_LOG_FACTORIALS if cap is None else cap
    info, support = spec.info, _support(spec)
    # Past cap a finite support is refused, but for a binomial of M >= 1 and 0 < p < 1, whose tail has a majorant.
    if support is not None and (support <= cap or not (spec.param("M") and 0.0 < spec.p < 1.0)):
        return (support, 0.0) if support <= cap else (cap, math.inf)
    n, k, q = spec.param("n"), spec.param("added") + (info.hole == "added"), spec.param("subtracted")
    log_total = 0.0  # log 1/N^2: plain Kerr, Coherent and the plain binomial series are normalized as written
    if k or q or info.hole or info.group == "ecs":
        try:
            log_total = -2.0 * math.log(norm or normalization_constant_closed_form(spec))
        except FockLabError:
            if abs(spec.param("alpha")) >= 1.0:  # 1/N^2 overflows, and so does the bare series' squared norm
                raise
            return min(n + k + 3, cap), 0.0  # 1/N^2 underflows: its first live terms show the build why
    if info.group == "binomial":
        lam, log_q = 0.0, math.log1p(-spec.p)
        log_t0, log_y, mean, lo_length = spec.M * log_q, math.log(spec.M * spec.p) - log_q, spec.M * spec.p, cap
    else:
        lam = abs(spec.alpha) ** 2
        log_t0 = -lam if info.group == "dfs" or info.name == "Kerr" else math.log(4.0) * (info.group == "ecs")
        log_y, mean = 2.0 * math.log(abs(spec.alpha)), lam + n + k
        lo_length = max(1, k - q, int(mean) - 2)  # at tail <= 1e-4 no bound passes below
    if lo_length > cap:
        return cap, math.inf
    log_t0 += (q - k - n) * log_y - log_total

    def log_term(i):
        """log t_i N^2."""
        m = i + q - k
        log_t = log_t0 + i * log_y - read(i) + 2.0 * (read(i + q) - read(m)) - read(n)
        return log_t + 2 * n * math.log(lam + m) if n else log_t

    def log_ratio(i):
        """log t_{i+1} / t_i, in closed form: a difference of two log terms near 1e7 would lose its digits."""
        m = i + q - k
        log_r = log_y - math.log(i + 1) + 2.0 * math.log((i + q + 1) / (m + 1))
        return log_r + 2 * n * math.log1p(1.0 / (lam + m)) if n else log_r

    step = 1 + (info.group == "ecs")
    first, last = lo_length + (k - lo_length) % step, cap + (k - cap) % step  # PAECS lives on odd terms
    log_tail = math.log(tail)
    # The first probe: where a Poisson tail of this mean reaches `tail` (Bernstein, then one Stirling step).
    x = mean - log_tail / 3 + math.sqrt(log_tail * log_tail / 9 - 2 * mean * log_tail)
    log_x = math.log(mean) - math.log(x)  # mean / x underflows where |alpha|^2 is subnormal
    x -= (x * log_x + x - mean - 0.5 * math.log(2 * math.pi * x) - log_tail) / (log_x - 0.5 / x)
    i = min(max(first + step * math.ceil((x - first) / step), first), last)
    # Twice the highest index this probe reads (max(i + q, n)), as core's table doubles: room for the probes above it.
    # A binomial, judged at cap alone, reads its few log-factorials singly: no table of cap entries to refuse M.
    table = None if info.group == "binomial" else log_factorials(min(2 * max(i + q, n) + 2, MAX_LOG_FACTORIALS))
    read = log_factorial_entry if table is None else table.item
    lo, hi = first, last + step  # live terms below lo fail; hi is the first known to pass
    while lo < hi:
        try:
            log_r = log_ratio(i) + (log_ratio(i + 1) if step == 2 else 0.0)
            log_b = log_term(i) - math.log(-math.expm1(log_r)) if log_r < 0.0 else math.inf
        except IndexError:  # past the log-factorials fetched so far: fetch twice this probe's, or fail past core's cap
            if table is not None and len(table) < MAX_LOG_FACTORIALS:
                table = log_factorials(min(2 * max(i + q, n) + 2, MAX_LOG_FACTORIALS))
                read = table.item
                continue
            log_b = math.inf
        if log_b <= log_tail:
            hi, log_hi = i, log_b
            i -= step * max(1, int((log_tail - log_b) / -log_r))
        else:
            lo = i + step
            i += step * (math.ceil((log_b - log_tail) / -log_r) if log_b < math.inf else max(i // step, 4))
        if not lo <= i < hi:
            i = lo + step * ((hi - lo) // (2 * step))
    if hi > last:  # nothing passes
        return cap, math.inf
    return max(hi - step + 1, lo_length), math.exp(log_hi)


def build_state(spec: StateSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> StateVector:
    """Normalized state vector of ``spec`` from its closed-form coefficients.

    ``build_states`` with one spec. The basis, sized once by ``_cut``
    (``_sized``), drops at most ``policy.tail_tolerance`` of the mass, and
    ``tail_mass`` bounds what it leaves out: at most tail_tolerance * (1 +
    1e-4). Raises TruncationOverflowError where that basis does not fit
    max_dim, AnnihilatedStateError when subtraction kills the state (e.g.
    PSDFS with v >= 1 from the vacuum), and ConvergenceError when the
    squared norm overflows (undamped ECS and Kerr hole variants past
    |alpha|^2 ~ 710) or goes subnormal.
    """
    return _alone(build_states([spec], policy))


def build_states(
    specs: list[StateSpec], policy: TruncationPolicy = DEFAULT_POLICY
) -> list[StateVector | FockLabError]:
    """For each spec in order, its ``build_state`` vector or the FockLabError that call raises.

    Specs of one family share one kernel pass at their widest ``_cut``
    length (``_bare_pass``) and one trim (``_finished``), so every state is
    bitwise its ``build_state``. A DFS-group pass runs the Laguerre
    recurrence to the group's largest min(n, dim) for every row. Memory
    grows with the batch: callers with many specs pass a chunk at a time.
    """
    return _by_family(specs, _sized, policy, _bare_pass, _finished)


def _alone(results: list):
    """The one entry of a one-spec batch, raised if it is the FockLabError of that spec."""
    (result,) = results
    if isinstance(result, FockLabError):
        raise result
    return result


def _by_family(specs: list[StateSpec], run_group, *args) -> list:
    """``run_group(group, *args)`` of each family's specs, its results put back in the specs' order.

    ``run_group`` maps a list of specs of one family to one result per spec.
    Where a group's pass raises a FockLabError (its widest pass runs out of
    log-factorials, say), that error is a lone spec's result, and a larger
    group runs again spec by spec.
    """
    if len(specs) == 1:
        try:
            return run_group(specs, *args)
        except FockLabError as exc:
            return [exc]
    groups: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.family, []).append(index)
    results: list = [None] * len(specs)
    for indices in groups.values():
        group = [specs[index] for index in indices]
        try:
            group_results = run_group(group, *args)
        except FockLabError:
            group_results = [_by_family([spec], run_group, *args)[0] for spec in group]
        for index, result in zip(indices, group_results):
            results[index] = result
    return results


def _sized(group: list[StateSpec], policy: TruncationPolicy, run, *args) -> list:
    """``run(specs, cuts, policy, *args)`` of the specs whose ``_cut`` fits max_dim, the others refused; one family.

    The one truncation rule of builds, compositions and numeric constants,
    applied before any kernel pass: each spec is cut at tail_tolerance *
    ``_PASS_HEADROOM``, and one whose cut does not fit max_dim is refused
    with TruncationOverflowError, never returned short of its mass. ``run``
    maps the (size, bound) cuts of the rest to a result per spec.
    """
    results: list = []
    for spec in group:
        try:
            size, bound = _cut(spec, policy.tail_tolerance * _PASS_HEADROOM, policy.max_dim)
            if bound == math.inf:
                raise TruncationOverflowError(f"{spec.family} needs more than max_dim={policy.max_dim} states at {spec}")
            results.append((size, bound))
        except FockLabError as exc:  # refused, or N leaves the float range
            results.append(exc)
    live = [index for index, result in enumerate(results) if type(result) is tuple]
    if live:
        outcomes = run([group[index] for index in live], [results[index] for index in live], policy, *args)
        for index, result in zip(live, outcomes):
            results[index] = result
    return results


def _bare_pass(group: list[StateSpec], cuts: list, policy: TruncationPolicy, finish) -> list:
    """``finish`` of each spec's bare series on its ``_cut`` basis, or the FockLabError that series raises; one family.

    The bases share one ``_bare_log_amplitudes`` pass (``_by_family`` runs
    each spec alone where it runs out of log-factorials). ``checked_norm``
    judges each row on its length, under one errstate. ``finish(specs,
    policy, raw, lengths, norms, bounds)`` maps the pass to a result per row.
    """
    count = len(group)
    results: list = [None] * count
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        log_b, phase = _bare_log_amplitudes(group, max(size for size, _ in cuts))
        raw_rows = (np.exp(log_b) * phase).reshape(count, -1)
        lengths, norms, bounds = [0] * count, [0.0] * count, [bound for _, bound in cuts]
        for row, (size, _) in enumerate(cuts):
            nrm = norms[row] = _norm(raw_rows[row, :size])
            try:
                checked_norm(nrm)  # the undamped bare series reach e^{|alpha|^2/2}, past the float range
            except FockLabError as exc:
                results[row] = exc
            else:
                lengths[row] = size
        for row, result in enumerate(finish(group, policy, raw_rows, lengths, norms, bounds)):
            if lengths[row]:
                results[row] = result
    return results


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, bitwise: the two BLAS dots it runs, without its dispatch."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _finished(specs, policy: TruncationPolicy, raw: np.ndarray, lengths: list[int], norms: list, bounds: list) -> list:
    """Each row of a block trimmed and normalized into its StateVector, or the FockLabError that raises.

    A row of length n > 0 has a checked ``_norm`` over its n entries and a
    ``_cut`` bound on the mass past them; a row of length 0 gets None. Each
    row drops its trailing tail while the dropped mass stays within
    tail_tolerance; its ``tail_mass`` is that suffix plus its bound. Block
    ops run on p = |raw|^2 zero-masked past each row's length (adding exact
    zeros is exact, so each row keeps its bits); only a row's total, kept
    norm and StateVector run row by row, under the caller's errstate.
    """
    tol, count, width = policy.tail_tolerance, len(lengths), max(lengths)
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
    scales = [1.0] * count
    for row, (n, cut) in enumerate(zip(lengths, cuts)):
        if n:
            try:
                scales[row] = norms[row] if width - cut == n else checked_norm(_norm(raw[row, : width - cut]))
            except FockLabError as exc:
                results[row] = exc
    amplitudes = raw[:, : width - min(cuts)] / _per_spec(scales)
    for row, (n, cut, bound) in enumerate(zip(lengths, cuts, bounds)):
        if n and results[row] is None:
            tail = (suffix.item(row, cut - 1) if cut else 0.0) + bound  # the trimmed suffix, then the mass past the basis
            results[row] = StateVector(amplitudes[row, : width - cut], width - cut, tail)
    return results


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
    renormalizes. Raises TruncationOverflowError where ``build_state`` does
    (``_sized``), ConvergenceError where the composition leaves the float
    range (n! from n = 171, or an overflowing recurrence or norm), and
    AnnihilatedStateError for an empty state.
    """
    return _alone(compositions([spec], policy))


def compositions(
    specs: list[StateSpec], policy: TruncationPolicy = DEFAULT_POLICY
) -> list[StateVector | FockLabError]:
    """For each spec in order, its ``build_by_composition`` vector or the FockLabError that call raises.

    Specs of one family are composed as one block at the widest of their
    starts: ``oracle.composed`` applies the family's operator word to the
    block ``_start`` forms. Each row is then cut to its own basis and checked
    on its own, and the rows that pass are trimmed and normalized as one
    block (``_finished``), so every state is bitwise the one-spec one. A DFS
    group runs its (a† - alpha*) steps to the group's largest n for every
    row, so one large n makes its whole family pay for it.
    """
    return _by_family(specs, _sized, policy, _composed_group)


def _composed_group(group: list[StateSpec], cuts: list, policy: TruncationPolicy) -> list:
    """``compositions`` of specs of one family: one ``oracle.composed`` block, finished as one block by ``_finished``.

    A spec whose n! leaves the float range fails before any arithmetic.
    Each row is composed from a start of its ``_cut`` basis plus k + q, so
    that its first cut + 2k entries are exact, and keeps min(cut + 2k,
    max_dim) of them, never fewer than its cut; ``checked_norm`` judges it,
    under one errstate.
    """
    info = group[0].info
    if info.group == "fock":  # D(0)|n> = |n>, exactly
        return [make_fock(spec.n, spec.n + 1) for spec in group]
    results: list = [None] * len(group)
    for index, n in enumerate(spec.param("n") for spec in group):
        if n > 170:
            results[index] = ConvergenceError(f"{n}! leaves the float range: DFS cannot be composed at n = {n}")
    live = [index for index, result in enumerate(results) if result is None]
    specs, cuts = [group[index] for index in live], [cuts[index] for index in live]
    if not specs:
        return results
    added, subtracted = [spec.param("added") for spec in specs], [spec.param("subtracted") for spec in specs]
    sizes = [min(size + 2 * k, policy.max_dim) for (size, _), k in zip(cuts, added)]
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        start = _start(specs, max(size + k + q for (size, _), k, q in zip(cuts, added, subtracted)))
        rows = {field: [spec.param(field) for spec in specs] for field in ("n", "added", "subtracted", "alpha", "chi")}
        raw = oracle.composed(info.word, start, rows)
        lengths, norms, bounds = [0] * len(specs), [0.0] * len(specs), [bound for _, bound in cuts]
        for row, (index, size) in enumerate(zip(live, sizes)):
            nrm = norms[row] = _norm(raw[row, :size])
            try:
                checked_norm(nrm)
            except FockLabError as exc:
                results[index] = exc
            else:
                lengths[row] = size
        for index, length, result in zip(live, lengths, _finished(specs, policy, raw, lengths, norms, bounds)):
            if length:
                results[index] = result
    return results


def _start(specs: list[StateSpec], width: int) -> np.ndarray:
    """The block a composition of specs of one family starts from, a row per spec: the only closed forms the oracle reads.

    The coherent state |alpha> = D(alpha)|0> from the displaced-Fock kernel,
    or for the binomial families the plain binomial series.
    """
    if specs[0].info.group == "binomial":
        log_s, phase = _bare_log_amplitudes([StateSpec("Binomial", p=s.p, M=s.M) for s in specs], width)
    else:
        log_s, phase = _displaced_fock([s.alpha for s in specs], 0, width)
    return (np.exp(log_s) * phase).reshape(len(specs), width)


def normalization_constant(spec: StateSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Numeric normalization constant: 1 / norm of the family's bare coefficient series.

    ``normalization_constants`` with one spec. The series is summed on
    ``build_state``'s ``_cut`` basis, and refused where ``build_state`` is:
    TruncationOverflowError where that basis does not fit max_dim,
    ConvergenceError where its squared norm leaves the float range.
    """
    return _alone(normalization_constants([spec], policy))


def normalization_constants(specs: list[StateSpec], policy: TruncationPolicy = DEFAULT_POLICY) -> list[float | FockLabError]:
    """For each spec in order, its ``normalization_constant`` or the FockLabError that call raises.

    Each family's bare series come from one kernel pass, as in
    ``build_states``, so every constant is bitwise the one-spec value.
    """
    return _by_family(specs, _sized, policy, _bare_pass, _normalization_rows)


def _normalization_rows(specs, policy: TruncationPolicy, raw, lengths: list[int], norms: list, bounds: list) -> list:
    """``normalization_constant`` of each row of a ``_bare_pass`` (``raw`` and ``bounds`` unused); None for a row of length 0."""
    return [1.0 / nrm if length else None for length, nrm in zip(lengths, norms)]


def _dfs_norm_sq(lam: float, n: int, k: int, q: int) -> float:
    """||a^q a†^k D(alpha)|n>||^2 with lam = |alpha|^2, a finite sum of squares of positive sums.

    a^q a†^k D(alpha) = D(alpha) (a + alpha)^q (a† + alpha*)^k, and each term
    C(k, i) C(q, j) alpha*^(k-i) alpha^(q-j) a^j a†^i |n> that lands on
    |n + i - j> carries the same phase e^{i arg(alpha) (q - k + i - j)}, so
    every Fock component is a sum of positive terms and nothing cancels at
    any |alpha|. k = q = 0 gives exactly 1.0.
    """
    if not k and not q:
        return 1.0
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
    ConvergenceError where 1/N^2 overflows or goes subnormal. Plain ECS
    writes N itself and raises only where N goes subnormal, past
    |alpha|^2 ~ 1416: from |alpha|^2 ~ 709.1, where its 1/N^2 overflows, it
    returns the N its ladder reads, while ``build_state`` and
    ``normalization_constant`` raise ConvergenceError.
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


# (key, ladder) of the last spec ``ladder_log_amplitudes`` computed, or None.
_held: tuple | None = None


def ladder_log_amplitudes(spec: StateSpec) -> tuple[np.ndarray, np.ndarray]:
    """(log|c_i|, e^{i arg c_i}) of the normalized closed-form amplitudes of any family.

    ``ladders`` with one spec. c_i = N b_i over the bare series of
    ``_bare_log_amplitudes``, the same one ``build_state`` exponentiates,
    with N from ``normalization_constant_closed_form``. The closed forms
    (moments, entropy, phase, Q) sum over this ladder without a state
    vector: ``build_by_composition`` checks its coefficients and each
    operator oracle checks its sum. The ladder runs to its ``_cut`` length
    at ``_LADDER_TAIL``; log|c_i| is -inf where c_i = 0. Raises what N raises,
    and ConvergenceError where it needs more log-factorials than core serves.

    It holds one ladder, that of the last spec it computed, so a run of
    closed forms over one spec (the orders of a moment table, the beta of
    a Q map) pays for one N, one ``_cut`` and one kernel pass. The next
    spec's ladder replaces it. Its key matches the spec bit for bit: it
    tells signed zeros apart in alpha, p and chi, which compare equal but
    can move the ladder's bits (alpha = -1+0j and -1-0j give phases of +pi
    and -pi). Both arrays it hands out are read-only. An error is never
    held: a spec that raises raises on every call and leaves the held
    ladder as it was. The batched ``ladders`` holds nothing.
    """
    global _held
    key = (spec, *(math.copysign(1.0, x) for x in (spec.alpha.real, spec.alpha.imag, spec.p, spec.chi)))
    held = _held
    if held is None or held[0] != key:
        ladder = _alone(ladders([spec]))
        for array in ladder:
            array.flags.writeable = False
        held = _held = key, ladder  # one assignment: a racing thread reads the old entry or the new
    return held[1]


def ladders(specs: list[StateSpec]) -> list[tuple[np.ndarray, np.ndarray] | FockLabError]:
    """For each spec in order, its ``ladder_log_amplitudes`` pair or the FockLabError that call raises.

    Each spec finds its N and length alone; the specs of one family share
    one ``_bare_log_amplitudes`` pass at their longest ladder, each row cut
    to its own length, so every ladder is bitwise its one-spec value. As in
    ``build_states``, one long ladder makes its whole family pay for it.
    """
    return _by_family(specs, _ladder_group)


def _ladder_group(group: list[StateSpec]) -> list:
    """``ladders`` of specs of one family: one pass at the longest, each row cut to its own length."""
    ladders: list = []  # (log N, length) of each spec, then its ladder, or the FockLabError it raises
    for spec in group:
        try:
            constant = normalization_constant_closed_form(spec)
            # Its kernels read its length plus q log-factorials, its bound one more; refuse before allocating it.
            length, bound = _cut(spec, _LADDER_TAIL, MAX_LOG_FACTORIALS - spec.param("subtracted") - 1, constant)
            if bound > _LADDER_TAIL:
                raise ConvergenceError(f"{spec.family} ladder needs more than the {MAX_LOG_FACTORIALS} log-factorials core serves")
            ladders.append((math.log(constant), length))
        except FockLabError as exc:
            ladders.append(exc)
    live = [index for index, ladder in enumerate(ladders) if not isinstance(ladder, FockLabError)]
    if len(live) == 1:  # its own pass, exactly its length
        log_n, length = ladders[live[0]]
        log_b, phase = _bare_log_amplitudes([group[live[0]]], length)
        ladders[live[0]] = log_b + log_n, phase
    elif live:
        with np.errstate(over="ignore", invalid="ignore"):  # a row run past its own length must not warn
            block = _bare_log_amplitudes([group[index] for index in live], max(ladders[index][1] for index in live))
        for index, log_b, phase in zip(live, *block):
            log_n, length = ladders[index]
            ladders[index] = log_b[:length] + log_n, phase[:length]
    return ladders


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
