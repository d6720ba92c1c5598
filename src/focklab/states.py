"""Engineered-state factory over the truncated Fock basis.

Every family is built two independent ways: ``build_state`` evaluates the
closed-form Fock coefficients directly, while ``build_by_composition``
assembles the same state from operator primitives (displace, add photons,
subtract photons, vacuum-filter). Their elementwise agreement is the
anti-drift oracle for every closed form in the package.

Supported families: Fock, Coherent, DFS (displaced Fock), PADFS / PSDFS /
PASDFS (photon-added / -subtracted / added-then-subtracted DFS), ECS (even
coherent), Binomial, Kerr, plus the hole-burnt variants VFECS/VFBS/VFKS
(vacuum filtered) and PAECS/PABS/PAKS (single photon added).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_POLICY,
    LOG_FACTORIAL,
    StableSum,
    StateVector,
    TruncationPolicy,
    log_factorial,
    lower_amplitudes,
    make_fock,
    raise_amplitudes,
    state_from_amplitudes,
)
from .exceptions import AnnihilatedStateError, ConvergenceError, InvalidParameterError

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
        object.__setattr__(self, "family", canonical_family(self.family))
        object.__setattr__(self, "alpha", complex(self.alpha))
        for attr in ("n", "added", "subtracted", "M"):
            value = getattr(self, attr)
            try:
                count = operator.index(value)  # Python and numpy integers, not 1.5
            except TypeError:
                raise InvalidParameterError(f"{attr} must be an integer, got {value!r}") from None
            if count < 0:
                raise InvalidParameterError(f"{attr} must be >= 0")
            object.__setattr__(self, attr, count)
        for attr, value in (("alpha", self.alpha), ("p", self.p), ("chi", self.chi)):
            if not cmath.isfinite(value):
                raise InvalidParameterError(f"{attr} must be finite, got {value}")
        if "p" in self.info.fields and not 0.0 <= self.p <= 1.0:
            raise InvalidParameterError(f"binomial probability p={self.p} not in [0, 1]")

    @property
    def info(self) -> Family:
        return FAMILY_INFO[self.family]

    def param(self, field: str):
        """The value of ``field`` if this family reads it, else 0."""
        return getattr(self, field) if field in self.info.fields else 0

    @property
    def alpha_mag(self) -> float:
        return abs(self.alpha)

    @property
    def alpha_phase(self) -> float:
        # alpha = 0 is an exact origin; its phase is meaningless and ignored.
        return cmath.phase(self.alpha) if self.alpha != 0 else 0.0


def _log_pow(mag: float, exponent) -> np.ndarray:
    """exponent * log(mag), with mag = 0 handled so 0^0 = 1 and 0^e = 0."""
    log_mag = math.log(mag) if mag > 0.0 else _LOG_ZERO
    return np.asarray(exponent, dtype=np.float64) * log_mag


def _dfs_family_bare(alpha: complex, n: int, added: int, subtracted: int, dim: int) -> np.ndarray:
    """Raw coefficients of a^q a†^k D(alpha)|n>  (k = added, q = subtracted).

    The series' exp(-|alpha|^2/2)/sqrt(n!) damping is folded in,
    so the squared norm of the returned vector is the physical
    pre-normalization weight of the engineered state. Assembled per term in
    log-magnitude + phase form; factorial ratios never overflow.
    """
    mag = abs(alpha)
    theta = cmath.phase(alpha) if alpha != 0 else 0.0
    lam = mag * mag
    j = np.arange(dim)[:, None]
    p = np.arange(n + 1)[None, :]
    m = j + subtracted - added - p
    valid = m >= 0
    m_safe = np.where(valid, m, 0)
    log_binom = log_factorial(n) - LOG_FACTORIAL[p] - LOG_FACTORIAL[n - p]
    logmag = (
        log_binom
        + _log_pow(mag, n - p)
        + _log_pow(mag, m_safe)
        + LOG_FACTORIAL[j + subtracted]
        - LOG_FACTORIAL[m_safe]
        - 0.5 * LOG_FACTORIAL[j]
        - 0.5 * lam
        - 0.5 * log_factorial(n)
    )
    logmag = np.where(valid, logmag, -np.inf)
    # (-alpha*)^(n-p) alpha^m = (-1)^(n-p) |alpha|^(n-p+m) e^{i theta (m-(n-p))}
    sign = np.where((n - p) % 2 == 0, 1.0, -1.0)
    phase = sign * np.exp(1j * theta * (m_safe - (n - p)))
    peak = np.max(logmag, axis=1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(under="ignore"):
        coeffs = np.exp(peak[:, 0]) * np.sum(np.exp(logmag - peak) * phase, axis=1)
    return coeffs


def _ladder_bare(alpha: complex, dim: int, kerr_chi: float | None, added: bool) -> np.ndarray:
    """Shared coefficient ladder of the ECS and Kerr families.

    The base series is alpha^j/sqrt(j!) dressed with either the even-parity
    factor (1+(-1)^j) (ECS group, kerr_chi None) or the Kerr phase
    exp(-i chi j (j-1)). ``added`` shifts the ladder up one slot with the
    sqrt(j+1) photon-addition weight. No Gaussian damping is applied here;
    each caller follows its family's series convention.
    """
    mag = abs(alpha)
    theta = cmath.phase(alpha) if alpha != 0 else 0.0
    j = np.arange(dim, dtype=np.int64)
    logmag = _log_pow(mag, j) - 0.5 * LOG_FACTORIAL[j]
    phase = np.exp(1j * theta * j)
    if kerr_chi is None:
        phase = phase * np.where(j % 2 == 0, 2.0, 0.0)
    else:
        phase = phase * np.exp(-1j * kerr_chi * j * (j - 1))
    with np.errstate(under="ignore"):
        base = np.exp(logmag) * phase
    if not added:
        return base
    out = np.zeros(dim, dtype=np.complex128)
    out[1:] = base[:-1] * np.sqrt(j[1:].astype(np.float64))
    return out


def _binomial_bare(p: float, M: int, dim: int, added: bool) -> np.ndarray:
    out = np.zeros(dim, dtype=np.complex128)
    shift = 1 if added else 0
    for j in range(min(M + 1, dim - shift)):
        log_c = (
            log_factorial(M)
            - log_factorial(j)
            - log_factorial(M - j)
            + float(_log_pow(p, j))
            + float(_log_pow(1.0 - p, M - j))
        )
        amp = math.exp(0.5 * log_c)
        if added:
            amp *= math.sqrt(j + 1)
        out[j + shift] = amp
    return out


def bare_coefficients(spec: StateSpec, dim: int) -> np.ndarray:
    """Pre-normalization coefficient vector in each family's analytic series convention.

    The vector's norm is exactly what the family's closed-form normalization
    constant must invert; ``normalization_constant`` and
    ``normalization_constant_closed_form`` compare these two quantities.
    """
    info = spec.info
    if info.group == "fock":
        out = np.zeros(dim, dtype=np.complex128)
        if spec.n < dim:
            out[spec.n] = 1.0
        return out
    if info.group == "dfs":
        return _dfs_family_bare(
            spec.alpha, spec.param("n"), spec.param("added"), spec.param("subtracted"), dim
        )
    added = info.hole == "added"
    if info.group == "binomial":
        out = _binomial_bare(spec.p, spec.M, dim, added)
    else:
        out = _ladder_bare(spec.alpha, dim, spec.chi if info.group == "kerr" else None, added)
        if info.group == "kerr" and info.hole is None:
            out *= math.exp(-0.5 * spec.alpha_mag**2)
    if info.hole == "filtered":
        out[0] = 0.0
    return out


def _finite_support(spec: StateSpec) -> bool:
    return spec.info.group in ("fock", "binomial")


def _initial_dim(spec: StateSpec, policy: TruncationPolicy) -> int:
    info = spec.info
    if info.group == "fock":
        return min(spec.n + 1, policy.max_dim)
    if info.group == "binomial":
        return min(spec.M + (2 if info.hole == "added" else 1), policy.max_dim)
    n, added = spec.param("n"), spec.param("added")
    mean = spec.alpha_mag**2 + n + added + 1.0
    guess = int(mean + 14.0 * math.sqrt(mean) + 32) + added + n
    return min(max(guess, 24), policy.max_dim)


def _trim(raw: np.ndarray, policy: TruncationPolicy) -> tuple[np.ndarray, float]:
    """Cut the trailing tail, keeping the discarded mass within tolerance.

    When the series is pinned against max_dim with significant edge
    occupation, the uncaptured mass is estimated by geometric
    extrapolation of the trailing probabilities so downstream moment
    guards can refuse the state.
    """
    p = np.abs(raw) ** 2
    total = float(p.sum())
    if total <= 0.0:
        raise AnnihilatedStateError("state has zero norm")
    suffix = np.cumsum(p[::-1])[::-1] / total
    keep = len(raw)
    while keep > 1 and suffix[keep - 1] <= policy.tail_tolerance:
        keep -= 1
    tail = float(suffix[keep]) if keep < len(raw) else 0.0
    if keep == policy.max_dim and tail <= policy.tail_tolerance:
        edge = p[keep - 1] / total
        if edge > policy.tail_tolerance:
            ratio = p[keep - 1] / p[keep - 2] if keep >= 2 and p[keep - 2] > 0 else 1.0
            tail = edge * ratio / (1.0 - ratio) if ratio < 1.0 else 0.5
            tail = min(max(tail, edge), 0.99)
    return raw[:keep], tail


def build_state(spec: StateSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> StateVector:
    """Normalized state vector of ``spec`` from its closed-form coefficients.

    The basis size is chosen adaptively so the discarded tail mass stays
    within ``policy.tail_tolerance``, capped at ``policy.max_dim``. Raises
    AnnihilatedStateError when subtraction kills the state (e.g. PSDFS with
    v >= 1 from the vacuum).
    """
    dim = _initial_dim(spec, policy)
    while True:
        raw = bare_coefficients(spec, dim)
        nrm = float(np.linalg.norm(raw))
        if nrm < 1e-12:
            raise AnnihilatedStateError(f"{spec.family} state vanishes for these parameters")
        edge = abs(raw[-1]) ** 2 / (nrm * nrm)
        if dim >= policy.max_dim or _finite_support(spec) or edge <= policy.tail_tolerance * 1e-4:
            break
        dim = min(dim * 2, policy.max_dim)
    trimmed, tail = _trim(raw, policy)
    return state_from_amplitudes(trimmed, tail_mass=tail)


def displacement_coefficients(alpha: complex, n: int, dim: int) -> np.ndarray:
    """Exact Fock coefficients of D(alpha)|n>; no renormalization applied."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    return _dfs_family_bare(alpha, n, 0, 0, dim)


def _compose_dfs(alpha: complex, n: int, dim: int) -> np.ndarray:
    """D(alpha)|n> built operationally as (a† - alpha*)^n applied to |alpha>.

    Uses the conjugation identity D(alpha) a† D†(alpha) = a† - alpha*, so
    the only closed form consumed is the coherent-state expansion itself.
    """
    amps = _dfs_family_bare(alpha, 0, 0, 0, dim)
    conj = np.conjugate(alpha)
    for _ in range(n):
        amps = raise_amplitudes(amps)[: len(amps)] - conj * amps
    return amps / math.sqrt(math.factorial(n)) if n else amps


def build_by_composition(spec: StateSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> StateVector:
    """Same state as ``build_state`` but assembled from operator primitives.

    Photon addition/subtraction is literal repeated ladder application;
    vacuum filtration literally zeroes c_0 and renormalizes.
    """
    info = spec.info
    if info.group == "fock":
        return make_fock(spec.n, spec.n + 1)

    added, subtracted = spec.param("added"), spec.param("subtracted")
    dim = min(_initial_dim(spec, policy) + added + subtracted + 8, policy.max_dim)
    if info.group == "dfs":
        raw = _compose_dfs(spec.alpha, spec.param("n"), dim)
        raw = lower_amplitudes(raise_amplitudes(raw, added), subtracted)
        if len(raw) == 0 or float(np.linalg.norm(raw)) < 1e-12:
            raise AnnihilatedStateError(f"{spec.family} state vanishes for these parameters")
    else:
        if info.group == "ecs":
            raw = _dfs_family_bare(spec.alpha, 0, 0, 0, dim) + _dfs_family_bare(-spec.alpha, 0, 0, 0, dim)
        elif info.group == "binomial":
            raw = _binomial_bare(spec.p, spec.M, dim, added=False)
        else:
            raw = _dfs_family_bare(spec.alpha, 0, 0, 0, dim)
            j = np.arange(len(raw))
            raw = raw * np.exp(-1j * spec.chi * j * (j - 1))
        raw = _hole_burn(raw, info.hole)

    raw = raw[: policy.max_dim]  # photon addition may have grown past the cap
    trimmed, tail = _trim(raw, policy)
    return state_from_amplitudes(trimmed, tail_mass=tail)


def _hole_burn(raw: np.ndarray, hole: str | None) -> np.ndarray:
    """The family's hole-burning step: vacuum filtration or photon addition."""
    if hole == "filtered":
        out = raw.copy()
        out[0] = 0.0
        if float(np.linalg.norm(out)) < 1e-12:
            raise AnnihilatedStateError("vacuum filtration removed the entire state")
        return out
    if hole == "added":
        return raise_amplitudes(raw)[: len(raw)]
    return raw


def normalization_constant(spec: StateSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Numeric normalization constant: 1 / norm of the family's bare coefficient series."""
    dim = min(_initial_dim(spec, policy) * 2, policy.max_dim)
    nrm = float(np.linalg.norm(bare_coefficients(spec, dim)))
    if nrm < 1e-150:
        raise AnnihilatedStateError("bare series has zero norm")
    return 1.0 / nrm


def _norm_series_dfs(spec: StateSpec, subtracted: bool, max_terms: int = 4096) -> float:
    """Closed-form squared-norm series of the photon-added/subtracted DFS.

    Triple series over (p, p', m); each m-sum ends on the StableSum stopping rule.
    """
    mag = spec.alpha_mag
    lam = mag * mag
    n, u, v = spec.n, spec.added, spec.subtracted
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
                + float(_log_pow(mag, 2 * n - p - pp))
                - lam
            )
            acc = StableSum()
            for m in range(max_terms):
                if m + p - pp < 0 or (subtracted and m + p - v < 0):
                    continue
                log_t = float(_log_pow(mag, 2 * m + p - pp)) - log_factorial(m) - log_factorial(m + p - pp)
                if subtracted:
                    log_t += 2.0 * log_factorial(m + p) - log_factorial(m + p - v)
                else:
                    log_t += log_factorial(m + p + u)
                if acc.add(math.exp(log_pref + log_t)):
                    break
            total += sign * acc.total.real
    return total


def normalization_constant_closed_form(spec: StateSpec) -> float | None:
    """The analytic normalization constant of the bare coefficient series.

    Returns None where the thesis prints none that survives scrutiny
    (PASDFS, whose normalization
    is always derived numerically) or where filtration leaves nothing to
    normalize (alpha = 0 vacuum-filtered states). Raises ConvergenceError
    where cosh or exp of |alpha|^2 overflows a float.
    """
    fam = spec.family
    lam = spec.alpha_mag**2
    if fam in ("Fock", "Coherent", "DFS", "Binomial", "Kerr"):
        return 1.0  # bare series is normalized as written
    if fam == "PASDFS":
        return None
    if fam == "PADFS":
        return _norm_series_dfs(spec, subtracted=False) ** -0.5
    if fam == "PSDFS":
        s = _norm_series_dfs(spec, subtracted=True)
        return s**-0.5 if s > 0 else None
    if fam == "VFBS":
        denom = 1.0 - (1.0 - spec.p) ** spec.M
        return denom**-0.5 if denom > 0 else None
    if fam == "PABS":
        return (1.0 + spec.M * spec.p) ** -0.5
    if fam in ("VFECS", "VFKS") and lam == 0:
        return None
    try:
        if fam == "ECS":
            constant = 1.0 / math.sqrt(4.0 * math.cosh(lam))
        elif fam == "VFECS":
            constant = 1.0 / math.sqrt(4.0 * (math.cosh(lam) - 1.0))
        elif fam == "PAECS":
            constant = 0.5 / math.sqrt(math.cosh(lam) + lam * math.sinh(lam))
        elif fam == "VFKS":
            constant = (math.exp(lam) - 1.0) ** -0.5
        elif fam == "PAKS":
            constant = (math.exp(lam) * (1.0 + lam)) ** -0.5
        else:
            raise InvalidParameterError(f"unknown family {fam!r}")
    except OverflowError:
        constant = 0.0
    if constant == 0.0:  # an inf denominator (products overflow to inf, not an exception)
        raise ConvergenceError(f"{fam} normalization overflows a float at |alpha|^2 = {lam:g}")
    return constant


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
