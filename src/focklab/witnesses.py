"""Moment-based nonclassicality witnesses.

Each witness reports a signed value together with its classical boundary;
strictly crossing the boundary flags nonclassicality. All expectations are
taken by the ladder-operator oracle, so any state vector can be fed in
regardless of how it was constructed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import StateVector, lower_amplitudes, raise_amplitudes
from .exceptions import (
    DegenerateDenominatorError,
    DimensionError,
    FockLabError,
    InvalidOrderError,
    UndefinedWitnessError,
)
from .moments import MAX_TOTAL_ORDER, moment_oracle

_MEAN_FLOOR = 1e-12


@dataclass(frozen=True)
class WitnessReport:
    """A named witness value with its classical boundary.

    ``nonclassical`` is a strict comparison against ``bound``; callers that
    want a numerical margin should apply it to ``value`` themselves.
    """

    witness: str
    value: float
    bound: float = 0.0
    order: int | None = None

    @property
    def nonclassical(self) -> bool:
        return self.value < self.bound


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind via the standard recurrence."""
    if n == k:
        return 1
    if k <= 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def double_factorial(n: int) -> int:
    """n!! with the empty-product conventions (-1)!! = 0!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def mandel_q(s: StateVector) -> WitnessReport:
    """Mandel Q: (<N^2> - <N>^2 - <N>) / <N>; negative means sub-Poissonian."""
    n1 = moment_oracle(s, 1, 1).real
    if n1 < _MEAN_FLOOR:
        raise UndefinedWitnessError("Mandel Q is undefined for (near-)vacuum input")
    n2 = moment_oracle(s, 2, 2).real  # <N^2> - <N> in normal order
    return WitnessReport("mandel_q", (n2 - n1 * n1) / n1)


def antibunching_d(s: StateVector, l: int) -> WitnessReport:
    """(l-1)th order antibunching witness d(l-1) = <a†^l a^l> - <N>^l."""
    if l < 2:
        raise InvalidOrderError("antibunching requires l >= 2")
    n1 = moment_oracle(s, 1, 1).real
    value = moment_oracle(s, l, l).real - n1**l
    return WitnessReport("antibunching", value, order=l - 1)


def hosps(s: StateVector, l: int) -> WitnessReport:
    """Higher-order sub-Poissonian statistics witness of order l-1.

    A Stirling-number-weighted combination of the antibunching witnesses
    d(0)..d(l-1); negative values flag sub-Poissonian statistics of that
    order.
    """
    if l < 2:
        raise InvalidOrderError("HOSPS requires l >= 2")
    n1 = moment_oracle(s, 1, 1).real
    # d(x) is the antibunching witness of order x: <a†^(x+1) a^(x+1)> - <N>^(x+1),
    # so d(0) vanishes identically.
    d = {x: moment_oracle(s, x + 1, x + 1).real - n1 ** (x + 1) for x in range(l)}
    total = 0.0
    for e in range(l + 1):
        for f in range(1, e + 1):
            total += (
                stirling2(e, f)
                * math.comb(l, e)
                * (-1.0) ** e
                * d[f - 1]
                * n1 ** (l - e)
            )
    return WitnessReport("hosps", total, order=l - 1)


def _apply_quadrature(amps: np.ndarray) -> np.ndarray:
    """One application of X = (a + a†)/sqrt(2); output grows by one slot."""
    out = raise_amplitudes(amps)
    low = lower_amplitudes(amps)
    out[: len(low)] += low
    return out / math.sqrt(2.0)


def quadrature_central_moment(s: StateVector, l: int, method: str = "normal-ordered") -> float:
    """<(X - <X>)^l> for X = (a + a†)/sqrt(2), by either of two routes.

    "normal-ordered" evaluates the analytic triple sum over normally
    ordered moments; "binomial" expands (X - <X>)^l over raw quadrature
    moments obtained by repeated operator application. The two must agree;
    the verification suite enforces 1e-8. Both refuse an order l that is not an integer >= 1.
    """
    if not isinstance(l, numbers.Integral) or l < 1:
        raise InvalidOrderError(f"quadrature central moments need an integer order l >= 1, got {l!r}")
    if method == "binomial":
        vec = np.asarray(s.amplitudes)
        raw = [1.0]
        for _ in range(l):
            vec = _apply_quadrature(vec)
            d = min(s.dim, len(vec))
            raw.append(float(np.real(np.vdot(s.amplitudes[:d], vec[:d]))))
        mean_x = raw[1]
        total = 0.0
        for q in range(l + 1):  # left to right: builtin sum() of floats is compensated from Python 3.12
            total += math.comb(l, q) * raw[q] * (-mean_x) ** (l - q)
        return total
    if method != "normal-ordered":
        raise ValueError(f"unknown method {method!r}")

    mean_aa = 2.0 * moment_oracle(s, 1, 0).real  # <a† + a>
    total = 0.0
    for coef, power, t, j in _central_moment_terms(l):
        total += (coef * mean_aa**power * moment_oracle(s, t, j)).real
    return total / 2.0 ** (l / 2.0)


@lru_cache(maxsize=None)
def _central_moment_terms(l: int) -> tuple[tuple[float, int, int, int], ...]:
    """The terms (coef, l - r, k, r - 2i - k) of the normal-ordered sum for <(X - <X>)^l>.

    Over r <= l, i <= r/2 and k <= r - 2i, in that order, with coef formed
    left to right as (-1)^r (2i-1)!! C(l, r) C(r, 2i) C(r-2i, k); a term is
    coef <a† + a>^(l-r) <a†^k a^(r-2i-k)>. The table stops at
    r = MAX_TOTAL_ORDER + 1, whose first term the oracle refuses, so a sum
    of higher order fails at the same term as the whole triple loop would.
    """
    return tuple(
        (
            (-1.0) ** r
            * double_factorial(2 * i - 1)
            * math.comb(l, r)
            * math.comb(r, 2 * i)
            * math.comb(r - 2 * i, k),
            l - r,
            k,
            r - 2 * i - k,
        )
        for r in range(min(l, MAX_TOTAL_ORDER + 1) + 1)
        for i in range(r // 2 + 1)
        for k in range(r - 2 * i + 1)
    )


def hong_mandel_squeezing(s: StateVector, l: int) -> WitnessReport:
    """Hong-Mandel squeezing of even order l.

    Negative values mean the lth central quadrature moment dips below the
    coherent-state value (1/2)_{l/2} = (l-1)!!/2^{l/2}.
    """
    if l < 2 or l % 2:
        raise InvalidOrderError("Hong-Mandel squeezing is defined for even l >= 2")
    boundary = double_factorial(l - 1) / 2.0 ** (l / 2.0)
    central = quadrature_central_moment(s, l, method="normal-ordered")
    return WitnessReport("hong_mandel", (central - boundary) / boundary, order=l)


def klyshko_b(s: StateVector, m: int) -> WitnessReport:
    """Klyshko witness from three consecutive photon-number probabilities."""
    if m < 0 or m + 2 >= s.dim:
        raise DimensionError(f"Klyshko needs p_{m}..p_{m + 2} inside dim={s.dim}")
    p = s.probabilities()
    value = (m + 2) * p[m] * p[m + 2] - (m + 1) * p[m + 1] ** 2
    return WitnessReport("klyshko", float(value), order=m)


def vogel_det(s: StateVector) -> WitnessReport:
    """Determinant of the 3x3 Vogel matrix of first and second moments."""
    a = moment_oracle(s, 0, 1)
    ad = np.conjugate(a)
    n1 = moment_oracle(s, 1, 1)
    a2 = moment_oracle(s, 0, 2)
    ad2 = np.conjugate(a2)
    matrix = np.array([[1.0, a, ad], [ad, n1, ad2], [a, a2, n1]], dtype=np.complex128)
    det = complex(np.linalg.det(matrix))
    if abs(det.imag) > 1e-10:
        raise FockLabError(f"Vogel determinant has imaginary residue {det.imag:.2e}")
    return WitnessReport("vogel", det.real)


def agarwal_tara_a3(s: StateVector) -> WitnessReport:
    """Agarwal-Tara A3 from the Hankel matrices of factorial and number moments."""
    m = [1.0] + [moment_oracle(s, i, i).real for i in range(1, 5)]
    mu = [1.0]
    for j in range(1, 5):
        total = 0.0
        for k in range(1, j + 1):  # left to right: builtin sum() of floats is compensated from Python 3.12
            total += stirling2(j, k) * m[k]
        mu.append(total)
    hankel = lambda v: np.array(
        [[v[0], v[1], v[2]], [v[1], v[2], v[3]], [v[2], v[3], v[4]]]
    )
    det_m = float(np.linalg.det(hankel(m)))
    det_mu = float(np.linalg.det(hankel(mu)))
    denominator = det_mu - det_m
    scale = max(1.0, abs(det_mu), abs(det_m))
    if abs(denominator) <= 1e-14 * scale:
        if abs(det_m) <= 1e-14 * scale:
            return WitnessReport("agarwal_tara", 0.0)  # both determinants vanish
        raise DegenerateDenominatorError("A3 denominator vanishes with det m(3) != 0")
    return WitnessReport("agarwal_tara", det_m / denominator)
