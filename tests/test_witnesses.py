import math
from fractions import Fraction

import numpy as np
import pytest

from focklab import witnesses
from focklab.core import TruncationPolicy, make_fock, state_from_amplitudes
from focklab.exceptions import (
    DimensionError,
    InvalidOrderError,
    InvalidParameterError,
    UndefinedWitnessError,
)
from focklab.moments import moment_oracle
from focklab.states import StateSpec, build_state
from focklab.witnesses import (
    agarwal_tara_a3,
    antibunching_d,
    double_factorial,
    hong_mandel_squeezing,
    hosps,
    klyshko_b,
    mandel_q,
    quadrature_central_moment,
    stirling2,
    vogel_det,
)

POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-16)


def coherent(mag, phase=0.0):
    return build_state(StateSpec("Coherent", alpha=mag * np.exp(1j * phase)), POLICY)


def test_stirling_numbers():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 5) == 0


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48


# --- Mandel Q -------------------------------------------------------------------

def test_mandel_q_point_values():
    assert mandel_q(coherent(2.0)).value == pytest.approx(0.0, abs=1e-10)
    assert mandel_q(make_fock(1, 8)).value == pytest.approx(-1.0, abs=1e-12)
    assert mandel_q(make_fock(5, 16)).value == pytest.approx(-1.0, abs=1e-12)


def test_mandel_q_vacuum_undefined():
    with pytest.raises(UndefinedWitnessError):
        mandel_q(make_fock(0, 4))


def test_nonclassical_flag_is_strict_sign_test():
    # The flag applies no epsilon: it is exactly value < bound.
    report = mandel_q(make_fock(1, 8))
    assert report.nonclassical and report.value < report.bound
    for s in (coherent(1.0), make_fock(3, 10)):
        report = mandel_q(s)
        assert report.nonclassical == (report.value < report.bound)


# --- antibunching ----------------------------------------------------------------

def test_antibunching_point_values():
    assert antibunching_d(coherent(1.3), 3).value == pytest.approx(0.0, abs=1e-10)
    assert antibunching_d(make_fock(1, 8), 2).value == pytest.approx(-1.0)
    psdfs = build_state(StateSpec("PSDFS", alpha=1.0, n=0, subtracted=1), POLICY)
    assert antibunching_d(psdfs, 2).value == pytest.approx(0.0, abs=1e-10)


def test_antibunching_mandel_identity(rng):
    for _ in range(10):
        raw = rng.normal(size=20) + 1j * rng.normal(size=20)
        raw[0] = 2.0  # keep <N> away from zero but state non-trivial
        raw[-4:] = 0.0
        s = state_from_amplitudes(raw)
        n1 = moment_oracle(s, 1, 1).real
        assert antibunching_d(s, 2).value / n1 == pytest.approx(mandel_q(s).value, abs=1e-10)


def test_padfs_antibunching_deepens_with_addition():
    values = [
        antibunching_d(build_state(StateSpec("PADFS", alpha=0.4, n=1, added=u), POLICY), 2).value
        for u in (1, 2, 3)
    ]
    assert values[0] > values[1] > values[2]


def test_antibunching_order_validation():
    with pytest.raises(InvalidOrderError):
        antibunching_d(make_fock(1, 4), 1)


# --- HOSPS ------------------------------------------------------------------------

def test_hosps_coherent_vanishes():
    assert hosps(coherent(1.0), 3).value == pytest.approx(0.0, abs=1e-10)


def test_hosps_fock2_order_one():
    assert hosps(make_fock(2, 8), 2).value == pytest.approx(-2.0, abs=1e-12)


def test_hosps_matches_direct_double_sum():
    s = build_state(StateSpec("ECS", alpha=1.0), POLICY)
    l = 4
    n1 = moment_oracle(s, 1, 1).real
    total = 0.0
    for e in range(l + 1):
        for f in range(1, e + 1):
            d = moment_oracle(s, f, f).real - n1**f
            total += stirling2(e, f) * math.comb(l, e) * (-1.0) ** e * d * n1 ** (l - e)
    assert hosps(s, l).value == pytest.approx(total, rel=1e-12)


def test_pasdfs_hosps_sign_pattern():
    # Negative at odd witness order (l = 4), non-negative at even order (l = 3).
    for added, subtracted, alpha in ((1, 1, 0.5), (2, 1, 0.5), (1, 2, 0.5), (2, 2, 0.8)):
        s = build_state(
            StateSpec("PASDFS", alpha=alpha, n=1, added=added, subtracted=subtracted), POLICY
        )
        assert hosps(s, 4).value < 0.0
        assert hosps(s, 3).value >= 0.0


# --- Hong-Mandel squeezing ---------------------------------------------------------

def test_hong_mandel_coherent_saturates_boundary():
    assert hong_mandel_squeezing(coherent(1.3), 4).value == pytest.approx(0.0, abs=1e-10)
    assert quadrature_central_moment(coherent(0.9), 2) == pytest.approx(0.5, abs=1e-12)


def test_hong_mandel_fock1():
    # <(dX)^2> = 3/2 for |1>, so S(2) = (3/2 - 1/2)/(1/2) = 2.
    assert hong_mandel_squeezing(make_fock(1, 12), 2).value == pytest.approx(2.0, abs=1e-12)


def test_hong_mandel_rejects_odd_order():
    with pytest.raises(InvalidOrderError):
        hong_mandel_squeezing(make_fock(1, 8), 3)


def test_hong_mandel_dual_paths_agree(rng):
    for _ in range(30):
        dim = int(rng.integers(8, 28))
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        s = state_from_amplitudes(raw)
        for l in (2, 4, 6):
            a = quadrature_central_moment(s, l, "normal-ordered")
            b = quadrature_central_moment(s, l, "binomial")
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


def _central_moment_by_triple_loop(s, l):
    # The normal-ordered sum as written before its coefficient table: the reference.
    mean_aa = 2.0 * moment_oracle(s, 1, 0).real
    total = 0.0
    for r in range(l + 1):
        for i in range(r // 2 + 1):
            for k in range(r - 2 * i + 1):
                term = (
                    (-1.0) ** r
                    * double_factorial(2 * i - 1)
                    * math.comb(l, r)
                    * math.comb(r, 2 * i)
                    * math.comb(r - 2 * i, k)
                    * mean_aa ** (l - r)
                    * moment_oracle(s, k, r - 2 * i - k)
                )
                total += term.real
    return total / 2.0 ** (l / 2.0)


@pytest.mark.parametrize("l", range(1, 17))
def test_central_moment_table_is_the_triple_loop_bitwise(l, rng):
    raw = rng.normal(size=30) + 1j * rng.normal(size=30)
    states = [
        state_from_amplitudes(raw),
        make_fock(4, 12),
        build_state(StateSpec("PABS", p=0.35, M=12), POLICY),
        # a tail tight enough for the guard to pass every order up to 16
        build_state(StateSpec("PSDFS", alpha=0.6 + 0.3j, n=1, subtracted=1), TruncationPolicy(tail_tolerance=1e-30)),
    ]
    for s in states:
        got = np.float64(quadrature_central_moment(s, l, "normal-ordered"))
        want = np.float64(_central_moment_by_triple_loop(s, l))
        assert got.tobytes() == want.tobytes(), (s.dim, l, got, want)


def _left_to_right(terms):
    """Plain float addition in order; builtin sum() of floats is compensated from Python 3.12."""
    total = 0.0
    for term in terms:
        total += term
    return total


@pytest.mark.parametrize("l", [1, 2, 4, 6, 9])
def test_binomial_central_moment_adds_left_to_right_bitwise(l, rng):
    raw_amps = rng.normal(size=24) + 1j * rng.normal(size=24)
    for s in (state_from_amplitudes(raw_amps), build_state(StateSpec("PAKS", alpha=1.3, chi=0.4), POLICY)):
        vec, raw = np.asarray(s.amplitudes), [1.0]
        for _ in range(l):
            vec = witnesses._apply_quadrature(vec)
            d = min(s.dim, len(vec))
            raw.append(float(np.real(np.vdot(s.amplitudes[:d], vec[:d]))))
        want = _left_to_right(math.comb(l, q) * raw[q] * (-raw[1]) ** (l - q) for q in range(l + 1))
        got = quadrature_central_moment(s, l, "binomial")
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (l, got, want)


def test_central_moment_past_the_order_cap_fails_at_the_same_term():
    with pytest.raises(InvalidParameterError, match="order 17 exceeds"):
        quadrature_central_moment(make_fock(2, 6), 20, "normal-ordered")


@pytest.mark.parametrize("method", ["normal-ordered", "binomial"])
@pytest.mark.parametrize("l", [0, -2, 2.5])
def test_central_moment_refuses_an_order_below_one_or_not_integer(l, method, monkeypatch):
    def no_moment(*args):
        raise AssertionError("a moment was read")

    monkeypatch.setattr(witnesses, "moment_oracle", no_moment)
    monkeypatch.setattr(witnesses, "_apply_quadrature", no_moment)
    with pytest.raises(InvalidOrderError):
        quadrature_central_moment(make_fock(2, 6), l, method)


def test_psdfs_shows_squeezing():
    s = build_state(StateSpec("PSDFS", alpha=1.0, n=1, subtracted=1), POLICY)
    assert hong_mandel_squeezing(s, 2).value < 0.0


# --- Klyshko -----------------------------------------------------------------------

def test_klyshko_coherent_zero():
    s = coherent(1.0)
    for m in range(6):
        assert klyshko_b(s, m).value == pytest.approx(0.0, abs=1e-12)


def test_klyshko_fock1():
    assert klyshko_b(make_fock(1, 8), 0).value == pytest.approx(-1.0)


def test_klyshko_vfecs_even_support():
    s = build_state(StateSpec("VFECS", alpha=1.0), POLICY)
    p = s.probabilities()
    assert klyshko_b(s, 0).value == pytest.approx(0.0, abs=1e-15)  # p1 = 0
    assert klyshko_b(s, 1).value == pytest.approx(-2.0 * p[2] ** 2, rel=1e-12)
    assert klyshko_b(s, 1).value < 0.0


def test_klyshko_range_check():
    with pytest.raises(DimensionError):
        klyshko_b(make_fock(0, 3), 1)


# --- Vogel -------------------------------------------------------------------------

def test_vogel_coherent_rank_one():
    assert vogel_det(coherent(0.7, 0.28)).value == pytest.approx(0.0, abs=1e-10)


def test_vogel_fock1_identity_matrix():
    assert vogel_det(make_fock(1, 8)).value == pytest.approx(1.0)


def test_vogel_ecs_cross_paths():
    from focklab.moments import moment_series

    spec = StateSpec("ECS", alpha=1.0)
    s = build_state(spec, POLICY)
    direct = vogel_det(s).value
    a = moment_series(spec, 0, 1)
    n1 = moment_series(spec, 1, 1)
    a2 = moment_series(spec, 0, 2)
    matrix = np.array(
        [[1.0, a, np.conjugate(a)], [np.conjugate(a), n1, np.conjugate(a2)], [a, a2, n1]]
    )
    assert direct == pytest.approx(float(np.linalg.det(matrix).real), abs=1e-8)


# --- Agarwal-Tara --------------------------------------------------------------------

def test_a3_fock_values():
    assert agarwal_tara_a3(make_fock(0, 8)).value == pytest.approx(0.0)
    assert agarwal_tara_a3(make_fock(1, 8)).value == pytest.approx(0.0)
    for n in (2, 3, 4):
        assert agarwal_tara_a3(make_fock(n, 12)).value == pytest.approx(-1.0, abs=1e-9)


def test_a3_coherent_zero():
    assert agarwal_tara_a3(coherent(1.0)).value == pytest.approx(0.0, abs=1e-10)


def test_a3_floor(rng):
    for _ in range(20):
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        s = state_from_amplitudes(raw)
        assert agarwal_tara_a3(s).value >= -1.0 - 1e-9


def test_a3_sums_the_number_moments_left_to_right_bitwise(rng):
    states = [
        state_from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16)),
        build_state(StateSpec("PAECS", alpha=0.6), POLICY),
        build_state(StateSpec("PASDFS", alpha=1.7 + 0.4j, n=2, added=1, subtracted=1), POLICY),
        build_state(StateSpec("VFKS", alpha=2.2, chi=0.3), POLICY),
    ]
    for s in states:
        m = [1.0] + [moment_oracle(s, i, i).real for i in range(1, 5)]
        mu = [1.0] + [_left_to_right(stirling2(j, k) * m[k] for k in range(1, j + 1)) for j in range(1, 5)]
        hankel = lambda v: np.array([[v[0], v[1], v[2]], [v[1], v[2], v[3]], [v[2], v[3], v[4]]])
        det_m, det_mu = float(np.linalg.det(hankel(m))), float(np.linalg.det(hankel(mu)))
        want = det_m / (det_mu - det_m)
        got = agarwal_tara_a3(s).value
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (s.dim, got, want)


def _a3_exact(s):
    """A3 from the same p_n in exact rational arithmetic: the Hankel determinants
    of the factorial moments sum_n p_n n!/(n-i)! and the number moments sum_n p_n n^i."""
    p = [Fraction(float(x)) for x in s.probabilities()]
    factorial = [sum(pn * math.perm(n, i) for n, pn in enumerate(p)) for i in range(5)]
    number = [sum(pn * n**i for n, pn in enumerate(p)) for i in range(5)]

    def hankel_det(v):
        return (
            v[0] * (v[2] * v[4] - v[3] * v[3])
            - v[1] * (v[1] * v[4] - v[3] * v[2])
            + v[2] * (v[1] * v[3] - v[2] * v[2])
        )

    det_m, det_mu = hankel_det(factorial), hankel_det(number)
    return float(det_m / (det_mu - det_m))


@pytest.mark.parametrize(
    "mag, expected",
    [(0.1, -1.000142889), (0.2, -1.002296090), (0.4, -1.039413660), (0.6, -1.289728137)],
)
def test_a3_below_minus_one_matches_exact_reference(mag, expected):
    # Photon-added even coherent states near |1> have A3 < -1; nothing bounds it at -1.
    s = build_state(StateSpec("PAECS", alpha=mag))
    exact = _a3_exact(s)
    assert exact == pytest.approx(expected, abs=1e-9)
    assert agarwal_tara_a3(s).value == pytest.approx(exact, rel=1e-9)


# --- classical boundary sweep ---------------------------------------------------------

@pytest.mark.parametrize("mag", [0.3, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("phase", [0.0, math.pi / 4])
def test_witness_boundary_on_coherent(mag, phase):
    s = build_state(
        StateSpec("Coherent", alpha=mag * np.exp(1j * phase)),
        TruncationPolicy(max_dim=512, tail_tolerance=1e-18),
    )
    values = [mandel_q(s).value, vogel_det(s).value, agarwal_tara_a3(s).value]
    values += [antibunching_d(s, l).value for l in (2, 3, 4)]
    values += [hosps(s, l).value for l in (2, 3, 4)]
    values += [hong_mandel_squeezing(s, l).value for l in (2, 4, 6)]
    values += [klyshko_b(s, m).value for m in range(6)]
    assert max(abs(v) for v in values) <= 1e-8
