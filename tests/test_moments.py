import cmath
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab.core import TruncationPolicy, lower_amplitudes, make_fock, state_from_amplitudes
from focklab.exceptions import FockLabError, InvalidParameterError, TruncationUnsafeError
from focklab.moments import MAX_TOTAL_ORDER, moment_oracle, moment_series, moment_sums
from focklab.states import FAMILIES, StateSpec, build_state

from test_states import _POINT, random_spec

POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-16)


def test_coherent_mean_photon():
    s = build_state(StateSpec("Coherent", alpha=1.0), POLICY)
    assert moment_oracle(s, 1, 1).real == pytest.approx(1.0, abs=1e-12)


def test_fock_falling_factorial():
    s = make_fock(3, 8)
    assert moment_oracle(s, 2, 2).real == pytest.approx(6.0)
    assert moment_oracle(s, 1, 1).real == pytest.approx(3.0)
    assert moment_oracle(s, 4, 4).real == pytest.approx(0.0)


def test_padfs_mean_photon_number():
    # <N> of a single-photon-added coherent state: (lam^2 + 3 lam + 1)/(lam + 1),
    # i.e. 2.5 at alpha = 1; both evaluation routes must concur.
    spec = StateSpec("PADFS", alpha=1.0, n=0, added=1)
    s = build_state(spec, POLICY)
    assert moment_oracle(s, 1, 1).real == pytest.approx(2.5, abs=1e-10)
    assert moment_series(spec, 1, 1).real == pytest.approx(2.5, abs=1e-10)


def test_ecs_mean_photon_is_tanh_weighted():
    spec = StateSpec("ECS", alpha=1.0)
    assert moment_series(spec, 1, 1).real == pytest.approx(math.tanh(1.0), abs=1e-10)
    s = build_state(spec, POLICY)
    assert moment_oracle(s, 1, 1).real == pytest.approx(math.tanh(1.0), abs=1e-10)


def test_binomial_all_photons_certain():
    assert moment_series(StateSpec("Binomial", p=1.0, M=3), 1, 1).real == pytest.approx(3.0)


def test_kerr_number_moments_chi_independent():
    for t in range(1, 5):
        base = moment_series(StateSpec("Kerr", alpha=1.0, chi=0.0), t, t)
        twisted = moment_series(StateSpec("Kerr", alpha=1.0, chi=0.3), t, t)
        assert abs(base - twisted) <= 1e-10


def test_hermiticity_both_paths(rng):
    for _ in range(25):
        family = list(np.random.default_rng(rng.integers(1 << 30)).choice(
            ["PADFS", "PSDFS", "PASDFS", "ECS", "VFECS", "PAECS", "Binomial", "VFBS", "PABS", "Kerr", "VFKS", "PAKS"],
            size=1,
        ))[0]
        spec = random_spec(rng, family)
        t, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        series_a = moment_series(spec, t, j, POLICY)
        series_b = moment_series(spec, j, t, POLICY)
        scale = max(1.0, abs(series_a))
        assert abs(series_a - np.conjugate(series_b)) <= 1e-12 * scale
        s = build_state(spec, POLICY)
        oracle_a = moment_oracle(s, t, j)
        oracle_b = moment_oracle(s, j, t)
        assert abs(oracle_a - np.conjugate(oracle_b)) <= 1e-12 * max(1.0, abs(oracle_a))


@pytest.mark.parametrize("family", FAMILIES)
def test_series_matches_oracle(family, rng):
    for _ in range(6):
        spec = random_spec(rng, family)
        s = build_state(spec, POLICY)
        for t, j in ((0, 0), (1, 1), (2, 0), (1, 3), (4, 4)):
            reference = moment_oracle(s, t, j)
            value = moment_series(spec, t, j, POLICY)
            err = abs(value - reference)
            if abs(reference) >= 1.0:
                assert err / abs(reference) <= 1e-8, (spec, t, j)
            else:
                assert err <= 1e-10, (spec, t, j)


@pytest.mark.parametrize("n", [8, 25, 40])
@pytest.mark.parametrize("mag", [3.0, 8.0])
def test_dfs_moments_match_exact_values(n, mag):
    # D†(alpha) a D(alpha) = a + alpha gives, on D(alpha)|n>: <a> = alpha,
    # <a†a> = |alpha|^2 + n and <a†^2 a^2> = |alpha|^4 + 4 |alpha|^2 n + n(n-1).
    alpha = mag * cmath.exp(0.7j)
    lam = mag * mag
    spec = StateSpec("DFS", alpha=alpha, n=n)
    state = build_state(spec, POLICY)
    exact = {(0, 1): alpha, (1, 1): lam + n, (2, 2): lam * lam + 4.0 * lam * n + n * (n - 1)}
    for (t, j), value in exact.items():
        for got in (moment_series(spec, t, j, POLICY), moment_oracle(state, t, j)):
            assert abs(got - value) <= 1e-10 * abs(value), (t, j, got, value)


def test_binomial_series_starts_past_underflowed_terms():
    # With p this close to 1 every low-index term underflows exp; those terms
    # come before the bulk of the sum and must not end it as a quiet run.
    spec = StateSpec("Binomial", p=1.0 - 2.0**-52, M=40)
    s = build_state(spec, POLICY)
    for k in (0, 1, 2):
        reference = moment_oracle(s, k, k)
        assert abs(moment_series(spec, k, k, POLICY) - reference) <= 1e-10 * abs(reference)


@pytest.mark.parametrize("p, M", [(0.001, 5000), (0.3, 4000)])
def test_binomial_series_past_the_log_factorial_table(p, M):
    # The ladder runs to M + 2, past 4096 log-factorials; the table grows to
    # serve it and holds lgamma values, so the terms keep lgamma accuracy.
    policy = TruncationPolicy(max_dim=4096)
    spec = StateSpec("PABS", p=p, M=M)
    reference = moment_oracle(build_state(spec, policy), 1, 1)
    assert abs(moment_series(spec, 1, 1, policy) - reference) <= 1e-11 * abs(reference)


def test_coherent_ladder_past_4096_terms():
    # At |alpha| = 60 the ladder runs to about 4464 terms.
    assert moment_series(StateSpec("Coherent", alpha=60.0), 1, 1) == pytest.approx(3600.0, rel=1e-10)


def test_vf_branch_agreement_at_equal_powers():
    # The two reindexed branch forms (annihilation <= / > creation) coincide at equality.
    for family in ("VFECS", "VFKS", "VFBS"):
        spec = (
            StateSpec(family, alpha=1.3 + 0.4j, chi=0.2)
            if family != "VFBS"
            else StateSpec(family, p=0.4, M=9)
        )
        s = build_state(spec, POLICY)
        for k in (1, 2):
            assert abs(moment_series(spec, k, k, POLICY) - moment_oracle(s, k, k)) <= 1e-10


def test_negative_moment_powers_are_invalid():
    with pytest.raises(InvalidParameterError):
        moment_oracle(make_fock(1, 4), -1, 0)
    with pytest.raises(InvalidParameterError):
        moment_series(StateSpec("Coherent", alpha=1.0), 0, -1)


def test_moment_order_cap():
    with pytest.raises(InvalidParameterError):
        moment_oracle(make_fock(1, 40), 9, 8)
    with pytest.raises(InvalidParameterError):
        moment_series(StateSpec("Coherent", alpha=1.0), 9, 8)


def test_truncation_unsafe_detection():
    # A state built at a loose tail cannot support high-order moments.
    hot = build_state(StateSpec("Coherent", alpha=3.0), TruncationPolicy(tail_tolerance=1e-3))
    assert hot.tail_mass > 1e-6
    with pytest.raises(TruncationUnsafeError):
        moment_oracle(hot, 4, 4)


def _vdot_of_lowered_vectors(s, t, j):
    # The moment as each call used to compute it, from two freshly lowered vectors.
    bra = lower_amplitudes(s.amplitudes, t)
    ket = lower_amplitudes(s.amplitudes, j)
    d = min(len(bra), len(ket))
    return complex(np.vdot(bra[:d], ket[:d])) if d else 0j


def _moment_states(rng):
    raw = rng.normal(size=40) + 1j * rng.normal(size=40)
    return {
        "fock": lambda: make_fock(6, 10),
        "random-40": lambda: state_from_amplitudes(raw),
        "padfs-3": lambda: build_state(StateSpec("PADFS", alpha=3.0 * cmath.exp(0.4j), n=2, added=1), POLICY),
    }


@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
def test_oracle_is_the_vdot_of_lowered_vectors_bitwise(order, rng):
    pairs = [(t, j) for t in range(MAX_TOTAL_ORDER + 1) for j in range(MAX_TOTAL_ORDER + 1 - t)]
    if order == "decreasing":
        pairs.reverse()
    elif order == "shuffled":
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    for name, make in _moment_states(rng).items():
        s = make()  # a fresh state, so the rows are built in this call order
        for t, j in pairs + pairs[::3] + pairs:  # every pair asked again, from the state's memo
            got, want = np.complex128(moment_oracle(s, t, j)), np.complex128(_vdot_of_lowered_vectors(s, t, j))
            assert got.tobytes() == want.tobytes(), (name, t, j, got, want)


def test_cached_rows_do_not_bypass_the_truncation_guard():
    # Every row the order-8 moment reads is already on the state; the guard
    # still runs on every call, and a safe order-2 moment stays safe.
    hot = build_state(StateSpec("Coherent", alpha=3.0), TruncationPolicy(tail_tolerance=1e-3))
    hot.lowered(4)
    messages = []
    for _ in range(3):  # the first read computes the verdict, the others read it back
        with pytest.raises(TruncationUnsafeError) as refused:
            moment_oracle(hot, 4, 4)
        messages.append(str(refused.value))
    assert len(set(messages)) == 1 and "order 8" in messages[0]
    mild = build_state(StateSpec("Coherent", alpha=1.0), TruncationPolicy(tail_tolerance=1e-9))
    assert 0.0 < mild.tail_mass < 1e-8
    assert moment_oracle(mild, 1, 1).real == pytest.approx(1.0, abs=1e-7)
    assert moment_oracle(mild, 2, 0) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(TruncationUnsafeError):
        moment_oracle(mild, 4, 4)


def test_invalid_powers_are_refused_on_a_warm_memo():
    s = make_fock(3, 40)
    for t in range(MAX_TOTAL_ORDER + 1):
        for j in range(MAX_TOTAL_ORDER + 1 - t):
            moment_oracle(s, t, j)
    # (1.0, 1) equals the memo's key (1, 1), but a float power is refused as on a fresh state
    for t, j in ((-1, 0), (0, -1), (-2, 3), (9, 8), (0, MAX_TOTAL_ORDER + 1), (17, 0), (1.0, 1), (1, 0.5)):
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                moment_oracle(s, t, j)
    with pytest.raises(InvalidParameterError, match="integers"):
        moment_series(StateSpec("Coherent", alpha=1.0), 1.0, 1)
    assert moment_oracle(s, np.int64(1), True) == moment_oracle(s, 1, 1)


def test_memoised_moments_are_consistent_across_threads(rng):
    # Eight threads race over shuffled (t, j) on fresh states; whichever entry
    # is published last, every value read is the reference.
    pairs = [(t, j) for t in range(MAX_TOTAL_ORDER + 1) for j in range(MAX_TOTAL_ORDER + 1 - t)]
    states, references = [], []
    for _ in range(30):
        raw = rng.normal(size=24) + 1j * rng.normal(size=24)
        states.append(state_from_amplitudes(raw))
        references.append({pair: _vdot_of_lowered_vectors(states[-1], *pair) for pair in pairs})
    orders = [[pairs[i] for i in rng.permutation(len(pairs))] for _ in range(8)]
    barrier = threading.Barrier(len(orders), timeout=60)
    mismatches, finished = [], []

    def worker(order):
        for s, reference in zip(states, references):
            barrier.wait()
            for t, j in order:
                got = np.complex128(moment_oracle(s, t, j))
                if got.tobytes() != np.complex128(reference[t, j]).tobytes():
                    mismatches.append((t, j))
        finished.append(order)

    threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that the races happen
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == len(orders) and mismatches == []


# Points whose sum raises, each for its own reason.
_REFUSED = [
    (StateSpec("PSDFS", alpha=0, n=1, subtracted=3), 1, 1),  # an empty ladder (q > n at alpha = 0)
    (StateSpec("Coherent", alpha=2100.0), 1, 1),  # a ladder past the log-factorial cap
    (StateSpec("Coherent", alpha=1.0), -1, 2),  # a negative power
    (StateSpec("Coherent", alpha=1.0), 9, 8),  # an order over the cap
    (StateSpec("Coherent", alpha=1.0), 1.0, 1),  # a power that is not an integer
    (StateSpec("PSDFS", alpha=0, n=1, subtracted=3), 0, -1),  # the power is refused before the empty ladder
]


@st.composite
def _moment_points(draw):
    """One or two points of every family, each with its own t and j in 0..8, and refused points among them, shuffled."""
    orders = st.tuples(st.integers(0, 8), st.integers(0, 8))
    points = [
        (StateSpec(family, alpha=mag * cmath.exp(1j * phase), p=p, chi=chi, **counts), *draw(orders))
        for family in FAMILIES
        for mag, phase, p, chi, counts in draw(st.lists(_POINT, min_size=1, max_size=2))
    ]
    points += draw(st.lists(st.sampled_from(_REFUSED), max_size=4))
    return draw(st.permutations(points))


def _sum_outcome(value):
    """A moment as comparable data: the bits of both parts, or the error's class and message."""
    if isinstance(value, FockLabError):
        return type(value), str(value)
    return value.real.hex(), value.imag.hex()


def _series_alone(spec, t, j):
    try:
        return moment_series(spec, t, j)
    except FockLabError as exc:
        return exc


@settings(derandomize=True, max_examples=40, deadline=None)
@given(points=_moment_points())
def test_batched_moment_sums_are_each_point_alone(points):
    batch = moment_sums(points)
    assert [_sum_outcome(value) for value in batch] == [_sum_outcome(_series_alone(*point)) for point in points]
