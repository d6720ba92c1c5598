import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from focklab import interferometry
from focklab.core import DEFAULT_POLICY, TruncationPolicy, make_fock, state_from_amplitudes
from focklab.core import log_factorials
from focklab.exceptions import AnnihilatedStateError, ConvergenceError, FockLabError, StationaryPointError
from focklab.interferometry import (
    _GRAM_BAND,
    _ONE_PRODUCT_MAX,
    beam_splitter_split,
    linear_entropy,
    linear_entropy_closed_form,
    phase_estimation_uncertainty,
)
from focklab.states import (
    FAMILIES,
    FAMILY_INFO,
    StateSpec,
    build_state,
    ladders,
    normalization_constant_closed_form,
)

from test_states import random_spec

POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-16)

# The families of the literal triple-sum references below; every other family
# is a displaced Fock state, whose split has its own exact value.
TRIPLE_SUM_FAMILIES = tuple(f for f in FAMILIES if FAMILY_INFO[f].group in ("ecs", "kerr", "binomial"))


def test_split_single_photon():
    tm = beam_splitter_split(make_fock(1, 3))
    expected = 1.0 / math.sqrt(2.0)
    assert tm[1, 0] == pytest.approx(expected)
    assert tm[0, 1] == pytest.approx(expected)


def test_split_vacuum():
    tm = beam_splitter_split(make_fock(0, 2))
    assert tm[0, 0] == pytest.approx(1.0)


def test_split_preserves_norm(rng):
    for _ in range(10):
        s = state_from_amplitudes(rng.normal(size=24) + 1j * rng.normal(size=24))
        assert np.linalg.norm(beam_splitter_split(s)) == pytest.approx(1.0, abs=1e-12)


def test_split_of_coherent_is_product():
    s = build_state(StateSpec("Coherent", alpha=2.0), POLICY)
    tm = beam_splitter_split(s)
    half = build_state(
        StateSpec("Coherent", alpha=2.0 / math.sqrt(2.0)),
        TruncationPolicy(max_dim=512, tail_tolerance=1e-20),
    )
    padded = np.zeros(tm.shape[0], dtype=complex)
    padded[: min(half.dim, tm.shape[0])] = half.amplitudes[: tm.shape[0]]
    outer = np.outer(padded, padded)
    # compare where the total photon number is far from the input truncation
    j, m = np.meshgrid(np.arange(tm.shape[0]), np.arange(tm.shape[1]), indexing="ij")
    inside = j + m < 20
    assert np.max(np.abs((tm - outer)[inside])) <= 1e-10
    assert linear_entropy(s) <= 1e-10


def test_linear_entropy_fock1():
    assert linear_entropy(make_fock(1, 3)) == pytest.approx(0.5, abs=1e-12)


def test_linear_entropy_range_and_trace_symmetry(rng):
    for dim in (2, 7, 20, 64, 100, 137, 251, 400):
        s = state_from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        value = linear_entropy(s)
        assert 0.0 <= value < 1.0
        tm = beam_splitter_split(s)
        rho_b = tm.conj().T @ tm
        rho_a = tm @ tm.conj().T
        le_b = 1.0 - float(np.trace(rho_b @ rho_b).real)
        le_a = 1.0 - float(np.trace(rho_a @ rho_a).real)
        assert le_a == pytest.approx(le_b, abs=1e-10)
        assert value == pytest.approx(le_b, abs=1e-10)


# The per-n loop split and the SVD purity, kept as the reference for the
# Hankel gather and the banded Gram product.

def _loop_split(s):
    d = s.dim
    out = np.zeros((d, d), dtype=np.complex128)
    log_fact = log_factorials(d)
    for n in range(d):
        c = s.amplitudes[n]
        if c == 0:
            continue
        j = np.arange(n + 1)
        log_w = (
            0.5 * (log_fact[n] - log_fact[j] - log_fact[n - j])
            - 0.5 * n * math.log(2.0)
        )
        out[j, n - j] = c * np.exp(log_w)
    return out


def _svd_entropy_reference(s):
    sv = np.linalg.svd(_loop_split(s), compute_uv=False)
    return max(1.0 - float(np.sum(sv**4)), 0.0)


def _dense_entropy_reference(s):
    """1 - ||M M^H||_F^2 as one product over the whole split."""
    split = beam_splitter_split(s)
    gram = split @ split.conj().T
    return max(1.0 - float(np.vdot(gram, gram).real), 0.0)


def _assert_matches_reference(s):
    loop = _loop_split(s)
    assert np.max(np.abs(beam_splitter_split(s) - loop)) <= 1e-13 * np.max(np.abs(loop))
    assert abs(linear_entropy(s) - _svd_entropy_reference(s)) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_split_and_entropy_match_loop_and_svd_reference(family):
    policy = TruncationPolicy(max_dim=1024, tail_tolerance=1e-16)
    if FAMILY_INFO[family].group == "binomial":
        specs = [StateSpec(family, p=0.37, M=M) for M in (10, 128, 360)]
    else:
        specs = [
            StateSpec(family, alpha=mag * np.exp(0.6j), n=2, added=1, subtracted=1, chi=0.29)
            for mag in (1.0, 3.0, 8.0, 15.0)
        ]
    for spec in specs:
        _assert_matches_reference(build_state(spec, policy))


def test_entropy_matches_reference_at_smallest_dims():
    for s in (make_fock(0, 1), make_fock(0, 2), make_fock(1, 2)):
        _assert_matches_reference(s)
    assert linear_entropy(make_fock(0, 1)) == 0.0
    assert linear_entropy(make_fock(1, 2)) == pytest.approx(0.5, abs=1e-15)


# Two bands end at the one-product limit (63, 64, 65); three and five are
# band edges past it (95, 96, 97 and 159, 160, 161).
@pytest.mark.parametrize("bands", [1, 2, 3, 5])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_entropy_matches_reference_at_band_edges(bands, offset, rng):
    assert _ONE_PRODUCT_MAX == 2 * _GRAM_BAND
    dim = bands * _GRAM_BAND + offset
    s = state_from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    _assert_matches_reference(s)


def test_entropy_up_to_the_one_product_limit_is_one_gram_product(rng):
    # The property that keeps every shipped entropy cell byte-identical.
    for dim in range(1, _ONE_PRODUCT_MAX + 1):
        c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        even = c.copy()
        even[1::2] = 0  # a one-parity state, as a cat state is
        for s in (state_from_amplitudes(c), state_from_amplitudes(even)):
            split = beam_splitter_split(s)
            g = split @ split.conj().T
            assert linear_entropy(s) == max(1.0 - float(np.vdot(g, g).real), 0.0), dim


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("dim", [65, 66, 96, 97, 161])
def test_entropy_of_a_one_parity_state_past_the_one_product_limit(parity, dim, rng):
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    c[1 - parity :: 2] = 0
    s = state_from_amplitudes(c)
    _assert_matches_reference(s)
    assert abs(linear_entropy(s) - _dense_entropy_reference(s)) <= 1e-14


def _long_double_entropy(s):
    """1 - ||M M^H||_F^2 over the whole split, the Gram summed in long double.

    A float64 product over the whole split is itself off by up to 3.5e-15
    at dim 512 when the purity is near 1, more than the window moves it.
    """
    split = beam_splitter_split(s).astype(np.clongdouble)
    gram = split @ split.conj().T
    return max(float(1.0 - np.sum(gram.real**2 + gram.imag**2)), 0.0)


# At |alpha| = 20 the basis for tail 1e-16 is longer than POLICY's 512 states.
WINDOW_POLICY = TruncationPolicy(max_dim=1024, tail_tolerance=1e-16)


def _window_cases():
    rng = np.random.default_rng(2005)
    for family in ("Coherent", "Kerr", "PADFS", "ECS"):  # ECS has one parity
        for mag in (8.0, 15.0, 20.0):
            spec = StateSpec(family, alpha=mag * np.exp(0.7j), added=1, chi=0.29)
            yield pytest.param(build_state(spec, WINDOW_POLICY), id=f"{family}-{mag:g}")
    for family in ("DFS", "PASDFS"):  # real Laguerre factors of both signs
        for mag in (8.0, 15.0, 20.0):
            spec = StateSpec(family, alpha=mag * np.exp(0.7j), n=2, added=1, subtracted=1)
            yield pytest.param(build_state(spec, WINDOW_POLICY), id=f"{family}-{mag:g}")
    for p in (0.37, 0.9):
        yield pytest.param(build_state(StateSpec("Binomial", p=p, M=360), WINDOW_POLICY), id=f"Binomial-360-{p:g}")
    for dim in (65, 97, 161, 300):
        yield pytest.param(_random_state(rng, dim), id=f"random-{dim}")
    # Nearly no mass below n = 68, so the window starts past 0 (lo = 6).
    yield pytest.param(build_state(StateSpec("DFS", alpha=0.5, n=100), WINDOW_POLICY), id="DFS-n100")


@pytest.mark.parametrize("s", _window_cases())
def test_entropy_over_the_mass_window_matches_the_whole_split(s):
    assert _ONE_PRODUCT_MAX < s.dim <= WINDOW_POLICY.max_dim
    tau = interferometry._WINDOW_MASS
    lo, hi = interferometry._mass_window(s.probabilities(), interferometry._split_weights(s.dim))
    mass = np.abs(beam_splitter_split(s)) ** 2
    for dropped in (mass[:lo], mass[hi:], mass[:, :lo], mass[:, hi:]):
        assert dropped.sum() <= tau
    assert mass[: lo + 1].sum() > tau and mass[hi - 1 :].sum() > tau  # the tightest such window
    assert abs(linear_entropy(s) - _long_double_entropy(s)) <= 1e-15


def _split_kinds(monkeypatch, s):
    """The dtype kinds of the splits whose Gram ``linear_entropy(s)`` takes: 'f' real, 'c' complex."""
    kinds = []
    purity = interferometry._split_purity

    def spy(split, reach):
        kinds.append(split.dtype.kind)
        return purity(split, reach)

    monkeypatch.setattr(interferometry, "_split_purity", spy)
    linear_entropy(s)
    monkeypatch.setattr(interferometry, "_split_purity", purity)
    return set(kinds)


def _past_one_product_spec(family):
    if FAMILY_INFO[family].group == "binomial":
        return StateSpec(family, p=0.37, M=360)
    if family == "Fock":
        return StateSpec(family, n=80)
    return StateSpec(family, alpha=8.0 * np.exp(0.7j), n=2, added=1, subtracted=1, chi=0.29)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_phase_linear_state_takes_the_real_gram_past_the_one_product_limit(family, monkeypatch):
    # c_n = g r_n e^{i n phi} with r_n real turns real under e^{-i phi N}; the
    # Kerr phase chi n(n - 1) is not linear in n, so its group stays complex.
    s = build_state(_past_one_product_spec(family), WINDOW_POLICY)
    assert s.dim > _ONE_PRODUCT_MAX
    expected = {"c"} if FAMILY_INFO[family].group == "kerr" else {"f"}
    assert _split_kinds(monkeypatch, s) == expected
    assert abs(linear_entropy(s) - _long_double_entropy(s)) <= 1e-15


@pytest.mark.parametrize("dim", [65, 97, 300])
def test_a_random_complex_state_keeps_the_complex_gram(dim, monkeypatch, rng):
    assert _split_kinds(monkeypatch, _random_state(rng, dim)) == {"c"}


@pytest.mark.parametrize(
    "s",
    [
        pytest.param(build_state(StateSpec("Coherent", alpha=15.0 * np.exp(0.7j))), id="Coherent-15"),
        pytest.param(build_state(StateSpec("ECS", alpha=8.0 * np.exp(-2.1j))), id="ECS-8"),
        pytest.param(build_state(StateSpec("PASDFS", alpha=8.0, n=3, added=2, subtracted=1)), id="PASDFS-8"),
        pytest.param(build_state(StateSpec("Kerr", alpha=8.0, chi=0.29)), id="Kerr-8"),
        pytest.param(state_from_amplitudes(np.exp(1j * np.random.default_rng(33).uniform(0, 7, 150))), id="random-150"),
    ],
)
def test_entropy_is_unchanged_by_a_phase_rotation(s):
    # e^{i theta N} commutes with the splitter up to local unitaries.
    value = linear_entropy(s)
    n = np.arange(s.dim)
    for theta in (0.3, 1.1, -2.0, 2.9, math.pi):
        turned = state_from_amplitudes(s.amplitudes * np.exp(1j * theta * n))
        assert abs(linear_entropy(turned) - value) <= 1e-15, theta


@pytest.mark.parametrize("scale, kind", [(0.5, "f"), (2.0, "c")])
def test_the_real_gram_drops_at_most_the_window_mass_of_imaginary_part(scale, kind, monkeypatch):
    # A real coherent state given an imaginary part of mass just below and
    # just above 1e-20, away from the peak so that the turn is the identity.
    c = build_state(StateSpec("Coherent", alpha=8.0)).amplitudes.copy()
    peak = int(np.argmax(np.abs(c)))
    c[peak + 5] += 1j * math.sqrt(scale * interferometry._WINDOW_MASS)
    s = state_from_amplitudes(c)
    assert s.dim > _ONE_PRODUCT_MAX
    assert _split_kinds(monkeypatch, s) == {kind}
    assert abs(linear_entropy(s) - _long_double_entropy(s)) <= 1e-15


@pytest.mark.parametrize("n", [0, 1, 2])
def test_entropy_of_a_fock_state_padded_past_the_one_product_limit(n):
    # The vacuum's window is the one row j = 0, so its odd parity block is empty.
    c = np.zeros(100)
    c[n] = 1.0
    expected = 1.0 - math.comb(2 * n, n) / 4.0**n
    assert linear_entropy(state_from_amplitudes(c)) == pytest.approx(expected, abs=1e-15)


def _empty_weight_table(monkeypatch):
    """Empty the split-weight table until the test ends."""
    monkeypatch.setattr(interferometry, "_split_weight_table", np.empty((0, 0)))


def _random_state(rng, dim):
    return state_from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def _sliding_hankel(head):
    """The Hankel view as ``sliding_window_view`` builds it, the reference for ``_hankel``."""
    d = len(head)
    padded = np.zeros(2 * d - 1, dtype=head.dtype)
    padded[:d] = head
    return sliding_window_view(padded, d)


@pytest.mark.parametrize("dim", [1, 2, 30, 351])
def test_hankel_view_is_a_read_only_sliding_window(dim, rng):
    for head in (rng.normal(size=dim), rng.normal(size=dim) + 1j * rng.normal(size=dim)):
        view = interferometry._hankel(head)
        expected = _sliding_hankel(head)
        assert view.shape == expected.shape
        assert view.tobytes() == expected.tobytes()
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


def _sliding_split_weights(d):
    """The split weights of a table built at exactly d, by the sliding-window construction."""
    log_fact = log_factorials(d)
    log_w = _sliding_hankel(log_fact) - log_fact[:, None]
    log_w -= log_fact
    log_w *= 0.5
    log_w -= _sliding_hankel(0.5 * np.arange(d) * math.log(2.0))
    return np.exp(log_w)


def test_split_weight_table_matches_the_sliding_window_construction(monkeypatch):
    d = 351
    _empty_weight_table(monkeypatch)
    assert interferometry._split_weights(d).tobytes() == _sliding_split_weights(d).tobytes()


def test_split_weight_table_at_least_doubles_and_keeps_every_corner(monkeypatch):
    # The dims the first verify suite at seed 42 asks for, in its order.
    _empty_weight_table(monkeypatch)
    tables = []
    for d in (2, 97, 127, 135, 245, 269, 271):
        live = np.add.outer(np.arange(d), np.arange(d)) < d  # other cells meet only zero amplitudes
        assert interferometry._split_weights(d)[live].tobytes() == _sliding_split_weights(d)[live].tobytes(), d
        if not tables or interferometry._split_weight_table is not tables[-1]:
            tables.append(interferometry._split_weight_table)
    assert [len(table) for table in tables] == [2, 97, 194, 388]  # built 4 times, not 7
    interferometry._split_weights(400)
    assert len(interferometry._split_weight_table) == DEFAULT_POLICY.max_dim  # doubling stops at the cap


@pytest.mark.parametrize("dims", [(351, 37), (37, 351)])
def test_split_weight_table_is_independent_of_call_order(dims, monkeypatch, rng):
    states = [_random_state(rng, d) for d in dims]
    fresh = []
    for s in states:
        _empty_weight_table(monkeypatch)
        fresh.append(beam_splitter_split(s))  # weights computed at this dim alone
    _empty_weight_table(monkeypatch)
    for s, expected in zip(states, fresh):
        split = beam_splitter_split(s)
        assert split.tobytes() == expected.tobytes()
        loop = _loop_split(s)
        assert np.max(np.abs(split - loop)) <= 1e-13 * np.max(np.abs(loop))
    assert interferometry._split_weight_table.shape == (max(dims), max(dims))


def test_split_weight_table_is_read_only():
    beam_splitter_split(make_fock(3, 40))
    table = interferometry._split_weight_table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    assert not interferometry._split_weights(10).flags.writeable


def test_split_weights_past_max_dim_are_served_not_kept(monkeypatch, rng):
    _empty_weight_table(monkeypatch)
    cap = DEFAULT_POLICY.max_dim
    beam_splitter_split(_random_state(rng, 100))
    kept = interferometry._split_weight_table
    _assert_matches_reference(_random_state(rng, cap + 1))
    assert interferometry._split_weight_table is kept
    beam_splitter_split(_random_state(rng, cap))
    assert interferometry._split_weight_table.shape == (cap, cap)


@pytest.mark.parametrize("spec", [StateSpec("ECS", alpha=3.0), StateSpec("VFKS", alpha=2.0, chi=0.4)])
def test_split_keeps_exact_zeros(spec):
    s = build_state(spec, POLICY)
    holes = np.flatnonzero(s.amplitudes == 0)
    assert holes.size  # ECS parity holes, or the filtered vacuum
    _assert_matches_reference(s)
    j, m = np.indices((s.dim, s.dim))
    dead = np.isin(j + m, holes) | (j + m >= s.dim)
    assert np.all(beam_splitter_split(s)[dead] == 0)


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_entropy_matches_partial_trace(family, rng):
    for _ in range(5):
        spec = random_spec(rng, family)
        numeric = linear_entropy(build_state(spec, POLICY))
        closed = linear_entropy_closed_form(spec)
        assert closed == pytest.approx(numeric, abs=1e-8)


# The literal (n, m, r) triple sums, kept as the reference for the s = n + r regrouping.

def _vandermonde_binom(total, pick):
    """log C(total, pick) with C = 0 outside 0 <= pick <= total (as -inf)."""
    ok = (pick >= 0) & (pick <= total)
    t = np.where(ok, total, 0)
    k = np.where(ok, pick, 0)
    log_fact = log_factorials(int(t.max()) + 1)
    val = log_fact[t] - log_fact[k] - log_fact[t - k]
    return np.where(ok, val, -np.inf)


def _dense_le_sum_ladder(lam, chi, variant, cut):
    start = 1 if variant == "filtered" else 0
    n = np.arange(start, cut)
    r = np.arange(start, cut)
    m = np.arange(start, 2 * cut)
    N, M, R = np.meshgrid(n, m, r, indexing="ij")
    log_lam = math.log(lam) if lam > 0 else -1.0e18
    log_fact = log_factorials(cut)
    log_mag = (N + R) * log_lam - log_fact[N] - log_fact[R]
    if variant == "added":
        log_bin = _vandermonde_binom(N + R + 2, M + 1) - (N + R + 2) * math.log(2.0)
        weight = (M + 1.0) * (N + R - M + 1.0)
    else:
        log_bin = _vandermonde_binom(N + R, M) - (N + R) * math.log(2.0)
        weight = 1.0
    if variant == "filtered":
        log_bin = np.where(N + R - M >= 1, log_bin, -np.inf)
    if chi is None:
        even = lambda x: np.where(x % 2 == 0, 2.0, 0.0)
        parity = even(N) * even(M) * even(R) * even(N + R - M)
        return float(np.sum(np.exp(log_mag + log_bin) * weight * parity))
    phase = np.exp(2j * chi * (M - N) * (M - R))
    return float(np.sum(np.exp(log_mag + log_bin) * weight * phase).real)


def _dense_le_sum_binomial(p, M_max, variant):
    start = 1 if variant == "filtered" else 0
    n = np.arange(start, M_max + 1)
    N, Mm, R = np.meshgrid(n, n, n, indexing="ij")
    log_p = math.log(p) if p > 0 else -1.0e18
    log_1p = math.log(1.0 - p) if p < 1 else -1.0e18
    ok = (N + R - Mm >= 0) & (N + R - Mm <= M_max)
    if variant == "filtered":
        ok &= N + R - Mm >= 1
    s_idx = np.where(ok, N + R - Mm, 0)
    log_fact = log_factorials(M_max + 1)
    log_g = (
        2.0 * log_fact[M_max]
        + (N + R) * log_p
        + (2 * M_max - N - R) * log_1p
        - 0.5
        * (
            log_fact[M_max - N]
            + log_fact[M_max - Mm]
            + log_fact[M_max - R]
            + log_fact[M_max - s_idx]
        )
        - log_fact[N]
        - log_fact[R]
    )
    log_g = np.where(ok, log_g, -np.inf)
    if variant == "added":
        log_bin = _vandermonde_binom(N + R + 2, Mm + 1) - (N + R + 2) * math.log(2.0)
        weight = (Mm + 1.0) * (N + R - Mm + 1.0)
    else:
        log_bin = _vandermonde_binom(N + R, Mm) - (N + R) * math.log(2.0)
        weight = 1.0
    return float(np.sum(np.exp(log_g + log_bin) * weight))


def _dense_entropy_closed_form(spec):
    info = spec.info
    lam = spec.alpha_mag**2
    variant = info.hole or "plain"
    if info.hole is not None:
        prefactor = normalization_constant_closed_form(spec) ** 4
    elif info.group == "ecs":
        prefactor = math.exp(-2.0 * lam) / (4.0 * (1.0 + math.exp(-2.0 * lam)) ** 2)
    elif info.group == "kerr":
        prefactor = math.exp(-2.0 * lam)
    else:
        prefactor = 1.0
    if info.group == "binomial":
        return 1.0 - prefactor * _dense_le_sum_binomial(spec.p, spec.M, variant)
    cut = int(lam + 14.0 * math.sqrt(lam + 1.0) + 24)
    chi = spec.chi if info.group == "kerr" else None
    return 1.0 - prefactor * _dense_le_sum_ladder(lam, chi, variant, cut)


def _small_specs(family):
    if FAMILY_INFO[family].group == "binomial":
        return [StateSpec(family, p=p, M=M) for p in (0.0, 0.2, 0.65, 1.0) for M in (1, 2, 5, 12)]
    alphas = (0.25, 0.7 * np.exp(0.4j), 1.3, -2.0j)
    if FAMILY_INFO[family].group == "kerr":
        return [StateSpec(family, alpha=a, chi=chi) for a in alphas for chi in (0.0, 0.13, -1.7, math.pi)]
    return [StateSpec(family, alpha=a) for a in (0.0, *alphas)]


@pytest.mark.parametrize("family", TRIPLE_SUM_FAMILIES)
def test_grouped_entropy_matches_literal_triple_sum(family):
    for spec in _small_specs(family):
        if spec.info.hole == "filtered" and spec.param("alpha") == spec.param("p") == 0:
            with pytest.raises(AnnihilatedStateError):  # the vacuum-filtered vacuum is empty
                normalization_constant_closed_form(spec)
            with pytest.raises(AnnihilatedStateError):
                linear_entropy_closed_form(spec)
            continue
        expected = _dense_entropy_closed_form(spec)
        assert abs(linear_entropy_closed_form(spec) - expected) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_entropy_at_large_parameters(family):
    policy = TruncationPolicy(max_dim=1024, tail_tolerance=1e-16)
    if FAMILY_INFO[family].group == "binomial":
        specs = [StateSpec(family, p=p, M=M) for p, M in ((0.37, 128), (0.81, 360))]
    else:
        chi = 0.29 if FAMILY_INFO[family].group == "kerr" else 0.0
        specs = [
            StateSpec(family, alpha=mag * np.exp(0.6j), n=2, added=1, subtracted=1, chi=chi)
            for mag in (8.0, 15.0, 20.0)
        ]
    for spec in specs:
        closed = linear_entropy_closed_form(spec)
        assert abs(closed - linear_entropy(build_state(spec, policy))) <= 1e-8


@pytest.mark.parametrize(
    "family", [f for f in TRIPLE_SUM_FAMILIES if FAMILY_INFO[f].group != "binomial"]
)
def test_closed_form_entropy_refuses_beyond_float_range(family):
    # The hole variants' normalization overflows past |alpha|^2 ~ 710; at
    # |alpha| = 40 every ladder family's convolution passes the 4096-term limit.
    mags = (30.0, 40.0) if FAMILY_INFO[family].hole is not None else (40.0,)
    for mag in mags:
        with pytest.raises(ConvergenceError):
            linear_entropy_closed_form(StateSpec(family, alpha=mag, chi=0.29))


def _two_copy_entropy_reference(c):
    """1 - sum_S |sum_{n+m=S} c_n c_m sqrt(C(S, n)/2^S)|^2, O(dim^2), weights from math.lgamma."""
    d = len(c)
    log_fact = np.array([math.lgamma(k + 1) for k in range(2 * d - 1)])
    purity = 0.0
    for total in range(2 * d - 1):
        n = np.arange(max(0, total - d + 1), min(total, d - 1) + 1)
        log_w = 0.5 * (log_fact[total] - log_fact[n] - log_fact[total - n] - total * math.log(2.0))
        purity += abs(np.sum(c[n] * c[total - n] * np.exp(log_w))) ** 2
    return 1.0 - purity


def _log_domain_entropy_sum(ladder):
    """The closed-form sum as once shipped, each A_s summed in the log domain against its own largest term."""
    if isinstance(ladder, FockLabError):
        raise ladder
    log_c, phase = ladder
    d = len(log_c)
    terms = 2 * d - 1
    if terms > interferometry._ENTROPY_MAX_TERMS:
        raise ConvergenceError(f"entropy series of {terms} terms exceeds the {interferometry._ENTROPY_MAX_TERMS}-term limit")
    log_fact = log_factorials(terms)
    log_w = log_c - 0.5 * log_fact[:d]
    pad = np.full(d - 1, -np.inf)
    log_r = np.concatenate((pad, log_w, pad))[d - 1 :]
    log_t = log_w + as_strided(log_r, (terms, d), (log_r.itemsize, -log_r.itemsize))
    phase_r = np.concatenate((np.zeros(d - 1), phase, np.zeros(d - 1)))[d - 1 :]
    phase_t = phase * as_strided(phase_r, (terms, d), (phase_r.itemsize, -phase_r.itemsize))
    shift = np.max(log_t, axis=1)  # -inf on a row with no term, whose weight e^{2 shift} is 0
    a = np.sum(np.exp(log_t - np.where(np.isfinite(shift), shift, 0.0)[:, None]) * phase_t, axis=1)
    purity = np.sum(np.exp(2.0 * shift + log_fact - np.arange(terms) * math.log(2.0)) * (a.real**2 + a.imag**2))
    return 1.0 - float(purity)


def _specs_at(family, mags):
    """Specs of ``family`` at each |alpha| in ``mags`` (n = 2, one photon added and one subtracted, chi 0.29)."""
    chi = 0.29 if FAMILY_INFO[family].group == "kerr" else 0.0
    return [StateSpec(family, alpha=mag * np.exp(0.6j), n=2, added=1, subtracted=1, chi=chi) for mag in mags]


@pytest.mark.parametrize("family", FAMILIES)
def test_entropy_sum_matches_the_log_domain_sum(family):
    if FAMILY_INFO[family].group == "binomial":
        specs = [StateSpec(family, p=0.37, M=M) for M in (0, 1, 12, 128, 360)]
    else:
        specs = _specs_at(family, (0.3, 1.0, 3.0, 8.0, 15.0, 20.0, 26.0))
    compared = 0
    for spec, ladder in zip(specs, ladders(specs)):
        if isinstance(ladder, FockLabError):  # the filtered vacuum (M = 0): both sums raise it
            with pytest.raises(type(ladder)):
                interferometry._entropy_sum(ladder)
            continue
        reference = _log_domain_entropy_sum(ladder)
        # 2e-13, not 1e-13: at ECS |alpha| = 26 the log-domain sum is itself
        # 1.9e-13 from a 40-digit sum over the same ladder, and this one 8.3e-14.
        assert abs(interferometry._entropy_sum(ladder) - reference) <= 2e-13, spec
        compared += 1
    assert compared >= len(specs) - 1


def _fsum_entropy_sum(ladder):
    """1 - sum_s |B_s|^2 from correctly rounded weights sqrt(C(s, n)/2^s) and ``math.fsum``.

    Pairs n <= r whose |c_n c_r| < e^-40 are left out; every other term is
    summed exactly, so the result is good to a few ulp of the purity.
    """
    log_c, phase = ladder
    live = [n for n in range(len(log_c)) if log_c[n] > -40.0]
    c = {n: complex(phase[n]) * math.exp(log_c[n]) for n in live}
    parts: dict[int, tuple[list, list]] = {}
    for i, n in enumerate(live):
        for r in live[i:]:
            if log_c[n] + log_c[r] < -40.0:
                continue
            s = n + r
            term = c[n] * c[r] * (math.sqrt(math.comb(s, n) / (1 << s)) * (1.0 if n == r else 2.0))
            re, im = parts.setdefault(s, ([], []))
            re.append(term.real)
            im.append(term.imag)
    return 1.0 - math.fsum(math.fsum(re) ** 2 + math.fsum(im) ** 2 for re, im in parts.values())


def test_entropy_sum_matches_an_exactly_summed_reference_on_a_long_ladder():
    # ECS |alpha| = 15: 459 terms, past the cached weights; the log-domain sum is 7.7e-14 off here.
    (ladder,) = ladders(_specs_at("ECS", (15.0,)))
    assert abs(interferometry._entropy_sum(ladder) - _fsum_entropy_sum(ladder)) <= 2e-14


@pytest.mark.parametrize("family", FAMILIES)
def test_entropy_sum_matches_the_two_copy_reference_on_small_ladders(family):
    if FAMILY_INFO[family].group == "binomial":
        specs = [StateSpec(family, p=p, M=M) for p, M in ((0.37, 1), (0.8, 5), (0.37, 12))]
    else:
        specs = _specs_at(family, (0.3, 1.0, 3.0))
    for spec, (log_c, phase) in zip(specs, ladders(specs)):
        reference = _two_copy_entropy_reference(np.exp(log_c) * phase)
        assert abs(interferometry._entropy_sum((log_c, phase)) - reference) <= 1e-13, spec


def _exact_split_weight(s, n):
    """sqrt(C(s, n)/2^s), the ratio correctly rounded from Python ints, then one rounded sqrt."""
    return math.sqrt(math.comb(s, n) / (1 << s))


@pytest.mark.parametrize("d", [1, 2, 37, 256, 300])
def test_two_copy_weights_are_the_exact_split_weights(d):
    # d = 256 reads the cached table (511 terms); d = 300 (599 terms) forms its grid alone.
    weights = interferometry._two_copy_weights(d)
    assert weights.shape == (d, 2 * d - 1)
    assert np.all(np.isfinite(weights)) and np.all((weights >= 0.0) & (weights <= 1.0))
    log_fact = log_factorials(2 * d - 1)
    for s in range(2 * d - 1):
        n = np.arange(max(0, s - d + 1), min(s, d - 1) + 1)
        got = weights[n, s]
        exact = np.array([_exact_split_weight(s, k) for k in n])
        # A weight is exp of a log-weight whose largest term is log s!, so it
        # carries that term's rounding: 4 ulp of log s! relative to the weight.
        assert np.all(np.abs(got / exact - 1.0) <= 4.0 * math.ulp(max(log_fact[s], 1.0))), s
    if 2 * d - 1 > DEFAULT_POLICY.max_dim:
        table = interferometry._split_weights(2 * d - 1)  # an uncached square table
        for k in range(d):
            assert weights[k, k : k + d].tobytes() == table[k, :d].tobytes()  # the table's own bits
            assert not weights[k, :k].any()  # s < n reads exact zeros


@pytest.mark.parametrize("d", [2, 37, 200])
def test_two_copy_weights_read_a_grown_table_bitwise(d, monkeypatch):
    _empty_weight_table(monkeypatch)
    exact = interferometry._two_copy_weights(d).copy()  # sheared over a table of exactly 2d - 1 rows
    interferometry._split_weights(DEFAULT_POLICY.max_dim)
    grown = interferometry._two_copy_weights(d)
    assert len(interferometry._split_weight_table) > 2 * d - 1
    for n in range(d):
        assert grown[n, n : n + d].tobytes() == exact[n, n : n + d].tobytes(), n


def test_closed_form_entropy_of_a_long_ladder_stays_below_the_log_domain_peak():
    spec = StateSpec("Kerr", alpha=36.0, chi=0.29)
    (ladder,) = ladders([spec])
    assert len(ladder[0]) == 1762
    tracemalloc.start()
    try:
        value = linear_entropy_closed_form(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The weight and term grids take 48 d^2 bytes (149 MB); the log-domain sum peaked at 304.8 MiB.
    assert peak < 200 * 2**20
    assert abs(value - _log_domain_entropy_sum(ladder)) <= 1e-13


def test_linear_entropy_refuses_a_split_past_8192_states_before_allocating():
    s = state_from_amplitudes(np.ones(8193))
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            linear_entropy(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the split alone would take 1 GiB


def test_split_refuses_past_its_cap_before_allocating(monkeypatch, rng):
    _empty_weight_table(monkeypatch)
    monkeypatch.setattr(interferometry, "_SPLIT_MAX_DIM", 8)
    beam_splitter_split(_random_state(rng, 8))
    kept = interferometry._split_weight_table
    s = _random_state(rng, 9)
    for call in (beam_splitter_split, linear_entropy):
        with pytest.raises(ConvergenceError):
            call(s)
    assert interferometry._split_weight_table is kept  # no weights were computed for dim 9


def test_linear_entropy_past_4096_states():
    # One state past 4096, where the split's log-factorials once ran out.
    s = state_from_amplitudes(np.ones(4097))
    reference = _two_copy_entropy_reference(s.amplitudes)
    assert reference == pytest.approx(0.92809654148029, abs=1e-13)
    tracemalloc.start()
    try:
        value = linear_entropy(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(value - reference) <= 1e-10
    # The state is real, so its split over the mass window [0, 2323) is a
    # real 41 MiB beside the 128 MiB of weights: a peak of 170.4 MiB. The
    # complex split over the window peaked at 213.6 MiB, the whole split at
    # 384.5 MiB.
    assert peak < 190 * 2**20


def test_closed_form_entropy_point_values():
    assert linear_entropy_closed_form(StateSpec("Binomial", p=1.0, M=1)) == pytest.approx(0.5)
    assert linear_entropy_closed_form(StateSpec("Kerr", alpha=1.0, chi=0.0)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_closed_form_entropy_ordering_at_alpha_one():
    vfecs = linear_entropy_closed_form(StateSpec("VFECS", alpha=1.0))
    paecs = linear_entropy_closed_form(StateSpec("PAECS", alpha=1.0))
    ecs = linear_entropy_closed_form(StateSpec("ECS", alpha=1.0))
    assert vfecs > paecs > ecs


def test_closed_form_entropy_of_split_displaced_fock_states():
    # The splitter maps D(alpha)|n> x |0> to D(alpha/sqrt2) x D(alpha/sqrt2)
    # acting on the split |n>, whose Schmidt weights are C(n, j)/2^n: the
    # purity is C(2n, n)/4^n at any alpha, and a coherent state stays a product.
    for n in range(5):
        expected = 1.0 - math.comb(2 * n, n) / 4.0**n
        specs = [StateSpec("Fock", n=n)]
        specs += [StateSpec("DFS", alpha=a, n=n) for a in (0.0, 0.3, 1.7j, 3.0 * np.exp(2.2j), -6.0)]
        for spec in specs:
            assert abs(linear_entropy_closed_form(spec) - expected) <= 1e-14, spec
    for a in (0.0, 0.3, 1.7j, 3.0 * np.exp(2.2j), -6.0):
        assert abs(linear_entropy_closed_form(StateSpec("Coherent", alpha=a))) <= 1e-14


def test_coherent_entropy_zero_iff_on_family_grid(rng):
    for family in TRIPLE_SUM_FAMILIES:
        spec = random_spec(rng, family)
        value = linear_entropy(build_state(spec, POLICY))
        assert value > 1e-10  # every engineered family entangles
    assert linear_entropy(build_state(StateSpec("Coherent", alpha=1.3), POLICY)) <= 1e-10


# --- Mach-Zehnder phase estimation ---------------------------------------------------

def _dense_phase_uncertainty(s, phi):
    """std(Jz_out) / |d<Jz_out>/dphi| for |s> x |0>, from dense two-mode operators.

    The auxiliary mode gets dim + 1 levels, more than Jx and Jx^2 can reach
    from |s> x |0>, so the truncated matrices act exactly on the input.
    """
    def lower(d):
        return np.diag(np.sqrt(np.arange(1.0, d)), 1)

    da, db = s.dim, s.dim + 1
    a = np.kron(lower(da), np.eye(db))
    b = np.kron(np.eye(da), lower(db))
    jx = 0.5 * (a.T @ b + b.T @ a)
    jz = 0.5 * (a.T @ a - b.T @ b)
    psi = np.kron(s.amplitudes, np.eye(db)[0])

    def mean(op):
        return float(np.vdot(psi, op @ psi).real)

    jz_out = math.cos(phi) * jz - math.sin(phi) * jx
    var_out = mean(jz_out @ jz_out) - mean(jz_out) ** 2
    slope = mean(-math.sin(phi) * jz - math.cos(phi) * jx)
    return math.sqrt(var_out) / abs(slope)


def test_phase_uncertainty_matches_dense_two_mode_reference(rng):
    for _ in range(12):
        dim = int(rng.integers(2, 13))
        s = state_from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        for phi in (0.3, 1.1, math.pi / 2, 2.5, -2.0):
            expected = _dense_phase_uncertainty(s, phi)
            assert phase_estimation_uncertainty(s, phi) == pytest.approx(expected, rel=1e-10)


def test_phase_uncertainty_coherent_shot_noise():
    s = build_state(StateSpec("Coherent", alpha=2.0), POLICY)
    assert phase_estimation_uncertainty(s, math.pi / 2) == pytest.approx(0.5, abs=1e-8)


def test_phase_uncertainty_single_photon():
    assert phase_estimation_uncertainty(make_fock(1, 4), math.pi / 2) == pytest.approx(
        1.0, abs=1e-12
    )


def test_phase_uncertainty_stationary_point():
    with pytest.raises(StationaryPointError):
        phase_estimation_uncertainty(make_fock(1, 4), 0.0)


def test_padfs_beats_coherent_at_small_alpha():
    # Photon addition to a weak displaced Fock state improves phase estimation.
    coh = build_state(StateSpec("Coherent", alpha=0.1), POLICY)
    padfs = build_state(StateSpec("PADFS", alpha=0.1, n=1, added=1), POLICY)
    phi = math.pi / 2
    assert phase_estimation_uncertainty(padfs, phi) < phase_estimation_uncertainty(coh, phi)
