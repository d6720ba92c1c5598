import math

import numpy as np
import pytest

from focklab.core import TruncationPolicy, make_fock, state_from_amplitudes
from focklab.core import LOG_FACTORIAL
from focklab.exceptions import ConvergenceError, InvalidParameterError, StationaryPointError
from focklab.interferometry import (
    ENTROPY_SERIES_GROUPS,
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
    normalization_constant_closed_form,
)

from test_states import random_spec

POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-16)

LE_FAMILIES = tuple(f for f in FAMILIES if FAMILY_INFO[f].group in ENTROPY_SERIES_GROUPS)


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
    for _ in range(8):
        s = state_from_amplitudes(rng.normal(size=20) + 1j * rng.normal(size=20))
        value = linear_entropy(s)
        assert 0.0 <= value < 1.0
        tm = beam_splitter_split(s)
        rho_b = tm.conj().T @ tm
        rho_a = tm @ tm.conj().T
        le_b = 1.0 - float(np.trace(rho_b @ rho_b).real)
        le_a = 1.0 - float(np.trace(rho_a @ rho_a).real)
        assert le_a == pytest.approx(le_b, abs=1e-10)
        assert value == pytest.approx(le_b, abs=1e-10)


@pytest.mark.parametrize("family", LE_FAMILIES)
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
    val = LOG_FACTORIAL[t] - LOG_FACTORIAL[k] - LOG_FACTORIAL[t - k]
    return np.where(ok, val, -np.inf)


def _dense_le_sum_ladder(lam, chi, variant, cut):
    start = 1 if variant == "filtered" else 0
    n = np.arange(start, cut)
    r = np.arange(start, cut)
    m = np.arange(start, 2 * cut)
    N, M, R = np.meshgrid(n, m, r, indexing="ij")
    log_lam = math.log(lam) if lam > 0 else -1.0e18
    log_mag = (N + R) * log_lam - LOG_FACTORIAL[N] - LOG_FACTORIAL[R]
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
    log_g = (
        2.0 * LOG_FACTORIAL[M_max]
        + (N + R) * log_p
        + (2 * M_max - N - R) * log_1p
        - 0.5
        * (
            LOG_FACTORIAL[M_max - N]
            + LOG_FACTORIAL[M_max - Mm]
            + LOG_FACTORIAL[M_max - R]
            + LOG_FACTORIAL[M_max - s_idx]
        )
        - LOG_FACTORIAL[N]
        - LOG_FACTORIAL[R]
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


@pytest.mark.parametrize("family", LE_FAMILIES)
def test_grouped_entropy_matches_literal_triple_sum(family):
    for spec in _small_specs(family):
        if FAMILY_INFO[family].hole and normalization_constant_closed_form(spec) is None:
            continue  # the vacuum-filtered vacuum is empty
        expected = _dense_entropy_closed_form(spec)
        assert abs(linear_entropy_closed_form(spec) - expected) <= 1e-12


@pytest.mark.parametrize("family", LE_FAMILIES)
def test_closed_form_entropy_at_large_parameters(family):
    policy = TruncationPolicy(max_dim=1024, tail_tolerance=1e-16)
    if FAMILY_INFO[family].group == "binomial":
        specs = [StateSpec(family, p=p, M=M) for p, M in ((0.37, 128), (0.81, 360))]
    else:
        chi = 0.29 if FAMILY_INFO[family].group == "kerr" else 0.0
        specs = [StateSpec(family, alpha=mag * np.exp(0.6j), chi=chi) for mag in (8.0, 15.0, 20.0)]
    for spec in specs:
        closed = linear_entropy_closed_form(spec)
        assert abs(closed - linear_entropy(build_state(spec, policy))) <= 1e-8


@pytest.mark.parametrize(
    "family", [f for f in LE_FAMILIES if FAMILY_INFO[f].group != "binomial"]
)
def test_closed_form_entropy_refuses_beyond_float_range(family):
    # The hole variants' normalization overflows past |alpha|^2 ~ 710; every
    # ladder family's series outgrows the log-factorial table at |alpha| = 40.
    mags = (30.0, 40.0) if FAMILY_INFO[family].hole is not None else (40.0,)
    for mag in mags:
        with pytest.raises(ConvergenceError):
            linear_entropy_closed_form(StateSpec(family, alpha=mag, chi=0.29))


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


def test_closed_form_entropy_unsupported_family():
    with pytest.raises(InvalidParameterError):
        linear_entropy_closed_form(StateSpec("Coherent", alpha=1.0))


def test_coherent_entropy_zero_iff_on_family_grid(rng):
    for family in LE_FAMILIES:
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
