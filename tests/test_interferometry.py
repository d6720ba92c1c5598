import math

import numpy as np
import pytest

from focklab.core import TruncationPolicy, make_fock, state_from_amplitudes
from focklab.exceptions import InvalidParameterError, StationaryPointError
from focklab.interferometry import (
    ENTROPY_SERIES_GROUPS,
    beam_splitter_split,
    linear_entropy,
    linear_entropy_closed_form,
    phase_estimation_uncertainty,
)
from focklab.states import FAMILIES, FAMILY_INFO, StateSpec, build_state

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
