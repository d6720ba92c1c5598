import cmath
import math

import numpy as np
import pytest

from focklab.core import TruncationPolicy, apply_annihilate, apply_create
from focklab.exceptions import AnnihilatedStateError, InvalidParameterError
from focklab.moments import moment_series
from focklab.states import (
    FAMILIES,
    HOLE_AT_VACUUM,
    StateSpec,
    bare_coefficients,
    build_by_composition,
    build_state,
    displacement_coefficients,
    limiting_cases,
    normalization_constant,
    normalization_constant_closed_form,
    state_distance,
)
from focklab.verify import _random_spec as random_spec

POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_matches_composition(family, rng):
    for _ in range(20):
        spec = random_spec(rng, family)
        closed = build_state(spec, POLICY)
        composed = build_by_composition(spec, POLICY)
        assert state_distance(closed, composed) <= 1e-10


def test_every_state_is_normalized(rng):
    for family in FAMILIES:
        spec = random_spec(rng, family)
        s = build_state(spec, POLICY)
        assert s.norm == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= s.tail_mass < 1.0


@pytest.mark.parametrize("family", HOLE_AT_VACUUM)
def test_hole_at_vacuum_families(family, rng):
    spec = random_spec(rng, family)
    s = build_state(spec, POLICY)
    assert s.probabilities()[0] == 0.0


def test_padfs_net_addition_hole(rng):
    s = build_state(StateSpec("PADFS", alpha=1.0, n=0, added=2), POLICY)
    assert s.probabilities()[:2].sum() == 0.0
    s = build_state(StateSpec("PASDFS", alpha=0.7, n=1, added=2, subtracted=1), POLICY)
    assert s.probabilities()[0] == 0.0


def test_binomial_p_one_is_fock():
    s = build_state(StateSpec("Binomial", p=1.0, M=3), POLICY)
    assert np.allclose(s.amplitudes, [0, 0, 0, 1])


def test_ecs_odd_amplitudes_vanish():
    s = build_state(StateSpec("ECS", alpha=1.0), POLICY)
    assert np.all(s.amplitudes[1::2] == 0)


def test_kerr_chi_zero_is_coherent():
    kerr = build_state(StateSpec("Kerr", alpha=1.0, chi=0.0), POLICY)
    coh = build_state(StateSpec("Coherent", alpha=1.0), POLICY)
    assert state_distance(kerr, coh) <= 1e-12


def test_pasdfs_equals_ladder_composition():
    spec = StateSpec("PASDFS", alpha=0.5, n=0, added=1, subtracted=1)
    closed = build_state(spec, POLICY)
    coh = build_state(StateSpec("Coherent", alpha=0.5), POLICY)
    up, _ = apply_create(coh)
    down, _ = apply_annihilate(up)
    assert state_distance(closed, down) <= 1e-10


def test_vfecs_is_filtered_ecs():
    ecs = build_state(StateSpec("ECS", alpha=1.0), POLICY)
    raw = ecs.amplitudes.copy()
    raw[0] = 0.0
    raw /= np.linalg.norm(raw)
    vf = build_state(StateSpec("VFECS", alpha=1.0), POLICY)
    assert np.max(np.abs(vf.amplitudes[: len(raw)] - raw[: vf.dim])) <= 1e-12
    assert vf.probabilities()[0] == 0.0


def test_psdfs_from_vacuum_annihilates():
    with pytest.raises(AnnihilatedStateError):
        build_state(StateSpec("PSDFS", alpha=0, n=0, subtracted=1), POLICY)
    with pytest.raises(AnnihilatedStateError):
        build_by_composition(StateSpec("PSDFS", alpha=0, n=0, subtracted=1), POLICY)


def test_psdfs_oversubtracted_fock_annihilates():
    with pytest.raises(AnnihilatedStateError):
        build_state(StateSpec("PSDFS", alpha=0, n=1, subtracted=2), POLICY)


def test_invalid_binomial_probability():
    with pytest.raises(InvalidParameterError):
        StateSpec("Binomial", p=1.5, M=3)


def test_unknown_family_rejected():
    with pytest.raises(InvalidParameterError):
        StateSpec("Squeezed", alpha=1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"family": "Coherent", "alpha": complex(math.inf, 0.0)},
        {"family": "DFS", "alpha": complex(0.5, math.nan)},
        {"family": "Binomial", "p": math.nan, "M": 3},
        {"family": "Kerr", "alpha": 1.0, "chi": math.inf},
    ],
)
def test_non_finite_parameters_rejected(kwargs):
    with pytest.raises(InvalidParameterError, match="must be finite"):
        StateSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"family": "Fock", "n": 1.5},
        {"family": "Binomial", "p": 0.5, "M": 2.5},
        {"family": "PADFS", "alpha": 1.0, "n": 1, "added": 1.5},
    ],
)
def test_non_integer_counts_rejected(kwargs):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        StateSpec(**kwargs)


# A value for every StateSpec field; the clean spec takes the fields its
# family reads, the stray spec also sets every other field to a nonzero value.
_CLEAN = {"alpha": 1.1 * cmath.exp(0.3j), "n": 1, "added": 1, "subtracted": 1, "p": 0.4, "M": 5, "chi": 0.05}
_STRAY = {"alpha": 0.7 - 0.2j, "n": 3, "added": 2, "subtracted": 2, "p": 0.3, "M": 4, "chi": 0.1}


@pytest.mark.parametrize("family", FAMILIES)
def test_fields_a_family_does_not_read_change_nothing(family):
    fields = StateSpec(family).info.fields
    clean = StateSpec(family, **{f: v for f, v in _CLEAN.items() if f in fields})
    stray = StateSpec(family, **{f: _CLEAN[f] if f in fields else v for f, v in _STRAY.items()})
    assert np.array_equal(bare_coefficients(stray, 40), bare_coefficients(clean, 40))
    assert np.array_equal(build_state(stray, POLICY).amplitudes, build_state(clean, POLICY).amplitudes)
    for t, j in ((1, 1), (2, 1)):
        assert moment_series(stray, t, j) == moment_series(clean, t, j)


def test_limiting_case_lattice(rng):
    specs = [
        StateSpec("PADFS", alpha=1.0, n=2),
        StateSpec("PSDFS", alpha=0.8 + 0.4j, n=1),
        StateSpec("PASDFS", alpha=1.2, n=0),
        StateSpec("DFS", alpha=0.9j, n=0),
        StateSpec("DFS", alpha=0, n=3),
        StateSpec("Coherent", alpha=0),
        StateSpec("Kerr", alpha=1.1, chi=0.0),
        StateSpec("Binomial", p=1.0, M=3),
        StateSpec("PADFS", alpha=1.4, n=1, added=2),
        StateSpec("PSDFS", alpha=2.0, n=2, subtracted=1),
    ]
    checked = 0
    for spec in specs:
        for reduced in limiting_cases(spec):
            a = build_state(spec, POLICY)
            b = build_state(reduced, POLICY)
            assert state_distance(a, b) <= 1e-12, (spec, reduced)
            checked += 1
    assert checked >= 10


def test_vacuum_limit():
    s = build_state(StateSpec("PADFS", alpha=0, n=0, added=0), POLICY)
    assert abs(s.amplitudes[0]) == pytest.approx(1.0)


def test_coherent_mean_photon_number(rng):
    for mag in (0.5, 1.0, 2.0, 3.0):
        s = build_state(StateSpec("Coherent", alpha=mag), TruncationPolicy(tail_tolerance=1e-16))
        assert s.mean_photon_number() == pytest.approx(mag * mag, abs=1e-10)


# --- displacement coefficients -------------------------------------------------

def test_displacement_identity():
    c = displacement_coefficients(0.0, 2, 4)
    assert np.allclose(c, [0, 0, 1, 0], atol=1e-15)


def test_displacement_of_vacuum_is_coherent():
    c = displacement_coefficients(1.0, 0, 12)
    expected = [math.exp(-0.5) / math.sqrt(math.factorial(n)) for n in range(12)]
    assert np.allclose(c, expected, atol=1e-14)


def test_displacement_single_matrix_element():
    c = displacement_coefficients(1.0, 1, 10)
    assert c[0] == pytest.approx(-math.exp(-0.5), abs=1e-12)


def test_displacement_against_matrix_exponential():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    dim = 40
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    for alpha, n in ((1.0, 1), (0.6 - 0.8j, 2), (1.5j, 0)):
        generator = alpha * a.conj().T - np.conjugate(alpha) * a
        dmat = scipy_linalg.expm(generator)
        expected = dmat[:, n]
        got = displacement_coefficients(alpha, n, dim)
        assert np.max(np.abs(got[:30] - expected[:30])) <= 1e-10


# --- normalization constants ---------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_normalization_closed_forms(family, rng):
    for _ in range(6):
        spec = random_spec(rng, family)
        closed = normalization_constant_closed_form(spec)
        if closed is None:  # PASDFS normalization is derived numerically only
            assert family == "PASDFS"
            continue
        numeric = normalization_constant(spec)
        assert numeric == pytest.approx(closed, rel=1e-9)


def test_pasdfs_normalization_is_numeric_only():
    spec = StateSpec("PASDFS", alpha=1.0, n=1, added=2, subtracted=1)
    assert normalization_constant_closed_form(spec) is None
    s = build_state(spec, POLICY)
    assert s.norm == pytest.approx(1.0, abs=1e-12)


def test_alpha_phase_convention():
    spec = StateSpec("Coherent", alpha=2.0 * cmath.exp(1j * 0.7))
    assert spec.alpha_mag == pytest.approx(2.0)
    assert spec.alpha_phase == pytest.approx(0.7)
    assert StateSpec("Coherent", alpha=0).alpha_phase == 0.0
