import math

import numpy as np
import pytest

from focklab.core import TruncationPolicy, make_fock, state_from_amplitudes
from focklab.exceptions import PhaseUndefinedError
from focklab.moments import moment_series
from focklab.phase import (
    barnett_pegg_fluctuations,
    fluctuation_u,
    phase_dispersion,
    phase_distribution,
    phase_distribution_closed_form,
    simpson_weights,
    theta_grid,
)
from focklab.states import StateSpec, build_state

POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-16)


def coherent(mag, phase=0.0):
    return build_state(StateSpec("Coherent", alpha=mag * np.exp(1j * phase)), POLICY)


def test_fock_phase_distribution_uniform():
    for n in (0, 1, 4):
        profile = phase_distribution(make_fock(n, 8))
        assert np.allclose(profile.density, 1.0 / (2.0 * math.pi), atol=1e-14)
        assert profile.integral_check == pytest.approx(1.0, abs=1e-8)


def test_coherent_phase_distribution_peaked_symmetric():
    profile = phase_distribution(coherent(1.0))
    peak = np.argmax(profile.density)
    assert profile.theta[peak] == pytest.approx(0.0, abs=1e-9)
    half = len(profile.theta) // 2
    for delta in (3, 40, 200):
        assert profile.density[(half + delta) % len(profile.theta)] == pytest.approx(
            profile.density[(half - delta) % len(profile.theta)], abs=1e-10
        )
    assert profile.integral_check == pytest.approx(1.0, abs=1e-8)


def test_padfs_phase_distribution_even_in_theta():
    s = build_state(StateSpec("PADFS", alpha=1.0, n=1, added=1), POLICY)
    profile = phase_distribution(s)
    n = len(profile.theta)
    half = n // 2  # index of theta = 0
    for delta in range(1, half):
        assert profile.density[(half + delta) % n] == pytest.approx(
            profile.density[(half - delta) % n], abs=1e-10
        )


def test_phase_distribution_rotates_with_displacement_phase():
    n_points = 720
    shift_steps = 180  # phase shift of exactly a quarter turn on the grid
    phi = 2.0 * math.pi * shift_steps / n_points
    base = phase_distribution(coherent(1.2, 0.0), n_points).density
    moved = phase_distribution(coherent(1.2, phi), n_points).density
    assert np.max(np.abs(moved - np.roll(base, shift_steps))) <= 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        StateSpec("Coherent", alpha=1.0),
        StateSpec("PADFS", alpha=1.0, n=1, added=1),
        StateSpec("PADFS", alpha=0.7 + 0.7j, n=2, added=2),
        StateSpec("PSDFS", alpha=0.8 + 0.3j, n=1, subtracted=1),
        StateSpec("PASDFS", alpha=0.7, n=1, added=2, subtracted=1),
        StateSpec("PASDFS", alpha=15.0, n=1, added=1, subtracted=1),
    ],
)
def test_phase_distribution_closed_form(spec):
    tight = TruncationPolicy(max_dim=512, tail_tolerance=1e-20)
    s = build_state(spec, tight)
    th = theta_grid(24)
    direct = phase_distribution(s, 24).density
    closed = phase_distribution_closed_form(spec, th)
    assert np.max(np.abs(direct - closed)) <= 1e-8


def test_simpson_weights_integrate_harmonics():
    th = theta_grid(720)
    w = simpson_weights(720)
    assert float(w @ np.ones_like(th)) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert float(w @ np.cos(th) ** 2) == pytest.approx(math.pi, rel=1e-10)


# --- dispersion --------------------------------------------------------------------

def test_dispersion_fock_unity():
    for n in (0, 3):
        assert phase_dispersion(make_fock(n, 8)) == pytest.approx(1.0, abs=1e-12)


def test_dispersion_decreases_with_amplitude():
    values = [phase_dispersion(coherent(a)) for a in (0.5, 1.0, 2.0, 3.0)]
    assert values[0] > values[1] > values[2] > values[3]


def test_dispersion_matches_exact_first_moment(rng):
    # The first circular moment of |sum c_n e^{-in theta}|^2/2pi is sum c_n conj(c_{n+1}).
    for _ in range(8):
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        s = state_from_amplitudes(raw)
        exact = 1.0 - abs(np.sum(np.conjugate(s.amplitudes[1:]) * s.amplitudes[:-1])) ** 2
        assert phase_dispersion(s) == pytest.approx(exact, abs=1e-10)


def test_dispersion_matches_first_moment_of_phase_distribution(rng):
    # On a periodic grid of more than 2 dim points the rectangle rule is exact
    # for e^{-i theta} P(theta), whose harmonics run from -dim to dim - 2.
    for dim in (1, 2, 5, 16, 40):
        s = state_from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        n_points = 2 * dim + 2
        profile = phase_distribution(s, n_points)
        first = np.sum(np.exp(-1j * profile.theta) * profile.density) * 2.0 * math.pi / n_points
        assert phase_dispersion(s) == pytest.approx(1.0 - abs(first) ** 2, abs=1e-12)


def test_dispersion_in_unit_interval(rng):
    for _ in range(10):
        s = state_from_amplitudes(rng.normal(size=12) + 1j * rng.normal(size=12))
        assert 0.0 <= phase_dispersion(s) <= 1.0


# --- Barnett-Pegg fluctuations ------------------------------------------------------

def test_u_is_half_for_coherent():
    for mag in (0.5, 1.0, 2.0):
        assert fluctuation_u(coherent(mag)) == pytest.approx(0.5, abs=1e-10)


def test_u_is_half_for_photon_subtracted_coherent():
    s = build_state(StateSpec("PSDFS", alpha=1.0, n=0, subtracted=1), POLICY)
    assert fluctuation_u(s) == pytest.approx(0.5, abs=1e-10)


def test_u_undefined_for_fock():
    with pytest.raises(PhaseUndefinedError):
        fluctuation_u(make_fock(1, 8))
    triple = barnett_pegg_fluctuations(make_fock(1, 8))
    assert triple.u is None and triple.q is None
    assert math.isfinite(triple.s)


def test_u_from_series_moments_matches_operator_path():
    # Rebuild U from the closed-form moment series and compare to the
    # ladder-oracle evaluation.
    spec = StateSpec("PADFS", alpha=1.2, n=1, added=1)
    s = build_state(spec, POLICY)
    direct = fluctuation_u(s)
    a1 = moment_series(spec, 0, 1)
    a2 = moment_series(spec, 0, 2)
    n1 = moment_series(spec, 1, 1).real
    n2 = n1 + moment_series(spec, 2, 2).real
    var_n = n2 - n1 * n1
    scale = 4.0 * (n1 + 0.5)
    sin_mean = a1.imag / math.sqrt(n1 + 0.5)
    cos_mean = a1.real / math.sqrt(n1 + 0.5)
    var_sin = (2 * n1 + 1 - 2 * a2.real) / scale - sin_mean**2
    var_cos = (2 * n1 + 1 + 2 * a2.real) / scale - cos_mean**2
    series_u = var_n * (var_sin + var_cos) / (sin_mean**2 + cos_mean**2)
    assert direct == pytest.approx(series_u, abs=1e-8)


def test_s_parameter_nonnegative(rng):
    for _ in range(10):
        s = state_from_amplitudes(rng.normal(size=14) + 1j * rng.normal(size=14))
        triple = barnett_pegg_fluctuations(s)
        assert triple.s >= -1e-12
