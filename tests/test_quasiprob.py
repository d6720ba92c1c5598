import cmath
import csv
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from focklab import states
from focklab.config import DumpConfig
from focklab.core import TruncationPolicy, make_fock, state_from_amplitudes
from focklab.harness import dump_state
from focklab.phase import theta_grid
from focklab.quasiprob import (
    _gauss_legendre,
    angular_q,
    phase_space_grid,
    q_function,
    q_function_closed_form,
    q_integral,
    radial_nodes,
)
from focklab.states import StateSpec, build_state

POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-16)

# (spec, angles, radial) grids for the polar-kernel oracle tests. The
# |alpha| = 15 PASDFS state has dim > 300, so 90 angles exercise the
# folding of the Fock index mod the angle count.
POLAR_CASES = [
    (StateSpec("PADFS", alpha=1j, n=1, added=1), 360, 96),
    (StateSpec("ECS", alpha=3.0 * cmath.exp(0.3j)), 120, 48),
    (StateSpec("Kerr", alpha=8.0 * cmath.exp(2.1j), chi=0.03), 360, 128),
    (StateSpec("PASDFS", alpha=15.0 * cmath.exp(-1.2j), n=1, added=1, subtracted=1), 90, 64),
]


def angular_q_by_angle(s, n_angles, n_radial):
    """Radius-integrated Q from one q_function call per angle: the oracle."""
    _, r, wr = radial_nodes(s, n_radial)
    return np.array([np.dot(q_function(s, r * np.exp(1j * a)), r * wr) for a in theta_grid(n_angles)])


def test_q_vacuum_at_origin():
    assert q_function(make_fock(0, 4), 0.0) == pytest.approx(1.0 / math.pi)


def test_q_fock1_zero_at_origin():
    assert q_function(make_fock(1, 4), 0.0) == pytest.approx(0.0, abs=1e-30)


def test_q_coherent_on_its_center():
    s = build_state(StateSpec("Coherent", alpha=1.0), POLICY)
    assert q_function(s, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_q_nonnegative_everywhere(rng):
    s = state_from_amplitudes(rng.normal(size=20) + 1j * rng.normal(size=20))
    grid = phase_space_grid(s, n_angles=90, n_radial=60)
    assert np.all(q_function(s, grid.beta_samples) >= 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        StateSpec("Coherent", alpha=1.0),
        StateSpec("ECS", alpha=2.0),
        StateSpec("PADFS", alpha=1.0, n=1, added=1),
        StateSpec("Fock", n=3),
    ],
)
def test_q_total_mass(spec):
    s = build_state(spec, POLICY)
    assert q_integral(s) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "spec",
    [
        StateSpec("PADFS", alpha=1.0, n=1, added=1),
        StateSpec("PADFS", alpha=0.8 + 0.6j, n=2, added=2),
        StateSpec("PSDFS", alpha=1.0 + 0.5j, n=2, subtracted=1),
        StateSpec("DFS", alpha=1.3, n=1),
        StateSpec("Coherent", alpha=0.9),
        StateSpec("PASDFS", alpha=0.7 + 0.2j, n=1, added=2, subtracted=1),
        StateSpec("DFS", alpha=3.0 * cmath.exp(0.5j), n=25),
        StateSpec("PSDFS", alpha=2.0 - 1.0j, n=40, subtracted=2),
        StateSpec("Fock", n=3),
        StateSpec("ECS", alpha=1.5 * cmath.exp(0.4j)),
        StateSpec("VFECS", alpha=6.0 * cmath.exp(-2.0j)),
        StateSpec("PAECS", alpha=1.2j),
        StateSpec("Binomial", p=0.4, M=7),
        StateSpec("VFBS", p=0.7, M=40),
        StateSpec("PABS", p=0.3, M=9),
        StateSpec("Kerr", alpha=1.4, chi=0.2),
        StateSpec("VFKS", alpha=1.1 * cmath.exp(1.2j), chi=0.27),
        StateSpec("PAKS", alpha=5.0 * cmath.exp(0.7j), chi=-1.3),
    ],
)
def test_q_closed_form_matches_direct(spec, monkeypatch):
    s = build_state(spec, TruncationPolicy(max_dim=512, tail_tolerance=1e-20))
    # From an empty hold, the five beta of one spec run one kernel pass.
    passes = []
    bare = states._bare_log_amplitudes
    monkeypatch.setattr(states, "_bare_log_amplitudes", lambda *args: passes.append(args) or bare(*args))
    monkeypatch.setattr(states, "_held", None)
    for beta in (0.0, 0.4 - 0.3j, 1.0, -1.2j, 2.0 + 1.0j):
        assert q_function_closed_form(spec, beta) == pytest.approx(
            float(q_function(s, beta)), abs=1e-8
        )
    assert len(passes) == 1


def test_angular_q_uniform_for_fock():
    for n in (0, 2):
        profile = angular_q(make_fock(n, 6), n_angles=180, n_radial=96)
        assert np.allclose(profile.density, 1.0 / (2.0 * math.pi), atol=1e-9)
        assert profile.integral_check == pytest.approx(1.0, abs=1e-6)


def test_angular_q_peaks_at_displacement_phase():
    s = build_state(StateSpec("PADFS", alpha=1j, n=1, added=1), POLICY)
    profile = angular_q(s, n_angles=360, n_radial=96)
    assert profile.theta[np.argmax(profile.density)] == pytest.approx(math.pi / 2, abs=0.02)
    assert profile.integral_check == pytest.approx(1.0, abs=1e-6)


def test_angular_q_mirror_symmetry_about_theta2():
    # theta2 = pi/2 sits on the grid when the angle count is a multiple of 4.
    n_angles = 360
    s = build_state(StateSpec("DFS", alpha=1j, n=1), POLICY)
    profile = angular_q(s, n_angles=n_angles, n_radial=96)
    center = np.argmin(np.abs(profile.theta - math.pi / 2))
    for delta in (1, 5, 20, 60):
        left = profile.density[(center - delta) % n_angles]
        right = profile.density[(center + delta) % n_angles]
        assert left == pytest.approx(right, abs=1e-8)


def test_angular_q_global_phase_invariant(rng):
    raw = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = state_from_amplitudes(raw)
    rotated = state_from_amplitudes(raw * np.exp(1j * 0.737))
    a = angular_q(s, n_angles=90, n_radial=64)
    b = angular_q(rotated, n_angles=90, n_radial=64)
    assert np.max(np.abs(a.density - b.density)) <= 1e-12


@pytest.mark.parametrize("spec, n_angles, n_radial", POLAR_CASES)
def test_angular_q_matches_per_angle_oracle(spec, n_angles, n_radial):
    s = build_state(spec, POLICY)
    reference = angular_q_by_angle(s, n_angles, n_radial)
    profile = angular_q(s, n_angles, n_radial)
    assert np.max(np.abs(profile.density - reference)) <= 1e-12 * np.max(reference)


@pytest.mark.parametrize(
    "spec, n_angles, n_radial",
    POLAR_CASES + [(StateSpec("PADFS", alpha=2.0 + 1.0j, n=2, added=1), 361, 40)],
)
def test_husimi_q_dump_matches_q_function(tmp_path, spec, n_angles, n_radial):
    out = tmp_path / "q.csv"
    dump_state(DumpConfig(spec, POLICY, str(out), "husimi_q", n_angles, n_radial))
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["re_beta", "im_beta", "q"]
    values = np.array([[float(cell) for cell in row] for row in rows[1:]])
    s = build_state(spec, POLICY)
    grid = phase_space_grid(s, n_angles=n_angles, n_radial=n_radial)
    reference = q_function(s, grid.beta_samples)
    assert np.array_equal(values[:, 0] + 1j * values[:, 1], grid.beta_samples)
    assert np.max(np.abs(values[:, 2] - reference)) <= 1e-12 * np.max(reference)


def test_radial_nodes_read_a_read_only_cache():
    s = build_state(StateSpec("Coherent", alpha=1.5), POLICY)
    _, r1, w1 = radial_nodes(s, 37)
    _, r2, w2 = radial_nodes(s, 37)
    assert np.array_equal(r1, r2) and np.array_equal(w1, w2)
    x, w = _gauss_legendre(37)
    assert all(np.array_equal(a, b) for a, b in zip((x, w), leggauss(37)))
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    r1[:] = -1.0  # the returned nodes are the caller's own arrays
    w1[:] = -1.0
    _, r3, w3 = radial_nodes(s, 37)
    assert np.array_equal(r3, r2) and np.array_equal(w3, w2)
