"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion; the assertions enforce the same bounds either way.
"""

import math
import time
from functools import lru_cache

import numpy as np

from focklab.core import TruncationPolicy, make_fock, state_from_amplitudes
from focklab.interferometry import (
    linear_entropy,
    linear_entropy_closed_form,
    phase_estimation_uncertainty,
)
from focklab.moments import moment_oracle, moment_series
from focklab.phase import phase_dispersion, phase_distribution
from focklab.quasiprob import phase_space_grid, q_function
from focklab.states import (
    FAMILIES,
    StateSpec,
    build_by_composition,
    build_state,
    state_distance,
)
from focklab.verify import _random_spec, run_verification
from focklab.witnesses import (
    agarwal_tara_a3,
    antibunching_d,
    hosps,
    klyshko_b,
    mandel_q,
    quadrature_central_moment,
)
from focklab.phase import fluctuation_u

TIGHT = TruncationPolicy(max_dim=512, tail_tolerance=1e-16)
GRID_POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-14)
SEED = 42


def report(criterion: str, passed: bool, elapsed: float, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({elapsed:.2f} s)"
    if detail:
        line += f" {detail}"
    print(line)


@lru_cache(maxsize=1)
def family_grid():
    """15 families x 20 seeded random points, with both construction routes."""
    rng = np.random.default_rng([SEED, 1])
    grid = []
    for family in FAMILIES:
        for _ in range(20):
            spec = _random_spec(rng, family)
            grid.append((spec, build_state(spec, GRID_POLICY), build_by_composition(spec, GRID_POLICY)))
    return grid


@lru_cache(maxsize=1)
def point_value_states():
    states = {f"fock{n}": make_fock(n, n + 4) for n in range(6)}
    for mag in (0.5, 1.0, 2.0):
        states[f"coherent{mag}"] = build_state(StateSpec("Coherent", alpha=mag), TIGHT)
    states["psdfs"] = build_state(StateSpec("PSDFS", alpha=1.0, n=0, subtracted=1), TIGHT)
    return states


@lru_cache(maxsize=1)
def entropy_grid():
    rng = np.random.default_rng([SEED, 4])
    grid = []
    for family in FAMILIES:
        for _ in range(5):
            spec = _random_spec(rng, family)
            grid.append((spec, build_state(spec, TIGHT)))
    return grid


@lru_cache(maxsize=1)
def random_vectors():
    rng = np.random.default_rng([SEED, 5])
    states = []
    for _ in range(30):
        dim = int(rng.integers(8, 28))
        states.append(state_from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim)))
    return states


def test_criterion_1_analytic_point_values():
    t0 = time.monotonic()
    failures = []

    def check(label, value, expected, tol=1e-8):
        if not abs(value - expected) <= tol:
            failures.append(f"{label}: {value} != {expected} +- {tol}")

    states = point_value_states()
    check("Q_M(|1>)", mandel_q(states["fock1"]).value, -1.0)
    check("Q_M(coherent)", mandel_q(states["coherent1.0"]).value, 0.0)
    for n in (0, 1):
        check(f"A3(|{n}>)", agarwal_tara_a3(states[f"fock{n}"]).value, 0.0)
    for n in (2, 3, 4):
        check(f"A3(|{n}>)", agarwal_tara_a3(states[f"fock{n}"]).value, -1.0)
    for mag in (0.5, 1.0, 2.0):
        check(f"U(coherent {mag})", fluctuation_u(states[f"coherent{mag}"]), 0.5)
    check("U(PSDFS 1,0,1)", fluctuation_u(states["psdfs"]), 0.5)
    for n in (0, 2, 5):
        profile = phase_distribution(states[f"fock{n}"])
        check(f"max|P_theta(|{n}>)-1/2pi|", float(np.max(np.abs(profile.density - 1 / (2 * math.pi)))), 0.0)
        check(f"D(|{n}>)", phase_dispersion(states[f"fock{n}"]), 1.0)
    for m in range(6):
        check(f"B({m}) coherent", klyshko_b(states["coherent1.0"], m).value, 0.0)
    if not linear_entropy(states["coherent2.0"]) <= 1e-10:
        failures.append("L(coherent) > 1e-10")
    check("L(|1>)", linear_entropy(states["fock1"]), 0.5)

    elapsed = time.monotonic() - t0
    passed = not failures and elapsed < 5.0
    report("1 (analytic point values, < 5 s)", passed, elapsed, "; ".join(failures))
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for _spec, closed, composed in family_grid():
        worst = max(worst, state_distance(closed, composed))
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-10 and elapsed < 30.0
    report("2 (build_state vs composition <= 1e-10, < 30 s)", passed, elapsed, f"max={worst:.2e}")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_moment_series_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng([SEED, 3])
    worst = 0.0
    for _ in range(200):
        family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
        spec = _random_spec(rng, family)
        t, j = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        state = build_state(spec, TIGHT)
        reference = moment_oracle(state, t, j)
        value = moment_series(spec, t, j, TIGHT)
        err = abs(value - reference)
        worst = max(worst, err / abs(reference) if abs(reference) >= 1.0 else err * 1e2)
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-8 and elapsed < 30.0
    report("3 (moment series vs oracle <= 1e-8 rel, < 30 s)", passed, elapsed, f"max={worst:.2e}")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_4_entropy_closed_forms():
    t0 = time.monotonic()
    worst = 0.0
    for spec, state in entropy_grid():
        worst = max(worst, abs(linear_entropy(state) - linear_entropy_closed_form(spec)))
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-8 and elapsed < 60.0
    report("4 (entropy closed forms <= 1e-8, < 60 s)", passed, elapsed, f"max={worst:.2e}")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_5_hong_mandel_dual_path():
    t0 = time.monotonic()
    worst = 0.0
    for state in random_vectors():
        for l in (2, 4, 6):
            a = quadrature_central_moment(state, l, "normal-ordered")
            b = quadrature_central_moment(state, l, "binomial")
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-8
    report("5 (Hong-Mandel dual paths <= 1e-8)", passed, elapsed, f"max={worst:.2e}")
    assert worst <= 1e-8


def test_criterion_6_figure_shapes():
    t0 = time.monotonic()
    failures = []

    d_values = [
        antibunching_d(build_state(StateSpec("PADFS", alpha=0.4, n=1, added=u), TIGHT), 2).value
        for u in (1, 2, 3)
    ]
    if not d_values[0] > d_values[1] > d_values[2]:
        failures.append(f"(a) d(1) not strictly decreasing in u: {d_values}")

    dispersion = [
        phase_dispersion(build_state(StateSpec("Coherent", alpha=a), TIGHT))
        for a in (0.5, 1.0, 2.0, 3.0)
    ]
    if not all(x > y for x, y in zip(dispersion, dispersion[1:])):
        failures.append(f"(b) dispersion not strictly decreasing: {dispersion}")

    order = [linear_entropy_closed_form(StateSpec(f, alpha=1.0)) for f in ("VFECS", "PAECS", "ECS")]
    if not order[0] > order[1] > order[2]:
        failures.append(f"(c) entanglement ordering broken: {order}")

    # (d) HOSPS sign pattern at the sampled photon-added-then-subtracted points,
    # with the witness's own order label (order = l - 1): negative at odd
    # order l = 4, non-negative at even order l = 3.
    signs = []
    for added, subtracted, alpha in ((1, 1, 0.5), (2, 1, 0.5), (1, 2, 0.5), (2, 2, 0.8)):
        state = build_state(StateSpec("PASDFS", alpha=alpha, n=1, added=added, subtracted=subtracted), TIGHT)
        h3, h4 = hosps(state, 3).value, hosps(state, 4).value
        signs.append((h3, h4))
        if not (h4 < 0.0 <= h3):
            failures.append(f"(d) HOSPS signs off at k={added},q={subtracted},a={alpha}: l3={h3}, l4={h4}")

    dphi = phase_estimation_uncertainty(build_state(StateSpec("Coherent", alpha=2.0), TIGHT), math.pi / 2)
    if not abs(dphi - 0.5) <= 1e-8:
        failures.append(f"(e) dphi(coherent 2, pi/2) = {dphi} != 0.5")

    elapsed = time.monotonic() - t0
    report(
        "6 (figure-shape reproductions)",
        not failures,
        elapsed,
        "; ".join(failures) if failures else f"HOSPS(l3,l4)={signs[0]}",
    )
    assert not failures, failures


def test_criterion_7_normalization_positivity_sweeps():
    t0 = time.monotonic()
    failures = []
    touched = [state for _, state, _ in family_grid()]
    touched += [state for _, state in entropy_grid()]
    touched += list(point_value_states().values())
    touched += random_vectors()

    for state in touched:
        if abs(state.norm - 1.0) > 1e-12:
            failures.append(f"norm off by {abs(state.norm - 1.0):.2e} (dim={state.dim})")
            break

    rng = np.random.default_rng([SEED, 7])
    q_sample = [touched[int(i)] for i in rng.integers(0, len(touched), size=60)]
    for state in q_sample:
        n_angles = max(128, 2 * state.dim + 32)
        grid = phase_space_grid(state, n_angles=n_angles, n_radial=128)
        q = q_function(state, grid.beta_samples)
        if np.any(q < 0.0):
            failures.append("negative Q value")
            break
        total = float(np.dot(q, grid.weights))
        if abs(total - 1.0) > 1e-6:
            failures.append(f"Q mass {total} off unity")
            break
    for state in q_sample:
        profile = phase_distribution(state)
        if abs(profile.integral_check - 1.0) > 1e-8:
            failures.append(f"P_theta mass {profile.integral_check} off unity")
            break

    elapsed = time.monotonic() - t0
    report("7 (normalization/positivity sweeps)", not failures, elapsed, "; ".join(failures))
    assert not failures, failures


def test_criterion_8_verify_seed_42():
    t0 = time.monotonic()
    report_42 = run_verification(42)
    elapsed = time.monotonic() - t0
    names = {check.name for check in report_42.checks}
    passed = report_42.all_passed and len(names) >= 5
    detail = f"{len(names)} categories, all_passed={report_42.all_passed}"
    report("8 (verify --seed 42)", passed, elapsed, detail)
    assert len(names) >= 5
    assert report_42.all_passed


def test_cli_verify_exit_code_seed_42():
    from focklab.cli import main

    assert main(["verify", "--seed", "42"]) == 0
