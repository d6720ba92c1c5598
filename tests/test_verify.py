import math

import numpy as np
import pytest

from focklab import witnesses
from focklab.interferometry import linear_entropy, linear_entropy_closed_form
from focklab.moments import moment_oracle, moment_series
from focklab.states import (
    FAMILIES,
    StateSpec,
    build_by_composition,
    build_state,
    limiting_cases,
    normalization_constant,
    normalization_constant_closed_form,
    state_distance,
)
from focklab.verify import (
    _ORACLE_POLICY,
    _STATE_POLICY,
    ALL_CHECKS,
    _random_spec,
    _result,
    check_entropy_closed_forms,
    check_hong_mandel_dual_path,
    check_hosps_central_moments,
    check_limiting_cases,
    check_moment_series,
    check_normalization_constants,
    check_state_oracle_equivalence,
    run_verification,
)


def test_reports_are_deterministic_per_seed():
    a = run_verification(11)
    b = run_verification(11)
    assert a == b


def test_pass_pattern_stable_across_seeds():
    # Different seeds probe different points but the same checks must pass.
    a = run_verification(7)
    b = run_verification(42)
    assert [c.name for c in a.checks] == [c.name for c in b.checks]
    assert [c.passed for c in a.checks] == [c.passed for c in b.checks]
    assert all(c.passed for c in a.checks)
    # and they really did sample different points
    assert any(
        ca.max_abs_error != cb.max_abs_error for ca, cb in zip(a.checks, b.checks)
    )


def test_injected_sign_error_is_caught(monkeypatch):
    # Corrupt one term family of the sub-Poissonian double sum; the
    # central-moment cross-check must go red. (The coherent-boundary grid
    # cannot see this class of error: every corrupted term carries an
    # antibunching factor that vanishes identically on coherent states.)
    true_stirling = witnesses.stirling2.__wrapped__

    def corrupted(n, k):
        value = true_stirling(n, k)
        return -value if (n, k) == (3, 2) else value

    monkeypatch.setattr(witnesses, "stirling2", corrupted)
    result = check_hosps_central_moments(np.random.default_rng(0), n_states=5)
    assert not result.passed


def test_injected_quadrature_error_is_caught(monkeypatch):
    original = witnesses.double_factorial

    def corrupted(n):
        return original(n) + (1 if n == 3 else 0)

    # The coefficient tables are cached per order: drop them when the patch
    # goes on, so the corrupted factor reaches the sum, and again when it
    # comes off, so no later test reads a corrupted table.
    try:
        with monkeypatch.context() as patch:
            patch.setattr(witnesses, "double_factorial", corrupted)
            witnesses._central_moment_terms.cache_clear()
            result = check_hong_mandel_dual_path(np.random.default_rng(0), n_states=5)
    finally:
        witnesses._central_moment_terms.cache_clear()
    assert not result.passed


# --- batched builds against the per-spec loop ----------------------------------------


def _oracle_equivalence_alone(rng, points_per_family=20):
    worst, count = 0.0, 0
    for family in FAMILIES:
        for _ in range(points_per_family):
            spec = _random_spec(rng, family)
            closed = build_state(spec, _STATE_POLICY)
            worst = max(worst, state_distance(closed, build_by_composition(spec, _STATE_POLICY)))
            count += 1
    return _result("state-factory closed form vs operator composition", worst, worst, 1e-10, count)


def _moment_series_alone(rng, n_points=200):
    worst_metric = worst_abs = 0.0
    for _ in range(n_points):
        spec = _random_spec(rng, FAMILIES[int(rng.integers(0, len(FAMILIES)))])
        t, j = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        reference = moment_oracle(build_state(spec, _ORACLE_POLICY), t, j)
        abs_err = abs(moment_series(spec, t, j, _ORACLE_POLICY) - reference)
        worst_abs = max(worst_abs, abs_err)
        worst_metric = max(worst_metric, abs_err / abs(reference) if abs(reference) >= 1.0 else abs_err * 100.0)
    return _result("moment series vs ladder oracle", worst_abs, worst_metric, 1e-8, n_points, rel=True)


def _entropy_closed_forms_alone(rng, points_per_family=5):
    worst, count = 0.0, 0
    for family in FAMILIES:
        for _ in range(points_per_family):
            spec = _random_spec(rng, family)
            worst = max(worst, abs(linear_entropy(build_state(spec, _ORACLE_POLICY)) - linear_entropy_closed_form(spec)))
            count += 1
    return _result("linear entropy closed form vs partial trace", worst, worst, 1e-8, count)


def _normalization_constants_alone(rng, points_per_family=6):
    worst, count = 0.0, 0
    for family in FAMILIES:
        for _ in range(points_per_family):
            spec = _random_spec(rng, family)
            closed = normalization_constant_closed_form(spec)
            worst = max(worst, abs(normalization_constant(spec) - closed) / closed)
            count += 1
    return _result("analytic normalization constants", worst, worst, 1e-9, count)


def _limiting_cases_alone(rng, n_points=24):
    seeds = [
        StateSpec("PADFS", alpha=1.0, n=2),
        StateSpec("PSDFS", alpha=0.8 + 0.4j, n=1),
        StateSpec("PASDFS", alpha=1.2, n=0),
        StateSpec("DFS", alpha=0.9j, n=0),
        StateSpec("DFS", alpha=0, n=3),
        StateSpec("Coherent", alpha=0),
        StateSpec("Kerr", alpha=1.1, chi=0.0),
        StateSpec("Binomial", p=1.0, M=3),
    ]
    for _ in range(n_points):
        family = ("PADFS", "PSDFS")[int(rng.integers(0, 2))]
        alpha = rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        seeds.append(StateSpec(family, alpha=alpha, n=int(rng.integers(0, 3))))
    worst, count = 0.0, 0
    for spec in seeds:
        a = build_state(spec, _STATE_POLICY)
        for reduced in limiting_cases(spec):
            worst = max(worst, state_distance(a, build_state(reduced, _STATE_POLICY)))
            count += 1
    return _result("limiting-case reduction lattice", worst, worst, 1e-12, count)


@pytest.mark.parametrize("seed", [42, 2011])
@pytest.mark.parametrize(
    "check, alone",
    [
        (check_state_oracle_equivalence, _oracle_equivalence_alone),
        (check_moment_series, _moment_series_alone),
        (check_entropy_closed_forms, _entropy_closed_forms_alone),
        (check_normalization_constants, _normalization_constants_alone),
        (check_limiting_cases, _limiting_cases_alone),
    ],
    ids=lambda f: f.__name__,
)
def test_batched_check_matches_building_each_spec_alone(check, alone, seed):
    # Each check draws its points first and builds them (or composes them, or
    # their ladders, or their bare series) in one batch; a loop that computes
    # each spec alone as it draws it must report the same floats.
    index = ALL_CHECKS.index(check)  # run_verification seeds each check's generator by its place
    batched = check(np.random.default_rng([seed, index]))
    reference = alone(np.random.default_rng([seed, index]))
    assert batched == reference
    assert batched.points > 0
