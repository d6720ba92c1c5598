import numpy as np

from focklab import witnesses
from focklab.verify import (
    check_hong_mandel_dual_path,
    check_hosps_central_moments,
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
