import math

import numpy as np
import pytest

from focklab.core import TruncationPolicy, make_fock
from focklab.exceptions import InvalidParameterError, TruncationUnsafeError
from focklab.moments import moment_oracle, moment_series
from focklab.states import FAMILIES, StateSpec, build_state

from test_states import random_spec

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
        for t, j in ((1, 1), (2, 0), (1, 3), (4, 4)):
            reference = moment_oracle(s, t, j)
            value = moment_series(spec, t, j, POLICY)
            err = abs(value - reference)
            if abs(reference) >= 1.0:
                assert err / abs(reference) <= 1e-8, (spec, t, j)
            else:
                assert err <= 1e-10, (spec, t, j)


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


def test_moment_order_cap():
    with pytest.raises(InvalidParameterError):
        moment_oracle(make_fock(1, 40), 9, 8)
    with pytest.raises(InvalidParameterError):
        moment_series(StateSpec("Coherent", alpha=1.0), 9, 8)


def test_truncation_unsafe_detection():
    # A state chopped hard at the cap cannot support high-order moments.
    hot = build_state(
        StateSpec("Coherent", alpha=3.0), TruncationPolicy(max_dim=12, tail_tolerance=1e-12)
    )
    assert hot.tail_mass > 1e-6
    with pytest.raises(TruncationUnsafeError):
        moment_oracle(hot, 4, 4)
