"""The one normalization constant per family and the series that take N from it.

``normalization_constant_closed_form`` is held against the numeric norm of
the bare series, and the moment and entanglement-potential closed forms
built on it against their operator oracles, at small |alpha| (where
cosh(|alpha|^2) - 1 and e^{|alpha|^2} - 1 cancel), past the float range and
over random parameters.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab.core import TruncationPolicy
from focklab.exceptions import AnnihilatedStateError, ConvergenceError, FockLabError, TruncationOverflowError
from focklab.interferometry import linear_entropy, linear_entropy_closed_form
from focklab.moments import moment_oracle, moment_series
from focklab.states import (
    FAMILIES,
    FAMILY_INFO,
    StateSpec,
    build_by_composition,
    build_state,
    normalization_constant,
    normalization_constant_closed_form,
    state_distance,
)

POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-16)
ORACLE_POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-32)
HOLE_LADDER_FAMILIES = [
    name for name, info in FAMILY_INFO.items() if info.group in ("ecs", "kerr") and info.hole
]


def _assert_moment_close(value, reference):
    err = abs(value - reference)
    if abs(reference) >= 1.0:
        assert err / abs(reference) <= 1e-8
    else:
        assert err <= 1e-10


@pytest.mark.parametrize(
    "family, mag",
    [
        ("VFECS", 1e-4),
        ("VFECS", 1e-3),
        ("VFKS", 1e-9),
        ("VFKS", 1e-5),
        *[(family, mag) for family in ("PAECS", "PAKS") for mag in (1e-9, 1e-5, 1e-4, 1e-3)],
    ],
)
def test_hole_variants_at_small_alpha(family, mag):
    spec = StateSpec(family, alpha=mag * cmath.exp(0.7j), chi=0.2)
    state = build_state(spec, POLICY)
    assert normalization_constant_closed_form(spec) == pytest.approx(normalization_constant(spec), rel=1e-9)
    for order in (1, 2):
        assert abs(moment_series(spec, order, order, POLICY) - moment_oracle(state, order, order)) <= 1e-10
    assert abs(linear_entropy_closed_form(spec) - linear_entropy(state)) <= 1e-8


@pytest.mark.parametrize(
    "spec",
    [StateSpec(family, alpha=math.sqrt(720.0), chi=0.3) for family in ("ECS", "Kerr", *HOLE_LADDER_FAMILIES)]
    + [StateSpec("VFBS", p=1e-310, M=10)],
    ids=lambda spec: spec.family,
)
def test_moment_series_refuses_beyond_float_range(spec):
    # At |alpha|^2 = 720 the hole variants' 1/N^2 overflows, and at p = 1e-310
    # VFBS's 1/N^2 ~ M p is subnormal. The plain families' constants are
    # finite, and with N inside every amplitude their ladders stay in range.
    policy = TruncationPolicy(max_dim=4096)
    if spec.info.hole:
        with pytest.raises(ConvergenceError):
            normalization_constant_closed_form(spec)
        with pytest.raises(ConvergenceError):
            moment_series(spec, 1, 1, policy)
    else:
        assert moment_series(spec, 1, 1, policy) == pytest.approx(720.0, rel=1e-10)
        assert moment_series(spec, 2, 2, policy) == pytest.approx(720.0**2, rel=1e-10)


def test_ecs_moments_near_float_range_match_oracle():
    policy = TruncationPolicy(max_dim=4096)
    spec = StateSpec("ECS", alpha=math.sqrt(700.0) * cmath.exp(0.3j))
    state = build_state(spec, policy)
    for t, j in ((1, 1), (2, 2), (2, 0), (1, 3)):
        reference = moment_oracle(state, t, j)
        assert abs(moment_series(spec, t, j, policy) - reference) <= 1e-10 * abs(reference)


@pytest.mark.parametrize("family, lam", [("ECS", 712), ("PAKS", 704)])
def test_numeric_constant_refuses_overflowing_series(family, lam):
    # The undamped bare series overflows before max_dim caps it: no 0.0 or NaN constant.
    spec = StateSpec(family, alpha=math.sqrt(lam), chi=0.29)
    with pytest.raises(ConvergenceError):
        normalization_constant(spec, TruncationPolicy(max_dim=4096))


def test_numeric_constant_of_plain_kerr_past_the_undamped_float_range():
    # Plain Kerr's damping sits inside each log amplitude, so its bare series
    # stays normalized where alpha^n / sqrt(n!) alone would overflow.
    spec = StateSpec("Kerr", alpha=math.sqrt(1432), chi=0.29)
    assert normalization_constant(spec, TruncationPolicy(max_dim=4096)) == pytest.approx(1.0, abs=1e-13)


def test_numeric_constant_refuses_a_series_cut_by_max_dim():
    coherent = StateSpec("Coherent", alpha=30.0)
    with pytest.raises(TruncationOverflowError):
        normalization_constant(coherent)  # max_dim 512 cuts the bulk at 900 photons
    assert normalization_constant(coherent, TruncationPolicy(max_dim=4096)) == pytest.approx(1.0, rel=1e-10)
    # A finite expansion that exactly fills max_dim is whole, whatever its edge.
    assert normalization_constant(StateSpec("Binomial", p=1.0, M=511)) == 1.0


@pytest.mark.parametrize(
    "spec, inv_norm_sq, mean",
    [
        pytest.param(StateSpec("PADFS", alpha=30.0, n=1, added=1), 902, Fraction(408152, 451), id="PADFS-1"),
        pytest.param(
            StateSpec("PADFS", alpha=30.0, n=3, added=3), 758322120, Fraction(5854855056, 6319351), id="PADFS-3"
        ),
        pytest.param(StateSpec("PSDFS", alpha=30.0, n=1, subtracted=1), 901, Fraction(813600, 901), id="PSDFS-1"),
        pytest.param(
            StateSpec("PASDFS", alpha=30.0, n=1, added=1, subtracted=1),
            902**2 + 30**2 + 2 * 30**2,
            900 + Fraction(817204 + 60 * 81180, 816304),
            id="PASDFS-1",
        ),
    ],
)
def test_cancelled_dfs_norm_series_is_not_an_empty_state(spec, inv_norm_sq, mean):
    # a^q a†^k D(alpha)|n> never vanishes at alpha != 0, even where e^{-|alpha|^2}
    # underflows. With lam = 900 the exact values are 1/N^2 = <a^k a†^k>
    # (PADFS) or <a†^q a^q> (PSDFS) on D(alpha)|n>, and <a†a> =
    # <a^(k+1) a†^(k+1)> / <a^k a†^k> - 1 or <a†^(q+1) a^(q+1)> / <a†^q a^q>.
    # PASDFS n = k = q = 1 is D(alpha) psi with psi = (a + 30)(a† + 30)|1> =
    # 30|0> + 902|1> + 30 sqrt(2)|2>, so 1/N^2 = |psi|^2 and
    # <a†a> = 900 + (<psi|a†a|psi> + 60 Re <psi|a|psi>) / |psi|^2.
    assert normalization_constant_closed_form(spec) ** -2 == pytest.approx(inv_norm_sq, rel=1e-12)
    assert moment_series(spec, 1, 1) == pytest.approx(float(mean), rel=1e-10)


def test_subtraction_past_a_fock_state_is_empty():
    # At alpha = 0, a^q a†^k |n> is empty once q > n + k.
    for spec in (StateSpec("PSDFS", alpha=0, n=1, subtracted=2), StateSpec("PASDFS", alpha=0, added=1, subtracted=2)):
        with pytest.raises(AnnihilatedStateError):
            normalization_constant_closed_form(spec)
        with pytest.raises(AnnihilatedStateError):
            normalization_constant(spec)
        with pytest.raises(AnnihilatedStateError):
            moment_series(spec, 1, 1)
    assert normalization_constant_closed_form(StateSpec("PASDFS", alpha=0, added=1, subtracted=1)) == 1.0


@pytest.mark.parametrize(
    "spec, constant, mean",
    [
        pytest.param(StateSpec("VFECS", alpha=1e-7), 1.0 / (math.sqrt(2.0) * 1e-14), 2.0, id="VFECS"),  # ~ |2>
        pytest.param(StateSpec("VFKS", alpha=1e-13), 1e13, 1.0, id="VFKS"),  # ~ |1>
        pytest.param(StateSpec("VFBS", p=1e-25, M=5), 1.0 / math.sqrt(5e-25), 1.0, id="VFBS"),  # ~ |1>
        # a^3 |alpha> = alpha^3 |alpha>
        pytest.param(StateSpec("PSDFS", alpha=1e-5, subtracted=3), 1e15, 1e-10, id="PSDFS"),
        # a^3 a† |alpha> = alpha^2 (3 |alpha> + alpha a† |alpha>) ~ 3 |0> + 4 alpha |1>
        pytest.param(StateSpec("PASDFS", alpha=1e-7, added=1, subtracted=3), 1.0 / 3e-14, 16e-14 / 9, id="PASDFS"),
    ],
)
def test_a_small_parameter_state_is_not_empty(spec, constant, mean):
    # Each bare series has a squared norm far below any absolute floor (1e-30
    # for PSDFS) and still normalizes to a state.
    state = build_state(spec)
    assert state_distance(state, build_by_composition(spec)) <= 1e-12
    assert normalization_constant_closed_form(spec) == pytest.approx(constant, rel=1e-9)
    assert normalization_constant(spec) == pytest.approx(constant, rel=1e-9)
    assert moment_series(spec, 1, 1) == pytest.approx(mean, rel=1e-9)
    assert abs(moment_oracle(state, 1, 1) - mean) <= 1e-10


def _outcome(evaluate):
    """(value, None) from evaluate(), or (None, the class of the FockLabError it raises)."""
    try:
        return evaluate(), None
    except FockLabError as exc:
        return None, type(exc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    family=st.sampled_from(["VFECS", "VFKS", "VFBS", "PAECS", "PAKS", "PABS", "PSDFS", "PASDFS"]),
    log_mag=st.floats(min_value=-14.0, max_value=-2.0),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    chi=st.floats(min_value=-math.pi, max_value=math.pi),
    log_p=st.floats(min_value=-30.0, max_value=-2.0),
    M=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=0, max_value=3),
    added=st.integers(min_value=0, max_value=2),
    subtracted=st.integers(min_value=0, max_value=3),
)
def test_builders_and_constants_agree_at_small_parameters(family, log_mag, phase, chi, log_p, M, n, added, subtracted):
    alpha = 10.0**log_mag * cmath.exp(1j * phase)
    spec = StateSpec(family, alpha=alpha, chi=chi, p=10.0**log_p, M=M, n=n, added=added, subtracted=subtracted)
    state, built = _outcome(lambda: build_state(spec))
    composed, by_composition = _outcome(lambda: build_by_composition(spec))
    _, numeric = _outcome(lambda: normalization_constant(spec))
    _, closed = _outcome(lambda: normalization_constant_closed_form(spec))
    assert built is by_composition is numeric is closed, (built, by_composition, numeric, closed)
    if state is not None:
        assert state_distance(state, composed) <= 1e-12
        assert abs(moment_series(spec, 1, 1) - moment_oracle(state, 1, 1)) <= 1e-10


@pytest.mark.parametrize(
    "spec, error",
    [
        # 1/N^2 is subnormal: the state exists but its norm leaves the float range.
        (StateSpec("VFBS", p=1e-310, M=10), ConvergenceError),
        (StateSpec("VFECS", alpha=1e-80), ConvergenceError),
        (StateSpec("VFKS", alpha=1e-155), ConvergenceError),
        (StateSpec("PSDFS", alpha=1e-80, subtracted=2), ConvergenceError),
        # |alpha|^2 underflows to 0.0, so in float the state is empty.
        (StateSpec("VFECS", alpha=1e-200), AnnihilatedStateError),
        (StateSpec("PSDFS", alpha=1e-90, subtracted=2), AnnihilatedStateError),
    ],
    ids=lambda value: getattr(value, "family", None),
)
def test_builders_and_constants_refuse_alike_past_the_float_range(spec, error):
    for evaluate in (build_state, build_by_composition, normalization_constant, normalization_constant_closed_form):
        with pytest.raises(error):
            evaluate(spec)


def _or_none(evaluate):
    """evaluate(), or None where it refuses with a FockLabError."""
    try:
        return evaluate()
    except FockLabError:
        return None


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    log_mag=st.floats(min_value=-12.0, max_value=math.log10(30.0)),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    chi=st.floats(min_value=-math.pi, max_value=math.pi),
    p=st.floats(min_value=0.0, max_value=1.0),
    M=st.one_of(st.integers(min_value=0, max_value=40), st.integers(min_value=41, max_value=400)),
)
def test_closed_forms_are_finite_or_refused(family, log_mag, phase, chi, p, M):
    mag = 10.0**log_mag
    spec = StateSpec(family, alpha=mag * cmath.exp(1j * phase), chi=chi, p=p, M=M)
    constant = _or_none(lambda: normalization_constant_closed_form(spec))
    # Off-diagonal orders are the only ones that read the ladder's phases.
    moments = {
        order: _or_none(lambda: moment_series(spec, *order, POLICY)) for order in ((1, 1), (2, 0), (1, 3))
    }
    entropy = _or_none(lambda: linear_entropy_closed_form(spec))
    for value in (constant, *moments.values(), entropy):
        assert value is None or cmath.isfinite(value), value
    assert constant is None or constant > 0.0
    if (M > 40) if FAMILY_INFO[family].group == "binomial" else (mag > 5.0):
        return
    numeric = _or_none(lambda: normalization_constant(spec))
    if numeric is not None:
        assert constant == pytest.approx(numeric, rel=1e-9)
    # An off-diagonal moment is linear in the amplitudes, so a dropped tail of
    # mass m moves it by about sqrt(m): the oracle keeps all but 1e-32, so that
    # sqrt(m) sits far below the 1e-10 bar.
    state = _or_none(lambda: build_state(spec, ORACLE_POLICY))
    if state is None:
        return
    assert None not in moments.values() and entropy is not None
    for order, moment in moments.items():
        _assert_moment_close(moment, moment_oracle(state, *order))
    assert abs(entropy - linear_entropy(state)) <= 1e-8
