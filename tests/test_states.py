import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focklab import core, oracle, states
from focklab.core import StateVector, TruncationPolicy, apply_annihilate, apply_create
from focklab.exceptions import (
    AnnihilatedStateError,
    ConvergenceError,
    FockLabError,
    InvalidParameterError,
    TruncationOverflowError,
    TruncationUnsafeError,
)
from focklab.moments import moment_oracle, moment_series, moment_sums
from focklab.states import (
    FAMILIES,
    HOLE_AT_VACUUM,
    StateSpec,
    bare_coefficients,
    build_by_composition,
    build_state,
    build_states,
    compositions,
    displacement_coefficients,
    ladder_log_amplitudes,
    ladders,
    limiting_cases,
    normalization_constant,
    normalization_constant_closed_form,
    normalization_constants,
    state_distance,
)
from focklab.states import _cut
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


@pytest.mark.parametrize(
    "spec, max_dim, error",
    [
        # max_dim cuts both series while they still grow; every term it keeps
        # underflows, so the norm alone would read as an empty state.
        (StateSpec("Coherent", alpha=30.0), 512, TruncationOverflowError),
        (StateSpec("Binomial", p=0.5, M=10**6), 512, TruncationOverflowError),
        (StateSpec("Fock", n=600), 512, TruncationOverflowError),
        # One photon added to a binomial of M = 0 is |1>, past a max_dim of 1.
        (StateSpec("PABS", p=0.3, M=0), 1, TruncationOverflowError),
        # Over-subtraction is empty whatever the basis, even one cut at max_dim.
        (StateSpec("PSDFS", alpha=0, n=1, subtracted=2), 512, AnnihilatedStateError),
        (StateSpec("PSDFS", alpha=0, n=1, subtracted=2), 8, AnnihilatedStateError),
    ],
    ids=["coherent-30", "binomial-1e6", "fock-600", "pabs-m0-at-max-dim-1", "psdfs-empty", "psdfs-empty-at-max-dim"],
)
def test_error_class_of_a_series_cut_or_emptied(spec, max_dim, error):
    policy = TruncationPolicy(max_dim=max_dim)
    with pytest.raises(error):
        build_state(spec, policy)
    with pytest.raises(error):
        normalization_constant(spec, policy)


@pytest.mark.parametrize(
    "family, lam",
    [("ECS", 712), ("VFECS", 712), ("VFKS", 712), ("PAECS", 704), ("PAKS", 704)],
)
def test_overflowing_bare_series_is_refused(family, lam):
    # The squared norm of the undamped series leaves the float range before
    # max_dim caps the basis.
    policy = TruncationPolicy(max_dim=4096, tail_tolerance=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            build_state(StateSpec(family, alpha=math.sqrt(lam), chi=0.29), policy)


def test_plain_kerr_builds_past_the_undamped_float_range():
    # Plain Kerr's bare series carries e^{-|alpha|^2/2} inside each log
    # amplitude, so at |alpha|^2 = 1432, where alpha^n / sqrt(n!) alone
    # overflows, it builds: |c_n| is the coherent state's, and <a†a> from the
    # closed-form ladder agrees with the oracle on the built vector.
    policy = TruncationPolicy(max_dim=4096, tail_tolerance=1e-12)
    spec = StateSpec("Kerr", alpha=math.sqrt(1432), chi=0.29)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kerr = build_state(spec, policy)
    coherent = build_state(StateSpec("Coherent", alpha=math.sqrt(1432)), policy)
    assert kerr.dim == coherent.dim
    assert np.max(np.abs(np.abs(kerr.amplitudes) - np.abs(coherent.amplitudes))) <= 1e-16
    reference = moment_oracle(kerr, 1, 1)
    assert abs(moment_series(spec, 1, 1) - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("family", ["Coherent", "PADFS", "Kerr"])
def test_build_past_4096_states(family):
    # |alpha| = 60 needs about 4031 states; the log-factorials grow with the basis.
    s = build_state(StateSpec(family, alpha=60.0, n=1, added=1, chi=0.1), TruncationPolicy(max_dim=8192))
    assert 4000 <= s.dim <= 4096 + 64
    assert s.norm == pytest.approx(1.0, abs=1e-12)


def test_ecs_past_the_float_range_is_refused_at_a_large_max_dim():
    with pytest.raises(ConvergenceError):
        build_state(StateSpec("ECS", alpha=60.0), TruncationPolicy(max_dim=8192))


def test_ecs_just_inside_float_range_builds():
    s = build_state(StateSpec("ECS", alpha=math.sqrt(700)), TruncationPolicy(max_dim=4096))
    assert s.norm == pytest.approx(1.0, abs=1e-12)


def test_composed_dfs_past_the_factorial_float_range_is_refused():
    # sqrt(n!) is formed from n! as a float, which overflows from n = 171.
    with pytest.raises(ConvergenceError, match="171!"):
        build_by_composition(StateSpec("DFS", alpha=0.5, n=171))


@pytest.mark.parametrize(
    "spec",
    [StateSpec("DFS", alpha=38.0, n=170), StateSpec("DFS", alpha=40.0, n=170), StateSpec("PASDFS", alpha=45.0, n=150, added=3, subtracted=2)],
    ids=["norm-overflows", "recurrence-overflows", "ladder-steps-overflow"],
)
def test_composed_dfs_past_the_float_range_is_refused_without_a_warning(spec):
    # The composed amplitudes (or only their squared norm) leave the float
    # range; PASDFS at |alpha| = 45 needs more than 4096 states, so max_dim is 8192.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="float range"):
            build_by_composition(spec, TruncationPolicy(8192))


@pytest.mark.parametrize(
    "spec, error",
    [
        (StateSpec("Coherent", alpha=100.0), TruncationOverflowError),
        (StateSpec("DFS", alpha=100.0, n=150), TruncationOverflowError),
        (StateSpec("ECS", alpha=100.0), ConvergenceError),
    ],
    ids=["coherent", "dfs-150", "ecs"],
)
def test_composition_cut_away_by_max_dim_names_the_cut(spec, error):
    # On 4096 states every amplitude of |alpha = 100> underflows. The
    # composition is refused before it starts, with build_state's error: the
    # basis past max_dim, or for ECS its N past the float range.
    policy = TruncationPolicy(4096)
    with pytest.raises(error) as built:
        build_state(spec, policy)
    with pytest.raises(error) as composed:
        build_by_composition(spec, policy)
    assert str(composed.value) == str(built.value)
    assert error is not TruncationOverflowError or "max_dim=4096" in str(built.value)


def test_composition_empty_on_every_basis_stays_annihilated_under_a_capping_max_dim():
    # max_dim = 24 caps these bases, but their starting vector |0> is whole on
    # it: filtration or over-subtraction empties them on any basis.
    for spec in (StateSpec("VFECS", alpha=0), StateSpec("VFBS", p=0.0, M=5), StateSpec("PSDFS", alpha=0, n=1, subtracted=3)):
        with pytest.raises(AnnihilatedStateError):
            build_by_composition(spec, TruncationPolicy(24))


# --- batched builds ------------------------------------------------------------


def _outcome(result):
    """A build's result as comparable data: the state's bytes, dim and tail, or the error's class and message."""
    if isinstance(result, FockLabError):
        return type(result), str(result)
    return result.amplitudes.tobytes(), result.dim, result.tail_mass


def _alone(call, spec, policy):
    try:
        return call(spec, policy)
    except FockLabError as exc:
        return exc


def _assert_batch_is_per_spec(specs, policy, batched=build_states, alone=build_state):
    batch = batched(specs, policy)
    assert [_outcome(r) for r in batch] == [_outcome(_alone(alone, s, policy)) for s in specs]
    return batch


_COUNTS = st.fixed_dictionaries(
    {
        "n": st.integers(0, 3) | st.integers(4, 45),
        "added": st.integers(0, 2),
        "subtracted": st.integers(0, 3),
        "M": st.integers(0, 12),
    }
)
_POINT = st.tuples(st.floats(0.0, 6.0), st.floats(-math.pi, math.pi), st.floats(0.0, 1.0), st.floats(-1.0, 1.0), _COUNTS)


@st.composite
def _batches(draw):
    """Specs of a few families in shuffled order; every point draws its own n, added, subtracted and M, so a family mixes shapes."""
    group = st.tuples(st.sampled_from(FAMILIES), st.lists(_POINT, min_size=1, max_size=5))
    groups = draw(st.lists(group, min_size=1, max_size=4))
    specs = [
        StateSpec(family, alpha=mag * cmath.exp(1j * phase), p=p, chi=chi, **counts)
        for family, points in groups
        for mag, phase, p, chi, counts in points
    ]
    return draw(st.permutations(specs))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    specs=_batches(),
    policy=st.sampled_from([TruncationPolicy(), TruncationPolicy(512, 1e-16), TruncationPolicy(24, 1e-12)]),
)
def test_batch_builds_each_spec_as_it_builds_alone(specs, policy):
    _assert_batch_is_per_spec(specs, policy)


def test_batch_matches_per_spec_builds_at_the_edges():
    # At tail 1e-300 the coherent series at |alpha| = 0.2, 1 and 3 are cut at
    # three lengths, and the shared pass at the widest runs far past the
    # narrowest row's own basis.
    deep = TruncationPolicy(512, 1e-300)
    coherent = [StateSpec("Coherent", alpha=a) for a in (0.2, 1.0, 3.0j)]
    batch = _assert_batch_is_per_spec(coherent, deep)
    sizes = [_cut(spec, deep.tail_tolerance * 1e-4, deep.max_dim)[0] for spec in coherent]
    assert sizes[0] < sizes[1] < sizes[2] and batch[2].dim > sizes[0]
    # PSDFS from the vacuum at alpha = 0 is annihilated between two live points.
    psdfs = [StateSpec("PSDFS", alpha=a, n=0, subtracted=1) for a in (0.7, 0, 1.5j)]
    batch = _assert_batch_is_per_spec(psdfs, POLICY)
    assert [type(r) for r in batch] == [type(batch[0]), AnnihilatedStateError, type(batch[0])]
    # max_dim = 24 cuts the |alpha| = 5 coherent series while it still grows.
    small = [StateSpec("Coherent", alpha=a) for a in (1.0, 5.0)]
    assert isinstance(_assert_batch_is_per_spec(small, TruncationPolicy(24))[1], TruncationOverflowError)
    # An integer chi is stored as a float: as an int64 its Kerr phase chi i (i - 1)
    # would wrap from i = 4 here, alone but not beside a float coupling.
    kerr = [StateSpec("Kerr", alpha=1.3, chi=chi) for chi in (10**18, 0.2)]
    _assert_batch_is_per_spec(kerr, POLICY)
    # n = 2^22 needs more than max_dim states: refused before any kernel pass.
    past_table = [StateSpec("DFS", alpha=a, n=2**22) for a in (0.5, 1.0)]
    assert all(isinstance(r, TruncationOverflowError) for r in _assert_batch_is_per_spec(past_table, TruncationPolicy(8)))
    # M past the log-factorial table fits max_dim at p = 1e-9, but its pass fails
    # each spec of the group, not the batch.
    past_table = [StateSpec("Binomial", p=p, M=2**22) for p in (1e-9, 2e-9)]
    assert all(isinstance(r, ConvergenceError) for r in _assert_batch_is_per_spec(past_table, TruncationPolicy(8)))
    # Beside small-M specs of its family it sends the group back to per-spec builds, and the small specs still build.
    beside = [StateSpec("Binomial", p=0.5, M=1), StateSpec("Binomial", p=1e-9, M=2**22), StateSpec("Binomial", p=0.3, M=4)]
    batch = _assert_batch_is_per_spec(beside, POLICY)
    assert [type(r) for r in batch] == [StateVector, ConvergenceError, StateVector]
    # The undamped ECS series past |alpha|^2 = 1416 leaves the float range.
    ecs = [StateSpec("ECS", alpha=a) for a in (1.0, math.sqrt(1500.0))]
    assert isinstance(_assert_batch_is_per_spec(ecs, TruncationPolicy(4096))[1], ConvergenceError)


def test_batch_mixes_shapes_within_a_family():
    # One kernel pass runs the Laguerre recurrence to n = 40 for every row;
    # the n = 0 and n = 3 rows read their own degrees from it.
    dfs = [StateSpec("DFS", alpha=8.0 * cmath.exp(1j * phase), n=n) for phase, n in ((0.3, 0), (-2.0, 3), (1.1, 40))]
    _assert_batch_is_per_spec(dfs, POLICY)
    # An over-subtracted PSDFS at alpha = 0 is empty between live points with other q.
    psdfs = [
        StateSpec("PSDFS", alpha=0.7, n=1, subtracted=1),
        StateSpec("PSDFS", alpha=0, n=1, subtracted=2),
        StateSpec("PSDFS", alpha=1.5j, n=2, subtracted=3),
    ]
    batch = _assert_batch_is_per_spec(psdfs, POLICY)
    assert [type(r) for r in batch] == [StateVector, AnnihilatedStateError, StateVector]
    # Binomial rows of different M, from the bare vacuum to a basis of 361 states.
    binomial = [StateSpec("Binomial", p=0.4, M=M) for M in (0, 1, 12, 360)]
    batch = _assert_batch_is_per_spec(binomial, TruncationPolicy(512, 1e-16))
    assert [r.dim for r in batch][:2] == [1, 2]
    # |alpha| = 45, n = 600 builds (a quarter of its mass lies past 4096
    # states); |alpha| = 1e100 is refused before the pass. In the kernel, a NaN
    # in the recurrence of the row past the float range must not stop the
    # rescaling of its neighbour.
    far = [StateSpec("DFS", alpha=45.0, n=600), StateSpec("DFS", alpha=1e100, n=600)]
    batch = _assert_batch_is_per_spec(far, TruncationPolicy(8192))
    assert [type(r) for r in batch] == [StateVector, TruncationOverflowError]
    with np.errstate(invalid="ignore", over="ignore"):
        pair = states._displaced_fock([45.0, 1e100], 600, batch[0].dim)
    alone = states._displaced_fock([45.0], 600, batch[0].dim)
    assert pair[0][0].tobytes() == alone[0].tobytes() and pair[1][0].tobytes() == alone[1].tobytes()
    # Mixed added and subtracted counts in one PASDFS group.
    pasdfs = [StateSpec("PASDFS", alpha=a, n=n, added=k, subtracted=q) for a, n, k, q in ((1.2, 0, 2, 0), (0.4j, 3, 0, 4), (2.0, 1, 1, 1))]
    _assert_batch_is_per_spec(pasdfs, POLICY)


def test_batch_finishes_trimmed_refused_and_overflowing_rows_of_one_family():
    # One ECS block at tail 1e-300: |alpha| = 1 is trimmed inside its cut,
    # |alpha|^2 = 700 keeps all but its tolerance, |alpha|^2 = 712 overflows
    # its squared norm on the pass, and |alpha|^2 = 1000 needs more than
    # max_dim states, so it is refused before the pass.
    policy = TruncationPolicy(2048, 1e-300)
    specs = [StateSpec("ECS", alpha=math.sqrt(x)) for x in (1.0, 700.0, 712.0, 1000.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _assert_batch_is_per_spec(specs, policy)
    assert batch[0].dim < _cut(specs[0], policy.tail_tolerance * 1e-4, policy.max_dim)[0]
    assert batch[1].dim <= _cut(specs[1], policy.tail_tolerance * 1e-4, policy.max_dim)[0] < policy.max_dim
    assert 0.0 < batch[1].tail_mass <= policy.tail_tolerance * (1.0 + 1e-4)
    assert isinstance(batch[2], ConvergenceError)
    assert isinstance(batch[3], TruncationOverflowError)


def test_one_batch_runs_every_finishing_branch():
    # At tail 1e-300 under max_dim 4096: |alpha| = 1 (VFKS, PSDFS) and PSDFS
    # (30, n = 170, q = 40) are trimmed inside their long cuts; |alpha|^2 =
    # 3500 needs more than max_dim states and is refused; VFKS at |alpha|^2 =
    # 750 has a 1/N^2 past the float range, and the composition's 170 and 40
    # steps at |alpha| = 30 overflow; PSDFS from n = 1 with q = 3 at alpha = 0 is empty;
    # Binomial M = 3 keeps its whole support, and M = 360 at p = 0.05 is
    # trimmed on its first basis. The specs run as one batch, shuffled, and
    # each as a batch of one, through both builders.
    policy = TruncationPolicy(4096, 1e-300)
    deep = StateSpec("VFKS", alpha=1.0, chi=0.1)
    overflowing = StateSpec("VFKS", alpha=math.sqrt(750.0), chi=0.1)
    trimmed_deep = StateSpec("PSDFS", alpha=1.0, n=2, subtracted=1)
    refused = StateSpec("PSDFS", alpha=math.sqrt(3500.0))
    composition_overflows = StateSpec("PSDFS", alpha=30.0, n=170, subtracted=40)
    empty = StateSpec("PSDFS", alpha=0, n=1, subtracted=3)
    whole = StateSpec("Binomial", p=0.4, M=3)
    trimmed = StateSpec("Binomial", p=0.05, M=360)
    specs = [trimmed_deep, trimmed, deep, empty, refused, whole, overflowing, composition_overflows]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        built = dict(zip(specs, _assert_batch_is_per_spec(specs, policy)))
        composed = dict(zip(specs, _assert_batch_is_per_spec(specs, policy, compositions, build_by_composition)))
        for spec in specs:
            assert _outcome(_assert_batch_is_per_spec([spec], policy)[0]) == _outcome(built[spec])
            alone = _assert_batch_is_per_spec([spec], policy, compositions, build_by_composition)[0]
            assert _outcome(alone) == _outcome(composed[spec])
    for spec in (deep, trimmed_deep, composition_overflows):
        size, bound = _cut(spec, policy.tail_tolerance * 1e-4, policy.max_dim)
        assert built[spec].dim < size and 0.0 < bound <= built[spec].tail_mass <= policy.tail_tolerance * (1.0 + 1e-4)
    assert isinstance(built[refused], TruncationOverflowError) and isinstance(composed[refused], TruncationOverflowError)
    assert isinstance(built[overflowing], ConvergenceError) and isinstance(composed[overflowing], ConvergenceError)
    assert isinstance(composed[composition_overflows], ConvergenceError)
    assert isinstance(built[empty], AnnihilatedStateError) and isinstance(composed[empty], AnnihilatedStateError)
    for result in (built[whole], composed[whole]):
        assert result.dim == whole.M + 1 and result.tail_mass == 0.0
    for result in (built[trimmed], composed[trimmed]):
        assert result.dim < trimmed.M + 1 and 0.0 < result.tail_mass <= policy.tail_tolerance


def test_tail_mass_is_a_float_on_every_path():
    # |alpha|^2 = 700 keeps 1,899 states at tail 1e-300, its tail the trimmed
    # suffix plus the cut's bound; |alpha| = 1 keeps fewer than its cut.
    policy = TruncationPolicy(2048, 1e-300)
    deep = StateSpec("VFKS", alpha=math.sqrt(700.0), chi=0.1)
    alone = build_state(deep, policy)
    assert 0.0 < alone.tail_mass <= policy.tail_tolerance * (1.0 + 1e-4)
    batch = build_states([StateSpec("VFKS", alpha=1.0, chi=0.1), deep], policy)
    for state in (alone, *batch, *compositions([deep, StateSpec("Kerr", alpha=1.0)], policy)):
        assert type(state.tail_mass) is float


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    point=_POINT,
    log_tail=st.floats(-300.0, -12.0),
    max_dim=st.sampled_from([24, 512]),
)
# ECS is zero on every odd term, so a test of the last kept term alone once
# kept 85 terms here and reported tail_mass 0.0, where the mass past them is 1.2e-52.
@example(family="ECS", point=(3.0, 0.0, 0.0, 0.0, {"n": 0, "added": 0, "subtracted": 0, "M": 0}), log_tail=-300.0, max_dim=512)
def test_tail_mass_bounds_the_mass_a_basis_four_times_larger_puts_past_dim(family, point, log_tail, max_dim):
    mag, phase, p, chi, counts = point
    spec = StateSpec(family, alpha=mag * cmath.exp(1j * phase), p=p, chi=chi, **counts)
    try:
        state = build_state(spec, TruncationPolicy(max_dim, 10.0**log_tail))
    except FockLabError:
        return
    mass = np.abs(bare_coefficients(spec, 4 * state.dim)) ** 2
    assert mass[state.dim :].sum() / mass.sum() <= state.tail_mass * (1.0 + 1e-9)


@pytest.mark.parametrize("subtracted", (1, 2))
def test_a_composition_cut_by_max_dim_reports_its_tail(subtracted):
    # Under max_dim 1024 the 1,176-state cut does not fit: the composition is
    # refused as the build is. Under a max_dim of exactly its cut, a composed
    # photon-subtracted row starts q entries past max_dim, so it still keeps
    # its whole cut, and reports a tail within the policy, as the build does.
    spec = StateSpec("PSDFS", alpha=30.0, subtracted=subtracted)
    for evaluate in (build_state, build_by_composition):
        with pytest.raises(TruncationOverflowError):
            evaluate(spec, TruncationPolicy(1024, 1e-14))
    policy = TruncationPolicy(_cut(spec, 1e-18)[0], 1e-14)
    built, composed = build_state(spec, policy), build_by_composition(spec, policy)
    assert state_distance(built, composed) <= 1e-10
    for state in (built, composed):
        assert 0.0 < state.tail_mass <= policy.tail_tolerance * (1.0 + 1e-4)
        assert moment_oracle(state, 1, 1).real == pytest.approx(moment_series(spec, 1, 1).real, rel=1e-10)


def _batch_normalization_is_per_spec(specs, policy):
    def alone(spec):
        try:
            return normalization_constant(spec, policy)
        except FockLabError as exc:
            return exc

    def outcome(result):
        return (type(result), str(result)) if isinstance(result, FockLabError) else result.hex()

    batch = normalization_constants(specs, policy)
    assert [outcome(r) for r in batch] == [outcome(alone(s)) for s in specs]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(specs=_batches(), policy=st.sampled_from([TruncationPolicy(), TruncationPolicy(24, 1e-12)]))
def test_batched_normalization_constants_are_each_spec_alone(specs, policy):
    _batch_normalization_is_per_spec(specs, policy)


# --- batched ladders -----------------------------------------------------------


def _ladder_outcome(result):
    """A ladder as comparable data: the bytes of both arrays, or the error's class and message."""
    if isinstance(result, FockLabError):
        return type(result), str(result)
    log_c, phase = result
    return log_c.tobytes(), phase.tobytes()


def _ladder_alone(spec):
    try:
        return ladder_log_amplitudes(spec)
    except FockLabError as exc:
        return exc


def _assert_ladders_are_per_spec(specs):
    batch = ladders(specs)
    assert [_ladder_outcome(r) for r in batch] == [_ladder_outcome(_ladder_alone(s)) for s in specs]
    return batch


@settings(derandomize=True, max_examples=60, deadline=None)
@given(specs=_batches())
def test_batched_ladders_are_each_spec_alone(specs):
    batch = _assert_ladders_are_per_spec(specs)
    # Laddered alone twice more, after another spec and then at once, each
    # spec still reads its batch entry: the held ladder is its own.
    for spec, other, result in zip(specs, [specs[-1], *specs[:-1]], batch):
        _ladder_alone(other)
        assert _ladder_outcome(_ladder_alone(spec)) == _ladder_outcome(_ladder_alone(spec)) == _ladder_outcome(result)


def _three_of_every_family():
    """Three points of every family whose n, added, subtracted or M differ, shuffled."""
    rng = np.random.default_rng(2011)
    specs = []
    for family in FAMILIES:
        for _ in range(3):
            spec = random_spec(rng, family)
            counts = {"n": int(rng.integers(0, 12)), "added": int(rng.integers(0, 4)), "subtracted": int(rng.integers(0, 4)), "M": int(rng.integers(0, 40))}
            specs.append(StateSpec(family, alpha=spec.alpha, p=spec.p, chi=spec.chi, **counts))
    return [specs[i] for i in rng.permutation(len(specs))]


def test_batched_ladders_mix_every_family_and_their_errors():
    # Every family, each with three points whose n, added, subtracted or M
    # differ, shuffled; an empty PSDFS (alpha = 0, q > n) and a Coherent
    # ladder past the log-factorial cap sit among them in draw order.
    specs = _three_of_every_family()
    empty = StateSpec("PSDFS", alpha=0, n=1, subtracted=3)
    past_cap = StateSpec("Coherent", alpha=2100.0)
    specs[7:7] = [empty]
    specs[30:30] = [past_cap]
    batch = _assert_ladders_are_per_spec(specs)
    assert isinstance(batch[7], AnnihilatedStateError)
    assert isinstance(batch[30], ConvergenceError) and "log-factorials" in str(batch[30])
    assert sum(isinstance(r, FockLabError) for r in batch) == 2
    # A family whose other rows are live still shares one pass; so does one
    # that keeps a single live row beside an error.
    _assert_ladders_are_per_spec([empty, StateSpec("PSDFS", alpha=0.4j, n=2, subtracted=1)])


def test_every_batch_returns_a_failing_pass_as_its_specs_entries():
    # The binomial series at M = 5e6 needs more log-factorials than core
    # serves; at p = 1e-9 its basis fits max_dim, so its pass runs and fails.
    # Alone, or beside a live spec of its family and one of another, every
    # batch function returns that error as the spec's entry, in order, and
    # each other entry as its one-spec call gives it.
    past_cap = StateSpec("Binomial", p=1e-9, M=5_000_000)
    message = "5000001 log-factorials requested"
    for specs in ([past_cap], [StateSpec("Coherent", alpha=1.0), past_cap, StateSpec("Binomial", p=0.3, M=5)]):
        where = specs.index(past_cap)
        for batched, alone in (
            (build_states, build_state),
            (compositions, build_by_composition),
            (normalization_constants, normalization_constant),
        ):
            batch = batched(specs, POLICY)
            assert type(batch[where]) is ConvergenceError and message in str(batch[where])
            for spec, entry in zip(specs, batch):
                if spec is not past_cap:
                    assert _value_outcome(entry) == _value_outcome(alone(spec, POLICY))
        batch = _assert_ladders_are_per_spec(specs)
        assert type(batch[where]) is ConvergenceError and message in str(batch[where])
        sums = moment_sums([(spec, 1, 1) for spec in specs])
        assert type(sums[where]) is ConvergenceError and message in str(sums[where])
        assert [value for spec, value in zip(specs, sums) if spec is not past_cap] == [
            moment_series(spec, 1, 1) for spec in specs if spec is not past_cap
        ]


def _value_outcome(result):
    """A built state or a constant as comparable data."""
    return result if isinstance(result, float) else _outcome(result)


def test_ladders_of_one_family_past_the_widest_pass_each_take_their_own(monkeypatch):
    # Under a cap of 80 log-factorials each ladder fits alone (58 and 22 + 30
    # entries), but the group's widest pass, the longest cut plus the largest
    # q, would read 88: each spec then takes its own pass.
    monkeypatch.setattr(core, "MAX_LOG_FACTORIALS", 80)
    monkeypatch.setattr(states, "MAX_LOG_FACTORIALS", 80)
    monkeypatch.setattr(core, "_log_factorial_table", np.zeros(1))
    specs = [StateSpec("PSDFS", alpha=2.5, n=0), StateSpec("PSDFS", alpha=0.5, n=0, subtracted=30)]
    batch = _assert_ladders_are_per_spec(specs)
    assert [len(log_c) for log_c, _ in batch] == [58, 22]


def test_the_held_ladder_tells_signed_zeros_apart():
    # alpha = -1+0j and -1-0j compare equal, but cmath.phase gives them +pi
    # and -pi, so their ladder phases differ. In either order, each reads
    # its own ladders entry.
    plus, minus = StateSpec("Coherent", alpha=complex(-1.0, 0.0)), StateSpec("Coherent", alpha=complex(-1.0, -0.0))
    assert plus == minus and hash(plus) == hash(minus)
    batch = [_ladder_outcome(ladders([spec])[0]) for spec in (plus, minus)]
    assert batch[0] != batch[1]
    for order in ((0, 1), (1, 0)):
        for index in order:
            assert _ladder_outcome(ladder_log_amplitudes((plus, minus)[index])) == batch[index]


def test_the_held_ladder_is_read_only_and_never_an_error():
    coherent = StateSpec("Coherent", alpha=1.0)
    held = ladder_log_amplitudes(coherent)
    for array in held:
        with pytest.raises(ValueError):
            array[0] = 0.0
    # A ladder past the log-factorial cap raises on every call and leaves
    # the held ladder as it was.
    refused = StateSpec("Binomial", p=0.3, M=5_000_000)
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            ladder_log_amplitudes(refused)
    assert all(again is array for again, array in zip(ladder_log_amplitudes(coherent), held))


def test_cut_fetches_only_the_log_factorials_its_probes_read(monkeypatch):
    # DFS at alpha = 0.5, n = 10^6: every probe reads below about 1.15 M
    # log-factorials, so a fresh table stays within twice that.
    monkeypatch.setattr(core, "_log_factorial_table", np.zeros(1))
    assert _cut(StateSpec("DFS", alpha=0.5, n=10**6), 1e-16, 2**21) == (1149159, 2.3131419859271707e-22)
    assert len(core._log_factorial_table) <= 2 * 1_150_000 < core.MAX_LOG_FACTORIALS


@pytest.mark.parametrize(
    "call, spec, error, message",
    [
        (ladder_log_amplitudes, StateSpec("Binomial", p=0.3, M=5_000_000), ConvergenceError, "5000001 log-factorials requested"),
        (ladder_log_amplitudes, StateSpec("VFBS", p=1e-9, M=5_000_000), ConvergenceError, "5000001 log-factorials requested"),
        (ladder_log_amplitudes, StateSpec("PABS", p=0.99, M=5_000_000), ConvergenceError, "PABS ladder needs more than"),
        (
            lambda spec: build_state(spec, TruncationPolicy(4_194_304)),
            StateSpec("Binomial", p=0.3, M=5_000_000),
            TruncationOverflowError,
            "Binomial needs more than max_dim=4194304",
        ),
        (
            lambda spec: build_state(spec, TruncationPolicy(4_000_000)),
            StateSpec("Binomial", p=0.3, M=5_000_000),
            ConvergenceError,
            "5000001 log-factorials requested",
        ),
    ],
    ids=["ladder", "VFBS-ladder", "PABS-ladder-past-cap", "build-at-cap", "build-below-cap"],
)
def test_a_binomial_past_the_log_factorial_cap_is_refused_on_a_small_table(monkeypatch, call, spec, error, message):
    # _cut judges such a binomial at its cap alone and reads those few
    # log-factorials singly, so a fresh table is not grown towards its
    # 4,194,304-entry cap before M refuses the spec.
    monkeypatch.setattr(core, "_log_factorial_table", np.zeros(1))
    with pytest.raises(error, match=message):
        call(spec)
    assert len(core._log_factorial_table) <= 1024


def test_a_log_factorial_entry_is_the_table_entry_and_leaves_the_table_alone(monkeypatch):
    table = core.log_factorials(4096)
    monkeypatch.setattr(core, "_log_factorial_table", np.zeros(1))
    assert [core.log_factorial_entry(k) for k in (0, 1, 7, 4095)] == [table[k] for k in (0, 1, 7, 4095)]
    assert core.log_factorial_entry(core.MAX_LOG_FACTORIALS - 1) == math.lgamma(core.MAX_LOG_FACTORIALS)
    with pytest.raises(IndexError):
        core.log_factorial_entry(core.MAX_LOG_FACTORIALS)
    assert len(core._log_factorial_table) == 1


# --- batched compositions -----------------------------------------------------


@st.composite
def _every_family(draw):
    """One to three points of every family, shuffled; each point draws its own n, added, subtracted, M, p and chi."""
    specs = [
        StateSpec(family, alpha=mag * cmath.exp(1j * phase), p=p, chi=chi, **counts)
        for family in FAMILIES
        for mag, phase, p, chi, counts in draw(st.lists(_POINT, min_size=1, max_size=3))
    ]
    return draw(st.permutations(specs))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    specs=_every_family(),
    policy=st.sampled_from([TruncationPolicy(), TruncationPolicy(512, 1e-16), TruncationPolicy(24, 1e-12)]),
)
def test_batched_compositions_are_each_spec_alone(specs, policy):
    _assert_batch_is_per_spec(specs, policy, compositions, build_by_composition)


def test_batched_compositions_keep_their_errors_in_draw_order():
    # Every family with three points whose counts differ, shuffled, with four
    # failing compositions among them: n! past the float range, an
    # over-subtracted vacuum, a recurrence that overflows beside live rows,
    # and a binomial series past the log-factorial cap, which sends its
    # family back to one composition per spec.
    specs = _three_of_every_family()
    errors = {
        4: (StateSpec("DFS", alpha=0.5, n=171), ConvergenceError),
        19: (StateSpec("PSDFS", alpha=0, n=1, subtracted=3), AnnihilatedStateError),
        33: (StateSpec("DFS", alpha=38.0, n=170), ConvergenceError),
        40: (StateSpec("Binomial", p=1e-9, M=2**22), ConvergenceError),
    }
    for index, (spec, _) in errors.items():
        specs[index:index] = [spec]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _assert_batch_is_per_spec(specs, TruncationPolicy(4096), compositions, build_by_composition)
    assert {i for i, r in enumerate(batch) if isinstance(r, FockLabError)} == set(errors)
    assert all(type(batch[index]) is error for index, (_, error) in errors.items())


def test_dfs_composition_refuses_n_past_170_before_forming_n_factorial(monkeypatch):
    # n! leaves the float range from n = 171; the refusal must not form n!
    # first, which took seconds at n = 10^6.
    factorial = math.factorial

    def bounded(n):
        assert n <= 170, f"{n}! formed"
        return factorial(n)

    monkeypatch.setattr(math, "factorial", bounded)
    # n = 10^6 takes 1,149,159 states at the default tail: under a max_dim that
    # holds them, the composition is refused for its n, not for its basis.
    policy = TruncationPolicy(max_dim=2**21)
    for n in (171, 10**6):
        message = f"{n}! leaves the float range: DFS cannot be composed at n = {n}"
        with pytest.raises(ConvergenceError) as caught:
            build_by_composition(StateSpec("DFS", alpha=0.5, n=n), policy)
        assert str(caught.value) == message
        refused, live = compositions([StateSpec("DFS", alpha=0.5, n=n), StateSpec("DFS", alpha=0.5, n=2)], policy)
        assert type(refused) is ConvergenceError and str(refused) == message and isinstance(live, StateVector)
    assert oracle._sqrt_factorial(170) == math.sqrt(factorial(170))


@pytest.mark.parametrize("n", [512, 513, 2**22])
def test_fock_past_max_dim_is_cut_while_it_grows(n):
    # The exact Fock series is 0 below its term n, so a basis of max_dim states cuts it before its peak.
    with pytest.raises(TruncationOverflowError):
        build_state(StateSpec("Fock", n=n), TruncationPolicy(max_dim=512))


def test_fock_series_is_an_exact_delta():
    log_c, phase = ladder_log_amplitudes(StateSpec("Fock", n=3))
    assert log_c[3] == 0.0 and np.all(np.delete(log_c, 3) == -np.inf)
    assert np.all(phase == 1.0)
    assert build_state(StateSpec("Fock", n=3), POLICY).amplitudes.tolist() == [0, 0, 0, 1]


_LADDER_SPECS = [
    *[StateSpec(f, alpha=a) for f in ("ECS", "VFECS", "PAECS") for a in (0.3, 1.7 * cmath.exp(0.4j), 6.0j)],
    *[
        StateSpec(f, alpha=a, chi=chi)
        for f in ("Kerr", "VFKS", "PAKS")
        for a, chi in ((0.3, 0.1), (2.2j, -1.3), (6.0, 0.29))
    ],
    *[
        StateSpec(f, p=p, M=M)
        for f in ("Binomial", "VFBS", "PABS")
        for p, M in ((1e-3, 3), (0.37, 40), (1.0, 7), (0.8, 300))
    ],
]


@pytest.mark.parametrize("spec", _LADDER_SPECS, ids=lambda spec: spec.family)
def test_ladder_matches_bare_coefficients(spec):
    # The ladder the closed forms sum is N times the builder's bare series by
    # construction; its coefficients are checked against the operator
    # composition on the common support.
    log_c, phase = ladder_log_amplitudes(spec)
    ladder = np.exp(log_c) * phase
    composed = build_by_composition(spec, TruncationPolicy(max_dim=4096, tail_tolerance=1e-16)).amplitudes
    d = min(len(ladder), len(composed))
    assert np.max(np.abs(ladder[:d] - composed[:d])) <= 1e-12 * np.max(np.abs(composed))


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


ALPHA_FAMILIES = [name for name in FAMILIES if "alpha" in StateSpec(name).info.fields]


@pytest.mark.parametrize("alpha", [1.35e154, 1e200, 1e308 + 1e308j])
def test_alpha_whose_square_overflows_is_refused(alpha):
    # |alpha|^2 past the float maximum would end the basis guess, N and the
    # ladder in a bare OverflowError; a family that ignores alpha still builds.
    for family in ALPHA_FAMILIES:
        with pytest.raises(InvalidParameterError, match="too large"):
            StateSpec(family, alpha=alpha)
    fock = StateSpec("Fock", alpha=alpha, n=1)
    assert build_state(fock).amplitudes.tolist() == [0.0, 1.0]
    assert moment_series(fock, 1, 1) == pytest.approx(1.0, rel=1e-12)


def test_largest_accepted_alpha_fails_with_a_focklab_error():
    for family in ALPHA_FAMILIES:
        with pytest.raises(FockLabError):
            build_state(StateSpec(family, alpha=1.34e154j, n=2, added=1, subtracted=1, chi=0.1))


@pytest.mark.parametrize("mag", [1e8, 1e9, 1e12, 1e100, 1e154])
@pytest.mark.parametrize("family", ["Coherent", "Kerr", "DFS"])
def test_series_cut_far_before_its_peak_still_grows(family, mag):
    # Where |alpha|^2 dwarfs max_dim the log series grows by less than its ulp
    # per term, so it plateaus in float at the cut; the last maximum lies past it.
    spec = StateSpec(family, alpha=mag, n=1, chi=0.1)
    with pytest.raises(TruncationOverflowError):
        build_state(spec)


def test_ladder_past_the_log_factorial_cap_is_refused_before_allocating():
    # The Coherent ladder at |alpha| = 2100 runs to about 4.44e6 terms, past
    # core's 2^22 log-factorials; the refusal must come before its arrays.
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="log-factorials"):
            moment_series(StateSpec("Coherent", alpha=2100.0), 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("kwargs", [{"family": "Kerr", "alpha": 1.0, "chi": 0.1j}, {"family": "Binomial", "p": "0.5", "M": 3}])
def test_non_real_couplings_rejected(kwargs):
    with pytest.raises(InvalidParameterError, match="must be a real number"):
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


def test_fields_are_stored_as_their_declared_types():
    spec = StateSpec(np.str_(" pasdfs "), alpha=np.float64(1.5), n=np.int64(2), added=True, subtracted=np.uint8(1), p=np.float32(0.25), chi=1)
    assert spec.family == "PASDFS" and type(spec.family) is str
    assert [type(getattr(spec, f)) for f in ("alpha", "n", "added", "subtracted", "M", "p", "chi")] == [complex, int, int, int, int, float, float]
    assert (spec.alpha, spec.n, spec.added, spec.subtracted, spec.p, spec.chi) == (1.5, 2, 1, 1, 0.25, 1.0)


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
    # The 400-state basis reaches far past the support of every column checked
    # (n = 80 at |alpha| = 8 ends near m = 290), so expm's truncation is invisible.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    dim = 400
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    for alpha in (cmath.exp(0.3j), 3.0 * cmath.exp(2.1j), 8.0 * cmath.exp(-1.2j)):
        dmat = scipy_linalg.expm(alpha * a.conj().T - np.conjugate(alpha) * a)
        for n in (0, 1, 2, 15, 25, 40, 80):
            got = displacement_coefficients(alpha, n, 300)
            assert np.max(np.abs(got - dmat[:300, n])) <= 1e-12, (alpha, n)


# --- normalization constants ---------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_normalization_closed_forms(family, rng):
    for _ in range(6):
        spec = random_spec(rng, family)
        closed = normalization_constant_closed_form(spec)
        numeric = normalization_constant(spec)
        assert numeric == pytest.approx(closed, rel=1e-9)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=6),
    added=st.integers(min_value=0, max_value=5),
    subtracted=st.integers(min_value=0, max_value=5),
    mag=st.floats(min_value=0.05, max_value=9.0),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_pasdfs_normalization_closed_form_matches_numeric(n, added, subtracted, mag, phase):
    spec = StateSpec("PASDFS", alpha=mag * cmath.exp(1j * phase), n=n, added=added, subtracted=subtracted)
    assert normalization_constant_closed_form(spec) == pytest.approx(normalization_constant(spec), rel=1e-12)


def test_alpha_phase_convention():
    spec = StateSpec("Coherent", alpha=2.0 * cmath.exp(1j * 0.7))
    assert spec.alpha_mag == pytest.approx(2.0)
    assert spec.alpha_phase == pytest.approx(0.7)
    assert StateSpec("Coherent", alpha=0).alpha_phase == 0.0
