import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab import core, states
from focklab.core import StateVector, TruncationPolicy, apply_annihilate, apply_create
from focklab.exceptions import (
    AnnihilatedStateError,
    ConvergenceError,
    FockLabError,
    InvalidParameterError,
    TruncationOverflowError,
    TruncationUnsafeError,
)
from focklab.moments import moment_oracle, moment_series
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
from focklab.states import _initial_dim
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
        # Over-subtraction is empty whatever the basis, even one cut at max_dim.
        (StateSpec("PSDFS", alpha=0, n=1, subtracted=2), 512, AnnihilatedStateError),
        (StateSpec("PSDFS", alpha=0, n=1, subtracted=2), 8, AnnihilatedStateError),
    ],
    ids=["coherent-30", "binomial-1e6", "fock-600", "psdfs-empty", "psdfs-empty-at-max-dim"],
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
    # The composed amplitudes (or only their squared norm) leave the float range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="float range"):
            build_by_composition(spec, TruncationPolicy(4096))


@pytest.mark.parametrize(
    "spec",
    [StateSpec("Coherent", alpha=100.0), StateSpec("DFS", alpha=100.0, n=150), StateSpec("ECS", alpha=100.0)],
    ids=["coherent", "dfs-150", "ecs"],
)
def test_composition_cut_away_by_max_dim_names_the_cut(spec):
    # On 4096 states every amplitude of |alpha = 100> underflows, so the
    # composed vector is empty because max_dim cuts it, not because the state is.
    with pytest.raises(TruncationOverflowError, match="max_dim=4096"):
        build_by_composition(spec, TruncationPolicy(4096))


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
    # At tail 1e-300 the coherent series at |alpha| = 1 and 3 outgrows its
    # initial basis and doubles; its |alpha| = 0.2 neighbour does not.
    deep = TruncationPolicy(512, 1e-300)
    doubling = [StateSpec("Coherent", alpha=a) for a in (0.2, 1.0, 3.0j)]
    batch = _assert_batch_is_per_spec(doubling, deep)
    assert batch[2].dim > _initial_dim(doubling[2], deep)
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
    # n past the log-factorial table fails each spec of the group, not the batch.
    past_table = [StateSpec("DFS", alpha=a, n=2**22) for a in (0.5, 1.0)]
    assert all(isinstance(r, ConvergenceError) for r in _assert_batch_is_per_spec(past_table, TruncationPolicy(8)))
    # Beside small-n specs of its family it sends the group back to per-spec builds, and the small specs still build.
    beside = [StateSpec("DFS", alpha=0.5, n=1), StateSpec("DFS", alpha=1.0, n=2**22), StateSpec("DFS", alpha=0.3j, n=0)]
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
    # A NaN in the recurrence of a row past the float range must not stop the
    # rescaling of its neighbour, which builds alone at |alpha| = 45, n = 600.
    far = [StateSpec("DFS", alpha=45.0, n=600), StateSpec("DFS", alpha=1e100, n=600)]
    batch = _assert_batch_is_per_spec(far, TruncationPolicy(4096))
    assert [type(r) for r in batch] == [StateVector, ConvergenceError]
    # Mixed added and subtracted counts in one PASDFS group.
    pasdfs = [StateSpec("PASDFS", alpha=a, n=n, added=k, subtracted=q) for a, n, k, q in ((1.2, 0, 2, 0), (0.4j, 3, 0, 4), (2.0, 1, 1, 1))]
    _assert_batch_is_per_spec(pasdfs, POLICY)


def test_batch_finishes_doubling_pinned_and_overflowing_rows_of_one_family():
    # One VFKS block at tail 1e-300: |alpha| = 1 doubles from 53 to 212 states,
    # |alpha|^2 = 700 starts and stays pinned at max_dim, and |alpha|^2 = 750
    # overflows its squared norm on its first basis.
    policy = TruncationPolicy(1024, 1e-300)
    specs = [StateSpec("VFKS", alpha=a, chi=0.1) for a in (1.0, math.sqrt(700.0), math.sqrt(750.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _assert_batch_is_per_spec(specs, policy)
    assert batch[0].dim > _initial_dim(specs[0], policy)
    assert batch[1].dim == policy.max_dim and batch[1].tail_mass > 0.0
    assert isinstance(batch[2], ConvergenceError)


def test_one_batch_runs_every_finishing_branch():
    # At tail 1e-300 under max_dim 4096: |alpha| = 1 (VFKS, PSDFS) and PSDFS
    # (38, n = 170) outgrow their first bases and double; |alpha|^2 = 3500 is
    # pinned at max_dim with an extrapolated tail; VFKS at |alpha|^2 = 750
    # overflows its bare norm, and the composition's 170 steps at |alpha| = 38
    # overflow; PSDFS from n = 1 with q = 3 at alpha = 0 is empty; Binomial
    # M = 3 keeps its whole support, and M = 360 at p = 0.05 is trimmed on its
    # first basis. The specs run as one batch, shuffled, and each as a batch
    # of one, through both builders.
    policy = TruncationPolicy(4096, 1e-300)
    doubling = StateSpec("VFKS", alpha=1.0, chi=0.1)
    overflowing = StateSpec("VFKS", alpha=math.sqrt(750.0), chi=0.1)
    trimmed_double = StateSpec("PSDFS", alpha=1.0, n=2, subtracted=1)
    pinned = StateSpec("PSDFS", alpha=math.sqrt(3500.0))
    composition_overflows = StateSpec("PSDFS", alpha=38.0, n=170)
    empty = StateSpec("PSDFS", alpha=0, n=1, subtracted=3)
    whole = StateSpec("Binomial", p=0.4, M=3)
    trimmed = StateSpec("Binomial", p=0.05, M=360)
    specs = [trimmed_double, trimmed, doubling, empty, pinned, whole, overflowing, composition_overflows]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        built = dict(zip(specs, _assert_batch_is_per_spec(specs, policy)))
        composed = dict(zip(specs, _assert_batch_is_per_spec(specs, policy, compositions, build_by_composition)))
        for spec in specs:
            assert _outcome(_assert_batch_is_per_spec([spec], policy)[0]) == _outcome(built[spec])
            alone = _assert_batch_is_per_spec([spec], policy, compositions, build_by_composition)[0]
            assert _outcome(alone) == _outcome(composed[spec])
    for spec in (doubling, trimmed_double, composition_overflows):
        assert built[spec].dim > _initial_dim(spec, policy)
    for result in (built[pinned], composed[pinned]):
        assert result.dim == policy.max_dim and result.tail_mass > 0.0
    assert isinstance(built[overflowing], ConvergenceError) and isinstance(composed[composition_overflows], ConvergenceError)
    assert isinstance(built[empty], AnnihilatedStateError) and isinstance(composed[empty], AnnihilatedStateError)
    for result in (built[whole], composed[whole]):
        assert result.dim == whole.M + 1 and result.tail_mass == 0.0
    for result in (built[trimmed], composed[trimmed]):
        assert result.dim < trimmed.M + 1 and 0.0 < result.tail_mass <= policy.tail_tolerance


def test_tail_mass_is_a_float_on_every_path():
    # |alpha|^2 = 700 is pinned at max_dim, where the tail is extrapolated
    # from the last probabilities; |alpha| = 1 is not.
    policy = TruncationPolicy(1024, 1e-300)
    pinned = StateSpec("VFKS", alpha=math.sqrt(700.0), chi=0.1)
    alone = build_state(pinned, policy)
    assert alone.dim == policy.max_dim and alone.tail_mass > 0.0
    batch = build_states([StateSpec("VFKS", alpha=1.0, chi=0.1), pinned], policy)
    for state in (alone, *batch, *compositions([pinned, StateSpec("Kerr", alpha=1.0)], policy)):
        assert type(state.tail_mass) is float


@pytest.mark.parametrize("subtracted", (1, 2))
def test_a_composition_cut_by_max_dim_reports_its_tail(subtracted):
    # A composed photon-subtracted row keeps one entry fewer per subtracted
    # photon than the max_dim basis it was composed on; it is still pinned.
    policy = TruncationPolicy(1024, 1e-14)
    spec = StateSpec("PSDFS", alpha=30.0, subtracted=subtracted)
    built, composed = build_state(spec, policy), build_by_composition(spec, policy)
    assert composed.dim == policy.max_dim - subtracted
    assert built.tail_mass / 2.0 <= composed.tail_mass <= 2.0 * built.tail_mass
    for state in (built, composed):
        with pytest.raises(TruncationUnsafeError):
            moment_oracle(state, 1, 1)


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
    _assert_ladders_are_per_spec(specs)


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


def test_ladders_of_one_family_past_the_widest_pass_each_take_their_own(monkeypatch):
    # Under a cap of 80 log-factorials each ladder fits alone (67 and 39 + 30
    # entries), but the group's widest pass, the longest cut plus the largest
    # q, would read 97: each spec then takes its own pass.
    monkeypatch.setattr(core, "MAX_LOG_FACTORIALS", 80)
    monkeypatch.setattr(states, "MAX_LOG_FACTORIALS", 80)
    monkeypatch.setattr(core, "_log_factorial_table", np.zeros(1))
    specs = [StateSpec("PSDFS", alpha=2.5, n=0), StateSpec("PSDFS", alpha=0.5, n=0, subtracted=30)]
    batch = _assert_ladders_are_per_spec(specs)
    assert [len(log_c) for log_c, _ in batch] == [67, 39]


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
        40: (StateSpec("Binomial", p=0.5, M=2**22), ConvergenceError),
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
    for n in (171, 10**6):
        message = f"{n}! leaves the float range: DFS cannot be composed at n = {n}"
        with pytest.raises(ConvergenceError) as caught:
            build_by_composition(StateSpec("DFS", alpha=0.5, n=n))
        assert str(caught.value) == message
        refused, live = compositions([StateSpec("DFS", alpha=0.5, n=n), StateSpec("DFS", alpha=0.5, n=2)])
        assert type(refused) is ConvergenceError and str(refused) == message and isinstance(live, StateVector)
    assert states._sqrt_factorial(170) == math.sqrt(factorial(170))


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
