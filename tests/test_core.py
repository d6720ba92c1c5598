import ast
import math
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import focklab
from focklab import core
from focklab.core import (
    MAX_LOG_FACTORIALS,
    TruncationPolicy,
    apply_annihilate,
    apply_create,
    StateVector,
    log_factorials,
    lower_amplitudes,
    make_fock,
    photon_number_distribution,
    raise_amplitudes,
    state_from_amplitudes,
)
from focklab.exceptions import (
    AnnihilatedStateError,
    ConvergenceError,
    DimensionError,
    InvalidParameterError,
    TruncationOverflowError,
)
from focklab.states import StateSpec, build_state


def test_make_fock_vacuum():
    s = make_fock(0, 4)
    assert np.allclose(s.amplitudes, [1, 0, 0, 0])
    assert s.tail_mass == 0.0


def test_make_fock_basis_vector():
    s = make_fock(2, 4)
    assert np.allclose(s.amplitudes, [0, 0, 1, 0])


def test_state_vectors_compare_and_hash_by_identity():
    a, b = make_fock(1, 4), make_fock(1, 4)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert a.overlap(b) == 1.0


def test_make_fock_out_of_range():
    with pytest.raises(DimensionError):
        make_fock(4, 4)


def test_create_on_vacuum():
    s, norm = apply_create(make_fock(0, 4))
    assert np.allclose(s.amplitudes[1], 1.0)
    assert norm == pytest.approx(1.0)


def test_create_sqrt_factor():
    s, norm = apply_create(make_fock(1, 4))
    assert norm == pytest.approx(math.sqrt(2.0))
    assert abs(s.amplitudes[2]) == pytest.approx(1.0)


def test_create_on_coherent_norm(tight_policy):
    # <a a†> = 1 + |alpha|^2, so the pre-normalization norm squared is 2 at alpha=1.
    coh = build_state(StateSpec("Coherent", alpha=1.0), tight_policy)
    _, norm = apply_create(coh)
    assert norm**2 == pytest.approx(2.0, abs=1e-10)


def test_annihilate_fock():
    s, norm = apply_annihilate(make_fock(1, 4))
    assert norm == pytest.approx(1.0)
    assert abs(s.amplitudes[0]) == pytest.approx(1.0)


def test_annihilate_vacuum_fails():
    with pytest.raises(AnnihilatedStateError):
        apply_annihilate(make_fock(0, 4))


def test_annihilate_twice_norm():
    s, norm = apply_annihilate(make_fock(3, 5), k=2)
    assert norm == pytest.approx(math.sqrt(6.0))
    assert abs(s.amplitudes[1]) == pytest.approx(1.0)


def test_create_then_annihilate_roundtrip_on_fock():
    # a a† |n> = (n+1)|n>, so number states come back exactly (up to phase).
    for n in range(6):
        s = make_fock(n, 12)
        up, _ = apply_create(s)
        down, _ = apply_annihilate(up)
        assert abs(s.overlap(down)) == pytest.approx(1.0, abs=1e-10)


def test_create_then_annihilate_reweights_by_number(rng):
    # On a general state the roundtrip yields (N+1)|s> normalized, with
    # overlap (<N>+1)/sqrt(<(N+1)^2>); 1 is reached only on number states.
    for _ in range(20):
        raw = rng.normal(size=24) + 1j * rng.normal(size=24)
        raw[-6:] = 0.0  # keep support away from the truncation edge
        s = state_from_amplitudes(raw)
        up, _ = apply_create(s)
        down, _ = apply_annihilate(up)
        n = np.arange(s.dim)
        p = s.probabilities()
        mean_np1 = float(np.dot(n + 1.0, p))
        mean_np1_sq = float(np.dot((n + 1.0) ** 2, p))
        expected = mean_np1 / math.sqrt(mean_np1_sq)
        assert abs(s.overlap(down)) == pytest.approx(expected, abs=1e-10)


def test_commutator_on_random_states(rng):
    for _ in range(20):
        raw = rng.normal(size=24) + 1j * rng.normal(size=24)
        raw[-4:] = 0.0
        s = state_from_amplitudes(raw)
        aa_dag = float(np.sum(np.abs(raise_amplitudes(s.amplitudes)) ** 2))
        a_dag_a = float(np.sum(np.abs(lower_amplitudes(s.amplitudes)) ** 2))
        assert aa_dag - a_dag_a == pytest.approx(1.0, abs=1e-10)


def test_create_norm_matches_mean_photon_number(rng):
    for _ in range(10):
        raw = rng.normal(size=20) + 1j * rng.normal(size=20)
        raw[-4:] = 0.0
        s = state_from_amplitudes(raw)
        _, norm = apply_create(s)
        p = photon_number_distribution(s)
        mean_n = float(np.dot(np.arange(s.dim), p))
        assert norm == pytest.approx(math.sqrt(mean_n + 1.0), abs=1e-10)


def test_photon_number_distribution_fock():
    p = photon_number_distribution(make_fock(2, 6))
    assert np.allclose(p, [0, 0, 1, 0, 0, 0])


def test_photon_number_distribution_coherent(tight_policy):
    s = build_state(StateSpec("Coherent", alpha=1.0), tight_policy)
    p = photon_number_distribution(s)
    expected = [math.exp(-1.0) / math.factorial(n) for n in range(6)]
    assert np.allclose(p[:6], expected, atol=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_paecs_vacuum_hole(tight_policy):
    s = build_state(StateSpec("PAECS", alpha=1.0), tight_policy)
    assert photon_number_distribution(s)[0] == 0.0


def test_create_overflow_at_cap():
    policy = TruncationPolicy(max_dim=4, tail_tolerance=1e-12)
    with pytest.raises(TruncationOverflowError):
        apply_create(make_fock(3, 4), policy=policy)


def test_global_phase_preserved_by_default():
    raw = np.array([1.0j, 1.0], dtype=complex)
    s = state_from_amplitudes(raw)
    assert s.amplitudes[0] == pytest.approx(1j / math.sqrt(2))


@pytest.mark.parametrize("raw", [[1e200, 1e200], [np.inf, 1.0], [np.nan, 1.0], [1.0, complex(0, np.inf)]])
def test_non_finite_norm_is_refused(raw):
    with pytest.raises(ConvergenceError):
        state_from_amplitudes(np.array(raw, dtype=complex))


@pytest.mark.parametrize("raw", [[1e155, 0.0], [1e-160, 0.0]])
def test_norm_whose_square_leaves_the_float_range_is_refused(raw):
    # A finite norm whose square overflows or goes subnormal.
    with pytest.raises(ConvergenceError):
        state_from_amplitudes(np.array(raw, dtype=complex))


@pytest.mark.parametrize("raw", [[], [0.0, 0.0], [1e-170, 0.0]])
def test_zero_norm_is_an_empty_state(raw):
    # 1e-170 squares to exactly 0.0, so the vector is empty in float.
    with pytest.raises(AnnihilatedStateError):
        state_from_amplitudes(np.array(raw, dtype=complex))


@pytest.mark.parametrize("scale", [1e-13, 1e-100, 1e-150])
def test_a_small_norm_is_still_a_state(scale):
    s = state_from_amplitudes(np.array([3.0, 4.0j]) * scale)
    assert np.allclose(s.amplitudes, [0.6, 0.8j], rtol=0.0, atol=1e-15)


# --- the cached ladder rows a^k|s> -------------------------------------------

def _row_states(rng):
    raw = rng.normal(size=40) + 1j * rng.normal(size=40)
    return [make_fock(5, 9), state_from_amplitudes(raw), make_fock(0, 1)]


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
def test_lowered_rows_are_lower_amplitudes_bitwise(order, rng):
    for s in _row_states(rng):
        ks = list(range(s.dim + 2))
        if order == "decreasing":
            ks.reverse()
        elif order == "shuffled":
            rng.shuffle(ks)
        for k in ks + ks:  # every row asked twice, the second time from the table
            assert _bitwise(s.lowered(k), lower_amplitudes(s.amplitudes, k)), (s.dim, k)
        assert len(s.lowered(s.dim)) == 0 and len(s.lowered(s.dim + 1)) == 0


def test_lowered_rows_are_read_only(rng):
    for s in _row_states(rng):
        for k in range(s.dim + 2):
            row = s.lowered(k)
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[...] = 0.0


def test_lowered_rejects_negative_powers():
    with pytest.raises(ValueError):
        make_fock(1, 4).lowered(-1)


def test_states_from_the_same_amplitudes_do_not_share_rows(rng):
    raw = rng.normal(size=12) + 1j * rng.normal(size=12)
    first, second = StateVector(raw, 12), StateVector(raw, 12)
    for k in range(13):
        assert not np.shares_memory(first.lowered(k), second.lowered(k)), k


def test_lowered_rows_are_consistent_across_threads(rng):
    # Eight threads race to grow the table of each fresh state in their own
    # order; whichever tuple is published last, every row read is the reference.
    states, references = [], []
    for _ in range(50):
        raw = rng.normal(size=24) + 1j * rng.normal(size=24)
        states.append(state_from_amplitudes(raw))
        references.append([lower_amplitudes(states[-1].amplitudes, k) for k in range(18)])
    orders = [rng.permutation(18).tolist() for _ in range(8)]
    barrier = threading.Barrier(len(orders), timeout=60)
    mismatches, finished = [], []

    def worker(order):
        for s, reference in zip(states, references):
            barrier.wait()
            mismatches.extend((s, k) for k in order if not _bitwise(s.lowered(k), reference[k]))
        finished.append(order)

    threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that the races happen
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == len(orders) and mismatches == []


def _referrers(tree, name):
    """The functions (or "<module>") that refer to ``name``, or hold it as a string, and "<alias>" if it is renamed on import."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name):
            found.add(owner)
        if isinstance(node, ast.Constant) and node.value == name:  # a key of a state's __dict__
            found.add(owner)
        if isinstance(node, ast.alias) and node.name == name and node.asname:
            found.add("<alias>")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_only_the_operator_references_lower_a_vector_outside_core():
    # Moments read the rows each StateVector caches; outside core only the
    # composition oracle and the quadrature operator X lower a vector.
    package = Path(focklab.__file__).parent
    referrers = {
        f"{path.stem}.{owner}"
        for path in sorted(package.glob("*.py"))
        if path.name != "core.py"
        for owner in _referrers(ast.parse(path.read_text()), "lower_amplitudes")
    }
    assert referrers == {"oracle.composed", "witnesses._apply_quadrature"}


def _package_referrers(name):
    package = Path(focklab.__file__).parent
    return {
        f"{path.stem}.{owner}"
        for path in sorted(package.glob("*.py"))
        for owner in _referrers(ast.parse(path.read_text()), name)
    }


def test_only_the_oracle_names_the_moment_memo():
    # The memo holds each moment with its truncation verdict; reading it
    # anywhere else would be a moment path that skips the guard.
    assert _package_referrers("_moment_memo") == {"moments.moment_oracle"}


def test_only_core_names_the_square_root_table():
    for name in ("_square_root_table", "_square_roots"):
        assert {owner.split(".")[0] for owner in _package_referrers(name)} == {"core"}, name


def test_one_rule_decides_that_a_vector_is_empty():
    # core.checked_norm is the existence rule of every amplitude vector, and the
    # closed-form constant applies the same rule to 1/N^2; a zero-norm threshold
    # anywhere else would refuse states that exist.
    assert _package_referrers("AnnihilatedStateError") == {
        "core.checked_norm",
        "states.normalization_constant_closed_form",
    }


# --- the square roots of the ladder operators ------------------------------------

def _lower_by_arange(amps, k):
    # The k-fold annihilation operator as it was written before the square-root table.
    out = np.asarray(amps, dtype=np.complex128)
    for _ in range(k):
        if len(out) <= 1:
            return np.zeros(0, dtype=np.complex128)
        out = np.sqrt(np.arange(1, len(out), dtype=np.float64)) * out[1:]
    return out


def _raise_by_arange(amps, k):
    out = np.asarray(amps, dtype=np.complex128)
    for _ in range(k):
        grown = np.zeros(len(out) + 1, dtype=np.complex128)
        grown[1:] = np.sqrt(np.arange(1, len(out) + 1, dtype=np.float64)) * out
        out = grown
    return out


def test_ladder_operators_are_the_arange_form_bitwise(rng):
    size = len(core._square_root_table)
    # lengths inside the table, at its end and past it, which grow it
    for length in (0, 1, 2, 7, max(size - 1, 1), size, size + 1, 2 * size + 3, 5 * size + 17, 4099):
        raw = rng.normal(size=length) + 1j * rng.normal(size=length)
        for k in (1, 2, 5):
            assert _bitwise(lower_amplitudes(raw, k), _lower_by_arange(raw, k)), (length, k)
            assert _bitwise(raise_amplitudes(raw, k), _raise_by_arange(raw, k)), (length, k)
    assert len(core._square_root_table) >= 4100
    assert not core._square_roots(10).flags.writeable


def test_square_roots_past_the_cap_are_computed_not_kept():
    roots = core._square_roots(MAX_LOG_FACTORIALS + 1)
    assert len(roots) == MAX_LOG_FACTORIALS + 1 and roots[-1] == math.sqrt(MAX_LOG_FACTORIALS)
    assert len(core._square_root_table) <= MAX_LOG_FACTORIALS


# --- log-factorials and the truncation policy ----------------------------------

@pytest.mark.parametrize("n", [0, 1, 7, 4096, 5000])
def test_log_factorials_are_lgamma_bitwise(n):
    table = log_factorials(n)
    assert len(table) == n
    assert table.tolist() == [math.lgamma(k + 1) for k in range(n)]
    assert not table.flags.writeable


def test_log_factorials_past_the_cap_are_refused():
    with pytest.raises(ConvergenceError):
        log_factorials(MAX_LOG_FACTORIALS + 1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_dim": 0}, "max_dim must be >= 1"),
        ({"max_dim": 1.5}, "max_dim must be an integer"),
        ({"max_dim": MAX_LOG_FACTORIALS + 1}, "max_dim must be >= 1 and <="),
        ({"tail_tolerance": 0.0}, "tail_tolerance must lie in"),
        ({"tail_tolerance": 1.0}, "tail_tolerance must lie in"),
        ({"tail_tolerance": math.nan}, "tail_tolerance must lie in"),
    ],
)
def test_truncation_policy_rejects_with_a_named_error(kwargs, message):
    with pytest.raises(InvalidParameterError, match=message):
        TruncationPolicy(**kwargs)


def test_truncation_policy_takes_numpy_integers():
    policy = TruncationPolicy(max_dim=np.int64(64))
    assert policy.max_dim == 64 and type(policy.max_dim) is int


def test_only_core_builds_log_factorials():
    # Every log n! is read from core.log_factorials; no other module calls
    # lgamma or keeps a running sum of logs.
    pattern = re.compile(r"lgamma|gammaln|cumsum\(\s*np\.log|log\(\s*math\.factorial|\blog_factorial\b")
    package = Path(focklab.__file__).parent
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "core.py" and pattern.search(path.read_text())
    ]
    assert offenders == []


def test_only_states_reads_the_family_taxonomy():
    # A family's series group and hole step are dispatched on in states alone;
    # every other module sums over what states serves for all families.
    package = Path(focklab.__file__).parent
    readers = {
        f"{path.stem}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "states.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("group", "hole")
    }
    assert readers == set()


def test_the_oracle_imports_core_alone():
    # The composition oracle must not read the closed forms it checks: past
    # numpy and math, its only import is core's ladder operators.
    tree = ast.parse((Path(focklab.__file__).parent / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "math", "numpy", ".core"}


# The closed-form kernels the composition's start block still reads. This set
# may only shrink: an operator route for the starts empties it.
_START_KERNELS = {"_displaced_fock", "_bare_log_amplitudes"}


def test_the_composition_start_reads_only_the_allowed_closed_forms():
    tree = ast.parse((Path(focklab.__file__).parent / "states.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = {
        node.func.id
        for node in ast.walk(functions["_start"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions
    }
    assert called <= _START_KERNELS
    # Past its start, the composition reaches no closed-form kernel.
    steps = {
        node.func.id
        for node in ast.walk(functions["_composed_group"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not steps & {"_displaced_fock", "_dfs_log_amplitudes", "_bare_log_amplitudes", "bare_coefficients"}


def test_every_family_has_a_word_the_oracle_interprets():
    from focklab import oracle
    from focklab.states import FAMILY_INFO

    rows = {"n": [2, 0], "added": [1, 0], "subtracted": [1, 2], "alpha": [0.5 + 0.5j, 1.0], "chi": [0.1, -0.2]}
    start = np.ones((2, 8), dtype=np.complex128)
    for name, info in FAMILY_INFO.items():
        assert isinstance(info.word, tuple), name
        raw = oracle.composed(info.word, start, rows)
        assert raw.shape[0] == 2 and np.all(np.isfinite(raw)), name
    with pytest.raises(ValueError, match="no operator step"):
        oracle.composed(("D",), start, rows)
