"""Self-verification: every closed form against its independent oracle.

Each check draws its parameter points from a seeded generator, so a report
is fully reproducible from its seed, and different seeds probe different
points with the same pass/fail semantics. A check that builds states draws
all its points first and then builds them in one ``build_states`` batch: one
kernel pass per family, whose rows are trimmed and normalized as one block.
The state-oracle check composes its points in one ``compositions`` batch the
same way, and the moment check sums its series in one ``moment_sums`` call,
one vectorised pass per (t, j). Builds, compositions and sums draw no random
numbers, so the points and the report are those of computing each point as
it is drawn, and a failed build, composition or sum raises when the check's
loop reaches that point.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from typing import BinaryIO, NoReturn

import numpy as np

from .core import TruncationPolicy, state_from_amplitudes
from .exceptions import FockLabError
from .interferometry import _entropy_sum, linear_entropy
from .moments import moment_oracle, moment_sums
from .states import (
    FAMILIES,
    FAMILY_INFO,
    StateSpec,
    _LADDER_TAIL,
    _cut,
    build_states,
    compositions,
    ladders,
    limiting_cases,
    normalization_constant_closed_form,
    normalization_constants,
    state_distance,
)
from . import witnesses

_ORACLE_POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-16)
# The policy of the checks that compare two built states elementwise.
_STATE_POLICY = TruncationPolicy(max_dim=512, tail_tolerance=1e-14)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_abs_error: float
    max_rel_error: float
    tolerance: float
    passed: bool
    points: int


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


# The verification envelope of every field but alpha, in draw order.
_ENVELOPE = (
    ("n", lambda rng: int(rng.integers(0, 4))),
    ("added", lambda rng: int(rng.integers(0, 4))),
    ("subtracted", lambda rng: int(rng.integers(0, 4))),
    ("p", lambda rng: float(rng.uniform(0.05, 0.95))),
    ("M", lambda rng: int(rng.integers(1, 13))),
    ("chi", lambda rng: float(rng.uniform(0.0, 0.3))),
)


def _random_spec(rng: np.random.Generator, family: str) -> StateSpec:
    """A random parameter point within the verification envelope.

    alpha is drawn for every family, read or not, then the other fields in
    ``_ENVELOPE`` order; changing that order moves every seed's points.
    """
    fields = FAMILY_INFO[family].fields
    mag = rng.uniform(0.25, 3.0)
    alpha = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    kwargs: dict = {"family": family}
    if "alpha" in fields:
        kwargs["alpha"] = alpha
    for field, draw in _ENVELOPE:
        if field in fields:
            kwargs[field] = draw(rng)
    return StateSpec(**kwargs)


def _reached(batch: list) -> Iterator:
    """Each entry of a batch in order; an error entry raises when it is reached, as its one-spec call would."""
    for entry in batch:
        if isinstance(entry, FockLabError):
            raise entry
        yield entry


def _result(name: str, abs_err: float, rel_err: float, tol: float, points: int, rel: bool = False) -> CheckResult:
    err = rel_err if rel else abs_err
    return CheckResult(name, abs_err, rel_err, tol, err <= tol, points)


def check_state_oracle_equivalence(rng: np.random.Generator) -> CheckResult:
    """build_state vs build_by_composition, elementwise, at 20 points of every family; each side is one batch."""
    specs = [_random_spec(rng, family) for family in FAMILIES for _ in range(20)]
    worst = 0.0
    closed, composed = build_states(specs, _STATE_POLICY), compositions(specs, _STATE_POLICY)
    for state, oracle in zip(_reached(closed), _reached(composed)):
        worst = max(worst, state_distance(state, oracle))
    return _result("state-factory closed form vs operator composition", worst, worst, 1e-10, len(specs))


def check_moment_series(rng: np.random.Generator) -> CheckResult:
    """moment_series vs moment_oracle on 200 points of a randomized (family, params, t, j) grid.

    The series come from one ``moment_sums`` call, which sums the points of
    each (t, j) in one pass. The pass metric is relative error for
    |moment| >= 1 and absolute error (at a hundredfold tighter bar, 1e-10)
    below unit scale.
    """
    families = list(FAMILIES)
    points = []
    for _ in range(200):
        family = families[int(rng.integers(0, len(families)))]
        spec = _random_spec(rng, family)
        points.append((spec, int(rng.integers(0, 5)), int(rng.integers(0, 5))))
    specs = [spec for spec, _, _ in points]
    worst_metric = 0.0
    worst_abs = 0.0
    series = _reached(moment_sums(points))
    for (_, t, j), state in zip(points, _reached(build_states(specs, _ORACLE_POLICY))):
        reference = moment_oracle(state, t, j)
        value = next(series)  # moment_series of the point
        abs_err = abs(value - reference)
        worst_abs = max(worst_abs, abs_err)
        metric = abs_err / abs(reference) if abs(reference) >= 1.0 else abs_err * 100.0
        worst_metric = max(worst_metric, metric)
    return _result("moment series vs ladder oracle", worst_abs, worst_metric, 1e-8, len(points), rel=True)


def check_entropy_closed_forms(rng: np.random.Generator) -> CheckResult:
    """Closed-form linear-entropy series vs the numeric partial trace, at 5 points of every family."""
    specs = [_random_spec(rng, family) for family in FAMILIES for _ in range(5)]
    worst = 0.0
    for state, ladder in zip(_reached(build_states(specs, _ORACLE_POLICY)), ladders(specs)):
        numeric = linear_entropy(state)
        closed = _entropy_sum(ladder)  # linear_entropy_closed_form of the point's spec
        worst = max(worst, abs(numeric - closed))
    return _result("linear entropy closed form vs partial trace", worst, worst, 1e-8, len(specs))


def check_witness_coherent_boundary(rng: np.random.Generator) -> CheckResult:
    """Every witness sits on its classical boundary for coherent states."""
    specs = [
        StateSpec("Coherent", alpha=mag * np.exp(1j * phase))
        for mag in (0.3, 1.0, 2.0, 4.0)
        for phase in (0.0, math.pi / 4.0)
    ]
    worst = 0.0
    for state in _reached(build_states(specs, TruncationPolicy(max_dim=512, tail_tolerance=1e-18))):
        values = [witnesses.mandel_q(state).value]
        values += [witnesses.antibunching_d(state, l).value for l in (2, 3, 4)]
        values += [witnesses.hosps(state, l).value for l in (2, 3, 4)]
        values += [witnesses.hong_mandel_squeezing(state, l).value for l in (2, 4, 6)]
        values += [witnesses.klyshko_b(state, m).value for m in range(6)]
        values.append(witnesses.vogel_det(state).value)
        values.append(witnesses.agarwal_tara_a3(state).value)
        worst = max(worst, max(abs(v) for v in values))
    return _result("witness classical boundary on coherent grid", worst, worst, 1e-8, len(specs))


def check_hosps_central_moments(rng: np.random.Generator) -> CheckResult:
    """The Stirling-weighted sub-Poissonian witness against central moments, on 25 random states.

    For order l the witness equals (-1)^l [ <(N - <N>)^l> minus the same
    central moment of a Poisson distribution with the state's mean ], both
    sides here computed directly from photon-number distributions with no
    shared combinatorics.
    """
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(6, 24))
        state = state_from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        p = state.probabilities()
        n = np.arange(state.dim, dtype=np.float64)
        mean = float(np.dot(n, p))
        cut, _ = _cut(StateSpec("Coherent", alpha=math.sqrt(mean)), _LADDER_TAIL)  # the Poisson pmf is |<k|sqrt(mean)>|^2
        k = np.arange(cut, dtype=np.float64)
        log_pmf = k * math.log(mean) - np.cumsum(np.concatenate(([0.0], np.log(k[1:])))) - mean
        poisson = np.exp(log_pmf)
        for l in (2, 3, 4, 5):
            witness = witnesses.hosps(state, l).value
            reference = (-1.0) ** l * (
                float(np.dot((n - mean) ** l, p)) - float(np.dot((k - mean) ** l, poisson))
            )
            worst = max(worst, abs(witness - reference) / max(1.0, abs(reference)))
    return _result("sub-Poissonian witness vs central moments", worst, worst, 1e-8, 25 * 4)


def check_hong_mandel_dual_path(rng: np.random.Generator) -> CheckResult:
    """The normal-ordered triple sum against the direct central-moment expansion, on 30 random states."""
    worst = 0.0
    for _ in range(30):
        dim = int(rng.integers(8, 28))
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = state_from_amplitudes(raw)
        for l in (2, 4, 6):
            a = witnesses.quadrature_central_moment(state, l, "normal-ordered")
            b = witnesses.quadrature_central_moment(state, l, "binomial")
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return _result("Hong-Mandel dual evaluation paths", worst, worst, 1e-8, 30 * 3)


def check_normalization_constants(rng: np.random.Generator) -> CheckResult:
    """Numeric normalization of each bare series vs the analytic constants, at 6 points of every family.

    The numeric constants come from one ``normalization_constants`` batch; a
    failed one raises when the loop reaches its spec.
    """
    specs = [_random_spec(rng, family) for family in FAMILIES for _ in range(6)]
    worst = 0.0
    for spec, numeric in zip(specs, normalization_constants(specs)):
        closed = normalization_constant_closed_form(spec)
        if isinstance(numeric, FockLabError):
            raise numeric
        worst = max(worst, abs(numeric - closed) / closed)
    return _result("analytic normalization constants", worst, worst, 1e-9, len(specs))


def check_limiting_cases(rng: np.random.Generator) -> CheckResult:
    """The reduction lattice: each family collapses to its special cases, at 8 fixed and 24 drawn points."""
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
    for _ in range(24):
        family = ("PADFS", "PSDFS")[int(rng.integers(0, 2))]
        seeds.append(
            StateSpec(
                family,
                alpha=rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi)),
                n=int(rng.integers(0, 3)),
            )
        )
    lattice = [(spec, limiting_cases(spec)) for spec in seeds]
    built = _reached(build_states([s for spec, reduced in lattice for s in (spec, *reduced)], _STATE_POLICY))
    worst = 0.0
    count = 0
    for _, reduced in lattice:
        a = next(built)
        for _ in reduced:
            worst = max(worst, state_distance(a, next(built)))
            count += 1
    return _result("limiting-case reduction lattice", worst, worst, 1e-12, count)


ALL_CHECKS = (
    check_state_oracle_equivalence,
    check_moment_series,
    check_entropy_closed_forms,
    check_witness_coherent_boundary,
    check_hosps_central_moments,
    check_hong_mandel_dual_path,
    check_normalization_constants,
    check_limiting_cases,
)


def _share(seed: int, checks: tuple, indices: range) -> dict[int, CheckResult]:
    """The results of the checks at ``indices``, run in order until one raises.

    A check that raises has no result, nor have the ones after it; the caller
    runs them again in order, so the exception comes from where the serial
    loop raises it.
    """
    results = {}
    try:
        for index in indices:
            results[index] = checks[index](np.random.default_rng([seed, index]))
    except Exception:
        pass
    return results


def _child(seed: int, checks: tuple, indices: range, write_end: int) -> NoReturn:
    """Run a share in a forked child, pickle its results into the pipe, and leave.

    ``os._exit`` in the ``finally`` means the child never returns into its
    caller's frames, runs no ``atexit`` handler and flushes no inherited
    stdio buffer, whatever a check raises.
    """
    try:
        data = pickle.dumps(_share(seed, checks, indices))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _processes(count: int) -> int:
    """How many processes share ``count`` checks: one unless ``os.fork`` is safe here.

    Forking needs ``os.sched_getaffinity`` (Linux) and a process with one
    Python thread, since a fork copies only the calling thread.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return 1
    return min(count, len(os.sched_getaffinity(0)))


def _forked(seed: int, checks: tuple, processes: int) -> dict[int, CheckResult]:
    """The results of check i, run in process i mod ``processes``; this process is process 0.

    An index whose child died, could not be forked or whose check raised has
    no result. If this process is interrupted, every child it has not yet
    reaped is killed and reaped before the exception leaves.
    """
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe)
    try:
        for k in range(1, processes):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no room for another process: its share runs in this one
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                _child(seed, checks, range(k, len(checks), processes), write_end)
            children.append((pid, open(read_end, "rb")))
            os.close(write_end)
        results = _share(seed, checks, range(0, len(checks), processes))
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            children.pop(0)
            try:
                results.update(pickle.loads(data))
            except (EOFError, pickle.UnpicklingError):  # the child died before it wrote all of its results
                pass
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):  # reaped just before the interrupt
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_verification(seed: int = 42) -> VerificationReport:
    """Run every registered check with points drawn from the seeded generator.

    Check i draws from ``default_rng([seed, i])``. Where ``os.fork`` is safe
    (``_processes``), check i runs in process i mod P, P the smaller of the
    number of checks and of usable CPUs, with this process as process 0; the
    checks are independent, so the report is the serial loop's. Any index
    left without a result is then run here, in order, so an exception and
    its traceback are also those of the serial loop.
    """
    checks = ALL_CHECKS  # read per call: tests and the benchmark's tracer replace it
    processes = _processes(len(checks))
    results = _forked(seed, checks, processes) if processes > 1 else {}
    report = []
    for index, check in enumerate(checks):
        report.append(results[index] if index in results else check(np.random.default_rng([seed, index])))
    return VerificationReport(seed, tuple(report))
