"""Seeded workload generator and the operations the benchmark times.

``generate(workload, seed)`` returns plain data (config texts and spec
parameters) that depends only on the seed; ``build_ops`` turns it into
:class:`Op` objects that call focklab's public functions. Each op has a
timed ``call`` and an untimed ``check`` that returns one line per failed
operation. The seed moves only displacement phases, Kerr couplings,
binomial probabilities and the ends of sweep ranges; the families, the
Fock and photon-count parameters, the size ladder and the number of inputs
per rung are fixed, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

ALPHA_FAMILIES = ("Coherent", "DFS", "PADFS", "PSDFS", "PASDFS", "ECS", "VFECS", "PAECS", "Kerr", "VFKS", "PAKS")
BINOMIAL_FAMILIES = ("Binomial", "VFBS", "PABS")
DFS_GROUP = ("DFS", "PADFS", "PSDFS", "PASDFS")
ENTROPY_LADDER_FAMILIES = ("ECS", "VFECS", "PAECS", "Kerr", "VFKS", "PAKS")

SHIPPED_SWEEPS = (
    "antibunching_orders_subtracted.cfg",
    "entanglement_potential_cats.cfg",
    "hosps_added_subtracted.cfg",
    "kerr_squeezing_grid.cfg",
    "mandel_q_added.cfg",
    "phase_fluctuations_added.cfg",
    "phase_uncertainty_added.cfg",
)
SHIPPED_DUMPS = ("angular_q_added.cfg", "binomial_filtered_dump.cfg")

# Fixed seed set of the verify workload's run_verification suites.
VERIFY_SEEDS = (42, 2011)

# Tolerances the package's own tests use for each closed-form/oracle pair.
MOMENT_REL_TOL = 1e-8  # relative, for |moment| >= 1 (tests/test_moments.py)
MOMENT_ABS_TOL = 1e-10  # absolute, below unit scale
ENTROPY_TOL = 1e-8  # tests/test_interferometry.py
PHASE_TOL = 1e-8  # tests/test_phase.py, 24-point grid, tail 1e-20
Q_TOL = 1e-8  # tests/test_quasiprob.py
PROFILE_TOL = 1e-6  # a dumped angular profile integrates to 1
MOMENT_ORDERS = ((1, 1), (2, 0), (1, 3), (4, 4))


class Refused(str):
    """A failed operation where focklab raised a FockLabError outside the
    harness's "undefined" set instead of returning a value. It counts as
    failed, but no output was wrong."""


@dataclass
class Op:
    """One call of a public focklab function, with the check of its output.

    ``units`` is the work the call completes (grid points for a sweep, else
    one); ``latency`` says whether the call enters the op_ms distribution;
    ``attempted`` is how many operations ``check`` judges per call.
    """

    name: str
    size: str  # "small" or "large": the size class the rate metrics split on
    units: int
    latency: bool
    attempted: int
    call: Callable[[], object]
    check: Callable[[object], list[str]]


# --- generation: plain data from the seed -----------------------------------------


def _family_params(rng: np.random.Generator, family: str) -> dict:
    """Fixed Fock/photon counts (as in the shipped configs), seeded coupling."""
    params = {}
    if family in DFS_GROUP:
        params["n"] = 1
    if family in ("PADFS", "PASDFS"):
        params["added"] = 1
    if family in ("PSDFS", "PASDFS"):
        params["subtracted"] = 1
    if family in ("Kerr", "VFKS", "PAKS"):
        params["chi"] = float(rng.uniform(0.0, 0.3))
    return params


def _state_lines(family: str, params: dict, mag: float, phase: float) -> list[str]:
    lines = [f"state.family = {family}"]
    if family in BINOMIAL_FAMILIES:
        lines += [f"state.p = {params['p']!r}", f"state.M = {params['M']}"]
    else:
        lines += [f"state.alpha.mag = {mag!r}", f"state.alpha.phase = {phase!r}"]
    lines += [f"state.{key} = {value!r}" for key, value in params.items() if key not in ("p", "M")]
    return lines


def _sweep_text(name, state_lines, param, start, stop, steps, quantities) -> str:
    return "\n".join(
        state_lines
        + [
            f"sweep.param = {param}",
            f"sweep.start = {start!r}",
            f"sweep.stop = {stop!r}",
            f"sweep.steps = {steps}",
            f"quantities = {', '.join(quantities)}",
            f"output = {name}.csv",
        ]
    ) + "\n"


def generate_sweeps(rng: np.random.Generator, quantities: tuple[str, ...]) -> list[tuple[str, str, str]]:
    """(name, size class, config text) for every seeded sweep."""
    out = []
    for family in ALPHA_FAMILIES:
        params = _family_params(rng, family)
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        start, stop = float(rng.uniform(0.2, 0.4)), float(rng.uniform(2.8, 3.0))
        lines = _state_lines(family, params, 1.0, phase)
        out.append((f"small-{family}", "small", _sweep_text(f"small-{family}", lines, "alpha.mag", start, stop, 8, quantities)))
        for mag, steps in ((8.0, 3), (15.0, 2)):
            lines = _state_lines(family, params, mag, 0.0)
            start = float(rng.uniform(0.0, 2.0 * math.pi))
            text = _sweep_text(f"large-{family}-{mag:g}", lines, "alpha.phase", start, start + 1.0, steps, quantities)
            out.append((f"large-{family}-{mag:g}", "large", text))
    for family in BINOMIAL_FAMILIES:
        params = {"p": 0.5, "M": 10}
        start, stop = float(rng.uniform(0.1, 0.2)), float(rng.uniform(0.8, 0.9))
        lines = _state_lines(family, params, 0.0, 0.0)
        out.append((f"small-{family}", "small", _sweep_text(f"small-{family}", lines, "p", start, stop, 8, quantities)))
        # M = 128 and 360 give dims of about 90 and 210 at p ~ 0.4.
        for M, steps in ((128, 3), (360, 2)):
            lines = _state_lines(family, {"p": 0.4, "M": M}, 0.0, 0.0)
            start = float(rng.uniform(0.38, 0.40))
            out.append((f"large-{family}-{M}", "large", _sweep_text(f"large-{family}-{M}", lines, "p", start, start + 0.02, steps, quantities)))
    return out


def generate_dumps(rng: np.random.Generator) -> list[tuple[str, str, str]]:
    """(name, size class, config text) for every seeded dump.

    One spec per rung of |alpha| in {1, 3, 8, 15}, with a seeded phase (and
    coupling), dumped as each of angular_q (the shipped config's 360 x 128
    grid), husimi_q (a 120 x 48 polar grid) and phase (the 720-point default).
    The largest spec is also dumped as amplitudes, the default kind; that
    makes the dump count odd, so the median dump time falls on one dump's
    samples instead of between two dumps of different cost.
    """
    out = []
    for mag, family in ((1.0, "PADFS"), (3.0, "VFECS"), (8.0, "PAKS"), (15.0, "PASDFS")):
        params = _family_params(rng, family)
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        size = "small" if mag <= 3.0 else "large"
        kinds = [("angular_q", 360, 128), ("husimi_q", 120, 48), ("phase", 720, 160)]
        if mag == 15.0:
            kinds.append(("amplitudes", 720, 160))
        for kind, angles, radial in kinds:
            name = f"{kind}-{family}-{mag:g}"
            lines = _state_lines(family, params, mag, phase) + [
                f"dump.kind = {kind}",
                f"dump.angles = {angles}",
                f"dump.radial = {radial}",
                f"output = {name}.csv",
            ]
            out.append((name, size, "\n".join(lines) + "\n"))
    return out


def _spec_params(rng, family, mag):
    params = _family_params(rng, family)
    if family in BINOMIAL_FAMILIES:
        params.update(p=float(rng.uniform(0.1, 0.9)), M=10)
    else:
        params["alpha"] = complex(mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return dict(family=family, **params)


def generate_pairs(rng: np.random.Generator) -> list[tuple[str, str, dict, tuple]]:
    """(kind, name, StateSpec kwargs, extra arguments) for every closed-form pair."""
    out = []
    for family in ALPHA_FAMILIES + BINOMIAL_FAMILIES:
        for mag in (1.0, 3.0):
            kwargs = _spec_params(rng, family, mag)
            for t, j in MOMENT_ORDERS:
                out.append(("moment", f"moment-{family}-{mag:g}-{t}{j}", kwargs, (t, j)))
    # The dense entropy tensor grows as |alpha|^6, so |alpha| = 5 is the cap,
    # taken on one real (ECS) and one complex (Kerr) tensor path.
    for family in ENTROPY_LADDER_FAMILIES + BINOMIAL_FAMILIES:
        for mag in (1.0, 3.0, 5.0):
            if mag == 5.0 and family not in ("ECS", "Kerr"):
                continue
            out.append(("entropy", f"entropy-{family}-{mag:g}", _spec_params(rng, family, mag), ()))
    for family in ("Coherent",) + DFS_GROUP:
        for mag in (1.0, 3.0, 5.0):
            out.append(("phase", f"phase-{family}-{mag:g}", _spec_params(rng, family, mag), ()))
    for family in ("Coherent", "DFS", "PADFS", "PSDFS"):
        for mag in (1.0, 3.0, 5.0):
            kwargs = _spec_params(rng, family, mag)
            betas = tuple(
                complex(r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
                for r in (0.0, 0.5, 1.0, 2.0, mag)
            )
            out.append(("q", f"q-{family}-{mag:g}", kwargs, betas))
    return out


def generate(workload: str, seed: int, quantities: tuple[str, ...] = ()) -> dict:
    """All seeded inputs of one workload, as plain data."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    if workload == "sweeps":
        return {"sweeps": generate_sweeps(rng, quantities)}
    if workload == "phase_space":
        return {"dumps": generate_dumps(rng)}
    if workload == "verify":
        return {"pairs": generate_pairs(rng), "verify_seeds": VERIFY_SEEDS}
    raise ValueError(f"unknown workload {workload!r}")


# --- output checks ------------------------------------------------------------------


class Digests:
    """SHA-256 of every CSV written, keyed by op name.

    A CSV whose bytes differ from the same op's earlier output is a failed
    operation: focklab's output is byte-stable for a given input.
    """

    def __init__(self):
        self.by_name: dict[str, str] = {}

    def record(self, name: str, path: str) -> list[str]:
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        previous = self.by_name.setdefault(name, digest)
        return [] if previous == digest else [f"{name}: CSV bytes changed between rounds"]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for name in sorted(self.by_name):
                handle.write(f"{self.by_name[name]}  {name}.csv\n")

    def combined(self) -> str:
        text = "".join(f"{self.by_name[n]} {n}\n" for n in sorted(self.by_name))
        return hashlib.sha256(text.encode()).hexdigest()


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0] if rows else [], rows[1:]


def check_sweep_csv(name: str, config, path: str) -> list[str]:
    """Header, row count, and an empty error cell on every row."""
    expected_header = [axis.param for axis in config.axes] + list(config.quantities) + ["error"]
    expected_rows = math.prod(axis.steps for axis in config.axes)
    header, rows = _read_csv(path)
    if header != expected_header:
        return [f"{name}: header {header} != {expected_header}"]
    failures = []
    if len(rows) != expected_rows:
        failures.append(f"{name}: {len(rows)} rows, expected {expected_rows}")
    for index, row in enumerate(rows):
        if len(row) != len(header):
            failures.append(f"{name} row {index}: {len(row)} cells")
        elif row[-1]:
            failures.append(Refused(f"{name} row {index}: {row[-1]}"))
        elif not all(math.isfinite(float(cell)) for cell in row[:-1] if cell):
            failures.append(f"{name} row {index}: non-finite value")
    return failures


def check_dump_csv(name: str, config, path: str) -> list[str]:
    """Profiles integrate to 1; Q values are non-negative; p_n sums to 1."""
    header, rows = _read_csv(path)
    values = np.array([[float(cell) for cell in row] for row in rows])
    if config.kind in ("phase", "angular_q"):
        if header != ["theta", "density"] or len(rows) != config.angles:
            return [f"{name}: bad profile shape {header} x {len(rows)}"]
        # The periodic trapezoid rule is exact for these trigonometric
        # polynomials of degree below the number of angles.
        integral = float(np.sum(values[:, 1])) * 2.0 * math.pi / config.angles
        if not abs(integral - 1.0) <= PROFILE_TOL:
            return [f"{name}: profile integrates to {integral!r}"]
    elif config.kind == "husimi_q":
        if header != ["re_beta", "im_beta", "q"] or len(rows) != config.angles * config.radial:
            return [f"{name}: bad Q grid shape {header} x {len(rows)}"]
        if not (np.all(np.isfinite(values)) and np.all(values[:, 2] >= 0.0)):
            return [f"{name}: Q values not finite and non-negative"]
    else:
        total = float(np.sum(values[:, 3])) if len(rows) else 0.0
        if header != ["n", "re", "im", "p"] or not abs(total - 1.0) <= PROFILE_TOL:
            return [f"{name}: amplitudes sum to {total!r}"]
    return []


# --- ops ----------------------------------------------------------------------------


def _shipped(root: str, filename: str, parse, out_dir: str):
    with open(os.path.join(root, "configs", filename)) as handle:
        config = parse(handle.read())
    return replace(config, output_path=os.path.join(out_dir, os.path.basename(config.output_path)))


def _csv_op(name, size, units, config, run, check, digests) -> Op:
    def verify_output(_result):
        failures = check(name, config, config.output_path)
        return failures + digests.record(name, config.output_path)

    return Op(name, size, units, True, units, lambda: run(config), verify_output)


def build_ops(workload: str, inputs: dict, root: str, out_dir: str, digests: Digests) -> list[Op]:
    """The ops of one round, in the order they run.

    Every call looks its function up on the focklab module at call time, so
    a tracer that patches the module sees it.
    """
    from focklab import harness
    from focklab.config import dump_config_from_text, sweep_config_from_text

    csv_workloads = {
        "sweeps": ("sweeps", SHIPPED_SWEEPS, sweep_config_from_text, lambda c: harness.run_sweep(c), check_sweep_csv),
        "phase_space": ("dumps", SHIPPED_DUMPS, dump_config_from_text, lambda c: harness.dump_state(c), check_dump_csv),
    }
    ops: list[Op] = []
    if workload in csv_workloads:
        key, shipped, parse, run, check = csv_workloads[workload]
        configs = [(f"shipped-{f[:-4]}", "small", _shipped(root, f, parse, out_dir)) for f in shipped]
        for name, size, text in inputs[key]:
            configs.append((name, size, replace(parse(text), output_path=os.path.join(out_dir, f"{name}.csv"))))
        for name, size, config in configs:
            points = math.prod(axis.steps for axis in config.axes) if workload == "sweeps" else 1
            ops.append(_csv_op(name, size, points, config, run, check, digests))
    elif workload == "verify":
        ops += [_suite_op(seed) for seed in inputs["verify_seeds"]]
        ops += [_pair_op(*pair) for pair in inputs["pairs"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def _suite_op(seed: int) -> Op:
    from focklab import verify

    def check(report) -> list[str]:
        return [
            f"verify seed {seed}: {c.name} failed (abs {c.max_abs_error:.2e}, rel {c.max_rel_error:.2e}, tol {c.tolerance:.0e})"
            for c in report.checks
            if not c.passed
        ]

    return Op(f"verify-{seed}", "large", 1, False, 8, lambda: verify.run_verification(seed), check)


def _pair_op(kind: str, name: str, spec_kwargs: dict, extra: tuple) -> Op:
    """A closed form and its oracle, timed together, compared at the tests' tolerance."""
    from focklab import interferometry, moments, phase, quasiprob, states
    from focklab.core import TruncationPolicy
    from focklab.states import StateSpec

    oracle_policy = TruncationPolicy(max_dim=512, tail_tolerance=1e-16)
    spec = StateSpec(**spec_kwargs)

    if kind == "moment":
        t, j = extra

        def call():
            value = moments.moment_series(spec, t, j, oracle_policy)
            return value, moments.moment_oracle(states.build_state(spec, oracle_policy), t, j)

        def error(pair):
            value, reference = pair
            err = abs(value - reference)
            if abs(reference) >= 1.0:
                return err / abs(reference), MOMENT_REL_TOL
            return err, MOMENT_ABS_TOL

    elif kind == "entropy":

        def call():
            closed = interferometry.linear_entropy_closed_form(spec)
            return closed, interferometry.linear_entropy(states.build_state(spec, oracle_policy))

        def error(pair):
            return abs(pair[0] - pair[1]), ENTROPY_TOL

    elif kind == "phase":
        thetas = phase.theta_grid(24)
        tight = TruncationPolicy(max_dim=512, tail_tolerance=1e-20)

        def call():
            closed = phase.phase_distribution_closed_form(spec, thetas)
            return closed, phase.phase_distribution(states.build_state(spec, tight), 24).density

        def error(pair):
            return float(np.max(np.abs(pair[0] - pair[1]))), PHASE_TOL

    elif kind == "q":

        def call():
            closed = np.array([quasiprob.q_function_closed_form(spec, beta) for beta in extra])
            return closed, quasiprob.q_function(states.build_state(spec, oracle_policy), np.array(extra))

        def error(pair):
            return float(np.max(np.abs(pair[0] - pair[1]))), Q_TOL

    else:
        raise ValueError(kind)

    def check(pair) -> list[str]:
        err, tol = error(pair)
        return [] if err <= tol else [f"{name}: closed form vs oracle error {err:.3e} > {tol:.0e}"]

    return Op(name, "small", 1, True, 1, call, check)
