"""focklab benchmark: one command, three closed-loop workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 35 --trace 0

Workloads are ``sweeps``, ``phase_space`` and ``verify`` (see README.md).
A run builds its seeded inputs, times focklab's set-up in fresh processes,
runs one untimed warm-up round, then repeats identical rounds of public
calls until ``--seconds`` have passed, checking every output. The last
line of standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate
and it holds the per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so the benchmark's load never
# exceeds the host's cores and set-up children inherit the same setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from tracer import FUNCTIONS, PEAK_TRACKED, Tracer, per_layer_metric_specs
from workloads import Digests, Refused, build_ops, generate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweeps", "phase_space", "verify")
SETUP_LAUNCHES = 7
REFERENCE_KERNEL_S = 1e-3
CALIBRATE_EVERY_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("rate.small", "1/s"),
    ("rate.large", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)

# Each workload's own name for the generic metrics, used in the printed lines.
ALIASES = {
    "sweeps": {"rate.small": "points_per_s.small", "rate.large": "points_per_s.large", "op_ms": "sweep_ms"},
    "phase_space": {"rate.small": "dumps_per_s.small", "rate.large": "dumps_per_s.large", "op_ms": "dump_ms"},
    "verify": {"rate.small": "pairs_per_s", "rate.large": "suites_per_s", "op_ms": "closed_form_ms"},
}

_SETUP_CHILD = """
import sys
sys.path.insert(0, "src")
from focklab import StateSpec, build_state
build_state(StateSpec("Coherent", alpha=1.0))
print("ready", flush=True)
"""


class HostSpeed:
    """A fixed CPU kernel, timed between ops to track the host's speed.

    The shared host alternates between speed phases lasting seconds to
    minutes, and CPU time moves with wall time, so no run length averages
    them out. Each timing is therefore also reported calibrated: scaled by
    REFERENCE_KERNEL_S / (the kernel's time around the sample), i.e. as it
    would read on a host where this kernel takes exactly 1 ms. The kernel
    mixes interpreter work and small numpy calls, like focklab, and touches
    no focklab code, so a change to focklab never moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        self._vector = rng.normal(size=400) + 1j * rng.normal(size=400)
        self.last = self.measure()

    def _kernel(self) -> float:
        total = 0.0
        for i in range(1, 3000):
            total += math.log(i) * 0.5
        for _ in range(24):
            total += float(np.abs(self._matrix @ self._vector[:96]).sum())
            total += float(np.exp(-np.abs(self._vector)).sum())
        return total

    def measure(self) -> float:
        """Seconds per kernel run: the fastest of three, to shed interrupts."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def scale_since_last(self) -> float:
        """Calibration factor for samples taken since the previous call."""
        now = self.measure()
        scale = REFERENCE_KERNEL_S / (0.5 * (now + self.last))
        self.last = now
        return scale


def measure_setup(launches: int, speed: HostSpeed) -> tuple[list[float], list[float]]:
    """(raw, calibrated) seconds from process start until focklab is imported
    and a state is built, per launch."""
    raw, calibrated = [], []
    speed.scale_since_last()
    for _ in range(launches):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up child failed to import focklab")
        raw.append(elapsed)
        calibrated.append(elapsed * speed.scale_since_last())
    return raw, calibrated


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Run:
    """Timed rounds of one workload's ops, with their checks.

    Ops are timed one at a time; the host-speed kernel runs after every
    CALIBRATE_EVERY_S of op time and calibrates the samples since the last
    kernel run.
    """

    def __init__(self, ops, speed: HostSpeed):
        self.ops = ops
        self.speed = speed
        self.raw: dict[str, list[float]] = {op.name: [] for op in ops}
        self.times: dict[str, list[float]] = {op.name: [] for op in ops}
        self.attempted = 0
        self.failures: list[str] = []

    def round(self, record: bool = True) -> float:
        """Run every op once; return the round's summed op time, calibrated."""
        total = 0.0
        pending: list[tuple[str, float]] = []
        self.speed.scale_since_last()
        for index, op in enumerate(self.ops):
            start = time.perf_counter()
            result = op.call()
            elapsed = time.perf_counter() - start
            self.attempted += op.attempted
            self.failures += op.check(result)
            pending.append((op.name, elapsed))
            if sum(t for _, t in pending) >= CALIBRATE_EVERY_S or index == len(self.ops) - 1:
                scale = self.speed.scale_since_last()
                for name, raw in pending:
                    total += raw * scale
                    if record:
                        self.raw[name].append(raw)
                        self.times[name].append(raw * scale)
                pending.clear()
        return total

    def rate(self, size: str, times: dict[str, list[float]]) -> float:
        """Work units per second of the class, from each op's median time."""
        ops = [op for op in self.ops if op.size == size]
        return sum(op.units for op in ops) / sum(statistics.median(times[op.name]) for op in ops)

    def latencies(self, times: dict[str, list[float]]) -> list[float]:
        return [t for op in self.ops if op.latency for t in times[op.name]]


def _timings(run: Run, setup: list[float], times) -> dict:
    samples = run.latencies(times)
    level, tail_value = tail(samples)
    return {
        "setup_s": statistics.median(setup),
        "rate.small": run.rate("small", times),
        "rate.large": run.rate("large", times),
        "op_ms.p50": 1000.0 * statistics.median(samples),
        "op_ms.tail": 1000.0 * tail_value,
        "tail_level": level,
        "samples": len(samples),
    }


def end_to_end(workload: str, run: Run, setup_raw: list[float], setup: list[float]) -> tuple[dict, list[str]]:
    values = _timings(run, setup, run.times)
    raw = _timings(run, setup_raw, run.raw)
    values["peak_rss_mb"] = raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    alias = ALIASES[workload]
    names = {
        "setup_s": ("setup_s", "s", f"median of {len(setup)} launches"),
        "rate.small": (alias["rate.small"], "1/s", "work units per second"),
        "rate.large": (alias["rate.large"], "1/s", "work units per second"),
        "op_ms.p50": (f"{alias['op_ms']}.p50", "ms", f"n={values['samples']}"),
        "op_ms.tail": (f"{alias['op_ms']}.tail", "ms", f"p{values['tail_level']:.1f}, n={values['samples']}"),
        "peak_rss_mb": ("peak_rss_mb", "MB", "of this process"),
    }
    lines = []
    for key, (name, unit, note) in names.items():
        lines.append(f"{name} {raw[key]:.4f} {unit} measured, {values[key]:.4f} {unit} calibrated ({key}; {note})")
    if workload == "verify":
        suites = [op.name for op in run.ops if not op.latency]
        for label, times in (("measured", run.raw), ("calibrated", run.times)):
            verify_s = statistics.mean(statistics.median(times[name]) for name in suites)
            lines.append(f"verify_s {verify_s:.4f} s {label} (mean over the seed set of each suite's median)")
    return values, lines


def per_layer(tracer, untraced: list[float], traced: list[float]) -> tuple[dict, list[str]]:
    timed = tracer.rounds[:-1]  # the last round is the memory pass
    values = dict(timed[0].computed())
    mismatched = [name for name, value in values.items() if any(c.computed()[name] != value for c in timed[1:])]
    for name in FUNCTIONS:
        values[f"{name}.self_s"] = statistics.median(c.self_s[name] for c in timed)
    for name in PEAK_TRACKED:
        values[f"{name}.peak_mb"] = tracer.rounds[-1].peak_mb[name]
    base, slow = statistics.median(untraced), statistics.median(traced)
    values["trace.overhead_s"] = slow - base
    values["trace.overhead_frac"] = (slow - base) / base
    lines = [
        f"trace: {len(traced)} traced and {len(untraced)} untraced rounds; "
        f"median round {slow:.4f} s traced vs {base:.4f} s untraced (calibrated); "
        f"overhead {values['trace.overhead_s']:.4f} s ({100.0 * values['trace.overhead_frac']:.1f}%)",
        "computed counts (calls, failed, dim_mean, repeat_frac, kernel_elems, tensor_elems) "
        + ("repeat exactly in every traced round" if not mismatched else f"DIFFER between rounds: {mismatched}"),
    ]
    if set(values) != {name for name, _ in per_layer_metric_specs()}:
        raise RuntimeError("per-layer metrics do not match their specification")
    return values, lines + [f"{name} {values[name]!r} {unit}" for name, unit in per_layer_metric_specs()]


def host_line() -> str:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return (
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas} blas_threads=1"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "focklab", "__init__.py")):
        print(f"perfbench: focklab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from focklab.harness import QUANTITY_NAMES

    print(host_line())
    speed = HostSpeed()
    setup_raw, setup = measure_setup(SETUP_LAUNCHES, speed)
    inputs = generate(args.workload, args.seed, QUANTITY_NAMES)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    digests = Digests()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        run = Run(build_ops(args.workload, inputs, ROOT, scratch, digests), speed)
        run.round(record=False)  # warm-up: caches fill, lazy imports finish
        started = time.perf_counter()
        if args.trace == 0:
            rounds = 0
            while time.perf_counter() - started < args.seconds or rounds < 2:
                run.round()
                rounds += 1
            metrics, lines = end_to_end(args.workload, run, setup_raw, setup)
        else:
            untraced, traced = [], []
            tracer = Tracer()
            while time.perf_counter() - started < args.seconds or len(traced) < 2:
                untraced.append(run.round(record=False))
                with tracer:
                    traced.append(run.round(record=False))
            tracer.track_memory = True
            with tracer:
                run.round(record=False)
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{tag}.jsonl.gz"))
            metrics, lines = per_layer(tracer, untraced, traced)
    if digests.by_name:
        path = os.path.join(OUT_DIR, f"sha256-{tag}.txt")
        digests.write(path)
        lines.append(f"csv sha256 of {len(digests.by_name)} files: {digests.combined()} (list in {os.path.relpath(path, ROOT)})")

    failed = len(run.failures)
    wrong = [failure for failure in run.failures if not isinstance(failure, Refused)]
    for line in lines:
        print(line)
    print(
        f"failed_frac {failed / run.attempted:.6f} ({failed} of {run.attempted} operations; "
        f"{len(wrong)} wrong outputs, {failed - len(wrong)} refused with a FockLabError)"
    )
    for failure in dict.fromkeys(run.failures):  # each distinct failure once
        print(f"FAILED {'refused' if isinstance(failure, Refused) else 'wrong'}: {failure}")
    units = dict(per_layer_metric_specs() if args.trace else END_TO_END)
    result = {
        "correct": not wrong,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
