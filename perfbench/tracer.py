"""Span tracing around focklab's public functions, from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper in every
focklab module that holds a reference to it (``harness`` and ``witnesses``
bind ``moment_oracle`` at import time, ``verify.ALL_CHECKS`` holds the check
functions in a tuple), and puts the originals back on exit. Each call
records a span ``(round, id, parent, name, start, end, failed)`` in memory;
spans are written out only when the benchmark ends.

Besides spans, a few wrappers compute counts from the call's arguments and
result. These counts are computed, not measured: they depend only on the
inputs, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
import time
import tracemalloc
import weakref
from collections import defaultdict

import numpy as np

# Layer (module) -> traced functions. The witnesses' cached integer helpers
# (stirling2, double_factorial) are left out: they cost nanoseconds after the
# first call and a wrapper would outweigh them.
TRACED = {
    "states": ("build_state", "build_by_composition"),
    "moments": ("moment_oracle", "moment_series"),
    "witnesses": (
        "mandel_q",
        "antibunching_d",
        "hosps",
        "quadrature_central_moment",
        "hong_mandel_squeezing",
        "klyshko_b",
        "vogel_det",
        "agarwal_tara_a3",
    ),
    "phase": (
        "phase_distribution",
        "phase_dispersion",
        "barnett_pegg_fluctuations",
        "phase_distribution_closed_form",
    ),
    "quasiprob": ("q_function", "angular_q", "q_function_closed_form"),
    "interferometry": (
        "linear_entropy",
        "linear_entropy_closed_form",
        "phase_estimation_uncertainty",
    ),
    "harness": ("run_sweep", "dump_state"),
    "verify": (
        "check_state_oracle_equivalence",
        "check_moment_series",
        "check_entropy_closed_forms",
        "check_witness_coherent_boundary",
        "check_hosps_central_moments",
        "check_hong_mandel_dual_path",
        "check_normalization_constants",
        "check_limiting_cases",
    ),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)

# Functions whose peak Python-heap growth per call is taken from tracemalloc.
PEAK_TRACKED = (
    "states.build_state",
    "interferometry.linear_entropy_closed_form",
    "quasiprob.angular_q",
    "phase.phase_distribution",
)

# Computed per-layer counts beyond calls/self_s/failed, with their units.
EXTRA_METRICS = (
    ("states.build_state.dim_mean", "count"),
    ("moments.moment_oracle.repeat_frac", "ratio"),
    ("quasiprob.q_function.kernel_elems", "count"),
    ("interferometry.linear_entropy_closed_form.tensor_elems", "count"),
) + tuple((f"{name}.peak_mb", "MB") for name in PEAK_TRACKED)


def per_layer_metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in a fixed order."""
    specs = []
    for name in FUNCTIONS:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"), (f"{name}.failed", "count")]
    specs += list(EXTRA_METRICS)
    specs += [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]
    return specs


def entropy_tensor_elems(spec) -> int:
    """Elements of the dense (n, m, r) tensor linear_entropy_closed_form builds."""
    fam = spec.family
    start = 1 if fam.startswith("VF") else 0
    if fam in ("Binomial", "VFBS", "PABS"):
        return (spec.M + 1 - start) ** 3
    if fam in ("ECS", "VFECS", "PAECS", "Kerr", "VFKS", "PAKS"):
        lam = spec.alpha_mag**2
        cut = int(lam + 14.0 * math.sqrt(lam + 1.0) + 24)
        return (cut - start) * (2 * cut - start) * (cut - start)
    return 0  # unsupported family: the call raises before building anything


class RoundCounts:
    """Computed counts of one round, summed over its calls."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.self_s = defaultdict(float)
        self.dims = 0
        self.oracle_repeats = 0
        self.kernel_elems = 0
        self.tensor_elems = 0
        self.peak_mb = defaultdict(float)

    def computed(self) -> dict:
        """The counts that must repeat exactly between runs of one seed."""
        builds = self.calls["states.build_state"]
        oracle = self.calls["moments.moment_oracle"]
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.failed"] = self.failed[name]
        out["states.build_state.dim_mean"] = self.dims / builds if builds else 0.0
        out["moments.moment_oracle.repeat_frac"] = self.oracle_repeats / oracle if oracle else 0.0
        out["quasiprob.q_function.kernel_elems"] = self.kernel_elems
        out["interferometry.linear_entropy_closed_form.tensor_elems"] = self.tensor_elems
        return out


class Tracer:
    """Wraps every traced function while entered; each entry is one round.

    Entering starts a new set of counts, and spans carry the round number
    as their request identifier. With ``track_memory`` set, the
    PEAK_TRACKED functions also run under tracemalloc (slow; used for one
    separate memory pass so spans of the timed rounds stay undistorted).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.rounds: list[RoundCounts] = []
        self.track_memory = False
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []
        self._oracle_seen: dict[int, set] = {}

    # -- patching ---------------------------------------------------------
    def __enter__(self):
        homes = {module: importlib.import_module(f"focklab.{module}") for module in TRACED}
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "focklab"]
        for module, names in TRACED.items():
            home = homes[module]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, tuple) and any(v is original for v in value):
                            self._patched.append((mod, attr, value))
                            setattr(mod, attr, tuple(wrapper if v is original else v for v in value))
        self.rounds.append(RoundCounts())
        self._oracle_seen.clear()
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    # -- recording --------------------------------------------------------
    def _wrap(self, name: str, func):
        tracer = self
        tracked = name in PEAK_TRACKED

        @functools.wraps(func)
        def traced(*args, **kwargs):
            counts = tracer.rounds[-1]
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            # No PEAK_TRACKED function calls another, so tracemalloc never nests.
            memory = tracer.track_memory and tracked
            if memory:
                tracemalloc.start()
            failed = True
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    counts.peak_mb[name] = max(counts.peak_mb[name], peak / 1e6)
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                counts.calls[name] += 1
                counts.failed[name] += failed
                counts.self_s[name] += (end - start) - frame[1]
                tracer.spans.append((len(tracer.rounds) - 1, span_id, parent, name, start, end, failed))
                if not failed:
                    tracer._count(name, counts, args, kwargs, result)

        return traced

    def _count(self, name, counts, args, kwargs, result):
        if name == "states.build_state":
            counts.dims += result.dim
        elif name == "moments.moment_oracle":
            state, t, j = args[0], args[1], args[2]
            key = id(state)
            seen = self._oracle_seen.get(key)
            if seen is None:
                seen = self._oracle_seen[key] = set()
                weakref.finalize(state, self._oracle_seen.pop, key, None)
            if (t, j) in seen:
                counts.oracle_repeats += 1
            seen.add((t, j))
        elif name == "quasiprob.q_function":
            beta = args[1] if len(args) > 1 else kwargs["beta"]
            counts.kernel_elems += int(np.size(beta)) * args[0].dim
        elif name == "interferometry.linear_entropy_closed_form":
            counts.tensor_elems += entropy_tensor_elems(args[0])

    def write_spans(self, path: str) -> None:
        """Write every recorded span, gzipped: a header line, then one JSON list per span."""
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps(["round", "id", "parent", "name", "start", "end", "failed"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
