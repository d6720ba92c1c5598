"""Self-tests of the benchmark: seeded inputs, computed counts, tracer hygiene.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run as bench

sys.path.insert(0, bench.SRC)

from focklab import harness, moments, verify, witnesses  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_generation_depends_only_on_the_seed(workload):
    first = workloads.generate(workload, 7, harness.QUANTITY_NAMES)
    assert first == workloads.generate(workload, 7, harness.QUANTITY_NAMES)
    assert first != workloads.generate(workload, 8, harness.QUANTITY_NAMES)


def _traced_round(workload: str, seed: int) -> dict:
    inputs = workloads.generate(workload, seed, harness.QUANTITY_NAMES)
    with tempfile.TemporaryDirectory() as out_dir:
        ops = workloads.build_ops(workload, inputs, bench.ROOT, out_dir, workloads.Digests())
        if workload == "verify":  # one suite and a slice of the pairs keep the test short
            ops = ops[:1] + [op for op in ops if not op.name.startswith("entropy-")][2:40]
        tracer = tracing.Tracer()
        with tracer:
            failures = [line for op in ops for line in op.check(op.call())]
    return tracer.rounds[-1].computed(), failures


@pytest.mark.parametrize("workload", ("phase_space", "verify"))
def test_computed_counts_repeat_exactly_for_a_seed(workload):
    first, failures = _traced_round(workload, 3)
    second, _ = _traced_round(workload, 3)
    assert first == second
    assert not failures
    assert first["states.build_state.calls"] > 0


def test_sweep_counts_repeat_and_attribute_witness_calls():
    first, _ = _traced_round("sweeps", 5)
    second, _ = _traced_round("sweeps", 5)
    assert first == second
    # harness binds moment_oracle at import time; the tracer must still see those calls.
    assert first["moments.moment_oracle.calls"] > first["witnesses.mandel_q.calls"] > 0
    assert 0.0 < first["moments.moment_oracle.repeat_frac"] < 1.0
    assert first["harness.run_sweep.calls"] == len(workloads.SHIPPED_SWEEPS) + 42


def test_tracer_restores_every_patched_reference():
    before = (moments.moment_oracle, witnesses.moment_oracle, harness.moment_oracle, verify.ALL_CHECKS)
    with tracing.Tracer():
        assert harness.moment_oracle is not before[2]
        assert all(hasattr(check, "__wrapped__") for check in verify.ALL_CHECKS)
    assert (moments.moment_oracle, witnesses.moment_oracle, harness.moment_oracle, verify.ALL_CHECKS) == before


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    state = None
    with tracer:
        from focklab import StateSpec, states

        state = states.build_state(StateSpec("Coherent", alpha=1.0))
        witnesses.mandel_q(state)
    counts = tracer.rounds[-1]
    spans = {span[3]: span for span in tracer.spans}
    mandel = spans["witnesses.mandel_q"]
    assert counts.calls["moments.moment_oracle"] == 2
    assert counts.self_s["witnesses.mandel_q"] < mandel[5] - mandel[4]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    level, value = bench.tail(samples)
    assert value == 89.0 and level == 90.0
    assert sum(s > value for s in samples) == 10


def test_entropy_tensor_elems_matches_the_closed_form_shape():
    from focklab import StateSpec

    assert tracing.entropy_tensor_elems(StateSpec("ECS", alpha=1.0)) == 44 * 88 * 44  # cut = int(1 + 14 sqrt(2) + 24)
    assert tracing.entropy_tensor_elems(StateSpec("VFBS", p=0.5, M=4)) == 4**3


def test_exits_nonzero_without_the_package_sources():
    with tempfile.TemporaryDirectory() as root:
        shutil.copytree(os.path.dirname(os.path.abspath(bench.__file__)), os.path.join(root, "perfbench"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweeps", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=60,
        )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_the_metrics_the_run_prints():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
