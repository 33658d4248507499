"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They cover what the benchmark promises: a run's work is a pure
function of its seed, output checks hold, tracing is installed only in
the traced run and nests correctly, and the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
from hostspeed import UNIT_REF_S, HostSampler, to_reference_s  # noqa: E402
from tracing import Tracer, wrapper_cost_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: the seed results are quoted at; claims must also hold on another
DEFAULT_SEED = 1


def _bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _record_and_result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_plan_is_a_pure_function_of_the_seed(name):
    workload = WORKLOADS[name]
    plan = workload.plan(DEFAULT_SEED, 3)
    assert plan == workload.plan(DEFAULT_SEED, 3)
    assert plan != workload.plan(DEFAULT_SEED + 1, 3)
    # every round has the same composition, whatever the seed
    shapes = {tuple(sorted((op.kind, len(op.params)) for op in r))
              for seed in (DEFAULT_SEED, 7) for r in workload.plan(seed, 3)}
    assert len(shapes) == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_repeats_exactly(name):
    """Two runs of one seed do identical work: a run is never cut off
    by a clock."""
    first, result = _record_and_result(_bench(
        "--workload", name, "--seed", "3", "--seconds", "1"))
    second, _ = _record_and_result(_bench(
        "--workload", name, "--seed", "3", "--seconds", "1"))
    assert first["exact"] == second["exact"]
    assert first["exact"]["ops"] == result["attempted"] > 0
    assert result["correct"] and result["failed"] == 0
    assert first["fail_ratio"] == 0
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    for metric in result["metrics"].values():
        assert metric["value"] > 0


#: per-layer metrics each traced workload must measure as non-zero
REACHED_LAYERS = {
    "cordic-fig5": ("mcc.compile_ms", "iss.tick_ms", "sysgen.step_ms",
                    "cosim.loop_self_ms", "multicpu.cycles_per_s",
                    "resources.estimate_ms", "sweep.overhead_ms"),
    "farm-mixed": ("farm.hit_p50_ms", "farm.miss_p50_ms",
                   "farm.http_overhead_ms", "farm.cache_get_ms",
                   "farm.cache_put_ms", "farm.wal_record_ms"),
}


@pytest.mark.parametrize("name, seconds", [
    ("cordic-fig5", "2"), ("farm-mixed", "2"),
])
def test_traced_run_reports_every_layer_metric(name, seconds):
    """The traced run measures the layers its workload reaches and does
    exactly the untraced run's work."""
    record, result = _record_and_result(_bench(
        "--workload", name, "--seed", "3", "--seconds", seconds,
        "--trace", "1"))
    assert result["correct"], record["errors"]
    untraced, _ = _record_and_result(_bench(
        "--workload", name, "--seed", "3", "--seconds", seconds))
    assert record["exact"] == untraced["exact"]
    assert list(result["metrics"]) == [n for n, _ in run.PER_LAYER]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["ops"] == record["exact"]["ops"]
    assert metrics["simulated_cycles"] == record["exact"]["simulated_cycles"]
    for layer in (*REACHED_LAYERS[name], "trace.overhead.ops_per_s"):
        assert metrics[layer] > 0, layer
    assert 0 <= metrics["cosim.ff_skip_ratio"] <= 1


def test_batched_campaign_report_equals_scalar():
    from repro.faults.campaign import run_campaign
    from workloads import CAMPAIGN_TRIALS, _campaign_config

    op = WORKLOADS["fault-campaign"].plan(DEFAULT_SEED, 1)[0][0]
    config = _campaign_config(op.params["seed"], CAMPAIGN_TRIALS)
    batched = run_campaign(config, batch_width=32)
    scalar = run_campaign(config)
    assert batched.to_dict() == scalar.to_dict()


def test_spans_nest_and_wrappers_come_out():
    import repro.cosim.environment as environment
    from repro.iss.cpu import CPU

    original_tick = CPU.__dict__["tick"]
    original_sweep = sys.modules["repro.cosim.sweep"].sweep
    tracer = Tracer()
    run.install_wrappers(tracer)
    try:
        assert CPU.__dict__["tick"] is not original_tick
        assert sys.modules["repro.cosim"].sweep is not original_sweep
        result = WORKLOADS["cordic-fig5"].run_op(
            {}, WORKLOADS["cordic-fig5"].plan(DEFAULT_SEED, 1)[0][0])
        assert result.ok
    finally:
        tracer.uninstall()
    assert CPU.__dict__["tick"] is original_tick
    assert sys.modules["repro.cosim"].sweep is original_sweep
    assert environment.CoSimulation.run.__name__ == "run"
    assert not hasattr(environment.CoSimulation.run, "__wrapped__")
    assert run.nesting_errors(tracer) == []
    labels = tracer.labels()
    for label, stats in labels.items():
        assert 0 <= stats.child_s <= stats.total_s, label
    assert wrapper_cost_s() >= 0


def test_tracer_self_time_and_pairs():
    tracer = Tracer()
    calls = []

    def leaf():
        calls.append(1)

    def parent(fn):
        fn()
        fn()

    parents = []
    traced_leaf = tracer._wrap(
        leaf, "leaf", lambda t, *_: parents.append(t.parent_label()))
    traced_parent = tracer._wrap(parent, "parent", None)
    traced_parent(traced_leaf)
    # an observe hook sees the span that made the call
    assert parents == ["parent", "parent"]
    assert tracer.parent_label() is None
    labels = tracer.labels()
    assert labels["leaf"].calls == 2 and labels["parent"].calls == 1
    assert labels["parent"].child_s == pytest.approx(
        tracer.pair_s("parent", "leaf"))
    assert tracer.child_calls("parent") == 2
    assert tracer.self_s("parent", 0.0) == pytest.approx(
        labels["parent"].total_s - labels["parent"].child_s)
    assert tracer.violations() == 0


def test_reference_seconds_scale_with_the_host_samples():
    assert to_reference_s(2.0, [UNIT_REF_S] * 3) == pytest.approx(2.0)
    # a host running the unit at half speed ran the work at half speed
    assert to_reference_s(2.0, [2 * UNIT_REF_S]) == pytest.approx(1.0)
    assert to_reference_s(3.0, [UNIT_REF_S, 3 * UNIT_REF_S]) == \
        pytest.approx(1.5)
    with HostSampler() as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
        samples = sampler.take()
    assert len(samples) >= 3 and min(samples) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cordic-fig5", "--seed", "1",
                  "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
