"""The repository's benchmark: one command, every metric, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cordic-fig5 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` is the separate traced run: it installs the
timing wrappers of ``tracing.py`` around each layer's public functions,
reports the per-layer metrics, and runs the first half of the op list
untraced to report the tracing overhead.

Every timing is rescaled to the reference host speed, measured while
the work runs with a small fixed unit of work that touches none of the
program (``hostspeed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is a ``{"record": ...}`` object: the environment (nproc, Python,
commit, seed, C kernel) and the exact simulated counts of the run.

See ``perfbench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from hostspeed import HostSampler, to_reference_s
from tracing import Tracer, wrapper_cost_s
from workloads import OUTCOMES, WORKLOADS, Op, OpResult, Workload

#: the checkout the benchmark runs in: it is run from the checkout root
ROOT = Path.cwd()

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("ops", "count"),
    ("simulated_cycles", "cycles"),
    ("sim_instructions", "instr"),
    ("mcc.compile_ms", "ms"),
    ("iss.tick_ms", "ms"),
    ("iss.instr_per_s", "instr/s"),
    ("iss.ipc", "instr/cycle"),
    ("sysgen.step_ms", "ms"),
    ("sysgen.idle_horizon_calls", "count"),
    ("sysgen.idle_horizon_ms", "ms"),
    ("cosim.ff_useful_scan_ratio", "ratio"),
    ("cosim.ff_skip_ratio", "ratio"),
    ("cosim.loop_self_ms", "ms"),
    ("multicpu.cycles_per_s", "cycles/s"),
    ("bus.fsl_stall_cycles", "cycles"),
    ("resources.estimate_ms", "ms"),
    ("sweep.overhead_ms", "ms"),
    ("ckernel.build_ms", "ms"),
    ("batch.run_ms", "ms"),
    ("batch.cpu_tick_ms", "ms"),
    ("batch.hw_step_ms", "ms"),
    ("batch.evicted_ratio", "ratio"),
    ("faults.setup_ms", "ms"),
    *((f"faults.outcome.{kind}", "count") for kind in OUTCOMES),
    ("farm.hit_p50_ms", "ms"),
    ("farm.hit_p90_ms", "ms"),
    ("farm.miss_p50_ms", "ms"),
    ("farm.miss_p90_ms", "ms"),
    ("farm.http_overhead_ms", "ms"),
    ("farm.exec_ratio", "ratio"),
    ("farm.cache_get_ms", "ms"),
    ("farm.cache_put_ms", "ms"),
    ("farm.wal_record_ms", "ms"),
    ("trace.overhead.ops_per_s", "ratio"),
    ("trace.overhead.sim_cycles_per_s", "ratio"),
)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def process_age_s() -> float:
    """Seconds since this process started (the kernel's start time)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _vm_hwm_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(worker_pids: list[int]) -> float:
    """Peak resident memory of this process plus its worker children."""
    return sum(_vm_hwm_kb(pid) for pid in ["self", *worker_pids]) / 1024


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, rounds: int) -> dict[str, Any]:
    from repro.sysgen.ckernel import ckernel_enabled

    gcc = shutil.which("gcc") is not None
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "ckernel_enabled": ckernel_enabled(),
        "gcc": gcc,
        "ckernel": ckernel_enabled() and gcc,
    }
    if args.workload == "fault-campaign" and not env["ckernel"]:
        env["comparable"] = (
            "no: fault-campaign ran without the C kernel; its numbers "
            "are not comparable with numbers taken with it")
        print(f"perfbench: {env['comparable']}", file=sys.stderr)
    return env


# ----------------------------------------------------------------------
# one pass over the op list
# ----------------------------------------------------------------------
@dataclass
class Pass:
    results: list[OpResult] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    #: (ops, simulated cycles, wall seconds, reference seconds) per
    #: round; reference seconds are the wall seconds rescaled to the
    #: reference host speed (see ``hostspeed.py``); wall times leave
    #: out the host-speed samples
    rounds: list[tuple[int, int, float, float]] = field(
        default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def errors(self, limit: int = 5) -> list[str]:
        return [r.error or "failed" for r in self.results if not r.ok][:limit]

    def ops_per_s(self) -> float:
        """Ops per reference second of the median round."""
        return statistics.median(ops / ref for ops, _, _, ref in self.rounds)

    def sim_cycles_per_s(self) -> float:
        """Simulated cycles per reference second of the median round."""
        return statistics.median(
            cycles / ref for _, cycles, _, ref in self.rounds)

    def op_p50_s(self) -> float:
        """Median op latency, each rescaled like its round."""
        return statistics.median(self._reference_latencies())

    def _reference_latencies(self) -> list[float]:
        out = []
        start = 0
        for ops, _, wall, ref in self.rounds:
            out.extend(lat * ref / wall
                       for lat in self.latencies_s[start:start + ops])
            start += ops
        return out

    def whole_run(self) -> dict[str, float]:
        """Figures over the whole timed phase, in wall time, for
        reference, with the host speed they were taken at."""
        wall = sum(r[2] for r in self.rounds)
        lat = self.latencies_s
        out = {
            "ops_per_s": len(lat) / wall,
            "sim_cycles_per_s": sum(r[1] for r in self.rounds) / wall,
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p50_samples": len(lat),
            "wall_s": wall,
            # reference seconds per wall second: 1 at the reference
            # speed, less on a slower host or in a slow phase
            "host_speed": sum(r[3] for r in self.rounds) / wall,
        }
        if len(lat) >= 100:  # at least 10 samples beyond the p90
            out["op_p90_ms"] = _quantile(lat, 0.9) * 1e3
        return out

    def exact(self) -> dict[str, Any]:
        """Counts that are identical in every run of a seed."""
        out: dict[str, Any] = {
            "ops": len(self.results),
            "simulated_cycles": sum(r.cycles for r in self.results),
            "sim_instructions": sum(r.instructions for r in self.results),
            "fsl_stall_cycles": sum(r.stall_cycles for r in self.results),
        }
        outcomes = [r.info["outcomes"] for r in self.results
                    if "outcomes" in r.info]
        if outcomes:
            for kind in OUTCOMES:
                out[f"faults.outcome.{kind}"] = sum(o[kind] for o in outcomes)
            out["trials"] = sum(r.info["trials"] for r in self.results)
        farm = [r for r in self.results if "hit" in r.info]
        if farm:
            out["farm.exec_ratio"] = (
                sum(1 for r in farm if not r.info["hit"]) / len(farm))
        return out


def run_pass(workload: Workload, state: dict[str, Any],
             plan: list[list[Op]], sampler: HostSampler) -> Pass:
    """Runs the rounds in order.  An op's wall time leaves out the
    host-speed samples timed during it; a round is rescaled by the mean
    of the samples timed during its ops."""
    perf = time.perf_counter
    out = Pass()
    for round_ops in plan:
        cycles = 0
        wall = 0.0
        samples: list[float] = []
        for op in round_ops:
            sampler.take()
            start = perf()
            result = workload.run_op(state, op)
            latency = perf() - start
            during = sampler.take()
            latency -= sum(during)
            samples += during
            wall += latency
            cycles += result.cycles
            out.latencies_s.append(latency)
            out.results.append(result)
        out.rounds.append((len(round_ops), cycles, wall,
                           to_reference_s(wall, samples)))
    return out


def _quantile(values: list[float], q: float) -> float:
    """The q-quantile (linear interpolation); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def install_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (benchmark-side only)."""
    from repro.apps.cordic.design import CordicDesign
    from repro.apps.matmul.design import MatmulDesign
    from repro.cosim.batch import BatchedCoSimulation
    from repro.cosim.environment import CoSimulation
    from repro.cosim.multicpu import MultiCoSimulation
    from repro.cosim.partition import DesignSpec
    from repro.farm.cache import FarmCache
    from repro.farm.wal import GatewayJournal
    from repro.iss.cpu import CPU
    from repro.sysgen.batched import BatchedModel
    from repro.sysgen.model import Model
    # imported for their by-name imports of wrapped functions
    import repro.apps.cordic.pipeline  # noqa: F401
    import repro.faults.campaign  # noqa: F401
    import repro.farm  # noqa: F401

    def positive_horizon(t, args, kwargs, result):
        if result > 0:
            t.count("idle_horizon.positive")

    def skipped_cycles(t, args, kwargs, result):
        # CoSimulation.run calls CPU.advance only to skip a window
        # (per-cycle idle models go through Model.fast_forward(1)
        # after a CPU.tick instead)
        if t.parent_label() == "cosim.run":
            t.count("cosim.skipped_cycles", max(0, args[1]))

    def counter(key):
        def observe(t, args, kwargs, result):
            t.count(key, result.cycles)
        return observe

    def sw_instructions(t, args, kwargs, result):
        t.count("software.instructions", result[0].instructions)

    tracer.wrap_function("repro.mcc:build_executable", "mcc.build")
    tracer.wrap_function("repro.apps.common:run_software_only",
                         "iss.software", sw_instructions)
    tracer.wrap_function("repro.cosim.sweep:sweep", "sweep")
    tracer.wrap_function("repro.sysgen.ckernel:build_step_kernel",
                         "ckernel.build")
    tracer.wrap_function("repro.faults.campaign:run_campaign",
                         "faults.campaign")
    tracer.wrap_function("repro.faults.campaign:_scalar_trial",
                         "faults.scalar_trial")
    tracer.wrap_method(CPU, "tick", "iss.tick")
    tracer.wrap_method(CPU, "advance", "iss.advance", skipped_cycles)
    tracer.wrap_method(Model, "step", "sysgen.step")
    tracer.wrap_method(Model, "idle_horizon", "sysgen.idle_horizon",
                       positive_horizon)
    tracer.wrap_method(CoSimulation, "run", "cosim.run",
                       counter("cosim.cycles"))
    tracer.wrap_method(MultiCoSimulation, "run", "multicpu.run",
                       counter("multicpu.cycles"))
    tracer.wrap_method(DesignSpec, "build", "design.build")
    for design in (CordicDesign, MatmulDesign):
        tracer.wrap_method(design, "run", "design.run")
        tracer.wrap_method(design, "estimate", "resources.estimate")
    tracer.wrap_method(BatchedCoSimulation, "advance", "batch.advance")
    tracer.wrap_method(BatchedModel, "step", "batch.hw_step")
    tracer.wrap_method(FarmCache, "get", "farm.cache_get")
    tracer.wrap_method(FarmCache, "put", "farm.cache_put")
    tracer.wrap_method(GatewayJournal, "record", "farm.wal_record")


def nesting_errors(tracer: Tracer) -> list[str]:
    """Children's time never exceeds their parent span."""
    errors = []
    if tracer.violations():
        errors.append(f"{tracer.violations()} span(s) shorter than their "
                      f"children")
    for label, stats in tracer.labels().items():
        if stats.child_s > stats.total_s + 1e-6:
            errors.append(f"{label}: children {stats.child_s:.6f}s exceed "
                          f"the span {stats.total_s:.6f}s")
    return errors


def layer_metrics(tracer: Tracer, traced: Pass, setup_ckernel_s: float,
                  wrapper_s: float) -> dict[str, float]:
    labels = tracer.labels()
    counts = tracer.counts()
    exact = traced.exact()
    ops = max(len(traced.results), 1)

    def per_op_ms(*names: str) -> float:
        return sum(labels[n].total_s for n in names) * 1e3 / ops

    def per_call_ms(name: str) -> float:
        stats = labels[name]
        return stats.total_s * 1e3 / stats.calls if stats.calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    campaign = labels["faults.campaign"]
    lat_ms = [lat * 1e3 for lat in traced.latencies_s]
    hits = [lat for lat, r in zip(lat_ms, traced.results)
            if r.info.get("hit") is True]
    misses = [lat for lat, r in zip(lat_ms, traced.results)
              if r.info.get("hit") is False]
    http = [lat - r.info["wall_ms"]
            for lat, r in zip(lat_ms, traced.results) if "hit" in r.info]
    out = {
        "ops": exact["ops"],
        "simulated_cycles": exact["simulated_cycles"],
        "sim_instructions": exact["sim_instructions"],
        "mcc.compile_ms": per_op_ms("mcc.build"),
        "iss.tick_ms": per_op_ms("iss.tick", "iss.advance"),
        "iss.instr_per_s": ratio(counts["software.instructions"],
                                 labels["iss.software"].total_s),
        "iss.ipc": ratio(exact["sim_instructions"],
                         exact["simulated_cycles"]),
        "sysgen.step_ms": per_op_ms("sysgen.step"),
        "sysgen.idle_horizon_calls":
            labels["sysgen.idle_horizon"].calls / ops,
        "sysgen.idle_horizon_ms": per_op_ms("sysgen.idle_horizon"),
        "cosim.ff_useful_scan_ratio": ratio(
            counts["idle_horizon.positive"],
            labels["sysgen.idle_horizon"].calls),
        "cosim.ff_skip_ratio": ratio(counts["cosim.skipped_cycles"],
                                     counts["cosim.cycles"]),
        "cosim.loop_self_ms":
            tracer.self_s("cosim.run", wrapper_s) * 1e3 / ops,
        "multicpu.cycles_per_s": ratio(counts["multicpu.cycles"],
                                       labels["multicpu.run"].total_s),
        "bus.fsl_stall_cycles": exact["fsl_stall_cycles"] / ops,
        "resources.estimate_ms": per_op_ms("resources.estimate"),
        "sweep.overhead_ms": ratio(tracer.self_s("sweep", wrapper_s) * 1e3,
                                   labels["sweep"].calls),
        "ckernel.build_ms": setup_ckernel_s * 1e3,
        "batch.run_ms": per_op_ms("batch.advance"),
        "batch.cpu_tick_ms":
            tracer.pair_s("batch.advance", "iss.tick") * 1e3 / ops,
        "batch.hw_step_ms": per_op_ms("batch.hw_step"),
        "batch.evicted_ratio": ratio(labels["faults.scalar_trial"].calls,
                                     exact.get("trials", 0)),
        "faults.setup_ms": ratio(
            (campaign.total_s
             - tracer.pair_s("faults.campaign", "batch.advance")
             - tracer.pair_s("faults.campaign", "faults.scalar_trial"))
            * 1e3, campaign.calls),
        "farm.hit_p50_ms": _quantile(hits, 0.5),
        "farm.hit_p90_ms": _quantile(hits, 0.9),
        "farm.miss_p50_ms": _quantile(misses, 0.5),
        "farm.miss_p90_ms": _quantile(misses, 0.9),
        "farm.http_overhead_ms": _quantile(http, 0.5),
        "farm.exec_ratio": exact.get("farm.exec_ratio", 0.0),
        "farm.cache_get_ms": per_call_ms("farm.cache_get"),
        "farm.cache_put_ms": per_call_ms("farm.cache_put"),
        "farm.wal_record_ms": per_call_ms("farm.wal_record"),
    }
    for kind in OUTCOMES:
        out[f"faults.outcome.{kind}"] = exact.get(f"faults.outcome.{kind}", 0)
    return out


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
#: set-ups whose median is setup_s: the run's own, and the others in
#: fresh processes that only set up (one set-up alone spread up to 0.17
#: between runs, interquartile range over median; the median of three
#: at most 0.07)
SETUPS = 3
PROBE_TIMEOUT_S = 120


def timed_setup(workload: Workload, work: Path, sampler: HostSampler
                ) -> tuple[dict[str, Any], float, float]:
    """Sets the workload up; returns its state and the time from
    process start, in reference and in wall seconds.  ``sampler`` has
    run since just before: the time from process start is rescaled by
    the samples timed during set-up, and leaves their own time out."""
    state = workload.setup(work)
    samples = sampler.take()
    wall = process_age_s() - sum(samples)
    return state, to_reference_s(wall, samples), wall


def probe_setup_s(args) -> float:
    """The workload's set-up time in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="nominal run length; sets the round count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, and print the set-up time")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def rounds_for(workload: Workload, seconds: int, trace: int) -> int:
    # a traced run splits its rounds into an untraced and a traced half
    return max(1 + trace, round(seconds / workload.round_s))


def measure(args, work: Path,
            sampler: HostSampler) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the benchmark; returns (result line, record)."""
    workload = WORKLOADS[args.workload]
    rounds = rounds_for(workload, args.seconds, args.trace)
    plan = workload.plan(args.seed, rounds)

    if not args.trace:
        state, setup_s, setup_wall = timed_setup(workload, work, sampler)
        try:
            untraced = run_pass(workload, state, plan, sampler)
            rss = peak_rss_mb(workload.worker_pids(state))
            workload.check_pass(state, untraced.results)
        finally:
            workload.teardown(state)
        setup_samples = [setup_s] + [probe_setup_s(args)
                                     for _ in range(SETUPS - 1)]
        attempted = len(untraced.results)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": untraced.ops_per_s(),
            "sim_cycles_per_s": untraced.sim_cycles_per_s(),
            "op_p50_ms": untraced.op_p50_s() * 1e3,
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
        record = {
            "env": environment(args, rounds),
            "exact": untraced.exact(),
            "setup_samples_s": setup_samples,
            "setup_wall_s": setup_wall,
            "whole_run": untraced.whole_run(),
            "fail_ratio": untraced.failed / attempted,
            "errors": untraced.errors(),
        }
        result = {
            "correct": untraced.failed == 0,
            "attempted": attempted,
            "failed": untraced.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name, _ in END_TO_END},
        }
        return result, record

    # The first half of the rounds runs untraced, as the reference for
    # the tracing overhead, and the second half traced, on one set-up:
    # every round has the same composition, and the run does the work
    # of an untraced run.  Wrappers go in after set-up, so worker
    # processes started by set-up run untraced code; only the C-kernel
    # build is timed during set-up, where that build happens.
    head = len(plan) // 2
    build_tracer = Tracer()
    build_tracer.wrap_function("repro.sysgen.ckernel:build_step_kernel",
                               "ckernel.build")
    try:
        state = workload.setup(work)
    finally:
        build_tracer.uninstall()
    tracer = Tracer()
    try:
        untraced = run_pass(workload, state, plan[:head], sampler)
        install_wrappers(tracer)
        try:
            traced = run_pass(workload, state, plan[head:], sampler)
        finally:
            tracer.uninstall()
        workload.check_pass(state, untraced.results + traced.results)
    finally:
        workload.teardown(state)
    whole = Pass(untraced.results + traced.results)
    layers = layer_metrics(
        tracer, traced, build_tracer.labels()["ckernel.build"].total_s,
        wrapper_cost_s())
    # the run's exact counts cover the whole op list
    layers.update((k, v) for k, v in whole.exact().items() if k in layers)
    problems = nesting_errors(tracer)
    layers["trace.overhead.ops_per_s"] = (
        untraced.ops_per_s() / traced.ops_per_s())
    layers["trace.overhead.sim_cycles_per_s"] = (
        untraced.sim_cycles_per_s() / traced.sim_cycles_per_s()
        if traced.sim_cycles_per_s() else 0.0)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    attempted = len(whole.results)
    failed = whole.failed
    units = dict(PER_LAYER)
    record = {
        "env": environment(args, rounds),
        "exact": whole.exact(),
        "fail_ratio": failed / attempted,
        "errors": whole.errors() + problems,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": layers[name], "unit": units[name]}
                    for name, _ in PER_LAYER},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    # keep every temporary file (the C kernel's build directory too)
    # inside the checkout, for this process and its children
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    # The host's two cores run at different speeds at the same moment
    # (the other tenants load them differently), so the reference unit
    # only measures the speed the work ran at when both share one core.
    # With one op in flight, the farm's worker and gateway take turns.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        with HostSampler() as sampler:
            if args.setup_only:
                workload = WORKLOADS[args.workload]
                state, setup_s, _ = timed_setup(workload, work, sampler)
                workload.teardown(state)
                print(json.dumps({"setup_s": setup_s}))
                return 0
            result, record = measure(args, work, sampler)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
