"""The benchmark's workloads: seeded op lists, set-up, ops and checks.

Every workload is a closed loop with one op in flight.  Its op list is
a pure function of the workload seed and the number of rounds; a round
has the same composition in every run, only the order and the
generated inputs change with the seed.  No run is cut off by a clock:
the run length comes from the round count, which ``run.py`` derives
from ``--seconds`` through each workload's nominal round time.

Workloads run the defaults users get: ``fast_forward=True`` (the design
classes' default), the batched campaign's C kernel whenever ``gcc`` is
present, and the farm gateway configured as ``mb32-farm serve
--cache-dir ... --journal ...`` configures it, with one worker.

Modules of the program are imported inside ``setup`` so that their
import time counts towards ``setup_s``.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: every fault-campaign outcome class, in report order
OUTCOMES = ("masked", "sdc", "detected", "hang", "crash", "recovered")


@dataclass
class Op:
    kind: str
    params: dict[str, Any]


@dataclass
class OpResult:
    ok: bool
    error: str | None = None
    cycles: int = 0
    instructions: int = 0
    stall_cycles: int = 0
    info: dict[str, Any] = field(default_factory=dict)


def _seed_of(rng: random.Random) -> int:
    # the apps' xorshift generators are stuck at zero for seed 0
    return rng.randrange(1, 2**31)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """Defaults for workloads with no service to stop and no check
    beyond each op's own."""

    name: str
    #: nominal wall seconds of one round on the reference host; sets
    #: the round count from ``--seconds`` and nothing else
    round_s: float

    def check_pass(self, state: dict[str, Any],
                   results: list[OpResult]) -> None:
        """Checks that need the whole pass; marks failing results."""

    def teardown(self, state: dict[str, Any]) -> None:
        pass

    def worker_pids(self, state: dict[str, Any]) -> list[int]:
        return []


# ----------------------------------------------------------------------
# cordic-fig5
# ----------------------------------------------------------------------
CORDIC_POINTS = (
    ("sw", 0), ("pe", 2), ("pe", 4), ("pe", 8), ("kcpu", 2), ("kcpu", 4),
)


def _sweep_point(factory: str, name: str, params: dict[str, Any]) -> OpResult:
    """One design point through ``sweep(workers=0)``: build (mini-C
    compile plus model), co-simulate, golden check, estimate."""
    from repro.cosim.partition import DesignSpec

    # looked up on the module at call time, where the traced run's
    # wrapper is installed (the package re-exports the function under
    # the submodule's name)
    sweep_mod = importlib.import_module("repro.cosim.sweep")

    report = sweep_mod.sweep(
        [DesignSpec(name=name, factory=factory, params=params)], workers=0
    )
    point = report.results[0]
    result = point.result
    return OpResult(
        ok=point.status == "ok",
        error=point.error,
        cycles=result.cycles if result is not None else 0,
        instructions=result.instructions if result is not None else 0,
        stall_cycles=result.stall_cycles if result is not None else 0,
    )


class CordicFig5(Workload):
    """The paper's Fig 5 CORDIC divider points, shuffled per round."""

    name = "cordic-fig5"
    round_s = 0.75

    def plan(self, seed: int, rounds: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for _ in range(rounds):
            points = list(CORDIC_POINTS)
            rng.shuffle(points)
            out.append([Op(kind, {"p": p, "seed": _seed_of(rng)})
                        for kind, p in points])
        return out

    def setup(self, work: Path) -> dict[str, Any]:
        # one small op down each code path: software-only ISS, PE
        # co-simulation, K-CPU lockstep
        for op in (Op("sw", {"p": 0, "seed": 1, "ndata": 4}),
                   Op("pe", {"p": 2, "seed": 1, "ndata": 4}),
                   Op("kcpu", {"p": 2, "seed": 1, "ndata": 4})):
            warm = self.run_op({}, op)
            if not warm.ok:
                raise RuntimeError(f"warm-up op failed: {warm.error}")
        return {}

    def run_op(self, state: dict[str, Any], op: Op) -> OpResult:
        params = dict(op.params)
        p = params.pop("p")
        if op.kind != "kcpu":
            return _sweep_point(
                "repro.apps.cordic.design:CordicDesign",
                f"cordic-{op.kind}{p}", {"p": p, **params},
            )
        from repro.apps.cordic.pipeline import CordicPipelineDesign

        try:
            # CordicPipelineDesign has no estimate(), so sweep() would
            # classify it as an error: run() it directly (it checks
            # every quotient against the golden model itself).
            result = CordicPipelineDesign(stages=p, **params).run()
        except Exception as exc:  # noqa: BLE001 - recorded as a failed op
            return OpResult(ok=False, error=_describe(exc))
        return OpResult(ok=True, cycles=result.cycles,
                        instructions=result.instructions,
                        stall_cycles=result.stall_cycles)


# ----------------------------------------------------------------------
# matmul-fig7
# ----------------------------------------------------------------------
MATMUL_BLOCKS = (0, 2, 4)
MATMUL_N = 16


class MatmulFig7(Workload):
    """The paper's Fig 7 block-matmul points at N=16, shuffled per
    round."""

    name = "matmul-fig7"
    round_s = 2.0

    def plan(self, seed: int, rounds: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for _ in range(rounds):
            blocks = list(MATMUL_BLOCKS)
            rng.shuffle(blocks)
            out.append([Op("point", {"block": b, "matn": MATMUL_N,
                                     "seed": _seed_of(rng)})
                        for b in blocks])
        return out

    def setup(self, work: Path) -> dict[str, Any]:
        for block in MATMUL_BLOCKS:
            warm = self.run_op({}, Op("point", {"block": block, "matn": 4,
                                                "seed": 1}))
            if not warm.ok:
                raise RuntimeError(f"warm-up op failed: {warm.error}")
        return {}

    def run_op(self, state: dict[str, Any], op: Op) -> OpResult:
        return _sweep_point(
            "repro.apps.matmul.design:MatmulDesign",
            f"matmul-b{op.params['block']}", dict(op.params),
        )


# ----------------------------------------------------------------------
# fault-campaign
# ----------------------------------------------------------------------
CAMPAIGN_TRIALS = 64
CAMPAIGN_BATCH_WIDTH = 32
#: About one seeded campaign in eight has a trial that runs to the cycle
#: limit.  At the default limit (2,000,000 cycles) that campaign takes
#: 50-60 s in the lockstep engine against 2-5 s for the others: a run
#: that met two took 115 s of the 180 s a run may take, and one such
#: campaign decided a run's figures.  200,000 cycles is 49x the
#: fault-free run's 4,080; such a campaign still takes about 3x a normal
#: one, and the trial is still classified as a hang.
CAMPAIGN_MAX_CYCLES = 200_000


def _campaign_config(seed: int, trials: int):
    from repro.faults.campaign import CampaignConfig

    return CampaignConfig(app="cordic", design={"p": 8}, trials=trials,
                          seed=seed, max_cycles=CAMPAIGN_MAX_CYCLES)


class FaultCampaign(Workload):
    """Seeded SEU campaigns on CORDIC P=8; one op is one campaign."""

    name = "fault-campaign"
    round_s = 1.875

    def plan(self, seed: int, rounds: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}/{seed}")
        return [[Op("campaign", {"seed": _seed_of(rng)})]
                for _ in range(rounds)]

    def setup(self, work: Path) -> dict[str, Any]:
        from repro.faults.campaign import run_campaign

        # A small batched campaign: builds and baselines the design and
        # compiles the C step kernel (its source does not depend on the
        # batch width).
        run_campaign(_campaign_config(1, trials=2),
                     batch_width=CAMPAIGN_BATCH_WIDTH)
        return {}

    def run_op(self, state: dict[str, Any], op: Op) -> OpResult:
        from repro.faults.campaign import run_campaign

        try:
            report = run_campaign(
                _campaign_config(op.params["seed"], CAMPAIGN_TRIALS),
                batch_width=CAMPAIGN_BATCH_WIDTH,
            )
        except Exception as exc:  # noqa: BLE001 - recorded as a failed op
            return OpResult(ok=False, error=_describe(exc))
        trials = report.trials
        counts = dict.fromkeys(OUTCOMES, 0)
        error = None
        if [t.get("trial") for t in trials] != list(range(CAMPAIGN_TRIALS)):
            error = f"expected trials 0..{CAMPAIGN_TRIALS - 1} in order"
        for trial in trials:
            outcome = trial.get("outcome")
            if outcome not in counts:
                error = f"trial {trial.get('trial')} unclassified: {outcome!r}"
                continue
            counts[outcome] += 1
        return OpResult(
            ok=error is None,
            error=error,
            # campaigns count lane cycles; trial records carry no
            # instruction count
            cycles=sum(t.get("cycles") or 0 for t in trials),
            info={"outcomes": counts, "trials": len(trials)},
        )


# ----------------------------------------------------------------------
# farm-mixed
# ----------------------------------------------------------------------
#: one round submits each of these once as a fresh job, in seeded
#: order ...
FARM_FRESH = (
    ("cordic", 0), ("cordic", 2), ("cordic", 4), ("cordic", 8),
    ("matmul", 0), ("matmul", 2), ("matmul", 4), ("scenario", None),
)
#: ... and after the fresh jobs at these positions, an exact repeat of
#: an earlier submission: 3 of a round's 11 ops are cache hits, far from
#: one half, so op_p50_ms is always a fresh job and never sits on the
#: hit/miss boundary.  (Hit latency is a sub-millisecond thread
#: hand-off whose run-to-run spread on a shared 2-core host was 0.42;
#: it is reported per layer instead.)
FARM_REPEAT_AFTER = (1, 4, 7)
FARM_WORKERS = 1


def _farm_job(kind: str, arg: int | None, seed: int,
              rng: random.Random) -> dict[str, Any]:
    if kind == "cordic":
        return {"kind": "simulate", "payload": {"design": {
            "factory": "repro.apps.cordic.design:CordicDesign",
            "params": {"p": arg, "ndata": 8, "seed": seed}}}}
    if kind == "matmul":
        return {"kind": "simulate", "payload": {"design": {
            "factory": "repro.apps.matmul.design:MatmulDesign",
            "params": {"block": arg, "matn": 8, "seed": seed}}}}
    return {"kind": "scenario",
            "payload": {"seed": seed, "index": rng.randrange(1000)}}


class FarmMixed(Workload):
    """Simulate and scenario jobs against a one-worker gateway: 8 fresh
    jobs and 3 exact repeats of earlier ones per round."""

    name = "farm-mixed"
    round_s = 0.6

    def plan(self, seed: int, rounds: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}/{seed}")
        fresh: list[dict[str, Any]] = []
        out = []
        for _ in range(rounds):
            kinds = list(FARM_FRESH)
            rng.shuffle(kinds)
            ops = []
            for position, (kind, arg) in enumerate(kinds):
                job = _farm_job(kind, arg, _seed_of(rng), rng)
                fresh.append(job)
                ops.append(Op("fresh", job))
                if position in FARM_REPEAT_AFTER:
                    ops.append(Op("repeat", rng.choice(fresh)))
            out.append(ops)
        return out

    def setup(self, work: Path) -> dict[str, Any]:
        from repro.farm import FarmClient, start_farm_thread

        farm_dir = work / "farm"
        shutil.rmtree(farm_dir, ignore_errors=True)
        farm_dir.mkdir(parents=True)
        farm = start_farm_thread(
            workers=FARM_WORKERS,
            cache_dir=str(farm_dir / "cache"),
            journal_path=str(farm_dir / "gateway.wal"),
        )
        state = {"farm": farm, "client": FarmClient(farm.host, farm.port)}
        try:
            # one small job of each family, so the worker has imported
            # and compiled every path before the timed phase
            for kind, arg in (("cordic", 2), ("matmul", 2), ("scenario", 0)):
                warm = self.run_op(state, Op("fresh", _farm_job(
                    kind, arg, 1, random.Random(0))))
                if not warm.ok:
                    raise RuntimeError(f"warm-up op failed: {warm.error}")
        except BaseException:
            self.teardown(state)
            raise
        return state

    def run_op(self, state: dict[str, Any], op: Op) -> OpResult:
        job = op.params
        try:
            doc = state["client"].submit(job["kind"], job["payload"],
                                         wait=True)
        except Exception as exc:  # noqa: BLE001 - recorded as a failed op
            return OpResult(ok=False, error=_describe(exc))
        info = {
            "job_id": doc.get("id"),
            "key": json.dumps(job, sort_keys=True),
            "hit": bool(doc.get("cache_hit")),
            "wall_ms": float(doc.get("wall_ms") or 0.0),
        }
        result = doc.get("result") or {}
        if doc.get("state") != "done":
            return OpResult(ok=False, error=f"job {doc.get('state')}: "
                            f"{doc.get('error')}", info=info)
        if job["kind"] == "simulate":
            # the worker's sweep evaluator ran the golden-model check
            ok = result.get("status") == "ok"
            run = result.get("result") or {}
        else:
            run = result.get("observation") or {}
            ok = result.get("family") == "scenario" and "status" in run
        if not ok:
            return OpResult(ok=False, error=f"bad result: "
                            f"{json.dumps(result)[:200]}", info=info)
        if info["hit"]:
            # a replay simulates nothing
            return OpResult(ok=True, info=info)
        return OpResult(
            ok=True,
            cycles=int(doc.get("cycles") or 0),
            instructions=int(run.get("instructions") or 0),
            stall_cycles=int(run.get("stall_cycles") or 0),
            info=info,
        )

    def check_pass(self, state: dict[str, Any],
                   results: list[OpResult]) -> None:
        """Every repeat's result bytes equal its first execution's."""
        client = state["client"]
        first: dict[str, bytes] = {}
        for res in results:
            if not res.ok:
                continue
            try:
                body = client.result_bytes(res.info["job_id"])
            except Exception as exc:  # noqa: BLE001 - a failed check
                res.ok, res.error = False, _describe(exc)
                continue
            if body != first.setdefault(res.info["key"], body):
                res.ok = False
                res.error = "result bytes differ from the first execution"

    def teardown(self, state: dict[str, Any]) -> None:
        client = state.get("client")
        if client is not None:
            client.close()
        farm = state.get("farm")
        if farm is not None:
            farm.stop()

    def worker_pids(self, state: dict[str, Any]) -> list[int]:
        return [p.pid for p in multiprocessing.active_children()]


WORKLOADS = {w.name: w for w in
             (CordicFig5(), MatmulFig7(), FaultCampaign(), FarmMixed())}
