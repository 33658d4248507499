"""The co-simulation engine.

``CoSimulation`` advances the processor and the hardware model in
lock-step, one clock cycle at a time, exactly as the paper's
environment does under its single-frequency constraint ("the operating
frequencies of the processor, the two LMB interface controllers and the
customized hardware peripherals are set at 50 MHz").

Per cycle:

1. the CPU ticks (may push/pop FSL words, or stall on a blocking
   access),
2. the hardware model steps (FSLRead/FSLWrite blocks see the FIFO
   state and produce/consume words at the clock edge).

Fast-forward kernel
-------------------
Cycle accuracy only has to be *observed* at interface events (FSL
transfers, MMIO, instruction issue); in between, both worlds evolve
trivially.  When the CPU is occupying a multi-cycle instruction or is
blocked on an FSL access, and every hardware model reports quiescence
(:meth:`~repro.sysgen.model.Model.idle_horizon`), :meth:`run` advances
both clocks by ``min(cpu.advance_horizon(), model.idle_horizon())``
cycles in one step instead of N ``tick()``/``step()`` round-trips.
Likewise, while the hardware side is quiescent, per-cycle CPU execution
skips the (then no-op) ``model.step()``.  All counters, probe samples
and FSL interleavings stay bit-identical with a per-cycle run; pass
``fast_forward=False`` to force the classic loop, or
``verify_fast_forward=True`` to cross-check every skip against
per-cycle execution (debug mode).

Hardware execution engine
-------------------------
``CoSimulation.__init__`` compiles every hardware model once; from
then on each ``model.step()`` dispatches into the model's *compiled
schedule* — one generated python function per design (see
:mod:`repro.sysgen.compiled` and TUTORIAL §11) — rather than per-block
interpreter calls.  Observables are bit-identical either way; pass
``engine="interpreter"`` (or wrap the construction in
``repro.runapi.engine_scope("interpreter")``, or run
``mb32-conformance --engine interpreter``) to force the classic
interpreter when A/B-debugging an ``emit()`` hook.
``engine="batched"`` is rejected here: the lockstep vector engine runs
N whole simulations at once via
:class:`repro.cosim.batch.BatchedCoSimulation`.

One run loop
------------
:class:`ClockedSimulation` holds the only clocked run loop: the cycle
budget, the absolute-window-aligned watchdog and wall-timeout checks,
the fast-forward skip (and its ``verify_fast_forward`` cross-check),
hw-idle caching and phase attribution.  ``CoSimulation`` runs it with
one CPU; :class:`repro.cosim.multicpu.MultiCoSimulation` with K.  With
``telemetry.enable_phases()`` the same loop times one iteration every
:data:`PHASE_STRIDE` cycles instead of running a separate timed copy.

Wall-clock time is recorded so the benchmark harness can reproduce the
paper's Table I/II simulation-time comparisons.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from repro.asm.linker import Program
from repro.cosim.mb_block import MicroBlazeBlock
from repro.iss.cpu import ADVANCE_FOREVER, CPU, CPUConfig, HaltReason
from repro.iss.run import make_cpu
from repro.runapi import RunOutcome, RunPolicy
from repro.runapi.engine import (
    ENGINES,
    SCALAR_ENGINES,
    EngineError,
    current_engine,
)
from repro.sysgen.model import Model
from repro.telemetry import Telemetry, current_telemetry
from repro.telemetry.events import (
    COSIM_TRACK,
    DEADLOCK,
    FAST_FORWARD,
    TelemetryEvent,
)


class CoSimDeadlock(RuntimeError):
    """The processor made no progress for a long interval — the classic
    FSL deadlock (e.g. software keeps writing while the peripheral's
    output FIFO is full and nobody drains it).  The paper avoids this
    by sizing data sets "so that the results generated by the set of
    data would not overflow the FIFOs of the data output FSLs"; the
    co-simulator detects the mistake instead of spinning forever."""


class FastForwardError(RuntimeError):
    """A fast-forwarded window was not actually quiescent — raised only
    in ``verify_fast_forward`` mode, pointing at a block whose
    ``idle_horizon`` over-promised."""


class CoSimTimeout(RuntimeError):
    """A run exceeded its wall-clock budget (see :func:`run_timeout` /
    ``RunPolicy(wall_timeout_s=...)``).  The
    sweep engine records this as a per-point ``timeout`` status instead
    of letting one pathological design point stall a whole sweep."""


#: process-wide default wall-clock budget applied to every run whose
#: policy gives no ``wall_timeout_s`` — set via :func:`run_timeout`.
_default_wall_timeout: float | None = None


@contextlib.contextmanager
def run_timeout(seconds: float | None):
    """Apply a wall-clock budget to every ``CoSimulation.run()`` inside
    the ``with`` block.

    This is the hook the design-space sweep engine uses to bound a
    design point whose co-simulation runs away: the budget is checked
    at the same bounded-latency points as deadlock detection (at most
    every :attr:`CoSimulation.DEADLOCK_WINDOW` cycles), and exceeding
    it raises :class:`CoSimTimeout`.  ``None`` removes any outer budget
    for the duration of the block.
    """
    global _default_wall_timeout
    prev = _default_wall_timeout
    _default_wall_timeout = seconds
    try:
        yield
    finally:
        _default_wall_timeout = prev


@dataclass
class CoSimResult(RunOutcome):
    """Outcome of one co-simulation run.

    All counts are deltas over the run itself, so a second ``run()`` on
    the same :class:`CoSimulation` (with or without ``reset()``) pairs
    its own cycles with its own wall time.

    A run that *raises* (deadlock, timeout) produces no result, so the
    :class:`~repro.runapi.RunOutcome` status here only distinguishes a
    clean exit, a nonzero exit, and an exhausted cycle budget.
    """

    exit_code: int | None
    cycles: int
    instructions: int
    stall_cycles: int
    wall_seconds: float
    simulated_seconds: float
    halt_reason: HaltReason | None

    @property
    def status(self) -> str:
        if self.exit_code == 0:
            return "ok"
        if self.exit_code is not None:
            return "exit"
        if self.halt_reason is HaltReason.MAX_CYCLES:
            return "max-cycles"
        return (self.halt_reason.name.lower() if self.halt_reason
                else "unknown")

    @property
    def error(self) -> str | None:
        if self.exit_code == 0:
            return None
        if self.exit_code is not None:
            return f"exit code {self.exit_code}"
        if self.halt_reason is HaltReason.MAX_CYCLES:
            return "cycle budget exhausted without exit"
        return None

    def extra_dict(self) -> dict:
        return {
            "exit_code": self.exit_code,
            "instructions": self.instructions,
            "stall_cycles": self.stall_cycles,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "halt_reason": (self.halt_reason.name
                            if self.halt_reason is not None else None),
            "cycles_per_wall_second": self.cycles_per_wall_second,
        }

    @property
    def cycles_per_wall_second(self) -> float:
        """Simulation speed — the metric of the paper's Table II."""
        return self.cycles / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def simulated_microseconds(self) -> float:
        """Application execution time — the metric of Figures 5 and 7."""
        return self.simulated_seconds * 1e6


#: cycles between two phase-timed loop iterations (see
#: :meth:`ClockedSimulation._run_clocked`)
PHASE_STRIDE = 128


def _no_progress(cpus: list[CPU], boundary: int, window: int) -> bool:
    """Watchdog tripwire at absolute cycle ``boundary`` (a multiple of
    ``window``): none of ``cpus`` retired an instruction in the last
    full window.  Retire cycles are local CPU clocks, which equal the
    global clock for every CPU still running, so the comparison is
    exact and restore-transparent.  ``boundary >= 2 * window``
    preserves the historical grace of never tripping the very first
    boundary of a fresh simulation."""
    return (
        boundary >= 2 * window
        and max(cpu.stats.last_retire_cycle for cpu in cpus)
        <= boundary - window
    )


class ClockedSimulation:
    """The clocked run loop shared by :class:`CoSimulation` (one CPU)
    and :class:`~repro.cosim.multicpu.MultiCoSimulation` (K CPUs).

    Subclasses provide ``fast_forward``, ``verify_fast_forward``,
    ``telemetry``, ``_models`` and ``_stores_touch_hw`` (see
    :meth:`_adopt_models`), and the per-class ``_raise_timeout`` /
    ``_raise_deadlock`` reporters; result types stay per class.
    """

    #: cycles without a single retired instruction before declaring
    #: deadlock.  FIFO-depth-bounded waits resolve within tens of
    #: cycles, so this leaves orders of magnitude of slack.
    DEADLOCK_WINDOW = 16_384

    #: verify-mode error texts; reports embed them, so each class keeps
    #: its own wording
    _FF_RETIRED_TEXT = ("an instruction retired inside a {skip}-cycle "
                        "fast-forward window")
    _FF_BLOCK_TEXT = ("block {block!r} outputs changed during a "
                      "fast-forward window (idle_horizon over-promised): "
                      "{outs} -> {now}")

    def _adopt_models(self, models: list[Model], engine: str,
                      deadlock_window: int | None,
                      batched_hint: str) -> None:
        """Resolve ``engine``, pin and compile every hardware model and
        apply a per-instance watchdog window."""
        if engine not in ENGINES:
            raise EngineError(
                f"unknown engine {engine!r}; expected one of "
                f"{', '.join(ENGINES)}"
            )
        if engine == "auto":
            # An ambient "batched" request is advisory: harnesses that
            # can batch honor it, a scalar construction stays "auto".
            ambient = current_engine()
            if ambient in SCALAR_ENGINES:
                engine = ambient
        if engine == "batched":
            raise EngineError(batched_hint)
        self.engine_request = engine
        self._models = models
        if engine in SCALAR_ENGINES:
            for model in models:
                model.set_engine(engine)
        for model in models:
            model.compile()
        # CPU stores reach hardware state directly only through
        # OPB-mapped register banks; when none exist, stores cannot
        # disturb a quiescent model and need not invalidate idleness.
        self._stores_touch_hw = any(
            hasattr(block, "opb_write")
            for m in models
            for block in m.blocks
        )
        if deadlock_window is not None:
            if deadlock_window < 1:
                raise ValueError("deadlock_window must be >= 1")
            # Instance attribute shadows the class-level default.
            self.DEADLOCK_WINDOW = deadlock_window

    def _run_clocked(
        self,
        cpus: list[CPU],
        now: int,
        budget: int,
        start: float,
        wall_timeout_s: float | None,
        *,
        watch_halted: bool,
        live_clock: bool,
    ) -> None:
        """Advance ``cpus`` and every model on one clock from cycle
        ``now`` for at most ``budget`` cycles, or until every CPU has
        halted.

        Per cycle the running CPUs tick in list order, then every model
        steps.  With fast-forward on, windows in which no running CPU
        can issue and every model is quiescent are skipped in one step
        (see the module docstring).  ``wall_timeout_s`` (default: the
        ambient :func:`run_timeout` budget) counts from ``start``.

        ``watch_halted`` keeps the watchdog checking the halted CPUs on
        a boundary reached in the cycle the last one halts (the
        single-CPU contract); otherwise the watchdog only ever observes
        running CPUs.  ``live_clock`` publishes the clock to
        ``self._cycle`` every iteration, for owners whose telemetry
        clock reads it mid-run.
        """
        telemetry = self.telemetry
        events = timer = None
        if telemetry is not None:
            events = telemetry.bus
            if telemetry.phases is not None and telemetry.phases.enabled:
                timer = telemetry.phases
        models = self._models
        fast = self.fast_forward or self.verify_fast_forward
        verify = self.verify_fast_forward
        touch = self._stores_touch_hw
        if wall_timeout_s is None:
            wall_timeout_s = _default_wall_timeout
        deadline = None if wall_timeout_s is None else start + wall_timeout_s
        perf = time.perf_counter
        clock0 = now
        stop = now + budget
        window = self.DEADLOCK_WINDOW
        # Watchdog checks land on *absolute* multiples of the window and
        # trip on persisted CPU state (stats.last_retire_cycle), so a
        # checkpoint-restored continuation checks at exactly the cycles
        # an uninterrupted run would — deadlock detection (and the
        # fast-forward skip boundaries it caps) is restore-transparent.
        next_check = now - now % window + window

        # Phase timing samples one iteration per PHASE_STRIDE cycles.
        # The sample point shares the watchdog's end-of-iteration
        # compare (``next_event``), so an untimed run does no extra
        # per-cycle work; skips stay capped by the watchdog alone.
        timed = timer is not None
        next_sample = ADVANCE_FOREVER
        next_event = now if timed else next_check
        t0 = t1 = t2 = t_prev = start

        active = [cpu for cpu in cpus if not cpu.halted]
        # Cached hardware quiescence: once every model is at a fixed
        # point it stays there until a CPU completes an FSL transfer
        # (or an OPB store lands), so the O(blocks) idle_horizon walk
        # runs once per busy/blocked episode, not once per cycle.
        # ``ops_base`` is the activity count when idleness was cached;
        # ``frozen`` carries the counts of CPUs that halted meanwhile.
        hw_idle = False
        ops_base = frozen = 0
        skip = 0  # stays 0 with fast-forward off

        while active and now < stop:
            if fast:
                skip = 0
                if hw_idle:
                    hw_horizon = ADVANCE_FOREVER
                else:
                    # IDLE_FOREVER and ADVANCE_FOREVER share a value, so
                    # one minimum covers finite and unbounded horizons.
                    hw_horizon = ADVANCE_FOREVER
                    for m in models:
                        h = m.idle_horizon()
                        if h < hw_horizon:
                            hw_horizon = h
                    if hw_horizon >= ADVANCE_FOREVER:
                        hw_idle = True
                        ops_base = frozen
                        for cpu in active:
                            stats = cpu.stats
                            ops_base += stats.fsl_puts + stats.fsl_gets
                            if touch:
                                ops_base += stats.stores
                if hw_horizon > 0:
                    # A CPU that can issue now (horizon 0) is the common
                    # case: settle it before paying for the min() call.
                    skip = hw_horizon
                    for cpu in active:
                        h = cpu.advance_horizon()
                        if h < skip:
                            skip = h
                    if skip:
                        skip = min(skip, next_check - now, stop - now)
                if timed:
                    t1 = perf()
            if skip:
                if verify:
                    self._skip_checked(skip, active)
                else:
                    for cpu in active:
                        cpu.advance(skip)
                    for m in models:
                        m.fast_forward(skip)
                now += skip
                if events is not None:
                    # Condensed stand-in for the skipped window so
                    # exported traces stay cycle-faithful.
                    events.emit(TelemetryEvent(
                        FAST_FORWARD, now, COSIM_TRACK, skip
                    ))
            elif hw_idle:
                ops = frozen
                for cpu in active:
                    cpu.tick()
                    stats = cpu.stats
                    work = stats.fsl_puts + stats.fsl_gets
                    if touch:
                        work += stats.stores
                    ops += work
                    if cpu.halted:
                        frozen += work
                        active = [c for c in active if not c.halted]
                if timed:
                    t2 = perf()
                if ops != ops_base:
                    hw_idle = False
                if hw_idle and not verify:
                    # The models are frozen: advancing their clocks is
                    # all a step() would do.
                    for m in models:
                        m.fast_forward(1)
                else:
                    for m in models:
                        m.step()
                now += 1
            else:
                for cpu in active:
                    cpu.tick()
                    if cpu.halted:
                        active = [c for c in active if not c.halted]
                if timed:
                    t2 = perf()
                for m in models:
                    m.step()
                now += 1
            if live_clock:
                self._cycle = now
            if now >= next_event:
                if timed:
                    t_prev = timer.sample(
                        t_prev, t0, t1 if fast else None,
                        None if skip else t2, perf())
                    timed = False
                    next_sample = now + PHASE_STRIDE
                if now >= next_check:
                    if deadline is not None and perf() >= deadline:
                        self._raise_timeout(wall_timeout_s, now - clock0)
                    watched = active or (cpus if watch_halted else None)
                    if watched and _no_progress(watched, now, window):
                        self._raise_deadlock(window)
                    next_check = now + window
                if now >= next_sample:
                    # time the next iteration; its end re-enters here
                    timed = True
                    next_event = now
                    t0 = t1 = perf()
                else:
                    next_event = min(next_check, next_sample)

    def _skip_checked(self, skip: int, active: list[CPU]) -> None:
        """verify_fast_forward mode: execute a would-be skipped window
        per-cycle and prove no CPU issued and no model moved."""
        models = self._models
        instr_before = [cpu.stats.instructions for cpu in active]
        snapshot = [
            (
                m,
                [(p, len(p.samples), p.port.value) for p in m.probes],
                [
                    (b, {k: o.value for k, o in b.outputs.items()})
                    for b in m.blocks
                ],
            )
            for m in models
        ]
        for _ in range(skip):
            for cpu in active:
                cpu.tick()
            for m in models:
                m.step()
        for cpu, before in zip(active, instr_before):
            if cpu.stats.instructions != before:
                raise FastForwardError(self._FF_RETIRED_TEXT.format(
                    track=cpu.track, skip=skip))
        for m, probes, blocks in snapshot:
            for probe, n0, value in probes:
                tail = probe.samples[n0:]
                if len(tail) != skip or any(s != value for s in tail):
                    raise FastForwardError(
                        f"probe {probe.name!r} changed during a "
                        f"fast-forward window of model {m.name!r}"
                    )
            for block, outs in blocks:
                now = {k: o.value for k, o in block.outputs.items()}
                if now != outs:
                    raise FastForwardError(self._FF_BLOCK_TEXT.format(
                        block=block.name, outs=outs, now=now))


class CoSimulation(ClockedSimulation):
    """Couples one CPU with one hardware model over FSL channels."""

    def __init__(
        self,
        program: Program,
        model: Model,
        mb_block: MicroBlazeBlock,
        cpu_config: CPUConfig | None = None,
        memory_size: int | None = None,
        extra_models: list[Model] | None = None,
        fast_forward: bool = True,
        verify_fast_forward: bool = False,
        telemetry: Telemetry | None = None,
        deadlock_window: int | None = None,
        engine: str = "auto",
    ):
        """``extra_models`` are additional hardware models stepped in
        lock-step with the primary one — e.g. peripherals built as
        separate designs whose FSL channels were connected to spare
        channels of the same processor.

        ``fast_forward`` enables the bulk time-advance kernel (see the
        module docstring); ``verify_fast_forward`` keeps per-cycle
        execution but asserts, window by window, that every skip the
        kernel *would* take is quiescent — slower than both plain
        modes, meant for debugging idle_horizon implementations.

        ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry`
        instance to the CPU, FSL channels and interface blocks; when
        omitted, the ambient :func:`repro.telemetry.telemetry_scope`
        instance (if any) is used.  Without either, every telemetry
        hook stays on its no-op fast path.

        ``deadlock_window`` overrides :attr:`DEADLOCK_WINDOW` for this
        instance — the progress watchdog: cycles without a retired
        instruction before :class:`CoSimDeadlock`.  Fault-injection
        campaigns tighten it to detect hangs quickly.

        ``engine`` selects the hardware execution engine for every
        attached model: ``"compiled"`` / ``"interpreter"`` pin it,
        ``"auto"`` (default) honors an enclosing
        :func:`repro.runapi.engine_scope` and otherwise compiles;
        ``"batched"`` is rejected (see the module docstring)."""
        self.program = program
        self.model = model
        self.mb_block = mb_block
        self.extra_models = list(extra_models or [])
        self.fast_forward = fast_forward
        self.verify_fast_forward = verify_fast_forward
        self._adopt_models(
            [self.model, *self.extra_models], engine, deadlock_window,
            "engine='batched' runs N whole simulations in lockstep; "
            "construct a repro.cosim.batch.BatchedCoSimulation (or "
            "pass --batch to mb32-dse / mb32-faultsim) instead",
        )
        self.cpu: CPU = make_cpu(
            program,
            config=cpu_config,
            fsl=mb_block.fsl_ports,
            memory_size=memory_size,
        )
        self.telemetry = telemetry if telemetry is not None \
            else current_telemetry()
        if self.telemetry is not None:
            self._attach_telemetry(self.telemetry)

    def _attach_telemetry(self, telemetry: Telemetry) -> None:
        telemetry.attach_cpu(self.cpu)
        clock = lambda: self.cpu.cycle  # noqa: E731
        for channel in self.mb_block.channels():
            telemetry.attach_channel(channel, clock)
        for m in self._models:
            for block in m.blocks:
                telemetry.attach_block(block, clock)

    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance both worlds ``cycles`` clock cycles, one at a time.

        This is the per-cycle reference path (also the granularity the
        fast-forward kernel must be indistinguishable from); ``run()``
        layers the event-horizon skipping on top of it.
        """
        cpu = self.cpu
        models = self._models
        for _ in range(cycles):
            cpu.tick()
            for m in models:
                m.step()

    def run(
        self,
        until: int | None = None,
        *,
        policy: RunPolicy | None = None,
    ) -> CoSimResult:
        """Run until the software exits (or the cycle budget).

        ``until`` is the cycle budget for this call (default 50M, the
        historical ceiling); ``policy`` is a
        :class:`~repro.runapi.RunPolicy` whose ``wall_timeout_s``
        overrides the ambient :func:`run_timeout` budget for this call.

        Raises :class:`CoSimDeadlock` when the processor is blocked on
        FSL with no progress for :attr:`DEADLOCK_WINDOW` cycles, and
        :class:`CoSimTimeout` when the wall-clock budget is exceeded;
        both are checked at the same :attr:`DEADLOCK_WINDOW`-bounded
        cadence.
        """
        if policy is None:
            policy = RunPolicy()
        cpu = self.cpu
        stats = cpu.stats
        start = time.perf_counter()
        cycle0 = cpu.cycle
        instr0 = stats.instructions
        stall0 = stats.stall_cycles
        self._run_clocked([cpu], cycle0, policy.budget(until), start,
                          policy.wall_timeout_s, watch_halted=True,
                          live_clock=False)
        return self._finish(start, cycle0, instr0, stall0)

    def _finish(self, start: float, cycle0: int, instr0: int,
                stall0: int) -> CoSimResult:
        wall = time.perf_counter() - start
        cpu = self.cpu
        stats = cpu.stats
        if not cpu.halted:
            cpu.halted = True
            cpu.halt_reason = HaltReason.MAX_CYCLES
        run_cycles = cpu.cycle - cycle0
        return CoSimResult(
            exit_code=cpu.exit_code,
            cycles=run_cycles,
            instructions=stats.instructions - instr0,
            stall_cycles=stats.stall_cycles - stall0,
            wall_seconds=wall,
            simulated_seconds=run_cycles / cpu.config.frequency_hz,
            halt_reason=cpu.halt_reason,
        )

    def _raise_timeout(self, budget: float, cycles: int) -> None:
        raise CoSimTimeout(
            f"co-simulation exceeded its {budget:.3f}s wall-clock budget "
            f"after {cycles} cycles at pc={self.cpu.pc:#010x}"
        )

    def _raise_deadlock(self, window: int) -> None:
        if self.telemetry is not None:
            self.telemetry.bus.emit(TelemetryEvent(
                DEADLOCK, self.cpu.cycle, COSIM_TRACK, self.cpu.pc
            ))
        raise CoSimDeadlock(
            f"no instruction retired in {window} cycles at "
            f"pc={self.cpu.pc:#010x}; FSL occupancies: "
            f"{self.mb_block.channel_occupancies()}"
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete simulation state, JSON-safe.

        Covers everything a restored run's observable surface depends
        on: the CPU (registers, pipeline, memory, devices, statistics),
        every hardware model (block state, probe samples, clocks), the
        FSL FIFOs and their statistics, and the telemetry metric
        registry when one is attached.  Loop-local fast-forward
        bookkeeping (``hw_idle``, the next watchdog check) is
        recomputed by :meth:`run` and needs no serialization.
        """
        state = {
            "cpu": self.cpu.state_dict(),
            "models": [m.state_dict() for m in self._models],
            "channels": self.mb_block.state_dict(),
        }
        if self.telemetry is not None:
            state["telemetry"] = self.telemetry.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        if len(state["models"]) != len(self._models):
            raise ValueError(
                f"checkpoint has {len(state['models'])} models, "
                f"simulation has {len(self._models)}"
            )
        self.cpu.load_state(state["cpu"])
        for model, payload in zip(self._models, state["models"]):
            model.load_state(payload)
        self.mb_block.load_state(state["channels"])
        if self.telemetry is not None and "telemetry" in state:
            self.telemetry.load_state(state["telemetry"])

    def reset(self) -> None:
        """Reset CPU, model, FIFOs and their statistics; reload the
        program image."""
        self.cpu.reset(pc=self.program.entry)
        self.program.load_into(self.cpu.mem.bram)
        self.model.reset()
        for extra in self.extra_models:
            extra.reset()
        self.mb_block.reset(reset_stats=True)
        if self.telemetry is not None:
            # A re-run must report only its own events/metrics, exactly
            # like a fresh simulation would.
            self.telemetry.reset()
