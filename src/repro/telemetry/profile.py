"""Profilers: simulated cycles by program region, wall-clock by phase.

Two complementary attributions answer the two "where does time go"
questions a co-simulation user has:

* :class:`RegionProfiler` — *simulated* cycles per program region.
  Regions are PC-range buckets derived from the linker's symbol table,
  so the report reads in terms of the user's own functions.  Every
  cycle between one retire and the next (multi-cycle latency, FSL
  stalls, fast-forwarded windows — ``cpu.cycle`` jumps across skips,
  so the attribution is identical in per-cycle and fast-forward mode)
  is charged to the instruction that occupied the pipeline.

* :class:`PhaseTimer` — *wall-clock* seconds per simulator phase
  (CPU step, hardware block step, fast-forward scan), the data that
  tells an engine developer which loop to optimise next.
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.asm.linker import Program
from repro.telemetry.events import RETIRE, EventBus, TelemetryEvent


class RegionProfiler:
    """Attributes simulated cycles to symbol-table regions.

    A region spans from one text symbol to the next; instructions
    before the first symbol land in ``<pre-text>`` (unreachable with a
    normal linker layout, kept for robustness).
    """

    def __init__(self, program: Program, bus: EventBus) -> None:
        symbols = [
            (addr, name)
            for name, addr in program.symbols.items()
            if addr < program.text_size
        ]
        symbols.sort()
        self._addrs = [addr for addr, _ in symbols]
        self._names = [name for _, name in symbols]
        self.cycles: dict[str, int] = {}
        self.instructions: dict[str, int] = {}
        self._last_pc: int | None = None
        self._last_cycle = 0
        bus.subscribe(self._on_retire, kinds=(RETIRE,))

    def region_of(self, pc: int) -> str:
        index = bisect.bisect_right(self._addrs, pc) - 1
        if index < 0:
            return "<pre-text>"
        return self._names[index]

    def _on_retire(self, event: TelemetryEvent) -> None:
        pc = event.value
        region = self.region_of(pc)
        self.instructions[region] = self.instructions.get(region, 0) + 1
        if self._last_pc is not None:
            prev = self.region_of(self._last_pc)
            self.cycles[prev] = (
                self.cycles.get(prev, 0) + event.cycle - self._last_cycle
            )
        elif event.cycle > self._last_cycle:
            # cycles between run start and the first retire belong to
            # the first instruction, so region cycles sum to the total
            self.cycles[region] = (
                self.cycles.get(region, 0) + event.cycle - self._last_cycle
            )
        self._last_pc = pc
        self._last_cycle = event.cycle

    def finalize(self, final_cycle: int) -> None:
        """Charge the tail (cycles after the last retire) to the last
        instruction's region.  Idempotent for a fixed ``final_cycle``."""
        if self._last_pc is not None and final_cycle > self._last_cycle:
            region = self.region_of(self._last_pc)
            self.cycles[region] = (
                self.cycles.get(region, 0) + final_cycle - self._last_cycle
            )
            self._last_cycle = final_cycle

    def reset(self) -> None:
        self.cycles.clear()
        self.instructions.clear()
        self._last_pc = None
        self._last_cycle = 0

    # ------------------------------------------------------------------
    def report(self) -> list[dict[str, Any]]:
        """Regions sorted by descending cycle count."""
        regions = sorted(
            set(self.cycles) | set(self.instructions),
            key=lambda r: -self.cycles.get(r, 0),
        )
        total = sum(self.cycles.values()) or 1
        return [
            {
                "region": region,
                "cycles": self.cycles.get(region, 0),
                "instructions": self.instructions.get(region, 0),
                "share": self.cycles.get(region, 0) / total,
            }
            for region in regions
        ]

    def text(self, top: int = 10) -> str:
        lines = ["region                      cycles  instrs   share"]
        for row in self.report()[:top]:
            lines.append(
                f"{row['region']:<24} {row['cycles']:>9} "
                f"{row['instructions']:>7} {row['share']:>6.1%}"
            )
        return "\n".join(lines)


class PhaseTimer:
    """Accumulates wall-clock seconds per simulator phase.

    The co-simulation run loop feeds this only when a timer is
    attached *and* enabled.  It times one loop iteration per stride
    (see :meth:`sample`), so ``calls`` counts sampled iterations and
    ``seconds`` are estimates that add up to the sampled span of the
    run.
    """

    #: phases the co-simulation loop reports
    CPU_STEP = "cpu_step"
    BLOCK_STEP = "block_step"
    FAST_FORWARD_SCAN = "fast_forward_scan"

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + 1

    def sample(self, since: float, start: float, scanned: float | None,
               ticked: float | None, end: float) -> float:
        """Attribute the wall time from ``since`` to ``end`` by the phase
        split of one timed loop iteration that ran from ``start`` to
        ``end``; return ``end``.

        ``scanned`` stamps the end of the fast-forward scan (None with
        fast-forward off) and ``ticked`` the end of the CPU ticks (None
        when the iteration skipped a window, which is then all scan).
        """
        if ticked is None:
            split = [(self.FAST_FORWARD_SCAN, end - start)]
        else:
            tick_start = start if scanned is None else scanned
            split = [(self.CPU_STEP, ticked - tick_start),
                     (self.BLOCK_STEP, end - ticked)]
            if scanned is not None:
                split.append((self.FAST_FORWARD_SCAN, scanned - start))
        took = end - start
        if took > 0:
            scale = (end - since) / took
            for phase, seconds in split:
                self.add(phase, seconds * scale)
        return end

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    def report(self, total_wall: float | None = None) -> dict[str, Any]:
        accounted = sum(self.seconds.values())
        out: dict[str, Any] = {
            phase: {
                "seconds": self.seconds[phase],
                "calls": self.calls.get(phase, 0),
            }
            for phase in sorted(self.seconds)
        }
        if total_wall is not None:
            out["other"] = {
                "seconds": max(total_wall - accounted, 0.0),
                "calls": 0,
            }
        return out

    def text(self, total_wall: float | None = None) -> str:
        report = self.report(total_wall)
        total = sum(row["seconds"] for row in report.values()) or 1.0
        lines = ["phase                     seconds      calls   share"]
        for phase, row in report.items():
            lines.append(
                f"{phase:<22} {row['seconds']:>10.4f} {row['calls']:>10} "
                f"{row['seconds'] / total:>6.1%}"
            )
        return "\n".join(lines)
