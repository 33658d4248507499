"""Fast-forward co-simulation kernel: equivalence and regression tests.

The kernel (``CoSimulation.run`` with ``fast_forward=True``, the
default) must be *indistinguishable* from the per-cycle reference loop:
identical cycle counts, instruction counts, stall accounting, FSL
statistics and probe traces.  These tests pin that contract on the
paper's two applications (CORDIC divider, blocked matmul) and on a
latency-swept FSL doubler, and cover the state-reset bugfixes that
shipped with the kernel.
"""

import pytest

from repro.apps.cordic.design import CordicDesign
from repro.apps.matmul.design import MatmulDesign
from repro.bus.fsl import FSLChannel
from repro.cosim import CoSimulation, FastForwardError, MicroBlazeBlock
from repro.cosim.environment import CoSimDeadlock
from repro.cosim.multicpu import CPUNode, MultiCoSimulation
from repro.cosim.topology import TopologySpec
from repro.iss.cpu import CPUConfig, CPUError, HaltReason
from repro.iss.run import make_cpu
from repro.mcc import CompileOptions, build_executable
from repro.sysgen import IDLE_FOREVER, Model
from repro.sysgen.blocks import Counter, Delay, GatewayIn, Inverter, Logical, Shift


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def doubler_design(fifo_depth: int = 16, extra_latency: int = 0):
    """FSL peripheral returning 2*x (same shape as in test_cosim)."""
    model = Model("doubler")
    mb = MicroBlazeBlock(model, fifo_depth=fifo_depth)
    rd = mb.master_fsl(0)
    wr = mb.slave_fsl(0)
    shl = model.add(Shift("shl", width=32, amount=1, direction="left"))
    notfull = model.add(Inverter("notfull", width=1))
    strobe = model.add(Logical("strobe", width=1, op="and"))
    model.connect(wr.o("full"), notfull.i("a"))
    model.connect(rd.o("exists"), strobe.i("d0"))
    model.connect(notfull.o("out"), strobe.i("d1"))
    model.connect(rd.o("data"), shl.i("a"))
    model.connect(strobe.o("out"), rd.i("read"))
    if extra_latency:
        dly_d = model.add(Delay("dly_d", width=32, n=extra_latency))
        dly_v = model.add(Delay("dly_v", width=1, n=extra_latency))
        model.connect(shl.o("s"), dly_d.i("d"))
        model.connect(strobe.o("out"), dly_v.i("d"))
        model.connect(dly_d.o("q"), wr.i("data"))
        model.connect(dly_v.o("q"), wr.i("write"))
    else:
        model.connect(shl.o("s"), wr.i("data"))
        model.connect(strobe.o("out"), wr.i("write"))
    return model, mb


ECHO_SUM_SRC = """
int main(void) {
    int sum = 0;
    for (int i = 1; i <= 5; i++) {
        putfsl(i, 0);
        sum += getfsl(0);
    }
    return sum;   /* doubler: 2+4+6+8+10 = 30 */
}
"""


def _attach_interface_probes(model: Model, mb: MicroBlazeBlock) -> None:
    """Probe the FSL handshake/data ports — the signals fast-forward
    must reproduce sample by sample."""
    for blk in mb.read_blocks.values():
        model.probe(blk.o("data"))
        model.probe(blk.o("exists"))
    for blk in mb.write_blocks.values():
        model.probe(blk.o("full"))


def _run_mode(program, model, mb, cpu_config, mode: str):
    sim = CoSimulation(
        program,
        model,
        mb,
        cpu_config=cpu_config,
        fast_forward=(mode != "per_cycle"),
        verify_fast_forward=(mode == "verify"),
    )
    result = sim.run()
    probes = {p.name: list(p.samples) for p in model.probes}
    fsl_stats = {
        name: (ch.total_pushed, ch.total_popped, ch.push_rejects,
               ch.pop_rejects, ch.max_occupancy)
        for name, ch in (
            *((f"to{i}", mb.to_hw_channel(i)) for i in mb.read_blocks),
            *((f"from{i}", mb.from_hw_channel(i)) for i in mb.write_blocks),
        )
    }
    return result, probes, fsl_stats


def _assert_equivalent(reference, candidate, label: str) -> None:
    ref_result, ref_probes, ref_fsl = reference
    res, probes, fsl = candidate
    assert res.exit_code == ref_result.exit_code, label
    assert res.halt_reason == ref_result.halt_reason, label
    assert res.cycles == ref_result.cycles, label
    assert res.instructions == ref_result.instructions, label
    assert res.stall_cycles == ref_result.stall_cycles, label
    assert fsl == ref_fsl, label
    assert probes.keys() == ref_probes.keys(), label
    for name in ref_probes:
        assert probes[name] == ref_probes[name], f"{label}: probe {name}"


# ----------------------------------------------------------------------
# Tentpole: bit-identical fast-forward on the paper's applications
# ----------------------------------------------------------------------
DESIGN_CASES = {
    "cordic_p2": lambda: CordicDesign(p=2, iters=8, ndata=8, verify=False),
    "cordic_p4": lambda: CordicDesign(p=4, iters=12, ndata=8, verify=False),
    "matmul_b2": lambda: MatmulDesign(block=2, matn=4, verify=False),
}


@pytest.mark.parametrize("case", sorted(DESIGN_CASES))
def test_fast_forward_equivalent_on_applications(case):
    runs = {}
    for mode in ("per_cycle", "fast", "verify"):
        design = DESIGN_CASES[case]()
        _attach_interface_probes(design.model, design.mb)
        runs[mode] = _run_mode(
            design.program, design.model, design.mb, design.cpu_config, mode
        )
    assert runs["per_cycle"][0].exit_code == 0
    assert runs["per_cycle"][0].cycles > 0
    _assert_equivalent(runs["per_cycle"], runs["fast"], f"{case}: fast")
    _assert_equivalent(runs["per_cycle"], runs["verify"], f"{case}: verify")


@pytest.mark.parametrize("latency", [0, 1, 3, 8])
@pytest.mark.parametrize("depth", [2, 16])
def test_fast_forward_equivalent_on_doubler_grid(latency, depth):
    # Property-style sweep over pipeline latency x FIFO depth: every
    # stall/backpressure pattern must fast-forward bit-identically.
    program = build_executable(ECHO_SUM_SRC, CompileOptions())
    runs = {}
    for mode in ("per_cycle", "fast"):
        model, mb = doubler_design(fifo_depth=depth, extra_latency=latency)
        _attach_interface_probes(model, mb)
        runs[mode] = _run_mode(program, model, mb, CPUConfig(), mode)
    assert runs["per_cycle"][0].exit_code == 30
    _assert_equivalent(
        runs["per_cycle"], runs["fast"], f"latency={latency} depth={depth}"
    )


def test_fast_forward_deadlock_detected_at_same_cycle():
    # Skips are clamped to the deadlock-check boundary, so the overflow
    # deadlock must trip in both modes (and at the same simulated time).
    src = """
    int main(void) {
        int sum = 0;
        for (int i = 0; i < 40; i++) putfsl(i, 0);
        for (int i = 0; i < 40; i++) sum += getfsl(0);
        return sum;
    }
    """
    program = build_executable(src, CompileOptions())
    cycles_at_raise = {}
    for mode in ("per_cycle", "fast"):
        model, mb = doubler_design(fifo_depth=4)
        sim = CoSimulation(
            program, model, mb, fast_forward=(mode == "fast")
        )
        with pytest.raises(CoSimDeadlock) as excinfo:
            sim.run()
        cycles_at_raise[mode] = sim.cpu.cycle
        # Reporter goes through the public accessor, naming channels.
        assert "mb_out0" in str(excinfo.value)
    assert cycles_at_raise["fast"] == cycles_at_raise["per_cycle"]


def test_fast_forward_verify_catches_lying_idle_horizon():
    # A block that claims quiescence while its state keeps changing must
    # be caught by verify_fast_forward (the debug cross-check), by the
    # one-CPU and the K-CPU simulator alike.  Reports embed the error
    # text, so each simulator keeps its own wording.
    class LyingCounter(Counter):
        def idle_horizon(self) -> int:
            return IDLE_FOREVER

    program = build_executable("int main(void) { return 7; }")
    for multi in (False, True):
        model = Model("liar")
        mb = MicroBlazeBlock(model)
        model.add(LyingCounter("free", width=8))
        if multi:
            node = CPUNode(program=program, model=model, mb_block=mb)
            sim = MultiCoSimulation([node], TopologySpec.pipeline(1),
                                    verify_fast_forward=True)
            text = (r"^block 'free' outputs changed during a "
                    r"fast-forward window: ")
        else:
            sim = CoSimulation(program, model, mb, verify_fast_forward=True)
            text = (r"^block 'free' outputs changed during a fast-forward "
                    r"window \(idle_horizon over-promised\): ")
        with pytest.raises(FastForwardError, match=text):
            sim.run()


def test_fast_forward_idle_horizon_tracks_gateway_drive():
    model = Model("gw")
    gw = model.add(GatewayIn("x", width=16))
    ctr = model.add(Counter("ctr", width=8))
    model.connect(gw.o("out"), ctr.i("rst"))
    model.compile()
    # Pre-settle, outputs are stale: never claim idleness.
    assert model.idle_horizon() == 0
    gw.drive(1)  # rst held high -> counter pinned at 0
    model.step()
    assert model.idle_horizon() == IDLE_FOREVER
    # A host-side drive is an external event: idleness must drop...
    gw.drive(0)
    assert model.idle_horizon() == 0
    model.step()
    # ...and stay dropped while the counter free-runs.
    assert model.idle_horizon() == 0


def test_fast_forward_cpu_advance_guards():
    program = build_executable("int main(void) { return 0; }")
    cpu = make_cpu(program)
    # Ready to issue: advancing would skip real work.
    assert cpu.advance_horizon() == 0
    with pytest.raises(CPUError):
        cpu.advance(1)
    cpu.tick()  # issue the first (multi-cycle) instruction if any
    if cpu.advance_horizon() > 0:
        with pytest.raises(CPUError):
            cpu.advance(cpu.advance_horizon() + 1)


# ----------------------------------------------------------------------
# Satellite regressions: reset/re-run state bugs
# ----------------------------------------------------------------------
def test_fast_forward_satellite_fsl_reset_clears_stats():
    ch = FSLChannel(depth=2, name="t")
    ch.push(1)
    ch.push(2)
    assert not ch.push(3)  # full -> reject
    ch.pop()
    assert ch.pop() is not None
    assert ch.pop() is None  # empty -> reject
    assert (ch.total_pushed, ch.total_popped) == (2, 2)
    assert (ch.push_rejects, ch.pop_rejects, ch.max_occupancy) == (1, 1, 2)

    ch.push(4)
    ch.reset(reset_stats=False)  # profiling mode keeps counters
    assert ch.occupancy == 0
    assert ch.total_pushed == 3

    ch.reset()  # default clears everything
    assert (ch.total_pushed, ch.total_popped) == (0, 0)
    assert (ch.push_rejects, ch.pop_rejects, ch.max_occupancy) == (0, 0, 0)


def test_fast_forward_satellite_cosim_reset_clears_channel_stats():
    model, mb = doubler_design()
    program = build_executable(ECHO_SUM_SRC, CompileOptions())
    sim = CoSimulation(program, model, mb)
    sim.run()
    first_pushed = mb.to_hw_channel(0).total_pushed
    assert first_pushed == 5
    sim.reset()
    assert mb.to_hw_channel(0).total_pushed == 0
    assert mb.from_hw_channel(0).total_popped == 0
    second = sim.run()
    # Second run's statistics equal a fresh run's, not 2x.
    assert second.exit_code == 30
    assert mb.to_hw_channel(0).total_pushed == first_pushed


def test_fast_forward_satellite_cpu_reset_clears_fsl_error():
    program = build_executable("int main(void) { return 0; }")
    cpu = make_cpu(program)
    cpu.fsl.error = True  # MSR[FSL] sticky bit from a "previous run"
    cpu.reset(pc=program.entry)
    assert cpu.fsl.error is False


def test_fast_forward_satellite_second_run_reports_deltas():
    model, mb = doubler_design()
    program = build_executable(ECHO_SUM_SRC, CompileOptions())
    # Reference: one uninterrupted run.
    ref_model, ref_mb = doubler_design()
    reference = CoSimulation(program, ref_model, ref_mb).run()

    sim = CoSimulation(program, model, mb)
    first = sim.run(until=50)
    assert first.halt_reason == HaltReason.MAX_CYCLES
    assert first.cycles == 50  # not the CPU's lifetime cycle count
    sim.cpu.resume()
    second = sim.run()
    assert second.exit_code == 30
    # Each result pairs its own cycles with its own wall time.
    assert first.cycles + second.cycles == reference.cycles
    assert second.cycles < reference.cycles
    assert (
        first.instructions + second.instructions == reference.instructions
    )
    assert (
        first.stall_cycles + second.stall_cycles == reference.stall_cycles
    )


def test_fast_forward_satellite_channel_occupancies_accessor():
    model, mb = doubler_design()
    assert mb.channel_occupancies() == {"mb_out0": 0, "mb_in0": 0}
    mb.to_hw_channel(0).push(11)
    mb.to_hw_channel(0).push(22)
    mb.from_hw_channel(0).push(33)
    assert mb.channel_occupancies() == {"mb_out0": 2, "mb_in0": 1}
