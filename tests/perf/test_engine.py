"""Fast-path engine behaviors: switches, caching, staleness, counters."""

from __future__ import annotations

import pytest

from repro.lang import compile_program
from repro.perf.bench import result_fingerprint
from repro.perf.engine import ProgramFast, fastpath_disabled_env, program_fast
from repro.runtime.dag import MachineSpec
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.simulator.dvs import make_mode_table

SOURCE = """
func main() -> int {
    var acc: int = 0;
    for (var i: int = 0; i < 600; i = i + 1) {
        acc = (acc + i * 7 + 3) % 9973;
    }
    return acc;
}
"""


@pytest.fixture()
def cfg():
    return compile_program(SOURCE, "engine-test")


def test_env_kill_switch(cfg, monkeypatch):
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    assert fastpath_disabled_env()
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    machine.run(cfg, mode=0)
    assert machine.last_fastpath_stats["enabled"] == 0
    monkeypatch.setenv("REPRO_NO_FASTPATH", "0")
    assert not fastpath_disabled_env()


def test_per_run_override_beats_machine_flag(cfg):
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel(),
                      fastpath=False)
    machine.run(cfg, mode=0)
    assert machine.last_fastpath_stats["enabled"] == 0
    machine.run(cfg, mode=0, fastpath=True)
    assert machine.last_fastpath_stats["enabled"] == 1
    assert machine.last_fastpath_stats["fast_blocks"] > 0

    default_on = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    default_on.run(cfg, mode=0, fastpath=False)
    assert default_on.last_fastpath_stats["enabled"] == 0


def test_program_cache_is_reused_and_invalidated(cfg):
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    pf1 = program_fast(machine, cfg)
    assert program_fast(machine, cfg) is pf1
    # an equal-valued copy of the table folds the same constants: reuse
    machine.mode_table = XSCALE_3.__class__(list(XSCALE_3.points),
                                            name="xscale-3-copy")
    assert program_fast(machine, cfg) is pf1
    # a table with other operating points changes folded constants: rebuild
    machine.mode_table = make_mode_table(3)
    pf2 = program_fast(machine, cfg)
    assert pf2 is not pf1


def test_program_cache_is_shared_across_machines(cfg):
    """Every sweep task builds a fresh machine; they share one compile."""
    pf = program_fast(MachineSpec().build(), cfg)
    assert program_fast(MachineSpec().build(), cfg) is pf
    assert program_fast(MachineSpec(capacitance_uf=5.0).build(), cfg) is pf
    # make_mode_table builds a new object per call: keyed by value
    pf13 = program_fast(MachineSpec(levels=13).build(), cfg)
    assert program_fast(MachineSpec(levels=13).build(), cfg) is pf13
    assert pf13 is not pf
    slow_memory = SCALE_CONFIG.with_memory_latency(300e-9)
    assert program_fast(Machine(slow_memory, XSCALE_3), cfg) is not pf
    # a recompiled program is a new program
    assert program_fast(MachineSpec().build(),
                        compile_program(SOURCE, "engine-test")) is not pf


def test_program_cache_is_bounded(cfg):
    from repro.perf import engine

    machine = MachineSpec().build()
    pf = program_fast(machine, cfg)
    alive = [compile_program(SOURCE, f"bound-{i}") for i in range(70)]
    for other in alive:
        program_fast(machine, other)
    assert len(engine._PROGRAMS) == engine._MAX_PROGRAMS
    # least recently used goes first: the newest stay cached
    assert program_fast(machine, alive[-1]) is program_fast(machine, alive[-1])
    assert program_fast(machine, cfg) is not pf


def test_consts_are_per_mode_and_cached(cfg):
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    pf = ProgramFast(machine, cfg)
    table0 = pf.consts(0)
    assert pf.consts(0) is table0
    table2 = pf.consts(2)
    assert table2 is not table0
    label = next(iter(table0))
    # higher voltage -> strictly more energy per execution of any block
    assert table2[label][1] > table0[label][1]


def test_counters_consistent_with_run(cfg):
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    result = machine.run(cfg, mode=1)
    stats = machine.last_fastpath_stats
    executed_blocks = sum(s.count for s in result.block_stats.values())
    assert (stats["fast_blocks"] + stats["slow_blocks"]) == executed_blocks
    assert stats["loop_iterations"] > 0  # the kernel is one tight loop


def test_fastpath_identical_across_levels(cfg):
    """Folded constants depend on the mode table; a 7-level alpha table
    must be just as bit-exact as XScale-3."""
    table = make_mode_table(7)
    fast = Machine(SCALE_CONFIG, table, TransitionCostModel())
    slow = Machine(SCALE_CONFIG, table, TransitionCostModel(), fastpath=False)
    for mode in (0, 3, 6):
        assert (result_fingerprint(fast.run(cfg, mode=mode))
                == result_fingerprint(slow.run(cfg, mode=mode)))
