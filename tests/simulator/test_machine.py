"""Machine-simulator tests: semantics, timing model, energy model,
asynchronous memory, DVS transitions."""

import pytest

from repro.errors import ScheduleError, SimulationError
from repro.ir import FunctionBuilder, interpret
from repro.ir.cfg import ENTRY_EDGE_SOURCE
from repro.lang import compile_program
from repro.simulator import (
    Machine,
    MachineConfig,
    SCALE_CONFIG,
    TransitionCostModel,
    XSCALE_3,
)


def compute_loop(iters: int = 200):
    """Pure-compute loop: no memory traffic beyond I-fetch."""
    src = f"""
    func main() -> int {{
        var s: int = 0;
        for (var i: int = 0; i < {iters}; i = i + 1) {{
            s = (s + i * 7) % 1000003;
        }}
        return s;
    }}
    """
    return compile_program(src, "compute-loop")


def streaming_loop(n: int = 4096):
    """Memory-streaming loop over an array bigger than L2."""
    src = f"""
    func main() -> int {{
        extern a: int[{n}];
        var s: int = 0;
        for (var i: int = 0; i < {n}; i = i + 1) {{
            s = s + a[i];
        }}
        return s;
    }}
    """
    return compile_program(src, "stream-loop"), {"a": list(range(n))}


class TestSemantics:
    def test_matches_interpreter(self):
        cfg = compute_loop()
        machine = Machine()
        for mode in range(3):
            assert (
                machine.run(cfg, mode=mode).return_value
                == interpret(cfg).return_value
            )

    def test_memory_program_matches_interpreter(self):
        cfg, inputs = streaming_loop()
        assert (
            Machine().run(cfg, inputs=inputs, mode=1).return_value
            == interpret(cfg, inputs=inputs).return_value
        )

    def test_results_identical_across_modes(self):
        cfg, inputs = streaming_loop(512)
        machine = Machine()
        results = {machine.run(cfg, inputs=inputs, mode=m).return_value for m in range(3)}
        assert len(results) == 1


class TestTiming:
    def test_compute_time_scales_inversely_with_frequency(self):
        cfg = compute_loop(4000)
        machine = Machine()
        t200 = machine.run(cfg, mode=0).wall_time_s
        t800 = machine.run(cfg, mode=2).wall_time_s
        # Pure compute: the frequency ratio, up to the handful of cold
        # instruction-cache misses whose fill time is wall-clock.
        assert t200 / t800 == pytest.approx(800 / 200, rel=0.02)

    def test_memory_time_does_not_scale(self):
        """The asynchronous-memory assumption: t_invariant is identical at
        every frequency, so memory-heavy code speeds up sublinearly."""
        cfg, inputs = streaming_loop()
        machine = Machine()
        r200 = machine.run(cfg, inputs=inputs, mode=0)
        r800 = machine.run(cfg, inputs=inputs, mode=2)
        assert r200.t_invariant_s == pytest.approx(r800.t_invariant_s)
        assert r200.mem_misses == r800.mem_misses
        assert r200.wall_time_s / r800.wall_time_s < 4.0  # sublinear speedup

    def test_wall_time_at_least_miss_service_time(self):
        cfg, inputs = streaming_loop()
        result = Machine().run(cfg, inputs=inputs, mode=2)
        assert result.wall_time_s >= result.t_invariant_s

    def test_block_times_sum_to_wall_time(self):
        cfg, inputs = streaming_loop(512)
        result = Machine().run(cfg, inputs=inputs, mode=1)
        total = sum(stats.time_s for stats in result.block_stats.values())
        assert total == pytest.approx(result.wall_time_s, rel=1e-9)

    def test_cycle_classification_is_frequency_invariant(self):
        cfg, inputs = streaming_loop(1024)
        machine = Machine()
        r0 = machine.run(cfg, inputs=inputs, mode=0)
        r2 = machine.run(cfg, inputs=inputs, mode=2)
        total0 = r0.overlap_cycles + r0.dependent_cycles
        total2 = r2.overlap_cycles + r2.dependent_cycles
        assert total0 == total2  # compute cycles don't depend on f
        assert r0.cache_cycles == r2.cache_cycles


class TestEnergy:
    def test_energy_scales_with_v_squared(self):
        cfg = compute_loop()
        machine = Machine()
        e_by_mode = [machine.run(cfg, mode=m).cpu_energy_nj for m in range(3)]
        v = [p.voltage for p in XSCALE_3]
        assert e_by_mode[0] / e_by_mode[2] == pytest.approx(v[0] ** 2 / v[2] ** 2, rel=1e-6)
        assert e_by_mode[1] / e_by_mode[2] == pytest.approx(v[1] ** 2 / v[2] ** 2, rel=1e-6)

    def test_block_energies_sum_to_total(self):
        cfg, inputs = streaming_loop(512)
        result = Machine().run(cfg, inputs=inputs, mode=1)
        total = sum(stats.cpu_energy_nj for stats in result.block_stats.values())
        assert total == pytest.approx(result.cpu_energy_nj, rel=1e-9)

    def test_memory_energy_frequency_invariant(self):
        cfg, inputs = streaming_loop()
        machine = Machine()
        e0 = machine.run(cfg, inputs=inputs, mode=0).memory_energy_nj
        e2 = machine.run(cfg, inputs=inputs, mode=2).memory_energy_nj
        assert e0 == pytest.approx(e2)

    def test_gated_stalls_cost_nothing(self):
        """Same program with slower memory must not consume more CPU energy
        (waits are clock-gated)."""
        cfg, inputs = streaming_loop()
        fast_mem = Machine(SCALE_CONFIG.with_memory_latency(50e-9))
        slow_mem = Machine(SCALE_CONFIG.with_memory_latency(500e-9))
        e_fast = fast_mem.run(cfg, inputs=inputs, mode=2).cpu_energy_nj
        e_slow = slow_mem.run(cfg, inputs=inputs, mode=2).cpu_energy_nj
        assert e_slow == pytest.approx(e_fast, rel=1e-9)


class TestProfiles:
    def test_edge_counts_include_entry_edge(self):
        cfg = compute_loop(10)
        result = Machine().run(cfg, mode=0)
        assert result.edge_counts[(ENTRY_EDGE_SOURCE, cfg.entry)] == 1

    def test_path_counts_sum_matches_edges(self):
        cfg = compute_loop(10)
        result = Machine().run(cfg, mode=0)
        # D_hij summed over j equals the traversals of (h, i) that continued.
        outgoing = {}
        for (h, i, j), count in result.path_counts.items():
            outgoing[(h, i)] = outgoing.get((h, i), 0) + count
        for edge, count in outgoing.items():
            assert count <= result.edge_counts[edge]


class TestDVSExecution:
    def test_schedule_and_mode_mutually_exclusive(self):
        cfg = compute_loop(5)
        with pytest.raises(ScheduleError):
            Machine().run(cfg, mode=1, schedule={})

    def test_invalid_mode_rejected(self):
        cfg = compute_loop(5)
        with pytest.raises(ScheduleError):
            Machine().run(cfg, mode=9)

    def test_invalid_schedule_mode_rejected(self):
        cfg = compute_loop(5)
        with pytest.raises(ScheduleError):
            Machine().run(cfg, schedule={("a", "b"): 42})

    def test_entry_edge_sets_initial_mode(self):
        cfg = compute_loop(50)
        machine = Machine()
        scheduled = machine.run(
            cfg, schedule={(ENTRY_EDGE_SOURCE, cfg.entry): 0}
        )
        fixed = machine.run(cfg, mode=0)
        assert scheduled.cpu_energy_nj == pytest.approx(fixed.cpu_energy_nj)
        assert scheduled.mode_transitions == 0

    def test_transition_costs_charged(self):
        src = """
        func main() -> int {
            var s: int = 0;
            for (var i: int = 0; i < 10; i = i + 1) { s = s + i; }
            for (var j: int = 0; j < 10; j = j + 1) { s = s + j * 2; }
            return s;
        }
        """
        cfg = compile_program(src, "twophase")
        model = TransitionCostModel()
        machine = Machine(transition_model=model)
        # Find the edge between the two loops: exit of loop 1 -> init of loop 2.
        baseline = machine.run(cfg, mode=2)
        # Schedule: start fast, drop to slow on some edge that executes once.
        once_edges = [
            e for e, c in baseline.edge_counts.items()
            if c == 1 and e[0] != ENTRY_EDGE_SOURCE
        ]
        edge = once_edges[len(once_edges) // 2]
        result = machine.run(
            cfg,
            schedule={(ENTRY_EDGE_SOURCE, cfg.entry): 2, edge: 0},
        )
        assert result.mode_transitions == 1
        assert result.transition_energy_nj == pytest.approx(model.energy_nj(1.65, 0.70))
        assert result.transition_time_s == pytest.approx(model.time_s(1.65, 0.70))
        assert result.final_mode == 0

    def test_silent_modeset_free(self):
        cfg = compute_loop(30)
        machine = Machine(transition_model=TransitionCostModel())
        # Mode-set to the current mode on the loop back edge: always silent.
        baseline = machine.run(cfg, mode=2)
        back_edges = [e for e, c in baseline.edge_counts.items() if c > 10]
        schedule = {edge: 2 for edge in back_edges}
        schedule[(ENTRY_EDGE_SOURCE, cfg.entry)] = 2
        result = machine.run(cfg, schedule=schedule)
        assert result.mode_transitions == 0
        assert result.transition_energy_nj == 0.0
        assert result.modeset_executions > 10
        assert result.cpu_energy_nj == pytest.approx(baseline.cpu_energy_nj)


class TestLanes:
    """``run(modes=...)``: one functional pass, one timing lane per mode."""

    @staticmethod
    def _fields(result):
        fields = dict(vars(result))
        memory = fields.pop("memory")
        return fields, memory.cells

    @pytest.mark.parametrize("fastpath", [True, False])
    @pytest.mark.parametrize("modes", [(0, 1, 2), (2, 0), (1,)])
    def test_each_lane_equals_its_one_mode_run(self, modes, fastpath):
        """A streaming loop keeps misses outstanding and registers pending
        in every lane; each lane's RunResult is still bit-identical."""
        cfg, inputs = streaming_loop(4096)
        lanes = Machine(fastpath=fastpath).run(cfg, inputs=inputs, modes=modes)
        assert len(lanes) == len(modes)
        for mode, lane in zip(modes, lanes):
            solo = Machine(fastpath=fastpath).run(cfg, inputs=inputs, mode=mode)
            assert self._fields(lane) == self._fields(solo)
            assert lane.final_mode == mode

    def test_lanes_own_their_counts(self):
        first, second = Machine().run(compute_loop(50), modes=(0, 2))
        assert first.edge_counts == second.edge_counts
        assert first.edge_counts is not second.edge_counts

    @pytest.mark.parametrize("kwargs", [
        {"mode": 0}, {"initial_mode": 0},
        {"schedule": {(ENTRY_EDGE_SOURCE, "entry"): 0}},
    ])
    def test_lanes_exclude_other_mode_arguments(self, kwargs):
        with pytest.raises(ScheduleError):
            Machine().run(compute_loop(5), modes=(0, 1), **kwargs)

    @pytest.mark.parametrize("modes", [(), (0, 3), (-1,)])
    def test_invalid_lane_modes_rejected(self, modes):
        with pytest.raises(ScheduleError):
            Machine().run(compute_loop(5), modes=modes)

    def test_trace_cannot_follow_lanes(self):
        with pytest.raises(SimulationError):
            Machine().run(compute_loop(5), modes=(0, 1), trace=[])
