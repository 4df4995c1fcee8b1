"""Instruction-level timing and energy simulation of IR programs.

The :class:`Machine` executes a CFG under a DVS mode table, producing wall
time, CPU energy, per-block time/energy, edge counts and local-path counts
— everything the profiler and the analytical-parameter extraction need.

Timing model
============

* The CPU issues one instruction at a time, in order; each instruction
  occupies its :class:`~repro.ir.instructions.OpClass` latency in CPU
  cycles (cycles scale with the current frequency).
* Cache hits are synchronous: L1/L2 hit latencies are CPU cycles.
* Main-memory misses are asynchronous (the paper's assumption 2): the miss
  is serviced in wall-clock ``memory_latency_s`` regardless of CPU
  frequency.  The destination register becomes *pending* and execution
  continues — this is the overlap the paper's model exploits.  One miss may
  be outstanding at a time (single memory port); a second miss, or an
  instruction reading a pending register, stalls with the clock gated
  (assumption 3: gated stalls consume no energy).
* Executing a mode-set on an edge whose mode differs from the current one
  stalls for ``ST`` seconds and charges ``SE`` Joules (Section 4.2); a
  mode-set whose value equals the current mode is silent and free.

Statistics for the analytical model
===================================

The run classifies every cycle the way Section 3.2 does: compute cycles
issued while a miss is outstanding accumulate ``overlap_cycles``
(N_overlap); other compute cycles accumulate ``dependent_cycles``
(N_dependent); memory-operation cycles that hit in cache accumulate
``cache_cycles`` (N_cache); and ``t_invariant_s`` is the total wall-clock
main-memory service time (misses × latency, port-serialized).

Accounting structure (the fast-path contract)
=============================================

Wall time and energy are accumulated *per block execution* into local
deltas and committed once per block: ``now += Δt`` plus compensated
(Neumaier) additions of ``Δt``/``Δe`` into the per-block and run-level
accumulators.  Both the reference interpreter and the :mod:`repro.perf`
fast path therefore perform the *identical* sequence of run-level float
operations — which is what makes block-delta memoization bit-exact: a
memoized delta is the same float the interpreter would have produced, and
it is applied through the same commit.  The fast path engages only when
the pending set is empty, no miss is outstanding, and every I-line and
touched D-line of the block is L1-resident; anything else falls back to
the reference interpretation below (``fastpath=False`` or
``$REPRO_NO_FASTPATH=1`` disables the fast path entirely).

One pass, many modes (lanes)
============================

``run(cfg, modes=[...])`` times one execution at several fixed modes.
The functional state — registers, memory, L1/L2 LRU state, branch
outcomes, pending-register membership and every count — runs once;
only timing and energy are per mode.  The first mode's timing is this
interpreter's locals, exactly as in a one-mode run; every further mode
is a :class:`~repro.simulator.lanes.Lane` holding its own ``now``,
outstanding miss, pending ready-times, stall time, overlap cycles and
per-block accumulators.  An interpreted block records its cache-access
outcomes, and each lane times them (:meth:`Lane.time_block
<repro.simulator.lanes.Lane.time_block>`); a fast-path block replays
each lane's folded delta, and a compiled loop commits every lane's
delta inline (one loop function per lane set).  Each lane commits the
floats, in the per-block order, that a one-mode run at its mode
commits, so each lane's :class:`RunResult` is bit-identical to that
run's.  A one-mode run is the one-lane case of the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import observe
from repro.errors import ScheduleError, SimulationError
from repro.ir.cfg import CFG, ENTRY_EDGE_SOURCE, Edge
from repro.ir.instructions import (
    BinOp,
    Branch,
    Const,
    Jump,
    Load,
    Move,
    OpClass,
    Ret,
    Store,
    UnOp,
)
from repro.ir.interp import DataMemory, _FP_BINOPS, _INT_BINOPS, _UNOPS
from repro.perf.accum import NeumaierSum
from repro.simulator.cache import Cache, CacheHierarchy
from repro.simulator.config import MachineConfig, SCALE_CONFIG
from repro.simulator.dvs import ModeTable, TransitionCostModel, XSCALE_3, ZERO_TRANSITION
from repro.simulator.energy import EnergyModel
from repro.simulator.lanes import Lane, l1_outcomes, timing_ops

# Decoded opcode kinds (tuple dispatch for speed).
_CONST, _MOVE, _BINOP, _UNOP, _LOAD, _STORE, _BRANCH, _JUMP, _RET = range(9)

_MEM_CLASS = OpClass.MEM
_COMPUTE_CLASSES = tuple(c for c in OpClass if c is not OpClass.MEM)


@dataclass
class BlockStats:
    """Per-basic-block accumulation over one run."""

    count: int = 0
    time_s: float = 0.0
    cpu_energy_nj: float = 0.0


@dataclass
class RunResult:
    """Everything observable from one simulated execution."""

    return_value: float | None
    wall_time_s: float
    cpu_energy_nj: float
    memory_energy_nj: float
    instructions: int
    block_stats: dict[str, BlockStats]
    edge_counts: dict[Edge, int]
    path_counts: dict[tuple[str, str, str], int]
    cache_stats: dict[str, int]
    # analytical-model parameter ingredients (Section 3.2)
    overlap_cycles: int
    dependent_cycles: int
    cache_cycles: int
    dmiss_sync_cycles: int
    ifetch_cycles: int
    mem_misses: int
    t_invariant_s: float
    gated_wait_s: float
    # DVS accounting
    mode_transitions: int = 0
    modeset_executions: int = 0
    transition_energy_nj: float = 0.0
    transition_time_s: float = 0.0
    final_mode: int = 0
    memory: DataMemory | None = None

    @property
    def total_energy_nj(self) -> float:
        return self.cpu_energy_nj + self.memory_energy_nj


class Machine:
    """A DVS-capable processor model executing IR programs.

    Args:
        config: machine description (caches, memory latency, energies).
        mode_table: the available (V, f) operating points.
        transition_model: regulator model for mode-switch costs.
        fastpath: enable the :mod:`repro.perf` hot-path acceleration
            (block-delta memoization and steady-state loop
            fast-forwarding).  The fast path is bit-exact — it produces
            the same :class:`RunResult` as the reference interpreter —
            so this switch exists only for differential testing and as
            an escape hatch (also ``$REPRO_NO_FASTPATH=1``).
    """

    def __init__(
        self,
        config: MachineConfig = SCALE_CONFIG,
        mode_table: ModeTable = XSCALE_3,
        transition_model: TransitionCostModel = ZERO_TRANSITION,
        fastpath: bool = True,
    ) -> None:
        self.config = config
        self.mode_table = mode_table
        self.transition_model = transition_model
        self.fastpath = fastpath
        #: Diagnostic snapshot of the last run's fast-path activity
        #: (block/loop hit counts).  Not part of any RunResult.
        self.last_fastpath_stats: dict[str, int] = {}

    # -- decoding ---------------------------------------------------------------

    def _decode(self, cfg: CFG):
        """Pre-decode blocks into dispatch tuples and I-fetch line lists."""
        decoded: dict[str, list] = {}
        block_lines: dict[str, list[int]] = {}
        line_bytes = self.config.l1i.line_bytes
        # Code lives in its own region far above any data address, so
        # instruction lines never alias data lines in the shared L2.
        next_addr = 1 << 30
        for label, block in cfg.blocks.items():
            instrs = []
            start_addr = next_addr
            for instr in block.instructions:
                cls = instr.op_class
                if isinstance(instr, Const):
                    instrs.append((_CONST, instr.dst, instr.value, cls))
                elif isinstance(instr, Move):
                    instrs.append((_MOVE, instr.dst, instr.src, cls))
                elif isinstance(instr, BinOp):
                    fn = _INT_BINOPS.get(instr.op) or _FP_BINOPS[instr.op]
                    instrs.append((_BINOP, fn, instr.dst, instr.lhs, instr.rhs, cls))
                elif isinstance(instr, UnOp):
                    instrs.append((_UNOP, _UNOPS[instr.op], instr.dst, instr.src, cls))
                elif isinstance(instr, Load):
                    instrs.append((_LOAD, instr.dst, instr.base, instr.offset, cls))
                elif isinstance(instr, Store):
                    instrs.append((_STORE, instr.src, instr.base, instr.offset, cls))
                elif isinstance(instr, Branch):
                    instrs.append((_BRANCH, instr.cond, instr.if_true, instr.if_false, cls))
                elif isinstance(instr, Jump):
                    instrs.append((_JUMP, instr.target, None, cls))
                elif isinstance(instr, Ret):
                    instrs.append((_RET, instr.value, None, cls))
                else:
                    raise SimulationError(f"cannot decode {instr!r}")
                next_addr += 4
            decoded[label] = instrs
            first_line = start_addr // line_bytes
            last_line = max(start_addr, next_addr - 4) // line_bytes
            block_lines[label] = [l * line_bytes for l in range(first_line, last_line + 1)]
        return decoded, block_lines

    # -- execution --------------------------------------------------------------

    def run(
        self,
        cfg: CFG,
        inputs: dict[str, list] | None = None,
        registers: dict[str, float] | None = None,
        mode: int | None = None,
        schedule: dict[Edge, int] | None = None,
        initial_mode: int | None = None,
        max_steps: int = 200_000_000,
        trace: list | None = None,
        fastpath: bool | None = None,
        modes: Sequence[int] | None = None,
    ) -> RunResult | list[RunResult]:
        """Execute a program.

        Args:
            cfg: the program to run (validated IR).
            inputs: array name -> initial contents.
            registers: initial register values (program parameters).
            mode: run entirely at this mode index (profiling runs).
            schedule: edge -> mode index map (DVS-scheduled runs).  The
                synthetic entry edge may set the starting mode.
            initial_mode: starting mode when ``schedule`` is given (default:
                fastest).  Mutually exclusive with ``mode``.
            max_steps: safety cap on executed instructions.
            trace: optional list that receives a ``(wall_time_s, label,
                mode)`` tuple at every block entry — the timeline data
                :mod:`repro.simulator.trace` analyzes.  Tracing costs one
                append per block execution; leave None for full speed.
            fastpath: per-run override of the machine's ``fastpath``
                setting (None keeps it).  On or off, the RunResult is
                bit-identical.
            modes: time one pass at each of these fixed modes (one
                :mod:`lane <repro.simulator.lanes>` per mode); excludes
                ``mode``, ``schedule``, ``initial_mode`` and ``trace``.

        Returns:
            a :class:`RunResult`; with ``modes``, a list of them in
            ``modes`` order, each bit-identical to ``run(mode=m)``.
        """
        if not observe.enabled():
            results = self._run(cfg, inputs, registers, mode, schedule,
                                initial_mode, max_steps, trace, fastpath, modes)
            return results if modes is not None else results[0]
        with observe.span("simulator.run", program=cfg.name,
                          scheduled=schedule is not None,
                          lanes=len(modes) if modes is not None else 1) as sp:
            results = self._run(cfg, inputs, registers, mode, schedule,
                                initial_mode, max_steps, trace, fastpath, modes)
            # Functional counts are the same in every lane; the cycle
            # total is too (only its overlap/dependent split differs).
            result = results[0]
            total_cycles = (result.overlap_cycles + result.dependent_cycles
                            + result.cache_cycles + result.dmiss_sync_cycles
                            + result.ifetch_cycles)
            sp.set(instructions=result.instructions, cycles=total_cycles)
        observe.add("simulator.runs")
        observe.add("simulator.instructions", result.instructions)
        observe.add("simulator.cycles", total_cycles)
        observe.add("simulator.mem_misses", result.mem_misses)
        observe.add("simulator.mode_transitions", result.mode_transitions)
        for key, value in result.cache_stats.items():
            observe.add(f"simulator.cache.{key}", value)
        perf_stats = self.last_fastpath_stats
        if perf_stats.get("enabled"):
            observe.add("perf.blocks.fast", perf_stats["fast_blocks"])
            observe.add("perf.blocks.slow", perf_stats["slow_blocks"])
            observe.add("perf.blocks.bailed", perf_stats["bails"])
            observe.add("perf.loop.entries", perf_stats["loop_entries"])
            observe.add("perf.loop.fast_iterations", perf_stats["loop_iterations"])
        observe.record("simulator.run_wall_s", sp.elapsed_s)
        if sp.elapsed_s > 0:
            observe.gauge("simulator.cycles_per_sec", total_cycles / sp.elapsed_s)
        return results if modes is not None else result

    def _run(
        self,
        cfg: CFG,
        inputs: dict[str, list] | None,
        registers: dict[str, float] | None,
        mode: int | None,
        schedule: dict[Edge, int] | None,
        initial_mode: int | None,
        max_steps: int,
        trace: list | None,
        fastpath: bool | None = None,
        modes: Sequence[int] | None = None,
    ) -> list[RunResult]:
        # The uninstrumented interpreter loop, one RunResult per lane;
        # run() wraps it with the span/counter layer so the hot loop
        # itself stays untouched.
        lane_modes = [mode] if modes is None else list(modes)
        if modes is not None:
            if mode is not None or schedule is not None or initial_mode is not None:
                raise ScheduleError("modes= runs fixed-mode lanes: pass no "
                                    "mode, schedule or initial_mode with it")
            if trace is not None:
                raise SimulationError("a trace follows one mode; it cannot "
                                      "record a multi-mode pass")
            if not lane_modes:
                raise ScheduleError("no modes requested")
            for m in lane_modes:
                if not 0 <= m < len(self.mode_table):
                    raise ScheduleError(f"invalid mode index {m}")
            mode = lane_modes[0]
        if mode is not None and schedule is not None:
            raise ScheduleError("pass either a fixed mode or a schedule, not both")
        if schedule is not None:
            for edge, m in schedule.items():
                if not 0 <= m < len(self.mode_table):
                    raise ScheduleError(f"schedule maps {edge} to invalid mode {m}")
        current_mode = (
            mode
            if mode is not None
            else (initial_mode if initial_mode is not None else len(self.mode_table) - 1)
        )
        if not 0 <= current_mode < len(self.mode_table):
            raise ScheduleError(f"invalid mode index {current_mode}")
        schedule = schedule or {}
        # Apply the entry-edge mode before anything executes (no transition
        # cost: this is the a-priori setting, as in the paper).
        entry_edge = (ENTRY_EDGE_SOURCE, cfg.entry)
        if entry_edge in schedule:
            current_mode = schedule[entry_edge]

        decoded, block_lines = self._decode(cfg)
        memory = DataMemory(cfg.data_size() + cfg.element_size, cfg.element_size)
        for name, values in (inputs or {}).items():
            base, length = cfg.arrays[name]
            if len(values) > length:
                raise SimulationError(
                    f"input for {name!r} has {len(values)} elements, array holds {length}"
                )
            memory.write_array(base, values)

        l2 = Cache(self.config.l2, name="l2")
        dcache = CacheHierarchy(self.config.l1d, l2, name="d")
        icache = CacheHierarchy(self.config.l1i, l2, name="i")
        energy = EnergyModel(self.config)

        # Per-mode precomputed constants.
        mode_points = self.mode_table.points
        op_energy_tables = [
            {cls: energy.op_energy_nj(cls, p.voltage) for cls in OpClass} for p in mode_points
        ]
        cycle_times = [p.cycle_time_s for p in mode_points]
        voltages = [p.voltage for p in mode_points]
        # Lanes 1.. of a multi-mode pass (lane 0 is this loop's locals).
        extra = [Lane(self.config, mode_points[m], op_energy_tables[m], cfg.blocks)
                 for m in lane_modes[1:]]

        regs: dict[str, float] = dict(registers or {})
        pending: dict[str, float] = {}  # register -> wall time when ready

        now = 0.0
        miss_done = 0.0
        mem_latency = self.config.memory_latency_s
        gated_wait = 0.0
        overlap_cycles = 0
        dependent_cycles = 0
        cache_cycles = 0
        dmiss_sync_cycles = 0
        ifetch_cycles = 0
        mem_misses = 0
        instructions = 0
        mode_transitions = 0
        modeset_executions = 0
        transition_energy_nj = 0.0
        transition_time_s = 0.0
        # Run-level DRAM energy: compensated (Neumaier) accumulator state.
        mem_s = 0.0
        mem_c = 0.0

        # Per-label accounting: [count, time_s, time_comp, e_nj, e_comp].
        # Time/energy use compensated summation (see module docstring);
        # BlockStats are materialized from these at the end of the run.
        acct: dict[str, list] = {label: [0, 0.0, 0.0, 0.0, 0.0] for label in cfg.blocks}
        edge_counts: dict[Edge, int] = {}
        path_counts: dict[tuple[str, str, str], int] = {}

        cycle_time = cycle_times[current_mode]
        voltage = voltages[current_mode]
        op_energy = op_energy_tables[current_mode]
        base_c = self.config.base_c_eff_nf
        l1d_c = self.config.l1d.access_energy_nf
        l1i_c = self.config.l1i.access_energy_nf
        l2_c = self.config.l2.access_energy_nf
        mem_energy_nj = self.config.memory_access_energy_nj

        label = cfg.entry
        prev_block = ENTRY_EDGE_SOURCE
        edge_counts[entry_edge] = 1
        return_value: float | None = None
        finished = False

        mem_read = memory.read
        mem_write = memory.write
        daccess = dcache.access
        iaccess = icache.access
        lanes_busy = False  # some extra lane has a miss outstanding
        if extra:
            # The lanes time each interpreted block from its cache-access
            # outcomes, recorded in issue order; a fast-path block hit L1
            # throughout.
            block_tops = {}
            for blabel, block in cfg.blocks.items():
                n_lines = len(block_lines[blabel])
                block_tops[blabel] = (
                    n_lines, timing_ops(block.instructions),
                    l1_outcomes(self.config, n_lines, block.instructions))
            outcomes: list = []
            record = outcomes.append

            def daccess(address, _access=dcache.access):
                res = _access(address)
                record(res)
                return res

            def iaccess(address, _access=icache.access):
                res = _access(address)
                record(res)
                return res

        # ---- fast-path setup (repro.perf) -----------------------------------
        use_fast = self.fastpath if fastpath is None else bool(fastpath)
        pf = None
        fast_fns = None
        fast_consts = None
        loop_ok: frozenset = frozenset()
        fast_blocks = 0
        slow_blocks = 0
        bails = 0
        loop_entries = 0
        loop_iterations = 0
        if use_fast:
            from repro.perf.engine import fastpath_disabled_env, program_fast

            if fastpath_disabled_env():
                use_fast = False
            else:
                pf = program_fast(self, cfg)
                fast_fns = pf.block_fns
                fast_consts = pf.consts(current_mode)
                for lane, m in zip(extra, lane_modes[1:]):
                    lane.consts = pf.consts(m)
                if trace is None:
                    loop_ok = pf.loop_headers_disjoint(schedule)
                loop_key = tuple(lane_modes) if extra else (current_mode,)
                accts = (acct, *[lane.acct for lane in extra])
                _st = [0.0] * (10 + len(extra))
        dl1 = dcache.l1
        il1 = icache.l1
        dsets = dl1.sets
        isets = il1.sets
        cells = memory.cells

        while not finished:
            if trace is not None:
                trace.append((now, label, current_mode))
            next_label: str | None = None
            fast_committed = False

            if fast_fns is not None and not pending and now >= miss_done:
                # -- steady-state loop fast-forward: stay in compiled code
                # across back-edges, committing identical per-block deltas.
                if label in loop_ok and not lanes_busy:
                    lf = pf.loop_fn(label, loop_key)
                    if lf is not None:
                        _st[0] = now
                        _st[1] = instructions
                        _st[2] = dependent_cycles
                        _st[3] = cache_cycles
                        _st[4] = ifetch_cycles
                        _st[5] = dl1.hits
                        _st[6] = il1.hits
                        _st[7] = max_steps
                        _st[8] = 0
                        _st[9] = 0
                        if extra:
                            for j, lane in enumerate(extra, 10):
                                _st[j] = lane.now
                        loop_entries += 1
                        try:
                            res = lf(regs, cells, dsets, isets, accts,
                                     edge_counts, path_counts, _st, prev_block)
                        except Exception:
                            res = None
                        if res is not None:
                            if extra:
                                for j, lane in enumerate(extra, 10):
                                    lane.now = _st[j]
                            now = _st[0]
                            instructions = _st[1]
                            dependent_cycles = _st[2]
                            cache_cycles = _st[3]
                            ifetch_cycles = _st[4]
                            dl1.hits = _st[5]
                            il1.hits = _st[6]
                            loop_iterations += _st[8]
                            fast_blocks += _st[9]
                            if instructions > max_steps:
                                raise SimulationError(f"exceeded max_steps={max_steps}")
                            cur, prev2, nxt = res
                            if nxt is None:
                                # Bailed mid-loop after >= 1 committed block:
                                # resume the interpreter exactly there.
                                label = cur
                                prev_block = prev2
                                continue
                            # Clean exit: run the shared edge tail below for
                            # the (cur -> nxt) transition the loop left on.
                            label = cur
                            prev_block = prev2
                            next_label = nxt
                            fast_committed = True

                if not fast_committed:
                    # -- block-delta memoization: re-execute only the data
                    # arithmetic; replay timing/energy/stat deltas.
                    fn = fast_fns.get(label)
                    if fn is not None:
                        try:
                            nxt = fn(regs, cells, dsets, isets)
                        except Exception:
                            nxt = None
                        if nxt is None:
                            bails += 1
                        else:
                            dt, de, n_i, n_dep, n_cc, n_ic, n_d, n_l = fast_consts[label]
                            a = acct[label]
                            a[0] += 1
                            s = a[1]
                            t = s + dt
                            a[2] += (s - t) + dt if s >= dt else (dt - t) + s
                            a[1] = t
                            s = a[3]
                            t = s + de
                            a[4] += (s - t) + de if s >= de else (de - t) + s
                            a[3] = t
                            now = now + dt
                            instructions += n_i
                            if instructions > max_steps:
                                raise SimulationError(f"exceeded max_steps={max_steps}")
                            dependent_cycles += n_dep
                            cache_cycles += n_cc
                            ifetch_cycles += n_ic
                            dl1.hits += n_d
                            il1.hits += n_l
                            if lanes_busy:
                                # A lane still waiting on a miss times the
                                # all-L1 execution; the others replay.
                                n_lines, tops, l1_hits = block_tops[label]
                                for lane in extra:
                                    lane.step(label, n_lines, tops, l1_hits, True)
                                lanes_busy = any(lane.now < lane.miss_done
                                                 for lane in extra)
                            elif extra:
                                for lane in extra:
                                    lane.replay(label)
                            fast_blocks += 1
                            next_label = nxt
                            fast_committed = True

            if not fast_committed:
                # -- reference interpretation of one block execution -------
                slow_blocks += 1
                bt = 0.0       # block-local wall-time offset from `now`
                e_local = 0.0  # block-local CPU energy
                m_local = 0.0  # block-local DRAM energy
                rel_md = miss_done - now

                # Instruction fetch: one I-cache access per line the block
                # spans.
                for line_addr in block_lines[label]:
                    res = iaccess(line_addr)
                    sync = res.sync_cycles
                    ifetch_cycles += sync
                    bt += sync * cycle_time
                    e_local += (l1i_c + base_c * sync) * voltage * voltage
                    if res.level == "l2":
                        e_local += l2_c * voltage * voltage
                    if res.memory_miss:
                        # Instruction miss: synchronous wall-clock fill.
                        if bt < rel_md:
                            gated_wait += rel_md - bt
                            bt = rel_md
                        mem_misses += 1
                        m_local += mem_energy_nj
                        miss_done = (now + bt) + mem_latency
                        gated_wait += mem_latency
                        bt = miss_done - now
                        rel_md = bt

                for op in decoded[label]:
                    instructions += 1
                    kind = op[0]
                    cls = op[-1]

                    if kind == _BINOP:
                        _, fn, dst, lhs, rhs, _ = op
                        if pending:
                            ready = pending.pop(lhs, None)
                            if ready is not None:
                                rr = ready - now
                                if rr > bt:
                                    gated_wait += rr - bt
                                    bt = rr
                            ready = pending.pop(rhs, None)
                            if ready is not None:
                                rr = ready - now
                                if rr > bt:
                                    gated_wait += rr - bt
                                    bt = rr
                        lat = cls.latency
                        if bt < rel_md:
                            overlap_cycles += lat
                        else:
                            dependent_cycles += lat
                        bt += lat * cycle_time
                        e_local += op_energy[cls]
                        regs[dst] = fn(regs[lhs], regs[rhs])
                        pending.pop(dst, None)
                    elif kind == _CONST:
                        _, dst, value, _ = op
                        if bt < rel_md:
                            overlap_cycles += 1
                        else:
                            dependent_cycles += 1
                        bt += cycle_time
                        e_local += op_energy[cls]
                        regs[dst] = value
                        if pending:
                            pending.pop(dst, None)
                    elif kind == _LOAD:
                        _, dst, basereg, offset, _ = op
                        if pending:
                            ready = pending.pop(basereg, None)
                            if ready is not None:
                                rr = ready - now
                                if rr > bt:
                                    gated_wait += rr - bt
                                    bt = rr
                        bt += cycle_time  # address generation (MEM latency 1)
                        e_local += op_energy[cls]
                        address = int(regs[basereg]) + offset
                        res = daccess(address)
                        bt += res.sync_cycles * cycle_time
                        e_local += (l1d_c + base_c * res.sync_cycles) * voltage * voltage
                        if res.level != "l1":
                            e_local += l2_c * voltage * voltage
                        if res.memory_miss:
                            if bt < rel_md:  # single memory port
                                gated_wait += rel_md - bt
                                bt = rel_md
                            mem_misses += 1
                            m_local += mem_energy_nj
                            miss_done = (now + bt) + mem_latency
                            rel_md = miss_done - now
                            pending[dst] = miss_done
                            dmiss_sync_cycles += 1 + res.sync_cycles
                        else:
                            cache_cycles += 1 + res.sync_cycles
                            pending.pop(dst, None)
                        regs[dst] = mem_read(address)
                    elif kind == _STORE:
                        _, src, basereg, offset, _ = op
                        if pending:
                            ready = pending.pop(src, None)
                            if ready is not None:
                                rr = ready - now
                                if rr > bt:
                                    gated_wait += rr - bt
                                    bt = rr
                            ready = pending.pop(basereg, None)
                            if ready is not None:
                                rr = ready - now
                                if rr > bt:
                                    gated_wait += rr - bt
                                    bt = rr
                        bt += cycle_time
                        e_local += op_energy[cls]
                        address = int(regs[basereg]) + offset
                        res = daccess(address)
                        bt += res.sync_cycles * cycle_time
                        e_local += (l1d_c + base_c * res.sync_cycles) * voltage * voltage
                        if res.level != "l1":
                            e_local += l2_c * voltage * voltage
                        if res.memory_miss:
                            if bt < rel_md:
                                gated_wait += rel_md - bt
                                bt = rel_md
                            mem_misses += 1
                            m_local += mem_energy_nj
                            miss_done = (now + bt) + mem_latency
                            rel_md = miss_done - now
                            # store completes via the store buffer: nothing pending
                            dmiss_sync_cycles += 1 + res.sync_cycles
                        else:
                            cache_cycles += 1 + res.sync_cycles
                        mem_write(address, regs[src])
                    elif kind == _MOVE:
                        _, dst, src, _ = op
                        if pending:
                            ready = pending.pop(src, None)
                            if ready is not None:
                                rr = ready - now
                                if rr > bt:
                                    gated_wait += rr - bt
                                    bt = rr
                        if bt < rel_md:
                            overlap_cycles += 1
                        else:
                            dependent_cycles += 1
                        bt += cycle_time
                        e_local += op_energy[cls]
                        regs[dst] = regs[src]
                        if pending:
                            pending.pop(dst, None)
                    elif kind == _UNOP:
                        _, fn, dst, src, _ = op
                        if pending:
                            ready = pending.pop(src, None)
                            if ready is not None:
                                rr = ready - now
                                if rr > bt:
                                    gated_wait += rr - bt
                                    bt = rr
                        lat = cls.latency
                        if bt < rel_md:
                            overlap_cycles += lat
                        else:
                            dependent_cycles += lat
                        bt += lat * cycle_time
                        e_local += op_energy[cls]
                        regs[dst] = fn(regs[src])
                        if pending:
                            pending.pop(dst, None)
                    elif kind == _BRANCH:
                        _, cond, if_true, if_false, _ = op
                        if pending:
                            ready = pending.pop(cond, None)
                            if ready is not None:
                                rr = ready - now
                                if rr > bt:
                                    gated_wait += rr - bt
                                    bt = rr
                        if bt < rel_md:
                            overlap_cycles += 1
                        else:
                            dependent_cycles += 1
                        bt += cycle_time
                        e_local += op_energy[cls]
                        next_label = if_true if regs[cond] else if_false
                    elif kind == _JUMP:
                        if bt < rel_md:
                            overlap_cycles += 1
                        else:
                            dependent_cycles += 1
                        bt += cycle_time
                        e_local += op_energy[cls]
                        next_label = op[1]
                    else:  # _RET
                        _, value, _, _ = op
                        if value is not None and pending:
                            ready = pending.pop(value, None)
                            if ready is not None:
                                rr = ready - now
                                if rr > bt:
                                    gated_wait += rr - bt
                                    bt = rr
                        bt += cycle_time
                        e_local += op_energy[cls]
                        return_value = regs[value] if value is not None else None
                        finished = True

                    if instructions > max_steps:
                        raise SimulationError(f"exceeded max_steps={max_steps}")

                if finished and bt < rel_md:
                    # Drain the outstanding miss before the program "completes".
                    gated_wait += rel_md - bt
                    bt = rel_md

                # -- per-block commit: one wall-time addition plus
                # compensated time/energy additions (the same operations a
                # fast-path replay performs with its memoized deltas).
                now = now + bt
                a = acct[label]
                a[0] += 1
                s = a[1]
                t = s + bt
                a[2] += (s - t) + bt if s >= bt else (bt - t) + s
                a[1] = t
                s = a[3]
                t = s + e_local
                a[4] += (s - t) + e_local if s >= e_local else (e_local - t) + s
                a[3] = t
                if m_local:
                    s = mem_s
                    t = s + m_local
                    mem_c += (s - t) + m_local if s >= m_local else (m_local - t) + s
                    mem_s = t
                if extra:
                    n_lines, tops, _ = block_tops[label]
                    resident = all(res.level == "l1" for res in outcomes)
                    for lane in extra:
                        lane.step(label, n_lines, tops, outcomes, resident)
                    outcomes.clear()
                    lanes_busy = any(lane.now < lane.miss_done for lane in extra)

                if finished:
                    break

                if next_label is None:
                    raise SimulationError(f"block {label!r} fell through")

            edge = (label, next_label)
            edge_counts[edge] = edge_counts.get(edge, 0) + 1
            triple = (prev_block, label, next_label)
            path_counts[triple] = path_counts.get(triple, 0) + 1

            if edge in schedule:
                modeset_executions += 1
                target_mode = schedule[edge]
                if target_mode != current_mode:
                    v_from = voltages[current_mode]
                    v_to = voltages[target_mode]
                    st = self.transition_model.time_s(v_from, v_to)
                    # Canonical nJ-space cost: the same method the MILP's
                    # linearized CE constant derives from, so the charged
                    # SE can never drift from the formulation's.
                    se_nj = self.transition_model.energy_nj(v_from, v_to)
                    now += st
                    transition_time_s += st
                    transition_energy_nj += se_nj
                    mode_transitions += 1
                    current_mode = target_mode
                    # Rebind every mode-derived hot-loop local; stale
                    # bindings here would silently misprice the new mode.
                    cycle_time = cycle_times[current_mode]
                    voltage = voltages[current_mode]
                    op_energy = op_energy_tables[current_mode]
                    if fast_fns is not None:
                        # Memoized block deltas are per-mode: swap the
                        # delta table with the mode (never reuse stale
                        # deltas priced at the previous operating point).
                        fast_consts = pf.consts(current_mode)
                        loop_key = (current_mode,)

            prev_block = label
            label = next_label

        self.last_fastpath_stats = {
            "enabled": int(fast_fns is not None),
            "fast_blocks": fast_blocks,
            "slow_blocks": slow_blocks,
            "bails": bails,
            "loop_entries": loop_entries,
            "loop_iterations": loop_iterations,
        }

        cache_stats = dcache.stats()
        cache_stats.update({f"i_{k}": v for k, v in icache.stats().items()})
        shared = dict(
            return_value=return_value,
            memory_energy_nj=mem_s + mem_c,
            instructions=instructions,
            edge_counts=edge_counts,
            path_counts=path_counts,
            cache_stats=cache_stats,
            cache_cycles=cache_cycles,
            dmiss_sync_cycles=dmiss_sync_cycles,
            ifetch_cycles=ifetch_cycles,
            mem_misses=mem_misses,
            t_invariant_s=mem_misses * mem_latency,
            mode_transitions=mode_transitions,
            modeset_executions=modeset_executions,
            transition_energy_nj=transition_energy_nj,
            transition_time_s=transition_time_s,
            memory=memory,
        )
        compute_cycles = overlap_cycles + dependent_cycles
        results = [_assemble(acct, acct, shared, now, gated_wait,
                             overlap_cycles, dependent_cycles, current_mode)]
        for lane, m in zip(extra, lane_modes[1:]):
            results.append(_assemble(
                acct, lane.acct, shared, lane.now, lane.gated_wait,
                lane.overlap_cycles, compute_cycles - lane.overlap_cycles, m))
        return results


def _assemble(counts_acct, acct, shared, wall_time_s, gated_wait_s,
              overlap_cycles, dependent_cycles, final_mode) -> RunResult:
    """One lane's RunResult: totals from its per-block compensated
    accumulators, block counts from ``counts_acct`` (lane 0's — counts
    are functional), functional fields from ``shared``."""
    cpu_total = NeumaierSum()
    block_stats: dict[str, BlockStats] = {}
    for label, a in acct.items():
        e_nj = a[3] + a[4]
        block_stats[label] = BlockStats(count=counts_acct[label][0],
                                        time_s=a[1] + a[2], cpu_energy_nj=e_nj)
        cpu_total.add(e_nj)
    cpu_total.add(shared["transition_energy_nj"])
    fields = dict(shared)
    if acct is not counts_acct:  # each lane owns its dicts
        for key in ("edge_counts", "path_counts", "cache_stats"):
            fields[key] = dict(fields[key])
    return RunResult(
        wall_time_s=wall_time_s,
        cpu_energy_nj=cpu_total.value,
        block_stats=block_stats,
        overlap_cycles=overlap_cycles,
        dependent_cycles=dependent_cycles,
        gated_wait_s=gated_wait_s,
        final_mode=final_mode,
        **fields,
    )
