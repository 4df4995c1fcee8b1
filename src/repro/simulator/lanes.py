"""Timing lanes: one mode's timing and energy state in a multi-mode pass.

The paper's model (Section 3.1, assumption 1) holds by construction in
this simulator: register values, branch outcomes, cache hit/miss/LRU
sequences and pending-register *membership* do not depend on the clock.
Only timing does — ``now``, the outstanding miss, when each pending
register becomes ready, the gated stalls, the Section 3.2 overlap/
dependent split — and, through ``V²``, energy.  So one functional pass
can time every mode at once: :meth:`Machine.run(..., modes=...)
<repro.simulator.machine.Machine.run>` interprets the program once, with
its first mode's timing in the interpreter's own locals, and carries one
:class:`Lane` per further mode.

A lane replays each block execution from the interpreter's record of its
cache-access outcomes (:meth:`Lane.time_block`), or — when every lane is
quiescent and the block is L1-resident — from the block's folded delta
(:meth:`Lane.replay`).  Either way it commits exactly the floats, in
exactly the per-block order, that a one-mode run at its mode commits, so
each lane's :class:`~repro.simulator.machine.RunResult` is bit-identical
to that run's.

:meth:`Lane.time_block` is also how :func:`repro.perf.blockc.fold_block_consts`
folds a block's fast-path delta (all-L1 outcomes on a quiescent lane), so
the per-instruction timing rules live here and in the interpreter only.
"""

from __future__ import annotations

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
from repro.simulator.cache import AccessResult

# Timing-op kinds.
COMPUTE, LOAD, STORE, RET = range(4)

# Op classes index a lane's energy tuple (enum hashing is slow).
_CLASS_INDEX = {cls: i for i, cls in enumerate(OpClass)}


def timing_ops(instrs) -> tuple:
    """The timing view of one block: ``(kind, reads, dst, class_index,
    lat)`` per instruction.

    ``reads`` lists the registers the interpreter checks for pending
    values, in its order; ``dst`` is the register a completed write
    clears from the pending set (a load miss makes it pending instead).
    """
    ops = []
    for instr in instrs:
        cls = instr.op_class
        index = _CLASS_INDEX[cls]
        if isinstance(instr, Load):
            ops.append((LOAD, (instr.base,), instr.dst, index, 1))
        elif isinstance(instr, Store):
            ops.append((STORE, (instr.src, instr.base), None, index, 1))
        elif isinstance(instr, BinOp):
            ops.append((COMPUTE, (instr.lhs, instr.rhs), instr.dst, index,
                        cls.latency))
        elif isinstance(instr, UnOp):
            ops.append((COMPUTE, (instr.src,), instr.dst, index, cls.latency))
        elif isinstance(instr, Const):
            ops.append((COMPUTE, (), instr.dst, index, 1))
        elif isinstance(instr, Move):
            ops.append((COMPUTE, (instr.src,), instr.dst, index, 1))
        elif isinstance(instr, Branch):
            ops.append((COMPUTE, (instr.cond,), None, index, 1))
        elif isinstance(instr, Jump):
            ops.append((COMPUTE, (), None, index, 1))
        elif isinstance(instr, Ret):
            reads = (instr.value,) if instr.value is not None else ()
            ops.append((RET, reads, None, index, 1))
        else:
            raise TypeError(f"no timing rule for {instr!r}")
    return tuple(ops)


def l1_outcomes(config, n_lines: int, instrs) -> list[AccessResult]:
    """The cache outcomes of a block execution that hits L1 throughout
    (the fast path's precondition), in :meth:`Lane.time_block` order."""
    n_mem = sum(isinstance(instr, (Load, Store)) for instr in instrs)
    return ([AccessResult("l1", config.l1i.hit_latency_cycles, False)] * n_lines
            + [AccessResult("l1", config.l1d.hit_latency_cycles, False)] * n_mem)


class Lane:
    """Timing and energy state of one mode in a multi-mode pass.

    Args:
        config: the machine's :class:`~repro.simulator.config.MachineConfig`.
        point: the lane's :class:`~repro.simulator.dvs.OperatingPoint`.
        op_energy: op class -> nJ per instruction at the lane's voltage.
        labels: block labels (one accumulator each).

    Functional counts (block counts, instructions, cache cycles, misses,
    DRAM energy) are the interpreter's; a lane keeps only what depends on
    its clock.  ``acct[label]`` has the interpreter's layout
    ``[count, time_s, time_comp, e_nj, e_comp]``, count unused.
    """

    __slots__ = ("cycle_time", "voltage", "op_energy", "consts", "now",
                 "miss_done", "pending", "gated_wait", "overlap_cycles",
                 "acct", "_base_c", "_l1i_c", "_l1d_c", "_l2_c", "_mem_latency")

    def __init__(self, config, point, op_energy, labels=()) -> None:
        self.cycle_time = point.cycle_time_s
        self.voltage = point.voltage
        self.op_energy = tuple(op_energy[cls] for cls in OpClass)
        self.consts: dict = {}  # label -> folded fast-path delta
        self.now = 0.0
        self.miss_done = 0.0
        self.pending: dict[str, float] = {}
        self.gated_wait = 0.0
        self.overlap_cycles = 0
        self.acct = {label: [0, 0.0, 0.0, 0.0, 0.0] for label in labels}
        self._base_c = config.base_c_eff_nf
        self._l1i_c = config.l1i.access_energy_nf
        self._l1d_c = config.l1d.access_energy_nf
        self._l2_c = config.l2.access_energy_nf
        self._mem_latency = config.memory_latency_s

    def time_block(self, n_lines: int, ops, outcomes) -> tuple[float, float, int]:
        """Time one block execution; returns ``(Δt, Δe, dependent_cycles)``.

        ``outcomes`` are the block's cache accesses in issue order: its
        ``n_lines`` I-line fetches, then one per load/store.  The float
        operations are the interpreter's, one for one.  Updates the
        miss/pending/stall/overlap state; :meth:`commit` books the delta.
        """
        now = self.now
        ct = self.cycle_time
        v = self.voltage
        op_energy = self.op_energy
        pending = self.pending
        base_c = self._base_c
        l2_c = self._l2_c
        mem_latency = self._mem_latency
        miss_done = self.miss_done
        rel_md = miss_done - now
        gated = self.gated_wait
        overlap = 0
        dependent = 0
        bt = 0.0
        e = 0.0
        results = iter(outcomes)

        l1i_c = self._l1i_c
        for _ in range(n_lines):
            res = next(results)
            sync = res.sync_cycles
            bt += sync * ct
            e += (l1i_c + base_c * sync) * v * v
            if res.level == "l2":
                e += l2_c * v * v
            if res.memory_miss:
                if bt < rel_md:
                    gated += rel_md - bt
                    bt = rel_md
                miss_done = (now + bt) + mem_latency
                gated += mem_latency
                bt = miss_done - now
                rel_md = bt

        l1d_c = self._l1d_c
        finished = False
        for kind, reads, dst, cls, lat in ops:
            if pending:
                for reg in reads:
                    ready = pending.pop(reg, None)
                    if ready is not None:
                        rr = ready - now
                        if rr > bt:
                            gated += rr - bt
                            bt = rr
            if kind == COMPUTE:
                if bt < rel_md:
                    overlap += lat
                else:
                    dependent += lat
                bt += lat * ct
                e += op_energy[cls]
                if dst is not None and pending:
                    pending.pop(dst, None)
            elif kind == RET:
                bt += ct
                e += op_energy[cls]
                finished = True
            else:  # LOAD / STORE
                bt += ct
                e += op_energy[cls]
                res = next(results)
                sync = res.sync_cycles
                bt += sync * ct
                e += (l1d_c + base_c * sync) * v * v
                if res.level != "l1":
                    e += l2_c * v * v
                if res.memory_miss:
                    if bt < rel_md:
                        gated += rel_md - bt
                        bt = rel_md
                    miss_done = (now + bt) + mem_latency
                    rel_md = miss_done - now
                    if kind == LOAD:
                        pending[dst] = miss_done
                elif kind == LOAD:
                    pending.pop(dst, None)

        if finished and bt < rel_md:
            # Drain the outstanding miss before the program completes.
            gated += rel_md - bt
            bt = rel_md
        self.miss_done = miss_done
        self.gated_wait = gated
        self.overlap_cycles += overlap
        return bt, e, dependent

    def step(self, label: str, n_lines: int, ops, outcomes, resident: bool) -> None:
        """Time and book one interpreted block execution.

        A quiescent lane (nothing pending, no miss outstanding) timing an
        all-L1 (``resident``) execution of a compiled block books the
        block's folded delta, which is what :meth:`time_block` would
        compute; otherwise it times the recorded outcomes.
        """
        delta = self.consts.get(label) if resident else None
        if delta is not None and not self.pending and self.now >= self.miss_done:
            self.commit(label, delta[0], delta[1])
        else:
            bt, e, _ = self.time_block(n_lines, ops, outcomes)
            self.commit(label, bt, e)

    def commit(self, label: str, bt: float, e: float) -> None:
        """Book one block execution: the interpreter's per-block commit."""
        self.now = self.now + bt
        a = self.acct[label]
        s = a[1]
        t = s + bt
        a[2] += (s - t) + bt if s >= bt else (bt - t) + s
        a[1] = t
        s = a[3]
        t = s + e
        a[4] += (s - t) + e if s >= e else (e - t) + s
        a[3] = t

    def replay(self, label: str) -> None:
        """Commit one fast-path execution of ``label`` from its folded delta."""
        delta = self.consts[label]
        self.commit(label, delta[0], delta[1])
