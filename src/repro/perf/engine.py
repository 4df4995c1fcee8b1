"""Fast-path engine: compiled program cache and per-mode delta tables.

One :class:`ProgramFast` holds everything the machine's dispatcher needs
to accelerate a (machine, program) pair:

* ``block_fns`` — label -> generated block function (mode-independent;
  see :mod:`repro.perf.blockc`);
* ``consts(mode)`` — label -> folded per-execution delta tuple, built
  lazily per mode with the machine's own energy/cycle constants so the
  folded floats are bitwise what the interpreter would accumulate;
* ``loop_fn(header, modes)`` — generated steady-state loop function
  (:mod:`repro.perf.loopc`), compiled lazily per (loop, lane set): one
  function commits every lane of a multi-mode pass;
* ``loop_headers_disjoint(schedule)`` — the headers whose loops contain
  no scheduled edge (mode-sets must execute in the dispatcher, so such
  loops cannot be fast-forwarded).

Compilation is best-effort throughout: any block or loop that fails to
compile simply stays on the reference interpreter.  Instances are cached
once per process, keyed by program identity, machine configuration and
mode-table operating points (see :func:`program_fast`).
"""

from __future__ import annotations

import os
import threading
import weakref

from repro.ir.instructions import OpClass
from repro.ir.loops import find_natural_loops
from repro.perf.blockc import compile_block, fold_block_consts
from repro.perf.loopc import compile_loop
from repro.simulator.energy import EnergyModel


def fastpath_disabled_env() -> bool:
    """True when ``$REPRO_NO_FASTPATH`` globally disables the fast path."""
    return os.environ.get("REPRO_NO_FASTPATH", "") not in ("", "0")


class ProgramFast:
    """Compiled fast-path state for one (machine, CFG) pair."""

    def __init__(self, machine, cfg) -> None:
        self.config = machine.config
        self.mode_table = machine.mode_table
        self.element_size = cfg.element_size
        _, block_lines = machine._decode(cfg)
        self.block_lines = block_lines
        self.blocks = {label: blk.instructions for label, blk in cfg.blocks.items()}

        self.block_fns: dict = {}
        for label, instrs in self.blocks.items():
            try:
                fn = compile_block(label, instrs, block_lines[label],
                                   self.config, self.element_size)
            except Exception:
                fn = None
            if fn is not None:
                self.block_fns[label] = fn

        self._energy = EnergyModel(self.config)
        self._consts: dict[int, dict] = {}
        self._loop_fns: dict = {}
        self._loop_bodies: dict[str, list[str]] = {}
        self.loop_edges: dict[str, frozenset] = {}
        try:
            loops = find_natural_loops(cfg)
        except Exception:
            loops = []
        for loop in loops:
            header = loop.header
            if header not in self.block_fns:
                continue
            if any(label not in self.block_fns for label in loop.blocks):
                continue
            body = [header] + [l for l in cfg.blocks
                               if l in loop.blocks and l != header]
            edges = set()
            for label in body:
                instrs = self.blocks[label]
                if not instrs:
                    continue
                for tgt in getattr(instrs[-1], "targets", tuple)():
                    if tgt in loop.blocks:
                        edges.add((label, tgt))
            self._loop_bodies[header] = body
            self.loop_edges[header] = frozenset(edges)

    def consts(self, mode: int) -> dict:
        """Label -> per-execution delta tuple for one mode (cached)."""
        table = self._consts.get(mode)
        if table is None:
            point = self.mode_table.points[mode]
            op_energy = {cls: self._energy.op_energy_nj(cls, point.voltage)
                         for cls in OpClass}
            table = {
                label: fold_block_consts(self.blocks[label],
                                         self.block_lines[label],
                                         self.config, point, op_energy)
                for label in self.block_fns
            }
            self._consts[mode] = table
        return table

    def loop_fn(self, header: str, modes: tuple[int, ...]):
        """The loop function for ``header`` timing the lanes ``modes``
        (one mode per lane, lane 0 first), or None (cached)."""
        key = (header, modes)
        if key in self._loop_fns:
            return self._loop_fns[key]
        fn = None
        body = self._loop_bodies.get(header)
        if body is not None:
            try:
                fn = compile_loop(header, body, self.blocks, self.block_lines,
                                  self.config, self.element_size,
                                  [self.consts(mode) for mode in modes])
            except Exception:
                fn = None
        self._loop_fns[key] = fn
        return fn

    def loop_headers_disjoint(self, schedule) -> frozenset:
        """Headers of loops none of whose internal edges are scheduled."""
        if not schedule:
            return frozenset(self.loop_edges)
        scheduled = set(schedule)
        return frozenset(
            header for header, edges in self.loop_edges.items()
            if not (edges & scheduled)
        )


#: (id(cfg), config, mode points) -> (weakref to the CFG, ProgramFast),
#: least recently used first.
_PROGRAMS: dict = {}
_PROGRAMS_LOCK = threading.Lock()
_MAX_PROGRAMS = 64


def program_fast(machine, cfg) -> ProgramFast:
    """The process-wide cached :class:`ProgramFast` for (machine, cfg).

    Keyed by program identity (CFGs are mutable and unhashable; a
    weakref guards against a recycled id), the machine configuration and
    the mode table's operating points *by value* — every
    :class:`~repro.runtime.dag.MachineSpec` task builds a fresh machine
    and mode table, and all of them share one compiled program.  At most
    64 entries are kept: dead CFGs go first, then the least recently used.
    """
    key = (id(cfg), machine.config, machine.mode_table.points)
    with _PROGRAMS_LOCK:
        entry = _PROGRAMS.pop(key, None)
        if entry is not None and entry[0]() is cfg:
            _PROGRAMS[key] = entry
            return entry[1]
    pf = ProgramFast(machine, cfg)
    try:
        ref = weakref.ref(cfg)
    except TypeError:  # un-weakref-able CFG subclass: never cache-hit
        def ref():
            return None
    with _PROGRAMS_LOCK:
        _PROGRAMS[key] = (ref, pf)
        if len(_PROGRAMS) > _MAX_PROGRAMS:
            for stale in [k for k, (r, _) in _PROGRAMS.items() if r() is None]:
                del _PROGRAMS[stale]
            while len(_PROGRAMS) > _MAX_PROGRAMS:
                del _PROGRAMS[next(iter(_PROGRAMS))]
    return pf
