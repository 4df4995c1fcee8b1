"""Simulation-based program profiling (the paper's Section 5.1).

One lockstep pass times the program at every requested mode
(:meth:`Machine.run(..., modes=...) <repro.simulator.machine.Machine.run>`):
the program's control flow and memory behaviour do not depend on
frequency (assumption 1 of the paper's model), so the simulator executes
it once and keeps one timing/energy lane per mode.  Each lane's per-block
time and energy are bit-identical to a separate run at its mode; edge
and local-path counts are shared.  The fastest-mode lane also yields the
Section 3.2 analytical parameters, so the profile carries them and
nothing re-simulates to get them.
"""

from __future__ import annotations

from repro.errors import ProfileError
from repro.ir.cfg import CFG
from repro.profiling.profile_data import BlockModeData, ProfileData
from repro.simulator.machine import Machine, RunResult


def profile_program(
    machine: Machine,
    cfg: CFG,
    inputs: dict[str, list] | None = None,
    registers: dict[str, float] | None = None,
    modes: list[int] | None = None,
) -> ProfileData:
    """Profile a program under every mode of the machine's mode table.

    Args:
        machine: the simulator (its mode table defines the modes profiled).
        cfg: the program.
        inputs: array inputs.
        registers: entry parameters (``main.<param>`` registers).
        modes: subset of mode indices to profile (default: all).

    Returns:
        a validated :class:`~repro.profiling.profile_data.ProfileData`;
        its ``params`` are read off the fastest-mode lane (None when
        ``modes`` leaves that mode out).

    Raises:
        ProfileError: if ``modes`` is empty, names a mode outside the
            machine's table or repeats one (checked before simulating).
    """
    num_modes = len(machine.mode_table)
    mode_indices = list(modes) if modes is not None else list(range(num_modes))
    if not mode_indices:
        raise ProfileError("no modes requested")
    for mode in mode_indices:
        if not 0 <= mode < num_modes:
            raise ProfileError(f"{cfg.name}: mode {mode} is out of range "
                               f"for a {num_modes}-mode table")
    if len(set(mode_indices)) != len(mode_indices):
        raise ProfileError(f"{cfg.name}: modes {mode_indices} repeat a mode")

    results = machine.run(cfg, inputs=inputs, registers=registers,
                          modes=mode_indices)
    return profile_from_runs(cfg.name, num_modes, dict(zip(mode_indices, results)))


def profile_from_runs(name: str, num_modes: int,
                      runs: dict[int, RunResult]) -> ProfileData:
    """Assemble a validated profile from per-mode runs of one program.

    Counts come from the first run; ``params`` from the fastest mode's
    (``num_modes - 1``) when ``runs`` has it.  :func:`profile_program`
    passes its lanes; an oracle can pass independent one-mode runs.
    """
    # Lazy: params_extract pulls in repro.core, whose scheduler imports
    # this module.
    from repro.profiling.params_extract import params_from_run

    first = next(iter(runs.values()))
    profile = ProfileData(name=name, num_modes=num_modes)
    profile.block_counts = {
        label: stats.count for label, stats in first.block_stats.items()
    }
    profile.edge_counts = dict(first.edge_counts)
    profile.path_counts = dict(first.path_counts)
    profile.return_value = first.return_value
    for mode, result in runs.items():
        profile.per_mode[mode] = {
            label: BlockModeData(stats.time_s, stats.cpu_energy_nj, stats.count)
            for label, stats in result.block_stats.items()
        }
        profile.wall_time_s[mode] = result.wall_time_s
        profile.cpu_energy_nj[mode] = result.cpu_energy_nj
        if mode == num_modes - 1:
            profile.params = params_from_run(result, name=name)
    profile.validate()
    return profile
