"""Simulation-based program profiling (the paper's Section 5.1).

One run per mode gathers per-block time/energy under that mode; edge and
local-path counts are taken from the first run (the program's control flow
does not depend on frequency — assumption 1 of the paper's model).  The
fastest-mode run also yields the Section 3.2 analytical parameters, so
the profile carries them and nothing re-simulates to get them.
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
        its ``params`` are read off the fastest-mode run (None when
        ``modes`` leaves that mode out).

    Raises:
        ProfileError: if runs disagree on control flow or results (the
            program would not be safely schedulable from this profile).
    """
    # Lazy: params_extract pulls in repro.core, whose scheduler imports
    # this module.
    from repro.profiling.params_extract import params_from_run

    mode_indices = list(modes) if modes is not None else list(range(len(machine.mode_table)))
    if not mode_indices:
        raise ProfileError("no modes requested")

    profile = ProfileData(name=cfg.name, num_modes=len(machine.mode_table))
    fastest = len(machine.mode_table) - 1
    baseline: RunResult | None = None

    for mode in mode_indices:
        result = machine.run(cfg, inputs=inputs, registers=registers, mode=mode)
        if baseline is None:
            baseline = result
            profile.block_counts = {
                label: stats.count for label, stats in result.block_stats.items()
            }
            profile.edge_counts = dict(result.edge_counts)
            profile.path_counts = dict(result.path_counts)
            profile.return_value = result.return_value
        else:
            if result.return_value != baseline.return_value:
                raise ProfileError(
                    f"{cfg.name}: result changed across modes "
                    f"({baseline.return_value} vs {result.return_value})"
                )
            if result.edge_counts != baseline.edge_counts:
                raise ProfileError(f"{cfg.name}: control flow changed across modes")
        profile.per_mode[mode] = {
            label: BlockModeData(stats.time_s, stats.cpu_energy_nj, stats.count)
            for label, stats in result.block_stats.items()
        }
        profile.wall_time_s[mode] = result.wall_time_s
        profile.cpu_energy_nj[mode] = result.cpu_energy_nj
        if mode == fastest:
            profile.params = params_from_run(result, name=cfg.name)

    profile.validate()
    return profile
