"""The profile carries the Section 3.2 parameters of its fastest-mode run.

``extract_params`` re-simulates the program on its own, so it is the
independent reference: the profile's parameters must equal it exactly,
for every paper workload, mode table and simulator path.
"""

from __future__ import annotations

import pytest

from repro.profiling import extract_params, profile_program
from repro.profiling.serialize import profile_from_dict, profile_to_dict
from repro.runtime.dag import MachineSpec
from repro.workloads import compile_workload, get_workload
from repro.workloads.suite import PAPER_SUITE


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("levels", [None, 7, 13], ids=["xscale-3", "7", "13"])
@pytest.mark.parametrize("workload", PAPER_SUITE)
def test_profile_params_equal_standalone_extraction(workload, levels, fastpath):
    machine = MachineSpec(levels=levels, fastpath=fastpath).build()
    spec = get_workload(workload)
    cfg = compile_workload(workload)
    fastest = len(machine.mode_table) - 1
    # The slowest mode runs first, so the fastest-mode run follows another
    # run on the same machine (any state leaking across runs would show)
    # and the parameters cannot simply come from the first run.  The
    # modes in between add nothing but time.
    profile = profile_program(machine, cfg, inputs=spec.inputs(),
                              registers=spec.registers(),
                              modes=[0, fastest])
    # A fresh machine: the reference shares no state with the profile.
    reference = extract_params(
        MachineSpec(levels=levels, fastpath=fastpath).build(), cfg,
        inputs=spec.inputs(), registers=spec.registers())
    assert profile.params == reference
    assert profile_from_dict(profile_to_dict(profile)).params == reference


def test_profile_without_fastest_mode_has_no_params(machine3, small_cfg,
                                                    small_inputs,
                                                    small_registers):
    profile = profile_program(machine3, small_cfg, inputs=small_inputs,
                              registers=small_registers, modes=[0, 1])
    assert profile.params is None
    assert profile_from_dict(profile_to_dict(profile)).params is None
