"""A one-pass multi-mode profile equals one built from one-mode runs.

``profile_program`` simulates the program once and times every mode in
lockstep lanes.  The reference here profiles nothing: it runs the program
once per mode, each time on a fresh machine, and assembles those runs.
The serialized profiles must be identical — every time, energy, count
and parameter, to the last bit and in the same order.  The pinned
digests were computed from per-mode profiling before lanes existed, so
they hold the one-pass profile to the old engine's output too.
"""

from __future__ import annotations

import json

import pytest

from repro.profiling import profile_program
from repro.profiling.profiler import profile_from_runs
from repro.profiling.serialize import profile_to_dict
from repro.runtime.dag import MachineSpec
from repro.runtime.hashing import stable_hash
from repro.workloads import compile_workload, get_workload
from repro.workloads.suite import PAPER_SUITE

#: SHA-256 of each paper workload's canonical XScale-3 profile
#: (``stable_hash(profile_to_dict(...))``), recorded from the per-mode
#: profiler.
XSCALE_3_DIGESTS = {
    "adpcm": "5cb20a40a3901cebec5e816de7fad3a2092ba64bf613041bcf2c80bfa7aa048d",
    "epic": "f190301104b1793db3e6b835b51674a2ac10c4dddb2bcb55330d26be70830899",
    "gsm": "0e780d91b07afecfdba5eed096591689cc1c68856c0272e86714eb5a794f50d9",
    "mpeg": "457b697c86ab0def49aa3ba6371496fc8627dd745b9de6b4c1f732c49f88f48e",
    "mpg123": "88aeddc55004e31fcd00269355aae786581d2bd9239e7ac94d781de3518d7795",
    "ghostscript": "c1f464ca4f6d1914725732ffe4b30a0b602356c0d21eca5eeff3ad456735dcaf",
}


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("levels", [None, 7, 13], ids=["xscale-3", "7", "13"])
@pytest.mark.parametrize("workload", PAPER_SUITE)
def test_lane_pass_equals_one_mode_runs(workload, levels, fastpath):
    spec = get_workload(workload)
    cfg = compile_workload(workload)
    machine = MachineSpec(levels=levels, fastpath=fastpath).build()
    fastest = len(machine.mode_table) - 1
    # The slowest and fastest modes: lane 0 goes quiet first, so the
    # fastest lane still waits on misses while lane 0 runs compiled code.
    modes = [0, fastest]
    profile = profile_program(machine, cfg, inputs=spec.inputs(),
                              registers=spec.registers(), modes=modes)
    runs = {
        mode: MachineSpec(levels=levels, fastpath=fastpath).build().run(
            cfg, inputs=spec.inputs(), registers=spec.registers(), mode=mode)
        for mode in modes
    }
    reference = profile_from_runs(cfg.name, len(machine.mode_table), runs)
    assert (json.dumps(profile_to_dict(profile))
            == json.dumps(profile_to_dict(reference)))
    for run in runs.values():
        assert run.edge_counts == profile.edge_counts
        assert run.path_counts == profile.path_counts


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("workload", PAPER_SUITE)
def test_xscale_3_profile_digest_is_pinned(workload, fastpath):
    spec = get_workload(workload)
    profile = profile_program(MachineSpec(fastpath=fastpath).build(),
                              compile_workload(workload),
                              inputs=spec.inputs(), registers=spec.registers())
    assert stable_hash(profile_to_dict(profile)) == XSCALE_3_DIGESTS[workload]
