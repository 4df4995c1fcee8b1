"""Content-address keys: stability, sensitivity, canonical form."""

import pytest

from repro.errors import CacheError
from repro.runtime import hashing
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.simulator.dvs import OperatingPoint, ModeTable, make_mode_table
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def machine():
    return Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert (hashing.stable_hash({"a": 1, "b": 2})
                == hashing.stable_hash({"b": 2, "a": 1}))

    def test_distinct_values_distinct_hashes(self):
        assert hashing.stable_hash({"a": 1}) != hashing.stable_hash({"a": 2})

    def test_floats_hash_losslessly(self):
        assert (hashing.stable_hash(0.1 + 0.2)
                != hashing.stable_hash(0.3))

    def test_non_json_values_rejected(self):
        with pytest.raises(CacheError):
            hashing.canonical_json({"bad": {1, 2}})

    def test_nan_rejected(self):
        with pytest.raises(CacheError):
            hashing.canonical_json(float("nan"))


class TestMachineFingerprint:
    def test_same_machine_same_fingerprint(self, machine):
        other = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
        assert (hashing.stable_hash(hashing.machine_fingerprint(machine))
                == hashing.stable_hash(hashing.machine_fingerprint(other)))

    def test_table_name_is_not_part_of_identity(self, machine):
        renamed = ModeTable([OperatingPoint(p.frequency_hz, p.voltage)
                             for p in XSCALE_3], name="other-name")
        other = Machine(SCALE_CONFIG, renamed, TransitionCostModel())
        assert (hashing.machine_fingerprint(machine)
                == hashing.machine_fingerprint(other))

    def test_capacitance_changes_fingerprint(self, machine):
        other = Machine(SCALE_CONFIG, XSCALE_3,
                        TransitionCostModel(capacitance_f=5e-6))
        assert (hashing.machine_fingerprint(machine)
                != hashing.machine_fingerprint(other))

    def test_levels_change_fingerprint(self, machine):
        other = Machine(SCALE_CONFIG, make_mode_table(7), TransitionCostModel())
        assert (hashing.machine_fingerprint(machine)
                != hashing.machine_fingerprint(other))


class TestArtifactKeys:
    def test_profile_key_is_stable(self, machine):
        source = get_workload("adpcm").source
        key1 = hashing.profile_key(source, "default", 0, machine)
        key2 = hashing.profile_key(source, "default", 0, machine)
        assert key1 == key2
        assert len(key1) == 64 and all(c in "0123456789abcdef" for c in key1)

    def test_source_edit_invalidates(self, machine):
        source = get_workload("adpcm").source
        assert (hashing.profile_key(source, "default", 0, machine)
                != hashing.profile_key(source + " ", "default", 0, machine))

    def test_seed_and_category_matter(self, machine):
        source = get_workload("mpeg").source
        base = hashing.profile_key(source, "no_b", 0, machine)
        assert base != hashing.profile_key(source, "with_b", 0, machine)
        assert base != hashing.profile_key(source, "no_b", 1, machine)

    def test_kinds_never_collide(self, machine):
        source = get_workload("adpcm").source
        same_parts = {
            "workload": hashing.workload_fingerprint(source, "default", 0),
            "machine": hashing.machine_fingerprint(machine),
        }
        assert (hashing.profile_key(source, "default", 0, machine)
                != hashing.artifact_key("tg-tables", **same_parts))
        assert (hashing.schedule_key(source, "default", 0, machine, 0.5)
                != hashing.run_summary_key(source, "default", 0, machine, 0.5))

    def test_deadline_fraction_matters(self, machine):
        source = get_workload("adpcm").source
        assert (hashing.schedule_key(source, "default", 0, machine, 0.5)
                != hashing.schedule_key(source, "default", 0, machine, 0.7))
