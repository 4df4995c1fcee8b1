"""Profiler tests: structure, conservation laws, determinism guards."""

import pytest

from repro.errors import ProfileError
from repro.ir.cfg import ENTRY_EDGE_SOURCE
from repro.profiling import profile_program
from repro.profiling.profile_data import BlockModeData, ProfileData


class TestProfileStructure:
    def test_all_modes_profiled(self, small_profile):
        assert set(small_profile.per_mode) == {0, 1, 2}
        assert set(small_profile.wall_time_s) == {0, 1, 2}

    def test_edge_counts_conserve_block_counts(self, small_profile):
        """Sum of G_ij over incoming edges equals the block's execution
        count (the identity the MILP objective relies on)."""
        incoming: dict[str, int] = {}
        for (_, dst), count in small_profile.edge_counts.items():
            incoming[dst] = incoming.get(dst, 0) + count
        for label, count in small_profile.block_counts.items():
            assert incoming.get(label, 0) == count

    def test_entry_edge_counted_once(self, small_profile):
        entry_edges = [
            e for e in small_profile.edge_counts if e[0] == ENTRY_EDGE_SOURCE
        ]
        assert len(entry_edges) == 1
        assert small_profile.edge_counts[entry_edges[0]] == 1

    def test_per_visit_times_scale_with_mode(self, small_profile):
        """Every block runs no faster at a slower mode."""
        for label in small_profile.block_counts:
            if small_profile.block_counts[label] == 0:
                continue
            t200 = small_profile.time(label, 0)
            t800 = small_profile.time(label, 2)
            assert t200 >= t800 * (1 - 1e-9)

    def test_per_visit_energy_scales_with_v_squared(self, small_profile, machine3):
        v = machine3.mode_table.voltages()
        for label in small_profile.block_counts:
            e0 = small_profile.energy(label, 0)
            e2 = small_profile.energy(label, 2)
            if e2 == 0:
                continue
            assert e0 / e2 == pytest.approx(v[0] ** 2 / v[2] ** 2, rel=1e-6)

    def test_block_totals_sum_to_run_totals(self, small_profile):
        for mode, blocks in small_profile.per_mode.items():
            total_t = sum(b.total_time_s for b in blocks.values())
            total_e = sum(b.total_energy_nj for b in blocks.values())
            assert total_t == pytest.approx(small_profile.wall_time_s[mode], rel=1e-9)
            assert total_e == pytest.approx(small_profile.cpu_energy_nj[mode], rel=1e-9)

    def test_energy_share_sums_to_one(self, small_profile):
        shares = small_profile.block_energy_share(2)
        assert sum(shares.values()) == pytest.approx(1.0, rel=1e-9)

    def test_missing_block_lookup_raises(self, small_profile):
        with pytest.raises(ProfileError):
            small_profile.time("ghost-block", 0)

    def test_subset_of_modes(self, machine3, small_cfg, small_inputs, small_registers):
        profile = profile_program(
            machine3, small_cfg,
            inputs=small_inputs, registers=small_registers, modes=[2],
        )
        assert set(profile.per_mode) == {2}

    def test_no_modes_rejected(self, machine3, small_cfg):
        with pytest.raises(ProfileError):
            profile_program(machine3, small_cfg, modes=[])

    @pytest.mark.parametrize("modes", [[3], [-1], [0, 3]])
    def test_out_of_range_mode_rejected_before_simulating(
            self, machine3, small_cfg, modes, monkeypatch):
        monkeypatch.setattr(machine3, "run", _no_simulation)
        with pytest.raises(ProfileError, match="out of range"):
            profile_program(machine3, small_cfg, modes=modes)

    @pytest.mark.parametrize("modes", [[2, 2], [0, 1, 0]])
    def test_repeated_mode_rejected_before_simulating(
            self, machine3, small_cfg, modes, monkeypatch):
        monkeypatch.setattr(machine3, "run", _no_simulation)
        with pytest.raises(ProfileError, match="repeat"):
            profile_program(machine3, small_cfg, modes=modes)

    def test_lane_order_follows_modes(self, machine3, small_cfg, small_inputs,
                                      small_registers, small_profile):
        """Any order of the same modes profiles the same data, keyed in
        the requested order."""
        profile = profile_program(machine3, small_cfg, inputs=small_inputs,
                                  registers=small_registers, modes=[2, 0, 1])
        assert list(profile.per_mode) == [2, 0, 1]
        for mode in (0, 1, 2):
            assert profile.per_mode[mode] == small_profile.per_mode[mode]
            assert profile.wall_time_s[mode] == small_profile.wall_time_s[mode]
        assert profile.params == small_profile.params


def _no_simulation(*args, **kwargs):
    raise AssertionError("profile_program simulated before validating modes")


class TestValidation:
    def test_count_mismatch_detected(self):
        profile = ProfileData(name="x", num_modes=1)
        profile.block_counts = {"a": 2}
        profile.per_mode[0] = {"a": BlockModeData(1.0, 1.0, 3)}
        with pytest.raises(ProfileError):
            profile.validate()

    def test_empty_profile_rejected(self):
        with pytest.raises(ProfileError):
            ProfileData(name="x", num_modes=1).validate()


class TestDeadlineAt:
    def test_interpolates_between_fastest_and_slowest(self, small_profile):
        times = small_profile.wall_time_s
        fast, slow = min(times.values()), max(times.values())
        assert small_profile.deadline_at(0.0) == pytest.approx(fast)
        assert small_profile.deadline_at(1.0) == pytest.approx(slow)
        assert fast < small_profile.deadline_at(0.5) < slow

    def test_single_mode_profile_rejected_with_guidance(self):
        profile = ProfileData(name="x", num_modes=1)
        profile.wall_time_s = {0: 1.0}
        with pytest.raises(ProfileError, match="at least two"):
            profile.deadline_at(0.5)
