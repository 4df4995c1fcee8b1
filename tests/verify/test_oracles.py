"""Differential-oracle tests over the shared solved outcome."""

from __future__ import annotations

import dataclasses

import pytest

from repro.profiling import extract_params
from repro.verify import oracles


class TestBackendsAgree:
    def test_native_and_scipy_agree(self, small_outcome):
        result = oracles.backends_agree(small_outcome.formulation)
        assert result.ok, result.detail

    def test_lp_relaxation_only(self, small_outcome):
        result = oracles.backends_agree(small_outcome.formulation, check_milp=False)
        assert result.ok, result.detail


class TestSimulationMatchesPrediction:
    def test_scheduled_run_matches(
        self, optimizer, small_cfg, small_outcome, small_inputs, small_registers
    ):
        result = oracles.simulation_matches_prediction(
            optimizer, small_cfg, small_outcome,
            inputs=small_inputs, registers=small_registers,
        )
        assert result.ok, result.detail

    def test_inflated_prediction_fails(
        self, optimizer, small_cfg, small_outcome, small_inputs, small_registers
    ):
        lying = dataclasses.replace(
            small_outcome, predicted_energy_nj=small_outcome.predicted_energy_nj * 2
        )
        result = oracles.simulation_matches_prediction(
            optimizer, small_cfg, lying,
            inputs=small_inputs, registers=small_registers,
        )
        assert not result.ok
        assert "rel err" in result.detail


class TestScheduleReplay:
    def test_replay_matches_objective(self, optimizer, small_cfg, small_outcome):
        result = oracles.schedule_replay_matches_objective(
            optimizer, small_cfg, small_outcome
        )
        assert result.ok, result.detail

    def test_misreported_objective_fails(self, optimizer, small_cfg, small_outcome):
        lying = dataclasses.replace(
            small_outcome, predicted_energy_nj=small_outcome.predicted_energy_nj * 2
        )
        result = oracles.schedule_replay_matches_objective(optimizer, small_cfg, lying)
        assert not result.ok


class TestSingleModeBaseline:
    def test_milp_never_worse(self, optimizer, small_outcome):
        result = oracles.never_worse_than_single_mode(optimizer, small_outcome)
        assert result.ok, result.detail

    def test_worse_than_baseline_fails(self, optimizer, small_outcome):
        lying = dataclasses.replace(
            small_outcome, predicted_energy_nj=small_outcome.predicted_energy_nj * 10
        )
        result = oracles.never_worse_than_single_mode(optimizer, lying)
        assert not result.ok


class TestAnalyticalBound:
    def test_bound_dominates_milp_savings(
        self, optimizer, machine3, small_cfg, small_outcome,
        small_inputs, small_registers, small_deadline,
    ):
        params = extract_params(
            machine3, small_cfg, inputs=small_inputs, registers=small_registers
        )
        _, baseline = optimizer.best_single_mode(
            small_outcome.profile, small_deadline
        )
        savings = max(0.0, 1.0 - small_outcome.predicted_energy_nj / baseline)
        result = oracles.analytical_bound_dominates(
            params, small_deadline, machine3.mode_table, savings
        )
        assert result.ok, result.detail

    def test_impossible_savings_fail(
        self, machine3, small_cfg, small_inputs, small_registers, small_deadline
    ):
        params = extract_params(
            machine3, small_cfg, inputs=small_inputs, registers=small_registers
        )
        result = oracles.analytical_bound_dominates(
            params, small_deadline, machine3.mode_table, milp_savings=0.99
        )
        assert not result.ok


class TestProfileMatchesPerMode:
    def test_one_pass_profile_matches(
        self, machine3, small_cfg, small_inputs, small_registers
    ):
        result = oracles.profile_matches_per_mode(
            machine3, small_cfg, inputs=small_inputs, registers=small_registers
        )
        assert result.ok, result.detail

    def test_a_mistimed_lane_fails(
        self, machine3, small_cfg, small_inputs, small_registers, monkeypatch
    ):
        from repro.simulator.lanes import Lane

        commit = Lane.commit

        def late_commit(self, label, bt, e):
            commit(self, label, bt * (1 + 1e-12), e)

        monkeypatch.setattr(Lane, "commit", late_commit)
        result = oracles.profile_matches_per_mode(
            machine3, small_cfg, inputs=small_inputs, registers=small_registers
        )
        assert not result.ok
        assert "per_mode" in result.detail
