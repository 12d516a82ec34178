"""Tests for the case-study and ablation runners (scaled-down workloads)."""

from dataclasses import replace

import pytest

from repro.analysis.experiments import (
    run_case_study,
    run_policy_simulation,
    sweep_communication_penalty,
    sweep_error_score_weights,
)
from repro.cloud.config import SimulationConfig


@pytest.fixture(scope="module")
def small_config():
    return SimulationConfig(num_jobs=30, seed=13)


@pytest.fixture(scope="module")
def heuristic_case_study(small_config):
    """Case study over the three heuristic strategies (no RL model needed)."""
    return run_case_study(small_config, strategies=("speed", "fidelity", "fair"))


class TestRunPolicySimulation:
    def test_single_policy_run(self, small_config):
        summary, records = run_policy_simulation(replace(small_config, policy="speed"))
        assert summary.num_jobs == 30
        assert len(records) == 30
        assert summary.strategy == "speed"

    def test_same_workload_for_custom_jobs(self, small_config):
        from repro.cloud.job_generator import generate_synthetic_jobs

        jobs = generate_synthetic_jobs(10, seed=99)
        summary, records = run_policy_simulation(small_config, jobs=jobs)
        assert summary.num_jobs == 10
        assert sorted(r.job_id for r in records) == list(range(10))


class TestCaseStudy:
    def test_all_requested_strategies_present(self, heuristic_case_study):
        assert set(heuristic_case_study.summaries) == {"speed", "fidelity", "fair"}
        assert set(heuristic_case_study.records) == {"speed", "fidelity", "fair"}

    def test_rlbase_skipped_without_model(self, small_config):
        result = run_case_study(small_config, strategies=("speed", "rlbase"))
        assert "speed" in result.summaries
        assert "rlbase" not in result.summaries

    def test_same_workload_across_strategies(self, heuristic_case_study):
        ids_per_strategy = [
            sorted(r.job_id for r in records) for records in heuristic_case_study.records.values()
        ]
        assert all(ids == ids_per_strategy[0] for ids in ids_per_strategy)
        qubits = {
            strategy: sorted(r.num_qubits for r in records)
            for strategy, records in heuristic_case_study.records.items()
        }
        assert qubits["speed"] == qubits["fidelity"] == qubits["fair"]

    def test_paper_shape_fidelity_ordering(self, heuristic_case_study):
        """Table 2 shape: the error-aware strategy achieves the best fidelity."""
        summaries = heuristic_case_study.summaries
        assert summaries["fidelity"].mean_fidelity > summaries["speed"].mean_fidelity
        assert summaries["fidelity"].mean_fidelity > summaries["fair"].mean_fidelity

    def test_paper_shape_runtime_and_comm(self, heuristic_case_study):
        """Table 2 shape: error-aware is slower but communicates less."""
        summaries = heuristic_case_study.summaries
        assert (
            summaries["fidelity"].total_simulation_time
            > summaries["speed"].total_simulation_time
        )
        assert (
            summaries["fidelity"].total_communication_time
            < summaries["speed"].total_communication_time
        )

    def test_summary_rows_and_fidelities(self, heuristic_case_study):
        rows = heuristic_case_study.summary_rows()
        assert len(rows) == 3
        fids = heuristic_case_study.fidelities("speed")
        assert len(fids) == 30
        assert all(0 < f < 1 for f in fids)


class TestAblations:
    def test_phi_sweep_monotone(self):
        cfg = SimulationConfig(num_jobs=12, seed=3)
        results = sweep_communication_penalty([0.90, 0.95, 1.0], config=cfg, strategy="speed")
        fidelities = [results[phi].mean_fidelity for phi in (0.90, 0.95, 1.0)]
        assert fidelities == sorted(fidelities)
        # Runtime is unaffected by the fidelity penalty.
        times = {round(results[phi].total_simulation_time, 6) for phi in (0.90, 0.95, 1.0)}
        assert len(times) == 1

    def test_error_weight_sweep_runs(self):
        cfg = SimulationConfig(num_jobs=10, seed=4)
        results = sweep_error_score_weights(
            [(0.5, 0.3, 0.2), (1.0, 0.0, 0.0)], config=cfg
        )
        assert len(results) == 2
        for summary in results.values():
            assert summary.num_jobs == 10
