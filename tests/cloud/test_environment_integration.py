"""Integration tests for QCloudSimEnv (full simulations on scaled-down workloads)."""

from dataclasses import replace

import pytest

from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.job_generator import generate_synthetic_jobs
from repro.scheduling.fair import FairPolicy


class TestConstruction:
    def test_devices_built_from_config(self, fast_config):
        env = QCloudSimEnv(fast_config)
        assert len(env.cloud.devices) == 5
        assert env.cloud.total_qubits == 5 * 127
        assert env.policy.name == "speed"

    def test_explicit_policy_instance(self, fast_config):
        env = QCloudSimEnv(fast_config, policy=FairPolicy())
        assert env.policy.name == "fair"

    def test_explicit_jobs(self, fast_config):
        jobs = generate_synthetic_jobs(3, seed=0)
        env = QCloudSimEnv(fast_config, jobs=jobs)
        assert len(env.job_generator) == 3


class TestFullRun:
    def test_all_jobs_complete(self, fast_config):
        env = QCloudSimEnv(fast_config)
        records = env.run_until_complete()
        assert len(records) == fast_config.num_jobs
        assert not env.broker.failed_jobs
        # All qubits returned to the pools.
        assert env.cloud.free_qubits == env.cloud.total_qubits

    def test_every_job_is_partitioned(self, fast_config):
        # Case-study jobs need 130-250 qubits > 127, so every record must span
        # at least two devices (Eq. 1).
        env = QCloudSimEnv(fast_config)
        for record in env.run_until_complete():
            assert record.num_devices >= 2
            assert sum(record.allocation) == record.num_qubits
            assert record.fidelity > 0

    def test_summary_row(self, fast_config):
        env = QCloudSimEnv(fast_config)
        env.run_until_complete()
        summary = env.summary()
        assert summary.num_jobs == fast_config.num_jobs
        assert 0 < summary.mean_fidelity < 1
        assert summary.total_simulation_time > 0
        assert summary.total_communication_time > 0

    def test_device_utilization_report(self, fast_config):
        env = QCloudSimEnv(fast_config)
        env.run_until_complete()
        report = env.device_utilization_report()
        assert set(report) == set(env.cloud.device_names())
        assert sum(stats["completed_subjobs"] for stats in report.values()) >= fast_config.num_jobs

    def test_deterministic_given_seed(self):
        def run():
            cfg = SimulationConfig(num_jobs=8, seed=11)
            env = QCloudSimEnv(cfg)
            env.run_until_complete()
            summary = env.summary()
            return (
                summary.total_simulation_time,
                summary.mean_fidelity,
                summary.total_communication_time,
            )

        assert run() == run()

    def test_different_policies_give_different_outcomes(self, fast_config):
        results = {}
        for policy in ("speed", "fidelity"):
            cfg = replace(fast_config, policy=policy)
            env = QCloudSimEnv(cfg)
            env.run_until_complete()
            results[policy] = env.summary()
        assert (
            results["speed"].total_simulation_time
            != results["fidelity"].total_simulation_time
        )

    def test_poisson_arrival_mode(self):
        cfg = SimulationConfig(num_jobs=6, seed=3, arrival="poisson", arrival_rate=0.01)
        env = QCloudSimEnv(cfg)
        records = env.run_until_complete()
        arrivals = [r.arrival_time for r in records]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0
