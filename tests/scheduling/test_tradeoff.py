"""Unit tests for the extension policies (balanced trade-off, min-fragmentation)."""

from dataclasses import replace

import pytest

from repro.scheduling.registry import create_policy
from repro.scheduling.tradeoff import BalancedTradeoffPolicy, MinFragmentationPolicy

from tests.scheduling.test_base import FakeDevice
from tests.scheduling.test_policies import Job, fleet


class TestBalancedTradeoffPolicy:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            BalancedTradeoffPolicy(fidelity_weight=1.5)

    def test_zero_weight_matches_speed_ordering(self):
        plan = BalancedTradeoffPolicy(fidelity_weight=0.0).plan(Job(190), fleet())
        # Fastest devices first (strasbourg/brussels, both CLOPS 220k).
        assert set(plan.device_names) == {"ibm_strasbourg", "ibm_brussels"}

    def test_full_weight_matches_error_ordering(self):
        plan = BalancedTradeoffPolicy(fidelity_weight=1.0).plan(Job(190), fleet())
        assert plan.device_names == ["ibm_kyiv", "ibm_quebec"]

    def test_intermediate_weight_mixes_criteria(self):
        # With a balanced weight the slow-and-noisy kawasaki ranks last, so a
        # job that needs four of the five devices never touches it.
        plan = BalancedTradeoffPolicy(fidelity_weight=0.5).plan(Job(500), fleet())
        assert plan.num_devices == 4
        assert "ibm_kawasaki" not in plan.device_names

    def test_total_and_feasibility(self):
        plan = BalancedTradeoffPolicy().plan(Job(240), fleet())
        assert plan.total_qubits == 240
        assert BalancedTradeoffPolicy().plan(Job(700), fleet()) is None

    def test_uniform_fleet_degenerates_gracefully(self):
        devices = [FakeDevice(f"d{i}", 100, clops=1000, score=0.01) for i in range(3)]
        plan = BalancedTradeoffPolicy().plan(Job(150), devices)
        assert plan.total_qubits == 150

    def test_empty_fleet(self):
        assert BalancedTradeoffPolicy().plan(Job(10), []) is None


class TestMinFragmentationPolicy:
    def test_uses_fewest_devices(self):
        devices = fleet(frees=(127, 90, 127, 30, 127))
        plan = MinFragmentationPolicy().plan(Job(250), devices)
        assert plan.num_devices == 2
        assert all(f == 127 for f in [d.free_qubits for d in plan.devices])

    def test_tie_break_prefers_low_error(self):
        plan = MinFragmentationPolicy().plan(Job(100), fleet())
        # All devices fully free: the least-noisy one (kyiv) wins the tie.
        assert plan.device_names == ["ibm_kyiv"]

    def test_infeasible(self):
        assert MinFragmentationPolicy().plan(Job(700), fleet()) is None


class TestRegistryIntegration:
    def test_creatable_by_name(self):
        assert isinstance(create_policy("balanced"), BalancedTradeoffPolicy)
        assert isinstance(create_policy("min_fragmentation"), MinFragmentationPolicy)
        assert create_policy("balanced", fidelity_weight=0.9).fidelity_weight == 0.9

    def test_end_to_end_simulation(self):
        from repro.cloud.config import SimulationConfig
        from repro.cloud.environment import QCloudSimEnv

        for name in ("balanced", "min_fragmentation"):
            env = QCloudSimEnv(SimulationConfig(num_jobs=6, seed=3, policy=name))
            records = env.run_until_complete()
            assert len(records) == 6

    def test_balanced_sweep_interpolates_fidelity(self):
        """Increasing the fidelity weight must not decrease mean fidelity much."""
        from repro.analysis.experiments import run_policy_simulation
        from repro.cloud.config import SimulationConfig

        cfg = SimulationConfig(num_jobs=20, seed=9)
        fidelities = {}
        for weight in (0.0, 1.0):
            summary, _ = run_policy_simulation(
                replace(cfg, policy="balanced"), policy=BalancedTradeoffPolicy(weight)
            )
            fidelities[weight] = summary.mean_fidelity
        assert fidelities[1.0] >= fidelities[0.0] - 0.01
