"""Unit tests for the simulation configuration."""

from dataclasses import replace

import pytest

from repro.cloud.config import SimulationConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = SimulationConfig()
        assert cfg.num_jobs == 1000
        assert cfg.qubit_range == (130, 250)
        assert cfg.depth_range == (5, 20)
        assert cfg.shots_range == (10_000, 100_000)
        assert cfg.device_qubits == 127
        assert cfg.quantum_volume == 127
        assert len(cfg.device_names) == 5
        assert cfg.comm_latency_per_qubit == 0.02
        assert cfg.comm_fidelity_penalty == 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_jobs=0)
        with pytest.raises(ValueError):
            SimulationConfig(device_qubits=-1)
        with pytest.raises(ValueError):
            SimulationConfig(device_names=[])
        with pytest.raises(ValueError):
            SimulationConfig(qubit_range=(200, 100))
        with pytest.raises(ValueError):
            SimulationConfig(arrival="weird")
        with pytest.raises(ValueError):
            SimulationConfig(comm_fidelity_penalty=2.0)


class TestDerivedConfigs:
    # Derived configs are ``dataclasses.replace`` copies; ``replace`` re-runs
    # __post_init__, so they stay validated.
    def test_with_policy_copies(self):
        cfg = SimulationConfig(policy="speed", num_jobs=10)
        other = replace(cfg, policy="fair")
        assert other.policy == "fair"
        assert other.num_jobs == 10
        assert cfg.policy == "speed"

    def test_scaled(self):
        cfg = SimulationConfig(num_jobs=1000)
        small = replace(cfg, num_jobs=25)
        assert small.num_jobs == 25
        assert small.device_names == cfg.device_names
        with pytest.raises(ValueError):
            replace(cfg, num_jobs=0)

    def test_with_scenario_copies(self):
        cfg = SimulationConfig(num_jobs=10)
        drifted = replace(cfg, scenario="drift")
        assert drifted.scenario == "drift"
        assert drifted.num_jobs == 10
        assert cfg.scenario is None
        assert replace(drifted, scenario=None).scenario is None
        with pytest.raises(ValueError):
            replace(cfg, scenario="")

    def test_with_tenants_copies(self):
        cfg = SimulationConfig(num_jobs=10)
        served = replace(cfg, tenants="free-tier-vs-premium")
        assert served.tenants == "free-tier-vs-premium"
        assert served.num_jobs == 10
        assert cfg.tenants is None
        assert replace(served, tenants=None).tenants is None

    def test_with_checkpointing_copies(self):
        cfg = SimulationConfig(num_jobs=10)
        assert cfg.checkpointing is False  # off by default
        resumable = replace(cfg, checkpointing=True)
        assert resumable.checkpointing is True
        assert resumable.num_jobs == 10
        assert cfg.checkpointing is False
        assert replace(resumable, checkpointing=False).checkpointing is False

    def test_as_dict_roundtrip(self):
        cfg = SimulationConfig(num_jobs=5, seed=9)
        rebuilt = SimulationConfig(**cfg.as_dict())
        assert rebuilt == cfg
