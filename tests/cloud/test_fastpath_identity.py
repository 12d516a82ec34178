"""Byte-identity of the flat-event fast path against the legacy engine.

The fast path's contract (see :mod:`repro.cloud.fastpath`) is that every
eligible configuration reproduces the legacy record and event streams *bit
for bit*.  These tests sweep policies × arrival processes × traffic-only
scenarios comparing the full event log, every completed record and the
failed-job lists, plus the eligibility guards and the :class:`JobTable`
plumbing the dispatcher runs on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.circuit import CircuitSpec
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.fastpath import JobTable, flat_path_eligible
from repro.cloud.job_generator import generate_synthetic_jobs
from repro.cloud.qjob import QJob


def _untrained_rl_policy():
    """``rlbase`` as ``repro compare --model`` builds it, left untrained."""
    from repro.gymapi.spaces import Box
    from repro.rl.policies import ActorCriticPolicy
    from repro.scheduling.rl_policy import RLAllocationPolicy

    model = ActorCriticPolicy(
        Box(0.0, np.inf, shape=(16,), dtype=np.float64),
        Box(0.0, 1.0, shape=(5,), dtype=np.float64),
        seed=0,
    )
    return RLAllocationPolicy(model)


def _run(fast, policy="speed", arrival=None, scenario=None, jobs=None, n=50,
         device_names=None):
    """One simulation; returns (events, records, failed, fast_path_active)."""
    if jobs is None:
        jobs = generate_synthetic_jobs(
            num_jobs=n,
            seed=11,
            arrival="poisson" if arrival is not None else "batch",
            arrival_rate=arrival if arrival is not None else 0.01,
        )
    config = SimulationConfig(policy=policy, fast_path=fast)
    if device_names is not None:
        config = replace(config, device_names=list(device_names))
    env = QCloudSimEnv(
        config=config,
        jobs=jobs,
        policy=_untrained_rl_policy() if policy == "rlbase" else None,
        scenario=scenario,
    )
    env.run()
    events = [(e.job_id, e.event, e.time, e.detail) for e in env.records.events]
    records = [r.as_dict() for r in env.records.completed_records]
    failed = [(j.job_id, j.status.name) for j in env.broker.failed_jobs]
    return events, records, failed, env.fast_path_active


class TestByteIdentity:
    @pytest.mark.parametrize("policy", ["speed", "fidelity", "fair", "balanced", "rlbase"])
    def test_identical_streams(self, policy):
        for arrival in (None, 0.5):
            for scenario in (None, "rush-hour"):
                legacy = _run(False, policy, arrival, scenario)
                fast = _run(True, policy, arrival, scenario)
                assert not legacy[3], (policy, arrival, scenario)
                assert fast[3], (policy, arrival, scenario)
                assert legacy[0] == fast[0], (policy, arrival, scenario, "events")
                assert legacy[1] == fast[1], (policy, arrival, scenario, "records")
                assert legacy[2] == fast[2], (policy, arrival, scenario, "failed")

    @pytest.mark.parametrize("policy", ["speed", "fidelity", "fair", "balanced"])
    def test_simultaneous_completions(self, policy):
        # Equal-shape jobs on two devices finish at the same instant.  The
        # waiting head must re-plan once, after *all* of them have released
        # their qubits — not in between (which would split job 4 across
        # both devices and delay job 6).
        def job(job_id, qubits, shots):
            return QJob(
                job_id=job_id,
                circuit=CircuitSpec(num_qubits=qubits, depth=5, num_shots=shots,
                                    num_two_qubit_gates=10),
                arrival_time=0.0,
            )

        jobs = [job(i, 60, 1000) for i in range(4)] + [job(i, 120, 500) for i in range(4, 7)]
        fleet = ["ibm_strasbourg", "ibm_brussels"]
        legacy = _run(False, policy, jobs=jobs, device_names=fleet)
        fast = _run(True, policy, jobs=jobs, device_names=fleet)
        assert fast[3] and not legacy[3]
        assert legacy[0] == fast[0], "events"
        assert legacy[1] == fast[1], "records"
        assert legacy[2] == fast[2], "failed"

    def test_capacity_exceeding_job_fails_identically(self):
        # One job wider than the whole fleet exercises the can-ever-fit
        # guard; the giant must fail the same way on both engines while the
        # normal jobs complete.
        jobs = generate_synthetic_jobs(num_jobs=6, seed=3)
        giant = QJob(
            job_id=999,
            circuit=CircuitSpec(num_qubits=100_000, depth=5, num_shots=100,
                                num_two_qubit_gates=10),
            arrival_time=0.0,
        )
        legacy = _run(False, jobs=jobs + [giant])
        fast = _run(True, jobs=jobs + [giant])
        assert fast[3] and not legacy[3]
        assert legacy[:3] == fast[:3]
        assert (999, "FAILED") in fast[2]


class TestEligibility:
    def test_default_is_fast_path(self):
        assert SimulationConfig().fast_path
        env = QCloudSimEnv(config=SimulationConfig(),
                           jobs=generate_synthetic_jobs(num_jobs=3, seed=1))
        assert env.fast_path_active
        assert env.engine_reason == "fast path"

    def test_dynamic_scenario_falls_back(self):
        # flaky-fleet injects outages — world dynamics keep the legacy path.
        # (Engagement is decided at construction; don't run — dynamic
        # scenarios keep scheduling world events, so a bare run() never
        # drains the queue.)
        env = QCloudSimEnv(
            config=SimulationConfig(policy="speed", fast_path=True),
            jobs=generate_synthetic_jobs(num_jobs=5, seed=11),
            scenario="flaky-fleet",
        )
        assert not env.fast_path_active

    def test_tenant_mix_falls_back(self):
        env = QCloudSimEnv(
            config=SimulationConfig(fast_path=True, tenants="free-tier-vs-premium"),
            jobs=generate_synthetic_jobs(num_jobs=5, seed=1),
        )
        env.run()
        assert not env.fast_path_active

    def test_custom_broker_ineligible(self):
        from repro.cloud.broker import Broker

        class CustomBroker(Broker):
            pass

        env = QCloudSimEnv(config=SimulationConfig(),
                           jobs=generate_synthetic_jobs(num_jobs=2, seed=1))
        assert flat_path_eligible(env.broker, None, None)
        assert flat_path_eligible(env.broker, None, None).reason is None
        custom = CustomBroker.__new__(CustomBroker)
        assert not flat_path_eligible(custom, None, None)
        assert flat_path_eligible(custom, None, None).reason == "custom broker"

    def test_disabled_fast_path_reason(self):
        env = QCloudSimEnv(config=SimulationConfig(fast_path=False),
                           jobs=generate_synthetic_jobs(num_jobs=2, seed=1))
        assert not env.fast_path_active
        assert env.engine_reason == "legacy: fast_path disabled"

    def test_tenant_mix_reason(self):
        env = QCloudSimEnv(config=SimulationConfig(num_jobs=3, tenants="single"))
        assert not env.fast_path_active
        assert env.engine_reason == "legacy: tenant mix"

    def test_world_dynamics_reason(self):
        env = QCloudSimEnv(config=SimulationConfig(num_jobs=3, scenario="drift"))
        assert not env.fast_path_active
        assert env.engine_reason == "legacy: world dynamics"

    def test_replay_trace_reason(self, tmp_path):
        # Even a trace of a static run (no world events) replays on the
        # legacy engine.
        recorded = QCloudSimEnv(config=SimulationConfig(num_jobs=3, seed=2))
        recorded.run_until_complete()
        path = recorded.save_trace(str(tmp_path / "static.jsonl"))
        env = QCloudSimEnv(config=SimulationConfig(num_jobs=3, scenario=path))
        assert not env.fast_path_active
        assert env.engine_reason == "legacy: replay trace"

    def test_adaptive_policy_reason(self):
        env = QCloudSimEnv(config=SimulationConfig(num_jobs=3, adaptive="reactive"))
        assert not env.fast_path_active
        assert env.engine_reason == "legacy: adaptive policy"
        static = QCloudSimEnv(config=SimulationConfig(num_jobs=3, adaptive="static"))
        assert static.engine_reason == "fast path"

    def test_hand_offline_device_matches_legacy(self):
        # A device taken offline after construction must be left out of
        # planning on both engines, with identical streams.
        jobs = generate_synthetic_jobs(num_jobs=20, seed=4, arrival="poisson",
                                       arrival_rate=0.5)
        streams = []
        for fast in (False, True):
            env = QCloudSimEnv(config=SimulationConfig(fast_path=fast), jobs=jobs)
            env.cloud.device(env.cloud.device_names()[0]).set_offline()
            env.run()
            assert env.fast_path_active is fast
            streams.append([r.as_dict() for r in env.records.completed_records])
        assert streams[0] == streams[1]
        offline = env.cloud.device_names()[0]
        assert all(offline not in r["devices"] for r in streams[1])

    def test_job_table_requires_eligible_config(self):
        table = JobTable.synthetic(5, seed=1, qubit_range=(2, 8),
                                   depth_range=(5, 10), shots_range=(100, 200))
        with pytest.raises(ValueError, match="fast-path-eligible"):
            QCloudSimEnv(
                config=SimulationConfig(tenants="free-tier-vs-premium"),
                job_table=table,
            )

    def test_job_table_implies_fast_path(self):
        table = JobTable.synthetic(5, seed=1, qubit_range=(2, 8),
                                   depth_range=(5, 10), shots_range=(100, 200))
        env = QCloudSimEnv(config=SimulationConfig(), job_table=table)
        env.run()
        assert env.fast_path_active
        assert len(env.records.completed_records) == 5


class TestJobTable:
    def test_sorted_by_arrival_priority_job_id(self):
        table = JobTable(
            job_id=[3, 1, 2, 0],
            arrival=[5.0, 0.0, 5.0, 5.0],
            qubits=[4, 4, 4, 4],
            depth=[5, 5, 5, 5],
            shots=[10, 10, 10, 10],
            two_qubit_gates=[2, 2, 2, 2],
            priority=[0, 0, 1, 0],
        )
        assert table.job_id.tolist() == [1, 0, 3, 2]
        assert table.arrival.tolist() == [0.0, 5.0, 5.0, 5.0]

    def test_column_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            JobTable(job_id=[0, 1], arrival=[0.0], qubits=[2, 2],
                     depth=[5, 5], shots=[10, 10], two_qubit_gates=[1, 1])

    def test_negative_arrival_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            JobTable(job_id=[0], arrival=[-1.0], qubits=[2], depth=[5],
                     shots=[10], two_qubit_gates=[1])

    def test_synthetic_validation(self):
        with pytest.raises(ValueError):
            JobTable.synthetic(0)
        with pytest.raises(ValueError, match="arrival_times"):
            JobTable.synthetic(3, seed=1, arrival_times=[0.0, 1.0])

    def test_from_jobs_round_trip(self):
        jobs = generate_synthetic_jobs(num_jobs=8, seed=5)
        table = JobTable.from_jobs(jobs)
        assert len(table) == 8
        assert table.jobs is not None
        for row in range(len(table)):
            job = table.jobs[row]
            assert table.job_id[row] == job.job_id
            assert table.qubits[row] == job.num_qubits
            assert table.shots[row] == job.num_shots


class TestArrivalGroups:
    """iter_arrival_groups must tile the table exactly like arrival_groups."""

    SHAPES = {
        "batch_t0": np.zeros(10),
        "all_distinct": np.arange(200, dtype=float),
        "small_runs": np.repeat(np.arange(40, dtype=float), 5),
        "ties_cross_chunks": np.repeat(np.arange(5, dtype=float), 130),
        "singleton": np.array([7.5]),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_lazy_matches_eager(self, shape):
        arrival = self.SHAPES[shape]
        n = len(arrival)
        table = JobTable(
            job_id=np.arange(n), arrival=arrival, qubits=np.full(n, 2),
            depth=np.full(n, 5), shots=np.full(n, 10),
            two_qubit_gates=np.full(n, 1),
        )
        eager = table.arrival_groups()
        lazy = list(table.iter_arrival_groups(_chunk=64))
        assert lazy == eager
        # Groups tile [0, n) with strictly increasing times.
        assert lazy[0][1] == 0 and lazy[-1][2] == n
        for (t0, _, stop0), (t1, start1, _) in zip(lazy, lazy[1:]):
            assert stop0 == start1
            assert t0 < t1
        for time, start, stop in lazy:
            seg = table.arrival[start:stop]
            assert np.all(seg == time)
            assert isinstance(time, float)


class TestFallbackIdentity:
    """Requesting fast_path on an *ineligible* configuration falls back to
    the legacy engine — and must never change its output.  Together with
    TestByteIdentity this covers every scenario preset, tenant mix and
    checkpointing setting: eligible configs engage the flat dispatcher
    bit-identically, ineligible ones must be bit-identical trivially."""

    @staticmethod
    def _run_config(fast, **overrides):
        config = SimulationConfig(num_jobs=15, seed=9, fast_path=fast, **overrides)
        env = QCloudSimEnv(config)
        records = env.run_until_complete()
        events = [(e.job_id, e.event, e.time, e.detail) for e in env.records.events]
        dicts = [r.as_dict() for r in records]
        return events, dicts, env.fast_path_active, env.now

    @pytest.mark.parametrize("scenario", ["static", "drift", "flaky-fleet",
                                          "rush-hour", "black-friday"])
    def test_scenario_presets(self, scenario):
        legacy = self._run_config(False, scenario=scenario)
        fast = self._run_config(True, scenario=scenario)
        # Traffic-only presets engage; world dynamics fall back.
        assert fast[2] == (scenario in ("static", "rush-hour"))
        assert fast[:2] == legacy[:2]
        assert fast[3] == legacy[3]

    @pytest.mark.parametrize("tenants", ["single", "free-tier-vs-premium",
                                         "batch-vs-interactive", "noisy-neighbor"])
    def test_tenant_mixes(self, tenants):
        legacy = self._run_config(False, tenants=tenants)
        fast = self._run_config(True, tenants=tenants)
        assert not fast[2]  # serve layer always keeps the legacy engine
        assert fast == legacy

    @pytest.mark.parametrize("checkpointing", [False, True])
    def test_checkpointing(self, checkpointing):
        legacy = self._run_config(False, scenario="flaky-fleet",
                                  checkpointing=checkpointing)
        fast = self._run_config(True, scenario="flaky-fleet",
                                checkpointing=checkpointing)
        assert not fast[2]
        assert fast == legacy
