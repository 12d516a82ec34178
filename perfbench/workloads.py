"""The benchmark's four workloads, each split into a set-up and a run phase.

Every workload drives the simulator only through its public entry points.
``setup(seed)`` builds everything that exists before the first simulated
event (workload, fleet, environment, broker, policy, the rlbase network);
``run(state)`` executes the simulation and produces the report a user reads.
``run`` returns an :class:`Outcome` holding one :class:`Cell` per simulation
with the data the output checks need.

``paper-contended`` goes through ``run_case_study``, whose engine builds each
cell's environment itself, so its set-up time partly happens inside
``run``.  :class:`EnvInitClock` times every environment construction with one
class-level hook on ``QCloudSimEnv.__init__`` (two clock reads per
environment); the harness moves the constructions inside ``run`` from the
run phase to ``setup_s`` and reads the environments' counters for the trace.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.experiments import run_case_study
from repro.analysis.reporting import format_table2
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.fastpath import JobTable
from repro.cloud.records_stream import StreamingRecordsManager
from repro.engine import ExperimentRunner
from repro.gymapi.spaces import Box
from repro.region import RegionalCloud
from repro.rl.policies import ActorCriticPolicy
from repro.workloads import arrivals

#: Seed of the frozen output digests (``digests.json``); every run first
#: simulates it once, untimed, to warm caches and check the digests.
DEFAULT_SEED = 2025

PAPER_STRATEGIES = ("speed", "fidelity", "fair", "rlbase")

#: The paper's Table 2 (1,000 circuits on five 127-qubit devices), as quoted
#: in the docstring of benchmarks/test_table2_strategies.py.
PAPER_TABLE2 = (
    ("speed", 108_775.38, 0.65332, 0.01438, 5_707.80),
    ("fidelity", 209_873.02, 0.68781, 0.02605, 3_822.74),
    ("fair", 108_778.16, 0.64373, 0.01478, 5_707.80),
    ("rlbase", 106_206.21, 0.62087, 0.01301, 6_105.52),
)


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class Cell:
    """One simulation's outputs, as the output checks see them."""

    name: str
    submitted: int
    completed: int
    failed: int
    rejected: int
    #: Completed records (``None`` for streaming runs, which keep none).
    records: Optional[Sequence[Any]] = None
    #: Extra canonical content folded into the digest (event counts,
    #: failed/rejected job ids, streaming aggregates).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Arrival events the simulator logged, where it logs them: a
    #: cross-check that every submitted job entered the simulation.
    arrived: Optional[int] = None

    @property
    def resolved(self) -> int:
        return self.completed + self.failed + self.rejected


@dataclass
class Outcome:
    cells: List[Cell]
    #: Lines of the report the user reads (printed once per run).
    report: List[str] = field(default_factory=list)
    migrations: int = 0
    #: Environments built in this process, filled in by the harness.
    envs: List[Any] = field(default_factory=list)

    @property
    def resolved(self) -> int:
        return sum(cell.resolved for cell in self.cells)

    @property
    def submitted(self) -> int:
        return sum(cell.submitted for cell in self.cells)


def event_counts(records: Any) -> Dict[str, int]:
    """Per-kind event counts of a records manager (stored or streaming)."""
    counts = getattr(records, "event_counts", None)
    if counts is not None:
        return dict(sorted(counts.items()))
    out: Dict[str, int] = {}
    for event in records.events:
        out[event.event] = out.get(event.event, 0) + 1
    return dict(sorted(out.items()))


class EnvInitClock:
    """Accumulates host seconds spent inside ``QCloudSimEnv.__init__`` and
    the environments built.  A traced run wraps :attr:`init`, the original
    constructor, so the class keeps this one hook."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.envs: List[Any] = []
        self.init = QCloudSimEnv.__init__
        clock = time.perf_counter

        def timed_init(env, *args, **kwargs):
            start = clock()
            try:
                self.init(env, *args, **kwargs)
            finally:
                self.seconds += clock() - start
            self.envs.append(env)

        QCloudSimEnv.__init__ = timed_init

    def take(self):
        """Seconds and environments since the last call, then reset."""
        seconds, envs = self.seconds, self.envs
        self.seconds, self.envs = 0.0, []
        return seconds, envs


class Workload:
    name = ""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Outcome:
        raise NotImplementedError


class PaperContended(Workload):
    """``repro compare --model``: Table 2's four strategies, serial engine."""

    name = "paper-contended"

    def setup(self, seed: int) -> Any:
        # Built the way ``repro compare --model`` builds it, left untrained.
        model = ActorCriticPolicy(
            Box(0.0, np.inf, shape=(16,), dtype=np.float64),
            Box(0.0, 1.0, shape=(5,), dtype=np.float64),
            seed=0,
        )
        return SimulationConfig(seed=seed), model, ExperimentRunner(backend="serial")

    def run(self, state: Any) -> Outcome:
        config, model, runner = state
        result = run_case_study(
            config, strategies=PAPER_STRATEGIES, rl_model=model, runner=runner
        )
        table = format_table2(result.summaries)
        cells = [
            Cell(
                name=strategy,
                submitted=config.num_jobs,
                completed=len(records),
                # The plain broker's terminal failures are not part of the
                # case-study result; conservation then demands none occurred.
                failed=0,
                rejected=0,
                records=records,
            )
            for strategy, records in result.records.items()
        ]
        return Outcome(cells=cells, report=table.splitlines())


class StreamDiurnal(Workload):
    """Uncontended 2-16-qubit diurnal trace: fast path plus streaming records."""

    name = "stream-diurnal"
    num_jobs = 20_000

    def setup(self, seed: int) -> Any:
        rng = np.random.default_rng(seed)
        times = arrivals.bulk_diurnal_arrival_times(
            rng, self.num_jobs, base_rate=2.5, peak_rate=5.5, period=1_440.0
        )
        table = JobTable.synthetic(
            self.num_jobs,
            seed=seed,
            qubit_range=(2, 16),
            depth_range=(5, 20),
            shots_range=(100, 1_000),
            arrival_times=times,
        )
        records = StreamingRecordsManager()
        env = QCloudSimEnv(
            config=SimulationConfig(policy="speed"), job_table=table, records=records
        )
        if not env.fast_path_active:
            raise RuntimeError("stream-diurnal must run on the fast path")
        return env, records

    def run(self, state: Any) -> Outcome:
        env, records = state
        env.run_until_complete()
        aggregates = records.aggregates()
        counts = aggregates["event_counts"]
        cell = Cell(
            name="speed",
            submitted=self.num_jobs,
            completed=aggregates["completed"],
            failed=counts.get("failed", 0),
            rejected=counts.get("rejected", 0),
            extra={"aggregates": aggregates},
            arrived=counts.get("arrival", 0),
        )
        report = [
            f"completed {aggregates['completed']}  mean fidelity "
            f"{aggregates['mean_fidelity']:.5f}  turnaround p50/p99 "
            f"{aggregates['turnaround_p50']:.4f}/{aggregates['turnaround_p99']:.4f} s"
        ]
        return Outcome(cells=[cell], report=report)


class ServeChaos(Workload):
    """Multi-tenant serving under black-friday with checkpointing and adaptive QoS."""

    name = "serve-chaos"
    num_jobs = 2_000

    def setup(self, seed: int) -> Any:
        config = SimulationConfig(
            num_jobs=self.num_jobs,
            seed=seed,
            policy="fidelity",
            tenants="noisy-neighbor",
            scenario="black-friday",
            checkpointing=True,
            adaptive="predictive",
        )
        return QCloudSimEnv(config=config)

    def run(self, env: Any) -> Outcome:
        records = env.run_until_complete()
        summary = env.summary()
        tenants = env.tenant_reports()
        adaptive = env.adaptive_report()
        broker = env.broker
        events = event_counts(env.records)
        cell = Cell(
            name="fidelity",
            submitted=self.num_jobs,
            completed=len(records),
            failed=len(broker.failed_jobs),
            rejected=len(broker.rejected_jobs),
            records=records,
            extra={
                "events": events,
                "failed_ids": sorted(job.job_id for job in broker.failed_jobs),
                "rejected_ids": sorted(job.job_id for job in broker.rejected_jobs),
            },
            arrived=events.get("arrival", 0),
        )
        report = [
            f"completed {summary.num_jobs}  mean fidelity {summary.mean_fidelity:.5f}  "
            f"rejected {cell.rejected}  control ticks {adaptive['ticks']}",
            *(
                f"  tenant {t.tenant}: completed {t.completed} rejected {t.rejected}"
                for t in tenants
            ),
        ]
        return Outcome(cells=[cell], report=report)


class RegionSharded(Workload):
    """global-triad with least-loaded routing, one process per shard."""

    name = "region-sharded"
    num_jobs = 3_000

    def __init__(self, backend: str = "process") -> None:
        self.backend = backend

    def setup(self, seed: int) -> Any:
        config = SimulationConfig(
            num_jobs=self.num_jobs, seed=seed, regions="global-triad", routing="least-loaded"
        )
        runner = ExperimentRunner(backend=self.backend, max_workers=nproc())
        return RegionalCloud(config=config, runner=runner)

    def run(self, cloud: Any) -> Outcome:
        records = cloud.run_until_complete()
        summary = cloud.summary()
        regions = cloud.region_reports()
        cell = Cell(
            name="least-loaded",
            submitted=cloud.config.num_jobs,
            completed=len(records),
            failed=len(cloud.failed),
            rejected=0,
            records=records,
            extra={
                "failed": [(f["job_id"], f["time"], f["reason"]) for f in cloud.failed],
                "migrations": cloud.migrations,
            },
        )
        report = [
            f"completed {summary.num_jobs}  mean fidelity {summary.mean_fidelity:.5f}  "
            f"migrations {len(cloud.migrations)}",
            *(
                f"  region {name}: served {r['served_jobs']} completed {r['completed']}"
                for name, r in regions.items()
            ),
        ]
        return Outcome(cells=[cell], report=report, migrations=len(cloud.migrations))


WORKLOADS = {
    cls.name: cls for cls in (PaperContended, StreamDiurnal, ServeChaos, RegionSharded)
}
