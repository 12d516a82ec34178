"""High-level experiment runners.

:func:`run_case_study` reproduces the paper's §7 evaluation: it runs the same
synthetic workload through each allocation strategy on the five-device fleet
and returns one :class:`~repro.metrics.aggregate.StrategySummary` per
strategy (the rows of Table 2) together with the raw per-job records (the
data behind Fig. 6).

The sweep helpers (:func:`sweep_communication_penalty`,
:func:`sweep_error_score_weights`) implement the ablations called out in
DESIGN.md.

All of them are thin declarative fronts over
:class:`~repro.engine.ExperimentRunner`: they build an experiment grid and
delegate execution, so every entry point transparently supports the serial
and process-pool backends and result-store caching (pass ``runner=`` or
``backend=``/``max_workers=``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cloud.config import SimulationConfig
from repro.cloud.qjob import QJob
from repro.cloud.records import JobRecord
from repro.engine import ExperimentCell, ExperimentRunner, ExperimentSpec, PolicySpec
from repro.metrics.aggregate import StrategySummary
from repro.metrics.error_score import ErrorScoreWeights
from repro.scheduling.registry import create_policy

__all__ = [
    "CaseStudyResult",
    "run_policy_simulation",
    "run_case_study",
    "sweep_communication_penalty",
    "sweep_error_score_weights",
]

#: The four strategies evaluated in the paper, in Table 2 order.
PAPER_STRATEGIES = ("speed", "fidelity", "fair", "rlbase")


def _resolve_runner(
    runner: Optional[ExperimentRunner],
    backend: Optional[str],
    max_workers: Optional[int],
) -> ExperimentRunner:
    """An explicit runner wins; otherwise build one from backend/max_workers."""
    if runner is not None:
        return runner
    return ExperimentRunner(backend=backend or "serial", max_workers=max_workers)


@dataclass
class CaseStudyResult:
    """Results of one multi-strategy case study."""

    #: Per-strategy Table 2 rows.
    summaries: Dict[str, StrategySummary] = field(default_factory=dict)
    #: Per-strategy raw job records (input to the Fig. 6 histograms).
    records: Dict[str, List[JobRecord]] = field(default_factory=dict)
    #: The configuration that produced the results.
    config: Optional[SimulationConfig] = None

    def summary_rows(self) -> List[Dict[str, object]]:
        """All Table 2 rows as dictionaries, in insertion order."""
        return [s.as_row() for s in self.summaries.values()]

    def fidelities(self, strategy: str) -> List[float]:
        """Final fidelities of all jobs under one strategy."""
        return [r.fidelity for r in self.records[strategy]]


def run_policy_simulation(
    config: SimulationConfig,
    policy: Any = None,
    jobs: Optional[Sequence[QJob]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Tuple[StrategySummary, List[JobRecord]]:
    """Run one simulation with one policy and summarise it.

    Parameters
    ----------
    config:
        Simulation configuration (devices, workload, communication model).
    policy:
        Policy instance; when ``None`` it is created from ``config.policy``
        via the registry.
    jobs:
        Pre-built workload (cloned before use); when ``None`` the synthetic
        workload described by *config* is generated.
    runner:
        Experiment runner to execute on (default: a serial one).
    """
    cell = ExperimentCell(
        index=0,
        strategy=config.policy,
        seed=config.seed,
        config=config,
        policy=policy,
        jobs=tuple(jobs) if jobs is not None else None,
    )
    result = _resolve_runner(runner, None, None).run_cells([cell])[0]
    return result.summary, result.records


def run_case_study(
    config: Optional[SimulationConfig] = None,
    strategies: Sequence[str] = PAPER_STRATEGIES,
    rl_model: Any = None,
    policies: Optional[Dict[str, Any]] = None,
    runner: Optional[ExperimentRunner] = None,
    backend: Optional[str] = None,
    max_workers: Optional[int] = None,
) -> CaseStudyResult:
    """Run the paper's case study across several allocation strategies.

    Every strategy sees exactly the same workload (same seed) on an
    identically configured fleet; with ``backend="process"`` the strategies
    run concurrently and the results are identical to the serial backend.

    Parameters
    ----------
    config:
        Simulation configuration; defaults to the paper's (1,000 jobs).
    strategies:
        Strategy names to run (Table 2 order by default).  ``"rlbase"`` is
        skipped when no model is available.
    rl_model:
        Trained model for the ``"rlbase"`` strategy (a
        :class:`repro.rl.ppo.PPO` or anything with ``predict``).
    policies:
        Optional mapping overriding specific policy instances by name.
    runner, backend, max_workers:
        Execution control: pass a ready :class:`ExperimentRunner` (wins), or
        a backend name (``"serial"``/``"process"``) and pool size.
    """
    config = config if config is not None else SimulationConfig()
    policies = dict(policies or {})

    selected: List[str] = []
    for strategy in strategies:
        if strategy not in policies and strategy in ("rlbase", "rl"):
            if rl_model is None:
                continue
            policies[strategy] = create_policy("rlbase", model=rl_model)
        selected.append(strategy)

    if not selected:
        # Every requested strategy was skipped (e.g. only "rlbase", no model).
        return CaseStudyResult(config=config)

    spec = ExperimentSpec(
        base_config=config,
        strategies=tuple(selected),
        policies=policies,
    )
    outcome = _resolve_runner(runner, backend, max_workers).run(spec)

    result = CaseStudyResult(config=config)
    for cell_result in outcome:
        result.summaries[cell_result.cell.strategy] = cell_result.summary
        result.records[cell_result.cell.strategy] = cell_result.records
    return result


def sweep_communication_penalty(
    phis: Sequence[float],
    config: Optional[SimulationConfig] = None,
    strategy: str = "speed",
    runner: Optional[ExperimentRunner] = None,
) -> Dict[float, StrategySummary]:
    """Ablation: sweep the per-link fidelity penalty φ (default 0.95)."""
    config = config if config is not None else SimulationConfig(num_jobs=50)
    spec = ExperimentSpec(
        base_config=config,
        strategies=(strategy,),
        overrides=tuple({"comm_fidelity_penalty": float(phi)} for phi in phis),
    )
    outcome = _resolve_runner(runner, None, None).run(spec)
    return {
        float(phi): cell_result.summary
        for phi, cell_result in zip(phis, outcome)
    }


def sweep_error_score_weights(
    weight_sets: Sequence[Tuple[float, float, float]],
    config: Optional[SimulationConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[Tuple[float, float, float], StrategySummary]:
    """Ablation: sweep the error-score weights (α, θ, γ) of Eq. (2)."""
    config = config if config is not None else SimulationConfig(num_jobs=50)
    base = replace(config, policy="fidelity")
    cells = [
        ExperimentCell(
            index=i,
            strategy="fidelity",
            seed=base.seed,
            config=base,
            policy_spec=PolicySpec(
                "fidelity", {"weights": ErrorScoreWeights(alpha, theta, gamma)}
            ),
        )
        for i, (alpha, theta, gamma) in enumerate(weight_sets)
    ]
    results = _resolve_runner(runner, None, None).run_cells(cells)
    return {
        tuple(weights): cell_result.summary
        for weights, cell_result in zip(weight_sets, results)
    }
