"""Ablation benchmark: error-score weights (Eq. 2) and strictness of the
error-aware policy.

The paper fixes (α, θ, γ) = (0.5, 0.3, 0.2) and motivates the ordering
(readout > single-qubit > two-qubit).  This benchmark sweeps alternative
weightings and the strict/非-strict device-selection variant to show how much
of the error-aware strategy's fidelity advantage survives the change:

* any reasonable weighting keeps the error-aware strategy at or above the
  speed strategy's fidelity (the ranking of devices barely changes because
  readout dominates the magnitude of Eq. 2 on Eagle-class calibrations),
* the non-strict variant (spill to worse devices instead of waiting) trades
  some fidelity for a shorter makespan.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.experiments import run_policy_simulation, sweep_error_score_weights
from repro.cloud.config import SimulationConfig
from repro.scheduling.error_aware import ErrorAwarePolicy
from repro.scheduling.speed import SpeedPolicy

from benchmarks.conftest import BENCHMARK_SEED

WEIGHT_SETS = {
    "paper (0.5/0.3/0.2)": (0.5, 0.3, 0.2),
    "readout only": (1.0, 0.0, 0.0),
    "uniform": (1 / 3, 1 / 3, 1 / 3),
    "two-qubit heavy": (0.2, 0.2, 0.6),
}


def test_ablation_error_score_weights(benchmark):
    """Sweep (α, θ, γ) through the experiment engine, against the speed baseline."""
    config = SimulationConfig(num_jobs=40, seed=BENCHMARK_SEED)

    def run():
        results = {}
        speed_summary, _ = run_policy_simulation(replace(config, policy="speed"), policy=SpeedPolicy())
        results["speed baseline"] = speed_summary
        by_weights = sweep_error_score_weights(list(WEIGHT_SETS.values()), config=config)
        for label, weights in WEIGHT_SETS.items():
            results[label] = by_weights[weights]
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\nvariant                  mean_fidelity   T_sim(s)")
    for label, summary in results.items():
        print(f"{label:<24} {summary.mean_fidelity:<15.5f} {summary.total_simulation_time:,.1f}")
        benchmark.extra_info[label.replace(" ", "_")] = round(summary.mean_fidelity, 5)

    speed_fid = results["speed baseline"].mean_fidelity
    for label in WEIGHT_SETS:
        assert results[label].mean_fidelity >= speed_fid - 1e-6, label


def test_ablation_strict_vs_spill(benchmark):
    """Strict (wait for the best devices) vs non-strict (spill) error-aware mode."""
    config = SimulationConfig(num_jobs=40, seed=BENCHMARK_SEED)

    def run():
        strict, _ = run_policy_simulation(
            replace(config, policy="fidelity"), policy=ErrorAwarePolicy(strict=True)
        )
        spill, _ = run_policy_simulation(
            replace(config, policy="fidelity"), policy=ErrorAwarePolicy(strict=False)
        )
        return strict, spill

    strict, spill = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nstrict: fidelity={strict.mean_fidelity:.5f} T_sim={strict.total_simulation_time:,.1f}")
    print(f"spill : fidelity={spill.mean_fidelity:.5f} T_sim={spill.total_simulation_time:,.1f}")
    benchmark.extra_info["strict_fidelity"] = round(strict.mean_fidelity, 5)
    benchmark.extra_info["spill_fidelity"] = round(spill.mean_fidelity, 5)

    # Waiting for the best devices buys fidelity at the cost of makespan.
    assert strict.mean_fidelity >= spill.mean_fidelity
    assert strict.total_simulation_time >= spill.total_simulation_time
