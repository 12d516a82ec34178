"""Benchmark: Table 2 — performance of the four allocation strategies.

Paper (Table 2, 1,000 large circuits on five 127-qubit devices):

    Mode      T_sim (s)    fidelity            T_comm (s)
    speed     108,775.38   0.65332 ± 0.01438    5,707.80
    fidelity  209,873.02   0.68781 ± 0.02605    3,822.74
    fair      108,778.16   0.64373 ± 0.01478    5,707.80
    rlbase    106,206.21   0.62087 ± 0.01301    6,105.52

Expected reproduced *shape* (absolute numbers depend on the synthetic
calibration snapshots and the scaled job count):

* the error-aware ("fidelity") strategy achieves the highest mean fidelity,
  the lowest total communication time, and a roughly 2-4x longer makespan;
* speed and fair are the fast strategies with intermediate fidelity;
* rlbase spreads jobs over the most devices, giving the highest
  communication time and the lowest mean fidelity.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.experiments import run_case_study
from repro.analysis.reporting import format_table2

from benchmarks.conftest import case_study_config


@pytest.fixture(scope="module")
def table2_result(trained_rl_model):
    model, _curve = trained_rl_model
    return run_case_study(case_study_config(), rl_model=model)


def test_table2_full_comparison(benchmark, table2_result):
    """Regenerate all four Table 2 rows and check the qualitative ordering."""

    def regenerate():
        return table2_result

    result = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    summaries = result.summaries

    print("\n" + format_table2(summaries))
    for name, summary in summaries.items():
        benchmark.extra_info[f"{name}_T_sim_s"] = round(summary.total_simulation_time, 2)
        benchmark.extra_info[f"{name}_fidelity"] = round(summary.mean_fidelity, 5)
        benchmark.extra_info[f"{name}_T_comm_s"] = round(summary.total_communication_time, 2)

    assert set(summaries) == {"speed", "fidelity", "fair", "rlbase"}

    # --- fidelity column shape -------------------------------------------------
    assert summaries["fidelity"].mean_fidelity == max(s.mean_fidelity for s in summaries.values())
    assert summaries["rlbase"].mean_fidelity == min(s.mean_fidelity for s in summaries.values())

    # --- communication column shape ---------------------------------------------
    assert summaries["fidelity"].total_communication_time == min(
        s.total_communication_time for s in summaries.values()
    )
    assert summaries["rlbase"].total_communication_time == max(
        s.total_communication_time for s in summaries.values()
    )

    # --- runtime column shape ---------------------------------------------------
    t = {k: s.total_simulation_time for k, s in summaries.items()}
    assert t["fidelity"] > 1.5 * t["speed"]
    assert abs(t["speed"] - t["fair"]) / t["speed"] < 0.35


@pytest.mark.parametrize("strategy", ["speed", "fidelity", "fair"])
def test_table2_single_strategy_runtime(benchmark, strategy):
    """Wall-clock cost of simulating one Table 2 row (simulator throughput)."""
    from repro.analysis.experiments import run_policy_simulation

    config = replace(case_study_config(num_jobs=40), policy=strategy)

    def run():
        summary, _records = run_policy_simulation(config)
        return summary

    summary = benchmark(run)
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["mean_fidelity"] = round(summary.mean_fidelity, 5)
    assert summary.num_jobs == 40
