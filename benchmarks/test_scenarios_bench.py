"""Scenario overhead benchmark: what do world dynamics cost at runtime?

Two measurements, recorded in ``BENCH_scenarios.json`` at the repository
root (the perf trajectory of the dynamics subsystem):

* **Hook overhead** — a ``hooks-only`` scenario fires zero-volatility drift
  events at 3x the rate of the ``drift`` preset (hundreds of world events per
  run) without changing any scheduling outcome, so its wall-clock delta vs
  ``static`` isolates the pure cost of the event-source processes, the
  ``WorldEvent`` funnel and the lazy calibration rescale.  World dynamics
  run only on the legacy per-job-process engine, so the ``static``
  reference is pinned to it too (``fast_path=False``): the gate compares
  like with like.  The full-size run asserts this stays **< 10 %**.
* **Gap to the default engine** — ``static`` is also timed on the flat
  fast path (its default engine) as ``static-fast-path``, and
  ``engine_gap_vs_fast_path`` records ``hooks-only``'s wall-clock relative
  to it: what world dynamics cost over a static run as users get it.
  Context only, not asserted.
* **Preset wall-clocks** — every preset is timed and recorded.  Outage and
  traffic presets legitimately change the simulated work itself (requeued
  jobs re-execute, offline fleets stretch the schedule), so their deltas are
  reported as context, not asserted as overhead.

Set ``REPRO_SCENARIO_BENCH_TINY=1`` (the CI smoke job does) for a
seconds-fast run that exercises every preset without asserting the overhead
bound (sub-100-ms timings are dominated by noise).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.dynamics import DriftSpec, Scenario, available_scenarios

TINY = os.environ.get("REPRO_SCENARIO_BENCH_TINY", "0") not in ("0", "", "false", "False")

#: Contention-tolerant mode: skip wall-clock assertions (correctness
#: assertions still run and still gate the artifact write).  Implied by TINY;
#: ``REPRO_BENCH_SKIP_TIMING=1`` sets it repo-wide for loaded CI machines.
SKIP_TIMING = TINY or os.environ.get(
    "REPRO_BENCH_SKIP_TIMING", "0"
) not in ("0", "", "false", "False")

#: Jobs per scenario run.
NUM_JOBS = 30 if TINY else 600
#: Timed repetitions per scenario (best-of is reported).
REPEATS = 1 if TINY else 5

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_scenarios.json"

#: Fires world events at the drift preset's exact rate but with volatility 0,
#: so scheduling outcomes are identical to static and the wall-clock delta
#: is pure hook cost (what the shipped ``drift`` preset pays in machinery).
HOOKS_ONLY = Scenario(
    name="hooks-only",
    drift=DriftSpec(
        interval=1800.0,
        volatility=0.0,
        coherence_volatility=0.0,
        recalibration_period=10_800.0,
    ),
)


def _run_once(scenario, fast_path=True):
    start = time.perf_counter()
    env = QCloudSimEnv(
        SimulationConfig(num_jobs=NUM_JOBS, policy="fidelity", fast_path=fast_path),
        scenario=scenario,
    )
    records = env.run_until_complete()
    return time.perf_counter() - start, env, records


def test_scenario_overhead_benchmark():
    # name -> (scenario, fast_path).  The static reference of the overhead
    # gate runs on the legacy engine, like every world-dynamics scenario.
    scenarios = {name: (name, True) for name in available_scenarios()}
    scenarios["static"] = ("static", False)
    scenarios["static-fast-path"] = ("static", True)
    scenarios["hooks-only"] = (HOOKS_ONLY, True)
    _run_once(None, fast_path=False)  # warm-up: device catalogue, coupling maps, caches

    # Interleave the repetitions round-robin so transient machine load hits
    # every scenario equally instead of biasing one overhead ratio.
    best = {name: float("inf") for name in scenarios}
    last = {}
    for _ in range(REPEATS):
        for name, (scenario, fast_path) in scenarios.items():
            seconds, env, records = _run_once(scenario, fast_path)
            best[name] = min(best[name], seconds)
            last[name] = (env, records)

    results = {}
    for name in scenarios:
        env, records = last[name]
        engine = env.scenario_engine
        results[name] = {
            "seconds": best[name],
            "jobs_completed": len(records),
            "world_events": len(engine.applied_events) if engine is not None else 0,
            "event_counts": engine.event_counts() if engine is not None else {},
            "requeues": sum(r.retries for r in records),
            "engine": env.engine_reason,
        }

    static_seconds = results["static"]["seconds"]
    for name, result in results.items():
        if name != "static":
            result["wallclock_vs_static"] = result["seconds"] / static_seconds - 1.0
    hook_overhead = results["hooks-only"]["wallclock_vs_static"]
    engine_gap = (
        results["hooks-only"]["seconds"] / results["static-fast-path"]["seconds"] - 1.0
    )

    payload = {
        "benchmark": "scenarios",
        "tiny": TINY,
        "skip_timing": SKIP_TIMING,
        "config": {"num_jobs": NUM_JOBS, "policy": "fidelity", "repeats": REPEATS},
        "hook_overhead_vs_static": hook_overhead,
        "engine_gap_vs_fast_path": engine_gap,
        "scenarios": results,
    }

    print(f"\nscenario wall-clock ({NUM_JOBS} jobs, best of {REPEATS}):")
    print(f"{'scenario':<14} {'seconds':>9} {'events':>7} {'requeues':>9} {'vs static':>10}")
    for name, result in results.items():
        delta = result.get("wallclock_vs_static")
        suffix = f"{delta:+10.1%}" if delta is not None else "    (base)"
        print(f"{name:<14} {result['seconds']:>9.3f} {result['world_events']:>7} "
              f"{result['requeues']:>9} {suffix}")
    print(f"hook overhead (hooks-only vs static): {hook_overhead:+.1%}")
    print(f"engine gap (hooks-only vs static on the fast path): {engine_gap:+.1%}")

    # Assertions gate the artifact: BENCH_scenarios.json is only (re)written
    # once they pass, so a failing run never overwrites a good baseline.
    for name in scenarios:
        assert results[name]["jobs_completed"] == NUM_JOBS, f"{name} lost jobs"
    assert results["hooks-only"]["world_events"] > (10 if TINY else 100)
    assert results["static"]["engine"] == "legacy: fast_path disabled"
    assert results["static-fast-path"]["engine"] == "fast path"
    if not SKIP_TIMING:
        # Acceptance target: the drift/outage hook machinery stays under 10 %
        # wall-clock vs the static world at the drift preset's event rate.
        assert hook_overhead < 0.10, f"hook overhead {hook_overhead:.1%} exceeds 10%"

    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")
