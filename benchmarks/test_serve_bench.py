"""Serve-layer benchmark: broker dispatch throughput under heavy arrivals.

Two measurements, recorded in ``BENCH_serve.json`` at the repository root
(the perf trajectory of the serve subsystem):

* **Single-tenant overhead** — the same high-arrival-rate workload is pushed
  through the plain broker and through the serve broker with the ``single``
  mix (whose results are byte-identical by construction).  The wall-clock
  delta isolates the pure cost of the serve machinery: admission checks,
  fair-tag bookkeeping and the sorted dispatch queue.  The serve broker
  always runs on the legacy per-job-process engine, so the plain reference
  is pinned to it too (``fast_path=False``): the gate compares like with
  like.  The full-size run asserts this stays **< 10 %**.
* **Gap to the default engine** — the plain broker on the flat fast path
  (the default for plain runs) is timed as well, and
  ``engine_gap_vs_fast_path`` records the ``single`` mix's wall-clock
  relative to it: what a tenant mix costs over a plain run as users get it.
  Context only, not asserted.
* **Multi-tenant dispatch throughput** — every multi-tenant preset is timed
  on the same arrival storm and reported as jobs dispatched (completed +
  rejected) per wall-clock second.  Admission shedding and class overtaking
  legitimately change the simulated work, so these are context, not
  asserted overhead.

Set ``REPRO_SERVE_BENCH_TINY=1`` (the CI smoke job does) for a seconds-fast
run that exercises every preset without asserting the overhead bound.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.serve import available_tenant_mixes

TINY = os.environ.get("REPRO_SERVE_BENCH_TINY", "0") not in ("0", "", "false", "False")

#: Contention-tolerant mode: skip wall-clock assertions (correctness
#: assertions still run and still gate the artifact write).  Implied by TINY;
#: ``REPRO_BENCH_SKIP_TIMING=1`` sets it repo-wide for loaded CI machines.
SKIP_TIMING = TINY or os.environ.get(
    "REPRO_BENCH_SKIP_TIMING", "0"
) not in ("0", "", "false", "False")

#: Jobs per run — arriving as a fast Poisson storm to stress the dispatch queue.
NUM_JOBS = 60 if TINY else 600
#: Poisson arrival rate (jobs/second of simulated time): far above the fleet's
#: drain rate, so the dispatch queue stays deep for most of the run.
ARRIVAL_RATE = 0.5
#: Timed repetitions per configuration (best-of is reported).
REPEATS = 1 if TINY else 5

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"


def _config(tenants, fast_path=True):
    return SimulationConfig(
        num_jobs=NUM_JOBS,
        policy="fidelity",
        arrival="poisson",
        arrival_rate=ARRIVAL_RATE,
        tenants=tenants,
        fast_path=fast_path,
    )


def _run_once(tenants, fast_path=True):
    start = time.perf_counter()
    env = QCloudSimEnv(_config(tenants, fast_path))
    records = env.run_until_complete()
    return time.perf_counter() - start, env, records


def test_serve_overhead_benchmark():
    # key -> (tenant mix, fast_path).  The plain reference of the overhead
    # gate runs on the legacy engine, like every tenant mix does.
    configurations = {
        "plain-broker": (None, False),
        "plain-broker-fast-path": (None, True),
    }
    configurations.update((mix, (mix, True)) for mix in available_tenant_mixes())
    _run_once(None, fast_path=False)  # warm-up: device catalogue, coupling maps, caches

    # Interleave repetitions round-robin so transient machine load hits every
    # configuration equally instead of biasing one overhead ratio.
    best = {key: float("inf") for key in configurations}
    rounds = {key: [] for key in configurations}
    last = {}
    for _ in range(REPEATS):
        for key, (tenants, fast_path) in configurations.items():
            seconds, env, records = _run_once(tenants, fast_path)
            best[key] = min(best[key], seconds)
            rounds[key].append(seconds)
            last[key] = (env, records)

    results = {}
    for key in configurations:
        env, records = last[key]
        rejected = len(getattr(env.broker, "rejected_jobs", []))
        dispatched = len(records) + rejected
        results[key] = {
            "seconds": best[key],
            "jobs_completed": len(records),
            "jobs_rejected": rejected,
            "preemptions": getattr(env.broker, "preempted_total", 0),
            "dispatch_throughput_jobs_per_s": dispatched / best[key],
            "engine": env.engine_reason,
        }

    plain_seconds = results["plain-broker"]["seconds"]
    for key, result in results.items():
        if key != "plain-broker":
            result["wallclock_vs_plain"] = result["seconds"] / plain_seconds - 1.0
    # Overhead is the min of *per-round paired* ratios, not best/best across
    # rounds: a sustained load spike slows both sides of a round equally and
    # cancels in the ratio, where best-of picks times from different rounds
    # and lets the spike land on only one side.
    serve_overhead = min(
        single / plain - 1.0
        for single, plain in zip(rounds["single"], rounds["plain-broker"])
    )
    results["single"]["paired_overhead_vs_plain"] = serve_overhead
    engine_gap = (
        results["single"]["seconds"] / results["plain-broker-fast-path"]["seconds"] - 1.0
    )

    payload = {
        "benchmark": "serve",
        "tiny": TINY,
        "skip_timing": SKIP_TIMING,
        "config": {
            "num_jobs": NUM_JOBS,
            "policy": "fidelity",
            "arrival_rate": ARRIVAL_RATE,
            "repeats": REPEATS,
        },
        "single_tenant_overhead_vs_plain": serve_overhead,
        "engine_gap_vs_fast_path": engine_gap,
        "mixes": results,
    }

    print(f"\nserve dispatch wall-clock ({NUM_JOBS} jobs @ {ARRIVAL_RATE}/s, "
          f"best of {REPEATS}):")
    print(f"{'mix':<22} {'seconds':>9} {'done':>6} {'rej':>5} {'pre':>5} "
          f"{'jobs/s':>9} {'vs plain':>10}")
    for key, result in results.items():
        delta = result.get("wallclock_vs_plain")
        suffix = f"{delta:+10.1%}" if delta is not None else "    (base)"
        print(f"{key:<22} {result['seconds']:>9.3f} {result['jobs_completed']:>6} "
              f"{result['jobs_rejected']:>5} {result['preemptions']:>5} "
              f"{result['dispatch_throughput_jobs_per_s']:>9.1f} {suffix}")
    print(f"serve overhead (single vs plain broker): {serve_overhead:+.1%}")
    print(f"engine gap (single vs plain broker on the fast path): {engine_gap:+.1%}")

    # Assertions gate the artifact: BENCH_serve.json is only (re)written once
    # they pass, so a failing run never overwrites a good baseline.
    assert results["plain-broker"]["engine"] == "legacy: fast_path disabled"
    assert results["plain-broker-fast-path"]["engine"] == "fast path"
    # The single mix must not lose or shed jobs (byte-identical path).
    assert results["single"]["jobs_completed"] == NUM_JOBS
    assert results["single"]["jobs_rejected"] == 0
    if not SKIP_TIMING:
        # Acceptance target: tenant bookkeeping + sorted dispatch stays under
        # 10 % wall-clock vs the plain broker in single-tenant mode.
        assert serve_overhead < 0.10, f"serve overhead {serve_overhead:.1%} exceeds 10%"

    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")
