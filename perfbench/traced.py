"""Per-layer metrics of one traced run (``--trace 1``).

Half the time runs untraced, to get the jobs_per_s the trace is compared
with; then the wrappers go in and the other half runs traced.  Every
per-layer metric is the median over traced repetitions of its
per-repetition value.
"""

from __future__ import annotations

import json
import statistics
from operator import truediv

import tracer as tracing
from workloads import PAPER_STRATEGIES, event_counts

PLAN_LAYERS = tuple("scheduling.plan." + s for s in PAPER_STRATEGIES)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def repetition_metrics(t: tracing.Tracer, repetition) -> dict:
    """Every per-layer metric of one traced repetition."""
    outcome = repetition.outcome
    run_s = t.run_phase_ns() / 1e9
    envs = outcome.envs
    events = sum(env.events_processed for env in envs)
    counts: dict = {}
    for env in envs:
        for kind, n in event_counts(env.records).items():
            counts[kind] = counts.get(kind, 0) + n
    devices = [
        stats
        for env in envs
        for stats in env.device_utilization_report().values()
    ] + [
        stats
        for result in t.shard_results
        for stats in result.device_utilization.values()
    ]
    aborted = sum(d["aborted_subjobs"] for d in devices)
    launched = aborted + sum(d["completed_subjobs"] for d in devices)
    plan_calls = t.calls(*PLAN_LAYERS)
    plan_nones = sum(t.layers[name].nones[tracing.RUN] for name in PLAN_LAYERS)
    rejected = sum(cell.rejected for cell in outcome.cells)
    cell_spans = [s for s in t.spans if s[0] == "engine.cell" and s[4] == t.cell]

    metrics = {
        "workloads.gen_s": t.both("workloads.gen"),
        "workloads.jobs": outcome.submitted,
        "hardware.fleet_s": t.both("hardware.fleet", "hardware.profile"),
        "hardware.fleet_calls": t.calls("hardware.fleet", phase=tracing.SETUP)
        + t.calls("hardware.fleet"),
        "cloud.env_init_s": t.both("cloud.env_init"),
        "scheduling.plan_calls": plan_calls,
        "scheduling.plan_s": t.self_s(*PLAN_LAYERS),
        **{f"scheduling.plan_s.{s}": t.self_s("scheduling.plan." + s) for s in PAPER_STRATEGIES},
        "scheduling.plan_none_frac": _ratio(plan_nones, plan_calls),
        "qdevice.error_score_calls": t.calls("qdevice.error_score"),
        "qdevice.error_score_s": t.self_s("qdevice.error_score"),
        "qdevice.kernel_calls": t.calls("qdevice.kernel"),
        "qdevice.kernel_s": t.self_s("qdevice.kernel"),
        "qdevice.aborted_frac": _ratio(aborted, launched),
        "rl.predict_calls": t.calls("rl.predict"),
        "rl.predict_s": t.self_s("rl.predict"),
        "records.log_calls": t.calls("records.log"),
        "records.add_calls": t.calls("records.add"),
        "records.s": t.self_s("records.log", "records.add"),
        "des.events": events,
        "des.events_per_job": _ratio(events, outcome.submitted),
        "des.peak_queue": max((env.peak_queue_size for env in envs), default=0),
        # The event loop plus everything in the run span no wrapper times.
        "des.self_s": t.self_s("bench.run", "des.run"),
        "serve.admit_calls": t.calls("serve.admit"),
        "serve.admit_s": t.self_s("serve.admit"),
        "serve.rejected_frac": _ratio(rejected, outcome.submitted),
        "dynamics.requeues": counts.get("requeue", 0),
        "dynamics.checkpoints": counts.get("checkpoint", 0),
        "adaptive.ticks": sum(
            env.adaptive_engine.ticks for env in envs if env.adaptive_engine is not None
        ),
        "adaptive.tick_s": t.self_s("adaptive.tick"),
        "adaptive.plan_s": t.self_s("adaptive.plan"),
        "region.route_calls": t.calls("region.route"),
        "region.route_s": t.self_s("region.route"),
        "region.shard_s": t.self_s("region.shard"),
        "region.ipc_bytes": tracing.pickled_bytes(t.shard_results),
        "region.merge_s": t.self_s("region.merge"),
        "region.migrations": outcome.migrations,
        "engine.cells": t.calls("engine.cell"),
        "engine.cell_s": sum(s[2] - s[1] for s in cell_spans) / 1e9,
        "engine.self_s": t.self_s("engine.cell", "engine.runner"),
        "metrics.report_s": t.self_s("metrics.report"),
        "python.gc_s": t.gc_ns / 1e9,
        "python.gc_collections": t.gc_collections,
        "trace.run_s": run_s,
    }
    return metrics


def traced_metrics(bench, seconds: float, host: dict, out_dir) -> dict:
    """Per-layer metric values; empty when a check failed."""
    _, untraced_rates, untraced_speeds = bench.measure(seconds / 2)
    if bench.failed:
        return {}
    # Rates per unit of host speed, so host drift between halves cancels.
    untraced_rate = statistics.median(map(truediv, untraced_rates, untraced_speeds))

    t = tracing.Tracer()
    tracing.install(t, bench.env_clock)
    setup, run = bench.steps
    bench.steps = (
        t.wrap("bench.setup", setup, coarse=True, phase=tracing.SETUP),
        t.wrap("bench.run", run, coarse=True, phase=tracing.RUN),
    )
    bench.tracer = t
    per_repetition, rates, speeds, gaps = [], [], [], []
    traced_s = 0.0
    while len(per_repetition) < 2 or traced_s < seconds / 2:
        result = bench.repetition(
            bench.seed_for(len(per_repetition)), f"traced{len(per_repetition)}"
        )
        if result is None or bench.failed:
            return {}
        metrics = repetition_metrics(t, result)
        per_repetition.append(metrics)
        rates.append(result.outcome.resolved / metrics["trace.run_s"])
        speeds.append(result.speed)
        gaps.append(
            metrics["trace.run_s"] - t.self_s("bench.run") - t.run_layers_self_s()
        )
        traced_s += result.setup_s + metrics["trace.run_s"]

    values = {
        name: statistics.median(m[name] for m in per_repetition) for name in per_repetition[0]
    }
    values["trace.overhead_frac"] = (
        untraced_rate / statistics.median(map(truediv, rates, speeds)) - 1.0
    )
    print(f"[{bench.workload.name}] layer self times + des.self_s = run phase: largest gap "
          f"{max(map(abs, gaps)):.3g} s over {len(per_repetition)} traced repetitions")

    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{bench.workload.name}-seed{bench.seed}.json"
    path.write_text(json.dumps({
        "host": host,
        "workload": bench.workload.name,
        "seed": bench.seed,
        "span_fields": ["name", "start_ns", "end_ns", "parent", "cell"],
        "spans": t.spans,
        "repetitions": per_repetition,
    }))
    print(f"[{bench.workload.name}] wrote {len(t.spans)} spans to {path}")
    return values
