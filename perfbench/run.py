"""The repository benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload paper-contended --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; ``perfbench/README.md``
explains the load model of each workload and what every metric means.

A run first simulates the default seed once, untimed: it warms the device
catalogue and other caches (so every measured set-up sees one cache state)
and checks each cell's output digest against ``digests.json``.  It then
repeats set-up + run until ``--seconds`` have passed, cycling through
``SEEDS_PER_RUN`` workload seeds derived from ``--seed``.  It checks
conservation on every cell.

``--trace 0`` reports the end-to-end metrics (medians over repetitions,
timings scaled to ``REFERENCE_RATE`` by a reference loop run around each
repetition);
``--trace 1`` spends half the time untraced and half with the layer wrappers
of ``tracer.py`` installed, reports per-layer metrics (medians over traced
repetitions) and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count simulation cells, so ``cell_error_frac = failed /
attempted``.  A failed conservation or digest check exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: The metric declarations: names, units and order of the result line.
DECLARED = HERE.parent / "BENCHMARK.json"
#: Workload seeds one run cycles through, all derived from ``--seed``: the
#: median then sits over several workloads instead of one draw's quirks.
SEEDS_PER_RUN = 4


#: Reference-loop speed, in iterations per second, that ``jobs_per_s`` and
#: ``setup_s`` are scaled to: about what the 2-vCPU Xeon host the benchmark
#: was defined on runs it at.  The host's speed drifts by up to ±25% over
#: tens of seconds, and set-up and run phase drift together with this loop,
#: so scaling by it keeps runs made minutes apart comparable.
REFERENCE_RATE = 12e6


def reference_rate(iterations: int = 100_000) -> float:
    """Iterations per second of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return iterations / (time.perf_counter() - start)


def host_metadata() -> dict:
    import numpy

    from workloads import nproc

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reference_loop_per_s": statistics.median(reference_rate() for _ in range(5)),
    }


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process, plus the largest pool worker's."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


class Repetition(NamedTuple):
    setup_s: float
    run_s: float
    outcome: Any
    #: Reference-loop rate around the repetition.
    speed: float


class Bench:
    def __init__(self, workload, seed: int) -> None:
        from checks import DIGESTS_PATH
        from workloads import DEFAULT_SEED, EnvInitClock

        self.workload = workload
        self.seed = seed
        #: The set-up and run steps; a traced run swaps in wrapped ones.
        self.steps = (workload.setup, workload.run)
        #: The tracer, once a traced run installs one.
        self.tracer = None
        self.env_clock = EnvInitClock()
        self.frozen = json.loads(DIGESTS_PATH.read_text()).get(workload.name, {})
        self.default_seed = DEFAULT_SEED
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def repetition(self, seed: int, label: str):
        """One set-up + run as a :class:`Repetition`; None on failure."""
        setup, run = self.steps
        clock = self.env_clock
        # Each repetition starts from a collected heap, as a fresh process
        # would; the collector stays on while it runs.
        gc.collect()
        speed = reference_rate()
        if self.tracer is not None:
            self.tracer.reset_iteration()
            self.tracer.cell = label
        clock.take()
        try:
            start = time.perf_counter()
            state = setup(seed)
            middle = time.perf_counter()
            _, envs = clock.take()
            outcome = run(state)
            end = time.perf_counter()
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{label}: raised\n{traceback.format_exc()}")
            return None
        # Environments the run step built (engine cells) count as set-up.
        inner_s, inner_envs = clock.take()
        outcome.envs = envs + inner_envs
        self.check(outcome, seed, label)
        speed = (speed + reference_rate()) / 2
        return Repetition(middle - start + inner_s, end - middle - inner_s, outcome, speed)

    def check(self, outcome, seed: int, label: str) -> None:
        """Gate on conservation (every seed) and on the frozen digests (the
        default seed)."""
        from checks import cell_digest, conservation_errors

        for cell in outcome.cells:
            self.attempted += 1
            problems = conservation_errors(cell)
            if seed == self.default_seed:
                digest = cell_digest(cell)
                if self.frozen.get(cell.name) != digest:
                    problems.append(
                        f"digest {digest[:16]} != {str(self.frozen.get(cell.name))[:16]} "
                        "frozen in digests.json"
                    )
            if problems:
                self.failed += 1
                self.errors.append(f"{label}/{cell.name}: " + "; ".join(problems))

    def seed_for(self, repetition: int) -> int:
        from repro.engine.spec import derive_seed

        return derive_seed(self.seed, "perfbench", repetition % SEEDS_PER_RUN)

    def measure(self, seconds: float):
        """Repeat for *seconds*, in whole cycles over the run's seeds:
        per-repetition set-up seconds, jobs resolved per run-phase second and
        host speed.  Outcomes are dropped as soon as they are checked, so
        memory does not grow with the number of repetitions."""
        setups, rates, speeds = [], [], []
        deadline = time.perf_counter() + seconds
        while len(rates) % SEEDS_PER_RUN or len(rates) == 0 or time.perf_counter() < deadline:
            result = self.repetition(self.seed_for(len(rates)), f"rep{len(rates)}")
            if result is None or self.failed:
                break
            setups.append(result.setup_s)
            rates.append(result.outcome.resolved / result.run_s)
            speeds.append(result.speed)
        return setups, rates, speeds


def scaled_rates(rates, speeds):
    """Jobs per second, each at the reference host speed."""
    return [rate * REFERENCE_RATE / speed for rate, speed in zip(rates, speeds)]


def end_to_end(measured, include_children: bool) -> dict:
    setups, rates, speeds = measured
    return {
        "jobs_per_s": statistics.median(scaled_rates(rates, speeds)),
        "setup_s": statistics.median(s * v / REFERENCE_RATE for s, v in zip(setups, speeds)),
        "peak_rss_mb": peak_rss_mb(include_children),
    }


def result_metrics(values: dict, declared: list) -> dict:
    """*values* named, unit-tagged and ordered as BENCHMARK.json declares them."""
    if set(values) != {entry["name"] for entry in declared}:
        raise RuntimeError(f"measured metrics {sorted(values)} differ from the declared ones")
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not DECLARED.is_file():
        print(f"error: no simulator sources at {SRC} or no {DECLARED.name}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads(DECLARED.read_text())

    from workloads import PAPER_TABLE2, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    host = host_metadata()
    print("host " + json.dumps(host, sort_keys=True))

    bench = Bench(workload, args.seed)
    warm = bench.repetition(bench.default_seed, "warm-up")
    if warm is not None and not bench.failed:
        print(f"[{workload.name}] default seed {bench.default_seed} report:")
        for line in warm.outcome.report:
            print("  " + line)
        if workload.name == "paper-contended":
            print("  paper Table 2 (rlbase here is an untrained network; nothing gates on it):")
            for mode, t_sim, fid, fid_sd, t_comm in PAPER_TABLE2:
                print(f"  {mode:<9} {t_sim:>12,.2f}  {fid:.5f} ± {fid_sd:.5f}  {t_comm:>10,.2f}")
    del warm  # release the warm-up simulation before measuring

    include_children = workload.name == "region-sharded"
    metrics = {}
    if not bench.failed:
        if args.trace == 0:
            results = bench.measure(args.seconds)
            if not bench.failed:
                metrics = result_metrics(
                    end_to_end(results, include_children), declared["end_to_end"]
                )
        else:
            from traced import traced_metrics

            values = traced_metrics(bench, args.seconds, host, HERE / "out")
            if values:
                metrics = result_metrics(values, declared["per_layer"])

    correct = bench.failed == 0
    for error in bench.errors:
        print("CHECK FAILED " + error, file=sys.stderr)
    if metrics and args.trace == 0:
        setups, rates, speeds = results
        print(f"[{workload.name}] seed {args.seed}: "
              + "  ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
              + f"  (unscaled: jobs_per_s {statistics.median(rates):.6g} 1/s  setup_s "
              f"{statistics.median(setups):.6g} s; host speed "
              f"{statistics.median(speeds) / REFERENCE_RATE:.3f} of reference)")
    print(f"[{workload.name}] cell_error_frac {bench.failed / max(bench.attempted, 1):.6g} "
          "fraction")
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
