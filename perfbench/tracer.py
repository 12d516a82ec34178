"""Traced runs: per-layer host time from wrappers around each layer's entry points.

Installed only for ``--trace 1`` and before the traced environments are
built, so bindings captured at construction (the fast path's
``self._plan = policy.plan``) pick the wrappers up.  Methods are wrapped on
the class that defines them; module functions are replaced in every loaded
module that holds them.

Every wrapped call adds its *self* time (its duration minus the time of the
wrapped calls it made) to its layer, so the layer self times plus the run
span's own remainder (``des.self_s``: event loop, broker plumbing and
everything else untimed) add up to the run span exactly.  Calls are counted
once per outermost entry into a layer.  Each layer keeps two accumulators:
set-up (the benchmark's set-up step and any ``QCloudSimEnv.__init__``) and
run.  A wrapper made with a ``phase`` puts its call, and every call it makes,
in that phase.  Coarse boundaries also record spans ``(name, start, end,
parent, cell)``, kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from typing import Any, Callable, Dict, List, Optional

SETUP, RUN = 0, 1


class Layer:
    __slots__ = ("name", "self_ns", "calls", "depth", "nones")

    def __init__(self, name: str) -> None:
        self.name = name
        self.self_ns = [0, 0]
        self.calls = [0, 0]
        self.depth = 0
        #: Calls that returned ``None`` (a policy finding no plan).
        self.nones = [0, 0]


class Tracer:
    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        #: One frame per active wrapped call: the child time it has seen.
        #: The bottom frame absorbs calls made outside any span.
        self.stack: List[List[int]] = [[0]]
        self.phase = SETUP
        #: Coarse spans: (name, start_ns, end_ns, parent index, cell id).
        self.spans: List[tuple] = []
        self._open: List[int] = []
        self.cell = ""
        self.shard_results: List[Any] = []
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer(name)
        return self.layers[name]

    # -- coarse spans --------------------------------------------------------
    def open_span(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0, 0, parent, self.cell])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close_span(self, index: int, start_ns: int, end_ns: int) -> None:
        self._open.pop()
        self.spans[index][1:3] = start_ns, end_ns

    def run_phase_ns(self) -> int:
        """The latest ``bench.run`` span minus the environment constructions
        nested in it, which count as set-up."""
        index = max(i for i, span in enumerate(self.spans) if span[0] == "bench.run")
        run, nested = self.spans[index], self.spans[index + 1:]
        return run[2] - run[1] - sum(s[2] - s[1] for s in nested if s[0] == "cloud.env_init")

    # -- wrappers ------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        coarse: bool = False,
        count_none: bool = False,
        phase: Optional[int] = None,
    ):
        layer = self.layer(name)
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = layer.depth == 0
            layer.depth += 1
            frame = [0]
            stack.append(frame)
            caller_phase = tracer.phase
            own_phase = caller_phase if phase is None else phase
            tracer.phase = own_phase
            span = tracer.open_span(name) if coarse else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if span is not None:
                    tracer.close_span(span, start, start + elapsed)
                stack.pop()
                layer.depth -= 1
                tracer.phase = caller_phase
                layer.self_ns[own_phase] += elapsed - frame[0]
                if outer:
                    layer.calls[own_phase] += 1
                stack[-1][0] += elapsed
            if count_none and result is None:
                layer.nones[own_phase] += 1
            return result

        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str, **kwargs) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, **kwargs)))
        else:
            setattr(cls, attr, self.wrap(name, raw, **kwargs))

    def wrap_function(self, fn: Callable, name: str, **kwargs) -> None:
        wrapped = self.wrap(name, fn, **kwargs)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    # -- garbage collector ---------------------------------------------------
    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    def reset_iteration(self) -> None:
        for layer in self.layers.values():
            layer.self_ns = [0, 0]
            layer.calls = [0, 0]
            layer.nones = [0, 0]
        self.shard_results = []
        self.gc_ns = 0
        self.gc_collections = 0

    # -- reading -------------------------------------------------------------
    def self_s(self, *names: str, phase: int = RUN) -> float:
        return sum(self.layers[n].self_ns[phase] for n in names if n in self.layers) / 1e9

    def calls(self, *names: str, phase: int = RUN) -> int:
        return sum(self.layers[n].calls[phase] for n in names if n in self.layers)

    def both(self, *names: str) -> float:
        return self.self_s(*names, phase=SETUP) + self.self_s(*names, phase=RUN)

    def run_layers_self_s(self) -> float:
        """Self time of every layer during the run phase, root frames excluded."""
        layers = self.layers.values()
        return sum(x.self_ns[RUN] for x in layers if not x.name.startswith("bench.")) / 1e9


def install(tracer: Tracer, env_clock) -> None:
    """Wrap every layer's public entry points (call once, before building).

    ``QCloudSimEnv.__init__`` already carries the harness's
    ``EnvInitClock``; its inner constructor is wrapped instead, in the
    set-up phase wherever it runs.
    """
    from repro.adaptive import controllers
    from repro.adaptive.engine import AdaptiveEngine
    from repro.analysis import reporting
    from repro.cloud import job_generator
    from repro.cloud.environment import QCloudSimEnv
    from repro.cloud.fastpath import JobTable
    from repro.cloud.qcloud import QCloud
    from repro.cloud.qdevice import IBMQuantumDevice
    from repro.cloud.records import JobRecordsManager
    from repro.cloud.records_stream import StreamingRecordsManager
    from repro.des.environment import Environment
    from repro.dynamics import scenario_jobs
    from repro.engine import runner as engine_runner
    from repro.hardware import backends
    from repro.metrics import aggregate
    from repro.region import cloud as region_cloud
    from repro.region.router import Router
    from repro.rl.policies import ActorCriticPolicy
    from repro.scheduling.error_aware import ErrorAwarePolicy
    from repro.scheduling.fair import FairPolicy
    from repro.scheduling.rl_policy import RLAllocationPolicy
    from repro.scheduling.speed import SpeedPolicy
    from repro.serve import tenant_jobs
    from repro.serve.admission import AdmissionController
    from repro.serve.broker import ServeBroker
    from repro.workloads import arrivals

    # -- set-up layers -------------------------------------------------------
    for fn in (
        job_generator.generate_synthetic_jobs,
        arrivals.generate_traffic_jobs,
        arrivals.bulk_diurnal_arrival_times,
        tenant_jobs,
        scenario_jobs,
        region_cloud.regional_jobs,
    ):
        tracer.wrap_function(fn, "workloads.gen")
    tracer.wrap_method(JobTable, "synthetic", "workloads.gen")
    tracer.wrap_method(QCloud, "__init__", "hardware.fleet")
    tracer.wrap_function(backends.get_device_profile, "hardware.profile")
    env_clock.init = tracer.wrap("cloud.env_init", env_clock.init, coarse=True, phase=SETUP)

    # -- run layers ----------------------------------------------------------
    for cls, strategy in (
        (SpeedPolicy, "speed"),
        (ErrorAwarePolicy, "fidelity"),
        (FairPolicy, "fair"),
        (RLAllocationPolicy, "rlbase"),
    ):
        tracer.wrap_method(cls, "plan", "scheduling.plan." + strategy, count_none=True)
    tracer.wrap_method(IBMQuantumDevice, "error_score", "qdevice.error_score")
    for attr in (
        "calculate_process_time",
        "compute_fidelity_breakdown",
        "scalar_process_time",
        "scalar_fidelity_breakdown",
        "batch_process_times",
        "batch_fidelity_breakdowns",
    ):
        tracer.wrap_method(IBMQuantumDevice, attr, "qdevice.kernel")
    tracer.wrap_method(ActorCriticPolicy, "predict", "rl.predict")
    for cls in (JobRecordsManager, StreamingRecordsManager):
        for attr in list(cls.__dict__):
            if attr.startswith("log_"):
                tracer.wrap_method(cls, attr, "records.log")
        tracer.wrap_method(cls, "add_record", "records.add")
    tracer.wrap_method(AdmissionController, "admit", "serve.admit")
    for cls in (
        controllers.AdaptiveAdmission,
        controllers.SLOAwarePlanner,
        controllers.ElasticPooler,
        controllers.ProactiveCheckpointer,
    ):
        tracer.wrap_method(cls, "tick", "adaptive.tick")
    tracer.wrap_method(controllers.SLOAwarePlanner, "plan", "adaptive.plan")
    tracer.wrap_method(Environment, "run", "des.run")
    tracer.wrap_method(Router, "assign", "region.route")
    tracer.wrap_method(region_cloud.RegionalCloud, "run_until_complete", "region.merge")
    _wrap_runner_map(tracer, engine_runner.ExperimentRunner, region_cloud._run_shard)
    tracer.wrap_function(engine_runner.execute_cell, "engine.cell", coarse=True)
    tracer.wrap_method(engine_runner.ExperimentRunner, "run_cells", "engine.runner")
    for fn in (aggregate.summarize_records, aggregate.empty_summary, reporting.format_table2):
        tracer.wrap_function(fn, "metrics.report", coarse=True)
    for cls, attr in (
        (QCloudSimEnv, "summary"),
        (QCloudSimEnv, "tenant_reports"),
        (ServeBroker, "tenant_reports"),
        (AdaptiveEngine, "report"),
        (region_cloud.RegionalCloud, "summary"),
        (region_cloud.RegionalCloud, "region_reports"),
        (StreamingRecordsManager, "aggregates"),
    ):
        tracer.wrap_method(cls, attr, "metrics.report", coarse=True)

    gc.callbacks.append(tracer._on_gc)


def _wrap_runner_map(tracer: Tracer, cls: type, run_shard: Callable) -> None:
    """``ExperimentRunner.map`` fans out both engine cells and region shards;
    shard fan-outs are the ``region.shard`` layer and keep their results so
    the harness can measure the bytes that crossed the process boundary."""
    shard_map = tracer.wrap("region.shard", cls.map, coarse=True)
    engine_map = tracer.wrap("engine.runner", cls.map)

    def wrapper(self, fn, payloads):
        if fn is run_shard:
            results = shard_map(self, fn, payloads)
            tracer.shard_results.extend(results)
            return results
        return engine_map(self, fn, payloads)

    cls.map = wrapper


def pickled_bytes(objects: List[Any]) -> int:
    """Bytes the objects take pickled the way a process pool sends them."""
    from multiprocessing.reduction import ForkingPickler

    return sum(len(ForkingPickler.dumps(obj)) for obj in objects)
