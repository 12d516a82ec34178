"""Discrete-event simulation kernel.

This subpackage is a from-scratch, dependency-free replacement for the subset
of SimPy that the paper's simulation framework relies on:

* :class:`~repro.des.environment.Environment` — the simulation clock and
  event heap, dispatched one event at a time by ``Environment.step`` (which
  ``Environment.run`` calls in a loop),
* generator-based :class:`~repro.des.events.Process` objects,
* :class:`~repro.des.events.Timeout`, :class:`~repro.des.events.Event`,
  :class:`~repro.des.events.AllOf` / :class:`~repro.des.events.AnyOf`
  composite conditions,
* shared resources: :class:`~repro.des.resources.resource.Resource` (broker
  admission) and :class:`~repro.des.resources.container.Container` (QPU
  qubit pools),
* monitoring: :func:`~repro.des.monitoring.trace_events` and
  :class:`~repro.des.monitoring.EventLoopStats`.

The public API mirrors SimPy's so that code written against SimPy (such as the
quantum-cloud layer in :mod:`repro.cloud`) ports over with only the import
changed.

Example
-------
>>> from repro import des
>>> env = des.Environment()
>>> def clock(env, results):
...     while True:
...         results.append(env.now)
...         yield env.timeout(1)
>>> ticks = []
>>> _ = env.process(clock(env, ticks))
>>> env.run(until=3)
>>> ticks
[0, 1, 2]
"""

from repro.des.environment import Environment
from repro.des.events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Initialize,
    Interruption,
    Process,
    Timeout,
)
from repro.des.exceptions import Interrupt, SimulationError, StopSimulation
from repro.des.monitoring import trace_events
from repro.des.resources.container import Container
from repro.des.resources.resource import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Container",
    "Environment",
    "Event",
    "Initialize",
    "Interrupt",
    "Interruption",
    "Process",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "trace_events",
]
