"""Monitoring utilities for the DES kernel.

SimPy-style monitoring: trace every event the environment processes
(:func:`trace_events`) and snapshot the event-loop counters
(:class:`EventLoopStats`, behind ``repro simulate --stats``) without
touching the simulation logic itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.des.environment import Environment
from repro.des.events import Event

__all__ = ["trace_events", "EventLoopStats"]


def trace_events(
    env: Environment, callback: Callable[[float, int, Event], None]
) -> Callable[[], None]:
    """Invoke *callback(time, priority, event)* for every event processed.

    The callback is installed as the environment's trace hook, which
    :meth:`~repro.des.environment.Environment.step` calls before each
    event's callbacks; the returned function removes it again.  Installing
    or removing it mid-run takes effect from the next event on.  Nested
    calls chain: every installed callback fires, and each ``undo`` restores
    the hook that was active before its ``trace_events`` call.

    Example
    -------
    >>> env = Environment()
    >>> log = []
    >>> undo = trace_events(env, lambda t, prio, ev: log.append((t, type(ev).__name__)))
    >>> _ = env.timeout(3)
    >>> env.run()
    >>> log
    [(3, 'Timeout')]
    """
    previous = env._trace

    if previous is None:
        hook = callback
    else:

        def hook(time: float, priority: int, event: Event) -> None:
            previous(time, priority, event)
            callback(time, priority, event)

    env._trace = hook

    def undo() -> None:
        env._trace = previous

    return undo


@dataclass(frozen=True)
class EventLoopStats:
    """Snapshot of the environment's event-loop counters.

    The counters accumulate from environment construction and cost one
    integer update per dispatched event, so they are always on.
    ``events_per_second`` is only available when the caller also measured
    wall-clock time — simulated time says nothing about loop throughput.
    """

    #: Events dispatched by the loop.
    events_processed: int
    #: Largest event-queue depth observed before a pop.
    peak_queue_size: int
    #: Wall-clock event throughput (``None`` unless a duration was supplied).
    events_per_second: Optional[float] = None

    @classmethod
    def from_env(
        cls, env: Environment, wall_seconds: Optional[float] = None
    ) -> "EventLoopStats":
        """Read the counters off *env*, optionally deriving events/s."""
        events = env.events_processed
        rate = None
        if wall_seconds is not None and wall_seconds > 0:
            rate = events / wall_seconds
        return cls(
            events_processed=events,
            peak_queue_size=env.peak_queue_size,
            events_per_second=rate,
        )
