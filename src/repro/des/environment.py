"""The simulation environment: clock, event queue and event loop."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from types import GeneratorType
from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

from repro.des.events import NORMAL, PENDING, AllOf, AnyOf, Event, Process, Timeout
from repro.des.exceptions import SimulationError, StopSimulation

__all__ = ["Environment", "EmptySchedule"]

#: Sentinel returned by :meth:`Environment.peek` when the queue is empty.
Infinity = float("inf")

#: Signature of an event-trace hook: ``(time, priority, event)``.
TraceCallback = Callable[[float, int, Event], None]


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no more events are scheduled."""


class Environment:
    """Execution environment for an event-driven simulation.

    The environment keeps the current simulation time (:attr:`now`), a
    priority queue of scheduled events, and offers factory methods for the
    common event types (:meth:`timeout`, :meth:`process`, :meth:`event`,
    :meth:`all_of`, :meth:`any_of`).

    Event ordering is deterministic: events scheduled for the same time are
    processed in ``(priority, insertion order)`` order.

    :meth:`step` is the one dispatch implementation: it pops a single
    event, runs its callbacks and counts it, and :meth:`run` simply calls it
    in a loop.  Every callback therefore sees the queue exactly as the
    events dispatched before it left it — including the other events still
    pending at the same timestamp.  The class uses ``__slots__`` because
    the loop is the hottest code in the simulator; subclasses (e.g. the
    quantum-cloud environment) may freely add attributes — they fall back
    to a normal instance ``__dict__``.

    Parameters
    ----------
    initial_time:
        Simulation time to start the clock at (default ``0``).
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_proc",
        "_trace",
        "_ev_count",
        "_peak_queue",
    )

    def __init__(self, initial_time: float = 0) -> None:
        self._now: float = initial_time
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_proc: Optional[Process] = None
        self._trace: Optional[TraceCallback] = None
        self._ev_count: int = 0
        self._peak_queue: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Environment now={self._now} queued={len(self._queue)}>"

    # -- state -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (or ``None``)."""
        return self._active_proc

    @property
    def queue_size(self) -> int:
        """Number of events currently scheduled."""
        return len(self._queue)

    # -- event-loop counters ---------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Events dispatched by the loop since construction."""
        return self._ev_count

    @property
    def peak_queue_size(self) -> int:
        """Largest event-queue depth observed before a pop."""
        return self._peak_queue

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`~repro.des.events.Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`~repro.des.events.Timeout` firing after *delay*."""
        return Timeout(self, delay, value)

    def timeout_at(self, time: float, value: Any = None) -> Timeout:
        """Create a :class:`~repro.des.events.Timeout` firing at absolute *time*."""
        if time < self._now:
            raise ValueError(f"time (={time}) lies in the past (now={self._now})")
        return Timeout(self, time - self._now, value)

    def process(self, generator: GeneratorType) -> Process:
        """Start a new :class:`~repro.des.events.Process` from *generator*."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Create a condition triggering when all *events* have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Create a condition triggering when any of *events* has triggered."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0) -> None:
        """Schedule *event* to be processed after *delay* time units."""
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def schedule_at(self, event: Event, time: float, priority: int = NORMAL) -> None:
        """Schedule *event* at absolute simulation *time* (must not be in the past)."""
        if time < self._now:
            raise ValueError(f"time (={time}) lies in the past (now={self._now})")
        heappush(self._queue, (time, priority, next(self._eid), event))

    def schedule_batch(
        self, items: Iterable[Tuple[float, int, Event]]
    ) -> int:
        """Bulk-schedule many ``(time, priority, event)`` entries at once.

        Insertion order within the batch is preserved for same-time entries.
        When the batch is large relative to the queue the heap is rebuilt in
        one O(n + k) ``heapify`` instead of k O(log n) pushes — this is the
        fast path the job generator uses for arrival batches.

        Returns the number of scheduled events.
        """
        now = self._now
        eid = self._eid
        entries = [(float(time), priority, next(eid), event) for time, priority, event in items]
        for entry in entries:
            if entry[0] < now:
                raise ValueError(f"time (={entry[0]}) lies in the past (now={now})")
        queue = self._queue
        if len(entries) > 8 and 4 * len(entries) > len(queue):
            queue.extend(entries)
            heapify(queue)
        else:
            for entry in entries:
                heappush(queue, entry)
        return len(entries)

    def peek(self) -> float:
        """Return the time of the next scheduled event (``inf`` if none)."""
        return self._queue[0][0] if self._queue else Infinity

    def step(self) -> None:
        """Process the next scheduled event (the loop body of :meth:`run`).

        Updates the event-loop counters, calls the trace hook (if one is
        installed) and then the event's callbacks.

        Raises :class:`EmptySchedule` if no event is scheduled.  If the event
        failed and its exception was never *defused* (nobody waited for it),
        the exception is re-raised here and crashes the simulation — mirroring
        SimPy's behaviour so programming errors inside processes surface.
        """
        qlen = len(self._queue)
        if qlen > self._peak_queue:
            self._peak_queue = qlen
        try:
            self._now, priority, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("No scheduled events left") from None
        self._ev_count += 1

        if self._trace is not None:
            self._trace(self._now, priority, event)

        callbacks, event.callbacks = event.callbacks, None
        # ``callbacks`` may be None if the event was already processed (this
        # should never happen because events are only scheduled once).
        for callback in callbacks or ():
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise SimulationError(f"Event {event!r} failed with non-exception {exc!r}")

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue is exhausted,
            * a number — run until the clock reaches that time (a value equal
              to the current time returns immediately),
            * an :class:`~repro.des.events.Event` — run until that event has
              been processed and return its value.

        Returns
        -------
        The value of the ``until`` event, if one was given.
        """
        if until is not None and not isinstance(until, Event):
            # Interpret as a point in time.
            at = float(until)
            if at < self._now:
                raise ValueError(f"until (={at}) must not be smaller than the current time")
            if at == self._now:
                # Nothing to do — the clock is already there (SimPy semantics;
                # repeated benchmark runs rely on this being a no-op).
                return None
            until = Event(self)
            until._ok = True
            until._value = None
            # Schedule with URGENT priority so that the simulation stops
            # before normal events scheduled for exactly ``at``.
            self.schedule(until, priority=0, delay=at - self._now)
        elif until is not None:
            if until.callbacks is None:
                # Already processed: return its value immediately.
                return until.value

        if until is not None:
            assert until.callbacks is not None
            until.callbacks.append(StopSimulation.callback)

        step = self.step
        try:
            while True:
                step()
        except StopSimulation as exc:
            return exc.value
        except EmptySchedule:
            if until is not None and until._value is PENDING:
                raise RuntimeError(
                    f"No scheduled events left but your simulation has not finished: {until!r}"
                ) from None
        return None
