"""Event queue for the discrete-event simulator.

A tiny, deterministic priority queue: events fire in (time, sequence)
order, so two events scheduled for the same instant execute in the order
they were scheduled.  Determinism here is what makes whole-protocol runs
reproducible bit-for-bit from a seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import SimulationError

__all__ = ["Event", "EventQueue"]


@dataclass(slots=True)
class Event:
    """A scheduled ``callback(*args)``, returned as a cancellable handle.

    Carrying the arguments spares the caller a closure per event, which
    on the message path is an allocation per copy.  ``done`` is set once
    the event is popped or cancelled.  Cancelled events stay in the heap
    but are skipped on pop (lazy deletion — O(log n) cancel without heap
    surgery), and cancelling a popped event is a no-op.  Slotted: the
    event loop allocates one of these per message copy, so the
    per-instance ``__dict__`` was measurable churn.
    """

    time: float
    seq: int
    callback: Callable[..., None]
    args: tuple = ()
    done: bool = False


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects.

    The heap holds ``(time, seq, event)`` tuples: ``seq`` is unique, so
    ordering never reaches the event and every comparison runs in C.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(self, time: float, callback: Callable[..., None], *args) -> Event:
        """Enqueue ``callback(*args)`` to fire at ``time``; returns a cancellable handle.

        Raises:
            SimulationError: for a negative or non-finite time.
        """
        if not (time >= 0.0) or time == float("inf"):
            raise SimulationError(f"invalid event time: {time!r}")
        seq = next(self._counter)
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop_due(self, until: float | None = None) -> Event | None:
        """Remove and return the earliest live event due by ``until``.

        Returns None when no live event remains or the earliest one lies
        after ``until`` (which then stays queued); ``until=None`` means
        no horizon.  Cancelled events reaching the head are discarded.
        """
        heap = self._heap
        while heap:
            time, _seq, event = heap[0]
            if event.done:
                heapq.heappop(heap)
                continue
            if until is not None and time > until:
                return None
            heapq.heappop(heap)
            event.done = True
            self._live -= 1
            return event
        return None

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises:
            SimulationError: if the queue is empty.
        """
        event = self.pop_due()
        if event is None:
            raise SimulationError("pop from empty event queue")
        return event

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is drained."""
        heap = self._heap
        while heap and heap[0][2].done:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (idempotent, lazy deletion)."""
        if not event.done:
            event.done = True
            self._live -= 1
