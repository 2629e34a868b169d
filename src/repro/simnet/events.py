"""Event queue primitives for the discrete-event kernel.

Events are (time, sequence, callback) triples kept in a binary heap.  The
sequence number breaks ties deterministically: two events scheduled for the
same instant fire in scheduling order, which is what keeps campaign runs
bit-for-bit reproducible across Python versions.

Cancelled events stay in the heap (removal from a heap middle is O(n))
and are discarded lazily -- the standard lazy-deletion idiom.  Long
campaigns with heavy churn cancel far more timers than they fire, so the
queue compacts itself (rebuilds the heap without dead entries) once the
cancelled fraction passes one half; pops then never wade through piles
of dead events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

__all__ = ["Event", "EventQueue"]

#: Heaps smaller than this are never compacted -- rebuilding a tiny heap
#: costs more than popping through its dead entries.
_COMPACT_MIN_SIZE = 64


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    ``cancelled`` events stay in the heap (removal from a heap middle is
    O(n)) and are skipped on pop -- the standard lazy-deletion idiom.

    ``args`` are splatted into the callback when the kernel fires it:
    ``callback(*args)``.  High-volume schedulers (the transport's
    delivery path) pass a shared method plus an args tuple instead of
    allocating a fresh closure per message.
    """

    time: float
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    args: Tuple[Any, ...] = field(default=(), compare=False)
    #: the queue holding this event while it is pending; None once it
    #: fired or was cancelled, so a late cancel leaves the counters alone
    _home: Any = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it."""
        self.cancelled = True


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects.

    Heap entries are ``(time, seq, event)`` tuples rather than the
    events themselves: tuple ordering is resolved entirely in C, so a
    sift never calls back into a Python ``__lt__`` (the generated
    dataclass comparison allocated two tuples per comparison, ~log n
    times per pop -- the single hottest cost in the kernel loop).  The
    unique ``seq`` guarantees the ``event`` slot is never compared.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0
        self._dead = 0  # cancelled events still sitting in the heap
        self.compactions = 0
        #: events ever cancelled through this queue (monotonic)
        self.cancelled_total = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: Callable[..., Any],
             label: str = "", args: tuple = ()) -> Event:
        """Schedule ``callback`` at absolute virtual ``time``.

        ``args`` are splatted into the callback at fire time; see
        :class:`Event`.
        """
        if time < 0:
            raise ValueError(f"cannot schedule at negative time {time!r}")
        seq = next(self._counter)
        event = Event(time=time, seq=seq,
                      callback=callback, label=label, args=args)
        event._home = self
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` and keep the live count right (idempotent).

        Cancelling an event that already fired (or was never queued
        here) marks it but leaves the counters alone, so
        ``cancelled_total`` and ``dead_events`` count queued events only.
        """
        if not event.cancelled:
            event.cancel()
            if event._home is self:
                event._home = None
                self.note_cancelled()

    def _discard_cancelled_head(self) -> None:
        """Drop cancelled events off the top of the heap.

        Shared by :meth:`pop` and :meth:`peek_time` so both agree on
        which event is the head: peek never reports the time of a
        cancelled event, and pop never returns one.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            if self._dead > 0:
                self._dead -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None when drained."""
        self._discard_cancelled_head()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)[2]
        self._live -= 1
        event._home = None
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        self._discard_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def pop_ready(self, end_time: float,
                  _heappop=heapq.heappop) -> Optional[Event]:
        """Pop the earliest live event with ``time <= end_time``.

        Returns None when the queue is drained or the head lies beyond
        the horizon.  This is the kernel's hot-path primitive: one pass
        over the (possibly cancelled) head instead of the
        peek_time()/pop() pair, which walked the dead prefix twice and
        paid two extra calls per event.  Pop order is identical to
        ``peek_time() <= end_time and pop()``, so run digests are
        unaffected.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                _heappop(heap)
                if self._dead > 0:
                    self._dead -= 1
                continue
            if entry[0] > end_time:
                return None
            _heappop(heap)
            self._live -= 1
            event._home = None
            return event
        return None

    @property
    def dead_events(self) -> int:
        """Cancelled events still occupying the heap (telemetry gauge)."""
        return self._dead

    def iter_entries(self):
        """Yield every queued ``(time, seq, event)`` entry, unordered.

        Introspection for tests and debugging only.  Tombstoned
        entries are included.
        """
        yield from self._heap

    def note_cancelled(self) -> None:
        """Bookkeeping hook: callers invoke this after cancelling an event."""
        self._live -= 1
        self._dead += 1
        self.cancelled_total += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap when over half of it is dead weight.

        heapify over the surviving entries preserves the (time, seq)
        order, so pop order -- and therefore campaign determinism -- is
        unaffected.
        """
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_SIZE and 2 * self._dead > len(heap):
            self._heap = [entry for entry in heap
                          if not entry[2].cancelled]
            heapq.heapify(self._heap)
            self._dead = 0
            self.compactions += 1
