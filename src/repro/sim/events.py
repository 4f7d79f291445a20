"""Event queue for the discrete-event kernel.

A tiny binary-heap priority queue with stable FIFO ordering for events
scheduled at the same timestamp, plus O(1) cancellation by flagging.

Heap entries are ``(time, sequence, event)`` tuples.  ``heapq`` then
orders them by tuple comparison in C; the sequence number is unique, so
two entries never tie and the :class:`Event` objects themselves are
never compared.
"""

import itertools
from heapq import heappop, heappush

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled callback.

    The queue orders events by ``(time, sequence)`` so that two events
    scheduled for the same instant fire in scheduling order — determinism
    matters more than fairness here.  ``fired`` is set when the queue
    hands the event out, so cancelling it afterwards is a no-op.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled",
                 "fired")

    def __init__(self, time, sequence, callback, args):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        """Mark the event so the kernel skips it when it is popped."""
        self.cancelled = True

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, #{self.sequence}, {name}{state})"


class EventQueue:
    """Binary heap of ``(time, sequence, event)`` with lazy cancellation."""

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self):
        return self._live

    def __bool__(self):
        return self._live > 0

    def push(self, time, callback, args=()):
        """Schedule ``callback(*args)`` at ``time`` and return the event."""
        sequence = next(self._counter)
        event = Event(time, sequence, callback, args)
        heappush(self._heap, (time, sequence, event))
        self._live += 1
        return event

    def pop(self):
        """Remove and return the earliest live event, or None when empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                continue
            event.fired = True
            self._live -= 1
            return event
        return None

    def peek_time(self):
        """Return the timestamp of the next live event, or None."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].cancelled:
                return entry[0]
            heappop(heap)
        return None

    def cancel(self, event):
        """Cancel an event returned by :meth:`push` (no-op once popped)."""
        if not event.cancelled and not event.fired:
            event.cancel()
            self._live -= 1

    def clear(self):
        self._heap.clear()
        self._live = 0
