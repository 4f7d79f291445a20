"""Unit tests for the event queue."""

import pytest

from repro.sim.events import Event, EventQueue


def test_push_pop_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.push(3.0, fired.append, ("c",))
    queue.push(1.0, fired.append, ("a",))
    queue.push(2.0, fired.append, ("b",))
    order = []
    while queue:
        event = queue.pop()
        order.append(event.time)
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_push_order():
    queue = EventQueue()
    first = queue.push(5.0, lambda: None)
    second = queue.push(5.0, lambda: None)
    assert queue.pop() is first
    assert queue.pop() is second


def test_len_counts_live_events_only():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.cancel(event)
    assert len(queue) == 1


def test_cancelled_event_is_skipped_by_pop():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    keeper = queue.push(2.0, lambda: None)
    queue.cancel(event)
    assert queue.pop() is keeper


def test_cancel_twice_is_safe():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0
    assert queue.pop() is None


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(4.0, lambda: None)
    queue.cancel(event)
    assert queue.peek_time() == 4.0


def test_peek_time_empty_queue():
    assert EventQueue().peek_time() is None


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_clear_empties_queue():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    assert not queue


def test_event_repr_mentions_state():
    event = Event(1.5, 7, lambda: None, ())
    assert "1.5" in repr(event)
    event.cancel()
    assert "cancelled" in repr(event)


def test_bool_reflects_liveness():
    queue = EventQueue()
    assert not queue
    queue.push(1.0, lambda: None)
    assert queue


def test_many_events_heap_property():
    queue = EventQueue()
    times = [7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 0.5]
    for t in times:
        queue.push(t, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(times)


def test_same_time_events_fire_fifo_with_interleaved_cancellations():
    queue = EventQueue()
    events = [queue.push(2.0, lambda: None) for _ in range(10)]
    queue.push(1.0, lambda: None)
    for event in events[1::3]:
        queue.cancel(event)
    assert queue.pop().time == 1.0
    expected = [event for event in events if not event.cancelled]
    # Cancel one more after the first same-time event has fired.
    first = queue.pop()
    assert first is expected[0]
    queue.cancel(expected[2])
    rest = [queue.pop() for _ in range(len(queue))]
    assert rest == [expected[1]] + expected[3:]
    assert queue.pop() is None


def test_len_after_cancel_pop_and_cancel_of_popped_event():
    queue = EventQueue()
    a = queue.push(1.0, lambda: None)
    b = queue.push(2.0, lambda: None)
    c = queue.push(3.0, lambda: None)
    assert len(queue) == 3
    queue.cancel(b)
    assert len(queue) == 2
    assert queue.pop() is a
    assert len(queue) == 1
    queue.cancel(a)  # already fired: nothing left to cancel
    assert len(queue) == 1
    assert not a.cancelled
    queue.cancel(b)  # already cancelled
    assert len(queue) == 1
    assert queue.pop() is c
    assert len(queue) == 0
    queue.cancel(c)
    assert len(queue) == 0
    assert not queue


class _Unorderable:
    """A callback that refuses every ordering comparison."""

    def __call__(self):
        pass

    def __lt__(self, other):
        raise AssertionError("events were compared")

    __le__ = __gt__ = __ge__ = __lt__


def test_heap_never_compares_events():
    with pytest.raises(TypeError):
        Event(1.0, 0, None, ()) < Event(1.0, 1, None, ())
    queue = EventQueue()
    pushed = [queue.push(t, _Unorderable()) for t in (5.0, 1.0) * 50]
    queue.cancel(pushed[3])
    popped = []
    while queue.peek_time() is not None:
        popped.append(queue.pop())
    live = [event for event in pushed if event is not pushed[3]]
    expected = [event for event in live if event.time == 1.0] + \
        [event for event in live if event.time == 5.0]
    assert popped == expected
