"""The discrete-event simulator.

:class:`Simulator` owns the clock and the event queue.  Entities (client
connections, server processes, the fault injector, the watchdog) interact by
scheduling callbacks; nothing in the system reads the wall clock.
"""

from repro.sim.errors import SchedulingError
from repro.sim.events import EventQueue
from repro.sim.rng import SeededRng

__all__ = ["Simulator"]


class Simulator:
    """Deterministic event-driven simulator.

    Parameters
    ----------
    seed:
        Base seed for every random stream derived via :meth:`rng_for`.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self.now = 0.0
        self.events = EventQueue()
        self.rng = SeededRng(seed)
        self._running = False
        self._events_fired = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay:.6f}s in the past")
        return self.events.push(self.now + delay, callback, args)

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time:.6f} (now is {self.now:.6f})"
            )
        return self.events.push(time, callback, args)

    def cancel(self, event):
        """Cancel a previously scheduled event (safe to call twice)."""
        self.events.cancel(event)

    def rng_for(self, *labels):
        """Return an independent random stream derived from the base seed."""
        return self.rng.substream(*labels)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self):
        """Fire the next event.  Return False when the queue is empty."""
        event = self.events.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SchedulingError("event queue returned an event in the past")
        self.now = event.time
        self._events_fired += 1
        event.callback(*event.args)
        return True

    def run_until(self, time):
        """Run events up to and including simulated ``time``.

        The clock is left at exactly ``time`` even if no event fires there,
        so back-to-back ``run_until`` calls partition the timeline cleanly.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot run backwards to t={time:.6f} (now {self.now:.6f})"
            )
        # Every event still fires through ``step`` (and so through
        # ``EventQueue.pop``); only the two method lookups are hoisted.
        peek_time = self.events.peek_time
        step = self.step
        while True:
            next_time = peek_time()
            if next_time is None or next_time > time:
                break
            step()
        self.now = time

    def run(self, max_events=None):
        """Run until the event queue drains (or ``max_events`` fire)."""
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        return fired

    @property
    def events_fired(self):
        """Total number of events executed so far (diagnostics)."""
        return self._events_fired

    def __repr__(self):
        return (
            f"Simulator(now={self.now:.3f}, pending={len(self.events)}, "
            f"fired={self._events_fired})"
        )
