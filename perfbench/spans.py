"""Outside-in layer tracing for the campaign benchmark.

Every measurement here is taken from the benchmark process, around calls
into the public functions of the program's layers; nothing under
``src/`` knows it is being traced.  A :class:`Tracer` records one span
per call at each boundary it is attached to (name, start, end, parent)
and, when asked, times every simulator event by the module that owns
its callback.

Patches are class- or module-level attribute swaps, undone by
:meth:`Tracer.detach`.  They apply only in the process that attached
them, which is why the traced campaign runs serially (``workers=1``).
"""

import functools
import time
import types
from dataclasses import dataclass

from repro.gswfit.injector import FaultInjector
from repro.harness import campaign as campaign_module
from repro.harness.campaign import CampaignJournal
from repro.harness.experiment import WebServerExperiment
from repro.harness.machine import ServerMachine
from repro.harness.snapshot import MachineSnapshot
from repro.harness.supervisor import ShardSupervisor
from repro.ossim.integrity import IntegrityAuditor
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator

__all__ = [
    "EVENT_LAYERS",
    "KEPT_RESULTS",
    "SETUP_SPANS",
    "Tracer",
    "callback_owner",
    "event_layer",
]

# Set-up boundaries (the ``setup_s`` metric) and the dispatch boundary
# (``slots_per_s``).  These are attached in every run: one span per call,
# a handful of calls per campaign.
SETUP_SPANS = (
    "gswfit.scan", "faults.prepare", "profiling.deadlines", "gswfit.warm",
)
_END_TO_END = (
    ("gswfit.scan", campaign_module, "scan_build_cached"),
    ("faults.prepare", WebServerExperiment, "prepared_faultload"),
    ("profiling.deadlines", campaign_module, "derive_activation_deadlines"),
    ("gswfit.warm", campaign_module, "warm_mutant_cache"),
    ("harness.dispatch", ShardSupervisor, "run"),
)
# Boundaries whose return values the metrics read: the supervision
# report (slots planned, injected, quarantined) and the warm-up stats.
# Nothing else is kept, so no traced object outlives its campaign.
KEPT_RESULTS = ("harness.dispatch", "gswfit.warm")
# Per-layer boundaries, attached only in the traced run (with the
# machine boot/warm-up pair and event attribution, wrapped separately).
_LAYERS = (
    ("gswfit.inject", FaultInjector, "inject"),
    ("gswfit.restore", FaultInjector, "restore"),
    ("gswfit.restore_all", FaultInjector, "restore_all"),
    ("harness.capture", MachineSnapshot, "capture"),
    ("harness.restore", MachineSnapshot, "restore"),
    ("harness.shard", campaign_module, "run_shard"),
    ("harness.merge", campaign_module, "merge_outcomes"),
    ("harness.journal", CampaignJournal, "record_shard"),
    ("harness.journal", CampaignJournal, "record_batch"),
    ("harness.digest", campaign_module, "metrics_digest"),
    ("harness.baseline", WebServerExperiment, "run_baseline"),
    ("harness.profile_mode", WebServerExperiment, "run_profile_mode"),
    ("ossim.audit", IntegrityAuditor, "audit"),
    ("sim.run", Simulator, "run_until"),
)
# Owner-module prefix -> event layer.  Callbacks owned by any other
# module land in "other".
EVENT_LAYERS = (
    ("repro.webservers.", "webservers"),
    ("repro.specweb.", "specweb"),
    ("repro.sim.network", "sim.network"),
    ("repro.harness.watchdog", "harness.watchdog"),
)


def callback_owner(callback):
    """The module that owns an event callback.

    A ``functools.partial`` is unwrapped to its target; a bound method
    belongs to its instance's class (not to the base class that defined
    the function); a plain function to its ``__module__``; any other
    callable object to its class.
    """
    while isinstance(callback, functools.partial):
        callback = callback.func
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, types.ModuleType):
        return type(owner).__module__
    if isinstance(callback, (types.FunctionType, types.BuiltinFunctionType)):
        return callback.__module__
    return type(callback).__module__


def event_layer(callback):
    """The :data:`EVENT_LAYERS` bucket a callback's time is charged to."""
    module = callback_owner(callback) or ""
    for prefix, layer in EVENT_LAYERS:
        if module == prefix or module.startswith(prefix):
            return layer
    return "other"


@dataclass
class Span:
    """One call across a boundary."""

    name: str
    start: float
    cpu_start: float
    parent: int | None
    end: float | None = None
    cpu_end: float | None = None
    # Seconds of this span's interval covered by its children: nested
    # spans and, inside ``sim.run``, the fired event callbacks.
    child_s: float = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    @property
    def cpu_s(self):
        """CPU seconds the benchmark process spent inside the span."""
        return self.cpu_end - self.cpu_start


@dataclass
class EventTally:
    """Events fired per layer and host seconds inside their callbacks."""

    events: int = 0
    seconds: float = 0.0


class Tracer:
    """Spans and event tallies for one campaign.

    ``layers=False`` attaches only the set-up and dispatch boundaries;
    ``layers=True`` adds every per-layer boundary and event attribution.
    Use as a context manager: patches are removed on exit even when the
    campaign raises.
    """

    def __init__(self, layers=False, clock=time.perf_counter,
                 cpu_clock=time.process_time):
        self.layers = layers
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans = []
        self.results = {}
        self.events = {}
        self._stack = []
        self._saved = []
        self._booted = set()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, self.clock(), self.cpu_clock(), parent)
        )
        self._stack.append(len(self.spans) - 1)

    def close(self):
        span = self.spans[self._stack.pop()]
        span.end = self.clock()
        span.cpu_end = self.cpu_clock()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span

    def call(self, name, function, *args, **kwargs):
        """Run ``function`` inside a span named ``name``."""
        self.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            self.close()
        if name in KEPT_RESULTS:
            self.results.setdefault(name, []).append(result)
        return result

    def named(self, name):
        return [span for span in self.spans if span.name == name]

    def total(self, name):
        return sum(span.duration for span in self.named(name))

    def self_total(self, name):
        return sum(span.self_s for span in self.named(name))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attribute, replacement):
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap(self, name, owner, attribute):
        raw = owner.__dict__[attribute]
        tracer = self
        if isinstance(raw, classmethod):
            function = raw.__func__

            @functools.wraps(function)
            def traced_classmethod(cls, *args, **kwargs):
                return tracer.call(name, function, cls, *args, **kwargs)

            self._patch(owner, attribute, classmethod(traced_classmethod))
            return

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            return tracer.call(name, raw, *args, **kwargs)

        self._patch(owner, attribute, traced)

    def _wrap_machine(self):
        """Boot spans, and a warm-up span for the first ``run_for`` on
        each booted machine (restored machines are never booted)."""
        boot = ServerMachine.__dict__["boot"]
        run_for = ServerMachine.__dict__["run_for"]
        tracer = self

        @functools.wraps(boot)
        def traced_boot(machine):
            tracer._booted.add(id(machine))
            return tracer.call("harness.boot", boot, machine)

        @functools.wraps(run_for)
        def traced_run_for(machine, seconds):
            if id(machine) in tracer._booted:
                tracer._booted.discard(id(machine))
                return tracer.call("harness.warmup", run_for, machine,
                                   seconds)
            return run_for(machine, seconds)

        self._patch(ServerMachine, "boot", traced_boot)
        self._patch(ServerMachine, "run_for", traced_run_for)

    def _wrap_events(self):
        """Time each fired event and charge it to its callback's layer.

        ``EventQueue.pop`` notes the popped event and how long popping
        took; ``Simulator.step`` times the whole step.  The difference is
        the callback's time, which also counts as covered time of the
        enclosing span (``sim.run``), so that span's self time is the
        kernel's own cost.
        """
        pop = EventQueue.__dict__["pop"]
        step = Simulator.__dict__["step"]
        clock = self.clock
        tracer = self
        popped = [None, 0.0]

        @functools.wraps(pop)
        def traced_pop(queue):
            started = clock()
            event = pop(queue)
            popped[0] = event
            popped[1] = clock() - started
            return event

        @functools.wraps(step)
        def traced_step(sim):
            started = clock()
            fired = step(sim)
            if fired:
                tracer.note_event(popped[0].callback,
                                  clock() - started - popped[1])
            return fired

        self._patch(EventQueue, "pop", traced_pop)
        self._patch(Simulator, "step", traced_step)

    def note_event(self, callback, seconds):
        layer = event_layer(callback)
        tally = self.events.get(layer)
        if tally is None:
            tally = self.events[layer] = EventTally()
        tally.events += 1
        tally.seconds += seconds
        if self._stack:
            self.spans[self._stack[-1]].child_s += seconds

    def attach(self):
        for name, owner, attribute in _END_TO_END:
            self._wrap(name, owner, attribute)
        if self.layers:
            for name, owner, attribute in _LAYERS:
                self._wrap(name, owner, attribute)
            self._wrap_machine()
            self._wrap_events()
        return self

    def detach(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self.attach()

    def __exit__(self, *exc_info):
        self.detach()
