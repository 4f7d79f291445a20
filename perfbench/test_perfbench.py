"""Self-tests for the benchmark's own arithmetic and tracing.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import functools
import json
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from repro.harness.supervisor import (  # noqa: E402
    QuarantinedShard,
    SupervisionReport,
)
from repro.harness.watchdog import Watchdog  # noqa: E402
from repro.sim.events import EventQueue  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.specweb.client import _Responder  # noqa: E402
from repro.specweb.rules import RunRules  # noqa: E402
from repro.webservers.runtime import ServerRuntime  # noqa: E402

from bench import (  # noqa: E402
    Outcome,
    Workload,
    measure_end_to_end,
    measure_layers,
    run_campaign,
)
from hostspeed import HostSpeedProbe  # noqa: E402
from spans import Tracer, callback_owner, event_layer  # noqa: E402
from stats import (  # noqa: E402
    percentile,
    quartile_spread,
    slot_accounting,
    tail_count,
    worker_util,
)

SMOKE = Workload(
    "smoke", "nt50", fault_sample=4, phases=False,
    rules=RunRules(
        warmup_seconds=2.0, rampup_seconds=1.0, rampdown_seconds=1.0,
        iterations=1, slot_seconds=2.0, slot_gap_seconds=1.0,
        baseline_seconds=4.0,
    ),
)


class FakeClock:
    """A clock that reads whatever the test last set."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_subtracts_children_and_events():
    clock = FakeClock()
    tracer = Tracer(clock=clock, cpu_clock=clock)
    tracer.open("outer")
    clock.now = 1.0
    tracer.open("inner")
    clock.now = 3.0
    tracer.note_event(print, 0.5)
    tracer.close()
    clock.now = 10.0
    tracer.close()
    outer, inner = tracer.spans
    assert inner.duration == 2.0 and inner.self_s == 1.5
    assert outer.duration == 10.0 and outer.self_s == 8.0
    assert tracer.self_total("outer") == 8.0
    assert tracer.events["other"].events == 1


def test_callback_owner_attribution():
    runtime = ServerRuntime.__new__(ServerRuntime)
    responder = _Responder(client=None, connection=None, seq=1)
    poll = functools.partial(Watchdog._poll, None)

    class LocalWatchdog(Watchdog):
        pass

    local = LocalWatchdog.__new__(LocalWatchdog)
    assert callback_owner(runtime.deliver) == "repro.webservers.runtime"
    assert event_layer(runtime.deliver) == "webservers"
    assert event_layer(responder) == "specweb"
    assert event_layer(functools.partial(poll)) == "harness.watchdog"
    # A bound method belongs to its instance's class, not the class that
    # defined the function.
    assert callback_owner(local._poll) == __name__
    assert event_layer(print) == "other"


def test_percentile_and_quartile_picks():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert tail_count(samples, 90) == 10
    assert percentile([3.0], 90) == 3.0
    # statistics.quantiles (exclusive method) puts the quartiles of
    # 1..4 at 1.25 and 3.75; the spread is their distance over 2.5.
    assert quartile_spread([4, 1, 3, 2]) == pytest.approx(1.0)
    assert quartile_spread([5.0]) is None


def test_reference_seconds_scale_gaps_and_skip_probe_time():
    probe = HostSpeedProbe()
    # Every kernel run took 2 ms, twice the reference: the host ran at
    # half the reference speed.
    probe.samples = [(1.0, 1.002), (2.0, 2.002)]
    probe.freeze()
    assert probe.reference_seconds(0.5, 2.5) == pytest.approx(
        (2.0 - 0.004) * 0.5
    )
    assert probe.reference_seconds(1.2, 1.7) == pytest.approx(0.25)
    assert probe.reference_seconds(1.001, 1.5) == pytest.approx(0.249)
    # One preempted kernel run does not move its stretch's factor.
    probe.samples = [(1.0, 1.001), (2.0, 2.010), (3.0, 3.001)]
    probe.freeze()
    assert probe.reference_seconds(1.5, 1.9) == pytest.approx(0.4)


def test_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeedProbe(period=0.01) as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) == before


def test_failed_slots_count_quarantine_and_skips():
    report = SupervisionReport(
        outcomes={0: SimpleNamespace(num_slots=6, faults_injected=5)},
        quarantined=[QuarantinedShard(
            shard_index=1, first_slot=6, num_slots=6,
            fault_ids=("a",) * 6, attempts=3, failures=("crash",) * 3,
        )],
    )
    assert slot_accounting([report]) == (12, 5)


def test_digest_disagreement_fails_the_whole_campaign():
    def run(digest, planned=10, injected=10):
        return SimpleNamespace(digest=digest, planned=planned,
                               injected=injected)

    outcome = Outcome({}, [run("a"), run("a", injected=9), run("b")], [])
    assert outcome.digest == "a"
    assert outcome.attempted == 30
    assert outcome.failed == 1 + 10


def test_worker_util_rusage_arithmetic():
    before = SimpleNamespace(ru_utime=1.0, ru_stime=0.5)
    after = SimpleNamespace(ru_utime=4.0, ru_stime=1.0)
    # (3.5 s of children + 0.5 s in-process) / (2 workers * 2.5 s)
    assert worker_util(before, after, 0.5, 2, 2.5) == pytest.approx(0.8)
    assert worker_util(before, after, 0.5, 2, 0.0) == 0.0


def test_traced_campaign_keeps_digest_and_detaches():
    step = Simulator.__dict__["step"]
    pop = EventQueue.__dict__["pop"]
    plain = run_campaign(SMOKE, 7)
    traced = run_campaign(SMOKE, 7, layers=True)
    assert traced.digest == plain.digest
    assert traced.planned == plain.planned == 4
    assert traced.tracer.events["webservers"].events > 0
    root = traced.tracer.spans[0]
    assert root.child_s / root.duration >= 0.9
    assert Simulator.__dict__["step"] is step
    assert EventQueue.__dict__["pop"] is pop


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = measure_end_to_end(SMOKE, 7, 0.0)
    traced = measure_layers(SMOKE, 7, 0.0)
    for section, outcome in (("end_to_end", untraced),
                             ("per_layer", traced)):
        expected = {
            metric["name"]: metric["unit"] for metric in declared[section]
        }
        got = {name: unit for name, (_value, unit)
               in outcome.metrics.items()}
        assert got == expected
        assert outcome.correct and outcome.failed == 0
