"""Workloads, campaign execution and metric assembly for the benchmark.

Every campaign goes through the public
:class:`repro.harness.campaign.ParallelCampaign` API, starts from empty
in-process scan, mutant and snapshot caches, has no disk cache and
writes its journal and manifest into a fresh temporary directory
(``tempfile``'s default, which ``run.py`` points into the checkout).
"""

import gc
import resource
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.gswfit.cache import clear_mutant_cache, clear_scan_cache
from repro.harness import campaign as campaign_module
from repro.harness.campaign import ParallelCampaign
from repro.harness.config import ExperimentConfig
from repro.harness.snapshot import snapshot_cache
from repro.specweb.rules import RunRules

from hostspeed import HostSpeedProbe
from spans import SETUP_SPANS, EventTally, Tracer
from stats import percentile, slot_accounting, tail_count, worker_util

__all__ = [
    "WORKLOADS",
    "CampaignRun",
    "Outcome",
    "Workload",
    "measure_end_to_end",
    "measure_layers",
    "run_campaign",
]

# The short run rules of the sequential-injection bench
# (benchmarks/test_sequential_campaign.py).
_SHORT_RULES = RunRules(
    warmup_seconds=5.0, rampup_seconds=2.0, rampdown_seconds=2.0,
    iterations=1, slot_seconds=6.0, slot_gap_seconds=2.0,
    baseline_seconds=30.0,
)
# Share of a run spent on stand-alone cold set-ups before its campaigns,
# so that ``setup_s`` is a median over several samples even when only
# one or two campaigns fit in the run.
SETUP_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    """One campaign shape.  The seed is the only input that varies."""

    name: str
    os_codename: str
    server: str = "apache"
    fault_sample: int | None = 48
    slots_per_shard: int | None = None
    sequential: bool = False
    adaptive: bool = False
    # Run the baseline and profile-mode phases before injection.
    phases: bool = True
    rules: RunRules | None = None

    def config(self, seed):
        config = ExperimentConfig.scaled(
            fault_sample=self.fault_sample, connections=16
        )
        config.os_codename = self.os_codename
        config.server_name = self.server
        config.seed = seed
        config.adaptive_slots = self.adaptive
        if self.rules is not None:
            config.rules = self.rules
        if self.sequential:
            config.sequential = True
            config.ci_target = 0.2
            config.sequential_batch_slots = 4
        return config


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    workload.name: workload for workload in (
        Workload("canonical", "nt51"),
        Workload(
            "sequential_full", "nt51", fault_sample=None,
            sequential=True, phases=False, rules=_SHORT_RULES,
        ),
        Workload(
            "abyss_oneshard", "nt50", server="abyss", slots_per_shard=48,
            adaptive=True,
        ),
    )
}


def reset_caches():
    """Empty every in-process memo a campaign fills, so each measured
    campaign pays its own set-up."""
    clear_scan_cache()
    clear_mutant_cache()
    snapshot_cache().clear()
    gc.collect()


def _setup_spans(tracer, parent):
    return [
        span for span in tracer.spans
        if span.parent == parent and span.name in SETUP_SPANS
    ]


@dataclass
class CampaignRun:
    """What one campaign produced, and the tracer that timed it (host
    seconds; see :mod:`hostspeed` for reference seconds)."""

    planned: int
    injected: int
    digest: str
    degraded: bool
    sane: bool
    worker_util: float
    tracer: Tracer = field(repr=False)

    @property
    def root(self):
        """The span around construction plus ``run()``."""
        return self.tracer.spans[0]

    @property
    def setup(self):
        return _setup_spans(self.tracer, parent=0)

    @property
    def dispatch(self):
        return self.tracer.named("harness.dispatch")

    @property
    def wall_s(self):
        return self.root.duration


def run_campaign(workload, seed, layers=False):
    """Run one cold serial campaign; ``layers`` attaches the per-layer
    trace."""
    config = workload.config(seed)
    reset_caches()
    with tempfile.TemporaryDirectory() as tmp:
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with Tracer(layers=layers) as tracer:
            tracer.open("campaign")
            campaign = ParallelCampaign(
                config, workers=1,
                slots_per_shard=workload.slots_per_shard,
                journal_path=Path(tmp) / "campaign.jsonl",
            )
            result = campaign.run(
                include_baseline=workload.phases,
                include_profile_mode=workload.phases,
            )
            tracer.close()
        children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    dispatch = tracer.named("harness.dispatch")
    planned, injected = slot_accounting(
        tracer.results.get("harness.dispatch", ())
    )
    return CampaignRun(
        planned=planned,
        injected=injected,
        digest=campaign.manifest.metrics_digest,
        degraded=result.degraded,
        sane=(len(result.iterations) == config.rules.iterations
              and injected > 0),
        worker_util=worker_util(
            children_before, children_after,
            sum(span.cpu_s for span in dispatch), 1,
            sum(span.duration for span in dispatch),
        ),
        tracer=tracer,
    )


def run_setup(workload, seed):
    """One cold set-up without a campaign, through the calls
    :meth:`ParallelCampaign.run` makes before it dispatches; returns its
    spans."""
    config = workload.config(seed)
    reset_caches()
    with Tracer() as tracer:
        faultload = ParallelCampaign(config, workers=1).prepared_faultload()
        if config.adaptive_slots:
            campaign_module.derive_activation_deadlines(config)
        campaign_module.warm_mutant_cache(
            faultload, probed=config.track_activation
        )
    return _setup_spans(tracer, parent=None)


def _repeat(run, seconds, cost=lambda result: result.wall_s):
    """Call ``run`` until the next call would end after ``seconds``,
    judged by the ``cost`` in seconds of the last call; at least once."""
    started = time.perf_counter()
    results = []
    while True:
        results.append(run())
        elapsed = time.perf_counter() - started
        if elapsed + cost(results[-1]) > seconds:
            return results


@dataclass
class Outcome:
    """One benchmark run's verdict and metrics.  ``metrics`` and
    ``printed`` map names to ``(value, unit)``; only ``metrics`` go into
    the result line."""

    metrics: dict
    runs: list
    problems: list
    printed: dict = field(default_factory=dict)

    @property
    def attempted(self):
        return sum(run.planned for run in self.runs)

    @property
    def failed(self):
        """Failed slots: quarantined or skipped ones, plus every slot of
        a campaign whose digest disagrees with the run's majority."""
        reference = self.digest
        return sum(
            run.planned if run.digest != reference
            else run.planned - run.injected
            for run in self.runs
        )

    @property
    def digest(self):
        return Counter(run.digest for run in self.runs).most_common(1)[0][0]

    @property
    def correct(self):
        return not self.problems


def _check(runs):
    """The correctness checks every run makes, as a list of problems."""
    problems = []
    digests = sorted({run.digest for run in runs})
    if len(digests) > 1:
        problems.append(f"digests disagree: {', '.join(digests)}")
    if any(run.degraded for run in runs):
        problems.append("a campaign was degraded")
    if not all(run.sane for run in runs):
        problems.append("a campaign missed iterations or injected nothing")
    return problems


def _peak_rss_mb():
    # Linux reports ru_maxrss in KiB.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def measure_end_to_end(workload, seed, seconds):
    """The untraced run: end-to-end metrics in reference seconds,
    medians over repeats."""
    started = time.perf_counter()
    with HostSpeedProbe() as probe:
        setups = _repeat(
            lambda: run_setup(workload, seed), seconds * SETUP_SHARE,
            cost=lambda spans: sum(span.duration for span in spans),
        )
        remaining = seconds - (time.perf_counter() - started)
        runs = _repeat(
            lambda: run_campaign(workload, seed), remaining
        )

    def reference(spans):
        return sum(
            probe.reference_seconds(span.start, span.end) for span in spans
        )

    setups.extend(run.setup for run in runs)
    metrics = {
        "campaign_slots_per_s": (median([
            run.injected / (reference([run.root]) - reference(run.setup))
            for run in runs
        ]), "slots/s"),
        "slots_per_s": (median([
            run.injected / reference(run.dispatch) for run in runs
        ]), "slots/s"),
        "setup_s": (median([reference(spans) for spans in setups]), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    outcome = Outcome(metrics, runs, _check(runs))
    outcome.printed = {
        "campaign_s": (median([reference([run.root]) for run in runs]), "s"),
        "failed_frac": (outcome.failed / outcome.attempted, "ratio"),
        "host.campaign_s": (median([run.wall_s for run in runs]), "s"),
        "host.slots_per_s": (median([
            run.injected / sum(span.duration for span in run.dispatch)
            for run in runs
        ]), "slots/s"),
        "host.setup_s": (median([
            sum(span.duration for span in spans) for spans in setups
        ]), "s"),
        "host.probe_samples": (len(probe.samples), "count"),
    }
    return outcome


def _count(tracer, name):
    return len(tracer.named(name))


def layer_metrics(run):
    """Per-layer metrics of one traced campaign (the shard-time
    percentiles are pooled across campaigns by :func:`measure_layers`)."""
    tracer = run.tracer
    total = tracer.total
    events = tracer.events

    def tally(layer):
        return events.get(layer, EventTally())

    captures = _count(tracer, "harness.capture")
    restores = _count(tracer, "harness.restore")
    epoch_setup = sum(total(name) for name in (
        "harness.boot", "harness.warmup",
        "harness.capture", "harness.restore",
    ))
    fired = sum(tally.events for tally in events.values())
    run_s = total("sim.run")
    root = tracer.spans[0]
    return {
        "gswfit.scan_s": total("gswfit.scan"),
        "gswfit.warm_s": total("gswfit.warm"),
        "gswfit.mutants_compiled": sum(
            stats["compiled"]
            for stats in tracer.results.get("gswfit.warm", ())
        ),
        "gswfit.inject_s": sum(total(name) for name in (
            "gswfit.inject", "gswfit.restore", "gswfit.restore_all",
        )),
        "gswfit.injects": _count(tracer, "gswfit.inject"),
        "faults.prepare_s": total("faults.prepare"),
        "profiling.deadlines_s": total("profiling.deadlines"),
        "harness.boots": _count(tracer, "harness.boot"),
        "harness.boot_s": total("harness.boot"),
        "harness.warmup_s": total("harness.warmup"),
        "harness.captures": captures,
        "harness.capture_s": total("harness.capture"),
        "harness.restores": restores,
        "harness.restore_s": total("harness.restore"),
        "harness.snapshot_use": restores / captures if captures else 0.0,
        "harness.epoch_setup_share": epoch_setup / run.wall_s,
        "harness.shards": _count(tracer, "harness.shard"),
        "harness.rounds": _count(tracer, "harness.dispatch"),
        "harness.merge_s": total("harness.merge"),
        "harness.journal_s": total("harness.journal"),
        "harness.digest_s": total("harness.digest"),
        "harness.baseline_s": total("harness.baseline"),
        "harness.profile_mode_s": total("harness.profile_mode"),
        "harness.watchdog_s": tally("harness.watchdog").seconds,
        "ossim.audit_s": total("ossim.audit"),
        "ossim.audits": _count(tracer, "ossim.audit"),
        "sim.events": fired,
        "sim.run_s": run_s,
        "sim.kernel_self_s": tracer.self_total("sim.run"),
        "sim.us_per_event": 1e6 * run_s / fired if fired else 0.0,
        "sim.network_s": tally("sim.network").seconds,
        "webservers.event_s": tally("webservers").seconds,
        "webservers.events": tally("webservers").events,
        "specweb.event_s": tally("specweb").seconds,
        "specweb.events": tally("specweb").events,
        "trace.coverage": root.child_s / root.duration,
    }


_RATIOS = (
    "harness.snapshot_use", "harness.epoch_setup_share",
    "harness.worker_util", "trace.overhead", "trace.coverage",
)


def layer_unit(name):
    """The unit of a per-layer metric, from its name."""
    if name in _RATIOS:
        return "ratio"
    if name == "sim.us_per_event":
        return "us"
    if name.endswith(("_s", "_p50", "_p90")):
        return "s"
    return "count"


def measure_layers(workload, seed, seconds):
    """The traced run: one untraced campaign (the digest and overhead
    reference, and worker utilisation), then traced campaigns while the
    run's time lasts."""
    started = time.perf_counter()
    untraced = run_campaign(workload, seed)
    remaining = seconds - (time.perf_counter() - started)
    traced = _repeat(
        lambda: run_campaign(workload, seed, layers=True),
        remaining,
    )
    per_campaign = [layer_metrics(run) for run in traced]
    metrics = {
        name: median([values[name] for values in per_campaign])
        for name in per_campaign[0]
    }
    shard_s = [
        span.duration for run in traced
        for span in run.tracer.named("harness.shard")
    ]
    metrics.update({
        "harness.shard_s_p50": percentile(shard_s, 50),
        "harness.shard_s_p90": percentile(shard_s, 90),
        "harness.shard_samples": len(shard_s),
        "harness.shard_tail_samples": tail_count(shard_s, 90),
        "harness.worker_util": untraced.worker_util,
        "trace.overhead": (
            median([run.wall_s for run in traced]) / untraced.wall_s - 1.0
        ),
    })
    metrics = {
        name: (value, layer_unit(name)) for name, value in metrics.items()
    }
    runs = [untraced] + traced
    return Outcome(metrics, runs, _check(runs))
