"""Tier-1 tests: the slot-accounting record and its merge."""

import json
from dataclasses import fields

from repro.harness.campaign import (
    ParallelCampaign,
    ShardOutcome,
    merge_outcomes,
)
from repro.harness.experiment import SlotRunResult
from repro.harness.results import (
    ACCOUNTING_FIELDS,
    DIGEST_FIELDS,
    InjectionIteration,
    merge,
)
from repro.harness.snapshot import snapshot_cache
from repro.reporting.export import export_campaign
from repro.specweb.metrics import MetricsPartial
from tests.harness.test_accounting_golden import _run, golden_config

DIAGNOSTIC_FIELDS = (
    "epochs_booted", "epochs_restored", "pristine_restarts",
    "snapshot_enabled",
)


def test_accounting_fields_are_declared_once():
    """Records inherit the fields; one that redeclares a field would
    shadow its reduction and digest flag."""
    names = {spec.name for spec in ACCOUNTING_FIELDS}
    assert len(names) == 18
    for record in (SlotRunResult, ShardOutcome, InjectionIteration):
        assert set(fields(record)) >= set(ACCOUNTING_FIELDS)
        own = set(vars(record).get("__annotations__", {}))
        assert own.isdisjoint(names), record.__name__


def test_digest_covers_everything_but_epoch_setup():
    assert DIGEST_FIELDS == tuple(
        spec.name for spec in ACCOUNTING_FIELDS
        if spec.name not in DIAGNOSTIC_FIELDS
    )


def test_truncated_seconds_rounds_the_same_serial_and_sharded():
    """A serial run and a campaign used to disagree in the last float
    digit: the serial path kept the raw sum of per-slot increments."""
    increments = [16.666667] * 3 + [18.9] * 2
    run = SlotRunResult()
    for seconds in increments:
        run.truncated_seconds += seconds
    assert run.truncated_seconds == 87.80000100000001
    serial = merge([run])
    assert serial["truncated_seconds"] == 87.800001

    def shard(index, first, seconds):
        return ShardOutcome(
            shard_index=index, first_slot=first, num_slots=1,
            partial=MetricsPartial(), truncated_seconds=seconds,
        )

    outcomes = [shard(i, i, seconds) for i, seconds in enumerate(increments)]
    merged = merge_outcomes(outcomes, iteration=1, num_connections=4)
    assert merged.truncated_seconds == serial["truncated_seconds"]


def test_merge_reduces_each_field_by_its_declared_rule():
    first = SlotRunResult(
        mis=1, faults_injected=2, runtime_stats={"b": 1, "a": 2},
        incidents=[{"t": 1.0, "kind": "MIS"}],
        activations=[{"slot": 0, "hits": 3}],
        integrity_enabled=True, epochs_booted=1,
    )
    second = SlotRunResult(
        mis=2, faults_injected=1, runtime_stats={"a": 1, "c": 5},
        activations=[{"slot": 1, "hits": 0}],
    )
    totals = merge([first, second])
    assert totals["mis"] == 3
    assert totals["faults_injected"] == 3
    assert list(totals["runtime_stats"].items()) == [
        ("a", 3), ("b", 1), ("c", 5),
    ]
    assert [list(r) for r in totals["incidents"]] == [["kind", "t"]]
    assert [r["slot"] for r in totals["activations"]] == [0, 1]
    assert totals["integrity_enabled"] is True
    assert totals["activation_enabled"] is False
    assert totals["epochs_booted"] == 1
    # Fresh containers: mutating the merge never reaches its inputs.
    totals["activations"][0]["hits"] = 99
    totals["runtime_stats"]["a"] = 0
    assert first.activations[0]["hits"] == 3
    assert first.runtime_stats["a"] == 2


def test_iteration_with_every_shard_quarantined_merges_to_defaults():
    iteration = merge_outcomes([], iteration=1, num_connections=4)
    assert iteration.admf == 0
    assert iteration.runtime_stats == {}
    assert iteration.residual_errors is None
    assert iteration.activation_rate is None


def test_resumed_export_is_byte_identical_to_live(tmp_path):
    """Shard records replayed from the journal come back key-sorted; the
    merge must normalise live records the same way, or a resumed
    campaign's export would differ byte-wise from the live one."""
    live = tmp_path / "live"
    _run(live, pristine=False)
    lines = (live / "journal.jsonl").read_text(encoding="utf-8").splitlines()
    shard_rows = [
        row for row, line in enumerate(lines)
        if json.loads(line).get("kind") == "shard"
    ]
    resumed = tmp_path / "resumed"
    resumed.mkdir()
    journal_path = resumed / "journal.jsonl"
    kept = lines[:shard_rows[-3]]
    journal_path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    snapshot_cache().clear()
    config = golden_config()
    result = ParallelCampaign(
        config, workers=1, journal_path=journal_path, resume=True,
    ).run()
    snapshot_cache().clear()
    export_campaign(result, resumed / "export", config=config)
    for name in ("campaign.json", "iterations.csv", "summary.txt"):
        assert ((resumed / "export" / name).read_bytes()
                == (live / "export" / name).read_bytes()), name
