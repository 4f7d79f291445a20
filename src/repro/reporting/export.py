"""Result export: one benchmark campaign → a results directory.

Dependability benchmarks live or die by their reporting discipline: the
paper's Section 2 requires that results be reproducible by other teams,
which in practice means machine-readable artifacts, not terminal
scrollback.  ``export_campaign`` writes everything one run produced —
configuration, per-iteration rows, averages, derived dependability
metrics — as JSON and CSV into a directory another team can diff.
"""

import dataclasses
import json
import shutil
from pathlib import Path

from repro.harness.metrics import DependabilityMetrics
from repro.harness.results import DIGEST_FIELDS
from repro.reporting.tables import TableBuilder

__all__ = [
    "export_campaign",
    "export_faultload_summary",
    "load_campaign_report",
]


# Accounting fields already shown in the Table 5 ``row``.
_ROW_FIELDS = ("mis", "kns", "kcp")


def _metrics_dict(metrics):
    if metrics is None:
        return None
    if dataclasses.is_dataclass(metrics):
        return dataclasses.asdict(metrics)
    return dict(metrics)


def export_campaign(result, directory, config=None, manifest=None,
                    telemetry_path=None):
    """Write one :class:`~repro.harness.results.BenchmarkResult`.

    Produces in ``directory``:

    * ``campaign.json`` — everything, machine readable;
    * ``iterations.csv`` — the Table 5 rows;
    * ``summary.txt`` — the human-readable table;
    * ``run_manifest.json`` — when a
      :class:`~repro.harness.telemetry.RunManifest` is passed;
    * ``telemetry.jsonl`` — a copy of the supervision event stream,
      when ``telemetry_path`` names an existing file.

    Returns the list of written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    payload = {
        "server": result.server_name,
        "os": result.os_codename,
        "os_display": result.os_display,
        "baseline": _metrics_dict(result.baseline),
        "profile_mode": _metrics_dict(result.profile_mode),
        "iterations": [
            {
                "iteration": iteration.iteration,
                "row": iteration.as_row(),
                **{
                    name: getattr(iteration, name)
                    for name in DIGEST_FIELDS if name not in _ROW_FIELDS
                },
            }
            for iteration in result.iterations
        ],
        "average": result.average_row(),
        "degraded": result.degraded,
        "quarantine": result.quarantine,
        "sequential": result.sequential or {"enabled": False},
        "dependability": (
            DependabilityMetrics.from_results(result).as_dict()
            if (result.profile_mode or result.baseline)
            and result.iterations else None
        ),
    }
    if config is not None:
        payload["config"] = {
            "seed": config.seed,
            "connections": config.client.connections,
            "fault_sample": config.fault_sample,
            "slot_seconds": config.rules.slot_seconds,
            "iterations": config.rules.iterations,
        }
    json_path = directory / "campaign.json"
    json_path.write_text(json.dumps(payload, indent=2))
    written.append(json_path)

    table = TableBuilder(
        ["iteration", "SPC", "THR", "RTM", "ER%", "MIS", "KCP", "KNS",
         "RES", "ACT%"]
    )
    for iteration in result.iterations:
        row = iteration.as_row()
        act = row.get("ACT%")
        table.add_row(
            iteration.iteration, f"{row['SPC']:.2f}",
            f"{row['THR']:.2f}", f"{row['RTM']:.2f}",
            f"{row['ER%']:.2f}", row["MIS"], row["KCP"], row["KNS"],
            row["RES"], None if act is None else f"{act:.2f}",
        )
    csv_path = directory / "iterations.csv"
    csv_path.write_text(table.to_csv())
    written.append(csv_path)

    summary_path = directory / "summary.txt"
    summary_lines = [
        f"{result.server_name} on {result.os_display}",
        table.render(),
    ]
    average = result.average_row()
    if average:
        summary_lines.append(
            "average: " + ", ".join(
                f"{key}={value:.2f}" if value is not None
                else f"{key}=-"
                for key, value in average.items()
            )
        )
    sequential = result.sequential or {}
    if sequential.get("enabled"):
        saved = sequential.get("slots_saved_percent")
        saved_text = "n/a" if saved is None else f"{saved:.1f}%"
        summary_lines.append(
            f"slots saved: {sequential['slots_skipped']} of "
            f"{sequential['planned_slots']} planned slot(s) skipped "
            f"({saved_text}) — sequential sampling at ci-target "
            f"{sequential['ci_target']}, confidence "
            f"{sequential['ci_confidence']}"
        )
        from repro.reporting.report import sequential_strata_table
        summary_lines.append(sequential_strata_table(sequential).render())
    if result.degraded:
        summary_lines.append(
            f"DEGRADED: {len(result.quarantine)} shard(s) quarantined "
            "— metrics cover the surviving slots only"
        )
    summary_path.write_text("\n".join(summary_lines) + "\n")
    written.append(summary_path)

    if manifest is not None:
        written.append(manifest.write(directory / "run_manifest.json"))
    if telemetry_path is not None and Path(telemetry_path).exists():
        telemetry_copy = directory / "telemetry.jsonl"
        shutil.copyfile(telemetry_path, telemetry_copy)
        written.append(telemetry_copy)
    return written


def load_campaign_report(directory):
    """Read an :func:`export_campaign` directory back as one document.

    Combines ``campaign.json`` with the run manifest (when present), so
    a consumer — the service daemon's ``/report`` endpoint, a results
    dashboard — gets the metrics *and* the identity that certifies them
    (campaign key, metrics digest) in a single JSON object.  Raises
    :class:`FileNotFoundError` when the directory holds no export.
    """
    directory = Path(directory)
    campaign_path = directory / "campaign.json"
    if not campaign_path.exists():
        raise FileNotFoundError(f"no campaign export in {directory}")
    report = json.loads(campaign_path.read_text(encoding="utf-8"))
    manifest_path = directory / "run_manifest.json"
    if manifest_path.exists():
        report["manifest"] = json.loads(
            manifest_path.read_text(encoding="utf-8")
        )
    return report


def export_faultload_summary(faultload, directory):
    """Write a faultload's JSON plus a per-type/per-function summary."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    faultload_path = directory / "faultload.json"
    faultload.save(faultload_path)
    written.append(faultload_path)

    from repro.gswfit.operators import operator_provenance

    counts = faultload.counts_by_type()
    summary = {
        "name": faultload.name,
        "os": faultload.os_codename,
        "total": len(faultload),
        "by_type": {
            fault_type.value: count
            for fault_type, count in counts.items()
        },
        "operator_provenance": {
            fault_type.value: operator_provenance(fault_type)
            for fault_type in counts
        },
        "by_function": {
            f"{module}!{function}": count
            for (module, function), count
            in sorted(faultload.counts_by_function().items())
        },
    }
    summary_path = directory / "faultload_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2))
    written.append(summary_path)
    return written
