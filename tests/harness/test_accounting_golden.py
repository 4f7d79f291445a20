"""Tier-1 golden pin: absolute values of the slot-accounting outputs.

The determinism gates compare two runs with each other; this test pins
one campaign's outputs to fixed values, so a refactor of how the
accounting fields are merged, journaled, hashed, exported or summarised
cannot shift any of them unnoticed.  The config (nt50/apache, 24
faults, 4 connections, seed 1, adaptive slots, auditing on) leaks heap
in three slots, so contamination, verified reboots, snapshot restores,
activation and truncation are all non-trivial.  The pristine-slot
variant adds pristine restarts, and its tight per-operation CPU budget
makes the watchdog kill CPU-hogging servers (KCP), which the default
config never does.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.harness.campaign import ParallelCampaign
from repro.harness.config import ExperimentConfig
from repro.harness.results import InjectionIteration
from repro.harness.snapshot import DEFAULT_CACHE_ENTRIES, snapshot_cache
from repro.reporting.export import export_campaign

GOLDEN = {
    "default": {
        "metrics_digest": (
            "b4e8c60b71e6d7c312181d9218c8f9c1e9d684689038ad8573a5f09c096d4401"
        ),
        "campaign_json_sha256": (
            "58f97cc4b89b4afa03b0323b864d744f5fc4e86cf15660a8ac55f130a46df545"
        ),
        "journal_shards_sha256": (
            "d30bb148e8c8c080509ab7d38cf8468131b5e546a34eb0eb52ac293bac5f9404"
        ),
        "integrity": {
            "enabled": True, "reboot_budget": 2, "contaminated_slots": 3,
            "reboots": 3, "unrebooted_contamination": 0,
            "unverified_reboots": 0, "violation_kinds": {"heap-leak": 3},
        },
        "activation": {
            "enabled": True, "adaptive": True, "faults_injected": 72,
            "faults_activated": 36, "activation_rate": 0.5,
            "slots_truncated": 21, "sim_seconds_saved": 178.5,
            "deadline_functions": 28,
        },
        "snapshot": {
            "enabled": True, "pristine_slots": False, "epochs_booted": 12,
            "epochs_restored": 3, "pristine_restarts": 0,
            "restore_rate": 0.2,
        },
    },
    "pristine": {
        "metrics_digest": (
            "8769bb64a2a8f70059c3740921f364fcb90044d80d8302989edd23ff415bf0cf"
        ),
        "campaign_json_sha256": (
            "d6d0fbcab9386f6c0b85820eec2d65a538714f7055f50f5596cdb4f12ea142bb"
        ),
        "journal_shards_sha256": (
            "a415e5d129a60dafe6409cf6fba1014044e27c80de67d08d068f2054d6049653"
        ),
        "integrity": {
            "enabled": True, "reboot_budget": 2, "contaminated_slots": 62,
            "reboots": 0, "unrebooted_contamination": 62,
            "unverified_reboots": 0, "violation_kinds": {"heap-leak": 62},
        },
        "activation": {
            "enabled": True, "adaptive": True, "faults_injected": 72,
            "faults_activated": 34, "activation_rate": 0.472222,
            "slots_truncated": 23, "sim_seconds_saved": 195.095238,
            "deadline_functions": 28,
        },
        "snapshot": {
            "enabled": True, "pristine_slots": True, "epochs_booted": 12,
            "epochs_restored": 60, "pristine_restarts": 60,
            "restore_rate": 0.833333,
        },
    },
}


def golden_config(pristine=False):
    config = ExperimentConfig.scaled(fault_sample=24, connections=4)
    config.os_codename = "nt50"
    config.server_name = "apache"
    config.seed = 1
    config.adaptive_slots = True
    config.integrity_audit = True
    config.pristine_slots = pristine
    if pristine:
        config.operation_budget_seconds = 0.25
    return config


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _journal_shard_lines(path):
    return [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if json.loads(line).get("kind") == "shard"
    ]


def _run(directory, pristine):
    # Restores depend on what the process-wide snapshot cache already
    # holds: start every run from an empty default-sized cache.
    cache = snapshot_cache()
    cache.resize(DEFAULT_CACHE_ENTRIES)
    cache.clear()
    config = golden_config(pristine=pristine)
    campaign = ParallelCampaign(
        config, workers=1, journal_path=directory / "journal.jsonl",
    )
    result = campaign.run(
        include_baseline=not pristine, include_profile_mode=not pristine,
    )
    cache.clear()
    export_campaign(result, directory / "export", config=config)
    shard_lines = _journal_shard_lines(campaign.journal_path)
    manifest = campaign.manifest
    return {
        "result": result,
        "metrics_digest": manifest.metrics_digest,
        "campaign_json_sha256": _sha256(
            (directory / "export" / "campaign.json").read_bytes()
        ),
        "journal_shards_sha256": _sha256(
            "\n".join(shard_lines).encode("utf-8")
        ),
        "integrity": manifest.integrity,
        "activation": manifest.activation,
        "snapshot": manifest.snapshot,
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return {
        variant: _run(root / variant, pristine=variant == "pristine")
        for variant in GOLDEN
    }


@pytest.mark.parametrize("variant", sorted(GOLDEN))
@pytest.mark.parametrize("item", [
    "metrics_digest", "campaign_json_sha256", "journal_shards_sha256",
    "integrity", "activation", "snapshot",
])
def test_accounting_outputs_match_golden(runs, variant, item):
    assert runs[variant][item] == GOLDEN[variant][item]


def test_every_accounting_field_is_exercised(runs):
    """A pin over all-default values would not notice a dropped field:
    every accounting field must be non-default in at least one run."""
    names = [
        spec.name for spec in dataclasses.fields(InjectionIteration)
        if spec.name not in ("iteration", "metrics")
    ]
    assert len(names) == 18
    idle = [
        name for name in names
        if not any(
            getattr(iteration, name)
            for run in runs.values()
            for iteration in run["result"].iterations
        )
    ]
    assert idle == []
