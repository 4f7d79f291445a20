"""DSL operators through the campaign stack (tier-1).

The in-tree version of the ``dsl-gate`` CI job: eight of the Table 1
built-ins are compiled specs, so a campaign run on the in-tree library
and the same campaign run with those specs passed again as
``operator_specs`` must land on the same ``metrics_digest`` —
installing them is a no-op.  Plus the plumbing around it:
``operator_specs`` in the campaign key, in service specs, and the CLI's
rc-2 validation path.
"""

import json

import pytest

from repro.faults.types import reset_dynamic_fault_types
from repro.gswfit.dsl.builtin_specs import (
    builtin_spec,
    builtin_spec_names,
    write_builtin_specs,
)
from repro.gswfit.operators import reset_dynamic_operators
from repro.harness.campaign import ParallelCampaign, campaign_key
from tests.harness.test_supervised_campaign import tiny_config


@pytest.fixture
def dsl_registry():
    yield
    reset_dynamic_operators()
    reset_dynamic_fault_types()
    from repro.gswfit.cache import clear_mutant_cache, clear_scan_cache

    clear_scan_cache()
    clear_mutant_cache()


def _all_replacement_specs():
    return tuple(
        builtin_spec(name) for name in builtin_spec_names()
    )


def _run(tmp_path, name, config):
    campaign = ParallelCampaign(
        config, workers=1,
        journal_path=tmp_path / name / "journal.jsonl",
    )
    campaign.run(include_baseline=False, include_profile_mode=False)
    return campaign


def test_digest_parity_builtin_vs_dsl(tmp_path, dsl_registry):
    config = tiny_config()
    reference = _run(tmp_path, "builtin", config)

    dsl_config = tiny_config()
    dsl_config.operator_specs = _all_replacement_specs()
    dsl = _run(tmp_path, "dsl", dsl_config)

    assert (dsl.manifest.metrics_digest
            == reference.manifest.metrics_digest)
    # The campaign identity differs (the spec digests are part of it),
    # so the two runs cannot share a journal by accident...
    assert dsl.manifest.campaign_key != reference.manifest.campaign_key
    # ...but the library is the same one: the in-tree specs are already
    # the built-ins, so installing them changes no operator.
    assert (dsl.manifest.build_fingerprint
            == reference.manifest.build_fingerprint)


def test_campaign_key_sensitive_to_operator_specs(dsl_registry):
    from repro.harness.experiment import WebServerExperiment

    config = tiny_config()
    faultload = WebServerExperiment(config).prepared_faultload()
    base_key = campaign_key(config, faultload)
    config.operator_specs = (builtin_spec("MVI"),)
    assert campaign_key(config, faultload) != base_key


def test_service_spec_accepts_operator_specs_list(tmp_path):
    from repro.harness.service.spec import namespace_from_spec

    paths = write_builtin_specs(tmp_path / "specs")
    args = namespace_from_spec({
        "server": "apache",
        "faults": 8,
        "operator_specs": [str(path) for path in paths],
    })
    assert args.operator_specs == [str(path) for path in paths]


def test_service_spec_rejects_bad_spec_file(tmp_path):
    from repro.harness.service.spec import SpecError, namespace_from_spec

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "fault_type": "MVI",
        "replaces": True,
        "pattern": {"node_types": ["Assgn"]},
        "mutation": {"kind": "delete-node"},
    }))
    with pytest.raises(SpecError, match=r"\$\.pattern\.node_types\[0\]"):
        namespace_from_spec({
            "server": "apache",
            "operator_specs": [str(bad)],
        })


def test_service_spec_rejects_non_scalar_list_items():
    from repro.harness.service.spec import SpecError, namespace_from_spec

    with pytest.raises(SpecError, match="must be scalars"):
        namespace_from_spec({
            "server": "apache",
            "operator_specs": [{"nested": "object"}],
        })


def test_cli_campaign_rejects_malformed_spec_rc2(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "fault_type": "MVI",
        "replaces": True,
        "pattern": {"node_types": ["Assgn"]},
        "mutation": {"kind": "delete-node"},
    }))
    code = main([
        "campaign", "--faults", "8", "--workers", "1",
        "--no-baseline", "--no-profile",
        "--operator-spec", str(bad),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "$.pattern.node_types[0]" in err
    assert str(bad) in err


def test_cli_campaign_rejects_missing_spec_file_rc2(capsys):
    from repro.cli import main

    code = main([
        "campaign", "--operator-spec", "/nonexistent/spec.json",
    ])
    assert code == 2
    assert "--operator-spec" in capsys.readouterr().err


def test_cli_campaign_rejects_duplicate_fault_type_rc2(
        tmp_path, capsys):
    from repro.cli import main

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(builtin_spec("MVI")))
    b.write_text(json.dumps(builtin_spec("MVI")))
    code = main([
        "campaign",
        "--operator-spec", str(a), "--operator-spec", str(b),
    ])
    assert code == 2
    assert "duplicate spec" in capsys.readouterr().err


def test_cli_scan_with_operator_spec(tmp_path, capsys, dsl_registry):
    from repro.cli import main

    (tmp_path / "mvi.json").write_text(
        json.dumps(builtin_spec("MVI"))
    )
    code = main([
        "scan", "--os", "nt50",
        "--operator-spec", str(tmp_path / "mvi.json"),
    ])
    assert code == 0
    assert "fault locations" in capsys.readouterr().out
