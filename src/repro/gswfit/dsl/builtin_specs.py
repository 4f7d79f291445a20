"""The eight Table 1 built-in operators that are defined as specs.

MVI, MVAV, MVAE, MIA, MLAC, MFC, MIFS and WVAV have no class: the
operator library (:mod:`repro.gswfit.operators`) compiles these specs
on first use and places them in Table 1 order.  Their sites and
mutants are pinned by the golden corpus test
(``tests/gswfit/test_operator_golden.py``), frozen from the classes
they replaced, and the ``dsl-gate`` CI job runs a campaign with them
passed again as ``--operator-spec`` files (a no-op install) and
``cmp``-s the ``metrics_digest`` against a default run.

The remaining four (MLPC, WLEC, WAEP, WPFV) stay classes: MLPC scans
statement *blocks* for maximal runs and WLEC/WAEP/WPFV walk sub-trees
with seen-sets or name tables — search logic beyond what a declarative
pattern + predicate list can state, and deliberately out of the DSL's
scope (DESIGN.md §16).
"""

import json
import pathlib

__all__ = [
    "BUILTIN_SPECS",
    "builtin_spec",
    "builtin_spec_names",
    "write_builtin_specs",
]

#: fault type name → raw spec dict (validated on first use).
BUILTIN_SPECS = {
    "MVI": {
        "fault_type": "MVI",
        "replaces": True,
        "pattern": {"node_types": ["Assign"]},
        "preconditions": [
            {"kind": "in-init-block"},
            {"kind": "simple-constant-assign"},
            {"kind": "name-read-later"},
        ],
        "mutation": {
            "kind": "delete-node",
            "description": "remove initialization '{name} = {value}'",
        },
    },
    "MVAV": {
        "fault_type": "MVAV",
        "replaces": True,
        "pattern": {"node_types": ["Assign"]},
        "preconditions": [
            {"kind": "simple-constant-assign"},
            {"kind": "not-in-init-block"},
            {"kind": "distinguishable-constant"},
        ],
        "mutation": {
            "kind": "delete-node",
            "description": "remove assignment '{name} = {value}'",
        },
    },
    "MVAE": {
        "fault_type": "MVAE",
        "replaces": True,
        "pattern": {"node_types": ["Assign"]},
        "preconditions": [
            {"kind": "value-not-constant"},
            {"kind": "single-name-target"},
            {"kind": "value-has-no-call"},
        ],
        "mutation": {
            "kind": "delete-node",
            "description": "remove assignment to '{target}'",
        },
    },
    "MIA": {
        "fault_type": "MIA",
        "replaces": True,
        "pattern": {"node_types": ["If"]},
        "preconditions": [
            {"kind": "no-else"},
            {"kind": "has-body"},
        ],
        "mutation": {
            "kind": "replace-with-body",
            "description":
                "remove condition 'if {test}:' (keep body)",
        },
    },
    "MLAC": {
        "fault_type": "MLAC",
        "replaces": True,
        "pattern": {"node_types": ["If"]},
        "preconditions": [
            {"kind": "test-is-and-chain"},
        ],
        "mutation": {
            "kind": "remove-bool-operand",
            "field": "test",
            "description":
                "remove 'and {clause}' from branch condition",
        },
    },
    "MFC": {
        "fault_type": "MFC",
        "replaces": True,
        "pattern": {"node_types": ["Expr"]},
        "preconditions": [
            {"kind": "is-call-statement"},
            {"kind": "fit-boundary"},
        ],
        "mutation": {
            "kind": "delete-node",
            "description": "remove call '{call}'",
        },
    },
    "MIFS": {
        "fault_type": "MIFS",
        "replaces": True,
        "pattern": {"node_types": ["If"]},
        "preconditions": [
            {"kind": "no-else"},
            {"kind": "body-size", "min": 1, "max": 5},
            {"kind": "no-control-transfer"},
        ],
        "mutation": {
            "kind": "delete-node",
            "description":
                "remove 'if {test}:' and its {body_count} statement(s)",
        },
    },
    "WVAV": {
        "fault_type": "WVAV",
        "replaces": True,
        "pattern": {"node_types": ["Assign"]},
        "preconditions": [
            {"kind": "simple-constant-assign"},
            {"kind": "interesting-constant"},
        ],
        "mutation": {
            "kind": "perturb-constant",
            "field": "value",
            "description":
                "'{name} = {old}' becomes '{name} = {new}'",
        },
    },
}


def builtin_spec_names():
    """The built-in fault types defined as specs, in Table 1 order."""
    return list(BUILTIN_SPECS)


def builtin_spec(name):
    """A deep copy of the raw spec dict for ``name`` (e.g. ``"MVI"``)."""
    return json.loads(json.dumps(BUILTIN_SPECS[name]))


def write_builtin_specs(directory):
    """Write each built-in spec to ``directory`` as ``<name>.json``.

    Returns the written paths — the ``dsl-gate`` CI job uses this to
    materialize spec files for ``--operator-spec`` without keeping a
    second, driftable copy of the corpus in the repository.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, spec in BUILTIN_SPECS.items():
        path = directory / f"{name}.json"
        path.write_text(
            json.dumps(spec, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        paths.append(path)
    return paths
