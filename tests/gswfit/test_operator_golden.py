"""Tier-1 golden pin: every site and every mutant of the operator library.

The whole-build scan of both OS builds (all twelve Table 1 fault types,
internal helpers included) is frozen in ``golden_operator_corpus.json``:
per location its ``FaultLocation.to_dict()`` fields, in scan order, plus
the SHA-256 of the mutant's unparsed source.  Whatever implements an
operator — a class or a compiled spec — must reproduce this corpus
exactly, so moving a fault type from one to the other cannot shift a
site key, a description, a line number or a mutant unnoticed.

The mutant is hashed as ``ast.unparse`` text rather than marshalled
bytecode: bytecode differs between the Python versions tier-1 runs on.

Regenerate (only when a behaviour change is intended) with
``PYTHONPATH=src python -m tests.gswfit.test_operator_golden``.
"""

import hashlib
import json
from pathlib import Path

from repro.gswfit.mutator import mutated_source
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT50, NT51

GOLDEN_PATH = Path(__file__).with_name("golden_operator_corpus.json")

#: Per-site fields after the (module, display_module, function) group.
SITE_FIELDS = ("fault_type", "site_key", "lineno", "description")


def _mutant_sha256(location):
    return hashlib.sha256(
        mutated_source(location).encode("utf-8")
    ).hexdigest()


def corpus_of(build):
    """``[(to_dict(), mutant_sha256)]`` for the build, in scan order."""
    return [
        (location.to_dict(), _mutant_sha256(location))
        for location in scan_build(build, include_internal=True)
    ]


def _grouped(corpus):
    """Compact form: one entry per function, one row per site."""
    groups = []
    for fields, digest in corpus:
        head = [fields["module"], fields["display_module"],
                fields["function"]]
        if not groups or groups[-1][:3] != head:
            groups.append(head + [[]])
        groups[-1][3].append(
            [fields[name] for name in SITE_FIELDS] + [digest]
        )
    return groups


def _flattened(groups):
    corpus = []
    for module, display_module, function, sites in groups:
        for *values, digest in sites:
            fields = {
                "module": module,
                "display_module": display_module,
                "function": function,
            }
            fields.update(zip(SITE_FIELDS, values))
            corpus.append((fields, digest))
    return corpus


def _load_golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def golden_corpus(codename):
    """The frozen ``[(to_dict(), mutant_sha256)]`` of one build."""
    return _flattened(_load_golden()[codename])


def write_golden():
    text = json.dumps(
        {build.codename: _grouped(corpus_of(build))
         for build in (NT50, NT51)},
        separators=(",", ":"),
    )
    # One function group per line keeps diffs of the file readable.
    GOLDEN_PATH.write_text(
        text.replace("]]],[", "]]],\n[") + "\n", encoding="utf-8",
    )


def test_golden_corpus_size():
    golden = _load_golden()
    sizes = {codename: len(_flattened(groups))
             for codename, groups in golden.items()}
    assert sizes == {"nt50": 394, "nt51": 610}
    fault_types = {
        fields["fault_type"]
        for groups in golden.values()
        for fields, _digest in _flattened(groups)
    }
    assert len(fault_types) == 12


def test_sites_and_mutants_match_golden(build):
    expected = golden_corpus(build.codename)
    actual = corpus_of(build)
    assert len(actual) == len(expected)
    for (fields, digest), (want_fields, want_digest) in zip(
            actual, expected):
        assert fields == want_fields
        assert digest == want_digest, (
            f"mutant of {fields['function']} {fields['fault_type']} "
            f"site {fields['site_key']} changed"
        )


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN_PATH}")
