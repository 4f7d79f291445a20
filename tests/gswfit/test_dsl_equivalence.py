"""DSL built-in fidelity (tier-1).

Eight of the twelve Table 1 operators are defined only as declarative
specs (``repro.gswfit.dsl.builtin_specs``).  For each, on both OS
builds, the spec compiled on its own must reproduce what the operator
classes it replaced produced: the per-type slice of the golden corpus
(``golden_operator_corpus.json``: keys, payloads, descriptions, line
numbers, and the SHA-256 of every mutant's source).  Installing an
in-tree spec again is a no-op; installing a spec that differs replaces
the built-in and re-keys the caches.
"""

import ast
import hashlib
import marshal

import pytest

from repro.faults.types import FaultType
from repro.gswfit.astutils import FunctionImage
from repro.gswfit.dsl import DslOperator, compile_spec, install_spec_operators
from repro.gswfit.dsl.builtin_specs import (
    BUILTIN_SPECS,
    builtin_spec,
    builtin_spec_names,
)
from repro.gswfit.operators import (
    operator_for,
    operator_library,
    operator_provenance,
    reset_dynamic_operators,
)
from tests.gswfit.test_operator_golden import golden_corpus


@pytest.fixture
def dsl_registry():
    """Snapshot/restore the dynamic operator overlay around a test."""
    yield
    reset_dynamic_operators()
    from repro.faults.types import reset_dynamic_fault_types
    from repro.gswfit.cache import clear_scan_cache

    reset_dynamic_fault_types()
    clear_scan_cache()


def _fit_functions(build):
    for display_name, module in build.modules:
        names = list(module.__exports__)
        names.extend(getattr(module, "__internal__", []))
        for name in names:
            yield getattr(module, name), module.__name__


def _variant(name):
    """The in-tree spec for ``name`` with a different description."""
    spec = builtin_spec(name)
    spec["mutation"]["description"] = (
        "variant: " + spec["mutation"]["description"]
    )
    return spec


def test_corpus_covers_at_least_six_builtins():
    assert all(spec["replaces"] for spec in BUILTIN_SPECS.values())
    library = operator_library()
    assert list(library) == list(FaultType)
    compiled = [
        fault_type.value for fault_type, operator in library.items()
        if isinstance(operator, DslOperator)
    ]
    assert compiled == builtin_spec_names() == [
        "MVI", "MVAV", "MVAE", "MIA", "MLAC", "MFC", "MIFS", "WVAV",
    ]
    for name in compiled:
        assert operator_for(name).spec.digest == (
            compile_spec(builtin_spec(name)).spec.digest
        )
    assert {
        fault_type.value: type(operator).__name__
        for fault_type, operator in library.items()
        if not isinstance(operator, DslOperator)
    } == {
        "MLPC": "MissingLocalPartOfAlgorithm",
        "WLEC": "WrongLogicalExpression",
        "WAEP": "WrongArithmeticExpressionInParameter",
        "WPFV": "WrongVariableInParameter",
    }


@pytest.mark.parametrize("name", builtin_spec_names())
def test_sites_and_mutants_equivalent(build, name):
    dsl = compile_spec(builtin_spec(name))
    assert dsl.fault_type is FaultType(name)
    expected = [
        (fields["module"], fields["function"], fields["site_key"],
         fields["lineno"], fields["description"], digest)
        for fields, digest in golden_corpus(build.codename)
        if fields["fault_type"] == name
    ]
    actual = []
    for function, module_name in _fit_functions(build):
        image = FunctionImage(function, module_name=module_name)
        for site in dsl.find_sites(image):
            source = ast.unparse(dsl.mutate(image, site))
            actual.append((
                module_name, function.__name__, site.key, site.lineno,
                site.description,
                hashlib.sha256(source.encode("utf-8")).hexdigest(),
            ))
    assert expected
    assert actual == expected


def test_single_pass_scan_identical_with_dsl_replacements(
        build, dsl_registry):
    """Installing the in-tree specs is a no-op: the library already
    holds operators with the same digests, so provenance stays
    ``builtin`` and the whole-build scan is byte-identical (JSON)."""
    import json

    from repro.gswfit.scanner import scan_build

    def as_json(faultload):
        return json.dumps([loc.to_dict() for loc in faultload.locations])

    reference = as_json(scan_build(build))
    install_spec_operators(
        [builtin_spec(name) for name in builtin_spec_names()]
    )
    for name in builtin_spec_names():
        assert operator_provenance(name) == "builtin"
    assert as_json(scan_build(build)) == reference


def test_fingerprint_changes_when_dsl_replaces_builtin(
        build, dsl_registry):
    """Re-installing the in-tree MVI spec leaves the scan-cache key
    alone; a spec that really differs (another description) replaces
    the built-in, shows ``dsl`` provenance and re-keys the cache."""
    from repro.gswfit.cache import library_fingerprint

    before = library_fingerprint(build)
    install_spec_operators([builtin_spec("MVI")])
    assert library_fingerprint(build) == before
    install_spec_operators([_variant("MVI")])
    assert operator_provenance("MVI") == "dsl"
    assert library_fingerprint(build) != before


def test_dsl_operator_round_trips_through_mutator(build, dsl_registry):
    """Injector-path sanity: a mutant built via the cache layer by a
    user replacement of WVAV matches the built-in mutant code object
    byte for byte."""
    from repro.gswfit.cache import build_mutant_cached, clear_mutant_cache
    from repro.gswfit.scanner import scan_build

    location = next(
        loc for loc in scan_build(build) if loc.fault_type.value == "WVAV"
    )
    clear_mutant_cache()
    _, reference = build_mutant_cached(location)
    clear_mutant_cache()
    (replacement,) = install_spec_operators([_variant("WVAV")])
    assert operator_for("WVAV") is replacement
    _, mutant = build_mutant_cached(location)
    clear_mutant_cache()
    assert marshal.dumps(mutant) == marshal.dumps(reference)
