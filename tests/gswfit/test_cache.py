"""Tests for the scan cache (tier-1: runs in the default suite)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.faults.faultload import Faultload
from repro.gswfit import cache as cache_module
from repro.gswfit.cache import (
    cache_key,
    cache_path,
    clear_scan_cache,
    library_fingerprint,
    scan_build_cached,
)
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT50, NT51


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_scan_cache()
    yield
    clear_scan_cache()


def ids(faultload):
    return [loc.fault_id for loc in faultload]


def test_cached_scan_equals_direct_scan():
    assert ids(scan_build_cached(NT50)) == ids(scan_build(NT50))


def test_memory_cache_scans_once(monkeypatch):
    calls = []
    real = cache_module.scan_build

    def counting(build, include_internal=True):
        calls.append(build.codename)
        return real(build, include_internal=include_internal)

    monkeypatch.setattr(cache_module, "scan_build", counting)
    first = scan_build_cached(NT50)
    second = scan_build_cached(NT50)
    assert calls == ["nt50"]
    assert ids(first) == ids(second)
    # Distinct wrapper objects: deriving/flagging one cannot poison the
    # cache for the next caller.
    assert first is not second
    first.prepared = True
    assert not scan_build_cached(NT50).prepared


def test_disk_cache_survives_memory_clear(tmp_path, monkeypatch):
    calls = []
    real = cache_module.scan_build

    def counting(build, include_internal=True):
        calls.append(build.codename)
        return real(build, include_internal=include_internal)

    monkeypatch.setattr(cache_module, "scan_build", counting)
    first = scan_build_cached(NT50, cache_dir=tmp_path)
    assert calls == ["nt50"]
    key = cache_key(NT50)
    assert cache_path(tmp_path, key).exists()
    clear_scan_cache()
    second = scan_build_cached(NT50, cache_dir=tmp_path)
    assert calls == ["nt50"]  # loaded from disk, not rescanned
    assert ids(first) == ids(second)


def test_cache_keys_separate_builds_and_scopes():
    keys = {
        cache_key(NT50, include_internal=True),
        cache_key(NT50, include_internal=False),
        cache_key(NT51, include_internal=True),
    }
    assert len(keys) == 3
    assert ids(scan_build_cached(NT50)) != ids(scan_build_cached(NT51))
    full = scan_build_cached(NT50, include_internal=True)
    exports = scan_build_cached(NT50, include_internal=False)
    assert len(exports) < len(full)


def test_fingerprint_is_stable_and_in_filename(tmp_path):
    fingerprint = library_fingerprint(NT50)
    assert fingerprint == library_fingerprint(NT50)
    path = cache_path(tmp_path, cache_key(NT50))
    assert fingerprint[:16] in path.name
    # A different fingerprint names a different file — stale entries are
    # invisible rather than served.
    stale = ("nt50", "f" * 64, True)
    assert cache_path(tmp_path, stale) != path


def test_disk_roundtrip_preserves_faultload_fidelity(tmp_path):
    """The cache is only sound if save/load is lossless."""
    original = scan_build(NT50)
    path = tmp_path / "fl.json"
    original.save(path)
    restored = Faultload.load(path)
    assert restored.os_codename == original.os_codename
    assert restored.name == original.name
    assert ids(restored) == ids(original)
    assert [loc.to_dict() for loc in restored] == [
        loc.to_dict() for loc in original
    ]


# ----------------------------------------------------------------------
# Fingerprints cover operator code outside the class body / spec JSON
# ----------------------------------------------------------------------
_FINGERPRINT_SCRIPT = """
from repro.faults.location import FaultLocation
from repro.faults.types import FaultType
from repro.gswfit.cache import library_fingerprint, mutant_fingerprint
from repro.ossim.builds import NT50

print(library_fingerprint(NT50))
for fault_type in FaultType:
    print(fault_type.value, mutant_fingerprint(FaultLocation(
        module="repro.ossim.modules.ntdll50", display_module="Ntdll",
        function="RtlInitUnicodeString", fault_type=fault_type,
        site_key="0",
    )))
"""

#: (marker that locates the file, old text, new text, fault type whose
#: mutant fingerprint must move) — edits to code an operator calls but
#: that is neither its class body nor its spec JSON.
_OPERATOR_CODE_EDITS = {
    "perturb_constant": (
        "def perturb_constant(value):",
        "return value + 1", "return value + 2", "WVAV",
    ),
    "MLPC_MAX_REMOVED": (
        "MLPC_MAX_REMOVED = 3",
        "MLPC_MAX_REMOVED = 3", "MLPC_MAX_REMOVED = 2", "MLPC",
    ),
    "WLEC _SWAP": (
        "\n_SWAP = {",
        "ast.Lt: ast.LtE,", "ast.Lt: ast.Gt,", "WLEC",
    ),
    "DSL predicate": (
        "class _InInitBlock(Predicate):",
        "position < prefix", "position <= prefix", "MVI",
    ),
    "DSL mutation rule": (
        "class _DeleteNode(MutationRule):",
        "replace_statement(tree, node, [])",
        "replace_statement(tree, node, [ast.Pass()])", "MFC",
    ),
    "astutils helper": (
        "def is_simple_constant_assign(stmt):",
        "and len(stmt.targets) == 1", "and len(stmt.targets) >= 1",
        "MVAV",
    ),
}


def _fingerprints(package_root):
    env = dict(os.environ, PYTHONPATH=str(package_root),
               PYTHONDONTWRITEBYTECODE="1")
    output = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        cwd=package_root, env=env, check=True,
        capture_output=True, text=True,
    ).stdout.splitlines()
    return output[0], dict(line.split() for line in output[1:])


@pytest.fixture(scope="module")
def package_copy(tmp_path_factory):
    """A private copy of the package plus its unedited fingerprints."""
    root = tmp_path_factory.mktemp("src")
    shutil.copytree(
        Path(repro.__file__).parent, root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root, _fingerprints(root)


@pytest.mark.parametrize("edit", sorted(_OPERATOR_CODE_EDITS))
def test_fingerprints_cover_operator_code(package_copy, edit):
    """Editing a helper, constant or DSL rule an operator calls re-keys
    the scan and mutant caches — otherwise ``--cache-dir`` would serve
    faultloads and mutants built by the old code."""
    root, (library_before, mutants_before) = package_copy
    marker, old, new, fault_type = _OPERATOR_CODE_EDITS[edit]
    (path,) = [
        path for path in sorted((root / "repro" / "gswfit").rglob("*.py"))
        if marker in path.read_text(encoding="utf-8")
    ]
    original = path.read_text(encoding="utf-8")
    assert old in original
    path.write_text(original.replace(old, new, 1), encoding="utf-8")
    try:
        library_after, mutants_after = _fingerprints(root)
    finally:
        path.write_text(original, encoding="utf-8")
    assert library_after != library_before
    assert mutants_after[fault_type] != mutants_before[fault_type]
