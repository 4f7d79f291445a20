"""Bench: the operator-spec DSL pays its way.

**Compilation is off the hot path** (DESIGN.md §16): validating and
compiling the whole in-tree spec corpus (the eight Table 1 built-ins
defined as specs) costs less than a single whole-build scan, so a
campaign that installs user specs at start-up pays a one-time fee that
is invisible next to the scan it feeds (and the scan itself is
cached).  Scan speed is gated by the ``single_pass_scan`` record of
``benchmarks/test_hot_path.py`` and by the end-to-end ``setup_s``
metric of ``perfbench``.

Results are written to ``BENCH_dsl.json`` at the repo root.  Set
``REPRO_BENCH_SMOKE=1`` (the CI bench-smoke job does) to shrink the
workload — smoke mode checks the machinery, not the numbers.
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.gswfit.astutils import FunctionImage
from repro.gswfit.dsl import OperatorSpec, compile_spec
from repro.gswfit.dsl.builtin_specs import builtin_spec, builtin_spec_names
from repro.gswfit.operators import collect_sites, operator_library
from repro.ossim.builds import NT50, NT51

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
COMPILE_ROUNDS = 3 if SMOKE else 10

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_dsl.json"
RESULTS = {}


def _fit_functions(build):
    for _display_name, module in build.modules:
        names = list(module.__exports__)
        names.extend(getattr(module, "__internal__", []))
        for name in names:
            yield module, getattr(module, name)


def _fresh_images():
    # Fresh images keep the per-image lazy caches cold.
    return [
        FunctionImage(function, module_name=module.__name__)
        for build in (NT50, NT51)
        for module, function in _fit_functions(build)
    ]


# ----------------------------------------------------------------------
# Spec compilation: a start-up fee, not a hot path
# ----------------------------------------------------------------------
def test_spec_compile_overhead(benchmark):
    corpus = [builtin_spec(name) for name in builtin_spec_names()]

    def regenerate():
        started = time.perf_counter()
        for _ in range(COMPILE_ROUNDS):
            for raw in corpus:
                compile_spec(OperatorSpec.from_dict(raw))
        compile_all = (time.perf_counter() - started) / COMPILE_ROUNDS
        operators = list(operator_library().values())
        images = _fresh_images()
        started = time.perf_counter()
        for image in images:
            collect_sites(image, operators)
        scan = time.perf_counter() - started
        return compile_all, scan

    compile_all, scan = benchmark.pedantic(regenerate, rounds=1,
                                           iterations=1)
    per_spec = compile_all / len(corpus)
    scans_per_compile = scan / max(compile_all, 1e-9)
    RESULTS["spec_compile"] = {
        "specs": len(corpus),
        "compile_ms_per_spec": round(per_spec * 1e3, 4),
        "corpus_compile_ms": round(compile_all * 1e3, 3),
        "scans_per_compile": round(scans_per_compile, 1),
    }
    print()
    print(f"compile: {per_spec * 1e3:.3f}ms/spec  "
          f"corpus={compile_all * 1e3:.2f}ms  "
          f"= 1/{scans_per_compile:.0f} of a build scan")
    assert compile_all < scan, (
        f"compiling {len(corpus)} specs ({compile_all * 1e3:.1f}ms) "
        f"costs more than a whole-build scan ({scan * 1e3:.1f}ms)"
    )


# ----------------------------------------------------------------------
# Emit the checked-in record (runs last in this file)
# ----------------------------------------------------------------------
def test_write_bench_json():
    assert RESULTS, "run the DSL benches before the JSON writer"
    payload = {
        "bench": "dsl",
        "python": sys.version.split()[0],
        "smoke": SMOKE,
        **RESULTS,
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
