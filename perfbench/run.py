"""End-to-end campaign benchmark: run one workload, print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload canonical --seed 7 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics.  Each metric is printed on its own line with its unit, then the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads,
metrics and the predictions they test are described in
``perfbench/README.md``.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIGESTS = HERE / "reference_digests.json"
# Journals and manifests are written below the checkout, never outside it.
SCRATCH = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def reference_digest(workload, seed):
    references = json.loads(REFERENCE_DIGESTS.read_text())
    return references.get(workload, {}).get(str(seed))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import WORKLOADS, measure_end_to_end, measure_layers

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    tempfile.tempdir = str(scratch)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        outcome = measure(workload, args.seed, args.seconds)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    print(f"workload {workload.name}, seed {args.seed}: "
          f"{len(outcome.runs)} campaign(s), digest {outcome.digest}")
    walls = " ".join(f"{run.wall_s:.3f}" for run in outcome.runs)
    print(f"campaign walls: {walls} s")
    expected = reference_digest(workload.name, args.seed)
    if expected is not None and expected != outcome.digest:
        print(f"digest_changed: expected {expected}, got {outcome.digest}")
    for problem in outcome.problems:
        print(f"incorrect: {problem}")
    for name, (value, unit) in {**outcome.printed,
                                **outcome.metrics}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
