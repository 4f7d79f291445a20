"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/spread.py --workload canonical --seeds 1-10 [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartile as a share of the median, and for
the end-to-end metrics whether that spread is within the metric's bound
in ``BENCHMARK.json`` and within a third of it.  Exits with code 1 when a
run fails or reports ``correct: false``.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        return None
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"]
              for metric in declared["end_to_end"]}
    values = {}
    ok = True
    for seed in args.seeds:
        started = time.perf_counter()
        result = run_once(args.workload, seed, declared["run_seconds"],
                          args.trace)
        if result is None or not result["correct"]:
            print(f"seed {seed}: failed or incorrect")
            ok = False
            continue
        figures = " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()
        )
        print(f"seed {seed}: {time.perf_counter() - started:.1f} s, "
              f"{result['attempted']} slots, {result['failed']} failed, "
              f"{figures}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        spread = quartile_spread(series)
        line = f"{name}: median {median(series):.6g}"
        if spread is not None:
            line += f", spread {spread:.3f}"
        if name in bounds and spread is not None:
            bound = bounds[name]
            verdict = ("within a third of" if spread <= bound / 3
                       else "within" if spread <= bound else "OVER")
            line += f" ({verdict} bound {bound})"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
