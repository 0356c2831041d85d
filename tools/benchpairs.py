"""Alternating perfbench pairs: a parent checkout against a changed one.

For each workload, and for each of N consecutive seeds, runs
``perfbench/run.py --trace 0`` in the parent checkout and in the changed
one, each from its own root, the parent first in even pairs and the
change first in odd ones, so the two alternate over the whole session
and share its drift.  It then prints, for every
end-to-end metric of the changed checkout's ``BENCHMARK.json``, the
median of each side, the relative change of the medians, the distance
between the quartiles of the parent's runs, and in how many pairs the
change was better.  Its first line gives each checkout's line count of
``src/nsgbounds/*.py``, the size reported next to the timings.  A run
whose gates fail stops the script.  Example:

    python tools/benchpairs.py ../parent . --workload lgm-serial --pairs 10 --seed 701

Every run lasts the ``run_seconds`` that ``BENCHMARK.json`` fixes, so both
sides run as the benchmark does.  Each run writes its record under its
checkout's ``perfbench/out/``.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """The metric values of one untraced perfbench run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        sys.exit(f"benchpairs: {workload} seed {seed} failed in {checkout} "
                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def src_lines(checkout: str) -> int:
    """The number of lines in ``checkout``'s ``src/nsgbounds/*.py``."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "nsgbounds", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def summary(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: medians, relative change, parent quartile gap, pairs better."""
    lines = [f"{'metric':<18}{'parent':>12}{'change':>12}{'rel':>9}{'IQR(p)':>11}  better"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        ma, mb = statistics.median(a), statistics.median(b)
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
        better = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        rel = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        lines.append(f"{name:<18}{ma:>12.5g}{mb:>12.5g}{rel:>9}{q3 - q1:>11.3g}"
                     f"  {better} of {len(a)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: every one)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="the first seed (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    lines = src_lines(args.parent), src_lines(args.change)
    print(f"src/nsgbounds/*.py: parent {lines[0]} lines, change {lines[1]} "
          f"({lines[1] - lines[0]:+d})", flush=True)
    for workload in workloads:
        parent, change = [], []
        for i, seed in enumerate(range(args.seed, args.seed + args.pairs)):
            sides = [(parent, args.parent), (change, args.change)]
            for runs, checkout in sides[::-1] if i % 2 else sides:
                runs.append(run_once(checkout, workload, seed, spec["run_seconds"]))
        print(f"{workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
              f"{spec['run_seconds']} s runs")
        print("\n".join(summary(spec["end_to_end"], parent, change)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
