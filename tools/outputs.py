"""The output gate: SHA-256 digests of what a fixed set of CLI runs print.

Each run starts ``python -m nsgbounds`` on the package in this checkout's
``src/`` and keeps three things: the digest of its stdout, the digest of
its stderr, and its exit code.  The digests live in ``outputs.json`` next
to this script.  Run from anywhere:

    python tools/outputs.py --check            # re-run every run, name each that differs
    python tools/outputs.py --capture          # rewrite every digest
    python tools/outputs.py --capture NAME...  # rewrite only the named runs
    python tools/outputs.py --check --full     # the genus 2..30 runs instead

A change that means to alter some output re-captures only the runs it
names, in the same commit.  The runs cover both tables in every format at
genus 0..22 for 1, 2 and 3 workers, the selfcheck, the reference
comparisons, ``verify``, ``bounds``, ``member`` and the node-budget overruns.
argparse usage errors are left out, since their text varies across
Python versions.  The 88 runs take about 20 s (2-core Xeon, Python 3.11).

``--full`` selects a separate group instead: both tables at genus 2..30
against the bundled references, each on one worker per usable CPU (the
bytes do not depend on the count), as CSV (lgm with its selfcheck) and as
JSON.  The stderr digests pin the ``reference match`` and ``selfcheck
passed`` lines.  The CSV cells print two decimals, so the JSON runs pin
the exact counts, and ``--check`` also compares each JSON row's
population with OEIS A007323, which does not come from this code.  The
four runs take about 75 s with 2 workers on the same host.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "outputs.json")

# OEIS A007323: the number of numerical semigroups of genus g, g = 0..30
# (Bras-Amoros, Semigroup Forum 76, 2008), as in perfbench/workloads.py.
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
           2857, 4806, 8045, 13467, 22464, 37396, 62194, 103246, 170963,
           282828, 467224, 770832, 1270267, 2091030, 3437839, 5646773)
FULL_GENUS = range(2, 31)


def _runs() -> dict[str, list[str]]:
    """Run name -> the nsgbounds arguments of that run."""
    runs = {}
    for kind in ("lgm", "gmgens"):
        for fmt in ("csv", "json", "text"):
            for workers in (1, 2, 3):
                runs[f"{kind}-{fmt}-w{workers}"] = [
                    "table", kind, "--genus", "0..22", "--format", fmt,
                    "--workers", str(workers)]
    runs["lgm-q1234"] = ["table", "lgm", "--genus", "0..22", "--q", "1,2,3,4"]
    for seed in (0, 5):
        for workers in (1, 2):
            runs[f"selfcheck-seed{seed}-w{workers}"] = [
                "table", "lgm", "--genus", "2..22", "--selfcheck", "--seed", str(seed),
                "--reference", "auto", "--workers", str(workers)]
    for kind in ("lgm", "gmgens"):
        runs[f"{kind}-reference"] = ["table", kind, "--format", "csv", "--reference", "auto"]
    runs["verify"] = ["verify"]
    for gens in ("5,7,18", "4,6,10,9", "12,18,20,27", "1,20,25"):
        for q in (2, 3, 9, 16, 256):
            for fmt in ("text", "json"):
                runs[f"bounds-{gens}-q{q}-{fmt}"] = [
                    "bounds", "--gens", gens, "--q", str(q), "--check", "--format", fmt]
    for method in ("auto", "generic", "sum", "closed"):
        runs[f"bounds-5,7-q9-{method}"] = ["bounds", "--gens", "5,7", "--q", "9",
                                           "--method", method]
    for q in (2, 3, 9, 16, 256):
        runs[f"bounds-5,7-q{q}-check-json"] = [
            "bounds", "--gens", "5,7", "--q", str(q), "--check", "--format", "json"]
    runs["bounds-5,7-q9-sum-check"] = ["bounds", "--gens", "5,7", "--q", "9",
                                       "--method", "sum", "--check"]
    for value in (23, 24, -1):
        for fmt in ("text", "json"):
            runs[f"member-5,7-v{value}-{fmt}"] = [
                "member", "--gens", "5,7", "--value", str(value), "--format", fmt]
    runs["member-5,7,18-v16"] = ["member", "--gens", "5,7,18", "--value", "16"]
    for workers in (1, 2):
        runs[f"overrun-2..16-w{workers}"] = [
            "table", "gmgens", "--genus", "2..16", "--node-budget", "20000",
            "--workers", str(workers)]
    runs["overrun-deep-range"] = ["table", "gmgens", "--genus", "2..1000000000",
                                  "--node-budget", "10"]
    runs["overrun-genus-3000"] = ["table", "gmgens", "--genus", "3000", "--node-budget", "10"]
    runs["overrun-genus-40"] = ["table", "gmgens", "--genus", "40"]  # the default budget
    return runs


def _full_runs() -> dict[str, list[str]]:
    """Run name -> the nsgbounds arguments of the genus 2..30 runs."""
    # macOS lacks sched_getaffinity; the bytes do not depend on the count
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    table = ["--genus", f"{FULL_GENUS[0]}..{FULL_GENUS[-1]}", "--reference", "auto",
             "--workers", str(workers)]
    return {"full-gmgens": ["table", "gmgens", *table, "--format", "csv"],
            "full-lgm-selfcheck": ["table", "lgm", *table, "--format", "csv", "--selfcheck"],
            "full-gmgens-json": ["table", "gmgens", *table, "--format", "json"],
            "full-lgm-json": ["table", "lgm", *table, "--format", "json"]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(args: list[str]) -> subprocess.CompletedProcess:
    """One ``python -m nsgbounds`` run on this checkout's ``src/``, output captured."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-m", "nsgbounds", *args], env=env,
                          capture_output=True, check=False)


def digest(proc: subprocess.CompletedProcess) -> dict:
    """{"stdout", "stderr", "exit"} of one run."""
    return {"stdout": _sha(proc.stdout), "stderr": _sha(proc.stderr),
            "exit": proc.returncode}


def population_errors(stdout: bytes) -> list[str]:
    """How a full JSON run's rows differ from A007323 (empty when every row matches)."""
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError, TypeError):
        return ["stdout is not a table in JSON"]
    errors = []
    genera = [row["genus"] for row in rows]
    if genera != list(FULL_GENUS):
        errors.append(f"rows of genus {genera}, not {FULL_GENUS[0]}..{FULL_GENUS[-1]}")
    errors += [f"genus {row['genus']} population {row['population']}, "
               f"A007323 {A007323[row['genus']]}"
               for row in rows if row["population"] != A007323[row["genus"]]]
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with outputs.json")
    mode.add_argument("--capture", action="store_true", help="rewrite outputs.json")
    parser.add_argument("--full", action="store_true",
                        help="the genus 2..30 runs, not the default group")
    parser.add_argument("names", nargs="*", help="only these runs (default: all)")
    args = parser.parse_args(argv)
    runs = _full_runs() if args.full else _runs()
    unknown = [name for name in args.names if name not in runs]
    if unknown:
        parser.error(f"no such run: {', '.join(unknown)}")
    names = args.names or list(runs)
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {}

    if args.capture:
        for name in names:
            stored[name] = digest(run(runs[name]))
        order = [*_runs(), *_full_runs()]
        stored = {name: stored[name] for name in order if name in stored}
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1)
            fh.write("\n")
        print(f"captured {len(names)} runs")
        return 0

    differ = []
    for name in names:
        proc = run(runs[name])
        got = digest(proc)
        want = stored.get(name)
        if got != want:
            parts = ("not captured" if want is None else
                     ", ".join(key for key in got if got[key] != want[key]))
            differ.append(name)
            print(f"DIFFERS {name} ({parts}): nsgbounds {' '.join(runs[name])}")
        if name.startswith("full-") and name.endswith("-json"):
            errors = population_errors(proc.stdout)
            for error in errors:
                print(f"A007323 {name}: {error}")
            if errors and name not in differ:
                differ.append(name)
    if differ:
        print(f"{len(differ)} of {len(names)} runs differ")
        return 1
    print(f"all {len(names)} runs match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
