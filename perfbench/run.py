"""nsgbounds benchmark: correctness gates, then timed passes of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload lgm-serial --seed 1 --seconds 20 --trace 0

Workloads, metrics and what each metric should move are described in
perfbench/README.md; names and units come from BENCHMARK.json.  Every
pass runs in a fresh interpreter (shim.py), which probes the host's speed
between pieces of work (refwalk.py) and rescales its times to a reference
host speed.  ``--trace 0`` times untraced passes and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.

Gates run before any timing counts: count_by_genus against OEIS A007323,
then an untimed warm-up pass that must pass every output check; every
timed pass is checked the same way.  A failed gate marks the run failed
and no timing is reported.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the run
environment.  The full record of the run, and the spans of the last
traced pass, are written under perfbench/out/.  Exit status is 0 when
every gate passed, 1 when one failed and 2 when the package sources are
missing.
"""

import argparse
import contextlib
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from golden import check_csv, load as load_golden
from workloads import (A007323, GENUS, SWEEP, TABLE_COLUMNS, TABLE_KIND,
                       WORKLOADS, pool_workers, sweep_cases)

HERE = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(HERE, "shim.py")
OUT = os.path.join(HERE, "out")
HARD_LIMIT_S = 170  # the whole run, gates and warm-up included
MIN_PASSES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the smoke test")
    p.add_argument("--inject", choices=("count", "reference", "digest", "sweep"),
                   help="inject one fault, to prove the matching gate trips")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment

def src_loc() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join("src", "nsgbounds", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    # The ceiling stops git from reporting an enclosing repository when
    # the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "loadavg_before": os.getloadavg(), "git_commit": git_commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "inject": args.inject,
            "src_loc": src_loc()}


# ---------------------------------------------------------------------------
# gates

class Gates:
    """Counts every checked item and keeps a line per failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name, attempted, bad):
        self.attempted += attempted
        self.failures += [f"{name}: {b}" for b in bad]


def count_gate(gates, top, inject):
    from nsgbounds import count_by_genus

    counts = count_by_genus(top)
    if inject == "count":
        counts[top] += 1
    gates.add("count", top + 1, [f"genus {g}: {c} != A007323 {A007323[g]}"
                                 for g, c in enumerate(counts) if c != A007323[g]])


def check_pass(gates, args, res, golden):
    if "crash" in res:
        gates.add("pass", 1, [res["crash"]])
        return
    err = res["stderr"]
    gates.add("exit", 1, [] if res["exit"] == 0 else [f"exit {res['exit']}: {err[-400:]}"])
    kind = TABLE_KIND.get(args.workload)
    if kind is None:
        cases = sweep_cases(*SWEEP[args.size])
        ok = res["stdout"] == f"all agree ({cases} cases)\n"
        gates.add("sweep", cases, [] if ok else [(res["stdout"] + err)[-400:]])
        gates.add("batch", res["evals"], res["eval_failures"])
        return
    lo, hi = GENUS[args.workload][args.size]
    cells = (hi - lo + 1) * TABLE_COLUMNS[kind]
    bad = [ln for ln in err.splitlines() if ln.startswith("DEVIATION")]
    if not bad and f"reference match: {cells} cells" not in err:
        bad = ["no reference match reported"]
    gates.add("reference", cells, bad)
    gates.add("digest", *check_csv(res["stdout"], kind, lo, hi, golden))
    gates.add("population", len(res["rows"]),
              [f"genus {g}: {n} != A007323 {A007323[g]}"
               for g, _, _, n, _ in res["rows"] if n != A007323[g]])
    if kind == "lgm":
        gates.add("selfcheck", 1, [] if "selfcheck passed" in err else [err[-400:]])


# ---------------------------------------------------------------------------
# passes

def run_pass(spec, deadline) -> dict:
    """Run shim.py once in a fresh interpreter and return its result.

    The pass gets its own process group, which is killed if the pass
    overruns the deadline or this process is stopped while it runs.
    """
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen([sys.executable, SHIM, repr(time.monotonic()), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"pass timed out after {timeout:.0f} s"}
    finally:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        return {"crash": f"pass exited {proc.returncode}: {err[-400:]}"}
    return json.loads(out.splitlines()[-1])


def timed_passes(seconds, deadline, run_one):
    """Call run_one until ``seconds`` are used, at least MIN_PASSES times."""
    start = time.monotonic()
    done = []
    while True:
        done.append(run_one())
        elapsed = time.monotonic() - start
        per = elapsed / len(done)
        if len(done) >= MIN_PASSES and elapsed + per > seconds:
            break
        if time.monotonic() + 2 * per > deadline:
            break
    return done


# ---------------------------------------------------------------------------
# metrics

def _latencies_us(args, res) -> list[float]:
    """Each evaluation of one pass, in order, rescaled, in microseconds.

    An evaluation is one genus row (one ``map_reduce_genus`` call) for the
    tables and one (semigroup, q) evaluation for bounds-sweep.
    """
    if TABLE_KIND.get(args.workload):
        return [r[2] * 1e6 for r in res["rows"]]
    return res["eval_us"]


def end_to_end(args, passes) -> tuple[dict, list[dict]]:
    """The run's metrics, and each pass's own numbers.

    Times are rescaled to the reference host by the pass's probes
    (refwalk.py), so they read as on a host on which the probe walk takes
    REF_PROBE_S.  The raw times are kept as wall_s and setup_raw_s, and
    the median probe time of each pass as probe_s.  Each metric is the
    median over the passes, except the latency quantiles: every pass
    evaluates the same inputs, so each evaluation's latency is its median
    over the passes, and the quantiles are taken over the evaluations.
    That keeps a momentary stall of the host out of the tail.
    """
    per_pass, latencies = [], []
    for res in passes:
        wall = res["wall_ref_s"]
        per_pass.append({"wall_ref_s": wall, "items_per_ref_s": res["items"] / wall,
                         "setup_s": res["setup_ref_s"],
                         "peak_rss_mb": res["peak_rss_kb"] / 1024,
                         "wall_s": res["wall_s"], "setup_raw_s": res["setup_s"],
                         "probe_s": statistics.median(res["probe_s"])})
        latencies.append(_latencies_us(args, res))
    each = [statistics.median(evals) for evals in zip(*latencies, strict=True)]
    pct = statistics.quantiles(each, n=100, method="inclusive")
    values = medians(per_pass)
    values.update(eval_p50_ref_us=pct[49], eval_p99_ref_us=pct[98],
                  eval_samples=len(each), passes=len(passes))
    return values, per_pass


def per_layer(args, off, primary, full, loc) -> dict:
    stats = full["stats"]

    def calls(name):
        return stats.get(name, [0])[0]

    def total(name):
        return stats.get(name, [0, 0.0])[1]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def us_per_call(name):
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    out = {}
    rows = full.get("rows", [])
    nodes = sum(r[4] for r in rows)
    top = GENUS[args.workload][args.size][1] if rows else 0
    out["enumeration.nodes_walked"] = nodes
    out["enumeration.rewalk_ratio"] = nodes / sum(A007323[:top + 1]) if rows else 0.0
    out["enumeration.map_reduce.calls"] = len(rows)
    out["enumeration.children.calls"] = calls("enumeration.children")
    out["enumeration.children.self_s"] = own("enumeration.children")
    out["enumeration.children.nodes_per_s"] = (
        calls("enumeration.children") / own("enumeration.children")
        if calls("enumeration.children") else 0.0)
    out["enumeration.walk.self_s"] = own("enumeration.walk")
    out["enumeration.enumerate_genus.self_s"] = own("enumeration.enumerate_genus")
    pool = primary.get("pool", {"starts": 0})
    out["enumeration.pool.starts"] = pool["starts"]
    out["enumeration.pool.worker_cpu_s"] = pool.get("worker_cpu_s", 0.0)
    out["enumeration.pool.cpu_per_wall"] = (
        (pool["parent_cpu_s"] + pool["worker_cpu_s"]) / pool["wall_s"]
        if pool["starts"] else 0.0)
    for name in ("semigroup.build", "semigroup.from_generators",
                 "bounds.coincidence_criterion", "bounds.gm_generic",
                 "bounds.gm_two_gen_sum", "bounds.gm_two_gen_closed",
                 "bounds.bound_report"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.us_per_call"] = us_per_call(name)
    out["survey.leaf.self_s"] = own("survey.leaf")
    out["survey.fold.self_s"] = own("survey.fold")
    out["survey.render_s"] = total("survey.render")
    out["survey.compare_s"] = total("survey.compare")
    out["survey.selfcheck_s"] = total("survey.selfcheck")
    out["cli.self_s"] = own("cli.main")
    out["run.cpu_s"] = primary["cpu_s"]
    out["run.wall_s"] = off["wall_s"]
    out["host.probe_s"] = statistics.median(off["probe_s"])
    out["run.trace_overhead"] = primary["wall_ref_s"] / off["wall_ref_s"]
    out["src.loc"] = loc
    return out


def medians(dicts) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join("src", "nsgbounds", "__init__.py")):
        print("perfbench: run from the repository root; src/nsgbounds is missing",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec_file = json.load(fh)
    sys.path.insert(0, "src")
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    env = environment(args)
    golden = load_golden()
    gates = Gates()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"

    workers = pool_workers() if args.workload == "gmgens-par" else 1
    base = {"workload": args.workload, "size": args.size, "seed": args.seed,
            "workers": workers, "trace": "off", "inject": args.inject}

    def gated(spec):
        res = run_pass(spec, hard_deadline)
        check_pass(gates, args, res, golden)
        return res

    if args.workload in GENUS:
        count_gate(gates, GENUS[args.workload][args.size][1], args.inject)
    gated(base)  # warm-up: bytecode and page cache, checked but not timed

    if args.trace == 0:
        def one():
            return (gated(base),)
    else:
        primary_mode = "parent" if workers > 1 else "full"
        spans = os.path.join(OUT, f"spans-{tag}.json")

        def one():
            off = gated(base)
            primary = gated(dict(base, trace=primary_mode, spans_path=spans))
            if primary_mode == "full":
                return off, primary, primary
            return off, primary, gated(dict(base, workers=1, trace="full", spans_path=spans))

    runs = [] if gates.failures else timed_passes(args.seconds, hard_deadline, one)
    record = {"env": env}
    metrics = {}
    correct = not gates.failures
    if correct:
        if args.trace == 0:
            values, samples = end_to_end(args, [off for off, in runs])
            units = spec_file["end_to_end"]
        else:
            samples = [per_layer(args, *passes, env["src_loc"]) for passes in runs]
            values = medians(samples)
            units = spec_file["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in units}
        record.update(samples=samples, values=values)
    env["loadavg_after"] = os.getloadavg()
    record.update(correct=correct, attempted=gates.attempted, failed=len(gates.failures),
                  fail_ratio=len(gates.failures) / max(gates.attempted, 1),
                  failures=gates.failures[:50], metrics=metrics)
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in gates.failures[:20]:
        print(f"GATE FAILED {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": gates.attempted,
                      "failed": len(gates.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
