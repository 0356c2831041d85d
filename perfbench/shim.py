"""One pass of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/shim.py <monotonic spawn time> '<spec as JSON>'

Set-up (interpreter start, ``import nsgbounds`` and the bundled reference
load) is timed from the spawn time the parent passes in; CLOCK_MONOTONIC
is shared by all processes.  Table passes run the real CLI in-process
with stdout and stderr captured; bounds-sweep runs ``nsgbounds verify``
the same way and then a seeded batch through the library API.  The pass
stops at row and batch boundaries for short probe walks (refwalk.py), one
walk per worker, that measure the host's speed while it runs; the probes
are not counted as work.  The pass prints one JSON object on stdout.

Spec keys: workload, size, seed, workers, trace ("off", "parent" or
"full"), inject (null, "reference", "digest" or "sweep"), spans_path.
"""

import contextlib
import io
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback

from refwalk import HostClock, cpu_s
from tracer import Tracer
from workloads import (BATCH, Q_SWEEP, SWEEP, TABLE_KIND, semigroup_batch, sweep_cases,
                       table_argv)

# Spans kept whole; all other names are aggregated per call.
COARSE = ("cli.main", "enumeration.map_reduce", "enumeration.enumerate_genus",
          "survey.render", "survey.compare", "survey.selfcheck",
          "bounds.differential_sweep", "bench.batch")


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def _own_peak_rss_kb() -> int:
    """Peak resident memory of this process since it was exec'd.

    ru_maxrss also keeps the peak of the process image before exec, which
    is run.py's at the moment it started this pass; VmHWM is reset by exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class PoolProbe:
    """Counts the pools the package opens and the CPU used while each is open.

    Worker CPU comes from RUSAGE_CHILDREN: the pool joins its workers on
    exit, so their usage is folded in by then.  Nothing that crosses the
    pool is wrapped, so pickling is unaffected.
    """

    def __init__(self, ctx):
        self.starts = 0
        self.wall = self.parent_cpu = self.worker_cpu = 0.0
        self._pool = ctx.Pool
        ctx.Pool = self._open

    def _open(self, *args, **kwargs):
        return _PoolSpan(self, self._pool(*args, **kwargs))


class _PoolSpan:
    def __init__(self, probe, pool):
        self.probe, self.pool = probe, pool

    def __enter__(self):
        self.probe.starts += 1
        self.before = (time.perf_counter(), _cpu(resource.RUSAGE_SELF),
                       _cpu(resource.RUSAGE_CHILDREN))
        return self.pool.__enter__()

    def __exit__(self, *exc):
        out = self.pool.__exit__(*exc)
        wall, parent, workers = self.before
        self.probe.wall += time.perf_counter() - wall
        self.probe.parent_cpu += _cpu(resource.RUSAGE_SELF) - parent
        self.probe.worker_cpu += _cpu(resource.RUSAGE_CHILDREN) - workers
        return out


def _bump_last_digit(text: str) -> str:
    """Change the last digit of the first decimal cell of the first row.

    The new cell is within one final-digit ulp of the old one, so the
    reference comparison still passes and only the digest gate can see it.
    """
    lines = text.split("\n")
    cells = lines[1].split(",")
    i = next(i for i, c in enumerate(cells) if i and "." in c)
    d = int(cells[i][-1])
    cells[i] = cells[i][:-1] + str(d + 1 if d < 9 else d - 1)
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def _corrupt_first_cell(text: str) -> str:
    """Replace the first value cell of the first row by a far-off value."""
    lines = text.split("\n")
    cells = lines[1].split(",")
    cells[1] = "0.00" if float(cells[1]) > 50 else "100"
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def _inject(cli, fault):
    if fault == "digest":
        render = cli._render_table
        cli._render_table = lambda *a, **k: _bump_last_digit(render(*a, **k))
    elif fault == "reference":
        load = cli.load_reference
        cli.load_reference = lambda kind: _corrupt_first_cell(load(kind))


def _trace_layers(tracer, mods, full):
    """Wrap each layer's public entry points where their callers look them up."""
    bounds, cli, enumeration, semigroup, survey = mods
    patch = tracer.patch
    patch("cli.main", cli, "main")
    patch("enumeration.map_reduce", survey, "map_reduce_genus")
    for attr in ("lgm_csv", "gmgen_csv"):
        patch("survey.render", cli, attr)
    for attr in ("compare_tables", "load_reference"):
        patch("survey.compare", cli, attr)
    patch("survey.selfcheck", cli, "selfcheck_lgm")
    patch("bounds.differential_sweep", cli, "differential_sweep")
    if not full:
        return
    # Everything below runs inside the walk, so it is traced only in
    # serial passes: in a pooled pass it would run in the workers.
    patch("enumeration.enumerate_genus", survey, "enumerate_genus")
    patch("enumeration.walk", enumeration, "_walk")
    patch("enumeration.children", enumeration, "children")
    patch("semigroup.build", enumeration.TreeNode, "semigroup")
    for owner in (semigroup, bounds, cli):
        patch("semigroup.from_generators", owner, "from_generators")
    for owner in (bounds, survey):
        patch("bounds.coincidence_criterion", owner, "coincidence_criterion")
        patch("bounds.gm_generic", owner, "gm_generic")
    patch("bounds.gm_two_gen_sum", bounds, "gm_two_gen_sum")
    patch("bounds.gm_two_gen_closed", bounds, "gm_two_gen_closed")
    for owner in (bounds, cli):
        patch("bounds.bound_report", owner, "bound_report")
    for attr in ("_lgm_leaf", "_gmgen_leaf"):
        patch("survey.leaf", survey, attr)


def _hook_rows(survey, enumeration, rows, tick, traced, fold=None):
    """Record (genus, start, end, population, nodes) for every table row.

    After each row the host clock may probe the host, and so it may after
    each genus the selfcheck walks, unless the pass is traced: there a
    probe would count in the selfcheck's span.  ``fold``, when given,
    wraps the row's merge function; only serial passes pass it, since in
    a pooled pass the merge runs in the workers.
    """
    inner, walk = survey.map_reduce_genus, survey.enumerate_genus

    def map_reduce_genus(g, map_fn, zero, add_fn=enumeration.tuple_add, **kwargs):
        if fold is not None:
            add_fn = fold(add_fn)
        start = time.perf_counter()
        acc, nodes = inner(g, map_fn, zero, add_fn, **kwargs)
        rows.append((g, start, time.perf_counter(), acc[0], nodes))
        tick()
        return acc, nodes

    def enumerate_genus(*args, **kwargs):
        leaves = walk(*args, **kwargs)
        tick()
        return leaves

    survey.map_reduce_genus = map_reduce_genus
    if not traced:
        survey.enumerate_genus = enumerate_genus


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def table_pass(spec, mods, tracer, clock):
    """Run the table CLI once; returns the result and its (start, end)."""
    bounds, cli, enumeration, semigroup, survey = mods
    rows = []
    fold = None
    if spec["trace"] == "full":
        fold = lambda add_fn: tracer.wrap("survey.fold", add_fn)  # noqa: E731
    _hook_rows(survey, enumeration, rows, clock.tick, tracer is not None, fold)
    argv = table_argv(spec["workload"], spec["size"], spec["seed"], spec["workers"])
    start = time.perf_counter()
    code, out, err = _run_cli(cli, argv)
    end = time.perf_counter()
    clock.close()
    # Each row's time: (genus, raw s, rescaled s, population, nodes).
    rows = [(g, *clock.span(a, b), n, nodes) for g, a, b, n, nodes in rows]
    return {"exit": code, "stdout": out, "stderr": err,
            "rows": rows, "items": sum(r[3] for r in rows)}, (start, end)


def _check_eval(S, q, rep, cls, reduced_ok) -> bool:
    """Exact invariants of one evaluation, checked outside its timing."""
    gens = S.min_generators
    return (reduced_ok
            and rep.lewittes == q * gens[0] + 1
            and rep.gm <= rep.lewittes
            and (rep.coincide or not rep.sufficient_condition_holds)
            and cls.gm_generators + cls.non_gm_generators == gens)


def bounds_pass(spec, mods, tracer, clock):
    """Run verify and the batch once; returns the result and its (start, end)."""
    bounds, cli, enumeration, semigroup, survey = mods
    a_max, b_max = SWEEP[spec["size"]]
    batch = semigroup_batch(spec["seed"], BATCH[spec["size"]])
    argv = ["verify", "--a-max", str(a_max), "--b-max", str(b_max)]
    if spec["inject"] == "sweep":
        argv.append("--inject-fault")
    run_batch = _batch
    if tracer is not None:
        run_batch = tracer.wrap("bench.batch", _batch)

    start = time.perf_counter()
    code, out, err = _run_cli(cli, argv)
    clock.tick()
    evals, failures = run_batch(bounds, semigroup, batch, clock.tick)
    end = time.perf_counter()
    clock.close()
    # Each evaluation's latency, rescaled by the segment it ran in.
    eval_us = [ns / 1e3 * clock.scale_at(t / 1e9) for t, ns in evals]
    return {"exit": code, "stdout": out, "stderr": err,
            "evals": len(batch) * len(Q_SWEEP), "eval_failures": failures,
            "items": sweep_cases(a_max, b_max) + len(batch) * len(Q_SWEEP),
            "eval_us": eval_us}, (start, end)


def _batch(bounds, semigroup, batch, tick):
    """Evaluate each (generators, q) pair as ``nsgbounds bounds --check`` does.

    Returns (start, nanoseconds) of every evaluation, and the failures.
    ``tick`` runs between generator sets, outside the timings.
    """
    clock = time.perf_counter_ns
    evals = []
    failures = []
    for gens in batch:
        for q in Q_SWEEP:
            start = clock()
            try:
                S = semigroup.from_generators(gens)
                rep = bounds.bound_report(S, q, check=True)
                cls = bounds.classify_generators(S, q)
                reduced_ok = bounds.verify_index_reduction(S, q, cls.reduced_index_set)
            except Exception:  # a failed operation is counted, not fatal
                failures.append(f"{gens} q={q}: {traceback.format_exc(limit=1)}")
                continue
            evals.append((start, clock() - start))
            if not _check_eval(S, q, rep, cls, reduced_ok):
                failures.append(f"{gens} q={q}: invariant violated")
        tick()
    return evals, failures


def main():
    spawned = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from nsgbounds import bounds, cli, enumeration, semigroup, survey

    kind = TABLE_KIND.get(spec["workload"])
    if kind is not None:
        survey.load_reference(kind)
    setup_s = time.monotonic() - spawned

    mods = (bounds, cli, enumeration, semigroup, survey)
    tracer = probe = None
    if spec["trace"] != "off":
        tracer = Tracer(keep=COARSE)
        _trace_layers(tracer, mods, full=spec["trace"] == "full")
        if spec["workers"] > 1:
            probe = PoolProbe(multiprocessing.get_context("fork"))
    _inject(cli, spec["inject"])

    run = table_pass if kind is not None else bounds_pass
    cpu = cpu_s()
    clock = HostClock(spec["workers"])
    if tracer is not None:  # probes are their own span, not the caller's self time
        clock.tick = tracer.wrap("bench.probe", clock.tick)
    result, (start, end) = run(spec, mods, tracer, clock)
    cpu = cpu_s() - cpu
    wall_s, wall_ref_s = clock.span(start, end)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result.update(wall_s=wall_s, wall_ref_s=wall_ref_s, cpu_s=cpu - clock.probe_cpu_s,
                  setup_s=setup_s, setup_ref_s=setup_s * clock.setup_scale,
                  probe_s=clock.probes,
                  peak_rss_kb=max(_own_peak_rss_kb(), kids.ru_maxrss))
    if tracer is not None:
        result["stats"] = tracer.stats
        if probe is not None:
            result["pool"] = {"starts": probe.starts, "wall_s": probe.wall,
                              "parent_cpu_s": probe.parent_cpu,
                              "worker_cpu_s": probe.worker_cpu}
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "stats": tracer.stats}, fh)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
