"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, traced and untraced, and proves that
each gate trips on an injected fault.  From the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It is not part of the package's test suite (pyproject limits that to
tests/) and takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, "--seed", "3", "--seconds", "1",
                           "--size", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_every_gate(workload, trace):
    proc = bench("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = [m["name"] for m in SPEC["end_to_end" if trace == "0" else "per_layer"]]
    assert list(res["metrics"]) == names
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in res["metrics"].values())
    env = json.loads(proc.stdout.splitlines()[-2])["env"]
    assert env["seed"] == 3 and env["src_loc"] > 0 and env["python"]


@pytest.mark.parametrize("workload,fault,gate", [
    ("lgm-serial", "count", "count"),
    ("lgm-serial", "reference", "reference"),
    ("lgm-serial", "digest", "digest"),
    ("gmgens-par", "reference", "reference"),
    ("gmgens-par", "digest", "digest"),
    ("bounds-sweep", "sweep", "sweep"),
])
def test_gate_trips_on_injected_fault(workload, fault, gate):
    proc = bench("--workload", workload, "--trace", "0", "--inject", fault)
    assert proc.returncode == 1
    res = last_json(proc)
    assert not res["correct"] and res["failed"] >= 1 and res["metrics"] == {}
    failed = [ln for ln in proc.stderr.splitlines() if ln.startswith("GATE FAILED")]
    assert any(ln.startswith(f"GATE FAILED {gate}:") for ln in failed), proc.stderr
    if fault == "digest":
        # Within one final-digit ulp: the reference comparison passes, so
        # only the digest gate can see the change.
        assert all(ln.startswith("GATE FAILED digest:") for ln in failed)


def test_refuses_without_package_sources():
    bare = os.path.join(ROOT, "perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, RUN, "--workload", "lgm-serial", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
