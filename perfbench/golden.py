"""Golden digests of the table CSVs, one SHA-256 per output line.

Each table row depends only on its genus, so a digest per line checks the
output of any genus range byte for byte.  The digests in golden.json were
captured from the package as it stood when the benchmark was added:

    python3 perfbench/golden.py        # rewrite golden.json (run from the repo root)

Byte equality with the bundled reference CSVs would be the wrong gate:
those print an exact 100 bare, while the package prints a cell such as
22463/22464 as "100.00" (genus 19, q=256, sufficient condition).
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from workloads import LGM_Q

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
CAPTURE_TOP = {"lgm": 20, "gmgens": 21}


def _sha(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


def load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def check_csv(text: str, kind: str, lo: int, hi: int, golden: dict):
    """Compare CSV text for genus lo..hi with the golden digests.

    Returns (lines_checked, bad) where ``bad`` names each line that
    differs, is missing or is extra.
    """
    want = golden[kind]
    expect = [want["header"]] + [want["rows"][str(g)] for g in range(lo, hi + 1)]
    lines = text.split("\n")
    bad = []
    if lines[-1] != "":
        bad.append("no final newline")
    got = [_sha(line) for line in lines[:-1]]
    for i in range(max(len(got), len(expect))):
        if i >= len(got) or i >= len(expect) or got[i] != expect[i]:
            bad.append(f"line {i + 1}")
    return len(expect), bad


def capture() -> dict:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from nsgbounds import cli

    golden = {"q": list(LGM_Q)}
    for kind, top in CAPTURE_TOP.items():
        argv = ["table", kind, "--genus", f"2..{top}", "--format", "csv"]
        if kind == "lgm":
            argv += ["--q", ",".join(map(str, LGM_Q))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(argv) != 0:
                raise SystemExit(f"table {kind} failed")
        lines = out.getvalue().split("\n")[:-1]
        golden[kind] = {"header": _sha(lines[0]),
                        "rows": {line.split(",", 1)[0]: _sha(line) for line in lines[1:]}}
    return golden


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(capture(), fh, indent=1)
        fh.write("\n")
