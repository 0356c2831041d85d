"""Command-line front door: membership, bounds, verification, tables."""

import argparse
import contextlib
import json
import math
import os
import sys
from functools import partial

from .bounds import (
    DEFAULT_Q_SWEEP,
    bound_report,
    classify_generators,
    differential_sweep,
)
from .enumeration import DEFAULT_NODE_BUDGET, worker_pool
from .errors import NsgError, ResourceLimit
from .semigroup import TwoGenSemigroup, from_generators, is_member, unique_representation
from .survey import (
    _parse_table_csv,
    build_gmgen_table,
    build_lgm_table,
    compare_tables,
    gmgen_csv,
    gmgen_json,
    gmgen_text,
    lgm_csv,
    lgm_json,
    lgm_text,
    load_reference,
    selfcheck_lgm,  # noqa: F401  perfbench traces cli.selfcheck_lgm
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64
EXIT_OSERR = 71  # a pool worker could not start, or died

TABLE_Q = (2, 3, 9, 16, 256)  # the lgm table's q values without --q


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"{what} must be positive")
    return values


def _parse_gens(text: str) -> tuple[int, ...]:
    gens = _parse_int_list(text, "generators")
    if math.gcd(*gens) != 1:
        raise argparse.ArgumentTypeError(f"generators {list(gens)} are not coprime")
    return gens


def _parse_q_list(text: str) -> tuple[int, ...]:
    qs = _parse_int_list(text, "q values")
    if len(set(qs)) < len(qs):
        raise argparse.ArgumentTypeError(f"q values must be distinct, got {text!r}")
    return qs


def _parse_int(text: str, minimum: int) -> int:
    try:
        value = int(text)
        if value >= minimum:
            return value
    except ValueError:
        pass
    kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
        minimum, f"an integer of at least {minimum}")
    raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")


def _parse_genus_range(text: str) -> range:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B or a single genus, got {text!r}")
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad genus range {text!r}")
    return range(lo, hi + 1)


def build_parser() -> _Parser:
    parser = _Parser(prog="nsgbounds",
                     description="Bounds on rational places from Weierstrass semigroup data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", parents=[], help="membership test")
    p.add_argument("--gens", type=_parse_gens, required=True,
                   help="comma-separated coprime generators")
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bounds", help="all bounds for one (semigroup, q) pair")
    p.add_argument("--gens", type=_parse_gens, required=True)
    p.add_argument("--q", type=partial(_parse_int, minimum=1), required=True)
    p.add_argument("--method", choices=("auto", "generic", "sum", "closed"), default="auto")
    p.add_argument("--check", action="store_true",
                   help="re-verify the set-difference bound by full scan")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="differential sweep of the three bound computations")
    # the smallest sweep holds one pair, (2, 3)
    p.add_argument("--a-max", type=partial(_parse_int, minimum=2), default=30)
    p.add_argument("--b-max", type=partial(_parse_int, minimum=3), default=60)
    p.add_argument("--q-list", type=_parse_q_list,
                   default=DEFAULT_Q_SWEEP, help="comma-separated q values")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("table", help="statistics tables over genus populations")
    p.add_argument("kind", choices=("lgm", "gmgens"))
    p.add_argument("--genus", type=_parse_genus_range, default=range(2, 19),
                   help="inclusive range A..B (default 2..18)")
    p.add_argument("--q", type=_parse_q_list, default=None,
                   help=f"q values for the lgm table (default {','.join(map(str, TABLE_Q))})")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.add_argument("--workers", type=partial(_parse_int, minimum=1), default=None,
                   help="processes that fold, this one among them "
                        "(default: NSG_WORKERS or 1)")
    p.add_argument("--node-budget", type=partial(_parse_int, minimum=1),
                   default=DEFAULT_NODE_BUDGET)
    p.add_argument("--seed", type=partial(_parse_int, minimum=0), default=None,
                   help="seed for --selfcheck sampling (a non-negative integer, default 0)")
    p.add_argument("--selfcheck", action="store_true",
                   help="re-verify sampled coincidence flags by full scans")
    p.add_argument("--reference", default=None, metavar="PATH|auto",
                   help="compare against a reference CSV (tolerance: one final-digit ulp)")

    return parser


def _cmd_member(args) -> int:
    S = from_generators(args.gens)
    member = is_member(S, args.value)
    rep = None
    if len(S.min_generators) == 2:
        two = TwoGenSemigroup(*S.min_generators)
        rep = unique_representation(two, args.value)
    if args.format == "json":
        payload = {"gens": list(args.gens), "value": args.value, "member": member}
        if rep is not None:
            payload["representation"] = {"m": rep[0], "n": rep[1],
                                         "a": S.min_generators[0], "b": S.min_generators[1]}
        print(json.dumps(payload))
    else:
        if member and rep is not None:
            a, b = S.min_generators
            print(f"member, {args.value} = {rep[0]}*{a} + {rep[1]}*{b}")
        elif member:
            print("member")
        else:
            print("not a member")
    return EXIT_OK


def _cmd_bounds(args, parser) -> int:
    S = from_generators(args.gens)
    if args.method in ("sum", "closed") and len(S.min_generators) != 2:
        parser.error(f"--method {args.method} requires exactly 2 minimal generators "
                     f"(got {list(S.min_generators)})")
    report = bound_report(S, args.q, method=args.method, check=args.check)
    cls = classify_generators(S, args.q)
    if args.format == "json":
        print(json.dumps({
            "gens": list(S.min_generators),
            "genus": S.genus,
            "conductor": S.conductor,
            "q": report.q,
            "lewittes": report.lewittes,
            "serre": report.serre,
            "gm": report.gm,
            "gm_method": report.gm_method.value,
            "coincide": report.coincide,
            "sufficient_condition": report.sufficient_condition_holds,
            "gm_generators": list(cls.gm_generators),
            "non_gm_generators": list(cls.non_gm_generators),
            "reduced_index_set": list(cls.reduced_index_set),
        }))
    else:
        gens = ",".join(str(g) for g in S.min_generators)
        print(f"semigroup <{gens}>  genus {S.genus}  conductor {S.conductor}")
        print(f"q        : {report.q}")
        print(f"lewittes : {report.lewittes}")
        print(f"serre    : {report.serre}")
        print(f"gm       : {report.gm}  (method {report.gm_method.value})")
        print(f"coincide : {'yes' if report.coincide else 'no'}")
        print(f"sufficient condition: {'yes' if report.sufficient_condition_holds else 'no'}")
        print(f"gm generators: {list(cls.gm_generators)}  "
              f"non-gm: {list(cls.non_gm_generators)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cases, mismatches = differential_sweep(args.a_max, args.b_max, args.q_list,
                                           inject_fault=args.inject_fault)
    if mismatches:
        a, b, q, closed, summed, generic = mismatches[0]
        print(f"MISMATCH a={a} b={b} q={q}: closed={closed} sum={summed} "
              f"generic={generic} ({len(mismatches)} total)", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"all agree ({cases} cases)")
    return EXIT_OK


def _renderer(kind, fmt, q_list):
    """The function that renders ``kind`` rows in ``fmt``; it takes the rows."""
    if kind == "lgm":
        render = {"csv": lgm_csv, "json": lgm_json, "text": lgm_text}[fmt]
        return lambda rows: render(rows, q_list)
    return {"csv": gmgen_csv, "json": gmgen_json, "text": gmgen_text}[fmt]


def _render_table(kind, rows, q_list, fmt, truncated=False):
    out = _renderer(kind, fmt, q_list)(rows)
    if fmt == "json":
        if truncated:
            out["truncated"] = True
        return json.dumps(out, indent=2) + "\n"
    if truncated:
        out += "# truncated: node budget exceeded\n"
    return out


def _read_reference(kind, path) -> str:
    """The ``--reference`` CSV, parsed so that a bad one fails before the walk."""
    if path == "auto":
        text = load_reference(kind)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    _parse_table_csv(text)
    return text


def _cmd_table(args, parser) -> int:
    workers = args.workers
    if workers is None:
        try:
            workers = _parse_int(os.environ.get("NSG_WORKERS", "1"), minimum=1)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"NSG_WORKERS: {exc}")
    if args.selfcheck and args.kind != "lgm":
        parser.error("--selfcheck applies to the lgm table only")
    if args.q is not None and args.kind != "lgm":
        parser.error("--q applies to the lgm table only")
    if args.seed is not None and not args.selfcheck:
        parser.error("--seed applies with --selfcheck only")
    q_list = TABLE_Q if args.q is None else args.q
    try:
        worker_pool(workers)  # forks nothing, but raises where the platform cannot
        ref_text = None if args.reference is None else _read_reference(args.kind, args.reference)
        out = (open(args.out, "w", encoding="utf-8", newline="\n") if args.out
               else contextlib.nullcontext(sys.stdout))
    except (OSError, NsgError) as exc:
        print(f"nsgbounds: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # a reference that does not parse
        print(f"nsgbounds: reference {args.reference}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    truncated = False
    with out as fh:
        try:
            if args.kind == "lgm":
                rows = build_lgm_table(args.genus, q_list, workers=workers,
                                       node_budget=args.node_budget,
                                       selfcheck_seed=(args.seed or 0) if args.selfcheck
                                       else None)
            else:
                rows = build_gmgen_table(args.genus, workers=workers,
                                         node_budget=args.node_budget)
        except ResourceLimit as exc:
            rows = exc.partial or []
            truncated = True
            print(f"nsgbounds: {exc}", file=sys.stderr)
        except NsgError as exc:  # a pool worker that could not start, or died
            print(f"nsgbounds: {exc}", file=sys.stderr)
            return EXIT_OSERR
        fh.write(_render_table(args.kind, rows, q_list, args.format, truncated=truncated))
    if truncated:
        return EXIT_RESOURCE

    if ref_text is not None:
        computed_csv = _renderer(args.kind, "csv", q_list)(rows)
        compared, deviations = compare_tables(computed_csv, ref_text)
        for genus, col, got, want in deviations:
            print(f"DEVIATION genus={genus} [{col}]: computed {got}, reference {want}",
                  file=sys.stderr)
        if deviations:
            return EXIT_MISMATCH
        print(f"reference match: {compared} cells within one ulp", file=sys.stderr)

    if args.selfcheck:
        for row in rows:
            for q, gens in row.mismatches:
                print(f"SELFCHECK MISMATCH genus={row.genus} q={q} gens={list(gens)}",
                      file=sys.stderr)
        if any(row.mismatches for row in rows):
            return EXIT_MISMATCH
        checked = sum(row.checked for row in rows)
        print(f"selfcheck passed on {checked} sampled semigroups", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "member":
            return _cmd_member(args)
        if args.command == "bounds":
            return _cmd_bounds(args, parser)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":
            return _cmd_table(args, parser)
    except ResourceLimit as exc:
        print(f"nsgbounds: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        return EXIT_OK
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())
