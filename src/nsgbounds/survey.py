"""Genus-by-genus statistics tables with exact tallies.

Two table kinds are produced over full genus populations:

  * "lgm": per genus and per q, the portion of semigroups whose
    multiplicity bound and set-difference bound coincide, next to the
    portion satisfying the simpler test q <= floor(q/l1)*l2.
  * "gmgens": per genus, means and portions of generators falling
    under the 2*l1 - 1 cutoff.

Every tally is an exact integer or Fraction; rendering to two decimals
(rounding half away from zero) is the only lossy step.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .bounds import _check_q, coincidence_criterion, gm_generic
from .enumeration import (
    DEFAULT_NODE_BUDGET,
    TreeNode,
    _expand,
    _new_generators,
    enumerate_genus,  # noqa: F401  perfbench hooks survey.enumerate_genus
    map_reduce_genus,
    worker_pool,
)

__all__ = [
    "LgmTableRow",
    "GmGenTableRow",
    "render_percent",
    "render_fixed2",
    "format_percent_cell",
    "build_lgm_table",
    "build_gmgen_table",
    "lgm_csv",
    "gmgen_csv",
    "lgm_json",
    "gmgen_json",
    "lgm_text",
    "gmgen_text",
    "compare_tables",
    "load_reference",
    "selfcheck_lgm",
]


def render_fixed2(num: int, den: int) -> str:
    """num/den to exactly two decimals, rounding half away from zero."""
    if den <= 0 or num < 0:
        raise ValueError("expected num >= 0 and den > 0")
    q, r = divmod(num * 100, den)
    if 2 * r >= den:
        q += 1
    return f"{q // 100}.{q % 100:02d}"


def render_percent(num: int, den: int) -> str:
    """100*num/den to two decimals, exact integer rounding throughout."""
    if not 0 <= num <= den:
        raise ValueError("expected 0 <= num <= den")
    return render_fixed2(100 * num, den)


def format_percent_cell(num: int, den: int) -> str:
    """Table cell: exact 100% renders bare as "100", else two decimals."""
    return "100" if num == den else render_percent(num, den)


class LgmTableRow(NamedTuple):
    genus: int
    population: int
    per_q_coincide: dict[int, int]  # q -> semigroups counted, out of population
    per_q_sufficient: dict[int, int]
    checked: int  # semigroups the selfcheck sampled (0 without a selfcheck)
    mismatches: tuple  # (q, generators) where the selfcheck disagreed


class GmGenTableRow(NamedTuple):
    genus: int
    population: int
    gm_gen_total: int
    non_gm_gen_total: int
    portion_non_sum: Fraction  # sum over semigroups of non-gm/total

    @property
    def mean_gm_gens(self) -> str:
        return render_fixed2(self.gm_gen_total, self.population)

    @property
    def mean_non_gm_gens(self) -> str:
        return render_fixed2(self.non_gm_gen_total, self.population)

    @property
    def gen_total(self) -> int:
        return self.gm_gen_total + self.non_gm_gen_total

    @property
    def mean_portion_non_gm(self) -> Fraction:
        return self.portion_non_sum / self.population

    @property
    def mean_portion_non_gm_percent(self) -> str:
        f = self.mean_portion_non_gm
        return render_fixed2(100 * f.numerator, f.denominator)


# The selfcheck's (checked, mismatches) slots of a leaf it did not sample.
_UNCHECKED = (0, ())


def _lgm_leaf(q_list, rule, leaf):
    """Population, coincidence and sufficient-condition flags of a raw leaf.

    Coincidence needs q*(l_i - l1) to be a member for every generator
    l_i, and holds for the ones with q*(l_i - l1) above the Frobenius
    number F, so only the generators l1 < l_i <= l1 + F//q are read: the
    set bits of gens_mask >> l1 + 1 below F//q.  q <= floor(q/l1)*l2
    writes every q*(l_i - l1) as l1*(floor(q/l1)*l_i - q) +
    (q mod l1)*l_i, so it settles q at once.  The value ends with the
    selfcheck's slots (checked, mismatches), left at ``_UNCHECKED`` unless
    the sample ``rule`` (None for no selfcheck) samples the leaf.  A
    sampled leaf compares the generator criterion with the full
    set-difference bound against Lewittes' q*l1 + 1 for every q, and
    lists each q where they disagree as (q, generators).
    """
    bits, frobenius, _, gens, l1, _ = leaf
    slots = _UNCHECKED
    if rule is not None:
        a, b, cut = rule
        if (a * (bits & ((1 << frobenius + 1) - 1)) + b) % _SAMPLE_PRIME < cut:
            S = TreeNode.semigroup(leaf)
            slots = (1, tuple((q, S.min_generators) for q in q_list
                              if coincidence_criterion(S, q)
                              != (gm_generic(S, q) == q * S.multiplicity + 1)))
    above = gens >> l1 + 1
    if not above:  # the full semigroup <1>: no l2, and no generator to scan
        return (1,) + (1,) * len(q_list) + (0,) * len(q_list) + slots
    l2 = l1 + (above & -above).bit_length()
    out = [1]
    sufficient = []
    for q in q_list:
        if q <= (q // l1) * l2:
            out.append(1)
            sufficient.append(1)
            continue
        sufficient.append(0)
        flag = 1
        scan = above & ((1 << frobenius // q) - 1)
        while scan:
            low = scan & -scan
            if not bits >> q * low.bit_length() & 1:  # l_i - l1 = low.bit_length()
                flag = 0
                break
            scan ^= low
        out.append(flag)
    out += sufficient
    out += slots
    return tuple(out)


_SAMPLE_PRIME = (1 << 61) - 1


def _sample_rule(seed: int, sample_rate: float) -> tuple[int, int, int]:
    """(a, b, cut): the selfcheck samples a leaf iff (a*B + b) mod P < cut.

    B is the bitmap of the leaf's members below its conductor, P is the
    prime 2**61 - 1, and a and b are the first two draws of
    random.Random(seed).  So the sample is a seeded hash of the leaf and
    does not depend on the visit order.
    """
    rng = random.Random(seed)
    return (rng.randrange(1, _SAMPLE_PRIME), rng.randrange(_SAMPLE_PRIME),
            int(sample_rate * _SAMPLE_PRIME))


def _lgm_kernel(q_list, rule, memo, parent):
    """``_lgm_leaf`` of every child of a raw parent, as (value, count) pairs.

    ``memo`` is the table's dict of the sufficient flags per (m, l2) and
    the value tuple per set of coincidence and sufficient flags; a pool's
    workers inherit it at the fork and fill their own copies.  The leaf
    is evaluated on a built child only for the child that removes the
    multiplicity m (of an ordinary parent), the child that removes l2,
    and the sampled children, in increasing removed generator lam, so the
    selfcheck's mismatches keep the leaf order.
    Every other child removes some lam > l2, so it keeps l1 = m, l2 and
    the parent's sufficient flags.  Where those do not settle q, it
    coincides unless a generator l of the child has q*(l - m) <= lam
    outside the child.  Its generators are the parent's but lam, and
    lam + m when that is new.  For a parent generator l other than lam,
    q*(l - m) misses iff it is a gap of the parent, so at most the
    parent's Frobenius number F, or equals lam.  So per q one scan of the
    parent's generators settles every child: two "offenders" l with
    q*(l - m) <= F a gap fail every child, one fails all but the child
    that removes it, and each q*(l - m) > F fails the child that removes
    it, unless that child removes l itself.  The children are split by
    these per-q masks and counted by popcount.  lam + m misses only at
    q = 1, where every such child fails already: l - m is a gap for each
    generator l != m (else l = m + (l - m) would not be minimal), so
    every one is an offender, and with only one, l2, its child is built.
    """
    bits, frobenius, _, gens, m, _ = parent
    effective = gens >> frobenius + 1 << frobenius + 1
    above = gens >> m + 1
    l2 = m + (above & -above).bit_length()
    built = effective & (1 << m | 1 << l2)
    if rule is not None:
        # A child's sample hash reads its members below lam + 1: the
        # parent's members up to F and every x with F < x < lam, so its
        # bitmap is B_F + 2**lam - 2**(F + 1).
        a, b, cut = rule
        base = a * ((bits & (1 << frobenius + 1) - 1) - (1 << frobenius + 1)) + b
        scan = effective ^ built
        while scan:
            low = scan & -scan
            scan ^= low
            if (base + a * low) % _SAMPLE_PRIME < cut:
                built |= low
    pairs = [(_lgm_leaf(q_list, rule, kid), 1) for kid in _expand(parent, built)] if built else []
    rest = effective ^ built
    if not rest:
        return pairs
    plan = memo.get((m, l2))
    if plan is None:
        sufficient, open_q = 0, []
        for i, q in enumerate(q_list):
            if q <= (q // m) * l2:
                sufficient |= 1 << i
            else:
                open_q.append((1 << i, q))
        plan = memo[m, l2] = (sufficient, open_q)
    sufficient, open_q = plan
    common = sufficient  # flags of the q that every child in ``rest`` coincides at
    goods = []  # (flag, children in ``rest`` that coincide at its q), for the other q
    hi = rest.bit_length() - 1
    for flag, q in open_q:
        good = rest
        offender = 0
        scan = above & ((1 << hi // q) - 1)  # generators l with q*(l - m) <= hi
        while scan:
            low = scan & -scan
            scan ^= low
            v = q * low.bit_length()  # q*(l - m)
            if v > frobenius:
                if v != m + low.bit_length():  # the child that removes l lacks l
                    good &= ~(1 << v)
            elif not bits >> v & 1:
                if offender:
                    good = 0
                    break
                offender = low << m + 1
        else:
            if offender:
                good &= offender
        if good == rest:
            common |= flag
        elif good:
            goods.append((flag, good))
    parts = [(rest, common)]
    for flag, good in goods:
        split = []
        for part, flags in parts:
            if part & good:
                split.append((part & good, flags | flag))
            if part & ~good:
                split.append((part & ~good, flags))
        parts = split
    k = len(q_list)
    for part, flags in parts:
        key = flags | sufficient << k
        value = memo.get(key)
        if value is None:
            value = memo[key] = (1, *[flags >> i & 1 for i in range(k)],
                                 *[sufficient >> i & 1 for i in range(k)], *_UNCHECKED)
        pairs.append((value, part.bit_count()))
    return pairs


@lru_cache(maxsize=None)
def _portion_scale(g: int) -> int:
    """lcm(1, ..., g + 1): a genus-g semigroup has multiplicity at most g + 1, so
    at most g + 1 minimal generators, and each leaf's n_non/n_total is an integer
    over this."""
    return math.lcm(*range(1, g + 2))


def _gmgen_leaf(leaf):
    # the last slot is n_non/n_total scaled by ``_portion_scale(genus)``, a multiple of n_total
    gens, m = leaf[3], leaf[4]
    n_gm = (gens & ((1 << 2 * m - 1) - 1)).bit_count()
    n_total = gens.bit_count()
    return (1, n_gm, n_total - n_gm, (n_total - n_gm) * (_portion_scale(leaf[2]) // n_total))


def _gmgen_kernel(parent):
    """``_gmgen_leaf`` of every child of a raw parent, as (value, count) pairs.

    Only the child that removes the multiplicity m (of an ordinary
    parent) is built.  Every other child keeps m and the parent's
    generators but lam, and gains lam + m > 2m - 1 when that is new, so
    its value depends only on whether lam < 2m - 1 and whether lam + m is
    new: four classes, counted by popcount.
    """
    _, frobenius, genus, gens, m, _ = parent
    effective = gens >> frobenius + 1 << frobenius + 1
    pairs = []
    if frobenius < m:  # its first child removes m
        effective ^= 1 << m
        pairs.append((_gmgen_leaf(_expand(parent, 1 << m)[0]), 1))
    new = _new_generators(parent, effective)
    below = (1 << 2 * m - 1) - 1
    n_gm = (gens & below).bit_count()
    n_total = gens.bit_count()
    lcm = _portion_scale(genus + 1)
    for kids, gm in ((effective & below, n_gm - 1), (effective & ~below, n_gm)):
        for same, total in ((kids & new, n_total), (kids & ~new, n_total - 1)):
            if same:
                pairs.append(((1, gm, total - gm, (total - gm) * (lcm // total)),
                              same.bit_count()))
    return pairs


def _build_rows(genus_range, map_fn, kernel, zero, make_row, workers,
                node_budget) -> list:
    """``make_row(g, aggregate)`` per genus, all rows sharing one node budget.

    With ``workers`` > 1 one process pool, forked with this fold, serves
    every row.  A row that overruns the budget left to it raises
    ResourceLimit, which names its genus, and no row is returned."""
    rows = []
    with worker_pool(workers, map_fn, kernel) as pool:
        for g in genus_range:
            acc, nodes = map_reduce_genus(g, map_fn, zero, node_budget=node_budget,
                                          pool=pool, kernel=kernel)
            node_budget -= nodes
            rows.append(make_row(g, acc))
    return rows


def build_lgm_table(genus_range, q_list, *, workers: int = 1,
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    selfcheck_seed: int | None = None,
                    sample_rate: float = 0.01) -> list[LgmTableRow]:
    """Coincidence and sufficient-condition portions per genus and q.

    With a ``selfcheck_seed`` (a non-negative int), the same fold
    re-verifies the coincidence flags of a seeded ``sample_rate`` share of
    the leaves (see ``_lgm_leaf``) and each row carries what it checked.
    """
    q_list = tuple(q_list)
    if not q_list:
        raise ValueError("q_list must not be empty")
    _check_q(min(q_list))
    if len(set(q_list)) < len(q_list):
        raise ValueError("q values must be distinct")
    if selfcheck_seed is not None and selfcheck_seed < 0:
        # random.Random seeds by absolute value, so -s would draw the sample of s
        raise ValueError("selfcheck_seed must be non-negative")
    if not 0 <= sample_rate <= 1:
        raise ValueError(f"sample_rate must be between 0 and 1, got {sample_rate!r}")
    k = len(q_list)
    rule = None if selfcheck_seed is None else _sample_rule(selfcheck_seed, sample_rate)

    def make_row(g, acc):
        checked, mismatches = acc[1 + 2 * k:]
        return LgmTableRow(g, acc[0], dict(zip(q_list, acc[1:1 + k])),
                           dict(zip(q_list, acc[1 + k:1 + 2 * k])), checked, mismatches)

    zero = (0,) * (1 + 2 * k) + _UNCHECKED
    return _build_rows(genus_range, partial(_lgm_leaf, q_list, rule),
                       partial(_lgm_kernel, q_list, rule, {}), zero, make_row, workers,
                       node_budget)


def build_gmgen_table(genus_range, *, workers: int = 1,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> list[GmGenTableRow]:
    """Generator-classification means and portions per genus."""
    def make_row(g, acc):
        return GmGenTableRow(g, *acc[:3], Fraction(acc[3], _portion_scale(g)))

    return _build_rows(genus_range, _gmgen_leaf, _gmgen_kernel, (0, 0, 0, 0), make_row,
                       workers, node_budget)


# ---------------------------------------------------------------------------
# rendering

def _lgm_header(q_list) -> list[str]:
    return (["genus"]
            + [f"Lewittes = Geil-Matsumoto (q={q})" for q in q_list]
            + [f"q <= floor(q/l1)*l2 (q={q})" for q in q_list])


def _lgm_cells(row: LgmTableRow, q_list) -> list[str]:
    counts = [row.per_q_coincide[q] for q in q_list] + [row.per_q_sufficient[q] for q in q_list]
    return [str(row.genus)] + [format_percent_cell(c, row.population) for c in counts]


GMGEN_HEADER = ["genus", "mean GM generators", "mean non-GM generators",
                "GM generators / total", "non-GM generators / total",
                "mean portion non-GM"]


def _gmgen_cells(row: GmGenTableRow) -> list[str]:
    return [str(row.genus), row.mean_gm_gens, row.mean_non_gm_gens,
            format_percent_cell(row.gm_gen_total, row.gen_total),
            format_percent_cell(row.non_gm_gen_total, row.gen_total),
            row.mean_portion_non_gm_percent]


def lgm_csv(rows, q_list) -> str:
    lines = [",".join(_lgm_header(q_list))]
    lines += [",".join(_lgm_cells(r, q_list)) for r in rows]
    return "\n".join(lines) + "\n"


def gmgen_csv(rows) -> str:
    lines = [",".join(GMGEN_HEADER)]
    lines += [",".join(_gmgen_cells(r)) for r in rows]
    return "\n".join(lines) + "\n"


def _text_table(header: list[str], body: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(header)]
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return "\n".join([fmt(header)] + [fmt(r) for r in body]) + "\n"


def lgm_text(rows, q_list) -> str:
    header = (["genus"] + [f"coincide q={q}" for q in q_list]
              + [f"sufficient q={q}" for q in q_list])
    return _text_table(header, [_lgm_cells(r, q_list) for r in rows])


def gmgen_text(rows) -> str:
    return _text_table(GMGEN_HEADER, [_gmgen_cells(r) for r in rows])


def _count_json(count: int, total: int) -> dict:
    return {"count": count, "total": total, "percent": format_percent_cell(count, total)}


def lgm_json(rows, q_list) -> dict:
    return {
        "table": "lgm",
        "q": list(q_list),
        "rows": [
            {
                "genus": r.genus,
                "population": r.population,
                "coincide": {str(q): _count_json(c, r.population)
                             for q, c in r.per_q_coincide.items()},
                "sufficient": {str(q): _count_json(c, r.population)
                               for q, c in r.per_q_sufficient.items()},
            }
            for r in rows
        ],
    }


def gmgen_json(rows) -> dict:
    return {
        "table": "gmgens",
        "rows": [
            {
                "genus": r.genus,
                "population": r.population,
                "gm_generators": r.gm_gen_total,
                "non_gm_generators": r.non_gm_gen_total,
                "mean_gm": r.mean_gm_gens,
                "mean_non_gm": r.mean_non_gm_gens,
                "portion_gm": format_percent_cell(r.gm_gen_total, r.gen_total),
                "portion_non_gm": format_percent_cell(r.non_gm_gen_total, r.gen_total),
                "mean_portion_non_gm": {
                    "num": r.mean_portion_non_gm.numerator,
                    "den": r.mean_portion_non_gm.denominator,
                    "percent": r.mean_portion_non_gm_percent,
                },
            }
            for r in rows
        ],
    }


# ---------------------------------------------------------------------------
# reference comparison

def _digits(text: str) -> int:
    # every number of a table is ASCII digits; int() alone also reads " 2", "+2", "\u0662"
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an unsigned integer: {text!r}")
    return int(text)


def _scaled100(cell: str) -> int:
    # "42.86" -> 4286, "100" -> 10000, "1.5" -> 150; ValueError unless an unsigned decimal
    whole, dot, frac = cell.partition(".")
    if dot:
        _digits(frac)  # every digit is checked, and the first two are read
    return _digits(whole) * 100 + int(frac.ljust(2, "0")[:2])


def _parse_table_csv(text: str):
    """(header, {genus: {col: (cell, hundredths)}}); ValueError on a repeated column
    and on bad, ragged or repeated rows."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise ValueError("the table is empty")
    header = lines[0].split(",")
    for i, col in enumerate(header):
        if col in header[:i]:
            raise ValueError(f"the header repeats column {col!r}")
    by_genus = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            genus = _digits(cells[0])
            row = {col: (cell, _scaled100(cell))
                   for col, cell in zip(header[1:], cells[1:], strict=True)}
        except ValueError:
            raise ValueError(f"row {ln!r} is not a genus and one number per column") from None
        if by_genus.setdefault(genus, row) is not row:
            raise ValueError(f"row {ln!r} repeats genus {genus}")
    return header, by_genus


def compare_tables(computed_csv: str, reference_csv: str):
    """Cell-by-cell comparison, one final-digit ulp of tolerance.

    Only rows and columns present in both tables are compared; a malformed
    table raises ValueError.  Returns (cells_compared, deviations), each
    deviation a (genus, column, computed, reference) tuple.
    """
    _, got = _parse_table_csv(computed_csv)
    _, want = _parse_table_csv(reference_csv)
    compared = 0
    deviations = []
    for genus in sorted(set(got) & set(want)):
        for col in got[genus]:
            if col not in want[genus]:
                continue
            compared += 1
            (a, a100), (b, b100) = got[genus][col], want[genus][col]
            if abs(a100 - b100) > 1:
                deviations.append((genus, col, a, b))
    return compared, deviations


def load_reference(kind: str) -> str:
    """Bundled reference CSV for a table kind ("lgm" or "gmgens")."""
    from importlib import resources  # only a reference run pays for its import

    name = {"lgm": "reference_lgm.csv", "gmgens": "reference_gmgens.csv"}[kind]
    return resources.files("nsgbounds").joinpath("data", name).read_text(encoding="utf-8")


def selfcheck_lgm(genus_range, q_list, sample_rate: float = 0.01, seed: int = 0, *,
                  node_budget: int = DEFAULT_NODE_BUDGET):
    """Re-verify sampled coincidence flags by full set-difference scans.

    Runs the lgm table fold with its selfcheck on (``build_lgm_table``
    with ``selfcheck_seed=seed``) and returns (checked, mismatches), each
    mismatch a (genus, q, generators) tuple.
    """
    rows = build_lgm_table(genus_range, q_list, node_budget=node_budget,
                           selfcheck_seed=seed, sample_rate=sample_rate)
    return (sum(row.checked for row in rows),
            [(row.genus, q, gens) for row in rows for q, gens in row.mismatches])
