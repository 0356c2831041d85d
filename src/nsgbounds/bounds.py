"""Bounds on the number of rational places from semigroup data.

For a function field over a field of size q whose Weierstrass semigroup
at some rational place is L, with multiplicity l1 and genus g:

    Serre:           N <= q + 1 + g*floor(2*sqrt(q))
    Lewittes:        N <= q*l1 + 1
    Geil-Matsumoto:  N <= #( L \\ union_j (q*l_j + L) ) + 1

where the union runs over the minimal generators l_j.  Removing
q*l1 + L alone always leaves exactly q*l1 elements, so the
Geil-Matsumoto count never exceeds Lewittes' and equals it exactly when
q*(l_j - l1) is a member for every j > 1.

For two generators a < b the set difference collapses to a closed
formula; the summation and closed forms here are independent of the
generic bitset scan, which makes three-way differential verification
possible (see :func:`differential_sweep`).
"""

import enum
import math
import operator
import warnings
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .errors import EmptyIndexSet, SingleGenerator
from .semigroup import NumericalSemigroup, TwoGenSemigroup, bit_indices, from_generators

__all__ = [
    "GmMethod",
    "BoundReport",
    "GenClassification",
    "lewittes_bound",
    "serre_bound",
    "gm_generic",
    "gm_set",
    "gm_two_gen_sum",
    "gm_two_gen_closed",
    "coincidence_criterion",
    "sufficient_condition",
    "lemma_qd_condition",
    "classify_generators",
    "verify_index_reduction",
    "bound_report",
    "differential_sweep",
    "DEFAULT_Q_SWEEP",
]

# Prime powers used by the differential sweep; 18 values.
DEFAULT_Q_SWEEP = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 128, 256)


class GmMethod(enum.Enum):
    GENERIC_SET_DIFFERENCE = "generic"
    TWO_GEN_SUM = "sum"
    TWO_GEN_CLOSED = "closed"


class BoundReport(NamedTuple):
    """All bounds for one (semigroup, q) pair plus diagnostic flags."""

    q: int
    lewittes: int
    serre: int
    gm: int
    gm_method: GmMethod
    coincide: bool
    sufficient_condition_holds: bool


class GenClassification(NamedTuple):
    """Partition of the minimal generators around the 2*l1 - 1 cutoff.

    ``reduced_index_set`` holds 1-based generator indices that already
    determine the full set difference for the given q.
    """

    gm_generators: tuple[int, ...]
    non_gm_generators: tuple[int, ...]
    reduced_index_set: tuple[int, ...]


def _check_q(q: int) -> None:
    if operator.index(q) < 1:  # TypeError for a float or a Fraction
        raise ValueError("field size parameter q must be positive")


_FULL_SEMIGROUP = ("multiplicity 1: every non-negative integer is a member, "
                   "the bound degenerates to q + 1")


def lewittes_bound(S: NumericalSemigroup, q: int) -> int:
    """q * multiplicity + 1."""
    _check_q(q)
    if S.multiplicity == 1:
        warnings.warn(_FULL_SEMIGROUP, stacklevel=2)
    return q * S.multiplicity + 1


def serre_bound(g: int, q: int) -> int:
    """q + 1 + g*floor(2*sqrt(q)), using floor(2*sqrt(q)) = isqrt(4q)."""
    _check_q(q)
    if operator.index(g) < 0:
        raise ValueError("genus must be non-negative")
    return q + 1 + g * math.isqrt(4 * q)


def _survivor_mask(S: NumericalSemigroup, q: int, chosen) -> int:
    # Scan window [0, q*chosen[0] + conductor), chosen ascending: any i at
    # or beyond the limit has i - q*chosen[0] >= conductor, hence lies in
    # the union.  ``full`` ends at the limit, so ``full & ~union`` does too.
    limit = q * chosen[0] + S.conductor
    full = S.member_bitmap | ((1 << limit) - (1 << S.conductor))
    union = 0
    for g in chosen:
        shift = q * g
        if shift >= limit:
            break
        union |= full << shift
    return full & ~union


def gm_generic(S: NumericalSemigroup, q: int) -> int:
    """Set-difference bound over all minimal generators, by bitset scan."""
    _check_q(q)
    return _survivor_mask(S, q, S.min_generators).bit_count() + 1


def _index_list(gens, index_set) -> list[int]:
    """The distinct 1-based generator indices in ``index_set``, ascending."""
    idx = sorted(set(index_set))
    if not idx:
        raise EmptyIndexSet("index set must name at least one generator")
    if idx[0] < 1 or idx[-1] > len(gens):
        raise ValueError(f"generator indices must lie in 1..{len(gens)}")
    return idx


def gm_set(S: NumericalSemigroup, q: int, index_set=None) -> list[int]:
    """Explicit surviving set L \\ union_{i in I} (q*l_i + L).

    ``index_set`` holds 1-based generator indices; None means all
    generators.  The result is the full (finite) set, ascending.
    """
    _check_q(q)
    gens = S.min_generators
    idx = range(1, len(gens) + 1) if index_set is None else _index_list(gens, index_set)
    return bit_indices(_survivor_mask(S, q, [gens[i - 1] for i in idx]))


def gm_two_gen_sum(S: TwoGenSemigroup, q: int) -> int:
    """Summation form: 1 + sum over n < a of min(q, ceil((q-n)/a) * b).

    When q < a the numerator q - n can go non-positive; the ceiling is
    then 0 and the term vanishes, which is exactly right.  The loop runs
    over top = q - n + a - 1, from q (n = a - 1) to q + a - 1 (n = 0), so
    that each term is top // a * b, capped at q, with no call.
    """
    _check_q(q)
    a, b = S.a, S.b
    total = 1
    for top in range(q, q + a):
        term = top // a * b
        total += term if term < q else q
    return total


def gm_two_gen_closed(S: TwoGenSemigroup, q: int) -> int:
    """Closed form, equal to :func:`gm_two_gen_sum` for every input.

    The nominal third case (q > ceil(q/a)*b) cannot occur when a < b, since
    ceil(q/a)*b >= q*b/a > q; it is asserted dead rather than implemented.
    """
    _check_q(q)
    a, b = S.a, S.b
    floor_q, r = divmod(q, a)
    if q <= floor_q * b:
        return 1 + q * a
    # r > 0 here, since r == 0 gives q = floor_q*a <= floor_q*b
    assert q <= (floor_q + 1) * b, "unreachable for a < b"
    return 1 + r * q + (a - r) * floor_q * b


def coincidence_criterion(S: NumericalSemigroup, q: int) -> bool:
    """True iff q*(l_i - l1) is a member for every minimal generator l_i.

    Equivalent to the set-difference bound collapsing to Lewittes'.
    """
    _check_q(q)
    gens = S.min_generators
    l1 = gens[0]
    conductor, bitmap = S.conductor, S.member_bitmap
    for g in gens[1:]:
        d = q * (g - l1)
        if d < conductor and not (bitmap >> d) & 1:
            return False
    return True


def sufficient_condition(S: NumericalSemigroup, q: int) -> bool:
    """q <= floor(q/l1) * l2: implies coincidence, but not conversely."""
    _check_q(q)
    gens = S.min_generators
    if len(gens) < 2:
        raise SingleGenerator("a second minimal generator is required")
    return q <= (q // gens[0]) * gens[1]


def lemma_qd_condition(lambda1: int, lambda_i: int, q: int) -> bool:
    """With d = gcd(l1, li): is q*d <= floor(q*d/l1) * li?

    When true, q*(li - l1) lies already in d*<l1/d, li/d>, a subset of
    any semigroup containing l1 and li.
    """
    _check_q(q)
    if lambda1 <= 0 or lambda_i <= 0 or lambda1 >= lambda_i:
        raise ValueError("expected 0 < lambda1 < lambda_i")
    d = math.gcd(lambda1, lambda_i)
    qd = q * d
    return qd <= (qd // lambda1) * lambda_i


def classify_generators(S: NumericalSemigroup, q: int) -> GenClassification:
    """Split generators at 2*l1 - 1 and derive a reduced index set.

    When l1 < q, generators below 2*l1 - 1 suffice for the set
    difference, and the sharper cutoff q / floor(q/l1) applies (compared
    exactly by cross-multiplication); generators at or above it satisfy
    q <= floor(q/l1)*l_i and are dropped with witness index 1, so index
    1 is always retained.  When l1 >= q no reduction is attempted, since
    there the generators below 2*l1 - 1 may not suffice: for <3,5> at
    q = 2 the set over {3} has 6 elements and the full set 4.
    """
    _check_q(q)
    gens = S.min_generators
    l1 = gens[0]
    split = bisect_left(gens, 2 * l1 - 1)
    if l1 >= q:
        j = len(gens)
    else:
        # the generators with l_i * floor(q/l1) < q, that is with
        # l_i <= (q - 1) // floor(q/l1); none exactly when l1 divides q,
        # and {1} still suffices because then floor(q/l1)*l_i >= q for
        # every i > 1.
        j = max(bisect_right(gens, (q - 1) // (q // l1)), 1)
    return GenClassification(gens[:split], gens[split:], tuple(range(1, j + 1)))


def verify_index_reduction(S: NumericalSemigroup, q: int, index_set) -> bool:
    """Check that the index set I determines the full set difference.

    True iff every generator outside I has a witness j in I with
    q*(l_i - l_j) a member.  Negative differences are never members.
    """
    _check_q(q)
    gens = S.min_generators
    chosen = [gens[j - 1] for j in _index_list(gens, index_set)]  # ascending
    conductor, bitmap = S.conductor, S.member_bitmap
    for li in gens:
        if li in chosen:
            continue
        for lj in chosen:
            if lj > li:  # this and every later difference is negative
                return False
            d = q * (li - lj)
            if d >= conductor or bitmap >> d & 1:
                break
        else:
            return False
    return True


def bound_report(S: NumericalSemigroup, q: int, method: str = "auto",
                 check: bool = False) -> BoundReport:
    """Aggregate all bounds and diagnostic flags for one (S, q) pair.

    ``method`` selects the set-difference computation: "auto" picks the
    closed form for two generators and the generic scan otherwise;
    "sum" and "closed" demand exactly two minimal generators.  On the
    generic path :func:`coincidence_criterion` short-circuits the scan;
    ``check`` re-verifies whatever was produced against the full scan.
    A multiplicity-1 semigroup warns as :func:`lewittes_bound` does, the
    warning attributed to the caller.
    """
    _check_q(q)
    gens = S.min_generators
    if method not in ("auto", "generic", "sum", "closed"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("sum", "closed") and len(gens) != 2:
        raise ValueError(f"method={method} requires exactly 2 generators")

    l1 = gens[0]
    if l1 == 1:
        warnings.warn(_FULL_SEMIGROUP, stacklevel=2)
    lew = q * l1 + 1

    if method == "auto":
        method = "closed" if len(gens) == 2 else "generic"
    # the full scan, run once: with ``check`` the generic path reuses it (never 0)
    full = gm_generic(S, q) if check else None
    if method == "closed":
        gm = gm_two_gen_closed(TwoGenSemigroup(*gens), q)
        gm_method = GmMethod.TWO_GEN_CLOSED
    elif method == "sum":
        gm = gm_two_gen_sum(TwoGenSemigroup(*gens), q)
        gm_method = GmMethod.TWO_GEN_SUM
    else:
        gm = lew if coincidence_criterion(S, q) else full or gm_generic(S, q)
        gm_method = GmMethod.GENERIC_SET_DIFFERENCE
    if check and gm != full:
        raise AssertionError(f"set-difference re-verification failed: {gm} != {full}")

    assert gm <= lew, "set-difference bound exceeded the multiplicity bound"
    return BoundReport(
        q=q,
        lewittes=lew,
        serre=q + 1 + S.genus * math.isqrt(4 * q),
        gm=gm,
        gm_method=gm_method,
        coincide=(gm == lew),
        # sufficient_condition, False without a second generator
        sufficient_condition_holds=len(gens) > 1 and q <= (q // l1) * gens[1],
    )


def differential_sweep(a_max: int = 30, b_max: int = 60,
                       q_values=DEFAULT_Q_SWEEP,
                       inject_fault: bool = False):
    """Compare closed, summation and generic bounds over coprime pairs.

    Sweeps all coprime 2 <= a < b with a <= a_max, b <= b_max and every
    q in ``q_values``.  Returns (cases, mismatches); mismatches holds
    (a, b, q, closed, sum, generic) tuples and is expected to be empty.
    ``inject_fault`` flips one term of the first case so the harness
    can prove it detects disagreements.
    """
    cases = 0
    mismatches = []
    fault_pending = inject_fault
    for a in range(2, a_max + 1):
        for b in range(a + 1, b_max + 1):
            if math.gcd(a, b) != 1:
                continue
            two = TwoGenSemigroup(a, b)
            S = from_generators([a, b])
            for q in q_values:
                closed = gm_two_gen_closed(two, q)
                summed = gm_two_gen_sum(two, q)
                generic = gm_generic(S, q)
                if fault_pending:
                    summed += 1
                    fault_pending = False
                cases += 1
                if not (closed == summed == generic):
                    mismatches.append((a, b, q, closed, summed, generic))
    return cases, mismatches
