"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Expected table cells are frozen from the bundled
reference statistics (src/nsgbounds/data/); every other expected value is
recomputed here by an independent brute-force oracle.
"""

import math
import time

import pytest

from nsgbounds import (
    DEFAULT_Q_SWEEP,
    TwoGenSemigroup,
    bound_report,
    build_gmgen_table,
    build_lgm_table,
    classify_generators,
    coincidence_criterion,
    count_by_genus,
    differential_sweep,
    enumerate_genus,
    from_generators,
    gm_generic,
    gm_set,
    is_member,
    is_member_two_gen,
    lewittes_bound,
)
from nsgbounds.survey import format_percent_cell

from conftest import oracle_gap_sets, oracle_two_gen_members


def _report(num, description, t0, limit):
    dt = time.perf_counter() - t0
    print(f"criterion {num}: PASS ({dt:.2f}s / limit {limit}s) - {description}")
    assert dt < limit, f"criterion {num} exceeded its time budget ({dt:.2f}s)"


COUNTEREXAMPLE_GM_SET = [
    0, 5, 7, 10, 12, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
    29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 46, 47,
    48, 49, 51, 53, 54, 56, 58, 61,
]

EXPECTED_COINCIDE = {
    2: {2: "50.00", 3: "100", 9: "100", 16: "100", 256: "100"},
    3: {2: "25.00", 3: "75.00", 9: "100", 16: "100", 256: "100"},
    4: {2: "42.86", 3: "57.14", 9: "100", 16: "100", 256: "100"},
    5: {2: "33.33", 3: "41.67", 9: "91.67", 16: "100", 256: "100"},
    6: {2: "21.74", 3: "43.48", 9: "86.96", 16: "100", 256: "100"},
    7: {2: "17.95", 3: "41.03", 9: "87.18", 16: "100", 256: "100"},
    8: {2: "14.93", 3: "37.31", 9: "85.07", 16: "100", 256: "100"},
    9: {2: "11.02", 3: "33.05", 9: "88.14", 16: "98.31", 256: "100"},
    10: {2: "8.82", 3: "29.90", 9: "88.24", 16: "95.59", 256: "100"},
}

EXPECTED_SUFFICIENT = {
    2: {2: "50.00", 3: "100", 9: "100", 16: "100", 256: "100"},
    3: {2: "25.00", 3: "75.00", 9: "100", 16: "100", 256: "100"},
    4: {2: "14.29", 3: "42.86", 9: "85.71", 16: "100", 256: "100"},
    5: {2: "8.33", 3: "25.00", 9: "58.33", 16: "91.67", 256: "100"},
    6: {2: "4.35", 3: "17.39", 9: "43.48", 16: "82.61", 256: "100"},
    7: {2: "2.56", 3: "10.26", 9: "38.46", 16: "84.62", 256: "100"},
    8: {2: "1.49", 3: "5.97", 9: "53.73", 16: "91.04", 256: "100"},
    9: {2: "0.85", 3: "4.24", 9: "72.03", 16: "87.29", 256: "100"},
    10: {2: "0.49", 3: "2.45", 9: "79.90", 16: "78.92", 256: "100"},
}

# (mean gm, mean non-gm, portion gm, portion non-gm, mean portion non-gm)
EXPECTED_GMGENS = {
    2: ("1.50", "1.00", "60.00", "40.00", "41.67"),
    3: ("1.75", "1.00", "63.64", "36.36", "35.42"),
    4: ("2.00", "1.14", "63.64", "36.36", "38.57"),
    5: ("2.33", "1.42", "62.22", "37.78", "40.14"),
    6: ("2.52", "1.43", "63.74", "36.26", "37.43"),
    7: ("2.79", "1.62", "63.37", "36.63", "39.13"),
    8: ("3.07", "1.76", "63.58", "36.42", "39.03"),
    9: ("3.32", "1.89", "63.74", "36.26", "38.58"),
    10: ("3.57", "2.00", "64.03", "35.97", "38.39"),
}


def test_criterion_1_counterexample_reproduction():
    t0 = time.perf_counter()
    S = from_generators([5, 7, 18])
    rep = bound_report(S, 9, check=True)
    assert rep.gm == 46 and rep.lewittes == 46 and rep.coincide
    assert rep.sufficient_condition_holds is False
    assert gm_set(S, 9) == COUNTEREXAMPLE_GM_SET
    assert gm_set(S, 9, [1]) == COUNTEREXAMPLE_GM_SET
    _report(1, "gens 5,7,18 at q=9: GM = Lewittes = 46, exact 45-element set",
            t0, 1.0)


def test_criterion_2_closed_formula_equivalence():
    t0 = time.perf_counter()
    cases, mismatches = differential_sweep(50, 50, DEFAULT_Q_SWEEP)
    pairs = sum(1 for a in range(2, 51) for b in range(a + 1, 51)
                if math.gcd(a, b) == 1)
    assert mismatches == []
    assert cases == pairs * len(DEFAULT_Q_SWEEP)
    _report(2, f"closed = sum = generic on {cases} cases (a < b <= 50, 18 q values)",
            t0, 30.0)


def test_criterion_3_lemma_2_cardinality():
    t0 = time.perf_counter()
    checked = 0
    for g in range(13):
        pop = []
        enumerate_genus(g, pop.append)
        for S in pop:
            for q in (2, 3, 4, 5):
                assert len(gm_set(S, q, [1])) == q * S.multiplicity, \
                    (S.min_generators, q)
                checked += 1
    _report(3, f"|L \\ (q*l1 + L)| = q*l1 on {checked} (semigroup, q) pairs, genus <= 12",
            t0, 120.0)


@pytest.mark.filterwarnings("ignore:multiplicity 1")
def test_criterion_4_coincidence_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for g in range(11):
        pop = []
        enumerate_genus(g, pop.append)
        for S in pop:
            for q in (2, 3, 9):
                lhs = coincidence_criterion(S, q)
                rhs = gm_generic(S, q) == lewittes_bound(S, q)
                assert lhs == rhs, (S.min_generators, q)
                checked += 1
    _report(4, f"generator criterion <=> GM = Lewittes on {checked} pairs, genus <= 10",
            t0, 120.0)


def test_criterion_5_coincidence_table_parity():
    t0 = time.perf_counter()
    q_list = (2, 3, 9, 16, 256)
    rows = build_lgm_table(range(2, 11), q_list)
    for row in rows:
        for q in q_list:
            got = format_percent_cell(row.per_q_coincide[q], row.population)
            assert got == EXPECTED_COINCIDE[row.genus][q], (row.genus, q, got)
            got = format_percent_cell(row.per_q_sufficient[q], row.population)
            assert got == EXPECTED_SUFFICIENT[row.genus][q], (row.genus, q, got)
    _report(5, "coincidence/sufficient percentages match cell-for-cell, genus 2..10",
            t0, 120.0)


def test_criterion_6_generator_table_parity():
    t0 = time.perf_counter()
    rows = build_gmgen_table(range(2, 11))
    for row in rows:
        got = (row.mean_gm_gens, row.mean_non_gm_gens,
               format_percent_cell(row.gm_gen_total, row.gen_total),
               format_percent_cell(row.non_gm_gen_total, row.gen_total),
               row.mean_portion_non_gm_percent)
        assert got == EXPECTED_GMGENS[row.genus], (row.genus, got)
    _report(6, "generator means and portions match cell-for-cell, genus 2..10",
            t0, 60.0)


def test_criterion_7_enumeration_oracle():
    t0 = time.perf_counter()
    # expected counts recomputed here by exhaustive gap-subset filtering
    expected = [len(oracle_gap_sets(g)) for g in range(10)]
    got = count_by_genus(9)
    assert got == expected
    assert got == [1, 1, 2, 4, 7, 12, 23, 39, 67, 118]
    _report(7, f"count_by_genus(9) = {got} matches the gap-subset oracle", t0, 60.0)


def test_criterion_8_index_reduction_soundness():
    t0 = time.perf_counter()
    checked = 0
    for g in range(11):
        pop = []
        enumerate_genus(g, pop.append)
        for S in pop:
            for q in (2, 3, 9):
                if S.multiplicity >= q:
                    continue
                cls = classify_generators(S, q)
                assert gm_set(S, q, cls.reduced_index_set) == gm_set(S, q), \
                    (S.min_generators, q)
                checked += 1
    _report(8, f"reduced index set reproduces the full set difference on {checked} pairs",
            t0, 120.0)


def test_criterion_9_membership_oracle():
    t0 = time.perf_counter()
    pairs = 0
    for a in range(2, 41):
        for b in range(a + 1, 41):
            if math.gcd(a, b) != 1:
                continue
            pairs += 1
            members = oracle_two_gen_members(a, b)
            two = TwoGenSemigroup(a, b)
            S = from_generators([a, b])
            for i in range(a * b):
                expect = i in members
                assert is_member_two_gen(two, i) == expect, (a, b, i)
                assert is_member(S, i) == expect, (a, b, i)
    _report(9, f"two-generator fast path matches double-loop oracle on {pairs} pairs",
            t0, 10.0)
