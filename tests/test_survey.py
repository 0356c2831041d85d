"""Table statistics: exact tallies, rendering, reference comparison."""

import math
import os
import random
import warnings
from fractions import Fraction
from functools import partial

import pytest

from nsgbounds import (
    build_gmgen_table,
    build_lgm_table,
    count_by_genus,
    enumerate_genus,
    map_reduce_genus,
    render_percent,
    survey,
    worker_pool,
)
from nsgbounds.bounds import classify_generators, coincidence_criterion, sufficient_condition
from nsgbounds.enumeration import TreeNode, _expand, _walk, root_node
from nsgbounds.errors import ResourceLimit
from nsgbounds.survey import (
    compare_tables,
    format_percent_cell,
    gmgen_csv,
    gmgen_json,
    gmgen_text,
    lgm_csv,
    lgm_json,
    lgm_text,
    load_reference,
    _gmgen_kernel,
    _gmgen_leaf,
    _lgm_kernel,
    _lgm_leaf,
    _sample_rule,
    render_fixed2,
    selfcheck_lgm,
)


class TestRendering:
    def test_render_percent_examples(self):
        assert render_percent(3, 7) == "42.86"
        assert render_percent(11, 12) == "91.67"
        assert render_percent(0, 5) == "0.00"
        assert render_percent(1, 1) == "100.00"

    def test_half_away_from_zero(self):
        assert render_fixed2(125, 1000) == "0.13"  # 0.125 rounds away
        assert render_fixed2(135, 1000) == "0.14"
        assert render_fixed2(1005, 10) == "100.50"
        assert render_percent(1, 800) == "0.13"

    def test_cell_convention(self):
        assert format_percent_cell(2, 2) == "100"
        assert format_percent_cell(1, 2) == "50.00"

    def test_validation(self):
        with pytest.raises(ValueError):
            render_percent(3, 2)
        with pytest.raises(ValueError):
            render_percent(-1, 2)
        for num, den in ((1, 0), (1, -2), (-1, 2)):
            with pytest.raises(ValueError, match="num >= 0 and den > 0"):
                render_fixed2(num, den)


class TestLgmTable:
    def test_small_rows(self):
        rows = build_lgm_table(range(2, 5), (2, 3))
        by_genus = {r.genus: r for r in rows}
        assert [by_genus[g].population for g in (2, 3, 4)] == [2, 4, 7]
        assert by_genus[2].per_q_coincide == {2: 1, 3: 2}
        assert by_genus[3].per_q_coincide[2] == 1
        assert by_genus[3].per_q_sufficient[3] == 3
        assert by_genus[4].per_q_coincide[2] == 3
        assert by_genus[4].per_q_sufficient[2] == 1

    def test_sufficient_never_exceeds_coincide(self):
        rows = build_lgm_table(range(1, 9), (2, 3, 9, 16))
        for row in rows:
            for q in (2, 3, 9, 16):
                assert row.per_q_sufficient[q] <= row.per_q_coincide[q] <= row.population

    def test_csv_golden(self):
        rows = build_lgm_table(range(2, 5), (2, 3))
        expected = (
            "genus,Lewittes = Geil-Matsumoto (q=2),Lewittes = Geil-Matsumoto (q=3),"
            "q <= floor(q/l1)*l2 (q=2),q <= floor(q/l1)*l2 (q=3)\n"
            "2,50.00,100,50.00,100\n"
            "3,25.00,75.00,25.00,75.00\n"
            "4,42.86,57.14,14.29,42.86\n"
        )
        assert lgm_csv(rows, (2, 3)) == expected

    def test_json_has_exact_tallies(self):
        rows = build_lgm_table(range(2, 3), (2,))
        payload = lgm_json(rows, (2,))
        cell = payload["rows"][0]["coincide"]["2"]
        assert cell == {"count": 1, "total": 2, "percent": "50.00"}

    def test_budget_carries_partial_rows(self):
        # it carries none: the overrun names its row, and the finished rows are dropped
        with pytest.raises(ResourceLimit,
                           match="^node budget exhausted while computing genus 6$") as info:
            build_lgm_table(range(2, 12), (2,), node_budget=60)
        assert not hasattr(info.value, "partial")

    def test_empty_q_list_rejected(self):
        with pytest.raises(ValueError):
            build_lgm_table(range(2, 3), ())

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_lgm_table(range(2, 3), (2, 0))

    def test_duplicate_q_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            build_lgm_table(range(2, 3), (2, 3, 2))


class TestGmGenTable:
    def test_genus_two_row(self):
        (row,) = build_gmgen_table(range(2, 3))
        assert (row.gm_gen_total, row.non_gm_gen_total, row.population) == (3, 2, 2)
        assert row.mean_gm_gens == "1.50"
        assert row.mean_non_gm_gens == "1.00"
        assert format_percent_cell(row.gm_gen_total, row.gen_total) == "60.00"
        assert format_percent_cell(row.non_gm_gen_total, row.gen_total) == "40.00"
        assert row.mean_portion_non_gm == Fraction(5, 12)
        assert row.mean_portion_non_gm_percent == "41.67"

    def test_genus_three_row(self):
        (row,) = build_gmgen_table(range(3, 4))
        assert row.mean_gm_gens == "1.75"
        assert row.mean_portion_non_gm_percent == "35.42"

    def test_portions_sum_to_one_exactly(self):
        for row in build_gmgen_table(range(2, 9)):
            total = Fraction(row.gm_gen_total, row.gen_total) \
                + Fraction(row.non_gm_gen_total, row.gen_total)
            assert total == 1

    def test_csv_shape(self):
        text = gmgen_csv(build_gmgen_table(range(2, 4)))
        lines = text.strip().split("\n")
        assert lines[0].startswith("genus,mean GM generators")
        assert lines[1] == "2,1.50,1.00,60.00,40.00,41.67"
        assert lines[2] == "3,1.75,1.00,63.64,36.36,35.42"

    def test_json_exact_fraction(self):
        payload = gmgen_json(build_gmgen_table(range(2, 3)))
        frac = payload["rows"][0]["mean_portion_non_gm"]
        assert frac == {"num": 5, "den": 12, "percent": "41.67"}

    def test_a_deep_range_takes_no_lcm_past_the_rows_it_walks(self, monkeypatch):
        # rows 2 and 3 walk 4 + 8 nodes, so a budget of 10 overruns at genus
        # 3; each walked row scales by lcm(1..g+1), and no other is computed
        lcm, calls = math.lcm, []

        def spy(*args):
            calls.append(max(args))
            return lcm(*args)

        monkeypatch.setattr(math, "lcm", spy)
        survey._portion_scale.cache_clear()
        with pytest.raises(ResourceLimit, match="^node budget exhausted while computing genus 3$"):
            build_gmgen_table(range(2, 300001), node_budget=10)
        assert 3 in calls and max(calls) <= 4


class TestDeterminismAcrossWorkers:
    def test_lgm_rows_identical(self):
        serial = build_lgm_table(range(2, 9), (2, 9))
        parallel = build_lgm_table(range(2, 9), (2, 9), workers=2)
        assert serial == parallel

    def test_gmgen_rows_identical(self):
        assert build_gmgen_table(range(2, 9)) == build_gmgen_table(range(2, 9), workers=3)

    @pytest.mark.parametrize("kind", ["lgm", "gmgens"])
    def test_fold_for_any_worker_count(self, monkeypatch, kind):
        if kind == "lgm":
            # every sampled leaf mismatches, so the order of the mismatches shows
            criterion = survey.coincidence_criterion
            monkeypatch.setattr(survey, "coincidence_criterion",
                                lambda S, q: not criterion(S, q))
            q_list, rule = (2, 9), survey._sample_rule(7, 0.2)
            fold = (partial(survey._lgm_leaf, q_list, rule),
                    (0,) * 5 + survey._UNCHECKED)
            kernel = partial(survey._lgm_kernel, q_list, rule, {})
        else:
            fold = survey._gmgen_leaf, (0, 0, 0, 0)
            kernel = survey._gmgen_kernel
        want = map_reduce_genus(12, *fold, kernel=kernel)
        assert kind == "gmgens" or len(want[0][-1]) > 100  # (q, generators) mismatches
        for workers in (2, 3, 4):
            with worker_pool(workers, fold[0], kernel) as pool:
                assert map_reduce_genus(12, *fold, kernel=kernel, pool=pool) == want


class TestSharedPool:
    def test_one_pool_per_table(self, monkeypatch):
        fork = os.fork
        forks = []

        def counting_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        assert build_gmgen_table(range(2, 10), workers=3) == build_gmgen_table(range(2, 10))
        assert len(forks) == 2  # one pool for all eight rows; the parent is its third process

    def test_pooled_budget_matches_serial(self):
        nodes = [sum(count_by_genus(g)) for g in range(2, 11)]
        # the end of the sixth row, the middle of the last, the end of the last
        boundaries = (sum(nodes[:6]), sum(nodes) - nodes[-1] // 2, sum(nodes))
        for budget in (b + d for b in boundaries for d in (-1, 0, 1)):
            outcomes = []
            for workers in (1, 2):
                try:
                    outcomes.append(build_gmgen_table(range(2, 11), workers=workers,
                                                      node_budget=budget))
                except ResourceLimit as exc:
                    outcomes.append(str(exc))
            assert isinstance(outcomes[0], list) == (budget >= sum(nodes)), budget
            assert outcomes[0] == outcomes[1], budget


def _body_cells(csv_text, text_text):
    """The value rows of a table's CSV, checked equal to its text rendering."""
    csv_rows = [ln.split(",") for ln in csv_text.splitlines()[1:]]
    assert [ln.split() for ln in text_text.splitlines()[1:]] == csv_rows
    return csv_rows


class TestOneRenderingPerNumber:
    """CSV, text and JSON print every number the same way."""

    Q = (2, 3, 9, 16, 256)

    def test_lgm(self):
        rows = build_lgm_table(range(11), self.Q)
        csv_rows = _body_cells(lgm_csv(rows, self.Q), lgm_text(rows, self.Q))
        assert any("100" in cells for cells in csv_rows)
        for cells, row in zip(csv_rows, lgm_json(rows, self.Q)["rows"], strict=True):
            counts = [row[kind][str(q)] for kind in ("coincide", "sufficient") for q in self.Q]
            assert [str(row["genus"])] + [c["percent"] for c in counts] == cells
            assert [format_percent_cell(c["count"], c["total"]) for c in counts] == cells[1:]

    def test_gmgens(self):
        rows = build_gmgen_table(range(11))
        csv_rows = _body_cells(gmgen_csv(rows), gmgen_text(rows))
        assert any("100" in cells for cells in csv_rows)
        for cells, row in zip(csv_rows, gmgen_json(rows)["rows"], strict=True):
            assert [str(row["genus"]), row["mean_gm"], row["mean_non_gm"], row["portion_gm"],
                    row["portion_non_gm"], row["mean_portion_non_gm"]["percent"]] == cells
            total = row["gm_generators"] + row["non_gm_generators"]
            assert [format_percent_cell(row["gm_generators"], total),
                    format_percent_cell(row["non_gm_generators"], total)] == cells[3:5]


class TestReference:
    def test_bundled_lgm_matches_computation(self):
        rows = build_lgm_table(range(2, 11), (2, 3, 9, 16, 256))
        compared, deviations = compare_tables(lgm_csv(rows, (2, 3, 9, 16, 256)),
                                              load_reference("lgm"))
        assert deviations == []
        assert compared == 9 * 10

    def test_bundled_gmgen_matches_computation(self):
        rows = build_gmgen_table(range(2, 11))
        compared, deviations = compare_tables(gmgen_csv(rows), load_reference("gmgens"))
        assert deviations == []
        assert compared == 9 * 5

    def test_deviations_detected(self):
        good = "genus,x\n2,50.00\n3,25.00\n"
        bad = "genus,x\n2,50.02\n3,25.00\n"
        near = "genus,x\n2,50.01\n3,25.00\n"
        assert compare_tables(good, bad)[1] == [(2, "x", "50.00", "50.02")]
        assert compare_tables(good, near)[1] == []  # within one ulp
        for bad, reason in (("genus,x\n2,50.00,1.00\n", "one number per column"),
                            ("genus,x\n2\n3,25.00\n", "one number per column"),
                            ("genus,x\n2,50.00\n2,50.00\n", "repeats genus 2"),
                            ("genus,x\n2,-0.50\n3,25.00\n", "one number per column"),
                            ("genus,x\n 2,50.00\n", "not a genus"),
                            ("genus,x\n+2,50.00\n", "not a genus"),
                            ("genus,x\n\u0662,50.00\n", "not a genus"),
                            ("genus,x,x\n2,9.99,50.00\n", "repeats column 'x'")):
            with pytest.raises(ValueError, match=reason):
                compare_tables(good, bad)

    def test_crlf_reference_compares_every_cell(self):
        rows = build_lgm_table(range(2, 8), (2, 3, 9, 16, 256))
        computed = lgm_csv(rows, (2, 3, 9, 16, 256))
        ref = load_reference("lgm")
        assert compare_tables(computed, ref) == (6 * 10, [])
        assert compare_tables(computed, ref.replace("\n", "\r\n")) == (6 * 10, [])


class TestSelfcheck:
    def test_sampled_consistency(self):
        checked, mismatches = selfcheck_lgm(range(2, 9), (2, 3, 9),
                                            sample_rate=0.25, seed=42)
        assert checked > 0
        assert mismatches == []

    def test_seed_determinism(self):
        a = selfcheck_lgm(range(2, 7), (2, 3), sample_rate=0.5, seed=7)
        b = selfcheck_lgm(range(2, 7), (2, 3), sample_rate=0.5, seed=7)
        assert a == b

    def test_genus_zero_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert selfcheck_lgm(range(0, 3), (2, 3), sample_rate=1.0) == (4, [])

    def test_one_budget_for_every_genus(self):
        n = sum(sum(count_by_genus(g)) for g in range(2, 9))
        assert selfcheck_lgm(range(2, 9), (2,), node_budget=n)[1] == []
        with pytest.raises(ResourceLimit, match="genus 8"):
            selfcheck_lgm(range(2, 9), (2,), node_budget=n - 1)


    def test_full_rate_checks_every_leaf(self):
        rows = build_lgm_table(range(0, 10), (2, 3, 9), selfcheck_seed=5, sample_rate=1.0)
        assert [r.checked for r in rows] == [r.population for r in rows]
        assert all(r.mismatches == () for r in rows)

    @pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5])
    def test_sample_rate_outside_0_to_1_is_rejected(self, rate):
        with pytest.raises(ValueError, match="sample_rate"):
            build_lgm_table(range(2, 6), (2,), selfcheck_seed=0, sample_rate=rate)
        with pytest.raises(ValueError, match="sample_rate"):
            selfcheck_lgm(range(2, 6), (2,), sample_rate=rate)

    def test_zero_rate_checks_no_leaf(self):
        rows = build_lgm_table(range(0, 10), (2, 3, 9), selfcheck_seed=5, sample_rate=0.0)
        assert [r.checked for r in rows] == [0] * 10

    def test_negative_seed_is_rejected(self):
        # random.Random(-s) would draw the sample of s
        with pytest.raises(ValueError, match="non-negative"):
            build_lgm_table(range(2, 6), (2,), selfcheck_seed=-3)
        with pytest.raises(ValueError, match="non-negative"):
            selfcheck_lgm(range(2, 6), (2,), seed=-1)

    @pytest.mark.parametrize("seed, checked", [(0, 298), (3, 278), (4, 293)])
    def test_non_negative_seeds_keep_their_samples(self, seed, checked):
        rows = build_lgm_table(range(2, 13), (2,), selfcheck_seed=seed, sample_rate=0.2)
        assert sum(r.checked for r in rows) == checked

    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_sample_is_a_seeded_hash_of_the_leaf(self, monkeypatch, seed):
        # the documented rule, written out: (a*B + b) mod P < floor(rate*P)
        prime = 2 ** 61 - 1
        rng = random.Random(seed)
        a, b = rng.randrange(1, prime), rng.randrange(prime)
        cut = int(0.2 * prime)
        criterion = survey.coincidence_criterion
        monkeypatch.setattr(survey, "coincidence_criterion", lambda S, q: not criterion(S, q))
        for g in range(2, 12):
            want = []
            enumerate_genus(g, lambda S: want.append(S.min_generators)
                            if (a * S.member_bitmap + b) % prime < cut else None)
            (row,) = build_lgm_table([g], (2,), selfcheck_seed=seed, sample_rate=0.2)
            assert row.checked == len(want)
            assert sorted(gens for _, gens in row.mismatches) == sorted(want)


class TestLeafKernels:
    Q = (1, 2, 3, 4, 5, 7, 9, 16, 256)

    def test_leaves_match_the_bounds_api(self):
        for g in range(15):
            leaves = []
            _walk(root_node(g), g, 10 ** 6, leaves.append)
            lcm = math.lcm(*range(1, g + 2))
            for leaf in leaves:
                S = TreeNode.semigroup(leaf)
                gens = S.min_generators
                coincide = [int(coincidence_criterion(S, q)) for q in self.Q]
                sufficient = [int(len(gens) > 1 and sufficient_condition(S, q))
                              for q in self.Q]
                assert _lgm_leaf(self.Q, None, leaf) == (1, *coincide, *sufficient, 0, ())
                cls = classify_generators(S, 2)
                n_gm, n_non = len(cls.gm_generators), len(cls.non_gm_generators)
                assert _gmgen_leaf(leaf) == (1, n_gm, n_non, n_non * (lcm // len(gens)))


def _parents(top):
    """Every raw node of genus below ``top``, from a walk to genus ``top``."""
    stack, out = [root_node(top)], []
    while stack:
        node = stack.pop()
        if node[2] < top:
            out.append(node)
            stack.extend(_expand(node))
    return out


def _tally(pairs):
    """(value -> count, the checked values in order) of (value, count) pairs."""
    counts, checked = {}, []
    for value, count in pairs:
        assert count > 0
        counts[value] = counts.get(value, 0) + count
        if value[-2]:
            checked.append(value)
    return counts, checked


class TestParentKernels:
    """A parent kernel tallies its children as their leaf function would."""

    Q = (1, 2, 3, 4, 9, 16, 256)

    @pytest.mark.parametrize("sample_rate", [None, 0.3])
    def test_lgm_kernel_matches_the_leaves(self, sample_rate):
        rule = None if sample_rate is None else _sample_rule(8, sample_rate)
        sampled = 0
        memo = {}  # one table's memo, filled across the parents as in a fold
        for parent in _parents(14):
            want = _tally((_lgm_leaf(self.Q, rule, kid), 1) for kid in _expand(parent))
            assert _tally(_lgm_kernel(self.Q, rule, memo, parent)) == want
            sampled += len(want[1])
        assert (sampled > 1000) == (rule is not None)

    def test_gmgen_kernel_matches_the_leaves(self):
        for parent in _parents(14):
            want = _tally((_gmgen_leaf(kid), 1) for kid in _expand(parent))
            assert _tally(_gmgen_kernel(parent))[0] == want[0]

