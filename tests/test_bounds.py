"""Bound formulas, coincidence criteria and generator classification."""

import math
from fractions import Fraction

import pytest

from nsgbounds import (
    EmptyIndexSet,
    GmMethod,
    SingleGenerator,
    TwoGenSemigroup,
    bound_report,
    build_lgm_table,
    classify_generators,
    coincidence_criterion,
    enumerate_genus,
    from_generators,
    gm_generic,
    gm_set,
    gm_two_gen_closed,
    gm_two_gen_sum,
    is_member,
    lemma_qd_condition,
    lewittes_bound,
    serre_bound,
    sufficient_condition,
    verify_index_reduction,
)
from nsgbounds import bounds
from nsgbounds.bounds import differential_sweep

from conftest import oracle_gm_count

S578 = from_generators([5, 7, 18])
S23 = from_generators([2, 3])
S57 = from_generators([5, 7])


class TestLewittesSerre:
    def test_lewittes_examples(self):
        assert lewittes_bound(S578, 9) == 46
        assert lewittes_bound(S23, 2) == 5
        assert lewittes_bound(from_generators([6, 7]), 256) == 1537

    def test_lewittes_flags_full_semigroup(self):
        with pytest.warns(UserWarning):
            assert lewittes_bound(from_generators([1]), 5) == 6

    def test_serre_examples(self):
        assert serre_bound(0, 9) == 10
        assert serre_bound(3, 2) == 9
        assert serre_bound(10, 16) == 97

    def test_serre_floor_of_2_sqrt_q(self):
        for q in range(1, 400):
            assert serre_bound(1, q) - (q + 1) == math.isqrt(4 * q)


# every public function that takes q, with its other arguments
_Q_TAKERS = [(lewittes_bound, (S578,), ()), (serre_bound, (3,), ()),
             (gm_generic, (S578,), ()), (gm_set, (S578,), ()),
             (gm_two_gen_sum, (TwoGenSemigroup(5, 7),), ()),
             (gm_two_gen_closed, (TwoGenSemigroup(5, 7),), ()),
             (coincidence_criterion, (S578,), ()), (sufficient_condition, (S578,), ()),
             (lemma_qd_condition, (5, 7), ()), (classify_generators, (S578,), ()),
             (verify_index_reduction, (S578,), ([1],)), (bound_report, (S578,), ())]


class TestInputChecks:
    @pytest.mark.parametrize("q", [0, -9])
    @pytest.mark.parametrize("fn, lead, rest", _Q_TAKERS,
                             ids=[fn.__name__ for fn, _, _ in _Q_TAKERS])
    def test_q_below_one_is_rejected(self, fn, lead, rest, q):
        with pytest.raises(ValueError, match="^field size parameter q must be positive$"):
            fn(*lead, q, *rest)

    # a q that is not an int would turn the exact results into floats
    @pytest.mark.parametrize("q", [9.5, 9.0, Fraction(19, 2)], ids=repr)
    @pytest.mark.parametrize("fn, lead, rest", _Q_TAKERS,
                             ids=[fn.__name__ for fn, _, _ in _Q_TAKERS])
    def test_q_that_is_not_an_int_is_rejected(self, fn, lead, rest, q):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            fn(*lead, q, *rest)

    @pytest.mark.parametrize("q", [9.5, 9.0, Fraction(19, 2)], ids=repr)
    def test_every_q_of_a_list_is_checked(self, q):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build_lgm_table(range(2, 4), [2, q])
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            differential_sweep(3, 4, [2, q])

    def test_serre_rejects_a_negative_genus(self):
        with pytest.raises(ValueError, match="^genus must be non-negative$"):
            serre_bound(-1, 9)

    @pytest.mark.parametrize("g", [2.5, 2.0, Fraction(5, 2)], ids=repr)
    def test_serre_rejects_a_genus_that_is_not_an_int(self, g):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            serre_bound(g, 9)


class TestGmForms:
    def test_generic_examples(self):
        assert gm_generic(S578, 9) == 46
        assert gm_generic(S23, 2) == 5
        assert gm_generic(S57, 9) == 44

    def test_set_examples(self):
        listing = [0, 5, 7, 10, 12, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24, 25,
                   26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
                   41, 42, 43, 44, 46, 47, 48, 49, 51, 53, 54, 56, 58, 61]
        assert gm_set(S578, 9) == listing
        assert gm_set(S578, 9, [1]) == listing
        # 4 drops out (4 - 4 = 0 is a member); 5 survives (5 - 4 = 1 is a gap)
        assert gm_set(S23, 2, [1]) == [0, 2, 3, 5]

    def test_set_index_errors(self):
        with pytest.raises(EmptyIndexSet):
            gm_set(S578, 9, [])
        with pytest.raises(ValueError):
            gm_set(S578, 9, [0])
        with pytest.raises(ValueError):
            gm_set(S578, 9, [4])

    def test_two_gen_sum_examples(self):
        assert gm_two_gen_sum(TwoGenSemigroup(5, 7), 9) == 44
        assert gm_two_gen_sum(TwoGenSemigroup(2, 3), 2) == 5
        assert gm_two_gen_sum(TwoGenSemigroup(4, 5), 7) == 27

    def test_two_gen_closed_examples(self):
        assert gm_two_gen_closed(TwoGenSemigroup(5, 7), 9) == 44
        assert gm_two_gen_closed(TwoGenSemigroup(2, 3), 2) == 5
        assert gm_two_gen_closed(TwoGenSemigroup(4, 5), 7) == 27

    def test_small_q_below_a(self):
        # terms with n >= q contribute zero, never negative
        assert gm_two_gen_sum(TwoGenSemigroup(5, 7), 2) == 5
        assert gm_two_gen_closed(TwoGenSemigroup(5, 7), 2) == 5
        assert gm_generic(S57, 2) == 5

    def test_three_way_equivalence_sample(self):
        qs = (1, 2, 3, 4, 9, 16, 20, 256)
        for a in range(2, 21):
            for b in range(a + 1, 21):
                if math.gcd(a, b) != 1:
                    continue
                two = TwoGenSemigroup(a, b)
                S = from_generators([a, b])
                for q in qs:
                    assert gm_two_gen_closed(two, q) == gm_two_gen_sum(two, q) \
                        == gm_generic(S, q)

    def test_against_independent_oracle(self):
        for gens, q in [([2, 3], 2), ([5, 7], 9), ([5, 7, 18], 9),
                        ([4, 5], 7), ([6, 10, 15], 4), ([3, 7, 8], 5)]:
            assert gm_generic(from_generators(gens), q) == oracle_gm_count(gens, q)

    def test_gm_never_exceeds_lewittes(self):
        for gens in ([2, 3], [5, 7], [5, 7, 18], [6, 10, 15], [4, 9]):
            S = from_generators(gens)
            for q in (2, 3, 9, 16, 256):
                assert gm_generic(S, q) <= q * S.multiplicity + 1

    def test_nonminimal_generating_set_is_safe(self):
        # canonicalization cannot change the set difference: for a
        # redundant generator lam = mu + nu, q*lam + L is inside q*mu + L
        S_redundant = from_generators([4, 6, 10, 9])
        S_minimal = from_generators([4, 6, 9])
        assert S_redundant == S_minimal
        for q in (2, 3, 5, 9):
            count = gm_generic(S_minimal, q)
            assert count == oracle_gm_count([4, 6, 10, 9], q)


class TestCoincidence:
    def test_criterion_examples(self):
        assert coincidence_criterion(S578, 9) is True
        assert coincidence_criterion(S57, 9) is False
        assert coincidence_criterion(S23, 2) is True

    def test_sufficient_examples(self):
        assert sufficient_condition(S578, 9) is False
        assert sufficient_condition(S23, 2) is True
        assert sufficient_condition(from_generators([3, 4]), 2) is False

    def test_sufficient_single_generator(self):
        with pytest.raises(SingleGenerator):
            sufficient_condition(from_generators([1]), 3)

    def test_criterion_matches_full_comparison_small(self):
        for g in range(1, 8):
            pop = []
            enumerate_genus(g, pop.append)
            for S in pop:
                for q in (2, 3, 9):
                    assert coincidence_criterion(S, q) == \
                        (gm_generic(S, q) == q * S.multiplicity + 1)

    def test_two_gen_iff(self):
        for a in range(2, 16):
            for b in range(a + 1, 16):
                if math.gcd(a, b) != 1:
                    continue
                S = from_generators([a, b])
                for q in (2, 3, 5, 9, 16):
                    assert coincidence_criterion(S, q) == (q <= (q // a) * b)

    def test_member_q_implies_coincidence(self):
        for g in range(1, 8):
            pop = []
            enumerate_genus(g, pop.append)
            for S in pop:
                for q in (2, 3, 4, 5, 9):
                    if is_member(S, q):
                        assert coincidence_criterion(S, q)

    def test_sufficient_implies_coincidence_but_not_conversely(self):
        for g in range(1, 9):
            pop = []
            enumerate_genus(g, pop.append)
            for S in pop:
                for q in (2, 3, 9):
                    if sufficient_condition(S, q):
                        assert coincidence_criterion(S, q)
        # the converse fails here: coincidence holds, the simple test does not
        assert coincidence_criterion(S578, 9) and not sufficient_condition(S578, 9)

    def test_lemma_2_cardinality_small(self):
        for g in range(0, 9):
            pop = []
            enumerate_genus(g, pop.append)
            for S in pop:
                for q in (2, 3):
                    assert len(gm_set(S, q, [1])) == q * S.multiplicity


class TestLemmaQd:
    def test_examples(self):
        assert lemma_qd_condition(5, 7, 9) is False
        assert lemma_qd_condition(4, 6, 5) is True
        assert lemma_qd_condition(2, 3, 2) is True

    def test_matches_two_gen_membership(self):
        # condition <=> q*(li - l1) in d*<l1/d, li/d>
        for l1 in range(2, 12):
            for li in range(l1 + 1, 18):
                d = math.gcd(l1, li)
                pair = from_generators([l1 // d, li // d]) if l1 // d > 1 else None
                for q in (2, 3, 5, 9):
                    want = lemma_qd_condition(l1, li, q)
                    target = q * (li - l1)
                    if pair is None:
                        got = target % d == 0
                    else:
                        got = target % d == 0 and is_member(pair, target // d)
                    assert want == got, (l1, li, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma_qd_condition(7, 5, 2)


class TestClassification:
    def test_examples(self):
        for q in (2, 5, 9):
            cls = classify_generators(from_generators([2, 5]), q)
            assert cls.gm_generators == (2,)
            assert cls.non_gm_generators == (5,)
        for q in (2, 5, 9):
            cls = classify_generators(from_generators([3, 4, 5]), q)
            assert cls.gm_generators == (3, 4)
            assert cls.non_gm_generators == (5,)
        cls = classify_generators(S578, 9)
        assert cls.gm_generators == (5, 7)
        assert cls.non_gm_generators == (18,)

    def test_reduced_set_when_multiplicity_divides_q(self):
        # cutoff q / floor(q/l1) excludes even the multiplicity here, yet
        # index 1 alone is sound
        S = from_generators([3, 4])
        cls = classify_generators(S, 9)
        assert cls.reduced_index_set == (1,)
        assert gm_set(S, 9, cls.reduced_index_set) == gm_set(S, 9)

    def test_reduced_set_whole_range(self):
        for g in range(1, 9):
            pop = []
            enumerate_genus(g, pop.append)
            for S in pop:
                for q in (2, 3, 4, 5, 9):
                    cls = classify_generators(S, q)
                    # the cutoff splits the sorted tuple into prefix and suffix
                    assert cls.gm_generators + cls.non_gm_generators == S.min_generators
                    if S.multiplicity >= 2:
                        assert S.multiplicity in cls.gm_generators
                    assert gm_set(S, q, cls.reduced_index_set) == gm_set(S, q)
                    if S.multiplicity < q:
                        assert verify_index_reduction(S, q, cls.reduced_index_set)

    def test_gm_generator_index_set_sound(self):
        # sound under the hypothesis multiplicity < q
        for g in range(1, 9):
            pop = []
            enumerate_genus(g, pop.append)
            for S in pop:
                gens = S.min_generators
                idx = [i + 1 for i, gen in enumerate(gens) if gen < 2 * gens[0] - 1]
                if not idx:
                    continue
                for q in (2, 3, 4, 5, 9):
                    if S.multiplicity >= q:
                        continue
                    assert gm_set(S, q, idx) == gm_set(S, q)

    def test_cutoff_needs_multiplicity_below_q(self):
        # at l1 >= q the generators below 2*l1 - 1 may not suffice, so no
        # reduction is made there
        S = from_generators([3, 5])
        cls = classify_generators(S, 2)
        assert cls.gm_generators == (3,) and cls.reduced_index_set == (1, 2)
        assert len(gm_set(S, 2, [1])) == 6 and len(gm_set(S, 2)) == 4


class TestIndexReduction:
    def test_examples(self):
        assert verify_index_reduction(S578, 9, [1]) is True
        assert verify_index_reduction(S57, 9, [1]) is False
        for S in (S578, S57, S23):
            n = len(S.min_generators)
            assert verify_index_reduction(S, 9, list(range(1, n + 1))) is True

    def test_matches_set_equality(self):
        for g in range(1, 8):
            pop = []
            enumerate_genus(g, pop.append)
            for S in pop:
                n = len(S.min_generators)
                for q in (2, 9):
                    for i in range(1, n + 1):
                        same = gm_set(S, q, [i]) == gm_set(S, q)
                        assert verify_index_reduction(S, q, [i]) == same

    def test_errors(self):
        with pytest.raises(EmptyIndexSet):
            verify_index_reduction(S578, 9, [])


class TestBoundReport:
    def test_counterexample(self):
        rep = bound_report(S578, 9)
        assert rep.lewittes == 46 and rep.gm == 46
        assert rep.coincide and not rep.sufficient_condition_holds
        assert rep.gm_method is GmMethod.GENERIC_SET_DIFFERENCE

    def test_two_gen(self):
        rep = bound_report(S57, 9)
        assert rep.lewittes == 46 and rep.gm == 44 and not rep.coincide
        assert rep.gm_method is GmMethod.TWO_GEN_CLOSED

    def test_small(self):
        rep = bound_report(S23, 2)
        assert rep.lewittes == 5 and rep.gm == 5 and rep.coincide
        # genus of <2,3> is 1, so the genus bound is 2 + 1 + 1*2
        assert rep.serre == 5

    def test_methods_agree(self):
        for method in ("auto", "generic", "sum", "closed"):
            assert bound_report(S57, 9, method=method, check=True).gm == 44

    def test_method_validation(self):
        with pytest.raises(ValueError):
            bound_report(S578, 9, method="closed")
        with pytest.raises(ValueError):
            bound_report(S578, 9, method="bogus")

    def test_full_semigroup_warns_at_the_caller(self):
        with pytest.warns(UserWarning, match="multiplicity 1") as record:
            rep = bound_report(from_generators([1]), 3)
        assert rep.lewittes == rep.gm == 4 and rep.coincide
        assert [w.filename for w in record] == [__file__]

    def test_check_mode_on_shortcut(self):
        rep = bound_report(S578, 9, method="generic", check=True)
        assert rep.gm == 46

    @pytest.mark.parametrize("S, method", [(S578, "generic"), (S57, "closed"), (S57, "sum")])
    def test_check_raises_when_the_full_scan_disagrees(self, monkeypatch, S, method):
        monkeypatch.setattr(bounds, "gm_generic", lambda S, q: 1)
        gm = bound_report(S, 9, method=method).gm
        with pytest.raises(AssertionError, match=f"^set-difference re-verification failed: "
                                                 f"{gm} != 1$"):
            bound_report(S, 9, method=method, check=True)

    @pytest.mark.parametrize("method, name", [("auto", "gm_two_gen_closed"),
                                              ("closed", "gm_two_gen_closed"),
                                              ("sum", "gm_two_gen_sum")])
    def test_two_gen_forms_are_the_public_functions(self, monkeypatch, method, name):
        calls = []
        monkeypatch.setattr(bounds, name, lambda two, q: calls.append((two, q)) or 45)
        rep = bound_report(S57, 9, method=method)
        assert rep.gm == 45 and not rep.coincide
        assert calls == [(TwoGenSemigroup(5, 7), 9)]

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("method", ["auto", "closed", "sum"])
    def test_two_gen_forms_skip_the_criterion(self, monkeypatch, method, check):
        def criterion(S, q):
            raise AssertionError("the criterion runs only on the generic path")

        monkeypatch.setattr(bounds, "coincidence_criterion", criterion)
        for q in (2, 3, 9, 16, 256):
            assert bound_report(S57, q, method=method, check=check).gm == gm_generic(S57, q)

    @pytest.mark.parametrize("check", [False, True])
    def test_one_full_scan_when_the_criterion_fails(self, monkeypatch, check):
        S = from_generators([4, 5, 11])
        assert not bounds.coincidence_criterion(S, 2)
        scans = []
        full = bounds.gm_generic
        monkeypatch.setattr(bounds, "gm_generic", lambda S, q: scans.append(q) or full(S, q))
        assert bound_report(S, 2, method="generic", check=check).gm == full(S, 2)
        assert scans == [2]


class TestDifferentialSweep:
    def test_small_sweep_agrees(self):
        cases, mismatches = differential_sweep(6, 12, (2, 3, 9, 16))
        assert mismatches == []
        assert cases == 4 * len([(a, b) for a in range(2, 7)
                                 for b in range(a + 1, 13) if math.gcd(a, b) == 1])

    def test_injected_fault_detected(self):
        cases, mismatches = differential_sweep(3, 5, (2, 3), inject_fault=True)
        assert len(mismatches) == 1

    def test_hyperelliptic_family(self):
        cases, mismatches = differential_sweep(2, 41, (2, 3, 9, 256))
        assert mismatches == [] and cases > 0
