"""Construction, canonicalization and membership tests."""

import math
import pickle
import random
from fractions import Fraction

import pytest

from nsgbounds import (
    EmptyInput,
    NonCoprimeGenerators,
    NumericalSemigroup,
    TwoGenSemigroup,
    bound_report,
    build_gmgen_table,
    build_lgm_table,
    classify_generators,
    from_generators,
    is_member,
    is_member_consecutive,
    is_member_two_gen,
    unique_representation,
)
from nsgbounds import semigroup

from conftest import oracle_gap_sets, oracle_members_upto, oracle_two_gen_members


def coprime_pairs(a_max, b_max):
    return [(a, b) for a in range(2, a_max + 1) for b in range(a + 1, b_max + 1)
            if math.gcd(a, b) == 1]


class TestFromGenerators:
    def test_full_semigroup(self):
        S = from_generators([1])
        assert S.conductor == 0
        assert S.genus == 0
        assert S.min_generators == (1,)

    def test_repr_names_the_generators_conductor_and_genus(self):
        assert repr(from_generators([5, 7, 18])) == (
            "NumericalSemigroup(min_generators=(5, 7, 18), conductor=17, genus=10)")

    def test_counterexample_semigroup(self):
        S = from_generators([5, 7, 18])
        assert S.members(20) == [0, 5, 7, 10, 12, 14, 15, 17, 18, 19]
        assert S.conductor == 17
        assert S.genus == 10
        assert S.gaps() == [1, 2, 3, 4, 6, 8, 9, 11, 13, 16]

    def test_redundant_generator_dropped(self):
        S = from_generators([4, 6, 10, 9])
        assert S.min_generators == (4, 6, 9)

    def test_input_order_and_duplicates_ignored(self):
        assert from_generators([7, 5, 18, 5]) == from_generators([5, 7, 18])

    def test_canonical_idempotence(self):
        for gens in ([2, 3], [5, 7, 18], [4, 6, 10, 9], [6, 10, 15], [3, 17], [11, 13]):
            S = from_generators(gens)
            assert from_generators(S.min_generators) == S

    def test_errors(self):
        with pytest.raises(EmptyInput):
            from_generators([])
        with pytest.raises(NonCoprimeGenerators):
            from_generators([4, 6])
        with pytest.raises(ValueError):
            from_generators([0, 3])

    @pytest.mark.parametrize("bad", [2.7, 3.0, Fraction(3), "3"])
    def test_non_integral_entry_rejected(self, bad):
        # entries are read with operator.index, so nothing is truncated
        with pytest.raises(TypeError):
            from_generators([bad, 5])

    def test_int_like_entries_accepted(self):
        class IntLike:
            def __init__(self, v):
                self.v = v

            def __index__(self):
                return self.v

        assert from_generators([IntLike(2), 3]) == from_generators([2, 3])
        assert from_generators([True, 7]) == from_generators([1])

    def test_no_coprime_pair_inside_set(self):
        # gcd of the whole set is 1 but no two elements are coprime
        S = from_generators([6, 10, 15])
        assert S.min_generators == (6, 10, 15)
        assert S.conductor == 30  # largest gap is 29
        assert not is_member(S, 29)

    def test_conductor_correctness(self):
        for gens in ([2, 3], [5, 7, 18], [6, 10, 15], [9, 11, 13], [4, 7], [31, 37]):
            S = from_generators(gens)
            if S.conductor > 0:
                assert not is_member(S, S.conductor - 1)
            for x in range(S.conductor, S.conductor + max(gens) + 1):
                assert is_member(S, x)

    def test_minimality_invariant(self):
        # no minimal generator splits into two smaller nonzero members
        for gens in ([5, 7, 18], [6, 10, 15], [4, 6, 10, 9], [8, 9, 10, 11, 12]):
            S = from_generators(gens)
            assert math.gcd(*S.min_generators) == 1
            for g in S.min_generators:
                assert not any(is_member(S, y) and is_member(S, g - y)
                               for y in range(1, g))

    def test_against_oracle(self):
        # seeded random sets with redundant sums, repeated entries and
        # multiples of the largest entry mixed in; sets with no entry
        # coprime to the smallest, which take the fallback window; 1 with
        # larger entries; and entries at or past the closure window
        # (13 for <3, 5>, 57 for <7, 9>)
        rng = random.Random(20171)
        sets = [(6, 10, 15), (12, 18, 20, 27), (10, 12, 15), (6, 10, 45),
                (30, 42, 70, 105), (15, 21, 35), (6, 9, 10), (4, 6, 9, 10),
                (1, 20, 25), (1, 1, 2), (3, 5, 13), (3, 5, 7, 100), (7, 9, 48, 57, 61)]
        while len(sets) < 300:
            gens = rng.sample(range(1, 61), rng.randint(1, 7))
            if math.gcd(*gens) != 1:
                continue
            if len(gens) > 1 and rng.random() < 0.5:
                gens.append(gens[0] + gens[1])
            if rng.random() < 0.3:
                gens.append(rng.choice(gens))
            if rng.random() < 0.3:
                gens.append(max(gens) * rng.randint(2, 9))
            sets.append(tuple(gens))
        for gens in sets:
            S = from_generators(gens)
            lo = min(gens)
            member = oracle_members_upto(gens, S.conductor + 2 * lo + 1)
            # the conductor is certified by the oracle itself: its last gap
            # is conductor - 1, followed by a run of lo members
            assert S.conductor == 0 or not member[S.conductor - 1], gens
            assert all(member[S.conductor:S.conductor + lo]), gens
            assert S.member_bitmap == sum(1 << i for i in range(S.conductor) if member[i])
            assert S.genus == S.conductor - sum(member[:S.conductor])
            # minimal generators: the nonzero members that are not a sum of
            # two nonzero members, brute force; none lies at or above c + m
            expected = tuple(x for x in range(1, len(member)) if member[x]
                             and not any(member[y] and member[x - y]
                                         for y in range(1, x // 2 + 1)))
            assert S.min_generators == expected, gens
            assert from_generators(S.min_generators) == S

    def test_gap_set_round_trip(self, gap_sets_by_genus):
        for g in range(10):
            gap_sets = gap_sets_by_genus[g] if g in gap_sets_by_genus else oracle_gap_sets(g)
            assert len(gap_sets) == (1, 1, 2, 4, 7, 12, 23, 39, 67, 118)[g]
            for gaps in gap_sets:
                gens = [x for x in range(1, 4 * g + 3) if x not in gaps]
                S = from_generators(gens)
                assert S.genus == g
                assert S.gaps() == sorted(gaps)
                assert from_generators(S.min_generators) == S

    def test_genus_counts_gaps(self):
        for gens in ([2, 3], [5, 7, 18], [6, 10, 15], [3, 5]):
            S = from_generators(gens)
            assert S.genus == len(S.gaps())
            assert (S.member_bitmap & 1) == 1
            if S.conductor > 0:
                assert (S.member_bitmap >> (S.conductor - 1)) & 1 == 0


class TestMembership:
    def test_examples(self):
        S = from_generators([5, 7, 18])
        assert not is_member(S, 16)
        assert is_member(S, 117)
        assert not is_member(S, -3)

    def test_against_dp_oracle(self):
        for gens in ([2, 3], [5, 7, 18], [6, 10, 15], [4, 9]):
            S = from_generators(gens)
            limit = S.conductor + 2 * max(gens)
            table = oracle_members_upto(gens, limit)
            for i in range(limit):
                assert is_member(S, i) == table[i], (gens, i)

    def test_closure_property(self):
        S = from_generators([5, 7, 18])
        members = S.members(S.conductor)
        for x in members:
            for y in members:
                if x + y < S.conductor:
                    assert is_member(S, x + y)


class TestTwoGen:
    def test_examples(self):
        T = TwoGenSemigroup(5, 7)
        assert is_member_two_gen(T, 12)
        assert not is_member_two_gen(T, 23)
        assert is_member_two_gen(T, 24)
        assert not is_member_two_gen(T, -1)

    def test_inverse_field(self):
        for a, b in coprime_pairs(8, 16):
            T = TwoGenSemigroup(a, b)
            assert 1 <= T.c <= a - 1
            assert (T.b * T.c) % T.a == 1

    def test_validation(self):
        with pytest.raises(NonCoprimeGenerators):
            TwoGenSemigroup(4, 6)
        with pytest.raises(ValueError):
            TwoGenSemigroup(1, 5)
        with pytest.raises(ValueError):
            TwoGenSemigroup(7, 5)

    def test_genus_formula_matches_general(self):
        for a, b in coprime_pairs(40, 40):
            S = from_generators([a, b])
            assert S.genus == (a - 1) * (b - 1) // 2
            assert S.genus == TwoGenSemigroup(a, b).genus

    def test_agreement_fast_general_oracle(self):
        for a, b in coprime_pairs(25, 25):
            T = TwoGenSemigroup(a, b)
            S = from_generators([a, b])
            members = oracle_two_gen_members(a, b)
            for i in range(a * b):
                expect = i in members
                assert is_member_two_gen(T, i) == expect
                assert is_member(S, i) == expect

    def test_unique_representation(self):
        T = TwoGenSemigroup(5, 7)
        assert unique_representation(T, 0) == (0, 0)
        assert unique_representation(T, 24) == (2, 2)
        assert unique_representation(T, 23) is None
        assert unique_representation(T, -5) is None

    def test_membership_is_the_representation(self, monkeypatch):
        T = TwoGenSemigroup(5, 7)
        monkeypatch.setattr(semigroup, "unique_representation", lambda S, i: None)
        assert not is_member_two_gen(T, 24) and 24 not in T

    def test_representation_properties(self):
        for a, b in [(2, 3), (5, 7), (8, 13), (12, 25)]:
            T = TwoGenSemigroup(a, b)
            for i in range(a * b):
                rep = unique_representation(T, i)
                if rep is None:
                    assert not is_member_two_gen(T, i)
                    continue
                m, n = rep
                assert m >= 0 and 0 <= n <= a - 1
                assert m * a + n * b == i
                others = [n2 for n2 in range(a)
                          if n2 != n and (i - n2 * b) >= 0 and (i - n2 * b) % a == 0]
                assert others == []


class TestConsecutive:
    def test_examples(self):
        assert not is_member_consecutive(3, 5)
        assert is_member_consecutive(3, 6)
        assert not is_member_consecutive(2, 1)
        assert not is_member_consecutive(4, -2)

    def test_matches_two_gen(self):
        for a in range(2, 41):
            T = TwoGenSemigroup(a, a + 1)
            for i in range(a * (a + 1)):
                assert is_member_consecutive(a, i) == is_member_two_gen(T, i)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            is_member_consecutive(1, 10)


# Two equal values of each immutable result type, built independently.
VALUE_TYPES = {
    "NumericalSemigroup": lambda: from_generators([5, 7, 18]),
    "TwoGenSemigroup": lambda: TwoGenSemigroup(5, 7),
    "BoundReport": lambda: bound_report(from_generators([5, 7, 18]), 9),
    "GenClassification": lambda: classify_generators(from_generators([5, 7, 18]), 9),
    "LgmTableRow": lambda: build_lgm_table(range(4, 5), (2, 3))[0],
    "GmGenTableRow": lambda: build_gmgen_table(range(4, 5))[0],
}


class TestValueTypes:
    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_immutable(self, name):
        value = VALUE_TYPES[name]()
        assert type(value).__name__ == name
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], 0)
        with pytest.raises(AttributeError):
            value.extra = 0

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_equality_hash_and_pickle_by_value(self, name):
        one, two = VALUE_TYPES[name](), VALUE_TYPES[name]()
        assert one == two and one is not two
        if name == "LgmTableRow":  # its per-q dicts are unhashable, as they always were
            with pytest.raises(TypeError):
                hash(one)
        else:
            assert hash(one) == hash(two)
        copy = pickle.loads(pickle.dumps(one))
        assert copy == one and type(copy) is type(one)

    def test_unequal_values(self):
        S = from_generators([5, 7, 18])
        assert bound_report(S, 9) != bound_report(S, 16)
        assert TwoGenSemigroup(5, 7) != TwoGenSemigroup(5, 8)
        assert from_generators([5, 7]) != S

    def test_in_is_membership(self):
        S = from_generators([5, 7, 18])
        assert 17 in S
        assert 16 not in S
        # <2, 3> is the tuple ((2, 3), 2, 1, 1): 1 is a field but a gap
        T = from_generators([2, 3])
        assert 1 in tuple(T) and 1 not in T
        assert 1 not in TwoGenSemigroup(2, 3)
        with pytest.raises(TypeError):  # tuple containment would find the field
            (5, 7, 18) in S

    def test_two_gen_construction(self):
        for a, b in coprime_pairs(12, 20):
            T = TwoGenSemigroup(a, b)
            assert T == (a, b, pow(b, -1, a)) and T.c == pow(b, -1, a)
            assert TwoGenSemigroup(b=b, a=a) == T
            a2, b2, c2 = T
            assert (a2, b2, c2) == (a, b, T.c) and len(T) == 3
        with pytest.raises(TypeError):
            TwoGenSemigroup(5, 7, 3)  # c is derived, never given
        assert TwoGenSemigroup(5, 7)._replace(b=9) == TwoGenSemigroup(5, 9) == (5, 9, 4)
        with pytest.raises(NonCoprimeGenerators):
            TwoGenSemigroup(5, 7)._replace(b=10)
        with pytest.raises(NonCoprimeGenerators):
            TwoGenSemigroup(6, 9)
        for a, b in ((1, 5), (7, 5), (5, 5), (0, 1)):
            with pytest.raises(ValueError):
                TwoGenSemigroup(a, b)
