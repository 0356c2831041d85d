"""Tree enumeration: counts, uniqueness, tree structure, budgets."""

from functools import partial

import pytest

from nsgbounds import (
    NsgError,
    ResourceLimit,
    children,
    count_by_genus,
    enumerate_genus,
    from_generators,
    map_reduce_genus,
    root_node,
    worker_pool,
)
from nsgbounds.enumeration import (
    _add_times,
    _expand,
    _node,
    _per_leaf,
    _raw,
    _root,
    _spine_split,
    _walk,
    tuple_add,
)
from nsgbounds.semigroup import bit_indices


# OEIS A007323: the number of numerical semigroups of genus 0, 1, 2, ...
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
           2857, 4806, 8045, 13467)


def gap_mask(S):
    return ~S.member_bitmap & ((1 << S.conductor) - 1)


class TestCounts:
    def test_root_only(self):
        assert enumerate_genus(0) == 1
        assert count_by_genus(0) == [1]

    def test_genus_two_population(self):
        pop = []
        assert enumerate_genus(2, pop.append) == 2
        assert sorted(S.min_generators for S in pop) == [(2, 5), (3, 4, 5)]

    def test_counts_against_oracle(self, gap_sets_by_genus):
        counts = count_by_genus(8)
        assert counts == [len(gap_sets_by_genus[g]) for g in range(9)]

    def test_oracle_agreement_elementwise(self, gap_sets_by_genus):
        for g in range(9):
            seen = set()
            enumerate_genus(g, lambda S: seen.add(frozenset(S.gaps())))
            assert seen == gap_sets_by_genus[g]

    def test_counts_match_oeis(self):
        assert count_by_genus(18) == list(A007323)

    def test_no_duplicates(self):
        for g in range(9):
            masks = []
            enumerate_genus(g, lambda S: masks.append(gap_mask(S)))
            assert len(masks) == len(set(masks))


class TestVisitorSemigroups:
    def test_matches_canonical_construction(self):
        for g in range(8):
            pop = []
            enumerate_genus(g, pop.append)
            for S in pop:
                assert S.genus == g
                assert from_generators(S.min_generators) == S

    def test_deterministic_order(self):
        first, second = [], []
        enumerate_genus(6, lambda S: first.append(S.min_generators))
        enumerate_genus(6, lambda S: second.append(S.min_generators))
        assert first == second


class TestTreeStructure:
    def test_children_raise_genus_by_one(self):
        # Every node to genus 14, so the ordinary semigroups, whose child
        # removes the multiplicity itself, are expanded deep in the tree.
        stack = [root_node(14)]
        while stack:
            node = stack.pop()
            if node.genus >= 14:
                continue
            kids = children(node)
            assert [k.frobenius for k in kids] == sorted(node.effective_generators)
            for kid in kids:
                assert kid.genus == node.genus + 1
                assert kid.bits == node.bits & ~(1 << kid.frobenius)
                child = from_generators(kid.min_generators)
                assert child.genus == node.genus + 1
                assert child == kid.semigroup()
                assert child.multiplicity == kid.multiplicity
                stack.append(kid)

    def test_children_past_the_window(self):
        # root_node(4) sizes its window for genus 4; children() widens it
        stack, seen = [root_node(4)], 0
        while stack:
            node = stack.pop()
            seen += 1
            S = from_generators(node.min_generators)
            assert (S.genus, S.frobenius) == (node.genus, node.frobenius)
            assert S.member_bitmap == node.bits & ((1 << S.conductor) - 1)
            if node.genus < 9:
                stack.extend(children(node))
        assert seen == sum(A007323[:10])

    def test_parent_recovered_by_frobenius(self):
        # adding the Frobenius number back gives the unique parent
        parent = root_node(5)
        for kid in children(parent):
            for grand in children(kid):
                restored = grand.bits | (1 << grand.frobenius)
                assert restored == kid.bits

    def test_effective_generators(self):
        S = root_node(4)
        assert S.effective_generators == (1,)
        (child,) = children(S)
        assert child.min_generators == (2, 3)
        assert child.effective_generators == (2, 3)


class TestRawKernel:
    """Every raw node to genus 14, against its definition."""

    @staticmethod
    def raw_nodes(g):
        stack = [_root(g)]
        while stack:
            node = stack.pop()
            yield node
            if node[2] < g:
                stack.extend(_expand(node))

    def test_mirror_reverses_bits(self):
        for bits, _, _, _, _, mirror in self.raw_nodes(14):
            assert mirror.bit_length() == bits.bit_length() == 3 * 14 + 2
            assert format(mirror, "b") == format(bits, "b")[::-1]

    def test_gens_mask_is_the_minimal_generating_set(self):
        for node in self.raw_nodes(14):
            bits, frobenius, genus, gens, m, _ = node
            S = from_generators(bit_indices(gens))
            assert tuple(bit_indices(gens)) == S.min_generators
            assert (S.frobenius, S.genus, S.multiplicity) == (frobenius, genus, m)
            assert S.member_bitmap == bits & ((1 << frobenius + 1) - 1)

    def test_new_generator_matches_sum_set(self):
        # a child that removes lam > m has lam + m as a generator iff
        # lam + m is no sum of two members of the child in (m, lam)
        for node in self.raw_nodes(14):
            bits, frobenius, genus, gens, m, _ = node
            for kid in _expand(node) if genus < 14 else ():
                lam = kid[1]
                if lam == m:
                    continue
                members = [x for x in range(m + 1, lam) if kid[0] >> x & 1]
                summed = any(kid[0] >> (lam + m - x) & 1 for x in members)
                assert bool(kid[3] >> lam + m & 1) == (not summed)
                assert kid[3] & ~(1 << lam + m) == gens & ~(1 << lam)

    def test_children_round_trip_through_tree_nodes(self):
        for node in self.raw_nodes(14):
            if node[2] < 14:
                assert _raw(_node(node)) == node
                assert children(_node(node)) == [_node(kid) for kid in _expand(node)]


class TestBudget:
    def test_budget_exceeded(self):
        with pytest.raises(ResourceLimit):
            enumerate_genus(8, node_budget=10)

    def test_budget_sufficient(self):
        assert enumerate_genus(5, node_budget=100) == 12

    def test_budget_boundary(self):
        # the walk to genus 5 touches exactly 1 + 1 + 2 + 4 + 7 + 12 nodes
        assert sum(A007323[:6]) == 27
        assert enumerate_genus(5, node_budget=27) == 12
        assert count_by_genus(5, node_budget=27) == list(A007323[:6])
        with pytest.raises(ResourceLimit):
            enumerate_genus(5, node_budget=26)
        with pytest.raises(ResourceLimit):
            count_by_genus(5, node_budget=26)


class TestMapReduce:
    def test_serial_count(self):
        acc, nodes = map_reduce_genus(7, _one, (0,))
        assert acc == (39,)
        assert nodes == sum(count_by_genus(7))

    def test_workers_do_not_change_result(self):
        serial, serial_nodes = map_reduce_genus(8, _gens_fingerprint, (0, 0, 0))
        with worker_pool(2) as pool:
            parallel, parallel_nodes = map_reduce_genus(8, _gens_fingerprint, (0, 0, 0),
                                                        pool=pool)
        assert serial == parallel
        assert serial_nodes == parallel_nodes

    # only map_fn crosses to the workers, so only it must pickle
    @pytest.mark.parametrize("slot", ["map_fn"])
    def test_parallel_rejects_unpicklable_callback(self, slot):
        with pytest.raises(NsgError, match=slot):
            with worker_pool(2) as pool:
                map_reduce_genus(8, lambda leaf: (1,), (0,), pool=pool)

    def test_pooled_fold_takes_a_lambda_merge(self):
        serial = map_reduce_genus(9, _gens_fingerprint, (0, 0, 0))
        with worker_pool(2) as pool:
            merged = map_reduce_genus(9, _gens_fingerprint, (0, 0, 0),
                                      lambda x, y: tuple(a + b for a, b in zip(x, y)),
                                      pool=pool)
        assert merged == serial

    def test_kernel_fold_equals_leaf_fold(self):
        kernel = partial(_per_leaf, _gens_fingerprint)
        want = map_reduce_genus(10, _gens_fingerprint, (0, 0, 0))
        assert map_reduce_genus(10, _gens_fingerprint, (0, 0, 0), kernel=kernel) == want
        with worker_pool(2) as pool:
            assert map_reduce_genus(10, _gens_fingerprint, (0, 0, 0), kernel=kernel,
                                    pool=pool) == want

    def test_parallel_rejects_unpicklable_kernel(self):
        with pytest.raises(NsgError, match="kernel"):
            with worker_pool(2) as pool:
                map_reduce_genus(8, _one, (0,), pool=pool,
                                 kernel=lambda parent: _per_leaf(_one, parent))

    def test_parallel_budget_enforced(self):
        with pytest.raises(ResourceLimit):
            with worker_pool(2) as pool:
                map_reduce_genus(8, _one, (0,), pool=pool, node_budget=20)

    def test_pooled_overrun_leaves_no_unit_in_flight(self):
        # shutting a pool down while a worker writes a result can hang
        with worker_pool(2) as pool:
            with pytest.raises(ResourceLimit):
                map_reduce_genus(12, _one, (0,), pool=pool, node_budget=200)
            assert not pool._cache

    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_boundary(self, workers):
        n = sum(count_by_genus(8))
        with worker_pool(workers) as pool:
            assert map_reduce_genus(8, _one, (0,), node_budget=n, pool=pool) == ((67,), n)
            with pytest.raises(ResourceLimit):
                map_reduce_genus(8, _one, (0,), node_budget=n - 1, pool=pool)


class TestFusedWalk:
    def test_leaf_order_matches_recursive_children(self):
        def descend(node, out):
            if node.genus == 12:
                out.append(tuple(node))
            for kid in children(node) if node.genus < 12 else ():
                descend(kid, out)

        want = []
        descend(root_node(12), want)
        got = []
        _walk(_root(12), 12, 10 ** 6, lambda leaf: got.append(tuple(_node(leaf))))
        assert got == want

    @pytest.mark.parametrize("visitor", [None, lambda S: None], ids=["count", "visit"])
    def test_budget_decision_is_exact(self, visitor):
        total = sum(count_by_genus(6))
        for budget in range(total - 40, total + 41):
            if budget < total:
                with pytest.raises(ResourceLimit):
                    enumerate_genus(6, visitor, node_budget=budget)
            else:
                assert enumerate_genus(6, visitor, node_budget=budget) == 23

    def test_kernel_sees_each_parent_with_children_once(self):
        seen = []

        def kernel(parent):
            seen.append(parent)
            return _per_leaf(_gens_fingerprint, parent)

        tally = {}
        sizes = _walk(_root(12), 12, 10 ** 6, _gens_fingerprint, tally, kernel)
        parents = []
        _walk(_root(12), 11, 10 ** 6, parents.append)
        assert seen == [p for p in parents if p[3] >> p[1] + 1]
        assert len(seen) < len(parents)
        assert sum(tally.values()) == sizes[12] == A007323[12]

    def test_kernel_runs_after_the_budget_check(self):
        parents = []
        _walk(_root(7), 6, 10 ** 6, parents.append)
        with_children = [p for p in parents if p[3] >> p[1] + 1]
        assert parents[-1] == with_children[-1]  # the walk's last node has children
        n = sum(count_by_genus(7))
        for budget, want in ((n, with_children), (n - 1, with_children[:-1])):
            calls = []
            try:
                _walk(_root(7), 7, budget, _one, {}, lambda parent: calls.append(parent) or [])
            except ResourceLimit:
                assert budget < n
            assert calls == want

    def test_doubling_equals_repeated_merges(self):
        acc, value = (5, 0, 2), (1, 3, 0)
        want = acc
        for count in range(41):
            assert _add_times(tuple_add, acc, value, count) == want
            want = tuple_add(want, value)


class TestSpineSplit:
    @pytest.mark.parametrize("g", range(0, 15))
    def test_units_cover_the_walk_once(self, g):
        spine, units = _spine_split(g)
        leaves = []
        nodes = spine + sum(sum(_walk(u, g, 10 ** 6, leaves.append)) for u in units)
        assert nodes == sum(count_by_genus(g))
        population = []
        enumerate_genus(g, lambda S: population.append(S.min_generators))
        assert sorted(tuple(bit_indices(leaf[3])) for leaf in leaves) == sorted(population)

    def test_largest_unit_is_small(self):
        spine, units = _spine_split(14)
        largest = max(sum(_walk(u, 14, 10 ** 6)) for u in units)
        assert largest <= 0.15 * sum(count_by_genus(14))


def _one(S):
    return (1,)


def _gens_fingerprint(leaf):
    gens = bit_indices(leaf[3])
    return (1, len(gens), sum(gens))

