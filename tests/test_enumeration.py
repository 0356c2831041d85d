"""Tree enumeration: counts, uniqueness, tree structure, budgets."""

import errno
import gc
import math
import os
import random
import select
import signal
import threading
import time
from functools import partial

import pytest

from nsgbounds import (
    NsgError,
    ResourceLimit,
    TreeNode,
    build_gmgen_table,
    children,
    count_by_genus,
    enumerate_genus,
    from_generators,
    map_reduce_genus,
    root_node,
    worker_pool,
)
from nsgbounds import enumeration
from nsgbounds.enumeration import (
    _MAX_BUDGET,
    _RECORD,
    _add_times,
    _expand,
    _fold_unit,
    _least_nodes,
    _ordinary,
    _per_leaf,
    _recv,
    _serve,
    _take,
    _unit,
    _units,
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

    def test_f_below_twice_m_is_fibonacci(self):
        # the F < 2m semigroups of genus g are 0, m, any subset of (m, 2m)
        # and every integer from 2m on: C(m - 1, g - m + 1) of them at
        # multiplicity m, Fib(g + 1) in all (the row guard rests on this);
        # the F < 3m ones are counted without the walk, by _f_below_3m
        fib, population = [0, 1], count_by_genus(22)
        for g in range(23):
            fib.append(fib[-1] + fib[-2])
            counts = map_reduce_genus(g, _f_below_2m, (0, 0, 0), kernel=_f_below_2m_kernel)[0]
            assert counts == (fib[g + 1], _f_below_3m(g), population[g]), g
        for g in (5, 9, 14):
            by_m = map_reduce_genus(g, _f_below_2m_at_m, (0,) * (g + 2))[0]
            assert by_m == (0, *(math.comb(m - 1, g - m + 1) for m in range(1, g + 2))), g

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

    def test_the_visitors_return_value_is_not_tallied(self):
        for g in (0, 5):
            seen = []

            def visit(S):
                seen.append(gap_mask(S))
                return S.gaps()  # a list, which no tally can hold

            assert enumerate_genus(g, visit) == A007323[g]
            assert len(set(seen)) == len(seen) == A007323[g]

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

    @pytest.mark.parametrize("g", range(11))
    def test_every_leaf_reads_as_a_tree_node(self, g):
        def agrees(leaf):
            node = TreeNode._make(leaf)
            return int(node.semigroup() == from_generators(node.min_generators)), 1

        (good, leaves), _ = map_reduce_genus(g, agrees, (0, 0))
        assert good == leaves == A007323[g]


class TestRawKernel:
    """Every raw node to genus 14, against its definition."""

    @staticmethod
    def raw_nodes(g):
        stack = [root_node(g)]
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
                assert children(TreeNode._make(node)) == _expand(node)

    def test_a_mask_builds_the_children_that_remove_its_bits(self):
        # the child that removes lam has Frobenius number lam
        for i, node in enumerate(self.raw_nodes(12)):
            if node[2] < 12:
                kids = _expand(node)
                for mask in (0, 1 << node[4], random.Random(i).getrandbits(40) << 1):
                    assert _expand(node, mask) == [kid for kid in kids if mask >> kid[1] & 1]


class TestBudget:
    def test_budget_exceeded(self):
        # every walk raises the one overrun, which names the genus it walks to;
        # a budget below 1 raises before the walk starts
        for walk in (count_by_genus, enumerate_genus):
            for g, budget in ((8, 10), (3, 0)):
                with pytest.raises(ResourceLimit,
                                   match=f"^node budget exhausted while computing genus {g}$"):
                    walk(g, node_budget=budget)

    @pytest.mark.parametrize("walk", [root_node, enumerate_genus, count_by_genus,
                                      lambda g: map_reduce_genus(g, len, (0,))],
                             ids=["root_node", "enumerate_genus", "count_by_genus",
                                  "map_reduce_genus"])
    def test_negative_genus_is_rejected(self, walk):
        with pytest.raises(ValueError, match="^genus must be non-negative$"):
            walk(-1)

    def test_a_float_budget_raises_in_every_walk(self):
        # the serial fold, the pooled fold and the walks read the budget
        # through operator.index, so none of them takes 1e8 for 10**8
        with pytest.raises(TypeError):
            map_reduce_genus(6, _one, (0,), node_budget=1e8)
        with worker_pool(2, _one) as pool:
            with pytest.raises(TypeError):
                map_reduce_genus(6, _one, (0,), node_budget=1e8, pool=pool)
            assert map_reduce_genus(6, _one, (0,), pool=pool) == ((23,), 50)  # nothing queued
        for walk in (count_by_genus, enumerate_genus):
            with pytest.raises(TypeError):
                walk(5, node_budget=1e8)

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
        with worker_pool(2, _gens_fingerprint) as pool:
            parallel, parallel_nodes = map_reduce_genus(8, _gens_fingerprint, (0, 0, 0),
                                                        pool=pool)
        assert serial == parallel
        assert serial_nodes == parallel_nodes

    def test_pooled_fold_takes_a_lambda_and_a_closure(self):
        # the workers are forked holding the fold, so nothing of it is pickled
        weight = 3

        def kernel(parent, tally):
            kids = {}
            _per_leaf(_gens_fingerprint, parent, kids)
            for value, count in kids.items():
                value = (1, weight * value[1])
                tally[value] = tally.get(value, 0) + count

        map_fn = lambda leaf: (1, weight * _gens_fingerprint(leaf)[1])  # noqa: E731
        serial = map_reduce_genus(11, map_fn, (0, 0), kernel=kernel)
        with worker_pool(2, map_fn, kernel) as pool:
            assert map_reduce_genus(11, map_fn, (0, 0), kernel=kernel, pool=pool) == serial
        assert serial[0] == (A007323[11], 3 * map_reduce_genus(11, _gens_fingerprint,
                                                                (0, 0, 0))[0][1])

    # the callables themselves need not pickle, but what they return in a
    # worker must, to cross back to the parent
    @pytest.mark.parametrize("slot", ["map_fn"])
    def test_parallel_rejects_unpicklable_callback(self, slot):
        value = _in_workers_unpicklable()
        _assert_pooled_fold_rejects(slot, lambda leaf: value(), None)

    def test_parallel_rejects_unpicklable_kernel(self):
        value = _in_workers_unpicklable()
        _assert_pooled_fold_rejects("kernel", _one, lambda parent, tally: _per_leaf(
            lambda kid: value(), parent, tally))

    def test_a_pool_refuses_other_callables(self):
        with worker_pool(2, _one) as pool:
            results = [fd for _, fd in pool._workers]
            for map_fn, kernel in ((_gens_fingerprint, None),
                                   (_one, partial(_per_leaf, _one))):
                with pytest.raises(ValueError, match="another map_fn or kernel"):
                    map_reduce_genus(8, map_fn, (0,), kernel=kernel, pool=pool)
                assert _take(pool._queue[0]) is None  # no record was queued
                assert select.select(results, [], [], 0.1)[0] == []
            assert map_reduce_genus(8, _one, (0,), pool=pool) == map_reduce_genus(8, _one, (0,))

    def test_pooled_fold_takes_a_lambda_merge(self):
        serial = map_reduce_genus(9, _gens_fingerprint, (0, 0, 0))
        with worker_pool(2, _gens_fingerprint) as pool:
            merged = map_reduce_genus(9, _gens_fingerprint, (0, 0, 0),
                                      lambda x, y: tuple(a + b for a, b in zip(x, y)),
                                      pool=pool)
        assert merged == serial

    def test_kernel_fold_equals_leaf_fold(self):
        kernel = partial(_per_leaf, _gens_fingerprint)
        want = map_reduce_genus(10, _gens_fingerprint, (0, 0, 0))
        assert map_reduce_genus(10, _gens_fingerprint, (0, 0, 0), kernel=kernel) == want
        with worker_pool(2, _gens_fingerprint, kernel) as pool:
            assert map_reduce_genus(10, _gens_fingerprint, (0, 0, 0), kernel=kernel,
                                    pool=pool) == want

    def test_parallel_budget_enforced(self):
        with pytest.raises(ResourceLimit):
            with worker_pool(2, _one) as pool:
                map_reduce_genus(8, _one, (0,), pool=pool, node_budget=20)

    def test_pooled_overrun_leaves_no_unit_in_flight(self, monkeypatch):
        # a unit alone overruns 200, which the row guard would refuse
        # before the fold; half the row overruns only in the parent's
        # running total, with units still queued or in flight; a genus-13
        # row raises in every unit.  Each stops its pool before the fold
        # raises.
        monkeypatch.setattr(enumeration, "_least_nodes", _spine_and_units)
        for g, budget, exc in ((12, 200, ResourceLimit),
                               (12, sum(A007323[:13]) // 2, ResourceLimit),
                               (13, 10 ** 6, ValueError)):
            with worker_pool(3, _fail_past_12) as pool:
                pids = pool.pids
                with pytest.raises(exc) as stopped:  # keeps the fold's frame alive
                    map_reduce_genus(g, _fail_past_12, (0,), pool=pool, node_budget=budget)
                assert_stopped(pool, pids)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_boundary(self, workers):
        n = sum(count_by_genus(8))
        with worker_pool(workers, _one) as pool:
            assert map_reduce_genus(8, _one, (0,), node_budget=n, pool=pool) == ((67,), n)
            with pytest.raises(ResourceLimit):
                map_reduce_genus(8, _one, (0,), node_budget=n - 1, pool=pool)


@pytest.fixture
def deadline():
    """Fail a test that blocks for a minute, rather than hang the run."""
    def expire(signum, frame):
        raise TimeoutError("blocked for 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def assert_stopped(pool, pids):
    """The pool's workers ``pids`` are reaped, and it folds no more.

    The caller holds the failed fold's exception, and so the fold's frame:
    the fold stopped the pool itself, not by being closed as garbage.
    """
    assert pool.pids == ()
    assert_reaped(pids)
    map_fn, kernel = pool.callables
    with pytest.raises(NsgError, match="not running"):
        map_reduce_genus(8, map_fn, (0,), kernel=kernel, pool=pool)


@pytest.mark.usefixtures("deadline")
class TestForkPool:
    def test_worker_exception_is_raised_in_the_parent(self):
        with worker_pool(2, _fail_past_12) as pool:
            pids = pool.pids
            with pytest.raises(ValueError, match="no leaf") as stopped:
                map_reduce_genus(13, _fail_past_12, (0,), pool=pool)
            assert_stopped(pool, pids)
        with worker_pool(2, _fail_past_12) as pool:
            assert (map_reduce_genus(10, _fail_past_12, (0,), pool=pool)
                    == map_reduce_genus(10, _one, (0,)))

    def test_a_failed_unit_does_not_wait_for_a_stuck_worker(self):
        # unit 0 of a row holds its one multiplicity-2 leaf, and raises
        # there once a worker is stuck in a later unit for longer than the
        # deadline: the fold raises at once and kills that worker
        parent = os.getpid()
        stuck_r, stuck_w = os.pipe()

        def map_fn(leaf):
            if os.getpid() != parent and leaf[4] != 2:
                os.write(stuck_w, b"x")
                time.sleep(120)
            select.select([stuck_r], [], [], 10)  # until a worker is stuck
            if leaf[4] == 2:
                raise ValueError("multiplicity 2")
            return (1,)

        try:
            with worker_pool(3, map_fn) as pool:
                pids = pool.pids
                start = time.monotonic()
                with pytest.raises(ValueError, match="multiplicity 2") as stopped:
                    map_reduce_genus(10, map_fn, (0,), pool=pool)
                assert time.monotonic() - start < 30
                assert select.select([stuck_r], [], [], 0)[0]  # a worker was stuck
                assert_stopped(pool, pids)
        finally:
            os.close(stuck_r)
            os.close(stuck_w)

    def test_dead_worker_is_an_error(self):
        with worker_pool(3, _one) as pool:
            pids = pool.pids
            os.kill(pids[0], signal.SIGKILL)
            os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
            with pytest.raises(NsgError, match="exited"):
                map_reduce_genus(10, _one, (0,), pool=pool)
            with pytest.raises(NsgError, match="not running"):
                map_reduce_genus(10, _one, (0,), pool=pool)
        assert_reaped(pids)

    def test_a_failed_poll_is_an_error_that_stops_the_pool(self):
        class FailingPoll:  # the pool's own poll of its result pipes fails
            def __init__(self, real):
                self.unregister = real.unregister

            def poll(self, *timeout):
                raise OSError(errno.EIO, "Input/output error")

        with worker_pool(2, _one) as pool:
            pids = pool.pids
            pool._results = FailingPoll(pool._results)
            with pytest.raises(NsgError, match="pool failed: .*Input/output error"):
                map_reduce_genus(10, _one, (0,), pool=pool)
            assert pool.pids == ()
        assert_reaped(pids)

    def test_fewer_units_than_processes(self):
        # genus 0..3 rows have one unit each, and four processes fold them;
        # one pool serves every row, so a late worker may meet later rows
        with worker_pool(4, _gens_fingerprint) as pool:
            for g in range(13):
                want = map_reduce_genus(g, _gens_fingerprint, (0, 0, 0))
                assert map_reduce_genus(g, _gens_fingerprint, (0, 0, 0), pool=pool) == want
        assert [_units(g) for g in range(4)] == [1, 1, 1, 1]

    def test_a_worker_folds_the_units_of_each_record_genus(self):
        # the records of two rows, interleaved: each names a unit of its own genus
        records = sorted(((g, i, 10 ** 6) for g in (9, 11)
                          for i in range(_units(g))), key=lambda r: r[1])
        queue_r, queue_w = os.pipe()
        os.set_blocking(queue_r, False)
        result_r, result_w = os.pipe()
        os.write(queue_w, b"".join(_RECORD.pack(*record) for record in records))
        os.close(queue_w)  # the worker reads EOF once the queue is empty
        pid = os.fork()
        if pid == 0:
            try:
                os.close(result_r)
                _serve(queue_r, result_w, partial(_fold_unit, map_fn=_gens_fingerprint,
                                                  kernel=None))
            finally:
                os._exit(1)
        for fd in (queue_r, result_w):
            os.close(fd)
        leaves = {9: 0, 11: 0}
        for g, i, budget in records:
            answer = _recv(result_r)
            assert answer == (i, True, _fold_unit((g, i, budget), _gens_fingerprint, None))
            leaves[g] += sum(answer[2][0].values())
        assert leaves == {9: A007323[9], 11: A007323[11]}
        assert os.waitpid(pid, 0)[1] == 0
        os.close(result_r)

    def test_a_row_past_the_posix_pipe_buf_folds_whole(self, monkeypatch):
        # 40 records, 640 bytes, pass the 512 bytes that POSIX makes atomic
        # for one write; every record past the seventh names the last unit
        monkeypatch.setattr(select, "PIPE_BUF", 512)
        monkeypatch.setattr(enumeration, "_units", lambda g: 40)
        assert [_unit(10, i) for i in range(7, 40)] == [[_ordinary(8, 10)]] * 33
        last = _walk([_ordinary(8, 10)], 10, 10 ** 6)[10]
        serial = map_reduce_genus(10, _one, (0,))
        assert serial[0] == (A007323[10] + 32 * last,)
        with worker_pool(2, _one) as pool:
            assert map_reduce_genus(10, _one, (0,), pool=pool) == serial

    @pytest.mark.parametrize("workers", [0.5, 2.0])
    def test_a_float_worker_count_raises_before_any_fork(self, monkeypatch, workers):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        with pytest.raises(TypeError):
            worker_pool(workers, _one)
        with pytest.raises(TypeError):
            build_gmgen_table(range(2, 6), workers=workers)

    def test_overrun_then_a_good_fold(self):
        want = map_reduce_genus(12, _gens_fingerprint, (0, 0, 0))
        with worker_pool(2, _gens_fingerprint) as pool:
            pids = pool.pids
            with pytest.raises(ResourceLimit) as stopped:
                # above the guard's 609, below the row's 1,413 nodes
                map_reduce_genus(12, _gens_fingerprint, (0, 0, 0), pool=pool, node_budget=1000)
            assert_stopped(pool, pids)
        with worker_pool(2, _gens_fingerprint) as pool:  # the next row takes a fresh pool
            assert map_reduce_genus(12, _gens_fingerprint, (0, 0, 0), pool=pool) == want

    def test_closing_a_fold_early_stops_the_pool(self):
        with worker_pool(2, _one) as pool:
            pids = pool.pids
            fold = pool.fold(14, _units(14), 10 ** 6)
            next(fold)  # the other units are queued or in flight
            fold.close()
            assert_stopped(pool, pids)

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, RuntimeError])
    def test_workers_are_killed_when_the_block_raises(self, exc):
        with pytest.raises(exc):
            with worker_pool(2, _one) as pool:
                pids = pool.pids
                fold = pool.fold(14, _units(14), 10 ** 6)
                next(fold)  # the other units are queued or in flight
                raise exc
        assert_reaped(pids)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_each_worker_holds_only_its_own_pipes(self):
        # so that a dying parent leaves every worker reading EOF; a worker
        # has no task pipe, since it is forked holding its fold
        inherited = _pipe_ends(os.getpid())
        with worker_pool(4, _slow_pid) as pool:
            folded = set()
            while not folded >= set(pool.pids):  # every worker has started
                folded |= map_reduce_genus(7, _slow_pid, frozenset(), frozenset.union,
                                           pool=pool)[0]
            queue = os.fstat(pool._queue[0]).st_ino
            for pid, result in pool._workers:
                assert _pipe_ends(pid) - inherited == {(os.fstat(result).st_ino, os.O_WRONLY),
                                                       (queue, os.O_RDONLY)}

    def test_every_fork_sees_one_thread(self, monkeypatch):
        # the pool starts no thread, so it never forks a multi-threaded
        # process (which Python 3.12 warns about): not at its start, and
        # not after a fold, when the next pool starts
        fork, threads = os.fork, []

        def counted_fork():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        want = map_reduce_genus(10, _one, (0,))
        for _ in range(2):
            with worker_pool(3, _one) as pool:
                assert map_reduce_genus(10, _one, (0,), pool=pool) == want
                assert threading.active_count() == 1
        assert threads == [1] * 4

    def test_gc_is_frozen_only_while_the_pool_is_open(self):
        gc.unfreeze()  # whatever an earlier test left frozen
        with worker_pool(2, _one):
            assert gc.get_freeze_count()
        assert gc.get_freeze_count() == 0
        gc.freeze()  # frozen by someone else: the pool leaves it as it is
        try:
            frozen = gc.get_freeze_count()
            with worker_pool(2, _one):
                pass
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_a_worker_that_dies_after_a_fold_fails_the_close(self):
        gc.unfreeze()  # whatever an earlier test left frozen
        want = map_reduce_genus(10, _one, (0,))
        with pytest.raises(NsgError) as info:
            with worker_pool(3, _one) as pool:
                pids = pool.pids
                assert map_reduce_genus(10, _one, (0,), pool=pool) == want
                os.kill(pids[1], signal.SIGKILL)
        assert str(info.value) == f"pool worker {pids[1]} exited before the pool closed"
        assert_reaped(pids)
        assert gc.get_freeze_count() == 0

    def test_an_interrupted_start_reaps_the_started_worker(self, monkeypatch):
        gc.unfreeze()  # whatever an earlier test left frozen
        fork, forked = os.fork, []

        def interrupted_fork():
            if forked:
                raise KeyboardInterrupt
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", interrupted_fork)
        fds = set(os.listdir("/dev/fd"))
        with pytest.raises(KeyboardInterrupt):
            with worker_pool(3, _one):
                pytest.fail("the block ran")
        assert set(os.listdir("/dev/fd")) == fds  # the interrupted fork's pipe is closed too
        monkeypatch.undo()
        assert len(forked) == 1
        assert_reaped(forked)
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)
        assert gc.get_freeze_count() == 0


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
        _walk([root_node(12)], 12, 10 ** 6, got.append)
        assert got == want

    def test_inline_expansion_matches_children(self):
        # a walk to genus t hands the kernel every node it built at genus
        # t - 1 that has children, and counts the rest in ``sizes``
        levels = [[] for _ in range(15)]

        def descend(node):
            levels[node.genus].append(tuple(node))
            for kid in children(node) if node.genus < 14 else ():
                descend(kid)

        descend(root_node(14))
        for target in range(1, 15):
            seen = []
            sizes = _walk([root_node(14)], target, 10 ** 6,
                          kernel=lambda parent, tally: seen.append(parent))
            assert seen == [p for p in levels[target - 1] if p[3] >> p[1] + 1], target
            assert sizes == [len(level) for level in levels[:target + 1]], target

    @pytest.mark.parametrize("walk", ["count", "visit", "kernel"])
    def test_budget_decision_is_exact(self, walk):
        leaf_fn = None if walk == "count" else _gens_fingerprint
        kernel = partial(_per_leaf, leaf_fn) if walk == "kernel" else None
        for g in range(9):
            total = sum(A007323[:g + 1])
            for budget in range(1, total + 41):
                tally = {}
                if budget < total:
                    with pytest.raises(ResourceLimit, match=f"^node budget exhausted "
                                                            f"while computing genus {g}$"):
                        _walk([root_node(g)], g, budget, leaf_fn, tally, kernel)
                else:
                    sizes = _walk([root_node(g)], g, budget, leaf_fn, tally, kernel)
                    assert sizes == list(A007323[:g + 1])
                    assert sum(tally.values()) == (0 if leaf_fn is None else A007323[g])

    def test_kernel_sees_each_parent_with_children_once(self):
        seen = []

        def kernel(parent, tally):
            seen.append(parent)
            _per_leaf(_gens_fingerprint, parent, tally)

        tally = {}
        sizes = _walk([root_node(12)], 12, 10 ** 6, _gens_fingerprint, tally, kernel)
        parents = []
        _walk([root_node(12)], 11, 10 ** 6, parents.append)
        assert seen == [p for p in parents if p[3] >> p[1] + 1]
        assert len(seen) < len(parents)
        assert sum(tally.values()) == sizes[12] == A007323[12]

    def test_a_kernel_walk_without_a_tally_counts_every_node(self):
        # the walk hands the kernel one fresh dict of its own
        tallies = []

        def kernel(parent, tally):
            tallies.append(tally)
            _per_leaf(_one, parent, tally)

        assert _walk([root_node(10)], 10, 10 ** 6, kernel=kernel) == count_by_genus(10)
        assert all(tally is tallies[0] for tally in tallies)
        assert tallies[0] == {(1,): A007323[10]}

    def test_kernel_runs_after_the_budget_check(self):
        parents = []
        _walk([root_node(7)], 6, 10 ** 6, parents.append)
        with_children = [p for p in parents if p[3] >> p[1] + 1]
        assert parents[-1] == with_children[-1]  # the walk's last node has children
        n = sum(count_by_genus(7))
        for budget, want in ((n, with_children), (n - 1, with_children[:-1])):
            calls = []
            try:
                _walk([root_node(7)], 7, budget, _one, {},
                      lambda parent, tally: calls.append(parent))
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
    @pytest.mark.parametrize("g", range(0, 21))
    def test_units_cover_the_walk_once(self, g):
        # the spine and the units' walks touch the row's nodes once, and
        # reach its leaves in the order of the split along first children:
        # every other child of each spine node in turn, then the last one
        leaves = []
        nodes = max(g - 2, 0) + sum(sum(_walk(_unit(g, i), g, 10 ** 6, leaves.append))
                                    for i in range(_units(g)))
        assert nodes == sum(count_by_genus(g))
        node, split = root_node(g), []
        while node[2] < g - 2:
            node, *rest = _expand(node)
            for kid in rest:
                _walk([kid], g, 10 ** 6, split.append)
        _walk([node], g, 10 ** 6, split.append)
        assert leaves == split
        population = []
        _walk([root_node(g)], g, 10 ** 6, population.append)
        assert sorted(leaves) == sorted(population)

    def test_ordinary_is_the_spine_of_first_children(self):
        for g in range(26):
            node = root_node(g)
            for h in range(max(g - 1, 1)):  # O_0, ..., O_{g-2}
                assert _ordinary(h, g) == node, (h, g)
                node = _expand(node)[0]

    def test_a_row_queues_one_record_per_unit(self, monkeypatch):
        queued, folded = [], []
        with worker_pool(2, _gens_fingerprint) as pool:
            fold = pool.fold
            pool.fold = lambda g, count, budget: (queued.append((g, count)),
                                                  fold(g, count, budget))[1]
            pooled = [map_reduce_genus(g, _gens_fingerprint, (0, 0, 0), pool=pool)
                      for g in range(21)]
        assert queued == [(g, max(g - 3, 0) + 1) for g in range(21)]
        monkeypatch.setattr(enumeration, "_fold_unit",
                            lambda record, *args: folded.append(record[:2])
                            or _fold_unit(record, *args))
        for g in range(21):
            folded.clear()
            assert map_reduce_genus(g, _gens_fingerprint, (0, 0, 0)) == pooled[g]
            assert folded == [(g, i) for i in range(max(g - 3, 0) + 1)]

    def test_least_nodes_is_at_most_the_walk(self):
        for g in range(0, 21):
            nodes = sum(count_by_genus(g))
            assert map_reduce_genus(g, _one, (0,), node_budget=nodes)[1] == nodes
            assert _spine_and_units(g, 0) <= _least_nodes(g, nodes) <= nodes, g

    def test_a_deep_row_overruns_before_the_split(self, monkeypatch):
        def no_split(g, i):
            raise AssertionError("a unit was built")

        monkeypatch.setattr(enumeration, "_unit", no_split)
        with pytest.raises(ResourceLimit, match="^node budget exhausted .* genus 600$"):
            map_reduce_genus(600, _one, (0,), node_budget=10)
        # the default budget: the row's least count of nodes needs more
        for g in (37, 40):
            with pytest.raises(ResourceLimit, match=f"^node budget exhausted .* genus {g}$"):
                map_reduce_genus(g, _one, (0,))

    @pytest.mark.usefixtures("deadline")
    def test_a_budget_past_a_record_is_capped(self):
        # 10**30 would admit the walk of a genus-90 row, which never ends;
        # capped at what a record carries, the row overruns at once, with
        # or without a pool
        with pytest.raises(ResourceLimit, match="^node budget exhausted .* genus 90$"):
            map_reduce_genus(90, _one, (0,), node_budget=10 ** 30)
        with worker_pool(2, _one) as pool:
            pids = pool.pids
            with pytest.raises(ResourceLimit, match="^node budget exhausted .* genus 90$"):
                map_reduce_genus(90, _one, (0,), node_budget=10 ** 30, pool=pool)
            assert pool.pids == pids  # refused before a record was queued

    def test_the_guard_admits_no_row_past_genus_89_at_the_cap(self):
        deepest = max(g for g in range(100) if _least_nodes(g, _MAX_BUDGET) <= _MAX_BUDGET)
        assert deepest == 89

    @pytest.mark.parametrize("g", range(14, 19))
    def test_a_greedy_queue_finishes_near_ideal(self, g):
        # in a node-count model, 2, 3 and 4 processes that each take the
        # next unit when free finish the row within 5% of an even share;
        # at 8 the largest unit sets the finish (35.8% over at genus 14),
        # and the bound there catches a further coarsening of the units
        sizes = [sum(_walk(_unit(g, i), g, 10 ** 6)) for i in range(_units(g))]
        for processes, bound in ((2, 1.05), (3, 1.05), (4, 1.05), (8, 1.36)):
            free = [0] * processes
            for size in sizes:
                free[free.index(min(free))] += size
            assert max(free) <= bound * sum(sizes) / processes, (g, processes)


def _one(S):
    return (1,)


def _f_below_2m(leaf):
    """(1 if the Frobenius number F is below twice the multiplicity m, 1 if F < 3m, 1)."""
    return (int(leaf[1] < 2 * leaf[4]), int(leaf[1] < 3 * leaf[4]), 1)


def _f_below_2m_kernel(parent, tally):
    # the children that remove an effective generator below 2m, and below
    # 3m; at an ordinary parent that includes m, whose child has F = m < 2(m + 1)
    _, frobenius, _, gens, m, _ = parent
    effective = gens >> frobenius + 1 << frobenius + 1
    below2 = (effective & (1 << 2 * m) - 1).bit_count()
    below3 = (effective & (1 << 3 * m) - 1).bit_count()
    for value, count in (((1, 1, 1), below2), ((0, 1, 1), below3 - below2),
                         ((0, 0, 1), effective.bit_count() - below3)):
        tally[value] = tally.get(value, 0) + count


def _f_below_3m(g):
    """The number of genus-g semigroups with Frobenius number F < 3m, not walked.

    With n = m - 1, such a semigroup is 0, m, m + A, 2m, 2m + B and every
    integer from 3m on, for offset sets A, B in 1..n.  It is closed iff B
    holds C(A): A and every a + a' <= n with a, a' in A.  Its genus is
    3n - |A| - |B|, so given A there are C(n - |C(A)|, |B| - |C(A)|) sets
    B.  A grows depth-first by increasing offsets; the loop prunes where
    |A| + |C(A)| passes 3n - g (both only grow), and where the offsets left
    cannot bring |A| up to 2n - g (since |B| <= n).
    """
    total = 0
    for m in range(1, g + 2):
        n = m - 1
        room, need, mask = 3 * n - g, 2 * n - g, (1 << n + 1) - 2  # |A| + |B|, least |A|
        if room < 0:
            continue

        def count(first, a, size, c):
            # a and c are A and C(A) as bitsets of offsets, size is |A|
            out = math.comb(n - c.bit_count(), room - size - c.bit_count()) if size >= need else 0
            for offset in range(first, n + 1):
                if size + n - offset + 1 < need:
                    break
                grown = a | 1 << offset
                closed = c | (1 << offset | grown << offset) & mask
                if size + 1 + closed.bit_count() <= room:
                    out += count(offset + 1, grown, size + 1, closed)
            return out

        total += count(1, 0, 0, 0)
    return total


def _f_below_2m_at_m(leaf):
    """Slot m is 1 if leaf has multiplicity m and F < 2m, for m in 0..genus + 1."""
    m = leaf[4]
    return tuple(int(j == m and leaf[1] < 2 * m) for j in range(leaf[2] + 2))


def _spine_and_units(g, budget):
    """A weaker row guard: the spine and the units' nodes."""
    return max(g - 2, 0) + sum(len(_unit(g, i)) for i in range(_units(g)))


def _fail_past_12(leaf):
    if leaf[2] > 12:
        raise ValueError("no leaf wanted")
    return (1,)


def _in_workers_unpicklable():
    """A value maker: (1,) in this process, after a pause that lets the
    workers take units, and in a forked worker a value that does not pickle."""
    parent = os.getpid()

    def value():
        if os.getpid() == parent:
            time.sleep(0.001)
            return (1,)
        return (lambda: None,)
    return value


def _assert_pooled_fold_rejects(slot, map_fn, kernel):
    with worker_pool(2, map_fn, kernel) as pool:
        pids = pool.pids
        for _ in range(100):  # until a worker folds a unit
            try:
                map_reduce_genus(8, map_fn, (0,), kernel=kernel, pool=pool)
            except NsgError as exc:
                assert slot in str(exc) and "does not pickle" in str(exc)
                break
        else:
            pytest.fail("no worker folded a unit")
    assert_reaped(pids)


def _slow_pid(leaf):
    time.sleep(0.001)
    return frozenset({os.getpid()})


def _pipe_ends(pid):
    """(inode, access mode) of every pipe end that process ``pid`` holds.

    Both ends of a pipe share its inode, so the access mode tells them apart.
    """
    ends = set()
    fds = f"/proc/{pid}/fd"
    for fd in os.listdir(fds):
        try:
            if not os.readlink(os.path.join(fds, fd)).startswith("pipe:"):
                continue
            with open(f"/proc/{pid}/fdinfo/{fd}") as info:
                flags = next(ln for ln in info if ln.startswith("flags:"))
            ends.add((os.stat(os.path.join(fds, fd)).st_ino, int(flags.split()[1], 8) & 3))
        except FileNotFoundError:  # closed while listed
            continue
    return ends


def _gens_fingerprint(leaf):
    gens = bit_indices(leaf[3])
    return (1, len(gens), sum(gens))

