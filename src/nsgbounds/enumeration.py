"""Exhaustive enumeration of numerical semigroups by genus.

All semigroups form a tree rooted at the full semigroup of every
non-negative integer: the children of a node are obtained by removing
one "effective" generator (a minimal generator exceeding the Frobenius
number), which raises the genus by one, and the parent is recovered by
adding the Frobenius number back.  A depth-first walk of the tree down
to depth g therefore visits every semigroup of genus g exactly once.

A walk to genus g keeps its state in a fixed window [0, W),
W = 3*g + 2 (at least 8), which is enough because a genus-g semigroup
has conductor at most 2g and minimal generators at most 3g; it also
keeps every shift of the new-generator test below non-negative.  Every
node is a plain tuple in :class:`TreeNode` field order (bits, frobenius,
genus, gens_mask, multiplicity, mirror): ``bits`` has bit x set iff x
is a member, ``gens_mask`` has bit x set iff x is a minimal generator,
and ``mirror`` is ``bits`` reversed in the window, bit W - 1 - x set iff
x is a member, so that W = mirror.bit_length().  ``TreeNode._make(node)``
names its fields.

``_walk`` is the one traversal.  It returns the number of nodes it
touched at each genus, so counting reads its return value, enumeration
reads its last entry, and ``map_reduce_genus`` folds the leaves of
subtrees.  Each node it pops counts all its children, its effective
generators, with one ``bit_count``.  Above the last level the walk
expands the node in its own loop, the same expansion as ``_expand``
(which serves the cold callers: ``children``, the spine split, the
per-leaf adapter and the kernels), and pushes only the children that
have children in turn: a child without an effective generator is
counted at its parent and never built or pushed.  The last level is
fused into its parent: a node one genus above the target never pushes
its children.  A walk without a callback stops there.  Otherwise a
per-parent kernel evaluates the children: it returns (value, count)
pairs for all of them at once, and a table kernel reads most values off
the parent without building a child, since a child differs from its
parent by one removed generator lam (see ``survey._lgm_kernel``).  A
leaf function without a kernel gets the per-leaf adapter ``_per_leaf``,
which expands the parent and hands each child over, so there is still
one traversal and one fold path.
A fold tallies identical leaf values and merges each distinct value
once per fold.

Every fold splits the tree along the spine of ordinary semigroups
O_h = <h+1, ..., 2h+1>.  Every generator of O_h exceeds its Frobenius
number h, so its first child removes the multiplicity and is O_{h+1};
nearly all of the tree hangs below the spine, so a split at a fixed
depth leaves one unit holding almost every node.  ``_spine_split``
walks the spine down to genus g - 2 and makes each of its other
children, and its last node, a unit: at genus 17 that is 106 units, the
largest with 11.7% of the nodes.  A fold walks its units in this
process, or on a pool from ``worker_pool`` that serves the rows of a
table; either way the unit tallies are merged in unit order, and the
row's node budget is checked after each unit, so an overrun stops the
row one unit after it happens.

The pool for ``workers`` processes forks ``workers`` - 1 of them when
its ``with`` block is entered, each already holding the fold's leaf
function and kernel (``_fold_unit``) and its own result pipe; the parent
folds too.  All of them take units from one non-blocking queue pipe,
where a fixed-size record names a unit as (genus, unit index, unit
budget), found in each process's cached ``_spine_split(genus)``; only
records and the pickled unit results cross between processes.  No
thread is started: the parent folds units between reading results, and
waits on the result pipes only when the queue is empty.  A fold that
fails or stops early kills and reaps the workers, so a pool serves rows
only until one of them fails (see ``_ForkPool.fold``).

The pool's ``gc.freeze`` saves time, not memory.  On the gmgens
benchmark (2 processes), without it the wall time rose 5.8% and the row
p50 29% (4 of 4 pairs), and 7.8% and 31% (3 of 3) with the workers'
collector disabled instead, while a worker's Private_Dirty (2.05-2.19
MB) and Pss (6.96-7.12 MB) were the same with and without it.  So the
saving lies in the parent's own collections after the fork, which leave
the frozen objects alone.  That those collections would otherwise copy
pages shared with the workers is an inference, not measured.

Child expansion is all bitwise.  The effective generators are the set
bits of gens_mask above the Frobenius number.  Removing one, lam, gives
the child with lam cleared in bits, mirror and gens_mask and Frobenius
number lam.  Removing the multiplicity m happens only at an ordinary
semigroup <m, ..., 2m - 1>, whose child is <m + 1, ..., 2m + 1>.
Otherwise the child keeps m, and its generators are the parent's
without lam, plus lam + m unless one AND is nonzero:

    bits & ((1 << lam) - (2 << m)) & (mirror >> W - 1 - m - lam)

Removing lam takes decompositions away but adds none, so every other
generator stays minimal; a new one is lam + s for a nonzero member s,
and lies below the child's conductor plus m, which is lam + 1 + m, so
s = m.  lam + m is then not new iff it is a + b for members a and b of
the child with m < a, b < lam (a = m would need b = lam, which is
gone).  Bit x of the shifted mirror is set iff m + lam - x is a member,
so the AND has bit x set iff x and m + lam - x are members in (m, lam):
the one test settles the new generator, with no loop over the other
generators and no tuple built per child.
"""

import contextlib
import gc
import math
import operator
import os
import pickle
import select
import signal
import struct
from functools import lru_cache, partial
from typing import NamedTuple

from .errors import NsgError, ResourceLimit
from .semigroup import NumericalSemigroup, bit_indices

__all__ = [
    "TreeNode",
    "root_node",
    "children",
    "enumerate_genus",
    "count_by_genus",
    "map_reduce_genus",
    "worker_pool",
    "tuple_add",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_NODE_BUDGET = 10 ** 8


class TreeNode(NamedTuple):
    """One semigroup as positioned in the enumeration tree: the walk's node, named."""

    bits: int
    frobenius: int
    genus: int
    gens_mask: int
    multiplicity: int
    mirror: int

    @property
    def min_generators(self) -> tuple[int, ...]:
        """Minimal generators, ascending."""
        return tuple(bit_indices(self.gens_mask))

    @property
    def effective_generators(self) -> tuple[int, ...]:
        """Minimal generators above the Frobenius number."""
        return tuple(g for g in self.min_generators if g > self.frobenius)

    def semigroup(self) -> NumericalSemigroup:
        """The node's NumericalSemigroup; a walk's tuple reads as ``TreeNode.semigroup(leaf)``."""
        bits, frobenius, genus, gens, _, _ = self
        conductor = frobenius + 1
        return NumericalSemigroup(tuple(bit_indices(gens)), conductor, genus,
                                  bits & ((1 << conductor) - 1))


def root_node(max_genus: int) -> TreeNode:
    """The full semigroup, windowed for ``max_genus``: every walk and spine split starts here."""
    if max_genus < 0:
        raise ValueError("genus must be non-negative")
    # floor of 8 keeps the window usable even at genus 0
    full = (1 << max(3 * max_genus + 2, 8)) - 1
    return TreeNode(full, -1, 0, 2, 1, full)


def _overrun(g: int) -> ResourceLimit:
    """The one overrun of every walk: its node budget ran out short of genus ``g``."""
    return ResourceLimit(f"node budget exhausted while computing genus {g}")


def _expand(node: tuple, mask: int = -1) -> list[tuple]:
    """Children of a node, as plain tuples, in increasing removed-generator order.

    Only the children that remove a set bit of ``mask`` are built (by
    default every child).
    """
    bits, frobenius, genus, gens, m, mirror = node
    top = mirror.bit_length() - 1 - m  # mirror bit of x is top + m - x
    genus += 1
    out = []
    effective = gens >> frobenius + 1 << frobenius + 1 & mask
    if effective >> m & 1:  # an ordinary semigroup: removing m leaves <m+1, ..., 2m+1>
        effective ^= 1 << m
        out.append((bits ^ 1 << m, m, genus, ((1 << m + 1) - 1) << m + 1, m + 1,
                    mirror ^ 1 << top))
    new = _new_generators(node, effective)
    while effective:
        low = effective & -effective
        effective ^= low
        lam = low.bit_length() - 1
        out.append((bits ^ low, lam, genus, gens ^ low | (new & low) << m, m,
                    mirror ^ 1 << top + m - lam))
    return out


def _new_generators(node: tuple, mask: int) -> int:
    """The set bits lam of ``mask``, effective generators of ``node`` other than
    its multiplicity m, whose child gains the generator lam + m."""
    bits, _, _, _, m, mirror = node
    top = mirror.bit_length() - 1 - m
    new = 0
    while mask:
        low = mask & -mask
        mask ^= low
        if not bits & (low - (2 << m)) & (mirror >> top - low.bit_length() + 1):
            new |= low
    return new


def _per_leaf(leaf_fn, parent: tuple) -> list:
    """The kernel of a leaf function: (leaf_fn(child), 1) per child, in order."""
    return [(leaf_fn(kid), 1) for kid in _expand(parent)]


def children(node: TreeNode) -> list[TreeNode]:
    """Child semigroups, in increasing removed-generator order.

    The child that removes the generator lam, a set bit of ``gens_mask``
    above the Frobenius number, has bits ``node.bits`` with lam cleared,
    Frobenius number lam, and ``gens_mask`` without lam, plus lam + m
    when that is not a + b for members m < a, b < lam, where m is the
    multiplicity (see the module docstring for the ordinary semigroups,
    whose child removes m itself).  A node whose window is narrower than
    3*genus + 5 bits is first widened to that, so that its children's
    children fit it.
    """
    bits, frobenius, genus, gens, m, mirror = node
    width = mirror.bit_length()
    wider = 3 * genus + 5 - width
    if wider > 0:  # every new bit lies above the conductor, so is a member
        bits |= (1 << 3 * genus + 5) - (1 << width)
        mirror = mirror << wider | (1 << wider) - 1
        node = (bits, frobenius, genus, gens, m, mirror)
    return [TreeNode._make(kid) for kid in _expand(node)]


def _walk(start: tuple, target_genus: int, budget: int, leaf_fn=None,
          tally=None, kernel=None) -> list[int]:
    """Depth-first walk from the node ``start`` down to ``target_genus``.

    ``leaf_fn`` (when given) receives each node at the target genus, a
    plain tuple in ``TreeNode`` field order, children taken in
    increasing removed-generator order.  With a ``tally`` dict, the walk
    counts there how many leaves gave each value of ``leaf_fn``.  A
    ``kernel`` (when given) evaluates the children of each node at genus
    ``target_genus - 1`` that has any (see ``map_reduce_genus``).  Returns
    ``sizes``: ``sizes[h]`` is the number of nodes touched at genus h,
    for h in 0..target_genus.

    Raises ``_overrun(target_genus)`` as soon as the node count would
    exceed ``budget``, before the parent that crosses it expands or
    evaluates its children.  The count only rises, to the walk's total,
    so the walk raises exactly when it needs more nodes.
    """
    sizes = [0] * (target_genus + 1)
    if budget < 1:
        raise _overrun(target_genus)
    sizes[start[2]] = 1
    if start[2] == target_genus:  # ``start`` is the only leaf
        if leaf_fn is not None:
            value = leaf_fn(start)
            if tally is not None:
                tally[value] = tally.get(value, 0) + 1
        return sizes
    if kernel is None and leaf_fn is not None:
        kernel = partial(_per_leaf, leaf_fn)
    get = None if tally is None else tally.get
    nodes = 1
    stack = [start]
    push = stack.append
    while stack:
        node = stack.pop()
        bits, frobenius, genus, gens, m, mirror = node
        kids = (gens >> frobenius + 1).bit_count()
        nodes += kids
        genus += 1
        sizes[genus] += kids
        if nodes > budget:
            raise _overrun(target_genus)
        if genus < target_genus:  # ``_expand``, pushed by decreasing lam
            top = mirror.bit_length() - 1 - m
            effective = gens >> frobenius + 1 << frobenius + 1
            if frobenius < m:
                effective ^= 1 << m
            while effective:
                lam = effective.bit_length() - 1
                high = 1 << lam
                effective ^= high
                kid = gens ^ high
                if not bits & (high - (2 << m)) & (mirror >> top - lam):
                    kid |= high << m
                if kid >> lam + 1:  # else a child without children, counted above
                    push((bits ^ high, lam, genus, kid, m, mirror ^ 1 << top + m - lam))
            if frobenius < m:
                push((bits ^ 1 << m, m, genus, ((1 << m + 1) - 1) << m + 1, m + 1,
                      mirror ^ 1 << top))
        elif kids and kernel is not None:
            pairs = kernel(node)
            if get is not None:
                for value, count in pairs:
                    tally[value] = get(value, 0) + count
    return sizes


def enumerate_genus(g: int, visitor=None, *, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Visit every numerical semigroup of genus exactly ``g`` once.

    ``visitor`` (when given) receives each semigroup as a
    NumericalSemigroup, in depth-first order with children taken in
    increasing removed-generator order.  Returns the number of
    semigroups visited.
    """
    leaf_fn = None if visitor is None else (lambda node: visitor(TreeNode.semigroup(node)))
    return _walk(root_node(g), g, node_budget, leaf_fn)[g]


def count_by_genus(g_max: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> list[int]:
    """Number of numerical semigroups of each genus 0..g_max."""
    return _walk(root_node(g_max), g_max, node_budget)


def tuple_add(x: tuple, y: tuple) -> tuple:
    """Elementwise sum; the merge operation for tuple-shaped aggregates."""
    return tuple(map(operator.add, x, y))


def _add_times(add_fn, acc, value, count: int):
    """``acc`` merged with ``count`` copies of ``value``, built by doubling."""
    while count:
        if count & 1:
            acc = add_fn(acc, value)
        count >>= 1
        if count:
            value = add_fn(value, value)
    return acc


def _fold_unit(record, map_fn, kernel, tally=None):
    """Walk the unit that a (genus, unit index, unit budget) record names.

    The unit is ``_spine_split(genus)``'s, so every process, worker or
    parent, finds the same one.  Returns (tally, nodes walked), counting
    into ``tally`` if given.
    """
    g, i, budget = record
    if tally is None:
        tally = {}
    return tally, sum(_walk(_spine_split(g)[1][i], g, budget, map_fn, tally, kernel))


def _least_nodes(g: int, budget: int) -> int:
    """The nodes a walk to genus ``g`` touches at least, summed until they pass ``budget``.

    For g >= 2 these are its g - 2 spine nodes, the first node of each
    unit of ``_spine_split(g)`` (the h children other than O_{h+1} of each
    O_h with h < g - 2, and O_{g-2}), and a bound on the leaves below
    them.  A node with k effective generators has at least C(k, d)
    descendants d levels down, since removing its i-th smallest leaves
    the k - i larger ones effective.  O_{g-2} has g - 1 of them, and the
    child of O_h that removes h + 1 + j has h - j, plus the new 2h + 3
    when j = 1; so the units below O_h reach at least
    C(h, d) + C(h - 1, d + 1) leaves, d = g - h - 1.
    """
    if g < 2:
        return 1
    nodes = g - 1 + (g - 2) * (g - 3) // 2 + math.comb(g - 1, 2)
    for h in range(g - 3, 0, -1):  # from d = 2 up, so a deep row passes the budget in a few terms
        if nodes > budget:
            break
        nodes += math.comb(h, g - h - 1) + math.comb(h - 1, g - h)
    return nodes


@lru_cache(maxsize=1)  # per process: the units of the row it folds
def _spine_split(g: int) -> tuple[int, tuple]:
    """Split the walk to genus ``g`` into units along the ordinary spine.

    Returns (spine, units): the number of spine nodes expanded here, and
    nodes whose subtrees, walked to genus ``g``, touch every other
    node of the walk exactly once.
    """
    node = root_node(g)
    spine = 0
    units = []
    while node[2] < g - 2:
        node, *rest = _expand(node)
        spine += 1
        units += rest
    units.append(node)
    return spine, tuple(units)


# A queue record: the genus, the unit's index and its node budget, which
# is positive, since a row that cannot walk its spine and units is not queued.
_RECORD = struct.Struct("=IIQ")
# The largest queue write: whole records, at most PIPE_BUF bytes, which a
# pipe writes at once or not at all.
_BATCH = select.PIPE_BUF - select.PIPE_BUF % _RECORD.size


def _send(fd: int, obj) -> None:
    """Write ``obj`` to ``fd`` as a pickle behind its 8-byte length."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytes:
    """Exactly ``size`` bytes of ``fd``; EOFError if its writer closes first."""
    data = b""
    while len(data) < size:
        more = os.read(fd, size - len(data))
        if not more:
            raise EOFError
        data += more
    return data


def _recv(fd: int):
    """The next object ``_send`` wrote to ``fd``."""
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _take(queue: int):
    """The next record of the non-blocking ``queue``, or None if it is empty.

    Raises EOFError once it is empty and its write end closed.  Every
    write to the queue is a whole number of records of at most PIPE_BUF
    bytes, which a pipe writes at once, and every read asks for one
    record, so a read never returns part of one.
    """
    try:
        record = os.read(queue, _RECORD.size)
    except BlockingIOError:
        return None
    if not record:
        raise EOFError
    return _RECORD.unpack(record)


def _apply(fn, task) -> tuple:
    """(True, fn(task)), or (False, the exception it raised)."""
    try:
        return True, fn(task)
    except Exception as exc:
        return False, exc


def _serve(queue: int, results: int, fold) -> None:
    """A worker's loop: fold the records it takes from the queue, one answer each.

    The worker waits on ``queue`` with ``poll``, and answers the record
    (genus, i, budget) with (i, ok, value) from ``_apply(fold, record)``
    over ``results``; a record another process took first is not waited
    for.  It leaves through ``os._exit`` when the queue reads EOF, or on
    any failure of its own, so it never runs the parent's cleanup.
    """
    status = 1
    try:
        waiting = select.poll()
        waiting.register(queue, select.POLLIN)
        while True:
            waiting.poll()
            try:
                record = _take(queue)
            except EOFError:
                status = 0
                break
            if record is None:  # another process took it first
                continue
            i = record[1]
            try:
                _send(results, (i, *_apply(fold, record)))
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                _send(results, (i, False, NsgError(f"a pool worker's result of map_fn "
                                                   f"or kernel does not pickle: {exc}")))
    finally:
        os._exit(status)


class _ForkPool:
    """The pool of ``worker_pool``: see the module docstring."""

    def __init__(self, workers: int, map_fn, kernel):
        self.callables = (map_fn, kernel)
        self._fold = partial(_fold_unit, map_fn=map_fn, kernel=kernel)
        self._size = workers - 1  # the parent folds too
        self._workers = []  # (pid, result pipe read end)
        self._queue = None  # (read end, write end)
        self._results = select.poll()  # not select.select, which fails on fds >= 1024
        self._frozen = False

    @property
    def pids(self) -> tuple[int, ...]:
        """Process ids of the running workers."""
        return tuple(pid for pid, _ in self._workers)

    def __enter__(self):
        # what the freeze saves: see the module docstring
        self._frozen = not gc.get_freeze_count()
        if self._frozen:
            gc.freeze()
        try:
            self._queue = os.pipe()
            for fd in self._queue:
                os.set_blocking(fd, False)
            for _ in range(self._size):
                self._fork()
        except OSError as exc:  # no pipe, or no fork
            self._stop(kill=True)
            raise NsgError(f"cannot start a pool worker: {exc}") from None
        except BaseException:
            self._stop(kill=True)
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stop(kill=exc_type is not None)

    def _fork(self) -> None:
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:  # no fork, or an interrupt
            os.close(result_r)
            os.close(result_w)
            raise
        if pid == 0:
            try:
                # Only the parent may hold the queue's write end, so that
                # every worker reads EOF when the parent dies, and a worker
                # holds no other worker's result pipe.
                for _, result in self._workers:
                    os.close(result)
                os.close(result_r)
                os.close(self._queue[1])
                _serve(self._queue[0], result_w, self._fold)
            finally:
                os._exit(1)
        self._workers.append((pid, result_r))
        self._results.register(result_r, select.POLLIN)
        os.close(result_w)

    def _stop(self, kill: bool) -> None:
        """Stop every worker and reap it.

        Closing the queue lets an idle worker read EOF; ``kill`` sends
        SIGKILL first instead.  Without ``kill``, a worker that did not
        exit cleanly raises NsgError once all are reaped.
        """
        workers, self._workers = self._workers, []
        for pid, result in workers:
            if kill:
                os.kill(pid, signal.SIGKILL)
            self._results.unregister(result)
            os.close(result)
        if self._queue is not None:
            for fd in self._queue:
                os.close(fd)
            self._queue = None
        failed = [pid for pid, _ in workers if os.waitpid(pid, 0)[1]]
        if self._frozen:
            gc.unfreeze()
            self._frozen = False
        if failed and not kill:
            raise NsgError(f"pool worker {failed[0]} exited before the pool closed")

    def fold(self, g: int, count: int, budget: int):
        """(tally, nodes walked) of each of the ``count`` units of genus ``g``, in order.

        Each unit is queued as the record (g, index, ``budget``), the
        budget at most 2**63 - 1, and folded by whichever process takes
        it, the parent too.  The queue's write end is non-blocking, and the
        parent tops it up in whole writes of up to PIPE_BUF bytes as
        records are taken, so a row may have more units than a pipe holds.
        An exception from a unit is raised here in its unit's turn.  A
        worker that dies, or a failed read, write or poll of the pool's
        pipes, raises NsgError.  A fold that raises, or whose iterator is
        closed early, stops the pool: its workers are killed and reaped,
        and a later fold raises NsgError.
        """
        if not self._workers:
            raise NsgError("the worker pool is not running")
        queue_r, queue_w = self._queue
        budget = min(budget, (1 << 63) - 1)
        records = memoryview(b"".join(_RECORD.pack(g, i, budget) for i in range(count)))
        sent = 0  # bytes of ``records`` written to the queue
        done = {}  # unit index -> (ok, result or exception)
        try:
            for i in range(count):
                while i not in done:
                    if sent < len(records):
                        with contextlib.suppress(BlockingIOError):  # the queue is full
                            sent += os.write(queue_w, records[sent:sent + _BATCH])
                    ready = self._results.poll(0)
                    if not ready:
                        record = _take(queue_r)
                        if record is not None:
                            done[record[1]] = _apply(self._fold, record)
                            continue
                        ready = self._results.poll()  # a worker holds a unit
                    for fd, _ in ready:
                        j, *answer = self._answer(fd)
                        done[j] = answer
                ok, result = done.pop(i)
                if not ok:
                    break
                yield result
            else:
                return
        except BaseException as exc:
            self._stop(kill=True)
            if isinstance(exc, OSError):  # a pipe or poll of the pool's own failed
                raise NsgError(f"the worker pool failed: {exc}") from None
            raise
        self._stop(kill=True)
        raise result

    def _answer(self, fd: int):
        """The next answer on the result pipe ``fd``; NsgError if its worker died."""
        try:
            return _recv(fd)
        except EOFError:
            pid = next(pid for pid, result in self._workers if result == fd)
            raise NsgError(f"pool worker {pid} exited before it answered") from None


def worker_pool(workers: int, map_fn, kernel=None):
    """A pool that folds ``map_fn`` and ``kernel`` for ``map_reduce_genus``.

    The pool is a context manager, None when ``workers`` <= 1.  Otherwise
    entering it forks ``workers`` - 1 processes, and they and the calling
    process fold the units.  The workers hold ``map_fn`` and ``kernel`` as
    they were when the block was entered, so these may be any callables,
    lambdas and closures too; only their results must pickle.  The
    garbage collector is frozen while the pool is open, unless something
    else froze it first.  Leaving the pool normally closes the queue, so
    each worker reads EOF and exits, and a worker that did not exit
    cleanly raises NsgError; leaving it on any exception, KeyboardInterrupt
    too, kills the workers.  Either way every worker is reaped before the
    block ends.  A fold that raises, or is closed early, kills and reaps
    the workers at once, and the pool folds nothing more (NsgError).  A
    worker that cannot be started raises NsgError on entry, and so does
    the call where the platform cannot fork (``check_fork``).
    """
    check_fork(workers)
    return contextlib.nullcontext() if workers <= 1 else _ForkPool(workers, map_fn, kernel)


def check_fork(workers: int) -> None:
    """Raise NsgError if ``workers`` > 1 and the platform cannot fork."""
    if workers > 1 and not hasattr(os, "fork"):
        raise NsgError("workers > 1 needs 'fork', which this platform lacks")


def map_reduce_genus(g: int, map_fn, zero, add_fn=tuple_add, *,
                     node_budget: int = DEFAULT_NODE_BUDGET, pool=None, kernel=None):
    """Fold ``map_fn`` over every semigroup of genus ``g``.

    ``map_fn`` receives each semigroup as the walk's leaf, a plain tuple
    in ``TreeNode`` field order (see the module docstring; the window is
    W = 3*g + 2 bits, at least 8), so ``TreeNode._make(leaf)`` reads it,
    and returns a hashable value.

    ``kernel`` (when given) evaluates the leaves a parent at a time: it
    receives each node of genus g - 1 that has children and returns
    (value, count) pairs, with the counts summing to its number of
    children and each child's ``map_fn`` value counted once.  Pairs whose
    values a concatenating slot of ``add_fn`` would order come in the
    children's order, increasing removed generator.  ``map_fn`` still
    evaluates a leaf without a parent in the walk, the root at genus 0.
    Without a kernel each child is built and handed to ``map_fn``
    (``_per_leaf``).  The walk counts a parent's children before it calls
    the kernel, so the budget stays exact.

    The leaves are tallied by value, and each distinct value is merged
    into ``zero`` once, as ``count`` copies built by doubling with
    ``add_fn``, in the order of its first leaf (units in unit order).
    ``add_fn`` has to be associative with ``zero`` as its identity; a
    tuple slot that ``tuple_add`` concatenates lists its parts in that
    order.

    The walk is split along the ordinary-semigroup spine (see the module
    docstring) and each unit is tallied on its own: in this process, or,
    when ``pool`` (a pool from ``worker_pool``) is given, by the pool's
    workers and this process, which take the units from one queue and
    find them by genus and index; the workers send back their tallies.
    Tallies are merged in unit order, so the aggregate and the number of
    nodes walked do not depend on the pool.  Each unit walks under the
    budget left after the spine, and the running total is checked after
    every unit: ``_walk``'s overrun (genus g) is raised, by one unit or by
    the total, exactly when the row needs more than ``node_budget`` nodes,
    at most one unit late, and a pool's workers are reaped first.  A row
    whose spine, unit roots and least count of leaves (``_least_nodes``)
    already pass ``node_budget`` raises before the split is built.

    A pool folds the ``map_fn`` and ``kernel`` it was made with, so
    ValueError is raised, before any unit is queued, if these are others.
    ``add_fn`` and ``zero`` stay in this process and may be anything.  An
    exception that ``map_fn`` or ``kernel`` raises in a worker is raised
    here in its unit's turn, and a worker that dies raises NsgError; a
    pool stops on either, as on an overrun.

    Returns (aggregate, nodes_walked).
    """
    if g < 0:
        raise ValueError("genus must be non-negative")
    if pool is not None and pool.callables != (map_fn, kernel):
        raise ValueError("the pool was made for another map_fn or kernel")
    if _least_nodes(g, node_budget) > node_budget:
        raise _overrun(g)
    spine, units = _spine_split(g)
    budget = node_budget - spine
    tally = {}
    if pool is None:  # every unit counts straight into ``tally``
        parts = (_fold_unit((g, i, budget), map_fn, kernel, tally) for i in range(len(units)))
    else:
        parts = pool.fold(g, len(units), budget)
    total = spine
    get = tally.get
    for part, nodes in parts:  # a unit that overruns alone raises here
        total += nodes
        if total > node_budget:
            parts.close()  # a pool stops its workers
            raise _overrun(g)
        if part is not tally:
            for value, count in part.items():
                tally[value] = get(value, 0) + count
    acc = zero
    for value, count in tally.items():
        acc = _add_times(add_fn, acc, value, count)
    return acc, total
