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
keeps every shift of the new-generator test below non-negative.  The
walk keeps each node as a plain tuple (bits, frobenius, genus, gens_mask, multiplicity, mirror):
``bits`` has bit x set iff x is a member, ``gens_mask`` has bit x set
iff x is a minimal generator, and ``mirror`` is ``bits`` reversed in
the window, bit W - 1 - x set iff x is a member, so that
W = mirror.bit_length().  The public :class:`TreeNode` is a named tuple
(bits, frobenius, genus, min_generators, multiplicity) with the
generators as a tuple, converted at the API boundary.

``_walk`` is the one traversal.  It returns the number of nodes it
touched at each genus, so counting reads its return value, enumeration
reads its last entry, and ``map_reduce_genus`` folds the leaves of
subtrees.  The last level is fused into its parent: a node one genus
above the target counts its children, its effective generators, with
one ``bit_count`` and never pushes them.  A walk without a callback
stops there.  Otherwise a per-parent kernel evaluates the children: it
returns (value, count) pairs for all of them at once, and a table
kernel reads most values off the parent without building a child,
since a child differs from its parent by one removed generator lam
(see ``survey._lgm_kernel``).  A leaf function without a kernel gets
the per-leaf adapter ``_per_leaf``, which expands the parent and hands
each child over, so there is still one traversal and one fold path.
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
process, or on a pool from ``worker_pool`` that can serve every row of a
table; either way the unit tallies are merged in unit order, and the
row's node budget is checked after each unit, so an overrun stops the
row one unit after it happens.

The pool for ``workers`` processes forks ``workers`` - 1 of them up
front; the parent is the last one.  All of them take units from one
shared queue, a pipe made before the forks whose read end is
non-blocking.  For each row the parent writes one fixed-size (row,
unit index) record per unit into the queue, and only then sends each
worker the row's task list, one length-prefixed pickle over the
worker's own task pipe.  A worker takes records, one non-blocking read
each, until the queue is empty, answers each unit over its own result
pipe, and then blocks on its task pipe again; a record of a later row
that it takes after its own row is done waits for that row's list.
Between results the parent takes units and folds them itself, and
waits on the result pipes with ``select.poll`` only when the queue is
empty.  So no unit waits for a hand-out, and no thread is started.  A
fold that stops early (an overrun or a worker's exception) first
drains the queue and collects the units the workers took, so the pool
is idle again for the next row; a worker that dies stops the pool.
Each worker closes the pipe ends it inherits from the ones forked before
it, and the queue's write end, so only the parent can write a worker's
tasks or the queue, and a worker that reads EOF exits.

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
import operator
import os
import pickle
import select
import signal
import struct
from functools import partial
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
    """One semigroup as positioned in the enumeration tree."""

    bits: int
    frobenius: int
    genus: int
    min_generators: tuple[int, ...]
    multiplicity: int

    @property
    def effective_generators(self) -> tuple[int, ...]:
        """Minimal generators above the Frobenius number."""
        return tuple(g for g in self.min_generators if g > self.frobenius)

    def semigroup(self) -> NumericalSemigroup:
        return _semigroup(_raw(self))


def _semigroup(node: tuple) -> NumericalSemigroup:
    """The NumericalSemigroup of a raw node."""
    bits, frobenius, genus, gens, _, _ = node
    conductor = frobenius + 1
    return NumericalSemigroup(tuple(bit_indices(gens)), conductor, genus,
                              bits & ((1 << conductor) - 1))


def _root(max_genus: int) -> tuple:
    # floor of 8 keeps the window usable even at genus 0
    full = (1 << max(3 * max_genus + 2, 8)) - 1
    return (full, -1, 0, 2, 1, full)


def _node(raw: tuple) -> TreeNode:
    """The TreeNode of a raw node."""
    bits, frobenius, genus, gens, m, _ = raw
    return TreeNode(bits, frobenius, genus, tuple(bit_indices(gens)), m)


def _raw(node: TreeNode) -> tuple:
    """The raw node of a TreeNode.

    Its window is bits.bit_length() wide, since every bit from the
    conductor to the top of the window is set, or 3*genus + 5 if that is
    wider, so that the node's children fit it.
    """
    bits = node.bits
    bits |= (1 << max(bits.bit_length(), 3 * node.genus + 5)) - (1 << node.frobenius + 1)
    mirror = int(format(bits, "b")[::-1], 2)
    return (bits, node.frobenius, node.genus, sum(1 << g for g in node.min_generators),
            node.multiplicity, mirror)


def root_node(max_genus: int) -> TreeNode:
    """The full semigroup, with a bit window sized for ``max_genus``."""
    return _node(_root(max_genus))


def _expand(node: tuple) -> list[tuple]:
    """Raw children of a raw node, in increasing removed-generator order."""
    bits, frobenius, genus, gens, m, mirror = node
    top = mirror.bit_length() - 1 - m  # mirror bit of x is top + m - x
    genus += 1
    out = []
    effective = gens >> frobenius + 1 << frobenius + 1
    if frobenius < m:  # an ordinary semigroup: removing m leaves <m+1, ..., 2m+1>
        effective ^= 1 << m
        out.append((bits ^ 1 << m, m, genus, ((1 << m + 1) - 1) << m + 1, m + 1,
                    mirror ^ 1 << top))
    while effective:
        low = effective & -effective
        effective ^= low
        lam = low.bit_length() - 1
        kid = gens ^ low
        if not bits & (low - (2 << m)) & (mirror >> top - lam):
            kid |= low << m
        out.append((bits ^ low, lam, genus, kid, m, mirror ^ 1 << top + m - lam))
    return out


def _new_generators(node: tuple, mask: int) -> int:
    """The set bits lam of ``mask`` whose child gains the generator lam + m.

    ``mask`` holds effective generators of the raw ``node`` other than its
    multiplicity m; this is the one AND of ``_expand`` per bit.
    """
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

    The child that removes the generator lam = min_generators[i] has
    bits ``node.bits`` with lam cleared, Frobenius number lam, and
    minimal generators min_generators without lam, followed by lam + m
    when that is not a + b for members m < a, b < lam, where m is the
    multiplicity (see the module docstring for the ordinary semigroups,
    whose child removes m itself).
    """
    return [_node(kid) for kid in _expand(_raw(node))]


def _walk(start: tuple, target_genus: int, budget: int, leaf_fn=None,
          tally=None, kernel=None) -> list[int]:
    """Depth-first walk from the raw node ``start`` down to ``target_genus``.

    ``leaf_fn`` (when given) receives each node at the target genus as a
    raw tuple (bits, frobenius, genus, gens_mask, multiplicity, mirror),
    children taken in increasing removed-generator order.  With a
    ``tally`` dict, the walk counts there how many leaves gave each value
    of ``leaf_fn``.  Returns
    ``sizes``: ``sizes[h]`` is the number of nodes touched at genus h,
    for h in 0..target_genus.

    The last level is fused into its parent: a node at genus
    ``target_genus - 1`` counts its children, its effective generators,
    with one ``bit_count`` and never pushes them.  A ``kernel`` (when
    given) then evaluates them all at once: ``kernel(parent)`` returns
    (value, count) pairs that count each child once under its
    ``leaf_fn`` value (see ``map_reduce_genus``).  Without one, the walk
    uses ``_per_leaf``, which hands each child to ``leaf_fn``; without
    either, it builds no child.  The kernel is not called for a parent
    without children.  Raises ResourceLimit as soon as the node count
    would exceed ``budget``, before the leaves of the parent that crosses
    it are evaluated, so it raises exactly when the walk needs more than
    ``budget`` nodes.
    """
    sizes = [0] * (target_genus + 1)
    if budget < 1:
        raise ResourceLimit(f"node budget of {budget} exceeded")
    if start[2] == target_genus:  # ``start`` is the only leaf
        sizes[target_genus] = 1
        if leaf_fn is not None:
            value = leaf_fn(start)
            if tally is not None:
                tally[value] = tally.get(value, 0) + 1
        return sizes
    if kernel is None and leaf_fn is not None:
        kernel = partial(_per_leaf, leaf_fn)
    get = None if tally is None else tally.get
    last = target_genus - 1
    nodes = 0
    stack = [start]
    while stack:
        node = stack.pop()
        nodes += 1
        genus = node[2]
        sizes[genus] += 1
        if genus < last:
            stack.extend(reversed(_expand(node)))
            kids = 0
        else:
            kids = (node[3] >> node[1] + 1).bit_count()
            nodes += kids
            sizes[target_genus] += kids
        if nodes > budget:
            raise ResourceLimit(f"node budget of {budget} exceeded")
        if kids and kernel is not None:
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
    if g < 0:
        raise ValueError("genus must be non-negative")
    leaf_fn = None if visitor is None else (lambda node: visitor(_semigroup(node)))
    return _walk(_root(g), g, node_budget, leaf_fn)[g]


def count_by_genus(g_max: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> list[int]:
    """Number of numerical semigroups of each genus 0..g_max."""
    if g_max < 0:
        raise ValueError("genus must be non-negative")
    return _walk(_root(g_max), g_max, node_budget)


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


def _fold_subtree(args, tally=None):
    """Walk one unit; returns (tally, nodes walked), counting into ``tally`` if given."""
    node, target, map_fn, kernel, budget = args
    if tally is None:
        tally = {}
    return tally, sum(_walk(node, target, budget, map_fn, tally, kernel))


def _spine_split(g: int) -> tuple[int, list[tuple]]:
    """Split the walk to genus ``g`` into units along the ordinary spine.

    Returns (spine, units): the number of spine nodes expanded here, and
    raw nodes whose subtrees, walked to genus ``g``, touch every other
    node of the walk exactly once.
    """
    node = _root(g)
    spine = 0
    units = []
    while node[2] < g - 2:
        node, *rest = _expand(node)
        spine += 1
        units += rest
    units.append(node)
    return spine, units


# A queue record: the row's number and a unit index, two unsigned 32-bit ints.
_RECORD = struct.Struct("=II")
# Records one row may queue: 16 KiB, the default capacity of a pipe on
# macOS (Linux gives 64 KiB), so that the parent's queue write never
# blocks.
_QUEUE_RECORDS = 16384 // _RECORD.size


def _pack(obj) -> bytes:
    """``obj`` as a pickle behind its 8-byte length."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(8, "little") + data


def _send(fd: int, data: bytes) -> None:
    """Write all of ``data`` to ``fd``."""
    view = memoryview(data)
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
    """The next message ``_pack`` made and ``_send`` wrote to ``fd``."""
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _take(queue: int):
    """The next (row, unit) record of the non-blocking ``queue``, or None if it is empty.

    Every write to the queue is a whole number of records of at most
    PIPE_BUF bytes, which a pipe writes at once, and every read asks for
    one record, so a read never returns part of one.
    """
    try:
        record = os.read(queue, _RECORD.size)
    except BlockingIOError:
        return None
    return _RECORD.unpack(record) if record else None  # b"": the parent closed it


def _apply(fn, task) -> tuple:
    """(True, fn(task)), or (False, the exception it raised)."""
    try:
        return True, fn(task)
    except Exception as exc:
        return False, exc


def _serve(tasks: int, results: int, queue: int) -> None:
    """A worker's loop: fold the units it takes from the queue, one answer each.

    Each message on ``tasks`` is a row's (row, fn, task list).  The worker
    then takes records from ``queue`` until it is empty, and answers the
    record (row, i) with (i, ok, value) from ``_apply(fn, task list[i])``.
    A record of a later row, which the parent may queue as soon as this
    row's units are all answered, is held until that row's list arrives;
    the lists of rows it missed meanwhile are dropped.  The worker leaves
    through ``os._exit`` when its task pipe reads EOF, or on any failure
    of its own, so it never runs the parent's cleanup.
    """
    status = 1
    held = None
    try:
        while True:
            try:
                row, fn, units = _recv(tasks)
            except EOFError:
                status = 0
                break
            if held is not None and held[0] != row:
                continue
            while True:
                record, held = held or _take(queue), None
                if record is None:
                    break
                if record[0] != row:
                    held = record
                    break
                i = record[1]
                try:
                    reply = _pack((i, *_apply(fn, units[i])))
                except (pickle.PicklingError, AttributeError, TypeError) as exc:
                    reply = _pack((i, False, NsgError(f"a pool worker's result does "
                                                      f"not pickle: {exc}")))
                _send(results, reply)
    finally:
        os._exit(status)


class _ForkPool:
    """Forked worker processes that fold units from one queue with the parent.

    Each worker has a task pipe and a result pipe; all of them, and the
    parent, take units from one queue pipe.  No thread is started: the
    caller's thread folds units between reading results, and waits on the
    result pipes with ``select.poll`` only when the queue is empty.
    """

    def __init__(self, workers: int):
        self._size = workers - 1  # the parent folds too
        self._workers = []  # (pid, task pipe write end, result pipe read end)
        self._queue = None  # (read end, write end)
        self._results = select.poll()  # not select.select, which fails on fds >= 1024
        self._row = 0
        self._frozen = False

    @property
    def pids(self) -> tuple[int, ...]:
        """Process ids of the running workers."""
        return tuple(pid for pid, _, _ in self._workers)

    def __enter__(self):
        # Frozen objects are left alone by the workers' collections, so a
        # worker does not copy the parent's pages by touching them.
        self._frozen = not gc.get_freeze_count()
        if self._frozen:
            gc.freeze()
        try:
            self._queue = os.pipe()
            os.set_blocking(self._queue[0], False)
            for _ in range(self._size):
                self._fork()
        except BaseException:
            self._stop(kill=True)
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stop(kill=exc_type is not None)

    def _fork(self) -> None:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError as exc:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            raise NsgError(f"cannot start a pool worker: {exc}") from None
        if pid == 0:
            try:
                # Only the parent may hold a task pipe's or the queue's write
                # end, so that every worker reads EOF when the parent dies.
                for _, task, result in self._workers:
                    os.close(task)
                    os.close(result)
                os.close(task_w)
                os.close(result_r)
                os.close(self._queue[1])
                _serve(task_r, result_w, self._queue[0])
            finally:
                os._exit(1)
        self._workers.append((pid, task_w, result_r))
        self._results.register(result_r, select.POLLIN)
        os.close(task_r)
        os.close(result_w)

    def _stop(self, kill: bool) -> None:
        """Stop every worker and reap it, then close the queue.

        Closing the pipes lets an idle worker read EOF; ``kill`` sends
        SIGKILL first instead.  Without ``kill``, a worker that did not
        exit cleanly raises NsgError once all are reaped.
        """
        workers, self._workers = self._workers, []
        for pid, task, result in workers:
            if kill:
                os.kill(pid, signal.SIGKILL)
            self._results.unregister(result)
            os.close(task)
            os.close(result)
        failed = [pid for pid, _, _ in workers if os.waitpid(pid, 0)[1]]
        if self._queue is not None:
            for fd in self._queue:
                os.close(fd)
            self._queue = None
        if self._frozen:
            gc.unfreeze()
            self._frozen = False
        if failed and not kill:
            raise NsgError(f"pool worker {failed[0]} exited before the pool closed")

    def imap(self, fn, tasks: list):
        """``fn(task)`` for each task in order, computed by the workers and the parent.

        The units go into the queue as (row, index) records before any
        worker gets the row's task list, so a worker that takes a record
        has its list or is about to get it.  The queue is empty when a
        row starts, and a row may queue at most ``_QUEUE_RECORDS`` (2,048)
        records, 16 KiB, so the write never blocks; a genus-60 row has
        1,654 units.  Between reading results, the parent takes units and
        computes them itself.  An exception from ``fn`` is raised here in
        its task's turn, and closing the iterator early is allowed; either
        way the queue is drained and the units already taken are waited
        for first, so the pool is idle for its next call.  A worker that
        dies raises NsgError, and that or any other exception here stops
        the pool.
        """
        if not self._workers:
            raise NsgError("the worker pool is not running")
        if len(tasks) > _QUEUE_RECORDS:
            raise NsgError(f"{len(tasks)} units are more than the pool's queue holds "
                           f"({_QUEUE_RECORDS})")
        self._row += 1
        queue_r, queue_w = self._queue
        records = b"".join(_RECORD.pack(self._row, i) for i in range(len(tasks)))
        step = select.PIPE_BUF - select.PIPE_BUF % _RECORD.size
        for start in range(0, len(records), step):
            os.write(queue_w, records[start:start + step])
        message = _pack((self._row, fn, tasks))
        done = {}  # unit index -> (ok, result or exception)
        left = len(tasks)  # units neither computed here nor answered
        try:
            for pid, task, _ in self._workers:
                self._call(pid, _send, task, message)
            for i in range(len(tasks)):
                while i not in done:
                    ready = self._results.poll(0)
                    if not ready:
                        record = _take(queue_r)
                        if record is not None:
                            left -= 1
                            done[record[1]] = _apply(fn, tasks[record[1]])
                            continue
                        ready = self._results.poll()
                    for fd, _ in ready:
                        j, *answer = self._call(self._pid(fd), _recv, fd)
                        left -= 1
                        done[j] = answer
                ok, result = done.pop(i)
                if not ok:
                    break
                yield result
            else:
                return
        except GeneratorExit:
            self._settle(left)
            raise
        except BaseException:
            self._stop(kill=True)
            raise
        self._settle(left)
        raise result

    def _settle(self, left: int) -> None:
        """Drain the queue, then wait for the units the workers took and drop them."""
        if not self._workers:  # the pool was stopped since
            return
        while _take(self._queue[0]) is not None:
            left -= 1
        while left:
            for fd, _ in self._results.poll():
                self._call(self._pid(fd), _recv, fd)
                left -= 1

    def _pid(self, fd: int) -> int:
        """The worker whose result pipe is ``fd``."""
        return next(pid for pid, _, result in self._workers if result == fd)

    def _call(self, pid: int, io, *args):
        """``io(*args)`` on a pipe of worker ``pid``; if it died, stop the pool."""
        try:
            return io(*args)
        except (EOFError, BrokenPipeError):
            self._stop(kill=True)
            raise NsgError(f"pool worker {pid} exited before it answered") from None


def worker_pool(workers: int):
    """The pool ``map_reduce_genus`` takes, as a context manager.

    It gives None when ``workers`` <= 1.  Otherwise entering it forks
    ``workers`` - 1 processes, and they and the calling process fold the
    units, so ``workers`` processes fold in all.  The workers share the
    parent's imported code, so only the tasks and their results cross, as
    pickles over a pipe pair per worker, and the units to fold are taken
    from one queue pipe; no thread is started.  The garbage collector is
    frozen while the pool is open, unless something else froze it first.
    Leaving the pool normally closes the pipes, so each worker reads EOF
    and exits, and a worker that did not exit cleanly raises NsgError;
    leaving it on any exception, KeyboardInterrupt too, kills the
    workers.  Either way every worker is reaped before the block ends.
    Raises NsgError at the call, before anything is forked, when the
    platform cannot fork.
    """
    if workers <= 1:
        return contextlib.nullcontext()
    if not hasattr(os, "fork"):
        raise NsgError("workers > 1 needs 'fork', which this platform lacks")
    return _ForkPool(workers)


def map_reduce_genus(g: int, map_fn, zero, add_fn=tuple_add, *,
                     node_budget: int = DEFAULT_NODE_BUDGET, pool=None, kernel=None):
    """Fold ``map_fn`` over every semigroup of genus ``g``.

    ``map_fn`` receives each semigroup as the raw leaf tuple of the walk
    (bits, frobenius, genus, gens_mask, multiplicity, mirror), and
    returns a hashable value.  ``bits`` has bit x set iff x is a member,
    ``gens_mask`` bit x iff x is a minimal generator, and ``mirror`` is
    ``bits`` reversed in the walk's window [0, W), W = 3*g + 2 (at least
    8): bit W - 1 - x is set iff x is a member, and
    W = mirror.bit_length().  ``semigroup.bit_indices(gens_mask)`` lists
    the generators.

    ``kernel`` (when given) evaluates the leaves a parent at a time: it
    receives each raw node of genus g - 1 that has children and returns
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
    workers and this process, which take the units from one queue; the
    workers receive the units as raw node tuples and send back their
    tallies.  Tallies are merged in unit order, so the aggregate and the
    number of nodes walked do not depend on the pool.  Each unit walks
    under the budget left after the spine, and the running total is
    checked after every unit, so ResourceLimit is raised exactly when the
    walk needs more than ``node_budget`` nodes, at most one unit after the
    budget is crossed; with a pool, the queue is drained then, and the
    units the workers took are waited for, so the pool can fold the next
    row.

    With a pool, ``map_fn`` and ``kernel`` must be picklable (module-level
    functions or partials of them, not lambdas or nested functions),
    since they are sent to the workers; NsgError is raised otherwise,
    before any unit is sent.  ``add_fn`` and ``zero`` stay in this
    process and may be anything.  An exception that ``map_fn`` or
    ``kernel`` raises in a worker is raised here, and a worker that dies
    raises NsgError.

    Returns (aggregate, nodes_walked).
    """
    if g < 0:
        raise ValueError("genus must be non-negative")
    spine, units = _spine_split(g)
    tasks = [(u, g, map_fn, kernel, node_budget - spine) for u in units]
    tally = {}
    if pool is None:  # every unit counts straight into ``tally``
        parts = (_fold_subtree(task, tally) for task in tasks)
    else:
        try:
            pickle.dumps((map_fn, kernel))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise NsgError(f"a pooled fold needs a picklable map_fn and kernel, such "
                           f"as module-level functions: {exc}") from None
        parts = pool.imap(_fold_subtree, tasks)
    total = spine
    get = tally.get
    try:
        for part, nodes in parts:
            total += nodes
            if total > node_budget:
                break
            if part is not tally:
                for value, count in part.items():
                    tally[value] = get(value, 0) + count
    except ResourceLimit:  # one unit alone overran the budget left after the spine
        total = node_budget + 1
    if total > node_budget:
        parts.close()  # a pool collects the units still in flight
        raise ResourceLimit(f"node budget of {node_budget} exceeded")
    acc = zero
    for value, count in tally.items():
        acc = _add_times(add_fn, acc, value, count)
    return acc, total
