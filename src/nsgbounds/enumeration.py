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
process, or on a process pool (``worker_pool``, fork only) that can
serve every row of a table; either way the unit tallies are merged in
unit order, and the row's node budget is checked after each unit, so an
overrun stops the row one unit after it happens.

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
import multiprocessing
import operator
import pickle
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


def _drain(parts) -> None:
    """Wait for every unit result still due from a pool.

    Terminating a pool while a worker writes a result can leave the
    result queue's lock held, and the pool's shutdown then waits for it
    forever; a pool with no unit in flight shuts down cleanly.
    """
    while True:
        try:
            for _ in parts:
                pass
            return
        except ResourceLimit:
            pass


def worker_pool(workers: int):
    """The pool ``map_reduce_genus`` takes, as a context manager.

    It gives a fork process pool of ``workers`` processes, or None when
    ``workers`` <= 1.  Workers are forked, so they share the parent's
    imported code and only the tasks cross by pickling.  Raises NsgError
    when the platform cannot fork.
    """
    if workers <= 1:
        return contextlib.nullcontext()
    methods = multiprocessing.get_all_start_methods()
    if "fork" not in methods:
        raise NsgError(f"workers > 1 needs the 'fork' start method, which this "
                       f"platform lacks (it has: {', '.join(methods)})")
    return multiprocessing.get_context("fork").Pool(processes=workers)


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
    when ``pool`` (a pool from ``worker_pool``) is given, in the pool's
    processes, which receive the units as raw node tuples and send back
    their tallies.  Tallies are merged in unit order, so the aggregate
    and the number of nodes walked do not depend on the pool.  Each unit
    walks under the budget left after the spine, and the running total is
    checked after every unit, so ResourceLimit is raised exactly when the
    walk needs more than ``node_budget`` nodes, at most one unit after the
    budget is crossed; with a pool, only once the units already sent have
    finished.

    With a pool, ``map_fn`` and ``kernel`` must be picklable (module-level
    functions or partials of them, not lambdas or nested functions),
    since they are sent to the workers; NsgError is raised otherwise,
    before any unit is sent.  ``add_fn`` and ``zero`` stay in this
    process and may be anything.

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
        # Pool.map's own chunk rule: about four chunks per worker
        chunksize = -(-len(tasks) // (4 * len(pool._pool)))
        parts = pool.imap(_fold_subtree, tasks, chunksize=chunksize)
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
        if pool is not None:
            _drain(parts)
        raise ResourceLimit(f"node budget of {node_budget} exceeded")
    acc = zero
    for value, count in tally.items():
        acc = _add_times(add_fn, acc, value, count)
    return acc, total
