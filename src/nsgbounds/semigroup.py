"""Numerical semigroups with exact integer arithmetic.

A numerical semigroup is a subset of the non-negative integers that
contains 0, is closed under addition and has finite complement.  The
canonical representation stores the minimal generators, the conductor c
(every integer >= c is a member; c = Frobenius number + 1), the genus
(number of gaps) and a membership bitmap for the finite window [0, c).
Membership tables are plain Python ints used as bitsets, so the whole
module is exact and allocation-light.

Semigroups generated by two coprime integers a < b admit O(1)
membership: with c the inverse of b modulo a,

    i is a member  <=>  b * ((i*c) mod a) <= i      (i >= 0)

and each member has exactly one representation i = m*a + n*b with
m >= 0 and 0 <= n <= a-1, namely n = (i*c) mod a.  All modular
reductions return the canonical representative in [0, modulus).
"""

import math
import operator
from typing import NamedTuple

from .errors import EmptyInput, NonCoprimeGenerators

__all__ = [
    "NumericalSemigroup",
    "TwoGenSemigroup",
    "from_generators",
    "is_member",
    "is_member_two_gen",
    "unique_representation",
    "is_member_consecutive",
    "bit_indices",
]


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class NumericalSemigroup(NamedTuple):
    """Canonical finite description of a numerical semigroup.

    ``member_bitmap`` has bit i set iff i is a member, for
    0 <= i < conductor; membership at or above the conductor is
    implicit.  Instances are immutable named tuples, safe to share
    across threads and processes: unpacking and ``len`` work as for a
    tuple, but ``x in S`` is membership of the integer x, not tuple
    containment.  Build them with :func:`from_generators`; the raw
    constructor trusts its arguments.
    """

    min_generators: tuple[int, ...]
    conductor: int
    genus: int
    member_bitmap: int

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero member."""
        return self.min_generators[0]

    @property
    def frobenius(self) -> int:
        """Largest gap; -1 when there are no gaps."""
        return self.conductor - 1

    def member_mask(self, limit: int) -> int:
        """Bitmask of the members in [0, limit)."""
        if limit <= self.conductor:
            return self.member_bitmap & ((1 << max(limit, 0)) - 1)
        ones = (1 << (limit - self.conductor)) - 1
        return self.member_bitmap | (ones << self.conductor)

    def members(self, limit: int) -> list[int]:
        """All members below ``limit``."""
        return bit_indices(self.member_mask(limit))

    def gaps(self) -> list[int]:
        """The finite complement, ascending."""
        return bit_indices(~self.member_bitmap & ((1 << self.conductor) - 1))

    def __contains__(self, x: int) -> bool:
        return is_member(self, x)

    def __repr__(self) -> str:  # the bitmap is as wide as the conductor
        return (f"NumericalSemigroup(min_generators={self.min_generators!r}, "
                f"conductor={self.conductor!r}, genus={self.genus!r})")


def from_generators(gens) -> NumericalSemigroup:
    """Canonical semigroup generated by a coprime set of positive integers.

    The generating set may be redundant; generators expressible as sums
    of smaller members are dropped so that equal semigroups compare
    equal however they were presented.

    The closure window is ``(lo-1)*(g-1) + g``, where lo is the smallest
    entry and g the smallest entry coprime to it: the semigroup contains
    <lo, g>, whose Frobenius number is lo*g - lo - g (Sylvester), so the
    window holds the conductor and a run of g >= lo members above it.
    When no entry is coprime to lo, the window is ``(lo-1)*(hi-1) + hi``
    with hi the largest entry, which Schur's bound
    F <= (lo-1)*(hi-1) - 1 makes large enough too.  So one closure always
    suffices; the run of lo members above the last gap that certifies the
    conductor is asserted.

    The entries are saturated in ascending order, each by doubling
    shifts, which closes the set under adding any multiple of it.  An
    entry whose bit is already set is a sum of smaller entries and is
    skipped; every other entry is a minimal generator, since the members
    below it are sums of smaller entries.  The closure stops at the first
    entry at or past the window, which is at least the conductor plus lo
    and so lo plus a nonzero member.

    Raises EmptyInput for an empty set, TypeError for an entry that is
    not an integer (floats, Fractions and strings are rejected, not
    rounded; anything with ``__index__`` is accepted), ValueError for
    non-positive entries, and NonCoprimeGenerators when the gcd exceeds 1
    (the complement would be infinite).
    """
    gens = sorted(set(map(operator.index, gens)))
    if not gens:
        raise EmptyInput("at least one generator is required")
    if gens[0] <= 0:
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise NonCoprimeGenerators(f"gcd of {gens} exceeds 1")

    lo = gens[0]
    if lo == 1:  # a one-bit window, which the stop below would leave empty
        return NumericalSemigroup((1,), 0, 0, 0)
    for g in gens:  # ends on the largest entry when none is coprime to lo
        if math.gcd(lo, g) == 1:
            break
    window = (lo - 1) * (g - 1) + g
    mask = (1 << window) - 1
    bits = 1
    min_gens = []
    for entry in gens:
        if entry >= window:
            break
        if bits >> entry & 1:
            continue
        min_gens.append(entry)
        shift = entry
        while shift < window:
            bits |= (bits << shift) & mask
            shift <<= 1
    conductor = (~bits & mask).bit_length()
    # Either bound above is F <= (lo-1)*(g-1) - 1, so the window ends with
    # g >= lo members: a run of lo members certifies everything above it.
    assert window - conductor >= lo, "closure window below the Frobenius bound"

    member_bitmap = bits & ((1 << conductor) - 1)
    genus = conductor - member_bitmap.bit_count()
    return NumericalSemigroup(tuple(min_gens), conductor, genus, member_bitmap)


def is_member(S: NumericalSemigroup, x: int) -> bool:
    """Membership of an arbitrary integer (negatives are never members)."""
    if x < 0:
        return False
    if x >= S.conductor:
        return True
    return (S.member_bitmap >> x) & 1 == 1


class _TwoGenFields(NamedTuple):
    a: int
    b: int
    c: int


class TwoGenSemigroup(_TwoGenFields):
    """Semigroup generated by two coprime integers 2 <= a < b.

    An immutable named tuple (a, b, c), built as ``TwoGenSemigroup(a, b)``:
    ``c`` is the inverse of b modulo a, precomputed so that membership
    and the unique representation are O(1).
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a < 2:
            raise ValueError("smaller generator must be at least 2")
        if b <= a:
            raise ValueError("generators must satisfy a < b")
        if math.gcd(a, b) != 1:
            raise NonCoprimeGenerators(f"gcd({a}, {b}) exceeds 1")
        return super().__new__(cls, a, b, pow(b, -1, a))

    def __getnewargs__(self):  # pickle rebuilds through __new__(a, b)
        return self[:2]

    @classmethod
    def _make(cls, iterable):  # so _replace validates and re-derives c
        a, b, _ = iterable
        return cls(a, b)

    @property
    def genus(self) -> int:
        return (self.a - 1) * (self.b - 1) // 2

    def __contains__(self, i: int) -> bool:
        return is_member_two_gen(self, i)


def is_member_two_gen(S: TwoGenSemigroup, i: int) -> bool:
    """O(1) membership: :func:`unique_representation` finds a representation."""
    return unique_representation(S, i) is not None


def unique_representation(S: TwoGenSemigroup, i: int) -> tuple[int, int] | None:
    """The unique (m, n) with i = m*a + n*b, m >= 0, 0 <= n <= a-1.

    Returns None when i is not a member.
    """
    if i < 0:
        return None
    n = (i * S.c) % S.a
    rest = i - n * S.b
    if rest < 0:
        return None
    return (rest // S.a, n)


def is_member_consecutive(a: int, i: int) -> bool:
    """Membership in the semigroup generated by a and a+1.

    Reduces to comparing remainder and quotient: i belongs iff
    i mod a <= i // a.
    """
    if a < 2:
        raise ValueError("smaller generator must be at least 2")
    if i < 0:
        return False
    return i % a <= i // a
