"""Shared brute-force oracles, independent of the library's fast paths,
and the one way tests start a Python subprocess."""

import math
import os
import subprocess
import sys
from itertools import combinations

import pytest

import nsgbounds

# the directory holding the nsgbounds this session imported: src/ in a
# checkout, site-packages for an installed copy
PACKAGE_PARENT = os.path.dirname(os.path.dirname(nsgbounds.__file__))


def run_python(*args, env=None, **kwargs):
    """subprocess.run of this interpreter with ``args``, importing this nsgbounds.

    ``env`` (default: this process's environment) is passed on with
    PYTHONPATH set to PACKAGE_PARENT alone.
    """
    env = {**(os.environ if env is None else env), "PYTHONPATH": PACKAGE_PARENT}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def oracle_members_upto(gens, limit):
    """Reachability table for [0, limit) by forward dynamic programming."""
    member = [False] * limit
    if limit > 0:
        member[0] = True
    for i in range(1, limit):
        member[i] = any(i >= g and member[i - g] for g in gens)
    return member


def oracle_two_gen_members(a, b):
    """Members of <a, b> below a*b by plain double-loop representation."""
    members = set()
    for m in range(b):
        for n in range(a):
            v = m * a + n * b
            if v < a * b:
                members.add(v)
    return members


def oracle_gap_sets(g):
    """Gap sets (as frozensets) of every genus-g semigroup.

    Candidates are all g-subsets of [1, 2g]; a candidate survives iff
    the complement is closed under addition within [0, 2g].  Everything
    above 2g is a member either way once the gaps fit in [1, 2g].
    """
    if g == 0:
        return {frozenset()}
    top = 2 * g
    window = (1 << (top + 1)) - 1
    out = set()
    for gaps in combinations(range(1, top + 1), g):
        gap_mask = 0
        for x in gaps:
            gap_mask |= 1 << x
        members = window & ~gap_mask
        ok = True
        probe = members & ~1
        while probe:
            low = probe & -probe
            x = low.bit_length() - 1
            probe ^= low
            if ((members << x) & window) & gap_mask:
                ok = False
                break
        if ok:
            out.add(frozenset(gaps))
    return out


def oracle_gm_count(gens, q):
    """Set-difference bound by direct scan over the DP membership table."""
    gens = sorted(set(gens))
    assert math.gcd(*gens) == 1
    # Find the conductor the slow way: first run of min(gens) members.
    probe = oracle_members_upto(gens, gens[0] * gens[-1] + gens[-1] + 1)
    run = 0
    conductor = 0
    for i, m in enumerate(probe):
        run = run + 1 if m else 0
        if not m:
            conductor = i + 1
        if run >= gens[0] and conductor <= i:
            break
    limit = q * gens[0] + conductor
    table = oracle_members_upto(gens, limit)

    def member(x):
        if x < 0:
            return False
        if x >= limit:
            return True
        return table[x]

    count = 0
    for i in range(limit):
        if member(i) and all(not member(i - q * lam) for lam in gens):
            count += 1
    return count + 1


@pytest.fixture(scope="session")
def gap_sets_by_genus():
    """Oracle populations for genus 0..8, computed once per session."""
    return {g: oracle_gap_sets(g) for g in range(9)}
