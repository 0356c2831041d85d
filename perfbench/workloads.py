"""Workload definitions shared by run.py (the entry point) and shim.py (one pass).

A workload is one fixed set of inputs.  Its sizes are chosen so that one
pass takes about a second on a 2-core machine, which leaves room for 20
to 30 passes, and so for medians, inside one 30-second run.
"""

import math
import os
import random

# OEIS A007323: number of numerical semigroups of genus g, g = 0..30
# (Bras-Amoros, Semigroup Forum 76, 2008).  The count gate compares
# count_by_genus against this published sequence, not against the code.
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
           2857, 4806, 8045, 13467, 22464, 37396, 62194, 103246, 170963,
           282828, 467224, 770832, 1270267, 2091030, 3437839, 5646773)

LGM_Q = (2, 3, 9, 16, 256)
Q_SWEEP = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 128, 256)

WORKLOADS = ("lgm-serial", "gmgens-par", "bounds-sweep")
TABLE_KIND = {"lgm-serial": "lgm", "gmgens-par": "gmgens"}
# Value columns per table row, for the expected reference cell count.
TABLE_COLUMNS = {"lgm": 2 * len(LGM_Q), "gmgens": 5}

# Inclusive genus range per table workload and size.
GENUS = {
    "lgm-serial": {"full": (2, 16), "tiny": (2, 8)},
    "gmgens-par": {"full": (2, 17), "tiny": (2, 8)},
}
# bounds-sweep: the verify sweep's (a_max, b_max), and the batch's
# generator sets per (generator count, multiplicity) stratum.
SWEEP = {"full": (30, 60), "tiny": (6, 12)}
BATCH = {"full": 12, "tiny": 1}
BATCH_GENERATORS = range(3, 7)
BATCH_MULTIPLICITY = range(3, 17)
POOL_FACTOR = 8


def pool_workers() -> int:
    """Workers for the pooled table: every usable core, at most four."""
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def table_argv(workload: str, size: str, seed: int, workers: int) -> list[str]:
    """Command line of one table pass, as a user would type it."""
    lo, hi = GENUS[workload][size]
    kind = TABLE_KIND[workload]
    argv = ["table", kind, "--genus", f"{lo}..{hi}", "--format", "csv",
            "--reference", "auto", "--workers", str(workers)]
    if kind == "lgm":
        argv[4:4] = ["--q", ",".join(map(str, LGM_Q))]
        argv += ["--selfcheck", "--seed", str(seed)]
    return argv


def sweep_cases(a_max: int, b_max: int) -> int:
    """Cases the verify sweep must report, counted independently."""
    pairs = sum(1 for a in range(2, a_max + 1) for b in range(a + 1, b_max + 1)
                if math.gcd(a, b) == 1)
    return pairs * len(Q_SWEEP)


def conductor(gens) -> int:
    """Conductor of the semigroup the coprime ``gens`` generate.

    The benchmark's own computation, for drawing the batch; the package's
    is what the batch measures.  Every gap lies below min(gens) * max(gens).
    """
    limit = gens[0] * gens[-1]
    mask = (1 << limit) - 1
    members = 1
    for g in gens:
        shift = g
        while shift < limit:  # close under adding g: multiples 0 .. 2^j - 1
            members |= (members << shift) & mask
            shift *= 2
    return (~members & mask).bit_length()


def semigroup_batch(seed: int, per_stratum: int) -> list[tuple[int, ...]]:
    """Seeded coprime generator sets with 3 to 6 entries.

    The batch holds ``per_stratum`` sets for every (generator count,
    multiplicity) pair, and the seed draws the other generators.  Within
    a stratum the seed draws a pool of POOL_FACTOR times as many sets, and
    the batch keeps those at evenly spaced ranks of the pool's conductors.
    An evaluation's cost grows with the conductor, so this keeps the
    latency tail from following the seed.  With counts and multiplicities
    drawn at random, the p99 of 700 sets moved by 29% from seed to seed;
    with the strata but no conductor ranks, by 16%, as a few more
    redundant sets with two large minimal generators came up.  Entries may
    be redundant, as user input can be; from_generators reduces them to
    minimal generators.
    """
    rng = random.Random(seed)
    out = []
    pool_size = POOL_FACTOR * per_stratum
    for k in BATCH_GENERATORS:
        for m in BATCH_MULTIPLICITY:
            pool = []
            while len(pool) < pool_size:
                gens = tuple(sorted({m, *rng.sample(range(m + 1, 3 * m + 8), k - 1)}))
                if math.gcd(*gens) == 1:
                    pool.append((conductor(gens), gens))
            pool.sort()
            out += [pool[(2 * i + 1) * pool_size // (2 * per_stratum)][1]
                    for i in range(per_stratum)]
    return out
