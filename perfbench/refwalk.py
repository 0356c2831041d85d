"""Probes of how fast the host runs, taken between pieces of a pass's work.

The host this benchmark runs on is shared, and its speed changes by up to
2x from one tenth of a second to the next.  The change slows every
pure-Python pass alike, so a pass stops every GAP_S or so of work, at a
row or batch boundary, and times a short probe walk.  HostClock rescales
each stretch of work between two probes by REF_PROBE_S over the mean of
the two probes' times, which gives the time the work would take on a host
on which the probe takes REF_PROBE_S.  Probe time is not counted as work.

The probe is its own copy of the genus-tree walk (bitset window, child
expansion, a Fraction sum per leaf), so it loads the host the way the
workloads do; it imports nothing from the package, so no change to the
package moves it.  It must stay as it is: editing it rescales every
reported time.
"""

import bisect
import math
import os
import resource
import time
from fractions import Fraction

PROBE_GENUS = 12
PROBE_LEAVES = 592  # OEIS A007323 at genus 12
# The probe's time on the reference host, one on which the genus-14 walk
# takes 40 ms.
REF_PROBE_S = 0.012
GAP_S = 0.1  # work between two probes, at least


def walk(genus: int) -> tuple[int, Fraction]:
    """Leaves of the semigroup tree at ``genus`` and a Fraction sum over them."""
    stack = [((1 << (3 * genus + 2)) - 1, -1, 0, (1,), 1)]
    leaves = 0
    acc = Fraction(0)
    while stack:
        bits, frob, g, gens, m = stack.pop()
        if g == genus:
            leaves += 1
            acc += Fraction(len(gens), frob + 1)
            continue
        gens_set = set(gens)
        for lam in gens:
            if lam <= frob:
                continue
            cbits = bits & ~(1 << lam)
            if lam == m:
                t = cbits & ~1
                cm = (t & -t).bit_length() - 1
            else:
                cm = m
            new = [x for x in gens if x != lam]
            for x in range(lam + 1, lam + cm + 1):
                if x in gens_set:
                    continue
                for y in range(cm, x // 2 + 1):
                    if (cbits >> y) & 1 and (cbits >> (x - y)) & 1:
                        break
                else:
                    new.append(x)
            stack.append((cbits, lam, g + 1, tuple(sorted(new)), cm))
    return leaves, acc


def probe_s() -> float:
    """Seconds for one probe walk; raises if the walk miscounts."""
    start = time.perf_counter()
    leaves, _ = walk(PROBE_GENUS)
    elapsed = time.perf_counter() - start
    if leaves != PROBE_LEAVES:
        raise RuntimeError(f"probe walk found {leaves} leaves, not {PROBE_LEAVES}")
    return elapsed


def cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _probes_s(workers: int) -> float:
    """Mean time of ``workers`` probe walks run at once, one per process.

    A pooled pass keeps ``workers`` cores busy, so its host speed is that
    of all of them.  The walks run in forked children (and this process)
    rather than a multiprocessing pool, so no pool start is counted.
    """
    children = []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: one walk, its time on the pipe, and out
                code = 1
                try:
                    os.close(r)
                    os.write(w, repr(probe_s()).encode())
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, os.fdopen(r)))
        times = [probe_s()]
        times += [float(fh.read()) for _, fh in children]
    finally:  # every child is reaped, whatever the parent's walk did
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)
    return sum(times) / len(times)


class HostClock:
    """Work time of one pass, raw and rescaled to the reference host.

    The clock probes the host when it is made, whenever ``tick`` is called
    at least GAP_S after the last probe, and at ``close``.  Each stretch
    between two probes is a segment with its own scale.  Times are
    ``time.perf_counter`` readings.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.starts: list[float] = []  # segment start times
        self.ends: list[float] = []
        self.scales: list[float] = []
        self.probes: list[float] = []  # each probe's mean walk time
        self.probe_cpu_s = 0.0  # CPU the probes used, children included
        walk(6)  # warm the interpreter's caches for the probe
        self._mark = self._probe()

    def _probe(self) -> float:
        cpu = cpu_s()
        self.probes.append(_probes_s(self.workers))
        self.probe_cpu_s += cpu_s() - cpu
        return time.perf_counter()

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._mark < GAP_S:
            return
        self.starts.append(self._mark)
        self.ends.append(now)
        self._mark = self._probe()
        self.scales.append(REF_PROBE_S / math.sqrt(self.probes[-2] * self.probes[-1]))

    def close(self) -> None:
        self.tick(force=True)

    @property
    def setup_scale(self) -> float:
        """Scale for the set-up, which ran just before the first probe."""
        return REF_PROBE_S / self.probes[0]

    def span(self, start: float, end: float) -> tuple[float, float]:
        """Raw and rescaled seconds of work between ``start`` and ``end``."""
        i = bisect.bisect_right(self.ends, start)
        raw = ref = 0.0
        while i < len(self.starts) and self.starts[i] < end:
            overlap = min(end, self.ends[i]) - max(start, self.starts[i])
            if overlap > 0:
                raw += overlap
                ref += overlap * self.scales[i]
            i += 1
        return raw, ref

    def scale_at(self, t: float) -> float:
        """Scale of the segment that holds time ``t``."""
        i = min(bisect.bisect_left(self.ends, t), len(self.scales) - 1)
        return self.scales[i]
