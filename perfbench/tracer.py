"""In-memory span recorder for the traced benchmark passes.

Spans are taken from outside the package: the recorder replaces a public
function in the module namespace it is called from with a wrapper that
times the call.  Nothing under src/ is changed on disk.
"""

import time


class Tracer:
    """Times every wrapped call and keeps its spans in memory.

    Each call adds to (calls, total seconds, self seconds) of its name.
    Self time is the span minus the part covered by wrapped calls made
    inside it.  Calls whose name is in ``keep`` also keep their whole span
    as (name, start, end, parent name); per-node calls such as
    ``children`` are only aggregated, so a pass holds no span per node.
    """

    def __init__(self, keep=()):
        self.keep = frozenset(keep)
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self._open: list[list] = []  # [name, seconds covered by children]

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_, spans, clock = self._open, self.spans, time.perf_counter
        keep = name in self.keep

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            open_.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                span = end - start
                if open_:
                    open_[-1][1] += span
                stats[0] += 1
                stats[1] += span
                stats[2] += span - frame[1]
                if keep:
                    spans.append((name, start, end, open_[-1][0] if open_ else None))

        traced.__wrapped__ = fn
        return traced

    def patch(self, name, owner, attr):
        """Route calls through ``owner.attr`` into span ``name``."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

