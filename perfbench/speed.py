"""Host time at a reference speed.

On a shared machine the same work can run 1.5-2 times slower for seconds to
minutes at a time, and the process's own CPU time grows with it: the core
itself runs slower while neighbours load it. A fixed pure-Python loop slows
by about the same factor at the same moment, so timing that loop around
each piece of work and scaling the work's host time by ``CALIBRATION_REF_S``
over the loop's time cancels most of the machine's drift. The loop never touches
relaysim, so nothing a change to the program does can move it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

CALIBRATION_ITEMS = 6000
# The loop's median time on the machine described in baseline.json: scaled
# times are host seconds at that machine's typical speed.
CALIBRATION_REF_S = 0.0013


def calibration_s() -> float:
    """Seconds for one pass of a fixed loop of integer arithmetic, string
    formatting, a dict and a sort: the kind of work relaysim does, without
    it. Ints and strs are not tracked by the cyclic garbage collector, so
    the loop triggers no collection of the program's heap, and the heap's
    size cannot change the loop's time."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(CALIBRATION_ITEMS):
        total += i * i
        table[i] = str(total)
    ordered = sorted(table.values())
    elapsed = time.perf_counter() - start
    if len(ordered) != CALIBRATION_ITEMS:
        raise RuntimeError("calibration loop lost items")
    return elapsed


class Speed:
    """Speed factors for pieces of a job; disabled, every factor is 1.0.

    ``spent_s`` totals the time spent calibrating, which callers subtract
    from the host time of the job around it.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spent_s = 0.0

    def factor(self) -> float:
        """Calibrate now; return reference seconds per host second."""
        if not self.enabled:
            return 1.0
        elapsed = calibration_s()
        self.spent_s += elapsed
        return CALIBRATION_REF_S / elapsed

    def run(self, segments: list[tuple[float, float]], fn, *args):
        """Call ``fn(*args)`` and append (host seconds, factor) to ``segments``.

        The factor is the mean of calibrations just before and just after
        the call: a long call (a 0.4 s concrete-mode round) is otherwise
        scaled by one 1.3 ms sample, whose own noise and any change of speed
        during the call go straight into its time.
        """
        before = self.factor()
        start = time.perf_counter()
        result = fn(*args)
        host_s = time.perf_counter() - start
        segments.append((host_s, (before + self.factor()) / 2))
        return result

    @contextmanager
    def timing(self, owner, attr: str, segments: list[tuple[float, float]]):
        """Time every call of ``owner.attr`` made inside the block."""
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            return self.run(segments, lambda: original(*args, **kwargs))

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)
