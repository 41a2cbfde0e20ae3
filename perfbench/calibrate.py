"""Machine-speed calibration.

The machine this benchmark was written on is shared: over tens of seconds
the speed of interpreted Python drifts by 20-60%, the same on both cores,
while CPU time tracks wall time (the slowdown is not stolen time).  A run
therefore takes a calibration sample, a fixed pure-Python task that owes
nothing to singlink, before each pass and after every operation, and
scales each operation's time by REFERENCE_S over the median of the five
samples nearest it.  Reported times are thus times on a machine where the
task takes REFERENCE_S; the raw times and the samples are kept in the
result file.  Numpy-bound work drifts less than interpreted code, so the
scaling removes less of the drift on `tables` than on the other workloads.
"""

from __future__ import annotations

import gc
import time

# the task's median time on the 2-core machine the reference figures in
# README.md come from
REFERENCE_S = 0.003


class _Circle:
    __slots__ = ("id", "partner", "label")

    def __init__(self, cid, partner, label):
        self.id, self.partner, self.label = cid, partner, label


def _task():
    # object attribute reads, small tuples, dict and list building, sorting
    # by key and linear scans: the interpreter work singlink spends its
    # time on
    cs = [_Circle(f"c{i}", f"c{i ^ 1}", (i % 7,)) for i in range(200)]
    for rep in range(9):
        d = {c.id: tuple(x + rep for x in c.label) for c in cs}
        out = sorted(cs, key=lambda c: (d[c.id], c.id))
        sum(1 for a, b in zip(out, out[1:]) if a.partner == b.id)
        for c in cs[::10]:
            for x in cs:
                if x.id == c.partner:
                    break
        [f"{c.id}:{c.label[0]}" for c in out]


def sample():
    """Seconds the calibration task takes now: the median of three runs,
    with the garbage collector off so that the objects the program keeps
    alive cannot slow the task down."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _task()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]
