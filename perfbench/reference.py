#!/usr/bin/env python3
"""Reference figures for README.md: single timings of the calls the
workloads are made of, without calibration or repetition.

    python3 perfbench/reference.py          (from the repository root)

Prints `decide` time and trace length on the n-pair cycle ladder (seed 1),
the replay of the n=64 trace, `sweep(seed=0, count=1000)` and CLI `decide`
on an s-characteristic cycle over the cyclic group of order 255.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import inputs                                            # noqa: E402
from singlink import cli, moves, randwalk, scenario, simplify  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main():
    for obj, _ in inputs.cycle_scenarios(1):
        sc = scenario.scenario_from_json(obj)
        v, dt = timed(lambda: simplify.decide(sc.G, sc.ctx, sc.state))
        flips = sum(r.move == "flip_activity" for r in v.trace)
        print(f"decide {obj['name']}: {dt:.3f} s, {len(v.trace)} moves "
              f"({flips} flip_activity), {v.outcome}")
    _, dt = timed(lambda: moves.apply_script(sc.G, sc.ctx, sc.state, v.trace))
    print(f"apply_script on the {obj['name']} trace: {dt:.3f} s")
    rep, dt = timed(lambda: randwalk.sweep(seed=0, count=1000))
    print(f"sweep(seed=0, count=1000): {dt:.3f} s, {len(rep.violations)} violations")
    G = inputs.TableGroup(255, False)
    obj = {"schema_version": 1, "name": "C255", "group": G.json(),
           "context": inputs.SCHAR, "script": [],
           "state": inputs.cycle_state([1, 2, 1, 0])}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        path = os.path.join(tmp, "c255.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            rc, dt = timed(lambda: cli.main(["--format", "machine", "decide", path]))
    print(f"CLI decide, cyclic group of order 255: {dt:.3f} s (exit {rc})")


if __name__ == "__main__":
    main()
