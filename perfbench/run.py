#!/usr/bin/env python3
"""singlink benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload cycle --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ./src.  A run
builds the workload's inputs from the seed (several times, to time set-up),
runs one untimed reference pass with the full output checks, then times
whole passes over the same operations until --seconds of operation time
have been measured.  Each timed output is checked against the reference.
Times are scaled by the machine-speed calibration in calibrate.py.

--trace 0 prints the end-to-end metrics; --trace 1 times one untraced
pass, then traces whole passes and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Work files (scenarios,
traces, spans, results with the raw times) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calibrate
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")

WORKLOAD_NAMES = ("cycle", "replay", "sweep", "tables")
# set-up repetitions per run; setup_s is their median
SETUP_REPEATS = {"cycle": 7, "replay": 3, "sweep": 5, "tables": 3}
# no pass starts after this much wall time, so a slow program still ends
# well inside the time a run is allowed
WALL_CAP_S = 100.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def calibrated(fn):
    """Call fn between two calibration samples: (result, raw s, scaled s)."""
    before = calibrate.sample()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    after = calibrate.sample()
    return out, raw, raw * calibrate.REFERENCE_S * 2 / (before + after)


class Run:
    def __init__(self, mismatch_type, ops):
        self.mismatch_type = mismatch_type
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples = []        # calibration samples in time order
        self.raw = []            # per timed pass: raw op times, seconds

    def fail(self, op, err):
        self.failed += 1
        print(f"FAILED {op.label}: {type(err).__name__}: {err}", file=sys.stderr)

    def mismatch(self, err):
        self.correct = False
        print(f"WRONG {err}", file=sys.stderr)

    def reference(self):
        for op in self.ops:
            self.attempted += 1
            try:
                op.reference()
            except self.mismatch_type as err:
                self.mismatch(err)
            except Exception as err:      # a failed operation, not a crash
                self.fail(op, err)

    def timed_pass(self, tracer=None):
        """One pass over the operations, with a calibration sample before
        the first and after each; returns the scaled op times in seconds:
        each raw time times REFERENCE_S over the median of the five samples
        nearest the operation."""
        cal = self.samples
        cal.append(calibrate.sample())
        raw, where = [], []
        for op in self.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op += 1
                tracer.on = True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as err:
                self.fail(op, err)
                continue
            finally:
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.on = False
                cal.append(calibrate.sample())
            raw.append(t1 - t0)
            where.append(len(cal) - 2)
            try:
                op.check(out)
            except self.mismatch_type as err:
                self.mismatch(err)
        # two more samples complete the window of the last operation
        for _ in range(2):
            cal.append(calibrate.sample())
        self.raw.append(raw)
        return [t * calibrate.REFERENCE_S
                / statistics.median(cal[max(0, i - 2):i + 3])
                for t, i in zip(raw, where)]

    def passes(self, seconds, start, tracer=None):
        """Whole passes until `seconds` of raw operation time are measured."""
        out, measured = [], 0.0
        while not out or (measured < seconds
                          and time.monotonic() - start < WALL_CAP_S):
            out.append(self.timed_pass(tracer))
            measured += sum(self.raw[-1])
        return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "singlink", "__init__.py")):
        print("perfbench: no singlink sources in ./src; run from the root of "
              "a singlink checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    sys.path.insert(0, SRC)
    import workloads

    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_raw, setup_s = [], []
    for _ in range(SETUP_REPEATS[args.workload]):
        ops, raw, scaled = calibrated(wl.setup)
        setup_raw.append(raw)
        setup_s.append(scaled)

    run = Run(workloads.Mismatch, ops)
    run.reference()
    try:
        wl.extra_check()
    except workloads.Mismatch as err:
        run.mismatch(err)

    if args.trace:
        base = sum(run.timed_pass())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes = run.passes(args.seconds, start, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(workdir, "spans.jsonl.gz"))
        overhead = statistics.mean(sum(t) for t in passes) / base
        metrics = tracer.metrics(len(passes), overhead)
        summary = (f"{len(passes)} traced passes, {len(tracer.spans)} spans, "
                   f"overhead x{overhead:.2f}")
    else:
        passes = [p for p in run.passes(args.seconds, start) if p]
        if not passes:
            print("perfbench: every timed operation failed", file=sys.stderr)
            return 1
        times = [t for p in passes for t in p]
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ops_per_s": metric(
                statistics.median(len(p) / sum(p) for p in passes), "1/s"),
            "op_ms_p50": metric(statistics.median(times) * 1e3, "ms"),
            "trace_moves": metric(sum(op.moves for op in ops), "count"),
            "primitive_steps": metric(sum(op.steps for op in ops), "count"),
        }
        summary = (f"{len(passes)} passes of {len(ops)} operations, "
                   f"{len(times)} timed")

    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "setup_raw_s": setup_raw, "setup_scaled_s": setup_s,
                   "raw_op_s": run.raw, "calibration_s": run.samples,
                   "scaled_op_s": passes}, fh, indent=1)
    print(f"{args.workload} seed={args.seed}: {summary}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
