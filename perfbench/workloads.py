"""The four workloads.

Each workload builds its inputs in `setup` and returns a fixed list of
operations; a run is whole passes over that list.  An operation's
`reference` runs it once untimed with the full checks and keeps a digest
of its output; `run` is the timed call and `check` compares a timed
output with the reference digest.  Every operation calls into singlink
through module attributes, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter

import numpy as np

from singlink import (
    cli, groups, invariants, moves, randwalk, scenario, simplify, state,
)

import inputs


class Mismatch(Exception):
    """An output disagrees with what the benchmark expects."""


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


class CliError(Exception):
    """singlink exited with its error code: the operation failed."""


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == cli.EXIT_ERROR:
        raise CliError(err.getvalue().strip())
    return rc, out.getvalue()


def _payload(text):
    return json.loads(text.strip().splitlines()[-1])


def _trace_counts(path):
    """(top-level moves, primitive steps) of a trace file."""
    with open(path) as fh:
        script = json.load(fh)["script"]
    return len(script), sum(len(e.get("steps") or ()) or 1 for e in script)


class Workload:
    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def extra_check(self):
        """Checks beyond each operation's own, run after the reference pass."""


class Op:
    moves = 0            # top-level moves recorded or replayed
    steps = 0            # moves after expanding composites
    digest = None

    def reference(self):
        out = self.run()
        self.digest = self.summarize(out)
        self.full_check(out)

    def check(self, out):
        _expect(self.summarize(out) == self.digest,
                f"{self.label}: output differs from the reference pass")


# -- cycle --------------------------------------------------------------------

class CycleOp(Op):
    def __init__(self, sc, expected):
        self.label = sc.name
        self.sc = sc
        self.expected = expected

    def run(self):
        return simplify.decide(self.sc.G, self.sc.ctx, self.sc.state)

    def summarize(self, v):
        witness = None if v.witness is None else list(v.witness.rep)
        return (v.outcome, witness, len(v.trace),
                state.state_hash(self.sc.G, v.final_state))

    def full_check(self, v):
        outcome, witness = self.expected
        got = self.digest
        _expect(got[0] == outcome and got[1] == witness,
                f"{self.label}: {got[0]} {got[1]}, expected {outcome} {witness}")
        if outcome == "Concordant":
            _expect(not v.final_state.circles,
                    f"{self.label}: circles left after a Concordant verdict")
        final, _ = moves.apply_script(self.sc.G, self.sc.ctx, self.sc.state,
                                      v.trace)
        _expect(state.state_hash(self.sc.G, final) == got[3],
                f"{self.label}: trace does not replay to the final state")
        self.moves = len(v.trace)
        self.steps = sum(len(r.steps) or 1 for r in v.trace)


class Cycle(Workload):
    """In-process `decide` on the n-pair cycle ladder over Z."""

    def setup(self):
        ops = []
        for obj, expected in inputs.cycle_scenarios(self.seed):
            sc = scenario.scenario_from_json(obj)
            rep = state.validate(sc.G, sc.ctx, sc.state)
            _expect(rep.ok, f"{sc.name}: invalid input {rep.violations}")
            ops.append(CycleOp(sc, expected))
        return ops


# -- replay -------------------------------------------------------------------

class ReplayOp(Op):
    def __init__(self, label, scen, trace, final_hash):
        self.label = label
        self.argv = ["--format", "machine", "apply", scen, "--script", trace]
        self.final_hash = final_hash
        self.moves, self.steps = _trace_counts(trace)

    def run(self):
        return _cli(self.argv)

    def summarize(self, out):
        rc, text = out
        p = _payload(text)
        return rc, p.get("final_hash"), p.get("moves")

    def full_check(self, out):
        rc, h, n = self.digest
        _expect(rc == 0, f"{self.label}: apply exited {rc}")
        _expect(h == self.final_hash,
                f"{self.label}: replay ends at {h}, decide reported {self.final_hash}")
        _expect(n == self.moves, f"{self.label}: replayed {n} of {self.moves} moves")


class Replay(Workload):
    """`singlink apply --script` on the cycle traces written at set-up."""

    def setup(self):
        ops = []
        for obj, (outcome, _) in inputs.cycle_scenarios(self.seed):
            scen = os.path.join(self.workdir, obj["name"] + ".json")
            trace = os.path.join(self.workdir, obj["name"] + ".trace.json")
            _write_json(scen, obj)
            rc, text = _cli(["--format", "machine", "--trace-out", trace,
                             "decide", scen])
            p = _payload(text)
            _expect(p.get("outcome") == outcome,
                    f"{obj['name']}: set-up decide gave {p.get('outcome')} (exit {rc})")
            ops.append(ReplayOp(obj["name"], scen, trace, p["final_hash"]))
        return ops


# -- sweep --------------------------------------------------------------------

SWEEP_CALLS = 10         # sweep calls per pass
SWEEP_COUNT = 200        # states per call
SWEEP_STEPS = 10         # moves per random walk (the sweep's default)
SAMPLED_WALKS = 60       # walks whose mu is recounted by the benchmark


def _odd_type2_labels(obj):
    """Labels carried by an odd number of type II circles, identity
    excluded, read from the serialized state."""
    def identity(label):          # 0 in a table group, [0, ...] otherwise
        return not any(label) if isinstance(label, list) else label == 0

    counts = Counter(json.dumps(c["label"]) for c in obj["circles"]
                     if c["kind"] == "type2" and not identity(c["label"]))
    return {k for k, v in counts.items() if v % 2}


class SweepOp(Op):
    def __init__(self, seed):
        self.label = f"sweep-seed{seed}"
        self.seed = seed
        self.moves = SWEEP_COUNT

    def run(self):
        return randwalk.sweep(seed=self.seed, count=SWEEP_COUNT)

    def summarize(self, rep):
        return rep.states, sorted(rep.moves_applied.items()), len(rep.violations)

    def reference(self):
        # count the primitive steps of every applied move on this call
        apply_move, steps = moves.apply_move, [0]

        def counting(*args, **kwargs):
            post, rec = apply_move(*args, **kwargs)
            steps[0] += len(rec.steps) or 1
            return post, rec
        moves.apply_move = counting
        try:
            super().reference()
        finally:
            moves.apply_move = apply_move
        self.steps = steps[0]

    def full_check(self, rep):
        _expect(rep.ok, f"{self.label}: violations {rep.violations[:3]}")
        _expect(rep.states == SWEEP_COUNT,
                f"{self.label}: {rep.states} states, asked for {SWEEP_COUNT}")
        _expect(sum(rep.moves_applied.values()) == SWEEP_COUNT,
                f"{self.label}: move counts do not add up to the state count")



class Sweep(Workload):
    """`randwalk.sweep` with a fixed count over a seeded list of seeds."""

    def setup(self):
        rng = random.Random(f"sweep-{self.seed}")
        ops = [SweepOp(rng.randrange(2 ** 31)) for _ in range(SWEEP_CALLS)]
        std = randwalk.standard_groups()
        names = sorted(std)
        self.walks = []
        for i in range(SAMPLED_WALKS):
            G = std[names[i % len(names)]]
            ctx = randwalk.CONTEXTS[i % len(randwalk.CONTEXTS)]
            walk_rng = np.random.default_rng([self.seed, i])
            steps = [(pre, post) for pre, _, _, post
                     in randwalk.walk(G, ctx, walk_rng, steps=SWEEP_STEPS)]
            self.walks.append((G, steps))
        return ops

    def extra_check(self):
        """mu recounted from the serialized states along the sampled walks:
        unchanged by every step, and equal to the program's mu."""
        n = 0
        for G, steps in self.walks:
            for pre, post in steps:
                a = _odd_type2_labels(state.state_to_json(G, pre))
                b = _odd_type2_labels(state.state_to_json(G, post))
                _expect(a == b, f"sampled walk: type II parity {a} -> {b}")
                mu = invariants.mu(G, post)
                prog = {json.dumps(groups.element_to_json(G, g))
                        for g, bit in zip(G.two_torsion(), mu) if bit}
                _expect(prog == b, f"sampled walk: mu {prog}, recount {b}")
                n += 1
        _expect(n > 0, "sampled walks applied no moves")


# -- tables -------------------------------------------------------------------

class TablesOp(Op):
    def __init__(self, label, scen, trace, expected):
        self.label = label
        self.trace = trace
        self.argv = ["--format", "machine", "--trace-out", trace, "decide", scen]
        self.expected = expected

    def run(self):
        return _cli(self.argv)

    def summarize(self, out):
        rc, text = out
        p = _payload(text)
        return (rc, p.get("outcome"), p.get("moves"), p.get("final_hash"),
                p.get("final_circles"))

    def full_check(self, out):
        rc, outcome, n, _, circles = self.digest
        want_rc = 2 if self.expected.startswith("Obstructed") else 0
        _expect(outcome == self.expected and rc == want_rc,
                f"{self.label}: {outcome} (exit {rc}), expected "
                f"{self.expected} (exit {want_rc})")
        if outcome == "Concordant":
            _expect(circles == 0, f"{self.label}: {circles} circles left")
        self.moves, self.steps = _trace_counts(self.trace)
        _expect(self.moves == n, f"{self.label}: trace has {self.moves} of {n} moves")


class Tables(Workload):
    """CLI `decide` on scenario files over multiplication-table groups."""

    def setup(self):
        ops = []
        for obj, expected in inputs.table_scenarios(self.seed):
            scen = os.path.join(self.workdir, obj["name"] + ".json")
            trace = os.path.join(self.workdir, obj["name"] + ".trace.json")
            _write_json(scen, obj)
            ops.append(TablesOp(obj["name"], scen, trace, expected))
        return ops


WORKLOADS = {"cycle": Cycle, "replay": Replay, "sweep": Sweep, "tables": Tables}
