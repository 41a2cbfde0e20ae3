"""Layer tracing from outside the program.

`Tracer.install` replaces the public functions of each singlink layer with
wrappers: every module binding of a function (``moves.state_hash``,
``simplify.state_hash``, ...), the entries of the move registries, and a
few group and state methods.  A wrapped call records a span (name, parent
span, operation id, start, end, whether it returned); hot accessors are
counted only, since a span each would dwarf the work they do.  Spans stay
in memory until `write` and the per-layer metrics are derived from them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

# (module, function) pairs wrapped wherever a singlink module binds them
FUNCTIONS = (
    ("state", "state_hash"), ("state", "state_to_json"), ("state", "validate"),
    ("moves", "apply_move"), ("moves", "apply_script"),
    ("invariants", "mu"), ("invariants", "delta"),
    ("invariants", "fq"), ("invariants", "km"),
    ("simplify", "decide"), ("simplify", "eliminate_type_II"),
    ("simplify", "reduce_to_hopf"),
    ("scenario", "load_scenario"), ("scenario", "load_script"),
    ("cli", "main"), ("randwalk", "sweep"),
)
# (module, class, method, span name)
METHODS = (
    ("groups", "FiniteGroup", "__init__", "groups.construct"),
    ("groups", "AbelianGroup", "__init__", "groups.construct"),
    ("groups", "FiniteGroup", "eps", "groups.eps"),
    ("groups", "AbelianGroup", "eps", "groups.eps"),
    ("groups", "FiniteGroup", "balanced_word", "groups.balanced_word"),
    ("groups", "AbelianGroup", "balanced_word", "groups.balanced_word"),
)
# (module, class or None, attribute, counter name)
COUNTED = (
    ("groups", "FiniteGroup", "mul", "groups.mul"),
    ("groups", "AbelianGroup", "mul", "groups.mul"),
    ("state", "LinkState", "circle", "state.LinkState.circle"),
    ("state", "LinkState", "linked_ids", "state.LinkState.linked_ids"),
    ("randwalk", None, "random_step", "randwalk.random_step"),
)
MOVE_NAMES = (
    "clasp_finger", "finger_move", "trivial_finger", "introduce_type_II",
    "flip_activity", "whitney_move", "whitney_pair_typeII", "ambient_surgery",
    "merge_hopf_pairs", "remove_trivial_hopf_pairs",
    "move_meridian", "shorten_cycle", "add_hopf_pair",
)


def per_layer_metrics():
    """[(name, unit)] of every per-layer metric, in report order."""
    out = [("state.state_hash.calls", "count"), ("state.state_hash.ms", "ms"),
           ("state.state_to_json.ms", "ms"),
           ("state.hashes_per_move", "count/move"),
           ("state.validate.calls", "count"), ("state.validate.ms", "ms"),
           ("state.LinkState.circle.calls", "count"),
           ("state.LinkState.linked_ids.calls", "count")]
    for name in MOVE_NAMES:
        out += [(f"moves.{name}.calls", "count"), (f"moves.{name}.ms", "ms"),
                (f"moves.{name}.rejected", "count")]
    out += [("moves.apply_move.calls", "count"), ("moves.apply_move.ms", "ms"),
            ("moves.apply_script.ms", "ms"),
            ("moves.accepted_per_attempt", "ratio"),
            ("groups.construct.calls", "count"), ("groups.construct.ms", "ms"),
            ("groups.eps.calls", "count"), ("groups.eps.ms", "ms"),
            ("groups.balanced_word.calls", "count"),
            ("groups.balanced_word.ms", "ms"),
            ("groups.mul.calls", "count")]
    for name in ("mu", "delta", "fq", "km"):
        out += [(f"invariants.{name}.calls", "count"),
                (f"invariants.{name}.ms", "ms")]
    out += [("simplify.decide.ms", "ms"),
            ("simplify.eliminate_type_II.ms", "ms"),
            ("simplify.reduce_to_hopf.ms", "ms"),
            ("simplify.reorient_moves", "count"),
            ("scenario.load_scenario.ms", "ms"),
            ("scenario.load_script.ms", "ms"),
            ("cli.main.ms", "ms"),
            ("randwalk.sweep.ms", "ms"),
            ("randwalk.random_step.calls", "count"),
            ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        self.spans = []          # (name, parent index, op, t0 ns, t1 ns, ok)
        self.stack = []
        self.counts = Counter()
        self.composites = set()  # span names of the composite moves
        self._undo = []

    # -- wrappers ------------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, self.op, t0, t1, ok)
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {name[len("singlink."):]: mod for name, mod in sys.modules.items()
                if name.startswith("singlink.")}
        everywhere = [sys.modules["singlink"], *mods.values()]
        for modname, fname in FUNCTIONS:
            orig = getattr(mods[modname], fname)
            wrapped = self._span(f"{modname}.{fname}", orig)
            for mod in everywhere:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapped)
        for modname, cls, meth, name in METHODS:
            owner = getattr(mods[modname], cls)
            self._set(owner, meth, self._span(name, owner.__dict__[meth]))
        for modname, cls, attr, name in COUNTED:
            owner = mods[modname] if cls is None else getattr(mods[modname], cls)
            self._set(owner, attr, self._count(name, owner.__dict__[attr]))
        moves = mods["moves"]
        registries = (moves.MOVES, moves._PRIMITIVES, moves._COMPOSITES)
        self.composites = {f"moves.{name}" for name in moves._COMPOSITES}
        for name, fn in list(moves.MOVES.items()):
            wrapped = self._span(f"moves.{name}", fn)
            for reg in registries:
                if reg.get(name) is fn:
                    self._undo.append((reg, name, fn))
                    reg[name] = wrapped

    def uninstall(self):
        self.on = False
        for owner, attr, val in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)
        self._undo.clear()

    # -- output --------------------------------------------------------------
    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][3] if self.spans else 0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": names, "counts": dict(self.counts),
                                 "fields": ["name", "parent", "op", "t0_ns",
                                            "t1_ns", "ok"]}) + "\n")
            for name, parent, op, t0, t1, ok in self.spans:
                fh.write(f"[{index[name]},{parent},{op},{t0 - base},"
                         f"{t1 - base},{int(ok)}]\n")

    def metrics(self, passes, overhead):
        """Per-layer metrics per traced pass, derived from the spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, _, t0, t1, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls, self_ns, rejected = Counter(), Counter(), Counter()
        for i, (name, _, _, t0, t1, ok) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += t1 - t0 - child_ns[i]
            rejected[name] += not ok

        def in_trace(i):
            # recorded by a pipeline or replayed from a script, not tried
            # by a random walk
            p = spans[i][1]
            while p >= 0:
                name = spans[p][0]
                if name.startswith("simplify.") or name == "moves.apply_script":
                    return True
                p = spans[p][1]
            return False

        top_tried = top_ok = reorient = 0
        for i, (name, parent, _, _, _, ok) in enumerate(spans):
            if not name.startswith("moves.") or name[6:] not in MOVE_NAMES:
                continue
            if parent >= 0 and spans[parent][0] in self.composites:
                continue
            top_tried += 1
            top_ok += ok
            if ok and name == "moves.flip_activity" and in_trace(i):
                reorient += 1

        derived = {
            "state.hashes_per_move":
                calls["state.state_hash"] / top_ok if top_ok else 0.0,
            "moves.accepted_per_attempt":
                top_ok / top_tried if top_tried else 0.0,
            "simplify.reorient_moves": reorient / passes,
            "trace.overhead_ratio": overhead,
        }
        out = {}
        for metric, unit in per_layer_metrics():
            key, _, stat = metric.rpartition(".")
            if stat == "calls":
                v = (calls[key] + self.counts[key]) / passes
            elif stat == "ms":
                v = self_ns[key] / 1e6 / passes
            elif stat == "rejected":
                v = rejected[key] / passes
            else:
                v = derived[metric]
            out[metric] = {"value": v, "unit": unit}
        return out
