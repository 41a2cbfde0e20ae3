"""Command-line front end.

Exit codes: 0 for ok / Concordant / Inconclusive, 1 for errors and failed
preconditions, 2 for an Obstructed verdict, so shell pipelines can branch
on the outcome.  Every command prints a machine-readable JSON block; with
``--format human`` (the default) a short human summary precedes it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diagoracle, invariants, moves, randwalk, scenario, simplify
from .groups import GroupError, element_to_json
from .state import StateError, state_hash, state_to_json, validate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OBSTRUCTED = 2


def _emit(args, human_lines, payload):
    if args.format == "human":
        for line in human_lines:
            print(line)
    print(json.dumps(payload, sort_keys=True))


def _write_trace(args, trace):
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            # one write: json.dump writes each small chunk on its own
            fh.write(json.dumps(scenario.trace_to_json(trace), indent=2,
                                sort_keys=True))


# a violation of a check that the group or the invariants own is raised as
# the error that layer raises, any other as a StateError
_LAYER_ERRORS = {"bad-label": GroupError, "mu-pi3-dim": invariants.InvariantError,
                 "delta-self-dim": invariants.InvariantError}


def _load(args):
    return scenario.load_scenario(args.scenario)


def _load_valid(args):
    """The scenario, for a command that reads or moves its state: the
    invariants, the moves and the pipelines assume a valid state, so a
    state with violations stops here, with an error that lists them."""
    sc = _load(args)
    bad = [list(map(str, v)) for v in validate(sc.G, sc.ctx, sc.state).violations]
    if bad:
        err = _LAYER_ERRORS.get(bad[0][0], StateError)(
            "the scenario is invalid: " + ", ".join(" ".join(v) for v in bad))
        err.violations = bad
        raise err
    return sc


def cmd_validate(args):
    sc = _load(args)
    rep = validate(sc.G, sc.ctx, sc.state)
    human = [f"validate: {'ok' if rep.ok else 'INVALID'}"]
    human += [f"  violation: {v}" for v in rep.violations]
    human += [f"  warning: {w}" for w in rep.warnings]
    _emit(args, human, {"command": "validate", "ok": rep.ok,
                        "violations": [list(map(str, v)) for v in rep.violations],
                        "warnings": [list(map(str, w)) for w in rep.warnings]})
    return EXIT_OK if rep.ok else EXIT_ERROR


def cmd_invariants(args):
    sc = _load_valid(args)
    rep = invariants.invariant_report(sc.G, sc.ctx, sc.state)
    human = [
        f"mu    = {list(rep.mu)}",
        f"fq    = {rep.fq_class}",
        f"delta = {list(rep.delta)}",
        f"km    = {rep.km_class}",
    ] + [f"note: {n}" for n in rep.notes]
    _emit(args, human, {
        "command": "invariants",
        "mu": list(rep.mu),
        "fq": {"rep": list(rep.fq_class.rep), "is_zero": rep.fq_class.is_zero},
        "delta": list(rep.delta),
        "km": {"rep": list(rep.km_class.rep), "is_zero": rep.km_class.is_zero},
        "notes": rep.notes,
    })
    return EXIT_OK


def cmd_apply(args):
    sc = _load_valid(args)
    script = scenario.load_script(args.script) if args.script else sc.script
    final, trace = moves.apply_script(sc.G, sc.ctx, sc.state, script)
    _write_trace(args, trace)
    h = state_hash(sc.G, final)
    _emit(args, [f"applied {len(trace)} moves", f"final hash {h}"], {
        "command": "apply",
        "moves": len(trace),
        "final_hash": h,
        "final_state": state_to_json(sc.G, final),
    })
    return EXIT_OK


def cmd_simplify(args):
    sc = _load_valid(args)
    st, trace = simplify.eliminate_type_II(sc.G, sc.ctx, sc.state)
    st, tr2, label = simplify.reduce_to_hopf(sc.G, sc.ctx, st)
    trace = trace + tr2
    _write_trace(args, trace)
    h = state_hash(sc.G, st)
    _emit(args, [f"reduced in {len(trace)} moves",
                 f"final hopf label: {label}", f"final hash {h}"], {
        "command": "simplify",
        "moves": len(trace),
        "label": element_to_json(sc.G, label),
        "final_hash": h,
    })
    return EXIT_OK


def cmd_decide(args):
    sc = _load_valid(args)
    verdict = simplify.decide(sc.G, sc.ctx, sc.state)
    _write_trace(args, verdict.trace)
    human = [f"verdict: {verdict.outcome}"]
    if verdict.reason:
        human.append(f"reason: {verdict.reason}")
    if verdict.witness is not None:
        human.append(f"class: {verdict.witness}")
    payload = {
        "command": "decide",
        "outcome": verdict.outcome,
        "reason": verdict.reason,
        "moves": len(verdict.trace),
    }
    if verdict.witness is not None:
        payload["class"] = {"rep": list(verdict.witness.rep),
                            "is_zero": verdict.witness.is_zero}
    if verdict.final_state is not None:
        payload["final_hash"] = state_hash(sc.G, verdict.final_state)
        payload["final_circles"] = len(verdict.final_state.circles)
    _emit(args, human, payload)
    return EXIT_OBSTRUCTED if verdict.outcome.startswith("Obstructed") else EXIT_OK


def cmd_sweep(args):
    rep = randwalk.sweep(seed=args.seed, count=args.count)
    human = [f"sweep: {rep.states} states, "
             f"{sum(rep.moves_applied.values())} moves, "
             f"{len(rep.violations)} violations"]
    _emit(args, human, {
        "command": "sweep",
        "seed": rep.seed,
        "states": rep.states,
        "moves": rep.moves_applied,
        "violations": [repr(v) for v in rep.violations],
    })
    return EXIT_OK if rep.ok else EXIT_ERROR


def cmd_bound(args):
    sc = _load_valid(args)
    b = invariants.concordance_bound(sc.G, sc.ctx)
    _emit(args, [f"bound: {b}"], {"command": "bound", "bound": b})
    return EXIT_OK


def cmd_crosscheck(args):
    reports = diagoracle.crosscheck_all()
    human = [f"{r.rule}: {r.cases} cases, {len(r.mismatches)} mismatches"
             for r in reports]
    _emit(args, human, {
        "command": "crosscheck",
        "rules": {r.rule: {"cases": r.cases,
                           "mismatches": [repr(m) for m in r.mismatches]}
                  for r in reports},
    })
    return EXIT_OK if all(r.ok for r in reports) else EXIT_ERROR


def build_parser():
    p = argparse.ArgumentParser(
        prog="singlink",
        description="decorated singular-link calculus for sphere concordance")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("--trace-out", default=None, metavar="PATH")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, scenario_arg=True):
        sp = sub.add_parser(name)
        if scenario_arg:
            sp.add_argument("scenario")
        sp.set_defaults(fn=fn)
        return sp

    add("validate", cmd_validate)
    add("invariants", cmd_invariants)
    sp = add("apply", cmd_apply)
    sp.add_argument("--script", default=None,
                    help="script JSON (defaults to the scenario's script block)")
    add("simplify", cmd_simplify)
    add("decide", cmd_decide)
    sp = add("sweep", cmd_sweep, scenario_arg=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=1000)
    add("bound", cmd_bound)
    add("crosscheck", cmd_crosscheck, scenario_arg=False)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (scenario.ScenarioError, simplify.SimplifyError, moves.MoveError,
            invariants.InvariantError, StateError, GroupError, OSError) as err:
        payload = {"error": type(err).__name__, "message": str(err)}
        if hasattr(err, "violations"):
            payload["violations"] = err.violations
        print(json.dumps(payload), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
