#!/usr/bin/env python3
"""Decide + bound every shipped scenario and print a one-line summary each.

Each `decide` trace is replayed with its recorded hashes checked, and the
replayed final state must hash like the verdict's; the script exits 1 if
any replay fails.
"""

import pathlib
import sys

from singlink.invariants import concordance_bound
from singlink.moves import MoveError, apply_script
from singlink.scenario import load_scenario
from singlink.simplify import decide
from singlink.state import state_hash

ROOT = pathlib.Path(__file__).resolve().parent.parent


def replay_ok(sc, v):
    try:
        final, _ = apply_script(sc.G, sc.ctx, sc.state, v.trace)
    except MoveError:
        return False
    return state_hash(sc.G, final) == state_hash(sc.G, v.final_state)


def main():
    failed = 0
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        sc = load_scenario(str(path))
        v = decide(sc.G, sc.ctx, sc.state)
        b = concordance_bound(sc.G, sc.ctx)
        ok = replay_ok(sc, v)
        failed += not ok
        extra = f" class={v.witness}" if v.witness is not None and not v.witness.is_zero else ""
        print(f"{path.stem:12s} {v.outcome:15s} moves={len(v.trace):3d} "
              f"replay={'ok' if ok else 'FAIL'} bound={b}{extra}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
