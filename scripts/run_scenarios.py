#!/usr/bin/env python3
"""Decide + bound every shipped scenario and print a one-line summary each."""

import pathlib
import sys

from singlink.invariants import concordance_bound
from singlink.scenario import load_scenario
from singlink.simplify import decide

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        sc = load_scenario(str(path))
        v = decide(sc.G, sc.ctx, sc.state)
        b = concordance_bound(sc.G, sc.ctx)
        extra = f" class={v.witness}" if v.witness is not None and not v.witness.is_zero else ""
        print(f"{path.stem:12s} {v.outcome:15s} moves={len(v.trace):3d} "
              f"bound={b}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
