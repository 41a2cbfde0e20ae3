"""Random reachable states and the move-invariance sweep.

States are generated by random walks of precondition-checked moves from
small seed states, so everything produced here is reachable and valid by
construction; the sweep then checks that each applied move preserved the
invariants it must preserve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import moves
from .groups import AbelianGroup, FiniteGroup, GroupError
from .invariants import delta, mu
from .state import (
    ACTIVE, TYPE1, TYPE2, Circle, Context, LinkState, StateError, pkey, validate,
)


def q8_table():
    units = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]

    def qmul(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)

    idx = {u: i for i, u in enumerate(units)}
    return [[idx[qmul(a, b)] for b in units] for a in units]


def standard_groups():
    return {
        "Z": AbelianGroup(1),
        "Z2": AbelianGroup(0, (2,)),
        "Z4": AbelianGroup(0, (4,)),
        "Z2xZ2": AbelianGroup(0, (2, 2)),
        "Q8": FiniteGroup(q8_table(), generators=[2, 4]),
    }


CONTEXTS = (
    Context(s_characteristic=False, dual_sphere=None),
    Context(s_characteristic=False, dual_sphere="framed"),
    Context(s_characteristic=True, dual_sphere="unframed"),
)


def random_element(G, rng):
    if isinstance(G, FiniteGroup):
        return int(rng.integers(G.n))
    v = [int(rng.integers(-2, 3)) for _ in range(G.rank)]
    v += [int(rng.integers(n)) for n in G.torsion]
    return G.check(tuple(v))


def seed_state(G, ctx, rng, type2=True) -> LinkState:
    """A small valid state: split type II circles with random involution
    labels and consistent pairwise twists."""
    circles, tw = [], []
    if type2:
        labels = [G.identity] + G.two_torsion()
        t2 = []
        for i in range(int(rng.integers(0, 4))):
            lab = labels[int(rng.integers(len(labels)))]
            t2.append(Circle(f"s{i}", TYPE2, f"s{i}", None, lab))
        circles += t2
        for i, a in enumerate(t2):
            for b in t2[i + 1:]:
                if G.element_key(a.label) == G.element_key(b.label):
                    tw.append((pkey(a.id, b.id), int(rng.integers(2))))
    return LinkState(circles=tuple(circles), tw=tuple(tw))


def _candidate(G, ctx, state, rng, type2=True):
    ids = [c.id for c in state.circles]
    t1 = [c.id for c in state.circles if c.kind == TYPE1]
    t2 = [c.id for c in state.circles if c.kind == TYPE2]

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    names = ["trivial_finger", "finger_move", "finger_move", "clasp_finger",
             "clasp_finger", "flip_activity", "introduce_type_II",
             "whitney_move", "whitney_move", "whitney_pair_typeII",
             "ambient_surgery", "add_hopf_pair", "merge_hopf_pairs",
             "remove_trivial_hopf_pairs"]
    if not type2:
        names = [n for n in names
                 if n not in ("introduce_type_II", "whitney_pair_typeII")]
    name = pick(names)
    if name == "trivial_finger":
        return name, {"g": random_element(G, rng)}
    if name == "introduce_type_II":
        return name, {}
    if name == "finger_move":
        if not ids:
            return None
        return name, {"a": pick(ids), "b": pick(ids)}
    if name == "clasp_finger":
        if not state.clasps:
            return None
        a, b = pick(state.clasps)
        return name, {"a": a, "b": b}
    if name == "flip_activity":
        if not t1:
            return None
        return name, {"a": pick(t1)}
    if name == "whitney_move":
        if not t1:
            return None
        a = pick(t1)
        b = pick(t1)
        ca, cb = state.circle(a), state.circle(b)
        if cb.id == ca.partner:
            mode = "inverse"
        else:
            mode = "equal" if ca.role == cb.role else "inverse"
        return name, {"spec": {"a": a, "b": b, "mode": mode}}
    if name == "whitney_pair_typeII":
        if len(t2) < 2:
            return None
        return name, {"a": pick(t2), "b": pick(t2)}
    if name == "ambient_surgery":
        if not t1:
            return None
        return name, {"a": pick(t1)}
    if name == "add_hopf_pair":
        return name, {"g": random_element(G, rng)}
    # merge_hopf_pairs or remove_trivial_hopf_pairs
    if len(t1) < 4:
        return None
    return name, {"a": pick(t1), "b": pick(t1)}


STEP_ATTEMPTS = 12           # candidates `random_step` draws before it gives up


def random_step(G, ctx, state, rng, type2=True):
    """One applicable random move; returns (move, params, post) or None."""
    for _ in range(STEP_ATTEMPTS):
        cand = _candidate(G, ctx, state, rng, type2=type2)
        if cand is None:
            continue
        move, params = cand
        try:
            post, _ = moves.apply_move(G, ctx, state, move, params)
        except (moves.MoveError, StateError, GroupError):
            continue
        return move, params, post
    return None


def walk(G, ctx, rng, steps=12, type2=True):
    """Yield (pre, move, params, post) along a random applicable-move walk."""
    state = seed_state(G, ctx, rng, type2=type2)
    for _ in range(steps):
        got = random_step(G, ctx, state, rng, type2=type2)
        if got is None:
            break
        move, params, post = got
        yield state, move, params, post
        state = post


@dataclass
class SweepReport:
    seed: int
    states: int = 0
    moves_applied: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _parity_ok(state: LinkState) -> bool:
    return all(state.lk_total(a.id) == state.lk_total(i.id)
               for a, i in state.pairs())


def _invariants(G, ctx, state):
    return mu(G, state), delta(G, ctx, state) if ctx.s_characteristic else None


def sweep(seed: int = 0, count: int = 1000, steps=10) -> SweepReport:
    """Apply random moves to random reachable states until ``count`` post
    states were checked; record any invariance violation."""
    rng = np.random.default_rng(seed)
    groups = standard_groups()
    names = sorted(groups)
    rep = SweepReport(seed=seed)
    while rep.states < count:
        G = groups[names[int(rng.integers(len(names)))]]
        ctx = CONTEXTS[int(rng.integers(len(CONTEXTS)))]
        inv = None       # mu and delta of the walk's current state
        for pre, move, params, post in walk(G, ctx, rng, steps=steps):
            rep.states += 1
            rep.moves_applied[move] = rep.moves_applied.get(move, 0) + 1
            case = (G.__class__.__name__, move, rep.states)
            v = validate(G, ctx, post)
            if not v.ok:
                rep.violations.append((case, "validate", v.violations))
            # each step's pre is the previous step's post
            pre_inv = inv or _invariants(G, ctx, pre)
            inv = _invariants(G, ctx, post)
            if not np.array_equal(pre_inv[0], inv[0]):
                rep.violations.append((case, "mu", None))
            if ctx.s_characteristic:
                if not np.array_equal(pre_inv[1], inv[1]):
                    rep.violations.append((case, "delta", None))
                if ctx.dual_sphere is not None and not _parity_ok(post):
                    rep.violations.append((case, "dual-parity", None))
            if rep.states >= count:
                break
    return rep
