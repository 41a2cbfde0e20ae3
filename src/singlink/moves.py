"""Move calculus: precondition-checked rewrites on link states.

Primitive moves rewrite the decorated data directly; composite moves are
compositions of primitives, so their label and linking effects can never
drift from the primitive rules.  Every move carries ``homology_tag``
through unchanged and preserves the mod-2 invariants (checked by the
property suite, not re-derived here).
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from . import groups as G_
from .state import (
    ACTIVE, INACTIVE, TYPE1, TYPE2,
    Circle, LinkState, StateError, pkey, state_hash,
)


class MoveError(ValueError):
    pass


class ScriptError(MoveError):
    def __init__(self, index, move, message):
        super().__init__(f"step {index} ({move}): {message}")
        self.index = index
        self.move = move


def _eps0(G, g) -> bool:
    return not np.any(G.eps(g))


class _B:
    """The edits a move makes to a state, for building the post-state:
    removed circle ids, added circles, the new clasp counts of the touched
    pairs and the twist entries."""

    def __init__(self, state: LinkState):
        self.base = state
        self.removed = set()
        self.added = {}
        self.counts = {}
        self.tw = dict(self.base.tw)

    def _count(self, k):
        return self.counts[k] if k in self.counts else self.base.clasp_count(*k)

    def toggle_clasp(self, a, b):
        k = pkey(a, b)
        n = self._count(k)
        self.counts[k] = n - 1 if n else 1

    def link_with_clasp(self, a, b):
        k = pkey(a, b)
        self.counts[k] = self._count(k) + 1

    def unclasp(self, a, b):
        k = pkey(a, b)
        self.counts[k] = self._count(k) - 1

    def add_circle(self, c):
        self.added[c.id] = c

    def add_pair(self, act_id, inact_id, label):
        self.add_circle(Circle(act_id, TYPE1, inact_id, ACTIVE, label))
        self.add_circle(Circle(inact_id, TYPE1, act_id, INACTIVE))

    def remove_circle(self, cid):
        if self.added.pop(cid, None) is None:
            self.removed.add(cid)
        for k in [*self.base.clasps_at(cid), *self.counts]:
            if cid in k:
                self.counts[k] = 0
        self.tw = {k: v for k, v in self.tw.items() if cid not in k}

    def state(self) -> LinkState:
        return self.base.edited(self.removed, self.added.values(),
                                self.counts, self.tw.items())


def _type2_guard(G, state: LinkState, a: str, b: str):
    """Crossing-change moves may touch type II circles only when the twist
    data provably cannot drift (tw transport is not modeled in general)."""
    ca, cb = state.circle(a), state.circle(b)
    t2 = [c for c in {ca.id: ca, cb.id: cb}.values() if c.kind == TYPE2]
    if len(t2) == 1 and a != b and not _eps0(G, t2[0].label):
        raise MoveError(
            "crossing change between a type II circle with homologically "
            "nontrivial label and a type I circle is not modeled")
    if len(t2) == 2 and a != b:
        if not np.array_equal(G.eps(t2[0].label), G.eps(t2[1].label)):
            raise MoveError(
                "crossing change between type II circles of different "
                "homology class is not modeled")


# -- crossing-change primitives --------------------------------------------

def _cross(G, ctx, state, a, b, remove_clasp):
    ca, cb = state.circle(a), state.circle(b)
    _type2_guard(G, state, a, b)
    bld = _B(state)
    if remove_clasp:
        if state.clasp_count(a, b) == 0:
            raise MoveError(f"no clasp between {a!r} and {b!r}")
        bld.unclasp(a, b)
    else:
        bld.link_with_clasp(a, b)
    e = G.mul(state.read(G, a), G.inv(state.read(G, b)))
    E, Ep = state.fresh_ids(2, "e")
    bld.add_pair(E, Ep, e)
    # a type II circle is its own partner
    bld.link_with_clasp(E, ca.partner)
    bld.link_with_clasp(Ep, cb.partner)
    return bld.state(), {"spawned": (E, Ep)}


def _clasp_finger(G, ctx, state, a, b):
    return _cross(G, ctx, state, a, b, remove_clasp=True)


def _finger_move(G, ctx, state, a, b):
    return _cross(G, ctx, state, a, b, remove_clasp=False)


def _trivial_finger(G, ctx, state, g):
    g = G.check(g)
    bld = _B(state)
    A, Ap = state.fresh_ids(2, "u")
    bld.add_pair(A, Ap, g)
    return bld.state(), {"spawned": (A, Ap)}


def _introduce_type_II(G, ctx, state):
    bld = _B(state)
    cid = state.fresh_ids(1, "t")[0]
    bld.add_circle(Circle(cid, TYPE2, cid, None, G.identity))
    for c in state.type2_circles():
        if c.label is not None and G.element_key(c.label) == G.element_key(G.identity):
            bld.tw[pkey(cid, c.id)] = 0
    return bld.state(), {"spawned": (cid,)}


def _flip_activity(G, ctx, state, a):
    """Swap the active/inactive roles in the type I pair of ``a``,
    inverting the label; linking, clasps and twists do not see roles."""
    c = state.circle(a)
    if c.kind != TYPE1:
        raise MoveError(f"{a!r} is not a type I circle")
    act = c if c.role == ACTIVE else state.circle(c.partner)
    if act.kind != TYPE1 or act.role != ACTIVE:
        raise StateError(f"{act.id!r} is not an active type I circle")
    inact = state.circle(act.partner)
    swap = (replace(act, role=INACTIVE, label=None),
            replace(inact, role=ACTIVE, label=G.inv(act.label)))
    return (state.edited(removed=(act.id, inact.id), added=swap),
            {"active": inact.id})


# -- whitney moves ---------------------------------------------------------

@dataclass(frozen=True)
class WhitneySpec:
    a: str
    b: str
    mode: str = "equal"          # "equal" | "inverse"
    sigma: tuple = ()            # ((circle id, (s1, s2)), ...)
    nu: int | None = None
    clean: bool = True
    n: int = 0


def _as_spec(spec):
    """The spec as a WhitneySpec with its bits reduced mod 2; a malformed
    spec raises MoveError."""
    try:
        if isinstance(spec, dict):
            spec = WhitneySpec(**spec)
        sigma = {x: (int(s1) & 1, int(s2) & 1) for x, (s1, s2) in spec.sigma}
        nu = None if spec.nu is None else int(spec.nu) & 1
        n = operator.index(spec.n)
    except (AttributeError, TypeError, ValueError):
        raise MoveError(f"malformed whitney spec {spec!r}") from None
    return replace(spec, sigma=tuple(sigma.items()), nu=nu, n=n)


def _add_belts(G, bld, fresh_source, targets, n):
    ids = fresh_source.fresh_ids(2 * n, "belt")
    for j in range(n):
        B, Bp = ids[2 * j], ids[2 * j + 1]
        bld.add_pair(B, Bp, G.identity)
        for t in targets:
            bld.link_with_clasp(B, t)


def _row_sum_excluding(state, cid, excluded):
    return sum(1 for x in state.linked_ids(cid) if x not in excluded) % 2


def _whitney_split(G, ctx, state, spec, act, inact):
    g = act.label
    if state.clasp_count(act.id, inact.id):
        raise MoveError("split configuration needs a pair with no mutual clasp")
    t_act = set(state.linked_ids(act.id))
    t_in = set(state.linked_ids(inact.id))
    if t_act & t_in:
        raise MoveError(
            "a third circle links both members; split assignment ambiguous")
    sigma = dict(spec.sigma)
    for x, (s1, s2) in sigma.items():
        want = (1 if x in (t_act | t_in) else 0)
        if (s1 + s2) % 2 != want:
            raise MoveError(f"split assignment for {x!r} has wrong parity")
    schar = ctx.s_characteristic and ctx.dual_sphere is not None
    if spec.n % 2 and schar:
        raise MoveError("odd intersection count breaks dual-pair parity")
    nu = spec.nu or 0

    def route(x):
        s1, _ = sigma.get(x, (1, 0))
        return 0 if s1 else 1

    bld = _B(state)
    bld.remove_circle(act.id)
    bld.remove_circle(inact.id)
    O1, O1p, O2, O2p = state.fresh_ids(4, "w")
    bld.add_pair(O1, O1p, g)
    bld.add_pair(O2, O2p, g)
    outs_act, outs_in = (O1, O2), (O1p, O2p)
    t1 = u1 = 0
    for x in sorted(t_act):
        i = route(x)
        t1 += (i == 0)
        bld.link_with_clasp(outs_act[i], x)
    for x in sorted(t_in):
        i = route(x)
        u1 += (i == 0)
        bld.link_with_clasp(outs_in[i], x)
    if nu:
        bld.link_with_clasp(O1, O1p)
        bld.link_with_clasp(O2, O2p)
    tau = (t1 + u1) % 2
    if tau:
        bld.link_with_clasp(O1, O2)
    _add_belts(G, bld, state, (O1, O2), spec.n)
    return bld.state(), {"outputs": ((O1, O1p), (O2, O2p))}


def _whitney_merge(G, ctx, state, spec, cu, cv):
    u, v = cu.id, cv.id
    up, vp = state.circle(cu.partner), state.circle(cv.partner)
    same_role = cu.role == cv.role
    if spec.mode == "equal" and not same_role:
        raise MoveError("equal-labels pairing joins like roles")
    if spec.mode == "inverse" and same_role:
        raise MoveError("inverse-labels pairing joins opposite roles")
    ru, rv = state.read(G, u), state.read(G, v)
    if G.element_key(ru) != G.element_key(rv):
        raise MoveError("band-end labels incompatible")
    if spec.sigma:
        raise MoveError("split assignment is not consulted when merging")
    act1 = cu if cu.role == ACTIVE else up
    in1 = up if cu.role == ACTIVE else cu
    act2 = cv if cv.role == ACTIVE else vp
    in2 = vp if cv.role == ACTIVE else cv
    part = {u, up.id, v, vp.id}
    if len(part) != 4:
        raise MoveError("expected circles from two distinct pairs")
    nu_forced = (
        _row_sum_excluding(state, act1.id, part)
        + _row_sum_excluding(state, act2.id, part)
        + _row_sum_excluding(state, u, part)
        + _row_sum_excluding(state, v, part)
        + state.linking(act1.id, in1.id) + state.linking(act2.id, in2.id)
        + state.linking(act1.id, in2.id) + state.linking(in1.id, act2.id)
    ) % 2
    schar = ctx.s_characteristic and ctx.dual_sphere is not None
    nu = nu_forced if spec.nu is None else spec.nu
    if schar and nu != nu_forced:
        raise MoveError("mutual-linking bit inconsistent with dual-pair parity")
    row_c = {x for x in state.linked_ids(u) if x not in part}
    row_c ^= {x for x in state.linked_ids(v) if x not in part}
    row_cp = {x for x in state.linked_ids(up.id) if x not in part}
    row_cp ^= {x for x in state.linked_ids(vp.id) if x not in part}
    bld = _B(state)
    for cid in sorted(part):
        bld.remove_circle(cid)
    C, Cp = state.fresh_ids(2, "w")
    bld.add_pair(C, Cp, ru)
    for x in sorted(row_c):
        bld.link_with_clasp(C, x)
    for x in sorted(row_cp):
        bld.link_with_clasp(Cp, x)
    if nu:
        bld.link_with_clasp(C, Cp)
    # intersections with the surface leave split belt pairs here: both
    # strands through a belt end up on the same output circle
    _add_belts(G, bld, state, (), spec.n)
    return bld.state(), {"outputs": (C, Cp)}


def _whitney_move(G, ctx, state, spec):
    spec = _as_spec(spec)
    if spec.mode not in ("equal", "inverse"):
        raise MoveError(f"unknown pairing mode {spec.mode!r}")
    if spec.n < 0 or (spec.clean and spec.n):
        raise MoveError("a clean move has no interior intersections")
    ca, cb = state.circle(spec.a), state.circle(spec.b)
    if ca.kind == TYPE2 and cb.kind == TYPE2:
        if spec.mode != "equal":
            raise MoveError("type II circles pair with equal labels")
        if spec.sigma:
            raise MoveError("type II pairing takes no split assignment")
        if spec.n % 2:
            raise MoveError("odd intersection count breaks the twist readout")
        a, b = spec.a, spec.b
        if a == b:
            raise MoveError("expected two distinct type II circles")
        key = G.element_key(ca.label)
        if key != G.element_key(cb.label):
            raise MoveError("type II labels differ")
        if state.clasps_at(a) or state.clasps_at(b):
            raise MoveError("type II circles must be split before pairing")
        for c in state.type2_circles():
            if (c.id not in (a, b) and G.element_key(c.label) == key
                    and state.twist(a, c.id) != state.twist(b, c.id)):
                raise MoveError(
                    f"twist data with {c.id!r} differs between the two "
                    "circles; transport not modeled")
        t = state.twist(a, b)
        if spec.nu is not None and spec.nu != t:
            raise MoveError("mutual-linking bit must equal the recorded twist")
        bld = _B(state)
        bld.remove_circle(a)
        bld.remove_circle(b)
        O, Op = state.fresh_ids(2, "w")
        bld.add_pair(O, Op, ca.label)
        if t:
            bld.link_with_clasp(O, Op)
        _add_belts(G, bld, state, (O, Op), spec.n)
        return bld.state(), {"outputs": (O, Op)}
    if ca.kind != TYPE1 or cb.kind != TYPE1:
        raise MoveError("band ends must sit on circles of matching kind")
    if spec.a == spec.b:
        raise MoveError("both band ends on a single circle are not modeled")
    if cb.id == ca.partner:
        if spec.mode != "inverse":
            raise MoveError("a dual pair joins with inverse labels")
        act = ca if ca.role == ACTIVE else cb
        inact = cb if ca.role == ACTIVE else ca
        return _whitney_split(G, ctx, state, spec, act, inact)
    return _whitney_merge(G, ctx, state, spec, ca, cb)


def _whitney_pair_typeII(G, ctx, state, a, b):
    """`whitney_move`'s pairing of two type II circles, with no belts.  It
    calls the move function, not the registry entry, so a pairing is not
    also counted as a `whitney_move`."""
    if state.circle(a).kind != TYPE2 or state.circle(b).kind != TYPE2:
        raise MoveError("expected two type II circles")
    return _whitney_move(G, ctx, state, {"a": a, "b": b})


# -- ambient surgery -------------------------------------------------------

def _ambient_surgery(G, ctx, state, a):
    ca = state.circle(a)
    if ca.kind != TYPE1:
        raise MoveError("surgery applies to a type I dual pair")
    if ctx.dual_sphere is None:
        raise MoveError("surgery needs a dual sphere in the ambient context")
    dual = state.circle(ca.partner)
    if state.clasps_at(dual.id):
        raise MoveError(f"dual circle {dual.id!r} is not split")
    bld = _B(state)
    if ctx.dual_sphere == "unframed":
        linkers = state.linked_ids(a)
        if len(linkers) % 2:
            raise MoveError("twisted surgery needs an even number of linkers")
        for x, y in combinations(sorted(linkers), 2):
            bld.toggle_clasp(x, y)
    bld.remove_circle(a)
    bld.remove_circle(dual.id)
    return bld.state(), {"removed": (a, dual.id)}


# -- hopf-pair primitives --------------------------------------------------

def _split_hopf_pairs(state, a, b):
    """(active of a, inactive of a, active of b, inactive of b) for the
    type I pairs of ``a`` and ``b``: two distinct split Hopf pairs."""
    out = []
    for cid in (a, b):
        c = state.circle(cid)
        if c.kind != TYPE1:
            raise MoveError(f"{cid!r} is not a type I circle")
        act = c if c.role == ACTIVE else state.circle(c.partner)
        inact = state.circle(act.partner)
        # linked to each other, with every clasp at either circle a mutual one
        mutual = pkey(act.id, inact.id)
        if (not state.linking(act.id, inact.id)
                or any(k != mutual for x in mutual for k in state.clasps_at(x))):
            raise MoveError(f"pair of {cid!r} is not a split Hopf pair")
        out += [act, inact]
    if out[0].id == out[2].id:
        raise MoveError("expected two distinct pairs")
    return out


def _merge_hopf_pairs(G, ctx, state, a, b):
    act_a, in_a, act_b, in_b = _split_hopf_pairs(state, a, b)
    label = G.mul(act_b.label, act_a.label)
    bld = _B(state)
    for cid in (act_a.id, in_a.id, act_b.id, in_b.id):
        bld.remove_circle(cid)
    C, Cp = state.fresh_ids(2, "m")
    bld.add_pair(C, Cp, label)
    bld.link_with_clasp(C, Cp)
    return bld.state(), {"outputs": (C, Cp)}


def _remove_trivial_hopf_pairs(G, ctx, state, a, b):
    if ctx.dual_sphere is None:
        raise MoveError("removal needs a dual sphere in the ambient context")
    act_a, in_a, act_b, in_b = _split_hopf_pairs(state, a, b)
    ik = G.element_key(G.identity)
    if G.element_key(act_a.label) != ik or G.element_key(act_b.label) != ik:
        raise MoveError("both pairs must carry the identity label")
    bld = _B(state)
    for cid in (act_a.id, in_a.id, act_b.id, in_b.id):
        bld.remove_circle(cid)
    return bld.state(), {"removed": (act_a.id, in_a.id, act_b.id, in_b.id)}


# -- composites ------------------------------------------------------------

class _Runner:
    """Applies primitive steps sequentially, recording the expansion."""

    def __init__(self, G, ctx, state):
        self.G, self.ctx = G, ctx
        self.state = state
        self.steps = []

    def do(self, name, **params):
        self.state, info = _PRIMITIVES[name](self.G, self.ctx, self.state, **params)
        self.steps.append((name, dict(params)))
        return info


def _move_meridian(G, ctx, state, a, e):
    ca = state.circle(a)
    ce = state.circle(e)
    if ca.kind != TYPE1 or ce.kind != TYPE1:
        raise MoveError("both circles must be type I")
    if state.linked_ids(e) != [a]:
        raise MoveError(f"{e!r} is not a meridian of {a!r}")
    r = _Runner(G, ctx, state)
    r.do("clasp_finger", a=a, b=e)
    r.do("ambient_surgery", a=ce.partner)
    return r.state, {"steps": r.steps}


def _shorten_cycle(G, ctx, state, actives):
    """Merge the first two listed pairs of a cycle, where each listed entry
    links the next entry's dual.  Only the first two entries are read, and
    the primitives check their own preconditions, so a driver lists two;
    a recorded script that lists the whole cycle still replays.  An entry
    may have either role, as labels are read with ``state.read``;
    ``actives`` keeps its name so recorded scripts still decode."""
    if not isinstance(actives, (list, tuple)) or len(actives) < 2:
        raise MoveError("a cycle to shorten lists at least two circles")
    if ctx.dual_sphere != "unframed":
        raise MoveError("cycle shortening needs an unframed dual sphere")
    circles = [state.circle(x) for x in actives]
    for c in circles:
        if c.kind != TYPE1:
            raise MoveError(f"{c.id!r} is not a type I circle")
    if len({c.id for c in circles}) != len(circles):
        raise MoveError("cycle entries repeat a pair")
    for c, nxt in zip(circles, circles[1:]):
        if state.linking(c.id, nxt.partner) != 1:
            raise MoveError(f"{c.id!r} does not link the next dual circle")
    a1, a2 = circles[0], circles[1]
    g1, g2 = state.read(G, a1.id), state.read(G, a2.id)
    target = G.mul(g2, g1)
    r = _Runner(G, ctx, state)
    info = r.do("clasp_finger", a=a1.id, b=a2.partner)
    E, Ep = info["spawned"]
    r.do("ambient_surgery", a=a1.partner)
    r.do("ambient_surgery", a=a2.id)
    # the new pair reads g1*g2 at E; present it so the merged circle reads
    # g2*g1 whenever either presentation achieves that
    tk = G.element_key(target)
    e_read = G.mul(g1, g2)
    if tk != G.element_key(e_read) and tk == G.element_key(G.inv(e_read)):
        r.do("flip_activity", a=E)
    return r.state, {"steps": r.steps}


def _add_hopf_pair(G, ctx, state, g):
    g = G.check(g)
    if not _eps0(G, g):
        raise MoveError("element is homologically nontrivial mod 2")
    ik = G.element_key(G.identity)
    if G.element_key(g) == ik:
        word = [(None, 1), (None, 1)]
    else:
        word = [(i, e) for i, e in G.balanced_word(g)]
    r = _Runner(G, ctx, state)
    # insert one split pair per two word letters sharing a generator, then
    # split each into two Hopf pairs (Fig-19 style) and merge in word order
    pending = {}
    slot = [None] * len(word)
    for pos, (i, e) in enumerate(word):
        if i in pending and pending[i]:
            slot[pos] = pending[i].pop()
            continue
        gen = G.identity if i is None else G.check(G.generators[i])
        info = r.do("trivial_finger", g=gen)
        U, Up = info["spawned"]
        info = r.do("whitney_move",
                    spec={"a": U, "b": Up, "mode": "inverse", "nu": 1, "clean": True})
        (p1, _), (p2, _) = info["outputs"]
        slot[pos] = p1
        pending.setdefault(i, []).append(p2)
    for pos, (i, e) in enumerate(word):
        if e == -1:
            info = r.do("flip_activity", a=slot[pos])
            slot[pos] = info["active"]
    cur = slot[-1]
    for pos in range(len(word) - 2, -1, -1):
        info = r.do("merge_hopf_pairs", a=cur, b=slot[pos])
        cur = info["outputs"][0]
    return r.state, {"steps": r.steps, "active": cur}


# -- records, registry, scripts --------------------------------------------

class MoveRecord:
    """One applied move: its name, its encoded params, the primitive steps
    of a composite, and the hashes of its pre- and post-state.

    The hashes are computed when first read.  Until then the record keeps
    the group and both states; from then on it keeps the two digests only.
    """

    __slots__ = ("move", "params", "steps", "_hashes")

    def __init__(self, G, move, params, pre, post, steps=()):
        self.move, self.params, self.steps = move, params, steps
        self._hashes = (G, pre, post)

    def hashes(self):
        """(pre_hash, post_hash), computed on the first call."""
        if len(self._hashes) == 3:
            G, pre, post = self._hashes
            self._hashes = (state_hash(G, pre), state_hash(G, post))
        return self._hashes

    @property
    def pre_hash(self) -> str:
        return self.hashes()[0]

    @property
    def post_hash(self) -> str:
        return self.hashes()[1]


_PRIMITIVES = {
    "clasp_finger": _clasp_finger,
    "finger_move": _finger_move,
    "trivial_finger": _trivial_finger,
    "introduce_type_II": _introduce_type_II,
    "flip_activity": _flip_activity,
    "whitney_move": _whitney_move,
    "whitney_pair_typeII": _whitney_pair_typeII,
    "ambient_surgery": _ambient_surgery,
    "merge_hopf_pairs": _merge_hopf_pairs,
    "remove_trivial_hopf_pairs": _remove_trivial_hopf_pairs,
}

_COMPOSITES = {
    "move_meridian": _move_meridian,
    "shorten_cycle": _shorten_cycle,
    "add_hopf_pair": _add_hopf_pair,
}

MOVES = {**_PRIMITIVES, **_COMPOSITES}

# parameter names of each move, after (G, ctx, state)
_PARAMS = {name: frozenset(list(inspect.signature(fn).parameters)[3:])
           for name, fn in MOVES.items()}

_ELEMENT_PARAMS = {"trivial_finger": ("g",), "add_hopf_pair": ("g",)}


def encode_params(G, move, params):
    out = {}
    for k, v in params.items():
        if k in _ELEMENT_PARAMS.get(move, ()):
            v = G_.element_to_json(G, v)
        elif k == "spec" and isinstance(v, WhitneySpec):
            v = {**vars(v), "sigma": list(map(list, dict(v.sigma).items()))}
        out[k] = v
    return out


def decode_params(G, move, params):
    """The params of a script entry as the move takes them; a malformed
    entry raises MoveError or GroupError."""
    if not isinstance(move, str) or move not in MOVES:
        raise MoveError(f"unknown move {move!r}")
    if not isinstance(params, dict) or params.keys() != _PARAMS[move]:
        raise MoveError(
            f"expected parameters {sorted(_PARAMS[move])}, got {params!r}")
    out = dict(params)
    for k in _ELEMENT_PARAMS.get(move, ()):
        out[k] = G_.element_from_json(G, out[k])
    return out


class Recorder:
    """Applies registry moves to a current state and records each one.

    Each move first resolves the record before it, so a trace holds on to
    the states of its last record only.  As a state keeps its digest, the
    pre-hash of a record costs nothing once the record before it is
    resolved, and every state is hashed once; as a hashed state also keeps
    its texts, and passes them to the states built from it, hashing a
    post-state encodes only what the move added.
    """

    def __init__(self, G, ctx, state, trace=None):
        self.G, self.ctx = G, ctx
        self.state = state
        self.trace = [] if trace is None else trace

    def do(self, move, **params):
        """Apply one named move, record it, and return the move's info."""
        if move not in MOVES:
            raise MoveError(f"unknown move {move!r}")
        if self.trace:
            self.trace[-1].hashes()
        post, info = MOVES[move](self.G, self.ctx, self.state, **params)
        self.trace.append(MoveRecord(
            self.G, move, encode_params(self.G, move, params), self.state, post,
            tuple((n, encode_params(self.G, n, p))
                  for n, p in info.get("steps", ()))))
        self.state = post
        return info


def apply_move(G, ctx, state, move, params):
    """Apply one named move; returns (post state, record)."""
    r = Recorder(G, ctx, state)
    r.do(move, **params)
    return r.state, r.trace[0]


def apply_script(G, ctx, state, script):
    """Run a script (list of {move, params} entries or MoveRecords).

    Fails atomically at the first violated precondition: the exception
    reports the step index and the caller keeps the input state.  Each
    recorded pre- and post-hash is checked, and each state is hashed once.
    """
    r = Recorder(G, ctx, state)
    for i, entry in enumerate(script):
        if isinstance(entry, MoveRecord):
            entry = {"move": entry.move, "params": entry.params,
                     "pre_hash": entry.pre_hash, "post_hash": entry.post_hash}
        move = entry.get("move") if isinstance(entry, dict) else None
        try:
            if not isinstance(entry, dict):
                raise MoveError(f"not a move entry: {entry!r}")
            params = decode_params(G, move, entry.get("params", {}))
            want_pre = entry.get("pre_hash")
            if want_pre and want_pre != state_hash(G, r.state):
                raise MoveError("pre-state hash mismatch")
            r.do(move, **params)
            want_post = entry.get("post_hash")
            if want_post and want_post != r.trace[-1].post_hash:
                raise MoveError("post-state hash mismatch")
        except (MoveError, StateError, G_.GroupError) as err:
            raise ScriptError(i, move, str(err)) from err
    return r.state, r.trace
