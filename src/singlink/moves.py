"""Move calculus: precondition-checked rewrites on link states.

A move function edits a `Draft` of the state and returns the move's info.
Primitive moves edit the decorated data directly; a composite move runs
its primitives, in order, on its one draft, so its label and linking
effects can never drift from the primitive rules.  A registry entry
freezes the draft once, into the post-state.  Every move carries
``homology_tag`` through unchanged and preserves the mod-2 invariants
(checked by the property suite, not re-derived here).
"""

from __future__ import annotations

import functools
import inspect
import operator
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from . import groups as G_
from .state import (
    ACTIVE, INACTIVE, TYPE1, TYPE2,
    Circle, Draft, StateError, pkey, state_hash,
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


def _type2_guard(G, d, a: str, b: str):
    """Crossing-change moves may touch type II circles only when the twist
    data provably cannot drift (tw transport is not modeled in general)."""
    ca, cb = d.circle(a), d.circle(b)
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

def _cross(G, ctx, d, a, b, remove_clasp):
    ca, cb = d.circle(a), d.circle(b)
    _type2_guard(G, d, a, b)
    n = d.clasp_count(a, b)
    if remove_clasp and n == 0:
        raise MoveError(f"no clasp between {a!r} and {b!r}")
    e = G.mul(d.read(G, a), G.inv(d.read(G, b)))
    E, Ep = d.fresh_ids(2, "e")
    d.set_clasp_count(a, b, n - 1 if remove_clasp else n + 1)
    d.add_pair(E, Ep, e)
    # a type II circle is its own partner
    d.add_clasp(E, ca.partner)
    d.add_clasp(Ep, cb.partner)
    return {"spawned": (E, Ep)}


def _clasp_finger(G, ctx, d, a, b):
    return _cross(G, ctx, d, a, b, remove_clasp=True)


def _finger_move(G, ctx, d, a, b):
    return _cross(G, ctx, d, a, b, remove_clasp=False)


def _trivial_finger(G, ctx, d, g):
    g = G.check(g)
    A, Ap = d.fresh_ids(2, "u")
    d.add_pair(A, Ap, g)
    return {"spawned": (A, Ap)}


def _introduce_type_II(G, ctx, d):
    cid = d.fresh_ids(1, "t")[0]
    ik = G.element_key(G.identity)
    # listed before the new circle is added, which needs no entry with itself
    others = [c.id for c in d.type2_circles()
              if c.label is not None and G.element_key(c.label) == ik]
    d.add_circle(Circle(cid, TYPE2, cid, None, G.identity))
    for x in others:
        d.add_twist(cid, x, 0)
    return {"spawned": (cid,)}


def _flip_activity(G, ctx, d, a):
    """Swap the active/inactive roles in the type I pair of ``a``,
    inverting the label; linking, clasps and twists do not see roles."""
    c = d.circle(a)
    if c.kind != TYPE1:
        raise MoveError(f"{a!r} is not a type I circle")
    act = c if c.role == ACTIVE else d.circle(c.partner)
    if act.kind != TYPE1 or act.role != ACTIVE:
        raise StateError(f"{act.id!r} is not an active type I circle")
    inact = d.circle(act.partner)
    d.replace_circle(replace(act, role=INACTIVE, label=None))
    d.replace_circle(replace(inact, role=ACTIVE, label=G.inv(act.label)))
    return {"active": inact.id}


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


def _add_belts(G, d, targets, n):
    ids = d.fresh_ids(2 * n, "belt")
    for j in range(n):
        B, Bp = ids[2 * j], ids[2 * j + 1]
        d.add_pair(B, Bp, G.identity)
        for t in targets:
            d.add_clasp(B, t)


def _row_sum_excluding(d, cid, excluded):
    return sum(1 for x in d.linked_ids(cid) if x not in excluded) % 2


# A primitive's fresh ids are the smallest free ones before its removals:
# a primitive that removes circles removes them last.

def _whitney_split(G, ctx, d, spec, act, inact):
    g = act.label
    if d.clasp_count(act.id, inact.id):
        raise MoveError("split configuration needs a pair with no mutual clasp")
    t_act = set(d.linked_ids(act.id))
    t_in = set(d.linked_ids(inact.id))
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

    O1, O1p, O2, O2p = d.fresh_ids(4, "w")
    d.add_pair(O1, O1p, g)
    d.add_pair(O2, O2p, g)
    outs_act, outs_in = (O1, O2), (O1p, O2p)
    t1 = u1 = 0
    for x in sorted(t_act):
        i = route(x)
        t1 += (i == 0)
        d.add_clasp(outs_act[i], x)
    for x in sorted(t_in):
        i = route(x)
        u1 += (i == 0)
        d.add_clasp(outs_in[i], x)
    if nu:
        d.add_clasp(O1, O1p)
        d.add_clasp(O2, O2p)
    tau = (t1 + u1) % 2
    if tau:
        d.add_clasp(O1, O2)
    _add_belts(G, d, (O1, O2), spec.n)
    d.remove_circle(act.id)
    d.remove_circle(inact.id)
    return {"outputs": ((O1, O1p), (O2, O2p))}


def _whitney_merge(G, ctx, d, spec, cu, cv):
    u, v = cu.id, cv.id
    up, vp = d.circle(cu.partner), d.circle(cv.partner)
    same_role = cu.role == cv.role
    if spec.mode == "equal" and not same_role:
        raise MoveError("equal-labels pairing joins like roles")
    if spec.mode == "inverse" and same_role:
        raise MoveError("inverse-labels pairing joins opposite roles")
    ru, rv = d.read(G, u), d.read(G, v)
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
        _row_sum_excluding(d, act1.id, part)
        + _row_sum_excluding(d, act2.id, part)
        + _row_sum_excluding(d, u, part)
        + _row_sum_excluding(d, v, part)
        + d.linking(act1.id, in1.id) + d.linking(act2.id, in2.id)
        + d.linking(act1.id, in2.id) + d.linking(in1.id, act2.id)
    ) % 2
    schar = ctx.s_characteristic and ctx.dual_sphere is not None
    nu = nu_forced if spec.nu is None else spec.nu
    if schar and nu != nu_forced:
        raise MoveError("mutual-linking bit inconsistent with dual-pair parity")
    row_c = {x for x in d.linked_ids(u) if x not in part}
    row_c ^= {x for x in d.linked_ids(v) if x not in part}
    row_cp = {x for x in d.linked_ids(up.id) if x not in part}
    row_cp ^= {x for x in d.linked_ids(vp.id) if x not in part}
    C, Cp = d.fresh_ids(2, "w")
    d.add_pair(C, Cp, ru)
    for x in sorted(row_c):
        d.add_clasp(C, x)
    for x in sorted(row_cp):
        d.add_clasp(Cp, x)
    if nu:
        d.add_clasp(C, Cp)
    # intersections with the surface leave split belt pairs here: both
    # strands through a belt end up on the same output circle
    _add_belts(G, d, (), spec.n)
    for cid in sorted(part):
        d.remove_circle(cid)
    return {"outputs": (C, Cp)}


def _whitney_move(G, ctx, d, spec):
    spec = _as_spec(spec)
    if spec.mode not in ("equal", "inverse"):
        raise MoveError(f"unknown pairing mode {spec.mode!r}")
    if spec.n < 0 or (spec.clean and spec.n):
        raise MoveError("a clean move has no interior intersections")
    ca, cb = d.circle(spec.a), d.circle(spec.b)
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
        if d.clasps_at(a) or d.clasps_at(b):
            raise MoveError("type II circles must be split before pairing")
        for c in d.type2_circles():
            if (c.id not in (a, b) and G.element_key(c.label) == key
                    and d.twist(a, c.id) != d.twist(b, c.id)):
                raise MoveError(
                    f"twist data with {c.id!r} differs between the two "
                    "circles; transport not modeled")
        t = d.twist(a, b)
        if spec.nu is not None and spec.nu != t:
            raise MoveError("mutual-linking bit must equal the recorded twist")
        O, Op = d.fresh_ids(2, "w")
        d.add_pair(O, Op, ca.label)
        if t:
            d.add_clasp(O, Op)
        _add_belts(G, d, (O, Op), spec.n)
        d.remove_circle(a)
        d.remove_circle(b)
        return {"outputs": (O, Op)}
    if ca.kind != TYPE1 or cb.kind != TYPE1:
        raise MoveError("band ends must sit on circles of matching kind")
    if spec.a == spec.b:
        raise MoveError("both band ends on a single circle are not modeled")
    if cb.id == ca.partner:
        if spec.mode != "inverse":
            raise MoveError("a dual pair joins with inverse labels")
        act = ca if ca.role == ACTIVE else cb
        inact = cb if ca.role == ACTIVE else ca
        return _whitney_split(G, ctx, d, spec, act, inact)
    return _whitney_merge(G, ctx, d, spec, ca, cb)


def _whitney_pair_typeII(G, ctx, d, a, b):
    """`whitney_move`'s pairing of two type II circles, with no belts.  It
    calls the move function, not the registry entry, so a pairing is not
    also counted as a `whitney_move`."""
    if d.circle(a).kind != TYPE2 or d.circle(b).kind != TYPE2:
        raise MoveError("expected two type II circles")
    return _whitney_move(G, ctx, d, {"a": a, "b": b})


# -- ambient surgery -------------------------------------------------------

def _ambient_surgery(G, ctx, d, a):
    ca = d.circle(a)
    if ca.kind != TYPE1:
        raise MoveError("surgery applies to a type I dual pair")
    if ctx.dual_sphere is None:
        raise MoveError("surgery needs a dual sphere in the ambient context")
    dual = d.circle(ca.partner)
    if d.clasps_at(dual.id):
        raise MoveError(f"dual circle {dual.id!r} is not split")
    if ctx.dual_sphere == "unframed":
        linkers = d.linked_ids(a)
        if len(linkers) % 2:
            raise MoveError("twisted surgery needs an even number of linkers")
        for x, y in combinations(linkers, 2):
            n = d.clasp_count(x, y)
            d.set_clasp_count(x, y, n - 1 if n else 1)
    d.remove_circle(a)
    d.remove_circle(dual.id)
    return {"removed": (a, dual.id)}


# -- hopf-pair primitives --------------------------------------------------

def _split_hopf_pairs(d, a, b):
    """(active of a, inactive of a, active of b, inactive of b) for the
    type I pairs of ``a`` and ``b``: two distinct split Hopf pairs."""
    out = []
    for cid in (a, b):
        c = d.circle(cid)
        if c.kind != TYPE1:
            raise MoveError(f"{cid!r} is not a type I circle")
        act = c if c.role == ACTIVE else d.circle(c.partner)
        inact = d.circle(act.partner)
        # linked to each other, with every clasp at either circle a mutual one
        mutual = pkey(act.id, inact.id)
        if (not d.linking(act.id, inact.id)
                or any(k != mutual for x in mutual for k in d.clasps_at(x))):
            raise MoveError(f"pair of {cid!r} is not a split Hopf pair")
        out += [act, inact]
    if out[0].id == out[2].id:
        raise MoveError("expected two distinct pairs")
    return out


def _merge_hopf_pairs(G, ctx, d, a, b):
    act_a, in_a, act_b, in_b = _split_hopf_pairs(d, a, b)
    label = G.mul(act_b.label, act_a.label)
    C, Cp = d.fresh_ids(2, "m")
    d.add_pair(C, Cp, label)
    d.add_clasp(C, Cp)
    for cid in (act_a.id, in_a.id, act_b.id, in_b.id):
        d.remove_circle(cid)
    return {"outputs": (C, Cp)}


def _remove_trivial_hopf_pairs(G, ctx, d, a, b):
    if ctx.dual_sphere is None:
        raise MoveError("removal needs a dual sphere in the ambient context")
    act_a, in_a, act_b, in_b = _split_hopf_pairs(d, a, b)
    ik = G.element_key(G.identity)
    if G.element_key(act_a.label) != ik or G.element_key(act_b.label) != ik:
        raise MoveError("both pairs must carry the identity label")
    for cid in (act_a.id, in_a.id, act_b.id, in_b.id):
        d.remove_circle(cid)
    return {"removed": (act_a.id, in_a.id, act_b.id, in_b.id)}


# -- composites ------------------------------------------------------------

class _Runner:
    """Runs a composite's primitive steps, in order, on the composite's
    draft, recording the expansion."""

    def __init__(self, G, ctx, d):
        self.G, self.ctx, self.d, self.steps = G, ctx, d, []

    def do(self, name, **params):
        info = _STEPS[name](self.G, self.ctx, self.d, **params)
        self.steps.append((name, dict(params)))
        return info


def _move_meridian(G, ctx, d, a, e):
    ca, ce = d.circle(a), d.circle(e)
    if ca.kind != TYPE1 or ce.kind != TYPE1:
        raise MoveError("both circles must be type I")
    if d.linked_ids(e) != [a]:
        raise MoveError(f"{e!r} is not a meridian of {a!r}")
    r = _Runner(G, ctx, d)
    r.do("clasp_finger", a=a, b=e)
    r.do("ambient_surgery", a=ce.partner)
    return {"steps": r.steps}


def _shorten_cycle(G, ctx, d, actives):
    """Merge the first two listed pairs of a cycle, where each listed entry
    links the next entry's dual.  Only the first two entries are read, and
    the primitives check their own preconditions, so a driver lists two;
    a recorded script that lists the whole cycle still replays.  An entry
    may have either role, as labels are read with ``read``;
    ``actives`` keeps its name so recorded scripts still decode.  The info
    names the active circle of the merged pair."""
    if not isinstance(actives, (list, tuple)) or len(actives) < 2:
        raise MoveError("a cycle to shorten lists at least two circles")
    if ctx.dual_sphere != "unframed":
        raise MoveError("cycle shortening needs an unframed dual sphere")
    circles = [d.circle(x) for x in actives]
    for c in circles:
        if c.kind != TYPE1:
            raise MoveError(f"{c.id!r} is not a type I circle")
    if len({c.id for c in circles}) != len(circles):
        raise MoveError("cycle entries repeat a pair")
    for c, nxt in zip(circles, circles[1:]):
        if d.linking(c.id, nxt.partner) != 1:
            raise MoveError(f"{c.id!r} does not link the next dual circle")
    a1, a2 = circles[0], circles[1]
    g1, g2 = d.read(G, a1.id), d.read(G, a2.id)
    target = G.mul(g2, g1)
    r = _Runner(G, ctx, d)
    info = r.do("clasp_finger", a=a1.id, b=a2.partner)
    E, Ep = info["spawned"]
    r.do("ambient_surgery", a=a1.partner)
    r.do("ambient_surgery", a=a2.id)
    # the new pair reads g1*g2 at E; present it so the merged circle reads
    # g2*g1 whenever either presentation achieves that
    tk = G.element_key(target)
    e_read = G.mul(g1, g2)
    active = E
    if tk != G.element_key(e_read) and tk == G.element_key(G.inv(e_read)):
        active = r.do("flip_activity", a=E)["active"]
    return {"steps": r.steps, "active": active}


def _add_hopf_pair(G, ctx, d, g):
    g = G.check(g)
    if not _eps0(G, g):
        raise MoveError("element is homologically nontrivial mod 2")
    r = _Runner(G, ctx, d)
    # g = y_1^2 ... y_m^2: split a trivial pair labelled y_i into two Hopf
    # pairs (Fig-19 style) for each root, then merge them last first
    pairs = []
    for y in G.square_roots(g):
        U, Up = r.do("trivial_finger", g=y)["spawned"]
        info = r.do("whitney_move",
                    spec={"a": U, "b": Up, "mode": "inverse", "nu": 1, "clean": True})
        pairs += [p for p, _ in info["outputs"]]
    cur = pairs.pop()
    while pairs:
        cur = r.do("merge_hopf_pairs", a=cur, b=pairs.pop())["outputs"][0]
    return {"steps": r.steps, "active": cur}


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


def _registered(edit):
    """The registry entry of the move function ``edit``: ``(G, ctx, state,
    **params) -> (post, info)``, with ``post`` frozen from one draft of
    ``state``."""
    @functools.wraps(edit)
    def move(G, ctx, state, **params):
        d = Draft(state)
        info = edit(G, ctx, d, **params)
        return d.freeze(), info
    return move


# the move functions of the primitives, which a composite runs on its draft
_STEPS = {
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

_PRIMITIVES = {name: _registered(fn) for name, fn in _STEPS.items()}

_COMPOSITES = {"move_meridian": _registered(_move_meridian),
               "shorten_cycle": _registered(_shorten_cycle),
               "add_hopf_pair": _registered(_add_hopf_pair)}

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
