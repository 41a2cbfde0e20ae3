"""Simplification pipelines and the concordance decision procedure.

Everything here is driven through the move registry, so every pipeline
returns a replayable trace of precondition-checked moves; no step edits
the state by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations

import numpy as np

from .invariants import QuotientClass, delta, fq, km, mu, normalize_dual
from .moves import MoveError, Recorder
from .state import ACTIVE, TYPE1, Context, LinkState, StateError


class SimplifyError(ValueError):
    pass


# -- type II elimination ----------------------------------------------------

def _pair_off(P, ids):
    """Cancel the same-label circles ``ids``, each time by the first pair
    the move accepts; False when none is accepted before all are gone."""
    # two such circles pair exactly when their twists with every other one
    # agree: an equivalence that survives the removal of circles, so
    # cancelling an accepted pair never rules out a pairing of the rest
    ids = list(ids)
    while ids:
        for a, b in combinations(ids, 2):
            try:
                P.do("whitney_pair_typeII", a=a, b=b)
            except MoveError:
                continue
            ids.remove(a)
            ids.remove(b)
            break
        else:
            return False
    return True


def eliminate_type_II(G, ctx, state):
    """Cancel all type II circles in pairs; needs mu = 0 on the nose.

    Returns (state, trace).  Type II circles must already be split: the
    crossing-change moves cannot separate a circle from its own meridians,
    since a type II circle is its own dual.
    """
    if np.any(mu(G, state)):
        raise SimplifyError("mu is nonzero: the type II circles cannot all cancel")
    for c in state.type2_circles():
        if state.clasps_at(c.id):
            raise SimplifyError(
                f"type II circle {c.id!r} is linked; only split type II "
                "circles can be cancelled")
    P = Recorder(G, ctx, state)
    groups = {}
    for c in state.type2_circles():
        groups.setdefault(G.element_key(c.label), []).append(c.id)
    ik = G.element_key(G.identity)
    if len(groups.get(ik, [])) % 2:
        info = P.do("introduce_type_II")
        groups[ik].append(info["spawned"][0])
    for key in sorted(groups):
        if not _pair_off(P, sorted(groups[key])):
            raise SimplifyError(
                "twist data admits no cancelling pairing of the type II "
                f"circles with label key {key!r}")
    return P.state, P.trace


# -- reduction to a single hopf pair ---------------------------------------

def _walk(state, start):
    """The cycle through ``start``: each entry links the next one's partner."""
    walk, cur = [], start
    while True:
        walk.append(cur)
        cur = state.circle(state.linked_ids(cur)[0]).partner
        if cur == start:
            return walk


def reduce_to_hopf(G, ctx, state):
    """Drive a type-I-only state to a single split Hopf pair.

    Returns (state, trace, label) where label is the group element carried
    by the final pair; its mod-2 homology class equals delta of the input.
    """
    if ctx.dual_sphere is None or not ctx.s_characteristic:
        raise SimplifyError("the reduction needs an s-characteristic sphere "
                            "with a dual")
    ctx = normalize_dual(ctx)
    if state.type2_circles():
        raise SimplifyError("type II circles present; cancel them first")
    P = Recorder(G, ctx, state)

    # 1: unless the clasps already match the circles in pairs (each circle
    # in exactly one clasp, of two distinct circles), resolve every clasp
    # of the input, in sorted order; each resolution trades it for a
    # meridian pair on the duals, whose clasps join a fresh circle.  A
    # matched state is what stage 2 would leave, and resolving its clasps
    # would only double its cycles
    ends = [x for k in state.clasps for x in k]
    if not len(ends) == len(set(ends)) == len(state.circles):
        for a, b in state.clasps:
            P.do("clasp_finger", a=a, b=b)

    # 2: per pair, balance meridian counts across the two sides, split down
    # to one meridian per side, and surger away meridian-free pairs
    while True:
        for act, inact in P.state.pairs():
            ma, mi = P.state.linked_ids(act.id), P.state.linked_ids(inact.id)
            if not ma and not mi:
                P.do("ambient_surgery", a=act.id)
            elif len(ma) > len(mi):
                P.do("move_meridian", a=act.id, e=ma[0])
            elif len(mi) > len(ma):
                P.do("move_meridian", a=inact.id, e=mi[0])
            elif len(ma) > 1:
                P.do("whitney_move", spec={
                    "a": act.id, "b": inact.id, "mode": "inverse",
                    "sigma": ((ma[0], (0, 1)), (mi[0], (0, 1))),
                    "nu": 0, "clean": True, "n": 0})
            else:
                continue
            break
        else:
            break

    # 3: the linking relation is now a perfect matching; shorten each cycle
    # of (link, duality) edges until only length-1 cycles (split Hopf
    # pairs) remain.  Entries of either role shorten alike, so each step is
    # one move naming two entries, and the trace stays linear in the cycle
    # length.  Each step starts at the smallest active id of a pair that is
    # not split, popped from a heap: a shortening changes no pair but the
    # one it outputs, whose active id it pushes, and a popped id is checked
    # again, as the ids of merged pairs are reused
    heap = [act.id for act, _ in P.state.pairs()]      # sorted, so a heap
    while heap:
        a = heappop(heap)
        try:
            c = P.state.circle(a)
        except StateError:
            continue
        nxt = P.state.linked_ids(a)[0]
        if c.role == ACTIVE and nxt != c.partner:
            info = P.do("shorten_cycle",
                        actives=[a, P.state.circle(nxt).partner])
            heappush(heap, info["active"])

    # 4: merge the split Hopf pairs into one
    if not P.state.pairs():
        info = P.do("trivial_finger", g=G.identity)
        U, Up = info["spawned"]
        P.do("whitney_move", spec={"a": U, "b": Up, "mode": "inverse",
                                   "nu": 1, "clean": True, "n": 0})
    actives = [act.id for act, _ in P.state.pairs()]
    cur = actives[0]
    for nxt in actives[1:]:
        info = P.do("merge_hopf_pairs", a=cur, b=nxt)
        cur = info["outputs"][0]
    label = P.state.read(G, cur)
    return P.state, P.trace, label


# -- exact cycle reduction --------------------------------------------------
#
# one shortening merges two neighbouring entries of the cycle, and the merged
# entry reads the inverse of their product.  So a run of shortenings
# brackets the cycle, read from some entry, with x, y -> (xy)^-1; R[i, n]
# holds every element that the arc of n entries from entry i merges to.
# The last pair reaches its entry's element and, by a flip, the inverse.
# Walking the cycle the other way round (through the partners, reading
# inverse labels) reaches nothing more, so one walk from any circle serves

def reduce_cycle_to_label(G, ctx, state, target):
    """Shorten the state's single cycle of Hopf links all the way down,
    bracketing it so the final pair carries exactly ``target``; a state
    that is not one such cycle raises SimplifyError."""
    cs = state.circles
    if (not cs or any(c.kind != TYPE1 or len(state.linked_ids(c.id)) != 1
                      for c in cs)
            or 2 * len(entry := _walk(state, cs[0].id)) != len(cs)):
        raise SimplifyError("the state is not one cycle of type I pairs, "
                            "each circle linking exactly one other")
    target = G.check(target)
    m = len(entry)
    # R[i, n] keys checked elements, so an unreduced label meets its normal
    # form; each maps to a split (k, x, y): the arc's first k entries merge
    # to x and the other n - k to y
    R = {(i, 1): {G.check(state.read(G, x)): None} for i, x in enumerate(entry)}
    for n in range(2, m + 1):
        for i in range(m):
            out = R[i, n] = {}
            for k in range(1, n):
                right = R[(i + k) % m, n - k]
                for x in R[i, k]:
                    for y in right:
                        out.setdefault(G.inv(G.mul(x, y)), (k, x, y))
    todo = [(i, m, g) for i in range(m) for g in (target, G.inv(target))
            if g in R[i, m]][:1]
    if not todo:
        raise SimplifyError("target label is not realizable from this cycle")
    # the merges root first, each before its right then its left arc; so
    # reversed, every merge follows the merges inside its two arcs
    merges = []
    while todo:
        i, n, g = todo.pop()
        if split := R[i, n][g]:
            k, x, y = split
            merges.append((i, k, n))
            todo += [(i, k, x), ((i + k) % m, n - k, y)]
    P = Recorder(G, ctx, state)
    for i, k, n in reversed(merges):
        P.do("shorten_cycle", actives=[entry[i], entry[(i + k) % m]])
        if n < m:
            # the merged entry is the one circle linking the next dual
            nxt = P.state.circle(entry[(i + n) % m]).partner
            entry[i] = P.state.linked_ids(nxt)[0]
    act = P.state.pairs()[0][0]
    tk = G.element_key(target)
    if G.element_key(act.label) != tk:
        if G.element_key(G.inv(act.label)) != tk:
            raise SimplifyError("cycle reduction missed the target label")
        P.do("flip_activity", a=act.id)
    return P.state, P.trace


# -- decision procedure -----------------------------------------------------

@dataclass
class Verdict:
    outcome: str                         # Concordant | Obstructed-fq |
                                         # Obstructed-km | Inconclusive
    reason: str = ""
    witness: QuotientClass | None = None
    trace: list = field(default_factory=list)
    final_state: LinkState | None = None


def _eliminate_clasps_framed(P):
    """Remove every clasp using a framed dual: two finger moves park the
    intersections on a fresh meridian pair, two surgeries delete it.

    No modeled crossing change touches a type II circle whose label is
    homologically nontrivial (`moves._type2_guard`), so a clasp at one
    raises SimplifyError, before any move."""
    for c in P.state.type2_circles():
        if P.state.clasps_at(c.id) and np.any(P.G.eps(c.label)):
            raise SimplifyError(
                f"type II circle {c.id!r} is clasped and its label is "
                "homologically nontrivial; no modeled move splits it")
    while P.state.clasps:
        a, b = P.state.clasps[0]
        info = P.do("clasp_finger", a=a, b=b)
        E, Ep = info["spawned"]
        # a type II circle is its own partner
        info = P.do("clasp_finger", a=E, b=P.state.circle(a).partner)
        F, Fp = info["spawned"]
        P.do("ambient_surgery", a=Ep)
        P.do("ambient_surgery", a=Fp)


def _joined(trace, more):
    """``trace`` followed by ``more``.  The last record of ``trace`` is
    hashed and drops its states, as a record does in a `Recorder` once the
    next one is appended."""
    if trace and more:
        trace[-1].hashes()
    return trace + more


def decide(G, ctx: Context, state: LinkState) -> Verdict:
    if ctx.dual_sphere is None:
        raise SimplifyError("the decision procedure needs a dual sphere")
    ctx = normalize_dual(ctx)
    fqc = fq(G, ctx, state)
    if np.any(mu(G, state)):
        if not fqc.is_zero:
            return Verdict("Obstructed-fq", witness=fqc,
                           reason="fq is nonzero", final_state=state)
        return Verdict("Inconclusive", witness=fqc, final_state=state,
                       reason="mu vanishes only in the declared quotient; "
                              "no cancelling scheme is modeled")

    if not ctx.s_characteristic:
        # split everything first: the framed clasp loop also works on
        # identity-labeled type II circles, which the cancelling step needs
        # split
        P = Recorder(G, ctx, state)
        _eliminate_clasps_framed(P)
        st, tr2 = eliminate_type_II(G, ctx, P.state)
        P = Recorder(G, ctx, st, _joined(P.trace, tr2))
        _eliminate_clasps_framed(P)
        while P.state.pairs():
            P.do("ambient_surgery", a=P.state.pairs()[0][0].id)
        return Verdict("Concordant", trace=P.trace, final_state=P.state,
                       reason="unknotted after clasp elimination")

    try:
        st, trace = eliminate_type_II(G, ctx, state)
    except SimplifyError:
        # an obstruction needs no proof: km is read off the input, so a
        # state no modeled move simplifies is still obstructed when km is
        kmc = km(G, ctx, state)
        if kmc.is_zero:
            raise
        return Verdict("Obstructed-km", witness=kmc, final_state=state,
                       reason="km is nonzero")
    st, tr2, label = reduce_to_hopf(G, ctx, st)
    trace = _joined(trace, tr2)
    if not np.any(G.eps(label)):
        P = Recorder(G, ctx, st, trace)
        pair = P.state.pairs()[0][0].id
        info = P.do("add_hopf_pair", g=G.inv(label))
        info = P.do("merge_hopf_pairs", a=pair, b=info["active"])
        c1 = info["outputs"][0]
        info = P.do("add_hopf_pair", g=G.identity)
        P.do("remove_trivial_hopf_pairs", a=c1, b=info["active"])
        return Verdict("Concordant", trace=P.trace, final_state=P.state,
                       reason="reduced to a nullconcordant hopf pair")
    kmc = km(G, ctx, state)
    if not kmc.is_zero:
        return Verdict("Obstructed-km", witness=kmc, trace=trace,
                       final_state=st, reason="km is nonzero")
    return Verdict("Inconclusive", witness=kmc, trace=trace, final_state=st,
                   reason="the residual class vanishes only modulo the "
                          "declared self-concordance subspace")
