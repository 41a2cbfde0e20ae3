import hashlib
import json
import random
import types

import numpy as np
import pytest

from singlink import state as state_mod
from singlink.groups import AbelianGroup, FiniteGroup
from singlink.invariants import delta, mu
from singlink.moves import MOVES, MoveError, apply_move, decode_params
from singlink.randwalk import CONTEXTS, _parity_ok, standard_groups, walk
from singlink.simplify import _walk, decide
from singlink.state import (
    ACTIVE, INACTIVE, TYPE1, TYPE2,
    Circle, Context, Draft, LinkState, StateError, pkey,
    state_from_json, state_hash, state_to_json, validate,
)

from test_simplify import Q8, SCHAR, cycle_state, cyclic_table

Z = AbelianGroup(1)
CTX = Context()


def pair(cid, label=(0,)):
    return [Circle(cid, TYPE1, cid + "p", ACTIVE, label),
            Circle(cid + "p", TYPE1, cid, INACTIVE)]


def hopf(label=(1,)):
    return LinkState(circles=tuple(pair("h", label)),
                     clasps=(("h", "hp"),))


def test_valid_hopf():
    assert validate(Z, CTX, hopf()).ok


def test_broken_duality():
    cs = (Circle("a", TYPE1, "b", ACTIVE, (0,)),
          Circle("b", TYPE1, "a", ACTIVE, (0,)))
    rep = validate(Z, CTX, LinkState(circles=cs))
    assert ("broken-duality", "a") in rep.violations


def test_clasp_linking_congruence():
    # linking is read off the clasps, so a file can only disagree with it
    obj = state_to_json(Z, LinkState(circles=tuple(pair("a") + pair("b"))))
    obj["lk"] = [["a", "b"]]
    with pytest.raises(StateError, match=r"\('a', 'b'\)"):
        state_from_json(Z, obj)
    # two clasps and linking 0 is fine
    st2 = LinkState(circles=tuple(pair("a") + pair("b")),
                    clasps=(("a", "b"), ("a", "b")))
    assert st2.linking("a", "b") == 0
    assert validate(Z, CTX, st2).ok
    assert state_from_json(Z, state_to_json(Z, st2)) == st2


@pytest.mark.parametrize("lk,clasps", [
    ([], [["a", "b"]]),
    ([["a", "b"]], [["a", "b"], ["b", "a"]]),
    ([["a", "a"]], [["a", "a"]]),
    ([["a", "b"], ["b", "ap"]], [["a", "b"]]),
], ids=["clasp-unlinked", "even-clasps-linked", "self-linking", "extra-pair"])
def test_loader_rejects_lk_off_clasp_parity(lk, clasps):
    obj = state_to_json(Z, LinkState(circles=tuple(pair("a") + pair("b"))))
    obj["lk"], obj["clasps"] = lk, clasps
    with pytest.raises(StateError, match="clasp parity"):
        state_from_json(Z, obj)


def test_type2_label_must_be_involution():
    c = Circle("s", TYPE2, "s", None, (1,))
    rep = validate(Z, CTX, LinkState(circles=(c,)))
    assert any(v[0] == "type2-label-not-involution" for v in rep.violations)


def test_missing_twist_entry():
    G = AbelianGroup(0, (2,))
    cs = (Circle("s0", TYPE2, "s0", None, (1,)),
          Circle("s1", TYPE2, "s1", None, (1,)))
    rep = validate(G, CTX, LinkState(circles=cs))
    assert ("missing-tw-entry", ("s0", "s1")) in rep.violations
    ok = LinkState(circles=cs, tw=((pkey("s0", "s1"), 1),))
    assert validate(G, CTX, ok).ok


def _t2(cid, label=(1,), partner=None):
    return Circle(cid, TYPE2, partner or cid, None, label)


@pytest.mark.parametrize("circles,clasps,tw,want", [
    pytest.param((Circle("a", TYPE1, "ap", "sideways", (1,)),
                  Circle("ap", TYPE1, "a", INACTIVE)), (), (),
                 ("bad-role", "a"), id="bad-role"),
    pytest.param(tuple(pair("a", (0, 0))), (), (),
                 ("bad-label", "a"), id="bad-label-type1"),
    pytest.param((Circle("a", TYPE1, "ap", ACTIVE, (1,)),
                  Circle("ap", TYPE1, "a", INACTIVE, (1,))), (), (),
                 ("inactive-label-stored", "ap"), id="inactive-label-stored"),
    pytest.param((_t2("s", partner="t"),), (), (),
                 ("type2-not-self-dual", "s"), id="type2-not-self-dual"),
    pytest.param((Circle("x", "type3", "x"),), (), (),
                 ("bad-kind", "x"), id="bad-kind"),
    pytest.param(tuple(pair("a")), (("a", "z"),), (),
                 ("dangling-clasp", ("a", "z")), id="dangling-clasp"),
    pytest.param((_t2("s0"), _t2("s1")), (),
                 ((("s0", "s1"), 0), (("s0", "s1"), 1)),
                 ("duplicate-tw-entries", (("s0", "s1"),)),
                 id="duplicate-tw-entries"),
    pytest.param(tuple(pair("a")), (), ((("a", "ap"), 0),),
                 ("bad-tw-domain", ("a", "ap")), id="bad-tw-domain"),
    pytest.param((_t2("s0", (0,)), _t2("s1")), (), ((("s0", "s1"), 0),),
                 ("tw-label-mismatch", ("s0", "s1")), id="tw-label-mismatch"),
])
def test_validate_names_each_violation(circles, clasps, tw, want):
    G = AbelianGroup(0, (2,))
    st = LinkState(circles=circles, clasps=clasps, tw=tw)
    assert validate(G, CTX, st).violations == [want]


def test_dual_parity_checked_under_schar():
    ctx = Context(s_characteristic=True, dual_sphere="unframed")
    st = LinkState(circles=tuple(pair("a") + pair("b")),
                   clasps=(("a", "b"),))
    rep = validate(Z, ctx, st)
    assert any(v[0] == "dual-parity" for v in rep.violations)
    assert validate(Z, CTX, st).ok  # no dual sphere, no parity constraint


def test_framed_schar_warns():
    ctx = Context(s_characteristic=True, dual_sphere="framed")
    rep = validate(Z, ctx, hopf())
    assert rep.ok
    assert rep.warnings


@pytest.mark.parametrize("cid", ["h", "hp"])
def test_flip_activity_inverts_label(cid):
    # either member of the pair names it
    st, _ = MOVES["flip_activity"](Z, CTX, hopf((3,)), a=cid)
    assert st.circle("hp").role == ACTIVE
    assert st.circle("hp").label == (-3,)
    assert st.read(Z, "h") == (3,)
    back, _ = MOVES["flip_activity"](Z, CTX, st, a=cid)
    assert state_hash(Z, back) == state_hash(Z, hopf((3,)))


def test_read_inactive_side():
    st = hopf((2,))
    assert st.read(Z, "hp") == (-2,)


def test_json_round_trip_and_hash():
    st = hopf((1,))
    st2 = state_from_json(Z, state_to_json(Z, st))
    assert st2 == st
    assert state_hash(Z, st2) == state_hash(Z, st)


@pytest.mark.parametrize("gname", sorted(standard_groups()))
def test_reachable_states_survive_the_loader(gname):
    # every state along sampled random walks reloads to itself, so the
    # loader's lk check rejects no state the moves can build
    G = standard_groups()[gname]
    seen = 0
    for i, ctx in enumerate(CONTEXTS):
        for seed in range(4):
            rng = np.random.default_rng([seed, i])
            for _, _, _, post in walk(G, ctx, rng, steps=10):
                back = state_from_json(G, state_to_json(G, post))
                assert back == post
                assert state_hash(G, back) == state_hash(G, post)
                seen += 1
    assert seen > 0


def test_hash_frozen():
    # determinism contract: canonical serialization of this state is stable
    assert state_hash(Z, hopf((1,))) == (
        "46b004cf7bd2c70c21583f71eab96c6903642d9cf5f00126b88b741e96df3edd")


def test_shorten_cycle_hash_frozen():
    # entries of either role are accepted, and an all-active cycle gives the
    # post-state it always gave, so recorded traces keep their hashes
    st = cycle_state(Z, [(1,), (2,), (3,)])
    post, _ = MOVES["shorten_cycle"](Z, SCHAR, st, actives=["a0", "a1", "a2"])
    assert state_hash(Z, post) == (
        "60a78f113ad64c3f754f184403e7e4f586838fb205e78e37a1f2038815c3832f")


@pytest.mark.parametrize("G,label", [
    pytest.param(Z, lambda rng: (rng.randint(-3, 3),), id="Z"),
    pytest.param(Q8, lambda rng: rng.randrange(8), id="Q8"),
])
def test_shorten_cycle_mixed_roles(G, label):
    # which circle of a pair carries the label is a convention: flip any
    # subset of the pairs, then shorten along the cycle from any circle
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(2, 6)
        st = cycle_state(G, [label(rng) for _ in range(m)])
        for i in range(m):
            if rng.random() < 0.5:
                st, _ = MOVES["flip_activity"](G, SCHAR, st, a=f"a{i}")
        start = rng.choice(st.circles).id
        post, _ = MOVES["shorten_cycle"](G, SCHAR, st, actives=_walk(st, start))
        assert validate(G, SCHAR, post).ok and _parity_ok(post)
        assert len(post.pairs()) == m - 1
        assert mu(G, post).tolist() == mu(G, st).tolist()
        assert delta(G, SCHAR, post).tolist() == delta(G, SCHAR, st).tolist()


def test_shorten_cycle_keeps_its_checks():
    st = cycle_state(Z, [(1,), (2,), (3,)])
    st = LinkState(circles=st.circles + (Circle("s", TYPE2, "s", None, (0,)),),
                   clasps=st.clasps)
    for actives, why in ((["a0", "s"], "not a type I"),
                         (["a0", "a1", "a1"], "repeat"),
                         (["a0", "a2", "a1"], "does not link"),
                         (["a0"], "at least two")):
        with pytest.raises(MoveError, match=why):
            MOVES["shorten_cycle"](Z, SCHAR, st, actives=actives)


def test_shorten_cycle_reads_two_entries():
    # each listed entry links the next one's dual, with no wrap-around: the
    # first two entries of the cycle give the post-state of the whole cycle
    st = cycle_state(Z, [(1,), (2,), (3,)])
    full, _ = MOVES["shorten_cycle"](Z, SCHAR, st, actives=["a0", "a1", "a2"])
    post, _ = MOVES["shorten_cycle"](Z, SCHAR, st, actives=["a0", "a1"])
    assert post == full
    assert state_hash(Z, post) == (
        "60a78f113ad64c3f754f184403e7e4f586838fb205e78e37a1f2038815c3832f")
    # a1 links the dual of a2, not of a0
    with pytest.raises(MoveError, match="does not link"):
        MOVES["shorten_cycle"](Z, SCHAR, st, actives=["a1", "a0"])


def test_missing_twist_lookup_raises():
    st = hopf()
    with pytest.raises(StateError):
        st.twist("h", "hp")


# -- hashing from cached pieces, post-states from deltas ---------------------

def reference_hash(G, state):
    blob = json.dumps(state_to_json(G, state), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


INDEXES = ("lk", "_by_id", "_links")


def assert_indexes_rebuilt(st):
    # a delta-built state is in canonical order and carries the indexes a
    # state rebuilt from its fields computes, and answers every query alike
    rebuilt = LinkState(circles=st.circles, clasps=st.clasps, tw=st.tw,
                        homology_tag=st.homology_tag)
    assert st == rebuilt
    for name in INDEXES:
        assert getattr(st, name) == getattr(rebuilt, name), name
    # every fresh id below a prefix's bound is taken
    for prefix, n in st._free.items():
        assert all(f"{prefix}{i}" in st._by_id for i in range(n)), prefix
    ids = [c.id for c in st.circles]
    for a in ids:
        assert st.linked_ids(a) == rebuilt.linked_ids(a), a
        assert st.lk_total(a) == rebuilt.lk_total(a), a
        assert set(st.clasps_at(a)) == set(rebuilt.clasps_at(a)), a
        for b in ids:
            assert st.clasp_count(a, b) == rebuilt.clasp_count(a, b), (a, b)
            assert st.linking(a, b) == rebuilt.linking(a, b), (a, b)


def test_even_multiplicities_and_self_clasps():
    # "s" is clasped twice to "a" and its dual is split, so surgery on it
    # removes a circle with an even clasp count
    st = LinkState(circles=tuple(pair("a") + pair("b") + pair("s")),
                   clasps=(("a", "s"), ("a", "s")))
    ctx = Context(dual_sphere="unframed")

    def step(st, move, **params):
        post, _ = MOVES[move](Z, ctx, st, **params)
        assert_indexes_rebuilt(post)
        return post

    def even(st, a, b):
        assert st.clasp_count(a, b) == 2 and st.linking(a, b) == 0
        assert pkey(a, b) in st.clasps_at(a) and pkey(a, b) in st.clasps_at(b)
        assert b not in st.linked_ids(a) and a not in st.linked_ids(b)
        assert pkey(a, b) not in st.lk

    even(st, "a", "s")
    st = step(st, "finger_move", a="a", b="b")
    assert st.clasp_count("a", "b") == 1 and "b" in st.linked_ids("a")
    st = step(st, "finger_move", a="a", b="b")
    even(st, "a", "b")
    st = step(st, "clasp_finger", a="a", b="b")
    assert st.clasp_count("a", "b") == 1 and st.linking("a", "b") == 1
    assert st.linked_ids("b") == ["a"]
    st = step(st, "finger_move", a="b", b="b")
    assert st.clasp_count("b", "b") == 1 and st.linking("b", "b") == 0
    assert ("b", "b") in st.clasps_at("b") and "b" not in st.linked_ids("b")
    assert st.linked_ids("b") == ["a"]
    even(st, "a", "s")
    st = step(st, "ambient_surgery", a="s")
    assert "s" not in st._by_id and "s" not in st._links
    assert st.clasp_count("a", "s") == 0
    assert all("s" not in k for k in st.clasps_at("a"))


@pytest.mark.parametrize("gname", sorted(standard_groups()))
def test_hash_and_indexes_along_walks(gname):
    G = standard_groups()[gname]
    seen = 0
    for i, ctx in enumerate(CONTEXTS):
        for seed in range(6):
            rng = np.random.default_rng([seed, i, 7])
            for pre, _, _, post in walk(G, ctx, rng, steps=12):
                assert state_hash(G, post) == reference_hash(G, post)
                assert state_hash(G, pre) == reference_hash(G, pre)
                assert_indexes_rebuilt(post)
                # and the move left the pre-state's indexes as they were
                assert_indexes_rebuilt(pre)
                seen += 1
    assert seen > 0


def test_indexes_along_a_decide_trace():
    # replaying a decide trace move by move covers the composite moves
    rng = random.Random(5)
    st = cycle_state(Z, [(rng.randint(-3, 3),) for _ in range(12)])
    for rec in decide(Z, SCHAR, st).trace:
        params = decode_params(Z, rec.move, rec.params)
        st, got = apply_move(Z, SCHAR, st, rec.move, params)
        assert got.post_hash == rec.post_hash == reference_hash(Z, st)
        assert_indexes_rebuilt(st)


def test_hash_escapes_ids_and_tag():
    ids = ['q"1', "b\\s", "été", "☃"]
    circles = [c for cid in ids for c in pair(cid, (3,))]
    clasps = [(ids[0], ids[1] + "p"), (ids[1], ids[2] + "p"),
              (ids[2], ids[3] + "p"), (ids[3], ids[0] + "p"),
              (ids[3], ids[0] + "p"), (ids[0], ids[0] + "p")]
    t2 = [Circle(f"s{x}", TYPE2, f"s{x}", None, (0,)) for x in ids]
    tw = [(pkey(a.id, b.id), 1) for i, a in enumerate(t2) for b in t2[i + 1:]]
    for tag in (None, 'tag "é☃\\'):
        st = LinkState(circles=tuple(circles + t2), clasps=tuple(clasps),
                       tw=tuple(tw), homology_tag=tag)
        assert validate(Z, CTX, st).ok
        assert state_hash(Z, st) == reference_hash(Z, st)
        # fields given out of order build the same state
        raw = LinkState(circles=tuple(reversed(st.circles)),
                        clasps=tuple((b, a) for a, b in st.clasps),
                        tw=tuple(reversed(st.tw)), homology_tag=tag)
        assert raw == st and state_hash(Z, raw) == state_hash(Z, st)


def test_construction_is_canonical():
    # circles sorted by id, clasps and twist entries as sorted pairs, sorted
    t2 = [Circle(x, TYPE2, x, None, (0,)) for x in "stu"]
    circles = pair("a") + pair("b") + pair("c") + t2
    clasps = [("a", "bp"), ("a", "bp"), ("a", "cp"), ("b", "c"), ("s", "t")]
    tw = [(("s", "t"), 1), (("s", "u"), 0), (("t", "u"), 1)]
    ordered = LinkState(circles=tuple(circles), clasps=tuple(clasps),
                        tw=tuple(tw))
    assert (ordered.circles, ordered.clasps, ordered.tw) == (
        tuple(circles), tuple(clasps), tuple(tw))
    shuffled = LinkState(circles=tuple(reversed(circles)),
                         clasps=tuple((b, a) for a, b in reversed(clasps)),
                         tw=tuple(((b, a), bit) for (a, b), bit in reversed(tw)))
    assert shuffled == ordered
    assert state_hash(Z, shuffled) == state_hash(Z, ordered)
    assert [a.id for a, _ in shuffled.pairs()] == ["a", "b", "c"]
    assert [c.id for c in shuffled.type2_circles()] == ["s", "t", "u"]


def test_circle_text_follows_the_group():
    # a circle caches its text with the group it was encoded under, so the
    # same circle hashed under another group is encoded again
    c = Circle("x", TYPE2, "x", None, (4,))
    st = LinkState(circles=(c,))
    Z3, Z5 = AbelianGroup(0, (3,)), AbelianGroup(0, (5,))
    C5 = FiniteGroup(cyclic_table(5))
    fin = LinkState(circles=(Circle("x", TYPE2, "x", None, 4),))
    hashes = []
    for G, s in ((Z3, st), (Z5, st), (C5, fin), (Z3, st)):
        assert state_hash(G, s) == reference_hash(G, s)
        hashes.append(state_hash(G, s))
    assert len(set(hashes)) == 3


def test_kept_texts_follow_the_group():
    # a draft passes on the texts kept under the group its base was
    # hashed under; hashed under another group, the child encodes afresh
    st = LinkState(circles=tuple(pair("a", (4,)) + pair("b", (2,))),
                   clasps=(("a", "bp"), ("b", "ap")))
    Z3, Z5 = AbelianGroup(0, (3,)), AbelianGroup(0, (5,))
    state_hash(Z3, st)
    d = Draft(st)
    for cid in ("b", "bp"):
        d.remove_circle(cid)
    for c in pair("c", (1,)):
        d.add_circle(c)
    for (a, b), n in {("a", "bp"): 0, ("b", "ap"): 0,
                      ("a", "cp"): 1, ("ap", "c"): 2}.items():
        d.set_clasp_count(a, b, n)
    child = d.freeze()
    assert child.__dict__["_texts"][0] is Z3
    for G in (Z3, Z5, Z3):
        assert state_hash(G, child) == reference_hash(G, child)


def test_hash_memo_follows_the_group(monkeypatch):
    # a state keeps its digest with the group it was computed under: hashed
    # again under that group it computes nothing, and under another group,
    # or back under the first, it computes the digest of that group
    digests, sha256 = [], hashlib.sha256
    monkeypatch.setattr(state_mod, "hashlib", types.SimpleNamespace(
        sha256=lambda data: digests.append(data) or sha256(data)))
    st = LinkState(circles=tuple(pair("a", (4,))) + (
        Circle("x", TYPE2, "x", None, (2,)),), clasps=(("a", "ap"),))
    Z3, Z5 = AbelianGroup(0, (3,)), AbelianGroup(0, (5,))
    got = []
    for G, computed in ((Z3, 1), (Z3, 0), (Z5, 1), (Z3, 1)):
        del digests[:]
        got.append(state_hash(G, st))
        assert len(digests) == computed
        assert got[-1] == hashlib.sha256(json.dumps(
            state_to_json(G, st), sort_keys=True,
            separators=(",", ":")).encode()).hexdigest()
    assert got[0] != got[2]


def test_fresh_ids_skip_used_ids():
    st = LinkState(circles=tuple(pair("c0") + pair("c2")))
    assert st.fresh_ids(3) == ["c1", "c3", "c4"]
    assert st.fresh_ids(2, "c2") == ["c20", "c21"]


def test_fresh_id_bounds_follow_removals():
    # a removed id lowers the bound of each prefix it is an index of;
    # e01 (an f-string writes no leading zero), e² ("²".isdigit() holds,
    # but int("²") raises), e and a 5000-digit index are no index of e
    long = "e" + "1" * 5000
    ids = [("e0", "e1"), ("e2", "e"), ("e01", "e²"), ("e00", long)]
    d = Draft(LinkState(circles=tuple(
        c for a, b in ids for c in (Circle(a, TYPE1, b, ACTIVE, (0,)),
                                    Circle(b, TYPE1, a, INACTIVE)))))
    assert d.fresh_ids(2, "e") == ["e3", "e4"]
    assert d.fresh_ids(1, "e0") == ["e02"]
    assert d._free == {"e": 3, "e0": 2}
    d.remove_circle("e01")                  # e01 is index 1 of e0
    assert d._free == {"e": 3, "e0": 1}
    for cid in ("e²", "e", long):
        d.remove_circle(cid)
        assert d._free == {"e": 3, "e0": 1}
    d.remove_circle("e1")
    assert d._free == {"e": 1, "e0": 1}
    st = d.freeze()
    assert st.fresh_ids(3, "e") == ["e1", "e3", "e4"]
    assert st.fresh_ids(1, "e0") == ["e01"]
    assert Draft(st).fresh_ids(1, "e") == ["e1"]


@pytest.mark.parametrize("c", [
    Circle("x", TYPE1, "xp", ACTIVE, (3,)),
    Circle("xp", TYPE1, "x", INACTIVE),
    Circle("s", TYPE2, "s", None, (1,)),
    Circle('q"\\☃', TYPE1, "été", ACTIVE, (-4,)),
    # invalid circles, which validate rejects
    Circle(7, TYPE2, 7, None, (1,)),
    Circle("x", TYPE1, "y", None, None),
    Circle("x", TYPE1, "y", INACTIVE, (2,)),
    Circle("s", TYPE2, "t", ACTIVE, (1,)),
    Circle("x", "bogus", None, "r", (5,)),
    Circle(1.5, TYPE1, ("a", 2), True, (0,)),
])
def test_circle_text_of_any_circle(c):
    assert c.json_text(Z) == json.dumps(state_mod._circle_to_json(Z, c),
                                        sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("bad", [
    {"circles": [{"id": 1, "kind": "type2", "partner": 1, "label": [0]}]},
    {"circles": [], "clasps": [["a", "b", "c"]]},
    {"circles": [], "tw": [[["a", 2], 0]]},
])
def test_loader_needs_string_ids_and_pairs(bad):
    with pytest.raises(StateError, match="must be strings"):
        state_from_json(Z, bad)
