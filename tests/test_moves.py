"""Move-level unit tests: spawn rules, label bookkeeping, preconditions,
script replay.  Randomized invariance is exercised separately in the
acceptance suite; here the expected post-states are written out by hand."""

import json
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singlink import state as state_mod
from singlink.groups import AbelianGroup, FiniteGroup
from singlink.invariants import delta, mu
from singlink.moves import (
    MOVES, MoveError, ScriptError, WhitneySpec, apply_move, apply_script,
)
from singlink.randwalk import (
    CONTEXTS, random_step, seed_state, standard_groups, walk,
)
from singlink.scenario import record_to_json
from singlink.state import (
    ACTIVE, INACTIVE, TYPE1, TYPE2,
    Circle, Context, Draft, LinkState, pkey, state_hash, validate,
)

from test_groups import a4_table

Z = AbelianGroup(1)
A4 = FiniteGroup(a4_table())
CTX = Context()
SCHAR = Context(s_characteristic=True, dual_sphere="unframed")


def pair(cid, label=(0,)):
    return [Circle(cid, TYPE1, cid + "p", ACTIVE, label),
            Circle(cid + "p", TYPE1, cid, INACTIVE)]


def state_of(circles, lk=(), clasps=(), tw=()):
    st = LinkState(circles=tuple(circles), clasps=tuple(clasps),
                   tw=tuple(tw))
    # the linking the test expects is the one read off the clasps
    assert st.lk == {pkey(*p) for p in lk}
    return st


class TestCrossingMoves:
    def test_clasp_finger_spawns_meridians(self):
        st = state_of(pair("a", (2,)) + pair("b", (5,)),
                      lk={("a", "b")}, clasps=[("a", "b")])
        post, info = MOVES["clasp_finger"](Z, CTX, st, a="a", b="b")
        e, ep = info["spawned"]
        assert post.linking("a", "b") == 0
        assert post.clasp_count("a", "b") == 0
        assert post.linked_ids(e) == ["ap"]
        assert post.linked_ids(ep) == ["bp"]
        # label: reading at a times inverse of reading at b
        assert post.circle(e).label == (-3,)
        assert validate(Z, CTX, post).ok

    def test_clasp_finger_needs_a_clasp(self):
        st = state_of(pair("a") + pair("b"))
        with pytest.raises(MoveError):
            MOVES["clasp_finger"](Z, CTX, st, a="a", b="b")

    def test_finger_move_adds_clasp(self):
        st = state_of(pair("a", (1,)) + pair("b", (1,)))
        post, info = MOVES["finger_move"](Z, CTX, st, a="a", b="b")
        assert post.linking("a", "b") == 1
        assert post.clasp_count("a", "b") == 1
        assert post.circle(info["spawned"][0]).label == (0,)
        assert validate(Z, CTX, post).ok

    def test_self_clasp(self):
        st = state_of(pair("a", (1,)))
        post, info = MOVES["finger_move"](Z, CTX, st, a="a", b="a")
        e, ep = info["spawned"]
        assert post.clasp_count("a", "a") == 1
        # both meridians sit on the dual
        assert post.linked_ids(e) == ["ap"] and post.linked_ids(ep) == ["ap"]
        assert validate(Z, CTX, post).ok

    def test_type2_guard(self):
        G = AbelianGroup(0, (2,))
        cs = [Circle("s", TYPE2, "s", None, (1,))] + pair("a", G.identity)
        st = state_of(cs)
        with pytest.raises(MoveError):
            MOVES["finger_move"](G, CTX, st, a="s", b="a")


class TestWhitney:
    def test_split_routes_by_sigma(self):
        circles = pair("a", (2,)) + pair("x") + pair("y")
        st = state_of(circles, lk={("a", "x"), ("ap", "y")},
                      clasps=[("a", "x"), ("ap", "y")])
        spec = WhitneySpec(a="a", b="ap", mode="inverse",
                           sigma=(("x", (0, 1)), ("y", (0, 1))))
        post, info = MOVES["whitney_move"](Z, CTX, st, spec=spec)
        (o1, o1p), (o2, o2p) = info["outputs"]
        assert post.circle(o1).label == (2,)
        assert post.circle(o2).label == (2,)
        assert post.linked_ids("x") == [o2]
        assert post.linked_ids("y") == [o2p]
        assert post.linking(o1, o2) == 0  # tau even: nothing kept on side 1
        assert validate(Z, CTX, post).ok

    def test_split_tau_odd(self):
        circles = pair("a", (1,)) + pair("x") + pair("y")
        st = state_of(circles, lk={("a", "x"), ("ap", "y")},
                      clasps=[("a", "x"), ("ap", "y")])
        spec = WhitneySpec(a="a", b="ap", mode="inverse",
                           sigma=(("x", (1, 0)), ("y", (0, 1))))
        post, info = MOVES["whitney_move"](Z, CTX, st, spec=spec)
        (o1, _), (o2, _) = info["outputs"]
        assert post.linking(o1, o2) == 1

    def test_split_rejects_linked_pair(self):
        st = state_of(pair("a"), lk={("a", "ap")}, clasps=[("a", "ap")])
        with pytest.raises(MoveError):
            MOVES["whitney_move"](
                Z, CTX, st, spec=WhitneySpec(a="a", b="ap", mode="inverse"))

    def test_split_rejects_shared_third_circle(self):
        st = state_of(pair("a") + pair("x"),
                      lk={("a", "x"), ("ap", "x")},
                      clasps=[("a", "x"), ("ap", "x")])
        with pytest.raises(MoveError):
            MOVES["whitney_move"](
                Z, CTX, st, spec=WhitneySpec(a="a", b="ap", mode="inverse"))

    def test_merge_xors_rows(self):
        circles = pair("a", (1,)) + pair("b", (1,)) + pair("x") + pair("y")
        st = state_of(circles,
                      lk={("a", "x"), ("b", "x"), ("b", "y")},
                      clasps=[("a", "x"), ("b", "x"), ("b", "y")])
        post, info = MOVES["whitney_move"](
            Z, CTX, st, spec=WhitneySpec(a="a", b="b", mode="equal"))
        c, cp = info["outputs"]
        assert post.circle(c).label == (1,)
        assert post.linking(c, "x") == 0   # both summands linked x
        assert post.linking(c, "y") == 1
        assert validate(Z, CTX, post).ok

    def test_merge_mode_must_match_roles(self):
        st = state_of(pair("a", (1,)) + pair("b", (1,)))
        with pytest.raises(MoveError):
            MOVES["whitney_move"](
                Z, CTX, st, spec=WhitneySpec(a="a", b="b", mode="inverse"))

    def test_merge_label_mismatch(self):
        st = state_of(pair("a", (1,)) + pair("b", (2,)))
        with pytest.raises(MoveError):
            MOVES["whitney_move"](
                Z, CTX, st, spec=WhitneySpec(a="a", b="b", mode="equal"))

    def test_merge_forced_nu_under_schar(self):
        st = state_of(pair("a", (1,)) + pair("b", (1,)))
        with pytest.raises(MoveError):
            MOVES["whitney_move"](
                Z, SCHAR, st, spec=WhitneySpec(a="a", b="b", mode="equal", nu=1))
        post, _ = MOVES["whitney_move"](
            Z, SCHAR, st, spec=WhitneySpec(a="a", b="b", mode="equal", nu=0))
        assert validate(Z, SCHAR, post).ok

    def test_pair_type2_reads_twist(self):
        G = AbelianGroup(0, (2,))
        cs = [Circle("s0", TYPE2, "s0", None, (1,)),
              Circle("s1", TYPE2, "s1", None, (1,))]
        st = state_of(cs, tw=[(pkey("s0", "s1"), 1)])
        post, info = MOVES["whitney_pair_typeII"](G, CTX, st, a="s0", b="s1")
        o, op = info["outputs"]
        assert post.linking(o, op) == 1
        assert post.circle(o).label == (1,)
        assert not post.type2_circles()

    def test_pair_type2_twist_compat_guard(self):
        G = AbelianGroup(0, (2,))
        cs = [Circle(f"s{i}", TYPE2, f"s{i}", None, (1,)) for i in range(3)]
        tw = [(pkey("s0", "s1"), 0), (pkey("s0", "s2"), 0), (pkey("s1", "s2"), 1)]
        st = state_of(cs, tw=tw)
        with pytest.raises(MoveError):
            MOVES["whitney_pair_typeII"](G, CTX, st, a="s0", b="s1")
        # s1, s2 agree about s0 -- wait, they do not; s0, s2 agree about s1?
        # tw(s0,s1)=0 vs tw(s2,s1)=1: no pair here is compatible
        with pytest.raises(MoveError):
            MOVES["whitney_pair_typeII"](G, CTX, st, a="s0", b="s2")


class TestSurgery:
    def test_needs_dual_sphere(self):
        st = state_of(pair("a"))
        with pytest.raises(MoveError):
            MOVES["ambient_surgery"](Z, CTX, st, a="a")

    def test_framed_no_side_effect(self):
        ctx = Context(dual_sphere="framed")
        st = state_of(pair("a") + pair("x") + pair("y"),
                      lk={("a", "x"), ("a", "y")},
                      clasps=[("a", "x"), ("a", "y")])
        post, info = MOVES["ambient_surgery"](Z, ctx, st, a="a")
        assert info["removed"] == ("a", "ap")
        assert post.linking("x", "y") == 0

    def test_unframed_twists_linkers(self):
        st = state_of(pair("a") + pair("x") + pair("y"),
                      lk={("a", "x"), ("a", "y")},
                      clasps=[("a", "x"), ("a", "y")])
        post, _ = MOVES["ambient_surgery"](Z, SCHAR, st, a="a")
        assert post.linking("x", "y") == 1
        assert post.clasp_count("x", "y") == 1

    def test_unframed_rejects_odd_linkers(self):
        st = state_of(pair("a") + pair("x"),
                      lk={("a", "x")}, clasps=[("a", "x")])
        with pytest.raises(MoveError):
            MOVES["ambient_surgery"](Z, SCHAR, st, a="a")

    def test_rejects_unsplit_dual(self):
        ctx = Context(dual_sphere="framed")
        st = state_of(pair("a") + pair("x"),
                      lk={("ap", "x")}, clasps=[("ap", "x")])
        with pytest.raises(MoveError):
            MOVES["ambient_surgery"](Z, ctx, st, a="a")


class TestComposites:
    def test_move_meridian_shifts_side(self):
        ctx = Context(dual_sphere="framed")
        st = state_of(pair("a", (1,)) + pair("e", (0,)),
                      lk={("a", "e")}, clasps=[("a", "e")])
        post, info = MOVES["move_meridian"](Z, ctx, st, a="a", e="e")
        assert len(info["steps"]) == 2
        assert post.linked_ids("a") == []
        assert len(post.linked_ids("ap")) == 1
        assert validate(Z, ctx, post).ok

    def test_merge_hopf_label_order(self):
        # merging pairs labeled a then b carries label b*a
        st = state_of(pair("u", (3,)) + pair("v", (5,)),
                      lk={("u", "up"), ("v", "vp")},
                      clasps=[("u", "up"), ("v", "vp")])
        post, info = MOVES["merge_hopf_pairs"](Z, CTX, st, a="u", b="v")
        c, cp = info["outputs"]
        assert post.circle(c).label == (8,)
        assert post.linking(c, cp) == 1

    def test_merge_hopf_rejects_external_links(self):
        st = state_of(pair("u", (1,)) + pair("v", (1,)) + pair("x"),
                      lk={("u", "up"), ("v", "vp"), ("u", "x")},
                      clasps=[("u", "up"), ("v", "vp"), ("u", "x")])
        with pytest.raises(MoveError):
            MOVES["merge_hopf_pairs"](Z, CTX, st, a="u", b="v")

    @pytest.mark.parametrize("gname,g", [
        ("Z", (2,)), ("Z", (-4,)), ("Z", (0,)),
        ("Z4", (2,)), ("Z2xZ2", (0, 0)), ("Q8", 1),
    ])
    def test_add_hopf_pair_labels(self, gname, g):
        G = standard_groups()[gname]
        post, info = MOVES["add_hopf_pair"](G, CTX, LinkState(), g=g)
        act = post.circle(info["active"])
        assert G.element_key(act.label) == G.element_key(G.check(g))
        assert post.linking(act.id, act.partner) == 1
        assert validate(G, CTX, post).ok

    @pytest.mark.parametrize("k", [0, 2, 2 * 10 ** 3, 2 * 10 ** 6, 10 ** 12])
    def test_add_hopf_pair_steps_do_not_grow(self, k):
        # over Z, g = 2y is one square: a trivial finger, a split and a merge
        _, rec = apply_move(Z, CTX, LinkState(), "add_hopf_pair", {"g": (k,)})
        assert [n for n, _ in rec.steps] == [
            "trivial_finger", "whitney_move", "merge_hopf_pairs"]
        assert rec.steps[0][1] == {"g": [k // 2]}

    def test_add_hopf_pair_rejects_essential_class(self):
        with pytest.raises(MoveError):
            MOVES["add_hopf_pair"](Z, CTX, LinkState(), g=(1,))

    def test_remove_trivial_pairs(self):
        st = state_of(pair("u", (0,)) + pair("v", (0,)),
                      lk={("u", "up"), ("v", "vp")},
                      clasps=[("u", "up"), ("v", "vp")])
        ctx = Context(dual_sphere="framed")
        post, _ = MOVES["remove_trivial_hopf_pairs"](Z, ctx, st, a="u", b="v")
        assert not post.circles
        st_bad = state_of(pair("u", (2,)) + pair("v", (0,)),
                          lk={("u", "up"), ("v", "vp")},
                          clasps=[("u", "up"), ("v", "vp")])
        with pytest.raises(MoveError):
            MOVES["remove_trivial_hopf_pairs"](Z, ctx, st_bad, a="u", b="v")


class TestScripts:
    def test_replay_is_atomic(self):
        st = state_of(pair("a", (1,)))
        script = [
            {"move": "finger_move", "params": {"a": "a", "b": "ap"}},
            {"move": "clasp_finger", "params": {"a": "a", "b": "nonexistent"}},
        ]
        with pytest.raises(ScriptError) as err:
            apply_script(Z, CTX, st, script)
        assert err.value.index == 1

    def test_trace_replays_to_same_hash(self):
        st = state_of(pair("a", (1,)) + pair("b", (1,)))
        post1, rec1 = apply_move(Z, CTX, st, "finger_move", {"a": "a", "b": "b"})
        post2, rec2 = apply_move(Z, CTX, post1, "clasp_finger", {"a": "a", "b": "b"})
        final, trace = apply_script(Z, CTX, st, [rec1, rec2])
        assert state_hash(Z, final) == rec2.post_hash

    def test_hash_mismatch_detected(self):
        st = state_of(pair("a", (1,)))
        _, rec = apply_move(Z, CTX, st, "finger_move", {"a": "a", "b": "ap"})
        tampered = [{"move": rec.move, "params": rec.params,
                     "pre_hash": "0" * 64}]
        with pytest.raises(ScriptError):
            apply_script(Z, CTX, st, tampered)

    @pytest.mark.parametrize("entry", [
        {"move": "finger_move", "params": {"x": "a"}},
        {"move": "finger_move", "params": ["a", "ap"]},
        "finger_move",
        {"move": "trivial_finger", "params": {"g": "abc"}},
        {"move": "trivial_finger", "params": {"g": [True]}},
        {"move": "whitney_move",
         "params": {"spec": {"a": "a", "b": "ap", "mode": "inverse", "x": 1}}},
        {"move": "whitney_move",
         "params": {"spec": {"a": "a", "b": "ap", "mode": "inverse",
                             "sigma": [["x"]]}}},
    ], ids=["param-name", "params-list", "string-entry", "element",
            "bool-element", "spec-key", "sigma"])
    def test_malformed_entry_names_its_step(self, entry):
        st = state_of(pair("a", (1,)))
        script = [{"move": "trivial_finger", "params": {"g": [0]}}, entry]
        with pytest.raises(ScriptError) as err:
            apply_script(Z, CTX, st, script)
        assert err.value.index == 1

    def test_composite_records_expand_to_primitives(self):
        ctx = Context(dual_sphere="framed")
        st = state_of(pair("a", (1,)) + pair("e", (0,)),
                      lk={("a", "e")}, clasps=[("a", "e")])
        _, rec = apply_move(Z, ctx, st, "move_meridian", {"a": "a", "e": "e"})
        # the recorded primitive expansion replays to the same post state
        final, _ = apply_script(Z, ctx, st, [dict(move=n, params=p) for n, p in rec.steps])
        assert state_hash(Z, final) == rec.post_hash


class TestFreshIds:
    """A primitive's fresh ids are the smallest free ones before it removes
    anything, so the circles it removes still block their ids."""

    def test_whitney_split(self):
        st = state_of(pair("w0", (3,)))
        _, info = MOVES["whitney_move"](
            Z, CTX, st, spec={"a": "w0", "b": "w0p", "mode": "inverse"})
        assert info["outputs"] == (("w1", "w2"), ("w3", "w4"))

    def test_whitney_split_belts(self):
        st = state_of(pair("belt0", (3,)))
        post, info = MOVES["whitney_move"](Z, CTX, st, spec={
            "a": "belt0", "b": "belt0p", "mode": "inverse", "clean": False,
            "n": 1})
        assert info["outputs"] == (("w0", "w1"), ("w2", "w3"))
        assert [c.id for c in post.circles] == [
            "belt1", "belt2", "w0", "w1", "w2", "w3"]

    def test_whitney_merge(self):
        st = state_of(pair("w0", (3,)) + pair("w1", (3,)))
        _, info = MOVES["whitney_move"](
            Z, CTX, st, spec={"a": "w0", "b": "w1", "mode": "equal"})
        assert info["outputs"] == ("w2", "w3")

    @pytest.mark.parametrize("move,params", [
        ("whitney_pair_typeII", {"a": "w0", "b": "w1"}),
        ("whitney_move", {"spec": {"a": "w0", "b": "w1"}}),
    ])
    def test_type2_pairing(self, move, params):
        G = AbelianGroup(0, (2,))
        cs = [Circle(x, TYPE2, x, None, (1,)) for x in ("w0", "w1")]
        st = state_of(cs, tw=[(("w0", "w1"), 1)])
        post, info = MOVES[move](G, CTX, st, **params)
        assert info["outputs"] == ("w2", "w3")
        assert [c.id for c in post.circles] == ["w2", "w3"]

    def test_merge_hopf_pairs(self):
        st = state_of(pair("m0", (3,)) + pair("m1", (2,)),
                      lk={("m0", "m0p"), ("m1", "m1p")},
                      clasps=[("m0", "m0p"), ("m1", "m1p")])
        _, info = MOVES["merge_hopf_pairs"](Z, CTX, st, a="m0", b="m1")
        assert info["outputs"] == ("m2", "m3")


class TestDraft:
    @pytest.mark.parametrize("g,steps", [
        ((0,), 2),
        # not a square: the product of two, in seven steps
        pytest.param(A4.two_torsion()[0], 6, id="a4-double-transposition"),
    ])
    def test_composite_freezes_once(self, monkeypatch, g, steps):
        # a composite runs every primitive step on its one draft, and its
        # registry entry freezes that draft into the one state it builds,
        # whatever the number of squares it multiplies
        G = Z if isinstance(g, tuple) else A4
        counts = Counter()

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        st = LinkState()
        monkeypatch.setattr(Draft, "__init__", counting("drafts", Draft.__init__))
        monkeypatch.setattr(Draft, "freeze", counting("freezes", Draft.freeze))
        monkeypatch.setattr(LinkState, "__init__",
                            counting("inits", LinkState.__init__))
        post, rec = apply_move(G, CTX, st, "add_hopf_pair", {"g": g})
        assert len(rec.steps) > steps
        assert counts == {"drafts": 1, "freezes": 1}
        assert validate(G, CTX, post).ok

    @staticmethod
    def assert_intact(G, st):
        # the input's fields, indexes, kept texts and digest are those of a
        # state rebuilt from its fields
        rebuilt = LinkState(circles=st.circles, clasps=st.clasps, tw=st.tw,
                            homology_tag=st.homology_tag)
        assert st == rebuilt
        for name in ("_by_id", "_links", "lk"):
            assert st.__dict__[name] == getattr(rebuilt, name), name
        state_hash(G, rebuilt)
        assert st.__dict__["_texts"] == rebuilt.__dict__["_texts"]
        assert st.__dict__["_hash"] == rebuilt.__dict__["_hash"]

    def test_failed_composite_leaves_its_input(self):
        # a0 links the duals of a1 and a3: shortening (a0, a1) passes its
        # own check and its clasp finger, then the surgery on a0p finds a0
        # still clasped to a3p
        circles = pair("a0") + pair("a1", (1,)) + pair("a2", (2,)) + pair("a3")
        clasps = [("a0", "a1p"), ("a1", "a2p"), ("a2", "a0p"),
                  ("a0", "a3p"), ("a3", "a0p")]
        st = state_of(circles, lk=clasps, clasps=clasps)
        assert validate(Z, SCHAR, st).ok
        state_hash(Z, st)
        with pytest.raises(MoveError, match="'a0' is not split"):
            MOVES["shorten_cycle"](Z, SCHAR, st, actives=["a0", "a1"])
        self.assert_intact(Z, st)
        # and the input still takes the moves that succeed
        post, _ = MOVES["clasp_finger"](Z, SCHAR, st, a="a0", b="a3p")
        MOVES["shorten_cycle"](Z, SCHAR, post, actives=["a0", "a1"])
        self.assert_intact(Z, st)

    def test_rejected_whitney_move_leaves_its_input(self):
        st = state_of(pair("u", (1,)) + pair("v", (2,)) + pair("x"),
                      lk={("u", "xp")}, clasps=[("u", "xp")])
        state_hash(Z, st)
        with pytest.raises(MoveError, match="labels incompatible"):
            MOVES["whitney_move"](Z, CTX, st,
                                  spec={"a": "u", "b": "v", "mode": "equal"})
        self.assert_intact(Z, st)


class TestHashOnce:
    @pytest.fixture
    def digests(self, monkeypatch):
        """The number of sha256 digests ``state_hash`` computes while the
        test runs, read as ``digests()``; a digest kept on a state is not
        computed again."""
        count, real = [0], state_mod.hashlib.sha256

        def counting(data):
            count[0] += 1
            return real(data)
        monkeypatch.setattr(state_mod, "hashlib",
                            types.SimpleNamespace(sha256=counting))

        def taken():
            n, count[0] = count[0], 0
            return n
        return taken

    def test_rejected_move_is_not_hashed(self, digests):
        st = state_of(pair("a", (1,)))
        with pytest.raises(MoveError):
            apply_move(Z, CTX, st, "clasp_finger", {"a": "a", "b": "ap"})
        assert digests() == 0
        apply_move(Z, CTX, st, "finger_move", {"a": "a", "b": "ap"})
        assert digests() == 0

    def test_record_hashes_on_first_read(self, digests):
        st = state_of(pair("a", (1,)))
        post, rec = apply_move(Z, CTX, st, "finger_move", {"a": "a", "b": "ap"})
        assert digests() == 0
        assert rec.post_hash == state_hash(Z, post)
        assert digests() == 2
        assert (rec.pre_hash, rec.post_hash) == (state_hash(Z, st),
                                                 state_hash(Z, post))
        assert digests() == 0

    def test_script_hashes_each_state_once(self, digests):
        def start():
            return state_of(pair("a", (1,)) + pair("b", (1,)))
        script = [
            {"move": "finger_move", "params": {"a": "a", "b": "b"}},
            {"move": "clasp_finger", "params": {"a": "a", "b": "b"}},
            {"move": "flip_activity", "params": {"a": "a"}},
            {"move": "trivial_finger", "params": {"g": [3]}},
        ]
        _, trace = apply_script(Z, CTX, start(), script)
        # appending a record resolves the one before it; the last one
        # waits until it is read
        assert digests() == len(script)
        hashes = [(r.pre_hash, r.post_hash) for r in trace]
        assert digests() == 1
        # replaying the records checks every pre- and post-hash, still
        # with one digest per state
        final, replayed = apply_script(Z, CTX, start(), trace)
        assert digests() == len(script) + 1
        assert [(r.pre_hash, r.post_hash) for r in replayed] == hashes
        assert state_hash(Z, final) == trace[-1].post_hash
        assert digests() == 0


@pytest.mark.parametrize("gname", sorted(standard_groups()))
def test_sweep_steps_replay_from_their_records(gname):
    # each random-walk step, recorded and serialized, replays with both of
    # its hashes checked to the state the walk reached
    G = standard_groups()[gname]
    seen = 0
    for i, ctx in enumerate(CONTEXTS):
        for seed in range(4):
            rng = np.random.default_rng([seed, i, 11])
            for pre, move, params, post in walk(G, ctx, rng, steps=10):
                _, rec = apply_move(G, ctx, pre, move, params)
                entry = json.loads(json.dumps(record_to_json(rec)))
                final, _ = apply_script(G, ctx, pre, [entry])
                assert state_hash(G, final) == state_hash(G, post)
                seen += 1
    assert seen > 0


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(standard_groups())),
       st.integers(0, 2 ** 32 - 1))
def test_random_move_preserves_mu_and_validity(gname, seed):
    G = standard_groups()[gname]
    rng = np.random.default_rng(seed)
    ctx = SCHAR if seed % 2 else Context(dual_sphere="framed")
    state = seed_state(G, ctx, rng)
    for _ in range(4):
        got = random_step(G, ctx, state, rng)
        if got is None:
            break
        _, _, post = got
        assert validate(G, ctx, post).ok
        assert np.array_equal(mu(G, state), mu(G, post))
        if ctx.s_characteristic:
            assert np.array_equal(delta(G, ctx, state), delta(G, ctx, post))
        state = post
