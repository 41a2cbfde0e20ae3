import numpy as np
import pytest

from singlink.groups import AbelianGroup, FiniteGroup
from singlink.invariants import (
    InvariantError, QuotientClass, concordance_bound, delta, fq,
    invariant_report, km, km_rel_alpha, mu, normalize_dual, quotient_reduce,
)
from singlink import randwalk
from singlink.randwalk import q8_table
from singlink.state import (
    ACTIVE, INACTIVE, TYPE1, TYPE2, Circle, Context, LinkState, pkey,
)

Z = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))
Z4 = AbelianGroup(0, (4,))
Q8 = FiniteGroup(q8_table(), generators=[2, 4])


def pair(cid, label=(0,)):
    return [Circle(cid, TYPE1, cid + "p", ACTIVE, label),
            Circle(cid + "p", TYPE1, cid, INACTIVE)]


def hopf(label=(1,)):
    return LinkState(circles=tuple(pair("h", label)),
                     clasps=(("h", "hp"),))


def type2s(G, labels, tw_value=0):
    cs = [Circle(f"s{i}", TYPE2, f"s{i}", None, G.check(g))
          for i, g in enumerate(labels)]
    tw = [(pkey(a.id, b.id), tw_value)
          for i, a in enumerate(cs) for b in cs[i + 1:]]
    return LinkState(circles=tuple(cs), tw=tuple(tw))


class TestMu:
    def test_counts_mod_two_per_label(self):
        st = type2s(Z4, [(2,), (2,), (2,)])
        assert mu(Z4, st).tolist() == [1]
        st2 = type2s(Z4, [(2,), (2,)])
        assert mu(Z4, st2).tolist() == [0]

    def test_identity_labels_ignored(self):
        st = type2s(Z4, [(0,), (2,)])
        assert mu(Z4, st).tolist() == [1]

    def test_q8_single_slot(self):
        st = type2s(Q8, [1])
        assert mu(Q8, st).tolist() == [1]

    def test_non_torsion_label_rejected(self):
        st = type2s(Z4, [(1,)])
        with pytest.raises(InvariantError):
            mu(Z4, st)

    def test_empty_for_torsion_free_group(self):
        assert mu(Z, hopf()).shape == (0,)


class TestDelta:
    def test_hopf_with_odd_label(self):
        assert delta(Z, Context(), hopf((1,))).tolist() == [1]
        assert delta(Z, Context(), hopf((2,))).tolist() == [0]

    def test_unlinked_active_invisible(self):
        st = LinkState(circles=tuple(pair("a", (1,))))
        assert delta(Z, Context(), st).tolist() == [0]

    def test_twisted_equal_type2_pair_contributes(self):
        st0 = type2s(Z2, [(1,), (1,)], tw_value=0)
        st1 = type2s(Z2, [(1,), (1,)], tw_value=1)
        assert delta(Z2, Context(), st0).tolist() == [0]
        assert delta(Z2, Context(), st1).tolist() == [1]

    def test_q8_minus_one_dies_in_h1(self):
        # -1 is a square in Q8, so a twisted pair labeled -1 is invisible
        st = type2s(Q8, [1, 1], tw_value=1)
        assert delta(Q8, Context(), st).tolist() == [0, 0]


class TestQuotients:
    def test_quotient_reduce(self):
        q = quotient_reduce([1, 0, 1], [[1, 0, 1]])
        assert q.is_zero and str(q) == "0"
        q2 = quotient_reduce([1, 1, 0], [[1, 0, 1]])
        assert not q2.is_zero and str(q2) == "011"

    def test_fq_needs_basing_or_dual(self):
        ctx = Context(based=False)
        with pytest.raises(InvariantError):
            fq(Z4, ctx, type2s(Z4, [(2,)]))
        assert not fq(Z4, Context(based=True), type2s(Z4, [(2,)])).is_zero

    def test_fq_kills_declared_classes(self):
        ctx = Context(based=True, mu_pi3=((1,),))
        assert fq(Z4, ctx, type2s(Z4, [(2,)])).is_zero

    def test_km_quotient(self):
        ctx = Context(delta_self=((1,),))
        assert km(Z, ctx, hopf((1,))).is_zero
        assert not km(Z, Context(), hopf((1,))).is_zero

    def test_km_rel_alpha_carries_tag(self):
        st = hopf((1,))
        st = LinkState(circles=st.circles, clasps=st.clasps,
                       tw=st.tw, homology_tag="alpha-3")
        d, tag = km_rel_alpha(Z, Context(), st)
        assert d.tolist() == [1] and tag == "alpha-3"


class TestReport:
    def test_notes_for_nonzero_mu(self):
        rep = invariant_report(Z4, Context(based=True), type2s(Z4, [(2,)]))
        assert rep.mu == (1,)
        assert any("mu is nonzero" in n for n in rep.notes)

    def test_fq_omitted_without_basing(self):
        rep = invariant_report(Z4, Context(based=False), type2s(Z4, [(2,)]))
        assert any("fq omitted" in n for n in rep.notes)

    def test_framed_schar_note(self):
        ctx = Context(s_characteristic=True, dual_sphere="framed", based=True)
        rep = invariant_report(Z, ctx, hopf())
        assert any("framed" in n for n in rep.notes)


class TestNormalizeDual:
    def test_forces_unframed_iff_schar(self):
        ctx = Context(s_characteristic=True, dual_sphere="framed")
        assert normalize_dual(ctx).dual_sphere == "unframed"
        ctx2 = Context(s_characteristic=False, dual_sphere="unframed")
        assert normalize_dual(ctx2).dual_sphere == "framed"
        ctx3 = Context(dual_sphere="framed")
        assert normalize_dual(ctx3) is ctx3

    def test_requires_dual(self):
        with pytest.raises(InvariantError):
            normalize_dual(Context())


class TestBound:
    def test_non_schar_counts_torsion(self):
        assert concordance_bound(Z, Context(dual_sphere="framed")) == 1
        assert concordance_bound(Z4, Context(dual_sphere="framed")) == 2
        # three nontrivial involutions in the Klein group
        assert concordance_bound(AbelianGroup(0, (2, 2)),
                                 Context(dual_sphere="framed")) == 8

    def test_schar_multiplies_h1(self):
        ctx = Context(s_characteristic=True, dual_sphere="unframed")
        assert concordance_bound(Z, ctx) == 2
        assert concordance_bound(Z4, ctx) == 4
        assert concordance_bound(Q8, ctx) == 8

    def test_not_applicable_when_quotient_nontrivial(self):
        ctx = Context(s_characteristic=True, dual_sphere="unframed",
                      mu_pi3=((1,),))
        assert concordance_bound(Z4, ctx) == "not applicable"

    def test_requires_dual(self):
        with pytest.raises(InvariantError):
            concordance_bound(Z, Context())


def test_missing_twist_entry_surfaces():
    cs = (Circle("s0", TYPE2, "s0", None, (1,)),
          Circle("s1", TYPE2, "s1", None, (1,)))
    st = LinkState(circles=cs)  # no tw table
    with pytest.raises(Exception):
        delta(Z2, Context(), st)


def test_sweep_computes_mu_once_per_state(monkeypatch):
    """The sweep carries each post-state's invariants to the next step, and
    still flags exactly the steps whose pre and post values differ."""
    calls, steps = [], []
    real_walk = randwalk.walk

    def parity_mu(G, state):
        calls.append(state)
        return np.array([len(state.circles) % 2])

    def recorded_walk(*args, **kwargs):
        for step in real_walk(*args, **kwargs):
            steps.append(step)
            yield step

    monkeypatch.setattr(randwalk, "mu", parity_mu)
    monkeypatch.setattr(randwalk, "walk", recorded_walk)
    rep = randwalk.sweep(seed=3, count=300, steps=50)
    flagged = [case[2] for case, kind, _ in rep.violations if kind == "mu"]
    want = [k + 1 for k, (pre, _, _, post) in enumerate(steps)
            if len(pre.circles) % 2 != len(post.circles) % 2]
    assert want and flagged == want
    walks = sum(k == 0 or pre is not steps[k - 1][3]
                for k, (pre, _, _, _) in enumerate(steps))
    assert len(steps) == rep.states == 300
    assert len(calls) == rep.states + walks
