"""Invariant readouts: mu, fq, delta, km and the concordance-class bound.

mu lives in the GF(2) vector space spanned by the nontrivial 2-torsion
elements of the group; delta in H_1 with Z/2 coefficients.  fq and km are
their images in the user-declared quotients (mu_pi3, delta_self): the
ambient data that determines those subspaces is an input, never computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .f2 import F2Subspace
from .state import ACTIVE, TYPE1, TYPE2, Context, LinkState


class InvariantError(ValueError):
    pass


@dataclass(frozen=True)
class QuotientClass:
    rep: tuple                   # canonical coset representative, bits
    is_zero: bool

    def __str__(self):
        return "0" if self.is_zero else "".join(str(b) for b in self.rep)


def quotient_reduce(v, rows) -> QuotientClass:
    v = np.asarray(v, dtype=np.uint8)
    sub = F2Subspace(list(rows), v.shape[0])
    r = sub.reduce(v)
    return QuotientClass(rep=tuple(int(x) for x in r), is_zero=not np.any(r))


def _declared(ctx: Context, name: str, dim: int):
    """The spanning rows of the declared subspace ``name`` of ``ctx``; each
    row must have ``dim`` bits."""
    rows = getattr(ctx, name)
    for v in rows:
        if len(v) != dim:
            raise InvariantError(f"{name}: a row has {len(v)} bits, not {dim}")
    return rows


def mu(G, state: LinkState) -> np.ndarray:
    """Mod-2 count of type II circles per nontrivial 2-torsion label."""
    basis = G.two_torsion()
    index = {G.element_key(g): i for i, g in enumerate(basis)}
    out = np.zeros(len(basis), dtype=np.uint8)
    ik = G.element_key(G.identity)
    for c in state.type2_circles():
        k = G.element_key(c.label)
        if k == ik:
            continue
        if k not in index:
            raise InvariantError(f"type II label on {c.id!r} is not 2-torsion")
        out[index[k]] ^= 1
    return out


def fq(G, ctx: Context, state: LinkState) -> QuotientClass:
    if not ctx.based and ctx.dual_sphere is None:
        raise InvariantError("fq needs a based concordance or a dual sphere")
    m = mu(G, state)
    return quotient_reduce(m, _declared(ctx, "mu_pi3", len(m)))


def delta(G, ctx: Context, state: LinkState) -> np.ndarray:
    out = np.zeros(G.h1_dim(), dtype=np.uint8)
    for c in state.circles:
        if c.kind == TYPE1 and c.role == ACTIVE and state.lk_total(c.id):
            out ^= G.eps(c.label)
    t2 = state.type2_circles()
    for i, b in enumerate(t2):
        for c in t2[i + 1:]:
            if G.element_key(b.label) == G.element_key(c.label):
                if state.twist(b.id, c.id):
                    out ^= G.eps(b.label)
    return out


def km(G, ctx: Context, state: LinkState) -> QuotientClass:
    d = delta(G, ctx, state)
    return quotient_reduce(d, _declared(ctx, "delta_self", len(d)))


def km_rel_alpha(G, ctx: Context, state: LinkState):
    """delta without the self-concordance quotient, tagged by the homology
    class token the state carries."""
    return delta(G, ctx, state), state.homology_tag


@dataclass
class InvariantReport:
    mu: tuple
    fq_class: QuotientClass
    delta: tuple
    km_class: QuotientClass
    notes: list = field(default_factory=list)


def invariant_report(G, ctx: Context, state: LinkState) -> InvariantReport:
    m = mu(G, state)
    d = delta(G, ctx, state)
    notes = []
    if np.any(m):
        notes.append("mu is nonzero: delta and km assume a representative "
                     "with vanishing mu and are reported for pipeline use only")
    if ctx.s_characteristic and ctx.dual_sphere == "framed":
        notes.append("an s-characteristic sphere cannot have a framed dual; "
                     "treat the dual as unframed")
    if not ctx.based and ctx.dual_sphere is None:
        notes.append("fq omitted: needs a based concordance or a dual sphere")
        fqc = QuotientClass(rep=tuple(int(x) for x in m), is_zero=not np.any(m))
    else:
        fqc = fq(G, ctx, state)
    return InvariantReport(
        mu=tuple(int(x) for x in m),
        fq_class=fqc,
        delta=tuple(int(x) for x in d),
        km_class=km(G, ctx, state),
        notes=notes,
    )


def normalize_dual(ctx: Context) -> Context:
    """Fix the dual-sphere framing flag to the only geometrically possible
    value: trivial normal bundle unless the sphere is s-characteristic."""
    if ctx.dual_sphere is None:
        raise InvariantError("no dual sphere to normalize")
    want = "unframed" if ctx.s_characteristic else "framed"
    if ctx.dual_sphere == want:
        return ctx
    from dataclasses import replace
    return replace(ctx, dual_sphere=want)


def concordance_bound(G, ctx: Context):
    """Upper bound for the number of concordance classes within one homotopy
    class, or "not applicable" when the hypotheses fail."""
    if ctx.dual_sphere is None:
        raise InvariantError("the bound needs a dual sphere")
    t = len(G.two_torsion())
    if not ctx.s_characteristic:
        return 2 ** t
    if F2Subspace(list(_declared(ctx, "mu_pi3", t)), t).rank == 0:
        return (2 ** t) * (2 ** G.h1_dim())
    return "not applicable"
