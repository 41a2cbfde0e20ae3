"""Independent link-diagram kernel used to cross-check the move rules.

Diagrams are multi-component Gauss codes with signed crossings.  Planar
realizability is never checked (virtual crossings are fine) because only
linking numbers are consumed, and those are well-defined from the signs
alone.  Nothing in the main pipelines imports this module; it exists to
derive expected values for the abstract rewrite rules and to regression-
test them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .moves import MOVES
from .state import Circle, Context, LinkState, TYPE1, ACTIVE, INACTIVE


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class Diagram:
    # component name -> tuple of (crossing id, "o"|"u") visits, in circular order
    components: tuple
    # crossing id -> sign (+1 | -1)
    signs: tuple

    def comp(self, name):
        for n, visits in self.components:
            if n == name:
                return visits
        raise DiagramError(f"unknown component {name!r}")

    def sign(self, cid):
        for c, s in self.signs:
            if c == cid:
                return s
        raise DiagramError(f"crossing {cid!r} has no sign")


def make_diagram(components, signs) -> Diagram:
    d = Diagram(
        components=tuple(sorted((n, tuple(v)) for n, v in dict(components).items())),
        signs=tuple(sorted(dict(signs).items())),
    )
    seen = {}
    for name, visits in d.components:
        for cid, ou in visits:
            if ou not in ("o", "u"):
                raise DiagramError(f"bad strand tag {ou!r} at {cid!r}")
            seen.setdefault(cid, []).append((name, ou))
    for cid, hits in seen.items():
        d.sign(cid)
        if len(hits) != 2 or {ou for _, ou in hits} != {"o", "u"}:
            raise DiagramError(f"crossing {cid!r} must be visited once over, once under")
    return d


def lk_diagram(d: Diagram, A: str, B: str):
    """Signed inter-component crossing count, halved: (integer lk, mod-2 bit)."""
    if A == B:
        raise DiagramError("linking number needs two distinct components")
    va = {cid for cid, _ in d.comp(A)}
    vb = {cid for cid, _ in d.comp(B)}
    total = sum(d.sign(cid) for cid in va & vb)
    if total % 2:
        raise DiagramError("odd signed crossing count; not a classical linking")
    lk = total // 2
    return lk, lk % 2


# -- scenes -----------------------------------------------------------------

def _equal_pair(comps, signs, tag, x, y, sign=1):
    # one clasp: two crossings of equal sign, lk contribution = sign
    for j in (1, 2):
        cid = f"{tag}{j}"
        signs[cid] = sign
        comps.setdefault(x, []).append((cid, "o"))
        comps.setdefault(y, []).append((cid, "u"))


def scene(name: str, **params) -> Diagram:
    comps: dict = {}
    signs: dict = {}
    if name == "hopf":
        _equal_pair(comps, signs, "h", "A", "B")
    elif name == "split":
        comps["A"] = []
        comps["B"] = []
    elif name == "torus24":
        _equal_pair(comps, signs, "t1_", "A", "B")
        _equal_pair(comps, signs, "t2_", "A", "B")
    elif name == "meridians-with-twist":
        k = int(params.pop("k", 0))
        m = int(params.pop("m", 2))
        if k < 0 or m < 1:
            raise DiagramError("need k >= 0 and m >= 1")
        comps["A"] = []
        for i in range(1, m + 1):
            _equal_pair(comps, signs, f"a{i}_", f"C{i}", "A")
        # each full twist along the axis gives every meridian pair one clasp
        for t in range(k):
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    _equal_pair(comps, signs, f"t{t}_{i}_{j}_", f"C{i}", f"C{j}")
    elif name == "band-belt":
        comps["L1"] = []
        comps["L2"] = []
        _equal_pair(comps, signs, "b1_", "B", "L1")
        _equal_pair(comps, signs, "b2_", "B", "L2")
    elif name == "band-sum":
        p = int(params.pop("p", 1))
        q = int(params.pop("q", 1))
        comps["X"] = []
        comps["S"] = []
        for tag, comp, n in (("a", "A", p), ("b", "B", q)):
            comps.setdefault(comp, [])
            for i in range(abs(n)):
                _equal_pair(comps, signs, f"{tag}{i}_", comp, "X", 1 if n > 0 else -1)
                # the band-summed copy S runs parallel to both cores
                _equal_pair(comps, signs, f"s{tag}{i}_", "S", "X", 1 if n > 0 else -1)
        # the band itself crosses X with two cancelling clasps
        _equal_pair(comps, signs, "bp_", "S", "X", 1)
        _equal_pair(comps, signs, "bn_", "S", "X", -1)
    elif name == "clasp-finger":
        # post-state of resolving one clasp between A and B: the clasp is
        # replaced by cancelling crossings and a meridian pair appears on
        # the duals
        comps["A"] = []
        comps["B"] = []
        _equal_pair(comps, signs, "r1_", "A", "B", 1)
        _equal_pair(comps, signs, "r2_", "A", "B", -1)
        _equal_pair(comps, signs, "e1_", "E", "Ap")
        _equal_pair(comps, signs, "e2_", "Ep", "Bp")
    else:
        raise DiagramError(f"unknown scene {name!r}")
    if params:
        raise DiagramError(f"unused scene parameters: {sorted(params)}")
    return make_diagram(comps, signs)


# -- text codec -------------------------------------------------------------

def diagram_to_text(d: Diagram) -> str:
    lines = []
    for cid, s in d.signs:
        lines.append(f"crossing {cid} {'+' if s > 0 else '-'}{abs(s)}")
    for name, visits in d.components:
        body = " ".join(f"{cid}:{ou}" for cid, ou in visits)
        lines.append(f"component {name}: {body}".rstrip())
    return "\n".join(lines) + "\n"


def diagram_from_text(text: str) -> Diagram:
    comps, signs = {}, {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, rest = line.split(None, 1)
        if kind == "crossing":
            cid, s = rest.split()
            signs[cid] = int(s)
        elif kind == "component":
            name, _, body = rest.partition(":")
            visits = []
            for item in body.split():
                cid, ou = item.rsplit(":", 1)
                visits.append((cid, ou))
            comps[name.strip()] = visits
        else:
            raise DiagramError(f"bad line: {raw!r}")
    return make_diagram(comps, signs)


# -- cross-checks against the abstract rules --------------------------------

@dataclass
class CheckReport:
    rule: str
    cases: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _pair(cid, label=None, G=None):
    g = label if label is not None else (G.identity if G else (0,))
    return [Circle(cid, TYPE1, cid + "p", ACTIVE, g),
            Circle(cid + "p", TYPE1, cid, INACTIVE)]


def _check(report, case, got, want):
    report.cases += 1
    if got != want:
        report.mismatches.append((case, got, want))


def _rule_twist(G, report, ks, ms):
    for k in ks:
        for m in ms:
            d = scene("meridians-with-twist", k=k, m=m)
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    _, bit = lk_diagram(d, f"C{i}", f"C{j}")
                    _check(report, ("parity", k, m, i, j), bit, k % 2)
    # the surgery rule itself realizes k in {0, 1}: deleting the axis pair
    # leaves the meridian linkings unchanged (framed) or flipped (unframed);
    # the unframed case needs an even meridian count
    for k, framing, mm in ((0, "framed", (2, 3)), (1, "unframed", (2, 4))):
        ctx = Context(s_characteristic=(framing == "unframed"),
                      dual_sphere=framing)
        for m in mm:
            circles = _pair("A", G=G)
            for i in range(1, m + 1):
                circles += _pair(f"C{i}", G=G)
            clasps = tuple((f"C{i}", "A") for i in range(1, m + 1))
            st = LinkState(circles=tuple(circles), clasps=clasps)
            post, _ = MOVES["ambient_surgery"](G, ctx, st, a="A")
            d = scene("meridians-with-twist", k=k, m=m)
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    _, bit = lk_diagram(d, f"C{i}", f"C{j}")
                    _check(report, ("surgery", framing, m, i, j),
                           post.linking(f"C{i}", f"C{j}"), bit)


def _rule_belt(G, report):
    d = scene("band-belt")
    ctx = Context(dual_sphere="framed")
    st = LinkState(circles=tuple(_pair("U", G=G)))
    spec = {"a": "U", "b": "Up", "mode": "inverse", "nu": 0,
            "clean": False, "n": 1}
    post, info = MOVES["whitney_move"](G, ctx, st, spec=spec)
    (o1, _), (o2, _) = info["outputs"]
    belts = sorted(c.id for c in post.circles if c.id.startswith("belt")
                   and post.circle(c.id).role == ACTIVE)
    belt = belts[0]
    for side, out in (("L1", o1), ("L2", o2)):
        _, bit = lk_diagram(d, "B", side)
        _check(report, ("belt", side), post.linking(belt, out), bit)
    _, bit = lk_diagram(d, "L1", "L2")
    _check(report, ("belt", "sides"), post.linking(o1, o2), bit)


def _rule_band_sum(G, report, rng=(-2, 3)):
    ctx = Context()
    for p in range(*rng):
        for q in range(*rng):
            d = scene("band-sum", p=p, q=q)
            lkv, bit = lk_diagram(d, "S", "X")
            _check(report, ("integer", p, q), lkv, p + q)
            circles = _pair("A", G=G) + _pair("B", G=G) + _pair("X", G=G)
            clasps = (("A", "X"),) * (p % 2) + (("B", "X"),) * (q % 2)
            st = LinkState(circles=tuple(circles), clasps=clasps)
            spec = {"a": "A", "b": "B", "mode": "equal", "clean": True}
            post, info = MOVES["whitney_move"](G, ctx, st, spec=spec)
            c, _ = info["outputs"]
            _check(report, ("merge", p, q), post.linking(c, "X"), bit)


def _rule_clasp_finger(G, report):
    d = scene("clasp-finger")
    circles = _pair("A", G=G) + _pair("B", G=G)
    st = LinkState(circles=tuple(circles), clasps=(("A", "B"),))
    post, info = MOVES["clasp_finger"](G, Context(), st, a="A", b="B")
    e, ep = info["spawned"]
    for case, got, pair in (
        (("meridian", "A"), post.linking(e, "Ap"), ("E", "Ap")),
        (("meridian", "B"), post.linking(ep, "Bp"), ("Ep", "Bp")),
        (("resolved", "AB"), post.linking("A", "B"), ("A", "B")),
        (("cross", 1), post.linking(e, "Bp"), ("E", "Bp")),
        (("cross", 2), post.linking(ep, "Ap"), ("Ep", "Ap")),
    ):
        _, bit = lk_diagram(d, *pair)
        _check(report, case, got, bit)


RULES = ("twist-rule", "belt-linking", "band-sum", "clasp-finger-linking")


def crosscheck(rule: str, ks=range(0, 5), ms=(2, 3)) -> CheckReport:
    from .groups import AbelianGroup
    G = AbelianGroup(1)
    report = CheckReport(rule=rule)
    if rule == "twist-rule":
        _rule_twist(G, report, ks, ms)
    elif rule == "belt-linking":
        _rule_belt(G, report)
    elif rule == "band-sum":
        _rule_band_sum(G, report)
    elif rule == "clasp-finger-linking":
        _rule_clasp_finger(G, report)
    else:
        raise DiagramError(f"unknown rule {rule!r}")
    return report


def crosscheck_all():
    return [crosscheck(rule) for rule in RULES]
