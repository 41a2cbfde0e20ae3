"""Decorated singular-link states.

A state is a finite set of labeled circles with mod-2 linking data:

* type I circles come in dual pairs (one active, one inactive); the group
  label is stored on the active circle and reads as its inverse from the
  inactive side,
* type II circles are self-dual and carry an involution label,
* ``clasps`` is a multiset of unordered circle pairs, and ``tw`` a mod-2
  twist bit for pairs of equal-labeled type II circles.

A clasp realizes a linking, so the symmetric mod-2 linking relation ``lk``
is not stored: two distinct circles link exactly when an odd number of
clasps join them.  Every linking and clasp lookup, ``lk`` included, is
read off one per-circle map of clasp counts built from ``clasps``.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from string import digits

from . import groups as G_

TYPE1 = "type1"
TYPE2 = "type2"
ACTIVE = "active"
INACTIVE = "inactive"


_ID = attrgetter("id")
# encodes as json.dumps(obj, sort_keys=True, separators=(",", ":")) does
_CANON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class StateError(ValueError):
    pass


@dataclass(frozen=True)
class Circle:
    id: str
    kind: str
    partner: str
    role: str | None = None          # type1 only
    label: object = None             # active type1 and type2 only

    def json_text(self, G) -> str:
        """The circle's canonical JSON text, the encoding of
        `_circle_to_json` with its keys in sorted order, cached together
        with the group it was encoded under: the label's encoding depends
        on the group."""
        got = self.__dict__.get("_text")
        if got is None or got[0] is not G:
            enc = _CANON.encode
            label = ("" if self.label is None else
                     f',"label":{enc(G_.element_to_json(G, self.label))}')
            role = f',"role":{enc(self.role)}' if self.kind == TYPE1 else ""
            got = (G, f'{{"id":{enc(self.id)},"kind":{enc(self.kind)}{label},'
                      f'"partner":{enc(self.partner)}{role}}}')
            object.__setattr__(self, "_text", got)
        return got[1]


@dataclass(frozen=True)
class Context:
    """Ambient data the invariants depend on but the link does not encode."""

    s_characteristic: bool = False
    dual_sphere: str | None = None   # None | "framed" | "unframed"
    based: bool = True
    mu_pi3: tuple = ()               # spanning bit-vectors over the two-torsion basis
    delta_self: tuple = ()           # spanning bit-vectors over the H_1 basis
    boundary_note: str = ""


def pkey(a: str, b: str) -> tuple:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class LinkState:
    """A state with its fields in canonical order, the order of its
    canonical JSON: construction sorts them."""

    circles: tuple = ()              # sorted by id
    clasps: tuple = ()               # sorted multiset of sorted pairs
    tw: tuple = ()                   # sorted ((a, b), bit), equal-labeled type2 pairs
    homology_tag: str | None = None

    def __post_init__(self):
        # a `Draft` freezes its states in canonical order without this
        object.__setattr__(self, "circles", tuple(sorted(self.circles, key=_ID)))
        object.__setattr__(self, "clasps", tuple(sorted(pkey(*p) for p in self.clasps)))
        object.__setattr__(self, "tw", tuple(sorted(
            (pkey(*p), int(bit) & 1) for p, bit in self.tw)))

    # -- index -------------------------------------------------------------
    # built on first use, or by a `Draft` from its base's; the fields, and
    # so the canonical JSON and the hash, stay the only state
    @cached_property
    def _by_id(self):
        # reversed: with duplicate ids (an invalid state) the first wins
        return {c.id: c for c in reversed(self.circles)}

    @cached_property
    def _links(self):
        """Circle id -> {other circle id: number of clasps joining them};
        a self-clasp counts once, in its circle's row."""
        links = {}
        for a, b in self.clasps:
            n = links.setdefault(a, {}).get(b, 0) + 1
            links[a][b] = links.setdefault(b, {})[a] = n
        return links

    @cached_property
    def _free(self):
        """Id prefix -> a bound below which every id ``f"{prefix}{i}"`` is
        taken; a prefix with no entry has the bound 0."""
        return {}

    @cached_property
    def lk(self):
        """Sorted pairs of distinct circles with linking 1: those joined by
        an odd number of clasps."""
        return frozenset((a, b) for a, row in self._links.items()
                         for b, n in row.items() if n % 2 and a < b)

    # -- access ------------------------------------------------------------
    def circle(self, cid: str) -> Circle:
        try:
            return self._by_id[cid]
        except (KeyError, TypeError):         # TypeError: an unhashable id
            raise StateError(f"no circle with id {cid!r}") from None

    def linking(self, a: str, b: str) -> int:
        return 1 if a != b and self.clasp_count(a, b) % 2 else 0

    def lk_total(self, cid: str) -> int:
        """lk(C, L - C) mod 2: the parity of the clasps joining C to the
        other circles."""
        row = self._links.get(cid, {})
        return (sum(row.values()) - row.get(cid, 0)) % 2

    def linked_ids(self, cid: str):
        """The sorted ids of the other circles that ``cid`` links."""
        return sorted([x for x, n in self._links.get(cid, {}).items()
                       if n % 2 and x != cid])

    def twist(self, a: str, b: str) -> int:
        k = pkey(a, b)
        for p, bit in self.tw:
            if p == k:
                return bit
        raise StateError(f"missing tw entry for pair {k}")

    def read(self, G, cid: str):
        """Group element read at a circle: stored label on active/type II
        circles, the inverse of the partner's label on inactive ones."""
        c = self.circle(cid)
        if c.kind == TYPE2 or c.role == ACTIVE:
            return c.label
        return G.inv(self.circle(c.partner).label)

    def pairs(self):
        """Type I dual pairs as (active, inactive) circle tuples, in order
        of active id."""
        return [(c, self.circle(c.partner)) for c in self.circles
                if c.kind == TYPE1 and c.role == ACTIVE]

    def type2_circles(self):
        return [c for c in self.circles if c.kind == TYPE2]

    def clasp_count(self, a: str, b: str) -> int:
        return self._links.get(a, {}).get(b, 0)

    def clasps_at(self, cid: str):
        """The distinct clasp pairs at circle ``cid``."""
        return {pkey(cid, x) for x in self._links.get(cid, ())}

    def fresh_ids(self, count: int, prefix: str = "c"):
        """The ``count`` smallest ids ``f"{prefix}{i}"`` that no circle
        has.  The search starts at the prefix's bound, and raises the bound
        to the first free id it finds."""
        # each candidate is tried once, so only the state's ids can clash
        by_id, out, n = self._by_id, [], self._free.get(prefix, 0)
        while len(out) < count:
            cid = f"{prefix}{n}"
            if cid not in by_id:
                if not out:
                    self._free[prefix] = n
                out.append(cid)
            n += 1
        return out


class Draft:
    """A state under edit, which a move, or the chain of primitives of a
    composite move, rewrites before `freeze` makes it a `LinkState`.

    A draft answers the queries of `LinkState`, borrowed from it, with its
    edits applied.  It keeps copies of the fields and indexes they read,
    and copies a clasp-count row on the first edit of that row, so it
    never changes its base.  An edit keeps every field in canonical order
    without sorting it, and edits the texts of circles and clasps the base
    kept (see `state_hash`) at the same slots.  The fresh-id bounds of the
    base carry over, and a removal lowers them, so `fresh_ids` still
    finds the smallest free ids."""

    circle = LinkState.circle
    read = LinkState.read
    linked_ids = LinkState.linked_ids
    clasp_count = LinkState.clasp_count
    clasps_at = LinkState.clasps_at
    linking = LinkState.linking
    twist = LinkState.twist
    type2_circles = LinkState.type2_circles
    pairs = LinkState.pairs
    fresh_ids = LinkState.fresh_ids

    def __init__(self, base: LinkState):
        self.base = base
        self.circles, self.clasps = list(base.circles), list(base.clasps)
        self.tw = list(base.tw)
        self._by_id, self._links = dict(base._by_id), dict(base._links)
        self._free = dict(base._free)
        self._flipped = set()      # the pairs whose linking the edits flipped
        texts = base.__dict__.get("_texts")
        self._texts = texts and (texts[0], list(texts[1]), list(texts[2]))

    # -- edits ---------------------------------------------------------------
    def add_circle(self, c: Circle):
        """Put in ``c``, whose id no circle of the draft has."""
        i = bisect_right(self.circles, c.id, key=_ID)
        self.circles.insert(i, c)
        self._by_id[c.id] = c
        if self._texts is not None:
            self._texts[1].insert(i, c.json_text(self._texts[0]))

    def add_pair(self, act_id: str, inact_id: str, label):
        self.add_circle(Circle(act_id, TYPE1, inact_id, ACTIVE, label))
        self.add_circle(Circle(inact_id, TYPE1, act_id, INACTIVE))

    def replace_circle(self, c: Circle):
        """Put ``c`` in place of the circle with its id."""
        i = bisect_left(self.circles, c.id, key=_ID)
        self.circles[i] = self._by_id[c.id] = c
        if self._texts is not None:
            self._texts[1][i] = c.json_text(self._texts[0])

    def remove_circle(self, cid: str):
        """Take out circle ``cid`` with its clasps and twist entries."""
        for x in list(self._links.get(cid, ())):
            self.set_clasp_count(cid, x, 0)
        i = bisect_left(self.circles, cid, key=_ID)
        del self.circles[i], self._by_id[cid]
        if self._texts is not None:
            del self._texts[1][i]
        if self.tw:
            self.tw = [e for e in self.tw if cid not in e[0]]
        # the id lowers the bound of each prefix it is an index of, as
        # ``f"{prefix}{i}"``: the prefix followed by the ASCII digits of i,
        # with no leading zero ("²".isdigit() holds, but rstrip keeps it)
        if type(cid) is str:
            free, end = self._free, len(cid)
            for j in range(len(cid.rstrip(digits)), end):
                n = free.get(cid[:j])
                if (n and (cid[j] != "0" or j == end - 1)
                        and end - j <= len(str(n)) and int(cid[j:]) < n):
                    free[cid[:j]] = int(cid[j:])

    def set_clasp_count(self, a: str, b: str, n: int):
        """Make ``n`` clasps join ``a`` and ``b``."""
        if b < a:
            a, b = b, a
        links = self._links
        row = links.get(a)
        was = row.get(b, 0) if row else 0
        if n == was:
            return
        k = a, b
        lo = bisect_left(self.clasps, k)
        self.clasps[lo:lo + was] = [k] * n
        if self._texts is not None:
            self._texts[2][lo:lo + was] = [_pair_json(a, b)] * n
        # a self-clasp counts once, in its circle's row
        ends = ((a, b, row),) if a == b else ((a, b, row), (b, a, links.get(b)))
        base = self.base._links
        for x, y, row in ends:
            if row is None or row is base.get(x):     # copied on its first edit
                row = links[x] = dict(row) if row else {}
            if n:
                row[y] = n
            else:
                del row[y]
                if not row:
                    del links[x]
        if (n - was) % 2 and a != b:
            flipped = self._flipped
            if k in flipped:
                flipped.remove(k)
            else:
                flipped.add(k)

    def add_clasp(self, a: str, b: str):
        self.set_clasp_count(a, b, self.clasp_count(a, b) + 1)

    def add_twist(self, a: str, b: str, bit: int):
        """Put in the twist entry of a pair that has none."""
        insort(self.tw, (pkey(a, b), bit))

    def freeze(self) -> LinkState:
        """The edited state, with the draft's indexes and kept texts; the
        draft is not edited after this."""
        new = object.__new__(LinkState)
        new.__dict__.update(circles=tuple(self.circles),
                            clasps=tuple(self.clasps), tw=tuple(self.tw),
                            homology_tag=self.base.homology_tag,
                            _by_id=self._by_id, _links=self._links,
                            _free=self._free, lk=self.base.lk ^ self._flipped,
                            _texts=self._texts)
        return new


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(G, ctx: Context, state: LinkState) -> ValidationReport:
    rep = ValidationReport()
    bad = rep.violations.append
    ids = [c.id for c in state.circles]
    if len(set(ids)) != len(ids):
        bad(("duplicate-ids", tuple(sorted(i for i in ids if ids.count(i) > 1))))
        return rep
    by_id = {c.id: c for c in state.circles}
    keys = {}                    # type II circle id -> key of its valid label

    for c in state.circles:
        if c.kind == TYPE1:
            if c.role not in (ACTIVE, INACTIVE):
                bad(("bad-role", c.id))
                continue
            p = by_id.get(c.partner)
            if p is None or p.kind != TYPE1 or p.partner != c.id or p.role == c.role:
                bad(("broken-duality", c.id))
                continue
            if c.role == ACTIVE:
                try:
                    G.check(c.label)
                except G_.GroupError:
                    bad(("bad-label", c.id))
            elif c.label is not None:
                bad(("inactive-label-stored", c.id))
        elif c.kind == TYPE2:
            if c.partner != c.id or c.role is not None:
                bad(("type2-not-self-dual", c.id))
            try:
                g = G.check(c.label)
                keys[c.id] = G.element_key(g)
                if G.mul(g, g) != G.identity:
                    bad(("type2-label-not-involution", c.id))
            except G_.GroupError:
                bad(("bad-label", c.id))
        else:
            bad(("bad-kind", c.id))

    for a, b in state.clasps:
        if a not in by_id or b not in by_id:
            bad(("dangling-clasp", (a, b)))

    tw_keys = [p for p, _ in state.tw]
    if len(set(tw_keys)) != len(tw_keys):
        bad(("duplicate-tw-entries", tuple(sorted(set(k for k in tw_keys if tw_keys.count(k) > 1)))))
    for a, b in tw_keys:
        ca, cb = by_id.get(a), by_id.get(b)
        if ca is None or cb is None or ca.kind != TYPE2 or cb.kind != TYPE2 or a == b:
            bad(("bad-tw-domain", (a, b)))
        elif a in keys and b in keys and keys[a] != keys[b]:
            bad(("tw-label-mismatch", (a, b)))
    # tw must be total on equal-labeled type II pairs
    t2 = list(keys.items())
    have = set(tw_keys)
    for i, (a, ka) in enumerate(t2):
        for b, kb in t2[i + 1:]:
            if ka == kb and pkey(a, b) not in have:
                bad(("missing-tw-entry", pkey(a, b)))

    if ctx.s_characteristic and ctx.dual_sphere is not None and rep.ok:
        # dual-sphere parity: both members of a dual pair link the rest of
        # the link with the same parity
        for act, inact in state.pairs():
            if state.lk_total(act.id) != state.lk_total(inact.id):
                bad(("dual-parity", (act.id, inact.id)))

    tdim = len(G.two_torsion())
    for v in ctx.mu_pi3:
        if len(v) != tdim:
            bad(("mu-pi3-dim", len(v)))
    hdim = G.h1_dim()
    for v in ctx.delta_self:
        if len(v) != hdim:
            bad(("delta-self-dim", len(v)))

    if ctx.s_characteristic and ctx.dual_sphere == "framed":
        rep.warnings.append(("framed-dual-forced-unframed", None))
    return rep


# -- serialization ---------------------------------------------------------

def _circle_to_json(G, c: Circle) -> dict:
    obj = {"id": c.id, "kind": c.kind, "partner": c.partner}
    if c.kind == TYPE1:
        obj["role"] = c.role
    if c.label is not None:
        obj["label"] = G_.element_to_json(G, c.label)
    return obj


def state_to_json(G, state: LinkState) -> dict:
    return {
        "circles": [_circle_to_json(G, c) for c in state.circles],
        "lk": sorted([list(p) for p in state.lk]),
        "clasps": [list(p) for p in state.clasps],
        "tw": [[list(p), bit] for p, bit in state.tw],
        "homology_tag": state.homology_tag,
    }


def state_from_json(G, obj: dict) -> LinkState:
    circles = []
    for c in obj.get("circles", []):
        label = c.get("label")
        if label is not None:
            label = G_.element_from_json(G, label)
        circles.append(Circle(
            id=c["id"], kind=c["kind"], partner=c.get("partner", c["id"]),
            role=c.get("role"), label=label,
        ))
    clasps = tuple(tuple(p) for p in obj.get("clasps", []))
    tw = tuple((tuple(p), bit) for p, bit in obj.get("tw", []))
    if not all(type(bit) is int and bit in (0, 1) for _, bit in tw):
        raise StateError("every twist bit must be the integer 0 or 1")
    pairs = clasps + tuple(p for p, _ in tw)
    if (any(len(p) != 2 for p in pairs)
            or not all(type(c.id) is str and type(c.partner) is str for c in circles)
            or not all(type(a) is str and type(b) is str for a, b in pairs)):
        raise StateError("circle ids must be strings, and every clasp and "
                         "twist entry must name a pair of them")
    tag = obj.get("homology_tag")
    if tag is not None and type(tag) is not str:
        raise StateError(f"homology_tag must be null or a string, got {tag!r}")
    state = LinkState(circles=tuple(circles), clasps=clasps, tw=tw,
                      homology_tag=tag)
    lk = {pkey(*p) for p in obj.get("lk", [])}
    if lk != state.lk:
        raise StateError(
            f"lk disagrees with the clasp parity at {sorted(lk ^ state.lk)}")
    return state


def context_to_json(ctx: Context) -> dict:
    return {
        "s_characteristic": ctx.s_characteristic,
        "dual_sphere": ctx.dual_sphere,
        "based": ctx.based,
        "mu_pi3": [list(map(int, v)) for v in ctx.mu_pi3],
        "delta_self": [list(map(int, v)) for v in ctx.delta_self],
        "boundary_note": ctx.boundary_note,
    }


def _context_flag(obj, key, default):
    v = obj.get(key, default)
    if not isinstance(v, bool):
        raise StateError(f"context {key!r} must be true or false, got {v!r}")
    return v


def _context_rows(obj, key):
    rows = obj.get(key, [])
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(type(x) is int and x in (0, 1) for x in r)
            for r in rows):
        raise StateError(
            f"context {key!r} must be a list of rows of 0/1 integers, got {rows!r}")
    return tuple(map(tuple, rows))


def context_from_json(obj: dict) -> Context:
    dual = obj.get("dual_sphere")
    if dual not in (None, "framed", "unframed"):
        raise StateError(
            f"context 'dual_sphere' must be null, framed or unframed, got {dual!r}")
    note = obj.get("boundary_note", "")
    if type(note) is not str:
        raise StateError(f"context 'boundary_note' must be a string, got {note!r}")
    return Context(
        s_characteristic=_context_flag(obj, "s_characteristic", False),
        dual_sphere=dual,
        based=_context_flag(obj, "based", True),
        mu_pi3=_context_rows(obj, "mu_pi3"),
        delta_self=_context_rows(obj, "delta_self"),
        boundary_note=note,
    )


def _pair_json(a: str, b: str) -> str:
    return f"[{_json_str(a)},{_json_str(b)}]"


def _pairs_json(pairs) -> str:
    return ",".join([_pair_json(a, b) for a, b in pairs])


def state_hash(G, state: LinkState) -> str:
    """sha256 of the canonical JSON of the state, the text of
    ``json.dumps(state_to_json(G, state), sort_keys=True,
    separators=(",", ":"))``, joined from kept texts.

    On its first hash under a group, a state keeps the texts of its
    circles and clasps under that group, in the order of its fields, and a
    `Draft` carries them into the states built from it.  The
    digest is kept on the state with its group too, so a state is hashed
    once under one group; under another group both are computed again."""
    got = state.__dict__.get("_hash")
    if got is not None and got[0] is G:
        return got[1]
    texts = state.__dict__.get("_texts")
    if texts is None or texts[0] is not G:
        texts = state.__dict__["_texts"] = (
            G, [c.json_text(G) for c in state.circles],
            [_pair_json(a, b) for a, b in state.clasps])
    circles, clasps = ",".join(texts[1]), ",".join(texts[2])
    # lk holds at most one pair per clasp; holding as many as there are
    # clasps, it is the set of clasps
    lk = clasps if len(state.lk) == len(state.clasps) else _pairs_json(sorted(state.lk))
    tw = ",".join([f"[[{_json_str(a)},{_json_str(b)}],{bit}]"
                   for (a, b), bit in state.tw])
    blob = (f'{{"circles":[{circles}],"clasps":[{clasps}],"homology_tag":'
            f'{_CANON.encode(state.homology_tag)},"lk":[{lk}],"tw":[{tw}]}}')
    digest = hashlib.sha256(blob.encode()).hexdigest()
    state.__dict__["_hash"] = (G, digest)
    return digest
