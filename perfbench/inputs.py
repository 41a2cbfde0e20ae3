"""Seeded inputs for the benchmark, built without the program.

Every scenario here is plain JSON in the scenario-file schema, together
with the answer the benchmark expects for it.  The expected answers come
from the benchmark's own group constructions (multiplication tables, their
involutions and their mod-2 abelianisations), never from singlink.
"""

from __future__ import annotations

import random

SCHAR = {"s_characteristic": True, "dual_sphere": "unframed"}
FRAMED = {"s_characteristic": False, "dual_sphere": "framed"}

# n of the n-pair cycle.  An odd number of sizes puts the median operation
# of every whole pass in the middle size (n=24), so op_ms_p50 does not jump
# between sizes; the concordant/obstructed pattern is fixed per size so
# every seed gives the same mix of pipelines.
CYCLE_LADDER = (8, 12, 16, 24, 32, 48, 64)
CYCLE_CONCORDANT = (True, False, True, False, True, False, True)
Z_JSON = {"kind": "fg-abelian", "rank": 1, "torsion": [], "generators": [[1]]}


def _pair_circles(cid, label):
    return [{"id": cid, "kind": "type1", "partner": cid + "p",
             "role": "active", "label": label},
            {"id": cid + "p", "kind": "type1", "partner": cid,
             "role": "inactive"}]


def cycle_state(labels):
    """n Hopf pairs linked in one cycle: a_i links the dual of a_{i+1}."""
    m = len(labels)
    circles, lk = [], []
    for i, g in enumerate(labels):
        circles += _pair_circles(f"a{i}", g)
        lk.append(sorted([f"a{i}", f"a{(i + 1) % m}p"]))
    lk.sort()
    return {"circles": circles, "lk": lk, "clasps": [list(p) for p in lk],
            "tw": [], "homology_tag": None}


def _scenario(name, group, context, state):
    return {"schema_version": 1, "name": name, "group": group,
            "context": dict(context), "state": state, "script": []}


def cycle_scenarios(seed):
    """The `cycle` ladder over Z: [(scenario, expected)], where expected is
    ("Concordant", None) or ("Obstructed-km", [1])."""
    rng = random.Random(f"cycle-{seed}")
    out = []
    for n, concordant in zip(CYCLE_LADDER, CYCLE_CONCORDANT):
        labels = [rng.randint(-3, 3) for _ in range(n)]
        # delta over Z is the parity of the label sum; fix it per size
        if (sum(labels) % 2 == 0) != concordant:
            labels[-1] += 1 if labels[-1] < 3 else -1
        expected = ("Concordant", None) if concordant else ("Obstructed-km", [1])
        sc = _scenario(f"cycle-n{n}", Z_JSON, SCHAR,
                       cycle_state([[g] for g in labels]))
        out.append((sc, expected))
    return out


# -- finite groups by multiplication table ----------------------------------

class TableGroup:
    """The cyclic group Z/m or the dihedral group of order 2m (index k is
    r^k, index m + k is s r^k, with r s = s r^-1), with the facts the checks
    need: the class ``eps`` in H_1(G; Z/2) and the involutions."""

    def __init__(self, m, dihedral):
        self.m = m
        self.dihedral = dihedral
        self.n = 2 * m if dihedral else m
        self.name = f"{'D' if dihedral else 'C'}{m}"
        n = self.n
        if dihedral:
            self.generators = [1, m]
            self.table = [[0] * n for _ in range(n)]
            for x in range(n):
                bx, a = divmod(x, m)
                for y in range(n):
                    by, b = divmod(y, m)
                    k = (a + b) if by == 0 else (b - a)
                    self.table[x][y] = (bx ^ by) * m + k % m
            self.involutions = set(range(m, n))
        else:
            self.generators = [1]
            self.table = [[(a + b) % n for b in range(n)] for a in range(n)]
            self.involutions = set()
        if m % 2 == 0:
            self.involutions.add(m // 2)
        # 1, r, s and s r: every eps class has one
        self.near = [s * m + k for s in range(1 + dihedral) for k in range(2)]

    def rot(self, g):
        """Exponent k of g = s^b r^k, as the representative nearest 0."""
        k = g % self.m
        return k - self.m if k > self.m // 2 else k

    def refl(self, g):
        return g // self.m

    def eps(self, g):
        # squares and commutators generate <r^2>: index 4 in a dihedral
        # group with m even, 2 in one with m odd, and Z/m mod 2
        rot = (self.rot(g) % 2,) if self.m % 2 == 0 else ()
        return rot + ((self.refl(g),) if self.dihedral else ())

    def eps_sum(self, labels):
        out = tuple(0 for _ in self.eps(0))
        for g in labels:
            out = tuple((x + y) % 2 for x, y in zip(out, self.eps(g)))
        return out

    def json(self):
        return {"kind": "finite-table", "table": self.table,
                "generators": self.generators}


# cyclic and dihedral groups of order 64 to 255, small to large; the
# documented limit is order 255
TABLE_GROUPS = ((64, False), (32, True), (128, False), (64, True),
                (255, False), (127, True))
# framed states whose involution counts are left odd, by group index
FRAMED_OBSTRUCTED = (1, 2, 5)


def table_groups():
    return [TableGroup(m, dihedral) for m, dihedral in TABLE_GROUPS]


def _schar_labels(G, rng, size, odd):
    """Random labels among 1, r, s and s r whose eps-sum is
    zero, or with ``odd`` nonzero where H_1(G; Z/2) is nontrivial.  The
    rotation exponents and the reflections sum to a fixed parity, which
    fixes the verdict and keeps the balanced word `decide` builds short.
    Where m is odd, eps does not see the rotation parity; an odd rotation
    sum there needs a word of about m letters whose length also changes
    with the reduction's orientation (500 to 800 primitive steps at
    m = 255), so those sums are left out: `tables` stays a workload of the
    group layer."""
    want = (int(odd and G.m % 2 == 0), int(odd and G.dihedral))

    def parity(labels):
        return (sum(G.rot(g) for g in labels) % 2,
                sum(G.refl(g) for g in labels) % 2)

    labels = [rng.choice(G.near) for _ in range(size - 1)]
    have = parity(labels)
    labels.append(rng.choice([g for g in G.near
                              if parity([g]) == ((want[0] + have[0]) % 2,
                                                 (want[1] + have[1]) % 2)]))
    return labels


def _framed_state(G, rng, odd):
    """Two clasped Hopf pairs plus split type II circles.  Involution labels
    come in pairs (one extra when ``odd``); twist bits are x_a xor x_b with
    each (label, x) class even, so a cancelling pairing always exists."""
    circles, lk = [], []
    for i in range(2):
        circles += _pair_circles(f"a{i}", rng.randrange(G.n))
        lk.append(sorted([f"a{i}", f"a{i}p"]))
    lk.append(sorted(["a0", "a1p"]))
    t2 = [(0, 0)] * (1 + rng.randrange(3))
    invol = sorted(G.involutions)
    for _ in range(2 if invol else 0):
        g, x = rng.choice(invol), rng.randint(0, 1)
        t2 += [(g, x), (g, x)]
    if odd and invol:
        t2.append((rng.choice(invol), rng.randint(0, 1)))
    ids = [f"s{i}" for i in range(len(t2))]
    for cid, (g, _) in zip(ids, t2):
        circles.append({"id": cid, "kind": "type2", "partner": cid, "label": g})
    tw = []
    for i in range(len(t2)):
        for j in range(i + 1, len(t2)):
            if t2[i][0] == t2[j][0]:
                tw.append([[ids[i], ids[j]], t2[i][1] ^ t2[j][1]])
    counts = {}
    for g, _ in t2:
        if g:
            counts[g] = counts.get(g, 0) + 1
    obstructed = any(c % 2 for c in counts.values())
    lk.sort()
    state = {"circles": circles, "lk": lk, "clasps": [list(p) for p in lk],
             "tw": tw, "homology_tag": None}
    return state, obstructed


def table_scenarios(seed):
    """The `tables` inputs: [(scenario, expected outcome)], three per group
    (two s-characteristic cycles of 2-8 pairs and one framed state)."""
    rng = random.Random(f"tables-{seed}")
    out = []
    for gi, G in enumerate(table_groups()):
        gj = G.json()
        for size, odd in ((2 + gi, False), (8 - gi, True)):
            labels = _schar_labels(G, rng, size, odd)
            obstructed = any(G.eps_sum(labels))
            expected = "Obstructed-km" if obstructed else "Concordant"
            sc = _scenario(f"{G.name}-cycle{size}-{expected}", gj, SCHAR,
                           cycle_state(labels))
            out.append((sc, expected))
        state, obstructed = _framed_state(G, rng, gi in FRAMED_OBSTRUCTED)
        sc = _scenario(f"{G.name}-framed", gj, FRAMED, state)
        out.append((sc, "Obstructed-fq" if obstructed else "Concordant"))
    return out
