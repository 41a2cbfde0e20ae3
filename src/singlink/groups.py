"""Group models for the ambient fundamental group.

Two representations are supported:

* ``FiniteGroup`` -- an explicit multiplication table on indices ``0..n-1``
  with identity ``0``, exhaustively validated on construction.
* ``AbelianGroup`` -- a finitely generated abelian group
  ``Z^rank + Z/n_1 + ... + Z/n_k`` with elements as integer vectors.

Both expose the same duck-typed surface: ``identity``, ``mul``, ``inv``,
``two_torsion``, ``eps`` (reduction to H_1 of the ambient space with Z/2
coefficients) and ``balanced_word``.
"""

from __future__ import annotations

import operator
from collections import deque

import numpy as np

MAX_TABLE_ORDER = 255
MAX_GENERATORS = 16
_ASSOC_ROWS = 16                 # rows per block of the associativity check


class GroupError(ValueError):
    pass


class FiniteGroup:
    def __init__(self, table, generators=None):
        t = np.asarray(table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise GroupError("multiplication table must be square")
        n = t.shape[0]
        if n == 0 or n > MAX_TABLE_ORDER:
            raise GroupError(f"table order must be in 1..{MAX_TABLE_ORDER}")
        if t.min() < 0 or t.max() >= n:
            raise GroupError("table entries out of range")
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise GroupError("index 0 must be the identity")
        # associativity: (ab)c == a(bc) for all triples, vectorized over
        # blocks of rows a so memory stays O(n^2)
        for lo in range(0, n, _ASSOC_ROWS):
            blk = t[lo:lo + _ASSOC_ROWS]
            # t[blk][a,b,c] = t[t[a,b], c];  blk[:, t][a,b,c] = t[a, t[b,c]]
            if not np.array_equal(t[blk], blk[:, t]):
                raise GroupError("table is not associative")
        inv = np.full(n, -1, dtype=np.int64)
        rows, cols = np.where(t == 0)
        inv[rows] = cols
        if np.any(inv < 0) or np.any(t[np.arange(n), inv] != 0):
            raise GroupError("table has no two-sided inverses")
        self.table = t
        self.n = n
        self._inv = inv
        if generators is None:
            # greedy: each element outside the span so far at least doubles
            # it, so at most log2(n) generators
            generators, span = [], {0}
            for g in range(1, n):
                if g not in span:
                    generators.append(g)
                    span = self._span(generators)
            generators = generators or [0]
        self.generators = [self.check(g) for g in generators]
        if not self.generators:
            raise GroupError("generator list must be nonempty")
        if len(self._span(self.generators)) != n:
            raise GroupError("generators do not generate the group")

    def _span(self, gens):
        """Elements of the subgroup generated by ``gens``: in a finite group
        closing under right multiplication by them is enough."""
        sub = {0}
        frontier = deque(sub)
        while frontier:
            x = frontier.popleft()
            for g in gens:
                y = self.mul(x, g)
                if y not in sub:
                    sub.add(y)
                    frontier.append(y)
        return sub

    # -- basic ops ---------------------------------------------------------
    @property
    def identity(self):
        return 0

    def check(self, g):
        if not isinstance(g, (int, np.integer)) or not (0 <= int(g) < self.n):
            raise GroupError(f"not a group element: {g!r}")
        return int(g)

    def mul(self, a, b):
        return int(self.table[self.check(a), self.check(b)])

    def inv(self, a):
        return int(self._inv[self.check(a)])

    def elements(self):
        return list(range(self.n))

    def element_key(self, g):
        return self.check(g)

    def two_torsion(self):
        """Nontrivial involutions, in index order."""
        diag = self.table[np.arange(self.n), np.arange(self.n)]
        return [g for g in range(1, self.n) if diag[g] == 0]

    # -- H_1(X; Z/2) -------------------------------------------------------
    def _h1_setup(self):
        if not hasattr(self, "_h1"):
            n = self.n
            # the squares generate the kernel of G -> H_1(G; Z/2): the
            # subgroup is normal, and it holds every commutator, as
            # a b a^-1 b^-1 = a^2 (a^-1 b)^2 b^-2
            sub = self._span(set(self.table.diagonal().tolist()))
            # coset labels
            coset = {}
            rep = []
            for g in range(n):
                if g in coset:
                    continue
                cid = len(rep)
                rep.append(g)
                for s in sub:
                    coset[self.mul(g, s)] = cid
            # the quotient is elementary abelian 2; pick a greedy basis
            basis = []
            span = {coset[0]: np.zeros(0, dtype=np.uint8)}
            for g in range(n):
                c = coset[g]
                if c not in span:
                    basis.append(g)
                    new_span = {}
                    for cid, vec in span.items():
                        gv = self.mul(rep[cid], g)
                        new_span[coset[gv]] = np.concatenate([vec, [1]])
                    span = {cid: np.concatenate([vec, [0]]) for cid, vec in span.items()}
                    span.update(new_span)
            d = len(basis)
            coords = {cid: vec for cid, vec in span.items()}
            self._h1 = (d, coset, coords)
        return self._h1

    def h1_dim(self):
        return self._h1_setup()[0]

    def eps(self, g):
        d, coset, coords = self._h1_setup()
        return coords[coset[self.check(g)]].astype(np.uint8)

    # -- balanced words ----------------------------------------------------
    def balanced_word(self, x):
        """Word in the generators multiplying to ``x`` with every generator
        appearing an even number of times; BFS over (element, parity) pairs.

        Returns a list of (generator index, exponent) letters or raises if no
        such word exists.
        """
        gens = self.generators
        if len(gens) > MAX_GENERATORS:
            raise GroupError(f"at most {MAX_GENERATORS} generators supported")
        x = self.check(x)
        start = (0, 0)
        target_mask = 0
        prev = {start: None}
        q = deque([start])
        while q:
            node = q.popleft()
            elem, mask = node
            if elem == x and mask == target_mask and node != start:
                break
            for i, g in enumerate(gens):
                for e, gg in ((1, g), (-1, self._inv[g])):
                    nxt = (self.mul(elem, int(gg)), mask ^ (1 << i))
                    if nxt not in prev:
                        prev[nxt] = (node, i, e)
                        q.append(nxt)
        goal = (x, target_mask)
        if goal == start:
            return []
        if goal not in prev:
            raise GroupError("element admits no balanced word in the given generators")
        word = []
        node = goal
        while prev[node] is not None:
            node, i, e = prev[node]
            word.append((i, e))
        word.reverse()
        return word


class AbelianGroup:
    """Z^rank + Z/n_1 + ... + Z/n_k; elements are int tuples of length
    rank + k, torsion coordinates reduced into [0, n_i)."""

    def __init__(self, rank, torsion=(), generators=None):
        self.rank = int(rank)
        self.torsion = tuple(int(n) for n in torsion)
        if self.rank < 0 or any(n < 2 for n in self.torsion):
            raise GroupError("rank must be >= 0 and torsion orders >= 2")
        self.dim = self.rank + len(self.torsion)
        if generators is None:
            generators = [tuple(1 if j == i else 0 for j in range(self.dim)) for i in range(self.dim)]
        self.generators = [self.check(g) for g in generators]
        if self.dim and not self.generators:
            raise GroupError("generator list must be nonempty")
        for i in range(self.dim):
            e = tuple(1 if j == i else 0 for j in range(self.dim))
            try:
                self._solve(self.generators, self.check(e))
            except GroupError:
                raise GroupError("generators do not generate the group")

    @property
    def identity(self):
        return (0,) * self.dim

    def check(self, g):
        try:
            v = tuple(map(operator.index, g))
        except TypeError:
            raise GroupError(f"not a group element: {g!r}") from None
        if len(v) != self.dim:
            raise GroupError(f"element has wrong length: {g!r}")
        return self._normal(v)

    def _normal(self, v):
        out = list(v)
        for i, n in enumerate(self.torsion):
            out[self.rank + i] %= n
        return tuple(out)

    def mul(self, a, b):
        a, b = self.check(a), self.check(b)
        return self._normal(tuple(x + y for x, y in zip(a, b)))

    def inv(self, a):
        return self._normal(tuple(-x for x in self.check(a)))

    def elements(self):
        if self.rank > 0:
            return None
        out = [()]
        for n in self.torsion:
            out = [v + (c,) for v in out for c in range(n)]
        return [self._normal(v) for v in out]

    def element_key(self, g):
        return tuple(self.check(g))

    def two_torsion(self):
        """Involutions have zero free part; torsion coordinate 0 or n_i/2."""
        out = [()]
        for n in self.torsion:
            choices = [0, n // 2] if n % 2 == 0 else [0]
            out = [v + (c,) for v in out for c in choices]
        full = [(0,) * self.rank + v for v in out]
        full = [v for v in full if any(v)]
        return sorted(full)

    def h1_dim(self):
        return self.rank + sum(1 for n in self.torsion if n % 2 == 0)

    def eps(self, g):
        g = self.check(g)
        bits = [g[i] % 2 for i in range(self.rank)]
        for i, n in enumerate(self.torsion):
            if n % 2 == 0:
                bits.append(g[self.rank + i] % 2)
        return np.array(bits, dtype=np.uint8)

    def balanced_word(self, x):
        """Balanced word via the half-element trick: find y with 2y = x and a
        word for y, then repeat that word twice."""
        x = self.check(x)
        y = self._half(x)
        coeffs = self._solve(self.generators, y)
        word = []
        for i, c in enumerate(coeffs):
            word.extend([(i, 1 if c > 0 else -1)] * abs(int(c)))
        return word + word

    def _half(self, x):
        out = []
        for i, c in enumerate(x):
            if i < self.rank:
                if c % 2:
                    raise GroupError("free coordinates must be even for a balanced word")
                out.append(c // 2)
            else:
                n = self.torsion[i - self.rank]
                if n % 2 == 1:
                    out.append((c * pow(2, -1, n)) % n)
                else:
                    if c % 2:
                        raise GroupError("even-torsion coordinate is odd; no balanced word")
                    out.append(c // 2)
        return self._normal(tuple(out))

    def _solve(self, gens, y):
        """Integer solution c of  sum_i c_i * gens[i] = y  modulo torsion."""
        k = len(self.torsion)
        cols = [list(g) for g in gens]
        for i in range(k):
            rel = [0] * self.dim
            rel[self.rank + i] = self.torsion[i]
            cols.append(rel)
        A = np.array(cols, dtype=object).T if cols else np.zeros((self.dim, 0), dtype=object)
        b = np.array(y, dtype=object)
        sol = _smith_solve(A, b)
        if sol is None:
            raise GroupError("element is not in the subgroup generated by the given generators")
        return [int(c) for c in sol[: len(gens)]]


def _smith_solve(A, b):
    """Solve A x = b over the integers; returns one solution or None.

    Column operations bring A to lower-triangular (Hermite-style) form while
    a unimodular transform V is tracked, then forward substitution with
    divisibility checks recovers x = V z.
    """
    m, n = A.shape
    M = [[int(A[i, j]) for j in range(n)] for i in range(m)]
    b = [int(v) for v in b]
    V = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # V[j] = column j
    r = 0
    pivot_col = [None] * m
    for i in range(m):
        if r >= n:
            break
        while True:
            nz = [j for j in range(r, n) if M[i][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(M[i][j]))
            if j0 != r:
                for row_ in M:
                    row_[r], row_[j0] = row_[j0], row_[r]
                V[r], V[j0] = V[j0], V[r]
            done = True
            for j in range(r + 1, n):
                q = M[i][j] // M[i][r]
                if q:
                    for t in range(m):
                        M[t][j] -= q * M[t][r]
                    V[j] = [vj - q * vc for vj, vc in zip(V[j], V[r])]
                if M[i][j] != 0:
                    done = False
            if done:
                break
        if r < n and M[i][r] != 0:
            pivot_col[i] = r
            r += 1
    z = [0] * n
    for i in range(m):
        c = pivot_col[i]
        acc = sum(M[i][j] * z[j] for j in range(n) if M[i][j] != 0 and z[j] != 0 and (c is None or j != c))
        rhs = b[i] - acc
        if c is None:
            if rhs != 0:
                return None
            continue
        rhs = b[i] - sum(M[i][j] * z[j] for j in range(c) if M[i][j] != 0)
        if rhs % M[i][c] != 0:
            return None
        z[c] = rhs // M[i][c]
    x = [sum(V[j][t] * z[j] for j in range(n)) for t in range(n)]
    # insurance against transform bookkeeping slips
    for i in range(m):
        if sum(int(A[i, j]) * x[j] for j in range(n)) != b[i]:
            return None
    return x


def group_from_json(obj):
    kind = obj.get("kind")
    gens = obj.get("generators")
    if kind == "finite-table":
        return FiniteGroup(obj["table"], generators=gens)
    if kind == "fg-abelian":
        if gens is not None:
            gens = [tuple(g) for g in gens]
        return AbelianGroup(obj.get("rank", 0), obj.get("torsion", ()), generators=gens)
    raise GroupError(f"unknown group kind: {kind!r}")


def group_to_json(G):
    if isinstance(G, FiniteGroup):
        return {"kind": "finite-table", "table": G.table.tolist(),
                "generators": list(G.generators)}
    return {"kind": "fg-abelian", "rank": G.rank, "torsion": list(G.torsion),
            "generators": [list(g) for g in G.generators]}


def element_from_json(G, obj):
    return G.check(obj)


def element_to_json(G, g):
    if isinstance(G, FiniteGroup):
        return int(g)
    return list(G.check(g))
