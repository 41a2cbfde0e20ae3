import itertools
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singlink.groups import (
    AbelianGroup, FiniteGroup, GroupError,
    element_from_json, group_from_json, group_to_json,
)
from singlink.randwalk import q8_table, standard_groups
from test_acceptance import _small_groups


def klein_table():
    # Z/2 x Z/2 as an explicit table
    return [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


# the smallest loop that is not a group: identity 0, every element its own
# two-sided inverse, rows and columns permutations, but not associative
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


class TestFiniteGroup:
    def test_rejects_missing_inverses(self):
        with pytest.raises(GroupError, match="inverses"):
            FiniteGroup([[0, 1], [1, 1]])

    def test_rejects_non_associative(self):
        for gens in (None, [4, 3], [1, 2, 3, 4]):
            with pytest.raises(GroupError, match="not associative"):
                FiniteGroup(LOOP5, generators=gens)

    def test_rejects_bad_identity(self):
        with pytest.raises(GroupError):
            FiniteGroup([[1, 0], [0, 1]])

    def test_rejects_non_generating(self):
        with pytest.raises(GroupError):
            FiniteGroup(klein_table(), generators=[1])

    def test_q8_structure(self):
        G = FiniteGroup(q8_table(), generators=[2, 4])
        assert G.n == 8
        # unique nontrivial involution: -1
        assert G.two_torsion() == [1]
        assert G.h1_dim() == 2
        # -1 = i^2 is a square, so it dies in H_1
        assert not np.any(G.eps(1))
        assert np.any(G.eps(2)) and np.any(G.eps(4))
        assert not np.array_equal(G.eps(2), G.eps(4))
        # i * j = k, j * i = -k, so the commutator [i, j] is -1
        assert G.mul(2, 4) != G.mul(4, 2)
        assert G.mul(G.mul(2, 4), G.inv(G.mul(4, 2))) == 1

    def test_order_255_check_memory(self):
        # construction and the H_1 set-up of the largest table stay O(n^2),
        # a few tables of n^2 entries
        n = 255
        t = (np.arange(n)[:, None] + np.arange(n)) % n
        tracemalloc.start()
        try:
            FiniteGroup(t).eps(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("table,message", [
        ([[0, 1.5], [1.5, 0]], "integers"),
        ([[0, 1.0], [1.0, 0]], "integers"),
        ([["0", "1"], ["1", "0"]], "integers"),
        ([[False, True], [True, False]], "integers"),
        ([[0, True], [True, 0]], "integers"),
        (np.array([[0, 1], [1, 0]], dtype=bool), "integers"),
        ([[0, 1], [1, None]], "integers"),
        ([[0, 1], [1, 2 ** 70]], "out of range"),
        ([[0, 1], [1, -2 ** 70]], "out of range"),
        ([[0, 1], [1, 2 ** 63]], "out of range"),
        ([[0, 1], [1, 2]], "out of range"),
        ([[0, 1], [1]], "square"),
        ([[0, 1], 1], "square"),
        ([0, 1], "square"),
        (None, "square"),
        ([], "order"),
    ], ids=["float", "integral-float", "string", "bool", "bool-mixed",
            "bool-array", "null", "huge", "huge-negative", "int64-overflow",
            "range", "ragged", "scalar-row", "flat", "none", "empty"])
    def test_rejects_malformed_table(self, table, message):
        with pytest.raises(GroupError, match=message):
            FiniteGroup(table)

    def test_accepts_numpy_integer_entries(self):
        rows = [[np.uint8(x) for x in row] for row in klein_table()]
        G = FiniteGroup(rows)
        assert G.table.tolist() == klein_table()
        assert type(G.mul(np.int16(1), 2)) is int

    def test_klein_involutions(self):
        G = FiniteGroup(klein_table())
        assert G.two_torsion() == [1, 2, 3]
        assert G.h1_dim() == 2


class TestAbelianGroup:
    def test_z_basics(self):
        G = AbelianGroup(1)
        assert G.identity == (0,)
        assert G.mul((2,), (-3,)) == (-1,)
        assert G.two_torsion() == []
        assert G.h1_dim() == 1
        assert G.eps((3,)).tolist() == [1]

    def test_z4(self):
        G = AbelianGroup(0, (4,))
        assert G.two_torsion() == [(2,)]
        assert G.mul((3,), (3,)) == (2,)
        assert G.eps((2,)).tolist() == [0]

    def test_odd_torsion_invisible(self):
        G = AbelianGroup(0, (3,))
        assert G.two_torsion() == []
        assert G.h1_dim() == 0

    def test_elements_infinite_is_none(self):
        assert AbelianGroup(1).elements() is None

    def test_check_rejects_wrong_length(self):
        with pytest.raises(GroupError):
            AbelianGroup(2).check((1,))

    @pytest.mark.parametrize("g", ["ab", ["x"], [1.5], 5, [None]])
    def test_check_rejects_non_integer_coordinates(self, g):
        with pytest.raises(GroupError):
            AbelianGroup(1).check(g)

    @pytest.mark.parametrize("args,g", [
        ((1,), (5,)), ((1,), (-5,)), ((0, (2, 2)), (1, 0)), ((2, (6,)), (3, -4, 5)),
        ((0, ()), ()),
        ((1,), [5]), ((1,), (True,)), ((0, (2, 2)), (True, False)),
        ((1,), (np.int64(5),)), ((0, (4,)), (7,)), ((0, (4,)), (-1,)),
        ((2, (6,)), (3, -4, 6)), ((0, (4,)), (4,)),
    ])
    def test_check_keeps_normal_tuples(self, args, g):
        # a tuple of ints already in normal form is returned as it is; any
        # other element is read as before: its coordinates made ints and
        # its torsion coordinates reduced
        G = AbelianGroup(*args)
        got = G.check(g)
        want = tuple(operator.index(x) for x in g)
        want = want[:G.rank] + tuple(
            x % n for x, n in zip(want[G.rank:], G.torsion))
        assert got == want and type(got) is tuple
        assert all(type(x) is int for x in got)
        assert (got is g) == (g == want and type(g) is tuple
                              and all(type(x) is int for x in g))


def cyclic_table(n):
    return (np.arange(n)[:, None] + np.arange(n)) % n


def dihedral_table(m):
    # index k is r^k, index m + k is s r^k, with r s = s r^-1
    bx, a = np.divmod(np.arange(2 * m), m)
    k = np.where(bx[None, :] == 0, a[:, None] + a[None, :],
                 a[None, :] - a[:, None])
    return (bx[:, None] ^ bx[None, :]) * m + k % m


def a4_table():
    # the even permutations of 0..3, identity first; index a * b is the
    # composite "b, then a"
    perms = sorted(p for p in itertools.permutations(range(4))
                   if sum(x > y for x, y in itertools.combinations(p, 2)) % 2 == 0)
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[tuple(a[b[i]] for i in range(4))] for b in perms] for a in perms]


def squares_and_commutators(t):
    """Reference kernel of G -> H_1(G; Z/2): the closure of every square
    and every commutator a b a^-1 b^-1."""
    t = np.asarray(t)
    inv = np.argmin(t, axis=1)               # t[a, inv[a]] == 0
    gens = np.union1d(t.diagonal(), t[t, inv[t.T]].ravel())
    sub = np.array([0])
    while True:
        grown = np.union1d(sub, t[np.ix_(sub, gens)].ravel())
        if len(grown) == len(sub):
            return set(sub.tolist())
        sub = grown


@pytest.mark.parametrize("table", [
    q8_table(), cyclic_table(20), cyclic_table(255), dihedral_table(6),
    dihedral_table(45),
], ids=["Q8", "C20", "C255", "D6", "D45"])
def test_h1_is_the_quotient_by_squares_and_commutators(table):
    G = FiniteGroup(table)
    t = G.table
    kernel = squares_and_commutators(t)
    assert 2 ** G.h1_dim() * len(kernel) == G.n
    E = np.array([G.eps(g) for g in range(G.n)]).reshape(G.n, G.h1_dim())
    # eps is a homomorphism onto F2^d whose kernel is the reference
    # subgroup, so it is an isomorphism from the quotient
    assert np.array_equal(E[t], E[:, None, :] ^ E[None, :, :])
    assert {g for g in range(G.n) if not E[g].any()} == kernel


def product_table(*orders):
    """Z/orders[0] x Z/orders[1] x ..., elements indexed in row-major order."""
    idx = np.indices(orders).reshape(len(orders), -1)
    summed = (idx[:, :, None] + idx[:, None, :]) % np.array(orders)[:, None, None]
    return np.ravel_multi_index(tuple(summed), orders)


# pinned default generators, h1_dim and eps; character g of the string is
# sum_i eps(g)[i] << i.  The eps coordinates reach witnesses and hashes, so
# a change of basis order must fail here.
FROZEN_H1 = {
    "Q8": (q8_table(), [1, 2, 4], 2, "00112233"),
    "Klein": (klein_table(), [1, 2], 2, "0123"),
    "C64": (cyclic_table(64), [1], 1, "01" * 32),
    "D32": (dihedral_table(32), [1, 32], 2, "01" * 16 + "23" * 16),
    "C255": (cyclic_table(255), [1], 0, "0" * 255),
    "D127": (dihedral_table(127), [1, 127], 1, "0" * 127 + "1" * 127),
    "C2xC6xC2": (product_table(2, 6, 2), [1, 2, 12], 3, "0123" * 3 + "4567" * 3),
}


@pytest.mark.parametrize("name", FROZEN_H1)
def test_h1_coordinates_frozen(name):
    table, generators, dim, coords = FROZEN_H1[name]
    G = FiniteGroup(table)
    assert G.generators == generators
    assert G.h1_dim() == dim
    got = "".join(str(sum(int(b) << i for i, b in enumerate(G.eps(g))))
                  for g in range(G.n))
    assert got == coords


SMALL_GROUPS = [cyclic_table(n).tolist() for n in range(1, 7)] + [
    klein_table(), dihedral_table(3).tolist()]


@st.composite
def tables_with_identity(draw):
    """Tables of order <= 6 whose row and column 0 are the identity: random
    ones, and relabelled groups and loops, some with one entry changed."""
    base = draw(st.sampled_from([None, LOOP5] + SMALL_GROUPS))
    if base is None:
        n = draw(st.integers(1, 6))
        return [list(range(n))] + [[a] + draw(st.lists(st.integers(0, n - 1),
                                                        min_size=n - 1, max_size=n - 1))
                                   for a in range(1, n)]
    n = len(base)
    p = [0] + draw(st.permutations(range(1, n)))
    t = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            t[p[a]][p[b]] = p[base[a][b]]
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        t[a][b] = draw(st.integers(0, n - 1))
    return t


def is_group_by_triples(t):
    """With identity 0: a group iff associative and every row holds 0."""
    R = range(len(t))
    associative = all(t[t[a][b]][c] == t[a][t[b][c]] for a in R for b in R for c in R)
    return associative and all(0 in row for row in t)


@settings(max_examples=300, deadline=None)
@given(tables_with_identity(), st.booleans())
def test_accepts_exactly_the_groups(t, all_generators):
    gens = list(range(len(t))) if all_generators else None
    try:
        FiniteGroup(t, generators=gens)
        accepted = True
    except GroupError:
        accepted = False
    assert accepted == is_group_by_triples(t)


@pytest.mark.parametrize("name", sorted(standard_groups()))
def test_json_round_trip(name):
    G = standard_groups()[name]
    G2 = group_from_json(group_to_json(G))
    assert group_to_json(G2) == group_to_json(G)


@pytest.mark.parametrize("G,obj", [
    (AbelianGroup(1), [True]),
    (AbelianGroup(0, (2, 2)), [0, False]),
    (FiniteGroup([[0, 1], [1, 0]]), True),
], ids=["Z", "Z2xZ2", "table"])
def test_element_from_json_rejects_bools(G, obj):
    with pytest.raises(GroupError):
        element_from_json(G, obj)


@pytest.mark.parametrize("obj", [
    {"kind": "fg-abelian", "rank": 1, "generators": [[True]]},
    {"kind": "finite-table", "table": [[0, 1], [1, 0]], "generators": [True]},
], ids=["abelian", "table"])
def test_group_from_json_rejects_bool_generators(obj):
    with pytest.raises(GroupError):
        group_from_json(obj)


def _word_product(G, word):
    acc = G.identity
    for i, e in word:
        g = G.generators[i]
        acc = G.mul(acc, g if e == 1 else G.inv(g))
    return acc


def _word_balanced(word):
    counts = {}
    for i, _ in word:
        counts[i] = counts.get(i, 0) + 1
    return all(c % 2 == 0 for c in counts.values())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(standard_groups())), st.data())
def test_balanced_word_properties(name, data):
    G = standard_groups()[name]
    if G.elements() is None:
        g = (2 * data.draw(st.integers(-5, 5)),)
    else:
        kernel = [x for x in G.elements() if not np.any(G.eps(x))]
        g = data.draw(st.sampled_from(kernel))
    word = G.balanced_word(g)
    assert _word_balanced(word)
    assert G.element_key(_word_product(G, word)) == G.element_key(g)


def test_balanced_word_needs_even_free_part():
    with pytest.raises(GroupError):
        AbelianGroup(1).balanced_word((3,))


@pytest.mark.parametrize("name", ["acceptance", "A4", "C255"])
def test_square_roots_multiply_back(name):
    # every kernel element of eps is a product of squares, with one square
    # exactly when it is one; the identity is its own root's square
    groups = (_small_groups().values() if name == "acceptance" else
              [FiniteGroup(a4_table() if name == "A4" else cyclic_table(255))])
    for G in groups:
        squares = {G.element_key(G.mul(y, y)) for y in G.elements()}
        for g in G.elements():
            if np.any(G.eps(g)):
                with pytest.raises(GroupError):
                    G.square_roots(g)
                continue
            roots = G.square_roots(g)
            acc = G.identity
            for y in roots:
                acc = G.mul(acc, G.mul(y, y))
            assert G.element_key(acc) == G.element_key(g)
            assert (len(roots) == 1) == (G.element_key(g) in squares)


def test_square_roots_are_fewest():
    # in A4 the squares are the identity and the 3-cycles, so a double
    # transposition is a product of two squares and of no fewer
    G = FiniteGroup(a4_table())
    for g in G.two_torsion():
        assert len(G.square_roots(g)) == 2
    assert G.square_roots(0) == [0]
    assert AbelianGroup(1).square_roots((10 ** 12,)) == [(5 * 10 ** 11,)]
