import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singlink.groups import (
    AbelianGroup, FiniteGroup, GroupError,
    group_from_json, group_to_json,
)
from singlink.randwalk import q8_table, standard_groups


def klein_table():
    # Z/2 x Z/2 as an explicit table
    return [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


class TestFiniteGroup:
    def test_rejects_non_associative(self):
        t = [[0, 1], [1, 1]]
        with pytest.raises(GroupError):
            FiniteGroup(t)

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
        # the associativity check of the largest table stays O(n^2), not
        # two n^3 arrays (about 270 MB at order 255)
        n = 255
        t = (np.arange(n)[:, None] + np.arange(n)) % n
        tracemalloc.start()
        try:
            FiniteGroup(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

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


def cyclic_table(n):
    return (np.arange(n)[:, None] + np.arange(n)) % n


def dihedral_table(m):
    # index k is r^k, index m + k is s r^k, with r s = s r^-1
    bx, a = np.divmod(np.arange(2 * m), m)
    k = np.where(bx[None, :] == 0, a[:, None] + a[None, :],
                 a[None, :] - a[:, None])
    return (bx[:, None] ^ bx[None, :]) * m + k % m


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


@pytest.mark.parametrize("name", sorted(standard_groups()))
def test_json_round_trip(name):
    G = standard_groups()[name]
    G2 = group_from_json(group_to_json(G))
    assert group_to_json(G2) == group_to_json(G)


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
