import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapbound.errors import (GroupTooLarge, InvalidGeneratorSet, NonGroupTable)
from gapbound.groups import (build_group, check_invariance, cyclic_group,
                             direct_product, elementary_abelian_2,
                             generator_set, group_from_table, word_lengths)


def s3_table():
    """Multiplication table of S3 from raw permutation composition."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(p[q[k]] for k in range(3))  # (p o q)(k)
            table[i, j] = index[composed]
    return table, perms, index


def test_cyclic_trivial():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.identity == 0
    assert g.mul(0, 0) == 0


def test_elementary_abelian_selfinverse():
    g = elementary_abelian_2(3)
    assert g.order == 8
    for x in range(g.order):
        assert g.inv(x) == x
        assert g.mul(x, x) == g.identity


def test_cyclic6_against_modular_oracle():
    g = cyclic_group(6)
    for a in range(6):
        for b in range(6):
            assert g.mul(a, b) == (a + b) % 6
    assert g.inv(1) == 5


def test_build_group_dispatch():
    assert build_group({"kind": "cyclic", "n": 4}).order == 4
    assert build_group({"kind": "elementary_abelian_2", "n": 2}).order == 4
    g = build_group({"kind": "direct_product",
                     "factors": [{"kind": "cyclic", "n": 2},
                                 {"kind": "cyclic", "n": 3}]})
    assert g.order == 6
    with pytest.raises(ValueError):
        build_group({"kind": "nope"})


def test_direct_product_is_z6():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    # Z2 x Z3 is cyclic of order 6: element orders must match Z6
    def order_of(x):
        y, k = x, 1
        while y != g.identity:
            y = g.mul(y, x)
            k += 1
        return k
    assert sorted(order_of(x) for x in range(g.order)) == [1, 2, 3, 3, 6, 6]


def test_explicit_table_s3_valid():
    table, perms, index = s3_table()
    g = group_from_table(table, name="S3")
    assert g.order == 6
    ident = perms[g.identity]
    assert ident == (0, 1, 2)


def test_non_group_latin_violation():
    t = cyclic_group(4).table.copy()
    t[1, 2] = t[1, 1]  # duplicate in row 1
    with pytest.raises(NonGroupTable) as exc:
        group_from_table(t)
    assert exc.value.axiom in ("latin_row", "latin_col")


def test_non_group_associativity_violation():
    # smallest loop that is not a group: order 5, two-sided identity 0,
    # every row/column a permutation, but (1*1)*2 != 1*(1*2)
    t = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ])
    with pytest.raises(NonGroupTable) as exc:
        group_from_table(t)
    assert exc.value.axiom in ("associativity", "inverse")


def test_order_cap():
    with pytest.raises(GroupTooLarge):
        cyclic_group((1 << 16) + 1)


def test_generator_set_validation():
    g = cyclic_group(6)
    with pytest.raises(InvalidGeneratorSet):
        generator_set(g, [0])            # identity
    with pytest.raises(InvalidGeneratorSet):
        generator_set(g, [1])            # not symmetric (inv(1) = 5 missing)
    with pytest.raises(InvalidGeneratorSet):
        generator_set(g, [2, 4])         # generates only the even residues
    k = generator_set(g, [1, 5])
    assert list(k) == [1, 5]


def test_word_lengths_cycle_oracle():
    g = cyclic_group(6)
    wl = word_lengths(g, [1, 5])
    assert wl.tolist() == [min(i, 6 - i) for i in range(6)]


def python_word_lengths(group, gens):
    """Plain breadth-first search from the identity over x -> a*x."""
    wl = [-1] * group.order
    wl[group.identity] = 0
    queue = collections.deque([group.identity])
    while queue:
        x = queue.popleft()
        for a in gens:
            y = group.mul(a, x)
            if wl[y] < 0:
                wl[y] = wl[x] + 1
                queue.append(y)
    return wl


def _s3_with(pick):
    table, perms, index = s3_table()
    g = group_from_table(table, name="S3")
    transpositions = [index[p] for p in perms
                      if sum(p[i] != i for i in range(3)) == 2]
    return g, pick(transpositions)


@pytest.mark.parametrize("make", [
    lambda: (cyclic_group(7), [1, 6]),
    lambda: (cyclic_group(12), [2, 3, 9, 10]),
    lambda: (elementary_abelian_2(5), [1, 2, 4, 8, 16]),
    lambda: (direct_product(cyclic_group(4), cyclic_group(3)), [1, 2, 3, 9]),
    lambda: _s3_with(lambda t: t),
    # non-generating sets leave -1 entries
    lambda: (cyclic_group(6), [2, 4]),
    lambda: (elementary_abelian_2(4), [3, 5, 6, 9, 15]),
    lambda: (elementary_abelian_2(3), [1, 2]),
    lambda: _s3_with(lambda t: t[:1]),
    # deep groups: Z4096 has 2048 BFS levels
    lambda: (cyclic_group(4096), [1, 4095]),
    lambda: (elementary_abelian_2(10), [1 << i for i in range(10)]),
], ids=["Z7", "Z12-two-steps", "Z2^5", "Z4xZ3", "S3-table", "Z6-evens",
        "Z2^4-even-weight", "Z2^3-plane", "S3-one-transposition", "Z4096",
        "Q10"])
def test_word_lengths_match_python_bfs(make):
    g, gens = make()
    wl = word_lengths(g, gens)
    assert wl.dtype == np.int32
    assert wl.tolist() == python_word_lengths(g, gens)


def test_word_lengths_cached_read_only():
    g = cyclic_group(10)
    wl = word_lengths(g, [1, 9])
    assert word_lengths(g, (9, 1)) is wl     # one BFS per generator tuple
    assert not wl.flags.writeable
    with pytest.raises(ValueError):
        wl[0] = 5
    assert word_lengths(g, [2, 8]).tolist() == python_word_lengths(g, [2, 8])
    assert word_lengths(g, [1, 9]).tolist() == [min(i, 10 - i) for i in range(10)]


def test_invariance_abelian_always():
    g = cyclic_group(8)
    k = generator_set(g, [1, 7])
    assert check_invariance(g, k)
    q = elementary_abelian_2(3)
    kq = generator_set(q, [1, 2, 4])
    assert check_invariance(q, kq)


def test_invariance_s3_transposition_pair_fails():
    table, perms, index = s3_table()
    g = group_from_table(table, name="S3")
    transpositions = [index[p] for p in perms
                      if sum(p[i] != i for i in range(3)) == 2]
    # single transposition with its inverse (itself) does not generate S3
    with pytest.raises(InvalidGeneratorSet):
        generator_set(g, [transpositions[0]])
    # two transpositions generate but are not conjugation invariant
    k = generator_set(g, transpositions[:2])
    # brute-force conjugation oracle
    conj_closed = all(
        g.mul(g.mul(a, b), g.inv(a)) in set(k) for a in k for b in k)
    assert check_invariance(g, k) == conj_closed
    assert not check_invariance(g, k)
    # the full transposition class is a conjugacy class, hence invariant
    k3 = generator_set(g, transpositions)
    assert check_invariance(g, k3)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=40))
def test_inverse_involution(n):
    g = cyclic_group(n)
    for x in range(g.order):
        assert g.inv(g.inv(x)) == x


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=16),
       data=st.data())
def test_invariant_conjugation_preserves_set(n, data):
    g = cyclic_group(n)
    nontrivial = [x for x in range(g.order) if x != g.identity]
    picks = data.draw(st.sets(st.sampled_from(nontrivial), min_size=1))
    closed = set()
    for a in picks:
        closed |= {a, g.inv(a)}
    wl = word_lengths(g, sorted(closed))
    if not (wl >= 0).all():
        return  # not generating; construction would reject
    k = generator_set(g, sorted(closed))
    assert check_invariance(g, k)  # abelian
    for a in k:
        conj = {g.mul(g.mul(a, b), g.inv(a)) for b in k}
        assert conj == set(k)
        assert len(conj) == len(k)
