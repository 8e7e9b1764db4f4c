from fractions import Fraction

from hga import linalg
from hga.linalg import F0, F1, SparseRREF


def fr(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_rank_nullspace():
    m = fr([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(m) == 2
    ns = linalg.nullspace(m)
    assert len(ns) == 1
    for row in m:
        assert sum(c * x for c, x in zip(row, ns[0])) == 0


def test_solve_and_invert():
    a = fr([[2, 1], [1, 3]])
    b = [Fraction(5), Fraction(10)]
    x = linalg.solve(a, b)
    assert linalg.mat_vec(a, x) == b
    inv = linalg.invert(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(2)
    assert linalg.invert(fr([[1, 2], [2, 4]])) is None


def test_solve_inconsistent():
    a = fr([[1, 1], [1, 1]])
    assert linalg.solve(a, [F1, F0]) is None


def test_sparse_rref_reduces_chains():
    rr = SparseRREF()
    # x2 = x3, x3 = x4, x4 = 0 should force x2 = 0
    rr.add({3: F1, 2: -F1})
    rr.add({4: F1, 3: -F1})
    rr.add({4: F1})
    assert rr.reduce({2: F1}) == {}
    assert rr.reduce({1: F1}) == {1: F1}


def test_sparse_rref_dependent_returns_none():
    rr = SparseRREF()
    assert rr.add({5: F1, 1: F1}) == 5
    assert rr.add({5: Fraction(2), 1: Fraction(2)}) is None
    # stored rows stay mutually reduced
    assert rr.add({1: F1}) == 1
    assert rr.rows[5] == {5: F1}


def test_sparse_rref_copy_is_independent():
    rr = SparseRREF()
    rr.add({3: F1, 2: -F1})
    rr.add({2: F1, 1: Fraction(2)})
    dup = rr.copy()
    assert dup.rows == rr.rows
    assert dup.add({1: F1}) == 1
    assert 1 not in rr.rows
    assert rr.rows[3] == {3: F1, 1: Fraction(2)}
    # the copy stays fully reduced: no stored row mentions another pivot
    for p, row in dup.rows.items():
        assert max(row) == p and row[p] == F1
        assert not set(row) & (set(dup.rows) - {p})
