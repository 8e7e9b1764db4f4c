"""Property tests of the incremental sparse elimination against dense rref."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hga import linalg
from hga.linalg import SparseRREF

WIDTH = 8

coefficients = st.builds(
    Fraction,
    st.integers(-3, 3).filter(bool),
    st.integers(1, 3),
)
vectors = st.dictionaries(st.integers(0, WIDTH - 1), coefficients, max_size=4)


def column_sets(rr):
    out = {}
    for p, row in rr.rows.items():
        for j in row:
            out.setdefault(j, set()).add(p)
    return out


def dense_rref(vecs):
    """Dense rref with the columns reversed, so that its leftmost pivots are
    SparseRREF's largest-index pivots; rows read back as sparse dicts."""
    if not vecs:
        return {}
    mat = [[v.get(WIDTH - 1 - c, linalg.F0) for c in range(WIDTH)]
           for v in vecs]
    red, pivots = linalg.rref(mat)
    return {WIDTH - 1 - c: {WIDTH - 1 - j: x for j, x in enumerate(row) if x}
            for row, c in zip(red, pivots)}


def assert_consistent(rr):
    assert rr.cols == column_sets(rr)
    for p, row in rr.rows.items():
        assert max(row) == p and row[p] == 1
        # fully reduced: no stored row has an entry at another pivot
        assert not set(row) & (set(rr.rows) - {p})


@hypothesis.given(st.lists(vectors, max_size=12))
def test_sparse_rref_matches_dense_rref(vecs):
    rr = SparseRREF()
    for k, v in enumerate(vecs):
        rank = len(rr.rows)
        piv = rr.add(dict(v))
        grew = linalg.rank([[w.get(j, linalg.F0) for j in range(WIDTH)]
                            for w in vecs[:k + 1]]) > rank
        assert (piv is not None) == grew
        if grew:
            assert piv in rr.rows
        assert_consistent(rr)
    assert rr.rows == dense_rref(vecs)


@hypothesis.given(st.lists(vectors, max_size=8), st.lists(vectors, max_size=8))
def test_sparse_rref_copy_stays_independent(first, second):
    rr = SparseRREF()
    for v in first:
        rr.add(dict(v))
    rows = {p: dict(r) for p, r in rr.rows.items()}
    cols = {j: set(ps) for j, ps in rr.cols.items()}
    dup = rr.copy()
    for v in second:
        dup.add(dict(v))
    assert rr.rows == rows and rr.cols == cols
    assert_consistent(dup)
    assert dup.rows == dense_rref(first + second)
