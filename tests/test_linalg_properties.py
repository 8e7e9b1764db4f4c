"""Property tests of the incremental sparse elimination and of the tracked
span against dense rref, rank and solve, of the scalar form: inputs that
mix ints and Fractions give the same values as all-Fraction inputs, and
never a float, and of the dense kernel against its first version."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hga import linalg
from hga.linalg import SparseRREF, TrackedSpan
import reference_linalg

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


# exact scalars as callers pass them: ints where integral, some Fractions
scalars = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


def matrices(nrows, ncols):
    return st.lists(st.lists(scalars, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))
dense = shapes.flatmap(lambda s: matrices(*s))
mixed_vectors = st.dictionaries(st.integers(0, WIDTH - 1),
                                scalars.filter(bool), max_size=4)


def as_fractions(x):
    """x with every scalar made a Fraction, lists and dicts kept."""
    if isinstance(x, list):
        return [as_fractions(v) for v in x]
    if isinstance(x, dict):
        return {k: as_fractions(v) for k, v in x.items()}
    return Fraction(x)


def scalar_types(x):
    """The types of the scalars in a nested result (None counts as none)."""
    if isinstance(x, (list, tuple)):
        return set().union(*map(scalar_types, x)) if x else set()
    if isinstance(x, dict):
        return scalar_types(list(x.values()))
    return set() if x is None else {type(x)}


def assert_same(got, want):
    assert got == want
    assert scalar_types(got) <= {int, Fraction}


@hypothesis.given(dense)
def test_mixed_rref_and_nullspace_match_fractions(m):
    red, pivots = linalg.rref(m)
    fred, fpivots = linalg.rref(as_fractions(m))
    assert pivots == fpivots
    assert_same(red, fred)
    assert_same(linalg.nullspace(m), linalg.nullspace(as_fractions(m)))


@hypothesis.given(shapes.flatmap(lambda s: st.tuples(
    matrices(*s), st.lists(scalars, min_size=s[0], max_size=s[0]))))
def test_mixed_solve_matches_fractions(system):
    a, b = system
    assert_same(reference_linalg.solve(a, b),
                reference_linalg.solve(as_fractions(a), as_fractions(b)))


@hypothesis.given(st.lists(mixed_vectors, max_size=10), mixed_vectors)
def test_mixed_sparse_rref_matches_fractions(vecs, probe):
    rr, fr = SparseRREF(), SparseRREF()
    for v in vecs:
        assert rr.add(dict(v)) == fr.add(as_fractions(v))
        assert_consistent(rr)
    assert_same(rr.rows, fr.rows)
    assert_same(rr.reduce(probe), fr.reduce(as_fractions(probe)))


def reduce_resorting(rr, vec):
    """SparseRREF.reduce as it was first written: after each elimination,
    sort the vector again and eliminate its largest pivot."""
    vec = {j: c for j, c in vec.items() if c}
    while True:
        target = next((j for j in sorted(vec, reverse=True) if j in rr.rows),
                      None)
        if target is None:
            return vec
        f = vec[target]
        for j, c in rr.rows[target].items():
            nv = vec.get(j, linalg.F0) - f * c
            if nv:
                vec[j] = nv
            else:
                vec.pop(j, None)


@hypothesis.given(st.lists(mixed_vectors, max_size=10),
                  st.lists(mixed_vectors, min_size=1, max_size=4), st.data())
def test_one_pass_reduce_matches_resorting_reduce(vecs, probes, data):
    rr = SparseRREF()
    for v in vecs:
        rr.add(dict(v))
    if rr.rows:
        # several pivots at once, so the elimination order shows
        pivots = data.draw(st.sets(st.sampled_from(sorted(rr.rows))))
        probes = probes + [{p: 1 for p in pivots}, dict.fromkeys(rr.rows, 1)]
    for probe in probes:
        got, want = rr.reduce(probe), reduce_resorting(rr, probe)
        # equal values, and the same keys in the same order
        assert list(got.items()) == list(want.items())


def dense_vector(v):
    return [v.get(j, linalg.F0) for j in range(WIDTH)]


def combine(coeffs, vecs):
    """The sparse vector sum of coeffs[t] * vecs[t]."""
    out = {}
    for t, c in coeffs.items():
        linalg.add_scaled(out, c, vecs[t])
    return out


def dense_rank(vecs):
    return linalg.rank([dense_vector(v) for v in vecs])


@hypothesis.given(st.lists(vectors, max_size=6), st.lists(vectors, max_size=8),
                  vectors)
def test_tracked_span_matches_dense_rank_and_solve(untagged, tagged, probe):
    span = TrackedSpan()
    for u in untagged:
        span.add(dict(u))
    joined = {}
    for t, v in enumerate(tagged):
        before = list(untagged) + list(joined.values())
        dep = span.add(dict(v), t)
        assert (dep is None) == (dense_rank(before + [v]) > dense_rank(before))
        if dep is None:
            joined[t] = v
            continue
        # v at 1 less a combination of the joined vectors lies in the
        # untagged span
        assert dep[t] == 1 and set(dep) <= set(joined) | {t}
        rest = combine(dep, {**joined, t: v})
        assert dense_rank(list(untagged) + [rest]) == dense_rank(untagged)
    cols = [dense_vector(v) for v in list(joined.values()) + list(untagged)]
    sol = reference_linalg.solve(linalg.transpose(cols), dense_vector(probe))
    got = span.coords(dict(probe))
    assert (got is None) == (sol is None)
    if got is not None:
        # the joined vectors are independent modulo the untagged ones, so
        # every solution has the same coordinates on them
        assert got == {t: c for t, c in zip(joined, sol) if c}


@hypothesis.given(st.lists(vectors, max_size=5), st.lists(vectors, max_size=6),
                  st.data())
def test_tracked_span_coords_of_a_combination(untagged, tagged, data):
    span = TrackedSpan()
    for u in untagged:
        span.add(dict(u))
    joined = {t: v for t, v in enumerate(tagged)
              if span.add(dict(v), t) is None}
    want = {t: data.draw(coefficients | st.just(0)) for t in joined}
    vec = combine(want, joined)
    # a multiple of every untagged vector leaves the coordinates unchanged
    for u in untagged:
        linalg.add_scaled(vec, data.draw(coefficients), u)
    assert span.coords(vec) == {t: c for t, c in want.items() if c}


# The dense kernel against its first version (tests/reference_linalg.py):
# the same values, pivots and scalar type in every entry, on the shapes L2
# meets most (1x1, 1xk, kx1) and on empty, zero-row and all-zero matrices
def exactly(got, want):
    """got equals want, with the same type at every scalar."""
    assert type(got) is type(want)
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            exactly(g, w)
    else:
        assert got == want


def fresh_rows(out, *inputs):
    """No row of the matrix out is a row of an input matrix."""
    given = {id(row) for m in inputs for row in m}
    assert not any(id(row) in given for row in out)


zero = st.sampled_from([0, Fraction(0)])
KERNEL_SHAPES = {
    "0x0": st.just((0, 0)), "1x1": st.just((1, 1)),
    "1xk": st.tuples(st.just(1), st.integers(2, 5)),
    "kx1": st.tuples(st.integers(2, 5), st.just(1)),
    "rxc": st.tuples(st.integers(2, 4), st.integers(2, 4))}


@st.composite
def kernel_matrices(draw, shape):
    """A matrix of mixed int and Fraction scalars, some of its rows, or all
    of them, made of zeros."""
    nrows, ncols = draw(shape)
    entries = draw(st.sampled_from([scalars, scalars, zero]))
    m = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    for i in draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if i < nrows:
            m[i] = [draw(zero) for _ in range(ncols)]
    return m


def copied(m):
    return [list(row) for row in m]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_dense_kernel_matches_its_first_version(shape):
    @hypothesis.given(kernel_matrices(KERNEL_SHAPES[shape]),
                      st.integers(0, 4))
    def check(m, ncols):
        before = copied(m)
        red, pivots = linalg.rref(m)
        want_red, want_pivots = reference_linalg.rref(m)
        assert pivots == want_pivots
        exactly(red, want_red)
        fresh_rows(red, m)
        assert linalg.rank(m) == reference_linalg.rank(m)
        exactly(linalg.nullspace(m, ncols),
                reference_linalg.nullspace(m, ncols))
        exactly(linalg.transpose(m), reference_linalg.transpose(m))
        exactly(m, before)

    check()


@hypothesis.given(st.tuples(st.integers(0, 3), st.integers(0, 3),
                            st.integers(0, 3)).flatmap(
    lambda s: st.tuples(kernel_matrices(st.just(s[:2])),
                        kernel_matrices(st.just(s[1:])),
                        st.lists(scalars | zero, min_size=s[1],
                                 max_size=s[1]))))
def test_dense_products_match_their_first_version(factors):
    a, b, v = factors
    before = copied(a), copied(b), list(v)
    product = linalg.mat_mul(a, b)
    exactly(product, reference_linalg.mat_mul(a, b))
    fresh_rows(product, a, b)
    exactly(linalg.mat_vec(a, v), reference_linalg.mat_vec(a, v))
    exactly((copied(a), copied(b), list(v)), before)


@pytest.mark.parametrize("n", range(4))
def test_identity_matches_its_first_version(n):
    exactly(linalg.identity(n), reference_linalg.identity(n))
