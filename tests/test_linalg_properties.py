"""Property tests of the tracked span, hga's one sparse eliminator, against
dense rref, rank and solve and against the fully reduced sparse elimination
it replaced, of the scalar form: inputs that mix ints and Fractions give
the same values as all-Fraction inputs, and never a float, and of the dense
kernel against its first version."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hga import linalg
from hga.linalg import TrackedSpan
import reference_linalg
from reference_linalg import SparseRREF

WIDTH = 8

coefficients = st.builds(
    Fraction,
    st.integers(-3, 3).filter(bool),
    st.integers(1, 3),
)
vectors = st.dictionaries(st.integers(0, WIDTH - 1), coefficients, max_size=4)


def dense_rref(vecs):
    """Dense rref with the columns reversed, so that its leftmost pivots are
    TrackedSpan's largest-index pivots; rows read back as sparse dicts."""
    if not vecs:
        return {}
    mat = [[v.get(WIDTH - 1 - c, linalg.F0) for c in range(WIDTH)]
           for v in vecs]
    red, pivots = linalg.rref(mat)
    return {WIDTH - 1 - c: {WIDTH - 1 - j: x for j, x in enumerate(row) if x}
            for row, c in zip(red, pivots)}


def assert_echelon(span):
    for p, (row, _) in span.rows.items():
        assert max(row) == p and row[p] == 1


def assert_reduced(rows):
    for p, row in rows.items():
        assert max(row) == p and row[p] == 1
        # fully reduced: no row has an entry at another pivot
        assert not set(row) & (set(rows) - {p})


@hypothesis.given(st.lists(vectors, max_size=12))
def test_sparse_rref_matches_dense_rref(vecs):
    span = TrackedSpan()
    for k, v in enumerate(vecs):
        rank = len(span.rows)
        joined = span.add(dict(v)) is None
        grew = linalg.rank([[w.get(j, linalg.F0) for j in range(WIDTH)]
                            for w in vecs[:k + 1]]) > rank
        assert joined == grew
        assert_echelon(span)
    reduced = span.reduced_rows()
    assert_reduced(reduced)
    assert reduced == dense_rref(vecs)


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
    span, fspan = TrackedSpan(), TrackedSpan()
    for t, v in enumerate(vecs):
        assert_same(span.add(dict(v), t), fspan.add(as_fractions(v), t))
    assert_same(span.rows, fspan.rows)
    assert_same(span.reduced_rows(), fspan.reduced_rows())
    assert_same(span.coords(probe), fspan.coords(as_fractions(probe)))


@hypothesis.given(st.lists(mixed_vectors, max_size=12),
                  st.lists(mixed_vectors, max_size=4))
def test_tracked_span_matches_the_sparse_rref_oracle(vecs, probes):
    # the echelon and the fully reduced elimination (tests/reference_linalg.py)
    # answer every add alike and hold the same pivots, and back-substitution
    # turns the echelon rows into the oracle's rows
    span, oracle = TrackedSpan(), SparseRREF()
    for v in vecs:
        assert (span.add(dict(v)) is None) == (oracle.add(dict(v)) is not None)
        assert span.rows.keys() == oracle.rows.keys()
    reduced = span.reduced_rows()
    assert_same(reduced, oracle.rows)
    assert_reduced(reduced)
    for probe in probes:
        assert (span.coords(probe) is None) == bool(oracle.reduce(probe))


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
