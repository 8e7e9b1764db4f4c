"""The rank search over a Hom space, `reps.morphism_of_rank`, against an
exact oracle: the rank of sum_i x_i f_i over symbols, by sympy, with
`expand` as the zero test.  The search finds a morphism of rank at least
want exactly when that generic rank reaches want."""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
sympy = pytest.importorskip("sympy")

from hga import BoundQuiverPresentation, Quiver, build_algebra  # noqa: E402
from hga.reps import Morphism, Representation, morphism_of_rank  # noqa: E402


@functools.cache
def two_points():
    """Two vertices and no arrows: every pair of blocks is a morphism."""
    return build_algebra(BoundQuiverPresentation(Quiver(["1", "2"], []), []))


entries = st.sampled_from([0, 0, 1, 1, -1, 2])
nonzero = st.sampled_from([1, -1, 2])


@st.composite
def blocks(draw, rows, cols):
    """A rows x cols matrix: an outer product u v^T of rank one, or small
    entries drawn one by one."""
    if draw(st.booleans()):
        u = [draw(nonzero) for _ in range(rows)]
        v = [draw(nonzero) for _ in range(cols)]
        return [[a * b for b in v] for a in u]
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def spans(draw):
    """(basis, want): up to four morphisms between modules of dimension at
    most three per vertex over two points, mostly of low rank so that a
    search often needs combinations, and a wanted rank of at most the
    smaller total dimension plus one."""
    src = {v: draw(st.integers(0, 3)) for v in ("1", "2")}
    tgt = {v: draw(st.integers(0, 3)) for v in ("1", "2")}
    m = Representation(two_points(), src, {})
    n = Representation(two_points(), tgt, {})
    basis = [Morphism(m, n, {v: draw(blocks(tgt[v], src[v])) for v in src})
             for _ in range(draw(st.integers(0, 4) | st.integers(2, 4)))]
    top = min(m.total_dim, n.total_dim)
    want = draw(st.just(top) | st.integers(0, top + 1))
    return basis, want


def generic_rank(basis):
    """The rank of sum_i x_i f_i over Q(x_1, ..., x_k): the largest rank in
    the span, summed over the blocks."""
    if not basis:
        return 0
    xs = sympy.symbols(f"x0:{len(basis)}")
    total = 0
    for v in basis[0].source.algebra.vertices:
        rows = basis[0].target.dims.get(v, 0)
        cols = basis[0].source.dims.get(v, 0)
        if rows and cols:
            mat = sympy.Matrix(rows, cols, lambda i, j: sum(
                x * sympy.Rational(f.blocks[v][i][j])
                for x, f in zip(xs, basis)))
            total += mat.rank(iszerofunc=lambda e: sympy.expand(e) == 0)
    return total


@hypothesis.settings(max_examples=200)
@hypothesis.given(spans())
def test_rank_search_matches_the_generic_rank(case):
    basis, want = case
    found = morphism_of_rank(basis, want)
    assert (found is not None) == (bool(basis) and generic_rank(basis) >= want)
    if found is not None:
        assert found.rank() >= want
    # a basis element of the wanted rank is returned itself, the first one
    singles = [f for f in basis if f.rank() >= want]
    if singles:
        assert found is singles[0]
