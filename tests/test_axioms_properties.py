"""Property tests of the degree-two checks, (A4) and the classical gentle
test, which read the memoised table of 2-path relations, against the dense
nullspace computation of ``reference_degree_two``, and of corners read in
their ambient algebra against the raw corners of ``reference_scans``, over
small bound quivers with parallel arrows and 1- to 3-term relations among
parallel 2-paths, and their corners."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hga import (  # noqa: E402
    BoundQuiverPresentation,
    Idempotent,
    Quiver,
    RelationElement,
    build_algebra,
    idempotent_subalgebra,
    zero_relation,
)
from hga.axioms import check_axiom_a4, is_gentle  # noqa: E402
from reference_scans import assert_corner_matches_raw_route  # noqa: E402
from reference_degree_two import (  # noqa: E402
    reference_a4,
    reference_is_gentle,
)


@st.composite
def block_presentations(draw):
    """An acyclic quiver x -> m_i -> z, or x -> m_i -> y and z, with one or
    two parallel arrows on each side of up to four middles and perhaps an
    arrow z -> w, bound by up to three relations of 1 to 3 terms, each among
    the 2-paths of one block (a block from x more often than the others),
    and perhaps a zero relation of length 3 through z -> w."""
    mids = [f"m{i}" for i in range(draw(st.integers(1, 4)))]
    sinks = ["y", "z"][draw(st.integers(0, 1)):]
    arrows = []
    for m in mids:
        arrows += [(f"a{m}{k}", "x", m) for k in range(draw(st.integers(1, 2)))]
        arrows += [(f"b{m}{t}{k}", m, t) for t in sinks
                   for k in range(draw(st.integers(1, 2)))]
    tail = draw(st.booleans())
    if tail:
        arrows.append(("c", "z", "w"))
    q = Quiver(["x"] + mids + sinks + (["w"] if tail else []), arrows)
    blocks = {}
    for a in q.arrows:
        for b in q.arrows_from[a.target]:
            blocks.setdefault((a.source, b.target), []).append((a.name, b.name))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from([("x", t) for t in sinks] + sorted(blocks)))
        terms = draw(st.lists(st.sampled_from(blocks[key]), min_size=1,
                              max_size=3, unique=True))
        relations.append(RelationElement([
            (draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])), p)
            for p in terms]))
    if tail and draw(st.booleans()):
        relations.append(zero_relation(
            draw(st.sampled_from(blocks[("x", "z")])) + ("c",)))
    return BoundQuiverPresentation(q, relations)


@hypothesis.given(block_presentations(), st.data())
@hypothesis.settings(max_examples=150, suppress_health_check=[
    hypothesis.HealthCheck.too_slow])
def test_degree_two_checks_match_dense_reference(p, data):
    alg = build_algebra(p)
    cut = data.draw(st.sets(st.sampled_from(alg.vertices), min_size=1))
    for a in (alg, idempotent_subalgebra(alg, Idempotent.of(cut))):
        a4 = check_axiom_a4(a)
        hypothesis.event(f"A4 {a4['witnesses'][0]['reason']}"
                         if a4["witnesses"] else "A4 pass")
        assert a4 == reference_a4(a)
        assert is_gentle(a) == reference_is_gentle(a)


@hypothesis.given(block_presentations(), st.data())
@hypothesis.settings(max_examples=150, suppress_health_check=[
    hypothesis.HealthCheck.too_slow])
def test_corner_read_in_ambient_matches_raw_route(p, data):
    alg = build_algebra(p)
    cut = data.draw(st.sets(st.sampled_from(alg.vertices), min_size=1))
    hypothesis.event("monomial" if alg.monomial else "not monomial")
    assert_corner_matches_raw_route(alg, Idempotent.of(cut))
