"""Property tests of ``build_algebra`` against the degreewise build, of the
relation search of ``minimal_presentation`` against the full-kernel search,
of the algebra ``represent`` builds in the same pass against
``build_algebra`` of its presentation, and of ``quotient_by_idempotent``
against the raw-table quotient, over small random bound quivers and their
corners and quotients."""

from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hga import (  # noqa: E402
    BoundQuiverPresentation,
    Idempotent,
    Quiver,
    build_algebra,
    idempotent_subalgebra,
    minimal_presentation,
    quotient_by_idempotent,
)
from hga.algebras import represent  # noqa: E402
from hga.errors import NotAdmissible  # noqa: E402
from reference_presentation import (  # noqa: E402
    assert_builds_like_reference,
    assert_presented_like_build,
    matches_reference,
    presented_during,
    reference_minimal_presentation,
)
from reference_scans import assert_quotient_matches_reference  # noqa: E402


@st.composite
def bound_quivers(draw):
    """Up to three vertices and five arrows, loops and 2-cycles included,
    at most two arrows into and out of each vertex, and up to four
    relations: a path of length 2 or 3, alone or minus a multiple of a
    parallel path.  Admissibility is left to the test."""
    verts = [str(i) for i in range(1, draw(st.integers(1, 3)) + 1)]
    ends = draw(st.lists(st.tuples(st.sampled_from(verts),
                                   st.sampled_from(verts)),
                         min_size=1, max_size=5).filter(
        lambda es: all(max(Counter(e[k] for e in es).values()) <= 2
                       for k in (0, 1))))
    arrows = [(f"x{i}", s, t) for i, (s, t) in enumerate(ends)]
    quiver = Quiver(verts, arrows)
    layer, paths = [(a,) for a, _, _ in arrows], []
    for _ in range(2):
        layer = [p + (a,) for p in layer
                 for a, s, _ in arrows if s == quiver.path_target(p)]
        paths += layer
    relations = []
    for _ in range(draw(st.integers(0, 4)) if paths else 0):
        p = draw(st.sampled_from(paths))
        ends = (quiver.path_source(p), quiver.path_target(p))
        parallel = [q for q in paths if q != p and
                    (quiver.path_source(q), quiver.path_target(q)) == ends]
        terms = [(1, p)]
        if parallel and draw(st.booleans()):
            terms.append((draw(st.sampled_from([-1, 2, Fraction(-1, 2)])),
                          draw(st.sampled_from(parallel))))
        relations.append(terms)
    return BoundQuiverPresentation(quiver, relations)


def corner_and_quotient(alg, cut):
    """Build the corner of alg at the vertices cut and, unless cut is every
    vertex, the quotient by them; returns the quotient, or None."""
    idempotent_subalgebra(alg, Idempotent.of(cut))
    if len(cut) < len(alg.vertices):
        return quotient_by_idempotent(alg, Idempotent.of(cut))
    return None


@hypothesis.given(bound_quivers(), st.data())
@hypothesis.settings(max_examples=80, suppress_health_check=[
    hypothesis.HealthCheck.filter_too_much, hypothesis.HealthCheck.too_slow])
def test_relation_search_matches_full_kernel(p, data):
    try:
        alg = build_algebra(p)
    except NotAdmissible:
        hypothesis.reject()
    try:
        result = minimal_presentation(alg)
    except NotAdmissible:
        # build_algebra refuses a non-nilpotent radical, such as x^2 = x^3
        # at a loop, so this is reached only if that check lets one
        # through; both searches must then refuse it
        with pytest.raises(NotAdmissible):
            reference_minimal_presentation(alg)
        return
    assert matches_reference(alg, *result)
    cut = data.draw(st.sets(st.sampled_from(alg.vertices), min_size=1))
    for raw, presented, arrow_ids in presented_during(
            lambda: corner_and_quotient(alg, cut)):
        assert matches_reference(raw, presented.presentation, arrow_ids)


@hypothesis.given(bound_quivers(), st.data())
@hypothesis.settings(max_examples=80, suppress_health_check=[
    hypothesis.HealthCheck.filter_too_much, hypothesis.HealthCheck.too_slow])
def test_build_matches_degreewise_reference(p, data):
    assert_builds_like_reference(p)
    try:
        alg = build_algebra(p)
    except NotAdmissible:
        hypothesis.reject()
    cut = data.draw(st.sets(st.sampled_from(alg.vertices), min_size=1))
    quot = []
    for _, presented, _ in presented_during(
            lambda: quot.append(corner_and_quotient(alg, cut))):
        assert_builds_like_reference(presented.presentation)
    if quot[0] is not None:
        assert_builds_like_reference(quot[0].presentation)


@hypothesis.given(bound_quivers(), st.data())
@hypothesis.settings(max_examples=80, suppress_health_check=[
    hypothesis.HealthCheck.filter_too_much, hypothesis.HealthCheck.too_slow])
def test_one_pass_algebra_is_the_build_of_its_presentation(p, data):
    try:
        alg = build_algebra(p)
    except NotAdmissible:
        hypothesis.reject()
    cut = data.draw(st.sets(st.sampled_from(alg.vertices), min_size=1))
    quot = []
    seen = presented_during(lambda: (represent(alg), quot.append(
        corner_and_quotient(alg, cut))))
    # the quotient is built from its presentation, not re-presented
    assert len(seen) == 2
    for raw, presented, arrow_ids in seen:
        assert matches_reference(raw, presented.presentation, arrow_ids)
        assert_presented_like_build(presented)
    if quot[0] is not None:
        assert_presented_like_build(quot[0])


@hypothesis.given(bound_quivers(), st.data())
@hypothesis.settings(max_examples=80, suppress_health_check=[
    hypothesis.HealthCheck.filter_too_much, hypothesis.HealthCheck.too_slow])
def test_quotient_matches_raw_table_reference(p, data):
    try:
        alg = build_algebra(p)
    except NotAdmissible:
        hypothesis.reject()
    hypothesis.assume(len(alg.vertices) > 1)
    cut = data.draw(st.sets(st.sampled_from(alg.vertices), min_size=1,
                            max_size=len(alg.vertices) - 1))
    assert_quotient_matches_reference(alg, Idempotent.of(cut))
