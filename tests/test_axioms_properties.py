"""Property tests of the degree-two checks, (A4) and the classical gentle
test, which read the memoised table of 2-path relations, against the dense
nullspace computation of ``reference_degree_two``, and of corners read in
their ambient algebra against the raw corners of ``reference_scans``, over
small bound quivers with parallel arrows and 1- to 3-term relations among
parallel 2-paths, and their corners; and of the cube scan of a monomial
algebra restricted to a vertex set against the scan of the re-presented
corner, over grid quivers whose squares commute, anticommute or vanish."""

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
from hga.axioms import (  # noqa: E402
    _axiom_entries,
    check_axiom_a4,
    is_d_gentle_certificate,
    is_gentle,
)
from hga.errors import NotAdmissible  # noqa: E402
from reference_scans import assert_corner_matches_raw_route  # noqa: E402
from test_axioms import assert_cover_scan_matches_corner_scan  # noqa: E402
from reference_degree_two import (  # noqa: E402
    reference_a4,
    reference_is_gentle,
)
from reference_two_sided import reference_axiom_entries  # noqa: E402


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


@st.composite
def grid_presentations(draw):
    """The quiver of a grid of up to 3 x 3 x 2 points with an arrow along
    each unit step, each square bound by a commutativity, anticommutativity
    or zero relation on both or one of its routes, or left free: a binomial
    ideal, so a monomial algebra."""
    sizes = draw(st.sampled_from([(2, 2, 1), (3, 2, 1), (2, 2, 2),
                                  (3, 3, 1), (3, 2, 2), (3, 3, 2)]))
    points = [(i, j, k) for i in range(sizes[0]) for j in range(sizes[1])
              for k in range(sizes[2])]
    name = lambda p: "".join(map(str, p))
    step = lambda p, axis: tuple(c + (n == axis) for n, c in enumerate(p))
    arrows = [(f"x{axis}_{name(p)}", name(p), name(step(p, axis)))
              for p in points for axis in range(3)
              if step(p, axis) in points]
    relations = []
    for p in points:
        for i, j in ((0, 1), (0, 2), (1, 2)):
            top = step(step(p, i), j)
            if top not in points:
                continue
            route_i = (f"x{i}_{name(p)}", f"x{j}_{name(step(p, i))}")
            route_j = (f"x{j}_{name(p)}", f"x{i}_{name(step(p, j))}")
            kind = draw(st.sampled_from(
                ["commute", "commute", "anti", "zero", "one", "free"]))
            if kind in ("commute", "anti"):
                relations.append(RelationElement(
                    [(1, route_i), (1 if kind == "anti" else -1, route_j)]))
            elif kind == "zero":
                relations += [zero_relation(route_i), zero_relation(route_j)]
            elif kind == "one":
                relations.append(zero_relation(route_i))
    return BoundQuiverPresentation(Quiver(list(map(name, points)), arrows),
                                   relations)


@hypothesis.given(grid_presentations(), st.data())
@hypothesis.settings(max_examples=100, deadline=None, suppress_health_check=[
    hypothesis.HealthCheck.too_slow])
def test_cover_cube_scan_restricted_to_e_matches_the_corner(p, data):
    alg = build_algebra(p)
    keep = data.draw(st.sets(st.sampled_from(alg.vertices), min_size=1))
    found = assert_cover_scan_matches_corner_scan(alg, sorted(keep))
    hypothesis.event(f"{found} of m = 2, 3 hold a cube")


@st.composite
def quadratic_presentations(draw):
    """A quiver on up to four vertices with up to six arrows, each between
    two drawn vertices, a loop, the reverse of the arrow before it (a
    2-cycle) or parallel to it, bound by a zero relation on each 2-path with
    probability 2/3 and perhaps a 2-term relation in each block of parallel
    2-paths."""
    vertices = [str(i) for i in range(draw(st.integers(1, 4)))]
    ends = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["any", "loop", "back", "parallel"]))
        if kind == "any" or not ends:
            ends.append((draw(st.sampled_from(vertices)),
                         draw(st.sampled_from(vertices))))
        elif kind == "loop":
            v = draw(st.sampled_from(vertices))
            ends.append((v, v))
        else:
            s, t = ends[-1]
            ends.append((t, s) if kind == "back" else (s, t))
    q = Quiver(vertices, [(f"a{i}", s, t) for i, (s, t) in enumerate(ends)])
    blocks = {}
    for a in q.arrows:
        for b in q.arrows_from[a.target]:
            blocks.setdefault((a.source, b.target), []).append((a.name, b.name))
    relations = []
    for key in sorted(blocks):
        paths = blocks[key]
        relations += [zero_relation(p) for p in paths
                      if draw(st.sampled_from([True, True, False]))]
        if len(paths) > 1 and draw(st.booleans()):
            p1, p2 = draw(st.permutations(paths))[:2]
            relations.append(RelationElement(
                [(1, p1), (draw(st.sampled_from([-1, 1, 2])), p2)]))
    return BoundQuiverPresentation(q, relations)


@hypothesis.given(quadratic_presentations())
@hypothesis.settings(max_examples=100, suppress_health_check=[
    hypothesis.HealthCheck.too_slow, hypothesis.HealthCheck.filter_too_much])
def test_axiom_entries_match_both_sides_written_out(p):
    try:
        alg = build_algebra(p)
    except NotAdmissible:
        hypothesis.reject()
    for side in (alg, alg.opposite()):
        for d in range(1, 5):
            entries = _axiom_entries(side, d)
            assert entries == reference_axiom_entries(side, d)
            for key, entry in sorted(entries.items()):
                hypothesis.event(f"{key} {'pass' if entry['pass'] else 'fail'}")


def _certificate_at_1(alg):
    """The d = 1 certificate of alg, with alg its own cover and e every
    vertex."""
    return is_d_gentle_certificate(alg, Idempotent.of(alg.vertices), 1)


@hypothesis.given(quadratic_presentations())
@hypothesis.settings(max_examples=100, deadline=None, suppress_health_check=[
    hypothesis.HealthCheck.too_slow, hypothesis.HealthCheck.filter_too_much])
def test_a_gentle_algebra_passes_the_certificate_at_1(p):
    # the classical case: a gentle algebra is 1-gentle.  The converse does
    # not hold (see the known disagreements below)
    try:
        alg = build_algebra(p)
    except NotAdmissible:
        hypothesis.reject()
    gentle = is_gentle(alg)["gentle"]
    verdict = _certificate_at_1(alg).verdict
    hypothesis.event(f"gentle {gentle}, certificate {verdict}")
    if gentle:
        assert verdict == "pass"


def _loops():
    # two loops x1, x2 at one vertex, x1x2 = x2x1 = 0 and x1x1 = x2x2
    q = Quiver(["1"], [("x1", "1", "1"), ("x2", "1", "1")])
    return BoundQuiverPresentation(q, [
        zero_relation(("x1", "x2")), zero_relation(("x2", "x1")),
        RelationElement([(1, ("x1", "x1")), (-1, ("x2", "x2"))])])


def _loop_and_two_cycle():
    # a loop x1 at 4 and a 2-cycle x3: 1 -> 4, x4: 4 -> 1, x3x4 = 0 and
    # x1x1 = x4x3
    q = Quiver(["1", "4"], [("x1", "4", "4"), ("x3", "1", "4"),
                            ("x4", "4", "1")])
    return BoundQuiverPresentation(q, [
        zero_relation(("x3", "x4")),
        RelationElement([(1, ("x1", "x1")), (-1, ("x4", "x3"))])])


def _parallel_arrows():
    # parallel arrows x2, x4: 2 -> 1 after x1: 5 -> 2, x1x2 = x1x4
    q = Quiver(["5", "2", "1"], [("x1", "5", "2"), ("x2", "2", "1"),
                                 ("x4", "2", "1")])
    return BoundQuiverPresentation(q, [
        RelationElement([(1, ("x1", "x2")), (-1, ("x1", "x4"))])])


@pytest.mark.parametrize("make, failures", [
    (_loops, ["commutativity relation"]),
    (_loop_and_two_cycle, ["nonzero successors", "nonzero predecessors",
                           "commutativity relation"]),
    (_parallel_arrows, ["nonzero successors", "commutativity relation"]),
], ids=["two-loops", "loop-and-2-cycle", "parallel-arrows"])
def test_known_disagreements_pass_the_certificate_but_are_not_gentle(
        make, failures):
    # known disagreements at d = 1, pinned as they stand: each has a
    # commuting pair on a repeated vertex or on parallel arrows, which no
    # cube with distinct vertices sees.  Whether that is a defect of the
    # certificate or outside its scope is open
    alg = build_algebra(make())
    assert _certificate_at_1(alg).verdict == "pass"
    report = is_gentle(alg)
    assert not report["gentle"]
    assert [f["condition"] for f in report["failures"]] == failures
