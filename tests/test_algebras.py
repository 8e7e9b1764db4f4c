import random
from fractions import Fraction

import pytest

from hga import (
    BoundQuiverPresentation,
    Idempotent,
    Quiver,
    build_algebra,
    commutativity_relation,
    idempotent_subalgebra,
    minimal_presentation,
    quotient_by_idempotent,
    zero_relation,
)
from hga import algebras, axioms, reps
from hga.algebras import Algebra, represent
from hga.cluster import cluster_endo_algebra, ctgent_cover, ctgent_family
from hga.errors import EmptyIdempotent, InvalidPresentation, NotAdmissible
from hga.reduction import reduce_to_gentle
from hga.typea import build_typeA_auslander
import reference_scans
from reference_presentation import (
    assert_builds_like_reference,
    assert_presented_like_build,
    matches_reference,
    presented_during,
)
from workloads import CTGENT_POOL


def linear_a2():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    return build_algebra(BoundQuiverPresentation(q, []))


def square_algebra():
    # a -> b -> d and a -> c -> d with both compositions identified
    q = Quiver(
        ["a", "b", "c", "d"],
        [("p", "a", "b"), ("q", "a", "c"), ("r", "b", "d"), ("s", "c", "d")],
    )
    rel = commutativity_relation(("p", "r"), ("q", "s"))
    return build_algebra(BoundQuiverPresentation(q, [rel]))


def test_linear_a2_basis():
    a = linear_a2()
    assert a.dim == 3
    assert a.basis_src == ["1", "2", "1"]
    assert a.basis_tgt == ["1", "2", "2"]
    assert a.monomial


def test_square_dimension_and_table():
    a = square_algebra()
    assert a.dim == 9
    # the two length-2 path classes agree
    assert a.path_value(("p", "r")) == a.path_value(("q", "s"))
    for r in a.presentation.relations:
        assert reference_scans.relation_value(a, r) == {}


def test_associativity_exhaustive():
    a = square_algebra()
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                left = a.mult_elements(a.mult_basis(i, j), a.unit(k))
                right = a.mult_elements(a.unit(i), a.mult_basis(j, k))
                assert left == right


def test_identity_element():
    a = square_algebra()
    one = {i: 1 for i in range(len(a.vertices))}
    for i in range(a.dim):
        assert a.mult_elements(one, a.unit(i)) == a.unit(i)
        assert a.mult_elements(a.unit(i), one) == a.unit(i)


def test_zero_relation_chain():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(BoundQuiverPresentation(q, [zero_relation(("a", "b"))]))
    assert alg.dim == 5
    assert alg.path_value(("a", "b")) == {}


def test_truncated_loop():
    q = Quiver(["v"], [("x", "v", "v")])
    alg = build_algebra(
        BoundQuiverPresentation(q, [zero_relation(("x", "x", "x"))])
    )
    assert alg.dim == 3
    assert alg.rad_nilpotency() == 3


def _rad_powers(alg):
    """rad_nilpotency multiplied out: that of alg's table with no
    presentation, whose grading the shortcut would read."""
    return Algebra(alg.vertices, alg.basis_labels, alg.basis_src,
                   alg.basis_tgt, alg.mult,
                   arrow_class=alg.arrow_class).rad_nilpotency()


def test_rad_nilpotency_reads_the_grading_where_no_relation_mixes(
        monkeypatch):
    # one past the longest basis path on a homogeneous presentation; the
    # multiplied-out route is the oracle on both kinds, and the one taken
    # where a relation mixes term lengths, as xx - yyy does: there rad^3
    # holds yyy = xx, past the longest basis path xx
    q = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
    mixed = build_algebra(BoundQuiverPresentation(q, [
        [(1, ("x", "x")), (-1, ("y", "y", "y"))],
        [(1, ("x", "y"))], [(1, ("y", "x"))]]))
    assert mixed.rad_nilpotency() == _rad_powers(mixed) == 4
    assert max(map(len, mixed.basis_labels[1:])) == 2
    built = []
    init = Algebra.__init__

    def recorded(alg, *args, **kwargs):
        init(alg, *args, **kwargs)
        built.append(alg)

    monkeypatch.setattr(Algebra, "__init__", recorded)
    for n, d, idx in [(4, 2, (2,)), (3, 3, (3,)), (5, 3, (3,))]:
        c = ctgent_family(n, d, list(idx))
        cover, e = ctgent_cover(c)
        axioms.is_d_gentle_certificate(cover.algebra, e, d)
        reduce_to_gentle(cluster_endo_algebra(c).algebra)
    monkeypatch.undo()
    kinds = []
    for alg in built:
        if alg.presentation is not None:
            assert alg.rad_nilpotency() == _rad_powers(alg)
            kinds.append(any(algebras._mixes(r.terms)
                             for r in alg.presentation.relations))
    assert kinds.count(False) > 50 and True in kinds


def test_free_loop_not_admissible():
    q = Quiver(["v"], [("x", "v", "v")])
    with pytest.raises(NotAdmissible):
        build_algebra(BoundQuiverPresentation(q, []))


def test_inhomogeneous_relation_collapses():
    # x^2 = x^3 together with x^5 = 0 forces x^2 = 0
    q = Quiver(["v"], [("x", "v", "v")])
    rel = [
        [(1, ("x", "x")), (-1, ("x", "x", "x"))],
        [(1, ("x",) * 5)],
    ]
    alg = build_algebra(BoundQuiverPresentation(q, rel))
    assert alg.dim == 2
    assert alg.path_value(("x", "x")) == {}
    assert alg.path_value(("x",)) != {}


def test_idempotent_path_class_not_admissible():
    # x^2 = x^3 alone closes up the ideal at length 3, but leaves x^2 a
    # nonzero idempotent inside the radical
    q = Quiver(["v"], [("x", "v", "v")])
    rel = [[(1, ("x", "x")), (-1, ("x", "x", "x"))]]
    with pytest.raises(NotAdmissible, match="not nilpotent"):
        build_algebra(BoundQuiverPresentation(q, rel))


def test_mixed_length_relation_closes_at_its_normal_words():
    # x(xx - yyy) = xxx - xyyy puts xxx in the ideal, since xy = 0; a
    # truncated degreewise span only reaches xxx at length 4
    q = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
    rel = [
        [(1, ("x", "x")), (-1, ("y", "y", "y"))],
        [(1, ("x", "y"))],
        [(1, ("y", "x"))],
    ]
    alg = build_algebra(BoundQuiverPresentation(q, rel))
    assert alg.dim == 5
    assert alg.basis_labels == [("e", "v"), ("x",), ("y",), ("x", "x"),
                                ("y", "y")]
    assert alg.path_value(("y", "y", "y")) == alg.path_value(("x", "x"))
    assert alg.path_value(("x", "x", "x")) == {}


@pytest.mark.parametrize("n, d", [(6, 2), (7, 2), (8, 2), (9, 2), (4, 3),
                                  (5, 3), (6, 3), (4, 4)])
def test_typeA_build_matches_degreewise_reference(n, d):
    assert_builds_like_reference(build_typeA_auslander(n, d).presentation)


def test_opposite_involution():
    a = square_algebra()
    op = a.opposite()
    assert op.dim == a.dim
    assert op.opposite() is a
    for (i, j), prod in a.mult.items():
        assert op.mult[(j, i)] == prod
    arrows = {ar.name: ar for ar in op.presentation.quiver.arrows}
    assert arrows["p"].source == "b" and arrows["p"].target == "a"
    for r in op.presentation.relations:
        assert reference_scans.relation_value(op, r) == {}


def test_minimal_presentation_round_trip():
    a = square_algebra()
    pres, arrow_ids = minimal_presentation(a)
    assert len(pres.quiver.arrows) == 4
    assert len(pres.relations) == 1
    assert sorted(a.basis_labels[b] for b in arrow_ids.values()) == \
        [("p",), ("q",), ("r",), ("s",)]
    rebuilt = build_algebra(pres)
    assert rebuilt.dim == a.dim


def test_minimal_presentation_zero_relation():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(BoundQuiverPresentation(q, [zero_relation(("a", "b"))]))
    pres, arrow_ids = minimal_presentation(alg)
    assert len(pres.quiver.arrows) == 2
    assert set(arrow_ids) == {ar.name for ar in pres.quiver.arrows}
    assert len(pres.relations) == 1
    assert pres.relations[0].terms[0][0] == 1
    assert len(pres.relations[0].terms) == 1


def test_corner_algebra_of_square():
    a = square_algebra()
    corner = idempotent_subalgebra(a, Idempotent.of(["a", "d"]))
    assert corner.dim == 3
    assert corner.vertices == ["a", "d"]
    assert len(corner.presentation.quiver.arrows) == 1
    assert corner.presentation.relations == []
    assert corner.ambient is a
    assert corner.arrow_ambient == {"a_d": a.basis_labels.index(("p", "r"))}


def test_corner_requires_vertices():
    a = square_algebra()
    with pytest.raises(EmptyIdempotent):
        idempotent_subalgebra(a, Idempotent.of([]))


def test_quotient_by_one_vertex():
    a = square_algebra()
    quot = quotient_by_idempotent(a, Idempotent.of(["b"]))
    # killing b also kills the square class, so q then s composes to zero
    assert quot.vertices == ["a", "c", "d"]
    assert quot.dim == 5
    assert len(quot.presentation.quiver.arrows) == 2
    assert len(quot.presentation.relations) == 1


def test_quotient_by_two_vertices():
    a = square_algebra()
    quot = quotient_by_idempotent(a, Idempotent.of(["b", "c"]))
    assert quot.vertices == ["a", "d"]
    assert quot.dim == 2
    assert quot.presentation.quiver.arrows == []


def test_quotient_cap_covers_long_words_and_mixed_relations():
    # eight loops with x_i x_j = 0 for i >= j: the word x1 x2 ... x8 is
    # longer than build_algebra's default cap of 8 allows, so the
    # ambient needs a larger cap, and so does its quotient
    loops = [f"x{i}" for i in range(1, 9)]
    q = Quiver(["v", "w"], [(x, "v", "v") for x in loops])
    rel = [[(1, (x, y))] for i, x in enumerate(loops) for y in loops[:i + 1]]
    a = build_algebra(BoundQuiverPresentation(q, rel), length_cap=9)
    with pytest.raises(NotAdmissible):
        build_algebra(BoundQuiverPresentation(q, rel))
    quot = quotient_by_idempotent(a, Idempotent.of(["w"]))
    assert quot.dim == a.dim - 1 == 2 ** 8
    # x^2 = x^3 with x^5 = 0 leaves only x, but a pass meets x^2 before
    # x^2 - x^3 collapses it; a cap one past the longest word would stop
    # that pass
    q = Quiver(["v", "w"], [("x", "v", "v")])
    rel = [[(1, ("x", "x")), (-1, ("x", "x", "x"))], [(1, ("x",) * 5)]]
    a = build_algebra(BoundQuiverPresentation(q, rel))
    with pytest.raises(NotAdmissible):
        build_algebra(BoundQuiverPresentation(q, rel), length_cap=2)
    quot = quotient_by_idempotent(a, Idempotent.of(["w"]))
    assert quot.dim == 2


def twisted_raw():
    # a: 1 -> 3, b: 3 -> 2 and two raw elements r, s from 1 to 2 with
    # b * a = r + s, so the arrow is r and the path class ba is not a raw
    # basis element
    return Algebra(
        ["1", "2", "3"],
        [("e", "1"), ("e", "2"), ("e", "3"), ("a",), ("b",), ("r",), ("s",)],
        ["1", "2", "3", "1", "3", "1", "1"],
        ["1", "2", "3", "3", "2", "2", "2"],
        {(4, 3): {5: Fraction(1), 6: Fraction(1)}},
    )


def auslander_corner(n, d, cut, quotient=False):
    make = quotient_by_idempotent if quotient else idempotent_subalgebra
    return make(build_typeA_auslander(n, d), Idempotent.of(cut))


@pytest.mark.parametrize("make, quotient", [
    (lambda: idempotent_subalgebra(square_algebra(), Idempotent.of(["a", "d"])),
     False),
    (lambda: quotient_by_idempotent(square_algebra(), Idempotent.of(["b"])),
     True),
    (lambda: auslander_corner(4, 2, ["13", "24", "35", "15"]), False),
    (lambda: auslander_corner(4, 2, ["13", "14", "15"]), False),
    (lambda: auslander_corner(4, 2, ["24", "35"], quotient=True), True),
    (lambda: auslander_corner(3, 3, ["135", "136", "246"], quotient=True),
     True),
    (lambda: represent(twisted_raw()), False),
], ids=["square-corner", "square-quotient", "A24-corner4", "A24-corner3",
        "A24-quotient", "A33-quotient", "twisted-raw"])
def test_arrow_ambient_embeds_arrows(make, quotient):
    alg = make()
    amb = alg.ambient
    if amb is None:
        assert alg.arrow_ambient == {}
        return
    arrows = alg.presentation.quiver.arrows
    assert sorted(alg.arrow_ambient) == sorted(ar.name for ar in arrows)
    for ar in arrows:
        i = alg.arrow_ambient[ar.name]
        assert (amb.basis_src[i], amb.basis_tgt[i]) == (ar.source, ar.target)
    if not quotient:
        return
    # the arrows of a quotient are the ambient arrows between kept vertices
    kept = set(alg.vertices)
    between = sorted(amb.arrow_class[ar.name]
                     for ar in amb.presentation.quiver.arrows
                     if ar.source in kept and ar.target in kept)
    assert sorted(alg.arrow_ambient.values()) == between


def test_represent_rejects_singular_block():
    # one vertex with slots e, x, w: x * x lands on the idempotent slot, so
    # the path class xx and the vertex share a raw vector
    raw = Algebra(["1"], [("e", "1"), ("x",), ("w",)], ["1"] * 3, ["1"] * 3,
                  {(1, 1): {0: Fraction(1)}, (2, 1): {2: Fraction(1)}})
    with pytest.raises(InvalidPresentation, match="degenerate"):
        represent(raw)


@pytest.mark.parametrize("n,d", [(4, 2), (3, 3)])
def test_relation_search_matches_full_kernel_on_corners_and_quotients(n, d):
    a = build_typeA_auslander(n, d)
    verts = list(a.vertices)
    cuts = ([[v] for v in verts] + [verts[:k] for k in range(2, len(verts))]
            + [verts[k::2] for k in (0, 1)])

    def run():
        for cut in cuts:
            idempotent_subalgebra(a, Idempotent.of(cut))
            quotient_by_idempotent(a, Idempotent.of(cut))

    # a quotient is built from its presentation and re-presents nothing
    seen = presented_during(run)
    assert len(seen) == len(cuts)
    for raw, alg, arrow_ids in seen:
        assert matches_reference(raw, alg.presentation, arrow_ids)
        assert_presented_like_build(alg)
    assert matches_reference(a, *minimal_presentation(a))


def test_corners_call_no_build_and_quotients_no_represent(monkeypatch):
    # the re-presentation builds its algebra in the pass that finds the
    # relations, so no presentation is built a second time; a quotient is
    # built once, from its presentation, and re-presents nothing
    a = build_typeA_auslander(4, 2)
    build, builds = algebras.build_algebra, []

    def counted_build(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    def present(*args):
        raise AssertionError("represent called")

    monkeypatch.setattr(algebras, "build_algebra", counted_build)
    for cut in (["13", "24", "35", "15"], ["24", "35"]):
        idempotent_subalgebra(a, Idempotent.of(cut))
        assert builds == []
        with monkeypatch.context() as m:
            m.setattr(algebras, "_present", present)
            quot = quotient_by_idempotent(a, Idempotent.of(cut))
        assert builds == [quot.presentation]
        builds.clear()


def test_relation_search_matches_full_kernel_on_endo_algebra():
    # every algebra re-presented on the way to the endomorphism algebra of
    # (4,2,[2,4]), and that algebra itself
    res = []
    seen = presented_during(lambda: res.append(
        cluster_endo_algebra(ctgent_family(4, 2, [2, 4]))))
    endo = res[0].algebra
    assert [(raw.dim, alg) for raw, alg, _ in seen] == [(endo.dim, endo)]
    for raw, alg, arrow_ids in seen:
        assert matches_reference(raw, alg.presentation, arrow_ids)
        assert_presented_like_build(alg)
    assert matches_reference(endo, *minimal_presentation(endo))


@pytest.mark.parametrize("mult", [
    # x = x^2: the radical has no arrow, and is not nilpotent
    {(1, 1): {1: 1}},
    # y is an arrow with y^2 = 0, but x = x^2 is left out of its paths
    {(2, 2): {2: 1}},
    # y^2 = x and every longer power of y is x: the paths never vanish
    {(1, 1): {2: 1}, (1, 2): {2: 1}, (2, 1): {2: 1}, (2, 2): {2: 1}},
], ids=["no-arrow", "paths-vanish", "paths-persist"])
def test_non_nilpotent_radical_not_admissible(mult):
    nb = 1 + max(k for key in mult for k in key)
    raw = Algebra(["1"], [("e", "1")] + [(f"b{i}",) for i in range(1, nb)],
                  ["1"] * nb, ["1"] * nb, mult)
    with pytest.raises(NotAdmissible, match="not nilpotent"):
        minimal_presentation(raw)
    with pytest.raises(NotAdmissible, match="not nilpotent"):
        represent(raw)


def _index_cases():
    """(algebra, idempotents): random vertex subsets of A^3_n, n = 3, 4, 5,
    each ctgent cover with its collection's idempotent and a random pair of
    its vertices, and random vertex subsets of A^2_5."""
    rng = random.Random("basis-index")

    def subsets(a):
        return [Idempotent.of(rng.sample(a.vertices, k))
                for k in (1, 2, 3, len(a.vertices) // 2)]

    for n in (3, 4, 5):
        a = build_typeA_auslander(n, 3)
        yield a, subsets(a)
    for n, d, idx in CTGENT_POOL:
        res, e = ctgent_cover(ctgent_family(n, d, list(idx)))
        cover = res.algebra
        yield cover, [e, Idempotent.of(rng.sample(cover.vertices, 2))]
    a = build_typeA_auslander(5, 2)
    yield a, subsets(a)


def test_basis_index_readers_match_endpoint_scans():
    for a, idems in _index_cases():
        for v in a.vertices:
            assert list(reps._projective_basis(a, v)[0].items()) == \
                list(reference_scans.projective_basis_ids(a, v).items())
        for e in idems:
            reference_scans.assert_corner_matches_raw_route(a, e)
            assert axioms._hull_idempotent(a, e).vertex_subset == \
                reference_scans.hull_vertices(a, e)
            reference_scans.assert_quotient_matches_reference(a, e)


def _oracle_cases():
    """(algebra, cuts): random vertex subsets of A^2_4, A^2_5, A^3_3 and
    A^3_4, then of each cluster endomorphism algebra of the ctgent pool and
    of its opposite, the algebra a dual reduction step cuts."""
    rng = random.Random("quotient-oracle")

    def cuts(a):
        return [Idempotent.of(rng.sample(a.vertices, k))
                for k in (1, 2, len(a.vertices) // 2, len(a.vertices) - 1)]

    for n, d in ((4, 2), (5, 2), (3, 3), (4, 3)):
        a = build_typeA_auslander(n, d)
        yield a, cuts(a)
    for n, d, idx in CTGENT_POOL:
        a = cluster_endo_algebra(ctgent_family(n, d, list(idx))).algebra
        yield a, cuts(a)
        yield a.opposite(), cuts(a)


def test_quotient_matches_raw_table_reference():
    for a, cuts in _oracle_cases():
        for f in cuts:
            quot = reference_scans.assert_quotient_matches_reference(a, f)
            assert quot.ambient is a
            assert quot.quiver.arrows == [
                ar for ar in a.quiver.arrows
                if quot.arrow_ambient.get(ar.name) == a.arrow_class[ar.name]]
