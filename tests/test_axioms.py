import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from hga import (
    BoundQuiverPresentation,
    Idempotent,
    Quiver,
    RelationElement,
    algebras,
    axioms,
    build_algebra,
    commutativity_relation,
    idempotent_subalgebra,
    zero_relation,
)
from hga.algebras import CornerQuiver
from hga.axioms import (
    _corner_cube_violation,
    _count_corner_cubes,
    _e3_entry,
    _hull_idempotent,
    _mask_tables,
    _strong_successors,
    _witness_span,
    check_axioms,
    commutativity_squares,
    find_m_cubes,
    find_sandwiches,
    is_d_gentle_certificate,
    is_gentle,
    is_pre_gentle,
    strong_neighbors,
)
from hga.cluster import cluster_endo_algebra, ctgent_cover, ctgent_family
from hga.errors import EmptyIdempotent, UnknownArrow, UnknownVertex
from hga.reduction import gentle_sg_invariant, reduce_to_gentle
from hga.typea import build_typeA_auslander
import reference_scans
from reference_presentation import presented_during
from workloads import CTGENT_POOL, RIGID_NS, rigid_pool


def linear(n, relations=()):
    q = Quiver(
        [str(i) for i in range(1, n + 1)],
        [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)],
    )
    return BoundQuiverPresentation(q, list(relations))


def square():
    q = Quiver(
        ["a", "b", "c", "d"],
        [("p", "a", "b"), ("q", "a", "c"), ("r", "b", "d"), ("s", "c", "d")],
    )
    return BoundQuiverPresentation(
        q, [commutativity_relation(("p", "r"), ("q", "s"))]
    )


def cube3():
    verts = [format(i, "03b") for i in range(8)]
    arrows = []
    for v in verts:
        for k in range(3):
            if v[k] == "0":
                w = v[:k] + "1" + v[k + 1:]
                arrows.append((f"c{v}_{k}", v, w))
    q = Quiver(verts, arrows)
    rels = []
    for v in verts:
        for k in range(3):
            for l in range(k + 1, 3):
                if v[k] == "0" and v[l] == "0":
                    vk = v[:k] + "1" + v[k + 1:]
                    vl = v[:l] + "1" + v[l + 1:]
                    rels.append(commutativity_relation(
                        (f"c{v}_{k}", f"c{vk}_{l}"),
                        (f"c{v}_{l}", f"c{vl}_{k}"),
                    ))
    return BoundQuiverPresentation(q, rels)


def sandwich_config1():
    q = Quiver(
        ["w0", "x", "u", "v", "y", "w5"],
        [
            ("z1", "w0", "x"),
            ("a1", "x", "u"),
            ("b1", "u", "y"),
            ("c1", "x", "v"),
            ("d1", "v", "y"),
            ("z2", "y", "w5"),
        ],
    )
    return BoundQuiverPresentation(q, [
        commutativity_relation(("a1", "b1"), ("c1", "d1")),
        zero_relation(("z1", "a1")),
        zero_relation(("d1", "z2")),
    ])


def corner_e1_breaker():
    # two length-3 zero relations that collapse to parallel length-2 zeros
    # in the corner on {1, 3, 4}
    q = Quiver(
        ["1", "2", "2p", "3", "4"],
        [
            ("al", "1", "2"),
            ("alp", "1", "2p"),
            ("be", "2", "3"),
            ("bep", "2p", "3"),
            ("ga", "3", "4"),
        ],
    )
    return BoundQuiverPresentation(q, [
        zero_relation(("al", "be", "ga")),
        zero_relation(("alp", "bep", "ga")),
    ])


def three_routes():
    # sum of the three routes vanishes: non-monomial basis products
    q = Quiver(
        ["x", "u", "v", "w", "y"],
        [
            ("a1", "x", "u"), ("a2", "x", "v"), ("a3", "x", "w"),
            ("b1", "u", "y"), ("b2", "v", "y"), ("b3", "w", "y"),
        ],
    )
    rel = RelationElement(
        [(1, ("a1", "b1")), (1, ("a2", "b2")), (1, ("a3", "b3"))]
    )
    return BoundQuiverPresentation(q, [rel])


def test_strong_neighbors_linear():
    p = linear(3)
    rec = strong_neighbors(p, "a1")
    assert rec["strongSuccessors"] == ["a2"]
    assert rec["strongPredecessors"] == []
    with pytest.raises(UnknownArrow):
        strong_neighbors(p, "nope")
    # both sides are read from one table: the predecessors are the strong
    # successors in the opposite algebra
    alg = build_algebra(p)
    assert _strong_successors(alg) == {"a1": ("a2",), "a2": ()}
    assert _strong_successors(alg.opposite()) == {"a1": (), "a2": ("a1",)}
    # the lists handed out are fresh: editing one leaves the table as it is
    rec = strong_neighbors(alg, "a2")
    rec["strongPredecessors"].append("a2")
    assert strong_neighbors(alg, "a2")["strongPredecessors"] == ["a1"]


def test_strong_neighbors_commutativity_paired():
    p = square()
    assert strong_neighbors(p, "p")["strongSuccessors"] == []
    assert strong_neighbors(p, "r")["strongPredecessors"] == []
    alg = build_algebra(p)
    assert _strong_successors(alg) == dict.fromkeys("pqrs", ())
    assert _strong_successors(alg.opposite()) == dict.fromkeys("pqrs", ())


def test_find_m_cubes_counts():
    assert find_m_cubes(linear(4), 2) == []
    cubes = find_m_cubes(square(), 2)
    assert len(cubes) == 1
    assert cubes[0].vertices[frozenset()] == "a"
    p = cube3()
    assert len(find_m_cubes(p, 3)) == 1
    assert len(find_m_cubes(p, 2)) == 6


def test_cube_search_rejects_repeated_vertex():
    # a and b both run 1 -> 2 and commute with c: a "square" on 1, 2, 2, 3
    q = Quiver(["1", "2", "3"],
               [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")])
    p = BoundQuiverPresentation(
        q, [commutativity_relation(("a", "c"), ("b", "c"))])
    assert find_m_cubes(p, 2) == []
    assert _count_corner_cubes(build_algebra(p), "1", ["a", "b"]) == 0


def rebuilt_opposite(p):
    """The opposite presentation rebuilt from p: arrows and relation paths
    reversed.  Reference for the (A3') counts on
    ``build_algebra(p).opposite()``."""
    quiver = Quiver(list(p.quiver.vertices),
                    [(a.name, a.target, a.source) for a in p.quiver.arrows])
    relations = [RelationElement([(c, tuple(reversed(path)))
                                  for c, path in r.terms])
                 for r in p.relations]
    return BoundQuiverPresentation(quiver, relations)


def test_dual_corner_counts_match_rebuilt_opposite():
    presentations = [build_typeA_auslander(n, 3).presentation for n in (3, 4)]
    presentations += [three_routes(), sandwich_config1(), cube3()]
    counts = set()
    for p in presentations:
        op = build_algebra(p).opposite()
        ref = build_algebra(rebuilt_opposite(p))
        for v in p.quiver.vertices:
            incoming = sorted(a.name for a in p.quiver.arrows_to[v])
            for m in (2, 3):
                for names in permutations(incoming, m):
                    got = _count_corner_cubes(op, v, names)
                    assert got == _count_corner_cubes(ref, v, names)
                    counts.add(got)
    assert counts == {0, 1}


def reference_corner_cube(a, m, keep=None):
    """The corner cube search with vertex distinctness and the mask test
    ``req & forb == 0`` applied only to complete cubes; with a vertex set
    ``keep``, a cube lies in it and only the middles in it are forbidden."""
    t = _mask_tables(a)
    lab, tgt = a.basis_labels, a.basis_tgt
    kept = sum(1 << i for i, v in enumerate(a.vertices)
               if keep is None or v in keep)
    inside = lambda v: kept >> a.e_index[v] & 1
    edges = sorted(
        ((frozenset(s), d) for k in range(m) for s in combinations(range(m), k)
         for d in range(m) if d not in s),
        key=lambda sd: (len(sd[0]), sorted(sd[0]), sd[1]))

    def commutes(arrows, s, i, j):
        p1 = a.mult.get((arrows[(s | {i}, j)], arrows[(s, i)]))
        p2 = a.mult.get((arrows[(s | {j}, i)], arrows[(s, j)]))
        return p1 and p2 and set(p1) == set(p2)

    def search(vertices, arrows, k):
        if k == len(edges):
            req = forb = 0
            for b in arrows.values():
                req |= t["vm"][b]
                forb |= t["mid"][b] & kept
            distinct = len(set(vertices.values())) == len(vertices)
            return (vertices, arrows, req) if distinct and not req & forb \
                else None
        s, d = edges[k]
        top = s | {d}
        for b in sorted(t["by_source"].get(vertices[s], []),
                        key=lambda x: lab[x]):
            if vertices.get(top, tgt[b]) != tgt[b] or not inside(tgt[b]):
                continue
            placed = {**arrows, (s, d): b}
            if all(commutes(placed, s - {j}, j, d) for j in s
                   if (s - {j} | {d}, j) in placed):
                got = search({**vertices, top: tgt[b]}, placed, k + 1)
                if got:
                    return got
        return None

    for corner in sorted(a.vertices, key=str):
        got = inside(corner) and search({frozenset(): corner}, {}, 0)
        if got:
            vertices, arrows, req = got
            key = lambda s: "".join(str(d) for d in sorted(s))
            return {
                "subset": [v for i, v in enumerate(a.vertices)
                           if req >> i & 1],
                "m": m,
                "vertices": {key(s): v for s, v in vertices.items()},
                "arrows": {f"{key(s)}+{d}": lab[b]
                           for (s, d), b in arrows.items()},
            }
    return None


def assert_cover_scan_matches_corner_scan(a, subset, ms=(2, 3),
                                          reference=True):
    """The scan of a monomial a restricted to subset finds a cube exactly
    when the scan of the re-presented corner does, and with ``reference``
    each agrees with the leaf reference; returns how many of the ms found
    one."""
    assert a.monomial
    corner = idempotent_subalgebra(a, Idempotent.of(subset))
    assert corner.monomial
    found = 0
    for m in ms:
        witness = _corner_cube_violation(a, m, subset)
        own = _corner_cube_violation(corner, m)
        assert (witness is None) == (own is None)
        if reference:
            assert witness == reference_corner_cube(a, m, set(subset))
            assert own == reference_corner_cube(corner, m)
        found += witness is not None
    return found


def test_corner_cube_violation_matches_leaf_reference():
    rng = random.Random(3)
    positive = cases = 0
    for n, d in ((3, 3), (4, 3), (5, 2), (3, 4)):
        a = build_typeA_auslander(n, d)
        for _ in range(8):
            subset = rng.sample(a.vertices, rng.randint(4, len(a.vertices)))
            positive += assert_cover_scan_matches_corner_scan(a, subset) > 0
            cases += 1
    for n, d, idx in [key for key in CTGENT_POOL if key[0] < 5]:
        a = ctgent_cover(ctgent_family(n, d, list(idx)))[0].algebra
        for _ in range(4):
            subset = rng.sample(a.vertices, rng.randint(4, len(a.vertices)))
            positive += assert_cover_scan_matches_corner_scan(a, subset) > 0
            cases += 1
    # both outcomes are seen
    assert 0 < positive < cases


@pytest.mark.parametrize("m", [2, 3])
def test_cube_scan_needs_2_to_the_m_kept_vertices(m):
    # every kept set of 2^m - 1 and 2^m vertices of the 3-cube: the scan
    # agrees with the reference, which has no size bound, and only sets of
    # 2^m vertices hold an m-cube (at m = 3, the whole cube only)
    a = build_algebra(cube3())
    found = Counter()
    for size in (2 ** m - 1, 2 ** m):
        for keep in combinations(a.vertices, size):
            witness = _corner_cube_violation(a, m, keep)
            assert witness == reference_corner_cube(a, m, set(keep))
            found[size] += witness is not None
    assert found[2 ** m - 1] == 0 < found[2 ** m]
    assert _corner_cube_violation(a, m) == reference_corner_cube(a, m)


def test_cover_scan_matches_corner_scan_on_the_pools():
    # the rigid entries are checked against the reference, which scans
    # every kept set, as the bounded scans skip each one of fewer than 8
    # vertices
    pool, found = rigid_pool(), Counter()
    for n in RIGID_NS:
        cover = build_typeA_auslander(n, 3)
        for part in pool[n]:
            for sub in part:
                subset = ["".join(map(str, t)) for t in sub]
                found[assert_cover_scan_matches_corner_scan(
                    cover, subset, (3,))] += 1
    for n, d, idx in CTGENT_POOL:
        cover, e = ctgent_cover(ctgent_family(n, d, list(idx)))
        found[assert_cover_scan_matches_corner_scan(
            cover.algebra, sorted(e.vertex_subset), (d + 1,),
            reference=False)] += 1
    # no certificate of either pool holds a cube, as their reports say
    assert found == {0: 216 + 13}


def test_commutativity_squares():
    sqs = commutativity_squares(square())
    assert len(sqs) == 1
    assert sqs[0]["x"] == "a" and sqs[0]["y"] == "d"
    assert commutativity_squares(linear(3)) == []


def test_find_sandwiches_config1():
    p = sandwich_config1()
    ws = find_sandwiches(p)
    assert len(ws) == 1
    w = ws[0]
    assert w.config == 1
    assert w.zero_pre == ("z1", "a1")
    assert w.zero_post == ("z2", "d1")
    assert w.square["x"] == "x" and w.square["y"] == "y"


def test_find_sandwiches_deterministic():
    p = sandwich_config1()
    first = [w.to_dict() for w in find_sandwiches(p)]
    second = [w.to_dict() for w in find_sandwiches(sandwich_config1())]
    assert first == second


def test_check_axioms_linear_gentle():
    report = check_axioms(linear(4, [zero_relation(("a1", "a2"))]), 1)
    assert report.verdict
    assert all(e["pass"] for e in report.entries.values())


def test_check_axioms_square_d2():
    report = check_axioms(square(), 2)
    assert report.verdict


def test_check_axioms_degree_violation():
    report = check_axioms(three_routes(), 2)
    assert not report.entries["A1"]["pass"]
    assert "x" in report.entries["A1"]["witnesses"]


def test_check_axioms_a4_long_zero_relation():
    p = linear(4, [zero_relation(("a1", "a2", "a3"))])
    report = check_axioms(p, 1)
    assert not report.entries["A4"]["pass"]
    reason = report.entries["A4"]["witnesses"][0]["reason"]
    assert "length > 2" in reason


def test_check_axioms_a4_three_term_relation():
    report = check_axioms(three_routes(), 3)
    assert not report.entries["A4"]["pass"]


def test_check_axioms_sandwich_fails_e3():
    report = check_axioms(sandwich_config1(), 2)
    assert not report.entries["E3"]["pass"]
    assert report.entries["E3"]["witnesses"][0]["config"] == 1


def test_is_pre_gentle_gentle_chain():
    p = linear(4, [zero_relation(("a1", "a2"))])
    rep = is_pre_gentle(p, 1)
    assert rep.verdict == "pass"
    assert rep.e4["mode"] == "heredity"
    assert rep.e4["complete"]


def test_is_pre_gentle_square():
    rep = is_pre_gentle(square(), 2)
    assert rep.verdict == "pass"


def test_is_pre_gentle_long_zeros_fail_quadraticity():
    rep = is_pre_gentle(corner_e1_breaker(), 2)
    assert rep.verdict == "fail"
    assert not rep.axioms.entries["A4"]["pass"]
    assert rep.e4["verdict"] == "pass"


def test_is_pre_gentle_witness_localizes():
    rep = is_pre_gentle(sandwich_config1(), 2)
    assert rep.verdict == "fail"
    w = rep.e4["witness"]
    assert w["axiom"] == "E3"
    assert w["subset"] == sorted(["w0", "x", "u", "v", "y", "w5"])


def test_is_pre_gentle_non_monomial():
    p = three_routes()
    assert not build_algebra(p).monomial
    rep = is_pre_gentle(p, 3)
    assert rep.e4["mode"] == "heredity"
    assert rep.e4["complete"]
    assert rep.e4["cappedAt"] is None


def test_is_gentle():
    assert is_gentle(linear(4, [zero_relation(("a1", "a2"))]))["gentle"]
    rep = is_gentle(square())
    assert not rep["gentle"]
    assert any(f["condition"] == "commutativity relation"
               for f in rep["failures"])
    rep = is_gentle(linear(4, [zero_relation(("a1", "a2", "a3"))]))
    assert not rep["gentle"]


def test_certificate_builds_no_enumerated_corner_again(monkeypatch):
    p = three_routes()
    calls = []

    def counting_build(pres, *args, **kwargs):
        calls.append(pres)
        return build_algebra(pres, *args, **kwargs)

    monkeypatch.setattr(axioms, "build_algebra", counting_build)
    cert = is_d_gentle_certificate(p, Idempotent.of(p.quiver.vertices), 1)
    assert cert.cube_check["mode"] == "enumeration"
    # the cover itself and nothing more: every enumerated subset algebra is
    # already built, and (A4) builds no quadratic algebra to compare with
    # the cover, since the three-term relation fails its shape test
    assert not cert.pre_gentle.axioms.entries["A4"]["pass"]
    assert len(calls) == 1 and calls[0] is p


def test_certificate_linear_is_1_gentle():
    p = linear(3)
    cert = is_d_gentle_certificate(build_algebra(p),
                                   Idempotent.of(["1", "2", "3"]), 1)
    assert cert.verdict == "pass"


def test_certificate_square_fails_at_1_passes_at_2():
    p = square()
    cert = is_d_gentle_certificate(
        build_algebra(p), Idempotent.of(["a", "b", "c", "d"]), 1
    )
    assert cert.verdict == "fail"
    assert cert.cube_check["witness"] is not None
    cert = is_d_gentle_certificate(
        build_algebra(p), Idempotent.of(["a", "b", "c", "d"]), 2
    )
    assert cert.verdict == "pass"


def test_certificate_square_corner_passes():
    p = square()
    cert = is_d_gentle_certificate(build_algebra(p),
                                   Idempotent.of(["a", "b", "d"]), 2)
    assert cert.verdict == "pass"
    assert sorted(cert.corner.vertices) == ["a", "b", "d"]


def test_sandwich_cover_fails_certificate():
    p = sandwich_config1()
    cover = build_algebra(p)
    cert = is_d_gentle_certificate(cover, Idempotent.of(p.quiver.vertices), 2)
    assert cert.verdict == "fail"
    assert cert.pre_gentle.verdict == "fail"
    # the hull has exactly the six vertices of the sandwich, and its
    # (E3) and (E4) fail with the sandwich as witness
    assert len(cert.pre_gentle.hull) == 6
    e3 = cert.pre_gentle.axioms.entries["E3"]
    assert not e3["pass"] and e3 == _e3_entry(
        CornerQuiver(cover, Idempotent.of(cert.pre_gentle.hull)))
    assert cert.pre_gentle.e4["witness"]["axiom"] == "E3"
    assert cert.pre_gentle.e4["witness"]["subset"] == cert.pre_gentle.hull


def mixed_routes(rng):
    """x -> m1..m4 -> y with w -> x and y -> z: the four routes r_i through
    m_i satisfy r1 + c2·r2 + c3·r3 = 0 and r4 = c4·r1 for seeded nonzero
    integers c, so the x -> y block is not monomial and (x, m1, m4, y) is
    a commuting square; w·x·m1 and m4·y·z are zero."""
    q = Quiver(
        ["w", "x", "m1", "m2", "m3", "m4", "y", "z"],
        [("g", "w", "x"), ("h", "y", "z")]
        + [(f"a{i}", "x", f"m{i}") for i in range(1, 5)]
        + [(f"b{i}", f"m{i}", "y") for i in range(1, 5)])
    c2, c3, c4 = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
    route = lambda i: (f"a{i}", f"b{i}")
    return BoundQuiverPresentation(q, [
        RelationElement([(1, route(1)), (c2, route(2)), (c3, route(3))]),
        RelationElement([(1, route(4)), (-c4, route(1))]),
        zero_relation(("g", "a1")),
        zero_relation(("b4", "h")),
    ])


def seeded_corners():
    """(ambient, subset) pairs: seeded corners of A^3_3..A^3_5, of the
    covers of the d = 3 ctgent keys (their hulls fail (E3)), of seeded
    algebras whose corners are not monomial and of A^2_5, and the corner
    of each ctgent cover at its collection."""
    rng = random.Random(24)
    cases = []
    for n in (3, 4, 5):
        a = build_typeA_auslander(n, 3)
        cases += [(a, rng.sample(a.vertices, rng.randint(4, len(a.vertices))))
                  for _ in range(4)]
    for idx in ([2], [3]):
        cover, e = ctgent_cover(ctgent_family(3, 3, idx))
        a = cover.algebra
        cases.append((a, sorted(_hull_idempotent(a, e).vertex_subset)))
        cases += [(a, rng.sample(a.vertices, rng.randint(6, len(a.vertices))))
                  for _ in range(3)]
    for _ in range(3):
        a = build_algebra(mixed_routes(rng))
        cases += [(a, rng.sample(a.vertices, rng.randint(2, len(a.vertices))))
                  for _ in range(4)]
        cases.append((a, a.vertices))
    t = build_algebra(three_routes())
    cases += [(t, s) for s in (t.vertices, ["x", "y"], ["x", "u", "v", "y"])]
    a = build_typeA_auslander(5, 2)
    cases += [(a, rng.sample(a.vertices, rng.randint(2, len(a.vertices))))
              for _ in range(4)]
    for n, d, idx in CTGENT_POOL:
        cover, e = ctgent_cover(ctgent_family(n, d, list(idx)))
        cases.append((cover.algebra, sorted(e.vertex_subset)))
    return cases


def test_corner_quiver_checks_match_the_re_presented_corner():
    sandwiches = cubes = non_monomial = parallel = 0
    for a, subset in seeded_corners():
        e = Idempotent.of(subset)
        cq, _ = reference_scans.assert_corner_matches_raw_route(a, e)
        corner = idempotent_subalgebra(a, e)
        assert cq.quiver == corner.quiver
        assert commutativity_squares(cq) == commutativity_squares(corner)
        entry = _e3_entry(cq)
        assert entry == _e3_entry(corner)
        for w in entry["witnesses"]:
            assert _witness_span(cq, "E3", w) == _witness_span(corner, "E3", w)
        for m in (2, 3):
            got = [c.to_dict() for c in find_m_cubes(cq, m)]
            assert got == [c.to_dict() for c in find_m_cubes(corner, m)]
            cubes += len(got)
        sandwiches += len(entry["witnesses"])
        non_monomial += not corner.monomial
        parallel += any(name.count("_") > 1 for name in cq.arrow_ids)
    # the comparisons see sandwiches, cubes, non-monomial corners and
    # parallel arrows
    assert sandwiches and cubes and non_monomial and parallel


def test_certificate_e3_is_the_hull_corner_entry():
    # the certificate skips the hull corner under six vertices; on every
    # hull of the rigid pool and of the seeded corners its (E3) entry is
    # still the one the corner gives
    pool = rigid_pool()
    covers = {n: build_typeA_auslander(n, 3) for n in RIGID_NS}
    cases = [(covers[n], ["".join(map(str, t)) for t in sub])
             for n in RIGID_NS for part in pool[n] for sub in part]
    sizes, failing = Counter(), 0
    for cover, subset in cases + seeded_corners():
        e = Idempotent.of(subset)
        hull = _hull_idempotent(cover, e)
        entry = is_d_gentle_certificate(cover, e, 2).pre_gentle.axioms \
            .entries["E3"]
        assert entry == _e3_entry(CornerQuiver(cover, hull))
        sizes[len(hull.vertex_subset)] += 1
        failing += not entry["pass"]
    # hulls just under and at the bound are seen, and sandwiches are found
    assert sizes[5] and sizes[6] and failing


@pytest.mark.parametrize("check", [
    is_gentle,
    lambda cq: check_axioms(cq, 2),
    lambda cq: is_pre_gentle(cq, 2),
    lambda cq: strong_neighbors(cq, cq.quiver.arrows[0].name),
    axioms.check_axiom_a4,
])
def test_checks_needing_a_built_algebra_refuse_a_corner_quiver(check):
    a = build_typeA_auslander(3, 3)
    cq = CornerQuiver(a, Idempotent.of(a.vertices[:6]))
    with pytest.raises(TypeError, match="CornerQuiver"):
        check(cq)


@pytest.mark.parametrize("mode", ["pattern-scan", "enumeration"])
def test_certificate_represents_only_the_reported_corner(mode):
    if mode == "enumeration":
        cover = build_algebra(three_routes())
        e, d = Idempotent.of(cover.vertices), 1
    else:
        cover = build_typeA_auslander(3, 3)
        e, d = Idempotent.of(["136", "146", "147", "157", "257", "357"]), 2
    certs, corners = [], []
    calls = presented_during(
        lambda: certs.append(is_d_gentle_certificate(cover, e, d)))
    cert, = certs
    assert cert.cube_check["mode"] == mode
    assert cert.cube_check["verdict"] == "pass"
    if mode == "pattern-scan":
        assert len(cert.pre_gentle.hull) > len(e.vertex_subset)
    # (E3) on the hull and each enumerated subset re-present nothing, and a
    # passing pattern scan reads the cover restricted to e: only the
    # enumeration re-presents its corner while certifying
    assert len(calls) == (mode == "enumeration")
    calls += presented_during(
        lambda: corners.extend([cert.corner, cert.corner]))
    # reading the corner re-presents it at most once, and every read gives
    # the one corner
    assert corners[0] is corners[1]
    assert [(raw.vertices, raw.dim) for raw, _, _ in calls] == [
        (cert.corner.vertices, cert.corner.dim)]
    assert cert.corner.ambient is cover


def test_certificate_enumeration_stops_at_the_first_small_subset(
        monkeypatch):
    cover = build_algebra(three_routes())
    visited = []
    largest_first = axioms._subsets_largest_first

    def counting(vertices, cap):
        for subset in largest_first(vertices, cap):
            visited.append(subset)
            yield subset

    monkeypatch.setattr(axioms, "_subsets_largest_first", counting)
    for d, seen in ((1, 7), (2, 1)):
        visited.clear()
        cert = is_d_gentle_certificate(cover, Idempotent.of(cover.vertices), d)
        # subsets come largest first, so the first one with fewer than
        # 2^(d+1) vertices ends the search: the 5-set, the five 4-sets and
        # one 3-set at d = 1, the 5-set alone at d = 2
        assert len(visited) == seen
        assert len(visited[-1]) < 2 ** (d + 1)
        assert cert.cube_check == {"mode": "enumeration", "complete": True,
                                   "cappedAt": None, "witness": None,
                                   "verdict": "pass"}


@pytest.mark.parametrize("labels", [["999"], ["999", "136"]])
def test_certificate_validates_e_before_taking_its_hull(labels):
    # e is checked against the cover first: an unknown vertex is reported
    # as such, not as the empty hull it leaves
    with pytest.raises(UnknownVertex, match="999"):
        is_d_gentle_certificate(build_typeA_auslander(3, 3),
                                Idempotent.of(labels), 2)


@pytest.mark.parametrize("make", [
    CornerQuiver, idempotent_subalgebra,
    lambda a, e: is_d_gentle_certificate(a, e, 2)],
    ids=["corner-quiver", "corner", "certificate"])
def test_corner_entry_points_refuse_the_empty_idempotent(make):
    with pytest.raises(EmptyIdempotent):
        make(build_typeA_auslander(3, 3), Idempotent.of([]))


def test_hull_keeps_vertices_whose_paths_do_not_compose():
    cover = build_typeA_auslander(3, 3)
    e = Idempotent.of(["247", "357"])
    hull = _hull_idempotent(cover, e).vertex_subset
    assert hull == {"247", "257", "357"}
    ids = lambda s, t: [i for i in range(cover.dim)
                        if (cover.basis_src[i], cover.basis_tgt[i]) == (s, t)]
    # 257 is reached from 247 and reaches 357 by nonzero paths, but no
    # nonzero path from 247 to 357 passes through it
    assert ids("247", "257") and ids("257", "357")
    assert not any(cover.mult.get((i, j)) for j in ids("247", "257")
                   for i in ids("257", "357"))
    cert = is_d_gentle_certificate(cover, e, 2)
    assert cert.to_dict()["hull"] == ["247", "257", "357"]


def test_ctgent_chain_evaluates_each_two_path_once(monkeypatch):
    """The 2-path values of each algebra or corner quiver of the paper's
    chain are read off one memoised table: family, endomorphism algebra,
    cover, d-gentle certificate, seedless reduction and its invariant."""
    seen = []   # (object, path); holding the objects keeps their ids apart
    for cls in (algebras.Algebra, CornerQuiver):
        def counted(self, path, _orig=cls.path_value):
            if len(path) == 2:
                seen.append((self, tuple(path)))
            return _orig(self, path)
        monkeypatch.setattr(cls, "path_value", counted)
    c = ctgent_family(4, 2, [2])
    res = cluster_endo_algebra(c)
    cover, e = ctgent_cover(c)
    is_d_gentle_certificate(cover.algebra, e, 2)
    gentle_sg_invariant(reduce_to_gentle(res.algebra).terminal)
    counts = Counter((id(obj), path) for obj, path in seen)
    assert len(counts) > 50
    assert max(counts.values()) == 1
