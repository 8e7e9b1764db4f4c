import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from hga import (
    BoundQuiverPresentation,
    Idempotent,
    Quiver,
    build_algebra,
    commutativity_relation,
    idempotent_subalgebra,
    quotient_by_idempotent,
    zero_relation,
)
from hga import algebras, memo, reduction, reps
from hga.axioms import is_gentle
from hga.cluster import SummandCollection, cluster_endo_algebra, ctgent_family
from hga.errors import (
    EmptyIdempotent,
    NoCommutativeSquare,
    NotGentle,
    NotGorensteinVerified,
    NotReducible,
)
from hga.reduction import (
    ambient_from_quotient,
    chensing_conditions,
    corner_column_module,
    find_injection,
    gentle_sg_invariant,
    is_fabric_idempotent,
    localisable_report,
    reduce_to_gentle,
    reduction_step,
    restrict_to_quotient,
    verify_sg_example,
)
from hga.typea import build_typeA_auslander, canonical_cluster_tilting

TERMINAL_VERTICES = [
    "135", "136", "147", "157", "158", "169", "179", "357", "579",
]

TERMINAL_ARROWS = {
    ("135", "136"), ("136", "147"), ("147", "157"), ("157", "158"),
    ("157", "357"), ("158", "169"), ("169", "179"), ("179", "579"),
    ("357", "135"), ("579", "157"),
}

TERMINAL_CHORDS = [frozenset(x) for x in [
    ("357", "136"), ("357", "147"), ("579", "158"), ("579", "169"),
    ("135", "147"), ("157", "136"), ("179", "158"), ("157", "169"),
    ("157", "179"), ("157", "135"),
]]

EX_COLLECTION = [
    (1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 3, 8), (1, 4, 8),
    (1, 5, 8), (1, 6, 8), (3, 5, 7), (3, 5, 8), (3, 6, 8),
]


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


def five_vertex_corner():
    # commutativity square with a zero relation entering it; the corner on
    # {x, a, c, d} carries a single length-3 zero relation
    q = Quiver(
        ["x", "a", "b", "c", "d"],
        [("wx", "x", "a"), ("w1", "a", "b"), ("w3", "a", "c"),
         ("w2", "b", "d"), ("w4", "c", "d")],
    )
    p = BoundQuiverPresentation(q, [
        commutativity_relation(("w1", "w2"), ("w3", "w4")),
        zero_relation(("wx", "w1")),
    ])
    return idempotent_subalgebra(build_algebra(p),
                                 Idempotent.of(["x", "a", "c", "d"]))


def two_cycle():
    q = Quiver(["1", "2"], [("al", "1", "2"), ("be", "2", "1")])
    return BoundQuiverPresentation(
        q, [zero_relation(("al", "be")), zero_relation(("be", "al"))]
    )


@pytest.fixture(scope="module")
def sec5_algebra():
    return cluster_endo_algebra(ctgent_family(5, 2, [2, 4])).algebra


@pytest.fixture(scope="module")
def sec5_trace(sec5_algebra):
    return reduce_to_gentle(sec5_algebra)


@pytest.fixture(scope="module")
def ex51_algebra():
    fam = canonical_cluster_tilting(build_typeA_auslander(4, 2))
    return cluster_endo_algebra(SummandCollection(fam, EX_COLLECTION)).algebra


@pytest.fixture(scope="module")
def ex51_orbit(ex51_algebra):
    mods = []
    cur = reps.simple(ex51_algebra, "136")
    for _ in range(14):
        mods.append(cur)
        _, epi, _ = reps.projective_cover(cur)
        cur, _ = reps.kernel(epi)
    return mods


def test_fabric_all_vertices_vacuous():
    a = build_algebra(square())
    f = Idempotent.of(a.vertices)
    rep = is_fabric_idempotent(a, f, f)
    assert rep.verdict


def test_fabric_condition_one_fails():
    a = build_algebra(square())
    f = Idempotent.of(["b", "c", "d"])
    rep = is_fabric_idempotent(a, f, Idempotent.of(a.vertices))
    assert not rep.conditions["quotientProjDim"]["pass"]
    assert rep.conditions["quotientProjDim"]["witness"]["projDim"] == 2


def test_fabric_five_vertex_corner():
    a = five_vertex_corner()
    _, _, cert = reduction_step(a)
    companion = cert["fabric"]["companion"]
    rep = is_fabric_idempotent(
        a, Idempotent.of(["x", "a", "d"]), Idempotent.of(companion))
    assert rep.verdict
    assert rep.to_dict()["verdict"] == "pass"


def test_chensing_full_idempotent_trivial():
    a = build_algebra(square())
    rep = chensing_conditions(a, Idempotent.of(a.vertices))
    assert rep["verdict"] == "pass"
    assert rep["quotientSimples"] == []


def test_chensing_rejects_empty():
    a = build_algebra(square())
    with pytest.raises(EmptyIdempotent):
        chensing_conditions(a, Idempotent.of([]))


def test_chensing_loop_algebra():
    q = Quiver(["1"], [("x", "1", "1")])
    a = build_algebra(BoundQuiverPresentation(q, [zero_relation(("x", "x"))]))
    rep = chensing_conditions(a, Idempotent.of(["1"]))
    assert rep["verdict"] == "pass"


def test_reduction_step_gentle_input_raises():
    a = build_algebra(linear(3, [zero_relation(("a1", "a2"))]))
    with pytest.raises(NoCommutativeSquare):
        reduction_step(a)


def test_reduction_step_five_vertex_pinned():
    a = five_vertex_corner()
    f, corner, cert = reduction_step(a)
    assert sorted(map(str, f.vertex_subset)) == ["a", "d", "x"]
    assert cert["removed"] == ["c"]
    assert cert["justification"] == "fabric"
    assert cert["fabric"]["verdict"] == "pass"
    assert cert["singularEquivalence"]["verdict"] == "pass"
    assert cert["quotientGlobalDim"] != math.inf
    assert is_gentle(corner.presentation)["gentle"]


def test_reduction_step_square():
    a = build_algebra(square())
    f, corner, cert = reduction_step(a)
    assert corner.dim < a.dim
    assert len(corner.presentation.relations) == 0


def test_reduce_to_gentle_gentle_input_identity():
    a = build_algebra(linear(4, [zero_relation(("a1", "a2"))]))
    trace = reduce_to_gentle(a)
    assert trace.steps == []
    assert trace.terminal is a


def test_reduce_to_gentle_sec5(sec5_trace):
    trace = sec5_trace
    assert trace.terminal_vertices == TERMINAL_VERTICES
    p = trace.terminal.presentation
    arrows = {(a.source, a.target) for a in p.quiver.arrows}
    assert arrows == TERMINAL_ARROWS
    chords = [frozenset(map(str, r.validate(p.quiver))) for r in p.relations]
    assert sorted(chords, key=sorted) == sorted(TERMINAL_CHORDS, key=sorted)


def test_reduce_to_gentle_sec5_certificates(sec5_trace):
    dims = []
    for step in sec5_trace.steps:
        cert = step["certificate"]
        assert cert["justification"] in ("fabric", "localisable")
        if cert["justification"] == "fabric":
            assert cert["fabric"]["verdict"] == "pass"
        else:
            assert cert["localisable"]["pass"]
        assert cert["singularEquivalence"]["verdict"] == "pass"
        assert cert["quotientGlobalDim"] != math.inf
        dims.append(step["cornerDim"])
    assert dims == sorted(dims, reverse=True)
    assert len(dims) == len(set(dims))


def test_reduce_to_gentle_seed_invariance(sec5_algebra, sec5_trace):
    base = gentle_sg_invariant(sec5_trace.terminal)
    for seed in (1, 7):
        trace = reduce_to_gentle(sec5_algebra, seed=seed)
        assert trace.terminal_vertices == TERMINAL_VERTICES
        assert gentle_sg_invariant(trace.terminal) == base


def test_reduce_to_gentle_ex51_not_reducible(ex51_algebra):
    with pytest.raises(NotReducible):
        reduce_to_gentle(ex51_algebra)


def test_localisable_report_simple_of_pd_one():
    a = build_algebra(linear(3))
    rep = localisable_report(a, {"1", "2"})
    assert rep["pass"] and rep["projDim"] <= 1 and rep["selfExt"] == 0
    rep = localisable_report(build_algebra(square()), {"b", "c", "d"})
    assert not rep["pass"]


def test_sg_invariant_linear_empty():
    g = build_algebra(linear(4, [zero_relation(("a1", "a2"))]))
    assert gentle_sg_invariant(g) == []


def test_sg_invariant_two_cycle():
    assert gentle_sg_invariant(build_algebra(two_cycle())) == [2]


def four_cycle_through_one_vertex():
    # the full-relation cycle a b c d passes vertex 1 twice
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "1"),
                                 ("c", "1", "3"), ("d", "3", "1")])
    return BoundQuiverPresentation(q, [zero_relation(p) for p in (
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))])


def test_sg_invariant_cycle_repeating_a_vertex():
    g = build_algebra(four_cycle_through_one_vertex())
    assert g.dim == 9 and is_gentle(g.presentation)["gentle"]
    assert reps.homological_dims(g)["globalDim"] == math.inf
    assert gentle_sg_invariant(g) == [4]


def test_sg_invariant_empty_iff_global_dim_finite(sec5_trace):
    # D_sg of an Iwanaga-Gorenstein algebra vanishes exactly when its
    # global dimension is finite (Buchweitz; Happel)
    algebras = [
        build_algebra(linear(3)),
        build_algebra(linear(4, [zero_relation(("a1", "a2"))])),
        build_algebra(two_cycle()),
        build_algebra(four_cycle_through_one_vertex()),
        sec5_trace.terminal,
    ]
    for g in algebras:
        finite = reps.homological_dims(g)["globalDim"] < math.inf
        assert (gentle_sg_invariant(g) == []) == finite


def test_sg_invariant_requires_gentle():
    with pytest.raises(NotGentle):
        gentle_sg_invariant(build_algebra(square()))


def test_sg_invariant_sec5_terminal(sec5_trace):
    inv = gentle_sg_invariant(sec5_trace.terminal)
    assert inv == [5, 5]
    assert inv.to_dict() == {"cycleLengths": [5, 5], "objects": 10}


def test_trace_to_dict_shape(sec5_trace):
    d = sec5_trace.to_dict()
    assert d["terminalGentle"] is sec5_trace.terminal_gentle is True
    assert d["terminalVertices"] == TERMINAL_VERTICES
    assert all("certificate" in s for s in d["steps"])


def test_verify_sg_example_orbit(ex51_orbit, ex51_algebra):
    rep = verify_sg_example(ex51_algebra, ex51_orbit)
    assert rep["pass"]
    assert rep["orbitLength"] == 14
    assert rep["failures"] == []


def test_verify_sg_example_flags_projective(ex51_orbit, ex51_algebra):
    mods = ex51_orbit[:7] + [reps.projective(ex51_algebra, "135")] \
        + ex51_orbit[7:]
    rep = verify_sg_example(ex51_algebra, mods)
    assert not rep["pass"]
    assert {"check": "stablyNonzero", "position": 7} in rep["failures"]


def test_verify_sg_example_shifted_module_two_mismatches(
        ex51_orbit, ex51_algebra):
    mods = list(ex51_orbit)
    mods[5] = ex51_orbit[6]
    rep = verify_sg_example(ex51_algebra, mods)
    positions = [f["position"] for f in rep["failures"]
                 if f["check"] == "omegaCyclic"]
    assert positions == [4, 5]


def test_verify_sg_example_refuses_an_empty_orbit(ex51_algebra):
    # no module, no certificate: an empty orbit is an input error
    with pytest.raises(ValueError, match="empty syzygy orbit"):
        verify_sg_example(ex51_algebra, [])


def test_verify_sg_example_requires_gorenstein():
    # arrow into a loop with all length-2 paths zero: both self-injective
    # dimensions are infinite
    q = Quiver(["1", "2"], [("a", "1", "2"), ("l", "2", "2")])
    bad = build_algebra(BoundQuiverPresentation(
        q, [zero_relation(("l", "l")), zero_relation(("a", "l"))]))
    with pytest.raises(NotGorensteinVerified):
        verify_sg_example(bad, [reps.simple(bad, "1")])


@pytest.mark.parametrize("seed", [12, 1804602476])
def test_reduce_to_gentle_backtracks_from_dead_end(seed):
    # with these seeds the first walk reaches a corner with no certified
    # step (a commutativity relation of unequal lengths); the search
    # retreats and still ends at the seedless invariant
    a = cluster_endo_algebra(ctgent_family(5, 2, [2, 5])).algebra
    trace = reduce_to_gentle(a, seed=seed)
    assert gentle_sg_invariant(trace.terminal) == [5]


# the ctgent chain pool: A^2_4 and A^2_5 with every admissible position set,
# and A^3_3 with one position
CTGENT_KEYS = [(4, 2, [2]), (4, 2, [3]), (4, 2, [4]), (4, 2, [2, 4]),
               (5, 2, [2]), (5, 2, [3]), (5, 2, [4]), (5, 2, [5]),
               (5, 2, [2, 4]), (5, 2, [2, 5]), (5, 2, [3, 5]),
               (3, 3, [2]), (3, 3, [3])]


# sha256 of the sorted-key JSON of reduce_to_gentle(...).to_dict() for seed
# None and the two seeds drawn below, taken on the reduction that rebuilt
# every quotient and corner for each check; caching them must not change a
# byte
TRACE_DIGESTS = {
    (4, 2, (2,)): (
        "d8c2f8bd43c1dd14c49c82cd85310be0de7f332c2e8def21f7e527bb4f9c702d",
        "621827d7230fa52746715e32c31e9e1c8995fe8ff6673a9391417b6d0af02e56",
        "d8c2f8bd43c1dd14c49c82cd85310be0de7f332c2e8def21f7e527bb4f9c702d",
    ),
    (4, 2, (3,)): (
        "995827b680380f51244b707ee85a3b2eafde9788c91ae25f8e0dc9e76de7642d",
        "e0625f543f9972c7775157e38d482acaa2a1a0c5c691540fe496fb4dbd55b214",
        "116e71c247b01d0dafb104950c865d135d483e84eeecdd2bc461be4797002eeb",
    ),
    (4, 2, (4,)): (
        "4d3f7e45f622b5f0cc0981ddff65da70b679581300271e7067548a2347145c5c",
        "bc1136d5d38b6c9fc6545b17c40d9675ee118d7d03e0febc1c4206da6ab7ce91",
        "aed341f985c2bc8e532691f165b6db43be9fdb8e95b70ea92689c13c0d29ed7c",
    ),
    (4, 2, (2, 4)): (
        "eaa45830393c7694ae7368f477ed6ccea3627326ab06c5c132ba2e23bc4c1ac2",
        "89b7b76f0115006f65f8b25931d124c6f116be6eff29b0d4b472bb08fba4155b",
        "eaa45830393c7694ae7368f477ed6ccea3627326ab06c5c132ba2e23bc4c1ac2",
    ),
    (5, 2, (2,)): (
        "ba3004cb451b172c1b0444177265790b349aa5f540df31151085c0db1042cd31",
        "96e9d1d54541c4cf9cd459053eb9d3580c6547adf41dd0caf2e6c8897a8ec028",
        "968e6c8458fe06fb221e701a1074c6825eaf391be757f0b4a8b929d56a0d9ca1",
    ),
    (5, 2, (3,)): (
        "670c03823c11eba0abe0870a19c66645a5d16d961db5ecbf479f97f2928628e9",
        "5a60f19f47f1cbc20c14f001f4a79ba82c527fc77228802b0620c358b196dad6",
        "8821e77646840f0eccc2ee240f99b8a7afd8f578c4b63ce2ae206e809717f166",
    ),
    (5, 2, (4,)): (
        "c35f009428874665e2f2adcb06098d99fe5696dac073859b8dfc87f45b9a9758",
        "8c312ec86983674496945f780c7e9414613aec0e31af989b80741a526e16a4a2",
        "8c312ec86983674496945f780c7e9414613aec0e31af989b80741a526e16a4a2",
    ),
    (5, 2, (5,)): (
        "3298563215c5c99bdd3b51ae4dc71869fd2fd8833dc107f728ca36c11dfcd576",
        "fe7ef881c22df70677446296a86517578f3cd554162ba50db622be6909afd73f",
        "f0d421902b7761894b6f4e0aad5ca75474568b2b73e64cfc350e27bc33be7d06",
    ),
    (5, 2, (2, 4)): (
        "545abdacd40a7b09663df741ef2c004380d53fb2f21c168a548478170abc0f73",
        "8c3b2b9ab85a3daadef128a27909dff7a3429af1d63d17671f89a8f98568f23e",
        "68c0848f2c3d0b5e29aed0ae288dd72a58121c588d9f29b63b444894b812b905",
    ),
    (5, 2, (2, 5)): (
        "9a0b63eb6897e6203b584be21c64f6db781e6491a9dbda82d367d467db3459c3",
        "c46da98c86a0b325c38d9d3a547670a6542262a61d51a1d82e015702919a49f4",
        "d1c497740cde1b6317f136f04349c8fdc85ed28674b4067c01aec051502ce930",
    ),
    (5, 2, (3, 5)): (
        "845f9a0bb5f157b93da1a8057a2dfbd6b6b85864aead266a7397063577c3edab",
        "7ab32bca35d3ab744ea064e6e22170a214521c8509b297649f30d9ef64b04333",
        "2609bb8cb74076baff718f1db9389992f3287f2b665899fdcf7e6e99d18053a1",
    ),
    (3, 3, (2,)): (
        "3e6a2b047fd7c8011baa4c123baac6b797e143ac39681a98050aadaa2d71878e",
        "3e6a2b047fd7c8011baa4c123baac6b797e143ac39681a98050aadaa2d71878e",
        "3e6a2b047fd7c8011baa4c123baac6b797e143ac39681a98050aadaa2d71878e",
    ),
    (3, 3, (3,)): (
        "11de2bd621eb4036a44fae34793cce0a2da12a6aeaa8267de4629079d5ca83b3",
        "91d6163fdce29c5a21c9986c3e7e1e70fbcb384b215df06ea76a1ad4f463f6ee",
        "cd6904472aead51b69ba7bf166a466242af7c3b713b274f2b6e60e8dffafd39b",
    ),
}


@pytest.mark.parametrize("n, d, idx", CTGENT_KEYS)
def test_reduce_to_gentle_invariant_is_seed_free(n, d, idx):
    a = cluster_endo_algebra(ctgent_family(n, d, idx)).algebra
    rng = random.Random(f"sg-{n}-{d}-{idx}")
    seeds = [None] + [rng.randrange(2 ** 31) for _ in range(2)]
    traces = [reduce_to_gentle(a, seed=seed) for seed in seeds]
    base = gentle_sg_invariant(traces[0].terminal)
    for trace in traces[1:]:
        assert gentle_sg_invariant(trace.terminal) == base
    digests = tuple(
        hashlib.sha256(json.dumps(t.to_dict(), sort_keys=True).encode())
        .hexdigest() for t in traces)
    assert digests == TRACE_DIGESTS[(n, d, tuple(idx))]


def test_a_branch_gentle_at_the_step_cap_succeeds():
    # gentleness is tested before the cap, so max_steps = k admits a
    # reduction that is gentle after exactly k steps, and only that
    a = cluster_endo_algebra(ctgent_family(3, 3, [2])).algebra
    trace = reduce_to_gentle(a)
    assert len(trace.steps) == 1
    assert reduce_to_gentle(a, max_steps=1).to_dict() == trace.to_dict()
    gentle = reduce_to_gentle(build_typeA_auslander(3, 1), max_steps=0)
    assert gentle.steps == [] and gentle.terminal_gentle
    b = cluster_endo_algebra(ctgent_family(4, 2, [2])).algebra
    assert len(reduce_to_gentle(b).steps) > 1
    with pytest.raises(NotReducible, match="step cap"):
        reduce_to_gentle(b, max_steps=1)


def test_step_certificates_rebuild_from_the_public_checks():
    """Each step's fabric, localisable and singular-equivalence entries are
    what the public checks report for its idempotent on the side it was
    taken: the algebra for a primal step, its opposite for a dual one.
    Between them the three keys take primal fabric, primal localisable and
    dual fabric steps."""
    kinds = set()
    for key in [(4, 2, [2]), (4, 2, [4]), (5, 2, [2, 5])]:
        current = cluster_endo_algebra(ctgent_family(*key)).algebra
        for step in reduce_to_gentle(current).steps:
            cert = step["certificate"]
            side = current.opposite() if cert["side"] == "dual" else current
            f = Idempotent.of(step["idempotent"])
            e = Idempotent.of(cert["fabric"]["companion"])
            assert cert["fabric"] == \
                is_fabric_idempotent(side, f, e).to_dict()
            assert cert["localisable"] == \
                localisable_report(side, f.vertex_subset)
            assert cert["singularEquivalence"] == \
                chensing_conditions(side, f)
            kinds.add((cert["side"], cert["justification"]))
            current = idempotent_subalgebra(current, f)
    assert kinds == {("primal", "fabric"), ("primal", "localisable"),
                     ("dual", "fabric")}


@pytest.mark.parametrize("n, d, idx", [(4, 2, [2, 4]), (4, 3, [2])])
def test_reduction_corners_have_nilpotent_radicals(n, d, idx, monkeypatch):
    """A corner B = eAe that ``represent`` rebuilds skips the nilpotency
    check its relations of mixed lengths would ask for: rad(eAe)^k lies in
    e·rad(A)^k·e.  The dropped check is made here, on every corner of a
    seedless reduction, against the index of its ambient; on (4, 3, [2])
    one corner has such relations."""
    corners = []
    present = algebras._present

    def recording(corner):
        out = present(corner)
        if isinstance(corner, algebras.CornerQuiver):
            corners.append(out[0])
        return out

    monkeypatch.setattr(algebras, "_present", recording)
    reduce_to_gentle(cluster_endo_algebra(ctgent_family(n, d, idx)).algebra)
    assert corners
    mixed = 0
    for b in corners:
        assert b.rad_nilpotency() <= b.ambient.rad_nilpotency()
        mixed += any(map(algebras._mixes,
                         (r.terms for r in b.presentation.relations)))
    assert mixed == (d == 3)


def test_reduction_leaves_no_quotient_or_corner_on_its_input():
    # the quotients and corners of a candidate are cached on a scope that
    # ends with the candidate, never on the algebra being reduced
    a = cluster_endo_algebra(ctgent_family(4, 2, [2, 4])).algebra
    trace = reduce_to_gentle(a)
    assert trace.steps
    vertex_sets = [frozenset(s["idempotent"]) for s in trace.steps] + [
        frozenset(s["certificate"]["removed"]) for s in trace.steps]
    for alg in (a, a.opposite()):
        for key in vertex_sets:
            assert memo.peek(alg, ("quotient", key)) is None
            assert memo.peek(alg, ("corner", key)) is None
        assert not any(isinstance(part, frozenset)
                       for key in alg.__dict__.get("_memo", {})
                       if isinstance(key, tuple) for part in key)


def test_step_certificates_build_no_homological_record(monkeypatch):
    # a step reports the quotient's global dimension, and nothing else of
    # its homological record, so it computes that alone
    a = cluster_endo_algebra(ctgent_family(4, 2, [2, 4])).algebra
    records, dims = [], []
    homological_dims, global_dim = reps.homological_dims, reps.global_dim
    monkeypatch.setattr(reps, "homological_dims",
                        lambda *args: records.append(1)
                        or homological_dims(*args))
    monkeypatch.setattr(reps, "global_dim",
                        lambda *args: dims.append(1) or global_dim(*args))
    trace = reduce_to_gentle(a)
    assert trace.steps and not records
    assert len(dims) >= len(trace.steps)


@pytest.mark.parametrize("n, d, idx", [(4, 2, [2, 4]), (3, 3, [2])])
def test_reduction_builds_no_algebra_twice(n, d, idx, monkeypatch):
    # every check is handed the algebra it reads, so no presentation is
    # built again; the list keeps each one alive, so the ids are distinct
    a = cluster_endo_algebra(ctgent_family(n, d, idx)).algebra
    presentations = []
    build = algebras.build_algebra

    def counting_build(pres, *args, **kwargs):
        presentations.append(pres)
        return build(pres, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hga" and \
                getattr(mod, "build_algebra", None) is build:
            monkeypatch.setattr(mod, "build_algebra", counting_build)
    gentle_sg_invariant(reduce_to_gentle(a).terminal)
    assert presentations
    assert len({id(p) for p in presentations}) == len(presentations)


def test_find_injection_one_dimensional_hom_needs_no_search(monkeypatch):
    # Hom(P_1, S_1) is spanned by the projective cover, which is not
    # injective; every other morphism is a multiple of it
    a = build_algebra(linear(2))
    p1, s1 = reps.projective(a, "1"), reps.simple(a, "1")
    assert len(reps.hom_basis(p1, s1)) == 1
    calls = {"scale": 0, "rank": 0}

    def counting(name, orig):
        def counted(*args):
            calls[name] += 1
            return orig(*args)
        return counted

    monkeypatch.setattr(reps.Morphism, "scale",
                        counting("scale", reps.Morphism.scale))
    monkeypatch.setattr(reps.Morphism, "rank",
                        counting("rank", reps.Morphism.rank))
    assert find_injection(p1, s1) is None
    assert calls == {"scale": 0, "rank": 1}


def _rescaled(m, primes):
    """m with the basis at each vertex v scaled by primes[v]: an isomorphic
    module whose arrow maps differ between any two vertex pairs."""
    arrow = m.algebra.presentation.quiver.arrow_by_name
    maps = {}
    for name, mat in m.maps.items():
        c = Fraction(primes[arrow[name].target], primes[arrow[name].source])
        maps[name] = [[c * x for x in row] for row in mat]
    return reps.Representation(m.algebra, m.dims, maps)


def reference_corner_column_module(corner, v):
    """f·A·e_v over fAf by a scan of the whole ambient basis: the ambient
    ids from v to each corner vertex, acted on by each corner arrow's
    ambient basis element."""
    amb = corner.ambient
    col_ids = {}
    for w in corner.vertices:
        col_ids[w] = [i for i in range(amb.dim)
                      if amb.basis_src[i] == v and amb.basis_tgt[i] == w]
    dims = {w: len(col_ids[w]) for w in corner.vertices}
    maps = {}
    for ar in corner.presentation.quiver.arrows:
        u, w = ar.source, ar.target
        pos = {b: k for k, b in enumerate(col_ids[w])}
        mat = [[0] * dims[u] for _ in range(dims[w])]
        x = corner.arrow_ambient[ar.name]
        for col, j in enumerate(col_ids[u]):
            for t, c in amb.mult_basis(x, j).items():
                mat[pos[t]][col] = c
        maps[ar.name] = mat
    return reps.Representation(corner, dims, maps)


def test_corner_column_module_matches_the_basis_scan():
    # f.A.e_v is the ambient projective P_v restricted to the corner fAf
    a = build_typeA_auslander(4, 2)
    compared = 0
    for size in (2, 3):
        for sub in itertools.combinations(a.vertices, size):
            corner = idempotent_subalgebra(a, Idempotent.of(sub))
            for v in a.vertices:
                m = corner_column_module(corner, v)
                want = reference_corner_column_module(corner, v)
                assert m.algebra is corner
                assert m.dims == want.dims
                assert m.maps == want.maps
                reps.Representation(corner, m.dims, m.maps)
                compared += not m.is_zero()
    assert compared > 500


@pytest.mark.parametrize("make", [
    lambda: build_algebra(square()),
    lambda: build_typeA_auslander(4, 2),
    lambda: build_typeA_auslander(3, 3),
])
def test_quotient_restriction_round_trip(make):
    # a module that vanishes on the cut is a module of the quotient, and
    # lifting its restriction back gives the same spaces and maps
    a = make()
    primes = dict(zip(a.vertices, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    lifted = 0
    for v in a.vertices:
        for m in (reps.projective(a, v), reps.injective(a, v)):
            cut = [w for w in a.vertices if w not in m.dims]
            if not cut:
                continue
            m = _rescaled(m, primes)
            q = quotient_by_idempotent(a, Idempotent.of(cut))
            r = restrict_to_quotient(q, m)
            reps.Representation(q, r.dims, r.maps)  # satisfies q's relations
            back = ambient_from_quotient(q, r)
            assert back.dims == m.dims
            assert back.maps == m.maps
            lifted += 1
    assert lifted
