import itertools
import math
import random
import types
from fractions import Fraction

import pytest

from hga import BoundQuiverPresentation, Quiver, build_algebra, zero_relation
from hga import linalg, reps
from hga.algebras import Algebra
from hga.cluster import SummandCollection, cluster_endo_algebra, ctgent_family
from hga.errors import (
    AlgebraMismatch,
    HgaError,
    InternalError,
    InvalidPresentation,
    NotGorensteinVerified,
    UnknownVertex,
)
from hga.memo import peek
from hga.reduction import reduce_to_gentle
from hga.reps import (
    ExtSpace,
    Morphism,
    Representation,
    ar_translate,
    ar_translate_inverse,
    cokernel,
    direct_sum,
    dual,
    ext_dim,
    higher_translate,
    higher_translate_inverse,
    identity_morphism,
    hom_basis,
    hom_dim,
    homological_dims,
    injective,
    is_gorenstein_projective,
    is_isomorphic,
    is_projective,
    kernel,
    minimal_resolution,
    proj_dim,
    projective,
    projective_cover,
    representation_from_dict,
    simple,
    syzygy,
    transpose,
    zero_morphism,
)
from hga.typea import build_typeA_auslander, canonical_cluster_tilting
import reference_decompose
import reference_resolution
from reference_linalg import reduce_mod_rows


def representation_to_dict(m):
    return {
        "dims": {v: m.dims.get(v, 0) for v in m.algebra.vertices},
        "maps": {
            name: [[str(x) for x in row] for row in mat]
            for name, mat in m.maps.items()
        },
    }


def nakayama3():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return build_algebra(BoundQuiverPresentation(q, [zero_relation(("a", "b"))]))


def a2():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    return build_algebra(BoundQuiverPresentation(q, []))


def loop_algebra():
    q = Quiver(["v"], [("x", "v", "v")])
    return build_algebra(BoundQuiverPresentation(q, [zero_relation(("x", "x"))]))


def dv(m):
    return m.dim_vector()


def test_projective_and_injective_dim_vectors():
    alg = nakayama3()
    assert dv(projective(alg, "1")) == (1, 1, 0)
    assert dv(projective(alg, "2")) == (0, 1, 1)
    assert dv(projective(alg, "3")) == (0, 0, 1)
    assert dv(injective(alg, "1")) == (1, 0, 0)
    assert dv(injective(alg, "2")) == (1, 1, 0)
    assert dv(injective(alg, "3")) == (0, 1, 1)


def test_hom_from_projective_counts_fibre():
    alg = nakayama3()
    for v in alg.vertices:
        for w in alg.vertices:
            m = projective(alg, w)
            assert hom_dim(projective(alg, v), m) == m.dims.get(v, 0)
    assert hom_dim(projective(alg, "1"), projective(alg, "2")) == 0
    assert hom_dim(projective(alg, "2"), projective(alg, "1")) == 1


def test_syzygy_and_cover():
    alg = nakayama3()
    s1 = simple(alg, "1")
    p, epi, summands = projective_cover(s1)
    assert summands == ["1"]
    assert dv(syzygy(s1)) == (0, 1, 0)
    c, proj = cokernel(kernel(epi)[1])
    assert dv(c) == (1, 0, 0)


def test_ext_dimensions():
    alg = nakayama3()
    s = {v: simple(alg, v) for v in alg.vertices}
    assert ext_dim(s["1"], s["2"], 1) == 1
    assert ext_dim(s["2"], s["3"], 1) == 1
    assert ext_dim(s["1"], s["3"], 1) == 0
    assert ext_dim(s["1"], s["3"], 2) == 1
    assert ext_dim(s["1"], s["2"], 2) == 0
    assert ext_dim(s["2"], s["1"], 1) == 0
    assert ext_dim(s["1"], s["1"], 0) == 1


def test_proj_dim_values():
    alg = nakayama3()
    assert proj_dim(simple(alg, "1")) == 2
    assert proj_dim(simple(alg, "2")) == 1
    assert proj_dim(simple(alg, "3")) == 0


def test_infinite_proj_dim_by_periodicity():
    alg = loop_algebra()
    assert proj_dim(simple(alg, "v")) == math.inf


def test_ar_translate_a2():
    alg = a2()
    s1, s2 = simple(alg, "1"), simple(alg, "2")
    assert is_isomorphic(ar_translate(s1), s2)
    assert ar_translate(projective(alg, "1")).is_zero()
    assert ar_translate(projective(alg, "2")).is_zero()
    assert is_isomorphic(ar_translate_inverse(s2), s1)


def test_ar_translate_nakayama():
    alg = nakayama3()
    s1, s2, s3 = (simple(alg, v) for v in ["1", "2", "3"])
    assert is_isomorphic(ar_translate(s1), s2)
    assert is_isomorphic(ar_translate(s2), s3)
    assert is_isomorphic(ar_translate_inverse(s3), s2)
    assert is_isomorphic(ar_translate_inverse(s2), s1)


def test_ar_reciprocity_on_simples():
    alg = nakayama3()
    simples = {v: simple(alg, v) for v in alg.vertices}
    taus = {v: ar_translate(simples[v]) for v in alg.vertices}
    for nv_, n in simples.items():
        for mv, m in simples.items():
            if taus[nv_].is_zero():
                continue
            assert ext_dim(n, m, 1) == hom_dim(m, taus[nv_])


def test_higher_translate_degree_two():
    alg = nakayama3()
    s1, s3 = simple(alg, "1"), simple(alg, "3")
    assert is_isomorphic(higher_translate(s1, 2), s3)
    assert is_isomorphic(higher_translate_inverse(s3, 2), s1)
    # degree one agrees with the classical translate
    assert is_isomorphic(higher_translate(s1, 1), ar_translate(s1))
    assert is_isomorphic(higher_translate_inverse(s3, 1),
                         ar_translate_inverse(s3))


def test_dual_is_involutive():
    alg = nakayama3()
    m = projective(alg, "1")
    dd = dual(dual(m))
    assert dd.algebra is alg
    assert is_isomorphic(dd, m)


def test_dual_stores_no_map_into_a_zero_space():
    # on A^2_4 the injective I_24 is zero at 13 and one-dimensional at 14:
    # neither the 0 at 13 nor the 1x0 map of arrow 13_14 is stored, while
    # the checked constructor still takes them and checks their shapes
    alg = build_typeA_auslander(4, 2)
    i24 = injective(alg, "24")
    assert "13" not in i24.dims and i24.dims["14"] == 1
    assert "13_14" not in i24.maps
    assert i24.dim_vector()[alg.e_index["13"]] == 0
    given = dict(i24.maps, **{"13_14": [[]]})
    full = Representation(alg, dict(i24.dims, **{"13": 0}), given)
    assert full.dims == i24.dims and full.maps == i24.maps
    with pytest.raises(ValueError, match="shape mismatch at arrow 13_14"):
        Representation(alg, i24.dims, dict(given, **{"13_14": [[1]]}))
    back = representation_from_dict(alg, representation_to_dict(i24))
    assert back.dims == i24.dims and back.maps == i24.maps
    basis = hom_basis(projective(alg, "14"), i24)
    assert basis
    for f in basis:
        reps.Morphism(f.source, f.target, f.blocks, check=True)


@pytest.mark.parametrize("blocks, error, match", [
    ({"1": [[1, 2, 3], [4, 5, 6]], "7": [[1]]}, UnknownVertex, "'7'"),
    ({"1": [[1, 2, 3], [4, 5, 6]]}, ValueError, "shape mismatch at vertex 1"),
    ({"7": [[1]]}, UnknownVertex, "'7'"),
    ({"2": [[1]]}, ValueError, "shape mismatch at vertex 2"),
    ({"1": [[1], [0]]}, ValueError, "shape mismatch at vertex 1"),
], ids=["both", "shape", "unknown-vertex", "block-at-zero", "too-many-rows"])
def test_checked_morphism_validates_every_given_block(blocks, error, match):
    # the checked constructor rejects what Representation rejects in its
    # maps: a key that is no vertex, and a block that is not
    # dims[target] x dims[source] there, a zero space included
    s1 = simple(nakayama3(), "1")
    with pytest.raises(error, match=match):
        Morphism(s1, s1, blocks)
    assert Morphism(s1, s1, {"1": [[2]], "2": []}).blocks == {"1": [[2]]}


def test_decompose_direct_sum():
    alg = nakayama3()
    m = direct_sum(
        [projective(alg, "1"), simple(alg, "2"), simple(alg, "2")]
    )[0]
    parts = reference_decompose.decompose_indecomposables(m)
    dims = sorted(p.dim_vector() for p, _ in parts)
    assert dims == [(0, 1, 0), (0, 1, 0), (1, 1, 0)]
    for p, incl in parts:
        assert len(hom_basis(p, p)) == 1
        assert incl.source is p and incl.target is m


def test_isomorphism_checks():
    alg = nakayama3()
    assert is_isomorphic(projective(alg, "1"), injective(alg, "2"))
    assert not is_isomorphic(simple(alg, "1"), simple(alg, "2"))
    # P_2 = [2,3] and I_3 = [2,3] coincide here
    assert is_isomorphic(projective(alg, "2"), injective(alg, "3"))


def test_homological_dims_record():
    alg = nakayama3()
    rec = homological_dims(alg)
    assert rec["projDims"] == {"1": 2, "2": 1, "3": 0}
    assert rec["globalDim"] == 2
    assert rec["dominantDim"] == 2
    assert rec["injDimOfA"] == 2
    assert rec["projDimOfDA"] == 2


def test_global_dim_alone_matches_the_record(cluster_tilted):
    builds = [nakayama3, loop_algebra,
              lambda: build_typeA_auslander(4, 2)]
    builds += [lambda p=p: build_algebra(p) for p in cluster_tilted]
    got = []
    for build in builds:
        alg = build()
        got.append(reps.global_dim(alg))
        # it reads only the simples: no record is made or marked
        assert peek(alg, "homdims") is None
        assert got[-1] == homological_dims(build())["globalDim"]
    assert got == [2, math.inf, 2, math.inf, math.inf, math.inf]


def test_gorenstein_projective_gate():
    alg = nakayama3()
    with pytest.raises(NotGorensteinVerified):
        is_gorenstein_projective(projective(alg, "1"))
    homological_dims(alg)
    assert is_gorenstein_projective(projective(alg, "1"))
    assert is_gorenstein_projective(projective(alg, "3"))


def reference_proj_dim(m, cap):
    """proj_dim by its own walk of covers and kernels, outside the cached
    resolution."""
    if m.is_zero():
        return 0
    seen, current = [], m
    for step in range(cap):
        _, epi, _ = projective_cover(current)
        k, _ = kernel(epi)
        if k.is_zero():
            return step
        if any(old.dim_vector() == k.dim_vector() and is_isomorphic(old, k)
               for old in seen):
            return math.inf
        seen.append(k)
        current = k
    raise HgaError("projective dimension undecided within the step cap")


def reference_homological_dims(alg, cap=None):
    """The record as it was computed before the per-vertex resolutions were
    shared: the dominant dimension walks the resolution of the one module
    DA = (+)_v D(P_v)."""
    steps = cap if cap is not None else 3 * alg.dim + 8
    op = alg.opposite()
    proj_dims = {v: reference_proj_dim(simple(alg, v), steps)
                 for v in alg.vertices}
    inj_of_a = max(reference_proj_dim(dual(projective(alg, v)), steps)
                   for v in alg.vertices)
    proj_of_da = max(reference_proj_dim(dual(projective(op, v)), steps)
                     for v in alg.vertices)
    proj_inj = {}
    for w in alg.vertices:
        _, epi, _ = projective_cover(dual(projective(op, w)))
        proj_inj[w] = kernel(epi)[0].is_zero()
    current = direct_sum([dual(projective(alg, v)) for v in alg.vertices])[0]
    dom = 0
    for _ in range(steps):
        _, epi, summands = projective_cover(current)
        if not all(proj_inj[w] for w in summands):
            break
        dom += 1
        current, _ = kernel(epi)
        if current.is_zero():
            dom = math.inf
            break
    else:
        raise HgaError("dominant dimension undecided within the step cap")
    return {"projDims": proj_dims, "globalDim": max(proj_dims.values()),
            "dominantDim": dom, "injDimOfA": inj_of_a,
            "projDimOfDA": proj_of_da}


def homdims_outcome(compute):
    try:
        return compute()
    except HgaError as exc:
        return f"HgaError: {exc}"


# A^d_n for every n + 2d <= 10
HOMDIMS_LADDER = [(n, d) for d in range(1, 5) for n in range(1, 11 - 2 * d)]
EX51_COLLECTION = [
    (1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 3, 8), (1, 4, 8),
    (1, 5, 8), (1, 6, 8), (3, 5, 7), (3, 5, 8), (3, 6, 8),
]


@pytest.fixture(scope="module")
def cluster_tilted():
    """Presentations of the ex. 5.1 cluster-tilted algebra of A^2_4, whose
    simples and D(P_v) have periodic resolutions, and of two ctgent
    endomorphism algebras whose covers of DA have several summands, not
    all projective-injective."""
    fam = canonical_cluster_tilting(build_typeA_auslander(4, 2))
    out = [cluster_endo_algebra(SummandCollection(fam, EX51_COLLECTION))]
    out += [cluster_endo_algebra(ctgent_family(n, 2, idx))
            for n, idx in ((4, [3]), (5, [2, 4]))]
    return [res.algebra.presentation for res in out]


def test_homological_dims_match_da_walk(cluster_tilted):
    for n, d in HOMDIMS_LADDER:
        ref = reference_homological_dims(build_typeA_auslander(n, d))
        assert homological_dims(build_typeA_auslander(n, d)) == ref, (n, d)
    refs = []
    for p in cluster_tilted:
        refs.append(reference_homological_dims(build_algebra(p)))
        assert homological_dims(build_algebra(p)) == refs[-1]
    assert [(r["globalDim"], r["dominantDim"]) for r in refs] == [
        (math.inf, 1), (math.inf, 0), (math.inf, 1)]


def test_capped_homological_dims_match_da_walk(cluster_tilted):
    builds = [lambda n=n, d=d: build_typeA_auslander(n, d)
              for n, d in HOMDIMS_LADDER if n + 2 * d <= 8]
    builds += [lambda p=p: build_algebra(p) for p in cluster_tilted]
    raised = 0
    for build in builds:
        for cap in (1, 2):
            ref = homdims_outcome(
                lambda: reference_homological_dims(build(), cap))
            assert homdims_outcome(
                lambda: homological_dims(build(), cap)) == ref
            raised += isinstance(ref, str)
    assert raised >= 10


def test_capped_homological_dims_ignore_call_history():
    fresh = build_typeA_auslander(4, 2)
    with pytest.raises(HgaError, match="undecided"):
        homological_dims(fresh, cap=1)
    with pytest.raises(NotGorensteinVerified):
        is_gorenstein_projective(projective(fresh, fresh.vertices[0]))
    a = build_typeA_auslander(4, 2)
    full = homological_dims(a)
    assert full["dominantDim"] == 2
    with pytest.raises(HgaError, match="undecided"):
        homological_dims(a, cap=1)
    assert homological_dims(a) is full


def test_lift_outside_the_image_raises():
    alg = nakayama3()
    s1 = simple(alg, "1")
    p, epi, vs = projective_cover(s1)
    h = reps.lift_from_projectives(epi, vs, epi)
    assert h.blocks == identity_morphism(p).blocks
    k, ki = kernel(epi)
    # the generator of P_1 goes to the top of S_1, which Omega S_1 misses
    with pytest.raises(InternalError):
        reps.lift_from_projectives(epi, vs, ki)
    with pytest.raises(InternalError):
        reps.lift_through_mono(epi, ki)


def test_compose_refuses_a_different_middle_module_of_equal_dims():
    # X uniserial 13 -> 14 and Y = S13 + S14 have the same dims; S14 -> X
    # then Y -> S14 would read X as Y and give an iso S14 -> S14
    a = build_typeA_auslander(3, 2)
    s14 = simple(a, "14")
    x = Representation(a, {"13": 1, "14": 1}, {"13_14": [[1]]})
    y, _, (_, onto_s14) = direct_sum([simple(a, "13"), s14])
    assert x.dims == y.dims and x.maps != y.maps
    into_x = Morphism(s14, x, {"14": [[1]]})
    with pytest.raises(AlgebraMismatch):
        onto_s14.compose(into_x)


def test_compose_accepts_equal_modules_built_apart():
    a = build_typeA_auslander(3, 2)

    def uniserial():
        return Representation(a, {"13": 1, "14": 1}, {"13_14": [[1]]})

    first, second = uniserial(), uniserial()
    assert first is not second
    into_first = Morphism(simple(a, "14"), first, {"14": [[1]]})
    out_of_second = Morphism(second, simple(a, "13"), {"13": [[1]]})
    assert out_of_second.compose(into_first).is_zero()
    both = identity_morphism(second).compose(identity_morphism(first))
    assert (both.source, both.target) == (first, second)
    assert both.blocks == identity_morphism(first).blocks


def _combination(basis, rng, source, target):
    f = zero_morphism(source, target)
    for b in basis:
        f = f.add(b.scale(rng.randint(-3, 3)))
    return f


def _assert_lift(f, g, h):
    """h is a morphism, checked on a rebuild, and g.h = f exactly."""
    Morphism(h.source, h.target, h.blocks)
    assert g.compose(h).blocks == f.blocks


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3)])
def test_lifts_match_composition_span(n, d):
    """A map f: X -> Y lifts through g: M -> Y iff it lies in the span of
    the g.h, h in Hom(X, M).  X is the projective cover of a pool module
    for lift_from_projectives, and g the inclusion of Omega of one for
    lift_through_mono, with X a pool module or a projective."""
    a = build_typeA_auslander(n, d)
    pool = _module_pool(a)
    sources = pool + [projective(a, v) for v in a.vertices]
    rng = random.Random(f"lift-{n}-{d}")
    for through_mono in (False, True):
        drawn = lifted = missed = 0
        while drawn < 25:
            if through_mono:
                x = rng.choice(sources)
                m, g = kernel(projective_cover(rng.choice(pool))[1])
                y = g.target

                def lift(f):
                    return reps.lift_through_mono(f, g)
            else:
                x, _, vs = projective_cover(rng.choice(pool))
                m, y = rng.choice(pool), rng.choice(pool)
                gs = hom_basis(m, y)
                if not gs:
                    continue
                g = _combination(gs, rng, m, y)

                def lift(f):
                    return reps.lift_from_projectives(f, vs, g)
            homs, maps = hom_basis(x, m), hom_basis(x, y)
            if not maps:
                continue
            drawn += 1
            f = g.compose(_combination(homs, rng, x, m))
            _assert_lift(f, g, lift(f))
            lifted += not f.is_zero()
            f2 = _combination(maps, rng, x, y)
            image = [g.compose(b).flatten() for b in homs]
            inside = linalg.rank(image + [f2.flatten()]) == linalg.rank(image)
            try:
                h2 = lift(f2)
            except InternalError:
                h2 = None
            assert (h2 is not None) == inside
            if h2 is not None:
                _assert_lift(f2, g, h2)
            missed += not inside
        assert lifted > 0 and missed > 0, through_mono


def _family_maps(n, d, count):
    """The thin family of A^d_n and seeded combinations of Hom bases
    between its modules, zero maps left out."""
    fam = canonical_cluster_tilting(build_typeA_auslander(n, d)).modules
    rng = random.Random(f"family-maps-{n}-{d}")
    maps = []
    while len(maps) < count:
        x, y = rng.choice(fam), rng.choice(fam)
        f = _combination(hom_basis(x, y), rng, x, y)
        if not f.is_zero():
            maps.append(f)
    return fam, maps


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3)])
def test_functors_send_identities_to_identities(n, d):
    fam, _ = _family_maps(n, d, 0)
    for m in fam:
        one = identity_morphism(m)
        for on_maps, on_objects in (
                (reps.syzygy_morphism, syzygy(m)),
                (reps.cosyzygy_morphism, reps.cosyzygy(m)),
                (reps.transpose_morphism, transpose(m)),
                (lambda f: reps.higher_translate_inverse_morphism(f, d),
                 higher_translate_inverse(m, d))):
            image = on_maps(one)
            assert image.source is on_objects and image.target is on_objects
            assert image.blocks == identity_morphism(on_objects).blocks


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3)])
def test_functor_lifts_are_exact(n, d, monkeypatch):
    """Every lift the functors on maps and the comparison maps make is a
    morphism h with g.h = f."""
    seen = []
    for name in ("lift_from_projectives", "lift_through_mono"):
        orig = getattr(reps, name)

        def record(*args, orig=orig):
            h = orig(*args)
            seen.append((args[0], args[-1], h))
            return h
        monkeypatch.setattr(reps, name, record)
    _, maps = _family_maps(n, d, 12)
    for f in maps:
        reps.syzygy_morphism(f)
        reps.transpose_morphism(f)
        reps.higher_translate_inverse_morphism(f, d)
        reps.resolution_lift(f, d)
    assert len(seen) > 50
    for f, g, h in seen:
        _assert_lift(f, g, h)


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3)])
def test_resolution_lift_commutes_with_the_differentials(n, d):
    _, maps = _family_maps(n, d, 12)
    longest = 0
    for f in maps:
        dm = minimal_resolution(f.source, d)[1]
        dn = minimal_resolution(f.target, d)[1]
        below = f
        for k in range(d + 1):
            lift = reps.resolution_lift(f, k)
            if k >= min(len(dm), len(dn)):
                assert lift is None
                break
            # dn[k].lift = below.dm[k]: at k = 0, below is f itself
            assert dn[k].compose(lift).blocks == below.compose(dm[k]).blocks
            assert reps.comparison_map(f, k).blocks == lift.blocks
            below, longest = lift, max(longest, k)
    assert longest == d


def kronecker_modules():
    """The regular Kronecker modules M_t (a -> 1, b -> t) and M_inf, and
    M_0 + M_1.  The Hom spaces between distinct M_t vanish, so a wrong
    coefficient in a presentation changes the isomorphism class."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = build_algebra(BoundQuiverPresentation(q, []))
    dims = {"1": 1, "2": 1}
    mods = [Representation(alg, dims, {"a": [[1]], "b": [[t]]})
            for t in (0, 1, 2, -3)]
    mods.append(Representation(alg, dims, {"a": [[0]], "b": [[1]]}))
    return mods + [direct_sum(mods[:2])[0]]


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3), (None, None)])
def test_transpose_twice_restores_modules_without_projective_summands(n, d):
    if n is None:
        mods = kronecker_modules()
    else:
        mods = canonical_cluster_tilting(build_typeA_auslander(n, d)).modules
    checked = 0
    for m in mods:
        if is_projective(m):
            continue
        back = transpose(transpose(m))
        assert back.algebra is m.algebra
        assert back.dim_vector() == m.dim_vector()
        assert is_isomorphic(back, m)
        checked += 1
    assert checked > 0


def test_minimal_resolution_terms():
    alg = nakayama3()
    terms, diffs, summands, finished = minimal_resolution(simple(alg, "1"), 4)
    assert finished
    assert summands == [["1"], ["2"], ["3"]]
    assert diffs[1].compose(diffs[2]).is_zero() or len(diffs) < 3
    assert diffs[0].compose(diffs[1]).is_zero()


def test_syzygy_past_the_resolution_is_one_zero_module():
    alg = nakayama3()
    p = projective(alg, "1")
    z = syzygy(p)
    assert z.is_zero()
    assert syzygy(p) is z
    assert reps.syzygy_power(p, 3) is z
    i = injective(alg, "1")
    assert reps.cosyzygy(i).is_zero()
    assert reps.cosyzygy(i) is reps.cosyzygy(i)


def test_presentation_matrix_reads_the_cached_resolution():
    alg = nakayama3()
    s1 = simple(alg, "1")
    tgts, srcs, elems, (p0, epi0, p1, d1) = reps.presentation_matrix(s1)
    terms, diffs, summands, _ = minimal_resolution(s1, 1)
    assert (tgts, srcs) == (["1"], ["2"])
    cached = (terms[0], diffs[0], terms[1], diffs[1])
    assert all(x is y for x, y in zip((p0, epi0, p1, d1), cached))
    assert elems[0][0]
    tgts, srcs, elems, (p0, _, p1, d1) = reps.presentation_matrix(
        projective(alg, "2"))
    assert (tgts, srcs, elems, p1, d1) == (["2"], [], [[]], None, None)
    assert p0 is minimal_resolution(projective(alg, "2"), 0)[0][0]


def test_is_projective_detection():
    alg = nakayama3()
    assert is_projective(projective(alg, "1"))
    assert not is_projective(simple(alg, "1"))
    assert not is_projective(injective(alg, "1"))


def test_representation_io_round_trip():
    alg = nakayama3()
    m = projective(alg, "1")
    d = representation_to_dict(m)
    back = representation_from_dict(alg, d)
    assert back.dims == m.dims
    assert back.maps == m.maps


def _ext_dim_by_hom_bases(m, n, i):
    """dim Ext^i(m, n) as dim Hom(P_i, n) minus the ranks of the two
    coboundaries, each spanned by composing a Hom basis with d."""
    terms, diffs, _, _ = minimal_resolution(m, i + 1)
    if len(terms) <= i:
        return 0

    def rank_after(homs, d):
        return linalg.rank([f.compose(d).flatten() for f in homs])

    hom_i = hom_basis(terms[i], n)
    rank_i = rank_after(hom_i, diffs[i + 1]) if len(terms) > i + 1 else 0
    return (len(hom_i) - rank_i
            - rank_after(hom_basis(terms[i - 1], n), diffs[i]))


def _module_pool(a):
    fam = canonical_cluster_tilting(a).modules
    rng = random.Random(f"pool-{len(a.vertices)}")
    pool = list(fam)
    pool += [simple(a, v) for v in a.vertices]
    pool += [injective(a, v) for v in a.vertices]
    pool += [syzygy(m) for m in rng.sample(pool, 6)]
    pool += [direct_sum(rng.sample(pool, 2))[0] for _ in range(4)]
    return [m for m in pool if not m.is_zero()]


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3), (4, 1), (2, 4)])
def test_ext_dim_matches_hom_basis_reference(n, d):
    a = build_typeA_auslander(n, d)
    pool = _module_pool(a)
    rng = random.Random(f"ext-{n}-{d}")
    nonzero = 0
    for _ in range(80):
        m, x = rng.choice(pool), rng.choice(pool)
        for i in (1, 2, 3):
            got = ext_dim(m, x, i)
            assert got == _ext_dim_by_hom_bases(m, x, i)
            assert got == ExtSpace(m, x, i).dim
            nonzero += got > 0
    assert nonzero > 0


def test_ext_dim_keeps_resolution_signs():
    # 147 spans a full cube in A^3_4, so the minimal resolution of S_147 is
    # the Koszul complex of the cube; with its signs dropped the coboundary
    # ranks change and Ext^1, Ext^2 into P_147 and I_258 come out wrong
    a = build_typeA_auslander(4, 3)
    s = simple(a, "147")
    for x in (projective(a, "147"), injective(a, "258")):
        for i in (1, 2, 3):
            assert ext_dim(s, x, i) == _ext_dim_by_hom_bases(s, x, i)


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3)])
def test_generator_images_round_trip(n, d):
    a = build_typeA_auslander(n, d)
    pool = _module_pool(a)
    rng = random.Random(f"generators-{n}-{d}")
    for _ in range(25):
        x = rng.choice(pool)
        vs = [rng.choice(a.vertices) for _ in range(rng.randint(1, 3))]
        p = direct_sum([projective(a, v) for v in vs])[0]
        images = [Fraction(rng.randint(-3, 3))
                  for v in vs for _ in range(x.dims.get(v, 0))]
        f = reps.from_generators(p, vs, x, images)
        assert reps.generator_images(f, vs) == images
        # Hom(P, x) is (+)_v x_v, and hom_basis lists its unit vectors in
        # this order
        basis = hom_basis(p, x)
        assert [reps.generator_images(g, vs) for g in basis] == \
            linalg.identity(len(images))
        combo = zero_morphism(p, x)
        for c, g in zip(images, basis):
            combo = combo.add(g.scale(c))
        assert f.blocks == combo.blocks


def test_projective_star_transposes_the_element_matrix():
    a = build_typeA_auslander(4, 2)
    checked = 0
    for m in _module_pool(a):
        tgts, srcs, elems, (_, _, _, d1) = reps.presentation_matrix(m)
        if not srcs:
            continue
        star = reps.projective_star(a, tgts, srcs, elems)
        reps.Morphism(star.source, star.target, star.blocks)
        star_elems = reps.component_elements(star, tgts, srcs)
        assert star_elems == [list(col) for col in zip(*elems)]
        back = reps.projective_star(a.opposite(), srcs, tgts, star_elems)
        assert back.blocks == d1.blocks
        checked += 1
    assert checked > 5


def test_ext_space_coordinates():
    dims, with_boundaries = set(), 0
    for n, d in ((4, 1), (4, 2)):
        a = build_typeA_auslander(n, d)
        pool = _module_pool(a)
        rng = random.Random(f"ext-space-{n}-{d}")
        for _ in range(100):
            m, i = rng.choice(pool), rng.choice((1, 2))
            x = direct_sum(rng.sample(pool, 2))[0]
            if not ext_dim(m, x, i):
                continue
            sp = ExtSpace(m, x, i)
            assert sp.dim == ext_dim(m, x, i)
            terms, diffs, _, _ = minimal_resolution(m, i + 1)
            boundaries = [g.compose(diffs[i])
                          for g in hom_basis(terms[i - 1], x)]
            for b in boundaries:
                assert not any(sp.coords(b))
            for k, z in enumerate(sp.reps):
                unit = [int(j == k) for j in range(sp.dim)]
                assert sp.coords(z) == unit
                if len(terms) > i + 1:
                    assert z.compose(diffs[i + 1]).is_zero()
                for b in boundaries:
                    assert sp.coords(z.scale(2).add(b)) == \
                        [2 * c for c in unit]
            dims.add(sp.dim)
            with_boundaries += any(not b.is_zero() for b in boundaries)
    assert max(dims) > 1 and with_boundaries > 0


class _ReadOnlyList(list):
    """A list whose mutators raise."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("write to a matrix owned by a representation "
                             "or morphism")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse


@pytest.mark.parametrize("n,d,idx", [(4, 2, [2, 4]), (3, 3, [2])])
def test_unchecked_matrices_are_never_written(monkeypatch, n, d, idx):
    # an unchecked Representation or Morphism stores the dicts and matrices
    # it is given, by identity, with no copy, and owns the matrices: nobody
    # may write to them through the object, and the caller may not write
    # to them after handing them over
    from hga import axioms, cluster, reduction

    handed = []

    def guard(cls, stores):
        init = cls.__init__

        def guarded(self, *args, check=True):
            if check:
                return init(self, *args)
            *head, given = args
            owned = {k: _ReadOnlyList(map(_ReadOnlyList, m))
                     for k, m in given.items()}
            handed.extend((m, [list(row) for row in m])
                          for m in given.values())
            init(self, *head, owned, check=False)
            assert stores(self, head, owned)

        monkeypatch.setattr(cls, "__init__", guarded)

    guard(Representation, lambda self, head, owned:
          self.dims is head[1] and self.maps is owned)
    guard(Morphism, lambda self, head, owned: self.blocks is owned)
    c = cluster.ctgent_family(n, d, idx)
    res = cluster.cluster_endo_algebra(c)
    cover, e = cluster.ctgent_cover(c)
    axioms.is_d_gentle_certificate(cover.algebra, e, d)
    reduction.reduce_to_gentle(res.algebra)
    assert handed
    assert all(m == snapshot for m, snapshot in handed)
    # no zero-size matrix is stored, so none is shared between objects: a
    # simple module keeps its vertex and no map
    arrows = res.algebra.presentation.quiver.arrows
    ar = next(a for a in arrows if a.source != a.target)
    s = reps.simple(res.algebra, ar.target)
    assert (s.dims, s.maps) == ({ar.target: 1}, {})


def reference_cokernel(f):
    """Cokernel by reduction of unit vectors: per vertex, the rref of the
    image rows of f, one reduced unit vector per target coordinate for the
    projection, and one per kept coordinate through each arrow for the
    maps.  Returns the cokernel, its projection and the kept coordinates
    at every vertex."""
    n = f.target
    alg = n.algebra
    ndim = n.dims.get
    proj_blocks = {}
    section = {}
    for v in alg.vertices:
        img_rows = linalg.transpose(f.blocks.get(v, []))
        red, pivots = linalg.rref(img_rows) if img_rows else ([], [])
        piv_set = set(pivots)
        free = [k for k in range(ndim(v, 0)) if k not in piv_set]
        section[v] = free
        cols = []
        for k in range(ndim(v, 0)):
            e = [0] * ndim(v, 0)
            e[k] = 1
            r = reduce_mod_rows(red[: len(pivots)], pivots, e)
            cols.append([r[x] for x in free])
        proj_blocks[v] = linalg.transpose(cols) if cols else [
            [] for _ in free]
    dims = {v: len(section[v]) for v in alg.vertices}
    maps = {}
    for ar in alg.presentation.quiver.arrows:
        u, w = ar.source, ar.target
        mat = [[0] * dims[u] for _ in range(dims[w])]
        for col, k in enumerate(section[u]):
            e = [0] * ndim(u, 0)
            e[k] = 1
            img = linalg.mat_vec(n.maps.get(ar.name, []), e)
            cls = linalg.mat_vec(proj_blocks[w], img) if dims[w] else []
            for row, x in enumerate(cls):
                mat[row][col] = x
        maps[ar.name] = mat
    c = Representation(alg, dims, maps)
    return c, Morphism(n, c, proj_blocks), section


def _cokernel_test_maps(mods, rng):
    """Every Hom basis element and one seeded integer combination of each
    Hom basis between the modules, then the map P0* -> P1* of the minimal
    presentation of each module."""
    maps = []
    for x in mods:
        for y in mods:
            basis = hom_basis(x, y)
            maps.extend(basis)
            if basis:
                maps.append(_combination(basis, rng, x, y))
    for m in mods:
        tgts, srcs, elems, _ = reps.presentation_matrix(m)
        if srcs:
            maps.append(reps.projective_star(m.algebra, tgts, srcs, elems))
    return maps


@pytest.mark.parametrize("family", ["A^2_3", "nakayama3"])
def test_cokernel_matches_unit_vector_reduction(family):
    # Coker f = D Ker(D f) gives the same module, projection and kept
    # coordinates as reducing unit vectors modulo the image of f
    if family == "nakayama3":
        alg = nakayama3()
        mods = [make(alg, v) for v in alg.vertices
                for make in (projective, injective, simple)]
    else:
        mods = canonical_cluster_tilting(build_typeA_auslander(3, 2)).modules
    maps = _cokernel_test_maps(mods, random.Random(f"cokernel-{family}"))
    stars = 0
    for f in maps:
        c, proj, kept = reps._cokernel(f)
        want, want_proj, want_kept = reference_cokernel(f)
        assert proj.source is f.target and proj.target is c
        assert cokernel(f)[1].source is f.target
        assert c.dims == want.dims
        assert c.maps == want.maps
        assert proj.blocks == want_proj.blocks
        assert kept == {v: cols for v, cols in want_kept.items() if cols}
        Representation(c.algebra, c.dims, c.maps)
        Morphism(f.target, c, proj.blocks)
        stars += f.source.algebra is not mods[0].algebra
    assert stars > 0 and len(maps) > 50


def _count_calls(monkeypatch, names):
    """Counters on the named linalg routines, installed for the test."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(linalg, name), **kw):
            calls[_name] += 1
            return _orig(*args, **kw)
        monkeypatch.setattr(linalg, name, counted)
    return calls


def test_kernel_step_costs_one_rref_per_support_vertex(monkeypatch):
    # a resolution step pays for the support of its module, not for the
    # quiver.  The cover of a simple over A^2_8 is a thin P_v, so its
    # kernel is read off the scalars with no elimination at all; the
    # cover of S_v + S_v is not thin, and its kernel takes at most one
    # rref per vertex where the projective is nonzero and no nullspace
    a = build_typeA_auslander(8, 2)
    v = a.vertices[len(a.vertices) // 2]
    s = simple(a, v)
    thin_epi = projective_cover(s)[1]
    p, epi, _ = projective_cover(direct_sum([s, s])[0])
    calls = _count_calls(monkeypatch, ("rref", "nullspace"))
    k, incl = kernel(thin_epi)
    assert calls == {"rref": 0, "nullspace": 0}
    assert k.total_dim == thin_epi.source.total_dim - 1
    k, incl = kernel(epi)
    assert calls["nullspace"] == 0
    support = [w for w in a.vertices if w in p.dims]
    assert 0 < calls["rref"] <= len(support) < len(a.vertices)
    assert k.total_dim == p.total_dim - 2
    Representation(a, k.dims, k.maps)
    reps.Morphism(k, p, incl.blocks)


def _step_parts(m, cover=projective_cover, kern=reps._kernel):
    """A resolution step on m, as the objects it builds: the cover, its
    summands, the cover map, the kernel, its inclusion and free columns."""
    p, epi, summands = cover(m)
    k, incl, free = kern(epi)
    return p, summands, epi, k, incl, free


def _general(monkeypatch, run, *args):
    """run(*args) with from_generators' thin walk switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(reps, "_thin", lambda m: False)
        return run(*args)


def _reference_step(monkeypatch, m):
    """The step on m by elimination at every support vertex
    (``reference_resolution``), its cover map by from_generators' general
    walk."""
    return _general(monkeypatch, _step_parts, m,
                    reference_resolution.projective_cover,
                    reference_resolution.kernel)


def _assert_same_step(got, want):
    """Both steps built equal objects: dims, maps and blocks in the same
    key order, each kernel map the cover's own matrix in both or in
    neither."""
    (p, summands, epi, k, incl, free), (q, summands2, epi2, k2, incl2,
                                       free2) = got, want
    assert summands == summands2
    for x, y in ((p, q), (k, k2)):
        assert list(x.dims.items()) == list(y.dims.items())
        assert list(x.maps.items()) == list(y.maps.items())
    for x, y in ((epi, epi2), (incl, incl2)):
        assert list(x.blocks.items()) == list(y.blocks.items())
    assert list(free.items()) == list(free2.items())
    assert ([mat is p.maps.get(name) for name, mat in k.maps.items()]
            == [mat is q.maps.get(name) for name, mat in k2.maps.items()])


def _resolved_modules(monkeypatch):
    """The modules that every resolution step of the auslander pool's
    homdims and of the 13 ctgent chains covers."""
    from hga import axioms, cluster, reduction
    from workloads import AUSLANDER_POOL, CTGENT_POOL

    seen, cover = [], reps.projective_cover

    def recorded(m):
        seen.append(m)
        return cover(m)

    with monkeypatch.context() as patch:
        patch.setattr(reps, "projective_cover", recorded)
        for n, d in AUSLANDER_POOL:
            homological_dims(build_typeA_auslander(n, d))
        for n, d, idx in CTGENT_POOL:
            c = cluster.ctgent_family(n, d, list(idx))
            cover_alg, e = cluster.ctgent_cover(c)
            axioms.is_d_gentle_certificate(cover_alg.algebra, e, d)
            trace = reduce_to_gentle(cluster_endo_algebra(c).algebra)
            reduction.gentle_sg_invariant(trace.terminal)
    return seen


def test_thin_resolution_steps_equal_the_general_path(monkeypatch):
    # a one-dimensional vertex of a step is read off its scalars; every
    # step of the benchmark's resolutions builds what elimination at
    # every support vertex builds, and most of them take no rref
    mods = _resolved_modules(monkeypatch)
    calls = _count_calls(monkeypatch, ("rref",))
    scalar = 0
    for m in mods:
        before = calls["rref"]
        parts = _step_parts(m)
        scalar += calls["rref"] == before
        _assert_same_step(parts, _reference_step(monkeypatch, m))
    assert len(mods) > 4000 and scalar > 0.9 * len(mods)


def _hand_cases():
    """(module, rref calls, mat_vec calls) of its step: P_1 + S_2 on
    1 -> 2 -> 3 with a 2-dimensional vertex, a thin module with two tops,
    the Kronecker modules (thin, each with one of its two maps 0 or
    neither, and a sum of two, with projective covers that are not thin),
    and thin modules with scalars 2 and -1/3 and with a zero map."""
    kron = kronecker_modules()
    alg = nakayama3()
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])
    vee = build_algebra(BoundQuiverPresentation(q, []))
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    line = build_algebra(BoundQuiverPresentation(q, []))
    return [
        (direct_sum([projective(alg, "1"), simple(alg, "2")])[0], 2, 1),
        (_thin(vee, "123"), 1, 2),
        *((m, 1, 2) for m in kron[:5]),
        (kron[5], 3, 4),
        (Representation(line, dict.fromkeys("123", 1),
                        {"a": [[2]], "b": [[Fraction(-1, 3)]]}), 0, 0),
        (Representation(line, dict.fromkeys("123", 1),
                        {"a": [[2]], "b": [[0]]}), 1, 2),
        (Representation(line, {"1": 1, "2": 1}, {"a": [[0]]}), 1, 1),
    ]


def test_thin_rule_hand_cases(monkeypatch):
    # each step builds what elimination at every vertex builds, and takes
    # one rref per vertex of dimension 2 or more where it must eliminate
    calls = _count_calls(monkeypatch, ("rref", "mat_vec"))
    for m, rref, mat_vec in _hand_cases():
        before = dict(calls)
        parts = _step_parts(m)
        assert (calls["rref"] - before["rref"],
                calls["mat_vec"] - before["mat_vec"]) == (rref, mat_vec)
        _assert_same_step(parts, _reference_step(monkeypatch, m))
    m = _hand_cases()[-3][0]
    p, epi, _ = projective_cover(m)
    assert [b[0][0] for b in epi.blocks.values()] == [1, 2, Fraction(-2, 3)]
    # a generator sent elsewhere than to 1, as a lift or an Ext class sends it
    for image in ([3], [0], [Fraction(1, 2)]):
        got = reps.from_generators(p, ["1"], m, image)
        want = _general(monkeypatch, reps.from_generators, p, ["1"], m,
                        image)
        assert list(got.blocks.items()) == list(want.blocks.items())
        assert got.blocks["3"] == [[image[0] * Fraction(-2, 3)]]


def test_thin_kernel_keeps_the_vertices_where_the_map_is_zero(
        monkeypatch):
    # P_1 -> S_1 + S_2 on 1 -> 2 -> 3, 1 at vertex 1 and 0 at vertex 2:
    # the kernel is P_1 at 2 and 3, with P_1's own map between them, and
    # so it is for a 2x1 zero block at vertex 2 (into S_1 + S_2 + S_2),
    # with no rref; a nonzero 2x1 column drops vertex 2 as well
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    line = build_algebra(BoundQuiverPresentation(q, []))
    p1 = projective(line, "1")
    flat = Representation(line, {"1": 1, "2": 1}, {"a": [[0]]})
    two = Representation(line, {"1": 1, "2": 2}, {"a": [[0], [0]]})
    bent = Representation(line, {"1": 1, "2": 2}, {"a": [[0], [1]]})
    maps = [Morphism(p1, flat, {"1": [[1]], "2": [[0]]}),
            Morphism(p1, two, {"1": [[1]], "2": [[0], [0]]}),
            Morphism(p1, bent, {"1": [[1]], "2": [[0], [1]]})]
    calls = _count_calls(monkeypatch, ("rref",))
    got = [reps._kernel(f) for f in maps]
    assert calls["rref"] == 0
    for f, (k, incl, free), support in zip(maps, got, ("23", "23", "3")):
        k2, incl2, free2 = reference_resolution.kernel(f)
        assert list(k.dims.items()) == list(k2.dims.items()) == [
            (v, 1) for v in support]
        assert k.maps == k2.maps
        assert list(incl.blocks.items()) == list(incl2.blocks.items())
        assert free == free2
    assert got[0][0].maps["b"] is got[1][0].maps["b"] is p1.maps["b"]
    # a kernel that leaves its module is a fault, read off the scalars
    broken = Morphism(p1, flat, {"1": [[0]], "2": [[1]]}, check=False)
    with pytest.raises(InternalError, match="not a subrepresentation"):
        reps._kernel(broken)


def _assert_stored_on_support(m):
    """m keeps its support alone: one positive dimension per support
    vertex, and a map of the right shape for exactly the arrows with both
    ends there."""
    alg = m.algebra
    support = [v for v, k in zip(alg.vertices, m.dim_vector()) if k]
    assert m.support == tuple(support) and len(m.dims) == len(support)
    assert all(m.dims[v] > 0 for v in support)
    inside = {ar.name: ar for ar in alg.quiver.arrows
              if ar.source in m.dims and ar.target in m.dims}
    assert set(m.maps) == set(inside)
    for name, mat in m.maps.items():
        ar = inside[name]
        assert len(mat) == m.dims[ar.target]
        assert all(len(row) == m.dims[ar.source] for row in mat)


def _assert_blocks_on_support(f):
    """f keeps a block at exactly the vertices where its source and target
    are both nonzero, in vertex order."""
    assert list(f.blocks) == [v for v in f.target.support
                              if v in f.source.dims]
    for v, b in f.blocks.items():
        assert len(b) == f.target.dims[v]
        assert all(len(row) == f.source.dims[v] for row in b)


def test_a_module_on_a28_stores_its_support_alone():
    # on A^2_8 (36 vertices) a module with a k-vertex support stores k
    # dimensions and the maps inside its support, and a morphism the
    # blocks where both ends are nonzero, for every way L2 builds them
    a = build_typeA_auslander(8, 2)
    fam = canonical_cluster_tilting(a)
    mods, mors = [], []
    for v in a.vertices[::5]:
        s = simple(a, v)
        p, epi, _ = projective_cover(s)
        k, incl = kernel(epi)
        c, proj = cokernel(incl)
        mods += [s, p, projective(a, v), k, c, dual(p), transpose(s),
                 higher_translate_inverse(s, 2)]
        mors += [epi, incl, proj, reps.dual_morphism(epi),
                 incl.compose(identity_morphism(k))]
    for m in fam.modules[::7]:
        mods += [higher_translate_inverse(m, 2), transpose(m), dual(m)]
        mors += hom_basis(m, fam.modules[0]) + hom_basis(fam.modules[-1], m)
    for m in mods:
        _assert_stored_on_support(m)
    for f in mors:
        _assert_blocks_on_support(f)
    assert any(0 < len(m.support) < len(a.vertices) // 4 for m in mods)
    assert sum(len(f.blocks) for f in mors) > 0


def test_zero_ext_space_reads_coboundaries_and_refuses_the_rest():
    # a zero space still checks its classes: a cocycle is a coboundary and
    # has no coordinates, and a map that is no cocycle escapes
    a = build_typeA_auslander(4, 2)
    pool = _module_pool(a)
    rng = random.Random("zero-ext-space")
    cocycles = escapes = 0
    for _ in range(400):
        m, x, i = rng.choice(pool), rng.choice(pool), rng.choice((1, 2))
        terms, diffs, _, _ = minimal_resolution(m, i + 1)
        sp = ExtSpace(m, x, i)
        if sp.dim or len(terms) <= i + 1:
            continue
        for f in hom_basis(terms[i], x):
            if f.compose(diffs[i + 1]).is_zero():
                assert sp.coords(f) == []
                cocycles += 1
            else:
                with pytest.raises(reps.InternalError):
                    sp.coords(f)
                escapes += 1
    assert cocycles and escapes


def test_ext_space_without_cochains_builds_no_coboundary(monkeypatch):
    """When no summand P_v of P_d has v in the support of n, Hom(P_d, n)
    is zero: the space is zero with no coboundary built and P_{d+1} not
    resolved, and a vector outside it still escapes."""
    built = []
    coboundary = reps._coboundary

    def counted(*args):
        built.append(args)
        return coboundary(*args)

    a = build_typeA_auslander(4, 2)
    pool = _module_pool(a)
    monkeypatch.setattr(reps, "_coboundary", counted)
    rng = random.Random("ext-no-cochains")
    found = 0
    for _ in range(200):
        m, x, i = rng.choice(pool), rng.choice(pool), rng.choice((1, 2))
        m = Representation(a, m.dims, m.maps, check=False)
        terms, _, summands, _, _ = reps._resolution(m, i)
        if len(terms) <= i or any(v in x.dims for v in summands[i]):
            continue
        sp = ExtSpace(m, x, i)
        assert (sp.dim, sp.reps, built) == (0, [], [])
        assert peek(m, ("resolution", i + 1)) is None
        assert sp.coords(zero_morphism(terms[i], x)) == []
        with pytest.raises(InternalError):
            sp.coords(identity_morphism(terms[i]))
        found += 1
    assert found


def _sum_idempotents(m, incls, projs):
    """Idempotents of End(m) for m the direct sum with these inclusions and
    projections: the projection onto the first k summands, for each proper
    k, and each sheared to e + e h (1 - e) by the sum h of an End basis."""
    one = reps.identity_morphism(m)
    h = _combination(hom_basis(m, m), random.Random("shear"), m, m)
    out = []
    for k in range(1, len(incls)):
        e = zero_morphism(m, m)
        for inc, prj in zip(incls[:k], projs[:k]):
            e = e.add(inc.compose(prj))
        out += [e, e.add(e.compose(h).compose(one.add(e.scale(-1))))]
    return out


@pytest.mark.parametrize("summands", [("P1", "S2", "S2"),
                                      ("S2", "P1", "S2"),
                                      ("P2", "P1", "S3", "S2")])
def test_split_by_idempotent_is_a_direct_sum(summands):
    alg = nakayama3()
    make = {"P": projective, "S": simple}
    m, incls, projs = direct_sum([make[s[0]](alg, s[1]) for s in summands])
    for e in _sum_idempotents(m, incls, projs):
        assert e.compose(e).add(e.scale(-1)).is_zero()
        (im, ii), (k, ki) = reference_decompose._split_by_idempotent(m, e)
        for v in m.support:
            rows = [[]] * m.dims[v]     # a block at a zero end has no columns
            both = [ri + rk for ri, rk in zip(ii.blocks.get(v, rows),
                                              ki.blocks.get(v, rows))]
            assert linalg.rank(both) == len(both)
        assert e.compose(ii).add(ii.scale(-1)).is_zero()
        assert e.compose(ki).is_zero()


def test_min_poly_is_the_least_monic_annihilator():
    alg = nakayama3()
    m, incls, projs = direct_sum([projective(alg, "1"), simple(alg, "2"),
                                  simple(alg, "2"), projective(alg, "2")])
    end = hom_basis(m, m)
    rng = random.Random("min-poly")
    phis = list(end) + [_combination(end, rng, m, m) for _ in range(20)]
    phis += [e.scale(2).add(reps.identity_morphism(m).scale(3))
             for e in _sum_idempotents(m, incls, projs)]
    degrees = set()
    for phi in phis:
        coeffs = reference_decompose._min_poly(phi)
        assert coeffs[-1] == 1
        assert reference_decompose._poly_eval_morphism(coeffs, phi).is_zero()
        power, flats = reps.identity_morphism(m), []
        for _ in range(len(coeffs) - 1):
            flats.append(power.flatten())
            power = power.compose(phi)
        assert linalg.rank(flats) == len(flats)
        degrees.add(len(coeffs) - 1)
    assert max(degrees) > 2


def _thin(alg, support):
    """The thin module on support with every map inside it 1."""
    return Representation(alg, dict.fromkeys(support, 1), {
        ar.name: [[1]] for ar in alg.quiver.arrows
        if ar.source in support and ar.target in support})


def _final_form_callers():
    """Each caller that must hand over zeros or an order of its own: a
    simple at a loop, a zero map between overlapping supports then added
    to, a composite whose middle module misses a vertex of both ends, a
    dual whose maps leave in another order than they arrive, a corner
    whose arrows are not in vertex order, and a Hom pair with two
    components."""
    from hga import cluster
    from hga.algebras import idempotent_subalgebra
    from hga.presentations import Idempotent
    from hga.reduction import corner_column_module

    simple(loop_algebra(), "v")
    alg = nakayama3()
    p1, s1, s2 = projective(alg, "1"), simple(alg, "1"), simple(alg, "2")
    zero_morphism(s2, p1).add(hom_basis(s2, p1)[0])
    zero_morphism(s1, s2).compose(zero_morphism(s2, s1))
    a = build_typeA_auslander(4, 2)
    pool = _module_pool(a)
    composed = 0
    for x, m, y in itertools.product(pool, repeat=3):
        if any(v in y.dims and v not in m.dims for v in x.dims):
            g, h = hom_basis(m, y), hom_basis(x, m)
            if g and h:
                g[0].compose(h[0])
                composed += 1
                if composed == 5:
                    break
    assert composed == 5
    q = Quiver(["1", "2", "3"], [("a", "1", "3"), ("b", "2", "1")])
    dual(projective(build_algebra(BoundQuiverPresentation(q, [])), "2"))
    q = Quiver(["2", "1", "3"],
               [("x", "2", "1"), ("y", "1", "2"), ("z", "2", "3")])
    two_cycle = build_algebra(BoundQuiverPresentation(
        q, [zero_relation(("x", "y")), zero_relation(("y", "x"))]))
    corner = idempotent_subalgebra(two_cycle, Idempotent.of(["2", "1"]))
    assert [ar.source for ar in corner.quiver.arrows] == ["1", "2"]
    corner_column_module(corner, "2")
    # 1 -> 2 <- 3: Hom(M_{123}, S_1 + S_3) has a component at 1 and at 3
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])
    alg = build_algebra(BoundQuiverPresentation(q, []))
    mods = {"x": _thin(alg, "123"), "y": _thin(alg, "13")}
    fam = types.SimpleNamespace(module_of=lambda lab: mods[lab.entries])
    x, y = (types.SimpleNamespace(entries=k) for k in "xy")
    comps, basis = cluster._pair_homs(fam, x, y)
    assert comps == [("1",), ("3",)] and len(basis) == 2


def test_final_form_objects_equal_normalised_ones(monkeypatch):
    # every Representation and Morphism built with check=False (kernels,
    # inclusions, cover maps, differentials, sums of projectives, direct
    # sums, duals, composites, restrictions, Hom bases) is what the
    # checked constructors build from its data, key order included, with
    # every map of its support present: its caller handed over final form
    built, sums = [], []
    for cls in (Representation, Morphism):
        def init(self, *args, check=True, _orig=cls.__init__):
            _orig(self, *args, check=check)
            if not check:
                built.append(self)
        monkeypatch.setattr(cls, "__init__", init)
    sum_module = reps._sum_module

    def recorded(alg, summands):
        out = sum_module(alg, summands)
        sums.append((out[0], len(summands)))
        return out

    # a resolution term with several summands is built in final form too
    monkeypatch.setattr(reps, "_sum_module", recorded)
    for n, d in ((4, 2), (3, 3), (4, 3)):
        homological_dims(build_typeA_auslander(n, d))
    reduce_to_gentle(cluster_endo_algebra(ctgent_family(4, 2, [2])).algebra)
    # the two-cycle with radical square zero: the differential P_2 -> P_1
    # of S_1 has a zero block at 1, where the kernel rad P_1 = S_2 vanishes
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    two_cycle = build_algebra(BoundQuiverPresentation(
        q, [zero_relation(("a", "b")), zero_relation(("b", "a"))]))
    minimal_resolution(simple(two_cycle, "1"), 3)
    _final_form_callers()

    modules = [x for x in built if isinstance(x, Representation)]
    assert len(modules) > 100 and len(built) - len(modules) > 100
    assert sum(k > 1 for _, k in sums) > 10
    assert {id(x) for x, _ in sums} <= {id(x) for x in modules}
    for x in built:
        if isinstance(x, Representation):
            alg = x.algebra
            y = Representation(alg, x.dims, x.maps, check=True)
            assert x.support == y.support
            assert list(x.dims.items()) == list(y.dims.items())
            assert list(x.maps.items()) == list(y.maps.items())
            assert set(x.maps) == {ar.name for u in x.support
                                   for ar in alg.quiver.arrows_from[u]
                                   if ar.target in x.dims}
        else:
            y = Morphism(x.source, x.target, x.blocks, check=True)
            assert list(x.blocks.items()) == list(y.blocks.items())
            assert list(x.blocks) == [v for v in x.target.support
                                      if v in x.source.dims]


def test_a_kernel_shares_its_cover_matrices_where_the_map_vanishes():
    # where the cover map is zero the kernel is the whole space: its
    # inclusion block is square, and a map between two such vertices is
    # the cover's own matrix
    a = build_typeA_auslander(4, 2)
    p, epi, _ = projective_cover(simple(a, a.vertices[0]))
    k, incl = kernel(epi)
    whole = {v for v, b in incl.blocks.items() if len(b) == len(b[0])}
    assert whole and all(incl.blocks[v] == linalg.identity(k.dims[v])
                         for v in whole)
    shared = [name for name in k.maps
              if {a.quiver.arrow_by_name[name].source,
                  a.quiver.arrow_by_name[name].target} <= whole]
    assert shared and all(k.maps[name] is p.maps[name] for name in shared)


def test_a_module_over_an_unpresented_algebra_names_the_fault():
    raw = cluster_endo_algebra(ctgent_family(4, 2, [2])).raw
    with pytest.raises(InvalidPresentation, match="represent"):
        homological_dims(raw)


def test_basis_prefixes_read_each_path_as_its_prefix_and_last_arrow():
    a = build_typeA_auslander(4, 2)
    prefix, last = reps._basis_prefixes(a)
    labels, nv = a.basis_labels, len(a.vertices)
    assert prefix[:nv] == last[:nv] == [None] * nv
    for b in range(nv, a.dim):
        path = labels[b]
        assert last[b] == path[-1] and prefix[b] < b
        assert (labels[prefix[b]] == path[:-1] if len(path) > 1
                else prefix[b] == a.e_index[a.basis_src[b]])
    # a basis whose path ab has no basis path a before it is not one that
    # a presentation gives: the plan fails as an internal fault
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    pres = BoundQuiverPresentation(q, [])
    broken = Algebra(["1", "2", "3"],
                     [("e", "1"), ("e", "2"), ("e", "3"), ("a", "b")],
                     ["1", "2", "3", "1"], ["1", "2", "3", "3"], {},
                     presentation=pres)
    with pytest.raises(InternalError, match="prefix"):
        reps._basis_prefixes(broken)
