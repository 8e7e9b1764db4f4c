import dataclasses
import hashlib
import json
import random
from collections import Counter
from math import comb

import pytest

from hga import cluster, reps, typea
from hga.axioms import is_d_gentle_certificate
from hga.cluster import (
    SummandCollection,
    cluster_endo_algebra,
    ctgent_cover,
    ctgent_family,
    is_d_rigid,
    is_d_tilting,
)
from hga.errors import (
    AdjacencyViolation,
    HgaError,
    InternalError,
    LabelMatchFailed,
    UnsupportedSummand,
)
from hga.memo import peek
from hga.presentations import presentation_to_dict
from hga.typea import (
    LabelledModuleFamily,
    Tuple,
    build_typeA_auslander,
    canonical_cluster_tilting,
    corner,
    intertwines,
)
from workloads import CTGENT_POOL, rigid_pool

import reference_roles

SEC5_LABELS = [
    "135", "136", "137", "138", "139", "147", "148", "149",
    "157", "158", "159", "169", "179", "357", "579",
]

SEC5_ARROWS = {
    ("135", "136"), ("157", "158"), ("137", "147"), ("148", "158"),
    ("159", "169"), ("137", "138"), ("148", "149"), ("138", "139"),
    ("147", "157"), ("169", "179"), ("136", "137"), ("147", "148"),
    ("158", "159"), ("138", "148"), ("149", "159"), ("139", "149"),
    ("179", "579"), ("579", "157"), ("157", "357"), ("357", "135"),
}

SEC5_CHORDS = [frozenset(x) for x in [
    ("137", "148"), ("147", "158"), ("148", "159"), ("138", "149"),
    ("357", "136"), ("357", "147"), ("579", "158"), ("579", "169"),
    ("135", "147"), ("157", "136"), ("179", "158"), ("157", "169"),
    ("157", "179"), ("157", "135"),
]]

# the (n, d) on which the label roles are checked against the search
ROLE_PARAMS = [(2, 1), (5, 1), (3, 2), (4, 2), (6, 2), (3, 3), (5, 3), (3, 4),
               (4, 4)]

EX_COLLECTION = [
    (1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 3, 8), (1, 4, 8),
    (1, 5, 8), (1, 6, 8), (3, 5, 7), (3, 5, 8), (3, 6, 8),
]

EX_ARROWS = {
    ("135", "136"), ("136", "137"), ("137", "138"), ("138", "148"),
    ("148", "158"), ("158", "168"), ("158", "358"), ("168", "368"),
    ("357", "358"), ("358", "135"), ("358", "368"), ("368", "136"),
}

EX_CHORDS = [frozenset(x) for x in [
    ("135", "148"), ("135", "158"), ("136", "158"), ("136", "168"),
    ("136", "358"), ("137", "168"), ("137", "368"), ("148", "358"),
    ("158", "368"), ("357", "368"),
]]

# radical layers of the Gorenstein-projective syzygy orbit of the
# EX_COLLECTION algebra, as composition factor sets per step
EX_OMEGA_ORBIT = [
    ["136"],
    ["137", "138", "148"],
    ["158"],
    ["168", "358", "368"],
    ["135", "136", "368"],
    ["136", "137", "138"],
    ["148"],
    ["158", "168"],
    ["358", "368"],
    ["135", "136"],
    ["137", "138"],
    ["148", "158"],
    ["168"],
    ["368"],
]


@pytest.fixture(scope="module")
def fam12():
    return canonical_cluster_tilting(build_typeA_auslander(2, 1))


@pytest.fixture(scope="module")
def fam24():
    return canonical_cluster_tilting(build_typeA_auslander(4, 2))


@pytest.fixture(scope="module")
def sec5():
    c = ctgent_family(5, 2, [2, 4])
    return c, cluster_endo_algebra(c)


def chord_set(p):
    return Counter(frozenset(r.validate(p.quiver)) for r in p.relations)


def test_projectives_endo_recovers_algebra(fam12):
    c = SummandCollection(fam12, [(1, 3), (1, 4)])
    res = cluster_endo_algebra(c)
    assert res.end_dim == 3
    assert res.ext_dim == 0
    p = res.algebra.presentation
    assert [(a.source, a.target) for a in p.quiver.arrows] == [("13", "14")]
    assert p.relations == []


def test_collection_rejects_shifted_projective(fam12):
    # the first label outside the family names the error: one with the
    # entry n+2d+1 = 5 is a shifted projective, any other an input error
    with pytest.raises(UnsupportedSummand, match=r"\(2, 5\)"):
        SummandCollection(fam12, [(1, 3), (2, 5), (1, 2)])
    with pytest.raises(HgaError, match=r"label \(1, 2\) is not in") as err:
        SummandCollection(fam12, [(1, 3), (1, 2), (2, 5)])
    assert not isinstance(err.value, UnsupportedSummand)


def test_collection_rejects_unknown_and_duplicates(fam12):
    with pytest.raises(HgaError, match="not in the module family"):
        SummandCollection(fam12, [(1, 3), (1, 3), (1, 2)])
    with pytest.raises(HgaError, match="duplicate"):
        SummandCollection(fam12, [(1, 4), [1, 3], fam12.labels[0]])
    with pytest.raises(HgaError, match="empty"):
        SummandCollection(fam12, [])


def test_collection_reads_the_label_index_once(fam24, monkeypatch):
    """One read of the family's label index per collection, whatever the
    labels' form, and the position mask kept with the positions."""
    labels = [(2, 4, 6), [1, 3, 5], fam24.labels[3]]
    positions = sorted(fam24.index_of(t) for t in labels)
    reads = []
    index = LabelledModuleFamily.label_index

    def counted(fam):
        reads.append(fam)
        return index(fam)

    def per_label(*args):
        raise AssertionError("the collection looked up a label by itself")

    monkeypatch.setattr(LabelledModuleFamily, "label_index", counted)
    monkeypatch.setattr(LabelledModuleFamily, "index_of", per_label)
    c = SummandCollection(fam24, labels)
    assert reads == [fam24]
    assert c.positions == positions
    assert c.labels == [fam24.labels[i] for i in positions]
    assert c.mask == sum(1 << i for i in positions)


def test_rigidity_matches_intertwining(fam12):
    assert is_d_rigid(SummandCollection(fam12, [(1, 3), (1, 4)]))
    assert not is_d_rigid(SummandCollection(fam12, [(1, 3), (2, 4)]))
    full = SummandCollection(fam12, [(1, 3), (1, 4), (2, 4)])
    assert not is_d_rigid(full)
    assert not is_d_tilting(full)


def test_all_projectives_tilting():
    c = ctgent_family(3, 2, [])
    assert is_d_tilting(c)
    assert is_d_rigid(c)


def test_single_projective_not_tilting(fam12):
    assert not is_d_tilting(SummandCollection(fam12, [(1, 3)]))


def test_empty_index_set_recovers_regular_algebra():
    c = ctgent_family(3, 2, [])
    assert sorted(l.label() for l in c.labels) == [
        "135", "136", "137", "146", "147", "157"]
    res = cluster_endo_algebra(c)
    assert res.end_dim == 15
    assert res.ext_dim == 0
    arrows = {(a.source, a.target)
              for a in res.algebra.presentation.quiver.arrows}
    assert arrows == {
        ("135", "136"), ("136", "137"), ("136", "146"), ("137", "147"),
        ("146", "147"), ("147", "157"),
    }
    assert chord_set(res.algebra.presentation) == Counter(
        frozenset(x) for x in
        [("135", "146"), ("136", "147"), ("146", "157")]
    )


def test_ctgent_position_validation(monkeypatch):
    # bad positions raise before A^d_n or its family is built
    def unbuilt(*args):
        raise AssertionError("A^d_n or its family was built")

    monkeypatch.setattr(cluster, "build_typeA_auslander", unbuilt)
    monkeypatch.setattr(cluster, "canonical_cluster_tilting", unbuilt)
    with pytest.raises(AdjacencyViolation):
        ctgent_family(3, 2, [2, 3])
    with pytest.raises(UnsupportedSummand):
        ctgent_family(3, 2, [1])
    with pytest.raises(ValueError):
        ctgent_family(3, 2, [4])


def test_parameters_are_checked_before_the_positions():
    # a bad n or d, or a family for other parameters, is reported first,
    # as it was when the family was built before the positions were read
    for n, d in ((0, 2), (3, 0)):
        with pytest.raises(ValueError, match="need n >= 1 and d >= 1"):
            ctgent_family(n, d, [1, 2])
    fam = canonical_cluster_tilting(build_typeA_auslander(3, 2))
    with pytest.raises(HgaError, match="does not match"):
        ctgent_family(4, 2, [1, 2], family=fam)


def test_ctgent_one_replacement():
    c = ctgent_family(3, 2, [2])
    assert sorted(l.label() for l in c.labels) == [
        "135", "136", "137", "147", "157", "357"]
    assert is_d_rigid(c)
    assert is_d_tilting(c)
    res = cluster_endo_algebra(c)
    assert (res.end_dim, res.ext_dim) == (14, 1)
    assert res.ext_square_zero
    arrows = {(a.source, a.target)
              for a in res.algebra.presentation.quiver.arrows}
    assert arrows == {
        ("135", "136"), ("136", "137"), ("137", "147"),
        ("147", "157"), ("157", "357"), ("357", "135"),
    }
    assert chord_set(res.algebra.presentation) == Counter(
        frozenset(x) for x in
        [("135", "147"), ("135", "157"), ("136", "157"),
         ("136", "357"), ("147", "357")]
    )
    cover, e = ctgent_cover(c)
    cert = is_d_gentle_certificate(cover.algebra, e, 2)
    assert cert.verdict == "pass"


def test_cycle_collection_summand_count(sec5):
    c, _ = sec5
    assert len(c) == comb(5 + 2 - 1, 2)


def test_cycle_collection_labels(sec5):
    c, _ = sec5
    assert sorted(l.label() for l in c.labels) == sorted(SEC5_LABELS)


def test_cycle_collection_unique_index_set():
    fam = None
    admissible = []
    for i in range(1, 6):
        for j in range(i + 1, 6):
            try:
                c = ctgent_family(5, 2, [i, j])
            except (AdjacencyViolation, UnsupportedSummand):
                continue
            fam = c.family
            if sorted(l.label() for l in c.labels) == sorted(SEC5_LABELS):
                admissible.append((i, j))
    assert admissible == [(2, 4)]


def test_cycle_collection_endo_quiver(sec5):
    _, res = sec5
    assert (res.end_dim, res.ext_dim) == (64, 3)
    assert res.ext_square_zero
    # which the construction guarantees: the table multiplies no two Ext
    # classes
    ext = {i for i, lab in enumerate(res.raw.basis_labels) if lab[0] == "ext"}
    assert len(ext) == 3
    assert not any(i in ext and j in ext for i, j in res.raw.mult)
    arrows = {(a.source, a.target)
              for a in res.algebra.presentation.quiver.arrows}
    assert arrows == SEC5_ARROWS
    assert chord_set(res.algebra.presentation) == Counter(SEC5_CHORDS)


def test_cycle_collection_certificates(sec5):
    c, _ = sec5
    assert is_d_rigid(c)
    assert is_d_tilting(c)


def test_cycle_collection_cover_certificate(sec5):
    c, _ = sec5
    cover, e = ctgent_cover(c)
    cert = is_d_gentle_certificate(cover.algebra, e, 2)
    assert cert.verdict == "pass"


def test_mixed_collection_endo(fam24):
    c = SummandCollection(fam24, EX_COLLECTION)
    assert is_d_rigid(c)
    res = cluster_endo_algebra(c)
    assert (res.end_dim, res.ext_dim) == (30, 4)
    assert res.ext_square_zero
    arrows = {(a.source, a.target)
              for a in res.algebra.presentation.quiver.arrows}
    assert arrows == EX_ARROWS
    assert chord_set(res.algebra.presentation) == Counter(EX_CHORDS)


def test_mixed_collection_syzygy_orbit(fam24):
    c = SummandCollection(fam24, EX_COLLECTION)
    b = cluster_endo_algebra(c).algebra
    cur = reps.simple(b, "136")
    seen = []
    for _ in range(len(EX_OMEGA_ORBIT)):
        factors = [v for v, k in zip(b.vertices, cur.dim_vector())
                   for _ in range(k)]
        seen.append(sorted(factors))
        _, epi, _ = reps.projective_cover(cur)
        cur, _ = reps.kernel(epi)
    assert seen == [sorted(x) for x in EX_OMEGA_ORBIT]
    assert reps.is_isomorphic(cur, reps.simple(b, "136"))


def _endo_digest(res):
    raw = res.raw
    data = {
        "presentation": presentation_to_dict(res.algebra.presentation),
        "labels": raw.basis_labels,
        "mult": sorted([list(k), sorted((x, str(c)) for x, c in v.items())]
                       for k, v in raw.mult.items()),
    }
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


# the raw mult table holds coordinates in the chosen Hom bases and Ext
# cocycle representatives, so it changes with either choice; the relation
# chords compared above cannot see that
ENDO_DIGESTS = {
    (4, 2, (2, 4)):
        "3f7b06c0b2ce17a566e9017866d39764d0295446b5ae8ba5392ba7bdadffa45f",
    (5, 2, (3,)):
        "ed30d0362c5e7c9b58a5fa738a2dabaeb608b7226efb4c106f7fa6dbc01c3cc7",
    (5, 2, (2, 5)):
        "71fe2d7f7ea484e4417077eaab7c0bbb4fa8e963e78bba2a44d4760078803753",
    (3, 3, (2,)):
        "914b54341d7dcc08e522125f6b08c07ac22725fe75c6990ce34002433af7ae23",
}


@pytest.mark.parametrize("key", sorted(ENDO_DIGESTS))
def test_endo_algebra_frozen_digest(key):
    n, d, index_set = key
    res = cluster_endo_algebra(ctgent_family(n, d, list(index_set)))
    assert _endo_digest(res) == ENDO_DIGESTS[key]


def _ext_oracle_rigid(c):
    """Rigidity computed per query on the representations: Ext^d vanishes
    on every ordered pair of the collection's modules."""
    mods = c.modules()
    return all(reps.ext_dim(mi, mj, c.d) == 0 for mi in mods for mj in mods)


@pytest.mark.parametrize("n, d", [(3, 2), (4, 2), (5, 2), (3, 3)])
def test_rigidity_agrees_with_ext_oracle(n, d):
    fam = canonical_cluster_tilting(build_typeA_auslander(n, d))
    rng = random.Random(f"rigid-oracle-{n}-{d}")
    verdicts = set()
    for _ in range(30):
        k = rng.randint(1, min(6, len(fam.labels)))
        chosen = rng.sample(fam.labels, k)
        c = SummandCollection(fam, [t.entries for t in chosen])
        verdict = is_d_rigid(c)
        assert verdict == _ext_oracle_rigid(c), [t.entries for t in chosen]
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_rigidity_reads_the_family_table(fam24, monkeypatch):
    def no_ext(*args):
        raise AssertionError("is_d_rigid computed an Ext group")

    monkeypatch.setattr(reps, "ext_dim", no_ext)
    assert not is_d_rigid(SummandCollection(fam24, [(1, 3, 5), (2, 4, 6)]))
    assert is_d_rigid(SummandCollection(fam24, [(1, 3, 5), (1, 3, 6)]))
    # the label verdict is still cross-checked against the table
    blank = dataclasses.replace(fam24, ext_edges=set())
    with pytest.raises(InternalError):
        is_d_rigid(SummandCollection(blank, [(1, 3, 5), (2, 4, 6)]))


def _pairwise_rigid(c):
    """Rigidity by the label predicate on every ordered pair."""
    return not any(x != y and intertwines(y, x)
                   for x in c.labels for y in c.labels)


def test_rigidity_masks_match_pairwise_intertwining():
    pool = rigid_pool()
    rng = random.Random("rigidity-masks")
    for n, d in [(3, 2), (4, 2), (5, 2), (3, 3)]:
        fam = canonical_cluster_tilting(build_typeA_auslander(n, d))
        subsets = [[t] for t in fam.labels] + [fam.labels]
        subsets += [rng.sample(fam.labels, rng.randint(2, len(fam.labels)))
                    for _ in range(40)]
        if d == 2:
            rigid, other = pool[n]
            subsets += [[Tuple(t, n + 2 * d) for t in sub]
                        for sub in rigid + other]
        for sub in subsets:
            c = SummandCollection(fam, [t.entries for t in sub])
            assert c.labels == sorted(sub)
            assert [fam.labels[i] for i in c.positions] == c.labels
            assert is_d_rigid(c) == _pairwise_rigid(c), c.labels


def test_rigidity_query_reads_only_the_family_masks(fam24, monkeypatch):
    full = SummandCollection(fam24, fam24.labels)
    assert not is_d_rigid(full)
    c = SummandCollection(fam24, [(1, 3, 5), (1, 3, 6)])

    def per_query(*args):
        raise AssertionError("is_d_rigid compared labels per query")

    monkeypatch.setattr(typea, "intertwines", per_query)
    monkeypatch.setattr(typea, "_intertwining_masks", per_query)
    monkeypatch.setattr(LabelledModuleFamily, "index_of", per_query)
    assert is_d_rigid(c)
    assert not is_d_rigid(full)


def _endo_table(res):
    """Everything a cluster endomorphism algebra reports, with the raw
    mult table in its entry order."""
    raw = res.raw
    return (
        [(k, list(v.items())) for k, v in raw.mult.items()],
        raw.basis_labels,
        res.algebra.basis_labels,
        presentation_to_dict(res.algebra.presentation),
        (res.end_dim, res.ext_dim, res.ext_square_zero, res.summand_labels),
    )


def _chain_collections():
    """(c, its cover's labels) for each key of the ``ctgent`` pool."""
    for n, d, idx in CTGENT_POOL:
        c = ctgent_family(n, d, list(idx))
        fam = c.family
        yield c, [lab for i, lab in enumerate(fam.labels)
                  if lab.entries[0] == 1 or c.mask >> i & 1]


def test_pair_ext_decides_zero_as_ext_space_does():
    # _pair_ext builds no ExtSpace for a pair it decides zero; the oracle
    # builds one for every pair of End(c) and End(T + A)
    zero = kept = 0
    for c, cover in _chain_collections():
        fam, d = c.family, c.d
        for x in cover:
            for y in cover:
                full = reps.ExtSpace(fam.module_of(x),
                                     reps.higher_translate_inverse(
                                         fam.module_of(y), d), d)
                space = cluster._pair_ext(fam, x, y, d)
                if space is None:
                    zero += 1
                    assert full.dim == 0, (x.entries, y.entries)
                else:
                    kept += 1
                    assert space.dim == full.dim, (x.entries, y.entries)
    assert zero > 10 * kept > 0


def _hom_coords_by_compose(comps, mor):
    """The positions of the Hom components of mor and its scalar on each,
    read off its blocks: the rule the set read replaced."""
    blocks = mor.blocks
    left = {v for v, b in blocks.items() if b[0][0]}
    out = {}
    for k, comp in enumerate(comps):
        c = blocks[comp[0]][0][0]
        if c and all(blocks[v][0][0] == c for v in comp):
            out[k] = c
            left.difference_update(comp)
    if left:
        raise HgaError("composition escapes the Hom space")
    return out


def test_hom_products_read_as_component_intersections():
    # every product of two Hom basis maps of End(c) and End(T + A), read
    # off the intersection of their components, is what Morphism.compose
    # and a read of its blocks give
    products = 0
    for c, cover in _chain_collections():
        fam = c.family
        for x in cover:
            for y in cover:
                comps_xy, basis_xy = cluster._pair_homs(fam, x, y)
                for z in cover:
                    comps_yz, basis_yz = cluster._pair_homs(fam, y, z)
                    comps_xz = cluster._pair_homs(fam, x, z)[0]
                    for cq, q in zip(comps_xy, basis_xy):
                        for cp, p in zip(comps_yz, basis_yz):
                            products += 1
                            try:
                                want = _hom_coords_by_compose(
                                    comps_xz, p.compose(q))
                            except HgaError as exc:
                                want = exc
                            try:
                                got = dict.fromkeys(cluster._components_of(
                                    comps_xz, set(cp) & set(cq)), 1)
                            except HgaError as exc:
                                got = exc
                            if isinstance(want, HgaError):
                                assert str(got) == str(want)
                            else:
                                assert got == want
    assert products > 1000
    # a set that meets a component only in part is no union of them
    comps = [("1", "2"), ("3",)]
    assert cluster._components_of(comps, {"1", "2", "3"}) == [0, 1]
    assert cluster._components_of(comps, {"3"}) == [1]
    assert cluster._components_of(comps, set()) == []
    for part in ({"1"}, {"2", "3"}, {"4"}):
        with pytest.raises(HgaError, match="escapes the Hom space"):
            cluster._components_of(comps, part)


@pytest.mark.parametrize("key", [(4, 2, [2]), (3, 3, [3])])
def test_endo_algebras_independent_of_order(key):
    """End(c) and End(cover) share the family's pair data, and neither
    depends on which of them was taken first."""
    fresh_c = _endo_table(cluster_endo_algebra(ctgent_family(*key)))
    fresh_cover = _endo_table(ctgent_cover(ctgent_family(*key))[0])
    c = ctgent_family(*key)
    assert _endo_table(ctgent_cover(c)[0]) == fresh_cover
    assert _endo_table(cluster_endo_algebra(c)) == fresh_c
    c = ctgent_family(*key)
    assert _endo_table(cluster_endo_algebra(c)) == fresh_c
    assert _endo_table(ctgent_cover(c)[0]) == fresh_cover


def test_endo_algebras_share_pair_data(monkeypatch):
    """End(cover) after End(c) computes Hom spaces only for the pairs that
    are not pairs of c: the thin rule runs once per new label pair."""
    c = ctgent_family(4, 2, [2])
    calls = []
    thin_hom = cluster._thin_hom
    monkeypatch.setattr(cluster, "_thin_hom",
                        lambda m, n: calls.append(1) or thin_hom(m, n))
    cluster_endo_algebra(c)
    assert len(calls) == len(c) ** 2
    cover, _ = ctgent_cover(c)
    assert len(calls) == len(cover.summand_labels) ** 2


@pytest.mark.parametrize("n, d, idx", [(4, 2, [2]), (3, 3, [3])])
def test_roles_are_read_off_the_labels(n, d, idx, monkeypatch):
    """ctgent_family reads no family module's dimension vector and builds
    no simple: each role is read off its label.  It translates the
    family's own simples, so tau_d^- of each is the one the pair data
    reads."""
    fam = canonical_cluster_tilting(build_typeA_auslander(n, d))
    calls, built = [], []
    dim_vector, simple = reps.Representation.dim_vector, reps.simple
    monkeypatch.setattr(reps.Representation, "dim_vector",
                        lambda m: calls.append(m) or dim_vector(m))
    monkeypatch.setattr(reps, "simple",
                        lambda *args: built.append(args) or simple(*args))
    ctgent_family(n, d, idx, family=fam)
    assert not [m for m in calls if any(m is x for x in fam.modules)]
    assert built == []
    m = n + 2 * d
    for i in range(1, n + 1):
        v = tuple(range(i, i + 2 * d, 2))
        module = fam.module_of(corner(v + (i + 2 * d,), m))
        assert list(module.dims.values()) == [1]
        assert peek(module, ("tau_d_inv", d)) is not None


@pytest.mark.parametrize("n, d", ROLE_PARAMS)
def test_roles_match_the_dimension_vector_search(n, d):
    """The projectives, the chain order and the simples read off the
    labels are those that the search over dimension vectors finds."""
    fam = canonical_cluster_tilting(build_typeA_auslander(n, d))
    proj, simples = cluster._family_roles(fam)
    ref_proj, ref_chain, ref_simple = reference_roles.roles(fam)
    assert proj == ref_proj
    assert [v for v, _ in simples] == ref_chain
    assert dict(simples) == ref_simple
    assert all(lab.entries[0] == 1 for lab in proj.values())
    assert len(proj) == sum(lab.entries[0] == 1 for lab in fam.labels)


@pytest.mark.parametrize("key", CTGENT_POOL, ids=str)
def test_cover_is_the_searched_cover(key):
    """ctgent_cover's T + A, the collection with every family label whose
    first entry is 1, has the summands of the cover built from the
    searched projectives and simples."""
    n, d, idx = key
    c = ctgent_family(n, d, list(idx))
    proj, chain, simple = reference_roles.roles(c.family)
    old = SummandCollection(c.family, list(proj.values()) + [
        simple[chain[i - 2]] for i in idx])
    assert ctgent_cover(c)[0].summand_labels == \
        [lab.label() for lab in old.labels]


@pytest.mark.parametrize("i, j, role", [(0, -1, "simple"),
                                        (1, 2, "projective")])
def test_swapped_family_modules_fail_the_label_roles(i, j, role):
    """A family whose modules do not sit at their labels fails the role
    checks.  On A^2_4 the labels 468 and 135 name the chain simples at
    positions 1 and 4, and 136 and 137 name P_36 and P_26: swapping 135
    with 468 fails a simple's check, swapping 136 with 137 a
    projective's."""
    fam = canonical_cluster_tilting(build_typeA_auslander(4, 2))
    mods = list(fam.modules)
    mods[i], mods[j] = mods[j], mods[i]
    with pytest.raises(LabelMatchFailed, match=f"not the {role}"):
        ctgent_family(4, 2, [2], family=dataclasses.replace(fam, modules=mods))


@pytest.mark.parametrize("n, d", [(2, 1), (5, 1), (3, 2), (5, 2), (3, 3),
                                  (4, 3), (3, 4)])
def test_thin_rule_matches_hom_basis(n, d):
    """The thin rule is the Hom system solved in closed form: on every
    ordered pair of the family it gives `reps.hom_basis`'s morphisms, block
    for block and in the same order; on the diagonal the one component is
    the identity's and the radical basis is empty."""
    fam = canonical_cluster_tilting(build_typeA_auslander(n, d))
    for x, mx in zip(fam.labels, fam.modules):
        for y, my in zip(fam.labels, fam.modules):
            comps, basis = cluster._pair_homs(fam, x, y)
            thin = [reps.Morphism(mx, my, {v: [[1]] for v in c})
                    for c in comps]
            assert [f.blocks for f in thin] == \
                [f.blocks for f in reps.hom_basis(mx, my)], (x, y)
            if x == y:
                assert (comps, basis) == ([mx.support], [])
            else:
                assert [f.blocks for f in basis] == [f.blocks for f in thin]


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3)])
def test_ext_dim_zero_path_matches_ext_space(n, d, monkeypatch):
    """`reps.ext_dim` answers 0 without an ExtSpace exactly where Hom out
    of the resolution's top term vanishes, and agrees with ExtSpace's
    dimension on every ordered pair of the family in degrees 1..d."""
    fam = canonical_cluster_tilting(build_typeA_auslander(n, d))
    pairs = [(m, x, i) for m in fam.modules for x in fam.modules
             for i in range(1, d + 1)]
    want = [reps.ExtSpace(m, x, i).dim for m, x, i in pairs]
    built = []
    ext_space = reps.ExtSpace
    monkeypatch.setattr(reps, "ExtSpace",
                        lambda *args: built.append(args) or ext_space(*args))
    assert [reps.ext_dim(m, x, i) for m, x, i in pairs] == want
    zero = [p for p in pairs if reps._top_hom_vanishes(*p)]
    assert 0 < len(zero) < len(pairs)
    assert len(built) == len(pairs) - len(zero)
    assert not any(p in zero for p in built)


def test_tampered_family_module_fails_the_thin_rule(fam24):
    """A family module with a map scaled to 2 inside its box is not thin:
    every Hom pair that reads that map raises InternalError, never a
    wrong basis."""
    i = 7
    m = fam24.modules[i]
    ar = next(ar for ar in fam24.algebra.quiver.arrows
              if ar.source in m.support and ar.target in m.support)
    bad = reps.Representation(fam24.algebra, m.dims,
                              dict(m.maps, **{ar.name: [[2]]}), check=False)
    fam = dataclasses.replace(
        fam24, modules=fam24.modules[:i] + [bad] + fam24.modules[i + 1:])
    x = fam.labels[i]
    with pytest.raises(InternalError, match=ar.name):
        cluster._pair_homs(fam, x, x)
    reads = 0
    for y, my in zip(fam.labels, fam.modules):
        if y != x and {ar.source, ar.target} <= set(my.support):
            reads += 1
            for pair in ((x, y), (y, x)):
                with pytest.raises(InternalError, match=ar.name):
                    cluster._pair_homs(fam, *pair)
    assert reads
