from itertools import combinations
from math import comb

import pytest

from hga import reps, typea
from hga.errors import ArityMismatch, LabelMatchFailed, ScaleExceeded
from hga.typea import (
    Tuple,
    TupleCollection,
    build_typeA_auslander,
    canonical_cluster_tilting,
    intertwines,
    maximal_nonintertwining,
    tuple_set,
)
from reference_decompose import decompose_indecomposables


def is_nonintertwining(c):
    """No two tuples of the collection c intertwine, either way."""
    return not any(intertwines(x, y) or intertwines(y, x)
                   for x, y in combinations(c.tuples, 2))


def collection_from_dict(data):
    d, m, cyclic = data["d"], data["m"], data["cyclic"]
    tuples = [Tuple(tuple(e), m, cyclic) for e in data["tuples"]]
    return TupleCollection(tuples, d, m, cyclic)


A24_EDGES = {
    ("13", "14"), ("24", "25"), ("35", "36"), ("15", "25"), ("26", "36"),
    ("15", "16"), ("14", "24"), ("25", "35"), ("36", "46"), ("14", "15"),
    ("25", "26"), ("16", "26"),
}

A34_EDGES = {
    ("135", "136"), ("146", "147"), ("157", "158"), ("137", "147"),
    ("148", "158"), ("137", "138"), ("136", "146"), ("147", "157"),
    ("158", "168"), ("136", "137"), ("147", "148"), ("138", "148"),
    ("246", "247"), ("257", "258"), ("248", "258"), ("247", "257"),
    ("258", "268"), ("247", "248"), ("357", "358"), ("358", "368"),
    ("146", "246"), ("157", "257"), ("168", "268"), ("147", "247"),
    ("158", "258"), ("148", "248"), ("257", "357"), ("268", "368"),
    ("258", "358"), ("368", "468"),
}

SEC5_COLLECTION = [
    (1, 3, 5), (3, 5, 7), (1, 5, 7), (5, 7, 9), (1, 7, 9),
    (1, 3, 6), (1, 4, 7), (1, 5, 8), (1, 6, 9), (1, 3, 7),
    (1, 4, 8), (1, 5, 9), (1, 3, 8), (1, 4, 9), (1, 3, 9),
]


def test_tuple_set_singletons():
    ts = tuple_set(0, 5)
    assert [t.entries for t in ts] == [(1,), (2,), (3,), (4,), (5,)]


def test_tuple_set_counts():
    for d, m in [(1, 6), (2, 8), (1, 7), (2, 9), (3, 10)]:
        assert len(tuple_set(d, m)) == comb(m - d, d + 1)


def test_tuple_set_cyclic_count():
    ts = tuple_set(2, 10, cyclic=True)
    assert len(ts) == 50
    # brute-force gap oracle
    count = 0
    for a in range(1, 11):
        for b in range(a + 2, 11):
            for c in range(b + 2, 11):
                if c + 2 <= a + 10:
                    count += 1
    assert count == 50


def test_tuple_validation():
    with pytest.raises(ValueError):
        Tuple((1, 2, 4), 6)
    with pytest.raises(ValueError):
        Tuple((1, 3, 6), 6, cyclic=True)
    Tuple((1, 3, 6), 6)


def test_intertwines():
    x = Tuple((1, 3, 5), 6)
    y = Tuple((2, 4, 6), 6)
    assert intertwines(x, y)
    assert not intertwines(y, x)
    a = Tuple((1, 4, 7), 8)
    b = Tuple((2, 5, 7), 8)
    assert not intertwines(a, b)
    with pytest.raises(ArityMismatch):
        intertwines(Tuple((1, 3), 6), x)


def test_maximal_nonintertwining_hexagon():
    cols = maximal_nonintertwining(1, 6)
    assert len(cols) == 14
    assert all(len(c) == 4 for c in cols)
    long_edge = (1, 6)
    for c in cols:
        assert is_nonintertwining(c)
        assert long_edge in [t.entries for t in c.tuples]
    # non-extendability second pass
    universe = tuple_set(1, 6)
    for c in cols:
        members = {t.entries for t in c.tuples}
        for cand in universe:
            if cand.entries in members:
                continue
            extended = TupleCollection(
                c.tuples + [cand], 1, 6, False)
            assert not is_nonintertwining(extended)


def test_maximal_nonintertwining_scale_cap():
    with pytest.raises(ScaleExceeded):
        maximal_nonintertwining(2, 30)


def test_collection_io_round_trip():
    cols = maximal_nonintertwining(1, 6)
    data = cols[0].to_dict()
    back = collection_from_dict(data)
    assert back.to_dict() == data


def test_build_a14_is_linear():
    alg = build_typeA_auslander(4, 1)
    assert len(alg.vertices) == 4
    p = alg.presentation
    assert len(p.quiver.arrows) == 3
    assert p.relations == []


def test_build_a24_matches_figure():
    alg = build_typeA_auslander(4, 2)
    p = alg.presentation
    assert len(alg.vertices) == 10
    edges = {(a.source, a.target) for a in p.quiver.arrows}
    assert edges == A24_EDGES


def test_build_a34_matches_figure():
    alg = build_typeA_auslander(4, 3)
    p = alg.presentation
    assert len(alg.vertices) == 20
    edges = {(a.source, a.target) for a in p.quiver.arrows}
    assert edges == A34_EDGES


def test_auslander_inequality_a23():
    # the d-th algebra in the iterated construction satisfies the
    # Auslander-type inequality at parameter d-1
    alg = build_typeA_auslander(3, 2)
    rec = reps.homological_dims(alg)
    assert rec["globalDim"] <= 2 <= rec["dominantDim"]


def test_canonical_cluster_tilting_a12():
    alg = build_typeA_auslander(2, 1)
    fam = canonical_cluster_tilting(alg)
    assert len(fam.modules) == 3
    assert sorted(t.entries for t in fam.labels) == [(1, 3), (1, 4), (2, 4)]
    m24 = fam.module_of((2, 4))
    m13 = fam.module_of((1, 3))
    assert reps.ext_dim(m24, m13, 1) == 1
    assert len(fam.ext_edges) == 1


def test_canonical_cluster_tilting_a23():
    alg = build_typeA_auslander(3, 2)
    fam = canonical_cluster_tilting(alg)
    assert len(fam.modules) == 10
    pool = tuple_set(2, 7)
    expected_edges = sum(
        1 for x in pool for y in pool if intertwines(y, x)
    )
    assert len(fam.ext_edges) == expected_edges
    # labelled Ext criterion: Ext^2(M_I, M_J) != 0 iff J intertwines I
    for i, x in enumerate(fam.labels):
        for j, y in enumerate(fam.labels):
            if i == j:
                continue
            assert ((i, j) in fam.ext_edges) == intertwines(y, x)


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (3, 3)])
def test_ext_table_has_no_diagonal_pair(n, d):
    fam = canonical_cluster_tilting(build_typeA_auslander(n, d))
    assert fam.ext_edges
    assert all(i != j for i, j in fam.ext_edges)


def test_family_checks_the_diagonal(self_ext):
    """A module with Ext^d(M, M) != 0 breaks the criterion, since no tuple
    intertwines itself."""
    with pytest.raises(LabelMatchFailed):
        canonical_cluster_tilting(build_typeA_auslander(3, 2))


FAMILY_KEYS = [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (3, 4)] + [
    (n, 1) for n in range(1, 6)]


@pytest.mark.parametrize("n, d", FAMILY_KEYS)
def test_row_check_equals_the_per_pair_ext_table(n, d):
    # the per-pair loop the row check replaced, kept as the oracle: one
    # reps.ext_dim per ordered pair, and one intertwines per pair
    fam = canonical_cluster_tilting(build_typeA_auslander(n, d))
    mods, labels = fam.modules, fam.labels
    assert fam.ext_edges == {
        (i, k) for i, mx in enumerate(mods) for k, my in enumerate(mods)
        if reps.ext_dim(mx, my, d)}
    assert fam.intertwining_masks() == [
        sum(1 << k for k, y in enumerate(labels) if intertwines(y, x))
        for x in labels]


def _box_path(a):
    """(u, v, w) for a nonzero basis path u -> v -> w of length two."""
    name = a.quiver.arrow_by_name
    for path in a.basis_labels[len(a.vertices):]:
        if len(path) == 2:
            return (name[path[0]].source, name[path[0]].target,
                    name[path[1]].target)


def test_a_tampered_family_module_fails_the_box_check():
    # the row check reads Ext off the boxes only once each module is
    # proved a thin box: a module that is not one raises, with no table
    a = build_typeA_auslander(3, 2)
    fam = canonical_cluster_tilting(a)
    masks, k = fam.intertwining_masks(), 4
    mod = fam.modules[k]
    name = next(iter(mod.maps))
    u, v, w = _box_path(a)
    tampers = [
        # a map other than [[1]] inside the box
        reps.Representation(a, mod.dims, dict(mod.maps, **{name: [[2]]}),
                            check=False),
        # a support that is not its own hull: it misses v
        reps.Representation(a, {u: 1, w: 1}, {}, check=False),
    ]
    assert a.hull([u, w]) != [u, w] and v in a.hull([u, w])
    for bad in tampers:
        mods = fam.modules[:k] + [bad] + fam.modules[k + 1:]
        with pytest.raises(LabelMatchFailed, match="not a thin box"):
            typea._ext_table(fam.labels, mods, masks, 2)
    assert typea._ext_table(fam.labels, fam.modules, masks, 2) == \
        fam.ext_edges


def test_module_of_reads_the_label_index():
    fam = canonical_cluster_tilting(build_typeA_auslander(3, 2))
    for i, t in enumerate(fam.labels):
        assert fam.index_of(t) == fam.index_of(t.entries) == i
        assert fam.module_of(list(t.entries)) is fam.modules[i]
    with pytest.raises(KeyError):
        fam.module_of((1, 2, 3))


def test_sec5_collection_among_maximal_cyclic():
    cols = maximal_nonintertwining(2, 10, cyclic=True)
    assert all(len(c) == 15 for c in cols)
    target = sorted(SEC5_COLLECTION)
    assert any([t.entries for t in c.tuples] == target for c in cols)


# ---------------------------------------------------------------------------
# oracle: the tau_d orbit construction with labels pinned by Hom dimensions
# ---------------------------------------------------------------------------


def _least_matrix_match(mat_a, mat_b):
    """Lexicographically least bijection f with mat_b[i][j] ==
    mat_a[f(i)][f(j)] for all i, j, as a list; None if there is none."""
    n = len(mat_a)

    def profile(mat, i):
        return (mat[i][i], sorted(mat[i]), sorted(mat[j][i] for j in range(n)))

    prof_a = [profile(mat_a, i) for i in range(n)]
    prof_b = [profile(mat_b, i) for i in range(n)]
    mapping = []

    def assign(b):
        if b == n:
            return True
        for a in range(n):
            if a in mapping or prof_b[b] != prof_a[a]:
                continue
            if any(mat_b[b][b2] != mat_a[a][a2] or mat_b[b2][b] != mat_a[a2][a]
                   for b2, a2 in enumerate(mapping)):
                continue
            mapping.append(a)
            if assign(b + 1):
                return True
            mapping.pop()
        return False

    return mapping if assign(0) else None


def _orbit_family(a):
    """Label -> module of the canonical family, computed the old way: close
    the injectives under tau_d, then pin each label by matching the Hom
    dimensions against the path counts of A^{d+1}_n."""
    n, d = a.typeA["n"], a.typeA["d"]
    modules = []

    def add(mod):
        if mod.is_zero() or any(
                o.dim_vector() == mod.dim_vector() and reps.is_isomorphic(o, mod)
                for o in modules):
            return False
        modules.append(mod)
        return True

    frontier = [m for m in (reps.injective(a, v) for v in a.vertices) if add(m)]
    while frontier:
        nxt = []
        for mod in frontier:
            t = reps.higher_translate(mod, d)
            if not t.is_zero():
                nxt += [p for p, _ in decompose_indecomposables(t) if add(p)]
        frontier = nxt
    pool = tuple_set(d, n + 2 * d)
    assert len(modules) == len(pool)
    a_next = build_typeA_auslander(n, d + 1)
    vpos = {v: i for i, v in enumerate(a_next.vertices)}
    paths = [[0] * len(pool) for _ in pool]
    for b in range(len(a_next.basis_src)):
        paths[vpos[a_next.basis_src[b]]][vpos[a_next.basis_tgt[b]]] += 1
    order = [vpos[t.label()] for t in pool]
    path_mat = [[paths[i][j] for j in order] for i in order]
    hom_mat = [[reps.hom_dim(x, y) for y in modules] for x in modules]
    mapping = _least_matrix_match(hom_mat, path_mat)
    assert mapping is not None, "Hom dimensions do not match the path counts"
    return {t.entries: modules[mapping[k]] for k, t in enumerate(pool)}


def _thin_shape(mod):
    """Dimensions and maps, both stored on the support alone."""
    return mod.dims, mod.maps


@pytest.mark.parametrize("n, d", [(n, d) for d in range(1, 5)
                                  for n in range(1, 11 - 2 * d)])
def test_closed_form_family_matches_orbit_oracle(n, d):
    a = build_typeA_auslander(n, d)
    fam = canonical_cluster_tilting(a)
    assert [t.entries for t in fam.labels] == \
        [t.entries for t in tuple_set(d, n + 2 * d)]
    oracle = _orbit_family(a)
    for t, mod in zip(fam.labels, fam.modules):
        assert _thin_shape(mod) == _thin_shape(oracle[t.entries]), t.entries
