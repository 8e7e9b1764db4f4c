"""Test oracles for the basis index of ``hga.algebras.Algebra``, for the
corners read in their ambient algebra and for the quotients A/<f>.

Each reader of the basis index is computed here by scanning every basis
element for its endpoints.  A corner eAe is taken here as a
structure-constant algebra of its own (``raw_corner``), whose arrows lift
rad/rad^2 by a row reduction of all its products of two radical elements
(``raw_arrows``), and whose path values are evaluated in it
(``raw_path_value``), with none of the program's corner code.  A quotient
A/<f> is taken here as a structure-constant algebra on the basis ids
outside the span of the ideal, re-presented (``reference_quotient``).
The cube walk is kept here as it was before it placed the root's edges in
increasing position, trying every ordering of a cube's directions
(``cube_walk_every_order``).
"""

from hga.algebras import (
    Algebra,
    CornerQuiver,
    _present,
    idempotent_subalgebra,
    quotient_by_idempotent,
)
from hga.axioms import _TwoPaths
from hga.linalg import F1, add_scaled
from hga.presentations import (
    Arrow,
    Quiver,
    RelationElement,
    presentation_to_dict,
)
from reference_linalg import SparseRREF


def corner_ids(a, e):
    """Basis ids of a between e-vertices, in increasing order."""
    keep = e.vertex_subset
    return [i for i in range(a.dim)
            if a.basis_src[i] in keep and a.basis_tgt[i] in keep]


def hull_vertices(cover, e):
    """Vertices reached from an e-vertex and reaching an e-vertex by a
    nonzero path (basis element)."""
    keep = e.vertex_subset
    out = {cover.basis_tgt[i] for i in range(cover.dim)
           if cover.basis_src[i] in keep}
    inn = {cover.basis_src[i] for i in range(cover.dim)
           if cover.basis_tgt[i] in keep}
    return out & inn


def projective_basis_ids(alg, v):
    """Per vertex w, in vertex order, the ids of the basis elements v -> w."""
    found = {}
    for i in range(alg.dim):
        if alg.basis_src[i] == v:
            found.setdefault(alg.basis_tgt[i], []).append(i)
    return {w: found[w] for w in sorted(found, key=alg.e_index.__getitem__)}


def ideal_span(a, f):
    """The span of the ideal generated by the idempotent f, as a
    ``SparseRREF``: the products through each cut vertex, in (into, out of)
    scan order, then its idempotent."""
    span = SparseRREF()
    for v in f.vertex_subset:
        into = [j for j in range(a.dim) if a.basis_tgt[j] == v]
        outof = [i for i in range(a.dim) if a.basis_src[i] == v]
        for j in into:
            for i in outof:
                prod = a.mult.get((i, j))
                if prod:
                    span.add(dict(prod))
        span.add({a.e_index[v]: F1})
    return span


def reference_quotient(a, f):
    """(presented, ambient ids): A/<f> as a structure-constant algebra on
    the basis ids of a that are not pivots of ``ideal_span``, each product
    reduced modulo the span, re-presented on its own quiver; and for each
    of its arrows the basis id of a that the arrow is."""
    span = ideal_span(a, f)
    kept = [b for b in range(a.dim) if b not in span.rows]
    position = {b: k for k, b in enumerate(kept)}
    mult = {}
    for k, i in enumerate(kept):
        for l, j in enumerate(kept):
            prod = a.mult.get((i, j))
            rem = span.reduce(dict(prod)) if prod else None
            if rem:
                mult[(k, l)] = {position[b]: c for b, c in rem.items()}
    raw = Algebra([v for v in a.vertices if v not in f.vertex_subset],
                  [a.basis_labels[i] for i in kept],
                  [a.basis_src[i] for i in kept],
                  [a.basis_tgt[i] for i in kept], mult)
    presented, arrow_ids = _present(raw)
    return presented, {name: kept[b] for name, b in arrow_ids.items()}


def assert_quotient_matches_reference(a, f):
    """``quotient_by_idempotent(a, f)`` is the reference quotient up to
    isomorphism: the same vertices, dimension and arrows as ambient ids,
    and every reference relation, its arrows renamed through their ambient
    ids, is 0 in it.  The reference quotient then maps onto it, arrow to
    arrow, and with equal dimensions that map is an isomorphism.  Returns
    the quotient."""
    quot = quotient_by_idempotent(a, f)
    ref, ambient_ids = reference_quotient(a, f)
    assert quot.vertices == ref.vertices
    assert quot.dim == ref.dim
    assert sorted(quot.arrow_ambient.values()) == \
        sorted(ambient_ids.values())
    name_of = {b: name for name, b in quot.arrow_ambient.items()}
    for r in ref.presentation.relations:
        renamed = RelationElement([
            (c, tuple(name_of[ambient_ids[x]] for x in p))
            for c, p in r.terms])
        renamed.validate(quot.quiver)
        assert relation_value(quot, renamed) == {}
    return quot


def relation_value(a, relation):
    """The value in a of a relation, the sum of its terms' path values."""
    total = {}
    for coef, path in relation.terms:
        add_scaled(total, coef, a.path_value(path))
    return total


def raw_corner(a, e):
    """(raw, ids): the corner eAe as an algebra of its own on the basis ids
    of a between e-vertices (ids, from ``corner_ids``), with the products
    of a renumbered."""
    ids = corner_ids(a, e)
    position = {b: k for k, b in enumerate(ids)}
    mult = {}
    for k, i in enumerate(ids):
        for l, j in enumerate(ids):
            prod = a.mult.get((i, j))
            if prod:
                mult[(k, l)] = {position[t]: c for t, c in prod.items()}
    raw = Algebra([v for v in a.vertices if v in e.vertex_subset],
                  [a.basis_labels[i] for i in ids],
                  [a.basis_src[i] for i in ids],
                  [a.basis_tgt[i] for i in ids], mult)
    return raw, ids


def raw_arrows(raw):
    """(quiver, arrow ids) of raw: per block (source, target), in
    (str(source), str(target)) order, the radical basis ids in increasing
    order that are not in the span of the block's products of two radical
    elements and of the ids taken before them, named source_target with a
    suffix _k on the k-th further arrow of the same name."""
    nv = len(raw.vertices)
    blocks, products = {}, {}
    for b in range(nv, raw.dim):
        blocks.setdefault((raw.basis_src[b], raw.basis_tgt[b]), []).append(b)
    for (i, j), prod in raw.mult.items():
        if i >= nv and j >= nv and prod:
            products.setdefault((raw.basis_src[j], raw.basis_tgt[i]),
                                []).append(prod)
    count, arrows, arrow_ids = {}, [], {}
    for key in sorted(blocks, key=lambda st: (str(st[0]), str(st[1]))):
        span = SparseRREF()
        for prod in products.get(key, []):
            span.add(dict(prod))
        for b in blocks[key]:
            if span.add({b: F1}) is None:
                continue
            base = f"{key[0]}_{key[1]}"
            k = count.get(base, 0)
            count[base] = k + 1
            name = base if k == 0 else f"{base}_{k}"
            arrows.append(Arrow(name, *key))
            arrow_ids[name] = b
    return Quiver(list(raw.vertices), arrows), arrow_ids


def raw_path_value(raw, arrow_ids, path):
    """Value in raw of an arrow-name path (application order), arrow by
    arrow from the first."""
    value = {arrow_ids[path[0]]: F1}
    for name in path[1:]:
        out = {}
        for j, c in value.items():
            for k, d in raw.mult.get((arrow_ids[name], j), {}).items():
                out[k] = out.get(k, 0) + c * d
        value = {k: c for k, c in out.items() if c}
    return value


class RawCorner:
    """A corner taken the reference way, with the ``quiver`` and
    ``path_value`` that the 2-path table ``axioms._TwoPaths`` reads: raw
    and ids from ``raw_corner``, and its arrows from ``raw_arrows``, with
    ``ambient_ids`` each arrow's basis id in the ambient."""

    def __init__(self, a, e):
        self.raw, self.ids = raw_corner(a, e)
        self.quiver, self.arrow_ids = raw_arrows(self.raw)
        self.ambient_ids = {name: self.ids[b]
                            for name, b in self.arrow_ids.items()}

    def path_value(self, path):
        return raw_path_value(self.raw, self.arrow_ids, path)


def assert_corner_matches_raw_route(a, e):
    """The corner eAe read in a (``CornerQuiver``, ``idempotent_subalgebra``)
    is the reference raw corner: the same quiver, the same arrows as ambient
    ids, in order, the same dimension and 2-path table, and, re-presented,
    the presentation and ``mult`` of the raw corner re-presented, and as
    ``arrow_ambient`` the arrows it re-presents on, taken to ambient ids.
    Returns (CornerQuiver, RawCorner)."""
    cq, ref = CornerQuiver(a, e), RawCorner(a, e)
    assert cq.quiver == ref.quiver
    assert list(cq.arrow_ids.items()) == list(ref.ambient_ids.items())
    assert cq.dim == ref.raw.dim
    assert _TwoPaths(cq).blocks == _TwoPaths(ref).blocks
    corner = idempotent_subalgebra(a, e)
    expected, raw_ids = _present(ref.raw)
    assert presentation_to_dict(corner.presentation) == \
        presentation_to_dict(expected.presentation)
    assert corner.arrow_ambient == ref.ambient_ids == {
        name: ref.ids[b] for name, b in raw_ids.items()}
    assert corner.mult == expected.mult
    return cq, ref


def cube_walk_every_order(pending, vertices, used, arrows, state, out,
                          target, face_ok, step):
    """``axioms._cube_walk`` with no order on the root's edges, so it walks
    each cube once per ordering of its m directions; patched in for it, the
    cube scan is the one that tries them all."""
    if not pending:
        yield dict(vertices), dict(arrows), state
        return
    (s, d), rest = pending[0], pending[1:]
    target_set = s | {d}
    prev = vertices.get(target_set)
    for label in out.get(vertices[s], ()):
        v = target(label)
        if (v in used) if prev is None else (v != prev):
            continue
        nxt = step(state, label)
        if nxt is None:
            continue
        arrows[(s, d)] = label
        ok = all(
            arrows.get((s - {j} | {d}, j)) is None
            or face_ok(arrows[(s - {j}, j)], label, arrows[(s - {j}, d)],
                       arrows[(s - {j} | {d}, j)])
            for j in s)
        if ok:
            if prev is None:
                vertices[target_set] = v
                used.add(v)
            yield from cube_walk_every_order(rest, vertices, used, arrows,
                                             nxt, out, target, face_ok, step)
            if prev is None:
                del vertices[target_set]
                used.discard(v)
        del arrows[(s, d)]
