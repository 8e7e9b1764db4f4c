"""Test oracle for the basis index of ``hga.algebras.Algebra``: each reader
of the index, computed by scanning every basis element for its endpoints.
"""

from hga.linalg import F1, SparseRREF


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


def quotient_kept_ids(a, f):
    """Basis ids that are not pivots of the span of the ideal generated by
    the idempotent f: the products through each cut vertex, in (into,
    out of) scan order, then its idempotent."""
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
    return [b for b in range(a.dim) if b not in span.rows]
