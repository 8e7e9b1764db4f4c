"""The full-kernel relation search, kept as a test oracle for
``algebras.minimal_presentation``.

At each length L it row-reduces the values of every path of lengths 2..L,
one (source, target) block at a time, and reduces each kernel vector of
that matrix against the ideal generated so far.  The nilpotency index of the
radical comes from ``Algebra.rad_nilpotency``, which multiplies out its
powers, and the ideal is generated by filtering all prefixes and suffixes.
The arrows are chosen by the same ``_arrow_layer``.
"""

from hga import algebras, linalg
from hga.algebras import _arrow_layer, _PathTable
from hga.errors import InvalidPresentation
from hga.linalg import F0, F1, SparseRREF, div
from hga.presentations import (
    Arrow,
    BoundQuiverPresentation,
    Quiver,
    RelationElement,
    presentation_to_dict,
)


def _extend_generated(ideal, generators, length, table):
    arrow = table.arrow
    table.paths(length)
    for g_terms, g_lmax, g_src, g_tgt in generators:
        room = length - g_lmax
        for pre_len in range(room + 1):
            suf_len = room - pre_len
            for u in table.paths(pre_len):
                if u and arrow[u[-1]].target != g_src:
                    continue
                for w in table.paths(suf_len):
                    if w and arrow[w[0]].source != g_tgt:
                        continue
                    vec = {}
                    for coef, term in g_terms:
                        idx = table.index[u + term + w]
                        vec[idx] = vec.get(idx, F0) + coef
                    vec = {k: c for k, c in vec.items() if c}
                    if vec:
                        ideal.add(vec)


def reference_minimal_presentation(a):
    """(presentation, arrow ids) as ``minimal_presentation(a)`` gives them."""
    name_count = {}
    arrows = []
    arrow_ids = {}
    for src, tgt, b in _arrow_layer(a):
        base = f"{src}_{tgt}"
        k = name_count.get(base, 0)
        name_count[base] = k + 1
        name = base if k == 0 else f"{base}_{k}"
        arrows.append(Arrow(name, src, tgt))
        arrow_ids[name] = b
    quiver = Quiver(list(a.vertices), arrows)
    arrow_by_name = quiver.arrow_by_name

    lmax_search = a.rad_nilpotency() + 1
    table = _PathTable(quiver)
    values = {p: {arrow_ids[p[0]]: F1} for p in table.paths(1)}
    kgen = SparseRREF()
    generators = []
    relations = []
    length = 1
    while True:
        length += 1
        if length > lmax_search + a.dim:
            raise InvalidPresentation("relation search failed to stabilize")
        for p in table.paths(length):
            values[p] = a.mult_elements({arrow_ids[p[-1]]: F1},
                                        values[p[:-1]])
        _extend_generated(kgen, generators, length, table)
        blocks = {}
        for ln in range(2, length + 1):
            for p in table.paths(ln):
                key = (arrow_by_name[p[0]].source, arrow_by_name[p[-1]].target)
                blocks.setdefault(key, []).append(p)
        new_here = False
        for key in sorted(blocks, key=lambda st: (str(st[0]), str(st[1]))):
            cols = blocks[key]
            coord_ids = sorted(
                i for i in range(a.dim)
                if a.basis_src[i] == key[0] and a.basis_tgt[i] == key[1]
            )
            pos = {b: r for r, b in enumerate(coord_ids)}
            matrix = [[F0] * len(cols) for _ in coord_ids]
            for c, p in enumerate(cols):
                for b, coef in values[p].items():
                    matrix[pos[b]][c] = coef
            for kv in linalg.nullspace(matrix, ncols=len(cols)):
                vec = {table.index[cols[c]]: coef
                       for c, coef in enumerate(kv) if coef}
                rem = kgen.reduce(vec)
                if not rem:
                    continue
                piv = max(rem)
                inv = div(F1, rem[piv])
                rem = {j: c * inv for j, c in rem.items()}
                terms = sorted(
                    ((c, table.by_index[j]) for j, c in rem.items()),
                    key=lambda t: (len(t[1]), t[1]),
                )
                g_lmax = max(len(p) for _, p in terms)
                generators.append((terms, g_lmax, key[0], key[1]))
                relations.append(RelationElement(list(terms)))
                kgen.add(dict(rem))
                new_here = True
        if length >= lmax_search and not new_here:
            break
    return BoundQuiverPresentation(quiver, relations), arrow_ids


def presented_during(run):
    """Call run() and return, for each algebra it handed to
    ``minimal_presentation``, the pair (algebra, result)."""
    seen = []
    search = algebras.minimal_presentation

    def recording(a, validate=True):
        out = search(a, validate)
        seen.append((a, out))
        return out

    algebras.minimal_presentation = recording
    try:
        run()
    finally:
        algebras.minimal_presentation = search
    return seen


def matches_reference(a, result):
    """Whether a (presentation, arrow ids) result of ``minimal_presentation``
    on a is what the full-kernel search gives, arrow order included."""
    pres, arrow_ids = result
    ref_pres, ref_ids = reference_minimal_presentation(a)
    return (presentation_to_dict(pres) == presentation_to_dict(ref_pres)
            and list(arrow_ids.items()) == list(ref_ids.items()))
