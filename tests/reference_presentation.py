"""Test oracles for ``algebras.build_algebra`` and
``algebras.minimal_presentation``, and checks against them.

``reference_build_algebra`` is the degreewise build: at each length L it
row-reduces the span of every u·g·w whose longest term has length L, over
all paths of length L, and reads the basis off the paths that are not
pivots.

``reference_minimal_presentation`` is the full-kernel relation search.  At
each length L it row-reduces the values of every path of lengths 2..L, one
(source, target) block at a time, and reduces each kernel vector of that
matrix against the ideal generated so far.  The nilpotency index of the
radical comes from ``Algebra.rad_nilpotency``, which multiplies out its
powers.  The arrows are those of ``reference_scans.raw_arrows``.

Both generate ideals by filtering all prefixes and suffixes.
"""

from hga import algebras, linalg
from hga.algebras import Algebra
from hga.errors import InvalidPresentation, NotAdmissible
from hga.linalg import F0, F1, add_scaled, div
from hga.presentations import (
    BoundQuiverPresentation,
    Idempotent,
    RelationElement,
    presentation_to_dict,
)
from reference_linalg import SparseRREF
from reference_scans import raw_arrows, raw_corner, relation_value


class _PathTable:
    """The paths of positive length of a quiver, indexed in (length, lex)
    order as they are first asked for, one length at a time."""

    def __init__(self, quiver):
        self.arrow = quiver.arrow_by_name
        self.names = sorted(self.arrow)
        self.out_names = {v: sorted(ar.name for ar in arrows)
                          for v, arrows in quiver.arrows_from.items()}
        self.index = {}      # path -> index
        self.by_index = []
        self.by_len = {0: [()]}
        self._add(1, [(name,) for name in self.names])

    def _add(self, length, paths):
        for k, p in enumerate(paths, len(self.by_index)):
            self.index[p] = k
        self.by_index.extend(paths)
        self.by_len[length] = paths

    def paths(self, length):
        """The paths of one length in lex order."""
        if length not in self.by_len:
            arrow, out_names = self.arrow, self.out_names
            self._add(length, [
                p + (name,) for p in self.paths(length - 1)
                for name in out_names[arrow[p[-1]].target]])
        return self.by_len[length]


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


def reference_build_algebra(presentation):
    """The algebra of a presentation, by degreewise exact row reduction over
    all paths.  Raises NotAdmissible if path classes keep appearing up to
    the length cap of ``build_algebra``, or if the radical is not
    nilpotent."""
    quiver = presentation.quiver
    nv = len(quiver.vertices)
    max_term_len = max(
        (len(p) for r in presentation.relations for _, p in r.terms),
        default=0,
    )
    length_cap = max(2 * nv, 2 * max_term_len, 8)

    arrow = quiver.arrow_by_name
    table = _PathTable(quiver)
    relations = presentation.relations
    generators = []  # (terms, lmax, src, tgt)
    for r in relations:
        lens = [len(p) for _, p in r.terms]
        src = quiver.path_source(r.terms[0][1])
        tgt = quiver.path_target(r.terms[0][1])
        generators.append((r.terms, max(lens), src, tgt))
    max_rel_len = max((m for _, m, _, _ in generators), default=0)
    spread = max(
        (max(len(p) for _, p in r.terms) - min(len(p) for _, p in r.terms)
         for r in relations),
        default=0,
    )

    ideal = SparseRREF()
    closure_len = None
    length = 1
    while True:
        length += 1
        if length > length_cap:
            raise NotAdmissible(
                f"path classes still appearing at length cap {length_cap}"
            )
        _extend_generated(ideal, generators, length, table)
        survivors = [p for p in table.paths(length)
                     if table.index[p] not in ideal.rows]
        if not survivors and length >= max_rel_len:
            closure_len = length
            break
    # safety margin for relations mixing term lengths
    for extra in range(1, spread + 1):
        _extend_generated(ideal, generators, closure_len + extra, table)

    basis_paths = []
    for ln in range(1, closure_len):
        basis_paths.extend(
            p for p in table.paths(ln) if table.index[p] not in ideal.rows
        )
    if any(table.index[p] not in ideal.rows
           for p in table.paths(closure_len)):
        raise NotAdmissible("ideal closure unstable after margin pass")

    basis_labels = [("e", v) for v in quiver.vertices] + basis_paths
    basis_src = list(quiver.vertices) + [arrow[p[0]].source for p in basis_paths]
    basis_tgt = list(quiver.vertices) + [arrow[p[-1]].target for p in basis_paths]
    basis_id = {p: nv + k for k, p in enumerate(basis_paths)}

    def reduce_to_basis(path):
        """Class of a path (length <= closure_len) as {basis id: coef}."""
        rem = ideal.reduce({table.index[path]: F1})
        return {basis_id[table.by_index[idx]]: c for idx, c in rem.items()}

    # left action of each arrow on the basis
    arrow_action = {}
    for name in table.names:
        ar = arrow[name]
        action = {}
        for b in range(len(basis_labels)):
            if b < nv:
                if ar.source == quiver.vertices[b]:
                    action[b] = reduce_to_basis((name,))
            else:
                lab = basis_labels[b]
                if arrow[lab[-1]].target == ar.source:
                    action[b] = reduce_to_basis(lab + (name,))
        arrow_action[name] = action

    def left_mult_by_basis(i, vec):
        if i < nv:
            v = quiver.vertices[i]
            return {k: c for k, c in vec.items() if basis_tgt[k] == v}
        lab = basis_labels[i]
        for name in lab:
            nxt = {}
            act = arrow_action[name]
            for k, c in vec.items():
                row = act.get(k)
                if row:
                    add_scaled(nxt, c, row)
            vec = nxt
            if not vec:
                break
        return vec

    mult = {}
    dim = len(basis_labels)
    for j in range(dim):
        vec_j = {j: F1}
        for i in range(dim):
            if basis_src[i] != basis_tgt[j]:
                continue
            prod = left_mult_by_basis(i, vec_j)
            if prod:
                mult[(i, j)] = prod

    arrow_class = {}
    for name in table.names:
        cls = reduce_to_basis((name,))
        if len(cls) != 1 or next(iter(cls.values())) != 1:
            raise InvalidPresentation(f"arrow {name} not a basis class")
        arrow_class[name] = next(iter(cls))

    alg = Algebra(
        list(quiver.vertices), basis_labels, basis_src, basis_tgt, mult,
        presentation=presentation, arrow_class=arrow_class,
    )
    if spread:
        # a relation mixing term lengths can close up the ideal with a
        # path class that is idempotent modulo it, as x^2 - x^3 at a loop
        # does; homogeneous relations give a graded algebra, whose radical
        # is nilpotent once the closure above has ended
        alg.rad_nilpotency()
    return alg


def assert_builds_like_reference(presentation):
    """``build_algebra`` gives the algebra the degreewise build gives: the
    same basis labels, ends, ``mult`` and ``arrow_class``.  Where the
    degreewise build refuses, ``build_algebra`` refuses too, unless the
    relations mix term lengths: a truncated degreewise span can miss a
    shorter path in the ideal until past its length cap, and
    ``build_algebra`` may then return an algebra in which every relation
    evaluates to 0 and ``mult`` is associative."""
    try:
        ref = reference_build_algebra(presentation)
    except NotAdmissible:
        ref = None
    try:
        alg = algebras.build_algebra(presentation)
    except NotAdmissible:
        assert ref is None
        return
    if ref is not None:
        assert (alg.basis_labels, alg.basis_src, alg.basis_tgt, alg.mult,
                alg.arrow_class) == (ref.basis_labels, ref.basis_src,
                                     ref.basis_tgt, ref.mult, ref.arrow_class)
        return
    assert any(len({len(p) for _, p in r.terms}) > 1
               for r in presentation.relations)
    for r in presentation.relations:
        assert relation_value(alg, r) == {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = alg.mult_basis(i, j)
            for k in range(alg.dim):
                assert (alg.mult_elements(ij, {k: F1})
                        == alg.mult_elements({i: F1}, alg.mult_basis(j, k)))


def assert_presented_like_build(alg):
    """A re-presented algebra is the algebra ``build_algebra`` builds from
    its presentation: the same vertices, basis labels and ends, ``mult``
    with its entries, their order and their coefficient types, and
    ``arrow_class`` in the same order."""
    def fields(a):
        return (a.vertices, a.basis_labels, a.basis_src, a.basis_tgt,
                [(key, [(j, type(c), c) for j, c in prod.items()])
                 for key, prod in a.mult.items()],
                list(a.arrow_class.items()))

    assert fields(alg) == fields(algebras.build_algebra(alg.presentation))


def reference_minimal_presentation(a):
    """(presentation, arrow ids) as ``minimal_presentation(a)`` gives them."""
    quiver, arrow_ids = raw_arrows(a)
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
    """Call run() and return, for each algebra it re-presented, the triple
    (raw algebra, presented algebra, arrow ids) that ``algebras._present``,
    behind ``represent`` and ``minimal_presentation``, gave.  A corner read
    in its ambient (a ``CornerQuiver``) is recorded as the reference raw
    corner (``reference_scans.raw_corner``), with its arrow ids renumbered
    as the raw corner numbers them."""
    seen = []
    present = algebras._present

    def recording(corner, *args):
        alg, arrow_ids = present(corner, *args)
        if isinstance(corner, Algebra):
            seen.append((corner, alg, arrow_ids))
        else:
            raw, ids = raw_corner(corner.algebra,
                                  Idempotent.of(corner.quiver.vertices))
            position = {b: k for k, b in enumerate(ids)}
            seen.append((raw, alg, {name: position[b]
                                    for name, b in arrow_ids.items()}))
        return alg, arrow_ids

    algebras._present = recording
    try:
        run()
    finally:
        algebras._present = present
    return seen


def matches_reference(a, pres, arrow_ids):
    """Whether a presentation and arrow ids that ``minimal_presentation``
    gave for a are what the full-kernel search gives, arrow order
    included."""
    ref_pres, ref_ids = reference_minimal_presentation(a)
    return (presentation_to_dict(pres) == presentation_to_dict(ref_pres)
            and list(arrow_ids.items()) == list(ref_ids.items()))
