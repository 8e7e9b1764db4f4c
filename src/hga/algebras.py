"""Finite-dimensional bound quiver algebras with exact rational arithmetic.

An Algebra carries a basis of path classes, a closed multiplication table and
one idempotent per vertex.  Products follow the composition convention of
presentations: mult(i, j) is "basis j first, then basis i".
"""

from . import linalg
from .errors import (
    EmptyIdempotent,
    InvalidPresentation,
    NotAdmissible,
)
from .linalg import F0, F1, SparseRREF, add_scaled, div
from .memo import memo
from .presentations import (
    Arrow,
    BoundQuiverPresentation,
    Quiver,
    RelationElement,
)


class Algebra:
    """Basis of path classes plus exact structure constants.

    basis_labels[i] is ("e", v) for a vertex idempotent or a tuple of arrow
    names (application order) for a path class.  The first len(vertices)
    basis slots are the vertex idempotents, in vertex order.

    A corner or quotient of another algebra records that algebra as
    `ambient`, and in `arrow_ambient` the ambient basis id that each of its
    arrows is.  The higher Auslander algebra A^d_n records {"n": n, "d": d}
    as `typeA`.
    """

    def __init__(self, vertices, basis_labels, basis_src, basis_tgt, mult,
                 presentation=None, arrow_class=None, ambient=None,
                 arrow_ambient=None, typeA=None):
        self.vertices = list(vertices)
        self.basis_labels = list(basis_labels)
        self.basis_src = list(basis_src)
        self.basis_tgt = list(basis_tgt)
        self.mult = mult
        self.presentation = presentation
        self.arrow_class = arrow_class or {}
        self.ambient = ambient
        self.arrow_ambient = arrow_ambient or {}
        self.typeA = typeA
        self.e_index = {v: i for i, v in enumerate(self.vertices)}
        self.monomial = all(len(t) <= 1 for t in mult.values())

    @property
    def dim(self):
        return len(self.basis_labels)

    def radical_indices(self):
        return list(range(len(self.vertices), self.dim))

    def mult_basis(self, i, j):
        """Product basis_i * basis_j (j applied first); sparse dict."""
        return self.mult.get((i, j), {})

    def mult_elements(self, x, y):
        """Product of sparse elements x * y (y applied first)."""
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                prod = self.mult.get((i, j))
                if prod:
                    add_scaled(out, ci * cj, prod)
        return out

    def unit(self, i, coef=F1):
        return {i: coef}

    def identity_element(self):
        return {i: F1 for i in range(len(self.vertices))}

    def path_value(self, path):
        """Value of an arrow-name path (application order) as a sparse element."""
        if not path:
            raise ValueError("empty path")
        value = self.unit(self.arrow_class[path[0]])
        for name in path[1:]:
            value = self.mult_elements(self.unit(self.arrow_class[name]), value)
        return value

    def relation_value(self, relation):
        total = {}
        for coef, path in relation.terms:
            add_scaled(total, coef, self.path_value(path))
        return total

    def rad_nilpotency(self):
        """Least N with rad^N = 0.  Each radical basis element is a path,
        so rad^(k+1) is the sum of the a·rad^k over the arrows a; an
        algebra with no arrows recorded multiplies by the whole radical."""
        rad = [self.unit(i) for i in self.radical_indices()]
        gens = [self.unit(i) for i in self.arrow_class.values()] or rad
        span = rad
        n = 1
        while span:
            rr = SparseRREF()
            nxt = []
            for x in span:
                for r in gens:
                    prod = self.mult_elements(r, x)
                    if prod and rr.add(dict(prod)) is not None:
                        nxt.append(prod)
            span = nxt
            n += 1
            if n > self.dim + 2:
                raise NotAdmissible("radical is not nilpotent")
        return n

    def opposite(self):
        """Opposite algebra; involutive up to identity on basis ids."""
        return memo(self, "op", lambda: _build_opposite(self))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, vertices={len(self.vertices)})"


def _build_opposite(a):
    quiver = a.presentation.quiver
    op_quiver = Quiver(
        list(quiver.vertices),
        [(ar.name, ar.target, ar.source) for ar in quiver.arrows],
    )
    op_relations = [
        RelationElement([(c, tuple(reversed(p))) for c, p in r.terms])
        for r in a.presentation.relations
    ]
    op_pres = BoundQuiverPresentation(op_quiver, op_relations)
    op_mult = {}
    for (i, j), terms in a.mult.items():
        op_mult[(j, i)] = dict(terms)
    nv = len(a.vertices)
    labels = [
        lab if i < nv else tuple(reversed(lab))
        for i, lab in enumerate(a.basis_labels)
    ]
    op = Algebra(
        a.vertices,
        labels,
        a.basis_tgt,
        a.basis_src,
        op_mult,
        presentation=op_pres,
        arrow_class=dict(a.arrow_class),
    )
    memo(op, "op", lambda: a)
    return op


def opposite(a):
    return a.opposite()


def build_algebra(presentation, length_cap=None, ambient=None,
                  arrow_ambient=None, typeA=None):
    """Quotient of the path algebra by the relation ideal, on the classes of
    its normal words.

    Paths are ordered by length, then lexicographically by arrow name.  A
    path is normal when it is not the largest path (the tip) of any element
    of the ideal; the normal words are closed under taking subpaths, and
    their classes are a basis of the quotient.  They are found one length
    at a time by `_normal_words`, together with the arrow action on them:
    the normal form of each normal word followed by each arrow.  The
    product of two basis paths is the arrow action applied one letter at a
    time, so mult(i, j) is the last arrow of i applied to
    mult(prefix of i, j).

    Raises NotAdmissible if normal words still appear at the length cap,
    or if the radical is not nilpotent.  `ambient`, `arrow_ambient` and
    `typeA` are recorded on the result as they are given."""
    quiver = presentation.quiver
    vertices = quiver.vertices
    nv = len(vertices)
    relations = [r.terms for r in presentation.relations]
    if length_cap is None:
        length_cap = max(2 * nv, 2 * max(
            (len(p) for terms in relations for _, p in terms), default=0), 8)
    mixed = any(len({len(p) for _, p in terms}) > 1 for terms in relations)
    generators = [_generator(quiver, terms) for terms in relations]
    while True:
        words, collapse = _normal_words(quiver, generators, length_cap, mixed)
        if collapse is None:
            break
        generators.append(_generator(quiver, collapse))
    paths, src, tgt, parent, last, act = words

    starting = {v: [] for v in vertices}
    for i, v in enumerate(src):
        starting[v].append(i)
    mult = {}
    for j, v in enumerate(tgt):
        column = {}  # i -> basis_i * basis_j, over the i that start at v
        for i in starting[v]:
            if i < nv:
                prod = {j: F1}
            else:
                prev = column.get(parent[i])
                prod = _apply(prev, act[last[i]]) if prev else None
                if not prod:
                    continue
            column[i] = mult[(i, j)] = prod

    alg = Algebra(
        vertices, [("e", v) for v in vertices] + paths[nv:], src, tgt, mult,
        presentation=presentation,
        arrow_class={p[0]: i for i, p in enumerate(paths) if len(p) == 1},
        ambient=ambient, arrow_ambient=arrow_ambient, typeA=typeA,
    )
    if mixed:
        # a relation mixing term lengths can close up the ideal with a
        # path class that is idempotent modulo it, as x^2 - x^3 at a loop
        # does; homogeneous relations give a graded algebra, whose radical
        # is nilpotent once the normal words have run out
        alg.rad_nilpotency()
    return alg


def _generator(quiver, terms):
    """A relation as (terms, longest term length, source vertex)."""
    return (terms, max(len(p) for _, p in terms),
            quiver.path_source(terms[0][1]))


def _apply(vec, action):
    """A sparse vector of normal words followed by one arrow, whose action
    on the normal words is `action`."""
    out = {}
    for k, c in vec.items():
        row = action.get(k)
        if row:
            add_scaled(out, c, row)
    return out


def _evaluate(act, n, terms):
    """The normal word n followed by the relation `terms`, evaluated one
    arrow at a time by the arrow action act."""
    total = {}
    for coef, path in terms:
        vec = {n: F1}
        for name in path:
            vec = _apply(vec, act[name])
            if not vec:
                break
        else:
            add_scaled(total, coef, vec)
    return total


def _normal_words(quiver, generators, length_cap, mixed):
    """The normal words of the ideal generated by `generators` (see
    `_generator`) and the arrow action on them, or a combination of shorter
    normal words that lies in the ideal.

    Returns (words, None) or (None, terms of that combination).  words is
    (paths, src, tgt, parent, last, act): word ids 0..|Q0|-1 are the empty
    paths at the vertices, in vertex order, and the others follow in
    (length, lex) order; a word of positive length is its prefix
    parent[i] followed by the arrow last[i]; act[name][i] is the normal
    form of word i followed by that arrow, with no entry where it is 0.

    The candidates of length L are the n·a for n a normal word of length
    L - 1, in lex order; every normal word of length L is one.  The ideal
    meets their span, modulo the shorter normal words, in the span of the
    n·g for each generator g and each normal word n with |n| + (longest
    term of g) = L, evaluated by the arrow action known below L; the
    multiples n·g·w need no vectors of their own, since the arrow action
    already takes n·g to 0.  Row reduction with the largest candidate as
    pivot makes the pivots the tips of length L, and each fully reduced
    row the normal form of its tip.  The candidates that are not pivots
    are the normal words of length L.

    Relations whose terms have different lengths can give a row in which
    every candidate cancels: a combination of shorter normal words in the
    ideal, which those shorter lengths missed.  It is returned, so that the
    caller adds it to the generators and starts again.  For the same reason,
    once the normal words have run out, every n·g not yet reduced must
    evaluate to 0; for homogeneous relations it lies past the last normal
    word and does."""
    vertices = quiver.vertices
    arrow = quiver.arrow_by_name
    out_names = {v: sorted(a.name for a in arrows)
                 for v, arrows in quiver.arrows_from.items()}
    nv = len(vertices)
    paths = [()] * nv
    src, tgt = list(vertices), list(vertices)
    parent, last = [None] * nv, [None] * nv
    act = {name: {} for name in arrow}
    ending = {(0, v): [i] for i, v in enumerate(vertices)}
    level = list(range(nv))  # the normal words of the current length
    length = 0
    while level:
        if length >= length_cap:
            raise NotAdmissible(
                f"path classes still appearing at length cap {length_cap}"
            )
        length += 1
        cands = sorted((paths[w] + (name,), w, name)
                       for w in level for name in out_names[tgt[w]])
        base = len(paths)  # candidate k has the provisional id base + k
        for k, (_, w, name) in enumerate(cands, base):
            act[name][w] = {k: F1}
        rows = SparseRREF()
        for g_terms, g_lmax, g_src in generators:
            for n in ending.get((length - g_lmax, g_src), ()):
                vec = _evaluate(act, n, g_terms)
                piv = rows.add(vec) if vec else None
                if piv is not None and piv < base:
                    return None, [(c, paths[j])
                                  for j, c in rows.rows[piv].items()]
        level = []
        renumber = {}
        for k, (p, w, name) in enumerate(cands, base):
            row = rows.rows.get(k)
            if row is None:
                renumber[k] = i = len(paths)
                paths.append(p)
                src.append(src[w])
                tgt.append(arrow[name].target)
                parent.append(w)
                last.append(name)
                level.append(i)
                ending.setdefault((length, tgt[i]), []).append(i)
                act[name][w] = {i: F1}
                continue
            # a reduced row has entries only at shorter words and at
            # candidates before k that are not pivots, renumbered above
            form = {renumber.get(j, j): -c for j, c in row.items() if j != k}
            if form:
                act[name][w] = form
            else:
                del act[name][w]
    if mixed:
        for g_terms, g_lmax, g_src in generators:
            for n, p in enumerate(paths):
                if tgt[n] == g_src and len(p) + g_lmax > length:
                    vec = _evaluate(act, n, g_terms)
                    if vec:
                        return None, [(c, paths[j]) for j, c in vec.items()]
    return (paths, src, tgt, parent, last, act), None


def _arrow_layer(a):
    """Per vertex pair, basis elements lifting a basis of rad / rad^2.

    Returns a list of (source, target, basis id) in deterministic order.
    """
    nv = len(a.vertices)
    rad_ids = a.radical_indices()
    blocks = {}
    for b in rad_ids:
        blocks.setdefault((a.basis_src[b], a.basis_tgt[b]), []).append(b)
    rad2 = {}
    for (i, j), prod in a.mult.items():
        if i >= nv and j >= nv and prod:
            key = (a.basis_src[j], a.basis_tgt[i])
            rad2.setdefault(key, []).append(prod)
    out = []
    for key in sorted(blocks, key=lambda st: (str(st[0]), str(st[1]))):
        span = SparseRREF()
        for vec in rad2.get(key, []):
            span.add(dict(vec))
        for b in blocks[key]:
            if span.add({b: F1}) is not None:
                out.append((key[0], key[1], b))
    return out


class _PathTable:
    """The paths of positive length of a quiver, indexed in (length, lex)
    order as they are first asked for, one length at a time.  Each length
    is also listed by the vertex its paths end at and by the vertex they
    start at, in lex order; the empty path ends and starts everywhere."""

    def __init__(self, quiver):
        self.arrow = quiver.arrow_by_name
        self.names = sorted(self.arrow)
        self.out_names = {v: sorted(ar.name for ar in arrows)
                          for v, arrows in quiver.arrows_from.items()}
        self.index = {}      # path -> index
        self.by_index = []
        self.by_len = {0: [()]}
        self.ending = {(0, v): [()] for v in quiver.vertices}
        self.starting = dict(self.ending)
        self._add(1, [(name,) for name in self.names])

    def _add(self, length, paths):
        arrow, index, ending, starting = (self.arrow, self.index,
                                          self.ending, self.starting)
        for k, p in enumerate(paths, len(self.by_index)):
            index[p] = k
            ending.setdefault((length, arrow[p[-1]].target), []).append(p)
            starting.setdefault((length, arrow[p[0]].source), []).append(p)
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
    """Add to ideal u*g*w for each generator g = (terms, longest term
    length, source, target), with longest term exactly ``length``.  The
    paths of that length are indexed first."""
    table.paths(length)
    index = table.index
    for g_terms, g_lmax, g_src, g_tgt in generators:
        room = length - g_lmax
        for pre_len in range(room + 1):
            suffixes = table.starting.get((room - pre_len, g_tgt), ())
            for u in table.ending.get((pre_len, g_src), ()):
                for w in suffixes:
                    vec = {}
                    for coef, term in g_terms:
                        idx = index[u + term + w]
                        vec[idx] = vec.get(idx, F0) + coef
                    vec = {k: c for k, c in vec.items() if c}
                    if vec:
                        ideal.add(vec)


def _kernel_vector(echelon, value, index):
    """Reduce the value of the path with table index `index` against the
    earlier path values of its block.

    `echelon` maps a pivot (the largest basis id of a row) to the row: a
    path value with entry 1 at its pivot, and the combination of paths
    whose value it is.  A value that stays nonzero joins the echelon and
    gives None.  One that reduces to zero gives the kernel vector: the path
    minus the combination of earlier paths with the same value."""
    value = dict(value)
    combo = {index: F1}
    for piv in sorted(echelon, reverse=True):
        f = value.get(piv)
        if f:
            row, row_combo = echelon[piv]
            add_scaled(value, -f, row)
            add_scaled(combo, -f, row_combo)
    if value:
        piv = max(value)
        inv = div(F1, value[piv])
        echelon[piv] = ({j: c * inv for j, c in value.items()},
                        {j: c * inv for j, c in combo.items()})
        return None
    return combo


def minimal_presentation(a, validate=True):
    """Quiver with rad/rad^2 arrows plus a minimal generating set of the
    kernel ideal, found degree by degree.

    Returns the presentation and, for each arrow name, the basis id of `a`
    that the arrow is.

    The kernel at each length is read from the paths of that length alone:
    a kernel vector whose last path is shorter depends only on the paths
    before it, so it was found, and reduced against the generated ideal, at
    an earlier length.  The arrows lift rad/rad^2, so the path values of
    length L span rad^L: the nilpotency index is the first length whose
    path values all vanish, and the radical is nilpotent exactly when the
    path values span it.
    """
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

    table = _PathTable(quiver)
    values = {p: {arrow_ids[p[0]]: F1} for p in table.paths(1)}
    echelons = {}  # (source, target) -> path values of length >= 2
    kgen = SparseRREF()
    generators = []  # (terms, lmax, src, tgt)
    relations = []
    nilp = None  # least length at which every path value vanishes
    new_here = False
    length = 1
    while True:
        if nilp is None and not any(values[p] for p in table.paths(length)):
            nilp = length
            spanned = len(arrows) + sum(map(len, echelons.values()))
            if spanned != a.dim - len(a.vertices):
                raise NotAdmissible("radical is not nilpotent")
        if nilp is not None and length > nilp and not new_here:
            break
        length += 1
        if nilp is None and length > a.dim + 2:
            raise NotAdmissible("radical is not nilpotent")
        if nilp is not None and length > nilp + 1 + a.dim:
            raise InvalidPresentation("relation search failed to stabilize")
        blocks = {}
        for p in table.paths(length):
            values[p] = a.mult_elements({arrow_ids[p[-1]]: F1},
                                        values[p[:-1]])
            key = (arrow_by_name[p[0]].source, arrow_by_name[p[-1]].target)
            blocks.setdefault(key, []).append(p)
        _extend_generated(kgen, generators, length, table)
        new_here = False
        for key in sorted(blocks, key=lambda st: (str(st[0]), str(st[1]))):
            echelon = echelons.setdefault(key, {})
            for p in blocks[key]:
                vec = _kernel_vector(echelon, values[p], table.index[p])
                if vec is None:
                    continue
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
                g_lmax = max(len(path) for _, path in terms)
                generators.append((terms, g_lmax, key[0], key[1]))
                relations.append(RelationElement(list(terms)))
                kgen.add(dict(rem))
                new_here = True

    pres = BoundQuiverPresentation(quiver, relations)
    if validate:
        rebuilt = build_algebra(pres)
        if rebuilt.dim != a.dim:
            raise InvalidPresentation(
                f"presentation round-trip changed dimension "
                f"({a.dim} -> {rebuilt.dim})"
            )
    return pres, arrow_ids


def represent(raw, ambient=None, ambient_basis=None):
    """Rebuild a raw structure-constant algebra as a presented one.

    Each path class of the result must be a raw element between the same
    vertices, and in every block e_t A e_s the path classes must form a basis
    of the raw block.  A corner or quotient passes its ambient algebra and
    the ambient id of each raw basis element, and the result records them as
    `ambient` and `arrow_ambient`.
    """
    pres, arrow_ids = minimal_presentation(raw, validate=False)
    arrow_ambient = None
    if ambient is not None:
        arrow_ambient = {name: ambient_basis[b]
                         for name, b in arrow_ids.items()}
    alg = build_algebra(pres, ambient=ambient, arrow_ambient=arrow_ambient)
    if alg.dim != raw.dim:
        raise InvalidPresentation(
            f"re-presentation changed dimension ({raw.dim} -> {alg.dim})"
        )
    nv = len(raw.vertices)
    blocks = {}  # (source, target) -> (raw ids, path classes as raw elements)
    for b in range(raw.dim):
        key = (raw.basis_src[b], raw.basis_tgt[b])
        blocks.setdefault(key, ([], []))[0].append(b)
    for i in range(alg.dim):
        if i < nv:
            elem = {raw.e_index[alg.vertices[i]]: F1}
        else:
            path = alg.basis_labels[i]
            elem = {arrow_ids[path[0]]: F1}
            for name in path[1:]:
                elem = raw.mult_elements({arrow_ids[name]: F1}, elem)
        key = (alg.basis_src[i], alg.basis_tgt[i])
        if any((raw.basis_src[b], raw.basis_tgt[b]) != key for b in elem):
            raise InvalidPresentation("re-presentation leaves its block")
        blocks.setdefault(key, ([], []))[1].append(elem)
    for rows, elems in blocks.values():
        if len(rows) != len(elems) or linalg.rank(
                [[x.get(b, F0) for x in elems] for b in rows]) != len(rows):
            raise InvalidPresentation("re-presentation basis is degenerate")
    return alg


def idempotent_subalgebra(a, e):
    """Corner algebra eAe for a vertex-subset idempotent, re-presented on its
    own quiver, with ambient `a`."""
    e.validate(a.vertices)
    if not e.vertex_subset:
        raise EmptyIdempotent("idempotent over the empty vertex set")
    keep = e.vertex_subset
    ids = [i for i in range(a.dim)
           if a.basis_src[i] in keep and a.basis_tgt[i] in keep]
    new_pos = {b: k for k, b in enumerate(ids)}
    mult = {}
    for k, i in enumerate(ids):
        for l, j in enumerate(ids):
            prod = a.mult.get((i, j))
            if prod:
                mult[(k, l)] = {new_pos[t]: c for t, c in prod.items()}
    raw = Algebra(
        [v for v in a.vertices if v in keep],
        [a.basis_labels[i] for i in ids],
        [a.basis_src[i] for i in ids],
        [a.basis_tgt[i] for i in ids],
        mult,
    )
    return represent(raw, a, ids)


def quotient_by_idempotent(a, f):
    """Quotient of a by the two-sided ideal generated by a vertex-subset
    idempotent, re-presented on its own quiver, with ambient `a`."""
    f.validate(a.vertices)
    cut = f.vertex_subset
    span = SparseRREF()
    for v in cut:
        ev = a.e_index[v]
        into = [j for j in range(a.dim) if a.basis_tgt[j] == v]
        outof = [i for i in range(a.dim) if a.basis_src[i] == v]
        for j in into:
            for i in outof:
                prod = a.mult.get((i, j))
                if prod:
                    span.add(dict(prod))
        span.add({ev: F1})
    probe = span.copy()
    kept = []
    for b in range(a.dim):
        if probe.add({b: F1}) is not None:
            kept.append(b)
    new_pos = {b: k for k, b in enumerate(kept)}
    mult = {}
    for k, i in enumerate(kept):
        for l, j in enumerate(kept):
            prod = a.mult.get((i, j))
            if prod:
                rem = span.reduce(dict(prod))
                if rem:
                    mult[(k, l)] = {new_pos[b]: c for b, c in rem.items()}
    raw = Algebra(
        [v for v in a.vertices if v not in cut],
        [a.basis_labels[i] for i in kept],
        [a.basis_src[i] for i in kept],
        [a.basis_tgt[i] for i in kept],
        mult,
    )
    return represent(raw, a, kept)
