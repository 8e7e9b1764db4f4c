"""Finite-dimensional bound quiver algebras with exact rational arithmetic.

An Algebra carries a basis of path classes, a closed multiplication table and
one idempotent per vertex.  Products follow the composition convention of
presentations: mult(i, j) is "basis j first, then basis i".
"""

from collections import defaultdict, namedtuple
from functools import reduce
from operator import or_

from .errors import (
    EmptyIdempotent,
    InternalError,
    InvalidPresentation,
    NotAdmissible,
)
from .linalg import F1, TrackedSpan, add_scaled, exact
from .memo import memo
from .presentations import (
    Arrow,
    BoundQuiverPresentation,
    Idempotent,
    Quiver,
    RelationElement,
)


BasisIndex = namedtuple("BasisIndex", "source target block")


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

    def basis_index(self):
        """BasisIndex(source, target, block): the basis ids by source
        vertex, by target vertex and by block (source, target), each in
        increasing id order, a key with no ids absent; memoised."""
        def compute():
            index = BasisIndex({}, {}, {})
            for i, (s, t) in enumerate(zip(self.basis_src, self.basis_tgt)):
                index.source.setdefault(s, []).append(i)
                index.target.setdefault(t, []).append(i)
                index.block.setdefault((s, t), []).append(i)
            return index

        return memo(self, "basis index", compute)

    def radical_products(self):
        """(mid, multi), memoised, read off the products x·y of two radical
        basis elements, y: s -> w and x: w -> t.  A block (s, t) is
        single-term when each such product is a multiple of one basis
        element k of the block; bit i of mid[k] then marks the middle vertex
        w of such a product on k, w the i-th vertex.  multi holds the other
        blocks."""
        def compute():
            nv, src, tgt = len(self.vertices), self.basis_src, self.basis_tgt
            mid, multi = [0] * self.dim, set()
            for j in range(nv, self.dim):
                s, w = src[j], tgt[j]
                for i in self.basis_index().source[w]:
                    prod = self.mult.get((i, j)) if i >= nv else None
                    if not prod:
                        continue
                    k = next(iter(prod))
                    if len(prod) == 1 and (src[k], tgt[k]) == (s, tgt[i]):
                        mid[k] |= 1 << self.e_index[w]
                    else:
                        multi.add((s, tgt[i]))
            return mid, multi

        return memo(self, "radical products", compute)

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

    @property
    def quiver(self):
        """The quiver of its presentation, as `CornerQuiver.quiver` is;
        InvalidPresentation when it has none."""
        if self.presentation is None:
            raise InvalidPresentation(
                "the algebra has no presentation: re-present it with "
                "`represent` first")
        return self.presentation.quiver

    def path_value(self, path):
        """Value of an arrow-name path (application order) as a sparse element."""
        return _path_value(self, self.arrow_class, path)

    def rad_nilpotency(self):
        """Least N with rad^N = 0: one past the longest basis path if no
        relation mixes term lengths, as rad^k is then spanned by the paths
        of length >= k; else rad^(k+1) is the sum of the a·rad^k over the
        arrows a (over the whole radical if the algebra records none)."""
        pres = self.presentation
        if pres and not any(_mixes(r.terms) for r in pres.relations):
            return 1 + max(map(len, self.basis_labels[len(self.vertices):]),
                           default=0)
        rad = [self.unit(i) for i in range(len(self.vertices), self.dim)]
        gens = [self.unit(i) for i in self.arrow_class.values()] or rad
        span = rad
        n = 1
        while span:
            rr = TrackedSpan()
            nxt = []
            for x in span:
                for r in gens:
                    prod = self.mult_elements(r, x)
                    if prod and rr.add(prod) is None:
                        nxt.append(prod)
            span = nxt
            n += 1
            if n > self.dim + 2:
                raise NotAdmissible("radical is not nilpotent")
        return n

    def hull(self, vertices):
        """The vertices, in vertex order, reached from one of `vertices` by
        a nonzero path and reaching one: memoised masks of basis ends."""
        def compute():
            index, e = self.basis_index(), self.e_index
            return [{v: sum({1 << e[ends[i]] for i in ids})
                     for v, ids in by.items()}
                    for by, ends in ((index.source, self.basis_tgt),
                                     (index.target, self.basis_src))]

        both = -1
        for masks in memo(self, "reach masks", compute):
            both &= reduce(or_, (masks[v] for v in vertices), 0)
        return [v for i, v in enumerate(self.vertices) if both >> i & 1]

    def opposite(self):
        """Opposite algebra; involutive up to identity on basis ids.  The
        opposite of a corner or quotient has the ambient's opposite as its
        ambient, and the same ambient ids.  Memoised both ways, so
        ``(A^op)^op is A`` while A is alive: A holds its opposite, and the
        opposite holds A weakly (see ``hga.memo``)."""
        return memo(self, "op", lambda: _build_opposite(self))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, vertices={len(self.vertices)})"


def _build_opposite(a):
    quiver = a.quiver
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
        ambient=None if a.ambient is None else a.ambient.opposite(),
        arrow_ambient=dict(a.arrow_ambient),
    )
    memo(op, "op", lambda: a, weak=True)
    return op


def _path_value(a, arrow_ids, path):
    """Value in a of an arrow-name path (application order), each arrow
    being the basis id arrow_ids[name]."""
    if not path:
        raise ValueError("empty path")
    value = {arrow_ids[path[0]]: F1}
    for name in path[1:]:
        value = a.mult_elements({arrow_ids[name]: F1}, value)
    return value


def build_algebra(presentation, length_cap=None, ambient=None,
                  arrow_ambient=None, typeA=None):
    """Quotient of the path algebra by the relation ideal, on the classes of
    its normal words.

    Paths are ordered by length, then lexicographically by arrow name.  A
    path is normal when it is not the largest path (the tip) of any element
    of the ideal; the normal words are closed under taking subpaths, and
    their classes are a basis of the quotient.  They are found one length
    at a time by `_normal_words`, together with the arrow action on them:
    the normal form of each normal word followed by each arrow.

    Raises NotAdmissible if normal words still appear at the length cap,
    or if the radical is not nilpotent.  `ambient`, `arrow_ambient` and
    `typeA` are recorded on the result as they are given."""
    quiver = presentation.quiver
    relations = [r.terms for r in presentation.relations]
    if length_cap is None:
        length_cap = _default_cap(quiver, relations)
    generators = [_generator(quiver, terms) for terms in relations]
    while True:
        words, collapse = _normal_words(quiver, generators, length_cap)
        if collapse is None:
            break
        generators.append(_generator(quiver, collapse))
    return _on_words(presentation, words, ambient=ambient,
                     arrow_ambient=arrow_ambient, typeA=typeA)


def _default_cap(quiver, relations):
    return max(2 * len(quiver.vertices), 2 * max(
        (len(p) for terms in relations for _, p in terms), default=0), 8)


def _on_words(presentation, words, nilpotent=False, **fields):
    """The algebra of `presentation` on its normal words `words` (see
    `_normal_words`), with `fields` recorded as they are given.

    The product of two basis paths is the arrow action applied one letter
    at a time, so mult(i, j) is the last arrow of i applied to
    mult(prefix of i, j).  With `nilpotent` the caller has proved the
    radical nilpotent, and the check below is not made."""
    paths, src, tgt, parent, last, act = words
    vertices = presentation.quiver.vertices
    nv = len(vertices)
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
        **fields,
    )
    if not nilpotent and any(_mixes(r.terms)
                             for r in presentation.relations):
        # a relation mixing term lengths can close up the ideal with a
        # path class that is idempotent modulo it, as x^2 - x^3 at a loop
        # does; homogeneous relations give a graded algebra, whose radical
        # is nilpotent once the normal words have run out
        alg.rad_nilpotency()
    return alg


def _mixes(terms):
    return len({len(p) for _, p in terms}) > 1


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


def _normal_words(quiver, generators, length_cap, relation_at=None):
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

    `relation_at`, when given, finds relations as it goes: it is called
    with (i, p, w) for each candidate p that is not a pivot, in lex order,
    where w is its prefix and i the id p gets if it is a normal word.  It
    returns None, or the terms of a relation whose tip is p and whose other
    terms are normal words.  That relation is already in normal form.  It
    is appended to `generators` and reduced as one more row, so p becomes
    a tip.  The relations of one length are appended in the order of their
    (source, target) blocks, then in lex order.

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
        rows = TrackedSpan()
        for g_terms, g_lmax, g_src in generators:
            for n in ending.get((length - g_lmax, g_src), ()):
                vec = _evaluate(act, n, g_terms)
                if not vec or rows.add(vec) is not None:
                    continue
                # the row just stored is the last; every earlier one has a
                # candidate as pivot, so one below base is fully reduced
                piv = next(reversed(rows.rows))
                if piv < base:
                    return None, [(c, paths[j])
                                  for j, c in rows.rows[piv][0].items()]
        level = []
        renumber = {}
        found = []
        for k, (p, w, name) in enumerate(cands, base):
            if k in rows.rows:
                continue
            i = len(paths)
            terms = relation_at(i, p, w) if relation_at else None
            if terms:
                found.append((str(src[w]), str(arrow[name].target), terms))
                continue
            renumber[k] = i
            paths.append(p)
            src.append(src[w])
            tgt.append(arrow[name].target)
            parent.append(w)
            last.append(name)
            level.append(i)
            ending.setdefault((length, tgt[i]), []).append(i)
        for _, _, terms in sorted(found, key=lambda f: f[:2]):
            g = _generator(quiver, terms)
            generators.append(g)
            rows.add(_evaluate(act, ending[(0, g[2])][0], terms))
        reduced = rows.reduced_rows()
        for k, (p, w, name) in enumerate(cands, base):
            if k in renumber:
                act[name][w] = {renumber[k]: F1}
                continue
            # a reduced row has entries only at shorter words and at
            # candidates before k that are not pivots, renumbered above
            form = {renumber.get(j, j): -c
                    for j, c in reduced[k].items() if j != k}
            if form:
                act[name][w] = form
            else:
                del act[name][w]
    if any(_mixes(g_terms) for g_terms, _, _ in generators):
        for g_terms, g_lmax, g_src in generators:
            for n, p in enumerate(paths):
                if tgt[n] == g_src and len(p) + g_lmax > length:
                    vec = _evaluate(act, n, g_terms)
                    if vec:
                        return None, [(c, paths[j]) for j, c in vec.items()]
    return (paths, src, tgt, parent, last, act), None


def _corner_arrows(a, keep):
    """(quiver, arrow ids, dim) of the corner eAe, e the idempotent on the
    vertex set keep: arrows lifting rad/rad^2, by block in (str(source),
    str(target)) order, each a basis id of a, and the dimension of eAe.

    A radical id b of a block is an arrow when it is not in the span of the
    block's products through kept vertices and of its ids below b, largest
    id as pivot (`TrackedSpan`).  A product through a kept vertex that is a
    multiple of b puts b in that span: so b is an arrow only when mid[b]
    (`Algebra.radical_products`) has no bit in keep, and in a single-term
    block exactly then.  Arrows are named source_target, suffixed _k for the
    k-th further one of a name.  A corner keeps the order of a's ids, so
    these are also the arrows of eAe taken as an algebra of its own, with
    every vertex kept."""
    nv = len(a.vertices)
    index, tgt = a.basis_index(), a.basis_tgt
    mid, multi = a.radical_products()
    mask = sum(1 << a.e_index[v] for v in keep)
    dim, blocks = 0, {}
    for s in keep:
        for b in index.source[s]:
            if tgt[b] in keep:
                dim += 1
                if b >= nv and not mid[b] & mask:
                    blocks.setdefault((s, tgt[b]), []).append(b)
    name_count, arrows, arrow_ids = {}, [], {}
    for (s, t), ids in sorted(blocks.items(),
                              key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        if (s, t) in multi:
            span = TrackedSpan()
            for w in keep:
                for j in index.block.get((s, w), ()):
                    for i in index.block.get((w, t), ()):
                        prod = a.mult.get((i, j)) if min(i, j) >= nv else None
                        if prod:
                            span.add(prod)
            ids = [b for b in ids if span.add({b: F1}) is None]
        base = f"{s}_{t}"
        for b in ids:
            k = name_count[base] = name_count.get(base, -1) + 1
            name = f"{base}_{k}" if k else base
            arrows.append(Arrow(name, s, t))
            arrow_ids[name] = b
    quiver = Quiver([v for v in a.vertices if v in keep], arrows)
    return quiver, arrow_ids, dim


class CornerQuiver:
    """The corner eAe of a vertex-subset idempotent e, read in A and not
    re-presented.

    `algebra` is A, `dim` is that of eAe, and `quiver` and `arrow_ids` are
    its arrows from `_corner_arrows`, each a basis id of A.
    `idempotent_subalgebra(a, e)` is this corner re-presented on this
    quiver; the isomorphism that takes each of its normal words to that
    word's value in A takes each path value there to the value here.  So a
    check that reads only the quiver and whether path values vanish or are
    proportional gets the same answers here, with no normal-word pass."""

    def __init__(self, a, e):
        e.validate(a.vertices)
        if not e.vertex_subset:
            raise EmptyIdempotent("idempotent over the empty vertex set")
        self.algebra = a
        self.quiver, self.arrow_ids, self.dim = _corner_arrows(
            a, e.vertex_subset)

    def path_value(self, path):
        """Value in A of an arrow-name path (application order)."""
        return _path_value(self.algebra, self.arrow_ids, path)


def _present(corner):
    """(algebra, arrow ids): a raw algebra or a CornerQuiver re-presented as
    `represent` says, and for each arrow name the basis id that the arrow
    is, of the raw algebra or of the corner's `algebra`."""
    raw = isinstance(corner, Algebra)
    if raw:
        corner = CornerQuiver(corner, Idempotent.of(corner.vertices))
    a, quiver, arrow_ids = corner.algebra, corner.quiver, corner.arrow_ids
    arrow = quiver.arrow_by_name
    values = {}    # normal word of positive length -> its value in a
    spans = defaultdict(TrackedSpan)  # block -> its words of length >= 2

    def relation_at(i, p, w):
        b = arrow_ids[p[-1]]
        if len(p) == 1:
            values[i] = {b: F1}
            return None
        value = a.mult_elements({b: F1}, values[w])
        key = (arrow[p[0]].source, arrow[p[-1]].target)
        if any((a.basis_src[j], a.basis_tgt[j]) != key for j in value):
            raise InvalidPresentation("re-presentation leaves its block")
        combo = spans[key].add(value, p)
        if combo is None:
            values[i] = value
            return None
        return sorted(((exact(c), q) for q, c in combo.items()),
                      key=lambda t: (len(t[1]), t[1]))

    generators = []
    words, collapse = _normal_words(quiver, generators, corner.dim + 2,
                                    relation_at)
    if collapse is not None:
        raise InternalError("found relations put shorter normal words "
                            "into the ideal")
    if len(words[0]) != corner.dim:
        raise NotAdmissible("radical is not nilpotent")
    pres = BoundQuiverPresentation(quiver, [g[0] for g in generators])
    # a corner B of an algebra A that hga presented needs no nilpotency
    # check: the rank test below makes B's words a basis of eAe that
    # products respect, so B is isomorphic to eAe, and rad(eAe)^k lies in
    # e·rad(A)^k·e, which is 0 once rad(A)^k is
    alg = _on_words(pres, words,
                    nilpotent=not raw and a.presentation is not None,
                    ambient=None if raw else a,
                    arrow_ambient=None if raw else dict(arrow_ids))
    # with as many normal words as basis elements, their values form a basis
    # of each block exactly when they are independent there; those of
    # length >= 2 already are, so adding the vertices and arrows is the
    # rank test
    for s, t, b in ([(v, v, a.e_index[v]) for v in quiver.vertices]
                    + [(ar.source, ar.target, arrow_ids[ar.name])
                       for ar in quiver.arrows]):
        if (a.basis_src[b], a.basis_tgt[b]) != (s, t):
            raise InvalidPresentation("re-presentation leaves its block")
        if spans[(s, t)].add({b: F1}) is not None:
            raise InvalidPresentation("re-presentation basis is degenerate")
    return alg, arrow_ids


def minimal_presentation(a):
    """Quiver with rad/rad^2 arrows plus a minimal generating set of the
    kernel ideal, as `represent` finds them.

    Returns the presentation and, for each arrow name, the basis id of `a`
    that the arrow is."""
    alg, arrow_ids = _present(a)
    return alg.presentation, arrow_ids


def represent(corner):
    """Rebuild a raw structure-constant algebra, or a corner read in its
    ambient (a `CornerQuiver`), as a presented one, in one pass over its
    normal words.

    The arrows are those of `_corner_arrows`, with every vertex kept for a
    raw algebra.  `_normal_words` then runs with no relation given.  The
    value of each candidate that is not a tip is its arrow times the value
    of its prefix.  It must stay in its block, and it is reduced against
    the values of the normal words of length >= 2 in that block.  An
    independent value makes the candidate a normal word.  A dependent one
    gives a relation: the candidate minus the normal words with the same
    value.  The relations appear in (length, block, lex) order, each with
    its tip at coefficient 1.

    The normal words must be as many as the basis elements, or the radical
    is not nilpotent (NotAdmissible); with the vertices and arrows their
    values must be independent in each block, or the basis is degenerate
    (InvalidPresentation).  A corner's result records the corner's
    `algebra` as `ambient` and its arrow ids as `arrow_ambient`; a raw
    algebra's records neither.
    """
    return _present(corner)[0]


def idempotent_subalgebra(a, e):
    """Corner algebra eAe for a vertex-subset idempotent, re-presented on its
    own quiver (that of `CornerQuiver(a, e)`), with ambient `a`."""
    return represent(CornerQuiver(a, e))


def quotient_by_idempotent(a, f):
    """Quotient of a by the two-sided ideal generated by a vertex-subset
    idempotent f, with ambient `a`.

    The algebra map that kills the paths through f takes the path algebra
    of a's quiver onto that of its full subquiver on the kept vertices.  So
    the quotient is presented there by a's relations with their terms
    through f dropped, and built from that presentation.  Its arrows are
    a's arrows between kept vertices, under a's names.

    Every normal word of the quotient is a normal word of a (a tip of a's
    ideal off f is the tip of its image).  With homogeneous relations the
    pass over normal words meets no others, so one past a's longest basis
    word is enough, where `build_algebra`'s default may not be (a's words
    can outrun it, when a was built with a larger cap).  Relations of
    mixed lengths can put longer words in a pass before a shorter relation
    collapses them, as x^2 - x^3 with x^5 does, which the default allows
    for.  The cap is the larger of the two."""
    f.validate(a.vertices)
    cut = f.vertex_subset
    arrows = [ar for ar in a.quiver.arrows
              if ar.source not in cut and ar.target not in cut]
    names = {ar.name for ar in arrows}
    relations = []
    for r in a.presentation.relations:
        terms = [(c, p) for c, p in r.terms if names.issuperset(p)]
        if terms:
            relations.append(terms)
    quiver = Quiver([v for v in a.vertices if v not in cut], arrows)
    cap = max(1 + max(map(len, a.basis_labels[len(a.vertices):]), default=0),
              _default_cap(quiver, relations))
    return build_algebra(
        BoundQuiverPresentation(quiver, relations), length_cap=cap, ambient=a,
        arrow_ambient={ar.name: a.arrow_class[ar.name] for ar in arrows})
