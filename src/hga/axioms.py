"""Structural axioms for higher gentle algebras.

All relation membership is decided semantically in the built algebra:
a composition lies in the ideal iff its value is zero, and two parallel
paths are commutativity-related iff their values are proportional and
nonzero.  Squares and cube faces "commute" only when the shared value is
nonzero; squares whose both routes vanish do not count as cubes.  Every
check reads these degree-two relations from one table per algebra or
corner quiver, `_TwoPaths`, which evaluates each 2-path once.

Each check takes an Algebra and reads its quiver from ``alg.quiver``.  A
public check also takes a presentation, and builds its algebra once for
that call.  The checks that read only the quiver and its 2-path values (the
commutativity squares, the sandwiches and the cube search) also take a
``CornerQuiver``: a corner's arrows and path values read in its ambient
algebra, with no raw corner built and nothing re-presented.
"""

import copy
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .algebras import (
    Algebra,
    CornerQuiver,
    _generator,
    _normal_words,
    build_algebra,
    idempotent_subalgebra,
)
from .errors import (
    EmptyIdempotent,
    InternalError,
    NotAdmissible,
    UnknownArrow,
)
from .linalg import F1, TrackedSpan, div
from .memo import memo
from .presentations import Idempotent, RelationElement

IDEMPOTENT_CAP = 2 ** 20  # subsets tried before "pass-up-to-cap"


def _as_algebra(a):
    """a itself when it is an Algebra, else the algebra of the presentation a,
    built for this call.  A CornerQuiver is refused: it has no basis of its
    own to build dimensions, opposites or closures from."""
    if isinstance(a, CornerQuiver):
        raise TypeError("this check needs an Algebra or a presentation, "
                        "not a CornerQuiver")
    return a if isinstance(a, Algebra) else build_algebra(a)


def _as_quiver_values(a):
    """a itself when it is an Algebra or a CornerQuiver, else _as_algebra(a):
    for the checks that read only a quiver and its 2-path values."""
    return a if isinstance(a, CornerQuiver) else _as_algebra(a)


def _closure_dim(alg, relations):
    """Dimension of the algebra of alg's quiver modulo relations, or None
    when path classes still appear past the length cap
    max(2·|Q0|, rad nilpotency of alg + 2, 8): its number of normal words,
    with no algebra built, as the relations are quadratic."""
    quiver = alg.quiver
    cap = max(2 * len(quiver.vertices), alg.rad_nilpotency() + 2, 8)
    try:
        return len(_normal_words(quiver, [
            _generator(quiver, r.terms) for r in relations], cap)[0][0])
    except NotAdmissible:
        return None


def _proportional(x, y):
    """Nonzero proportionality coefficient c with x = c*y, else None."""
    if not x or not y or set(x) != set(y):
        return None
    items = iter(x.items())
    k0, c0 = next(items)
    ratio = div(c0, y[k0])
    for k, c in x.items():
        if c != ratio * y[k]:
            return None
    return ratio


class _TwoPaths:
    """The degree-two relations of an Algebra or a CornerQuiver, read off the
    values of its 2-paths, each evaluated once.

    ``blocks[(x, z)]`` is (zero, classes, rank) for the 2-paths x -> z in
    name order: those whose value is zero, the classes of those whose values
    are nonzero and proportional, each a list of (path, c) with the path's
    value c times that of the class's first path, and the rank of the nonzero
    values.  The blocks are in (str(x), str(z)) order.  ``class_of`` maps
    each nonzero 2-path to its class: a 2-path is zero when it has none, and
    two are commutativity-related when their classes are one object."""

    def __init__(self, alg):
        quiver = alg.quiver
        paths = {}
        for a in quiver.arrows:
            for b in quiver.arrows_from[a.target]:
                paths.setdefault((a.source, b.target), []).append(
                    (a.name, b.name))
        self.blocks = {}
        self.class_of = {}
        for key in sorted(paths, key=lambda k: (str(k[0]), str(k[1]))):
            zero, classes, values = [], [], []
            for path in sorted(paths[key]):
                value = alg.path_value(path)
                if not value:
                    zero.append(path)
                    continue
                for cls, rep in zip(classes, values):
                    c = _proportional(value, rep)
                    if c is not None:
                        cls.append((path, c))
                        break
                else:
                    classes.append([(path, F1)])
                    values.append(value)
            rank = len(values)
            if rank > 1:
                span = TrackedSpan()
                rank = sum(span.add(v) is None for v in values)
            self.blocks[key] = (zero, classes, rank)
            for cls in classes:
                for path, _ in cls:
                    self.class_of[path] = cls


def _two_paths(a):
    """The `_TwoPaths` of an Algebra or a CornerQuiver, memoised on it."""
    return memo(a, "two_paths", lambda: _TwoPaths(a))


def _strong_successors(alg):
    """{arrow name: the names of its strong successors, sorted} of an
    Algebra, memoised on it.  beta is a strong successor of alpha when the
    composition is nonzero and not commutativity-paired with any other
    length-2 path: its class holds it alone.  The strong predecessors of
    alg are the strong successors of alg.opposite()."""
    def compute():
        quiver, class_of = alg.quiver, _two_paths(alg).class_of
        return {a.name: tuple(sorted(
            b.name for b in quiver.arrows_from[a.target]
            if len(class_of.get((a.name, b.name), ())) == 1))
            for a in quiver.arrows}

    return memo(alg, "strong successors", compute)


def strong_neighbors(a, arrow_name):
    """Strong successors and predecessors of an arrow, read from
    `_strong_successors` of A and of A^op."""
    alg = _as_algebra(a)
    if arrow_name not in alg.quiver.arrow_by_name:
        raise UnknownArrow(f"unknown arrow {arrow_name!r}")
    return {
        "strongSuccessors": list(_strong_successors(alg)[arrow_name]),
        "strongPredecessors": list(
            _strong_successors(alg.opposite())[arrow_name]),
    }


@dataclass
class CubeWitness:
    m: int
    vertices: dict          # frozenset of directions -> quiver vertex
    arrows: dict            # (frozenset, direction) -> arrow name
    faces: list = field(default_factory=list)

    def to_dict(self):
        key = lambda s: "".join(str(d) for d in sorted(s))
        return {
            "m": self.m,
            "vertices": {key(s): v for s, v in sorted(
                self.vertices.items(), key=lambda kv: (len(kv[0]), key(kv[0]))
            )},
            "arrows": {f"{key(s)}+{d}": a for (s, d), a in sorted(
                self.arrows.items(),
                key=lambda kv: (len(kv[0][0]), key(kv[0][0]), kv[0][1]),
            )},
        }


def _cube_edges(m):
    """The edges (subset, direction) of an m-cube in search order: by the
    size of the source subset, then the subset (in the lexicographic order
    `combinations` yields), then the direction."""
    return [(frozenset(s), d)
            for size in range(m) for s in combinations(range(m), size)
            for d in range(m) if d not in s]


def _cube_walk(pending, vertices, used, arrows, state, out, target,
               face_ok, step):
    """Complete a partial cube; yields (vertices, arrows, state) copies.

    ``pending`` lists the edges (subset, direction) still to place, in
    ``_cube_edges`` order; ``vertices`` maps the placed subsets to their
    vertices, all distinct and held in ``used``, and ``arrows`` maps the
    placed edges to their labels.  An edge leaving vertex x is a label in
    ``out[x]`` that lands on ``target(label)``.  ``step(state, label)``
    gives the state after placing it, or None to reject it.  A face is
    tested once its last edge is placed, by ``face_ok(first, second,
    first', second')`` on its two routes.  A vertex repeated along a branch
    stays repeated, so an edge that would repeat one is rejected when it is
    placed.
    """
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
        # edges of smaller subsets come first, so (sub, j) and (sub, d) are
        # placed; the face is complete once (sub + d, j) is
        ok = True
        for j in s:
            sub = s - {j}
            other = arrows.get((sub | {d}, j))
            if other is not None and not face_ok(
                    arrows[(sub, j)], label, arrows[(sub, d)], other):
                ok = False
                break
        if ok:
            if prev is None:
                vertices[target_set] = v
                used.add(v)
            yield from _cube_walk(rest, vertices, used, arrows, nxt, out,
                                  target, face_ok, step)
            if prev is None:
                del vertices[target_set]
                used.discard(v)
        del arrows[(s, d)]


def _cube_search(alg, m, fixed_corner=None, fixed_arrows=None):
    """All directed m-cubes with commuting (nonzero) faces in the quiver of
    a built algebra or a CornerQuiver; canonical order.

    fixed_corner/fixed_arrows pin the source vertex and the ordered arrows
    leaving it (used by (A3) uniqueness counting).
    """
    quiver = alg.quiver
    arrow = quiver.arrow_by_name
    out = {v: sorted(a.name for a in arrs)
           for v, arrs in quiver.arrows_from.items()}
    class_of = _two_paths(alg).class_of

    def face_ok(a1, b1, a2, b2):
        cls = class_of.get((a1, b1))
        return cls is not None and cls is class_of.get((a2, b2))

    edges = _cube_edges(m)
    results = []
    corners = [fixed_corner] if fixed_corner is not None else sorted(
        quiver.vertices, key=str
    )
    for corner in corners:
        vertices = {frozenset(): corner}
        arrows = {}
        for d, name in enumerate(fixed_arrows or ()):
            arrows[(frozenset(), d)] = name
            vertices[frozenset({d})] = arrow[name].target
        used = set(vertices.values())
        if len(used) != len(vertices) or any(
                arrow[name].source != corner for name in fixed_arrows or ()):
            continue
        pending = [sd for sd in edges if sd not in arrows]
        results.extend(
            CubeWitness(m, vs, arrs) for vs, arrs, _ in _cube_walk(
                pending, vertices, used, arrows, 0, out,
                lambda name: arrow[name].target, face_ok,
                lambda state, name: state))
    return results


def find_m_cubes(a, m):
    """All m-cubes with commuting faces, deduplicated up to cube symmetry."""
    if m < 2:
        raise ValueError("cube dimension must be at least 2")
    raw = _cube_search(_as_quiver_values(a), m)
    seen = {}
    for cube in raw:
        keys = []
        for perm in permutations(range(m)):
            relabeled = tuple(sorted(
                ("".join(sorted(str(perm[d]) for d in s)), v)
                for s, v in cube.vertices.items()
            ))
            arrows = tuple(sorted(
                ("".join(sorted(str(perm[d]) for d in s)), perm[d2], a)
                for (s, d2), a in cube.arrows.items()
            ))
            keys.append((relabeled, arrows))
        canon = min(keys)
        if canon not in seen:
            seen[canon] = cube
    return [seen[k] for k in sorted(seen)]


@dataclass
class SandwichWitness:
    config: int
    square: dict            # x, y, routes [(a, b, mid), (c, d, mid)]
    zero_pre: tuple         # (attached arrow, killed arrow)
    zero_post: tuple
    commutativity: tuple    # the two routes as arrow-name pairs

    def to_dict(self):
        return {
            "config": self.config,
            "square": self.square,
            "zeroRelations": [list(self.zero_pre), list(self.zero_post)],
            "commutativity": [list(r) for r in self.commutativity],
        }


def commutativity_squares(a):
    """Pairs of parallel 2-paths with proportional nonzero values and
    distinct middle vertices; four corners pairwise distinct."""
    alg = _as_quiver_values(a)
    quiver = alg.quiver
    arrow = quiver.arrow_by_name
    # a square lists its routes in the quiver's order of their first arrows
    order = {ar.name: i for i, ar in enumerate(quiver.arrows)}
    squares = []
    for (x, y), (_, classes, _) in _two_paths(alg).blocks.items():
        for cls in classes:
            for (p1, _), (p2, _) in combinations(cls, 2):
                routes = sorted([p1 + (arrow[p1[0]].target,),
                                 p2 + (arrow[p2[0]].target,)],
                                key=lambda r: order[r[0]])
                if len({x, y, routes[0][2], routes[1][2]}) == 4:
                    squares.append({"x": x, "y": y, "routes": routes})
    squares.sort(key=lambda s: (str(s["x"]), str(s["y"]), s["routes"]))
    return squares


def find_sandwiches(a):
    """Complete matches of the four sandwich configurations.

    A configuration only counts when it is the full local picture: the two
    routes of the commutativity square are ALL of the arrows leaving x and
    ALL of the arrows entering y, the six vertices involved are pairwise
    distinct, and the quiver has no further arrow between any two of the
    six vertices.  This is what it means for the commutativity class to be
    trapped: every continuation and every precomposition is blocked by the
    two zero relations.  A partial match at a vertex with extra arrows is
    the shadow of higher-dimensional mesh geometry (the class escapes along
    the remaining direction) and obstructs nothing.

    Since the six vertices are distinct, a quiver with fewer than six has
    no match; `is_d_gentle_certificate` skips the hull's scan on that
    count.
    """
    alg = _as_quiver_values(a)
    quiver = alg.quiver
    out = []
    class_of = _two_paths(alg).class_of

    def zero2(first, second):
        return (first, second) not in class_of

    def emit(config, sq, square_names, z1, v1, z2, v2, killed_pre,
             killed_post, routes):
        span = {sq["x"], sq["y"], sq["routes"][0][2], sq["routes"][1][2],
                v1, v2}
        if len(span) != 6:
            return
        induced = {a.name for a in quiver.arrows
                   if a.source in span and a.target in span}
        if induced != square_names | {z1, z2}:
            return
        out.append(SandwichWitness(
            config, sq, (z1, killed_pre), (z2, killed_post), routes))

    for sq in commutativity_squares(alg):
        x, y = sq["x"], sq["y"]
        r0, r1 = sq["routes"]
        if {a.name for a in quiver.arrows_from[x]} != {r0[0], r1[0]}:
            continue
        if {a.name for a in quiver.arrows_to[y]} != {r0[1], r1[1]}:
            continue
        square_names = {r0[0], r0[1], r1[0], r1[1]}
        by_name = lambda z: z.name
        for ra, rb in [(0, 1), (1, 0)]:
            a_first, a_second, a_mid = sq["routes"][ra]
            b_first, b_second, b_mid = sq["routes"][rb]
            pre_x = sorted((z for z in quiver.arrows_to[x]
                            if zero2(z.name, a_first)), key=by_name)
            post_y = sorted((z for z in quiver.arrows_from[y]
                             if zero2(b_second, z.name)), key=by_name)
            in_mid_b = sorted((z for z in quiver.arrows_to[b_mid]
                               if zero2(z.name, b_second)), key=by_name)
            out_mid_a = sorted((z for z in quiver.arrows_from[a_mid]
                                if zero2(a_first, z.name)), key=by_name)
            in_mid_a = sorted((z for z in quiver.arrows_to[a_mid]
                               if zero2(z.name, a_second)), key=by_name)
            out_mid_b = sorted((z for z in quiver.arrows_from[b_mid]
                                if zero2(b_first, z.name)), key=by_name)
            routes = (
                (a_first, a_second),
                (b_first, b_second),
            )
            for z1 in pre_x:
                for z2 in post_y:
                    emit(1, sq, square_names, z1.name, z1.source,
                         z2.name, z2.target, a_first, b_second, routes)
            for z1 in in_mid_a:
                for z2 in out_mid_b:
                    emit(2, sq, square_names, z1.name, z1.source,
                         z2.name, z2.target, a_second, b_first, routes)
            for z1 in pre_x:
                for z2 in in_mid_b:
                    emit(3, sq, square_names, z1.name, z1.source,
                         z2.name, z2.source, a_first, b_second, routes)
            for z1 in out_mid_a:
                for z2 in post_y:
                    emit(4, sq, square_names, z1.name, z1.target,
                         z2.name, z2.target, a_first, b_second, routes)
    out.sort(key=lambda w: (w.config, str(w.square["x"]), str(w.square["y"]),
                            w.zero_pre, w.zero_post))
    return out


def _read_only(self, *args, **kwargs):
    raise TypeError("a report part is read-only; copy.deepcopy gives an "
                    "editable copy")


class ReadOnlyDict(dict):
    """A report part: a dict whose mutators raise TypeError.  It compares,
    prints and encodes to JSON as a plain dict does, and `copy.deepcopy`
    turns it into a plain dict that can be edited."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _read_only

    def __deepcopy__(self, seen):
        return {k: copy.deepcopy(v, seen) for k, v in self.items()}

    def __reduce__(self):
        return type(self), (dict(self),)


class ReadOnlyList(list):
    """A report part: a list whose mutators raise TypeError, as
    `ReadOnlyDict` is a dict."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = append = clear = \
        extend = insert = pop = remove = reverse = sort = _read_only

    def __deepcopy__(self, seen):
        return [copy.deepcopy(v, seen) for v in self]

    def __reduce__(self):
        return type(self), (list(self),)


def _frozen(x):
    """x with every plain dict and list in it made read-only, built once;
    a part that is read-only already is kept as it is."""
    if type(x) is dict:
        return ReadOnlyDict({k: _frozen(v) for k, v in x.items()})
    if type(x) is list:
        return ReadOnlyList([_frozen(v) for v in x])
    return x


@dataclass
class AxiomReport:
    """Axiom entries by name, each a read-only part, maybe shared through
    the memo with other reports on the same algebra."""
    entries: dict
    d: int

    @property
    def verdict(self):
        return all(e["pass"] for e in self.entries.values())

    def to_dict(self):
        """The report as JSON-ready data.  Only its own two dicts are built
        here; the entries are handed out as they are, read-only, so editing
        one raises TypeError and never reaches another report.
        `copy.deepcopy` of the result gives plain containers to edit."""
        return {
            "d": self.d,
            "axioms": {k: self.entries[k] for k in sorted(self.entries)},
            "verdict": self.verdict,
        }


def check_axiom_a4(a):
    """Ideal generated by zero paths and commutativity relations of length 2.

    The kernel of a block's 2-path values is spanned by its 1- and 2-term
    vectors, the zero paths and the differences within a class, exactly
    when the values of the classes are independent: when the rank of the
    block is its number of classes.  Those relations then span every
    degree-two relation, and the ideal they generate must be all of it."""
    alg = _as_algebra(a)
    blocks = _two_paths(alg).blocks
    bad = [key for key, (_, classes, rank) in blocks.items()
           if rank != len(classes)]
    if bad:
        return {"pass": False, "witnesses": [{
            "block": [str(v) for v in bad[-1]],
            "reason": "kernel not spanned by 1- and 2-term vectors"}]}
    relations = []
    for zero, classes, _ in blocks.values():
        relations += [RelationElement([(F1, p)]) for p in zero]
        relations += [RelationElement([(F1, p), (-c, cls[0][0])])
                      for cls in classes for p, c in cls[1:]]
    quad_dim = _closure_dim(alg, relations)
    if quad_dim == alg.dim:
        return {"pass": True, "witnesses": []}
    return {"pass": False, "witnesses": [{
        "reason": "ideal needs generators of length > 2",
        "quadraticDim": quad_dim, "dim": alg.dim}]}


def check_axioms(a, d):
    """Axioms (A1)-(A4) and (E1)-(E3), checked exhaustively."""
    alg = _as_algebra(a)
    return AxiomReport(dict(_cover_axioms(alg, d), E3=_e3_entry(alg)), d)


def _e3_entry(alg):
    """(E3): no complete sandwich configuration in alg; read-only."""
    sandwiches = find_sandwiches(alg)
    return _frozen({"pass": not sandwiches,
                    "witnesses": [s.to_dict() for s in sandwiches[:5]]})


# (E3) of a corner with fewer than six vertices, which holds no sandwich
# (`find_sandwiches`)
_NO_SANDWICH = _frozen({"pass": True, "witnesses": []})


def _cover_axioms(alg, d):
    """(A1)-(A4) and (E1)-(E2) of alg at degree bound d, memoised on alg
    per d.

    Every caller gets the same entries, built read-only once: the dict and
    every dict and list in it raise TypeError on any change, so a report
    hands them out uncopied."""
    return memo(alg, ("axioms", d), lambda: _frozen(_axiom_entries(alg, d)))


def _axiom_entries(alg, d):
    """(A1)-(A4) and (E1)-(E2) of alg at degree bound d.  Each primed axiom
    and (E1) is its partner read on alg.opposite(), whose successors are
    alg's predecessors."""
    entries = {"A4": check_axiom_a4(alg)}
    for side, names, word in (
            (alg, ("A1", "A2", "A3", "E2"), "Successors"),
            (alg.opposite(), ("A1'", "A2'", "A3'", "E1"), "Predecessors")):
        entries.update(zip(names, _one_side(side, d, word)))
    return entries


def _one_side(alg, d, word):
    """(A1), (A2), (A3) and (E2) of alg at degree bound d, each an entry,
    with witnesses that name an arrow's strong and zero ``word``."""
    quiver = alg.quiver
    class_of = _two_paths(alg).class_of
    strong = sorted(_strong_successors(alg).items())

    def entry(witnesses):
        return {"pass": not witnesses, "witnesses": witnesses}

    # (A1): at most d arrows leave a vertex; (A2): at most one strong
    # successor follows an arrow
    a1 = [str(v) for v in quiver.vertices if len(quiver.arrows_from[v]) > d]
    a2 = [{"arrow": n, "strong" + word: list(s)} for n, s in strong
          if len(s) > 1]
    # (A3): unique (m+1)-cube for 1 < m < d
    a3 = []
    for name, succ in strong:
        corner = quiver.arrow_by_name[name].target
        for beta in succ:
            candidates = sorted(
                b.name for b in quiver.arrows_from[corner]
                if b.name != beta and (name, b.name) in class_of
            )
            for m in range(2, d):
                for combo in combinations(candidates, m):
                    cubes = _count_corner_cubes(alg, corner, (beta,) + combo)
                    if cubes != 1:
                        a3.append({"arrow": name, "beta": beta,
                                   "others": list(combo), "cubes": cubes})
    # (E2): per arrow, at most one arrow after it with zero composition
    e2 = []
    for g in quiver.arrows:
        zeros = sorted(
            b.name for b in quiver.arrows_from[g.target]
            if (g.name, b.name) not in class_of
        )
        if len(zeros) > 1:
            e2.append({"arrow": g.name, "zero" + word: zeros})
    return entry(a1), entry(a2), entry(a3), entry(e2)


def _count_corner_cubes(alg, corner, arrow_names):
    """Number of (len(arrow_names))-cubes rooted at corner with exactly the
    given outgoing arrows, in the given direction order, in the quiver of a
    built algebra.  On ``alg.opposite()`` this counts the cubes ending at
    corner with the given incoming arrows."""
    return len(_cube_search(alg, len(arrow_names), fixed_corner=corner,
                            fixed_arrows=list(arrow_names)))


# ---------------------------------------------------------------------------
# Corner-idempotent analysis
#
# For algebras whose basis multiplies monomially (every product of basis
# elements is a scalar multiple of a single basis element), the quiver of any
# corner eAe can be read off with bitmasks: a positive basis element b with
# endpoints inside e is an arrow of eAe iff none of its factorization middle
# vertices lies in e.  A violation of (E1)-(E3), or a d-cube, in some corner
# is then a finite pattern of basis elements whose required vertices avoid
# all the forbidden middles; the corner spanned by exactly the required
# vertices realizes it.  This decides the quantification over all 2^n
# idempotents without enumerating them.
# A corner B = eAe of a monomial A is monomial, and `represent` maps B's
# basis onto the ids of eAe, each word to a multiple of one id, respecting
# products: so B's scan is A's restricted to e, and both find a cube or not.
# ---------------------------------------------------------------------------


def _mask_tables(a):
    return memo(a, "mask_tables", lambda: _build_mask_tables(a))


def _build_mask_tables(a):
    if not a.monomial:
        raise ValueError("mask tables need a monomial multiplication table")
    nv = len(a.vertices)
    vbit = {v: 1 << i for i, v in enumerate(a.vertices)}
    # the positive basis elements from each vertex, by label
    by_source = {v: sorted((b for b in ids if b >= nv),
                           key=a.basis_labels.__getitem__)
                 for v, ids in a.basis_index().source.items()}
    vm = {j: vbit[a.basis_src[j]] | vbit[a.basis_tgt[j]]
          for j in range(nv, a.dim)}
    return {"vm": vm, "mid": a.radical_products()[0],
            "by_source": by_source}


def _mask_vertices(a, mask):
    return [v for i, v in enumerate(a.vertices) if mask & (1 << i)]


def _corner_cube_violation(a, m, keep=None):
    """A corner f with an m-cube in the quiver of fAf, or None; with a
    vertex set ``keep``, an f inside it, as for the corner keep·A·keep.

    The search places the cube's edges (positive basis elements between
    kept vertices) one at a time in ``_cube_edges`` order and returns the
    first cube with commuting faces, distinct vertices and required vertices
    ``req`` (all kept) disjoint from the forbidden middles ``forb``.  Along
    a branch the placed vertices, ``req`` and ``forb`` only grow, so a
    repeated vertex or a nonzero ``req & forb`` is never undone by a later
    edge: an element that causes either is rejected when it is placed.  No
    pruned branch holds a passing cube, so the first witness is the one the
    unpruned search finds.

    A cube's 2^m vertices are distinct and kept, so with fewer than 2^m
    kept vertices there is none, and nothing is built or walked.
    """
    if len(a.vertices if keep is None else keep) < 2 ** m:
        return None
    t = _mask_tables(a)
    vm, mid, mult = t["vm"], t["mid"], a.mult
    lab = a.basis_labels
    kept = ~0 if keep is None else sum(1 << a.e_index[v] for v in keep)
    out = {v: [b for b in t["by_source"][v] if not vm[b] & ~kept]
           for v in _mask_vertices(a, kept)}

    def face_ok(a1, b1, a2, b2):
        # each product is a multiple of one basis element
        p1, p2 = mult.get((b1, a1)), mult.get((b2, a2))
        return p1 and p2 and p1.keys() == p2.keys()

    def step(state, b):
        req, forb = state[0] | vm[b], state[1] | mid[b]
        return None if req & forb else (req, forb)

    edges = _cube_edges(m)
    for corner in sorted(out, key=str):
        found = next(_cube_walk(edges, {frozenset(): corner}, {corner}, {},
                                (0, 0), out, a.basis_tgt.__getitem__,
                                face_ok, step), None)
        if found:
            vertices, arrows, (req, _) = found
            key = lambda s: "".join(str(d) for d in sorted(s))
            return {
                "subset": _mask_vertices(a, req),
                "m": m,
                "vertices": {key(s): v for s, v in vertices.items()},
                "arrows": {f"{key(s)}+{d}": lab[b]
                           for (s, d), b in arrows.items()},
            }
    return None


def _subsets_largest_first(vertices, cap):
    """Nonempty vertex subsets, largest first, lexicographic within a size."""
    n = len(vertices)
    count = 0
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            if count >= cap:
                return
            count += 1
            yield [vertices[i] for i in combo]


@dataclass
class PreGentleReport:
    axioms: AxiomReport
    e4: dict                # read-only
    hull: list = None       # the cover hull's vertex names, read-only, for
                            # certificates

    @property
    def verdict(self):
        if not self.axioms.verdict or self.e4["verdict"] == "fail":
            return "fail"
        return self.e4["verdict"]

    def to_dict(self):
        return {
            "axioms": self.axioms.to_dict(),
            "E4": self.e4,
            "verdict": self.verdict,
        }


def _witness_span(alg, key, w):
    """Vertices touched by an (E1)-(E3) witness."""
    if key == "E1":
        names = [w["arrow"]] + w["zeroPredecessors"]
    elif key == "E2":
        names = [w["arrow"]] + w["zeroSuccessors"]
    else:
        names = [n for r in w["commutativity"] for n in r]
        names += [z[0] for z in w["zeroRelations"]]
    span = set()
    for n in names:
        a = alg.quiver.arrow_by_name[n]
        span |= {a.source, a.target}
    return sorted(span, key=str)


def _heredity(entries, alg, e3_alg):
    """(E4) from the first failing (E1)-(E3) entry, read-only; its witness
    spans the vertices of alg (of e3_alg for (E3))."""
    witness = None
    for key in ("E1", "E2", "E3"):
        if not entries[key]["pass"]:
            witness = dict(entries[key]["witnesses"][0])
            witness["axiom"] = key
            witness["subset"] = _witness_span(
                e3_alg if key == "E3" else alg, key, witness)
            break
    return _frozen({"mode": "heredity", "complete": True, "cappedAt": None,
                    "witness": witness,
                    "verdict": "fail" if witness else "pass"})


def is_pre_gentle(a, d):
    """Axioms (A1)-(A4) and (E1)-(E4).

    (E4) asks that every corner eAe again satisfies (E1)-(E3).  Removing
    vertices only removes arrows and zero partners, and a complete sandwich
    configuration survives in a corner exactly when its six vertices do, so
    corner violations among the arrows of A localize to violations already
    visible at the top level; conversely a top-level witness IS a corner
    witness on the span of its participating vertices.  The check is
    therefore decided by the top-level (E1)-(E3) results, and the reported
    witness names the vertex subset on which the corner exhibits it.
    Composite corner arrows (paths of A surviving as arrows of eAe) do not
    participate: counting them would break heredity for the canonical mesh
    covers, whose corners collapse commuting squares onto configurations
    indistinguishable from genuine sandwiches.
    """
    alg = _as_algebra(a)
    report = check_axioms(alg, d)
    return PreGentleReport(report, _heredity(report.entries, alg, alg))


def is_gentle(a):
    """Classical gentle test: degree bounds, quadratic monomial ideal, and
    the one-in/one-out composition conditions."""
    alg = _as_algebra(a)
    quiver = alg.quiver
    failures = []
    for v in quiver.vertices:
        if len(quiver.arrows_from[v]) > 2:
            failures.append({"condition": "out-degree", "vertex": str(v)})
        if len(quiver.arrows_to[v]) > 2:
            failures.append({"condition": "in-degree", "vertex": str(v)})
    table = _two_paths(alg)
    for a in quiver.arrows:
        succ = [(b.name, (a.name, b.name) in table.class_of)
                for b in quiver.arrows_from[a.target]]
        pred = [(b.name, (b.name, a.name) in table.class_of)
                for b in quiver.arrows_to[a.source]]
        for cond, pairs, nonzero in [
            ("zero successors", succ, False),
            ("nonzero successors", succ, True),
            ("zero predecessors", pred, False),
            ("nonzero predecessors", pred, True),
        ]:
            lst = sorted(name for name, nz in pairs if nz == nonzero)
            if len(lst) > 1:
                failures.append({"condition": cond, "arrow": a.name,
                                 "arrows": lst})
    # quadratic monomial ideal: every degree-2 relation is a zero path, so
    # the nonzero 2-path values of each block are independent, and the
    # ideal is generated in degree 2
    zero_paths = []
    for key, (zero, classes, rank) in table.blocks.items():
        if rank != sum(map(len, classes)):
            failures.append({
                "condition": "commutativity relation",
                "block": [str(v) for v in key],
            })
        zero_paths.extend(zero)
    if not any(f["condition"] == "commutativity relation" for f in failures):
        quad_dim = _closure_dim(
            alg, [RelationElement([(F1, tuple(pth))]) for pth in zero_paths])
        if quad_dim != alg.dim:
            failures.append({"condition": "ideal not quadratic monomial"})
    return {"gentle": not failures, "failures": failures}


@dataclass
class GentleCertificate:
    """The report of `is_d_gentle_certificate`: its cube check is made on
    construction, read-only, and its corner re-presented on first read.
    Every part it stores is read-only, so `to_dict` builds only its own
    top-level dict and hands the parts out uncopied."""
    pre_gentle: PreGentleReport
    d: int
    cover: Algebra = field(repr=False)
    e: Idempotent = field(repr=False)
    cube_check: dict = field(init=False)

    def __post_init__(self):
        self.cube_check = _frozen(_cube_check(self))

    @property
    def corner(self):
        """The certified algebra e·cover·e, re-presented on first read."""
        return memo(self, "corner",
                    lambda: idempotent_subalgebra(self.cover, self.e))

    @property
    def verdict(self):
        if self.pre_gentle.verdict == "fail" or \
                self.cube_check["verdict"] == "fail":
            return "fail"
        if "pass-up-to-cap" in (self.pre_gentle.verdict,
                                self.cube_check["verdict"]):
            return "pass-up-to-cap"
        return "pass"

    def to_dict(self):
        out = {
            "d": self.d,
            "preGentle": self.pre_gentle.to_dict(),
            "cubeCheck": self.cube_check,
            "verdict": self.verdict,
        }
        if self.pre_gentle.hull is not None:
            out["hull"] = self.pre_gentle.hull
        return out


def _hull_idempotent(cover, e):
    """The cover's `Algebra.hull` of the e-vertices: those reached from one
    by a nonzero path and reaching one by another.  The two need not compose
    to a nonzero path, so the hull holds every vertex on a nonzero path
    between e-vertices and may hold more: for e on {247, 357} in A^3_3 it
    keeps 257, though every path 247 -> 257 -> 357 is zero.  Restricting
    the cover to this set leaves the corner e·cover·e unchanged, since
    every nonzero path between e-vertices passes only through its
    vertices."""
    return Idempotent.of(cover.hull(e.vertex_subset))


def is_d_gentle_certificate(cover, e, d):
    """Certify d-gentleness of B = e·cover·e.

    Checks three things, all with degree bound d + 1: the cover passes the
    degree/strong-successor/quadraticity axioms (A1)-(A4) and the zero-chain
    axioms (E1)-(E2); the part of the cover that actually covers B (the hull
    of e: the vertices reached from e by a nonzero path and reaching e by
    one, see `_hull_idempotent`) contains no sandwich configuration (E3);
    and no corner fBf contains a (d + 1)-cube in its quiver.  The shift
    d -> d + 1 is forced by the
    iterated construction: the canonical cover of a d-dimensional corner is
    built from (d + 1)-dimensional meshes, so its vertices carry up to
    d + 1 arrows and its quiver is full of commuting d-cubes; the
    obstruction one dimension up is what distinguishes the corner from the
    next layer.  At d = 1 this recovers the classical situation: a gentle
    algebra has a quadratic cover and no corner contains a commuting
    square.

    (E3) is localized to the hull because the cover may be cut down to the
    hull without changing B, so a sandwich elsewhere in the cover never
    obstructs B; inside the hull corner, zero relations of length greater
    than two participate only through their length-two consequences, which
    is automatic for the semantic detection used here.  The degree and
    strong-successor axioms stay at the full cover, where the mesh
    structure that justifies them lives.

    The cover-level checks depend only on (cover, d), so they are memoised
    on the cover algebra and shared by every corner certified against the
    same cover.  e is validated against the cover before its hull is taken.
    (E3) on the hull and the enumerated cube search read only a corner's
    quiver and the values of its 2-paths, so they run on a `CornerQuiver`,
    read in its ambient, and re-present nothing.  On a monomial cover the
    pattern scan reads the cover restricted to e, so a passing certificate
    re-presents no corner.  B is re-presented once, on the first read of
    ``corner``: to name the first cube of B, or to scan B itself.

    Each scan is skipped when its pattern cannot fit, and both bounds are
    exact, since a pattern's vertices are distinct: a hull of fewer than
    six vertices holds no sandwich, so it passes (E3) with no corner quiver
    built, and an e of fewer than 2^(d+1) vertices holds no (d + 1)-cube,
    so the pattern scan walks nothing (`_corner_cube_violation`).  (E4)
    reads the hull corner only when (E3) fails.
    """
    cover = _as_algebra(cover)
    e.validate(cover.vertices)
    if not e.vertex_subset:
        raise EmptyIdempotent("idempotent over the empty vertex set")
    hull = _hull_idempotent(cover, e)
    hull_corner = (CornerQuiver(cover, hull)
                   if len(hull.vertex_subset) >= 6 else None)
    e3 = _NO_SANDWICH if hull_corner is None else _e3_entry(hull_corner)
    entries = dict(_cover_axioms(cover, d + 1), E3=e3)
    e4 = _heredity(entries, cover, hull_corner)
    pre = PreGentleReport(AxiomReport(entries, d + 1), e4, ReadOnlyList(
        sorted(map(str, hull.vertex_subset))))
    return GentleCertificate(pre, d, cover, e)


def _cube_check(cert):
    """The cube check of a certificate, as `is_d_gentle_certificate` says."""
    cover, m = cert.cover, cert.d + 1
    if cover.monomial or cert.corner.monomial:
        witness = None
        if not cover.monomial or _corner_cube_violation(
                cover, m, cert.e.vertex_subset):
            witness = _corner_cube_violation(cert.corner, m)
            if witness is None and cover.monomial:
                raise InternalError("the cover and corner scans disagree")
        return {
            "mode": "pattern-scan",
            "complete": True,
            "cappedAt": None,
            "witness": witness,
            "verdict": "fail" if witness else "pass",
        }
    verts = sorted(cert.corner.vertices, key=str)
    total = 2 ** len(verts) - 1
    complete = total <= IDEMPOTENT_CAP
    witness = None
    for subset in _subsets_largest_first(verts, IDEMPOTENT_CAP):
        if len(subset) < 2 ** m:
            break
        cubes = find_m_cubes(
            CornerQuiver(cert.corner, Idempotent.of(subset)), m)
        if cubes:
            witness = {"subset": subset, "cube": cubes[0].to_dict()}
            break
    return {
        "mode": "enumeration",
        "complete": complete,
        "cappedAt": None if complete else IDEMPOTENT_CAP,
        "witness": witness,
        "verdict": "fail" if witness else (
            "pass" if complete else "pass-up-to-cap"),
    }
