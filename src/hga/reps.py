"""Representations of bound quiver algebras and the homological toolkit.

A representation assigns a rational vector space to each vertex and a matrix
to each arrow; the matrix of an arrow u -> w has shape dims[w] x dims[u].
Morphism blocks follow the same covariant convention.

A module is stored by its support, the vertices with a nonzero space:
``dims`` keys those vertices alone, ``maps`` the arrows whose two ends are
both in it, and a morphism's ``blocks`` the vertices where its source and
target are both nonzero.  Every other dimension is 0 (``dims.get(v, 0)``)
and every other matrix has a zero size, so ``==`` on ``dims`` and ``maps``
still compares whole modules.  Every step works on these supports.  An
object built with ``check=False`` stores what it is given, in the final
form that ``Representation`` and ``Morphism`` state; its matrices are
read-only, so objects may share them: where a map vanishes, its kernel
keeps the source's own matrices, and a resolution's differential the
cover map's block.
"""

import collections
import functools
import itertools
import math
import weakref

from . import linalg
from .errors import (
    AlgebraMismatch,
    InternalError,
    NotGorensteinVerified,
    ScaleExceeded,
    UnknownArrow,
    UnknownVertex,
)
from .linalg import F0, F1, exact
from .memo import memo, peek


class Representation:
    """dims and maps as the module docstring says; support is the tuple of
    the keys of dims, in vertex order.

    check=True, for outside data, validates dims and maps against the
    quiver and the relations and stores them normalised: zero dims and
    zero-size matrices dropped, a zero matrix for each map of the support
    not given, every entry made exact in a copy.  check=False stores the
    given dicts as they are, in final form: dims keyed by the support in
    vertex order, maps complete on it, per support vertex over its
    ``arrows_from``, with exact entries that are read-only from then on,
    for the caller and everyone else."""

    def __init__(self, algebra, dims, maps, check=True):
        self.algebra = algebra
        if check:
            dims, maps = self._normalised(dims, maps)
        self.support, self.dims, self.maps = tuple(dims), dims, maps
        if check:
            self._check()

    def _normalised(self, dims, maps):
        quiver, e_index = self.algebra.quiver, self.algebra.e_index
        for v, k in dims.items():
            if v not in e_index:
                raise UnknownVertex(f"unknown vertex {v!r}")
            if type(k) is not int or k < 0:
                raise ValueError(f"dimension {k!r} at vertex {v} is not "
                                 "a nonnegative integer")
        for name, m in maps.items():
            ar = quiver.arrow_by_name.get(name)
            if ar is None:
                raise UnknownArrow(f"unknown arrow {name!r}")
            cols = dims.get(ar.source, 0)
            if len(m) != dims.get(ar.target, 0) or any(
                    len(row) != cols for row in m):
                raise ValueError(f"matrix shape mismatch at arrow {ar.name}")
        own = {v: dims[v] for v in sorted((v for v, k in dims.items() if k),
                                          key=e_index.__getitem__)}
        out = {}
        for u, cols in own.items():
            for ar in quiver.arrows_from[u]:
                rows = own.get(ar.target)
                if rows:
                    m = maps.get(ar.name)
                    out[ar.name] = ([[F0] * cols for _ in range(rows)]
                                    if m is None else
                                    [[exact(x) for x in row] for row in m])
        return own, out

    def _check(self):
        quiver, dims = self.algebra.quiver, self.dims
        for rel in self.algebra.presentation.relations:
            src = quiver.path_source(rel.terms[0][1])
            tgt = quiver.path_target(rel.terms[0][1])
            if src not in dims or tgt not in dims:
                continue        # a map into or out of zero: nothing to check
            total = [[F0] * dims[src] for _ in range(dims[tgt])]
            for coef, path in rel.terms:
                total = linalg.mat_add(
                    total, linalg.mat_scale(coef, self.path_matrix(path)))
            if not all(all(x == 0 for x in row) for row in total):
                raise ValueError("representation does not satisfy the relations")

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def dim_vector(self):
        return tuple(self.dims.get(v, 0) for v in self.algebra.vertices)

    def is_zero(self):
        return not self.support

    def path_matrix(self, path):
        """Matrix of a path of arrow names (application order); a zero one
        when the path leaves the support."""
        maps = self.maps
        if not all(name in maps for name in path):
            quiver, dims = self.algebra.quiver, self.dims
            return [[F0] * dims.get(quiver.path_source(path), 0)
                    for _ in range(dims.get(quiver.path_target(path), 0))]
        mat = maps[path[0]]
        for name in path[1:]:
            mat = linalg.mat_mul(maps[name], mat)
        return mat

    def basis_matrix(self, i):
        """Matrix of the i-th algebra basis element on this representation."""
        alg = self.algebra
        if i < len(alg.vertices):
            return linalg.identity(self.dims.get(alg.vertices[i], 0))
        return self.path_matrix(alg.basis_labels[i])

    def __repr__(self):
        return f"Representation(dims={self.dims})"


class Morphism:
    """blocks as the module docstring says.  check=True, for outside data,
    validates each given block's vertex and shape, dims[target] x
    dims[source] there, as Representation does its maps, stores them
    normalised (a zero block where none is given, entries made exact in a
    copy) and checks that they commute with the arrows.  check=False stores
    the given dict, in final form: a block, zero ones included, at each
    vertex of the target's support where the source is nonzero, in that
    order, exact and read-only as for Representation."""

    def __init__(self, source, target, blocks, check=True):
        if source.algebra is not target.algebra:
            raise AlgebraMismatch("morphism between different algebras")
        self.source = source
        self.target = target
        self.blocks = blocks
        if check:
            self._validate(blocks)
            self.blocks = {}
            for v, rows in target.dims.items():
                cols = source.dims.get(v)
                if cols:
                    b = blocks.get(v)
                    self.blocks[v] = ([[F0] * cols for _ in range(rows)]
                                      if b is None else
                                      [[exact(x) for x in row] for row in b])
            self._check()

    def _validate(self, blocks):
        e_index = self.source.algebra.e_index
        for v in blocks:
            if v not in e_index:
                raise UnknownVertex(f"unknown vertex {v!r}")
        for v, b in blocks.items():
            cols = self.source.dims.get(v, 0)
            if len(b) != self.target.dims.get(v, 0) or any(
                    len(row) != cols for row in b):
                raise ValueError(f"block shape mismatch at vertex {v}")

    def _check(self):
        src, tgt, blocks = self.source, self.target, self.blocks
        for ar in src.algebra.quiver.arrows:
            u, w = ar.source, ar.target
            cols, rows = src.dims.get(u), tgt.dims.get(w)
            if not (cols and rows):
                continue
            zero = [[F0] * cols for _ in range(rows)]
            left = (linalg.mat_mul(tgt.maps[ar.name], blocks[u])
                    if u in blocks else zero)
            right = (linalg.mat_mul(blocks[w], src.maps[ar.name])
                     if w in blocks else zero)
            if left != right:
                raise ValueError(f"blocks do not commute with arrow {ar.name}")

    def compose(self, other):
        """self after other (other applied first).  other's target and
        self's source must be one module, or equal ones: the same dims and
        the same maps."""
        if other.target is not self.source and (
                other.target.dims != self.source.dims
                or other.target.maps != self.source.maps):
            raise AlgebraMismatch("morphisms not composable")
        src, outer, inner = other.source, self.blocks, other.blocks
        blocks = {}
        for v, rows in self.target.dims.items():
            cols = src.dims.get(v)
            if cols:
                blocks[v] = (linalg.mat_mul(outer[v], inner[v]) if v in inner
                             else [[F0] * cols for _ in range(rows)])
        return Morphism(src, self.target, blocks, check=False)

    def add(self, other):
        blocks = {v: linalg.mat_add(b, other.blocks[v])
                  for v, b in self.blocks.items()}
        return Morphism(self.source, self.target, blocks, check=False)

    def scale(self, c):
        c = exact(c)
        blocks = {v: linalg.mat_scale(c, b) for v, b in self.blocks.items()}
        return Morphism(self.source, self.target, blocks, check=False)

    def is_zero(self):
        return all(all(all(x == 0 for x in row) for row in b)
                   for b in self.blocks.values())

    def rank(self):
        """The rank of the whole map: the sum of the block ranks."""
        return sum(linalg.rank(b) for b in self.blocks.values())

    def flatten(self):
        out = []
        for b in self.blocks.values():
            for row in b:
                out.extend(row)
        return out

    def __repr__(self):
        return f"Morphism({self.source.dims} -> {self.target.dims})"


class _CoverMap(Morphism):
    """The cover map P_0 -> m kept in the resolution of m, memoised on m,
    with m held weakly, so that the memo entry does not hold its owner
    (see ``hga.memo``).  For a memoised P_v, P_0 is m and the map is its
    identity.  m is the target, and then the source, while it is alive;
    after that, a module with m's dims and maps, memoised on the map."""

    def __init__(self, source, blocks, m):
        self._source = None if source is m else source
        self.blocks = blocks
        self._target = weakref.ref(m)
        self._data = m.algebra, m.dims, m.maps

    @property
    def source(self):
        return self.target if self._source is None else self._source

    @property
    def target(self):
        m = self._target()
        return m if m is not None else memo(self, "target", lambda:
            Representation(*self._data, check=False))


def zero_representation(algebra):
    return Representation(algebra, {}, {}, check=False)


def zero_morphism(source, target):
    blocks = {v: [[F0] * source.dims[v] for _ in range(rows)]
              for v, rows in target.dims.items() if v in source.dims}
    return Morphism(source, target, blocks, check=False)


def identity_morphism(m):
    blocks = {v: linalg.identity(m.dims[v]) for v in m.support}
    return Morphism(m, m, blocks, check=False)


def projective(alg, v):
    """Indecomposable projective at a vertex: basis elements with source v.
    A weak entry on alg (see ``hga.memo``): the same object while anything
    holds it, as every resolution that covers by it does."""
    if v not in alg.e_index:
        raise UnknownVertex(f"unknown vertex {v!r}")
    return memo(alg, ("projective", v), lambda: _Projective(alg, v),
                weak=True)


class _Projective(Representation):
    """P_v as ``projective`` hands it out, the one shared by every cover
    with the single summand P_v."""

    def __init__(self, alg, v):
        data = _projective_data(alg, v)
        super().__init__(alg, data.dims, data.maps, check=False)
        self.vertex = v


def _projective_basis(alg, v):
    """The basis of P_v, memoised on alg: per vertex w of its support, in
    vertex order, the ids of the basis elements from v to w, and each id's
    position among them."""
    def compute():
        block = alg.basis_index().block
        basis_ids = {w: block[(v, w)] for w in alg.vertices
                     if (v, w) in block}
        pos = {i: k for ids in basis_ids.values() for k, i in enumerate(ids)}
        return basis_ids, pos

    return memo(alg, ("projective basis", v), compute)


def _basis_prefixes(alg):
    """The plan by which `from_generators` walks the basis of each P_v,
    memoised on alg: per basis id of a path, the id of its prefix and its
    last arrow (None at a vertex id).  The normal words of a presented
    algebra are closed under subpaths and numbered by length, so a path's
    prefix is a basis path from the same vertex with a smaller id, and
    P_v's basis in id order meets each prefix first; InternalError if
    not."""
    def compute():
        nv, labels, src = len(alg.vertices), alg.basis_labels, alg.basis_src
        ids = {labels[b]: b for b in range(nv, alg.dim)}
        prefix, last = [None] * alg.dim, [None] * alg.dim
        for b in range(nv, alg.dim):
            path = labels[b]
            p = (ids.get(path[:-1]) if len(path) > 1
                 else alg.e_index[src[b]])
            if p is None or p >= b or src[p] != src[b]:
                raise InternalError(f"the prefix of basis path {path} is "
                                    "not an earlier basis path")
            prefix[b], last[b] = p, path[-1]
        return prefix, last

    return memo(alg, "basis prefixes", compute)


_ProjectiveData = collections.namedtuple("_ProjectiveData",
                                         "support dims maps")


def _projective_data(alg, v):
    """The support, dims and maps of P_v, memoised on alg as plain data,
    which holds no module.  P_v itself is a weak entry (see ``hga.memo``),
    so a P_v built again shares these, and a sum of projectives reads
    them without building any P_v."""
    def compute():
        basis_ids, pos = _projective_basis(alg, v)
        arrows_from = alg.quiver.arrows_from
        maps = {}
        for u, col_ids in basis_ids.items():
            for ar in arrows_from[u]:
                row_ids = basis_ids.get(ar.target)
                if not row_ids:
                    continue
                mat = [[F0] * len(col_ids) for _ in row_ids]
                ai = alg.arrow_class[ar.name]
                for col, b in enumerate(col_ids):
                    for t, c in alg.mult_basis(ai, b).items():
                        mat[pos[t]][col] = c
                maps[ar.name] = mat
        dims = {w: len(ids) for w, ids in basis_ids.items()}
        return _ProjectiveData(tuple(dims), dims, maps)

    return memo(alg, ("projective data", v), compute)


def simple(alg, v):
    if v not in alg.e_index:
        raise UnknownVertex(f"unknown vertex {v!r}")
    loops = {ar.name: [[F0]] for ar in alg.quiver.arrows_from[v]
             if ar.target == v}
    return Representation(alg, {v: 1}, loops, check=False)


def dual(m):
    """D: representations of A to representations of the opposite algebra.
    Memoised on m, so D(P_v) and the injectives are shared objects whose
    resolutions are cached.  On a memoised P_v it is a weak entry: the
    resolution of D(P_v) covers by projectives of the opposite, whose
    duals' resolutions cover by P_v (see ``hga.memo``)."""
    return memo(m, "dual", lambda: _dual_module(m),
                weak=type(m) is _Projective)


def _dual_module(m):
    """D m, not memoised: each map transposed, in the opposite's order,
    per support vertex over the arrows into it."""
    arrows_to, dims, maps = m.algebra.quiver.arrows_to, m.dims, m.maps
    dual_maps = {ar.name: linalg.transpose(maps[ar.name])
                 for w in dims for ar in arrows_to[w] if ar.source in dims}
    return Representation(m.algebra.opposite(), dims, dual_maps, check=False)


def dual_morphism(f):
    """D on maps, contravariant: f: X -> Y gives D Y -> D X, between the
    memoised duals."""
    blocks = {v: linalg.transpose(b) for v, b in f.blocks.items()}
    return Morphism(dual(f.target), dual(f.source), blocks, check=False)


def injective(alg, v):
    return dual(projective(alg.opposite(), v))


def _sum_module(alg, reps):
    """The direct sum module alone, in final form, with each summand's first
    coordinate at every vertex of its support.  A summand is read through
    its support, dims and maps alone, so it may be a _ProjectiveData."""
    dims, offsets = {}, []
    for r in reps:
        offsets.append({v: dims.get(v, 0) for v in r.support})
        for v in r.support:
            dims[v] = dims.get(v, 0) + r.dims[v]
    dims = {v: dims[v] for v in sorted(dims, key=alg.e_index.__getitem__)}
    maps = {ar.name: [[F0] * k for _ in range(dims[ar.target])]
            for u, k in dims.items() for ar in alg.quiver.arrows_from[u]
            if ar.target in dims}
    for r, off in zip(reps, offsets):
        for name, rmat in r.maps.items():
            ar, mat = alg.quiver.arrow_by_name[name], maps[name]
            for i, row in enumerate(rmat, off[ar.target]):
                for j, x in enumerate(row, off[ar.source]):
                    if x:
                        mat[i][j] = x
    return Representation(alg, dims, maps, check=False), offsets


def direct_sum(reps):
    """Direct sum with inclusion and projection morphisms per summand."""
    if not reps:
        raise ValueError("empty direct sum; use zero_representation")
    alg = reps[0].algebra
    if any(r.algebra is not alg for r in reps):
        raise AlgebraMismatch("direct sum across algebras")
    total, offsets = _sum_module(alg, reps)
    dims = total.dims
    incls, projs = [], []
    for r, off in zip(reps, offsets):
        inc = {}
        prj = {}
        for v in r.support:
            im = [[F0] * r.dims[v] for _ in range(dims[v])]
            pm = [[F0] * dims[v] for _ in range(r.dims[v])]
            for k in range(r.dims[v]):
                im[off[v] + k][k] = F1
                pm[k][off[v] + k] = F1
            inc[v] = im
            prj[v] = pm
        incls.append(Morphism(r, total, inc, check=False))
        projs.append(Morphism(total, r, prj, check=False))
    return total, incls, projs


def _hom_equations(m, n):
    """Unknowns and equations of Hom(m, n).

    The unknown (v, i, j) is entry (i, j) of the block at v; each row says
    that the blocks commute with one arrow.  Only the arrows from supp(m)
    to supp(n) give rows, in arrow order; all-zero rows are dropped."""
    mdims, ndims = m.dims, n.dims
    var_index = {}
    for v in m.support:
        for i in range(ndims.get(v, 0)):
            for j in range(mdims[v]):
                var_index[(v, i, j)] = len(var_index)
    nvars = len(var_index)
    rows = []
    for ar in m.algebra.quiver.arrows:
        u, w = ar.source, ar.target
        if u not in mdims or w not in ndims:
            continue
        na, ma = n.maps.get(ar.name), m.maps.get(ar.name)
        nu, mw = ndims.get(u, 0), mdims.get(w, 0)
        for i in range(ndims[w]):
            for j in range(mdims[u]):
                row = [F0] * nvars
                for k in range(nu):
                    if na[i][k]:
                        row[var_index[(u, k, j)]] += na[i][k]
                for l in range(mw):
                    if ma[l][j]:
                        row[var_index[(w, i, l)]] -= ma[l][j]
                if any(row):
                    rows.append(row)
    return var_index, rows


def hom_basis(m, n):
    """Basis of Hom(m, n) as a list of morphisms; deterministic order."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("Hom across different algebras")
    var_index, rows = _hom_equations(m, n)
    out = []
    for sol in linalg.nullspace(rows, ncols=len(var_index)):
        blocks = {v: [[sol[var_index[(v, i, j)]] for j in range(m.dims[v])]
                      for i in range(n.dims[v])]
                  for v in n.support if v in m.dims}
        out.append(Morphism(m, n, blocks, check=False))
    return out


def hom_dim(m, n):
    return len(hom_basis(m, n))


def kernel(f):
    """Kernel subrepresentation with its inclusion."""
    return _kernel(f)[:2]


def _kernel(f):
    """Kernel, inclusion, and per support vertex of the kernel the free
    columns of f's block there.

    One loop over the support of f's source m.  A one-dimensional m_v is
    in the kernel exactly when f's column at v is zero or absent (the
    target is zero there): free column [0], inclusion block [[1]].  At a
    vertex of dimension 2 or more, the kernel is the whole space where f
    has no block, else one rref of the block gives it: one basis vector
    per free column, 1 at that column and 0 at the other free ones.  So
    the coordinates of a kernel vector are its entries at the free
    columns, and each arrow's map on the kernel is read off the rows of
    (arrow matrix) x (inclusion block) at those columns.

    Where the kernel is the whole space, the inclusion block is the
    identity, the one square block, and an arrow's map out of there is m's
    own matrix, or its rows at the free columns.  An arrow into a
    one-dimensional m_w leaves the kernel exactly when w is not in it and
    the arrow's row there is nonzero, a scalar test; elsewhere f's block
    times the map must vanish.  The kernel and its inclusion are built in
    final form."""
    m = f.source
    alg, own = m.algebra, m.maps
    free, incl_blocks = {}, {}
    for v, k in m.dims.items():
        b = f.blocks.get(v)
        if k == 1:
            if b is None or not any(map(any, b)):
                free[v], incl_blocks[v] = [0], [[F1]]
            continue
        if b is None:
            free[v], incl_blocks[v] = list(range(k)), linalg.identity(k)
            continue
        red, pivots = linalg.rref(b)
        if len(pivots) == k:
            continue
        cols = [j for j in range(k) if j not in pivots]
        # the unit rows of the free columns, then each pivot row in its place
        block = linalg.identity(len(cols))
        for row, pc in zip(red, pivots):
            block.insert(pc, [-row[j] for j in cols])
        free[v], incl_blocks[v] = cols, block
    arrows_from = alg.quiver.arrows_from
    maps = {}
    for u, block in incl_blocks.items():
        whole = len(block) == len(block[0])
        for ar in arrows_from[u]:
            img = own.get(ar.name)
            if img is None:
                continue
            if not whole:
                img = linalg.mat_mul(img, block)
            cols, fw = free.get(ar.target), f.blocks.get(ar.target)
            if fw and (not cols and any(img[0]) if len(img) == 1
                       else any(map(any, linalg.mat_mul(fw, img)))):
                raise InternalError("kernel is not a subrepresentation")
            if cols:
                maps[ar.name] = (img if len(cols) == len(img)
                                 else [img[j] for j in cols])
    k = Representation(alg, {v: len(cols) for v, cols in free.items()}, maps,
                       check=False)
    return k, Morphism(k, m, incl_blocks, check=False), free


def cokernel(f):
    """Cokernel with its projection."""
    return _cokernel(f)[:2]


def _cokernel(f):
    """Cokernel, projection, and per support vertex of the cokernel the
    coordinates of the target that it keeps (its basis is their classes).

    D is exact, so Coker f = D Ker(D f).  A kernel vector of (D f)_v is 1
    at one free column and 0 at the others, so the transposed inclusion
    block sends the unit vector of a free coordinate to the class of that
    coordinate: the free columns are the kept coordinates.  D f is built
    between duals that are not memoised: the cokernel keeps neither."""
    dual_f = Morphism(_dual_module(f.target), _dual_module(f.source),
                      {v: linalg.transpose(b) for v, b in f.blocks.items()},
                      check=False)
    k, incl, kept = _kernel(dual_f)
    proj = {v: linalg.transpose(b) for v, b in incl.blocks.items()}
    c = dual(k)
    return c, Morphism(f.target, c, proj, check=False), kept


def projective_cover(m):
    """Minimal projective cover; returns (P, epi, summand vertex list).

    One loop over the support: the top at v is what the images of the
    arrows into v from the support leave of m_v.  A one-dimensional m_v is
    top exactly when none of those maps has a nonzero entry, its
    generator's image [1].  At a vertex of dimension 2 or more, the top is
    read off one rref of the nonzero columns of those maps, in arrow
    order: each unit vector off their pivots is a generator's image."""
    alg = m.algebra
    dims, maps, arrows_to = m.dims, m.maps, alg.quiver.arrows_to
    summands, images = [], []
    for v, k in dims.items():
        if k == 1:
            for ar in arrows_to[v]:
                if ar.source in dims and any(maps[ar.name][0]):
                    break
            else:
                summands.append(v)
                images.append(F1)
            continue
        rad = [list(col) for ar in arrows_to[v] if ar.source in dims
               for col in zip(*maps[ar.name]) if any(col)]
        pivots = linalg.rref(rad)[1] if rad else ()
        if len(pivots) == k:
            continue
        for j, unit in enumerate(linalg.identity(k)):
            if j not in pivots:
                summands.append(v)
                images += unit
    if not summands:
        p = zero_representation(alg)
        return p, Morphism(p, m, {}, check=False), []
    total = _projective_sum(alg, summands)
    return total, from_generators(total, summands, m, images), summands


def _projective_sum(alg, vertices):
    """The sum of the projectives P_v (v in vertices): one summand is
    ``projective(alg, v)``, shared by every cover that reads it while it
    lives, and more are summed from their memoised data."""
    if len(vertices) == 1:
        return projective(alg, vertices[0])
    return _sum_module(alg, [_projective_data(alg, v) for v in vertices])[0]


def _thin(m):
    """Whether every dim of m is 1 (a zero m is thin)."""
    dims = m.dims
    return len(dims) == sum(dims.values())


def from_generators(p, vertices, n, images):
    """The morphism p -> n, for p the sum of the projectives P_v (v in
    vertices), that sends the generator of each summand to its image.

    images concatenates one vector of n_v per summand, in order.  A basis
    path b of P_v goes to n(b) applied to the image, one arrow at a time:
    n of its last arrow applied to its prefix's vector, walked by
    `_basis_prefixes`.  The blocks are built in final form.

    Out of one thin P_v into a thin n (every dim 1 on both) no mat_vec is
    taken: the block at w is [[x_w]], x_w the image times the product of
    n's scalars along the one basis path v -> w, 0 once it leaves n."""
    alg = p.algebra
    dims, maps = n.dims, n.maps
    source, tgt = alg.basis_index().source, alg.basis_tgt
    prefix, last = _basis_prefixes(alg)
    if len(vertices) == 1 and _thin(p) and _thin(n):
        x = {}          # basis id -> its scalar
        for b in source[vertices[0]]:
            if last[b] is None:
                x[b] = images[0] if images else F0
            else:
                s, mat = x[prefix[b]], maps.get(last[b])
                x[b] = mat[0][0] * s if s and mat is not None else F0
        at = {tgt[b]: s for b, s in x.items()}
        blocks = {w: [[at[w] or F0]] for w in dims if w in at}
        return Morphism(p, n, blocks, check=False)
    blocks = {w: [[F0] * p.dims[w] for _ in range(k)]
              for w, k in dims.items() if w in p.dims}
    start = 0
    for v, ((_, pos), off) in zip(vertices, _summand_offsets(alg, vertices)):
        gen = images[start:start + dims.get(v, 0)]
        start += len(gen)
        if not any(gen):
            continue
        vecs = {}       # basis id -> its vector, None once it leaves n
        for b in source[v]:
            if last[b] is None:
                vec = gen
            else:
                vec, mat = vecs[prefix[b]], maps.get(last[b])
                vec = (None if vec is None or mat is None
                       else linalg.mat_vec(mat, vec))
            vecs[b] = vec
            if vec is not None:
                w = tgt[b]
                col = off[w] + pos[b]
                for row, x in zip(blocks[w], vec):
                    if x:
                        row[col] = x
    return Morphism(p, n, blocks, check=False)


def generator_images(f, vertices):
    """The images under f of the generators of its source, the sum of the
    projectives P_v (v in vertices), concatenated as from_generators reads
    them."""
    alg = f.source.algebra
    images = []
    for v, ((_, pos), off) in zip(vertices, _summand_offsets(alg, vertices)):
        gen = off[v] + pos[alg.e_index[v]]
        images.extend(row[gen] for row in f.blocks.get(v, ()))
    return images


def _preimage(g, v, spans, y):
    """A vector x of g's source at v with g_v x = y, read off a TrackedSpan
    of g_v's columns, which spans caches per vertex; InternalError when y
    is not in the image of g_v."""
    span = spans.get(v)
    if span is None:
        span = spans[v] = linalg.TrackedSpan()
        for j, col in enumerate(zip(*g.blocks.get(v, ()))):
            span.add(linalg.sparse(col), j)
    c = span.coords(linalg.sparse(y))
    if c is None:
        raise InternalError("lift leaves the image of the map")
    return [c.get(j, F0) for j in range(g.source.dims.get(v, 0))]


def lift_from_projectives(f, vertices, g):
    """The map h with g.h = f, for f out of the sum of the projectives P_v
    (v in vertices): each generator image of f lifted through g at its own
    vertex, then from_generators."""
    images = generator_images(f, vertices)
    spans, lifted, start = {}, [], 0
    for v in vertices:
        k = f.target.dims.get(v, 0)
        lifted.extend(_preimage(g, v, spans, images[start:start + k]))
        start += k
    return from_generators(f.source, vertices, g.source, lifted)


def lift_through_mono(f, g):
    """The map h with g.h = f, for g a monomorphism: each column of f at
    each vertex lifted through g there.  As g is mono, h commutes with the
    arrows because f does."""
    spans, blocks = {}, {}
    for v, b in f.blocks.items():
        cols = [_preimage(g, v, spans, col) for col in zip(*b)]
        if v in g.source.dims:
            blocks[v] = linalg.transpose(cols)
    return Morphism(f.source, g.source, blocks, check=False)


def syzygy(m):
    return syzygy_power(m, 1)


def minimal_resolution(m, length):
    """Terms and differentials of a minimal projective resolution.

    Returns (terms, diffs, summand_lists, finished) with diffs[0]: P0 -> m
    and diffs[i]: P_i -> P_{i-1}; stops early once a kernel vanishes.
    Each length is memoised on m and extends the one before, so every
    caller shares the same terms.
    """
    terms, diffs, summands, kern, _ = _resolution(m, length)
    return list(terms), list(diffs), list(summands), kern is None


def _resolution(m, k):
    """The minimal projective resolution of m up to P_k, computed from the
    one up to P_{k-1}: (terms, diffs, summand lists, K, K -> P_k) with K the
    kernel of the last differential, None once it vanishes; the resolution
    then stops, and every longer one is the same.  Memoised on m per k; a
    stored one is read with `peek`, so a hit builds no closure.

    A memoised P_v is its own resolution, with its identity, memoised on
    P_v, as the one differential.  That tuple is built on each call: stored
    on P_v, it would hold P_v."""
    key = ("resolution", k)
    found = peek(m, key)
    if found is None:
        if type(m) is _Projective:
            return _own_resolution(m)
        found = memo(m, key, lambda: _resolution_step(m, k))
    return found


def _own_resolution(p):
    one = memo(p, "identity", lambda: _CoverMap(
        p, {v: linalg.identity(k) for v, k in p.dims.items()}, p))
    return (p,), (one,), ([p.vertex],), None, None


def _resolution_step(m, k):
    if k == 0:
        terms, diffs, summands, current, incl = (), (), (), m, None
    else:
        prev = _resolution(m, k - 1)
        terms, diffs, summands, current, incl = prev
        if current is None:
            return prev
    p, epi, cover_summands = projective_cover(current)
    kern, kincl = kernel(epi)
    if not kern.support:
        kern = kincl = None
    d = _CoverMap(p, epi.blocks, m) if incl is None else _differential(
        incl, epi)
    return (terms + (p,), diffs + (d,), summands + (cover_summands,),
            kern, kincl)


def _differential(incl, epi):
    """incl after epi, P_k -> K -> P_{k-1}, in final form.  Where K is the
    whole of P_{k-1} the inclusion block is the identity, the one square
    block, and the block is epi's own; where K is zero, a zero block."""
    p, q = epi.source, incl.target
    blocks = {}
    for v, rows in q.dims.items():
        cols = p.dims.get(v)
        if not cols:
            continue
        b = incl.blocks.get(v)
        if b is None:
            blocks[v] = [[F0] * cols for _ in range(rows)]
        elif len(b) == len(b[0]):
            blocks[v] = epi.blocks[v]
        else:
            blocks[v] = linalg.mat_mul(b, epi.blocks[v])
    return Morphism(p, q, blocks, check=False)


def is_projective(m):
    return _resolution(m, 0)[3] is None


def is_injective(m):
    return is_projective(dual(m))


def _summand_offsets(alg, vertices):
    """Each summand P_v of the sum of projectives (v in vertices), as its
    basis (see _projective_basis) with its first coordinate at every
    vertex of its support; memoised on alg per vertex list."""
    def compute():
        out, run = [], {}
        for v in vertices:
            basis = _projective_basis(alg, v)
            out.append((basis, {w: run.get(w, 0) for w in basis[0]}))
            for w, ids in basis[0].items():
                run[w] = run.get(w, 0) + len(ids)
        return out

    return memo(alg, ("summand offsets", tuple(vertices)), compute)


def _coboundary(n, summands, diff, k):
    """Matrix of f -> f.d from Hom(P_k, n) to Hom(P_{k+1}, n) in generator
    images (see from_generators), for d = diff: P_{k+1} -> P_k and
    summands[j] the vertices of the projective summands of P_j.

    The columns of summand s of P_k hold the image x_s of its generator;
    the rows of summand t of P_{k+1} hold f(d(g_t)), the sum of c n(b) x_s
    over the terms c b of the component of d from t to s."""
    elems = _differential_elements(diff, summands, k)
    col_off, ncols = [], 0
    for v in summands[k]:
        col_off.append(ncols)
        ncols += n.dims.get(v, 0)
    rows = []
    for t, u in enumerate(summands[k + 1]):
        block = [[F0] * ncols for _ in range(n.dims.get(u, 0))]
        for row_elems, c0 in zip(elems, col_off):
            for b, c in row_elems[t].items():
                for r, row in enumerate(n.basis_matrix(b)):
                    for q, x in enumerate(row):
                        block[r][c0 + q] += c * x
        rows.extend(block)
    return rows


def _differential_elements(diff, summands, k):
    """component_elements of diff: P_{k+1} -> P_k of a cached resolution,
    whose summand lists are summands[k + 1] and summands[k]; memoised on
    diff."""
    return memo(diff, "elements", lambda: component_elements(
        diff, summands[k + 1], summands[k]))


def _top_hom_vanishes(m, n, d):
    """Whether Hom(P_d, n) = 0 for P_d the d-th term of m's cached minimal
    resolution: the resolution stops before P_d, or no summand P_v of P_d
    has v in the support of n.  Then Ext^d(m, n) = 0."""
    terms, _, summands, _, _ = _resolution(m, d)
    return len(terms) <= d or not any(v in n.dims for v in summands[d])


def ext_dim(m, n, i):
    """dim Ext^i(m, n): dim Hom(m, n) for i = 0, 0 when
    `_top_hom_vanishes`, else ExtSpace(m, n, i)."""
    if i < 0:
        raise ValueError("negative cohomological degree")
    if i == 0:
        return hom_dim(m, n)
    if _top_hom_vanishes(m, n, i):
        return 0
    return ExtSpace(m, n, i).dim


class ExtSpace:
    """Ext^d(m, n), d >= 1: its dimension, chosen cocycle representatives
    and class coordinates.

    A class is a map P_d -> n out of the d-th term of m's cached minimal
    resolution, in generator images (see from_generators), modulo the
    coboundaries g.d_d.  A map out of P_k = (+)_s P_{v_s} is fixed by the
    images of the generators, so _coboundary builds the coboundaries delta
    without solving any Hom system.  The columns of delta_{d-1} span the
    coboundaries: they enter a TrackedSpan untagged, and its rank gives
    dim = nullity delta_d - rank delta_{d-1}.  When Hom(P_d, n) = 0
    (`_top_hom_vanishes`) the space is zero, and neither delta is built nor
    P_{d+1} resolved.  Only a nonzero space takes the cocycles, the
    nullspace basis of delta_d, in order and tagged by position; those that
    join the span are the representatives."""

    def __init__(self, m, n, d):
        terms, diffs, summands, _, _ = _resolution(m, d)
        self.dim, self._cocycles, self._summands = 0, [], []
        self._span = span = linalg.TrackedSpan()
        if len(terms) <= d:
            return
        self._p, self._n, self._summands = terms[d], n, summands[d]
        if _top_hom_vanishes(m, n, d):
            return
        ncols = sum(n.dims.get(v, 0) for v in summands[d])
        for col in linalg.transpose(
                _coboundary(n, summands, diffs[d], d - 1)):
            span.add(linalg.sparse(col))
        terms, diffs, summands, _, _ = _resolution(m, d + 1)
        cocycle_eqs = (_coboundary(n, summands, diffs[d + 1], d)
                       if len(terms) > d + 1 else [])
        self.dim = ncols - linalg.rank(cocycle_eqs) - len(span.rows)
        for z in linalg.nullspace(cocycle_eqs, ncols) if self.dim else ():
            if span.add(linalg.sparse(z), len(self._cocycles)) is None:
                self._cocycles.append(z)
        if len(self._cocycles) != self.dim:
            raise InternalError("Ext representatives miss the dimension")

    @property
    def reps(self):
        """The representatives as maps P_d -> n, built on first use: most
        callers want the dimension alone."""
        return memo(self, "reps", lambda: [
            from_generators(self._p, self._summands, self._n, z)
            for z in self._cocycles])

    def coords(self, mor):
        """Class coordinates of a cocycle mor: P_d -> n in the chosen
        representatives."""
        c = self._span.coords(
            linalg.sparse(generator_images(mor, self._summands)))
        if c is None:
            raise InternalError("Ext class escapes the chosen basis")
        return [c.get(k, F0) for k in range(self.dim)]


def resolution_lift(f, k):
    """Comparison map P_k(source) -> P_k(target) lifting f along the cached
    minimal resolutions, one degree at a time out of sums of projectives;
    None when either stops before P_k."""
    tm, dm, sm = _resolution(f.source, k)[:3]
    tn, dn = _resolution(f.target, k)[:2]
    if len(tm) <= k or len(tn) <= k:
        return None
    cur = f
    for i in range(k + 1):
        cur = lift_from_projectives(cur.compose(dm[i]), sm[i], dn[i])
    return cur


def comparison_map(f, k):
    """resolution_lift(f, k), memoised on f per k."""
    return memo(f, ("resolution lift", k), lambda: resolution_lift(f, k))


def proj_dim(m, cap=None):
    """Projective dimension; math.inf on syzygy periodicity, and
    ScaleExceeded when the step cap runs out first."""
    if m.is_zero():
        return 0
    if cap is None:
        cap = _default_cap(m.algebra)
    seen = []
    for step in range(cap):
        k = _resolution(m, step)[3]
        if k is None:
            return step
        for old in seen:
            if old.dims == k.dims and is_isomorphic(old, k):
                return math.inf
        seen.append(k)
    raise ScaleExceeded(
        "projective dimension undecided within the step cap")


def _default_cap(alg):
    """Steps walked before a dimension is reported undecided."""
    return 3 * alg.dim + 8


# the most points of the grid that morphism_of_rank searches
RANK_SEARCH_CAP = 10_000


def morphism_of_rank(basis, want):
    """The first morphism of rank at least want in the span of a Hom basis,
    or None when the span has none.  None is exact, not a bounded miss.

    The basis elements are tried in order first.  Rank is subadditive, so
    with fewer than two elements, or with their ranks summing below want,
    no combination reaches want.  Otherwise each minor of size want of
    sum_i x_i f_i has degree at most rank f_i in x_i (the rank f_i + 1
    columns of f_i in it are dependent), and by Alon's Combinatorial
    Nullstellensatz (1999, Lemma 2.1) a polynomial of those degrees that
    vanishes on the grid prod_i {0, ..., rank f_i} is zero.  So the grid
    points with at least two nonzero coordinates are tried, in lex order.
    A grid of more than RANK_SEARCH_CAP points raises ScaleExceeded."""
    ranks = []
    for f in basis:
        r = f.rank()
        if r >= want:
            return f
        ranks.append(r)
    if len(basis) < 2 or sum(ranks) < want:
        return None
    size = math.prod(r + 1 for r in ranks)
    if size > RANK_SEARCH_CAP:
        raise ScaleExceeded(
            f"a rank search over {size} grid points exceeds the cap "
            f"{RANK_SEARCH_CAP}")
    for point in itertools.product(*(range(r + 1) for r in ranks)):
        terms = [f.scale(c) for c, f in zip(point, basis) if c]
        if len(terms) > 1:
            combo = functools.reduce(Morphism.add, terms)
            if combo.rank() >= want:
                return combo
    return None


def is_isomorphic(m, n):
    """Isomorphism test: dimension checks, then an exact search of Hom(m, n)
    for an invertible morphism (morphism_of_rank)."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("isomorphism test across algebras")
    if m.dims != n.dims:
        return False
    if m.is_zero():
        return True
    basis = hom_basis(m, n)
    if not basis or len(hom_basis(n, m)) != len(basis):
        return False
    return morphism_of_rank(basis, m.total_dim) is not None


def component_elements(f, src_verts, tgt_verts):
    """Element matrix of a morphism f between sums of projectives.

    The source of f is the sum of the P_v for v in src_verts, its target
    the sum for tgt_verts, both in the order of _summand_offsets.  Entry
    [k][l] is the component P_{src_verts[l]} -> P_{tgt_verts[k]} as the
    sparse algebra element that f gives the generator of P_{src_verts[l]}.
    """
    images = generator_images(f, src_verts)
    targets = _summand_offsets(f.source.algebra, tgt_verts)
    elems = [[None] * len(src_verts) for _ in tgt_verts]
    start = 0
    for l, u in enumerate(src_verts):
        col = images[start:start + f.target.dims.get(u, 0)]
        start += len(col)
        for k, ((ids, _), off) in enumerate(targets):
            first = off.get(u)
            elems[k][l] = {} if first is None else {
                b: col[i] for i, b in enumerate(ids[u], first) if col[i]}
    return elems


def projective_star(alg, tgt_verts, src_verts, elems):
    """(-)* = Hom_A(-, A) of the map (+)_l P_{src_verts[l]} ->
    (+)_k P_{tgt_verts[k]} with element matrix elems: the map
    (+)_k P'_{tgt_verts[k]} -> (+)_l P'_{src_verts[l]} of projectives over
    the opposite algebra that sends the generator of P'_{tgt_verts[k]} to
    elems[k][l] in each P'_{src_verts[l]}."""
    op = alg.opposite()
    targets = [_projective_basis(op, u) for u in src_verts]
    images = []
    for v, row in zip(tgt_verts, elems):
        for (ids, pos), elem in zip(targets, row):
            vec = [F0] * len(ids.get(v, ()))
            for b, c in elem.items():
                vec[pos[b]] = c
            images.extend(vec)
    return from_generators(_projective_sum(op, tgt_verts), tgt_verts,
                           _projective_sum(op, src_verts), images)


def presentation_matrix(m):
    """Minimal presentation P1 -> P0 -> m as an element matrix, read off
    the first two steps of m's cached resolution.

    Returns (tgt_vertices, src_vertices, elems, (P0, epi0, P1, d1)) where
    elems[k][l] is the sparse algebra element of the component
    P_{src[l]} -> P_{tgt[k]}.  When m is projective, src_vertices is empty
    and P1 and d1 are None.
    """
    terms, diffs, summands, _, _ = _resolution(m, 1)
    tgts = summands[0]
    if len(terms) == 1:
        return tgts, [], [[] for _ in tgts], (terms[0], diffs[0], None, None)
    elems = _differential_elements(diffs[1], summands, 0)
    return tgts, summands[1], elems, (terms[0], diffs[0], terms[1], diffs[1])


def _transpose_data(m):
    """Tr m over the opposite algebra, memoised on m: the cokernel of the
    map P0* -> P1* that projective_star gives on the minimal presentation
    P1 -> P0 -> m, its projection, and per vertex the coordinates of P1*
    that it keeps; both None when m is projective."""
    def compute():
        tgts, srcs, elems, _ = presentation_matrix(m)
        if not srcs or not tgts:
            return zero_representation(m.algebra.opposite()), None, None
        return _cokernel(projective_star(m.algebra, tgts, srcs, elems))

    return memo(m, "transpose", compute)


def transpose(m):
    """Tr over the opposite algebra, from the minimal presentation."""
    return _transpose_data(m)[0]


def transpose_morphism(h):
    """Tr on maps, contravariant: h: X -> Y gives Tr Y -> Tr X.

    h lifts to P0(X) -> P0(Y), then to h1: P1(X) -> P1(Y), on the minimal
    presentations, both out of sums of projectives.  (-)* of h1, followed
    by the projection onto Tr X, vanishes on the image of P0(Y)*, so the
    induced map is read at the coordinates of P1(Y)* that Tr Y keeps."""
    alg = h.source.algebra
    tr_x, proj, _ = _transpose_data(h.source)
    tr_y, _, kept = _transpose_data(h.target)
    if tr_x.is_zero() or tr_y.is_zero():
        return zero_morphism(tr_y, tr_x)
    tx, sx, _, (_, ex, _, dx) = presentation_matrix(h.source)
    _, sy, _, (_, ey, _, dy) = presentation_matrix(h.target)
    h1 = lift_from_projectives(
        lift_from_projectives(h.compose(ex), tx, ey).compose(dx), sx, dy)
    cls = proj.compose(projective_star(
        alg, sy, sx, component_elements(h1, sx, sy)))
    blocks = {w: [[row[k] for k in cols] for row in cls.blocks[w]]
              for w, cols in kept.items() if w in cls.blocks}
    return Morphism(tr_y, tr_x, blocks, check=False)


def ar_translate(m):
    """tau = D Tr from a minimal presentation."""
    return dual(transpose(m))


def ar_translate_inverse(m):
    """tau^- = Tr D."""
    return transpose(dual(m))


def syzygy_power(m, k):
    """Omega^k m, read off the cached minimal resolution of m."""
    if k == 0:
        return m
    kern = _resolution(m, k - 1)[3]
    if kern is None:
        # one zero module per m, so every caller sees the same Omega^k m
        return memo(m, "zero syzygy",
                    lambda: zero_representation(m.algebra))
    return kern


def syzygy_morphism(f):
    """Omega on maps: the map Omega(source) -> Omega(target) that f induces
    on the first steps of the cached minimal resolutions; it lifts f out of
    the cover of the source, then through the inclusion of Omega(target)."""
    (ex, ix, vx), (ey, iy, _) = _cover_steps(f.source), _cover_steps(f.target)
    return lift_through_mono(
        lift_from_projectives(f.compose(ex), vx, ey).compose(ix), iy)


def _cover_steps(m):
    """The projective cover P_0 -> m, the inclusion Omega m -> P_0 and the
    summands of P_0."""
    terms, diffs, summands, _, incl = _resolution(m, 0)
    if incl is None:
        incl = zero_morphism(syzygy(m), terms[0])
    return diffs[0], incl, summands[0]


def cosyzygy(m):
    """Omega^- m = D Omega D m."""
    return dual(syzygy(dual(m)))


def cosyzygy_morphism(f):
    """Omega^- = D Omega D on maps, covariant."""
    return dual_morphism(syzygy_morphism(dual_morphism(f)))


def higher_translate(m, d):
    """tau_d = tau of the (d-1)-st syzygy."""
    return ar_translate(syzygy_power(m, d - 1))


def higher_translate_inverse(m, d):
    """tau_d^- = tau^- = Tr D of the (d-1)-st cosyzygy, taken one cosyzygy
    at a time; memoised on m per d.  Each step is memoised on its module,
    so higher_translate_inverse_morphism, which goes the same way on maps,
    lands on these objects."""
    def compute():
        x = m
        for _ in range(d - 1):
            x = cosyzygy(x)
        return ar_translate_inverse(x)

    return memo(m, ("tau_d_inv", d), compute)


def higher_translate_inverse_morphism(f, d):
    """tau_d^- on maps, memoised on f per d.

    Well defined up to maps factoring through injectives, which act by zero
    on the Ext classes it is applied to."""
    return memo(f, ("tau_d_inv", d), lambda: _tau_d_inv_mor(f, d))


def _tau_d_inv_mor(f, d):
    for _ in range(d - 1):
        f = cosyzygy_morphism(f)
    return transpose_morphism(dual_morphism(f))


def regular_module(alg):
    return _projective_sum(alg, alg.vertices)


def homological_dims(alg, cap=None):
    """Record of projective dimensions of simples, global dimension, dominant
    dimension and the two one-sided self-injective dimensions.

    Memoised per ``cap``.  A step left undecided within the cap raises, so a
    completed record is exact whatever its cap; the first one marks the
    algebra as verified for ``is_gorenstein_projective``."""
    record = memo(alg, ("homdims", cap), lambda: _homological_dims(alg, cap))
    memo(alg, "homdims", lambda: record)
    return record


def global_dim(alg):
    """Global dimension: the largest projective dimension of a simple."""
    return _simple_proj_dims(alg, None)[1]


def _simple_proj_dims(alg, cap):
    """The projective dimension of each simple, and their maximum."""
    proj_dims = {v: proj_dim(simple(alg, v), cap=cap) for v in alg.vertices}
    return proj_dims, max(proj_dims.values(), default=0)


def _homological_dims(alg, cap):
    # the record reads every projective of alg and of its opposite, so it
    # holds them while it is computed: a dropped one is built again
    held = {v: (projective(alg, v), projective(alg.opposite(), v))
            for v in alg.vertices}
    dual_projs = [dual(p) for p, _ in held.values()]
    injs = {v: dual(q) for v, (_, q) in held.items()}
    proj_dims, gl = _simple_proj_dims(alg, cap)
    inj_of_a = max(proj_dim(x, cap=cap) for x in dual_projs)
    proj_of_da = max(proj_dim(x, cap=cap) for x in injs.values())
    return {
        "projDims": proj_dims,
        "globalDim": gl,
        "dominantDim": _dominant_dim(alg, dual_projs, injs, cap),
        "injDimOfA": inj_of_a,
        "projDimOfDA": proj_of_da,
    }


def _dominant_dim(alg, dual_projs, injs, cap):
    """Dominant dimension: the number of leading terms of the minimal
    injective coresolution of A that are also projective.

    D of that coresolution is the minimal projective resolution of
    DA = (+)_v D(P_v) over the opposite algebra, the sum of the cached
    resolutions of the D(P_v): at each step its cover has the union of
    their summands, and its kernel vanishes once all of theirs have.  The
    summand at w dualises to the injective I_w, injs[w]."""
    proj_inj = {w: is_projective(i) for w, i in injs.items()}
    for step in range(cap if cap is not None else _default_cap(alg)):
        res = [_resolution(x, step) for x in dual_projs]
        if not all(proj_inj[w] for terms, _, summands, _, _ in res
                   if len(terms) > step for w in summands[step]):
            return step
        if all(kern is None for _, _, _, kern, _ in res):
            return math.inf
    raise ScaleExceeded("dominant dimension undecided within the step cap")


def is_gorenstein_projective(m, n=None):
    """Ext^i(m, A) = 0 for 1 <= i <= n over a verified Gorenstein algebra."""
    alg = m.algebra
    rec = peek(alg, "homdims")
    if rec is None:
        raise NotGorensteinVerified(
            "run homological_dims on the algebra before this test"
        )
    if rec["injDimOfA"] != rec["projDimOfDA"] or rec["injDimOfA"] == math.inf:
        raise NotGorensteinVerified("algebra is not Gorenstein")
    if n is None:
        n = rec["injDimOfA"]
    reg = regular_module(alg)
    return all(ext_dim(m, reg, i) == 0 for i in range(1, n + 1))


def representation_from_dict(alg, d):
    return Representation(alg, d["dims"], d.get("maps", {}))
