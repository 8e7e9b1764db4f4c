"""Test oracle for the resolution step of ``hga.reps``: ``projective_cover``
and ``_kernel`` by elimination at every support vertex, as they were
written before a one-dimensional vertex was read as a scalar, kept here
unchanged.

``projective_cover`` takes the top at each vertex from one ``rref`` of the
radical vectors there, and ``_kernel`` the kernel at each vertex where f
has a block from one ``rref`` of that block.  The step tests in
``tests/test_reps.py`` check that ``hga.reps`` builds exactly what these
build: the same summands, dims, maps and blocks in the same key order, and
kernel maps that are the source's own matrices in both or in neither.
"""

from hga import linalg
from hga.errors import InternalError
from hga.reps import (
    Morphism,
    Representation,
    _projective_sum,
    from_generators,
    zero_representation,
)


def radical_vectors(m):
    """Spanning vectors of rad M per support vertex (images of all arrows
    into it, in arrow order)."""
    dims, arrows_to = m.dims, m.algebra.quiver.arrows_to
    out = {}
    for w in m.support:
        vecs = out[w] = []
        for ar in arrows_to[w]:
            if ar.source in dims:
                vecs.extend(map(list, filter(any, zip(*m.maps[ar.name]))))
    return out


def projective_cover(m):
    """Minimal projective cover; returns (P, epi, summand vertex list).

    The top at v is what the radical vectors leave of m_v, one rref of
    them per support vertex."""
    alg = m.algebra
    rad = radical_vectors(m)
    summands, images = [], []
    for v in m.support:
        pivots = linalg.rref(rad[v])[1] if rad[v] else ()
        if len(pivots) == m.dims[v]:
            continue
        for k, unit in enumerate(linalg.identity(m.dims[v])):
            if k not in pivots:
                summands.append(v)
                images += unit
    if not summands:
        p = zero_representation(alg)
        return p, Morphism(p, m, {}, check=False), []
    total = _projective_sum(alg, summands)
    return total, from_generators(total, summands, m, images), summands


def kernel(f):
    """Kernel, inclusion, and per support vertex of the kernel the free
    columns of f's block there.

    One rref of f's block per support vertex gives the kernel there: one
    basis vector per free column, 1 at that column and 0 at the other free
    ones.  So the coordinates of a kernel vector are its entries at the
    free columns, and each arrow's map on the kernel is read off the rows
    of (arrow matrix) x (inclusion block) at those columns.  Where f has
    no block, the target is zero there and no rref is needed.

    Where f vanishes the kernel is the whole space: the inclusion block is
    the identity, the one square block, and an arrow's map out of there is
    m's own matrix, or its rows at the free columns."""
    m = f.source
    alg = m.algebra
    free, incl_blocks = {}, {}
    for v, k in m.dims.items():
        b = f.blocks.get(v)
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
            w = ar.target
            if w not in m.dims:
                continue
            img = m.maps[ar.name]
            if not whole:
                img = linalg.mat_mul(img, block)
            fw = f.blocks.get(w)
            if fw and any(map(any, linalg.mat_mul(fw, img))):
                raise InternalError("kernel is not a subrepresentation")
            cols = free.get(w)
            if cols:
                maps[ar.name] = (img if len(cols) == len(img)
                                 else [img[j] for j in cols])
    k = Representation(alg, {v: len(cols) for v, cols in free.items()}, maps,
                       check=False)
    return k, Morphism(k, m, incl_blocks, check=False), free
