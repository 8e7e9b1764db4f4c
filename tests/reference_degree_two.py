"""Test oracle for the degree-two checks of ``hga.axioms``: (A4) and the
classical gentle test, computed with dense linear algebra.

For each block (x, z) the oracle evaluates the 2-paths x -> z in name order
and takes a nullspace basis of their value matrix: the degree-two relations
of the block.  (A4)'s shape test asks that this kernel be spanned by its
vectors with at most two nonzero entries.  Those are found one coordinate
and one coordinate plane at a time, by reducing unit vectors against the
kernel's row echelon form and solving for the combinations that vanish.
The gentle test asks that the kernel have one vector per zero path.  The
ideal is then closed up from the nullspace basis itself.
"""

from itertools import combinations

from hga import linalg
from hga.axioms import _as_algebra, _closure_dim
from hga.linalg import F0, F1
from hga.presentations import RelationElement
from reference_linalg import reduce_mod_rows


def degree_two_kernel(alg):
    """Per block (x, z), in (str(x), str(z)) order: the 2-paths x -> z in
    name order and a nullspace basis of their values."""
    quiver = alg.quiver
    blocks = {}
    for a in quiver.arrows:
        for b in quiver.arrows_from[a.target]:
            blocks.setdefault((a.source, b.target), []).append(
                (a.name, b.name))
    out = {}
    for key in sorted(blocks, key=lambda k: (str(k[0]), str(k[1]))):
        paths = sorted(blocks[key])
        values = [alg.path_value(p) for p in paths]
        coords = sorted({i for v in values for i in v})
        matrix = [[v.get(i, F0) for v in values] for i in coords]
        out[key] = (paths, values,
                    linalg.nullspace(matrix, ncols=len(paths)))
    return out


def _in_span(rows, pivots, v):
    return not any(reduce_mod_rows(rows, pivots, v))


def _plane_intersection(rows, pivots, n, i1, i2):
    """Kernel vectors supported on the coordinates {i1, i2}: the
    c1 e_i1 + c2 e_i2 that reduce to zero against the kernel's rows."""
    units = []
    for i in (i1, i2):
        e = [F0] * n
        e[i] = F1
        units.append(reduce_mod_rows(rows, pivots, e))
    mat = [[units[0][k], units[1][k]] for k in range(n)]
    out = []
    for c1, c2 in linalg.nullspace(mat, ncols=2):
        v = [F0] * n
        v[i1], v[i2] = c1, c2
        if any(v):
            out.append(v)
    return out


def reference_a4(a):
    """(A4) as ``axioms.check_axiom_a4`` reports it."""
    alg = _as_algebra(a)
    relations = []
    bad_block = None
    for key, (paths, _, kernel) in degree_two_kernel(alg).items():
        if not kernel:
            continue
        n = len(paths)
        red, pivots = linalg.rref(kernel)
        rows = red[:len(pivots)]
        small = []
        for i in range(n):
            e = [F0] * n
            e[i] = F1
            if _in_span(rows, pivots, e):
                small.append(e)
        for i1, i2 in combinations(range(n), 2):
            small.extend(_plane_intersection(rows, pivots, n, i1, i2))
        if (linalg.rank(small) if small else 0) != len(pivots):
            bad_block = key
        for vec in kernel:
            relations.append(RelationElement(
                [(c, paths[k]) for k, c in enumerate(vec) if c]))
    if bad_block is not None:
        return {"pass": False, "witnesses": [{
            "block": [str(v) for v in bad_block],
            "reason": "kernel not spanned by 1- and 2-term vectors"}]}
    quad_dim = _closure_dim(alg, relations)
    if quad_dim == alg.dim:
        return {"pass": True, "witnesses": []}
    return {"pass": False, "witnesses": [{
        "reason": "ideal needs generators of length > 2",
        "quadraticDim": quad_dim, "dim": alg.dim}]}


def reference_is_gentle(a):
    """The classical gentle test as ``axioms.is_gentle`` reports it."""
    alg = _as_algebra(a)
    quiver = alg.quiver
    failures = []
    for v in quiver.vertices:
        if len(quiver.arrows_from[v]) > 2:
            failures.append({"condition": "out-degree", "vertex": str(v)})
        if len(quiver.arrows_to[v]) > 2:
            failures.append({"condition": "in-degree", "vertex": str(v)})
    for a in quiver.arrows:
        succ = [(b.name, bool(alg.path_value((a.name, b.name))))
                for b in quiver.arrows_from[a.target]]
        pred = [(b.name, bool(alg.path_value((b.name, a.name))))
                for b in quiver.arrows_to[a.source]]
        for cond, pairs, nonzero in [
            ("zero successors", succ, False),
            ("nonzero successors", succ, True),
            ("zero predecessors", pred, False),
            ("nonzero predecessors", pred, True),
        ]:
            names = sorted(n for n, nz in pairs if nz == nonzero)
            if len(names) > 1:
                failures.append({"condition": cond, "arrow": a.name,
                                 "arrows": names})
    zero_paths = []
    monomial = True
    for key, (paths, values, kernel) in degree_two_kernel(alg).items():
        zero = [p for p, v in zip(paths, values) if not v]
        if len(kernel) != len(zero):
            monomial = False
            failures.append({"condition": "commutativity relation",
                             "block": [str(v) for v in key]})
        zero_paths += zero
    if monomial and _closure_dim(alg, [RelationElement([(F1, p)])
                                       for p in zero_paths]) != alg.dim:
        failures.append({"condition": "ideal not quadratic monomial"})
    return {"gentle": not failures, "failures": failures}
