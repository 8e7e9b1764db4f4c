"""Cluster-tilting collections over higher Auslander algebras of type A and
their cluster-category endomorphism algebras.

The cluster Hom between modules X, Y is computed as
Hom(X, Y) + Ext^d(X, tau_d^- Y); the endomorphism algebra of a summand
collection is the trivial extension of End(T) by the square-zero ideal
Ext^d(T, tau_d^- T).  An element f: M_a -> M_b is a path a -> b, so that
dim Hom(M_a, M_b) counts paths a -> b in the resulting quiver; this is
the orientation under which the endomorphism algebra of the canonical
family over a linear quiver reproduces the next higher Auslander algebra
with its vertex labels.
"""

from dataclasses import dataclass, field

from . import linalg, reps
from .algebras import Algebra, represent
from .errors import (
    AdjacencyViolation,
    HgaError,
    InternalError,
    LabelMatchFailed,
    UnsupportedSummand,
)
from .linalg import F0, F1
from .memo import memo
from .typea import (
    Tuple,
    _check_size,
    build_typeA_auslander,
    canonical_cluster_tilting,
    corner,
    tuple_set,
)


@dataclass
class SummandCollection:
    """A subset of a labelled module family, closed over for direct sums.

    The labels are mapped to positions by one read of the family's
    `label_index`.  ``positions`` are the members' positions in the family,
    increasing, ``mask`` has bit i set for each of them, and ``labels`` are
    their family labels in the same order, which is lexicographic.  A
    collection made by ctgent_family records ``n``, ``d`` and its chain
    positions in ``ctgent``; `ctgent_cover` reads everything else off the
    labels."""

    family: object
    labels: list
    ctgent: dict = None
    positions: list = field(init=False)
    mask: int = field(init=False)

    def __post_init__(self):
        fam = self.family
        info = fam.algebra.typeA
        if info is None:
            raise HgaError("family algebra lacks type-A construction data")
        self.n, self.d = info["n"], info["d"]
        keys = [lab.entries if isinstance(lab, Tuple) else tuple(lab)
                for lab in self.labels]
        pos = list(map(fam.label_index().get, keys))
        if None in pos:
            # the first label that misses names the error
            ent, m = keys[pos.index(None)], self.n + 2 * self.d
            if m + 1 in ent:
                raise UnsupportedSummand(
                    f"label {ent} is a shifted projective (entry {m + 1})")
            raise HgaError(f"label {ent} is not in the module family")
        if not pos:
            raise HgaError("empty summand collection")
        mask = 0
        for i in pos:
            mask |= 1 << i
        if mask.bit_count() != len(pos):
            raise HgaError("duplicate labels in the collection")
        self.mask = mask
        self.positions = sorted(pos)
        self.labels = [fam.labels[i] for i in self.positions]

    def modules(self):
        return memo(self, "modules",
                    lambda: [self.family.module_of(t) for t in self.labels])

    def __len__(self):
        return len(self.labels)


def _rigidity_masks(fam):
    """Two tables of bitmasks over the family's positions, memoised on the
    family: per position i, the positions whose label intertwines label i,
    and the positions k with (i, k) in the Ext^d table."""
    def compute():
        by_ext = [0] * len(fam.labels)
        for i, k in fam.ext_edges:
            by_ext[i] |= 1 << k
        return fam.intertwining_masks(), by_ext

    return memo(fam, "rigidity masks", compute)


def is_d_rigid(c):
    """Rigidity of the collection, decided on labels and cross-checked
    against the family's Ext^d table, which canonical_cluster_tilting
    checked on the representations for every ordered pair.  Both are read
    as per-family bitmasks, against the collection's ``mask``; a
    disagreement is a fault of hga (InternalError).

    In the module category Ext^d(M_I, M_J) is nonzero exactly when J
    intertwines I.
    """
    pos, sel = c.positions, c.mask
    by_label, by_ext = _rigidity_masks(c.family)
    verdict = not any(by_label[i] & sel for i in pos)
    if verdict != (not any(by_ext[i] & sel for i in pos)):
        raise InternalError(
            "label rigidity disagrees with the family's Ext^d table"
        )
    return verdict


def _thin_hom(mx, my):
    """The components of supp mx ∩ supp my that carry Hom(mx, my), for
    thin modules mx, my: the Hom equations of `reps.hom_basis` solved in
    closed form.

    Let I = supp mx ∩ supp my.  A map is one scalar per vertex of I, equal
    along each arrow with both ends in I.  A component of I is zero if an
    arrow leads from it to a vertex that only my supports, or into it from
    a vertex that only mx supports; every other component carries a free
    scalar.  The components come ordered by their last vertex, the order
    of `hom_basis`'s nullspace.  The rule reads every map it relies on: a
    dimension above 1 on I, or such a map other than [[1]], is an
    InternalError."""
    dims_y, quiver = my.dims, mx.algebra.quiver
    inter = [v for v in mx.support if v in dims_y]
    if not inter:
        return []
    if any(mx.dims[v] != 1 or dims_y[v] != 1 for v in inter):
        raise InternalError("family module is not thin on a Hom pair")
    root = {v: v for v in inter}

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    def one(m, ar):
        if m.maps[ar.name] != [[1]]:
            raise InternalError(f"family module is not thin at {ar.name}")

    dead = set()
    for u in inter:
        for ar in quiver.arrows_from[u]:
            w = ar.target
            if w in root:
                one(mx, ar)
                one(my, ar)
                root[find(w)] = find(u)
            elif w in dims_y:
                one(my, ar)
                dead.add(u)
        for ar in quiver.arrows_to[u]:
            if ar.source not in root and ar.source in mx.dims:
                one(mx, ar)
                dead.add(u)
    comps = {}
    for v in inter:
        comps.setdefault(find(v), []).append(v)
    dead = {find(v) for v in dead}
    return sorted((tuple(c) for r, c in comps.items() if r not in dead),
                  key=lambda c: mx.algebra.e_index[c[-1]])


def _pair_homs(fam, x, y):
    """Hom(M_x, M_y) for family labels x, y, read off the thin modules by
    `_thin_hom`: (components, basis), the basis one morphism per component,
    1 on it and 0 on the rest of the supports' intersection.  On the
    diagonal the one component is the identity's, and the basis, the
    radical of End(M_x), is empty: End(M_x) is the rationals.  Memoised on
    the family by label pair, so every collection over it shares these
    morphisms and what is memoised on them."""
    def compute():
        mx, my = fam.module_of(x), fam.module_of(y)
        comps = _thin_hom(mx, my)
        if x == y:
            if len(comps) != 1:
                raise HgaError(
                    "summand endomorphism ring is not local over the "
                    "rationals")
            return comps, []
        inter = [v for v in my.support if v in mx.dims]
        return comps, [reps.Morphism(mx, my, {v: [[F1 if v in c else F0]]
                                              for v in inter}, check=False)
                       for c in comps]

    return memo(fam, ("hom", x.entries, y.entries), compute)


def _pair_ext(fam, x, y, d):
    """Ext^d(M_x, tau_d^- M_y) for family labels x, y, memoised on the
    family by label pair, or None when `reps._top_hom_vanishes` decides it
    zero first; tau_d^- is memoised on M_y."""
    def compute():
        mx = fam.module_of(x)
        tau = reps.higher_translate_inverse(fam.module_of(y), d)
        if not reps._top_hom_vanishes(mx, tau, d):
            return reps.ExtSpace(mx, tau, d)

    return memo(fam, ("ext", x.entries, y.entries, d), compute)


def _components_of(comps, verts):
    """The positions of the Hom components in comps (`_thin_hom`) whose
    union is verts, where a product of all-ones maps is 1; else HgaError."""
    left, out = set(verts), []
    for k, comp in enumerate(comps):
        if left.issuperset(comp):
            out.append(k)
            left.difference_update(comp)
    if left:
        raise HgaError("composition escapes the Hom space")
    return out


# ---------------------------------------------------------------------------
# the endomorphism algebra in the cluster category
# ---------------------------------------------------------------------------


@dataclass
class ClusterEndoResult:
    algebra: object          # re-presented algebra
    raw: object              # structure constants on the Hom and Ext bases
    end_dim: int             # dimension of the module-category part
    ext_dim: int             # dimension of the Ext part
    summand_labels: list     # vertex names, aligned with the collection
    # a trivial extension: the product of two Ext classes is zero
    ext_square_zero = True

    @property
    def total_dim(self):
        return self.end_dim + self.ext_dim


def cluster_endo_algebra(c):
    """Endomorphism algebra of the direct sum of c in the cluster category,
    as a trivial extension of End(T) by Ext^d(T, tau_d^- T): the product
    of two Ext classes is zero, so the table holds no such product and
    ``ext_square_zero`` is true by construction."""
    fam = c.family
    d = c.d
    labs = c.labels
    t = len(labs)
    vnames = [lab.label() for lab in labs]

    pair_homs = {(i, j): _pair_homs(fam, labs[i], labs[j])
                 for i in range(t) for j in range(t)}
    ext_space = {(i, j): e for i in range(t) for j in range(t)
                 if (e := _pair_ext(fam, labs[i], labs[j], d)) is not None}

    # basis: vertex idempotents, then Hom radical, then Ext classes.
    # an element M_a -> M_b is a path from vertex a to vertex b.
    records = []          # (kind, a, b, payload); hom: (map, component)
    basis_src, basis_tgt, basis_labels = [], [], []
    for i in range(t):
        records.append(("id", i, i, None))
        basis_src.append(vnames[i])
        basis_tgt.append(vnames[i])
        basis_labels.append(("e", vnames[i]))
    hom_ids = {}
    for i in range(t):
        for j in range(t):
            comps, basis = pair_homs[(i, j)]
            for k, f in enumerate(basis):
                hom_ids[(i, j, k)] = len(records)
                records.append(("hom", i, j, (f, comps[k])))
                basis_src.append(vnames[i])
                basis_tgt.append(vnames[j])
                basis_labels.append(("hom", vnames[i], vnames[j], k))
    ext_ids = {}
    for (i, j), space in ext_space.items():
        for k in range(space.dim):
            ext_ids[(i, j, k)] = len(records)
            records.append(("ext", i, j, k))
            basis_src.append(vnames[i])
            basis_tgt.append(vnames[j])
            basis_labels.append(("ext", vnames[i], vnames[j], k))

    def ext_coords(a, b, cocycle):
        return {ext_ids[(a, b, k)]: c for k, c in
                enumerate(ext_space[(a, b)].coords(cocycle)) if c}

    index = {v: i for i, v in enumerate(vnames)}
    mult = {}
    for i in range(t):
        mult[(i, i)] = {i: F1}
    for x in range(t, len(records)):
        src_i = index[basis_src[x]]
        tgt_i = index[basis_tgt[x]]
        mult[(x, src_i)] = {x: F1}
        mult[(tgt_i, x)] = {x: F1}
    ending_at = [[] for _ in range(t)]     # the records M_a -> M_b, per b
    for q in range(t, len(records)):
        ending_at[records[q][2]].append(q)
    for p in range(t, len(records)):
        kp, ap, bp, payp = records[p]
        for q in ending_at[ap]:
            kq, aq, bq, payq = records[q]
            # path product (p, q): q first; module maps also compose q first
            if kp == "ext" and kq == "ext":     # a trivial extension
                continue
            if kp == "hom" and kq == "hom":     # on the diagonal: the identity
                entry = {aq if aq == bp else hom_ids[(aq, bp, k)]: F1
                         for k in _components_of(pair_homs[(aq, bp)][0],
                                                 set(payp[1]) & set(payq[1]))}
            elif (aq, bp) not in ext_space:     # the product's Ext is zero
                continue
            elif kp == "ext":
                lift = reps.comparison_map(payq[0], d)
                if lift is None:
                    entry = {}
                else:
                    xi = ext_space[(ap, bp)].reps[payp]
                    entry = ext_coords(aq, bp, xi.compose(lift))
            else:  # kp == "hom", kq == "ext"
                tg = reps.higher_translate_inverse_morphism(payp[0], d)
                xi = ext_space[(aq, bq)].reps[payq]
                entry = ext_coords(aq, bp, tg.compose(xi))
            if entry:
                mult[(p, q)] = entry

    raw = Algebra(vnames, basis_labels, basis_src, basis_tgt, mult)
    return ClusterEndoResult(
        algebra=represent(raw),
        raw=raw,
        end_dim=t + len(hom_ids),
        ext_dim=len(ext_ids),
        summand_labels=vnames,
    )


# ---------------------------------------------------------------------------
# tilting
# ---------------------------------------------------------------------------


def _minimal_left_approximation(x, mods, rad_pair):
    """Minimal left approximation of x by the additive closure of mods.

    Components are chosen as a basis of Hom(x, M_i) modulo maps that
    factor through a radical map between summands; the radical of the
    additive category is nilpotent, so the stack is an approximation."""
    alg = x.algebra
    homs = [reps.hom_basis(x, m) for m in mods]
    chosen = []
    for i in range(len(mods)):
        span = linalg.TrackedSpan()
        for j in range(len(mods)):
            for h in rad_pair[(j, i)]:
                for g in homs[j]:
                    span.add(linalg.sparse(h.compose(g).flatten()))
        for g in homs[i]:
            if span.add(linalg.sparse(g.flatten())) is None:
                chosen.append((i, g))
    if not chosen:
        z = reps.zero_representation(alg)
        return z, reps.zero_morphism(x, z)
    total, incls, _ = reps.direct_sum([mods[i] for i, _ in chosen])
    f = reps.zero_morphism(x, total)
    for inc, (_, g) in zip(incls, chosen):
        f = f.add(inc.compose(g))
    return total, f


def is_d_tilting(c):
    """Tilting test: proj.dim <= d, Ext vanishing in degrees 1..d, and an
    add(T)-coresolution of the regular module of length at most d."""
    alg = c.family.algebra
    d = c.d
    mods = c.modules()
    for m in mods:
        if reps.proj_dim(m) > d:
            return False
    for mi in mods:
        for mj in mods:
            for k in range(1, d + 1):
                if reps.ext_dim(mi, mj, k):
                    return False
    labs = c.labels
    rad_pair = {(j, i): _pair_homs(c.family, labs[j], labs[i])[1]
                for j in range(len(mods)) for i in range(len(mods))}
    current = reps.regular_module(alg)
    for _ in range(d + 1):
        if current.is_zero():
            return True
        _, f = _minimal_left_approximation(current, mods, rad_pair)
        k, _ = reps.kernel(f)
        if not k.is_zero():
            return False
        current, _ = reps.cokernel(f)
    return current.is_zero()


# ---------------------------------------------------------------------------
# the projective-plus-translated-simples family
# ---------------------------------------------------------------------------


def _family_roles(family):
    """The family's projectives and its chain of simples, read off the
    labels and checked on the modules they name: ({v: label of P_v},
    [(v, label of S_v)] in chain order).

    With m = n + 2d, the module labelled I has the box corner
    J = `typea.corner`(I, m) and the top vertex (J_0, ..., J_{d-1}).  P_v
    is the label with J = v ++ (m), so its first entry is 1: its dims are
    those of P_v and its top is S_v.  The simple at chain position i sits
    at v = (i, i+2, ..., i+2(d-1)), i = 1..n, and is the label with
    J = v ++ (v_{d-1} + 2): its dims are {v: 1}.  tau_d^- of the simple at
    position i is the simple at position i-1, and that of the first is
    zero.  A module that fails its check is a fault of hga
    (LabelMatchFailed)."""
    alg = family.algebra
    n, d = alg.typeA["n"], alg.typeA["d"]
    m = n + 2 * d
    name = {t.entries: t.label() for t in tuple_set(d - 1, m - 2)}

    def named(j):
        i = family.index_of(corner(j, m))
        return family.labels[i], family.modules[i]

    simples, before = [], {}        # the dims of the simple before
    for i in range(1, n + 1):
        v = tuple(range(i, i + 2 * d, 2))
        lab, mod = named(v + (v[-1] + 2,))
        if mod.dims != {name[v]: 1}:
            raise LabelMatchFailed(f"{lab.entries} is not the simple at {v}")
        if reps.higher_translate_inverse(mod, d).dims != before:
            raise LabelMatchFailed(
                f"tau_d^- of the simple at {v} is not the one before it")
        before = mod.dims
        simples.append((name[v], lab))
    proj = {}
    for v, vname in name.items():
        lab, mod = named(v + (m,))
        if (mod.dims != reps.projective(alg, vname).dims
                or reps.minimal_resolution(mod, 0)[2][0] != [vname]):
            raise LabelMatchFailed(f"{lab.entries} is not the projective "
                                   f"at {vname}")
        proj[vname] = lab
    return proj, simples


def ctgent_family(n, d, index_set, family=None):
    """The tilting collection made of all projectives except those at the
    chosen chain positions, each replaced by the inverse translate of its
    simple.  Both roles are read off the labels (`_family_roles`).

    Positions are counted along the translate chain of simples
    (tau_d^- S at position i is the simple at position i-1); adjacent
    positions are rejected, and position 1 is unavailable because its
    translate leaves the module category.  The positions are checked
    before A^d_n and its family are built."""
    if family is None:
        _check_size(n, d)
    elif family.algebra.typeA != {"n": n, "d": d}:
        raise HgaError("family does not match the requested parameters")
    index_set = sorted(set(index_set))
    if any(i < 1 or i > n for i in index_set):
        raise ValueError(f"positions must lie in 1..{n}: {index_set}")
    for j in index_set:
        if (j % n) + 1 in index_set:
            raise AdjacencyViolation(
                f"positions {j} and {(j % n) + 1} are adjacent modulo {n}"
            )
    if 1 in index_set:
        raise UnsupportedSummand(
            "the translate of the first chain simple is a shifted projective"
        )
    if family is None:
        family = canonical_cluster_tilting(build_typeA_auslander(n, d))
    alg = family.algebra
    proj, simples = _family_roles(family)
    dropped = {simples[i - 1][0] for i in index_set}
    labels = [proj[v] for v in alg.vertices if v not in dropped]
    labels += [simples[i - 2][1] for i in index_set]
    return SummandCollection(family, labels, {
        "n": n, "d": d, "positions": list(index_set)})


def ctgent_cover(c):
    """Cover algebra and corner idempotent certifying a ctgent collection:
    the endomorphism algebra of c's summands together with every
    projective, the family labels whose first entry is 1 (T + A), cut
    down to the collection's vertices."""
    from .presentations import Idempotent

    if c.ctgent is None:
        raise HgaError("collection was not produced by ctgent_family")
    fam = c.family
    cover = SummandCollection(fam, [
        lab for i, lab in enumerate(fam.labels)
        if lab.entries[0] == 1 or c.mask >> i & 1])
    res = cluster_endo_algebra(cover)
    e = Idempotent.of([lab.label() for lab in c.labels])
    return res, e
