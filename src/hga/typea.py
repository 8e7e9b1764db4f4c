"""Type-A combinatorics: separated tuples, intertwining, higher Auslander
algebras of linear quivers, and their canonical cluster-tilting modules."""

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product

from .algebras import build_algebra
from .errors import ArityMismatch, LabelMatchFailed, ScaleExceeded
from .memo import memo
from .presentations import (
    BoundQuiverPresentation,
    Quiver,
    commutativity_relation,
    zero_relation,
)
from . import linalg, reps


@dataclass(frozen=True, order=True)
class Tuple:
    """Increasing integer tuple with gaps of at least two."""

    entries: tuple
    m: int
    cyclic: bool = False

    def __post_init__(self):
        ent = self.entries
        if not ent:
            raise ValueError("empty tuple")
        if any(e < 1 or e > self.m for e in ent):
            raise ValueError(f"entries out of range 1..{self.m}: {ent}")
        if any(ent[i] + 2 > ent[i + 1] for i in range(len(ent) - 1)):
            raise ValueError(f"gap condition violated: {ent}")
        if self.cyclic and ent[-1] + 2 > ent[0] + self.m:
            raise ValueError(f"cyclic gap condition violated: {ent}")

    @property
    def d(self):
        return len(self.entries) - 1

    def label(self):
        if self.entries[-1] <= 9:
            return "".join(str(e) for e in self.entries)
        return "-".join(str(e) for e in self.entries)


def tuple_set(d, m, cyclic=False):
    """All valid (d+1)-tuples in {1..m}, lexicographically sorted."""
    if m < d + 1 or d < 0:
        raise ValueError("need m >= d+1 >= 1")
    out = []
    for combo in combinations(range(1, m + 1), d + 1):
        if any(combo[i] + 2 > combo[i + 1] for i in range(d)):
            continue
        if cyclic and combo[-1] + 2 > combo[0] + m:
            continue
        out.append(Tuple(combo, m, cyclic))
    return out


def corner(entries, m):
    """(m+1) - reverse(entries): the corner J of the box of the thin module
    M_I of `canonical_cluster_tilting` with I = entries, and, the map being
    its own inverse, the label I of the module whose box has corner J."""
    return tuple(m + 1 - e for e in reversed(entries))


def intertwines(x, y):
    """Strict alternation x0 < y0 < x1 < y1 < ... < xd < yd."""
    if not isinstance(x, Tuple) or not isinstance(y, Tuple):
        raise ArityMismatch("intertwines expects Tuple arguments")
    if x.d != y.d or x.m != y.m or x.cyclic != y.cyclic:
        raise ArityMismatch(
            f"incompatible tuples: ({x.d},{x.m},{x.cyclic}) vs "
            f"({y.d},{y.m},{y.cyclic})"
        )
    a, b = x.entries, y.entries
    return all(map(operator.lt, a, b)) and all(map(operator.lt, b, a[1:]))


@dataclass
class TupleCollection:
    tuples: list
    d: int
    m: int
    cyclic: bool

    def __post_init__(self):
        self.tuples = sorted(self.tuples)
        for t in self.tuples:
            if t.d != self.d or t.m != self.m or t.cyclic != self.cyclic:
                raise ArityMismatch("collection over mixed (d, m, cyclic)")

    def labels(self):
        return [t.label() for t in self.tuples]

    def __len__(self):
        return len(self.tuples)

    def to_dict(self):
        return {
            "d": self.d,
            "m": self.m,
            "cyclic": self.cyclic,
            "tuples": [list(t.entries) for t in self.tuples],
        }


def maximal_nonintertwining(d, m, cyclic=False, scale_cap=60):
    """All inclusion-maximal non-intertwining collections.

    Maximal independent sets of the symmetrized intertwining graph,
    enumerated deterministically in lexicographic order.
    """
    tuples = tuple_set(d, m, cyclic)
    n = len(tuples)
    if n > scale_cap:
        raise ScaleExceeded(f"{n} tuples exceeds the scale cap {scale_cap}")
    masks = _intertwining_masks(tuples)
    # maximal independent sets = maximal cliques of the complement
    full = (1 << n) - 1
    compat = [full & ~(masks[i] | 1 << i) & ~sum(
        1 << j for j in range(n) if masks[j] >> i & 1) for i in range(n)]
    results = []

    def bk(r, p, x):
        if p == 0 and x == 0:
            results.append(r)
            return
        pux = p | x
        pivot = (pux & -pux).bit_length() - 1
        candidates = p & ~compat[pivot]
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            bk(r | (1 << v), p & compat[v], x & compat[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, full, 0)
    collections = []
    for mask in results:
        chosen = [tuples[i] for i in range(n) if mask & (1 << i)]
        collections.append(TupleCollection(chosen, d, m, cyclic))
    collections.sort(key=lambda c: [t.entries for t in c.tuples])
    return collections


def _shift(t, k):
    return tuple(t[i] + (1 if i == k else 0) for i in range(len(t)))


def _check_size(n, d):
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")


def build_typeA_auslander(n, d):
    """The higher Auslander algebra A^d_n as a bound quiver algebra.

    Vertices are the separated d-tuples in {1..n+2(d-1)}; arrows increment
    one coordinate; squares commute and a length-2 path whose alternate
    corner tuple is invalid vanishes.
    """
    _check_size(n, d)
    m = n + 2 * (d - 1)
    verts = tuple_set(d - 1, m)
    labels = {t.entries: t.label() for t in verts}
    valid = set(labels)
    arrows = []
    arrow_name = {}
    for t in verts:
        for k in range(d):
            s = _shift(t.entries, k)
            if s in valid:
                name = f"{labels[t.entries]}_{labels[s]}"
                arrows.append((name, labels[t.entries], labels[s]))
                arrow_name[(t.entries, k)] = name
    relations = []
    for t in verts:
        for k in range(d):
            for l in range(k + 1, d):
                mid_k = _shift(t.entries, k)
                mid_l = _shift(t.entries, l)
                target = _shift(mid_k, l)
                if target not in valid:
                    continue
                k_ok = mid_k in valid
                l_ok = mid_l in valid
                if k_ok and l_ok:
                    relations.append(commutativity_relation(
                        (arrow_name[(t.entries, k)],
                         arrow_name[(mid_k, l)]),
                        (arrow_name[(t.entries, l)],
                         arrow_name[(mid_l, k)]),
                    ))
                elif k_ok:
                    relations.append(zero_relation(
                        (arrow_name[(t.entries, k)],
                         arrow_name[(mid_k, l)])
                    ))
                elif l_ok:
                    relations.append(zero_relation(
                        (arrow_name[(t.entries, l)],
                         arrow_name[(mid_l, k)])
                    ))
    quiver = Quiver([labels[t.entries] for t in verts], arrows)
    return build_algebra(BoundQuiverPresentation(quiver, relations),
                         typeA={"n": n, "d": d})


@dataclass
class LabelledModuleFamily:
    """Modules with tuple labels.  Data about pairs of its modules is
    memoised on the family (see hga.cluster), and refers to the modules,
    never back to the family."""

    algebra: object
    modules: list               # indecomposables, lexicographic label order
    labels: list                # Tuple per module, aligned with modules
    ext_edges: set              # pairs (i, j) with Ext^d(M_i, M_j) != 0

    def label_index(self):
        """{entries: position} of every label, memoised on the family: one
        read maps a whole collection's labels to positions."""
        return memo(self, "label index", lambda: {
            lab.entries: i for i, lab in enumerate(self.labels)})

    def intertwining_masks(self):
        """`_intertwining_masks` of the labels, memoised on the family."""
        return memo(self, "intertwining masks",
                    lambda: _intertwining_masks(self.labels))

    def index_of(self, t):
        """Position of the module labelled t (a Tuple or its entries), read
        from `label_index`."""
        ent = t.entries if isinstance(t, Tuple) else tuple(t)
        try:
            return self.label_index()[ent]
        except KeyError:
            raise KeyError(f"no module labelled {ent}") from None

    def module_of(self, t):
        return self.modules[self.index_of(t)]


def canonical_cluster_tilting(a):
    """The canonical d-cluster-tilting module family of A^d_n with tuple
    labels, built from its closed form (Oppermann-Thomas, "Higher-
    dimensional cluster combinatorics and representation theory", JEMS
    2012, section 3).

    There is one thin module M_I per separated (d+1)-tuple I of {1..n+2d},
    in lexicographic order.  With J = (n+2d+1) - reverse(I), its `corner`,
    M_I is one-dimensional at the vertices x with J_k <= x_k <= J_{k+1} - 2
    (k = 0..d-1), zero elsewhere, and acts as the identity on every arrow
    inside that box.  Each module is checked against the relations and
    proved a thin box once: a basis path acts on it by 1 if both its ends
    are in the box, else by 0.  So the Ext^d criterion (Ext^d(M_I, M_J) != 0
    iff J intertwines I) is checked on every ordered pair, the diagonal
    included, one row I at a time off M_I's resolution (`_ext_table`), and
    ext_edges is the complete table of where Ext^d vanishes.  `hga.cluster`
    reads the Hom spaces between these thin modules off their supports."""
    info = a.typeA
    if info is None:
        raise ValueError("algebra was not built by build_typeA_auslander")
    n, d = info["n"], info["d"]
    m = n + 2 * d
    verts = tuple_set(d - 1, m - 2)
    arrows = a.quiver.arrows
    labels = tuple_set(d, m)
    modules = []
    for t in labels:
        j = corner(t.entries, m)
        box = {x.label() for x in verts
               if all(j[k] <= x.entries[k] <= j[k + 1] - 2
                      for k in range(d))}
        maps = {ar.name: [[1]] for ar in arrows
                if ar.source in box and ar.target in box}
        modules.append(reps.Representation(a, dict.fromkeys(box, 1), maps))
    masks = _intertwining_masks(labels)
    fam = LabelledModuleFamily(a, modules, labels,
                               _ext_table(labels, modules, masks, d))
    memo(fam, "intertwining masks", lambda: masks)
    return fam


def _intertwining_masks(labels):
    """Per label x, the bitmask of the positions of the labels y that
    intertwine x: the y with x_{k-1} < y_k < x_k for each k (x_{-1} = 0)."""
    index = {y.entries: i for i, y in enumerate(labels)}
    return [sum(1 << index[y] for y in product(*[
        range(lo + 1, hi) for lo, hi in zip((0,) + x.entries, x.entries)])
        if y in index) for x in labels]


def _ext_table(labels, modules, masks, d):
    """The pairs (i, k) with Ext^d(M_i, M_k) != 0, checked against the
    intertwining masks row by row: LabelMatchFailed where they disagree or
    a module is not a thin box B (its maps [[1]], its support its own hull).
    A basis path then acts by 1 if its ends are in B, else by 0, so Ext^d
    is |S_d ∩ B| - rank C_d|_B - rank C_{d-1}|_B, with S_j the summand
    vertices of P_j(M_i) and C_j the coefficient sums of P_{j+1} -> P_j."""
    at = {}                 # vertex -> the positions whose box holds it
    for i, mod in enumerate(modules):
        if (any(k != 1 for k in mod.dims.values())
                or any(mat != [[1]] for mat in mod.maps.values())
                or mod.algebra.hull(mod.support) != list(mod.support)):
            raise LabelMatchFailed(f"{labels[i].entries} is not a thin box")
        for v in mod.support:
            at[v] = at.get(v, 0) | 1 << i
    for i, mx in enumerate(modules):
        top, dim = _ext_row(mx, d)
        cands = reduce(operator.or_, map(at.__getitem__, top), 0)
        bad = masks[i] & ~cands
        if not bad:
            bad = masks[i] ^ sum(bool(dim(my.dims)) << k for k, my
                                 in enumerate(modules) if cands >> k & 1)
        if bad:
            x, y = labels[i], labels[(bad & -bad).bit_length() - 1]
            raise LabelMatchFailed(
                f"Ext criterion fails for ({x.entries}, {y.entries})")
    return {(i, k) for i, mask in enumerate(masks)
            for k in range(len(masks)) if mask >> k & 1}


def _ext_row(mx, d):
    """(S_d, dim) of row mx of `_ext_table`; dim reads a box meeting S_d."""
    terms, diffs, summands, _, _ = reps._resolution(mx, d + 1)
    # sums[j][t][s]: C_{d-1+j} from summand s of P_{d+j} to t of P_{d-1+j}
    sums = [[[sum(e.values()) for e in row] for row in
             reps._differential_elements(diffs[j + 1], summands, j)]
            for j in range(d - 1, min(d + 1, len(terms) - 1))]

    def dim(box):
        keep = [[s for s, v in enumerate(vs) if v in box]
                for vs in summands[d - 1:d + 2]]
        return len(keep[1]) - sum(
            linalg.rank([[c[t][s] for s in keep[j + 1]] for t in keep[j]])
            for j, c in enumerate(sums))

    return (summands[d] if len(terms) > d else ()), dim
