"""Type-A combinatorics: separated tuples, intertwining, higher Auslander
algebras of linear quivers, and their canonical cluster-tilting modules."""

from dataclasses import dataclass, field
from itertools import combinations

from .algebras import build_algebra
from .errors import ArityMismatch, LabelMatchFailed, ScaleExceeded
from .presentations import (
    BoundQuiverPresentation,
    Quiver,
    commutativity_relation,
    zero_relation,
)
from . import reps


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
    return all(a[i] < b[i] for i in range(len(a))) and \
        all(b[i] < a[i + 1] for i in range(len(a) - 1))


@dataclass
class TupleCollection:
    tuples: list
    d: int
    m: int
    cyclic: bool
    _matrix: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.tuples = sorted(self.tuples)
        for t in self.tuples:
            if t.d != self.d or t.m != self.m or t.cyclic != self.cyclic:
                raise ArityMismatch("collection over mixed (d, m, cyclic)")

    def intertwining(self, x, y):
        key = (x.entries, y.entries)
        if key not in self._matrix:
            self._matrix[key] = intertwines(x, y)
        return self._matrix[key]

    def is_nonintertwining(self):
        for x, y in combinations(self.tuples, 2):
            if self.intertwining(x, y) or self.intertwining(y, x):
                return False
        return True

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


def collection_from_dict(data):
    d, m, cyclic = data["d"], data["m"], data["cyclic"]
    tuples = [Tuple(tuple(e), m, cyclic) for e in data["tuples"]]
    return TupleCollection(tuples, d, m, cyclic)


def maximal_nonintertwining(d, m, cyclic=False, scale_cap=60):
    """All inclusion-maximal non-intertwining collections.

    Maximal independent sets of the symmetrized intertwining graph,
    enumerated deterministically in lexicographic order.
    """
    tuples = tuple_set(d, m, cyclic)
    n = len(tuples)
    if n > scale_cap:
        raise ScaleExceeded(f"{n} tuples exceeds the scale cap {scale_cap}")
    conflict = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if intertwines(tuples[i], tuples[j]) or \
                    intertwines(tuples[j], tuples[i]):
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    # maximal independent sets = maximal cliques of the complement
    full = (1 << n) - 1
    compat = [full & ~conflict[i] & ~(1 << i) for i in range(n)]
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


def build_typeA_auslander(n, d):
    """The higher Auslander algebra A^d_n as a bound quiver algebra.

    Vertices are the separated d-tuples in {1..n+2(d-1)}; arrows increment
    one coordinate; squares commute and a length-2 path whose alternate
    corner tuple is invalid vanishes.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
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
    alg = build_algebra(BoundQuiverPresentation(quiver, relations))
    alg.typeA = {"n": n, "d": d}
    return alg


@dataclass
class LabelledModuleFamily:
    algebra: object
    modules: list               # indecomposables, construction order
    labels: list                # Tuple per module, aligned with modules
    ext_edges: set              # pairs (i, j) with Ext^d(M_i, M_j) != 0
    report: dict

    def module_of(self, t):
        if isinstance(t, Tuple):
            t = t.entries
        for mod, lab in zip(self.modules, self.labels):
            if lab.entries == tuple(t):
                return mod
        raise KeyError(f"no module labelled {t}")


def _canonical_matrix_match(n, mat_a, mat_b):
    """Lexicographically least bijection b -> a with mat_b[i][j] ==
    mat_a[f(i)][f(j)] for all i, j.  Returns the mapping dict or None."""
    def profile(mat, i):
        return (mat[i][i], sorted(mat[i]),
                sorted(mat[j][i] for j in range(n)))

    prof_a = [profile(mat_a, i) for i in range(n)]
    prof_b = [profile(mat_b, i) for i in range(n)]
    mapping = {}
    used = [False] * n

    def consistent(b, a):
        if prof_b[b] != prof_a[a]:
            return False
        for b2, a2 in mapping.items():
            if mat_b[b][b2] != mat_a[a][a2] or \
                    mat_b[b2][b] != mat_a[a2][a]:
                return False
        return True

    def assign(b):
        if b == n:
            return True
        for a in range(n):
            if used[a] or not consistent(b, a):
                continue
            mapping[b] = a
            used[a] = True
            if assign(b + 1):
                return True
            del mapping[b]
            used[a] = False
        return False

    if assign(0):
        return mapping
    return None


def canonical_cluster_tilting(a):
    """The canonical d-cluster-tilting module family of A^d_n with tuple
    labels.

    Labels are pinned by the endomorphism algebra of the family: the map
    M_I must satisfy dim Hom(M_I, M_J) = number of paths I -> J in the
    next higher Auslander algebra A^{d+1}_n.  The Ext^d criterion
    (Ext^d(M_I, M_J) != 0 iff J intertwines I) is then verified."""
    info = getattr(a, "typeA", None)
    if info is None:
        raise ValueError("algebra was not built by build_typeA_auslander")
    n, d = info["n"], info["d"]
    modules = []

    def add(mod):
        if mod.is_zero():
            return False
        for other in modules:
            if other.dim_vector() == mod.dim_vector() and \
                    reps.is_isomorphic(other, mod):
                return False
        modules.append(mod)
        return True

    frontier = []
    for v in a.vertices:
        mod = reps.injective(a, v)
        if add(mod):
            frontier.append(mod)
    generations = 0
    while frontier:
        generations += 1
        next_frontier = []
        for mod in frontier:
            t = reps.higher_translate(mod, d)
            if t.is_zero():
                continue
            for part, _ in reps.decompose_indecomposables(t):
                if add(part):
                    next_frontier.append(part)
        frontier = next_frontier
    count = len(modules)
    m = n + 2 * d
    labels_pool = tuple_set(d, m)
    if count != len(labels_pool):
        raise LabelMatchFailed(
            f"orbit produced {count} modules, expected {len(labels_pool)}"
        )
    ext_edges = set()
    for i, mi in enumerate(modules):
        for j, mj in enumerate(modules):
            if i != j and reps.ext_dim(mi, mj, d):
                ext_edges.add((i, j))
    # target matrix: path counts of A^{d+1}_n between tuple labels
    a_next = build_typeA_auslander(n, d + 1)
    vpos = {v: i for i, v in enumerate(a_next.vertices)}
    path_mat = [[0] * count for _ in range(count)]
    for b in range(len(a_next.basis_src)):
        path_mat[vpos[a_next.basis_src[b]]][vpos[a_next.basis_tgt[b]]] += 1
    order = [vpos[t.label()] for t in labels_pool]
    mat_b = [[path_mat[order[i]][order[j]] for j in range(count)]
             for i in range(count)]
    hom_mat = [[len(reps.hom_basis(mi, mj)) for mj in modules]
               for mi in modules]
    # labels are processed in lexicographic order; each receives the least
    # compatible module index
    mapping = _canonical_matrix_match(count, hom_mat, mat_b)
    if mapping is None:
        raise LabelMatchFailed("Hom dimensions do not match the path counts "
                               "of the next higher Auslander algebra")
    labels = [None] * count
    for label_idx, module_idx in mapping.items():
        labels[module_idx] = labels_pool[label_idx]
    # verification: Ext^d(M_I, M_J) != 0 iff J intertwines I
    pos_of = {labels[i].entries: i for i in range(count)}
    for x in labels_pool:
        for y in labels_pool:
            if x is y:
                continue
            expected = intertwines(y, x)
            got = (pos_of[x.entries], pos_of[y.entries]) in ext_edges
            if expected != got:
                raise LabelMatchFailed(
                    f"Ext criterion fails for ({x.entries}, {y.entries})"
                )
    report = {
        "translateOrbit": "injectives closed under repeated tau_d, "
                          "exponents i >= 0 (i = 0 includes DA itself)",
        "generations": generations,
        "moduleCount": count,
    }
    return LabelledModuleFamily(a, modules, labels, ext_edges, report)
