"""Test oracle for the dense routines of ``hga.linalg``: the dense kernel as
it was first written, kept here unchanged.

Each routine copies its whole input, finds a pivot with a generator, scales
every pivot row and starts every product from a matrix of zeros.  The
differential tests in ``tests/test_linalg_properties.py`` check that the
routines of ``hga.linalg`` return exactly what these return: the same
pivots, the same rows and the same scalar type in every entry.

``solve`` and ``reduce_mod_rows`` have no caller in ``hga``; they live here
for the tests and oracles that use them.

``SparseRREF`` is the incremental sparse elimination that ``hga`` kept
beside ``hga.linalg.TrackedSpan`` until ``TrackedSpan`` became its one
sparse eliminator.  It keeps its rows fully reduced as it goes, through a
column index.  It is the oracle of the differential tests of
``TrackedSpan`` in ``tests/test_linalg_properties.py`` (the same pivots,
the same independence answers, and ``TrackedSpan.reduced_rows`` equal to
its rows), and the row reduction of the oracles in
``tests/reference_presentation.py`` and ``tests/reference_scans.py``.
"""

from hga.linalg import F0, F1, add_scaled, div


def zeros(nrows, ncols):
    return [[F0] * ncols for _ in range(nrows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = F1
    return m


def copy_matrix(m):
    return [row[:] for row in m]


def mat_mul(a, b):
    n, k = len(a), len(b)
    p = len(b[0]) if b else 0
    out = zeros(n, p)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(p):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_vec(a, v):
    return [sum((c * x for c, x in zip(row, v) if c), F0) for row in a]


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = copy_matrix(m)
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = div(F1, m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(m):
    rows = [row for row in m if any(row)]
    return len(rref(rows)[1]) if rows else 0


def nullspace(m, ncols=None):
    """Basis (list of vectors) of the right nullspace of m."""
    if not m:
        return [] if not ncols else [
            [F1 if i == j else F0 for i in range(ncols)] for j in range(ncols)
        ]
    red, pivots = rref(m)
    ncols = len(m[0])
    piv_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in piv_set:
            continue
        v = [F0] * ncols
        v[free] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent.  An a with no
    rows stands for len(b) equations in no unknowns."""
    if not a:
        return None if any(b) else []
    nrows = len(a)
    ncols = len(a[0])
    aug = [a[i][:] + [b[i]] for i in range(nrows)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [F0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def reduce_mod_rows(rows_rref, pivots, v):
    """Remainder of v after elimination against an rref row basis."""
    v = v[:]
    for r, pc in enumerate(pivots):
        if v[pc]:
            f = v[pc]
            v = [x - f * y for x, y in zip(v, rows_rref[r])]
    return v


class SparseRREF:
    """Incremental Gaussian elimination on sparse vectors {index: scalar}.

    Pivot of a vector is its largest index, so elimination rewrites
    later-ordered coordinates in terms of earlier ones.  Used for path-class
    reduction where indices follow the (length, lex) path order.
    """

    def __init__(self):
        self.rows = {}  # pivot index -> normalized sparse row
        self.cols = {}  # column index -> pivots of the rows with an entry there

    def reduce(self, vec):
        """Fully reduce a sparse vector against the current rows.

        A stored row has no entry at another row's pivot, so subtracting it
        brings in no pivot: the pivots eliminated are those of the input,
        largest first."""
        rows = self.rows
        vec = {j: c for j, c in vec.items() if c}
        for target in sorted([j for j in vec if j in rows], reverse=True):
            add_scaled(vec, -vec[target], rows[target])
        return vec

    def add(self, vec):
        """Insert a vector; returns its pivot index or None if dependent."""
        vec = self.reduce(vec)
        if not vec:
            return None
        piv = max(vec)
        inv = div(F1, vec[piv])
        row = {j: c * inv for j, c in vec.items()}
        # keep stored rows fully reduced against one another: only the rows
        # with an entry at piv change, and each loses that entry
        cols = self.cols
        for p in cols.pop(piv, ()):
            r = self.rows[p]
            f = r.pop(piv)
            for j, c in row.items():
                if j == piv:
                    continue
                nv = r.get(j, F0) - f * c
                if nv:
                    if j not in r:
                        cols.setdefault(j, set()).add(p)
                    r[j] = nv
                elif j in r:
                    del r[j]
                    cols[j].discard(p)
                    if not cols[j]:
                        del cols[j]
        for j in row:
            cols.setdefault(j, set()).add(piv)
        self.rows[piv] = row
        return piv
