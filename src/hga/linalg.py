"""Exact linear algebra over the rationals.

A scalar is an exact rational held as a Python int while it is integral and
as a Fraction otherwise (`exact`); the two compare, hash and print alike, and
most values met here are integers, which ints handle far faster.  Arithmetic
on ints stays exact except for true division, so every quotient is taken
with `div`.  Matrices are lists of lists of scalars; all routines are
deterministic (fixed pivot order) so downstream bases never depend on
evaluation order.
"""

from fractions import Fraction

F0 = 0
F1 = 1


def exact(x):
    """x as an exact scalar: an int when it is integral, else a Fraction.
    Accepts whatever Fraction accepts (ints, Fractions, strings "1/2")."""
    if type(x) is int:
        return x
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def div(x, y):
    """The exact quotient x / y of two scalars, an int when it is integral.
    Raises ZeroDivisionError when y is zero."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        if not r:
            return q
    return exact(Fraction(x) / y)


def add_scaled(vec, f, row):
    """vec += f * row, in place, for sparse vectors {index: scalar}; an
    entry that becomes zero is dropped."""
    for j, c in row.items():
        nv = vec.get(j, F0) + f * c
        if nv:
            vec[j] = nv
        else:
            vec.pop(j, None)


def sparse(vec):
    """The sparse vector {index: scalar} of the nonzero entries of vec."""
    return {j: c for j, c in enumerate(vec) if c}


def identity(n):
    out = []
    for i in range(n):
        row = [F0] * n
        row[i] = F1
        out.append(row)
    return out


def mat_mul(a, b):
    p = len(b[0]) if b else 0
    out = []
    for ai in a:
        row = [F0] * p
        for c, bt in zip(ai, b):
            if c:
                for j, y in enumerate(bt):
                    if y:
                        row[j] += c * y
        out.append(row)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_vec(a, v):
    out = []
    for row in a:
        s = F0
        for c, x in zip(row, v):
            if c:
                s += c * x
        out.append(s)
    return out


def transpose(m):
    return list(map(list, zip(*m)))


def _echelon(m):
    """rref's rows and pivots, without the copies: a row that elimination
    leaves as it is stays the input's own row object.  A pivot row is
    scaled only when its pivot is not 1; multiplying by 1 would change no
    value and no scalar type."""
    rows = list(m)
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if rows[pr][c]:
                break
        else:
            continue
        prow = rows[pr]
        rows[pr] = rows[r]
        if prow[c] != F1:
            inv = div(F1, prow[c])
            prow = [x * inv for x in prow]
        rows[r] = prow
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list), every
    row a new list, m left as it is.  One row, as most calls from L2 have,
    is read directly: its first nonzero entry is the pivot."""
    if len(m) == 1:
        row = m[0]
        for c, x in enumerate(row):
            if x:
                if x != F1:
                    inv = div(F1, x)
                    return [[y * inv for y in row]], [c]
                return [row[:]], [c]
        return [row[:]], []
    rows, pivots = _echelon(m)
    given = set(map(id, m))
    for i, row in enumerate(rows):
        if id(row) in given:
            rows[i] = row[:]
    return rows, pivots


def rank(m):
    return len(_echelon(m)[1])


def nullspace(m, ncols=None):
    """Basis (list of vectors) of the right nullspace of m; an m with no
    rows has ncols columns."""
    if not m:
        return identity(ncols or 0)
    red, pivots = _echelon(m)
    ncols = len(m[0])
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [F0] * ncols
        v[free] = F1
        for row, pc in zip(red, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


class TrackedSpan:
    """The span of sparse vectors added under tags, in echelon form: a row
    has entry 1 at its pivot, its largest index, and keeps the combination
    of tagged vectors it is.  A vector is reduced largest pivot first.  One
    added under the tag None spans a subspace that combinations are taken
    modulo: it enters none of them.  This is hga's one sparse eliminator:
    every sparse span, rank and normal form is read off it."""

    def __init__(self):
        self.rows = {}  # pivot -> (row, {tag: coefficient})

    def _reduce(self, vec, combo):
        """vec reduced, and combo less the combinations of the rows used."""
        vec = {j: c for j, c in vec.items() if c}
        rows = self.rows
        while vec:
            piv = max(vec)
            row = rows.get(piv)
            if row is None:
                break
            f = vec[piv]
            add_scaled(vec, -f, row[0])
            if row[1]:
                add_scaled(combo, -f, row[1])
        return vec, combo

    def add(self, vec, tag=None):
        """Add vec under tag.  None when vec is independent of the span; it
        joins it.  Otherwise the dependency it satisfies: tag at 1 less the
        combination of tags whose vectors sum to vec modulo the untagged
        ones; vec does not join."""
        vec, combo = self._reduce(vec, {} if tag is None else {tag: F1})
        if not vec:
            return combo
        piv = max(vec)
        inv = div(F1, vec[piv])
        self.rows[piv] = ({j: c * inv for j, c in vec.items()},
                          {t: c * inv for t, c in combo.items()})
        return None

    def coords(self, vec):
        """{tag: c}, zeros left out, with vec the sum of c times the vector
        added under each tag, modulo the untagged ones; None when vec is
        not in the span."""
        rest, combo = self._reduce(vec, {})
        return None if rest else {t: -c for t, c in combo.items()}

    def reduced_rows(self):
        """{pivot: row}, each row fully reduced: it has no entry at another
        pivot.  The rows are back-substituted in increasing pivot order, so
        each is reduced against rows that already are, and the result is
        the span's unique reduced echelon form."""
        out = {}
        for piv in sorted(self.rows):
            row = dict(self.rows[piv][0])
            for j in list(row):
                if j in out:
                    add_scaled(row, -row[j], out[j])
            out[piv] = row
        return out
