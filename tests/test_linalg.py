import ast
from fractions import Fraction
from pathlib import Path

import pytest

from hga import linalg
from hga.linalg import F0, F1, TrackedSpan
from reference_linalg import solve

SRC = Path(__file__).resolve().parents[1] / "src" / "hga"


def fr(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_rank_nullspace():
    m = fr([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(m) == 2
    ns = linalg.nullspace(m)
    assert len(ns) == 1
    for row in m:
        assert sum(c * x for c, x in zip(row, ns[0])) == 0


def test_solve():
    a = fr([[2, 1], [1, 3]])
    b = [Fraction(5), Fraction(10)]
    x = solve(a, b)
    assert linalg.mat_vec(a, x) == b


def test_solve_inconsistent():
    a = fr([[1, 1], [1, 1]])
    assert solve(a, [F1, F0]) is None


def test_solve_with_no_unknowns():
    # [] stands for as many equations as b has entries, in no unknowns
    assert solve([], []) == []
    assert solve([], [F0, F0]) == []
    assert solve([], [F0, F1]) is None


def test_sparse_rref_reduces_chains():
    span = TrackedSpan()
    # x2 = x3, x3 = x4, x4 = 0 should force x2 = 0
    span.add({3: F1, 2: -F1})
    span.add({4: F1, 3: -F1})
    span.add({4: F1})
    assert span.coords({2: F1}) == {}
    assert span.coords({1: F1}) is None
    assert span.reduced_rows() == {2: {2: F1}, 3: {3: F1}, 4: {4: F1}}


def test_sparse_span_add_returns_the_dependency():
    span = TrackedSpan()
    assert span.add({5: F1, 1: F1}) is None
    # dependent: an untagged vector is in the span with no combination
    assert span.add({5: Fraction(2), 1: Fraction(2)}) == {}
    assert span.add({5: F1}, "t") is None
    assert span.add({1: F1}, "u") == {"u": F1, "t": F1}
    assert sorted(span.rows) == [1, 5]


def test_div_keeps_integral_quotients_ints():
    q = linalg.div(-3, 3)
    assert q == -1 and type(q) is int
    assert linalg.div(1, 2) == Fraction(1, 2)
    q = linalg.div(Fraction(3, 2), Fraction(1, 2))
    assert q == 3 and type(q) is int
    with pytest.raises(ZeroDivisionError):
        linalg.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        linalg.div(Fraction(1, 2), 0)


def test_exact_reads_what_fraction_reads():
    two = linalg.exact("4/2")
    assert two == 2 and type(two) is int
    third = linalg.exact("1/3")
    assert third == Fraction(1, 3) and type(third) is Fraction
    assert type(linalg.exact(Fraction(6, 3))) is int
    assert type(linalg.exact(-5)) is int


def true_divisions(source, exempt=()):
    """(line, text) of each true division in source outside the bodies of
    the functions named in exempt: a ``/`` or ``/=``, or a power with a
    negated exponent.  Either turns two ints into a float."""
    tree = ast.parse(source)
    skip = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in exempt
            for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            right = node.right
        elif isinstance(node, ast.AugAssign):
            right = node.value
        else:
            continue
        negated = isinstance(right, ast.UnaryOp) and \
            isinstance(right.op, ast.USub)
        if id(node) not in skip and (isinstance(node.op, ast.Div) or (
                isinstance(node.op, ast.Pow) and negated)):
            found.append((node.lineno, ast.get_source_segment(source, node)))
    return sorted(found)


def test_scan_finds_true_divisions():
    source = ("def div(x, y):\n    return x / y\n\n"
              "def f(a, b, k):\n    c = a / b\n    a /= 2\n"
              "    return a ** -1 + b ** -k + a ** 2 + div(a, b) + a // b\n")
    assert true_divisions(source, exempt=("div",)) == [
        (5, "a / b"), (6, "a /= 2"), (7, "a ** -1"), (7, "b ** -k")]
    assert true_divisions(source)[0] == (2, "x / y")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_true_division_outside_div(path):
    exempt = ("div",) if path.name == "linalg.py" else ()
    assert true_divisions(path.read_text(encoding="utf-8"), exempt) == []
