"""Property tests of the canonical family's pair data against predicates
on its labels, over small (n, d): where Hom(M_x, M_y) is nonzero, and
where Ext^d(M_x, tau_d^- M_y) is.  The module side is computed by the
general solvers (`reps.hom_basis`, `reps.ExtSpace`), not by the thin rule
that `hga.cluster` reads the family's Hom spaces with."""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hga import reps  # noqa: E402
from hga.typea import (  # noqa: E402
    Tuple,
    build_typeA_auslander,
    canonical_cluster_tilting,
    intertwines,
)

SMALL = [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2), (3, 3),
         (4, 3), (3, 4)]


@functools.lru_cache(maxsize=None)
def family(n, d):
    return canonical_cluster_tilting(build_typeA_auslander(n, d))


@st.composite
def label_pairs(draw):
    """(family, i, k): a family of SMALL and two positions in it."""
    fam = family(*draw(st.sampled_from(SMALL)))
    pos = st.integers(0, len(fam.labels) - 1)
    return fam, draw(pos), draw(pos)


def hom_by_labels(x, y):
    """Hom(M_x, M_y) != 0 exactly when x_k <= y_k for every k and
    y_k <= x_{k+1} - 2 for every k < d."""
    a, b = x.entries, y.entries
    return (all(p <= q for p, q in zip(a, b))
            and all(q <= p - 2 for q, p in zip(b, a[1:])))


@hypothesis.given(label_pairs())
@hypothesis.settings(max_examples=300)
def test_hom_is_nonzero_exactly_on_the_label_predicate(pair):
    fam, i, k = pair
    basis = reps.hom_basis(fam.modules[i], fam.modules[k])
    assert len(basis) <= 1
    assert bool(basis) == hom_by_labels(fam.labels[i], fam.labels[k])


def ext_by_labels(x, y):
    """Ext^d(M_x, tau_d^- M_y) != 0 exactly when y + 1, every entry raised
    by one, is a family label that intertwines x."""
    shifted = tuple(e + 1 for e in y.entries)
    return shifted[-1] <= y.m and intertwines(Tuple(shifted, y.m), x)


@st.composite
def translate_pairs(draw):
    """label_pairs, half of them drawn among the pairs the predicate calls
    nonzero, which are rare (68 of the 3,986 ordered pairs of SMALL)."""
    fam, i, k = draw(label_pairs())
    hits = [j for j, y in enumerate(fam.labels)
            if ext_by_labels(fam.labels[i], y)]
    if hits and draw(st.booleans()):
        k = draw(st.sampled_from(hits))
    return fam, i, k


@hypothesis.given(translate_pairs())
@hypothesis.settings(max_examples=150)
def test_ext_into_the_translate_follows_the_shifted_label(pair):
    fam, i, k = pair
    d = fam.labels[i].d
    expect = ext_by_labels(fam.labels[i], fam.labels[k])
    tau = reps.higher_translate_inverse(fam.modules[k], d)
    assert bool(reps.ExtSpace(fam.modules[i], tau, d).dim) == expect
