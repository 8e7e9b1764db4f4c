"""Property test of the gentle singularity invariant against the global
dimension, over small random gentle bound quivers."""

import math
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hga import (BoundQuiverPresentation, Quiver, build_algebra, reps,
                 zero_relation)
from hga.axioms import is_gentle
from hga.errors import NotAdmissible
from hga.reduction import gentle_sg_invariant


@st.composite
def gentle_candidates(draw):
    """Up to three vertices and five arrows, loops and 2-cycles included,
    at most two arrows into and out of each vertex, and zero relations of
    length two that give each arrow at most one zero and at most one
    nonzero successor; the conditions on predecessors and admissibility
    are left to the test."""
    verts = [str(i) for i in range(1, draw(st.integers(1, 3)) + 1)]
    ends = draw(st.lists(st.tuples(st.sampled_from(verts),
                                   st.sampled_from(verts)),
                         min_size=1, max_size=5).filter(
        lambda es: all(max(Counter(e[k] for e in es).values()) <= 2
                       for k in (0, 1))))
    arrows = [(f"x{i}", s, t) for i, (s, t) in enumerate(ends)]
    relations = []
    for name, _, target in arrows:
        after = [b for b, source, _ in arrows if source == target]
        zero = draw(st.sampled_from(after if len(after) == 2
                                    else [None] + after))
        if zero is not None:
            relations.append(zero_relation((name, zero)))
    return BoundQuiverPresentation(Quiver(verts, arrows), relations)


@hypothesis.given(gentle_candidates())
@hypothesis.settings(max_examples=60, suppress_health_check=[
    hypothesis.HealthCheck.filter_too_much, hypothesis.HealthCheck.too_slow])
def test_sg_invariant_empty_iff_global_dim_finite(p):
    # D_sg of a gentle (so Iwanaga-Gorenstein) algebra vanishes exactly
    # when its global dimension is finite (Buchweitz; Happel)
    try:
        alg = build_algebra(p)
    except NotAdmissible:
        hypothesis.reject()
    hypothesis.assume(is_gentle(alg)["gentle"])
    finite = reps.homological_dims(alg)["globalDim"] < math.inf
    assert (gentle_sg_invariant(alg) == []) == finite
