"""Property tests of D and of the opposite algebra on modules stored by
their support: D(D(M)) is M entry for entry, and A^op^op is A itself.
The modules are the canonical family's and the terms and syzygies of the
resolutions that `homological_dims` walks, on A^2_4 and A^3_3."""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hga import reps  # noqa: E402
from hga.typea import (  # noqa: E402
    build_typeA_auslander,
    canonical_cluster_tilting,
)

ALGEBRAS = [(4, 2), (3, 3)]


@functools.lru_cache(maxsize=None)
def modules(n, d):
    """The family modules of A^d_n, then the terms and syzygies of the
    resolutions of the simples, of each D(P_v) and of each injective,
    read off the resolutions `homological_dims` leaves cached."""
    a = build_typeA_auslander(n, d)
    out = list(canonical_cluster_tilting(a).modules)
    reps.homological_dims(a)
    starts = ([reps.simple(a, v) for v in a.vertices]
              + [reps.dual(reps.projective(a, v)) for v in a.vertices]
              + [reps.injective(a, v) for v in a.vertices])
    for m in starts:
        terms, _, _, _ = reps.minimal_resolution(m, 3)
        out += [m] + terms + [reps.syzygy_power(m, k) for k in (1, 2)]
    return [m for m in out if not m.is_zero()]


@st.composite
def pooled(draw):
    return draw(st.sampled_from(modules(*draw(st.sampled_from(ALGEBRAS)))))


@hypothesis.given(pooled())
@hypothesis.settings(max_examples=200, deadline=None)
def test_dual_of_dual_is_the_module_entry_for_entry(m):
    dd = reps.dual(reps.dual(m))
    assert dd.algebra is m.algebra
    assert dd.dims == m.dims and dd.maps == m.maps
    assert dd.support == m.support


@hypothesis.given(pooled())
@hypothesis.settings(max_examples=50, deadline=None)
def test_opposite_of_opposite_is_the_algebra(m):
    alg = m.algebra
    assert alg.opposite().opposite() is alg
    assert reps.dual(m).algebra is alg.opposite()
