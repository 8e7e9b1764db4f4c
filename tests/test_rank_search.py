"""The one rank search over a Hom space, `reps.morphism_of_rank`, which
`is_isomorphic` and `reduction.find_injection` share: constructed cases,
a pinned Hom space whose basis elements are all singular, and the scale
cap.  `test_rank_search_properties.py` checks it against the generic rank
over symbols."""

import functools
import json

import pytest

from hga import BoundQuiverPresentation, Quiver, build_algebra, zero_relation
from hga import reps
from hga.cli import main
from hga.errors import ScaleExceeded
from hga.presentations import presentation_to_dict
from hga.reps import Morphism, Representation, morphism_of_rank


@functools.cache
def point():
    """The algebra k: one vertex, no arrows."""
    return build_algebra(BoundQuiverPresentation(Quiver(["1"], []), []))


def square_space(k):
    """k^k over the algebra k."""
    return Representation(point(), {"1": k}, {})


def endo(m, block):
    return Morphism(m, m, {"1": block})


def test_singular_elements_with_an_invertible_sum():
    m = square_space(2)
    basis = [endo(m, [[1, 0], [0, 0]]), endo(m, [[0, 0], [0, 1]])]
    assert [f.rank() for f in basis] == [1, 1]
    found = morphism_of_rank(basis, 2)
    assert found.blocks["1"] == [[1, 0], [0, 1]]
    assert reps.is_isomorphic(m, m)


def test_generic_rank_below_want_is_none():
    # both elements map into the first coordinate, so every combination
    # has rank at most one, though the ranks sum to two
    m = square_space(2)
    basis = [endo(m, [[1, 0], [0, 0]]), endo(m, [[0, 1], [0, 0]])]
    assert morphism_of_rank(basis, 2) is None
    assert morphism_of_rank(basis, 1) is basis[0]


def test_subadditivity_decides_without_a_combination(monkeypatch):
    m = square_space(3)
    calls = {"scale": 0}
    scale = Morphism.scale

    def counted(self, c):
        calls["scale"] += 1
        return scale(self, c)

    monkeypatch.setattr(Morphism, "scale", counted)
    one = endo(m, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert morphism_of_rank([one], 2) is None
    assert morphism_of_rank([one, one], 3) is None
    assert morphism_of_rank([], 0) is None
    assert calls == {"scale": 0}


def pinned_algebra():
    """A bound quiver on which an isomorphism test once fell through to a
    random search: a loop x0 at 2, and 2 -> 3 -> 2 and 1 -> 3 -> 1 with
    every 2-path zero."""
    q = Quiver(["1", "2", "3"], [("x0", "2", "2"), ("x1", "3", "2"),
                                 ("x2", "1", "3"), ("x3", "2", "3"),
                                 ("x4", "3", "1")])
    zeros = [("x0", "x0"), ("x1", "x3"), ("x2", "x4"), ("x3", "x1"),
             ("x4", "x2")]
    return build_algebra(BoundQuiverPresentation(
        q, [zero_relation(p) for p in zeros]))


def test_pinned_hom_space_with_only_singular_basis_elements():
    a = pinned_algebra()
    assert a.dim == 18
    maps = {"x0": [[0]], "x1": [[0, 0]], "x2": [[0, 0], [0, 0]],
            "x4": [[1, 0], [0, 1]]}
    dims = {"1": 2, "2": 1, "3": 2}
    m = Representation(a, dims, dict(maps, x3=[[0], [1]]))
    n = Representation(a, dims, dict(maps, x3=[[1], [0]]))
    basis = reps.hom_basis(m, n)
    assert [f.rank() for f in basis] == [2, 3, 2]     # a 36-point grid
    assert len(reps.hom_basis(n, m)) == 3
    assert reps.is_isomorphic(m, n)
    # the first grid point with two nonzero coordinates, f_2 + f_3, swaps
    # the coordinates at 1 and 3
    found = morphism_of_rank(basis, m.total_dim)
    assert found.blocks == {"1": [[0, 1], [1, 0]], "2": [[1]],
                            "3": [[0, 1], [1, 0]]}


def test_cap_raises_scale_exceeded(monkeypatch):
    m = square_space(2)
    basis = [endo(m, [[1, 0], [0, 0]]), endo(m, [[0, 0], [0, 1]])]
    monkeypatch.setattr(reps, "RANK_SEARCH_CAP", 3)
    with pytest.raises(ScaleExceeded):
        morphism_of_rank(basis, 2)
    # a basis element of the wanted rank needs no grid
    assert morphism_of_rank(basis, 1) is basis[0]


def test_cli_exits_three_above_the_cap(tmp_path, monkeypatch, capsys):
    # homdims decides syzygy periodicity by isomorphism tests, one of which
    # on this algebra needs the 36-point grid
    path = tmp_path / "a.json"
    path.write_text(json.dumps(presentation_to_dict(
        pinned_algebra().presentation)), encoding="utf-8")
    monkeypatch.setattr(reps, "RANK_SEARCH_CAP", 36)
    assert main(["homdims", str(path)]) == 0
    monkeypatch.setattr(reps, "RANK_SEARCH_CAP", 35)
    capsys.readouterr()
    assert main(["homdims", str(path)]) == 3
    assert capsys.readouterr().err.startswith("scale cap: ")
