"""The counting harness of the BENCH ladders (``tools/bench.py``): it
rebinds a counted name wherever hga bound it, puts every binding back, and
counts the calls each mode asks for, and the frames entered in a
module."""

import platform
import sys

import pytest

import bench
from bench import Counting
from hga import algebras, cluster, linalg, memo, reps
from hga.presentations import Idempotent
from hga.typea import build_typeA_auslander

CORNER = Idempotent.of(["13", "14", "24"])
OTHER_CORNER = Idempotent.of(["24", "25", "35"])


def test_rebinds_every_binding_and_restores_it_on_exit():
    orig = algebras.represent
    assert cluster.represent is orig
    with Counting([(algebras, "represent", "calls", "all")]):
        assert cluster.represent is algebras.represent is not orig
    assert cluster.represent is algebras.represent is orig
    with pytest.raises(RuntimeError):
        with Counting([(algebras, "represent", "calls", "all")]):
            raise RuntimeError
    assert cluster.represent is algebras.represent is orig


def test_a_missing_name_raises_on_entry_and_leaves_nothing_bound():
    orig = algebras.represent
    counting = Counting([(algebras, "represent", "calls", "all"),
                         (algebras, "no_such_function", "missing", "all")])
    with pytest.raises(AttributeError, match="no_such_function"):
        with counting:
            pass
    assert cluster.represent is algebras.represent is orig


def test_scoped_calls_count_only_inside_the_scope():
    a = build_typeA_auslander(3, 2)

    def run():
        build_typeA_auslander(3, 2)     # one normal-word pass, no represent
        algebras.idempotent_subalgebra(a, CORNER)
        algebras.idempotent_subalgebra(a, OTHER_CORNER)

    with Counting([(algebras, "_normal_words", "inside", "scoped"),
                   (algebras, "represent", "represent", "all")],
                  scope=(algebras, "represent")) as scoped:
        run()
    with Counting([(algebras, "_normal_words", "every", "all")]) as every:
        run()
    assert scoped.counts == {"inside": 2, "represent": 2}
    assert every.counts == {"every": 3}


def test_top_level_calls_leave_out_the_nested_ones():
    # _resolution(m, k) extends _resolution(m, k - 1), down to k = 0
    corner = algebras.idempotent_subalgebra(build_typeA_auslander(3, 2),
                                            CORNER)
    with Counting([(reps, "_resolution", "top", "top")]) as top, \
            Counting([(reps, "_resolution", "every", "all")]) as every:
        reps.minimal_resolution(reps.simple(corner, "13"), 3)
    assert top.counts == {"top": 1}
    assert every.counts == {"every": 4}


def test_frames_count_the_python_frames_entered_in_a_module():
    # rank on [[1]] enters rank and _echelon: its pivot needs no scaling
    # and there is nothing to eliminate; a call into another module's file
    # counts nothing, and the hook is gone on exit
    before = sys.getprofile()
    with Counting([], frames=[(linalg, "frames")]) as c:
        linalg.rank([[1]])
        memo.stats()
    assert c.counts == {"frames": 2}
    assert sys.getprofile() is before
    with pytest.raises(AttributeError, match="no_such_function"):
        with Counting([(linalg, "no_such_function", "missing", "all")],
                      frames=[(linalg, "frames")]):
            pass
    assert sys.getprofile() is before


@pytest.mark.parametrize("name", sorted(bench.LADDERS))
def test_every_counted_name_exists(name):
    # entering a ladder's counters raises on a counted or scope name that
    # hga no longer defines, so removing one fails here and not only at
    # that ladder's --check; a Family row has counters of its own
    ladder = bench.LADDERS[name]()
    for key in getattr(ladder, "COUNTED", [None]):
        with ladder.counting(bench.Row(key, None, None)):
            pass


def test_stored_counts_what_a_module_and_a_morphism_keep():
    # a simple module keeps one dimension and no map, its identity one
    # block; a projective its support and the maps inside it
    a = build_typeA_auslander(3, 2)
    v = a.vertices[0]
    with Counting(bench.STORED) as c:
        s = reps.simple(a, v)
        reps.identity_morphism(s)
    assert c.counts == {"constructions": 2, "stored_entries": 2}
    with Counting(bench.STORED) as c:
        p = reps.projective(a, v)
    assert c.counts == {"constructions": 1,
                        "stored_entries": len(p.dims) + len(p.maps)}


def test_stored_counts_a_kernel_built_in_final_form():
    # a kernel and its inclusion are handed to the unchecked constructors
    # in final form, which the auslander ladder counts like checked ones
    a = build_typeA_auslander(3, 2)
    _, epi, _ = reps.projective_cover(reps.simple(a, a.vertices[0]))
    assert not epi.is_zero()
    with Counting(bench.STORED) as c:
        k, incl = reps.kernel(epi)
    assert c.counts == {"constructions": 2,
                        "stored_entries": len(k.dims) + len(k.maps)
                        + len(incl.blocks)}
    assert k.support


def test_stored_counts_the_cover_map_of_a_resolution():
    # a resolution's first differential is a reps._CoverMap, a route of
    # its own that the auslander ladder counts with its blocks
    a = build_typeA_auslander(3, 2)
    s = reps.simple(a, a.vertices[0])
    with Counting([x for x in bench.STORED if x[0] is reps._CoverMap]) as c:
        cover_map = reps._resolution(s, 0)[1][0]
    assert type(cover_map) is reps._CoverMap
    assert c.counts == {"constructions": 1,
                        "stored_entries": len(cover_map.blocks)}


def test_auslander_check_takes_stored_entries_as_a_ceiling():
    # more stored entries than the file fail the check, fewer pass, and
    # every other count must match
    fails = bench.Auslander().fails
    want = {"stored_entries": 10, "rref_calls": 3}
    assert not fails(dict(want), want)
    assert not fails(dict(want, stored_entries=9), want)
    assert fails(dict(want, stored_entries=11), want)
    assert fails(dict(want, rref_calls=2), want)
    assert fails({"rref_calls": 3}, want)


def test_lifetime_counts_what_its_block_leaves_in_cycles():
    a = build_typeA_auslander(3, 2)
    with bench.Lifetime() as life:
        m = reps.simple(a, a.vertices[0])
        m.loop = [m]                    # a cycle through one hga object
        del m
    assert life.counts["hga_cyclic_objects"] == 1
    assert life.counts["cyclic_objects"] >= 2
    with bench.Lifetime() as life:
        reps.simple(a, a.vertices[0])
    assert life.counts["cyclic_objects"] == 0


def test_memory_check_takes_the_peak_as_a_ceiling():
    # any hga object in a cycle fails; the peak may move by 2%, and counts
    # only on the file's Python; the standard library's cycles are not
    # checked
    want = {"cyclic_objects": 99, "hga_cyclic_objects": 0,
            "traced_peak_kib": 1000}
    ladder = bench.Memory()
    ladder.check_host(f"{platform.python_implementation()} "
                      f"{platform.python_version()}, 2 cpus")
    assert not ladder.fails(dict(want, traced_peak_kib=1020), want)
    assert not ladder.fails(dict(want, cyclic_objects=120), want)
    assert ladder.fails(dict(want, traced_peak_kib=1021), want)
    assert ladder.fails(dict(want, hga_cyclic_objects=1), want)
    ladder.check_host("CPython 2.7.18, 2 cpus")
    assert not ladder.fails(dict(want, traced_peak_kib=2000), want)
    assert ladder.fails(dict(want, hga_cyclic_objects=1), want)
