"""The per-object memo, the cover-level axiom report it shares between
certificates on one cover, and the rule that derived data lives in a memo
or a constructor field, never in an attribute set from outside."""

import ast
import copy
import dataclasses
import gc
import json
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from hga import (
    BoundQuiverPresentation,
    Quiver,
    axioms,
    build_algebra,
    memo,
    reduction,
    reps,
    zero_relation,
)
from hga.axioms import is_d_gentle_certificate
from hga.cluster import (
    SummandCollection,
    cluster_endo_algebra,
    ctgent_family,
    is_d_rigid,
)
from hga.errors import (
    InternalError,
    LabelMatchFailed,
    NoCommutativeSquare,
    NotReducible,
)
from hga.presentations import Idempotent
from hga.typea import build_typeA_auslander, canonical_cluster_tilting

SRC = Path(__file__).resolve().parents[1] / "src" / "hga"


def cert_bytes(cover, e, d=2):
    return json.dumps(is_d_gentle_certificate(cover, e, d).to_dict(),
                      sort_keys=True)


@pytest.fixture(scope="module")
def draws():
    """n -> the rigid label subsets acceptance test 10 draws for that n."""
    rng = random.Random(20260823)
    out = {}
    for n in (3, 4):
        fam = canonical_cluster_tilting(build_typeA_auslander(n, 2))
        labels = list(fam.labels)
        out[n] = []
        while len(out[n]) < 25:
            k = rng.randint(2, min(8, len(labels)))
            chosen = [labels[i]
                      for i in sorted(rng.sample(range(len(labels)), k))]
            if is_d_rigid(SummandCollection(fam, [t.entries for t in chosen])):
                out[n].append(Idempotent.of([t.label() for t in chosen]))
    return out


def test_memo_computes_once_per_object_and_key():
    class Obj:
        pass

    a, b = Obj(), Obj()
    calls = []

    def compute():
        calls.append(1)
        return [len(calls)]

    before = memo.stats()
    first = memo.memo(a, "k", compute)
    assert memo.memo(a, "k", compute) is first
    assert memo.memo(a, ("k", 2), compute) == [2]
    assert memo.memo(b, "k", compute) == [3]
    after = memo.stats()
    assert after["hits"] - before["hits"] == 1
    assert after["misses"] - before["misses"] == 3


def test_racing_threads_get_first_stored_value():
    class Obj:
        pass

    obj = Obj()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def compute():
        time.sleep(0.05)            # every thread misses before any stores
        return object()

    def work(i):
        barrier.wait(timeout=60)
        results[i] = memo.memo(obj, "k", compute)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert all(r is results[0] for r in results)
    assert memo.memo(obj, "k", compute) is results[0]


def test_stats_count_every_call_from_racing_threads():
    class Obj:
        pass

    objs = [Obj() for _ in range(50)]
    calls = 4 * 2000
    barrier = threading.Barrier(4)

    def work(i):
        barrier.wait(timeout=60)
        for k in range(calls // 4):
            memo.memo(objs[(i + k) % len(objs)], k % 7, object)

    before = memo.stats()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    after = memo.stats()
    assert (after["hits"] + after["misses"]
            - before["hits"] - before["misses"]) == calls
    assert after["misses"] - before["misses"] >= len(objs) * 7


def test_a_weak_entry_lives_as_long_as_its_value():
    class Obj:
        pass

    class Value:
        pass

    obj = Obj()
    before = memo.stats()
    first = memo.memo(obj, "k", Value, weak=True)
    assert memo.memo(obj, "k", Value, weak=True) is first
    assert memo.peek(obj, "k") is first
    ref = weakref.ref(first)
    del first
    assert ref() is None and memo.peek(obj, "k") is None
    again = memo.memo(obj, "k", Value, weak=True)
    assert memo.memo(obj, "k", Value, weak=True) is again
    after = memo.stats()
    assert after["hits"] - before["hits"] == 2
    # the value computed again after its death is a miss like the first
    assert after["misses"] - before["misses"] == 2


def test_racing_threads_share_a_weak_entry():
    # each thread holds what it got, so the first value stored stays alive
    # and every other thread, having computed its own, is given that one
    class Obj:
        pass

    class Value:
        pass

    obj = Obj()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def compute():
        time.sleep(0.05)            # every thread misses before any stores
        return Value()

    def work(i):
        barrier.wait(timeout=60)
        results[i] = memo.memo(obj, "k", compute, weak=True)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert all(r is results[0] for r in results)
    assert memo.memo(obj, "k", compute, weak=True) is results[0]


# four threads make the first memo calls on fresh objects while collections
# run finalizers; prints how many objects end with a __dict__ that is not
# exactly the memo table
FIRST_CALL_RACE = """
import gc, sys, threading
from hga import memo


class Finalised:
    def __del__(self):
        pass


def cycles():
    for _ in range(20):
        a, b = Finalised(), Finalised()
        a.partner, b.partner = b, a


def race():
    class Obj:
        pass

    objs = [Obj() for _ in range(50)]
    barrier = threading.Barrier(4)

    def work(i):
        barrier.wait(timeout=60)
        for k in range(100):
            if k % 50 == 0:
                cycles()
            memo.memo(objs[(i + k) % 50], k % 7, object)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    return sum(list(vars(o)) != ["_memo"] for o in objs)


gc.set_threshold(10)
sys.setswitchinterval(1e-6)
broken = 0
for _ in range(100):
    broken += race()
    gc.collect()
print(broken)
"""


def test_racing_first_calls_build_one_instance_dict():
    # on CPython 3.11 a collection may run inside the first read of an
    # instance's __dict__ and hand the GIL to a thread that reads it too;
    # the object then keeps one of two dicts over one values array (a
    # __dict__ that holds "_memo" but lists no key), and a later full
    # collection reads freed memory.  A child process runs the race, so a
    # crash fails this test and not the run.  With every memo call reading
    # obj.__dict__ unlocked, three child runs left 31 and 10 such objects
    # and one crashed.
    out = subprocess.run(
        [sys.executable, "-c", FIRST_CALL_RACE],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout == "0\n"


@pytest.fixture
def no_cyclic_gc():
    """The cyclic collector off, so an object dies only by reference
    counting."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def hga_objects_in_cycles():
    """How many hga objects ``gc.collect()`` finds in reference cycles."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sum(type(x).__module__.split(".")[0] == "hga"
                   for x in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def l2_lifetime_refs(alg):
    """Weak references to alg, its opposite, one of its projectives and a
    resolution term, after homological_dims, minimal_resolution,
    higher_translate_inverse, transpose and injective ran on it."""
    reps.homological_dims(alg)
    v, w = alg.vertices[0], alg.vertices[-1]
    p = reps.projective(alg, w)
    assert reps.projective(alg, w) is p       # held, so returned again
    s = reps.simple(alg, v)
    terms = reps.minimal_resolution(s, 2)[0]
    reps.higher_translate_inverse(s, 2)
    reps.transpose(s)
    reps.injective(alg, w)
    op = alg.opposite()
    assert op.opposite() is alg
    return [weakref.ref(x) for x in (alg, op, p, terms[-1])]


def test_a_dropped_algebra_is_freed_without_the_cyclic_collector(
        no_cyclic_gc):
    refs = l2_lifetime_refs(build_typeA_auslander(4, 2))
    c = ctgent_family(4, 2, [2])
    refs += l2_lifetime_refs(cluster_endo_algebra(c).algebra)
    refs.append(weakref.ref(c.family.algebra))
    del c
    assert [r() for r in refs] == [None] * len(refs)


def test_a_failed_reduction_leaves_no_cycle(no_cyclic_gc):
    # the error raised is the first dead end, kept without the frames of
    # the search, and the frame that raised it does not hold it
    a = cluster_endo_algebra(ctgent_family(4, 2, [2])).algebra
    ref = weakref.ref(a)
    with pytest.raises(NotReducible, match="step cap"):
        reduction.reduce_to_gentle(a, max_steps=1)
    del a
    assert ref() is None


def test_a_reduction_with_no_candidate_leaves_no_cycle(no_cyclic_gc):
    # three arrows out of one vertex and no relation: not gentle, with no
    # square or long zero relation to remove, so the walk's dead end is a
    # raised NoCommutativeSquare, returned without the frames of the search
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "1", "3"), ("c", "1", "4")])
    a = build_algebra(BoundQuiverPresentation(q, []))
    ref = weakref.ref(a)
    with pytest.raises(NoCommutativeSquare) as err:
        reduction.reduce_to_gentle(a)
    frames, tb = [], err.value.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert frames[-1] == "reduce_to_gentle"
    del a, err
    assert ref() is None


@pytest.mark.parametrize("i, j", [(0, -1), (1, 2)])
def test_a_family_that_fails_its_roles_leaves_no_cycle(no_cyclic_gc, i, j):
    # the swapped families of test_swapped_family_modules_fail_the_label_roles
    fam = canonical_cluster_tilting(build_typeA_auslander(4, 2))
    mods = list(fam.modules)
    mods[i], mods[j] = mods[j], mods[i]
    swapped = dataclasses.replace(fam, modules=mods)
    ref = weakref.ref(fam.algebra)
    with pytest.raises(LabelMatchFailed):
        ctgent_family(4, 2, [2], family=swapped)
    del fam, mods, swapped
    assert ref() is None
    assert hga_objects_in_cycles() == 0


def test_a_failing_endo_algebra_leaves_no_cycle(no_cyclic_gc):
    # the tampered family of test_tampered_family_module_fails_the_thin_rule:
    # one map of module 7 inside its box is scaled to 2, so the module is
    # not thin, and the Hom pairs of a collection that holds it raise
    fam = canonical_cluster_tilting(build_typeA_auslander(4, 2))
    i = 7
    m = fam.modules[i]
    name = next(ar.name for ar in fam.algebra.quiver.arrows
                if ar.source in m.support and ar.target in m.support)
    bad = reps.Representation(fam.algebra, m.dims,
                              dict(m.maps, **{name: [[2]]}), check=False)
    tampered = dataclasses.replace(
        fam, modules=fam.modules[:i] + [bad] + fam.modules[i + 1:])
    c = SummandCollection(tampered, [tampered.labels[0], tampered.labels[i]])
    ref = weakref.ref(fam.algebra)
    with pytest.raises(InternalError, match="not thin"):
        cluster_endo_algebra(c)
    del fam, m, bad, tampered, c
    assert ref() is None
    assert hga_objects_in_cycles() == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_a_seeded_reduction_leaves_no_cycle(no_cyclic_gc, seed):
    # a shuffled candidate order walks other branches, dead ends included
    c = ctgent_family(4, 2, [2])
    a = cluster_endo_algebra(c).algebra
    refs = [weakref.ref(x) for x in (a, c.family.algebra)]
    trace = reduction.reduce_to_gentle(a, seed=seed)
    assert trace.terminal_gentle
    del c, a, trace
    assert [r() for r in refs] == [None, None]
    assert hga_objects_in_cycles() == 0


def test_a_single_summand_cover_is_the_shared_projective(no_cyclic_gc):
    # a cover reads reps.projective, so it is P_v while P_v is held, and
    # registers the P_v it builds; a P_v built again after its death is
    # equal to the first
    a = build_typeA_auslander(3, 2)
    v = a.vertices[0]
    p = reps.projective(a, v)
    assert reps.projective_cover(reps.simple(a, v))[0] is p
    dims, maps = copy.deepcopy(p.dims), copy.deepcopy(p.maps)
    ref = weakref.ref(p)
    del p
    assert ref() is None
    cover = reps.projective_cover(reps.simple(a, v))[0]
    assert reps.projective(a, v) is cover
    assert (cover.dims, cover.maps) == (dims, maps)


def test_a_held_projective_is_its_own_resolution(no_cyclic_gc):
    # P_v's resolution is P_v with its identity, the same map on every
    # call while P_v lives; the map holds P_v weakly, so kept alone its
    # ends become one module with P_v's dims
    a = build_typeA_auslander(3, 2)
    v = a.vertices[0]
    p = reps.projective(a, v)
    terms, diffs, summands, finished = reps.minimal_resolution(p, 0)
    assert len(terms) == 1 and terms[0] is p
    assert (summands, finished) == ([[v]], True)
    one = diffs[0]
    assert one.source is p and one.target is p
    longer = reps.minimal_resolution(p, 3)[1]
    assert len(longer) == 1 and longer[0] is one
    p0, epi0, _, _ = reps.presentation_matrix(p)[3]
    assert p0 is p and epi0 is one
    assert reps.projective(a, v) is p
    dims, ref = p.dims, weakref.ref(p)
    del p, terms, diffs, longer, p0, epi0
    assert ref() is None
    assert one.source is one.target and one.target.dims == dims


def test_threads_share_resolution_steps():
    # rad^2 = 0 on a 3-cycle: S_1 has an infinite, 3-periodic resolution
    q = Quiver(["1", "2", "3"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    alg = build_algebra(BoundQuiverPresentation(
        q, [zero_relation(p) for p in (("a", "b"), ("b", "c"), ("c", "a"))]))
    m = reps.simple(alg, "1")
    lengths = [2, 5, 3, 4]
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        barrier.wait(timeout=60)
        results[i] = reps.minimal_resolution(m, lengths[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    terms, diffs, summands, finished = reps.minimal_resolution(m, 5)
    assert summands == [["1"], ["2"], ["3"]] * 2 and not finished
    for (t, d, s, done), length in zip(results, lengths):
        assert len(t) == length + 1 and not done
        assert all(x is y for x, y in zip(t, terms))
        assert all(x is y for x, y in zip(d, diffs))
        assert s == summands[:length + 1]
    for k in range(1, 6):
        assert diffs[k - 1].compose(diffs[k]).is_zero()
    fresh = reps.minimal_resolution(reps.simple(alg, "1"), 5)
    assert [p.dims for p in fresh[0]] == [p.dims for p in terms]


def test_a_cached_resolution_is_read_without_memo(monkeypatch):
    # a stored resolution step is read straight from the table: the hit
    # calls no memo and builds no compute closure, and returns the tuple
    # the first call stored
    m = reps.simple(build_typeA_auslander(3, 2), "13")
    first = [reps._resolution(m, k) for k in range(4)]
    calls = []
    monkeypatch.setattr(reps, "memo", lambda *args: calls.append(args))
    again = [reps._resolution(m, k) for k in range(4)]
    assert all(a is b for a, b in zip(again, first)) and calls == []


def test_shared_cover_matches_fresh_cover(draws):
    for n in (3, 4):
        shared = build_typeA_auslander(n, 3)
        cert_bytes(shared, draws[n][-1])                # warm the memo
        for e in draws[n]:
            fresh = build_typeA_auslander(n, 3)
            assert cert_bytes(shared, e) == cert_bytes(fresh, e)


# every way to change a dict or a list in place, each run on x
DICT_EDITS = ["x['vandal'] = 1", "del x['vandal']", "x |= {'vandal': 1}",
              "x.clear()", "x.pop('vandal', None)", "x.popitem()",
              "x.setdefault('vandal', 1)", "x.update(vandal=1)"]
LIST_EDITS = ["x[:] = ['vandal']", "x[0] = 'vandal'", "del x[:]",
              "x += ['vandal']", "x *= 2", "x.append('vandal')", "x.clear()",
              "x.extend(['vandal'])", "x.insert(0, 'vandal')", "x.pop()",
              "x.remove('vandal')", "x.reverse()", "x.sort()"]


def _edits(x):
    return DICT_EDITS if isinstance(x, dict) else LIST_EDITS


def test_mutating_to_dict_leaves_next_certificate_unchanged():
    """A report's ``to_dict`` builds only its own top-level dicts, which its
    caller may edit.  Every part below them is shared with the report's
    next ``to_dict`` and with other reports on the cover, and each way of
    changing one in place raises TypeError.  So the next report of the
    first certificate, and the next certificate on the cover, keep their
    bytes."""
    cover = build_typeA_auslander(3, 3)
    e = Idempotent.of(["135", "136", "146", "246"])
    first = is_d_gentle_certificate(cover, e, 1)
    expected = json.dumps(first.to_dict(), sort_keys=True)
    read_only = 0
    for report in (first, axioms.check_axioms(cover, 2),
                   axioms.is_pre_gentle(cover, 2)):
        out = report.to_dict()
        shared = {id(x) for x in _containers(report.to_dict())}
        for x in _containers(out):
            if id(x) not in shared:
                assert type(x) is dict
                x.clear()
                x["vandal"] = True
                continue
            before = copy.deepcopy(x)
            for edit in _edits(x):
                with pytest.raises(TypeError):
                    exec(edit, {"x": x})
            assert x == before
            read_only += 1
    assert read_only > 30
    assert json.dumps(first.to_dict(), sort_keys=True) == expected
    assert cert_bytes(cover, e, 1) == expected


def test_threads_share_first_certificate(draws):
    # two corners, two threads each, racing for the first certificate
    es = draws[4][:2]
    expected = [cert_bytes(build_typeA_auslander(4, 3), e) for e in es]
    cover = build_typeA_auslander(4, 3)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        barrier.wait(timeout=60)
        results[i] = cert_bytes(cover, es[i % 2])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected * 2
    assert "E3" not in axioms._cover_axioms(cover, 3)


def test_second_certificate_reuses_cover_report(draws, monkeypatch):
    calls = []
    a4 = axioms.check_axiom_a4

    def counted(p):
        calls.append(p)
        return a4(p)

    monkeypatch.setattr(axioms, "check_axiom_a4", counted)
    cover = build_typeA_auslander(3, 3)
    e1, e2 = draws[3][:2]
    first = is_d_gentle_certificate(cover, e1, 2)
    assert calls == [cover]
    hits = memo.stats()["hits"]
    second = is_d_gentle_certificate(cover, e2, 2)
    assert calls == [cover]
    assert memo.stats()["hits"] > hits
    shared = axioms._cover_axioms(cover, 3)
    for cert in (first, second):
        assert cert.pre_gentle.axioms.entries["A4"] is shared["A4"]


def _containers(x):
    """Every dict and list nested in x, x included."""
    if isinstance(x, dict):
        children = x.values()
    elif isinstance(x, (list, tuple)):
        children = x
    else:
        return []
    own = [x] if isinstance(x, (dict, list)) else []
    return own + [c for child in children for c in _containers(child)]


def test_reports_are_independent_copies(draws):
    """``copy.deepcopy`` of a report is an editable copy: plain dicts and
    lists, equal to the report, with its JSON bytes.  Mutating every list
    and dict of it leaves the report, and the next certificate on the
    cover, as a fresh process writes it."""
    e1, e2 = draws[3][:2]
    script = (
        "import json, sys\n"
        "from hga import axioms, build_typeA_auslander, Idempotent\n"
        "e = Idempotent.of(json.loads(sys.argv[1]))\n"
        "cert = axioms.is_d_gentle_certificate(build_typeA_auslander(3, 3),"
        " e, 2)\n"
        "sys.stdout.write(json.dumps(cert.to_dict(), sort_keys=True))\n")
    fresh = subprocess.run(
        [sys.executable, "-c", script, json.dumps(sorted(e2.vertex_subset))],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True).stdout
    cover = build_typeA_auslander(3, 3)
    first = is_d_gentle_certificate(cover, e1, 2)
    report = first.to_dict()
    before = json.dumps(report, sort_keys=True)
    edited = copy.deepcopy(report)
    assert edited == report
    assert json.dumps(edited, sort_keys=True) == before
    mutable = _containers(edited)
    assert all(type(x) in (dict, list) for x in mutable)
    assert any(isinstance(x, list) and x for x in mutable)
    for x in mutable:
        if isinstance(x, dict):
            x.clear()
            x["mutated"] = True
        else:
            x[:] = ["mutated"]
    assert cert_bytes(cover, e2) == fresh
    assert json.dumps(first.to_dict(), sort_keys=True) == before


def test_read_only_parts_pickle_and_compare_as_plain_data():
    part = axioms._frozen({"a": [1, {"b": (2, 3)}], "c": []})
    plain = {"a": [1, {"b": (2, 3)}], "c": []}
    assert part == plain and plain == part
    assert isinstance(part["a"], axioms.ReadOnlyList)
    assert isinstance(part["a"][1], axioms.ReadOnlyDict)
    assert json.dumps(part, sort_keys=True) == json.dumps(plain,
                                                          sort_keys=True)
    assert json.dumps(part, indent=2) == json.dumps(plain, indent=2)
    assert repr(part) == repr(plain)
    assert axioms._frozen(part) is part
    for clone in (pickle.loads(pickle.dumps(part)), copy.copy(part)):
        assert clone == plain and type(clone) is axioms.ReadOnlyDict
        assert type(clone["a"]) is axioms.ReadOnlyList


def attribute_stores(source):
    """(line, text) of each attribute store in source, sorted, except a
    store on ``self`` inside ``__init__`` or ``__post_init__``."""
    tree = ast.parse(source)
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # walked outside in, so a nested function overwrites its parent
            for inner in ast.walk(node):
                owner[id(inner)] = node
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)):
            continue
        f = owner.get(id(node))
        if (f is not None and f.name in ("__init__", "__post_init__")
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            continue
        found.append((node.lineno, ast.get_source_segment(source, node)))
    return sorted(found)


def test_scan_finds_attribute_stores():
    source = ("class A:\n"
              "    def __init__(self, x):\n"
              "        self.x = x\n"
              "        x.y = 1\n"
              "    def f(self):\n"
              "        self.z = 2\n"
              "    def copy(self):\n"
              "        out = A(1)\n"
              "        out.x = 3\n"
              "        return out\n"
              "def g(a, b):\n"
              "    a.w, c = 1, 2\n"
              "    b.v += 1\n"
              "    for a.u in b:\n"
              "        pass\n")
    assert attribute_stores(source) == [
        (4, "x.y"), (6, "self.z"), (9, "out.x"), (12, "a.w"), (13, "b.v"),
        (14, "a.u")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_attribute_store_outside_constructors(path):
    assert attribute_stores(path.read_text(encoding="utf-8")) == []
