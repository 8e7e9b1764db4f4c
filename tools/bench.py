"""Before/after numbers for the committed ``BENCH_*.json`` ladders.

    PYTHONPATH=<tree>/src python3 tools/bench.py NAME \
        --side before|after [--out BENCH_NAME.json]
    PYTHONPATH=src python3 tools/bench.py NAME --check

NAME is one of the ladders below: ``auslander``, ``certificate``,
``family``, ``memory``, ``reduction``, ``represent`` or ``scalars``.  Each
guards a speed-up by counting the operations it removed (``memory``: the
objects a job leaves to the cyclic collector).  A ladder is a list of
rows built from the pools in ``perfbench/workloads.py``.  A row runs one
job, for the hga found on the import path, on inputs made for it whose
making is not measured, and gives:

- its wall seconds, from ``repeat`` runs with no counter installed, each
  on fresh inputs: the best or the median, as the ladder's committed sides
  were measured;
- its counts, from one more run on fresh inputs with the ladder's counting
  wrappers installed (``Counting``; ``memory``: ``Lifetime``).

The counts do not depend on the machine (``memory``'s peak and cycle
counts depend on the Python version).  ``--side`` merges the result,
with the host and this command, into the JSON file, so one run on each
tree fills in both sides.  ``--check`` measures the counts only, of the
rows with n at most the ladder's ``check_max_n``, writes nothing, and
exits 1 if any differs from the file's ``after`` side (for ``scalars``,
and for ``auslander``'s ``stored_entries``: if any is above it;
``memory`` says what it checks).  One
process runs one ladder, so no memo carries over from one ladder to the
next.
"""

import argparse
import functools
import gc
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import namedtuple
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import (  # noqa: E402
    AUSLANDER_POOL,
    CTGENT_POOL,
    RIGID_NS,
    auslander_key,
    ctgent_key,
    rigid_pool,
)

from hga import (  # noqa: E402
    algebras,
    axioms,
    cli,
    cluster,
    linalg,
    memo,
    reduction,
    reps,
    typea,
)
from hga.presentations import Idempotent  # noqa: E402


class Counting:
    """Counting wrappers on named functions, installed on entry and removed
    on exit, also on an exception.

    ``counted`` lists (home, name, key, how): the function ``name`` of
    ``home``, a module or a class, and the count ``key`` it adds to.  With
    ``how`` ``"all"`` every call counts, with ``"top"`` only the calls not
    made while another call of the same function is under way, and with
    ``"scoped"`` only those made while ``scope``, a (home, name) pair, is
    under way.  Any other ``how`` is a function that takes the original
    and the counts and returns the wrapper; ``key`` is then the tuple of
    the counts it adds to.  ``frames`` lists (module, key): every Python
    frame entered in that module's file, counted in ``key`` by a
    ``sys.setprofile`` hook (on CPython 3.11 and older a comprehension and
    each resumption of a generator enter a frame too).

    Each name is rebound on its home and on every hga module that bound
    the same object by name, so calls from any module count.  A name its
    home does not define raises AttributeError on entry: a function
    renamed in hga must fail the count, not leave it reading 0.
    """

    def __init__(self, counted, scope=None, frames=()):
        self.counted, self.scope = counted, scope
        self.counts = {}
        for _, _, key, _ in counted:
            self.counts.update(dict.fromkeys(
                (key,) if isinstance(key, str) else key, 0))
        self.files = {module.__file__: key for module, key in frames}
        self.counts.update(dict.fromkeys(self.files.values(), 0))
        self.depth = {}         # name -> its calls under way
        self.saved = []

    def __enter__(self):
        self.profile = sys.getprofile()
        try:
            if self.scope:
                self._wrap(*self.scope, self._tracked(self.scope[1], None))
            for home, name, key, how in self.counted:
                self._wrap(home, name, how if callable(how)
                           else self._tracked(name, key, how))
        except BaseException:
            self.__exit__()
            raise
        if self.files:
            sys.setprofile(self._entered)
        return self

    def _entered(self, frame, event, arg):
        if event == "call":
            key = self.files.get(frame.f_code.co_filename)
            if key:
                self.counts[key] += 1

    def __exit__(self, *exc):
        if self.files:
            sys.setprofile(self.profile)
        for holder, name, raw in reversed(self.saved):
            setattr(holder, name, raw)
        self.saved = []

    def _wrap(self, home, name, make):
        if name not in vars(home):
            raise AttributeError(f"{home.__name__} defines no {name!r} "
                                 "to count")
        raw = vars(home)[name]
        static = isinstance(raw, staticmethod)
        new = make(raw.__func__ if static else raw, self.counts)
        new = staticmethod(new) if static else new
        holders = [home] + [m for key, m in sys.modules.items()
                            if key.startswith("hga.") and m is not home]
        for holder in holders:
            if vars(holder).get(name) is raw:
                self.saved.append((holder, name, raw))
                setattr(holder, name, new)

    def _tracked(self, name, key, how=None):
        depth = self.depth
        depth[name] = 0
        scope = self.scope and self.scope[1]

        def make(orig, counts):
            def wrapper(*args, **kwargs):
                if (how == "all" or how == "top" and not depth[name]
                        or how == "scoped" and depth[scope]):
                    counts[key] += 1
                depth[name] += 1
                try:
                    return orig(*args, **kwargs)
                finally:
                    depth[name] -= 1
            return wrapper
        return make


def stored(orig, counts):
    """The ``__init__`` of a class in ``CONSTRUCTORS``, counting the
    objects built in ``constructions`` and the entries each stores in
    ``stored_entries``: its dims and maps, or its blocks."""
    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        counts["constructions"] += 1
        counts["stored_entries"] += sum(
            len(getattr(self, field, ())) for field in ("dims", "maps",
                                                         "blocks"))
    return init


# the routes by which hga builds a module or a morphism: the two
# constructors, checked or given final form, and a resolution's cover map
CONSTRUCTORS = (reps.Representation, reps.Morphism, reps._CoverMap)
STORED = [(cls, "__init__", ("constructions", "stored_entries"), stored)
          for cls in CONSTRUCTORS]


def containers(x):
    """Every dict and list nested in x, x included."""
    if isinstance(x, dict):
        children = x.values()
    elif isinstance(x, (list, tuple)):
        children = x
    else:
        return []
    own = [x] if isinstance(x, (dict, list)) else []
    return own + [c for child in children for c in containers(child)]


def containers_built(orig, counts):
    """``GentleCertificate.to_dict``, counting in ``containers_built`` the
    dicts and lists of its result that a second ``to_dict`` of the same
    certificate does not share: those each call builds anew."""
    def to_dict(cert):
        out, again = orig(cert), orig(cert)
        shared = {id(x) for x in containers(again)}
        counts["containers_built"] += sum(
            id(x) not in shared for x in containers(out))
        return out
    return to_dict


def cube_walks(orig, counts):
    """``axioms._cube_walk``, counting in ``cube_walks`` the walks started
    from outside a walk.  A walk is a generator, so its recursive calls run
    after the wrapper returns and a call depth cannot tell them apart; a
    call made from a walk's own frame is one of them."""
    code = orig.__code__

    def walk(*args, **kwargs):
        counts["cube_walks"] += sys._getframe(1).f_code is not code
        return orig(*args, **kwargs)
    return walk


def label_lookups(orig, counts):
    """``memo.memo``, counting in ``label_lookups`` the reads of a module
    family's label index, the memo key ``"label index"``."""
    def counted(obj, key, compute, **kwargs):
        counts["label_lookups"] += key == "label index"
        return orig(obj, key, compute, **kwargs)
    return counted


def no_inputs():
    return None


# key: the row's name in the file; n: what --check compares with
# check_max_n; run(inputs) is measured on inputs = setup(); group: the
# total the row adds to, if any; phase: for a row with several measured
# phases, the prefix of its fields
Row = namedtuple("Row", "key n run setup group phase",
                 defaults=(no_inputs, None, None))


def summed(rows, digits):
    """Field-wise sums of measured rows, float sums rounded to digits."""
    out = {}
    for row in rows:
        for k, v in row.items():
            out[k] = (summed([out.get(k, {}), v], digits)
                      if isinstance(v, dict) else out.get(k, 0) + v)
    return {k: round(v, digits) if isinstance(v, float) else v
            for k, v in out.items()}


def grouped(measured, group):
    return [m for row, m in measured if row.group == group]


class Ladder:
    """One ``BENCH_*.json``: its rows, its counted names and its layout."""

    # as the committed sides were timed: the best of 3 runs, or the median
    # of 7 where a best-of-3 is host noise on the small rows
    repeat, average, digits = 3, staticmethod(min), 4
    rows_at = "keys"        # the side's field holding the rows; None: itself
    time_key, count_key = "wall_s", "counts"
    check_max_n = None      # --check measures the rows with n <= this
    counted, scope, frames = (), None, ()

    def rows(self):
        raise NotImplementedError

    def counting(self, row):
        return Counting(self.counted, self.scope, self.frames)

    def tally(self, counts):
        """The counts as the row records them."""
        return counts

    def totals(self, measured):
        """Fields the side adds from its [(row, measured)]."""
        return {}

    def fails(self, got, expected):
        """Whether a row's counts fail ``--check`` against the file's."""
        return got != expected

    def check_host(self, host):
        """Told the ``host`` of the file's side before ``--check``."""

    def fields(self, row):
        if row.phase:
            return f"{row.phase}_s", f"{row.phase}_counts"
        return self.time_key, self.count_key


def count(ladder, row):
    inputs = row.setup()
    with ladder.counting(row) as c:
        row.run(inputs)
    return ladder.tally(c.counts)


def measure(ladder, row):
    walls = []
    for _ in range(ladder.repeat):
        inputs = row.setup()
        t0 = time.perf_counter()
        row.run(inputs)
        walls.append(time.perf_counter() - t0)
    time_key, count_key = ladder.fields(row)
    return {time_key: round(ladder.average(walls), ladder.digits),
            count_key: count(ladder, row)}


def check(ladder, path):
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)["after"]
    ladder.check_host(want["host"])
    want = want[ladder.rows_at] if ladder.rows_at else want
    bad = 0
    for row in ladder.rows():
        if ladder.check_max_n and row.n > ladder.check_max_n:
            continue
        got = count(ladder, row)
        expected = want[row.key][ladder.fields(row)[1]]
        fails = ladder.fails(got, expected)
        bad += fails
        print(row.key, row.phase or "", "ok" if got == expected else
              f"{'fails' if fails else 'passes'}: "
              f"{json.dumps(got, sort_keys=True)} != "
              f"{json.dumps(expected, sort_keys=True)}", flush=True)
    return 1 if bad else 0


def write_side(ladder, name, side_name, path):
    table = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    side = {"host": f"{platform.python_implementation()} "
                    f"{platform.python_version()}, {os.cpu_count()} cpus"}
    measured = []
    for row in ladder.rows():
        m = measure(ladder, row)
        rows = side.setdefault(ladder.rows_at, {}) if ladder.rows_at else side
        rows.setdefault(row.key, {}).update(m)
        measured.append((row, m))
        print(row.key, row.phase or "", json.dumps(m), flush=True)
    side.update(ladder.totals(measured))
    table[side_name] = side
    table["command"] = (f"PYTHONPATH=<tree>/src python3 tools/bench.py {name}"
                        " --side <side>")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def ctgent_job(n, d, idx):
    """The ``ctgent`` workload's chain job with no reduction seed, from
    nothing: family, cluster endomorphism algebra, cover, d-gentle
    certificate, ``reduce_to_gentle`` and sg invariant."""
    c = cluster.ctgent_family(n, d, list(idx))
    res = cluster.cluster_endo_algebra(c)
    cover, e = cluster.ctgent_cover(c)
    axioms.is_d_gentle_certificate(cover.algebra, e, d)
    trace = reduction.reduce_to_gentle(res.algebra)
    reduction.gentle_sg_invariant(trace.terminal)


CTGENT_KEYS = {ctgent_key(n, d, idx) for n, d, idx in CTGENT_POOL}


def chain_rows(group):
    """A ``ctgent_job`` row for each key of the ``ctgent`` pool, in group,
    then one for (7, 2, [2, 4, 6]), in none."""
    return [Row(ctgent_key(n, d, idx), n,
                lambda _, job=(n, d, idx): ctgent_job(*job),
                group=group if ctgent_key(n, d, idx) in CTGENT_KEYS else None)
            for n, d, idx in CTGENT_POOL + [(7, 2, (2, 4, 6))]]


class Auslander(Ladder):
    """``build_typeA_auslander`` and ``homological_dims`` on each (n, d) of
    the ``auslander`` pool.

    A row has two phases, each the median of 7 runs: ``build_s`` builds
    A^d_n, and ``homdims_s`` runs ``homological_dims`` on a fresh build (it
    is memoised on its algebra).  Their counts, ``build_counts`` and
    ``homdims_counts``, are the calls of ``projective_cover``, ``kernel``,
    ``direct_sum``, ``TrackedSpan.add``, ``linalg.rref``, ``nullspace``
    and ``mat_vec``; ``linalg_frames``, the Python frames entered in
    ``hga/linalg.py`` (see ``Counting``): what the dense kernel pays per
    call beyond its arithmetic; and ``constructions`` and
    ``stored_entries``, the ``Representation`` and ``Morphism`` objects
    built by the routes in ``CONSTRUCTORS``, checked or not, and the dims,
    maps and blocks they store (see ``stored``).  ``--check`` runs every
    row: a guard against a resolution step that pays for the whole quiver again,
    for elimination at a one-dimensional vertex (the cover and the kernel
    read it off its scalars, with no ``rref``, and the cover map out of one
    thin P_v into a thin module takes no ``mat_vec``), or
    for a product with an identity (it enters frames in ``hga/linalg.py``),
    against a dense call that copies, allocates or searches through
    helpers again, and, with ``stored_entries`` a ceiling, against a
    module that stores more than its support.
    """

    repeat, average = 7, staticmethod(statistics.median)
    rows_at = "pool"
    counted = [(reps, name, f"{name}_calls", "all")
               for name in ("projective_cover", "kernel", "direct_sum")] + [
        (linalg.TrackedSpan, "add", "sparse_add_calls", "all")] + [
        (linalg, name, f"{name}_calls", "all")
        for name in ("rref", "nullspace", "mat_vec")] + STORED
    frames = [(linalg, "linalg_frames")]

    def fails(self, got, expected):
        return got.keys() != expected.keys() or any(
            got[k] > expected[k] if k == "stored_entries"
            else got[k] != expected[k] for k in got)

    def rows(self):
        out = []
        for n, d in AUSLANDER_POOL:
            def build(_=None, n=n, d=d):
                return typea.build_typeA_auslander(n, d)
            out += [Row(auslander_key(n, d), n, build, phase="build"),
                    Row(auslander_key(n, d), n,
                        lambda a: reps.homological_dims(a), build,
                        phase="homdims")]
        return out


def certify(jobs):
    for cover, e, d in jobs:
        axioms.is_d_gentle_certificate(cover, e, d).to_dict()


class Certificate(Ladder):
    """The d-gentle certificate's corners and reports.

    Three workloads:

    - ``rigid``: the 72 rigid entries of the ``rigid`` pool (24 label
      subsets for each n = 3, 4, 5), each certified with d = 2 against the
      cover A^3_n and reported with ``to_dict``, as a ``rigid`` job does.
      One row per n.
    - ``ctgent``: the 13 keys of the ``ctgent`` pool, each certified against
      its ``ctgent_cover`` and reported the same way.  One row per key.
    - ``cube``: the certificates whose pattern scan finds a cube, from the
      witness tests' fixtures: A^2_n at d = 1 for n = 3, 4, 5 and A^3_4 at
      d = 2, each on all its vertices.  One row per certificate.

    ``wall_s`` is the median of 7 runs of a row's certificates and reports;
    the counts are the top-level calls (those a function does not make
    itself) of ``algebras.represent`` and ``algebras._normal_words``, every
    ``Algebra`` construction and ``TrackedSpan.add`` call, every
    ``CornerQuiver`` construction (``corner_quivers``), the cube walks
    started outside a walk (``cube_walks``, see ``cube_walks``), and
    ``containers_built``, the dicts and lists each report's ``to_dict``
    builds anew (see ``containers_built``).  Covers are built, and their
    cover-level axioms memoised, before anything is counted or timed, so a
    row measures what each certificate adds over its cover's shared checks:
    the hull's (E3), the corner and its cube check.  ``total`` sums the rows
    of each workload.  ``--check`` runs every row: a guard against a
    passing certificate re-presenting a corner, a failing one re-presenting
    more than its corner once, reports copying what the memo shares, a
    hull of fewer than six vertices getting a corner quiver, and an e of
    fewer than 2^(d+1) vertices getting a cube walk.
    """

    repeat, average, digits = 7, staticmethod(statistics.median), 5
    rows_at = "rows"
    counted = [(algebras, "represent", "represent_calls", "top"),
               (algebras, "_normal_words", "normal_words_calls", "top"),
               (axioms.GentleCertificate, "to_dict", ("containers_built",),
                containers_built),
               (algebras.Algebra, "__init__", "algebra_inits", "all"),
               (linalg.TrackedSpan, "add", "sparse_add_calls", "all"),
               (algebras.CornerQuiver, "__init__", "corner_quivers", "all"),
               (axioms, "_cube_walk", ("cube_walks",), cube_walks)]

    def rows(self):
        pool = rigid_pool()
        out = []
        for n in RIGID_NS:
            cover = typea.build_typeA_auslander(n, 3)
            jobs = [(cover, Idempotent.of(["".join(map(str, t))
                                           for t in sub]), 2)
                    for sub in pool[n][0]]
            out.append(Row(f"A^3_{n}", n, certify, lambda j=jobs: j,
                           "rigid"))
        for n, d, idx in CTGENT_POOL:
            cover, e = cluster.ctgent_cover(
                cluster.ctgent_family(n, d, list(idx)))
            jobs = [(cover.algebra, e, d)]
            out.append(Row(ctgent_key(n, d, idx), n, certify,
                           lambda j=jobs: j, "ctgent"))
        for n, dd, d in ((3, 2, 1), (4, 2, 1), (5, 2, 1), (4, 3, 2)):
            cover = typea.build_typeA_auslander(n, dd)
            jobs = [(cover, Idempotent.of(cover.vertices), d)]
            out.append(Row(f"A^{dd}_{n},d={d}", n, certify, lambda j=jobs: j,
                           "cube"))
        for row in out:
            for cover, _, d in row.setup():
                axioms._cover_axioms(cover, d + 1)
        return out

    def totals(self, measured):
        return {"total": {group: dict(
            summed(grouped(measured, group), self.digits),
            certificates=sum(len(row.setup()) for row, _ in measured
                             if row.group == group))
            for group in ("rigid", "ctgent", "cube")}}


def rigid_families():
    """(family, label subsets): the families of a ``rigid`` pass, each
    warmed as the benchmark's warm-up does, with its label subsets as a
    ``rigid`` job gives them."""
    out = []
    for n, (rigid, other) in rigid_pool().items():
        fam = typea.canonical_cluster_tilting(
            typea.build_typeA_auslander(n, 2))
        cluster.is_d_rigid(cluster.SummandCollection(fam, fam.labels))
        out.append((fam, [[list(t) for t in sub] for sub in rigid + other]))
    return out


def rigid_collections(families=None):
    """The label subsets of one ``rigid`` pass, as collections on shared
    families (``rigid_families``)."""
    return [cluster.SummandCollection(fam, labels)
            for fam, subsets in families or rigid_families()
            for labels in subsets]


def rigid_pass(collections):
    for c in collections:
        cluster.is_d_rigid(c)


def ctgent_families():
    return [cluster.ctgent_family(n, d, list(idx))
            for n, d, idx in CTGENT_POOL]


def ctgent_round(collections):
    for c in collections:
        cluster.cluster_endo_algebra(c)
        cluster.ctgent_cover(c)


def ctgent_algebras():
    """A fresh A^d_n for each key of the ``ctgent`` pool, as each
    ``ctgent_family`` call builds one."""
    return [typea.build_typeA_auslander(n, d) for n, d, _ in CTGENT_POOL]


def build_families(algebras):
    for a in algebras:
        typea.canonical_cluster_tilting(a)


def ctgent_keyed_families():
    """(n, d, idx, family) for each key of the ``ctgent`` pool, each family
    built fresh, as ``ctgent_family`` builds it."""
    return [(n, d, idx, typea.canonical_cluster_tilting(
        typea.build_typeA_auslander(n, d))) for n, d, idx in CTGENT_POOL]


def ctgent_roles(keyed):
    for n, d, idx, fam in keyed:
        cluster.ctgent_family(n, d, list(idx), family=fam)


class Family(Ladder):
    """Pair data on the labelled module family.

    Five rows, each timed by the median of 7 runs on fresh families:

    - ``rigid``: one pass of the ``rigid`` workload, that is its 216 label
      subsets (six rounds draw each pool entry once), on the canonical
      families of A^2_n, n = 3, 4, 5.  Each subset runs ``is_d_rigid``.
      The counts are the calls of ``reps.ext_dim``, ``typea.intertwines``
      and ``typea.LabelledModuleFamily.index_of`` made inside
      ``is_d_rigid``.  Each family first runs ``is_d_rigid`` on all of its
      labels, unmeasured, as the benchmark's warm-up does, so what the
      family memoises for rigidity is built before the pass.
    - ``collections``: the 216 ``SummandCollection`` of that pass, built on
      the same warmed families.  ``label_lookups`` counts the reads of a
      family's label index (``label_lookups``).
    - ``ctgent``: one seedless round of the 13 keys of the ``ctgent`` pool.
      Each key builds a fresh family with ``ctgent_family``, unmeasured,
      then End(c) with ``cluster_endo_algebra`` and End(cover) with
      ``ctgent_cover``.  The counts are the calls of ``reps.hom_basis``,
      ``reps.ExtSpace``, ``reps._tau_d_inv_mor`` and
      ``reps.resolution_lift`` made inside ``cluster_endo_algebra``, at any
      depth: an ExtSpace only for a pair not decided zero first, and a map
      only for a product whose Ext is not zero.  The last two are the
      computes behind the memos of
      ``reps.higher_translate_inverse_morphism`` and
      ``reps.comparison_map``, so they count the maps computed, not the
      lookups.
    - ``build``: ``canonical_cluster_tilting`` on a fresh A^d_n for each of
      the 13 keys of the ``ctgent`` pool, built unmeasured, as a cold
      ``ctgent`` job builds its family.  The counts are the calls of
      ``reps.ext_dim`` and ``reps.ExtSpace`` made inside it: every ordered
      pair is checked against the Ext^d criterion one module's row at a
      time, read off its resolution and the boxes, with neither.
    - ``roles``: ``ctgent_family`` on a fresh family for each of the 13
      keys of the ``ctgent`` pool, built unmeasured.  The counts are the
      calls of ``reps.Representation.dim_vector``, ``reps.simple`` and
      ``reps.ar_translate_inverse`` made inside it; the last is the compute
      behind the memo of ``reps.higher_translate_inverse``, so it counts
      the tau_d^- computed, one per chain simple.

    ``--check`` runs all five: a guard against per-query Ext computations,
    label comparisons and label lookups, a lookup per label, per-collection
    pair data, a general Hom solve per family pair, a per-pair Ext in the
    family check, an ExtSpace for a pair decided zero, an unchecked family
    pair, and a search of the family's
    dimension vectors for its projectives and simples, coming back.
    """

    repeat, average = 7, staticmethod(statistics.median)
    rows_at = None
    # row -> (counted, scope): calls count only inside the scope
    COUNTED = {
        "rigid": ([(reps, "ext_dim", "ext_dim_calls", "scoped"),
                   (typea, "intertwines", "intertwines_calls", "scoped"),
                   (typea.LabelledModuleFamily, "index_of", "index_of_calls",
                    "scoped")],
                  (cluster, "is_d_rigid")),
        "collections": ([(memo, "memo", ("label_lookups",), label_lookups)],
                        None),
        "ctgent": ([(reps, name, f"{name}_calls", "scoped")
                    for name in ("hom_basis", "ExtSpace", "_tau_d_inv_mor",
                                 "resolution_lift")],
                   (cluster, "cluster_endo_algebra")),
        "build": ([(reps, name, f"{name}_calls", "scoped")
                   for name in ("ext_dim", "ExtSpace")],
                  (typea, "canonical_cluster_tilting")),
        "roles": ([(reps.Representation, "dim_vector", "dim_vector_calls",
                    "scoped")] + [(reps, name, f"{name}_calls", "scoped")
                                  for name in ("simple",
                                               "ar_translate_inverse")],
                  (cluster, "ctgent_family")),
    }

    def rows(self):
        return [Row("rigid", None, rigid_pass, rigid_collections),
                Row("collections", None, rigid_collections, rigid_families),
                Row("ctgent", None, ctgent_round, ctgent_families),
                Row("build", None, build_families, ctgent_algebras),
                Row("roles", None, ctgent_roles, ctgent_keyed_families)]

    def counting(self, row):
        return Counting(*self.COUNTED[row.key])


class Reduction(Ladder):
    """A seedless ``reduce_to_gentle`` on the cluster endomorphism algebra
    of ``ctgent_family``, for the 13 keys of the ``ctgent`` pool, then
    (7, 2, [2, 4, 6]), (5, 3, [3]) and (6, 3, [2]), whose corners have
    relations of mixed lengths.

    ``reduce_s`` is the median of 7 runs, each on a freshly built algebra
    (the reduction memoises on its input).  The counts are the calls of
    ``quotient_by_idempotent``, ``idempotent_subalgebra``, ``represent``,
    ``build_algebra``, ``Algebra.rad_nilpotency`` and
    ``reduction._fabric_report``, and ``rank_evals``, the morphism ranks
    that the injection search evaluates (``reps.Morphism.rank`` calls
    inside ``reduction.find_injection``, so not those of
    ``is_isomorphic``).  A quotient is built once from its
    presentation and re-presents nothing, so ``represent`` counts the
    corners; the quadratic closure of a gentle check counts normal words
    and builds no algebra, so ``build_algebra`` counts the quotients
    alone.  ``pool_counts`` sums them over the 13 pool keys: one seedless
    round of the chain's reductions.  ``--check`` runs every key but
    (7, 2, [2, 4, 6]) and (6, 3, [2]): a guard against rebuilt quotients and corners,
    quotients re-presented through a raw table, a nilpotency check on a
    re-presented corner, a step certificate that builds its fabric report
    again instead of reading the one its growth loop made, and an algebra
    built for a quadratic closure, coming back.
    """

    repeat, average = 7, staticmethod(statistics.median)
    time_key = "reduce_s"
    check_max_n = 5
    counted = [(algebras, name, f"{name}_calls", "all")
               for name in ("quotient_by_idempotent", "idempotent_subalgebra",
                            "represent", "build_algebra")] + [
        (algebras.Algebra, "rad_nilpotency", "rad_nilpotency_calls", "all"),
        (reduction, "_fabric_report", "fabric_report_calls", "all"),
        (reps.Morphism, "rank", "rank_evals", "scoped")]
    scope = (reduction, "find_injection")

    def rows(self):
        out = []
        for n, d, idx in CTGENT_POOL + [(7, 2, (2, 4, 6)), (5, 3, (3,)),
                                        (6, 3, (2,))]:
            key = ctgent_key(n, d, idx)
            out.append(Row(
                key, n, lambda a: reduction.reduce_to_gentle(a),
                lambda n=n, d=d, idx=idx: cluster.cluster_endo_algebra(
                    cluster.ctgent_family(n, d, list(idx))).algebra,
                "pool" if key in CTGENT_KEYS else None))
        return out

    def totals(self, measured):
        return {"pool_counts": summed(
            [m["counts"] for m in grouped(measured, "pool")], self.digits)}


class Represent(Ladder):
    """Re-presentation on the ``ctgent`` chain: the 13 keys of the
    ``ctgent`` pool, then (7, 2, [2, 4, 6]), each running ``ctgent_job``.

    ``wall_s`` is the median of 7 runs (on the small keys a best-of-3 is
    host noise, not the change).  The counts:

    - ``nullspace_calls``, ``sparse_add_calls`` and ``rank_calls``: the
      calls of ``linalg.nullspace``, ``TrackedSpan.add`` and
      ``linalg.rank`` made inside ``represent``, at any depth;
    - ``rad_nilpotency_calls``: every ``Algebra.rad_nilpotency`` call.

    ``round`` sums both over the 13 pool keys: one seedless round of the
    ``ctgent`` workload.  ``--check`` runs the 13 pool keys: a guard
    against the ideal generation or the second build coming back.
    """

    repeat, average = 7, staticmethod(statistics.median)
    check_max_n = 5
    scope = (algebras, "represent")
    counted = [(linalg, "nullspace", "nullspace_calls", "scoped"),
               (linalg.TrackedSpan, "add", "sparse_add_calls", "scoped"),
               (linalg, "rank", "rank_calls", "scoped"),
               (algebras.Algebra, "rad_nilpotency", "rad_nilpotency_calls",
                "all")]

    def rows(self):
        return chain_rows("round")

    def totals(self, measured):
        return {"round": summed(grouped(measured, "round"), self.digits)}


class Scalars(Ladder):
    """Wall time and ``Fraction`` constructions of the exact scalars.

    The keys are the 7 (n, d) of the ``auslander`` pool, each running
    ``homological_dims(build_typeA_auslander(n, d))``, and the 13 keys of
    the ``ctgent`` pool, then (7, 2, [2, 4, 6]), each running
    ``ctgent_job``.  ``wall_s`` is the best of 3; ``fractions`` counts the
    ``fractions.Fraction`` objects one more run builds, by a wrapper on
    ``Fraction.__new__``.  On CPython up to 3.11 every Fraction, arithmetic
    results included, goes through ``__new__``.  ``rounds`` sums them over
    each pool: one round of the ``auslander`` and of the seedless
    ``ctgent`` workload.  ``--check`` runs the keys with n <= 5 and fails
    if any builds more Fractions than the file: a guard against scalars
    going back to Fraction everywhere.
    """

    count_key = "fractions"
    check_max_n = 5
    counted = [(Fraction, "__new__", "fractions", "all")]

    def rows(self):
        return [Row(auslander_key(n, d), n,
                    lambda _, n=n, d=d: reps.homological_dims(
                        typea.build_typeA_auslander(n, d)),
                    group="auslander")
                for n, d in AUSLANDER_POOL] + chain_rows("ctgent")

    def tally(self, counts):
        return counts["fractions"]

    def fails(self, got, expected):
        return got > expected

    def totals(self, measured):
        return {"rounds": {group: summed(grouped(measured, group),
                                         self.digits)
                           for group in ("auslander", "ctgent")}}


def auslander_job(n, d):
    """The ``auslander`` workload's job, in a temporary directory:
    ``hga auslander`` on A^d_n, its presentation written on its own, then
    ``hga homdims`` on that."""
    with tempfile.TemporaryDirectory() as tmp:
        report, pres, dims = (os.path.join(tmp, name) for name in (
            "auslander.json", "presentation.json", "homdims.json"))
        if cli.main(["auslander", "--n", str(n), "--d", str(d),
                     "--out", report]):
            raise RuntimeError(f"hga auslander failed on A^{d}_{n}")
        with open(report, encoding="utf-8") as fh:
            data = json.load(fh)
        with open(pres, "w", encoding="utf-8") as fh:
            json.dump(data["presentation"], fh, indent=2, sort_keys=True)
        if cli.main(["homdims", pres, "--out", dims]):
            raise RuntimeError(f"hga homdims failed on A^{d}_{n}")


class Lifetime:
    """The counts of the ``memory`` ladder for the block it runs: the
    cyclic collector is off and ``tracemalloc`` on while the block runs,
    and then ``gc.collect()`` frees what the block left in reference
    cycles.

    - ``cyclic_objects``: the objects that collection frees;
    - ``hga_cyclic_objects``: those of them whose class is defined in hga;
    - ``traced_peak_kib``: the peak of the memory tracemalloc traced.
    """

    def __init__(self):
        self.counts = {}

    def __enter__(self):
        gc.collect()
        self.enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            ours = sum(type(x).__module__.split(".")[0] == "hga"
                       for x in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.collect()
            if self.enabled:
                gc.enable()
        self.counts.update(cyclic_objects=found, hga_cyclic_objects=ours,
                           traced_peak_kib=peak // 1024)


class Memory(Ladder):
    """What a cold job leaves to the cyclic collector.

    The rows are the 7 (n, d) of the ``auslander`` pool, each running
    ``auslander_job``, the workload's two CLI calls, and the 13 keys of the
    ``ctgent`` pool, each running ``ctgent_job``, each run after one
    unmeasured run of the same job.  ``wall_s`` is the best of 3; the
    counts are those of ``Lifetime``.  ``rounds`` sums them over
    each pool: one round of each workload.  ``--check`` runs every row
    and fails if a row leaves any hga object in a reference cycle, or if
    ``traced_peak_kib`` is more than 2% above the file's: the peak moves
    by about 1 KiB from run to run of one tree, with the order of objects
    in memory.  The peak depends on the Python version, so it is checked
    only on the version of the file's ``host``.  ``cyclic_objects`` is
    recorded, not checked: it counts the standard library's cycles too
    (the indented ``json`` dump of an ``auslander`` job's presentation
    leaves 33 objects in cycles of its own; the CLI's reports leave none).
    """

    def rows(self):
        jobs = [(auslander_key(n, d), n,
                 functools.partial(auslander_job, n, d),
                 "auslander") for n, d in AUSLANDER_POOL] + [
            (ctgent_key(n, d, idx), n,
             functools.partial(ctgent_job, n, d, idx), "ctgent")
            for n, d, idx in CTGENT_POOL]
        # the setup runs the job once, unmeasured, so that --check counts
        # a warm job as --side does (the first CLI call of a process
        # builds its argument parser, for one)
        return [Row(key, n, lambda _, job=job: job(), job, group)
                for key, n, job, group in jobs]

    def counting(self, row):
        return Lifetime()

    def totals(self, measured):
        return {"rounds": {group: summed(grouped(measured, group),
                                         self.digits)
                           for group in ("auslander", "ctgent")}}

    def fails(self, got, expected):
        if got["hga_cyclic_objects"]:
            return True
        peak, ceiling = got["traced_peak_kib"], expected["traced_peak_kib"]
        return self.same_python and peak > 1.02 * ceiling

    def check_host(self, host):
        version = platform.python_version_tuple()[:2]
        self.same_python = host.startswith(
            f"{platform.python_implementation()} {'.'.join(version)}.")


LADDERS = {"auslander": Auslander, "certificate": Certificate,
           "family": Family, "memory": Memory, "reduction": Reduction,
           "represent": Represent, "scalars": Scalars}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("name", choices=sorted(LADDERS))
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--side", choices=("before", "after"))
    mode.add_argument("--check", action="store_true")
    ap.add_argument("--out", help="default: BENCH_<name>.json in the repo")
    args = ap.parse_args(argv)
    ladder = LADDERS[args.name]()
    path = args.out or os.path.join(ROOT, f"BENCH_{args.name}.json")
    if args.check:
        return check(ladder, path)
    return write_side(ladder, args.name, args.side, path)


if __name__ == "__main__":
    sys.exit(main())
