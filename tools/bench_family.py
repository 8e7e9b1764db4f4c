"""Before/after numbers for pair data on the labelled module family.

    PYTHONPATH=<tree>/src python3 tools/bench_family.py \
        --side before|after [--out BENCH_family.json]
    PYTHONPATH=src python3 tools/bench_family.py --check

Two workloads, each for the hga found on the import path:

- ``rigid``: one pass of the ``rigid`` workload in ``perfbench/workloads.py``,
  that is its 216 label subsets (six rounds draw each pool entry once), on
  the canonical families of A^2_n, n = 3, 4, 5.  Each subset
  runs ``is_d_rigid``.  The counts are the calls of ``reps.ext_dim``,
  ``typea.intertwines`` and ``typea.LabelledModuleFamily.index_of`` made
  inside ``is_d_rigid``.  Each family first runs ``is_d_rigid`` on all of
  its labels, uncounted, as the benchmark's warm-up does, so what the
  family memoises for rigidity is built before the pass.
- ``ctgent``: one seedless round of the 13 keys of the ``ctgent`` pool.
  Each key builds a fresh family with ``ctgent_family``, then End(c) with
  ``cluster_endo_algebra`` and End(cover) with ``ctgent_cover``.  The counts
  are the calls of ``reps.hom_basis``, ``reps.ExtSpace``,
  ``cluster._local_radical_basis``, ``reps._tau_d_inv_mor`` and
  ``reps.resolution_lift`` made inside ``cluster_endo_algebra``, at any
  depth.  The last two are the computes behind the memos of
  ``reps.higher_translate_inverse_morphism`` and ``reps.comparison_map``,
  so they count the maps computed, not the lookups.

``wall_s`` is the median of ``REPEAT`` runs with no counter installed, each
on fresh families, whose building is not timed: of the pass's
``is_d_rigid`` calls, and of the round's End(c) and End(cover).
The counts do not depend on the machine.  ``--side`` merges the result into
the JSON file, so one run on each tree fills in both sides.  ``--check``
measures the counts only, writes nothing, and exits 1 if any differs from
the file's ``after`` side: a guard against per-query Ext computations,
label comparisons and label lookups, and per-collection pair data, coming
back.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import CTGENT_POOL, rigid_pool  # noqa: E402

from hga import cluster, reps, typea  # noqa: E402


# Timings are medians of REPEAT runs; both committed sides were measured so.
REPEAT = 7
# workload -> (the hga.cluster function inside which calls are counted,
# (home, name) of each counted function)
COUNTED = {
    "rigid": ("is_d_rigid", [(reps, "ext_dim"), (typea, "intertwines"),
                             (typea.LabelledModuleFamily, "index_of")]),
    "ctgent": ("cluster_endo_algebra", [
        (reps, "hom_basis"), (reps, "ExtSpace"),
        (cluster, "_local_radical_basis"), (reps, "_tau_d_inv_mor"),
        (reps, "resolution_lift")]),
}


class Counters:
    """Counting wrappers on one workload's names, counting only calls made
    inside its scope (a function of hga.cluster); removed on exit.  Each
    name is rebound on its home, a module or a class, and in every hga
    module that imported it."""

    def __init__(self, workload):
        self.scope, self.names = COUNTED[workload]
        self.counts = {f"{name}_calls": 0 for _, name in self.names}
        self.saved = []

    def _wrap(self, home, name, make):
        orig = getattr(home, name)
        new = make(orig)
        holders = [home] + [m for key, m in sys.modules.items()
                            if key.startswith("hga.") and m is not home]
        for mod in holders:
            if getattr(mod, name, None) is orig:
                self.saved.append((mod, name, orig))
                setattr(mod, name, new)

    def __enter__(self):
        depth = [0]

        def scoped(orig):
            def wrapped(*args, **kwargs):
                depth[0] += 1
                try:
                    return orig(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapped

        def counted(orig, count):
            def wrapped(*args, **kwargs):
                if depth[0]:
                    self.counts[count] += 1
                return orig(*args, **kwargs)
            return wrapped

        self._wrap(cluster, self.scope, scoped)
        for home, name in self.names:
            self._wrap(home, name,
                       lambda f, c=f"{name}_calls": counted(f, c))
        return self

    def __exit__(self, *exc):
        for mod, name, orig in reversed(self.saved):
            setattr(mod, name, orig)


def rigid_collections():
    """The label subsets of one pass, as collections on shared families."""
    out = []
    for n, (rigid, other) in rigid_pool().items():
        fam = typea.canonical_cluster_tilting(
            typea.build_typeA_auslander(n, 2))
        cluster.is_d_rigid(cluster.SummandCollection(fam, fam.labels))
        out += [cluster.SummandCollection(fam, [list(t) for t in sub])
                for sub in rigid + other]
    return out


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


WORKLOADS = {"rigid": (rigid_collections, rigid_pass),
             "ctgent": (ctgent_families, ctgent_round)}


def counts(workload):
    make, run = WORKLOADS[workload]
    inputs = make()
    with Counters(workload) as c:
        run(inputs)
    return c.counts


def seconds(workload):
    make, run = WORKLOADS[workload]
    inputs = make()
    t0 = time.perf_counter()
    run(inputs)
    return time.perf_counter() - t0


def measure(workload):
    walls = [seconds(workload) for _ in range(REPEAT)]
    return {"wall_s": round(statistics.median(walls), 4),
            "counts": counts(workload)}


def check(path):
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)["after"]
    bad = 0
    for workload in WORKLOADS:
        got = counts(workload)
        same = got == want[workload]["counts"]
        bad += not same
        print(workload, "ok" if same else
              f"differs: {json.dumps(got)} != "
              f"{json.dumps(want[workload]['counts'])}", flush=True)
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--side", choices=("before", "after"))
    mode.add_argument("--check", action="store_true")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_family.json"))
    args = ap.parse_args(argv)
    if args.check:
        return check(args.out)
    table = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            table = json.load(fh)
    side = {"host": f"{platform.python_implementation()} "
                    f"{platform.python_version()}, {os.cpu_count()} cpus"}
    for workload in WORKLOADS:
        side[workload] = row = measure(workload)
        print(workload, json.dumps(row), flush=True)
    table[args.side] = side
    table["command"] = ("PYTHONPATH=<tree>/src python3 tools/bench_family.py"
                        " --side <side>")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
