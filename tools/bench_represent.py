"""Before/after numbers for re-presentation on the ``ctgent`` chain keys.

    PYTHONPATH=<tree>/src python3 tools/bench_represent.py \
        --side before|after [--out BENCH_represent.json]
    PYTHONPATH=src python3 tools/bench_represent.py --check

The keys (n, d, positions) are the 13 of the ``ctgent`` pool in
``perfbench/workloads.py``, then (7, 2, [2, 4, 6]).  Each key runs the chain
job of that workload with no reduction seed: family, cluster endomorphism
algebra, cover, d-gentle certificate, ``reduce_to_gentle`` and sg invariant.
Every run starts from nothing, so no memoised value carries over.  For each
key, and for the hga found on the import path, it measures:

- ``wall_s``: wall seconds, the median of ``REPEAT`` runs with no counter
  installed (on the small keys a best-of-3 is host noise, not the change);
- ``counts``, from one more run with counting wrappers:
  - ``nullspace_calls``, ``sparse_add_calls``, ``sparse_reduce_calls`` and
    ``rank_calls``: the calls of ``linalg.nullspace``, ``SparseRREF.add``,
    ``SparseRREF.reduce`` and ``linalg.rank`` made inside ``represent``, at
    any depth (each ``SparseRREF.add`` reduces once, so it counts as a
    reduce too);
  - ``rad_nilpotency_calls``: every ``Algebra.rad_nilpotency`` call;
  - ``unchecked_rows_copied``: the matrix rows that ``reps._entries``
    copies for an unchecked ``Representation`` or ``Morphism``.

The counts do not depend on the machine.  ``round`` sums both over the 13
pool keys: one seedless round of the ``ctgent`` workload.  ``--side``
merges the result into the JSON file, so one run on each tree fills in both
sides.  ``--check`` measures the counts only, of the keys with n at most
``CHECK_MAX_N``, writes nothing, and exits 1 if any differs from the file's
``after`` side: a guard, independent of the machine, against the ideal
generation, the second build or the copies coming back.
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

from workloads import CTGENT_POOL, ctgent_key  # noqa: E402

from hga import algebras, axioms, cluster, linalg, reduction, reps  # noqa: E402


# Timings are medians of REPEAT runs; both committed sides were measured so.
REPEAT = 7
KEYS = [(n, d, list(idx)) for n, d, idx in CTGENT_POOL] + [(7, 2, [2, 4, 6])]
POOL = {ctgent_key(n, d, idx) for n, d, idx in CTGENT_POOL}
# the keys --check runs: the 13 pool keys, in about 3 s
CHECK_MAX_N = 5
COUNTS = ("nullspace_calls", "sparse_add_calls", "sparse_reduce_calls",
          "rank_calls", "rad_nilpotency_calls", "unchecked_rows_copied")


def ctgent_job(n, d, idx):
    c = cluster.ctgent_family(n, d, idx)
    res = cluster.cluster_endo_algebra(c)
    cover, e = cluster.ctgent_cover(c)
    axioms.is_d_gentle_certificate(cover.algebra, e, d)
    trace = reduction.reduce_to_gentle(res.algebra)
    reduction.gentle_sg_invariant(trace.terminal)


class Counters:
    """Counting wrappers, removed on exit.  Each wrapped name is rebound in
    every hga module that imported it, so calls from any module count."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTS, 0)
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
        counts = self.counts
        depth = [0]  # represent calls under way

        def presenting(orig):
            def wrapped(*args, **kwargs):
                depth[0] += 1
                try:
                    return orig(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapped

        def from_presenting(orig, count):
            def wrapped(*args, **kwargs):
                if depth[0]:
                    counts[count] += 1
                return orig(*args, **kwargs)
            return wrapped

        def nilpotency(orig):
            def wrapped(*args, **kwargs):
                counts["rad_nilpotency_calls"] += 1
                return orig(*args, **kwargs)
            return wrapped

        def entries(orig):
            def wrapped(m, check):
                out = orig(m, check)
                if not check and out is not m:
                    counts["unchecked_rows_copied"] += len(m)
                return out
            return wrapped

        self._wrap(algebras, "represent", presenting)
        for home, name, count in (
                (linalg, "nullspace", "nullspace_calls"),
                (linalg.SparseRREF, "add", "sparse_add_calls"),
                (linalg.SparseRREF, "reduce", "sparse_reduce_calls"),
                (linalg, "rank", "rank_calls")):
            self._wrap(home, name, lambda f, c=count: from_presenting(f, c))
        self._wrap(algebras.Algebra, "rad_nilpotency", nilpotency)
        self._wrap(reps, "_entries", entries)
        return self

    def __exit__(self, *exc):
        for mod, name, orig in reversed(self.saved):
            setattr(mod, name, orig)


def seconds(n, d, idx):
    t0 = time.perf_counter()
    ctgent_job(n, d, idx)
    return time.perf_counter() - t0


def counts(n, d, idx):
    with Counters() as c:
        ctgent_job(n, d, idx)
    return c.counts


def measure(n, d, idx):
    wall = statistics.median(seconds(n, d, idx) for _ in range(REPEAT))
    return {"wall_s": round(wall, 4), "counts": counts(n, d, idx)}


def check(path):
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)["after"]["keys"]
    bad = 0
    for n, d, idx in KEYS:
        if n > CHECK_MAX_N:
            continue
        key = ctgent_key(n, d, idx)
        got = counts(n, d, idx)
        same = got == want[key]["counts"]
        bad += not same
        print(key, "ok" if same else
              f"differs: {json.dumps(got)} != {json.dumps(want[key]['counts'])}",
              flush=True)
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--side", choices=("before", "after"))
    mode.add_argument("--check", action="store_true")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_represent.json"))
    args = ap.parse_args(argv)
    if args.check:
        return check(args.out)
    table = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            table = json.load(fh)
    side = {"host": f"{platform.python_implementation()} "
                    f"{platform.python_version()}, {os.cpu_count()} cpus",
            "keys": {}}
    total = {"wall_s": 0.0, "counts": dict.fromkeys(COUNTS, 0)}
    for n, d, idx in KEYS:
        key = ctgent_key(n, d, idx)
        side["keys"][key] = row = measure(n, d, idx)
        if key in POOL:
            total["wall_s"] += row["wall_s"]
            for name, k in row["counts"].items():
                total["counts"][name] += k
        print(key, json.dumps(row), flush=True)
    total["wall_s"] = round(total["wall_s"], 4)
    side["round"] = total
    table[args.side] = side
    table["command"] = ("PYTHONPATH=<tree>/src python3 tools/bench_represent.py"
                        " --side <side>")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
