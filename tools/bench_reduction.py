"""Before/after numbers for ``reduce_to_gentle`` on the ``ctgent`` chain keys.

    PYTHONPATH=<tree>/src python3 tools/bench_reduction.py \
        --side before|after [--out BENCH_reduction.json]
    PYTHONPATH=src python3 tools/bench_reduction.py --check

The keys (n, d, positions) are the 13 of the ``ctgent`` pool in
``perfbench/workloads.py``, then (7, 2, [2, 4, 6]) and (5, 3, [3]).  For each
key, on the cluster endomorphism algebra of ``ctgent_family`` and for the hga
found on the import path, it measures:

- ``reduce_s``: wall seconds of a seedless ``reduce_to_gentle``, the best of
  ``REPEAT`` runs, each on a freshly built algebra (the reduction memoises
  on its input), with no counters installed;
- ``counts``, from one more run on a fresh algebra with counting wrappers:
  calls of ``quotient_by_idempotent``, ``idempotent_subalgebra`` and
  ``represent``, and ``rank_evals``, the morphism ranks that
  ``reduction._max_rank_morphism`` evaluates (``_morphism_rank`` calls).

The counts do not depend on the machine.  ``pool_counts`` sums them over the
13 pool keys: one seedless round of the chain's reductions.  ``--side``
merges the result into the JSON file, so one run on each tree fills in both
sides.  ``--check`` measures the counts only, of the keys with n at most
``CHECK_MAX_N``, writes nothing, and exits 1 if any differs from the file's
``after`` side: a guard, independent of the machine, against rebuilt
quotients and corners coming back.
"""

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import CTGENT_POOL, ctgent_key  # noqa: E402

from hga import algebras, cluster, reduction  # noqa: E402


# Timings are best-of-REPEAT; both committed sides were measured with it.
REPEAT = 3
KEYS = [(n, d, list(idx)) for n, d, idx in CTGENT_POOL] + [
    (7, 2, [2, 4, 6]), (5, 3, [3])]
POOL = {ctgent_key(n, d, idx) for n, d, idx in CTGENT_POOL}
# the keys --check runs: every key but (7,2,[2,4,6]), in about 8 s
CHECK_MAX_N = 5
# (defining module, name, count); the name is rebound in every hga module
# that imported it, so calls made from any module are counted
COUNTED = [(algebras, "quotient_by_idempotent", "quotient_by_idempotent_calls"),
           (algebras, "idempotent_subalgebra", "idempotent_subalgebra_calls"),
           (algebras, "represent", "represent_calls"),
           (reduction, "_morphism_rank", "rank_evals")]


class Counters:
    """Counting wrappers on the names in COUNTED, removed on exit."""

    def __init__(self):
        self.counts = {count: 0 for _, _, count in COUNTED}
        self.saved = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("hga.")]
        for home, name, count in COUNTED:
            orig = getattr(home, name)

            def counted(*args, _orig=orig, _count=count, **kwargs):
                self.counts[_count] += 1
                return _orig(*args, **kwargs)

            for mod in modules:
                if getattr(mod, name, None) is orig:
                    self.saved.append((mod, name, orig))
                    setattr(mod, name, counted)
        return self

    def __exit__(self, *exc):
        for mod, name, orig in reversed(self.saved):
            setattr(mod, name, orig)


def fresh_algebra(n, d, idx):
    return cluster.cluster_endo_algebra(cluster.ctgent_family(n, d, idx)).algebra


def seconds(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def counts(n, d, idx):
    a = fresh_algebra(n, d, idx)
    with Counters() as c:
        reduction.reduce_to_gentle(a)
    return c.counts


def measure(n, d, idx):
    algs = [fresh_algebra(n, d, idx) for _ in range(REPEAT)]
    best = min(seconds(lambda a=a: reduction.reduce_to_gentle(a))
               for a in algs)
    return {"reduce_s": round(best, 4), "counts": counts(n, d, idx)}


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
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_reduction.json"))
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
    pool = {count: 0 for _, _, count in COUNTED}
    for n, d, idx in KEYS:
        key = ctgent_key(n, d, idx)
        side["keys"][key] = row = measure(n, d, idx)
        if key in POOL:
            for name, k in row["counts"].items():
                pool[name] += k
        print(key, json.dumps(row), flush=True)
    side["pool_counts"] = pool
    table[args.side] = side
    table["command"] = ("PYTHONPATH=<tree>/src python3 tools/bench_reduction.py"
                        " --side <side>")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
