"""Before/after numbers for the ``auslander`` benchmark pool, split by layer.

    PYTHONPATH=<tree>/src python3 tools/bench_auslander.py \
        --side before|after [--out BENCH_auslander.json]
    PYTHONPATH=src python3 tools/bench_auslander.py --check

For each (n, d) of the pool in ``perfbench/workloads.py``, and for the hga
found on the import path, it measures:

- ``build_s``: wall seconds of ``build_typeA_auslander(n, d)``;
- ``homdims_s``: wall seconds of ``homological_dims`` on a fresh build;
  both are the best of ``REPEAT`` runs with no counters installed;
- counts, from one more run with counting wrappers: calls of
  ``projective_cover``, ``kernel``, ``direct_sum`` and ``SparseRREF.add``;
  ``add_rows_stored``, the stored rows at each ``add`` that inserts a pivot
  (what the benchmark's ``linalg.sparse_add.rows_scanned`` reads);
  ``add_rows_visited``, the stored rows that ``add`` then back-reduces
  against the new pivot: all of them without a column index, only those
  with an entry in the pivot column with one; and the calls of
  ``linalg.rref``, ``nullspace``, ``solve`` and ``mat_vec``, counting those
  that linalg makes itself (``nullspace`` and ``solve`` each run an
  ``rref``).

The counts do not depend on the machine.  ``--side`` merges the result into
the JSON file, so one run on each tree fills in both sides.  ``--check``
measures the counts only, writes nothing, and exits 1 if any differs from
the file's ``after`` side: a guard, independent of the machine, against a
resolution step that pays for the whole quiver again.
"""

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import AUSLANDER_POOL, auslander_key  # noqa: E402

from hga import linalg, reps  # noqa: E402
from hga.typea import build_typeA_auslander  # noqa: E402


# Timings are best-of-REPEAT; both committed sides were measured with it.
REPEAT = 3


def seconds(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


COUNTS = ("projective_cover_calls", "kernel_calls", "direct_sum_calls",
          "sparse_add_calls", "add_rows_stored", "add_rows_visited",
          "rref_calls", "nullspace_calls", "solve_calls", "mat_vec_calls")


class Counters:
    """Counting wrappers on module attributes, removed on exit."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        self.saved = []

    def bump(self, name, k=1):
        self.counts[name] += k

    def take(self):
        """The counts so far; counting starts again from zero."""
        out, self.counts = self.counts, dict.fromkeys(COUNTS, 0)
        return out

    def wrap_call(self, owner, attr):
        orig = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.bump(f"{attr}_calls")
            return orig(*args, **kwargs)

        self.saved.append((owner, attr, orig))
        setattr(owner, attr, counted)

    def wrap_sparse_add(self):
        orig = linalg.SparseRREF.add

        def add(rr, vec):
            self.bump("sparse_add_calls")
            reduced = rr.reduce(dict(vec))
            if reduced:
                index = getattr(rr, "cols", None)
                self.bump("add_rows_stored", len(rr.rows))
                self.bump("add_rows_visited", len(rr.rows) if index is None
                          else len(index.get(max(reduced), ())))
            return orig(rr, vec)

        self.saved.append((linalg.SparseRREF, "add", orig))
        linalg.SparseRREF.add = add

    def __enter__(self):
        for attr in ("projective_cover", "kernel", "direct_sum"):
            self.wrap_call(reps, attr)
        for attr in ("rref", "nullspace", "solve", "mat_vec"):
            self.wrap_call(linalg, attr)
        self.wrap_sparse_add()
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)


def counts(n, d):
    with Counters() as c:
        alg = build_typeA_auslander(n, d)
        build = c.take()
        reps.homological_dims(alg)
        return {"build_counts": build, "homdims_counts": c.take()}


def measure(n, d):
    # homological_dims is memoised on its algebra: time each on a fresh one
    algs = [build_typeA_auslander(n, d) for _ in range(REPEAT)]
    row = {
        "build_s": round(min(seconds(lambda: build_typeA_auslander(n, d))
                             for _ in range(REPEAT)), 4),
        "homdims_s": round(min(seconds(lambda a=a: reps.homological_dims(a))
                               for a in algs), 4),
    }
    row.update(counts(n, d))
    return row


def check(path):
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)["after"]["pool"]
    bad = 0
    for n, d in AUSLANDER_POOL:
        key = auslander_key(n, d)
        got = counts(n, d)
        expected = {name: want[key][name] for name in got}
        same = got == expected
        bad += not same
        print(key, "ok" if same else
              f"differs: {json.dumps(got)} != {json.dumps(expected)}",
              flush=True)
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--side", choices=("before", "after"))
    mode.add_argument("--check", action="store_true")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_auslander.json"))
    args = ap.parse_args(argv)
    if args.check:
        return check(args.out)
    table = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            table = json.load(fh)
    side = {"host": f"{platform.python_implementation()} "
                    f"{platform.python_version()}, {os.cpu_count()} cpus",
            "pool": {}}
    for n, d in AUSLANDER_POOL:
        side["pool"][auslander_key(n, d)] = row = measure(n, d)
        print(auslander_key(n, d), json.dumps(row), flush=True)
    table[args.side] = side
    table["command"] = ("PYTHONPATH=<tree>/src python3 tools/bench_auslander.py"
                        " --side <side>")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
