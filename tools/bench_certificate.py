"""Before/after numbers for the d-gentle certificate's corners.

    PYTHONPATH=<tree>/src python3 tools/bench_certificate.py \
        --side before|after [--out BENCH_certificate.json]
    PYTHONPATH=src python3 tools/bench_certificate.py --check

Two workloads, each for the hga found on the import path:

- ``rigid``: the 72 rigid entries of the ``rigid`` pool in
  ``perfbench/workloads.py`` (24 label subsets for each n = 3, 4, 5), each
  certified with d = 2 against the cover A^3_n and reported with
  ``to_dict``, as a ``rigid`` job does.  One row per n.
- ``ctgent``: the 13 keys of the ``ctgent`` pool, each certified against
  its ``ctgent_cover`` and reported the same way.  One row per key.

For each row it measures:

- ``counts``: the top-level calls (those a function does not make itself)
  of ``algebras.represent``, ``algebras._normal_words`` and
  ``copy.deepcopy`` made while the row is certified and reported;
- ``wall_s``: wall seconds of the row's certificates and reports, the
  median of ``REPEAT`` runs with no counter installed.

Covers are built, and their cover-level axioms memoised, before anything
is counted or timed, so a row measures what each certificate adds over its
cover's shared checks: the hull's (E3), the corner and its cube check.
The counts do not depend on the machine.  ``total`` sums the rows of each
workload.  ``--side`` merges the result into the JSON file, so one run on
each tree fills in both sides.  ``--check`` measures the counts only,
writes nothing, and exits 1 if any differs from the file's ``after`` side:
a guard against corners that a certificate does not report being
re-presented again, and against reports deep-copying what the memo shares.
"""

import argparse
import copy
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import CTGENT_POOL, RIGID_NS, ctgent_key, rigid_pool  # noqa: E402

from hga import algebras, axioms, cluster, typea  # noqa: E402
from hga.presentations import Idempotent  # noqa: E402


# Timings are medians of REPEAT runs; both committed sides were measured so.
REPEAT = 7
# (home, name) of each counted function
COUNTED = ((algebras, "represent"), (algebras, "_normal_words"),
           (copy, "deepcopy"))


def rows():
    """(workload, row key, [(cover, e, d)]) for every row, covers built
    and their cover-level axioms memoised."""
    pool = rigid_pool()
    out = []
    for n in RIGID_NS:
        cover = typea.build_typeA_auslander(n, 3)
        jobs = [(cover, Idempotent.of(["".join(map(str, t)) for t in sub]), 2)
                for sub in pool[n][0]]
        out.append(("rigid", f"A^3_{n}", jobs))
    for n, d, idx in CTGENT_POOL:
        cover, e = cluster.ctgent_cover(cluster.ctgent_family(n, d, list(idx)))
        out.append(("ctgent", ctgent_key(n, d, idx), [(cover.algebra, e, d)]))
    for _, _, jobs in out:
        for cover, _, d in jobs:
            axioms._cover_axioms(cover, d + 1)
    return out


def certify(jobs):
    for cover, e, d in jobs:
        axioms.is_d_gentle_certificate(cover, e, d).to_dict()


def counts(jobs):
    """Top-level calls (those not made by the function itself) of each
    COUNTED function made while the jobs are certified and reported; the
    wrappers are removed on exit."""
    got = {f"{name.lstrip('_')}_calls": 0 for _, name in COUNTED}
    saved = [(home, name, getattr(home, name)) for home, name in COUNTED]

    def counting(orig, key):
        depth = [0]

        def wrapped(*args, **kwargs):
            got[key] += not depth[0]
            depth[0] += 1
            try:
                return orig(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    for home, name, orig in saved:
        setattr(home, name, counting(orig, f"{name.lstrip('_')}_calls"))
    try:
        certify(jobs)
    finally:
        for home, name, orig in saved:
            setattr(home, name, orig)
    return got


def seconds(jobs):
    t0 = time.perf_counter()
    certify(jobs)
    return time.perf_counter() - t0


def measure(jobs):
    wall = statistics.median(seconds(jobs) for _ in range(REPEAT))
    return {"wall_s": round(wall, 5), "counts": counts(jobs)}


def check(path):
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)["after"]["rows"]
    bad = 0
    for _, key, jobs in rows():
        got = counts(jobs)
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
    ap.add_argument("--out",
                    default=os.path.join(ROOT, "BENCH_certificate.json"))
    args = ap.parse_args(argv)
    if args.check:
        return check(args.out)
    table = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            table = json.load(fh)
    side = {"host": f"{platform.python_implementation()} "
                    f"{platform.python_version()}, {os.cpu_count()} cpus",
            "rows": {}, "total": {}}
    for workload, key, jobs in rows():
        side["rows"][key] = row = measure(jobs)
        total = side["total"].setdefault(workload, {
            "certificates": 0, "wall_s": 0.0,
            "counts": dict.fromkeys(row["counts"], 0)})
        total["certificates"] += len(jobs)
        total["wall_s"] = round(total["wall_s"] + row["wall_s"], 5)
        for name, k in row["counts"].items():
            total["counts"][name] += k
        print(key, json.dumps(row), flush=True)
    table[args.side] = side
    table["command"] = ("PYTHONPATH=<tree>/src python3 "
                        "tools/bench_certificate.py --side <side>")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
