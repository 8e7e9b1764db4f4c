"""Before/after wall time and Fraction constructions of the exact scalars.

    PYTHONPATH=<tree>/src python3 tools/bench_scalars.py \
        --side before|after [--out BENCH_scalars.json]
    PYTHONPATH=src python3 tools/bench_scalars.py --check

The keys are the 7 (n, d) of the ``auslander`` pool and the 13
(n, d, positions) of the ``ctgent`` pool in ``perfbench/workloads.py``, then
(7, 2, [2, 4, 6]).  An ``auslander`` key runs ``build_typeA_auslander(n, d)``
and ``homological_dims`` on the result; a ``ctgent`` key runs the chain job
of that workload with no reduction seed: family, cluster endomorphism
algebra, cover, d-gentle certificate, ``reduce_to_gentle`` and sg invariant.
Every run starts from nothing, so no memoised value carries over.  For each
key, and for the hga found on the import path, it measures:

- ``wall_s``: wall seconds, the best of ``REPEAT`` runs with no counter
  installed;
- ``fractions``: the ``fractions.Fraction`` objects built in one more run,
  counted by a wrapper on ``Fraction.__new__`` that is installed only for
  that run.  On CPython up to 3.11 every Fraction, arithmetic results
  included, goes through ``__new__``.

The counts do not depend on the machine.  ``rounds`` sums them over each
pool: one round of the ``auslander`` and of the seedless ``ctgent``
workload.  ``--side`` merges the result into the JSON file, so one run on
each tree fills in both sides.  ``--check`` measures the counts only, of the
keys with n at most ``CHECK_MAX_N``, writes nothing, and exits 1 if any is
above the file's ``after`` side: a guard, independent of the machine,
against scalars going back to Fraction everywhere.
"""

import argparse
import json
import os
import platform
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import (  # noqa: E402
    AUSLANDER_POOL,
    CTGENT_POOL,
    auslander_key,
    ctgent_key,
)

from hga import axioms, cluster, reduction, reps  # noqa: E402
from hga.typea import build_typeA_auslander  # noqa: E402


# Timings are best-of-REPEAT; both committed sides were measured with it.
REPEAT = 3
# (workload, key, job arguments)
KEYS = ([("auslander", auslander_key(n, d), (n, d))
         for n, d in AUSLANDER_POOL]
        + [("ctgent", ctgent_key(n, d, idx), (n, d, list(idx)))
           for n, d, idx in CTGENT_POOL + [(7, 2, (2, 4, 6))]])
POOLS = {"auslander": {auslander_key(n, d) for n, d in AUSLANDER_POOL},
         "ctgent": {ctgent_key(n, d, idx) for n, d, idx in CTGENT_POOL}}
# the keys --check runs: 4 auslander and the 13 ctgent pool keys, in about 4 s
CHECK_MAX_N = 5


def auslander_job(n, d):
    reps.homological_dims(build_typeA_auslander(n, d))


def ctgent_job(n, d, idx):
    c = cluster.ctgent_family(n, d, idx)
    res = cluster.cluster_endo_algebra(c)
    cover, e = cluster.ctgent_cover(c)
    axioms.is_d_gentle_certificate(cover.algebra, e, d)
    trace = reduction.reduce_to_gentle(res.algebra)
    reduction.gentle_sg_invariant(trace.terminal)


JOBS = {"auslander": auslander_job, "ctgent": ctgent_job}


class FractionCount:
    """Counts Fraction constructions while installed; removed on exit."""

    def __enter__(self):
        self.count = 0
        self.orig = Fraction.__dict__["__new__"]
        new = self.orig.__func__

        def counted(cls, *args, **kwargs):
            self.count += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted)
        return self

    def __exit__(self, *exc):
        Fraction.__new__ = self.orig


def seconds(fn, args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def count_fractions(workload, args):
    with FractionCount() as c:
        JOBS[workload](*args)
    return c.count


def measure(workload, args):
    best = min(seconds(JOBS[workload], args) for _ in range(REPEAT))
    return {"wall_s": round(best, 4),
            "fractions": count_fractions(workload, args)}


def check(path):
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)["after"]["keys"]
    bad = 0
    for workload, key, args in KEYS:
        if args[0] > CHECK_MAX_N:
            continue
        got, limit = count_fractions(workload, args), want[key]["fractions"]
        bad += got > limit
        print(key, "ok" if got == limit else
              f"{'above' if got > limit else 'below'} the file: "
              f"{got} fractions, file {limit}", flush=True)
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--side", choices=("before", "after"))
    mode.add_argument("--check", action="store_true")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_scalars.json"))
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
    rounds = {name: {"wall_s": 0.0, "fractions": 0} for name in POOLS}
    for workload, key, job in KEYS:
        side["keys"][key] = row = measure(workload, job)
        if key in POOLS[workload]:
            rounds[workload]["wall_s"] += row["wall_s"]
            rounds[workload]["fractions"] += row["fractions"]
        print(key, json.dumps(row), flush=True)
    for r in rounds.values():
        r["wall_s"] = round(r["wall_s"], 4)
    side["rounds"] = rounds
    table[args.side] = side
    table["command"] = ("PYTHONPATH=<tree>/src python3 tools/bench_scalars.py"
                        " --side <side>")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
