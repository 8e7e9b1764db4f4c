"""hga benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload auslander|ctgent|rigid --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; hga is imported from its ``src/``.
Each workload runs in a process of its own (``worker.py``), so peak memory
and the caches hga attaches to its objects never leak between workloads.
Set-up (imports, fixtures, warm-up jobs) is timed in that process and in
``SETUP_REPEATS`` further set-up-only processes; ``setup_s`` is the median.
All times are reference seconds: wall time with the shared host's changing
speed taken out by the probe sampler in ``hostspeed.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
A job fails when it raises or disagrees with the oracle; ``failed`` over
``attempted`` is the failed fraction.  The exit code is 0 only when a
result line was printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("auslander", "ctgent", "rigid")
SETUP_REPEATS = 2
DEADLINE_S = 175          # a run must end within 180 s
T0 = time.monotonic()

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def tail(latencies):
    """Latency at the highest percentile with at least ten jobs beyond it,
    and that percentile; with ten jobs or fewer, the slowest job (100)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_worker(args, extra):
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=DEADLINE_S - (time.monotonic() - T0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker passed the {DEADLINE_S} s deadline: {cmd}")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hga", "__init__.py")):
        raise SystemExit(f"no hga sources under {os.path.join(ROOT, 'src')}")

    # set-up is an end-to-end metric only: the traced run skips the repeats
    setups = [run_worker(args, ["--setup-only"])["setup_s"]
              for _ in range(0 if args.trace else SETUP_REPEATS)]
    res = run_worker(args, ["--trace", str(args.trace)])
    setups.append(res["setup_s"])
    lat = res["latencies"]
    failed = len(res["failures"])
    for f in res["failures"][:10]:
        print(f"failed job {f['job']}: {f['reason']}")

    p50 = statistics.median(lat)
    tail_s, tail_pct = tail(lat)
    print(f"workload {args.workload} seed {args.seed}: {len(lat)} jobs in "
          f"{res['wall_s']:.3f} reference s ({res['wall_raw_s']:.3f} s wall, "
          f"median probe {res['probe_ms']:.3f} ms), {failed} failed "
          f"(failed_frac {failed / len(lat):.4f})")
    print(f"job_p50_s over {len(lat)} jobs; job_tail_s is p{tail_pct:.1f} "
          f"over {len(lat)} jobs")
    print(f"setup_s median of {len(setups)} set-ups: "
          + ", ".join(f"{s:.3f}" for s in setups))
    if args.trace:
        metrics = res["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": len(lat) / res["wall_s"],
            "job_p50_s": p50,
            "job_tail_s": tail_s,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(lat),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
