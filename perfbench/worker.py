"""One workload in its own process: set up, then run jobs and report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

hga is imported from ``src/`` of the checkout that holds this directory.
The last line of standard output is one JSON object (see ``main``).
Untraced: ``rounds_per_run`` whole rounds of jobs, about S seconds of work
at the nominal round times.  Every time reported is in reference seconds
(see ``hostspeed.py``): a sampler started before the first import tracks
the host's speed, and each interval is scaled by it after the run.  Traced: ``TRACE_ROUNDS`` rounds run once
untraced and then again with span wrappers installed, so one seed always
traces the same jobs; the spans are written under ``perfbench/out/``.
"""

import argparse
import json
import os
import resource
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from hostspeed import Sampler  # noqa: E402

SAMPLER = Sampler()
SAMPLER.start()

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# no new round starts after this, to stay inside the 180 s a run may take
MAX_LOOP_S = 120.0


def run_rounds(workload, rounds, oracle, tracer=None):
    """Run the given rounds of jobs, one job at a time.  Returns latencies,
    failure reasons and wall time, in reference seconds, and the raw wall
    time."""
    spans, failures = [], []
    t0 = time.perf_counter()
    for jobs in rounds:
        for job in jobs:
            if tracer is not None:
                tracer.job = len(spans)
            a, b, reason = workloads.time_job(workload, job, oracle)
            spans.append((a, b))
            if reason:
                failures.append({"job": repr(job), "reason": reason})
        if time.perf_counter() - t0 >= MAX_LOOP_S:
            break
    t1 = time.perf_counter()
    timeline = SAMPLER.timeline()
    latencies = [timeline.scaled(a, b) for a, b in spans]
    return latencies, failures, timeline.scaled(t0, t1), t1 - t0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    oracle = workloads.load_oracle()
    workload = workloads.WORKLOADS[args.workload](workdir)
    workload.setup()
    workload.warm(workload.warm_jobs(), oracle)
    t_setup = time.perf_counter()
    result = {"setup_s": SAMPLER.timeline().scaled(T_START, t_setup),
              "setup_raw_s": t_setup - T_START}
    if not args.setup_only:
        schedule = workload.rounds(args.seed)
        if args.trace:
            result.update(traced(workload, schedule, oracle, args))
        else:
            count = workloads.rounds_per_run(args.workload, args.seconds)
            rounds = [next(schedule) for _ in range(count)]
            lat, fails, wall, raw = run_rounds(workload, rounds, oracle)
            result.update({"latencies": lat, "failures": fails,
                           "wall_s": wall, "wall_raw_s": raw})
    SAMPLER.stop()
    result["probe_ms"] = SAMPLER.timeline().probe_ms
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _cleanup(workdir)
    print(json.dumps(result))
    return 0


def traced(workload, schedule, oracle, args):
    """The traced run: TRACE_ROUNDS rounds untraced, the same rounds traced."""
    count = workloads.TRACE_ROUNDS[args.workload]
    rounds = [next(schedule) for _ in range(count)]
    lat0, fails0, wall0, raw0 = run_rounds(workload, rounds, oracle)
    tracer = Tracer()
    tracer.install()
    try:
        lat1, fails1, wall1, raw1 = run_rounds(workload, rounds, oracle,
                                               tracer)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    # span times are raw seconds, so the traced wall they are compared with
    # is raw too; the overhead compares reference times of the same rounds
    per_layer = tracer.metrics({"traced_wall": raw1,
                                "overhead": wall1 / wall0 - 1.0})
    return {"latencies": lat0 + lat1, "failures": fails0 + fails1,
            "wall_s": wall0, "wall_raw_s": raw0, "per_layer": per_layer}


def _cleanup(workdir):
    if os.path.isdir(workdir):
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SAMPLER.stop()
    sys.exit(code)
