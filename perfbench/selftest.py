"""Self-tests of the benchmark itself (not of hga).

    python3 perfbench/selftest.py          (about eight minutes)

1. On every workload, two traced runs with one seed give identical count
   and ratio metrics (every ``*.calls``, ``rows_scanned``, ``cells``,
   ``basis_dim`` and ``*_frac`` except the timing ratio
   ``trace_overhead_frac``), and the traced runs show what each workload was
   chosen for: ``check_axioms`` is most of the certificate time on rigid,
   certificate self time is a larger share of the wall time on ctgent than
   on rigid, and auslander makes no axioms call.
2. A deliberately corrupted oracle entry turns a passing job into a failed
   one, on every workload.
3. A listed name missing from hga reads 0 instead of raising.
4. ``run.py`` prints every metric of ``BENCHMARK.json`` by name with its
   unit, and its result line carries exactly those metrics.
5. In a directory holding only ``BENCHMARK.json`` and this directory,
   ``run.py`` exits non-zero without printing a result.
6. Reference seconds: the same work gets the same reference time in a fast
   and a slow phase of the host, and probe time is not counted in it.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")
WORKER = os.path.join(HERE, "worker.py")
COUNT_SUFFIXES = (".calls", ".rows_scanned", ".cells", ".basis_dim", "_frac")


def _run(cmd, cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def check_traced_counts(workload):
    """Returns the per-layer metrics of the first of the two runs."""
    results = []
    for _ in range(2):
        proc = _run([sys.executable, WORKER, "--workload", workload,
                     "--seed", "7", "--trace", "1"])
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1])["per_layer"])
    counted = [k for k in results[0]
               if k.endswith(COUNT_SUFFIXES) and k != "trace_overhead_frac"]
    diff = {k: (results[0][k]["value"], results[1][k]["value"])
            for k in counted if results[0][k] != results[1][k]}
    assert not diff, f"{workload}: counts differ between runs: {diff}"
    print(f"ok   traced counts repeat exactly on {workload} "
          f"({len(counted)} metrics)")
    return {k: m["value"] for k, m in results[0].items()}


def check_workload_purpose(traced):
    """The traced runs show what each workload was chosen for."""
    rig, ctg, aus = traced["rigid"], traced["ctgent"], traced["auslander"]
    share = rig["axioms.check_axioms.busy_s"] / rig["axioms.certificate.busy_s"]
    assert share > 0.5, share
    print(f"ok   rigid: check_axioms is {share:.0%} of certificate busy time")
    own = {name: t["axioms.certificate.self_s"] / t["trace.wall_s"]
           for name, t in (("ctgent", ctg), ("rigid", rig))}
    assert own["ctgent"] > own["rigid"], own
    print(f"ok   certificate self time is {own['ctgent']:.1%} of traced wall "
          f"on ctgent and {own['rigid']:.1%} on rigid")
    assert aus["axioms.calls"] == 0, aus["axioms.calls"]
    print("ok   auslander makes no axioms call")


def check_oracle_flags_corruption():
    oracle = workloads.load_oracle()
    bad = copy.deepcopy(oracle)
    aus_job = ("auslander", 3, 4)
    ctg_job = ("ctgent", 3, 3, (2,), 0)
    n = 3
    workdir = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    rig = workloads.Rigid(workdir)
    rig.setup()
    rig_job = ("rigid", n, rig.pool[n][0][0])
    bad["auslander"][workloads.auslander_key(3, 4)] = "0" * 64
    bad["ctgent"][workloads.ctgent_key(3, 3, (2,))]["sg"] = [5]
    bad["rigid"][workloads.rigid_key(n, rig_job[2])] = "fail"
    aus = workloads.Auslander(workdir)
    aus.setup()
    ctg = workloads.Ctgent(workdir)
    ctg.setup()
    for wl, job in ((aus, aus_job), (ctg, ctg_job), (rig, rig_job)):
        _, good = workloads.run_job(wl, job, oracle)
        _, flagged = workloads.run_job(wl, job, bad)
        assert good is None, f"{job} fails against the true oracle: {good}"
        assert flagged, f"{job} passes against a corrupted oracle"
        print(f"ok   corrupted oracle entry fails {job[0]} job: {flagged}")
    shutil.rmtree(workdir)


def check_missing_name_reads_zero():
    """A listed name that hga no longer has is skipped and reads 0."""
    saved = spans.WRAPPED["reps"]
    spans.WRAPPED["reps"] = tuple(n for n in saved if n != "direct_sum") + (
        "no_such_function",)
    wl = workloads.Ctgent(None)
    wl.setup()
    tracer = spans.Tracer()
    try:
        tracer.install()
        _, reason = workloads.run_job(wl, ("ctgent", 3, 3, (2,), 0),
                                      workloads.load_oracle())
    finally:
        tracer.uninstall()
        spans.WRAPPED["reps"] = saved
    assert reason is None, reason
    metrics = tracer.metrics({"traced_wall": 0.0, "overhead": 0.0})
    assert metrics["reps.direct_sum.calls"]["value"] == 0
    assert metrics["reps.direct_sum.busy_s"]["value"] == 0
    assert metrics["reps.calls"]["value"] > 0
    print("ok   a listed name missing from hga is skipped and reads 0")


def check_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run([sys.executable, RUN, "--workload", "rigid", "--seed", "3",
                     "--seconds", "1", "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, f"trace {trace}: {got} != {want}"
        for name, unit in want.items():
            value = result["metrics"][name]["value"]
            assert f"{name} = {value} {unit}" in lines, name
        print(f"ok   trace {trace} prints all {len(want)} {key} metrics "
              f"by name with unit")


def check_reference_seconds():
    """Probes every 0.1 s take 1 ms until t = 1 and 2 ms after (the host at
    half speed).  Wall intervals of 0.5 s before and 1.01 s after hold the
    same work, 0.495 s at full speed, once their probes are taken out."""
    samples = [(0.1 * k, 0.001 if 0.1 * k < 1.0 else 0.002)
               for k in range(40)]
    timeline = hostspeed.Timeline(samples)
    fast = timeline.scaled(0.25, 0.75)          # 5 probes inside
    slow = timeline.scaled(2.05, 3.06)          # 10 probes inside
    between = timeline.scaled(0.26, 0.29)       # none inside
    assert abs(fast - 0.495) < 1e-9, fast
    assert abs(slow - 0.495) < 1e-9, slow
    assert abs(between - 0.03) < 1e-9, between
    print("ok   reference seconds: same work, same time at half host speed")


def check_bare_directory_fails():
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run([sys.executable, "perfbench/run.py", "--workload", "ctgent",
                 "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    print("ok   without hga sources run.py exits "
          f"{proc.returncode} and prints no result")


def main():
    check_reference_seconds()
    check_bare_directory_fails()
    check_missing_name_reads_zero()
    check_oracle_flags_corruption()
    check_printed_metrics()
    traced = {w: check_traced_counts(w) for w in workloads.WORKLOADS}
    check_workload_purpose(traced)
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
