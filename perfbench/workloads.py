"""Workload definitions for the hga benchmark: pools, jobs and oracle checks.

Every workload is a closed loop with one client: a job starts only after the
previous one has finished.  The run seed only picks jobs out of a fixed pool
(and, for ``ctgent``, the per-job reduction seed); the expected output of
every pool entry sits in ``oracle.json``, keyed by the entry and not by the
seed.  Work is done in *rounds* whose composition is fixed, so runs with
different seeds measure the same job mix.

All calls into hga go through module attributes looked up at call time, so
the span wrappers installed by ``spans.py`` see them.
"""

import hashlib
import importlib
import json
import os
import random
import time
import traceback
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle.json")
MODULES = ("linalg", "presentations", "algebras", "reps", "typea", "cluster",
           "axioms", "reduction", "cli")

# (n, d) of A^d_n; one round runs each entry once.  A^2_9 (10-20 s a job)
# and A^3_6 (5-9 s) are left out: either would be most of a round, and with
# them the runs of all workloads would not fit the benchmark's time budget.
# A^5_3 is left out so that the pool has an odd size and the median job is
# always samples of one entry, A^4_4.
AUSLANDER_POOL = [(6, 2), (7, 2), (8, 2), (4, 3), (5, 3), (3, 4), (4, 4)]
AUSLANDER_WARMUP = [(3, 4), (4, 3)]

RIGID_NS = (3, 4, 5)
RIGID_POOL_RIGID = 24       # rigid pool entries per n
RIGID_POOL_OTHER = 48       # non-rigid pool entries per n
RIGID_ROUND_RIGID = 4       # rigid draws per n per round
RIGID_ROUND_OTHER = 8       # non-rigid draws per n per round
assert (RIGID_POOL_RIGID // RIGID_ROUND_RIGID
        == RIGID_POOL_OTHER // RIGID_ROUND_OTHER)

# A run is a fixed number of whole rounds, so it measures the same jobs on
# every commit: enough rounds to fill --seconds at the nominal round times
# below (reference seconds, measured on 2 shared cores when the benchmark was
# defined), at least MIN_ROUNDS, and a multiple of PASS_ROUNDS.  The minimum
# leaves at least ten jobs beyond the tail percentile, and on auslander gives
# each pool entry five samples, so its median is the middle one of five runs
# of A^4_4.  On rigid, six rounds are one pass of every stratum's walk, so a
# whole number of passes draws the same multiset of jobs whatever the seed.
ROUND_S = {"auslander": 7.0, "ctgent": 19.0, "rigid": 1.0}
MIN_ROUNDS = {"auslander": 5, "ctgent": 2, "rigid": 1}
PASS_ROUNDS = {"auslander": 1, "ctgent": 1,
               "rigid": RIGID_POOL_RIGID // RIGID_ROUND_RIGID}
# Fixed rounds of the traced run, so one seed always traces the same jobs.
TRACE_ROUNDS = {"auslander": 1, "ctgent": 1, "rigid": 4}


def rounds_per_run(name, seconds):
    count = max(MIN_ROUNDS[name], round(seconds / ROUND_S[name]))
    return -(-count // PASS_ROUNDS[name]) * PASS_ROUNDS[name]


def _admissible_index_sets(n):
    """Non-empty position sets in 2..n with no two adjacent modulo n."""
    out = []
    for k in range(1, n):
        for combo in combinations(range(2, n + 1), k):
            if all((j % n) + 1 not in combo for j in combo):
                out.append(combo)
    return out


CTGENT_POOL = ([(n, 2, s) for n in (4, 5) for s in _admissible_index_sets(n)]
               + [(3, 3, (2,)), (3, 3, (3,))])
CTGENT_WARMUP = [(3, 3, (2,)), (4, 2, (2,))]


def separated_tuples(d, m):
    """(d+1)-subsets of 1..m with gaps of at least two, in lex order."""
    return [c for c in combinations(range(1, m + 1), d + 1)
            if all(c[i] + 2 <= c[i + 1] for i in range(d))]


def _strictly_alternates(a, b):
    return all(a[i] < b[i] for i in range(len(a))) and \
        all(b[i] < a[i + 1] for i in range(len(a) - 1))


def labels_rigid(labels):
    """Independent rigidity oracle: for the canonical 2-cluster-tilting family
    of A^2_n, Ext^2(M_I, M_J) != 0 exactly when J intertwines I."""
    return not any(x != y and _strictly_alternates(y, x)
                   for x in labels for y in labels)


def rigid_pool():
    """Fixed pool of label subsets per n, drawn as acceptance test 10 draws
    them (2 to 8 labels of the family), split by the rigidity oracle."""
    pool = {}
    for n in RIGID_NS:
        labels = separated_tuples(2, n + 4)
        rng = random.Random(f"hga-rigid-pool-{n}")
        rigid, other, seen = [], [], set()
        while len(rigid) < RIGID_POOL_RIGID or len(other) < RIGID_POOL_OTHER:
            k = rng.randint(2, min(8, len(labels)))
            picked = sorted(rng.sample(range(len(labels)), k))
            sub = tuple(labels[i] for i in picked)
            if sub in seen:
                continue
            seen.add(sub)
            is_rigid = labels_rigid(sub)
            side, cap = ((rigid, RIGID_POOL_RIGID) if is_rigid
                         else (other, RIGID_POOL_OTHER))
            if len(side) < cap:
                side.append(sub)
        pool[n] = (rigid, other)
    return pool


def _cycle(entries, rng):
    """Endless seeded walk through ``entries``, each once per pass, so every
    run draws nearly the same multiset whatever its seed."""
    while True:
        order = list(entries)
        rng.shuffle(order)
        yield from order


def rigid_key(n, sub):
    # labels join digits as hga's Tuple.label does while entries stay <= 9,
    # which holds for n <= 5 (entries lie in 1..n+4)
    return f"{n}:" + ",".join("".join(map(str, t)) for t in sub)


def ctgent_key(n, d, idx):
    return f"{n},{d},{list(idx)}"


def auslander_key(n, d):
    return f"{n},{d}"


def load_oracle(path=ORACLE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One workload: set-up, a seeded round schedule and the job runner.

    ``setup()`` imports hga and builds shared fixtures; ``warm_jobs()`` lists
    the warm-up jobs that ``warm()`` runs and checks; ``rounds(seed)`` yields
    lists of jobs forever; ``run(job)`` executes one job and returns its
    output; ``check(job, out, oracle)`` returns None or a failure reason.
    """

    name = None

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self):
        import sympy  # noqa: F401  (reps._try_split imports it lazily)
        import hga
        for mod in MODULES:
            importlib.import_module(f"hga.{mod}")
        self.hga = hga

    def warm(self, jobs, oracle):
        for job in jobs:
            reason = self.check(job, self.run(job), oracle)
            if reason:
                raise RuntimeError(f"warm-up job {job} failed: {reason}")


class Auslander(Workload):
    """Build A^d_n with the CLI, strip the report to its presentation, and
    run the CLI homological dimension report on it."""

    name = "auslander"

    def setup(self):
        super().setup()
        os.makedirs(self.workdir, exist_ok=True)

    def warm_jobs(self):
        return [("auslander", n, d) for n, d in AUSLANDER_WARMUP]

    def rounds(self, seed):
        rng = random.Random(f"auslander-{seed}")
        while True:
            jobs = [("auslander", n, d) for n, d in AUSLANDER_POOL]
            rng.shuffle(jobs)
            yield jobs

    def run(self, job):
        _, n, d = job
        cli = self.hga.cli
        report = os.path.join(self.workdir, "auslander.json")
        pres = os.path.join(self.workdir, "presentation.json")
        dims = os.path.join(self.workdir, "homdims.json")
        rc1 = cli.main(["auslander", "--n", str(n), "--d", str(d),
                        "--out", report])
        with open(report, encoding="utf-8") as fh:
            data = json.load(fh)
        with open(pres, "w", encoding="utf-8") as fh:
            json.dump(data["presentation"], fh, indent=2, sort_keys=True)
        rc2 = cli.main(["homdims", pres, "--out", dims])
        with open(dims, "rb") as fh:
            raw = fh.read()
        return {"rc": [rc1, rc2], "n": data["n"], "d": data["d"], "homdims": raw}

    def check(self, job, out, oracle):
        _, n, d = job
        if out["rc"] != [0, 0]:
            return f"exit codes {out['rc']}"
        if (out["n"], out["d"]) != (n, d):
            return "report parameters differ"
        digest = hashlib.sha256(out["homdims"]).hexdigest()
        if digest != oracle["auslander"].get(auslander_key(n, d)):
            return "homdims report differs from the oracle table"
        rec = json.loads(out["homdims"])
        gl, dom = rec["globalDim"], rec["dominantDim"]
        dom = float("inf") if dom == "inf" else dom
        if gl == "inf" or not gl <= d <= dom:
            return f"gl.dim {gl} <= {d} <= dom.dim {dom} fails"
        return None


class Ctgent(Workload):
    """The paper's chain, cold: family, cluster endomorphism algebra, cover,
    d-gentle certificate, reduction to a gentle algebra, sg invariant."""

    name = "ctgent"

    def warm_jobs(self):
        return [("ctgent", n, d, idx, 0) for n, d, idx in CTGENT_WARMUP]

    def rounds(self, seed):
        rng = random.Random(f"ctgent-{seed}")
        while True:
            jobs = [("ctgent", n, d, idx, rng.randrange(2 ** 31))
                    for n, d, idx in CTGENT_POOL]
            rng.shuffle(jobs)
            yield jobs

    def run(self, job):
        _, n, d, idx, reduce_seed = job
        cluster, axioms, reduction = (self.hga.cluster, self.hga.axioms,
                                      self.hga.reduction)
        c = cluster.ctgent_family(n, d, list(idx))
        res = cluster.cluster_endo_algebra(c)
        cover, e = cluster.ctgent_cover(c)
        cert = axioms.is_d_gentle_certificate(cover.algebra, e, d)
        trace = reduction.reduce_to_gentle(res.algebra, seed=reduce_seed)
        sg = reduction.gentle_sg_invariant(trace.terminal)
        return {"verdict": cert.verdict, "sg": sorted(sg.lengths),
                "steps": len(trace.steps)}

    def check(self, job, out, oracle):
        _, n, d, idx, _ = job
        want = oracle["ctgent"].get(ctgent_key(n, d, idx))
        if want is None:
            return "pool entry missing from the oracle table"
        if out["verdict"] != want["verdict"]:
            return f"verdict {out['verdict']} != {want['verdict']}"
        # the oracle was made with seed None: the invariant must not depend
        # on the per-job reduction seed
        if out["sg"] != want["sg"]:
            return f"sg invariant {out['sg']} != {want['sg']}"
        return None


class Rigid(Workload):
    """Many cheap queries on shared, pre-built objects: rigidity of a label
    subset, then the d-gentle certificate of its corner if it is rigid."""

    name = "rigid"

    def setup(self):
        super().setup()
        typea = self.hga.typea
        self.pool = rigid_pool()
        self.fam, self.cover = {}, {}
        for n in RIGID_NS:
            self.fam[n] = typea.canonical_cluster_tilting(
                typea.build_typeA_auslander(n, 2))
            self.cover[n] = typea.build_typeA_auslander(n, 3)

    def warm_jobs(self):
        # one rigid and one non-rigid draw per n, plus rigidity of the whole
        # family, which fills the per-module caches every later draw reads
        jobs = []
        for n in RIGID_NS:
            rigid, other = self.pool[n]
            jobs += [("rigid", n, rigid[0]), ("rigid", n, other[0]),
                     ("rigid", n, tuple(separated_tuples(2, n + 4)))]
        return jobs

    def rounds(self, seed):
        rng = random.Random(f"rigid-{seed}")
        strata = [(n, _cycle(part, rng), k) for n in RIGID_NS
                  for part, k in zip(self.pool[n],
                                     (RIGID_ROUND_RIGID, RIGID_ROUND_OTHER))]
        while True:
            jobs = [("rigid", n, next(stream))
                    for n, stream, k in strata for _ in range(k)]
            rng.shuffle(jobs)
            yield jobs

    def run(self, job):
        _, n, sub = job
        cluster, axioms = self.hga.cluster, self.hga.axioms
        Idempotent = self.hga.presentations.Idempotent
        c = cluster.SummandCollection(self.fam[n], [list(t) for t in sub])
        rigid = cluster.is_d_rigid(c)
        out = {"rigid": rigid, "verdict": None}
        if rigid:
            e = Idempotent.of(["".join(map(str, t)) for t in sub])
            cert = axioms.is_d_gentle_certificate(self.cover[n], e, 2)
            text = json.dumps(cert.to_dict(), sort_keys=True)
            out["verdict"] = json.loads(text)["verdict"]
        return out

    def check(self, job, out, oracle):
        _, n, sub = job
        if out["rigid"] != labels_rigid(sub):
            return "is_d_rigid disagrees with the intertwining oracle"
        if not out["rigid"]:
            return None
        want = oracle["rigid"].get(rigid_key(n, sub))
        if out["verdict"] != want:
            return f"verdict {out['verdict']} != {want}"
        return None


WORKLOADS = {w.name: w for w in (Auslander, Ctgent, Rigid)}


def time_job(workload, job, oracle):
    """Run one job and check it; returns the perf_counter() stamps around
    the job (the check is not timed) and the failure reason or None."""
    t0 = time.perf_counter()
    try:
        out = workload.run(job)
    except Exception as exc:  # a raising job is a failed job, not a crash
        return t0, time.perf_counter(), _describe(exc)
    t1 = time.perf_counter()
    try:
        return t0, t1, workload.check(job, out, oracle)
    except Exception as exc:
        return t0, t1, "check raised " + _describe(exc)


def run_job(workload, job, oracle):
    """Time one job and check it; returns (seconds, failure reason or None)."""
    t0, t1, reason = time_job(workload, job, oracle)
    return t1 - t0, reason


def _describe(exc):
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} "
            f"({os.path.basename(frame.filename)}:{frame.lineno})")
