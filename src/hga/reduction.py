"""Fabric idempotents and the reduction of higher gentle algebras.

The reduction removes one commutativity square (or one middle vertex of a
long zero relation) at a time, certifying each step with the fabric
conditions, finite global dimension of the quotient, and the singular
equivalence criterion, until the corner algebra is gentle.  Singularity
data of the gentle terminal is summarized by the multiset of lengths of
its full-relation cycles.
"""

import math
import random
from dataclasses import dataclass

from .algebras import idempotent_subalgebra, quotient_by_idempotent
from .axioms import (
    _as_algebra,
    _two_paths,
    commutativity_squares,
    is_gentle,
)
from .errors import (
    EmptyIdempotent,
    InternalError,
    NoCommutativeSquare,
    NotGentle,
    NotGorensteinVerified,
    NotReducible,
)
from .memo import memo
from .presentations import Idempotent
from . import reps


def restrict_to_quotient(quot, m):
    """View an ambient representation as one of a quotient A/<f> or a
    corner fAf: its spaces at their vertices, and at each of their arrows
    the action of that arrow's ambient basis element.  For a quotient, m
    must have zero spaces at the removed vertices."""
    dims = {v: m.dims[v] for v in quot.vertices if v in m.dims}
    ambient_id = quot.arrow_ambient
    maps = {ar.name: m.basis_matrix(ambient_id[ar.name]) for u in dims
            for ar in quot.quiver.arrows_from[u] if ar.target in dims}
    return reps.Representation(quot, dims, maps, check=False)


def ambient_from_quotient(quot, x):
    """Pull a quotient-algebra representation back to the ambient algebra
    (zero spaces at the removed vertices).  The quotient's arrows are the
    ambient arrows between kept vertices, under the same names."""
    return reps.Representation(quot.ambient, x.dims, x.maps, check=False)


def corner_column_module(corner, v):
    """f·A·e_v as a module over the corner algebra fAf: the ambient
    projective P_v restricted to the corner."""
    return restrict_to_quotient(corner, reps.projective(corner.ambient, v))


class _CandidateScope:
    """The quotients and corners of one algebra by vertex sets, and the
    quotient projectives and injectives lifted back to it, shared by every
    check made on one reduction candidate.  A dual scope works in the
    opposite of its base algebra.

    Each value is memoised on this object, not on the algebra, so it is
    dropped together with the candidate.  A lifted module is one object per
    (vertex set, vertex), so its cached resolution serves every check; its
    translate is one object too, memoised by ``reps`` (``transpose`` and
    ``dual``), not by the scope."""

    def __init__(self, base, dual=False):
        self.base = base
        self.dual = dual
        self.alg = base.opposite() if dual else base

    def quotient(self, f_set):
        """A/<f> for the idempotent over f_set; None when it is zero."""
        key = frozenset(f_set)

        def compute():
            if key >= set(self.alg.vertices):
                return None
            return quotient_by_idempotent(self.alg, Idempotent.of(key))

        return memo(self, ("quotient", key), compute)

    def corner(self, f_set):
        """The corner fAf for the idempotent over f_set.  A dual scope's
        corner is the opposite of the base algebra's corner, which this
        scope holds, so its opposite is that corner again, and a dual step
        builds one corner."""
        key = frozenset(f_set)
        corner = memo(self, ("corner", key), lambda: idempotent_subalgebra(
            self.base, Idempotent.of(key)))
        return corner.opposite() if self.dual else corner

    def lifted_projective(self, f_set, v):
        """The projective of A/<f> at v, as an A-module."""
        return self._lifted(f_set, v, reps.projective)

    def lifted_injective(self, f_set, v):
        """The injective of A/<f> at v, as an A-module."""
        return self._lifted(f_set, v, reps.injective)

    def translate(self, f_set, v):
        """tau of the lifted projective of A/<f> at v."""
        return reps.ar_translate(self.lifted_projective(f_set, v))

    def _lifted(self, f_set, v, module):
        key = frozenset(f_set)

        def compute():
            q = self.quotient(key)
            return ambient_from_quotient(q, module(q, v))

        return memo(self, (module, key, v), compute)


def find_injection(source, target):
    """The first injective morphism source -> target that
    reps.morphism_of_rank finds in Hom(source, target), or None when there
    is none."""
    return reps.morphism_of_rank(reps.hom_basis(source, target),
                                 source.total_dim)


@dataclass
class FabricReport:
    candidate: list
    companion: list
    conditions: dict

    @property
    def verdict(self):
        return all(c["pass"] for c in self.conditions.values())

    def to_dict(self):
        return {
            "candidate": self.candidate,
            "companion": self.companion,
            "conditions": self.conditions,
            "verdict": "pass" if self.verdict else "fail",
        }


def is_fabric_idempotent(a, f, e):
    """The three defining conditions of a fabric idempotent f with
    companion e: proj.dim of A/<f> at most one over A, translates of the
    quotient projectives injective over A/<e>, and inverse translates of
    the A/<e>-injectives projective over A/<f>."""
    a = _as_algebra(a)
    f.validate(a.vertices)
    e.validate(a.vertices)
    return _fabric_report(_CandidateScope(a), f.vertex_subset,
                          e.vertex_subset)


def _fabric_report(scope, f_set, e_set):
    qf = scope.quotient(f_set)
    qe = scope.quotient(e_set)
    conditions = {}

    # condition 1: proj.dim_A(A/<f>) <= 1
    witness = None
    for v in qf.vertices if qf is not None else ():
        pd = reps.proj_dim(scope.lifted_projective(f_set, v))
        if pd > 1:
            witness = {"vertex": str(v), "projDim": _shown(pd)}
            break
    conditions["quotientProjDim"] = {"pass": witness is None,
                                     "witness": witness}

    # condition 2: tau of each projective A/<f>-module injective over
    # A/<e>; condition 3: tau^{-1} of each injective A/<e>-module projective
    # over A/<f>
    conditions["translateInjective"] = _translate_condition(
        qf, lambda v: scope.translate(f_set, v), "translate", "e", e_set, qe,
        "injective")
    conditions["inverseTranslateProjective"] = _translate_condition(
        qe, lambda v: reps.ar_translate_inverse(scope.lifted_injective(
            e_set, v)), "inverse translate", "f", f_set, qf, "projective")
    return FabricReport(sorted(map(str, f_set)), sorted(map(str, e_set)),
                        conditions)


def _translate_condition(source, translate, name, killer, kill_set, target,
                         kind):
    """Fabric condition 2 or 3: for each vertex v of the quotient
    ``source`` (none when it is zero), the module ``translate(v)``, called
    the ``name``, is zero, or it misses ``kill_set`` (the vertices of the
    idempotent ``killer``) and is ``kind`` over the nonzero quotient
    ``target``.  The witness names the first v that fails, and why."""
    witness = None
    for v in source.vertices if source is not None else ():
        t = translate(v)
        if t.is_zero():
            continue
        if kill_set.intersection(t.support):
            reason = f"{name} not killed by {killer}"
        elif target is None:
            reason = f"nonzero {name} over zero quotient"
        elif not getattr(reps, "is_" + kind)(restrict_to_quotient(target, t)):
            reason = f"{name} not {kind}"
        else:
            continue
        witness = {"vertex": str(v), "reason": reason}
        break
    return {"pass": witness is None, "witness": witness}


def chensing_conditions(a, f):
    """The singular-equivalence criterion for the corner fAf: finite
    projective dimension of fA over fAf, and finite projective dimension
    over A of every simple of A/<f> (which bounds all quotient modules)."""
    a = _as_algebra(a)
    f.validate(a.vertices)
    if not f.vertex_subset:
        raise EmptyIdempotent("corner idempotent over the empty vertex set")
    return _chensing(_CandidateScope(a), f.vertex_subset)


def _chensing(scope, f_set):
    a = scope.alg
    corner = scope.corner(f_set)
    checks = {
        "cornerColumns": _proj_dims(
            a.vertices, lambda v: corner_column_module(corner, v)),
        "quotientSimples": _proj_dims(
            set(a.vertices) - f_set, lambda v: reps.simple(a, v)),
    }
    ok = all(row["finite"] for rows in checks.values() for row in rows)
    checks["verdict"] = "pass" if ok else "fail"
    return checks


def _proj_dims(vertices, module):
    """For each vertex v, in name order, whether module(v) has finite
    projective dimension, and that dimension."""
    rows = []
    for v in sorted(vertices, key=str):
        pd = reps.proj_dim(module(v))
        rows.append({"vertex": str(v), "finite": pd != math.inf,
                     "projDim": _shown(pd)})
    return rows


def _shown(pd):
    """A projective dimension as a report writes it."""
    return "inf" if pd == math.inf else pd


def _smallest_removal(scope, m):
    """Vertex set to remove so that m becomes projective over the quotient,
    starting from the support of m; returns the removed set or None."""
    a = scope.alg
    removed = set(m.support)
    for _ in range(len(a.vertices) + 1):
        qf = scope.quotient(set(a.vertices) - removed)
        if qf is None:
            return None
        mq = restrict_to_quotient(qf, m)
        _, _, summands, k, _ = reps._resolution(mq, 0)
        if k is None:
            return removed
        grow = set(ambient_from_quotient(qf, k).support)
        grow |= set(summands[0])
        if grow <= removed:
            return None
        removed |= grow
    return None


def _companion_for(scope, f_set):
    """Canonical companion idempotent: the complement of the union of
    supports of the translates of the quotient projectives."""
    qf = scope.quotient(f_set)
    supp = set()
    for v in qf.vertices if qf is not None else ():
        supp |= set(scope.translate(f_set, v).support)
    return set(scope.alg.vertices) - supp


def _step_candidates(a):
    """Removal candidates: commutativity squares (remove one middle) and
    long zero relations (remove the source of the last arrow)."""
    p = a.presentation
    out = []
    for sq in commutativity_squares(a):
        (r0, r1) = sq["routes"]
        for keep, drop in ((r0, r1), (r1, r0)):
            out.append({
                "kind": "square",
                "square": sq,
                "removedMid": str(drop[2]),
                "lastArrow": drop[1],
                "target": sq["y"],
                "source": sq["x"],
                "otherMid": str(keep[2]),
            })
    quiver = p.quiver
    for rel in p.relations:
        if len(rel.terms) != 1:
            continue
        path = rel.terms[0][1]
        if len(path) < 3:
            continue
        last = quiver.arrow_by_name[path[-1]]
        out.append({
            "kind": "long-zero",
            "relation": list(path),
            "removedMid": str(last.source),
            "lastArrow": last.name,
            "target": quiver.path_target(path),
            "source": quiver.path_source(path),
            "otherMid": None,
        })
    return out


def _try_candidate(scope, cand):
    """The recipe on one candidate: an inclusion P_target into P_mid, the
    cokernel, and the smallest removal making it projective.  A dual scope
    reads the candidate in the opposite algebra, whose arrows reverse, so
    its target is the candidate's source."""
    a = scope.alg
    mid = cand["removedMid"]
    tgt = cand["source" if scope.dual else "target"]
    inc = find_injection(reps.projective(a, tgt), reps.projective(a, mid))
    if inc is None:
        return None
    m, _ = reps.cokernel(inc)
    removed = _smallest_removal(scope, m)
    if removed is None or removed >= set(a.vertices):
        return None
    return removed


def _grow_to_fabric(scope, removed):
    """Enlarge a removal set until the fabric conditions hold: (f, its
    fabric report) for the first f that passes, or else the first f, the
    complement of ``removed``, with its failing report.

    The initial set (the cokernel support) need not be closed under the
    translate pairing: an inverse translate of a companion-quotient
    injective may stick out of it.  Each such failure names the vertices to
    add, and the set only grows, so the closure is reached in finitely many
    deterministic steps.
    """
    a = scope.alg
    removed = set(removed)
    first = None
    while True:
        f_set = set(a.vertices) - removed
        if not f_set:
            return first
        e_set = _companion_for(scope, f_set)
        fabric = _fabric_report(scope, f_set, e_set)
        if fabric.verdict:
            return f_set, fabric
        first = first or (f_set, fabric)
        bad = fabric.conditions["inverseTranslateProjective"]["witness"]
        if bad is None or bad["reason"] != "inverse translate not killed by f":
            return first
        i = scope.lifted_injective(e_set, bad["vertex"])
        grow = set(reps.ar_translate_inverse(i).support)
        if grow <= removed:
            return first
        removed |= grow


def localisable_report(a, f_set):
    """The pre-fabric condition on A/<f>: projective dimension at most one
    over A and no self-extensions.  Together with the singular-equivalence
    criterion this certifies a corner step when no companion idempotent
    exists for the full fabric conditions."""
    return _localisable(_CandidateScope(a), f_set)


def _localisable(scope, f_set):
    qf = scope.quotient(f_set)
    if qf is None:
        return {"pass": True, "projDim": 0, "selfExt": 0}
    projs = [scope.lifted_projective(f_set, v) for v in qf.vertices]
    pd = max(reps.proj_dim(p) for p in projs)
    if pd > 1:
        return {"pass": False, "projDim": _shown(pd), "selfExt": None}
    ext = sum(reps.ext_dim(p, q, 1) for p in projs for q in projs)
    return {"pass": ext == 0,
            "projDim": pd, "selfExt": ext}


def _certify_step(scope, f_set, fabric):
    """Certificate for one accepted step: f's fabric report (or, when it
    fails, the localisable fallback), the finite global dimension of the
    quotient, and the singular-equivalence criterion.  Returns None when
    the step cannot be certified."""
    loc = _localisable(scope, f_set)
    if not fabric.verdict and not loc["pass"]:
        return None
    qf = scope.quotient(f_set)
    gl = 0 if qf is None else reps.global_dim(qf)
    if gl == math.inf:
        return None
    chen = _chensing(scope, f_set)
    if chen["verdict"] != "pass":
        return None
    return {
        "fabric": fabric.to_dict(),
        "localisable": loc,
        "justification": "fabric" if fabric.verdict else "localisable",
        "quotientGlobalDim": gl,
        "singularEquivalence": chen,
    }


def reduction_step(a, rng=None):
    """One reduction move: choose a commutativity square or a long zero
    relation, remove its middle vertex through a fabric idempotent, and
    certify the corner keeps the singularity data."""
    return next(_certified_steps(_as_algebra(a), rng))


def _certified_steps(a, rng):
    """Every certified reduction move of ``a`` as (f, corner, certificate),
    in candidate order (shuffled by ``rng`` when given), both sides of each
    candidate in turn.  Once they are spent it raises NotReducible, naming
    the last candidate."""
    cands = _step_candidates(a)
    if not cands:
        raise NoCommutativeSquare(
            "no commutativity square or long zero relation to remove")
    if rng is not None:
        rng.shuffle(cands)
    for cand in cands:
        for side in ("primal", "dual"):
            # the scope is dropped before the yield, so nothing it holds
            # lives on while the walk goes deeper
            step = _certified_move(_CandidateScope(a, side == "dual"), cand)
            if step is None:
                continue
            f, corner, cert = step
            cert["side"] = side
            cert["candidate"] = dict(cand)
            cert["removed"] = sorted(map(str, set(a.vertices)
                                         - f.vertex_subset))
            yield f, corner, cert
    raise NotReducible(f"no applicable recipe; last candidate {cand}")


def _certified_move(scope, cand):
    """One candidate on one side of ``scope``: (f, the corner fAf of the
    scope's base algebra A, certificate), or None."""
    removed = _try_candidate(scope, cand)
    if removed is None:
        return None
    f_set, fabric = _grow_to_fabric(scope, removed)
    cert = _certify_step(scope, f_set, fabric)
    if cert is None:
        return None
    corner = scope.corner(f_set)
    return (Idempotent.of(f_set),
            corner.opposite() if scope.dual else corner, cert)


@dataclass
class ReductionTrace:
    steps: list
    terminal: object
    terminal_vertices: list
    terminal_gentle: bool

    def to_dict(self):
        return {
            "steps": [
                {
                    "idempotent": s["idempotent"],
                    "certificate": s["certificate"],
                    "cornerDim": s["cornerDim"],
                }
                for s in self.steps
            ],
            "terminalVertices": self.terminal_vertices,
            "terminalGentle": self.terminal_gentle,
        }


def reduce_to_gentle(a, seed=None, max_steps=None):
    """Reduce by certified steps until the gentle checker passes.

    The search walks depth first through the certified moves of each
    algebra in turn, and retreats from a corner that has no move (or that
    reaches ``max_steps`` steps without becoming gentle) to try the next
    move one level up.  The composite idempotent is the product of the
    step idempotents, i.e. the terminal vertex set inside the original
    algebra.  A seed shuffles the candidate order of every step, so it
    only decides which reduction is found first; the terminal singularity
    data must not depend on it.  A branch that is gentle at step
    ``max_steps`` succeeds.  When every branch dead-ends, the error of the
    first dead end is raised.
    """
    a = _as_algebra(a)
    rng = random.Random(seed) if seed is not None else None
    cap = max_steps if max_steps is not None else len(a.vertices) + 1
    found = _walk(a, [], rng, cap)
    if isinstance(found, ReductionTrace):
        return found
    try:
        raise found
    finally:
        del found       # the traceback holds this frame, so not the error


def _walk(current, steps, rng, cap):
    """The trace of the first branch from current, after steps, that
    reaches a gentle algebra, or else the error of its first dead end.
    An error is returned, not kept raised, and without its traceback, so
    no frame of the search outlives the search."""
    if is_gentle(current)["gentle"]:
        return ReductionTrace(
            steps, current, sorted(map(str, current.vertices)), True)
    if len(steps) == cap:
        return NotReducible("reduction failed to terminate in the step cap")
    first = None
    try:
        # the steps end by raising, so the loop ends in the except
        for f, corner, cert in _certified_steps(current, rng):
            if corner.dim >= current.dim:
                # f misses a vertex, so fAf loses at least its
                # idempotent: a corner that does not shrink is a fault
                raise InternalError("corner did not decrease the dimension")
            found = _walk(corner, steps + [{
                "idempotent": sorted(map(str, f.vertex_subset)),
                "certificate": cert,
                "cornerDim": corner.dim,
            }], rng, cap)
            if isinstance(found, ReductionTrace):
                return found
            first = first or found
    except (NoCommutativeSquare, NotReducible) as exc:
        return first or exc.with_traceback(None)


@dataclass
class SgInvariant:
    lengths: list

    def to_dict(self):
        return {"cycleLengths": sorted(self.lengths),
                "objects": sum(self.lengths)}

    def __eq__(self, other):
        if isinstance(other, SgInvariant):
            return sorted(self.lengths) == sorted(other.lengths)
        return sorted(self.lengths) == sorted(other)


def gentle_sg_invariant(g):
    """Multiset of lengths of the full-relation cycles of a gentle algebra:
    cycles of arrows, each used once, all of whose consecutive compositions
    (including the wrap-around) vanish.  The total length counts the
    indecomposable singular objects (Kalck 2015).

    In a gentle algebra an arrow has at most one arrow after it with zero
    composition, and at most one before it, so these zero successors form
    a partial permutation of the arrows; the cycles are its cycles."""
    alg = _as_algebra(g)
    p = alg.presentation
    if not is_gentle(alg)["gentle"]:
        raise NotGentle("the singularity invariant needs a gentle algebra")
    class_of = _two_paths(alg).class_of
    succ = {ar.name: nxt.name for ar in p.quiver.arrows
            for nxt in p.quiver.arrows_from[ar.target]
            if (ar.name, nxt.name) not in class_of}
    lengths, seen = [], set()
    for start in succ:
        if start in seen:
            continue
        walk = [start]
        while walk[-1] in succ and succ[walk[-1]] not in walk:
            walk.append(succ[walk[-1]])
        seen.update(walk)
        if succ.get(walk[-1]) == start:
            lengths.append(len(walk))
    return SgInvariant(sorted(lengths))


def verify_sg_example(a, modules):
    """Check a proposed syzygy orbit: each module Gorenstein projective and
    stably nonzero, the syzygy of each isomorphic to the next one around
    the circle, and consecutive morphism compositions vanishing.  An empty
    orbit certifies nothing, so it raises ValueError."""
    a = _as_algebra(a)
    if not modules:
        raise ValueError("empty syzygy orbit")
    rec = reps.homological_dims(a)
    if rec["injDimOfA"] != rec["projDimOfDA"] or \
            rec["injDimOfA"] == math.inf:
        raise NotGorensteinVerified(
            "the ambient algebra is not Iwanaga-Gorenstein")
    n = len(modules)
    ring = [modules[k % n] for k in range(n + 2)]
    checks = {
        "gorensteinProjective": lambda x, *_: reps.is_gorenstein_projective(x),
        "stablyNonzero": lambda x, *_: not reps.is_projective(x),
        "omegaCyclic": lambda x, y, _: reps.is_isomorphic(reps.syzygy(x), y),
        "compositionsVanish": _compositions_vanish,
    }
    report = {"orbitLength": n}
    for name, check in checks.items():
        report[name] = [check(*ring[k:k + 3]) for k in range(n)]
    report["pass"] = all(all(report[name]) for name in checks)
    report["failures"] = [{"check": name, "position": i} for name in checks
                          for i, okay in enumerate(report[name]) if not okay]
    return report


def _compositions_vanish(x, y, z):
    """Whether every map x -> y composed with every map y -> z is zero."""
    fs, gs = reps.hom_basis(x, y), reps.hom_basis(y, z)
    return all(g.compose(f).is_zero() for f in fs for g in gs)
