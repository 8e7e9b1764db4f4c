"""Test oracles for the two-sided checks of ``hga.axioms`` and
``hga.reduction``, each side written out on its own.

``reference_axiom_entries`` is (A1)-(A4) and (E1)-(E2) as they were
computed before the mirrored axioms were read on the opposite algebra:
each primed axiom and (E1) walks the arrows into a vertex, and the strong
successors and predecessors of each arrow are found one arrow at a time
(``reference_strong_neighbors``).  ``reference_translate_conditions`` is
the fabric report's conditions 2 and 3, as two separate loops.
"""

from itertools import combinations

from hga.axioms import (
    _as_algebra,
    _count_corner_cubes,
    _two_paths,
    check_axiom_a4,
)
from hga.errors import UnknownArrow
from hga.reduction import restrict_to_quotient
from hga import reps


def reference_strong_neighbors(a, arrow_name):
    """Strong successors and predecessors of an arrow.

    beta is a strong successor of alpha when the composition is nonzero and
    not commutativity-paired with any other length-2 path: its class holds
    it alone.
    """
    alg = _as_algebra(a)
    quiver = alg.quiver
    if arrow_name not in quiver.arrow_by_name:
        raise UnknownArrow(f"unknown arrow {arrow_name!r}")
    alpha = quiver.arrow_by_name[arrow_name]
    class_of = _two_paths(alg).class_of

    def strong(path):
        return len(class_of.get(path, ())) == 1

    return {
        "strongSuccessors": sorted(
            b.name for b in quiver.arrows_from[alpha.target]
            if strong((arrow_name, b.name))),
        "strongPredecessors": sorted(
            g.name for g in quiver.arrows_to[alpha.source]
            if strong((g.name, arrow_name))),
    }


def reference_axiom_entries(alg, d):
    quiver = alg.quiver
    class_of = _two_paths(alg).class_of
    entries = {}

    def entry(ok, witnesses):
        return {"pass": ok, "witnesses": witnesses}

    w = [str(v) for v in quiver.vertices
         if len(quiver.arrows_from[v]) > d]
    entries["A1"] = entry(not w, w)
    w = [str(v) for v in quiver.vertices
         if len(quiver.arrows_to[v]) > d]
    entries["A1'"] = entry(not w, w)

    strong = {a.name: reference_strong_neighbors(alg, a.name) for a in quiver.arrows}
    w = [{"arrow": n, "strongSuccessors": s["strongSuccessors"]}
         for n, s in sorted(strong.items())
         if len(s["strongSuccessors"]) > 1]
    entries["A2"] = entry(not w, w)
    w = [{"arrow": n, "strongPredecessors": s["strongPredecessors"]}
         for n, s in sorted(strong.items())
         if len(s["strongPredecessors"]) > 1]
    entries["A2'"] = entry(not w, w)

    # (A3)/(A3'): unique (m+1)-cube for 1 < m < d
    w3, w3p = [], []
    for name in sorted(strong):
        alpha = quiver.arrow_by_name[name]
        for beta in strong[name]["strongSuccessors"]:
            candidates = sorted(
                b.name for b in quiver.arrows_from[alpha.target]
                if b.name != beta and (name, b.name) in class_of
            )
            for m in range(2, d):
                for combo in combinations(candidates, m):
                    cubes = _count_corner_cubes(
                        alg, alpha.target, (beta,) + combo)
                    if cubes != 1:
                        w3.append({"arrow": name, "beta": beta,
                                   "others": list(combo), "cubes": cubes})
        for beta in strong[name]["strongPredecessors"]:
            candidates = sorted(
                b.name for b in quiver.arrows_to[alpha.source]
                if b.name != beta and (b.name, name) in class_of
            )
            for m in range(2, d):
                for combo in combinations(candidates, m):
                    cubes = _count_corner_cubes(
                        alg.opposite(), alpha.source, (beta,) + combo)
                    if cubes != 1:
                        w3p.append({"arrow": name, "beta": beta,
                                    "others": list(combo), "cubes": cubes})
    entries["A3"] = entry(not w3, w3)
    entries["A3'"] = entry(not w3p, w3p)

    entries["A4"] = check_axiom_a4(alg)

    # (E1): per arrow alpha, at most one beta with alpha.beta in I
    w = []
    for a in quiver.arrows:
        zeros = sorted(
            b.name for b in quiver.arrows_to[a.source]
            if (b.name, a.name) not in class_of
        )
        if len(zeros) > 1:
            w.append({"arrow": a.name, "zeroPredecessors": zeros})
    entries["E1"] = entry(not w, w)
    w = []
    for g in quiver.arrows:
        zeros = sorted(
            b.name for b in quiver.arrows_from[g.target]
            if (g.name, b.name) not in class_of
        )
        if len(zeros) > 1:
            w.append({"arrow": g.name, "zeroSuccessors": zeros})
    entries["E2"] = entry(not w, w)
    return entries


def reference_translate_conditions(scope, f_set, e_set):
    """Conditions 2 and 3 of the fabric report of f_set with companion
    e_set, read in the ``reduction._CandidateScope`` scope."""
    qf = scope.quotient(f_set)
    qe = scope.quotient(e_set)
    conditions = {}

    # condition 2: tau of each projective A/<f>-module injective over A/<e>
    witness = None
    if qf is not None:
        for v in qf.vertices:
            t = scope.translate(f_set, v)
            if t.is_zero():
                continue
            if e_set.intersection(t.support):
                witness = {"vertex": str(v),
                           "reason": "translate not killed by e"}
                break
            if qe is None:
                witness = {"vertex": str(v),
                           "reason": "nonzero translate over zero quotient"}
                break
            if not reps.is_injective(restrict_to_quotient(qe, t)):
                witness = {"vertex": str(v),
                           "reason": "translate not injective"}
                break
    conditions["translateInjective"] = {
        "pass": witness is None, "witness": witness}

    # condition 3: tau^{-1} of each injective A/<e>-module projective
    # over A/<f>
    witness = None
    if qe is not None:
        for v in qe.vertices:
            t = reps.ar_translate_inverse(scope.lifted_injective(e_set, v))
            if t.is_zero():
                continue
            if f_set.intersection(t.support):
                witness = {"vertex": str(v),
                           "reason": "inverse translate not killed by f"}
                break
            if qf is None:
                witness = {"vertex": str(v),
                           "reason": "nonzero inverse translate over zero "
                                     "quotient"}
                break
            if not reps.is_projective(restrict_to_quotient(qf, t)):
                witness = {"vertex": str(v),
                           "reason": "inverse translate not projective"}
                break
    conditions["inverseTranslateProjective"] = {
        "pass": witness is None, "witness": witness}
    return conditions
