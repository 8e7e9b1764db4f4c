"""The two-sided checks against oracles that write each side out: the
primed axioms and (E1), read on the opposite algebra, against
``reference_axiom_entries`` on the higher Auslander algebras, on the
``ctgent`` endomorphism algebras and covers, on a star quiver that fails
the mirrored axioms, and on the opposite of each;
and the fabric report's conditions 2 and 3, one check called twice,
against ``reference_translate_conditions`` on every fabric check that the
reductions of the ``ctgent`` pool make."""

from collections import Counter

from hga import (
    BoundQuiverPresentation,
    Idempotent,
    Quiver,
    build_algebra,
    reduction,
    zero_relation,
)
from hga.axioms import _axiom_entries
from hga.cluster import cluster_endo_algebra, ctgent_cover, ctgent_family
from hga.reduction import (
    _CandidateScope,
    is_fabric_idempotent,
    reduce_to_gentle,
)
from hga.typea import build_typeA_auslander
from reference_two_sided import (
    reference_axiom_entries,
    reference_translate_conditions,
)
from workloads import CTGENT_POOL

# A^d_n for n <= 6 and d <= 4 with at most 35 vertices: A^3_6, A^4_5 and
# A^4_6 (56 to 126 vertices) take a second or more each
AUSLANDER = [(n, d) for d in range(1, 5) for n in range(1, 7)
             if (n, d) not in ((6, 3), (5, 4), (6, 4))]


def assert_sides_match(alg, failed):
    """_axiom_entries of alg and of its opposite against the oracle at
    degree bounds 1 to 5; counts the failing entries by axiom."""
    for side in (alg, alg.opposite()):
        for d in range(1, 6):
            entries = _axiom_entries(side, d)
            assert entries == reference_axiom_entries(side, d), d
            failed.update(k for k, e in entries.items() if not e["pass"])


def test_axiom_entries_match_reference_on_auslander_algebras():
    failed = Counter()
    for n, d in AUSLANDER:
        assert_sides_match(build_typeA_auslander(n, d), failed)
    # below its d, A^d_n has vertices with too many arrows out and in
    assert set(failed) == {"A1", "A1'"}


def test_axiom_entries_match_reference_on_ctgent_algebras():
    failed = Counter()
    for n, d, idx in CTGENT_POOL:
        c = ctgent_family(n, d, list(idx))
        assert_sides_match(cluster_endo_algebra(c).algebra, failed)
        assert_sides_match(ctgent_cover(c)[0].algebra, failed)
    # (A1) and (A2) fail on both sides, and (A4) on some algebras
    assert set(failed) == {"A1", "A1'", "A2", "A2'", "A4"}


def test_axiom_entries_match_reference_on_a_star():
    """Three nonzero 2-paths alpha.b_i that commute with none other follow
    alpha, so (A2) and, at bounds of 3 or more, (A3) fail at it: the 3-cube
    on its b_i would need eight vertices.  Two zero 2-paths g_i.alpha come
    before it, so (E1) fails at it.  The opposite fails the mirrors."""
    q = Quiver(["u1", "u2", "w", "x", "y1", "y2", "y3"], [
        ("g1", "u1", "w"), ("g2", "u2", "w"), ("alpha", "w", "x"),
        ("b1", "x", "y1"), ("b2", "x", "y2"), ("b3", "x", "y3")])
    failed = Counter()
    assert_sides_match(build_algebra(BoundQuiverPresentation(q, [
        zero_relation(("g1", "alpha")), zero_relation(("g2", "alpha"))])),
        failed)
    assert set(failed) == {"A1", "A1'", "A2", "A2'", "A3", "A3'", "E1", "E2"}


def test_translate_conditions_match_reference_on_ctgent_reductions(
        monkeypatch):
    # every (A, f, e) whose fabric report the seedless reductions of the
    # ctgent pool make, with that report
    seen = {}
    inner = reduction._fabric_report

    def recording(scope, f_set, e_set):
        report = inner(scope, f_set, e_set)
        seen.setdefault((scope.alg, frozenset(f_set), frozenset(e_set)),
                        report)
        return report

    monkeypatch.setattr(reduction, "_fabric_report", recording)
    for n, d, idx in CTGENT_POOL:
        reduce_to_gentle(
            cluster_endo_algebra(ctgent_family(n, d, list(idx))).algebra)
    monkeypatch.undo()
    reasons = Counter()
    for (alg, f_set, e_set), report in seen.items():
        got = is_fabric_idempotent(alg, Idempotent.of(f_set),
                                   Idempotent.of(e_set)).conditions
        want = reference_translate_conditions(_CandidateScope(alg), f_set,
                                              e_set)
        for key, cond in want.items():
            assert got[key] == report.conditions[key] == cond, key
            reasons[(cond["witness"] or {}).get("reason")] += 1
    # both conditions pass and fail, the failure that grows a removal set
    # among them
    assert len(seen) == 70
    assert set(reasons) == {None, "translate not injective",
                            "inverse translate not killed by f",
                            "inverse translate not projective"}
