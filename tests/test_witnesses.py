"""The witnesses of d-gentle certificates, re-checked by the independent
checker of ``witness_check``: on every label subset of the ``rigid`` pool,
certified against A^3_n, on the ``ctgent`` covers, on fixtures whose
corners hold cubes and on one whose (E1) and (E2) fail.  Report parts are
read-only, so a tampered report is an edited ``copy.deepcopy``."""

import copy
import random
from collections import Counter

import pytest

from hga import (
    BoundQuiverPresentation,
    Idempotent,
    Quiver,
    build_algebra,
    zero_relation,
)
from hga.axioms import is_d_gentle_certificate
from hga.cluster import ctgent_cover, ctgent_family
from hga.typea import build_typeA_auslander
from reference_presentation import presented_during
from test_axioms import mixed_routes
from witness_check import check_certificate
from workloads import CTGENT_POOL, RIGID_NS, rigid_pool


def certified(cover, e, d):
    cert = is_d_gentle_certificate(cover, e, d)
    return cert.to_dict(), cover, cert.corner


def test_rigid_pool_witnesses():
    pool, checked = rigid_pool(), Counter()
    for n in RIGID_NS:
        cover = build_typeA_auslander(n, 3)
        for part in pool[n]:
            for sub in part:
                e = Idempotent.of(["".join(map(str, t)) for t in sub])
                checked += check_certificate(*certified(cover, e, 2))
    assert checked == {"E1/E2 entries": 432, "sandwich": 52,
                       "E4 sandwich": 37}


def test_ctgent_cover_witnesses():
    checked = Counter()
    for n, d, idx in CTGENT_POOL:
        cover, e = ctgent_cover(ctgent_family(n, d, list(idx)))
        checked += check_certificate(*certified(cover.algebra, e, d))
    assert checked == {"E1/E2 entries": 26, "sandwich": 4,
                       "E4 sandwich": 2}


def cube_fixtures():
    """(cover, e, d) whose cube checks report a cube: A^2_n at d = 1, whose
    2-cubes have composite edges, A^3_4 at d = 2, and a corner that is not
    monomial, searched by enumeration."""
    out = []
    for n, dd, d in ((3, 2, 1), (4, 2, 1), (5, 2, 1), (4, 3, 2)):
        a = build_typeA_auslander(n, dd)
        out.append((a, Idempotent.of(a.vertices), d))
    a = build_algebra(mixed_routes(random.Random(1)))
    out.append((a, Idempotent.of(a.vertices), 1))
    return out


def test_cube_witnesses():
    checked = Counter()
    for cover, e, d in cube_fixtures():
        checked += check_certificate(*certified(cover, e, d))
    assert checked == {"E1/E2 entries": 10, "pattern-scan cube": 4,
                       "enumeration cube": 1, "sandwich": 2,
                       "E4 sandwich": 1}


def zero_fans():
    """x -> y by a, with g1, g2 -> x and y -> h1, h2 zero on it and g3, h3
    nonzero: (E1) and (E2) fail on a, and (E4) names (E1)'s witness."""
    q = Quiver(["u1", "u2", "u3", "x", "y", "w1", "w2", "w3"],
               [("g1", "u1", "x"), ("g2", "u2", "x"), ("g3", "u3", "x"),
                ("a", "x", "y"),
                ("h1", "y", "w1"), ("h2", "y", "w2"), ("h3", "y", "w3")])
    return build_algebra(BoundQuiverPresentation(q, [
        zero_relation(p) for p in (("g1", "a"), ("g2", "a"), ("a", "h1"),
                                   ("a", "h2"))]))


def test_zero_chain_witnesses():
    a = zero_fans()
    report, cover, corner = certified(a, Idempotent.of(a.vertices), 2)
    entries = report["preGentle"]["axioms"]["axioms"]
    assert entries["E1"]["witnesses"] == [
        {"arrow": "a", "zeroPredecessors": ["g1", "g2"]}]
    assert entries["E2"]["witnesses"] == [
        {"arrow": "a", "zeroSuccessors": ["h1", "h2"]}]
    assert check_certificate(report, cover, corner) == {
        "E1/E2 entries": 2, "E1/E2 witness": 2, "E4 zero chain": 1}


def test_failing_pattern_scan_re_presents_its_corner_once():
    modes = Counter()
    for cover, e, d in cube_fixtures():
        certs = []
        calls = presented_during(
            lambda: certs.append(is_d_gentle_certificate(cover, e, d)))
        cert, = certs
        modes[cert.cube_check["mode"]] += 1
        if cert.cube_check["mode"] != "pattern-scan":
            continue
        assert cert.cube_check["verdict"] == "fail"
        # the cover's scan restricted to e finds the cube, and the corner
        # is re-presented once to name it; a later read re-presents nothing
        calls += presented_during(lambda: cert.corner)
        assert [(raw.vertices, raw.dim) for raw, _, _ in calls] == [
            (cert.corner.vertices, cert.corner.dim)]
    assert modes == {"pattern-scan": 4, "enumeration": 1}


def tampered(report, mode):
    """An edited copy of report with its cube, its first sandwich or an
    (E1)/(E2) entry made false.  The report's parts are read-only, so the
    copy comes first."""
    report = copy.deepcopy(report)
    entries = report["preGentle"]["axioms"]["axioms"]
    if mode == "cube":
        arrows = report["cubeCheck"]["witness"]["arrows"]
        arrows["+0"], arrows["+1"] = arrows["+1"], arrows["+0"]
    elif mode == "face":
        arrows = report["cubeCheck"]["witness"]["arrows"]
        arrows["0+1"] = arrows["+1"]
    elif mode == "sandwich":
        w = entries["E3"]["witnesses"][0]
        w["zeroRelations"][0] = w["commutativity"][0]
    elif mode == "nonzero partner":
        entries["E1"]["witnesses"][0]["zeroPredecessors"][1] = "g3"
    elif mode == "missing witness":
        entries["E2"] = {"pass": True, "witnesses": []}
    else:
        report["preGentle"]["E4"]["witness"]["subset"].pop()
    return report


@pytest.mark.parametrize("mode", ["cube", "face", "sandwich",
                                  "nonzero partner", "missing witness",
                                  "E4 subset"])
def test_checker_rejects_tampered_witnesses(mode):
    if mode in ("nonzero partner", "missing witness", "E4 subset"):
        cover = zero_fans()
        report, cover, corner = certified(
            cover, Idempotent.of(cover.vertices), 2)
    elif mode == "sandwich":
        cover = build_typeA_auslander(3, 3)
        e = Idempotent.of(["136", "146", "147", "157", "257", "357"])
        report, cover, corner = certified(cover, e, 2)
    else:
        cover = build_typeA_auslander(4, 2)
        report, cover, corner = certified(
            cover, Idempotent.of(cover.vertices), 1)
    check_certificate(report, cover, corner)
    with pytest.raises(TypeError):      # the report is not edited in place
        report["preGentle"]["E4"]["witness"] = None
    with pytest.raises(AssertionError):
        check_certificate(tampered(report, mode), cover, corner)
