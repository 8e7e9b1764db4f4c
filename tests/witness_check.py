"""An independent checker of the witnesses in a d-gentle certificate.

It reads an algebra only through its ``mult``, its basis ends and its basis
labels, and names the arrows of a corner by the reference route of
``reference_scans`` (the raw corner and its arrow layer).  None of the
certificate's search code runs: a witness is checked by multiplying out
what it states, at a cost linear in the witness once its corner is taken.

- A cube: its 2^m vertices are distinct and lie in the stated subset f,
  each edge is an arrow of the corner fBf of the reported corner B between
  the two vertices it joins, and both routes of each face multiply to the
  same nonzero element up to a nonzero scalar (the faces "commute" as the
  certificate defines it).
- A sandwich, on the hull corner of the cover: each route of its square
  runs x -> mid -> y, the two stated routes multiply to proportional
  nonzero elements, each stated zero relation is a composable pair with
  product 0, and the six vertices are distinct.  An (E4) witness that
  repeats an (E3) sandwich also names those six vertices as its subset.
- The (E1) and (E2) entries, on the cover: each stated zero predecessor
  (successor) of an arrow composes with it, the product is 0, and the
  witnesses are complete, one for each arrow with more than one such
  partner, naming all of them.  The cover's arrows are its basis elements
  labelled by one arrow name.  An (E4) witness that repeats an (E1) or
  (E2) witness also names the ends of its arrows as its subset.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

from hga.presentations import Idempotent
from reference_scans import RawCorner


def _proportional(x, y):
    """Whether x and y are nonzero and x = c·y for a scalar c."""
    if not x or not y or set(x) != set(y):
        return False
    k = next(iter(x))
    c = Fraction(x[k]) / y[k]
    return all(x[j] == c * y[j] for j in x)


def _product(raw, second, first):
    """The product in raw of basis ids: first, then second."""
    return raw.mult.get((second, first), {})


def _key(subset):
    return "".join(str(d) for d in sorted(subset))


def check_cube(corner, witness, mode):
    """Check a cube-check witness in the reported corner B: with mode
    "pattern-scan" its edges are basis labels of B, with "enumeration"
    arrow names of the corner at its subset."""
    cube = witness if mode == "pattern-scan" else witness["cube"]
    m = cube["m"]
    ref = RawCorner(corner, Idempotent.of(witness["subset"]))
    raw = ref.raw
    if mode == "pattern-scan":
        label_id = {lab: i for i, lab in enumerate(corner.basis_labels)}
        assert len(label_id) == corner.dim
        position = {b: k for k, b in enumerate(ref.ids)}
        arrow_ids = set(ref.arrow_ids.values())

        def edge_id(label):
            b = position[label_id[label]]
            assert b in arrow_ids, f"{label} is no arrow of the corner"
            return b
    else:
        edge_id = ref.arrow_ids.__getitem__
    subsets = [frozenset(s) for k in range(m + 1)
               for s in combinations(range(m), k)]
    vertices = {s: cube["vertices"][_key(s)] for s in subsets}
    assert len(set(vertices.values())) == 2 ** m
    assert set(vertices.values()) <= set(raw.vertices)
    edges = {}
    for s in subsets:
        for d in set(range(m)) - s:
            b = edges[(s, d)] = edge_id(cube["arrows"][f"{_key(s)}+{d}"])
            assert (raw.basis_src[b], raw.basis_tgt[b]) == (
                vertices[s], vertices[s | {d}])
    for s in subsets:
        for i, j in combinations(sorted(set(range(m)) - s), 2):
            route_i = _product(raw, edges[(s | {i}, j)], edges[(s, i)])
            route_j = _product(raw, edges[(s | {j}, i)], edges[(s, j)])
            assert _proportional(route_i, route_j), (s, i, j)


def check_sandwich(hull_corner, witness):
    """Check a sandwich witness on the hull corner (a ``RawCorner``)."""
    raw, arrow_ids = hull_corner.raw, hull_corner.arrow_ids
    ends = {name: (raw.basis_src[b], raw.basis_tgt[b])
            for name, b in arrow_ids.items()}

    def value(path):
        return _product(raw, arrow_ids[path[1]], arrow_ids[path[0]])

    square = witness["square"]
    x, y = square["x"], square["y"]
    routes = [tuple(r) for r in witness["commutativity"]]
    assert sorted(routes) == sorted(tuple(r[:2]) for r in square["routes"])
    for first, second, mid in square["routes"]:
        assert ends[first] == (x, mid) and ends[second] == (mid, y)
    assert _proportional(value(routes[0]), value(routes[1]))
    six = {x, y} | {r[2] for r in square["routes"]}
    for z, killed in witness["zeroRelations"]:
        paths = [p for p in ((z, killed), (killed, z))
                 if ends[p[0]][1] == ends[p[1]][0]]
        assert len(paths) == 1 and not value(paths[0])
        six.add(ends[z][0] if paths[0][0] == z else ends[z][1])
    assert len(six) == 6
    return six


def check_zero_chains(cover, entries):
    """Check the (E1) and (E2) entries of the cover's axioms against its
    mult; returns {(entry name, arrow): vertices of the witness's arrows}
    for each witness checked."""
    nv, src, tgt = len(cover.vertices), cover.basis_src, cover.basis_tgt
    arrows = {lab[0]: b for b, lab in enumerate(cover.basis_labels)
              if b >= nv and len(lab) == 1}
    into, out = defaultdict(list), defaultdict(list)
    for name, b in arrows.items():
        out[src[b]].append(name)
        into[tgt[b]].append(name)

    def zero(first, second):
        return not _product(cover, arrows[second], arrows[first])

    spans = {}
    for key, field, before in (("E1", "zeroPredecessors", True),
                               ("E2", "zeroSuccessors", False)):
        stated = {}
        for w in entries[key]["witnesses"]:
            arrow, partners = w["arrow"], w[field]
            for z in partners:
                first, second = (z, arrow) if before else (arrow, z)
                assert tgt[arrows[first]] == src[arrows[second]], (first,
                                                                   second)
                assert zero(first, second), (first, second)
            assert arrow not in stated
            stated[arrow] = partners
            spans[(key, arrow)] = {v for name in [arrow] + partners
                                   for v in (src[arrows[name]],
                                             tgt[arrows[name]])}
        complete = {}
        for name, b in arrows.items():
            if before:
                partners = [z for z in into[src[b]] if zero(z, name)]
            else:
                partners = [z for z in out[tgt[b]] if zero(name, z)]
            if len(partners) > 1:
                complete[name] = sorted(partners)
        assert stated == complete, key
        assert entries[key]["pass"] == (not stated)
    return spans


def check_certificate(report, cover, corner):
    """Check every witness of a certificate's report (``to_dict()``) against
    its cover and its reported corner; returns the counts of witnesses
    checked, by kind."""
    checked = Counter()
    by_name = {str(v): v for v in cover.vertices}
    hull = RawCorner(cover, Idempotent.of(by_name[v] for v in report["hull"]))
    pre = report["preGentle"]
    entries = pre["axioms"]["axioms"]
    spans = check_zero_chains(cover, entries)
    checked["E1/E2 entries"] += 2
    checked["E1/E2 witness"] += len(spans)
    for w in entries["E3"]["witnesses"]:
        check_sandwich(hull, w)
        checked["sandwich"] += 1
    e4 = pre["E4"]["witness"]
    if e4 is not None and e4["axiom"] == "E3":
        assert set(e4["subset"]) == check_sandwich(hull, e4)
        checked["E4 sandwich"] += 1
    elif e4 is not None:
        key = e4["axiom"]
        assert {k: v for k, v in e4.items() if k not in ("axiom", "subset")} \
            == entries[key]["witnesses"][0]
        assert e4["subset"] == sorted(spans[(key, e4["arrow"])], key=str)
        checked["E4 zero chain"] += 1
    cube = report["cubeCheck"]
    if cube["witness"] is not None:
        check_cube(corner, cube["witness"], cube["mode"])
        checked[f"{cube['mode']} cube"] += 1
    return checked
