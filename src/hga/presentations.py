"""Quivers, relations and bound quiver presentations.

Composition convention (fixed once, everywhere): for arrows a: i -> j and
b: j -> k the product "b a" means "a first, then b".  Internally a path is a
tuple of arrow names in application order, so ("a", "b") is the path i -> k.
The JSON format stores paths with the rightmost arrow applying first, i.e.
reversed relative to the internal order.
"""

from dataclasses import dataclass, field

from .errors import InvalidPresentation, UnknownVertex
from .linalg import exact


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """Finite directed graph; loops and parallel arrows allowed."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InvalidPresentation("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise InvalidPresentation("duplicate arrow names")
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise InvalidPresentation(
                    f"arrow {a.name} has undeclared endpoint"
                )
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self.arrows_from = {v: [] for v in self.vertices}
        self.arrows_to = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.arrows_from[a.source].append(a)
            self.arrows_to[a.target].append(a)

    def path_source(self, path):
        return self.arrow_by_name[path[0]].source

    def path_target(self, path):
        return self.arrow_by_name[path[-1]].target

    def is_composable(self, path):
        for x, y in zip(path, path[1:]):
            if self.arrow_by_name[x].target != self.arrow_by_name[y].source:
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )


@dataclass
class RelationElement:
    """Linear combination of parallel paths of length >= 2.

    terms: list of (coefficient, path); path in application order.
    """

    terms: list

    def __post_init__(self):
        self.terms = [(exact(c), tuple(p)) for c, p in self.terms]

    def validate(self, quiver):
        if not self.terms:
            raise InvalidPresentation("empty relation")
        endpoints = None
        for coef, path in self.terms:
            if len(path) < 2:
                raise InvalidPresentation("relation path of length < 2")
            for name in path:
                if name not in quiver.arrow_by_name:
                    raise InvalidPresentation(f"unknown arrow {name!r} in relation")
            if not quiver.is_composable(path):
                raise InvalidPresentation(f"non-composable path {path}")
            ep = (quiver.path_source(path), quiver.path_target(path))
            if endpoints is None:
                endpoints = ep
            elif ep != endpoints:
                raise InvalidPresentation("relation terms with mismatched endpoints")
        return endpoints


@dataclass
class BoundQuiverPresentation:
    quiver: Quiver
    relations: list = field(default_factory=list)

    def __post_init__(self):
        self.relations = [
            r if isinstance(r, RelationElement) else RelationElement(r)
            for r in self.relations
        ]
        for r in self.relations:
            r.validate(self.quiver)

    def endpoints(self, relation):
        path = relation.terms[0][1]
        return (self.quiver.path_source(path), self.quiver.path_target(path))


@dataclass(frozen=True)
class Idempotent:
    """Sum of vertex idempotents over a vertex subset."""

    vertex_subset: frozenset

    @staticmethod
    def of(vertices):
        return Idempotent(frozenset(vertices))

    def validate(self, algebra_vertices):
        unknown = self.vertex_subset - set(algebra_vertices)
        if unknown:
            raise UnknownVertex(f"unknown vertices {sorted(unknown)}")


def zero_relation(path):
    return RelationElement([(1, tuple(path))])


def commutativity_relation(path_a, path_b):
    return RelationElement([(1, tuple(path_a)), (-1, tuple(path_b))])


def presentation_to_dict(p):
    return {
        "pathOrder": "rightmost applies first",
        "vertices": list(p.quiver.vertices),
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target}
            for a in p.quiver.arrows
        ],
        "relations": [
            {
                "terms": [
                    {"coef": str(c), "path": [name for name in reversed(path)]}
                    for c, path in r.terms
                ]
            }
            for r in p.relations
        ],
    }


def presentation_from_dict(d):
    quiver = Quiver(
        d["vertices"],
        [(a["name"], a["source"], a["target"]) for a in d["arrows"]],
    )
    relations = [
        RelationElement(
            [
                (exact(t["coef"]), tuple(reversed(t["path"])))
                for t in r["terms"]
            ]
        )
        for r in d.get("relations", [])
    ]
    return BoundQuiverPresentation(quiver, relations)


def presentation_to_dot(p, name="quiver"):
    """DOT text: solid directed arrows, dotted chords joining relation endpoints."""
    lines = [f"digraph {name} {{"]
    for v in p.quiver.vertices:
        lines.append(f'  "{v}";')
    for a in p.quiver.arrows:
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}"];')
    for r in p.relations:
        s, t = p.endpoints(r)
        lines.append(f'  "{s}" -> "{t}" [style=dotted, dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"
