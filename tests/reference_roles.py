"""Test oracle for the roles of the canonical family's modules.

The projectives and the chain of simples of a labelled module family are
found here by a search over the family's dimension vectors, with no use of
the labels: a module with the dimension vector of a simple is that simple,
a module with the dimension vector of P_v and top S_v is P_v (its
projective cover is then bijective), and the simples are ordered by
walking tau_d^- from the one whose translate is no simple of the family.
"""

from hga import reps


def _match(family, dims, dv, same=lambda module: True):
    """The label of the first module whose dimension vector (read from
    ``dims``, the family's in module order) is dv and that passes ``same``;
    None if there is none."""
    for module, lab, mdv in zip(family.modules, family.labels, dims):
        if mdv == dv and same(module):
            return lab
    return None


def roles(family):
    """({v: label of P_v}, [v in chain order], {v: label of S_v}) of the
    family, by searching its dimension vectors."""
    alg = family.algebra
    d = alg.typeA["d"]
    dims = [m.dim_vector() for m in family.modules]
    simple_dv = {v: reps.simple(alg, v).dim_vector() for v in alg.vertices}
    simple_label = {}
    for v in alg.vertices:
        lab = _match(family, dims, simple_dv[v])
        if lab is not None:
            simple_label[v] = lab
    succ = {}
    for v, lab in simple_label.items():
        dv = reps.higher_translate_inverse(
            family.module_of(lab), d).dim_vector()
        hits = [w for w in simple_label if simple_dv[w] == dv]
        assert len(hits) <= 1
        succ[v] = hits[0] if hits else None
    starts = [v for v in simple_label if succ[v] is None]
    assert len(starts) == 1, "translate chain of simples is not linear"
    chain = starts
    while True:
        nxt = [v for v in simple_label if succ[v] == chain[-1]]
        assert len(nxt) <= 1, "translate chain of simples branches"
        if not nxt:
            break
        chain.append(nxt[0])
    assert len(chain) == len(simple_label), "chain is not connected"
    proj_label = {}
    for v in alg.vertices:
        lab = _match(family, dims, reps.projective(alg, v).dim_vector(),
                     lambda m: reps.minimal_resolution(m, 0)[2][0] == [v])
        assert lab is not None, f"projective at {v} is missing"
        proj_label[v] = lab
    return proj_label, chain, simple_label
