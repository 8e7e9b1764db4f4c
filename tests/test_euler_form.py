"""The Euler form of an algebra of finite global dimension inverts its
Cartan matrix.

E[i][j] = sum over k = 0..gl.dim of (-1)^k dim Ext^k(S_i, S_j), from
`reps.ext_dim`, and C[i][j] = dim Hom(P_i, P_j), the number of basis
elements from j to i, read off the basis and not from the module homology.
Then E C^T = I.
"""

import pytest

from hga import reps
from hga.cluster import cluster_endo_algebra, ctgent_family
from hga.typea import build_typeA_auslander


def euler_form(alg):
    gl = reps.global_dim(alg)
    simples = [reps.simple(alg, v) for v in alg.vertices]
    return [[sum((-1) ** k * reps.ext_dim(si, sj, k) for k in range(gl + 1))
             for sj in simples] for si in simples]


def cartan(alg):
    block = alg.basis_index().block
    return [[len(block.get((j, i), ())) for j in alg.vertices]
            for i in alg.vertices]


ALGEBRAS = {
    "A^1_5": lambda: build_typeA_auslander(5, 1),
    "A^2_3": lambda: build_typeA_auslander(3, 2),
    "A^2_4": lambda: build_typeA_auslander(4, 2),
    "A^3_3": lambda: build_typeA_auslander(3, 3),
    "End(4,2,[4])": lambda: cluster_endo_algebra(
        ctgent_family(4, 2, [4])).algebra,
    "End(5,2,[5])": lambda: cluster_endo_algebra(
        ctgent_family(5, 2, [5])).algebra,
    "End(3,3,[3])": lambda: cluster_endo_algebra(
        ctgent_family(3, 3, [3])).algebra,
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_euler_form_inverts_the_cartan_matrix(name):
    alg = ALGEBRAS[name]()
    e, c = euler_form(alg), cartan(alg)
    t = len(alg.vertices)
    assert [[sum(e[i][k] * c[j][k] for k in range(t)) for j in range(t)]
            for i in range(t)] == [[int(i == j) for j in range(t)]
                                   for i in range(t)]
