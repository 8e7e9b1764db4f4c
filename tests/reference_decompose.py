"""Test oracle: a split of a module into indecomposable summands through
idempotents of its endomorphism ring.

Each candidate endomorphism phi (a basis element of End(M), a sum of two,
or a seeded random combination) has its minimal polynomial factored over
Q with sympy.  Two coprime factors g1, g2 give the idempotent t g2 / h from
s g1 + t g2 = h, and the module splits as im(e) + ker(e).  No command or
report of hga reaches this split; the orbit oracle in
``tests/test_typea.py`` uses it, and ``tests/test_reps.py`` tests it.
"""

import random
from itertools import count

from hga import linalg
from hga.linalg import F0, div, exact
from hga.reps import hom_basis, identity_morphism, kernel


def _split_by_idempotent(m, e):
    """Split m as im(e) + ker(e), with im(e) = ker(e - 1), for e idempotent."""
    im, ii = kernel(e.add(identity_morphism(m).scale(-1)))
    k, ki = kernel(e)
    if im.is_zero() or k.is_zero():
        return None
    return [(im, ii), (k, ki)]


def _min_poly(phi):
    """Minimal polynomial coefficients (ascending) of an endomorphism: the
    first dependency among the powers of phi."""
    span, power = linalg.TrackedSpan(), identity_morphism(phi.source)
    for k in count():
        dep = span.add(linalg.sparse(power.flatten()), k)
        if dep is not None:
            return [dep.get(j, F0) for j in range(k + 1)]
        power = power.compose(phi)


def _poly_eval_morphism(coeffs, phi):
    result = phi.scale(0)
    power = identity_morphism(phi.source)
    for c in coeffs:
        if c:
            result = result.add(power.scale(c))
        power = power.compose(phi)
    return result


def _try_split(m, phi):
    """Look for an idempotent from a coprime factor split of phi's min poly."""
    import sympy

    coeffs = _min_poly(phi)
    x = sympy.symbols("x")
    poly = sympy.Poly(
        [sympy.Rational(str(c)) for c in reversed(coeffs)], x, domain="QQ"
    )
    factors = poly.factor_list()[1]
    if len(factors) < 2:
        return None
    g1 = factors[0][0] ** factors[0][1]
    g2 = factors[1][0] ** factors[1][1]
    for f, e in factors[2:]:
        g2 = g2 * f**e
    s, t, h = g1.gcdex(g2)
    # s g1 + t g2 = h with h a nonzero constant, so (t g2)/h is idempotent
    c = exact(str(h.all_coeffs()[0]))
    tg2 = (t * g2).all_coeffs()[::-1]
    ecoeffs = [div(exact(str(q)), c) for q in tg2]
    e = _poly_eval_morphism(ecoeffs, phi)
    if not e.compose(e).add(e.scale(-1)).is_zero():
        return None
    return _split_by_idempotent(m, e)


def decompose_indecomposables(m):
    """Direct summand list [(summand, inclusion)] via End idempotents."""
    if m.is_zero():
        return []
    end = hom_basis(m, m)
    if len(end) == 1:
        return [(m, identity_morphism(m))]
    candidates = list(end)
    for i in range(len(end)):
        for j in range(i + 1, len(end)):
            candidates.append(end[i].add(end[j]))
    rng = random.Random(0)
    for _ in range(30):
        combo = end[0].scale(0)
        for f in end:
            combo = combo.add(f.scale(rng.randint(-5, 5)))
        candidates.append(combo)
    for phi in candidates:
        split = _try_split(m, phi)
        if split:
            out = []
            for part, incl in split:
                for sub, sub_incl in decompose_indecomposables(part):
                    out.append((sub, incl.compose(sub_incl)))
            return out
    return [(m, identity_morphism(m))]
