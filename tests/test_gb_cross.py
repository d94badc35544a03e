"""Cross-validation of global Groebner bases against an independent engine.

sympy's groebner is a separate implementation of the same mathematics; for
random ideals the reduced bases must agree term for term, and the univariate
eliminants (minimal polynomials of multiplication maps here) must be the
elements of sympy's reduced lex bases that involve one variable.  (The local
order has no counterpart there and is covered by the staircase/multiplicity
tests.)
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings
from hypothesis import strategies as st

from germlab import DEGREVLEX, LEX, Ideal, PolyRing
from germlab.gb import univariate_eliminant
from germlab.intersect import SplitMix64

from helpers import random_polynomial

R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))


def _to_sympy(p, syms):
    expr = sympy.Integer(0)
    for exps, c in p.terms:
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            if e:
                term *= s**e
        expr += term
    return expr


def _from_sympy(expr, syms, ring):
    poly = sympy.Poly(expr, *syms)
    acc = {}
    for monom, coeff in poly.terms():
        q = sympy.Rational(coeff)
        acc[tuple(int(e) for e in monom)] = Fraction(int(q.p), int(q.q))
    return ring.polynomial(acc)


@pytest.mark.parametrize("ring,order,sympy_order", [
    (R2, LEX, "lex"),
    (R2, DEGREVLEX, "grevlex"),
    (R3, DEGREVLEX, "grevlex"),
])
@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_reduced_basis_matches_sympy(ring, order, sympy_order, seed):
    rng = SplitMix64(seed)
    gens = [
        random_polynomial(rng, ring, max_degree=3, max_terms=3, coeff_bound=3)
        for _ in range(2)
    ]
    syms = sympy.symbols(ring.variables)
    ours = set(Ideal(ring, gens).basis(order).basis)
    theirs = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                            order=sympy_order)
    # sympy clears denominators; compare monic under the same order
    expected = {_from_sympy(e, syms, ring).monic(order) for e in theirs.exprs}
    assert ours == expected


@pytest.mark.parametrize("ring,powers", [(R2, (2, 3)), (R3, (2, 2, 2))])
@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=15, deadline=None)
def test_eliminants_match_sympy_lex(ring, powers, seed):
    # x_j^a_j plus terms of lower total degree: a zero-dimensional ideal
    rng = SplitMix64(seed)
    gens = [
        ring.var(j) ** a
        + random_polynomial(rng, ring, max_degree=a - 1, max_terms=3,
                            coeff_bound=2)
        for j, a in enumerate(powers)
    ]
    I = Ideal(ring, gens)
    syms = sympy.symbols(ring.variables)
    for i, s in enumerate(syms):
        lex_vars = [t for t in syms if t != s] + [s]
        theirs = sympy.groebner([_to_sympy(g, syms) for g in gens], *lex_vars,
                                order="lex")
        (expr,) = [e for e in theirs.exprs if e.free_symbols <= {s}]
        one = PolyRing((ring.variables[i],))
        assert univariate_eliminant(I, i) == _from_sympy(expr, [s], one).monic()
