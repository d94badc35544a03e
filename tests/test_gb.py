"""Groebner/standard bases, elimination, radicals, staircases, Hilbert series."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlab import (
    DEGREVLEX,
    INFINITY,
    LEX,
    LOCAL_DEGREVLEX,
    GuardConfig,
    Ideal,
    PolyMap,
    PolyRing,
    buchberger_basis,
    eliminate,
    fiber_points_count,
    hilbert_series_monomial,
    ideal_equal,
    krull_dimension,
    normal_form,
    poly_gcd,
    poly_lcm,
    quotient_dimension,
    radical_membership,
    squarefree_part,
    staircase_monomials,
    zero_dim_radical,
)
from germlab.errors import PreconditionError, ResourceLimitError
from germlab.gb import (
    ComputationCancelled,
    hilbert_series_coefficients,
    local_colength,
    univariate_eliminant,
    univariate_squarefree,
)
from germlab import macaulay
from germlab.macaulay import truncated_colengths
from germlab.intersect import SplitMix64

from helpers import P, brute_monomials_by_degree, random_polynomial

R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "t"))
ST = PolyRing(("s", "t"))


# -- normal forms --------------------------------------------------------------


def test_nf_divisible_monomial():
    assert normal_form(P("x^2", R2), [R2.var("x")], DEGREVLEX).is_zero


def test_nf_irreducible():
    assert normal_form(R2.var("y"), [R2.var("x")], LEX) == R2.var("y")


def test_mora_unit_division():
    # x + x^2 = x*(1 + x) and 1 + x is a unit of the local ring, so x reduces
    # to zero; one Mora step with the ecart extension finds it.
    r = normal_form(R2.var("x"), [P("x + x^2", R2)], LOCAL_DEGREVLEX)
    assert r.is_zero


def test_nf_empty_family_returns_input():
    p = P("x + y", R2)
    assert normal_form(p, [], LEX) == p


# -- buchberger ----------------------------------------------------------------


def test_lex_basis_hand_run():
    # Hand Buchberger: spoly(x^2 - y, x - y^2) -> x*y^2 - y -> y^4 - y;
    # minimalization drops x^2 - y.
    I = Ideal(R2, [P("x^2 - y", R2), P("y^2 - x", R2)])
    gb = buchberger_basis(I, LEX)
    assert set(gb.basis) == {P("x - y^2", R2), P("y^4 - y", R2)}


def test_principal_monic():
    I = Ideal(R2, [P("3*x", R2)])
    for order in (LEX, DEGREVLEX, LOCAL_DEGREVLEX):
        assert Ideal(R2, [P("3*x", R2)]).basis(order).basis == (R2.var("x"),)


def test_local_leading_ideal_of_the_fiber_pair():
    I = Ideal(ST, [ST.var("t"), P("s^2 - t^2", ST)])
    gb = I.basis(LOCAL_DEGREVLEX)
    assert set(gb.leading_exponents) == {(0, 1), (2, 0)}


def test_spolys_reduce_to_zero_global_and_local():
    for order in (LEX, DEGREVLEX, LOCAL_DEGREVLEX):
        I = Ideal(R2, [P("x^2 - y^3", R2), P("x*y - x", R2)])
        gb = I.basis(order)
        from germlab.gb import _ordered, _spoly, _mora_weak_nf, _global_nf, DEFAULT_GUARDS

        basis_t = [_ordered(p, order) for p in gb.basis]
        for i in range(len(basis_t)):
            for j in range(i + 1, len(basis_t)):
                s = _spoly(basis_t[i], basis_t[j], order.key)
                if order.is_global:
                    assert _global_nf(s, basis_t, order.key) == []
                else:
                    assert _mora_weak_nf(s, basis_t, order.key, DEFAULT_GUARDS) == []


def test_zero_ideal_has_empty_basis():
    I = Ideal(R2, [])
    assert I.basis(DEGREVLEX).basis == ()


def test_basis_cache_is_transparent():
    I = Ideal(R2, [P("x^2 - y", R2), P("y^2 - x", R2)])
    first = I.basis(LEX)
    again = I.basis(LEX)
    assert first is again
    fresh = Ideal(R2, [P("x^2 - y", R2), P("y^2 - x", R2)]).basis(LEX)
    assert fresh.basis == first.basis


def test_resource_guard_fails_loudly():
    I = Ideal(R2, [P("x^2 - y", R2), P("y^2 - x", R2)])
    with pytest.raises(ResourceLimitError):
        I.basis(LEX, GuardConfig(max_degree=1))


def test_cancellation_token():
    from germlab.gb import ComputationCancelled

    I = Ideal(R2, [P("x^2 - y", R2), P("y^2 - x", R2)])
    with pytest.raises(ComputationCancelled):
        I.basis(LEX, GuardConfig(cancel=lambda: True))


# -- elimination ----------------------------------------------------------------


def test_eliminate_graph_of_the_normalization():
    big = PolyRing(("s", "t", "u", "v", "w"))
    I = Ideal(big, [
        P("u - (s^2 - t^2)", big),
        P("v - s*(s^2 - t^2)", big),
        P("w - t", big),
    ])
    J = eliminate(I, ["s", "t"])
    small = PolyRing(("u", "v", "w"))
    assert ideal_equal(J, Ideal(small, [P("v^2 - u^2*(u + w^2)", small)]))


def test_eliminate_nothing_is_identity():
    I = Ideal(R2, [P("x^2 - y", R2)])
    assert eliminate(I, []) is I


def test_eliminate_cusp_image():
    big = PolyRing(("x", "y", "u", "v"))
    I = Ideal(big, [P("u - x^2", big), P("v - y", big), P("y - x^3", big)])
    J = eliminate(I, ["x", "y"])
    small = PolyRing(("u", "v"))
    assert ideal_equal(J, Ideal(small, [P("u^3 - v^2", small)]))


def test_eliminate_idempotent_and_contained():
    big = PolyRing(("s", "t", "u", "v", "w"))
    I = Ideal(big, [
        P("u - (s^2 - t^2)", big),
        P("v - s*(s^2 - t^2)", big),
        P("w - t", big),
    ])
    J = eliminate(I, ["s", "t"])
    # contained: each eliminated generator is a member of I
    gb = I.basis(DEGREVLEX)
    for g in J.generators:
        lifted = P(str(g), big)
        assert gb.contains(lifted)
    # idempotent on the result
    assert eliminate(J, []) is J


def test_eliminate_everything_rejected():
    I = Ideal(R2, [P("x - y", R2)])
    with pytest.raises(PreconditionError):
        eliminate(I, ["x", "y"])


# -- radical membership ----------------------------------------------------------


def test_radical_of_a_power():
    assert radical_membership(R2.var("x"), Ideal(R2, [P("x^2", R2)]))


def test_independent_variable_not_in_radical():
    assert not radical_membership(R2.var("y"), Ideal(R2, [R2.var("x")]))


def test_jacobian_restriction_not_identically_zero():
    det = P("x*(2*y - x)", R2)
    assert not radical_membership(det, Ideal(R2, [R2.var("y")]))


def test_zero_is_everywhere():
    assert radical_membership(R2.zero(), Ideal(R2, [R2.var("x")]))


# -- quotient dimension -----------------------------------------------------------


def test_staircase_x2_y():
    I = Ideal(R2, [P("x^2", R2), R2.var("y")])
    assert quotient_dimension(I, DEGREVLEX) == 2
    assert set(staircase_monomials(I, DEGREVLEX)) == {(0, 0), (1, 0)}


def test_maximal_ideal():
    assert quotient_dimension(Ideal(R2, [R2.var("x"), R2.var("y")])) == 1


def test_local_dimension_of_the_projected_fiber_pair():
    I = Ideal(ST, [ST.var("t"), P("s^2 - t^2", ST)])
    assert quotient_dimension(I, LOCAL_DEGREVLEX) == 2


def test_unit_ideal_dimension_zero():
    assert quotient_dimension(Ideal(R2, [R2.one()])) == 0


def test_zero_ideal_infinite():
    assert quotient_dimension(Ideal(R2, [])) == INFINITY
    assert staircase_monomials(Ideal(R2, [])) is None


def test_positive_dimensional_infinite():
    assert quotient_dimension(Ideal(R2, [R2.var("x")])) == INFINITY


# -- local colength: the truncated Macaulay matrix ----------------------------------

XYZ = PolyRing(("x", "y", "z"))


def _seeded_germ(seed, ring):
    """A pure power x_i^a (a = 2..4) plus up to two random terms per component."""
    rng = SplitMix64(seed)
    gens = []
    for i in range(ring.arity):
        e = [0] * ring.arity
        e[i] = rng.randint(2, 4)
        gens.append(ring.monomial(e, rng.randint(1, 3))
                    + random_polynomial(rng, ring, max_degree=4, max_terms=2,
                                        force_germ=True))
    return gens


def _steps(I, count=None):
    """h(1), h(2), ...: ``count`` of them, or up to the first repeat."""
    steps = truncated_colengths(I.ring.arity, I.generators, 64, lambda: None, {})
    if count is not None:
        return list(itertools.islice(steps, count))
    hs = []
    for h in steps:
        hs.append(h)
        if len(hs) >= 2 and hs[-1] == hs[-2]:
            return hs
    return hs


@pytest.mark.parametrize("ring,seeds", [(R2, range(30)), (XYZ, range(12))])
def test_local_colength_matches_mora(ring, seeds):
    for seed in seeds:
        gens = _seeded_germ(seed, ring)
        mora = Ideal(ring, gens)
        value, stairs = local_colength(Ideal(ring, gens))
        assert value == quotient_dimension(mora, LOCAL_DEGREVLEX)
        if value == INFINITY:
            assert stairs is None
            continue
        assert stairs == sorted(staircase_monomials(mora, LOCAL_DEGREVLEX))
        # h(D) = dim Q[x]/(I + m^D) counts the local standard monomials of
        # degree < D, for every D up to stabilization
        lead = mora.basis(LOCAL_DEGREVLEX).leading_exponents
        hs = _steps(Ideal(ring, gens))
        assert hs[-1] == value
        per_degree = brute_monomials_by_degree(lead, ring.arity, len(hs))
        for D, h in enumerate(hs, start=1):
            assert h == sum(per_degree[:D]), (seed, D)


def test_local_colength_of_triangular_germs():
    rng = SplitMix64(17)
    for a, b, c in ((2, 2, 3), (2, 3, 4), (3, 4, 2), (4, 3, 3)):
        h = random_polynomial(rng, XYZ, max_degree=3, max_terms=2, force_germ=True)
        k = random_polynomial(rng, XYZ, max_degree=3, max_terms=2, force_germ=True)
        x, y, z = XYZ.gens()
        # substitute so that h only sees (y, z) and k only sees z
        h = h.substitute([y, y, z]) * y
        k = k.substitute([z, z, z]) * z
        I = Ideal(XYZ, [x ** a + h, y ** b + k, z ** c])
        value, stairs = local_colength(I)
        assert value == a * b * c == len(stairs)
        assert not I._cache  # decided without a standard basis


def test_local_colength_of_brieskorn_pham_germs():
    x, y, z = XYZ.gens()
    for a, b, c in ((2, 3, 4), (3, 3, 3), (4, 4, 5), (5, 2, 3)):
        # perturbations above the Newton boundary keep the product
        I = Ideal(XYZ, [x ** a + 3 * y ** b * z, 2 * y ** b - x ** a * z,
                        z ** c + x * y ** b])
        assert local_colength(I)[0] == a * b * c


def test_local_colength_closed_form_27():
    I = Ideal(XYZ, [P("x^3+y^2*z+z^4", XYZ), P("y^3+x*z^2", XYZ),
                    P("z^3+x^2*y+x*y*z", XYZ)])
    value, stairs = local_colength(I)
    assert value == 27
    assert stairs == sorted(staircase_monomials(I, LOCAL_DEGREVLEX))


def test_local_colength_more_generators_than_variables():
    I = Ideal(R2, [P("x^2", R2), P("y^2", R2), P("x*y", R2)])
    assert local_colength(I) == (3, [(0, 0), (0, 1), (1, 0)])


def test_local_colength_of_a_unit_is_zero():
    assert local_colength(Ideal(R2, [P("1 + x", R2), P("y", R2)])) == (0, [])


@pytest.mark.parametrize("gens", [
    ["x*y", "x"],
    ["x^2 + y^3"],
    ["x^4+y*t^3", "y^4+x*t^3", "x*y"],
])
def test_local_colength_not_finite(gens):
    ring = R3 if any("t" in g for g in gens) else R2
    I = Ideal(ring, [P(g, ring) for g in gens])
    assert local_colength(I) == (INFINITY, None)
    assert not I._cache  # certified by the Bezout number, not by Mora


def test_local_colength_hands_off_to_mora_at_max_degree():
    # h(D) = D + 60 from D = 11 on: below the Bezout number 216 up to D = 156,
    # so no certificate fires within max_degree = 16 and Mora decides
    I = Ideal(XYZ, [P("x^6+y*z^5+y^6", XYZ), P("y^6+x*z^5", XYZ),
                    P("x*y+x^2*z^4", XYZ)])
    assert _steps(I, 16)[10:] == [71, 72, 73, 74, 75, 76]
    assert local_colength(I, GuardConfig(max_degree=16)) == (INFINITY, None)
    assert LOCAL_DEGREVLEX.cache_key in I._cache


def test_local_colength_hands_off_to_mora_at_max_columns(monkeypatch):
    monkeypatch.setattr(macaulay, "MAX_COLUMNS", 30)
    I = Ideal(XYZ, [P("x^3+y^2*z+z^4", XYZ), P("y^3+x*z^2", XYZ),
                    P("z^3+x^2*y+x*y*z", XYZ)])
    assert len(_steps(I, 64)) == 4  # 35 columns for degree <= 4
    value, stairs = local_colength(I)
    assert value == 27 == len(stairs)
    assert LOCAL_DEGREVLEX.cache_key in I._cache


def test_local_colength_cancels_inside_the_engine():
    I = Ideal(XYZ, [P("x^5 + y^4 + x*z^3", XYZ), P("y^5 + z^4 + x^2*y^2", XYZ),
                    P("z^5 + x^4*y + y^3*z", XYZ)])
    polls = []

    def cancel():
        polls.append(1)
        return len(polls) > 50

    with pytest.raises(ComputationCancelled):
        local_colength(I, GuardConfig(cancel=cancel))
    assert len(polls) == 51
    assert not I._cache


# -- hilbert series ----------------------------------------------------------------


def test_hilbert_principal_square():
    assert hilbert_series_monomial([(0, 2, 0)], 3) == (1, 0, -1)


def test_hilbert_free_ring():
    assert hilbert_series_monomial([], 3) == (1,)


def test_hilbert_full_maximal():
    n = hilbert_series_monomial([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    # (1-t)^3
    assert n == (1, -3, 3, -1)
    assert hilbert_series_coefficients(n, 3, 5) == [1, 0, 0, 0, 0, 0]


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_hilbert_series_matches_brute_staircase(seed):
    rng = SplitMix64(seed)
    arity = 2 + rng.randint(0, 1)
    gens = []
    for _ in range(1 + rng.randint(0, 3)):
        gens.append(tuple(rng.randint(0, 3) for _ in range(arity)))
    gens = [g for g in gens if sum(g) > 0]
    numerator = hilbert_series_monomial(gens, arity)
    series = hilbert_series_coefficients(numerator, arity, 8)
    assert series == brute_monomials_by_degree(gens, arity, 8)


# -- krull dimension ----------------------------------------------------------------


def test_hypersurface_dimension():
    assert krull_dimension(Ideal(R2, [P("y^2 - x^3", R2)])) == 1


def test_whole_space_dimension():
    assert krull_dimension(Ideal(R3, [])) == 3


def test_point_dimension():
    assert krull_dimension(Ideal(R3, [R3.var("x"), R3.var("y"), R3.var("t")])) == 0


def test_unit_ideal_raises():
    with pytest.raises(PreconditionError) as info:
        krull_dimension(Ideal(R2, [R2.one()]))
    assert "empty variety" in str(info.value)


# -- zero-dimensional radicals ---------------------------------------------------------


def test_radical_of_x_squared():
    rad = zero_dim_radical(Ideal(R1, [P("x^2", R1)]))
    assert ideal_equal(rad, Ideal(R1, [R1.var("x")]))


def test_already_radical_unchanged():
    I = Ideal(R1, [P("(x - 1)*(x - 2)", R1)])
    rad = zero_dim_radical(I)
    assert rad is I
    assert quotient_dimension(rad) == 2


def test_double_cover_fiber_has_two_points():
    I = Ideal(ST, [P("s^2 - t^2", ST), P("s*(s^2 - t^2)", ST), P("t - 1", ST)])
    rad = zero_dim_radical(I)
    assert quotient_dimension(rad) == 2


def test_radical_requires_zero_dimensional():
    with pytest.raises(PreconditionError):
        zero_dim_radical(Ideal(R2, [R2.var("x")]))


def test_shape_lemma_exit_returns_the_ideal_after_one_eliminant():
    # x takes the two values 1 and -1 once each: Q[x,y]/I = Q[x]/(x^2 - 1)
    I = Ideal(R2, [P("x^2 - 1", R2), P("y - 2*x", R2)])
    rad = zero_dim_radical(I)
    assert rad is I
    assert set(I._algebra.eliminants) == {0}


def test_radical_when_no_variable_separates_the_points():
    # (+-1, +-1): both eliminants are squarefree of degree 2 < 4
    I = Ideal(R2, [P("x^2 - 1", R2), P("y^2 - 1", R2)])
    rad = zero_dim_radical(I)
    assert rad is I
    assert quotient_dimension(rad) == 4
    F = PolyMap((P("x^2", R2), P("y^2", R2)))
    assert fiber_points_count(F, (1, 1)) == 4


def test_radical_of_a_non_reduced_point():
    I = Ideal(XYZ, [P("x^2", XYZ), P("y^2 - x", XYZ), P("z - y", XYZ)])
    assert quotient_dimension(I) == 4
    rad = zero_dim_radical(I)
    assert quotient_dimension(rad) == 1
    assert ideal_equal(rad, Ideal(XYZ, list(XYZ.gens())))


def test_radical_of_a_fiber_with_a_double_point():
    # over (2, 0): x^3 - 3x - 2 = (x - 2)(x + 1)^2, so x separates the points
    # (2, 4) and (-1, 1) but its eliminant has degree 3 = length, not squarefree
    F = PolyMap((P("x^3 - 3*x", R2), P("y - x^2", R2)))
    I = Ideal(R2, [P("x^3 - 3*x - 2", R2), P("y - x^2", R2)])
    assert univariate_eliminant(I, "x") == P("(x - 2)*(x + 1)*(x + 1)", R1)
    assert quotient_dimension(zero_dim_radical(I)) == 2
    assert fiber_points_count(F, (2, 0), distinct=False) == 3
    assert fiber_points_count(F, (2, 0)) == 2


def test_radical_never_grows_dimension():
    rng = SplitMix64(11)
    for _ in range(15):
        f = P("x^2", R2) + random_polynomial(rng, R2, max_degree=1, coeff_bound=2)
        g = P("y^3", R2) + random_polynomial(rng, R2, max_degree=2, coeff_bound=2)
        I = Ideal(R2, [f, g])
        d = quotient_dimension(I)
        if d == INFINITY:
            continue
        assert quotient_dimension(zero_dim_radical(I)) <= d


# -- univariate eliminants ----------------------------------------------------------


def test_eliminant_of_the_unit_ideal_is_one():
    g = univariate_eliminant(Ideal(R2, [P("x*y - 1", R2), R2.var("x")]), "y")
    assert g == PolyRing(("y",)).one()


@pytest.mark.parametrize("var", ["x", "y", 0, 1])
def test_eliminant_needs_a_zero_dimensional_ideal(var):
    with pytest.raises(PreconditionError) as info:
        univariate_eliminant(Ideal(R2, [R2.var("x")]), var)
    assert "not zero-dimensional" in str(info.value)


def test_eliminant_is_the_minimal_polynomial():
    # x = 2^(1/6) generates the algebra; y = x^3 = sqrt(2) has degree 2
    I = Ideal(R2, [P("x^3 - y", R2), P("y^2 - 2", R2)])
    assert univariate_eliminant(I, "x") == P("x^6 - 2", R1)
    assert univariate_eliminant(I, 1) == P("y^2 - 2", PolyRing(("y",)))


def test_eliminant_cancels_inside_the_krylov_loop():
    I = Ideal(R2, [P("x^3 - y", R2), P("y^2 - 2", R2)])
    dim = quotient_dimension(I)  # the basis is cached: no polls before M_x
    polls = []

    def cancel():
        polls.append(1)
        return len(polls) > dim + 2

    with pytest.raises(ComputationCancelled):
        univariate_eliminant(I, "x", GuardConfig(cancel=cancel))
    # one poll per column of M_x, then the third Krylov step fires
    assert len(polls) == dim + 3
    assert not I._algebra.eliminants
    assert univariate_eliminant(I, "x") == P("x^6 - 2", R1)


# -- gcd / lcm / squarefree -----------------------------------------------------------


def test_gcd_of_coprime():
    assert poly_gcd(P("y^2 - x^6", R2), P("-6*x^5", R2)) == R2.one()


def test_gcd_lcm_product_relation():
    a = P("x^2*y", R2)
    b = P("x*y^2", R2)
    assert poly_lcm(a, b) == P("x^2*y^2", R2)
    assert poly_gcd(a, b) == P("x*y", R2)


def test_squarefree_part_of_a_square():
    assert squarefree_part(P("x^2", R2)) == R2.var("x")
    cube = P("(x - y)*(x - y)*(x + y)", R2)
    assert squarefree_part(cube) == P("(x - y)*(x + y)", R2).monic()


def test_squarefree_part_keeps_squarefree():
    g = P("y^2 - x^6", R2)
    assert squarefree_part(g) == g.monic()


def test_univariate_squarefree():
    g = P("x^3 - x^2", R1)  # x^2 (x - 1)
    assert univariate_squarefree(g) == P("x^2 - x", R1)
