"""Germ invariants: local multiplicity, cones, Lelong numbers, images, fibers."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlab import (
    LOCAL_DEGREVLEX,
    GuardConfig,
    Ideal,
    PolyMap,
    PolyRing,
    fiber_points_count,
    ideal_equal,
    identity_map,
    image_ideal,
    is_smooth_at_origin,
    lelong_degree,
    local_multiplicity,
    radical_membership,
    rational_points,
    singular_locus,
    tangent_cone,
)
from germlab.errors import PreconditionError
from germlab.gb import ComputationCancelled
from germlab.germ import _rational_roots, local_multiplicity_report
from germlab.intersect import SplitMix64

from helpers import P, random_polynomial

R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "t"))
ST = PolyRing(("s", "t"))
UV = PolyRing(("u", "v"))


def paper_map():
    return PolyMap(
        (P("s^2 - t^2", ST), P("s*(s^2 - t^2)", ST), ST.var("t")),
        PolyRing(("x", "y", "t")),
    )


# -- local multiplicity ---------------------------------------------------------


def test_identity_has_multiplicity_one():
    assert local_multiplicity(identity_map(R2)) == 1


def test_projected_normalization_has_multiplicity_two():
    F = PolyMap((P("s^2 - t^2", ST), ST.var("t")))
    assert local_multiplicity(F) == 2


def test_substitution_oracle_multiplicity_three():
    # On x + y = 0 the first component becomes -x^3, so the local algebra is
    # spanned by 1, x, x^2.
    F = PolyMap((P("x^2*y", R2), P("x + y", R2)))
    assert local_multiplicity(F) == 3


def test_non_finite_germ_raises():
    F = PolyMap((P("x*y", R2), R2.var("x")))
    with pytest.raises(PreconditionError) as info:
        local_multiplicity(F)
    assert "not finite" in str(info.value)


def test_non_germ_rejected():
    F = PolyMap((P("x + 1", R2), R2.var("y")))
    with pytest.raises(PreconditionError):
        local_multiplicity(F)


def test_multiplicity_witness_rechecks():
    F = PolyMap((P("x^2*y", R2), P("x + y", R2)))
    report = local_multiplicity_report(F)
    assert report.value == 3
    assert len(report.witness["staircase"]) == report.value


def _degree_k_germ(k):
    R = PolyRing(("x", "y", "z"))
    return PolyMap((P(f"x^{k} + y^{k - 1} + x*z^{k - 2}", R),
                    P(f"y^{k} + z^{k - 1} + x^2*y^{k - 3}", R),
                    P(f"z^{k} + x^{k - 1}*y + y^{k - 2}*z", R)))


@pytest.mark.parametrize("k,expected", [(3, 8), (4, 32), (5, 74)])
def test_degree_k_family_pinned(k, expected):
    # k = 4, 5 stall Mora; the Macaulay matrix stops at degree 13 or below
    assert local_multiplicity(_degree_k_germ(k)) == expected


def test_curve_germ_is_not_finite_after_the_mora_hand_off():
    R = PolyRing(("x", "y", "z"))
    F = PolyMap((P("x^6+y*z^5+y^6", R), P("y^6+x*z^5", R), P("x*y+x^2*z^4", R)))
    with pytest.raises(PreconditionError) as info:
        local_multiplicity(F, GuardConfig(max_degree=16))
    assert "not finite" in str(info.value)


def test_non_finite_with_a_zero_component():
    F = PolyMap((P("x^2 + y^3", R2), R2.zero()))
    with pytest.raises(PreconditionError):
        local_multiplicity(F)


def test_report_staircase_is_the_standard_basis_staircase():
    R = PolyRing(("x", "y", "z"))
    F = PolyMap((P("x^3+y^2*z+z^4", R), P("y^3+x*z^2", R),
                 P("z^3+x^2*y+x*y*z", R)))
    report = local_multiplicity_report(F)
    assert report.value == 27 == len(report.witness["staircase"])
    I = Ideal(R, F.components)
    gb = I.basis(LOCAL_DEGREVLEX)
    assert report.witness["standard_basis"] == [str(p) for p in gb.basis]
    leading = gb.leading_exponents
    for text in report.witness["staircase"]:
        e = P(text, R).terms[0][0]
        assert not any(all(a <= b for a, b in zip(l, e)) for l in leading)


# -- tangent cones ----------------------------------------------------------------


def test_cone_of_the_surface_family():
    I = Ideal(R3, [P("y^2 - x^2*(x + t^2)", R3)])
    assert ideal_equal(tangent_cone(I), Ideal(R3, [P("y^2", R3)]))


def test_cone_of_graph():
    I = Ideal(R2, [P("y - x^3", R2)])
    assert ideal_equal(tangent_cone(I), Ideal(R2, [R2.var("y")]))


def test_cone_fixes_homogeneous():
    I = Ideal(R2, [P("x^2 - y^2", R2)])
    assert ideal_equal(tangent_cone(I), I)


def test_cone_generators_are_homogeneous():
    rng = SplitMix64(5)
    for _ in range(10):
        g = random_polynomial(rng, R2, max_degree=3, force_germ=True)
        cone = tangent_cone(Ideal(R2, [g, P("x^2*y", R2)]))
        for c in cone.generators:
            assert c.is_homogeneous()
            assert c.initial_form() == c


def test_cone_needs_origin():
    with pytest.raises(PreconditionError):
        tangent_cone(Ideal(R2, [P("x - 1", R2)]))


# -- lelong degrees ----------------------------------------------------------------


def test_lelong_of_the_surface_family():
    assert lelong_degree(Ideal(R3, [P("y^2 - x^2*(x + t^2)", R3)])) == 2


def test_lelong_of_linear_subspace():
    assert lelong_degree(Ideal(R3, [R3.var("x"), R3.var("y")])) == 1


def test_lelong_of_cusp():
    assert lelong_degree(Ideal(UV, [P("v^2 - u^3", UV)])) == 2


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_lelong_equals_vanishing_order_on_hypersurfaces(seed):
    rng = SplitMix64(seed)
    g = random_polynomial(rng, R2, max_degree=4, max_terms=4, force_germ=True)
    assert lelong_degree(Ideal(R2, [g])) == g.order_at_origin()


def test_lelong_one_for_smooth():
    for gens in ([P("y - x^3", R2)], [R2.var("x")]):
        I = Ideal(R2, gens)
        assert is_smooth_at_origin(I)
        assert lelong_degree(I) == 1


# -- image ideals ----------------------------------------------------------------


def test_image_of_the_normalization():
    img = image_ideal(paper_map())
    target = Ideal(img.ring, [P("y^2 - x^2*(x + t^2)", img.ring)])
    assert ideal_equal(img, target)


def test_image_of_the_smooth_branch():
    F = PolyMap((P("x^2", R2), R2.var("y")), UV)
    img = image_ideal(F, Ideal(R2, [P("y - x^3", R2)]))
    assert ideal_equal(img, Ideal(UV, [P("u^3 - v^2", UV)]))


def test_image_under_identity():
    I = Ideal(R2, [P("y - x^3", R2)])
    img = image_ideal(identity_map(R2), I)
    assert ideal_equal(img, I)


def test_dominant_square_map_has_zero_image_ideal():
    F = PolyMap((P("x^2", R2), R2.var("y")))
    assert image_ideal(F).is_zero


# -- singular loci ----------------------------------------------------------------


def test_singular_locus_is_the_t_axis():
    I = Ideal(R3, [P("y^2 - x^2*(x + t^2)", R3)])
    sng = singular_locus(I)
    t_axis = Ideal(R3, [R3.var("x"), R3.var("y")])
    assert radical_membership(R3.var("x"), sng)
    assert radical_membership(R3.var("y"), sng)
    for g in sng.generators:
        assert radical_membership(g, t_axis)


def test_smooth_graph_has_empty_singular_locus():
    sng = singular_locus(Ideal(R2, [P("y - x^3", R2)]))
    assert sng.basis().is_unit_ideal


def test_cusp_singular_only_at_origin():
    sng = singular_locus(Ideal(UV, [P("v^2 - u^3", UV)]))
    assert radical_membership(UV.var("u"), sng)
    assert radical_membership(UV.var("v"), sng)


def test_lelong_report_warns_on_non_reduced():
    from germlab.germ import lelong_report

    clean = lelong_report(Ideal(R2, [P("y^2 - x^3", R2)]))
    assert clean.value == 2 and clean.warnings == ()
    doubled = lelong_report(Ideal(R2, [P("x^2", R2)]))
    assert doubled.value == 2  # algebraic multiplicity of the doubled line
    assert any("not reduced" in w for w in doubled.warnings)


def test_dominant_image_is_zero_for_random_finite_germs():
    rng = SplitMix64(21)
    for case in range(10):
        a, b = 1 + case % 3, 1 + case % 2
        Y = PolyRing(("y",))
        h = random_polynomial(rng, Y, max_degree=2, max_terms=2,
                              force_germ=True).substitute([R2.var("y")])
        F = PolyMap((R2.var("x") ** a + h, R2.var("y") ** b))
        assert image_ideal(F).is_zero


# -- smoothness ----------------------------------------------------------------


def test_graph_is_smooth():
    assert is_smooth_at_origin(Ideal(R2, [P("y - x^3", R2)]))


def test_cusp_is_not_smooth():
    assert not is_smooth_at_origin(Ideal(UV, [P("v^2 - u^3", UV)]))


def test_linear_ideal_is_smooth():
    assert is_smooth_at_origin(Ideal(R2, [R2.var("x"), R2.var("y")]))


def test_principal_squarefreeness_is_enforced():
    # x^2 cuts out the same line as x; the doubled structure must not make
    # the smoothness test fail or pollute the singular locus
    assert is_smooth_at_origin(Ideal(R2, [P("x^2", R2)]))
    sng = singular_locus(Ideal(R2, [P("x^2", R2)]))
    assert sng.basis().is_unit_ideal


def test_smoothness_needs_origin():
    with pytest.raises(PreconditionError):
        is_smooth_at_origin(Ideal(R2, [P("x - 1", R2)]))


# -- fibers ----------------------------------------------------------------


def test_fiber_over_regular_point_is_single():
    assert fiber_points_count(paper_map(), (3, 6, 1)) == 1


def test_fiber_over_singular_point_is_double():
    assert fiber_points_count(paper_map(), (0, 0, 1)) == 2


def test_fiber_of_projected_map():
    F = PolyMap((P("s^2 - t^2", ST), ST.var("t")))
    assert fiber_points_count(F, (3, 1)) == 2


def test_positive_dimensional_fiber_rejected():
    F = PolyMap((R2.var("x"), R2.var("x")))
    with pytest.raises(PreconditionError) as info:
        fiber_points_count(F, (0, 0))
    assert "fiber not finite" in str(info.value)


def test_rational_points_of_fiber():
    F = PolyMap((P("x^2", R2), R2.var("y")))
    from germlab.germ import fiber_ideal

    pts = rational_points(fiber_ideal(F, (1, 0)))
    assert pts == [(-1, 0), (1, 0)]


def test_rational_roots_poll_the_cancel_token():
    # trial division up to sqrt(10^16 + 61) would run for seconds
    R1 = PolyRing(("x",))
    I = Ideal(R1, [P("x^2 - 10000000000000061", R1)])
    start = time.perf_counter()
    guards = GuardConfig(cancel=lambda: time.perf_counter() > start + 0.05)
    with pytest.raises(ComputationCancelled):
        rational_points(I, guards)
    assert time.perf_counter() - start < 1.0


def test_rational_roots_of_a_product():
    R1 = PolyRing(("x",))
    g = P("(3*x - 1)*(2*x + 5)*(x^2 + 1)*x", R1)
    assert _rational_roots(g) == [Fraction(-5, 2), 0, Fraction(1, 3)]
