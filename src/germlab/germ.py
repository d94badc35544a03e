"""Germ-level invariants at the origin.

Local multiplicity of a finite square map germ (dimension of the local
algebra, from the truncated Macaulay matrix of :func:`gb.local_colength`,
which hands over to Mora's standard basis only when it cannot decide within
its limits), tangent cones (ideals of initial forms of a standard
basis), Lelong numbers computed as the Hilbert-Samuel multiplicity of the
tangent cone, Zariski closures of images by elimination, singular loci by
Jacobian minors, the Jacobian smoothness test at the origin, and exact fiber
point counting.

Only polynomial defining data is accepted; the local monomial order is what
carries the "arbitrarily small neighbourhood of 0" semantics, and fiber
counts are global-affine with callers expected to sample target points of
small height so that all solutions are the germ-local ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import PreconditionError
from .gb import (
    DEFAULT_GUARDS,
    GuardConfig,
    Ideal,
    _check_cancel,
    eliminate,
    hilbert_samuel_multiplicity,
    krull_dimension,
    local_colength,
    quotient_dimension,
    univariate_eliminant,
    zero_dim_radical,
)
from .orders import DEGREVLEX, LOCAL_DEGREVLEX
from .poly import (
    INFINITY,
    PolyMap,
    PolyRing,
    Polynomial,
    determinant,
)


@dataclass(frozen=True)
class GermReport:
    """An invariant value together with witness data sufficient to re-check it."""

    invariant: str
    inputs: Dict[str, str]
    value: object
    witness: Dict[str, object] = field(default_factory=dict)
    warnings: Tuple[str, ...] = ()


def _require_origin_in_zero_set(I: Ideal) -> None:
    for g in I.generators:
        if g.constant_term() != 0:
            raise PreconditionError(
                "origin not in zero set: a generator has nonzero constant term"
            )


def germ_ideal(F: PolyMap) -> Ideal:
    return Ideal(F.domain, F.components)


def _local_colength(F: PolyMap, guards: GuardConfig):
    F.require_square()
    F.require_germ()
    I = germ_ideal(F)
    dim, stairs = local_colength(I, guards)
    if dim == INFINITY:
        raise PreconditionError("map germ is not finite at 0")
    return I, int(dim), stairs


def local_multiplicity(F: PolyMap,
                       guards: GuardConfig = DEFAULT_GUARDS) -> int:
    """Covering number m_0(F) of a finite square germ: the dimension of the
    local algebra O_0/(F_1..F_m), from the truncated Macaulay matrix of
    :func:`gb.local_colength` (Mora's standard basis only when that cannot
    decide within its limits)."""
    return _local_colength(F, guards)[1]


def local_multiplicity_report(F: PolyMap,
                              guards: GuardConfig = DEFAULT_GUARDS) -> GermReport:
    """m_0(F) with its witnesses: the local staircase, which comes with the
    value, and Mora's standard basis of (F), whose leading monomials bound
    that staircase."""
    I, value, stairs = _local_colength(F, guards)
    gb = I.basis(LOCAL_DEGREVLEX, guards)
    return GermReport(
        "local_multiplicity",
        {"map": str(F)},
        value,
        {
            "standard_basis": [str(p) for p in gb.basis],
            "staircase": [_mono_str(F.domain, e) for e in stairs],
        },
    )


def _mono_str(ring: PolyRing, exps: Sequence[int]) -> str:
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(ring.variables, exps)
        if e
    ]
    return "*".join(parts) if parts else "1"


def tangent_cone(I: Ideal, guards: GuardConfig = DEFAULT_GUARDS) -> Ideal:
    """Homogeneous ideal of initial forms of a standard basis; defines C_0."""
    _require_origin_in_zero_set(I)
    if I.is_zero:
        return I
    sb = I.basis(LOCAL_DEGREVLEX, guards)
    return Ideal(I.ring, [p.initial_form() for p in sb.basis])


def lelong_degree(I: Ideal, guards: GuardConfig = DEFAULT_GUARDS) -> int:
    """Local degree deg_0 (Lelong number) of the germ V(I), computed as the
    Hilbert-Samuel multiplicity of the tangent cone.

    For reduced pure-dimensional germs this is the density of the germ at 0;
    for a principal ideal it equals the vanishing order of the generator.
    Non-reduced input yields the algebraic multiplicity (flagged by callers).
    """
    cone = tangent_cone(I, guards)
    if cone.is_zero:
        return 1
    return hilbert_samuel_multiplicity(cone, guards)


def lelong_report(I: Ideal, guards: GuardConfig = DEFAULT_GUARDS) -> GermReport:
    cone = tangent_cone(I, guards)
    value = lelong_degree(I, guards)
    warnings = []
    gens = I.generators
    if len(gens) == 1:
        if _principal_reduced(I, guards) is not I:
            warnings.append("input not reduced: the value is the algebraic "
                            "multiplicity of the non-reduced structure")
    elif gens and not all(g.total_degree() <= 1 for g in gens):
        warnings.append("multiplicity computed algebraically "
                        "(input neither principal nor linear)")
    return GermReport(
        "lelong_degree",
        {"ideal": "; ".join(str(g) for g in gens)},
        value,
        {"tangent_cone": [str(p) for p in cone.generators]},
        tuple(warnings),
    )


def _disjoint_domain_names(domain: PolyRing, codomain: PolyRing) -> Tuple[str, ...]:
    names = []
    taken = set(codomain.variables)
    for name in domain.variables:
        fresh = name
        while fresh in taken:
            fresh += "_"
        taken.add(fresh)
        names.append(fresh)
    return tuple(names)


def image_ideal(F: PolyMap, I: Optional[Ideal] = None,
                guards: GuardConfig = DEFAULT_GUARDS) -> Ideal:
    """Ideal of the Zariski closure of F(V(I)) in the codomain ring.

    ``I = None`` (or the zero ideal) gives the closure of the image of the
    whole domain.  Computed by eliminating the domain variables from
    I + (w_j - F_j); domain variables are renamed when they collide with
    codomain names.
    """
    domain = F.domain
    codomain = F.codomain_ring
    if I is None:
        I = Ideal(domain, [])
    if I.ring != domain:
        raise PreconditionError("constraint ideal must live in the map's domain")
    dom_names = _disjoint_domain_names(domain, codomain)
    big = PolyRing(dom_names + codomain.variables)
    m = domain.arity

    def lift_domain(p: Polynomial) -> Polynomial:
        pad = codomain.arity
        return big.polynomial({e + (0,) * pad: c for e, c in p.terms})

    gens = [lift_domain(g) for g in I.generators]
    for j, comp in enumerate(F.components):
        w = big.var(m + j)
        gens.append(w - lift_domain(comp))
    eliminated = eliminate(Ideal(big, gens), list(range(m)), guards)
    # eliminate() already returns the ideal in the codomain-variable ring
    return Ideal(codomain, [g.monic() for g in eliminated.basis(DEGREVLEX, guards).basis])


def _principal_reduced(I: Ideal, guards: GuardConfig) -> Ideal:
    """Enforce radical generators for principal ideals.

    Radicality is the caller's responsibility in general, but for a single
    generator squarefreeness is decidable: g is squarefree iff (g, grad g)
    has codimension at least 2.  The squarefree part (a gcd computation) is
    only taken when that check fails, so reduced inputs pay one basis.
    """
    if len(I.generators) != 1:
        return I
    g = I.generators[0]
    if g.is_constant:
        return I
    from .gb import squarefree_part

    jac = Ideal(I.ring, [g] + [g.partial(j) for j in range(I.ring.arity)])
    if jac.basis(DEGREVLEX, guards).is_unit_ideal:
        return I
    if krull_dimension(jac, guards) < I.ring.arity - 1:
        return I
    return Ideal(I.ring, [squarefree_part(g, guards)])


def singular_locus(I: Ideal, guards: GuardConfig = DEFAULT_GUARDS) -> Ideal:
    """I plus all c x c minors of the Jacobian of the generators, where c is
    the codimension.  Defines Sng V(I) when I is radical and equidimensional
    with the given generators; otherwise a conservative superset.  Principal
    inputs are reduced first (squarefreeness checked and enforced)."""
    gb = I.basis(DEGREVLEX, guards)
    if gb.is_unit_ideal:
        raise PreconditionError("singular locus of the empty variety")
    I = _principal_reduced(I, guards)
    ring = I.ring
    c = ring.arity - krull_dimension(I, guards)
    if c == 0:
        return Ideal(ring, [ring.one()])
    gens = list(I.generators)
    rows = [[g.partial(j) for j in range(ring.arity)] for g in gens]
    from itertools import combinations

    minors: List[Polynomial] = []
    for ris in combinations(range(len(gens)), c):
        for cis in combinations(range(ring.arity), c):
            sub = [[rows[r][cc] for cc in cis] for r in ris]
            m = determinant(sub, ring)
            if not m.is_zero:
                minors.append(m)
    return Ideal(ring, gens + minors)


def is_smooth_at_origin(I: Ideal, guards: GuardConfig = DEFAULT_GUARDS) -> bool:
    """Jacobian criterion: rank of the Jacobian of the generators at 0 equals
    the codimension.  The caller supplies radical generators; principal
    inputs are reduced first (squarefreeness checked and enforced)."""
    _require_origin_in_zero_set(I)
    if I.is_zero:
        return True
    I = _principal_reduced(I, guards)
    dim = krull_dimension(I, guards)
    jac_at_zero = [
        [Fraction(g.partial(j).constant_term()) for j in range(I.ring.arity)]
        for g in I.generators
    ]
    return _rank(jac_at_zero) == I.ring.arity - dim


def _rank(M: List[List[Fraction]]) -> int:
    M = [row[:] for row in M]
    rank = 0
    cols = len(M[0]) if M else 0
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, len(M)):
            if M[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        M[row], M[pivot] = M[pivot], M[row]
        pv = M[row][col]
        for r in range(row + 1, len(M)):
            if M[r][col] != 0:
                f = M[r][col] / pv
                M[r] = [a - f * b for a, b in zip(M[r], M[row])]
        row += 1
        rank += 1
        if row == len(M):
            break
    return rank


def fiber_ideal(F: PolyMap, y: Sequence[Union[int, Fraction]],
                constraints: Optional[Ideal] = None) -> Ideal:
    """The ideal (F_1 - y_1, ..., F_n - y_n) [+ constraint generators]."""
    if len(y) != F.codomain_arity:
        raise PreconditionError(
            f"target point has {len(y)} coordinates, map has "
            f"{F.codomain_arity} components"
        )
    gens = [c - Fraction(v) for c, v in zip(F.components, y)]
    if constraints is not None:
        if constraints.ring != F.domain:
            raise PreconditionError("constraints live outside the map's domain")
        gens.extend(constraints.generators)
    return Ideal(F.domain, gens)


def fiber_points_count(F: PolyMap, y: Sequence[Union[int, Fraction]],
                       distinct: bool = True,
                       constraints: Optional[Ideal] = None,
                       guards: GuardConfig = DEFAULT_GUARDS) -> int:
    """Number of affine points of F^{-1}(y) (within the constraint variety),
    distinct or counted with multiplicity."""
    J = fiber_ideal(F, y, constraints)
    count = quotient_dimension(J, DEGREVLEX, guards)
    if count == INFINITY:
        raise PreconditionError("fiber not finite")
    if not distinct:
        return int(count)
    return int(quotient_dimension(zero_dim_radical(J, guards), DEGREVLEX, guards))


def rational_points(I: Ideal, guards: GuardConfig = DEFAULT_GUARDS
                    ) -> List[Tuple[Fraction, ...]]:
    """All rational points of a zero-dimensional variety.

    Coordinates of rational points are rational roots of the per-variable
    eliminants, so the candidate grid (rational root theorem) is complete.
    """
    if quotient_dimension(I, DEGREVLEX, guards) == INFINITY:
        raise PreconditionError("rational_points needs a zero-dimensional ideal")
    per_var_roots: List[List[Fraction]] = []
    for i in range(I.ring.arity):
        g = univariate_eliminant(I, i, guards)
        per_var_roots.append(_rational_roots(g, guards))
    points: List[Tuple[Fraction, ...]] = []

    def rec(prefix: Tuple[Fraction, ...]):
        if len(prefix) == I.ring.arity:
            if all(g.evaluate(prefix) == 0 for g in I.generators):
                points.append(prefix)
            return
        for r in per_var_roots[len(prefix)]:
            rec(prefix + (r,))

    rec(())
    return sorted(points)


def _rational_roots(g: Polynomial,
                    guards: GuardConfig = DEFAULT_GUARDS) -> List[Fraction]:
    """Rational roots of a univariate polynomial, by the rational root theorem.

    Divisors are found by trial division up to the square root, which polls
    ``guards.cancel`` every 4096 candidates."""
    coeffs = [0] * (g.total_degree() + 1)
    for (e,), c in g.terms:
        coeffs[e] = c
    # clear denominators to integers
    from math import isqrt, lcm

    den = 1
    for c in coeffs:
        if c:
            den = lcm(den, Fraction(c).denominator)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    lead = abs(ints[-1])
    k = 0
    while k < len(ints) and ints[k] == 0:
        k += 1
    roots = set()
    if k > 0:
        roots.add(Fraction(0))
    tail = abs(ints[k])

    def divisors(n: int) -> List[int]:
        out = []
        root = isqrt(n)
        for start in range(1, root + 1, 4096):
            _check_cancel(guards)
            for d in range(start, min(start + 4096, root + 1)):
                if n % d == 0:
                    out.append(d)
                    out.append(n // d)
        return out

    lead_divisors = divisors(lead)
    for p in divisors(tail):
        for q in lead_divisors:
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                if g.evaluate([cand]) == 0:
                    roots.add(cand)
    return sorted(roots)
