"""The intersection-theoretic procedures: multiplicity oracles, the improper
intersection index via generic projection, the corrected multiplicity formula,
Stoll sums, multiplicity along a subvariety, the Jacobian criterion, critical
loci, and the pull-back smoothness pipeline.

Regular multiplicity and multiplicity along a subvariety are Monte-Carlo
oracles over seeded small-height rational samples: deterministic given the
seed, correct for generic samples, and cross-validated against the exact
integer identities they must satisfy.  A violated identity is reported as an
``inconsistent`` verdict, never silently accepted.  The random source is a
self-contained splitmix64 generator so that identical configs give identical
outputs on every platform and Python version.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import PreconditionError
from .gb import (
    DEFAULT_GUARDS,
    GuardConfig,
    Ideal,
    is_squarefree,
    krull_dimension,
    quotient_dimension,
    radical_equal,
    radical_membership,
    squarefree_part,
    zero_dim_radical,
)
from .germ import (
    fiber_points_count,
    image_ideal,
    is_smooth_at_origin,
    lelong_degree,
    local_multiplicity,
    rational_points,
    singular_locus,
    tangent_cone,
    fiber_ideal,
)
from .orders import DEGREVLEX
from .poly import (
    INFINITY,
    PolyMap,
    Polynomial,
    compose_map,
    jacobian_determinant,
    linear_map,
)


# ---------------------------------------------------------------------------
# deterministic sampling
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


class SplitMix64:
    """Tiny deterministic PRNG; stable across platforms and Python versions."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


@dataclass(frozen=True)
class GenericityConfig:
    """Seeded sampling configuration; identical config => identical outputs."""

    seed: int = 0
    samples: int = 5
    retries: int = 3
    numerator_bound: int = 3
    denominators: Tuple[int, ...] = (8, 16, 32)


DEFAULT_CONFIG = GenericityConfig()


class RationalSampler:
    """Draws distinct small-height rational points, optionally constrained to
    a coordinate subspace (zero outside the listed free coordinates)."""

    def __init__(self, cfg: GenericityConfig, label: str = ""):
        self.cfg = cfg
        self.rng = SplitMix64((cfg.seed ^ _fnv1a64(label)) * 0x9E3779B97F4A7C15 + 1)
        self._seen = set()

    def point(self, arity: int,
              free: Optional[Sequence[int]] = None) -> Tuple[Fraction, ...]:
        indices = list(range(arity)) if free is None else list(free)
        if not indices:
            return (Fraction(0),) * arity
        bound = self.cfg.numerator_bound
        for _ in range(256):
            coords = [Fraction(0)] * arity
            for i in indices:
                num = 0
                while num == 0:
                    num = self.rng.randint(-bound, bound)
                coords[i] = Fraction(num, self.rng.choice(self.cfg.denominators))
            pt = tuple(coords)
            if pt not in self._seen:
                self._seen.add(pt)
                return pt
        raise PreconditionError("sample space exhausted; raise the height bound")


def sample_generic_points(cfg: GenericityConfig, arity: int, count: int,
                          free: Optional[Sequence[int]] = None
                          ) -> List[Tuple[Fraction, ...]]:
    """``count`` distinct seeded-deterministic points (the sampling oracle)."""
    sampler = RationalSampler(cfg, "sample_generic_point")
    return [sampler.point(arity, free) for _ in range(count)]


def sample_generic_point(cfg: GenericityConfig, arity: int,
                         free: Optional[Sequence[int]] = None
                         ) -> Tuple[Fraction, ...]:
    return sample_generic_points(cfg, arity, 1, free)[0]


# ---------------------------------------------------------------------------
# coordinate subspaces and graph normalization
# ---------------------------------------------------------------------------


def coordinate_free_indices(V: Ideal) -> Tuple[int, ...]:
    """Free coordinates of a coordinate-subspace ideal (generated by single
    variables); raises the normalize-first error otherwise."""
    killed = set()
    for g in V.generators:
        if len(g.terms) != 1:
            raise PreconditionError("normalize V first: not a coordinate subspace")
        e, _ = g.terms[0]
        support = [i for i, x in enumerate(e) if x]
        if len(support) != 1 or e[support[0]] != 1:
            raise PreconditionError("normalize V first: not a coordinate subspace")
        killed.add(support[0])
    return tuple(i for i in range(V.ring.arity) if i not in killed)


def normalize_graph_subspace(V: Ideal
                             ) -> Optional[Tuple[PolyMap, Ideal, Tuple[int, ...]]]:
    """For graph-shaped V (generators x_j - h_j(front variables)) return the
    shear phi with phi({back = 0}) = V, the coordinate-subspace ideal, and the
    free indices.  Returns None when V is not of that shape."""
    ring = V.ring
    n = ring.arity
    assignments: Dict[int, Polynomial] = {}
    for g in V.generators:
        chosen = None
        for j in range(n):
            if j in assignments:
                continue
            unit = tuple(1 if i == j else 0 for i in range(n))
            coeff = Fraction(0)
            ok = True
            for e, c in g.terms:
                if e == unit:
                    coeff = c
                elif e[j] != 0:
                    ok = False
                    break
            if ok and coeff != 0:
                chosen = (j, coeff)
                break
        if chosen is None:
            return None
        j, c = chosen
        h = -(g * (1 / c) - ring.var(j))
        assignments[j] = h
    back = set(assignments)
    for h in assignments.values():
        if any(e[k] != 0 for e, _ in h.terms for k in back):
            return None
    comps = []
    for i in range(n):
        comps.append(ring.var(i) + assignments[i] if i in back else ring.var(i))
    phi = PolyMap(tuple(comps), ring)
    subspace = Ideal(ring, [ring.var(j) for j in sorted(back)])
    free = tuple(i for i in range(n) if i not in back)
    return phi, subspace, free


# ---------------------------------------------------------------------------
# multiplicity oracles
# ---------------------------------------------------------------------------


def regular_multiplicity_details(F: PolyMap, V: Optional[Ideal] = None,
                                 cfg: GenericityConfig = DEFAULT_CONFIG,
                                 guards: GuardConfig = DEFAULT_GUARDS
                                 ) -> Tuple[int, Dict[str, object]]:
    """Regular multiplicity plus the samples that witnessed it."""
    F.require_germ()
    if V is None:
        free: Tuple[int, ...] = tuple(range(F.domain.arity))
        constraints = None
    else:
        free = coordinate_free_indices(V)
        constraints = V
    img = image_ideal(F, constraints, guards)
    sing = singular_locus(img, guards)
    sampler = RationalSampler(cfg, "regular_multiplicity")
    counts: List[int] = []
    kept: List[Tuple[Fraction, ...]] = []
    discarded: List[Tuple[Fraction, ...]] = []
    for _ in range(cfg.retries + 1):
        for _ in range(cfg.samples):
            x = sampler.point(F.domain.arity, free)
            y = F(x)
            if all(g.evaluate(y) == 0 for g in sing.generators):
                discarded.append(y)  # over the singular part of the image
                continue
            kept.append(y)
            counts.append(
                fiber_points_count(F, y, distinct=True, constraints=constraints,
                                   guards=guards)
            )
        if counts:
            witness = {
                "image_samples": kept,
                "discarded_singular_samples": discarded,
                "fiber_counts": counts,
            }
            return max(counts), witness
    raise PreconditionError("no regular sample found")


def regular_multiplicity(F: PolyMap, V: Optional[Ideal] = None,
                         cfg: GenericityConfig = DEFAULT_CONFIG,
                         guards: GuardConfig = DEFAULT_GUARDS) -> int:
    """Sampling oracle for the regular multiplicity: the covering number over
    the regular part of the image.

    Draws source points (on the coordinate subspace V if given), discards
    image points landing on the singular locus of the image, and returns the
    maximum distinct fiber count over the surviving samples.
    """
    value, _ = regular_multiplicity_details(F, V, cfg, guards)
    return value


def geometric_multiplicity(F: PolyMap,
                           extra_samples: Sequence[Sequence[Union[int, Fraction]]] = (),
                           cfg: GenericityConfig = DEFAULT_CONFIG,
                           guards: GuardConfig = DEFAULT_GUARDS) -> int:
    """Certified lower bound for the geometric multiplicity: the maximum
    distinct fiber count over generic image samples plus the caller-supplied
    probes (used to reach singular strata of the image)."""
    F.require_germ()
    counts = [
        fiber_points_count(F, tuple(Fraction(v) for v in y), distinct=True,
                           guards=guards)
        for y in extra_samples
    ]
    sampler = RationalSampler(cfg, "geometric_multiplicity")
    for _ in range(cfg.samples):
        x = sampler.point(F.domain.arity)
        counts.append(fiber_points_count(F, F(x), distinct=True, guards=guards))
    return max(counts)


def multiplicity_along_V_details(F: PolyMap, V: Ideal,
                                 cfg: GenericityConfig = DEFAULT_CONFIG,
                                 guards: GuardConfig = DEFAULT_GUARDS
                                 ) -> Tuple[int, Dict[str, object]]:
    """Multiplicity along V plus the sampled points and their local values."""
    F.require_square()
    F.require_germ()
    free = coordinate_free_indices(V)
    sampler = RationalSampler(cfg, "multiplicity_along_V")
    samples: List[Tuple[Fraction, ...]] = []
    values: List[int] = []
    attempts = 0
    limit = cfg.samples * (cfg.retries + 1) + 4
    while len(values) < cfg.samples and attempts < limit:
        attempts += 1
        x = sampler.point(F.domain.arity, free)
        try:
            m = local_multiplicity(F.translate(x), guards)
        except PreconditionError:
            continue  # germ not finite at this sample; thin exceptional set
        samples.append(x)
        values.append(m)
        if not free:
            break  # V = {0}: only one point to look at
    if not values:
        raise PreconditionError("no finite sample found on V")
    return min(values), {"samples": samples, "local_multiplicities": values}


def multiplicity_along_V(F: PolyMap, V: Ideal,
                         cfg: GenericityConfig = DEFAULT_CONFIG,
                         guards: GuardConfig = DEFAULT_GUARDS) -> int:
    """Generic multiplicity of F along the coordinate subspace V: the minimum
    of the translated local multiplicities m_x(F) over sampled x in V."""
    value, _ = multiplicity_along_V_details(F, V, cfg, guards)
    return value


def jacobian_nonvanishing_on(F: PolyMap, V: Ideal,
                             guards: GuardConfig = DEFAULT_GUARDS) -> bool:
    """True iff det Jac F does not vanish identically on V(V)."""
    F.require_square()
    if V.basis(DEGREVLEX, guards).is_unit_ideal:
        raise PreconditionError("V is the unit ideal")
    det = jacobian_determinant(F)
    return not radical_membership(det, V, guards)


# ---------------------------------------------------------------------------
# generic projections and the intersection index
# ---------------------------------------------------------------------------


def projection_genericity_check(image_I: Ideal,
                                kernel_rows: Sequence[Sequence[int]],
                                guards: GuardConfig = DEFAULT_GUARDS) -> bool:
    """True iff the projection with the given matrix rows is admissible: its
    kernel meets the tangent cone of the image only at the origin."""
    cone = tangent_cone(image_I, guards)
    ring = image_I.ring
    forms = []
    for row in kernel_rows:
        if len(row) != ring.arity:
            raise PreconditionError("projection row length does not match arity")
        form = ring.zero()
        for j, a in enumerate(row):
            if a:
                form = form + ring.var(j) * a
        if not form.is_zero:
            forms.append(form)
    J = Ideal(ring, list(cone.generators) + forms)
    if J.basis(DEGREVLEX, guards).is_unit_ideal:
        return False  # cannot happen for homogeneous data; defensive
    return krull_dimension(J, guards) == 0


@dataclass(frozen=True)
class IndexResult:
    """Intersection index value plus the witness projections that realized it."""

    value: int
    projections: Tuple[Tuple[Tuple[int, ...], ...], ...]
    agreed: bool
    warning: Optional[str] = None


def intersection_index(F: PolyMap, cfg: GenericityConfig = DEFAULT_CONFIG,
                       guards: GuardConfig = DEFAULT_GUARDS) -> IndexResult:
    """The isolated intersection index of the graph of F with D x {0}:
    the local multiplicity itself for square F, and otherwise the local
    multiplicity of p o F for independently drawn admissible projections p
    (two agreeing draws are required; disagreement triggers resampling)."""
    F.require_germ()
    m, n = F.domain.arity, F.codomain_arity
    if n < m:
        raise PreconditionError("intersection index needs codomain arity >= domain arity")
    if F.is_square:
        return IndexResult(local_multiplicity(F, guards), (), True, None)
    img = image_ideal(F, None, guards)
    rng = SplitMix64((cfg.seed ^ _fnv1a64("intersection_index")) * 0x9E3779B97F4A7C15 + 1)

    def draw() -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        for _ in range(64):
            rows = tuple(
                tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m)
            )
            if not projection_genericity_check(img, rows, guards):
                continue
            projected = compose_map(linear_map(F.codomain_ring, rows), F)
            try:
                return rows, local_multiplicity(projected, guards)
            except PreconditionError:
                continue  # composite not finite: reject the draw
        raise PreconditionError("no generic projection found")

    seen: List[Tuple[Tuple[Tuple[int, ...], ...], int]] = []
    for _ in range(max(cfg.retries, 1)):
        first = draw()
        second = draw()
        seen.extend([first, second])
        if first[1] == second[1]:
            return IndexResult(first[1], (first[0], second[0]), True, None)
    value = min(c for _, c in seen)
    return IndexResult(value, tuple(p for p, _ in seen), False,
                       "projection candidates disagreed; reporting the minimum")


# ---------------------------------------------------------------------------
# the corrected multiplicity formula
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaReport:
    """Verdict of the corrected formula i0 = regular_mult * lelong, and the
    value the uncorrected (geometric) product would have given.

    ``sampling`` carries the witness image points behind regular_mult so a
    reader can re-run the fiber counts.
    """

    i0: int
    regular_mult: int
    lelong: int
    geometric_mult_lower_bound: int
    holds: bool
    naive_product: int
    index: IndexResult
    sampling: Dict[str, object]
    warnings: Tuple[str, ...] = ()


def verify_intersection_formula(F: PolyMap,
                                extra_samples: Sequence[Sequence[Union[int, Fraction]]] = (),
                                cfg: GenericityConfig = DEFAULT_CONFIG,
                                guards: GuardConfig = DEFAULT_GUARDS
                                ) -> FormulaReport:
    F.require_germ()
    idx = intersection_index(F, cfg, guards)
    reg, sampling = regular_multiplicity_details(F, None, cfg, guards)
    img = image_ideal(F, None, guards)
    lel = lelong_degree(img, guards)
    geo = geometric_multiplicity(F, extra_samples, cfg, guards)
    warnings: Tuple[str, ...] = ()
    if idx.warning:
        warnings = (idx.warning,)
    return FormulaReport(
        i0=idx.value,
        regular_mult=reg,
        lelong=lel,
        geometric_mult_lower_bound=geo,
        holds=idx.value == reg * lel,
        naive_product=geo * lel,
        index=idx,
        sampling=sampling,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Stoll sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StollReport:
    point_multiplicities: Tuple[Tuple[Tuple[Fraction, ...], int], ...]
    total: int
    covering_number: int
    equal: bool


def stoll_check(F: PolyMap, y: Sequence[Union[int, Fraction]],
                cfg: GenericityConfig = DEFAULT_CONFIG,
                guards: GuardConfig = DEFAULT_GUARDS) -> StollReport:
    """Check that the local multiplicities over a regular fiber sum to the
    covering number.  The fiber must be reduced (distinct count equals the
    count with multiplicity); rational fiber points additionally get their
    translated local multiplicities listed individually."""
    F.require_square()
    F.require_germ()
    J = fiber_ideal(F, y)
    with_mult = quotient_dimension(J, DEGREVLEX, guards)
    if with_mult == INFINITY:
        raise PreconditionError("fiber not finite")
    distinct = quotient_dimension(zero_dim_radical(J, guards), DEGREVLEX, guards)
    if distinct != with_mult:
        raise PreconditionError("Stoll check requires regular fiber")
    covering = local_multiplicity(F, guards)
    per_point = []
    for pt in rational_points(J, guards):
        per_point.append((pt, local_multiplicity(F.translate(pt), guards)))
    return StollReport(
        point_multiplicities=tuple(per_point),
        total=int(with_mult),
        covering_number=covering,
        equal=int(with_mult) == covering,
    )


# ---------------------------------------------------------------------------
# critical locus
# ---------------------------------------------------------------------------


def critical_locus(F: PolyMap, guards: GuardConfig = DEFAULT_GUARDS) -> Ideal:
    """Ideal of the critical value set: the image of {det Jac F = 0}."""
    F.require_square()
    F.require_germ()
    det = jacobian_determinant(F)
    if det.is_zero:
        raise PreconditionError(
            "Jacobian vanishes identically; not a branched covering"
        )
    local_multiplicity(F, guards)  # finiteness gate
    return image_ideal(F, Ideal(F.domain, [det]), guards)


# ---------------------------------------------------------------------------
# pull-back smoothness pipeline
# ---------------------------------------------------------------------------

VERDICT_CERTIFIED = "W_smooth_certified"
VERDICT_FAILED = "hypothesis_failed"
VERDICT_INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class PullbackReport:
    """All invariants of the pull-back pipeline plus the verdict.

    mu = local multiplicity of F, lam = regular multiplicity of F restricted
    to the pull-back V, kappa = multiplicity of F along V, d = local degree
    of W.  lam/kappa/chain_holds are None when V failed an earlier hypothesis
    and the sampling steps were skipped.
    """

    mu: int
    lam: Optional[int]
    kappa: Optional[int]
    d: int
    jacobian_nonvanishing: bool
    v_smooth: bool
    pullback_equal: bool
    chain_holds: Optional[bool]
    verdict: str
    reason: Optional[str]
    pullback_generators: Tuple[Polynomial, ...]
    warnings: Tuple[str, ...] = ()


def pullback_report(F: PolyMap, W: Ideal,
                    extra_samples: Sequence[Sequence[Union[int, Fraction]]] = (),
                    cfg: GenericityConfig = DEFAULT_CONFIG,
                    guards: GuardConfig = DEFAULT_GUARDS) -> PullbackReport:
    F.require_square()
    F.require_germ()
    if W.ring.arity != F.codomain_arity:
        raise PreconditionError("W must live in the codomain ring of F")
    if F.codomain is not None and W.ring != F.codomain_ring:
        raise PreconditionError("W must live in the codomain ring of F")
    if F.codomain is None:
        F = PolyMap(F.components, W.ring)
    for g in W.generators:
        if g.constant_term() != 0:
            raise PreconditionError("origin not in the zero set of W")
    if W.basis(DEGREVLEX, guards).is_unit_ideal:
        raise PreconditionError("W is the unit ideal")
    if len(W.generators) == 1 and not is_squarefree(W.generators[0], guards):
        raise PreconditionError("supply reduced W")

    warnings: List[str] = []
    v_gens = [g.substitute(F.components) for g in W.generators]
    if len(v_gens) == 1:
        reduced = squarefree_part(v_gens[0], guards)
        if reduced != v_gens[0].monic():
            warnings.append("pull-back generator was not squarefree; reduced")
        v_gens = [reduced]
    V = Ideal(F.domain, v_gens)

    mu = local_multiplicity(F, guards)
    d = lelong_degree(W, guards)
    v_smooth = is_smooth_at_origin(V, guards)

    img_v = image_ideal(F, V, guards)
    forward_equal = radical_equal(img_v, W, guards)
    back = Ideal(F.domain, [g.substitute(F.components) for g in img_v.generators])
    backward_equal = radical_equal(back, V, guards)
    pullback_equal = forward_equal and backward_equal

    jnv = jacobian_nonvanishing_on(F, V, guards)

    lam: Optional[int] = None
    kappa: Optional[int] = None
    chain: Optional[bool] = None
    if v_smooth:
        normalized = normalize_graph_subspace(V)
        if normalized is None:
            raise PreconditionError(
                "normalize V first: the pull-back is smooth but not a graph "
                "over a coordinate subspace"
            )
        phi, subspace, _free = normalized
        F_sheared = compose_map(F, phi)
        lam = regular_multiplicity(F_sheared, subspace, cfg, guards)
        kappa = multiplicity_along_V(F_sheared, subspace, cfg, guards)
        chain = (mu == lam * kappa) and (lam * kappa >= lam * d)
        if cfg.samples < 2:
            warnings.append("fewer than 2 samples: multiplicity along V is fragile")

    if v_smooth and pullback_equal and lam is not None and kappa is not None \
            and (mu != lam * kappa or lam * kappa < lam * d):
        verdict, reason = VERDICT_INCONSISTENT, (
            "computed integers violate the product formula or the chain "
            "inequality (bug or non-generic sample)"
        )
    elif not v_smooth:
        verdict, reason = VERDICT_FAILED, "pull-back germ is not smooth"
    elif not pullback_equal:
        verdict, reason = VERDICT_FAILED, (
            "pull-back equality F^{-1}(F(V)) = V fails at the radical level"
        )
    elif not jnv:
        verdict, reason = VERDICT_FAILED, "Jacobian vanishes identically on the pull-back"
    elif kappa != 1 or d != 1 or not chain:
        verdict, reason = VERDICT_INCONSISTENT, (
            "hypotheses hold but kappa or d is not 1 (bug or non-generic sample)"
        )
    elif not is_smooth_at_origin(W, guards):
        verdict, reason = VERDICT_INCONSISTENT, (
            "certified verdict contradicts the direct smoothness test on W"
        )
    else:
        verdict, reason = VERDICT_CERTIFIED, None

    return PullbackReport(
        mu=mu,
        lam=lam,
        kappa=kappa,
        d=d,
        jacobian_nonvanishing=jnv,
        v_smooth=v_smooth,
        pullback_equal=pullback_equal,
        chain_holds=chain,
        verdict=verdict,
        reason=reason,
        pullback_generators=V.generators,
        warnings=tuple(warnings),
    )
