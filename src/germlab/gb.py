"""Groebner bases (global orders) and standard bases (local orders).

Global orders use classical Buchberger with full multivariate division;
the local order uses Mora's tangent-cone algorithm: reduction is the weak
normal form with ecart-minimal reducer selection, which realizes division by
units of the local ring without ever representing power series.  Both share
one pair-processing loop with the coprime-leading-term criterion and the
chain criterion, normal selection strategy (minimal lcm degree first, then
first-come), and a final interreduction to the unique reduced basis.

The local colength m_0 = dim O_0/(I) needs no standard basis:
:func:`local_colength` counts h(D) = dim Q[x]/(I + m^D) on the truncated
Macaulay matrix (:mod:`germlab.macaulay`) and stops at the first d >= 1 with
h(d+1) = h(d), where Nakayama gives m^d in I*O_0; h above the Bezout number
certifies that the germ is not finite.  Only when neither certificate fires
within ``max_degree`` (and ``macaulay.MAX_COLUMNS`` columns) does it hand
the ideal to Mora, which still provides tangent cones and standard-basis
witnesses.

On top of the bases: elimination ideals via block orders (for the
positive-dimensional questions: images, lcm), radical membership via the
Rabinowitsch trick, staircase/quotient dimensions, Hilbert series of
monomial ideals by recursive pivot splitting, Krull dimension from the pole
order of the Hilbert series, and gcd/lcm/squarefree-part utilities built on
elimination.

Zero-dimensional ideals need no elimination order.  Their univariate
eliminants are minimal polynomials of the multiplication maps M_{x_i} on
Q[x]/I, written on the degrevlex staircase and found by a Krylov sequence
(the linear-algebra step of FGLM); radicals adjoin the squarefree parts of
the eliminants (Seidenberg), and stop early when one eliminant is squarefree
of degree dim Q[x]/I (shape lemma: the ideal is already radical).

Interreduction returns the unique reduced basis for global orders; for the
local order fully reduced tails need not exist (the reduced form can be an
infinite power series), so tails are reduced under a deterministic degree
budget and kept as-is past it, which changes nothing semantically (leading
ideals, staircases and initial forms are what every consumer reads).

Everything is deterministic for fixed input, order and guards.  Computations
that can blow up (Buchberger is doubly exponential in the worst case) are
cut off loudly by :class:`GuardConfig` limits, never truncated silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import PreconditionError, ResourceLimitError
from .orders import (
    DEGREVLEX,
    LOCAL_DEGREVLEX,
    Exponents,
    MonomialOrder,
    block_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .macaulay import Colength, macaulay_colength
from .poly import INFINITY, Polynomial, PolyRing, exact_divide


@dataclass(frozen=True)
class GuardConfig:
    """Loud-failure resource limits for basis computations.

    ``cancel`` is an optional cooperative cancellation token: a callable
    polled inside long-running loops; when it returns True the computation
    stops with :class:`ComputationCancelled`.
    """

    max_degree: int = 64
    max_basis: int = 10000
    cancel: Optional[Callable[[], bool]] = None


class ComputationCancelled(ResourceLimitError):
    """Raised when a caller-supplied cancellation token fires."""


DEFAULT_GUARDS = GuardConfig()


def _check_cancel(guards: GuardConfig) -> None:
    if guards.cancel is not None and guards.cancel():
        raise ComputationCancelled("computation cancelled by the caller")

# Internal working representation: list of (exponents, coefficient) sorted
# leading-first under the order in play.
TermList = List[Tuple[Exponents, Fraction]]


def _ordered(p: Polynomial, order: MonomialOrder) -> TermList:
    return sorted(p.terms, key=lambda t: order.key(t[0]), reverse=True)


def _to_poly(ring: PolyRing, terms: TermList) -> Polynomial:
    return ring.polynomial(dict(terms))


def _monic(f: TermList) -> TermList:
    lc = f[0][1]
    if lc == 1:
        return f
    return [(e, c / lc) for e, c in f]


def _degree(f: TermList) -> int:
    return max(sum(e) for e, _ in f)


def _ecart(f: TermList) -> int:
    return _degree(f) - sum(f[0][0])


def _guard_degree(f: TermList, guards: GuardConfig) -> None:
    d = _degree(f)
    if d > guards.max_degree:
        raise ResourceLimitError(
            f"intermediate total degree {d} exceeds the guard "
            f"max_degree={guards.max_degree}"
        )


def _axpy(f: TermList, c: Fraction, gamma: Exponents, g: TermList,
          key) -> TermList:
    """f - c * x^gamma * g, merging the two sorted term lists."""
    out: TermList = []
    i, j = 0, 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        eg = mono_mul(gamma, g[j][0])
        kf, kg = key(f[i][0]), key(eg)
        if kf > kg:
            out.append(f[i])
            i += 1
        elif kf < kg:
            out.append((eg, -c * g[j][1]))
            j += 1
        else:
            cc = f[i][1] - c * g[j][1]
            if cc:
                out.append((f[i][0], cc))
            i += 1
            j += 1
    if i < nf:
        out.extend(f[i:])
    while j < ng:
        out.append((mono_mul(gamma, g[j][0]), -c * g[j][1]))
        j += 1
    return out


def _spoly(f: TermList, g: TermList, key) -> TermList:
    (ef, cf), (eg, cg) = f[0], g[0]
    l = mono_lcm(ef, eg)
    shifted = [(mono_mul(mono_div(l, ef), e), c) for e, c in f]
    return _axpy(shifted, cf / cg, mono_div(l, eg), g, key)


def _global_nf(p: TermList, G: Sequence[TermList], key) -> TermList:
    """Full multivariate division remainder; reducers chosen by list position."""
    h = list(p)
    out: TermList = []
    while h:
        lm, lc = h[0]
        for g in G:
            if mono_divides(g[0][0], lm):
                h = _axpy(h, lc / g[0][1], mono_div(lm, g[0][0]), g, key)
                break
        else:
            out.append(h[0])
            h = h[1:]
    return out


def _mora_weak_nf(p: TermList, G: Sequence[TermList], key,
                  guards: GuardConfig) -> TermList:
    """Mora weak normal form: u*p = q + r with u a unit of the local ring.

    Reducers are chosen with minimal ecart (ties by list position); when the
    chosen reducer has larger ecart than the current polynomial, the current
    polynomial itself joins the reducer list, which is what makes the loop
    terminate and silently realizes the division by a unit.
    """
    T = list(G)
    h = list(p)
    while h:
        _check_cancel(guards)
        lm = h[0][0]
        best = -1
        best_ecart = 0
        for i, g in enumerate(T):
            if mono_divides(g[0][0], lm):
                e = _ecart(g)
                if best < 0 or e < best_ecart:
                    best, best_ecart = i, e
        if best < 0:
            return h
        g = T[best]
        if best_ecart > _ecart(h):
            T.append(h)
        h = _axpy(h, h[0][1] / g[0][1], mono_div(lm, g[0][0]), g, key)
        if h:
            _guard_degree(h, guards)
    return h


def _local_nf(p: TermList, G: Sequence[TermList], key,
              guards: GuardConfig) -> TermList:
    """Tail-reduced local normal form: peel the irreducible leading term of
    each weak normal form and keep reducing the tail.

    Peeled leading monomials strictly decrease, so as long as the degree
    guard bounds all intermediate degrees the loop visits finitely many
    monomials and terminates; a genuinely divergent tail (possible for local
    orders: the fully reduced form may be an infinite power series) grows in
    degree and trips the guard loudly instead of spinning forever.
    """
    out: TermList = []
    h = list(p)
    while h:
        h = _mora_weak_nf(h, G, key, guards)
        if not h:
            break
        out.append(h[0])
        h = h[1:]
    return out


def _local_tail_trim(p: TermList, G: Sequence[TermList], key,
                     guards: GuardConfig) -> TermList:
    """Best-effort tail reduction for local interreduction.

    Fully reduced standard bases need not exist (divergent power-series
    tails), so the chase runs under a degree budget: when further reduction
    would leave the budget, the remaining tail is kept as is.  Always
    terminates, deterministic, and agrees with full reduction whenever full
    reduction stays within the budget.
    """
    budget = min(2 * max(_degree(g) for g in list(G) + [p]) + 4,
                 guards.max_degree)
    trimmed = GuardConfig(max_degree=budget, max_basis=guards.max_basis,
                          cancel=guards.cancel)
    out: TermList = []
    h = list(p)
    while h:
        try:
            h = _mora_weak_nf(h, G, key, trimmed)
        except ComputationCancelled:
            raise
        except ResourceLimitError:
            out.extend(h)
            return out
        if not h:
            break
        out.append(h[0])
        h = h[1:]
    return out


def normal_form(p: Polynomial, G: Sequence[Polynomial], order: MonomialOrder,
                guards: GuardConfig = DEFAULT_GUARDS) -> Polynomial:
    """Normal form of p modulo the (not necessarily standard) family G.

    Global order: the division remainder; no remainder term is divisible by
    any leading term of G.  Local order: Mora weak normal form with tail
    peeling; the result r satisfies u*p = q + r with u a local unit, q in the
    ideal generated by G, and no term of r divisible by a leading term of G.
    """
    reducers = [_ordered(g, order) for g in G if not g.is_zero]
    if not reducers:
        return p
    ring = p.ring
    for g in G:
        if g.ring != ring:
            raise PreconditionError("normal form arguments live in different rings")
    h = _ordered(p, order)
    key = order.key
    if order.is_global:
        r = _global_nf(h, reducers, key)
    else:
        r = _local_nf(h, reducers, key, guards)
    return _to_poly(ring, r)


# ---------------------------------------------------------------------------
# Buchberger / Mora basis computation
# ---------------------------------------------------------------------------


def _basis_raw(gens: List[TermList], order: MonomialOrder,
               guards: GuardConfig) -> List[TermList]:
    key = order.key
    G: List[TermList] = [_monic(g) for g in gens if g]
    pending: Dict[Tuple[int, int], Tuple[int, int]] = {}
    counter = itertools.count()

    def queue_pairs(j: int) -> None:
        lj = G[j][0][0]
        for i in range(j):
            l = mono_lcm(G[i][0][0], lj)
            pending[(i, j)] = (sum(l), next(counter))

    for j in range(len(G)):
        queue_pairs(j)

    reduce_one = (
        (lambda s: _global_nf(s, G, key))
        if order.is_global
        else (lambda s: _mora_weak_nf(s, G, key, guards))
    )

    while pending:
        _check_cancel(guards)
        (i, j) = min(pending, key=pending.__getitem__)
        del pending[(i, j)]
        li, lj = G[i][0][0], G[j][0][0]
        l = mono_lcm(li, lj)
        if l == mono_mul(li, lj):
            continue  # coprime leading terms
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if not mono_divides(G[k][0][0], l):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        s = _spoly(G[i], G[j], key)
        if not s:
            continue
        _guard_degree(s, guards)
        r = reduce_one(s)
        if r:
            _guard_degree(r, guards)
            if len(G) >= guards.max_basis:
                raise ResourceLimitError(
                    f"basis size exceeds the guard max_basis={guards.max_basis}"
                )
            G.append(_monic(r))
            queue_pairs(len(G) - 1)
    return G


def _interreduce(G: List[TermList], order: MonomialOrder,
                 guards: GuardConfig) -> List[TermList]:
    key = order.key
    # A unit (constant leading monomial) swallows everything.  For the local
    # order a unit leading term means the element is invertible in the local
    # ring, so the ideal is the whole ring either way.
    for g in G:
        if sum(g[0][0]) == 0:
            arity = len(g[0][0])
            return [[((0,) * arity, Fraction(1))]]
    # Minimalize by divisibility of leading monomials.  Divisors have smaller
    # total degree under any order (under the local order they sit *higher*),
    # so sort by degree, not by order position.
    ordered = sorted(G, key=lambda g: (sum(g[0][0]), key(g[0][0])))
    kept: List[TermList] = []
    for g in ordered:
        lm = g[0][0]
        if not any(mono_divides(h[0][0], lm) for h in kept):
            kept.append(g)
    kept.sort(key=lambda g: key(g[0][0]))
    out: List[TermList] = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        if not others:
            out.append(_monic(g))
            continue
        if order.is_global:
            r = _global_nf(g, others, key)
        else:
            r = _local_tail_trim(g, others, key, guards)
        out.append(_monic(r))
    return out


@dataclass(frozen=True)
class GBResult:
    """A reduced basis: auto-reduced, monic, sorted by ascending leading term."""

    basis: Tuple[Polynomial, ...]
    order: MonomialOrder
    is_local: bool

    @property
    def leading_exponents(self) -> Tuple[Exponents, ...]:
        return tuple(p.leading_exponents(self.order) for p in self.basis)

    @property
    def is_unit_ideal(self) -> bool:
        return any(p.is_constant and not p.is_zero for p in self.basis)

    @property
    def is_zero_ideal(self) -> bool:
        return not self.basis

    def reduce(self, p: Polynomial,
               guards: GuardConfig = DEFAULT_GUARDS) -> Polynomial:
        return normal_form(p, self.basis, self.order, guards)

    def contains(self, p: Polynomial,
                 guards: GuardConfig = DEFAULT_GUARDS) -> bool:
        return self.reduce(p, guards).is_zero


class Ideal:
    """An ideal given by generators, with memoized bases per monomial order.

    Zero generators are dropped at construction; an empty generator list
    represents the zero ideal.  The basis cache is write-once per order key
    and recomputation is idempotent, so concurrent use is safe; the same
    holds for the quotient algebra of a zero-dimensional ideal.
    """

    __slots__ = ("ring", "generators", "_cache", "_algebra")

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise PreconditionError("generator outside the ideal's ring")
            if not g.is_zero:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._cache: Dict[Tuple[str, int], GBResult] = {}
        self._algebra: Optional[_StaircaseAlgebra] = None

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def basis(self, order: MonomialOrder = DEGREVLEX,
              guards: GuardConfig = DEFAULT_GUARDS) -> GBResult:
        hit = self._cache.get(order.cache_key)
        if hit is not None:
            return hit
        gens = [_ordered(g, order) for g in self.generators]
        raw = _basis_raw(gens, order, guards)
        red = _interreduce(raw, order, guards)
        result = GBResult(
            tuple(_to_poly(self.ring, f) for f in red), order, order.is_local
        )
        self._cache[order.cache_key] = result
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ring, self.generators))

    def __repr__(self) -> str:
        return "Ideal(" + "; ".join(str(g) for g in self.generators) + ")"


def buchberger_basis(I: Ideal, order: MonomialOrder = DEGREVLEX,
                     guards: GuardConfig = DEFAULT_GUARDS) -> GBResult:
    """Reduced Groebner basis (global order) or standard basis (local)."""
    return I.basis(order, guards)


def ideal_equal(I: Ideal, J: Ideal,
                guards: GuardConfig = DEFAULT_GUARDS) -> bool:
    """Exact ideal equality via the uniqueness of reduced bases."""
    if I.ring != J.ring:
        return False
    return I.basis(DEGREVLEX, guards).basis == J.basis(DEGREVLEX, guards).basis


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def _resolve_vars(ring: PolyRing, front_vars: Iterable[Union[int, str]]) -> List[int]:
    idx = []
    for v in front_vars:
        i = v if isinstance(v, int) else ring.index(v)
        if not 0 <= i < ring.arity:
            raise PreconditionError(f"variable index {i} out of range")
        idx.append(i)
    if len(set(idx)) != len(idx):
        raise PreconditionError("repeated variable in elimination set")
    return sorted(idx)


def eliminate(I: Ideal, front_vars: Iterable[Union[int, str]],
              guards: GuardConfig = DEFAULT_GUARDS) -> Ideal:
    """The elimination ideal I ∩ QQ[remaining variables].

    The result lives in the smaller ring of the surviving variables (in their
    original relative order); eliminating nothing returns I unchanged.
    """
    front = _resolve_vars(I.ring, front_vars)
    if not front:
        return I
    back = [i for i in range(I.ring.arity) if i not in front]
    if not back:
        raise PreconditionError("cannot eliminate every variable")
    perm = front + back
    perm_ring = PolyRing(tuple(I.ring.variables[i] for i in perm))
    split = len(front)

    def permute(p: Polynomial) -> Polynomial:
        return perm_ring.polynomial(
            {tuple(e[i] for i in perm): c for e, c in p.terms}
        )

    permuted = Ideal(perm_ring, [permute(g) for g in I.generators])
    gb = permuted.basis(block_order(split), guards)
    back_ring = PolyRing(tuple(I.ring.variables[i] for i in back))
    kept = []
    for p in gb.basis:
        if all(all(e[i] == 0 for i in range(split)) for e, _ in p.terms):
            kept.append(back_ring.polynomial(
                {e[split:]: c for e, c in p.terms}
            ))
    return Ideal(back_ring, kept)


# ---------------------------------------------------------------------------
# radical membership (Rabinowitsch)
# ---------------------------------------------------------------------------


def _fresh_name(base: str, taken: Sequence[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def _extend_ring(ring: PolyRing, extra: str) -> PolyRing:
    return PolyRing(ring.variables + (extra,))


def _lift(p: Polynomial, big: PolyRing, offset: int = 0) -> Polynomial:
    pad = big.arity - p.ring.arity - offset
    return big.polynomial(
        {(0,) * offset + e + (0,) * pad: c for e, c in p.terms}
    )


def radical_membership(p: Polynomial, I: Ideal,
                       guards: GuardConfig = DEFAULT_GUARDS) -> bool:
    """True iff p vanishes on the zero set of I (Rabinowitsch trick)."""
    if p.ring != I.ring:
        raise PreconditionError("polynomial and ideal live in different rings")
    if p.is_zero:
        return True
    z_name = _fresh_name("z_", I.ring.variables)
    big = _extend_ring(I.ring, z_name)
    gens = [_lift(g, big) for g in I.generators]
    z = big.var(big.arity - 1)
    gens.append(big.one() - z * _lift(p, big))
    return Ideal(big, gens).basis(DEGREVLEX, guards).is_unit_ideal


def radical_contains(I: Ideal, J: Ideal,
                     guards: GuardConfig = DEFAULT_GUARDS) -> bool:
    """True iff every generator of J lies in the radical of I."""
    return all(radical_membership(g, I, guards) for g in J.generators)


def radical_equal(I: Ideal, J: Ideal,
                  guards: GuardConfig = DEFAULT_GUARDS) -> bool:
    """Set-theoretic equality of zero sets via two-sided radical membership."""
    return radical_contains(I, J, guards) and radical_contains(J, I, guards)


# ---------------------------------------------------------------------------
# staircases, Hilbert series, dimensions
# ---------------------------------------------------------------------------


def _staircase_bounds(leading: Sequence[Exponents], arity: int) -> Optional[List[int]]:
    """Per-axis exponent bounds when the staircase is finite, else None."""
    bounds: List[Optional[int]] = [None] * arity
    for e in leading:
        support = [i for i, x in enumerate(e) if x]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or e[i] < bounds[i]:
                bounds[i] = e[i]
        elif not support:
            return [0] * arity  # unit ideal: empty staircase
    if any(b is None for b in bounds):
        return None
    return bounds  # type: ignore[return-value]


def _count_staircase(leading: Sequence[Exponents], bounds: List[int],
                     collect: Optional[List[Exponents]] = None) -> int:
    arity = len(bounds)

    def divisible(prefix: Tuple[int, ...]) -> bool:
        filled = prefix + (0,) * (arity - len(prefix))
        return any(mono_divides(l, filled) for l in leading)

    def rec(prefix: Tuple[int, ...]) -> int:
        if divisible(prefix):
            return 0
        if len(prefix) == arity:
            if collect is not None:
                collect.append(prefix)
            return 1
        i = len(prefix)
        return sum(rec(prefix + (d,)) for d in range(bounds[i]))

    return rec(())


def quotient_dimension(I: Ideal, order: MonomialOrder = DEGREVLEX,
                       guards: GuardConfig = DEFAULT_GUARDS) -> Union[int, float]:
    """Number of standard monomials of I under the order; INFINITY if unbounded."""
    gb = I.basis(order, guards)
    if gb.is_unit_ideal:
        return 0
    leading = gb.leading_exponents
    if not leading:
        return INFINITY
    bounds = _staircase_bounds(leading, I.ring.arity)
    if bounds is None:
        return INFINITY
    return _count_staircase(leading, bounds)


def staircase_monomials(I: Ideal, order: MonomialOrder = DEGREVLEX,
                        guards: GuardConfig = DEFAULT_GUARDS
                        ) -> Optional[List[Exponents]]:
    """The standard monomials themselves, or None when infinite."""
    gb = I.basis(order, guards)
    if gb.is_unit_ideal:
        return []
    leading = gb.leading_exponents
    bounds = _staircase_bounds(leading, I.ring.arity) if leading else None
    if bounds is None:
        return None
    out: List[Exponents] = []
    _count_staircase(leading, bounds, out)
    return out


def local_colength(I: Ideal, guards: GuardConfig = DEFAULT_GUARDS) -> Colength:
    """m_0 = dim O_0/(I) at the origin with its local staircase, or
    (INFINITY, None) when V(I) is not isolated at 0.

    The truncated Macaulay matrix decides (:mod:`germlab.macaulay`): it
    stops at the first d >= 1 with h(d+1) = h(d) for h(D) = dim Q[x]/(I+m^D),
    or certifies "not finite" once h exceeds the Bezout number.  Its
    truncation degree never exceeds ``guards.max_degree``, nor its column
    count ``macaulay.MAX_COLUMNS``; when neither certificate fires within
    those, the answer comes from Mora's standard basis under the same guards,
    so every germ Mora decides is still decided.
    """
    if any(g.constant_term() != 0 for g in I.generators):
        return 0, []
    found = macaulay_colength(I.ring.arity, I.generators, guards.max_degree,
                              lambda: _check_cancel(guards))
    if found is not None:
        return found
    dim = quotient_dimension(I, LOCAL_DEGREVLEX, guards)
    if dim == INFINITY:
        return INFINITY, None
    return dim, staircase_monomials(I, LOCAL_DEGREVLEX, guards)


def _minimalize_monomials(gens: Iterable[Exponents]) -> Tuple[Exponents, ...]:
    kept: List[Exponents] = []
    for m in sorted(set(gens), key=sum):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return tuple(kept)


def _poly1_mul(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def _poly1_sub(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly1_add(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    return _poly1_sub(a, tuple(-y for y in b))


def _one_minus_t_power(d: int) -> Tuple[int, ...]:
    out = [0] * (d + 1)
    out[0] = 1
    out[d] = -1
    return tuple(out)


def hilbert_series_monomial(gens: Iterable[Exponents], arity: int
                            ) -> Tuple[int, ...]:
    """Numerator N(t) of the Hilbert series N(t)/(1-t)^arity of R/M.

    M is given by monomial generators (minimalized here); computed by the
    standard pivot split  N_M = N_{M+(x_v)} + t * N_{M:x_v}  with pairwise
    coprime base cases, memoized within the call.
    """
    M = _minimalize_monomials(tuple(tuple(g) for g in gens))
    memo: Dict[Tuple[Exponents, ...], Tuple[int, ...]] = {}

    def rec(mons: Tuple[Exponents, ...]) -> Tuple[int, ...]:
        if not mons:
            return (1,)
        if any(sum(m) == 0 for m in mons):
            return (0,)
        hit = memo.get(mons)
        if hit is not None:
            return hit
        nontrivial = [m for m in mons if sum(1 for x in m if x) > 1]
        if len(nontrivial) <= 1:
            pures = [m for m in mons if sum(1 for x in m if x) <= 1]
            result = (1,)
            for p in pures:
                result = _poly1_mul(result, _one_minus_t_power(sum(p)))
            if nontrivial:
                m = nontrivial[0]
                colon = (1,)
                unit_colon = False
                for p in pures:
                    i = next(k for k, x in enumerate(p) if x)
                    rest = p[i] - m[i]
                    if rest <= 0:
                        unit_colon = True
                        break
                    colon = _poly1_mul(colon, _one_minus_t_power(rest))
                if not unit_colon:
                    shifted = (0,) * sum(m) + colon
                    result = _poly1_sub(result, tuple(shifted))
            memo[mons] = result
            return result
        n = len(mons[0])
        counts = [0] * n
        for m in nontrivial:
            for i, x in enumerate(m):
                if x:
                    counts[i] += 1
        v = max(range(n), key=lambda i: counts[i])
        pivot = tuple(1 if i == v else 0 for i in range(n))
        added = _minimalize_monomials(
            (pivot,) + tuple(m for m in mons if m[v] == 0)
        )
        colon = _minimalize_monomials(
            tuple(tuple(x - 1 if i == v and x else x for i, x in enumerate(m))
                  for m in mons)
        )
        result = _poly1_add(rec(added), (0,) + rec(colon))
        memo[mons] = result
        return result

    return rec(M)


def _divide_out_one_minus_t(n: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    """Divide N(t) by (1-t) as often as possible; return (quotient, count)."""
    count = 0
    cur = list(n)
    while sum(cur) == 0 and any(cur):
        q = []
        acc = 0
        for c in cur[:-1]:
            acc += c
            q.append(acc)
        while len(q) > 1 and q[-1] == 0:
            q.pop()
        cur = q
        count += 1
    return tuple(cur), count


def hilbert_series_coefficients(numerator: Sequence[int], arity: int,
                                up_to: int) -> List[int]:
    """First coefficients of N(t)/(1-t)^arity as a power series."""
    series = [0] * (up_to + 1)
    series[0] = 1
    for _ in range(arity):
        # multiply by 1/(1-t): running prefix sums
        run = 0
        new = []
        for i in range(up_to + 1):
            run += series[i]
            new.append(run)
        series = new
    out = [0] * (up_to + 1)
    for d, c in enumerate(numerator):
        if d > up_to or c == 0:
            continue
        for i in range(d, up_to + 1):
            out[i] += c * series[i - d]
    return out


def krull_dimension(I: Ideal, guards: GuardConfig = DEFAULT_GUARDS) -> int:
    """Dimension of the quotient ring, read off the Hilbert series pole order."""
    gb = I.basis(DEGREVLEX, guards)
    if gb.is_unit_ideal:
        raise PreconditionError("empty variety: the ideal is the unit ideal")
    numerator = hilbert_series_monomial(gb.leading_exponents, I.ring.arity)
    _, cancelled = _divide_out_one_minus_t(numerator)
    return I.ring.arity - cancelled


def hilbert_samuel_multiplicity(I: Ideal,
                                guards: GuardConfig = DEFAULT_GUARDS) -> int:
    """Q(1) after writing the Hilbert series as Q(t)/(1-t)^d in lowest terms.

    For a homogeneous ideal this is the degree of the projective scheme it
    defines, i.e. the multiplicity of the cone.
    """
    gb = I.basis(DEGREVLEX, guards)
    if gb.is_unit_ideal:
        raise PreconditionError("empty variety: the ideal is the unit ideal")
    numerator = hilbert_series_monomial(gb.leading_exponents, I.ring.arity)
    q, _ = _divide_out_one_minus_t(numerator)
    return sum(q)


# ---------------------------------------------------------------------------
# univariate helpers and zero-dimensional radicals
# ---------------------------------------------------------------------------


def _univariate_coeffs(p: Polynomial) -> List[Fraction]:
    """Dense coefficient list of a polynomial in a 1-variable ring."""
    if p.ring.arity != 1:
        raise PreconditionError("expected a univariate polynomial")
    out = [Fraction(0)] * (p.total_degree() + 1 if not p.is_zero else 1)
    for (e,), c in p.terms:
        out[e] = c
    return out


def _uni_trim(c: List[Fraction]) -> List[Fraction]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _uni_is_zero(c: List[Fraction]) -> bool:
    return all(x == 0 for x in c)


def _uni_rem(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a = _uni_trim(list(a))
    db, lb = len(b) - 1, b[-1]
    while not _uni_is_zero(a) and len(a) - 1 >= db:
        shift = len(a) - 1 - db
        q = a[-1] / lb
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = _uni_trim(a)
    return a


def _uni_gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while not _uni_is_zero(b):
        a, b = b, _uni_rem(a, b)
    lc = a[-1]
    if lc not in (0, 1):
        a = [c / lc for c in a]
    return a


def _uni_derivative(a: List[Fraction]) -> List[Fraction]:
    if len(a) == 1:
        return [Fraction(0)]
    return [a[i] * i for i in range(1, len(a))]


def _uni_exact_div(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a = list(a)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and not _uni_is_zero(a):
        shift = len(a) - 1 - db
        q = a[-1] / lb
        out[shift] = q
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = _uni_trim(a)
    return out


def univariate_squarefree(p: Polynomial) -> Polynomial:
    """Monic squarefree part g/gcd(g, g') of a univariate polynomial."""
    coeffs = _univariate_coeffs(p)
    if len(coeffs) == 1:
        return p
    g = _uni_gcd(coeffs, _uni_derivative(coeffs))
    if len(g) == 1:
        sf = coeffs
    else:
        sf = _uni_exact_div(coeffs, g)
    lc = sf[-1]
    return p.ring.polynomial({(i,): c / lc for i, c in enumerate(sf) if c})


class _StaircaseAlgebra:
    """Q[x]/I for a zero-dimensional I, on the basis of its degrevlex
    staircase: the reduced basis as reducers, the standard monomials with
    their positions, and the eliminants found so far."""

    __slots__ = ("reducers", "staircase", "index", "eliminants")

    def __init__(self, gb: GBResult, staircase: List[Exponents]):
        self.reducers = [_ordered(g, DEGREVLEX) for g in gb.basis]
        self.staircase = staircase
        self.index = {b: k for k, b in enumerate(staircase)}
        self.eliminants: Dict[int, Polynomial] = {}


def _staircase_algebra(I: Ideal, guards: GuardConfig
                       ) -> Optional[_StaircaseAlgebra]:
    """The quotient algebra of I, built once per ideal; None when I is not
    zero-dimensional."""
    if I._algebra is None:
        staircase = staircase_monomials(I, DEGREVLEX, guards)
        if staircase is None:
            return None
        I._algebra = _StaircaseAlgebra(I.basis(DEGREVLEX, guards), staircase)
    return I._algebra


def _multiplication_columns(A: _StaircaseAlgebra, i: int,
                            guards: GuardConfig) -> List[Dict[int, Fraction]]:
    """Column b of M_{x_i}: the staircase coordinates of NF(x_i * b)."""
    columns = []
    for b in A.staircase:
        _check_cancel(guards)
        xb = b[:i] + (b[i] + 1,) + b[i + 1:]
        k = A.index.get(xb)
        if k is not None:
            columns.append({k: Fraction(1)})
        else:
            nf = _global_nf([(xb, Fraction(1))], A.reducers, DEGREVLEX.key)
            columns.append({A.index[e]: c for e, c in nf})
    return columns


def _minimal_polynomial(columns: List[Dict[int, Fraction]],
                        guards: GuardConfig) -> List[Fraction]:
    """Coefficients (constant first) of the monic minimal polynomial of the
    matrix with these columns on the vector e_0, which is the coordinate
    vector of 1 (the staircase starts at 1): the first linear dependency in
    the Krylov sequence e_0, M e_0, M^2 e_0, ...  Each new vector is reduced
    against an echelon form of the earlier ones, carrying its combination of
    powers.  No columns (the unit ideal) give the polynomial 1."""
    n = len(columns)
    rows: List[Tuple[int, List[Fraction], List[Fraction]]] = []
    v = [Fraction(int(j == 0)) for j in range(n)]
    for k in itertools.count():
        _check_cancel(guards)
        w = list(v)
        comb = [Fraction(0)] * k + [Fraction(1)]
        for pivot, row, row_comb in rows:
            c = w[pivot]
            if c:
                for j, x in enumerate(row):
                    if x:
                        w[j] -= c * x
                for j, x in enumerate(row_comb):
                    if x:
                        comb[j] -= c * x
        pivot = next((j for j, x in enumerate(w) if x), None)
        if pivot is None:
            return comb
        inv = 1 / w[pivot]
        rows.append((pivot, [x * inv for x in w], [x * inv for x in comb]))
        nxt = [Fraction(0)] * n
        for b, c in enumerate(v):
            if c:
                for j, x in columns[b].items():
                    nxt[j] += c * x
        v = nxt


def univariate_eliminant(I: Ideal, var: Union[int, str],
                         guards: GuardConfig = DEFAULT_GUARDS) -> Polynomial:
    """The monic generator of I ∩ QQ[var], in the ring QQ[var].

    I must be zero-dimensional; otherwise PreconditionError.  The result is
    the minimal polynomial of the multiplication map M_{x_i} on Q[x]/I,
    written on the degrevlex staircase (its degree is at most dim Q[x]/I);
    the unit ideal gives 1.  No elimination order is involved, and the
    quotient algebra is built once per ideal and shared by every variable.
    """
    i = var if isinstance(var, int) else I.ring.index(var)
    name = I.ring.variables[i]
    A = _staircase_algebra(I, guards)
    if A is None:
        raise PreconditionError(
            f"no univariate eliminant in {name}: "
            "the ideal is not zero-dimensional"
        )
    g = A.eliminants.get(i)
    if g is None:
        coeffs = _minimal_polynomial(_multiplication_columns(A, i, guards),
                                     guards)
        g = PolyRing((name,)).polynomial(
            {(e,): c for e, c in enumerate(coeffs) if c})
        A.eliminants[i] = g
    return g


def zero_dim_radical(I: Ideal, guards: GuardConfig = DEFAULT_GUARDS) -> Ideal:
    """Radical of a zero-dimensional ideal (PreconditionError otherwise).

    Seidenberg: the radical is I plus the squarefree parts of the univariate
    eliminants.  Shape lemma: as soon as one eliminant is squarefree of
    degree dim Q[x]/I, Q[x]/I is isomorphic to Q[t]/(g) and thus reduced,
    so I itself is returned and no further eliminant is computed.  The
    quotient dimension of the result equals the number of distinct solutions
    over the algebraic closure (the rationals are perfect).
    """
    dim = quotient_dimension(I, DEGREVLEX, guards)
    if dim == INFINITY:
        raise PreconditionError("zero_dim_radical needs a zero-dimensional ideal")
    extras: List[Polynomial] = []
    for i in range(I.ring.arity):
        g = univariate_eliminant(I, i, guards)
        sf = univariate_squarefree(g)
        if sf != g:
            sub = [I.ring.var(i)]
            extras.append(sf.substitute(sub))
        elif g.total_degree() == dim:
            return I
    if not extras:
        return I
    enlarged = Ideal(I.ring, list(I.generators) + extras)
    reduced = enlarged.basis(DEGREVLEX, guards)
    return Ideal(I.ring, reduced.basis)


# ---------------------------------------------------------------------------
# gcd / lcm / squarefree parts via elimination
# ---------------------------------------------------------------------------


def poly_lcm(a: Polynomial, b: Polynomial,
             guards: GuardConfig = DEFAULT_GUARDS) -> Polynomial:
    """lcm via (a) ∩ (b), computed with the t-trick elimination."""
    if a.ring != b.ring:
        raise PreconditionError("lcm arguments live in different rings")
    if a.is_zero or b.is_zero:
        return a.ring.zero()
    t_name = _fresh_name("t_", a.ring.variables)
    big = PolyRing((t_name,) + a.ring.variables)
    t = big.var(0)
    ga = t * _lift(a, big, offset=1)
    gb_ = (big.one() - t) * _lift(b, big, offset=1)
    J = eliminate(Ideal(big, [ga, gb_]), [0], guards)
    basis = J.basis(DEGREVLEX, guards).basis
    if len(basis) != 1:
        raise PreconditionError("lcm elimination did not yield a principal ideal")
    return basis[0].monic()


def poly_gcd(a: Polynomial, b: Polynomial,
             guards: GuardConfig = DEFAULT_GUARDS) -> Polynomial:
    """Monic gcd: a*b / lcm(a, b)."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    l = poly_lcm(a, b, guards)
    return exact_divide(a * b, l).monic()


def squarefree_part(g: Polynomial,
                    guards: GuardConfig = DEFAULT_GUARDS) -> Polynomial:
    """Monic squarefree part of g: g divided by gcd(g, all partials)."""
    if g.is_zero or g.is_constant:
        return g
    h = g
    for i in range(g.ring.arity):
        d = g.partial(i)
        if d.is_zero:
            continue
        h = poly_gcd(h, d, guards)
        if h.is_constant:
            return g.monic()
    return exact_divide(g, h).monic()


def is_squarefree(g: Polynomial, guards: GuardConfig = DEFAULT_GUARDS) -> bool:
    if g.is_zero or g.is_constant:
        return True
    return squarefree_part(g, guards) == g.monic()
