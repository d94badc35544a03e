"""Local colength of a finite germ by the truncated Macaulay matrix.

For polynomials f_1..f_k vanishing at 0, h(D) = dim Q[x]/(I + m^D) is the
number of monomials of degree < D minus the rank of the Macaulay matrix whose
rows are the products x^a*f_i truncated below degree D.  h grows strictly
until m^d lies in I*O_0 + m^(d+1); by Nakayama m^d then lies in I*O_0, so the
local algebra O_0/I*O_0 has dimension m_0 = h(d).  This is the dual-space
method of Dayton & Zeng (ISSAC 2005) and Mourrain (JPAA 1997), computed here
by exact integer row reduction; :func:`gb.local_colength` is the entry point
that falls back to Mora's standard basis.

A monomial is packed into one int whose fields are, from the top, the total
degree and then the exponents of the last variable down to the second (the
first is implied by the degree).  With every field below ``width`` the packed
ints sort like LOCAL_DEGREVLEX reversed (smallest int = largest monomial), so
the pivot of a row is its smallest key, and the product of two monomials is
the sum of their keys.  A product of total degree >= top lands at or above
top * width**(arity-1) whatever it carries between fields, so with
``width = top`` every product that survives the truncation is exact.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .orders import Exponents, iter_monomials
from .poly import INFINITY, Polynomial

#: the truncation stops before the matrix has more columns than this (all
#: monomials of degree <= d), which bounds time and memory in 4 or more
#: variables, where max_degree alone allows millions of columns
MAX_COLUMNS = 20000

Colength = Tuple[Union[int, float], Optional[List[Exponents]]]


def _pack(e: Exponents, width: int) -> int:
    k = sum(e)
    for x in reversed(e[1:]):
        k = k * width + x
    return k


def _unpack(k: int, arity: int, width: int) -> Exponents:
    rest = []
    for _ in range(arity - 1):
        k, x = divmod(k, width)
        rest.append(x)
    return (k - sum(rest),) + tuple(rest)


@functools.lru_cache(maxsize=64)
def _degree_keys(arity: int, degree: int, width: int) -> Tuple[int, ...]:
    """Packed monomials of one total degree, from largest to smallest under
    LOCAL_DEGREVLEX."""
    return tuple(sorted(_pack((degree - sum(e),) + e, width)
                        for e in iter_monomials(arity - 1, degree)))


def _primitive_terms(p: Polynomial) -> List[Tuple[Exponents, int]]:
    """The terms of p scaled to coprime integers."""
    den = math.lcm(*(c.denominator for _, c in p.terms))
    ints = [(e, int(c * den)) for e, c in p.terms]
    g = math.gcd(*(c for _, c in ints))
    return [(e, c // g) for e, c in ints]


def truncated_colengths(arity: int, generators: Sequence[Polynomial],
                        top: int, poll: Callable[[], None],
                        pivots: Dict[int, Dict[int, int]]) -> Iterator[int]:
    """Yield h(1), h(2), ... for the ideal of ``generators``, which must
    vanish at 0: up to h(top), or fewer when the next degree would need more
    than MAX_COLUMNS columns.  ``pivots`` (packed key -> pivot row) fills as
    it runs.

    Columns are the monomials from largest to smallest under LOCAL_DEGREVLEX
    and a row's pivot is its leftmost nonzero column.  Rows x^a*f are
    processed by lead degree |a| + ord f and reduced fraction-free, with
    content removal; after the rows of lead degree d, h(d+1) is the number
    of monomials of degree <= d minus the pivots among them.  A row whose
    pivot moves past degree d waits for the batch of its new lead degree.
    ``poll`` is called once per row and may raise to cancel.
    """
    width = max(top, 1)
    below = width ** (arity - 1)  # key // below = total degree
    cut = top * below  # keys of total degree >= top
    gens = []
    for g in generators:
        terms = [(_pack(e, width), c) for e, c in _primitive_terms(g)
                 if sum(e) < top]
        if terms:
            gens.append((min(terms)[0] // below, terms))
    waiting: Dict[int, List[Dict[int, int]]] = {}  # rows by lead degree
    for d in range(top):
        columns = math.comb(d + arity, arity)
        if columns > MAX_COLUMNS:
            return
        batch = []
        for order_f, terms in gens:
            if order_f <= d:
                for s in _degree_keys(arity, d - order_f, width):
                    batch.append({s + k: c for k, c in terms if s + k < cut})
        batch.extend(waiting.pop(d, ()))
        beyond = (d + 1) * below
        for row in batch:
            poll()
            while row:
                lead = min(row)
                if lead >= beyond:
                    waiting.setdefault(lead // below, []).append(row)
                    break
                piv = pivots.get(lead)
                if piv is None:
                    if row[lead] < 0:
                        row = {k: -c for k, c in row.items()}
                    pivots[lead] = row
                    break
                a, b = piv[lead], row[lead]
                g = math.gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    row = {k: a * c for k, c in row.items()}
                get = row.get
                for k, c in piv.items():
                    v = get(k, 0) - b * c
                    if v:
                        row[k] = v
                    else:
                        del row[k]
                if a != 1 and row:
                    g = math.gcd(*row.values())
                    if g != 1:
                        row = {k: c // g for k, c in row.items()}
        yield columns - len(pivots)


def macaulay_colength(arity: int, generators: Sequence[Polynomial], top: int,
                      poll: Callable[[], None]) -> Optional[Colength]:
    """(m_0, staircase) of the ideal of ``generators`` at 0, (INFINITY, None)
    when the germ is not finite, or None when neither is certified with
    truncation degree at most ``top``.  The generators must vanish at 0.

    * Stop at the first d >= 1 with h(d+1) = h(d): m_0 = h(d), and the
      non-pivot columns are the local staircase (listed in ascending tuple
      order, as Mora's staircase is).
    * Not finite when h exceeds the Bezout number (the product of the
      generator degrees; the largest degree to the arity for more generators
      than variables), which bounds m_0 of every finite germ and which h
      passes when the germ is not finite.  Fewer generators than variables
      never cut out an isolated point.
    """
    if len(generators) < arity:
        return INFINITY, None
    degrees = [g.total_degree() for g in generators]
    if len(generators) == arity:
        bezout = math.prod(degrees)
    else:
        bezout = max(degrees) ** arity
    pivots: Dict[int, Dict[int, int]] = {}
    h_prev = 0
    for d, h in enumerate(truncated_colengths(arity, generators, top, poll,
                                              pivots)):
        if h > bezout:
            return INFINITY, None
        if d >= 1 and h == h_prev:
            width = max(top, 1)
            stairs = [_unpack(k, arity, width) for s in range(d)
                      for k in _degree_keys(arity, s, width)
                      if k not in pivots]
            return h, sorted(stairs)
        h_prev = h
    return None
