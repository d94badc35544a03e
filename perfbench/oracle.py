"""Independent arithmetic for building inputs and checking answers.

Nothing here imports germlab: polynomials are plain dicts mapping exponent
tuples to Fractions, so a bug in germlab's own arithmetic cannot hide a wrong
answer.  The routes are

* a small parser and printer for germlab's polynomial grammar, so inputs can
  be written as command-line text and outputs read back;
* substitution and evaluation, used to build rescaled and linearly composed
  germs and the target points of fibers;
* the truncated-rank count of a local algebra (Macaulay matrices, after
  Dayton and Zeng): h(D) = dim Q[x]/(I + m^D) by exact row reduction, stopped
  at the first D with h(D) = h(D+1), where Nakayama gives m_0 = h(D);
* an exact univariate resultant and exact rational n-th roots, used to
  certify Stoll fibers;
* sympy, imported only after the timed loop, for global Groebner bases,
  elimination ideals, the eliminant of a linear form and the radical of a
  zero-dimensional fiber.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Poly = Dict[Tuple[int, ...], Fraction]


# ---------------------------------------------------------------------------
# polynomials as dicts
# ---------------------------------------------------------------------------


def var(n: int, i: int) -> Poly:
    return {tuple(int(k == i) for k in range(n)): Fraction(1)}


def const(n: int, c) -> Poly:
    return {(0,) * n: Fraction(c)} if c else {}


def add(p: Poly, q: Poly, scale=1) -> Poly:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        for f, d in q.items():
            m = tuple(a + b for a, b in zip(e, f))
            v = out.get(m, 0) + c * d
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def power(p: Poly, k: int, n: int) -> Poly:
    out = const(n, 1)
    for _ in range(k):
        out = mul(out, p)
    return out


def substitute(p: Poly, values: Sequence[Poly], n: int) -> Poly:
    """p(values[0], values[1], ...) in a ring with n variables."""
    out: Poly = {}
    for e, c in p.items():
        term = const(n, c)
        for v, k in zip(values, e):
            if k:
                term = mul(term, power(v, k, n))
        out = add(out, term)
    return out


def evaluate(p: Poly, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            term *= x ** k
        total += term
    return total


def order(p: Poly) -> int:
    return min((sum(e) for e in p), default=-1)


def scale_vars(p: Poly, factors: Sequence[Fraction]) -> Poly:
    """p(f_0 x_0, f_1 x_1, ...)."""
    out = {}
    for e, c in p.items():
        for f, k in zip(factors, e):
            c *= f ** k
        out[e] = c
    return out


def fmt(p: Poly, names: Sequence[str]) -> str:
    """Text in germlab's input grammar, terms by descending degree."""
    if not p:
        return "0"
    chunks = []
    for i, e in enumerate(sorted(p, key=lambda e: (-sum(e), tuple(-x for x in e)))):
        c = p[e]
        mag = -c if c < 0 else c
        factors = [] if mag == 1 and sum(e) else [str(mag)]
        factors += [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        body = "*".join(factors)
        if i == 0:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(chunks)


def fmt_point(point: Sequence[Fraction]) -> str:
    return ", ".join(str(c) for c in point)


_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def parse(text: str, names: Sequence[str]) -> Poly:
    """Read a polynomial printed by germlab (expanded, explicit '*' and '^')."""
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    out: Poly = {}
    text = text.strip()
    if text == "0":
        return out
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read polynomial {text!r}")
        pos = m.end()
        coeff = Fraction(-1 if m.group(1) == "-" else 1)
        exps = [0] * n
        for factor in m.group(2).strip().split("*"):
            factor = factor.strip()
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, k = factor.partition("^")
                exps[index[name]] += int(k) if k else 1
        out = add(out, {tuple(exps): coeff})
    return out


def monic(p: Poly) -> Poly:
    """Scaled so that the coefficient of the largest exponent tuple is 1."""
    lead = p[max(p, key=lambda e: (sum(e), e))]
    return {e: c / lead for e, c in p.items()}


# ---------------------------------------------------------------------------
# local multiplicity by truncated rank
# ---------------------------------------------------------------------------


def _monomials(n: int, below: int) -> List[Tuple[int, ...]]:
    def of_degree(k: int, d: int):
        if k == 1:
            yield (d,)
            return
        for i in range(d, -1, -1):
            for rest in of_degree(k - 1, d - i):
                yield (i,) + rest

    return [e for d in range(below) for e in of_degree(n, d)]


def _truncated_colength(gens: Sequence[Poly], n: int, D: int) -> int:
    """dim Q[x]/(I + m^D) by exact Gaussian elimination."""
    pivots: Dict[Tuple[int, ...], Poly] = {}
    for f in gens:
        for a in _monomials(n, D - order(f)):
            row: Poly = {}
            for e, c in f.items():
                m = tuple(x + y for x, y in zip(a, e))
                if sum(m) < D:
                    row[m] = c
            while row:
                col = min(row, key=lambda m: (sum(m), m))
                piv = pivots.get(col)
                if piv is None:
                    inv = 1 / row[col]
                    pivots[col] = {m: c * inv for m, c in row.items()}
                    break
                row = add(row, piv, -row[col])
    return len(_monomials(n, D)) - len(pivots)


def local_colength(gens: Sequence[Poly], n: int, max_D: int = 40) -> Optional[int]:
    """m_0 = dim of the local algebra at 0, or None if not stable by max_D."""
    prev = None
    for D in range(1, max_D + 1):
        h = _truncated_colength(gens, n, D)
        if h == prev:
            return h
        prev = h
    return None


# ---------------------------------------------------------------------------
# univariate helpers
# ---------------------------------------------------------------------------


def resultant(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    """Resultant of two dense univariate coefficient lists (constant first),
    as the determinant of the Sylvester matrix."""
    dp, dq = len(p) - 1, len(q) - 1
    size = dp + dq
    rows = []
    for i in range(dq):
        rows.append([Fraction(0)] * i + list(reversed(p)) + [Fraction(0)] * (dq - 1 - i))
    for i in range(dp):
        rows.append([Fraction(0)] * i + list(reversed(q)) + [Fraction(0)] * (dp - 1 - i))
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def rational_root(v: Fraction, k: int) -> List[Fraction]:
    """All rational x with x^k = v."""
    if v == 0:
        return [Fraction(0)]
    sign = 1 if v > 0 else -1
    if sign < 0 and k % 2 == 0:
        return []
    num, den = abs(v.numerator), v.denominator
    rn, rd = round(num ** (1 / k)), round(den ** (1 / k))
    for a in (rn - 1, rn, rn + 1):
        for b in (rd - 1, rd, rd + 1):
            if a > 0 and b > 0 and a ** k == num and b ** k == den:
                root = Fraction(a, b) * sign
                return [root, -root] if k % 2 == 0 else [root]
    return []


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


# ---------------------------------------------------------------------------
# sympy routes (imported late: its memory must not count in peak_rss_mb)
# ---------------------------------------------------------------------------


def sympy_basis(gens: Sequence[Poly], names: Sequence[str], order_name: str
                ) -> List[Poly]:
    """Reduced Groebner basis from sympy, as monic dict polynomials."""
    import sympy

    syms = sympy.symbols(list(names))
    exprs = [_to_sympy(g, syms) for g in gens]
    G = sympy.groebner(exprs, *syms, order=order_name)
    return [_from_sympy(sympy.Poly(g, *syms)) for g in G.exprs]


def sympy_distinct_points(gens: Sequence[Poly], names: Sequence[str],
                          length: int, form: Sequence[int]) -> int:
    """Number of distinct complex points of a zero-dimensional ideal I whose
    quotient A = Q[x]/I has dimension ``length``.

    If the eliminant p of t = sum form_i x_i has degree ``length``, then
    Q[t]/(p) = A and the points are the roots of p, so the count is the
    degree of sqf(p).  Otherwise (the form fails to separate the points, or
    meets a non-reduced point along its tangent) the count comes from the
    radical: by Seidenberg's lemma I + (sqf(p_1), ..., sqf(p_n)), where p_i
    is the eliminant of I in x_i, is the radical of I, and its quotient has
    one dimension per point, counted as the standard monomials of a grevlex
    basis."""
    import sympy

    degree, separated = _separated_eliminant(gens, names, form)
    if degree == length:
        return separated
    syms = sympy.symbols(list(names))
    exprs = [_to_sympy(g, syms) for g in gens]
    radical = list(exprs)
    for i in range(len(syms)):
        order = syms[:i] + syms[i + 1:] + syms[i:i + 1]
        G = sympy.groebner(exprs, *order, order="grevlex")
        radical.append(sympy.sqf_part(G.fglm("lex").exprs[-1]))
    G = sympy.groebner(radical, *syms, order="grevlex")
    leads = [sympy.Poly(g, *syms).monoms(order="grevlex")[0] for g in G.exprs]
    box = [min(m[i] for m in leads if sum(m) == m[i]) for i in range(len(syms))]
    count, stack = 0, [(0,) * len(syms)]
    seen = set(stack)
    while stack:
        e = stack.pop()
        if any(all(a >= b for a, b in zip(e, m)) for m in leads):
            continue
        count += 1
        for i in range(len(e)):
            f = e[:i] + (e[i] + 1,) + e[i + 1:]
            if f[i] < box[i] and f not in seen:
                seen.add(f)
                stack.append(f)
    return count


def _separated_eliminant(gens: Sequence[Poly], names: Sequence[str],
                         form: Sequence[int]) -> Tuple[int, int]:
    """(degree, squarefree degree) of the eliminant of t = sum form_i x_i in
    a zero-dimensional ideal.  When the linear form separates the points, the
    squarefree degree is the number of distinct points."""
    import sympy

    syms = sympy.symbols(list(names) + ["t_sep"])
    t = syms[-1]
    exprs = [_to_sympy(g, syms[:-1]) for g in gens]
    exprs.append(t - sum(c * x for c, x in zip(form, syms)))
    G = sympy.groebner(exprs, *syms, order="grevlex")
    last = sympy.Poly(G.fglm("lex").exprs[-1], t)
    return last.degree(), sympy.Poly(sympy.sqf_part(last), t).degree()


def _to_sympy(p: Poly, syms):
    import sympy

    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s ** k for s, k in zip(syms, e)])
        for e, c in p.items()
    ])


def _from_sympy(poly) -> Poly:
    out = {tuple(e): Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}
    return monic(out)
