"""Seeded inputs and answer checks for the three workloads.

Each workload is a fixed cycle of operation kinds.  Its function in
``CYCLES`` draws one fresh instance of every kind from ``random.Random``
seeded by (workload, seed, cycle), so the same seed gives the same inputs and
no two operations of a run share an input.  An operation is

* ``call(gl, guards)``: the timed call into germlab (``gl`` is the imported
  package, looked up at call time so that traced wrappers are seen);
* ``check(value)``: the answer check, run outside the timed region.  It
  compares against a closed form or an independent route in ``oracle``,
  never against a value germlab computed.  It returns a bool, a failure
  cause read from a CLI exit code, or a thunk for a check that needs sympy,
  which runs after the loop so that sympy's memory stays out of
  peak_rss_mb.

Every polynomial an operation receives is drawn here as an ``oracle`` dict
and converted to germlab objects (or command-line text) when the cycle is
built, which is untimed.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import oracle as O

Poly = O.Poly


@dataclass
class Op:
    kind: str
    key: str
    call: Callable
    check: Callable


def _rng(workload: str, seed: int, cycle) -> random.Random:
    return random.Random(f"germlab-bench:{workload}:{seed}:{cycle}")


def _unit(r: random.Random) -> Fraction:
    """A random nonzero rational of small height."""
    return Fraction(r.choice((1, 2, 3, 4, 5, 7, 9)), r.choice((1, 2, 3, 4))) * r.choice((1, -1))


def _P(text: str, names: Sequence[str]) -> Poly:
    return O.parse(text, names)


def _times(p: Poly, c: Fraction) -> Poly:
    return {e: a * c for e, a in p.items()}


def _scaled_map(comps: Sequence[Poly], src: Sequence[Fraction],
                tgt: Sequence[Fraction]) -> List[Poly]:
    """x -> tgt_j * F_j(src_0 x_0, src_1 x_1, ...)."""
    return [_times(O.scale_vars(f, src), g) for f, g in zip(comps, tgt)]


def _gl_map(gl, names: Sequence[str], comps: Sequence[Poly]):
    ring = gl.PolyRing(tuple(names))
    return gl.PolyMap(tuple(ring.polynomial(dict(c)) for c in comps))


def _monic_set(polys: Sequence[Poly]):
    return sorted(tuple(sorted(O.monic(p).items())) for p in polys)


# ---------------------------------------------------------------------------
# pipeline: germlab.cli.run_command on the paper examples and projection
# families, each instance rescaled so that no input repeats
# ---------------------------------------------------------------------------

_JSON = ["--json", "--no-timestamp"]
_ST, _XYT = ("s", "t"), ("x", "y", "t")
_XY, _UV = ("x", "y"), ("u", "v")
_XYZW = ("x", "y", "z", "w")
_SURFACE = ["s^2 - t^2", "s^3 - s*t^2", "t"]
_SURFACE_IMAGE = "x^2*t^2 + x^3 - y^2"


def _result(out) -> dict:
    code, text = out
    return json.loads(text)["result"]


#: failure cause of an unexpected CLI exit code
_EXIT_CAUSE = {1: "error", 2: "precondition", 3: "guard"}


def _cli(kind, argv, expect_code, check) -> Op:
    def call(gl, guards):
        return gl.cli.run_command(argv)

    def checked(out):
        if out[0] != expect_code:
            return _EXIT_CAUSE.get(out[0], "wrong")
        return check(_result(out))

    return Op(kind, " ".join(argv), call, checked)


def _all(verdicts):
    """Combine bools and deferred thunks into one verdict."""
    if not all(verdicts):
        return False
    thunks = [v for v in verdicts if callable(v)]
    return (lambda: all(t() for t in thunks)) if thunks else True


def _image_check(expected: Sequence[Poly], cod):
    """The image ideal equals the closed-form ideal: sympy's reduced bases of
    both generator sets agree."""
    def check(result):
        gens = [O.parse(g, cod) for g in result["image_ideal"]]
        return result["codomain"] == list(cod) and (
            lambda: _monic_set(O.sympy_basis(gens, cod, "grevlex"))
            == _monic_set(O.sympy_basis(expected, cod, "grevlex")))

    return check


def _spodzieja_check(i0, reg, lelong, geo):
    def check(r):
        return (r["i0"], r["regular_mult"], r["lelong"],
                r["geometric_mult_lower_bound"], r["holds"], r["naive_product"]
                ) == (i0, reg, lelong, geo, i0 == reg * lelong, geo * lelong)

    return check


def _surface_ops(r, k, out_dir) -> List[Op]:
    src, tgt = [_unit(r), _unit(r)], [_unit(r) for _ in range(3)]
    comps = _scaled_map([_P(c, _ST) for c in _SURFACE], src, tgt)
    G = O.scale_vars(_P(_SURFACE_IMAGE, _XYT), [1 / g for g in tgt])
    base = ["--ring", "s,t", "--coring", "x,y,t", "--map",
            ", ".join(O.fmt(c, _ST) for c in comps)]
    sng = O.fmt_point([0, 0, tgt[2]])
    reg = O.fmt_point([3 * tgt[0], 6 * tgt[1], tgt[2]])
    image_check = _image_check([G], _XYT)
    y2 = _P("y^2", _XYT)
    ops = [
        _cli("surface.image", ["image"] + base + _JSON, 0, image_check),
        _cli("surface.index", ["index"] + base + ["--seed", str(k)] + _JSON, 0,
             lambda res: res["intersection_index"] == 2),
        _cli("surface.spodzieja", ["spodzieja"] + base + ["--extra-point", sng,
             "--seed", str(k)] + _JSON, 0, _spodzieja_check(2, 1, 2, 2)),
        _cli("surface.fiber_sng", ["fiber"] + base + ["--point", sng] + _JSON, 0,
             lambda res: res["fiber_point_count"] == 2),
        _cli("surface.fiber_reg", ["fiber"] + base + ["--point", reg] + _JSON, 0,
             lambda res: res["fiber_point_count"] == 1),
        _cli("surface.degree", ["degree", "--coring", "x,y,t", "--ideal",
             O.fmt(G, _XYT)] + _JSON, 0, lambda res: res["lelong_degree"] == 2),
        _cli("surface.cone", ["cone", "--coring", "x,y,t", "--ideal",
             O.fmt(G, _XYT)] + _JSON, 0,
             lambda res: _monic_set([O.parse(g, _XYT) for g in res["tangent_cone"]])
             == _monic_set([y2])),
    ]
    # the same example as a scenario file, as in scenarios/counterexample.scn
    scn = out_dir / f"counterexample-{k}.scn"
    scn.write_text(
        "ring s t ;\ncoring x y t ;\n"
        f"map f = {base[5]} ;\npoint sng = {sng} ;\npoint reg = {reg} ;\n"
        f"task image f ;\ntask index f seed={k} ;\ntask fiber f sng ;\n"
        f"task fiber f reg ;\ntask spodzieja f extra=sng seed={k} ;\n"
    )
    task_checks = [
        image_check,
        lambda res: res["intersection_index"] == 2,
        lambda res: res["fiber_point_count"] == 2,
        lambda res: res["fiber_point_count"] == 1,
        _spodzieja_check(2, 1, 2, 2),
    ]
    ops.append(_scenario_op("scenario.counterexample", scn, task_checks))
    return ops


def _scenario_op(kind, path: Path, task_checks) -> Op:
    argv = ["run", str(path)] + _JSON

    def call(gl, guards):
        return gl.cli.run_command(argv)

    def check(out):
        code, text = out
        if code != 0:
            return _EXIT_CAUSE.get(code, "wrong")
        tasks = json.loads(text)["tasks"]
        return len(tasks) == len(task_checks) and _all(
            [c(t["result"]) for c, t in zip(task_checks, tasks)])

    return Op(kind, path.read_text(), call, check)


def _branch_union_op(r, k, out_dir) -> Op:
    """scenarios/branch_union.scn, rescaled: fibers of x -> (x, (x^2-y^2)(y-1))."""
    a, b = _unit(r), _unit(r)
    comps = _scaled_map([_P("x", _XY), _P("x^2*y - y^3 - x^2 + y^2", _XY)],
                        [1, 1], [a, b])
    u0 = Fraction(r.choice((1, 2, 3)), r.choice((4, 5, 7)))
    scn = out_dir / f"branch_union-{k}.scn"
    scn.write_text(
        "ring x y ;\ncoring u v ;\n"
        f"map F = {', '.join(O.fmt(c, _XY) for c in comps)} ;\n"
        f"point origin = 0 , 0 ;\npoint generic = {a * u0} , 0 ;\n"
        "task fiber F generic ;\ntask fiber F origin ;\n"
        "task fiber F origin withmult=true ;\ntask critical F ;\n"
    )
    det = _jacobian_det(comps, 2)
    critical_check = _critical_check(comps, det)
    return _scenario_op("scenario.branch_union", scn, [
        lambda res: res["fiber_point_count"] == 3,
        lambda res: res["fiber_point_count"] == 2,
        lambda res: res["fiber_point_count"] == 3,
        critical_check,
    ])


def _derivative(p: Poly, i: int) -> Poly:
    out = {}
    for e, c in p.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def _jacobian_det(comps: Sequence[Poly], n: int) -> Poly:
    J = [[_derivative(f, j) for j in range(n)] for f in comps]
    return O.add(O.mul(J[0][0], J[1][1]), O.mul(J[0][1], J[1][0]), -1)


def _critical_check(comps, det):
    """The critical value curve, against sympy's elimination of (u - F1,
    v - F2, det) in lex order with x, y first."""
    def check(res):
        got = [O.parse(g, _UV) for g in res["critical_locus"]]
        return res["codomain"] == list(_UV) and (lambda: _monic_set(got) == expected())

    def expected():
        names = _XY + _UV
        lift = lambda p: {e + (0, 0): c for e, c in p.items()}
        gens = [lift(det)] + [
            O.add(O.var(4, 2 + j), lift(f), -1) for j, f in enumerate(comps)]
        basis = O.sympy_basis(gens, names, "lex")
        return _monic_set([{e[2:]: c for e, c in g.items()} for g in basis
                           if all(not (e[0] or e[1]) for e in g)])

    return check


def _singular_is_u2_v(gens):
    """Sng of a cusp c1*v^2 - c2*u^3 is cut out by (u^2, v) exactly."""
    want = _monic_set([_P("u^2", _UV), _P("v", _UV)])
    return lambda: _monic_set(O.sympy_basis(gens, _UV, "grevlex")) == want


def _map_ops(r, k) -> List[Op]:
    ops = []
    # the cusp pull-back under F = (x^2, y)
    src, tgt = [_unit(r), _unit(r)], [_unit(r), _unit(r)]
    F = _scaled_map([_P("x^2", _XY), _P("y", _XY)], src, tgt)
    W = _times(O.scale_vars(_P("v^2 - u^3", _UV), [1 / g for g in tgt]), _unit(r))
    base = ["--ring", "x,y", "--coring", "u,v", "--map",
            ", ".join(O.fmt(c, _XY) for c in F)]
    ops += [
        _cli("cusp.pullback_failed", ["pullback"] + base + ["--ideal", O.fmt(W, _UV),
             "--seed", str(k)] + _JSON, 2,
             lambda res: res["verdict"] == "hypothesis_failed" and not res["v_smooth"]),
        _cli("cusp.pullback_certified", ["pullback"] + base + ["--ideal", "v",
             "--seed", str(k)] + _JSON, 0,
             lambda res: (res["mu"], res["lambda"], res["kappa"], res["d"],
                          res["verdict"]) == (2, 2, 1, 1, "W_smooth_certified")),
        _cli("cusp.mult", ["mult"] + base + _JSON, 0,
             lambda res: res["local_multiplicity"] == 2),
        _cli("cusp.singular", ["singular", "--coring", "u,v", "--ideal",
             O.fmt(W, _UV)] + _JSON, 0,
             lambda res: _singular_is_u2_v([O.parse(g, _UV)
                                            for g in res["singular_locus"]])),
        _cli("cusp.smooth", ["smooth", "--coring", "u,v", "--ideal",
             O.fmt(W, _UV)] + _JSON, 0, lambda res: res["smooth_at_origin"] is False),
    ]
    branch = _times(O.scale_vars(_P("y - x^3", _XY), src), _unit(r))
    ops.append(_cli("branch.smooth", ["smooth", "--ring", "x,y", "--ideal",
                    O.fmt(branch, _XY)] + _JSON, 0,
                    lambda res: res["smooth_at_origin"] is True))
    # the fold F = (x^2*y, x + y)
    src, tgt = [_unit(r), _unit(r)], [_unit(r), _unit(r)]
    F = _scaled_map([_P("x^2*y", _XY), _P("x + y", _XY)], src, tgt)
    det = _jacobian_det(F, 2)
    base = ["--ring", "x,y", "--coring", "u,v", "--map",
            ", ".join(O.fmt(c, _XY) for c in F)]
    ops += [
        _cli("fold.mult", ["mult"] + base + _JSON, 0,
             lambda res: res["local_multiplicity"] == 3),
        _cli("fold.jacobian", ["jacobian"] + base + _JSON, 0,
             lambda res: O.parse(res["jacobian_determinant"], _XY) == det),
        _cli("fold.critical", ["critical"] + base + _JSON, 0, _critical_check(F, det)),
    ]
    # multiplicity along the axis V = (x) of x -> (x^a (1+y) + x^(a+1), ...)
    for a in (2, 3):
        F = _scaled_map([_P(f"x^{a}*y + x^{a} + x^{a + 1}", _XY),
                         _P("y + 2*x*y + y^2", _XY)], [_unit(r), _unit(r)],
                        [_unit(r), _unit(r)])
        ops.append(_cli(f"axis.mv{a}", ["mv", "--ring", "x,y", "--map",
                        ", ".join(O.fmt(c, _XY) for c in F), "--ideal", "x",
                        "--seed", str(k)] + _JSON, 0,
                        lambda res, a=a: res["multiplicity_along_V"] == a))
    # global bases, against sympy
    for names, order in ((_XY, "lex"), (("x", "y", "z"), "degrevlex")):
        gens = [_dense(r, len(names), 2, 2) for _ in range(len(names))]
        ops.append(_cli(f"gb.{order}", ["gb", "--ring", ",".join(names), "--ideal",
                        ", ".join(O.fmt(g, names) for g in gens), "--order", order]
                        + _JSON, 0,
                        lambda res, g=gens, n=names, o=order: _basis_check(res, g, n, o)))
    return ops


def _basis_check(res, gens, names, order):
    got = _monic_set([O.parse(g, names) for g in res["basis"]])
    sympy_order = "lex" if order == "lex" else "grevlex"
    return lambda: got == _monic_set(O.sympy_basis(gens, names, sympy_order))


def _projection_ops(r, k) -> List[Op]:
    """2 -> 3 and 2 -> 4 germs with a closed-form index: (s^a, t, s^(ab+1))
    has i0 = a, regular multiplicity 1 and image y^a = x^(ab+1) of Lelong
    number a; (s^2, t^2, s^(2p+1), t^(2q+1)) has i0 = 4, regular multiplicity
    1 and a product-of-cusps image of Lelong number 4."""
    ops = []
    cod = ("x", "t", "y")
    for a, b in ((2, 1), (2, 2), (3, 1)):
        e = a * b + 1
        src, tgt = [_unit(r), _unit(r)], [_unit(r) for _ in range(3)]
        F = _scaled_map([_P(f"s^{a}", _ST), _P("t", _ST), _P(f"s^{e}", _ST)], src, tgt)
        G = _times(O.scale_vars(_P(f"y^{a} - x^{e}", cod), [1 / g for g in tgt]),
                   _unit(r))
        base = ["--ring", "s,t", "--coring", ",".join(cod), "--map",
                ", ".join(O.fmt(c, _ST) for c in F)]
        tag = f"proj3.{a}{e}"
        ops += [
            _cli(f"{tag}.index", ["index"] + base + ["--seed", str(k)] + _JSON, 0,
                 lambda res, a=a: res["intersection_index"] == a),
            _cli(f"{tag}.spodzieja", ["spodzieja"] + base + ["--seed", str(k)]
                 + _JSON, 0, _spodzieja_check(a, 1, a, 1)),
            _cli(f"{tag}.image", ["image"] + base + _JSON, 0, _image_check([G], cod)),
            _cli(f"{tag}.degree", ["degree", "--coring", ",".join(cod), "--ideal",
                 O.fmt(G, cod)] + _JSON, 0,
                 lambda res, a=a: res["lelong_degree"] == a),
        ]
    for p, q in ((1, 1), (1, 2), (2, 1)):
        src, tgt = [_unit(r), _unit(r)], [_unit(r) for _ in range(4)]
        F = _scaled_map([_P("s^2", _ST), _P("t^2", _ST), _P(f"s^{2 * p + 1}", _ST),
                         _P(f"t^{2 * q + 1}", _ST)], src, tgt)
        cusps = [O.scale_vars(_P(g, _XYZW), [1 / c for c in tgt])
                 for g in (f"z^2 - x^{2 * p + 1}", f"w^2 - y^{2 * q + 1}")]
        base = ["--ring", "s,t", "--coring", "x,y,z,w", "--map",
                ", ".join(O.fmt(c, _ST) for c in F)]
        tag = f"proj4.{2 * p + 1}{2 * q + 1}"
        ops += [
            _cli(f"{tag}.index", ["index"] + base + ["--seed", str(k)] + _JSON, 0,
                 lambda res: res["intersection_index"] == 4),
            _cli(f"{tag}.image", ["image"] + base + _JSON, 0,
                 _image_check(cusps, _XYZW)),
        ]
    return ops


def _dense(r: random.Random, n: int, d: int, bound: int) -> Poly:
    """A dense polynomial of degree d without constant term, with small
    integer coefficients; its top-degree part contains the pure power of
    every variable."""
    p: Poly = {}
    for e in O._monomials(n, d + 1)[1:]:
        c = r.randint(-bound, bound)
        if sum(e) == d and max(e) == d:
            c = r.choice((1, 2, -1, -2))
        if c:
            p[e] = Fraction(c)
    return p


def pipeline_cycle(gl, seed: int, cycle, out_dir: Path) -> List[Op]:
    r = _rng("pipeline", seed, cycle)
    k = r.randrange(1 << 30)
    return (_surface_ops(r, k, out_dir) + [_branch_union_op(r, k, out_dir)]
            + _map_ops(r, k) + _projection_ops(r, k))


# ---------------------------------------------------------------------------
# local: local_multiplicity and multiplicity_along_V on finite square germs
# ---------------------------------------------------------------------------


def _unimodular(r: random.Random, n: int) -> List[List[int]]:
    """L*U with unit diagonals and entries in {-1, 0, 1}: determinant 1."""
    L = [[1 if i == j else (r.randint(-1, 1) if i > j else 0) for j in range(n)]
         for i in range(n)]
    U = [[1 if i == j else (r.randint(-1, 1) if i < j else 0) for j in range(n)]
         for i in range(n)]
    return [[sum(L[i][m] * U[m][j] for m in range(n)) for j in range(n)]
            for i in range(n)]


def _linear(M, polys: Sequence[Poly]) -> List[Poly]:
    out = []
    for row in M:
        acc: Poly = {}
        for a, p in zip(row, polys):
            if a:
                acc = O.add(acc, p, a)
        out.append(acc)
    return out


def _compose_linear(r, comps: Sequence[Poly], n: int) -> List[Poly]:
    """T o F o S for a random source map S = (upper unitriangular) o
    (diagonal) and a random unimodular target map T.  S keeps a triangular
    germ triangular: with a dense unimodular S, Mora stalls past the deadline
    on many of these germs (README.md), which would bury the control in
    deadline waits."""
    U = [[1 if i == j else (r.randint(-1, 1) if i < j else 0) for j in range(n)]
         for i in range(n)]
    S = _linear(U, [_times(O.var(n, i), _unit(r)) for i in range(n)])
    return _linear(_unimodular(r, n), [O.substitute(f, S, n) for f in comps])


def _small_poly(r, n: int, monomials: Sequence[Tuple[int, ...]], count: int) -> Poly:
    return {e: Fraction(r.choice((1, 2, 3, -1, -2))) for e in r.sample(list(monomials), count)}


def _above_newton(n: int, exps: Sequence[int], top: int) -> List[Tuple[int, ...]]:
    """Monomials of total degree <= top with weighted degree sum e_i/a_i > 1."""
    return [e for e in O._monomials(n, top + 1)
            if sum(Fraction(x, a) for x, a in zip(e, exps)) > 1]


_NAMES = {2: _XY, 3: ("x", "y", "z")}

_TRI3 = ((2, 2, 3), (2, 3, 2), (2, 3, 4), (2, 4, 3))
_TRI2 = ((2, 3), (3, 4), (4, 5), (5, 6))
_BP3 = ((2, 3, 4), (3, 3, 3), (3, 4, 4), (4, 4, 4))
_BP2 = ((3, 5), (4, 6))


def _degree_k(k: int) -> List[Poly]:
    names = _NAMES[3]
    return [_P(f"x^{k} + y^{k - 1} + x*z^{k - 2}", names),
            _P(f"y^{k} + z^{k - 1} + x^2*y^{k - 3}", names),
            _P(f"z^{k} + x^{k - 1}*y + y^{k - 2}*z", names)]


@functools.lru_cache(maxsize=None)
def _degree_k_m0(k: int) -> int:
    """m_0 of the degree-k germ by truncated rank; diagonal rescaling of
    source and target leaves it unchanged."""
    return O.local_colength(_degree_k(k), 3)


def _mult_op(kind, gl, comps: Sequence[Poly], n: int, expected: Callable) -> Op:
    F = _gl_map(gl, _NAMES[n], comps)

    def call(gl_, guards):
        return gl_.local_multiplicity(F, guards)

    return Op(kind, str(F), call, lambda v: v == expected())


def local_cycle(gl, seed: int, cycle, out_dir: Path) -> List[Op]:
    r = _rng("local", seed, cycle)
    ops: List[Op] = []
    # two draws of every triangular and Brieskorn-Pham kind: their times
    # vary a hundredfold between draws and p50 falls among them, so more
    # draws per run steady p50
    for a, b, c in _TRI3 * 2:
        names = _NAMES[3]
        h = _small_poly(r, 3, [(0, 1, 1), (0, 2, 0), (0, 0, 2), (0, 2, 1), (0, 1, 2)], 2)
        kz = _small_poly(r, 3, [(0, 0, 2), (0, 0, 3)], 1)
        tri = [O.add(_P(f"x^{a}", names), h), O.add(_P(f"y^{b}", names), kz),
               _P(f"z^{c}", names)]
        ops.append(_mult_op(f"tri3.{a}{b}{c}", gl, _compose_linear(r, tri, 3), 3,
                            lambda m=a * b * c: m))
    for a, b in _TRI2 * 2:
        h = _small_poly(r, 2, [(0, j) for j in range(2, b + 2)], 2)
        tri = [O.add(_P(f"x^{a}", _XY), h), _P(f"y^{b}", _XY)]
        ops.append(_mult_op(f"tri2.{a}{b}", gl, _compose_linear(r, tri, 2), 2,
                            lambda m=a * b: m))
    for exps in (_BP3 + _BP2) * 2:
        n = len(exps)
        names = _NAMES[n]
        extra = _above_newton(n, exps, max(exps) + 1)
        comps = []
        for i, a in enumerate(exps):
            pure = tuple(a if j == i else 0 for j in range(n))
            f = {pure: _unit(r)}
            # one term: with two, Mora stalls on 10-25% of draws (README.md)
            f.update(_small_poly(r, n, [e for e in extra if e != pure], 1))
            comps.append(f)
        comps = _scaled_map(comps, [_unit(r) for _ in range(n)], [1] * n)
        m = 1
        for a in exps:
            m *= a
        ops.append(_mult_op(f"bp{n}." + "".join(map(str, exps)), gl, comps, n,
                            lambda m=m: m))
    # the degree-k family, diagonally rescaled; k = 4, 5 stall Mora today.
    # k = 3 four times: with the stalled germ, these fill the top seventh of
    # the latencies, so p90 falls inside the k = 3 times
    for k in (3, 3, 3, 3, 4 + cycle % 2):
        comps = _scaled_map(_degree_k(k), [_unit(r) for _ in range(3)],
                            [_unit(r) for _ in range(3)])
        ops.append(_mult_op(f"degree_k.{k}", gl, comps, 3,
                            lambda k=k: _degree_k_m0(k)))
    for a in (2, 3):
        comps = _scaled_map([_P(f"x^{a}*y + x^{a} + x^{a + 1}", _XY),
                             _P("y + 2*x*y + y^2", _XY)],
                            [_unit(r), _unit(r)], [_unit(r), _unit(r)])
        F = _gl_map(gl, _XY, comps)
        V = gl.Ideal(F.domain, [F.domain.var(0)])
        cfg = gl.GenericityConfig(seed=r.randrange(1 << 30))

        def call(gl_, guards, F=F, V=V, cfg=cfg):
            return gl_.multiplicity_along_V(F, V, cfg, guards)

        ops.append(Op(f"mv.{a}", f"{F} {cfg.seed}", call, lambda v, a=a: v == a))
    return ops


# ---------------------------------------------------------------------------
# zero_dim: fiber counts, rational points and Stoll sums
# ---------------------------------------------------------------------------

_DENSE = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 2, 2), (2, 2, 3))


def _small_point(r, n):
    return tuple(Fraction(r.randint(-3, 3), r.choice((1, 2))) for _ in range(n))


def _dense_fiber(gl, r, degs, distinct: bool) -> Op:
    """F^{-1}(F(x0)) for a dense F whose leading forms meet only at 0, so the
    count with multiplicity is the Bezout number.  The distinct count is
    checked with sympy: the squarefree degree of the eliminant of a random
    linear form, or the radical of the fiber ideal where that form does not
    generate the fiber's algebra."""
    n = len(degs)
    names = _NAMES[n]
    bezout = 1
    for d in degs:
        bezout *= d
    while True:
        comps = [_dense(r, n, d, 3) for d in degs]
        tops = [{e: c for e, c in f.items() if sum(e) == d} for f, d in zip(comps, degs)]
        # forms meeting only at 0 form a complete intersection whose Hilbert
        # function vanishes past sum(d_i - 1), so a small D decides it
        if O.local_colength(tops, n, sum(d - 1 for d in degs) + 2) == bezout:
            break
    x0 = _small_point(r, n)
    y = tuple(O.evaluate(f, x0) for f in comps)
    form = [r.randint(1, 1000) for _ in range(n)]
    F = _gl_map(gl, names, comps)

    def call(gl_, guards):
        return gl_.fiber_points_count(F, y, distinct=distinct, guards=guards)

    def check(v):
        if not distinct:
            return v == bezout
        fiber = [O.add(f, O.const(n, c), -1) for f, c in zip(comps, y)]
        return lambda: O.sympy_distinct_points(fiber, names, bezout, form) == v

    tag = "".join(map(str, degs))
    return Op(f"dense{n}.{tag}.{'distinct' if distinct else 'mult'}",
              f"{F} {y} {distinct}", call, check)


def _primes_near(r, lo: int, hi: int) -> int:
    while True:
        p = r.randrange(lo, hi) | 1
        if all(p % q for q in range(3, int(p ** 0.5) + 1, 2)):
            return p


def _univariate_op(gl, r, with_root: bool) -> Op:
    """x^2 - N with N a product of two primes near 5*10^5 (no rational root),
    optionally times (q*x -+ 1).  _rational_roots divides by trial up to
    sqrt of the constant term, N either way, which sizes the cost; it polls
    no cancel token."""
    p1, p2 = _primes_near(r, 500_000, 550_000), _primes_near(r, 550_000, 600_000)
    N = p1 * p2
    p: Poly = {(2,): Fraction(1), (0,): Fraction(-N)}
    roots = []
    if with_root:
        root = Fraction(r.choice((1, -1)), r.randint(1, 9))
        p = O.mul(p, {(1,): Fraction(root.denominator), (0,): Fraction(-root.numerator)})
        roots = [(root,)]
    ring = gl.PolyRing(("x",))
    I = gl.Ideal(ring, [ring.polynomial(dict(p))])

    def call(gl_, guards):
        return gl_.rational_points(I, guards)

    def check(v):
        return not O.is_square(N) and [tuple(pt) for pt in v] == roots

    return Op(f"univariate.{'root' if with_root else 'none'}", str(I), call, check)


def _stoll_op(gl, r, a: int, b: int) -> Op:
    """Stoll sums over a fiber of (x^a + h(y), y^b).  The fiber over F(x0) is
    regular iff y0 != 0 and Res_y(y^b - v, u - h(y)) != 0, certified here
    exactly; its rational points come from exact rational roots."""
    while True:
        h = {(0, j): Fraction(r.randint(-2, 2)) for j in range(1, max(a, 2) + 1)}
        h = {e: c for e, c in h.items() if c}
        comps = [O.add(_P(f"x^{a}", _XY), h), _P(f"y^{b}", _XY)]
        x0 = (Fraction(r.randint(1, 5), 2), Fraction(r.randint(1, 5), 2))
        u, v = (O.evaluate(f, x0) for f in comps)
        h1 = [Fraction(0)] * (max(a, 2) + 1)
        for (_, j), c in h.items():
            h1[j] = c
        minus_h = [u - h1[0]] + [-c for c in h1[1:]]
        y_poly = [-v] + [Fraction(0)] * (b - 1) + [Fraction(1)]
        while len(minus_h) > 1 and minus_h[-1] == 0:
            minus_h.pop()
        if v and O.resultant(y_poly, minus_h) != 0:
            break
    points = sorted((x, yj) for yj in O.rational_root(v, b)
                    for x in O.rational_root(u - O.evaluate(h, (0, yj)), a))
    F = _gl_map(gl, _XY, comps)
    y = (u, v)
    cfg = gl.GenericityConfig(seed=0, samples=2, retries=2)

    def call(gl_, guards):
        return gl_.stoll_check(F, y, cfg, guards)

    def check(rep):
        return (rep.equal is True and rep.total == a * b
                and rep.covering_number == a * b
                and sorted(pt for pt, _ in rep.point_multiplicities) == points
                and all(m == 1 for _, m in rep.point_multiplicities))

    return Op(f"stoll.{a}{b}", f"{F} {y}", call, check)


def zero_dim_cycle(gl, seed: int, cycle, out_dir: Path) -> List[Op]:
    r = _rng("zero_dim", seed, cycle)
    ops = []
    # (4, 4) twice: the two heaviest kinds then hold the top tenth of the
    # latencies, so p90 falls inside one kind instead of between two
    for degs in _DENSE + ((4, 4),):
        ops.append(_dense_fiber(gl, r, degs, True))
    for degs in _DENSE:
        ops.append(_dense_fiber(gl, r, degs, False))
    ops += [_univariate_op(gl, r, False), _univariate_op(gl, r, True)]
    ops += [_stoll_op(gl, r, a, b) for a, b in ((2, 2), (2, 3), (3, 2))]
    return ops


CYCLES: Dict[str, Callable] = {
    "pipeline": pipeline_cycle,
    "local": local_cycle,
    "zero_dim": zero_dim_cycle,
}

#: per-operation deadline in seconds, enforced through GuardConfig.cancel;
#: run_command takes no cancel token, so on pipeline it is checked afterwards
DEADLINE_S = {"pipeline": 5.0, "local": 1.0, "zero_dim": 5.0}
