"""Command-line driver.

Runs single commands or scenario files, manages seeds and resource guards,
and emits deterministic text or JSON reports.  Exit codes: 0 success,
1 parse/usage error, 2 hypothesis or precondition failure, 3 resource guard.

JSON schema (stable key order; byte-identical for identical invocations when
--no-timestamp is given):

    {"tool": "germlab", "version": ..., "command": ..., "inputs": {...},
     "config": {"seed": ..., ...}, "result": {...}, "witnesses": {...},
     "warnings": [...], "timestamp": ...}

All integers are exact; values at or beyond 2^53 are rendered as decimal
strings so consumers never round.  Rationals are rendered as "p/q" strings.
The environment variable GERMLAB_SEED supplies a default seed (the --seed
flag wins).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .errors import GermlabError, ParseError, PreconditionError, ResourceLimitError
from .gb import GuardConfig, Ideal, buchberger_basis
from .germ import (
    _mono_str,
    fiber_points_count,
    image_ideal,
    is_smooth_at_origin,
    local_multiplicity_report,
    singular_locus,
    tangent_cone,
)
from .intersect import (
    GenericityConfig,
    PullbackReport,
    critical_locus,
    intersection_index,
    jacobian_nonvanishing_on,
    multiplicity_along_V,
    pullback_report,
    stoll_check,
    verify_intersection_formula,
)
from .orders import order_from_name
from .parse import Scenario, parse_point, parse_polynomial, parse_scenario
from .poly import INFINITY, PolyMap, PolyRing, jacobian_determinant

_SAFE_INT = 1 << 53

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_RESOURCE = 3

COMMANDS = (
    "gb", "mult", "degree", "cone", "image", "singular", "smooth", "fiber",
    "index", "spodzieja", "stoll", "critical", "jacobian", "mv", "pullback",
    "run",
)


def _jsonable(value):
    """Make report values JSON-safe: exact ints, 'p/q' rationals, str fallback."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= _SAFE_INT else value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return "infinity" if value == INFINITY else value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _point_str(point: Sequence[Fraction]) -> str:
    return ", ".join(str(c) for c in point)


class CommandContext:
    """Parsed inputs of one invocation (from argv or from a scenario task)."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.ring = PolyRing(tuple(_split_names(args.ring))) if args.ring else None
        self.coring = (
            PolyRing(tuple(_split_names(args.coring))) if args.coring else None
        )
        self.guards = GuardConfig(max_degree=args.max_degree,
                                  max_basis=args.max_basis)
        self.config = GenericityConfig(seed=args.seed, samples=args.samples,
                                       retries=args.retries)

    def need_ring(self) -> PolyRing:
        if self.ring is None:
            raise PreconditionError("--ring is required for this command")
        return self.ring

    def the_map(self) -> PolyMap:
        if not self.args.map:
            raise PreconditionError("--map is required for this command")
        ring = self.need_ring()
        comps = tuple(
            parse_polynomial(part, ring) for part in _split_commas(self.args.map)
        )
        coring = self.coring
        if coring is not None and coring.arity != len(comps):
            raise PreconditionError(
                f"--coring arity {coring.arity} does not match {len(comps)} "
                "map components"
            )
        return PolyMap(comps, coring)

    def the_ideal(self, ring: PolyRing) -> Ideal:
        if not self.args.ideal:
            raise PreconditionError("--ideal is required for this command")
        gens = [parse_polynomial(part, ring)
                for part in _split_commas(self.args.ideal)]
        return Ideal(ring, gens)

    def ideal_side_ring(self) -> PolyRing:
        """Ring for standalone-ideal commands: scenario bindings pin the side;
        on the command line --coring wins when given (image-side ideals)."""
        side = getattr(self.args, "ideal_side", None)
        if side == "coring":
            if self.coring is None:
                raise PreconditionError("image-side ideal needs a coring")
            return self.coring
        if side == "ring":
            return self.need_ring()
        return self.coring or self.need_ring()

    def maybe_ideal(self, ring: PolyRing) -> Optional[Ideal]:
        if not self.args.ideal:
            return None
        return self.the_ideal(ring)

    def the_point(self) -> Tuple[Fraction, ...]:
        if not self.args.point:
            raise PreconditionError("--point is required for this command")
        return parse_point(self.args.point)

    def extra_points(self) -> List[Tuple[Fraction, ...]]:
        return [parse_point(text) for text in (self.args.extra_point or [])]


def _split_commas(text: str) -> List[str]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise PreconditionError(f"empty item in comma-separated list: {text!r}")
    return parts


def _split_names(text: str) -> List[str]:
    return [p for p in text.replace(",", " ").split() if p]


# ---------------------------------------------------------------------------
# command handlers: each returns (result, witnesses, warnings)
# ---------------------------------------------------------------------------


def _ideal_strs(I: Ideal) -> List[str]:
    return [str(g) for g in I.generators]


def _handle_gb(ctx: CommandContext):
    ring = ctx.ideal_side_ring()
    I = ctx.the_ideal(ring)
    order = order_from_name(ctx.args.order)
    gb = buchberger_basis(I, order, ctx.guards)
    result = {
        "order": str(order),
        "basis": [str(p) for p in gb.basis],
        "is_local": gb.is_local,
    }
    witnesses = {
        "leading_monomials": [_mono_str(ring, e) for e in gb.leading_exponents],
    }
    return result, witnesses, []


def _handle_mult(ctx: CommandContext):
    report = local_multiplicity_report(ctx.the_map(), ctx.guards)
    return {"local_multiplicity": report.value}, dict(report.witness), []


def _handle_degree(ctx: CommandContext):
    from .germ import lelong_report

    ring = ctx.ideal_side_ring()
    I = ctx.the_ideal(ring)
    report = lelong_report(I, ctx.guards)
    return (
        {"lelong_degree": report.value},
        dict(report.witness),
        list(report.warnings),
    )


def _handle_cone(ctx: CommandContext):
    ring = ctx.ideal_side_ring()
    I = ctx.the_ideal(ring)
    cone = tangent_cone(I, ctx.guards)
    return {"tangent_cone": _ideal_strs(cone)}, {}, []


def _handle_image(ctx: CommandContext):
    F = ctx.the_map()
    I = ctx.maybe_ideal(F.domain)
    img = image_ideal(F, I, ctx.guards)
    return (
        {"image_ideal": _ideal_strs(img),
         "codomain": list(img.ring.variables)},
        {},
        [],
    )


def _handle_singular(ctx: CommandContext):
    ring = ctx.ideal_side_ring()
    I = ctx.the_ideal(ring)
    sing = singular_locus(I, ctx.guards)
    return {"singular_locus": _ideal_strs(sing)}, {}, []


def _handle_smooth(ctx: CommandContext):
    ring = ctx.ideal_side_ring()
    I = ctx.the_ideal(ring)
    return {"smooth_at_origin": is_smooth_at_origin(I, ctx.guards)}, {}, []


def _handle_fiber(ctx: CommandContext):
    F = ctx.the_map()
    y = ctx.the_point()
    distinct = not ctx.args.with_multiplicity
    count = fiber_points_count(F, y, distinct=distinct, guards=ctx.guards)
    result = {
        "fiber_point_count": count,
        "distinct": distinct,
        "point": _point_str(y),
    }
    return result, {}, []


def _handle_index(ctx: CommandContext):
    F = ctx.the_map()
    idx = intersection_index(F, ctx.config, ctx.guards)
    warnings = [idx.warning] if idx.warning else []
    return (
        {"intersection_index": idx.value, "projections_agreed": idx.agreed},
        {"projections": [list(map(list, p)) for p in idx.projections]},
        warnings,
    )


def _handle_spodzieja(ctx: CommandContext):
    F = ctx.the_map()
    rep = verify_intersection_formula(F, ctx.extra_points(), ctx.config,
                                      ctx.guards)
    result = {
        "i0": rep.i0,
        "regular_mult": rep.regular_mult,
        "lelong": rep.lelong,
        "geometric_mult_lower_bound": rep.geometric_mult_lower_bound,
        "holds": rep.holds,
        "naive_product": rep.naive_product,
    }
    witnesses = {
        "projections": [list(map(list, p)) for p in rep.index.projections],
        "regular_sampling": {
            "image_samples": [_point_str(p)
                              for p in rep.sampling["image_samples"]],
            "discarded_singular_samples": [
                _point_str(p)
                for p in rep.sampling["discarded_singular_samples"]
            ],
            "fiber_counts": list(rep.sampling["fiber_counts"]),
        },
        "extra_samples": [_point_str(p) for p in ctx.extra_points()],
    }
    return result, witnesses, list(rep.warnings)


def _handle_stoll(ctx: CommandContext):
    F = ctx.the_map()
    y = ctx.the_point()
    rep = stoll_check(F, y, ctx.config, ctx.guards)
    result = {
        "point_multiplicities": [
            {"point": _point_str(pt), "multiplicity": m}
            for pt, m in rep.point_multiplicities
        ],
        "sum": rep.total,
        "covering_number": rep.covering_number,
        "equal": rep.equal,
    }
    return result, {}, []


def _handle_critical(ctx: CommandContext):
    F = ctx.the_map()
    crit = critical_locus(F, ctx.guards)
    return (
        {"critical_locus": _ideal_strs(crit),
         "codomain": list(crit.ring.variables)},
        {"jacobian_determinant": str(jacobian_determinant(F))},
        [],
    )


def _handle_jacobian(ctx: CommandContext):
    F = ctx.the_map()
    det = jacobian_determinant(F)
    result = {"jacobian_determinant": str(det)}
    if ctx.args.ideal:
        V = ctx.the_ideal(F.domain)
        result["nonvanishing_on_ideal"] = jacobian_nonvanishing_on(
            F, V, ctx.guards
        )
    return result, {}, []


def _handle_mv(ctx: CommandContext):
    from .intersect import multiplicity_along_V_details

    F = ctx.the_map()
    V = ctx.the_ideal(F.domain)
    value, details = multiplicity_along_V_details(F, V, ctx.config, ctx.guards)
    warnings = []
    if ctx.config.samples < 2:
        warnings.append("fewer than 2 samples: multiplicity along V is fragile")
    witnesses = {
        "samples": [_point_str(p) for p in details["samples"]],
        "local_multiplicities": list(details["local_multiplicities"]),
    }
    return {"multiplicity_along_V": value}, witnesses, warnings


def _handle_pullback(ctx: CommandContext):
    F = ctx.the_map()
    if ctx.coring is None:
        raise PreconditionError("pullback needs --coring for the W ideal")
    W = ctx.the_ideal(ctx.coring)
    rep = pullback_report(F, W, ctx.extra_points(), ctx.config, ctx.guards)
    result = _pullback_result(rep)
    witnesses = {"pullback_ideal": [str(g) for g in rep.pullback_generators]}
    return result, witnesses, list(rep.warnings)


def _pullback_result(rep: PullbackReport) -> Dict[str, object]:
    return {
        "mu": rep.mu,
        "lambda": rep.lam,
        "kappa": rep.kappa,
        "d": rep.d,
        "jacobian_nonvanishing": rep.jacobian_nonvanishing,
        "v_smooth": rep.v_smooth,
        "pullback_equal": rep.pullback_equal,
        "chain_holds": rep.chain_holds,
        "verdict": rep.verdict,
        "reason": rep.reason,
    }


_HANDLERS = {
    "gb": _handle_gb,
    "mult": _handle_mult,
    "degree": _handle_degree,
    "cone": _handle_cone,
    "image": _handle_image,
    "singular": _handle_singular,
    "smooth": _handle_smooth,
    "fiber": _handle_fiber,
    "index": _handle_index,
    "spodzieja": _handle_spodzieja,
    "stoll": _handle_stoll,
    "critical": _handle_critical,
    "jacobian": _handle_jacobian,
    "mv": _handle_mv,
    "pullback": _handle_pullback,
}

#: commands whose result indicates a failed theorem hypothesis via exit 2
_HYPOTHESIS_KEYS = {"pullback": ("verdict", "W_smooth_certified")}


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _inputs_dict(args: argparse.Namespace) -> Dict[str, object]:
    inputs: Dict[str, object] = {}
    for key in ("ring", "coring", "map", "ideal", "point"):
        value = getattr(args, key, None)
        if value:
            inputs[key] = value
    extras = getattr(args, "extra_point", None)
    if extras:
        inputs["extra_points"] = list(extras)
    if getattr(args, "order", None) and args.command == "gb":
        inputs["order"] = args.order
    return inputs


def _build_report(command: str, args: argparse.Namespace, result, witnesses,
                  warnings) -> Dict[str, object]:
    report = {
        "tool": "germlab",
        "version": __version__,
        "command": command,
        "inputs": _inputs_dict(args),
        "config": {
            "seed": args.seed,
            "samples": args.samples,
            "retries": args.retries,
            "max_degree": args.max_degree,
            "max_basis": args.max_basis,
        },
        "result": result,
        "witnesses": witnesses,
        "warnings": list(warnings),
    }
    if not args.no_timestamp:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
    return report


def _error_report(command: str, args, code: int, message: str,
                  location: Optional[Dict[str, int]] = None) -> Dict[str, object]:
    err: Dict[str, object] = {"code": code, "message": message}
    if location:
        err["location"] = location
    report = {
        "tool": "germlab",
        "version": __version__,
        "command": command,
        "inputs": _inputs_dict(args) if args is not None else {},
        "config": {},
        "result": None,
        "witnesses": {},
        "warnings": [],
        "error": err,
    }
    return report


def emit_report(report: Dict[str, object], as_json: bool) -> str:
    if as_json:
        return json.dumps(_jsonable(report), indent=2) + "\n"
    lines: List[str] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            if not value:
                lines.append(f"{prefix}: {{}}")
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            if not value:
                lines.append(f"{prefix}: []")
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix}: {_jsonable(value)}")

    for key, value in report.items():
        walk(str(key), value)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germlab",
        description="Exact local intersection invariants of polynomial map germs",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("scenario", nargs="?", default=None,
                        help="scenario file (for the run command)")
    parser.add_argument("--ring", default=None, help='domain variables, e.g. "x,y,t"')
    parser.add_argument("--coring", default=None,
                        help="codomain variables for maps/image-side ideals")
    parser.add_argument("--map", default=None, help='map components, e.g. "x^2, y"')
    parser.add_argument("--ideal", default=None, help="ideal generators")
    parser.add_argument("--point", default=None, help='rational point "a, b, c"')
    parser.add_argument("--extra-point", action="append", default=None,
                        help="additional image sample (repeatable)")
    parser.add_argument("--order", default="degrevlex",
                        help="monomial order for gb (lex, degrevlex, local, block:k)")
    parser.add_argument("--with-multiplicity", action="store_true",
                        help="fiber: count with multiplicity instead of distinct")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=5)
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument("--max-degree", type=int, default=64)
    parser.add_argument("--max-basis", type=int, default=10000)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--no-timestamp", action="store_true")
    return parser


def _default_seed() -> int:
    env = os.environ.get("GERMLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PreconditionError(
                f"GERMLAB_SEED must be an integer, got {env!r}"
            ) from None
    return 0


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


def _scenario_namespace(base: argparse.Namespace, sc: Scenario,
                        task) -> argparse.Namespace:
    """Build a per-task namespace resolving bound names to inline strings."""
    ns = argparse.Namespace(**vars(base))
    ns.command = task.kind
    ns.ring = ", ".join(sc.ring.variables) if sc.ring else None
    ns.coring = ", ".join(sc.coring.variables) if sc.coring else None
    ns.map = None
    ns.ideal = None
    ns.ideal_side = None
    ns.point = None
    ns.extra_point = None
    ns.order = task.options.get("order", "degrevlex")
    ns.with_multiplicity = task.options.get("withmult", "") in ("true", "1")
    if "seed" in task.options:
        ns.seed = int(task.options["seed"])
    if "samples" in task.options:
        ns.samples = int(task.options["samples"])
    if "retries" in task.options:
        ns.retries = int(task.options["retries"])
    for name in task.args:
        if name in sc.maps:
            ns.map = ", ".join(str(c) for c in sc.maps[name].components)
        elif name in sc.ideals:
            ns.ideal = ", ".join(str(g) for g in sc.ideals[name])
            ns.ideal_side = "ring"
        elif name in sc.cideals:
            ns.ideal = ", ".join(str(g) for g in sc.cideals[name])
            ns.ideal_side = "coring"
        elif name in sc.points:
            ns.point = ", ".join(str(c) for c in sc.points[name])
    extras = task.options.get("extra")
    if extras:
        ns.extra_point = [
            ", ".join(str(c) for c in sc.points[ref])
            for ref in extras.split(",")
        ]
    return ns


def _run_scenario(args: argparse.Namespace) -> Tuple[int, str]:
    if not args.scenario:
        raise PreconditionError("run needs a scenario file path")
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read scenario file: {exc}") from None
    sc = parse_scenario(text)
    reports = []
    exit_code = EXIT_OK
    for task in sc.tasks:
        ns = _scenario_namespace(args, sc, task)
        ctx = CommandContext(ns)
        try:
            result, witnesses, warnings = _HANDLERS[task.kind](ctx)
            code = _result_exit_code(task.kind, result)
            report = _build_report(task.kind, ns, result, witnesses, warnings)
        except (PreconditionError, ResourceLimitError, ParseError) as exc:
            code = _exception_exit_code(exc)
            report = _error_report(task.kind, ns, code, str(exc))
        reports.append(report)
        exit_code = max(exit_code, code)
    wrapper = {
        "tool": "germlab",
        "version": __version__,
        "command": "run",
        "scenario": args.scenario,
        "tasks": reports,
    }
    if args.json:
        return exit_code, json.dumps(_jsonable(wrapper), indent=2) + "\n"
    blocks = [emit_report(r, False) for r in reports]
    return exit_code, ("\n".join(blocks))


def _result_exit_code(command: str, result) -> int:
    gate = _HYPOTHESIS_KEYS.get(command)
    if gate:
        key, expected = gate
        if result.get(key) != expected:
            return EXIT_HYPOTHESIS
    return EXIT_OK


def _exception_exit_code(exc: Exception) -> int:
    if isinstance(exc, ResourceLimitError):
        return EXIT_RESOURCE
    if isinstance(exc, ParseError):
        return EXIT_USAGE
    return EXIT_HYPOTHESIS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_command(argv: Sequence[str]) -> Tuple[int, str]:
    """Execute one invocation; returns (exit code, report text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_USAGE if exc.code else EXIT_OK), ""
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if args.command == "run":
            return _run_scenario(args)
        ctx = CommandContext(args)
        result, witnesses, warnings = _HANDLERS[args.command](ctx)
        report = _build_report(args.command, args, result, witnesses, warnings)
        code = _result_exit_code(args.command, result)
        return code, emit_report(report, args.json)
    except ParseError as exc:
        report = _error_report(args.command, args, EXIT_USAGE, exc.message,
                               {"line": exc.line, "column": exc.column})
        return EXIT_USAGE, emit_report(report, args.json)
    except ResourceLimitError as exc:
        report = _error_report(args.command, args, EXIT_RESOURCE, str(exc))
        return EXIT_RESOURCE, emit_report(report, args.json)
    except (PreconditionError, GermlabError) as exc:
        report = _error_report(args.command, args, EXIT_HYPOTHESIS, str(exc))
        return EXIT_HYPOTHESIS, emit_report(report, args.json)


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else list(argv))
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
