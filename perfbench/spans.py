"""Spans around germlab's public functions, for the traced run.

Tracing works from outside the program: every public function of
``germlab.gb``, ``germlab.germ`` and ``germlab.intersect``, a few of
``cli``, ``parse`` and ``poly``, plus the methods ``Ideal.basis`` and
``Polynomial.substitute``, is replaced by a wrapper in every germlab module
that binds it (the package and each ``from .gb import ...``).  A wrapper
records a span (name, start, end, parent, operation id) in memory; spans are
turned into metrics, and written to disk, only after the run.

Self time is a span's duration minus that of its direct children, so the
self times of one operation add up to the duration of its root spans.  All
``*.s`` metrics are self seconds summed over the run.  ``orders`` and the
``Fraction`` kernel have no public boundary cheap enough to wrap; their cost
is inside the self time of ``gb.basis.*``.  The process is single-threaded,
so there is no waiting time to report.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

_ALL_PUBLIC = ("gb", "germ", "intersect")
_NAMED = {
    "cli": ("run_command", "emit_report"),
    "parse": ("parse_polynomial", "parse_point", "parse_scenario"),
    "poly": ("compose_map", "jacobian_determinant", "linear_map", "determinant"),
}
#: spans whose return value the metrics read
_KEEP_RESULT = {"intersect.projection_genericity_check",
                "intersect.regular_multiplicity_details"}

#: per-layer metrics reported by every traced run, with their units
METRICS: Dict[str, str] = {}
for _kind in ("local", "global", "block"):
    METRICS[f"gb.basis.{_kind}.calls"] = "count"
    METRICS[f"gb.basis.{_kind}.s"] = "s"
METRICS.update({
    "gb.basis.calls": "count",
    "gb.basis.repeat_share": "ratio",
    "gb.basis.repeat_s": "s",
    "gb.basis.max_size": "count",
    "gb.basis.max_degree": "count",
    "gb.eliminate.s": "s",
    "gb.zero_dim_radical.s": "s",
    "gb.univariate_eliminant.s": "s",
    "gb.hilbert_series_monomial.calls": "count",
    "gb.hilbert_series_monomial.s": "s",
    "gb.radical_membership.s": "s",
    "gb.quotient_dimension.s": "s",
    "germ.rational_points.s": "s",
    "germ.image_ideal.calls": "count",
    "germ.local_multiplicity.calls": "count",
    "germ.local_multiplicity.s": "s",
    "germ.tangent_cone.s": "s",
    "germ.lelong_degree.s": "s",
    "germ.singular_locus.s": "s",
    "germ.fiber_points_count.s": "s",
    "intersect.intersection_index.s": "s",
    "intersect.verify_intersection_formula.s": "s",
    "intersect.pullback_report.s": "s",
    "intersect.stoll_check.s": "s",
    "intersect.multiplicity_along_V.s": "s",
    "intersect.projection_genericity_check.calls": "count",
    "intersect.projection_genericity_check.admitted_share": "ratio",
    "intersect.sampling.draws": "count",
    "intersect.sampling.discarded_share": "ratio",
    "cli.run_command.self_s": "s",
    "cli.emit_report.s": "s",
    "parse.parse_polynomial.calls": "count",
    "parse.parse_polynomial.s": "s",
    "poly.substitute.s": "s",
    "poly.compose_map.s": "s",
    "poly.jacobian_determinant.s": "s",
})

#: stated slack: root spans must cover at least this share of operation wall
SELF_SUM_MIN_SHARE = 0.95


class Tracer:
    def __init__(self, gl):
        self.gl = gl
        self.spans: List[list] = []   # [name, start, end, parent, op, payload]
        self.stack: List[int] = []
        self.op = -1
        self.requested = set()
        self.bindings = self._bindings()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.requested = set()

    # -- installing wrappers -------------------------------------------------

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        gl = self.gl
        modules = [m for m in vars(gl).values()
                   if inspect.ismodule(m) and m.__name__.startswith("germlab")]
        modules.append(gl)
        targets = []
        for short in _ALL_PUBLIC:
            mod = getattr(gl, short)
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets.append((f"{short}.{name}", fn))
        for short, names in _NAMED.items():
            mod = getattr(gl, short)
            targets += [(f"{short}.{name}", getattr(mod, name)) for name in names]
        out = []
        for span_name, fn in targets:
            wrapper = self._wrap(span_name, fn, span_name in _KEEP_RESULT)
            for mod in modules:
                out += [(mod, attr, fn, wrapper)
                        for attr, value in vars(mod).items() if value is fn]
        substitute = gl.poly.Polynomial.substitute
        out.append((gl.poly.Polynomial, "substitute", substitute,
                    self._wrap("poly.substitute", substitute, False)))
        out.append((gl.gb.Ideal, "basis", gl.gb.Ideal.basis,
                    self._wrap_basis(gl.gb.Ideal.basis)))
        return out

    def install(self) -> None:
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)

    def _call(self, name: str, fn, args, kwargs):
        """Run fn inside a new span; return (span record, result)."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        return rec, result

    def _wrap(self, name, fn, keep_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec, result = self._call(name, fn, args, kwargs)
            if keep_result:
                rec[5] = result
            return result

        return wrapper

    def _wrap_basis(self, fn):
        gb = self.gl.gb
        block = self.gl.orders.BLOCK_KIND

        @functools.wraps(fn)
        def basis(ideal, *args, **kwargs):
            order = args[0] if args else kwargs.get("order", gb.DEGREVLEX)
            kind = ("local" if order.is_local
                    else "block" if order.kind == block else "global")
            key = (ideal.ring, ideal.generators, order.cache_key)
            repeat = key in self.requested
            self.requested.add(key)
            rec, result = self._call(f"gb.basis.{kind}", fn, (ideal,) + args, kwargs)
            rec[5] = (repeat, result)
            return result

        return basis

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i, rec in enumerate(spans):
            self_s[rec[0]] += rec[2] - rec[1] - child[i]
            calls[rec[0]] += 1
        out: Dict[str, float] = {}
        for name in METRICS:
            base, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = calls[base]
            elif stat == "s":
                out[name] = self_s[base]
        out["cli.run_command.self_s"] = self_s["cli.run_command"]

        bases = [r for r in spans if r[0].startswith("gb.basis.")]
        repeats = [r for r in bases if r[5] is not None and r[5][0]]
        out["gb.basis.calls"] = len(bases)
        out["gb.basis.repeat_share"] = len(repeats) / len(bases) if bases else 0.0
        out["gb.basis.repeat_s"] = sum(r[2] - r[1] for r in repeats)
        results = [r[5][1] for r in bases if r[5] is not None]
        out["gb.basis.max_size"] = max((len(g.basis) for g in results), default=0)
        out["gb.basis.max_degree"] = max(
            (p.total_degree() for g in results for p in g.basis), default=0)

        checks = [r[5] for r in spans
                  if r[0] == "intersect.projection_genericity_check"
                  and r[5] is not None]
        out["intersect.projection_genericity_check.admitted_share"] = (
            sum(1 for ok in checks if ok) / len(checks) if checks else 0.0)
        kept = discarded = 0
        for r in spans:
            if r[0] == "intersect.regular_multiplicity_details" and r[5] is not None:
                witness = r[5][1]
                kept += len(witness["image_samples"])
                discarded += len(witness["discarded_singular_samples"])
        out["intersect.sampling.draws"] = kept + discarded
        out["intersect.sampling.discarded_share"] = (
            discarded / (kept + discarded) if kept + discarded else 0.0)
        return out

    def root_seconds(self) -> float:
        return sum(r[2] - r[1] for r in self.spans if r[3] < 0)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, op)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:5]) + "\n")
