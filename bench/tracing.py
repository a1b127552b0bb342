"""Spans around varcomp's public functions, installed from outside the package.

Each wrapped call records a span (id, parent id, layer name, start, end).
Self time is a span's duration minus the time its child spans cover; it is
summed per layer name as calls finish, so the totals need no second pass.
The first ``SPAN_CAP`` spans are also kept for the side file.

A function is rebound under every name that holds it in any ``varcomp``
module, because ``from .x import y`` copies the reference into the importer.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

SPAN_CAP = 200_000

#: (module, attribute, layer name).  Several functions may share one layer.
TARGETS = (
    ("varcomp.cli", "main", "cli.main"),
    ("varcomp.specfun", "reg_inc_beta", "specfun.reg_inc_beta"),
    ("varcomp.specfun", "reg_lower_gamma", "specfun.reg_lower_gamma"),
    ("varcomp.varband", "variation_probability", "varband.variation_probability"),
    ("varcomp.varband", "band_endpoints", "varband.band_endpoints"),
    ("varcomp.varband", "check_bound", "varband.check_bound"),
    ("varcomp.varband", "check_monotone_step", "varband.check_monotone_step"),
    ("varcomp.proofcheck.steps", "check_step_inequalities",
     "proofcheck.check_step_inequalities"),
    ("varcomp.proofcheck.steps", "coefficient_sign_checks",
     "proofcheck.coefficient_sign_checks"),
    ("varcomp.proofcheck.steps", "falling_factorial_bounds_odd", "proofcheck.exploratory"),
    ("varcomp.proofcheck.steps", "series_forms_even", "proofcheck.exploratory"),
    ("varcomp.proofcheck.auxfn", "monotone_table_check", "proofcheck.aux_checks"),
    ("varcomp.proofcheck.auxfn", "derivative_sign_check", "proofcheck.aux_checks"),
    ("varcomp.proofcheck.auxfn", "value_sign_check", "proofcheck.aux_checks"),
    ("varcomp.proofcheck.auxfn", "algebra_identity_check", "proofcheck.aux_checks"),
    ("varcomp.proofcheck.auxfn", "rational_V_consistency", "proofcheck.aux_checks"),
    ("varcomp.oracle", "quad_beta_integral", "oracle.quad_beta_integral"),
    ("varcomp.oracle", "mc_variation_probability", "oracle.mc_variation_probability"),
    ("varcomp.programs", "prove_rows", "programs.prove_rows"),
    ("varcomp.programs", "table_rows", "programs.table_rows"),
    ("varcomp.programs", "explore_rows", "programs.explore_rows"),
    ("varcomp.reporting", "rows_from_outcome", "reporting.rows_from"),
    ("varcomp.reporting", "rows_from_step_report", "reporting.rows_from"),
    ("varcomp.reporting", "render_csv", "reporting.render_csv"),
    ("varcomp.reporting", "render_json", "reporting.render_json"),
    ("varcomp.reporting", "write_report", "reporting.write_report"),
)
#: Methods wrapped on their class: (module, class, method, layer name).
METHOD_TARGETS = (
    ("varcomp.distributions", "FParams", "__init__", "distributions.FParams"),
)


def _count_evals(tracer, args, out):
    tracer.counters["oracle.quad_beta_integral.evals"] += out.evaluations


def _count_draws(tracer, args, out):
    tracer.counters["oracle.mc_variation_probability.draws"] += out.n


def _count_render(tracer, args, out):
    tracer.counters["reporting.rows"] += len(args[0])
    tracer.counters["reporting.bytes"] += len(out.encode("utf-8"))


#: Work counted from a layer's arguments or result, keyed by attribute name.
COUNTERS = {
    "quad_beta_integral": _count_evals,
    "mc_variation_probability": _count_draws,
    "render_csv": _count_render,
    "render_json": _count_render,
}


class Tracer:
    """Wraps the target functions while installed; aggregates per layer."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.calls: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        self.counters = {"oracle.quad_beta_integral.evals": 0,
                         "oracle.mc_variation_probability.draws": 0,
                         "reporting.rows": 0, "reporting.bytes": 0}
        self.spans: list = []
        self.n_spans = 0
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, layer: str, fn, count=None):
        for table in (self.calls, self.total, self.self_time):
            table.setdefault(layer, 0)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self.n_spans
            self.n_spans = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[layer] += 1
                self.total[layer] += dur
                self.self_time[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span_id < self.span_cap:
                    spans.append((span_id, parent, layer, start, end))
            if count is not None:
                count(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "varcomp" or name.startswith("varcomp."))]
        for mod_name, attr, layer in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(layer, orig, COUNTERS.get(attr))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapped)
        for mod_name, cls_name, method, layer in METHOD_TARGETS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[method]
            self._undo.append((cls, method, orig))
            setattr(cls, method, self._wrap(layer, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_spans(self, path: str, meta: dict) -> None:
        """Spans as gzipped JSON lines, after one header line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            head = {**meta, "spans_total": self.n_spans,
                    "spans_written": len(self.spans),
                    "fields": ["id", "parent", "name", "start_s", "end_s"]}
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
