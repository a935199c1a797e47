"""Per-layer spans for the traced run, installed from outside the package.

Each wrapper replaces a name in the namespace of the module that calls it
(for example ``confdist.coverage.fit_irls``), or a method on a class, and
records a span around the call: name, start, end, parent span and the
operation id (one replication or one CLI call).  Spans stay in memory and
are written out when the run ends.  Nothing under ``src/`` is edited, and
the untimed end-to-end run installs none of this.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter, defaultdict

# (module, attribute, span name): plain functions, wrapped where they are
# looked up, so a call made through another module's namespace is not seen.
FUNCTION_SPANS = [
    ("confdist.coverage", "rng_draws", "numerics.draw"),
    ("confdist.higher_order", "find_root", "numerics.find_root"),
    ("confdist.pivots", "find_root", "numerics.find_root"),
    ("confdist.gamma", "find_root", "numerics.find_root"),
    ("confdist.coverage", "fit_ols", "linear.fit_ols"),
    ("confdist.cli", "fit_ols", "linear.fit_ols"),
    ("confdist.coverage", "variance_pivot", "linear.pivot"),
    ("confdist.coverage", "contrast", "linear.pivot"),
    ("confdist.coverage", "contrast_pivot", "linear.pivot"),
    ("confdist.coverage", "coefficient_ball_pivot", "linear.pivot"),
    ("confdist.cli", "variance_pivot", "linear.pivot"),
    ("confdist.cli", "contrast", "linear.pivot"),
    ("confdist.cli", "contrast_pivot", "linear.pivot"),
    ("confdist.cli", "interval_endpoint", "pivots.interval_endpoint"),
    ("confdist.cli", "parameter_density", "pivots.parameter_density"),
    ("confdist.coverage", "fit_irls", "gamma.fit_irls"),
    ("confdist.cli", "fit_irls", "gamma.fit_irls"),
    ("confdist.gamma", "solve_precision", "gamma.solve_precision"),
    ("confdist.higher_order", "solve_precision", "gamma.solve_precision"),
    ("confdist.coverage", "profile_deviance_precision", "gamma.profile_deviance"),
    ("confdist.coverage", "profile_deviance_beta", "gamma.profile_deviance"),
    ("confdist.higher_order", "profile_deviance_precision", "gamma.profile_deviance"),
    ("confdist.higher_order", "profile_deviance_beta", "gamma.profile_deviance"),
    ("confdist.higher_order", "profile_precision_at", "gamma.profile_deviance"),
    ("confdist.higher_order", "fit_known_mean", "higher_order.fit_known_mean"),
    ("confdist.cli", "fit_known_mean", "higher_order.fit_known_mean"),
    ("confdist.coverage", "fraser_root_known_mu", "higher_order.fraser"),
    ("confdist.cli", "fraser_root_known_mu", "higher_order.fraser"),
    ("confdist.coverage", "skovgaard_precision", "higher_order.skovgaard_precision"),
    ("confdist.cli", "skovgaard_precision", "higher_order.skovgaard_precision"),
    ("confdist.coverage", "skovgaard_beta", "higher_order.skovgaard_beta"),
    ("confdist.cli", "corrected_confidence_density", "higher_order.corrected_density"),
    ("confdist.cli", "load_csv_table", "cli.csv_load"),
    ("confdist.cli", "build_parser", "cli.parse"),
]

# (module, class, method, span name).  A span name of None means the name
# follows the module that defined the callable the method dispatches to.
METHOD_SPANS = [
    ("confdist.numerics", "RngStream", "generator", "numerics.stream"),
    ("confdist.pivots", "PivotLaw", "cdf", "pivots.law_cdf"),
    ("confdist.pivots", "Pivot", "value", None),
    ("confdist.pivots", "ConfidenceDensity", "__call__", None),
]

# Pivot.value and ConfidenceDensity.__call__ run a closure built elsewhere;
# the closure's home module decides which layer the span belongs to.
_CLOSURE_SPANS = {
    ("value", "confdist.linear"): "linear.pivot_value",
    ("__call__", "confdist.pivots"): "pivots.density",
    ("__call__", "confdist.higher_order"): "higher_order.density",
}

CORRECTED = ("higher_order.fraser", "higher_order.skovgaard_precision",
             "higher_order.skovgaard_beta")
FLAGS = ("interpolated", "correction_unavailable", "clamped")


class Tracer:
    """In-memory span recorder: one list entry per span."""

    def __init__(self):
        # [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = None
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # wrapped names the package lacks

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


def _corrected_wrapper(tracer: Tracer, name: str, fn):
    """Span plus the corrected-transform counts read from the returned object."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        roots_before = tracer.counts["find_root_calls"]
        result = tracer.call(name, fn, *args, **kwargs)
        tracer.counts["corrected"] += 1
        tracer.counts["window"] += tracer.counts["find_root_calls"] > roots_before
        for flag in FLAGS:
            tracer.counts["flag." + flag] += bool(getattr(result, flag, False))
        return result

    return traced


def install(tracer: Tracer):
    """Install every wrapper; returns a callable that restores the originals.

    A name the package no longer has is skipped and listed in
    ``tracer.missing``, so a refactor loses that span instead of the run.
    """
    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module_name, attr, name in FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(f"{module_name}.{attr}")
        elif name in CORRECTED:
            replace(module, attr, _corrected_wrapper(tracer, name, fn))
        elif name == "numerics.find_root":
            replace(module, attr, _counting(tracer, "find_root_calls",
                                            _span_wrapper(tracer, name, fn)))
        elif name == "numerics.draw":
            replace(module, attr, _draw_wrapper(tracer, fn))
        elif name == "gamma.fit_irls":
            replace(module, attr, _fit_irls_wrapper(tracer, fn))
        elif name == "higher_order.corrected_density":
            replace(module, attr, _density_wrapper(tracer, fn))
        elif name == "cli.parse":
            replace(module, attr, _parser_wrapper(tracer, fn))
        else:
            replace(module, attr, _span_wrapper(tracer, name, fn))

    gamma = importlib.import_module("confdist.gamma")
    if hasattr(gamma, "unit_deviance_terms"):
        replace(gamma, "unit_deviance_terms",
                _counting(tracer, "unit_deviance_calls", gamma.unit_deviance_terms))
    else:
        tracer.missing.append("confdist.gamma.unit_deviance_terms")

    for module_name, cls_name, method, name in METHOD_SPANS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is None or not hasattr(cls, method):
            tracer.missing.append(f"{module_name}.{cls_name}.{method}")
            continue
        replace(cls, method, _method_wrapper(tracer, method, name, getattr(cls, method)))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def _counting(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _draw_wrapper(tracer: Tracer, fn):
    """rng_draws starts each replication: its stream id is the replication index."""
    coverage = importlib.import_module("confdist.coverage")
    design_stream = getattr(coverage, "_DESIGN_STREAM", 2**63)

    @functools.wraps(fn)
    def traced(stream, *args, **kwargs):
        if stream.stream_id != design_stream:
            tracer.op = (tracer.op[0], stream.stream_id)
        return tracer.call("numerics.draw", fn, stream, *args, **kwargs)

    return traced


def _fit_irls_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = tracer.counts["unit_deviance_calls"]
        try:
            return tracer.call("gamma.fit_irls", fn, *args, **kwargs)
        finally:
            tracer.counts["fit_irls_calls"] += 1
            tracer.counts["fit_deviance_evals"] += tracer.counts["unit_deviance_calls"] - before

    return traced


def _density_wrapper(tracer: Tracer, fn):
    """Counts root-function evaluations of each corrected confidence density."""

    @functools.wraps(fn)
    def traced(root_fn, *args, **kwargs):
        def counted_root(theta):
            tracer.counts["density_evals"] += 1
            return tracer.call("higher_order.root_eval", root_fn, theta)

        return tracer.call("higher_order.corrected_density", fn, counted_root,
                           *args, **kwargs)

    return traced


def _parser_wrapper(tracer: Tracer, fn):
    """build_parser and the returned parser's parse_args both count as parsing."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parser = tracer.call("cli.parse", fn, *args, **kwargs)
        parser.parse_args = _span_wrapper(tracer, "cli.parse", parser.parse_args)
        return parser

    return traced


def _method_wrapper(tracer: Tracer, method: str, name: str | None, fn):
    attr = "value_fn" if method == "value" else "density_fn"
    fallback = "pivots.value" if method == "value" else "pivots.density"

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        span = name
        if span is None:
            home = getattr(getattr(self, attr), "__module__", None)
            span = _CLOSURE_SPANS.get((method, home), fallback)
        return tracer.call(span, fn, self, *args, **kwargs)

    return traced


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> tuple[dict, Counter]:
    """Per span name: summed self time (duration minus child durations), calls."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - child[i]
        calls[name] += 1
    return totals, calls


def accounting_errors(spans: list[list], slack: float = 1e-9) -> list[str]:
    """Children must nest inside their parent, and self times must add up.

    Every span is closed, lies inside its parent's interval, and siblings do
    not overlap; then the self times of a tree sum to its root's duration.
    """
    errors = []
    last_child_end: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {i} ({name}) is not closed")
            continue
        if parent >= 0:
            p = spans[parent]
            if start < p[1] - slack or end > p[2] + slack:
                errors.append(f"span {i} ({name}) escapes its parent {parent} ({p[0]})")
            if start < last_child_end.get(parent, -math.inf) - slack:
                errors.append(f"span {i} ({name}) overlaps a sibling")
            last_child_end[parent] = end
    if errors:
        return errors[:10]
    totals, _ = self_times(spans)
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    if not math.isclose(sum(totals.values()), roots, rel_tol=1e-9, abs_tol=1e-9):
        errors.append(f"self times sum to {sum(totals.values())!r}, roots to {roots!r}")
    for name, total in totals.items():
        if total < -slack:
            errors.append(f"negative self time for {name}: {total!r}")
    return errors


def layer_metrics(spans: list[list], counts: Counter, ops: int, slowness: float) -> dict:
    """Per-layer self times per operation, counts per operation, and ratios.

    An operation is one replication or one CLI call.  Times are divided by
    the machine slowness measured during the traced phase, as the end-to-end
    timings are.  Layers a workload never enters read 0.
    """
    totals, calls = self_times(spans)

    def us(*names):
        return 1e6 * sum(totals.get(n, 0.0) for n in names) / ops / slowness

    def ms(*names):
        return us(*names) / 1000.0

    def ratio(num, den):
        return num / den if den else 0.0

    corrected = counts["corrected"]
    return {
        "numerics.stream_us": us("numerics.stream"),
        "numerics.draw_us": us("numerics.draw"),
        "numerics.find_root_calls": calls["numerics.find_root"] / ops,
        "numerics.find_root_us": us("numerics.find_root"),
        "linear.fit_ols_us": us("linear.fit_ols"),
        "linear.pivot_us": us("linear.pivot", "linear.pivot_value"),
        "pivots.law_cdf_calls": calls["pivots.law_cdf"] / ops,
        "pivots.law_cdf_us": us("pivots.law_cdf"),
        "pivots.interval_endpoint_us": us("pivots.interval_endpoint", "pivots.value"),
        "pivots.parameter_density_us": us("pivots.parameter_density", "pivots.density"),
        "gamma.fit_irls_us": us("gamma.fit_irls"),
        "gamma.deviance_evals_per_fit": ratio(counts["fit_deviance_evals"],
                                              counts["fit_irls_calls"]),
        "gamma.solve_precision_us": us("gamma.solve_precision"),
        "gamma.profile_deviance_us": us("gamma.profile_deviance"),
        "higher_order.fit_known_mean_calls": calls["higher_order.fit_known_mean"] / ops,
        "higher_order.fit_known_mean_us": us("higher_order.fit_known_mean"),
        "higher_order.fraser_us": us("higher_order.fraser"),
        "higher_order.skovgaard_precision_us": us("higher_order.skovgaard_precision"),
        "higher_order.skovgaard_beta_us": us("higher_order.skovgaard_beta"),
        "higher_order.corrected_density_us": us("higher_order.corrected_density",
                                                "higher_order.root_eval",
                                                "higher_order.density"),
        "higher_order.window_share": ratio(counts["window"], corrected),
        **{f"higher_order.flag_share.{f}": ratio(counts["flag." + f], corrected)
           for f in FLAGS},
        "higher_order.density_evals": ratio(counts["density_evals"],
                                            calls["higher_order.corrected_density"]),
        "coverage.engine_self_us": us("coverage.run_scenario"),
        "cli.parse_ms": ms("cli.parse"),
        "cli.csv_load_ms": ms("cli.csv_load"),
        "cli.self_ms": ms("cli.main"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if "share" in name:
        return "ratio"
    return "count"
