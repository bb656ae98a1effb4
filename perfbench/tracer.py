"""Span recorder for the traced run.

The recorder wraps the public names that each seisrate layer calls, in the
namespace of the module that calls them, so the program itself is not
edited.  Each call becomes a span (name, start, end, parent, solve id,
attributes); spans stay in memory until `write` saves them.  A name that
does not exist in the checked-out program is listed as absent and left
alone, so the traced run still completes.
"""

from __future__ import annotations

import importlib
import json
import time
from statistics import median

import numpy as np

# span fields
NAME, START, END, PARENT, SOLVE, PASS, ATTRS = range(7)


def _search_span(args, kwargs):
    algo = args[0] if args else kwargs.get("name", "unknown")
    return f"search.{algo}", {}


def _exhaustive_span(args, kwargs):
    channel = args[0] if args else kwargs["channel"]
    return "search.es", {"space": 2 ** (channel.num_gps * channel.num_gws)}


def _fixed_order_span(args, kwargs):
    batch = np.shape(args[1] if len(args) > 1 else kwargs["flags_batch"])[0]
    kind = "single" if batch == 1 else "batch"
    return f"rates.fixed_order.{kind}", {"assignments": int(batch)}


def _lp_span(args, kwargs):
    assignment = args[1] if len(args) > 1 else kwargs["assignment"]
    return "rates.lp", {"max_decoded": int(assignment.flags.sum(axis=0).max())}


def _simplex_span(caller):
    def namer(args, kwargs):
        a = np.atleast_2d(args[1] if len(args) > 1 else kwargs["a_ub"])
        b = np.asarray(args[2] if len(args) > 2 else kwargs["b_ub"])
        m, n = a.shape
        artificials = int(np.count_nonzero(b < 0))
        return "simplex.solve_lp", {
            "caller": caller, "rows": int(m),
            "tableau_bytes": (m + 1) * (n + m + artificials + 1) * 8,
        }
    return namer


def _weighted_span(args, kwargs):
    gateways = args[0] if args else kwargs["gateways"]
    return ("delivery.weighted.small_n" if gateways.num_gws <= 16
            else "delivery.weighted.large_n"), {}


def _fixed(name):
    return lambda args, kwargs: (name, {})


def _search_result(span, result):
    evaluations = getattr(result, "evaluations", None)
    if evaluations is not None:
        span[ATTRS]["evals"] = int(evaluations)


# (module, attribute, span namer, result hook)
WRAPPED = (
    ("seisrate.experiments", "run_experiment", _fixed("experiments.run_experiment"), None),
    ("seisrate.experiments", "run_algorithm", _search_span, _search_result),
    ("seisrate.experiments", "exhaustive_search", _exhaustive_span, None),
    ("seisrate.cli", "main", _fixed("cli.main"), None),
    ("seisrate.cli", "run_algorithm", _search_span, _search_result),
    ("seisrate.search", "run_algorithm", _search_span, _search_result),
    ("seisrate.search", "exhaustive_search", _exhaustive_span, None),
    ("seisrate.search", "evaluate_fixed_order_batch", _fixed_order_span, None),
    ("seisrate.search", "evaluate_lp", _lp_span, None),
    ("seisrate.rates", "solve_lp", _simplex_span("rates"), None),
    ("seisrate.delivery", "solve_lp", _simplex_span("delivery"), None),
    ("seisrate.cli", "load_instance", _fixed("model.load_instance"), None),
    ("seisrate.cli", "min_total_power_closed_form", _fixed("delivery.min_total"), None),
    ("seisrate.cli", "min_max_power", _fixed("delivery.min_max"), None),
    ("seisrate.cli", "time_share_decompose", _fixed("delivery.time_share"), None),
    ("seisrate.cli", "max_weighted_sum", _weighted_span, None),
    ("seisrate.model", "generate_rayleigh", _fixed("model.generate"), None),
    ("seisrate.model", "generate_gateways", _fixed("model.generate"), None),
    ("seisrate.model", "save_instance", _fixed("model.save_instance"), None),
)

ALGORITHMS = ("es", "dpso", "ampso", "as", "mmas", "sa", "baseline")


class Tracer:
    """Records spans while installed; `solve` and `pass_no` tag new spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []
        self.solve = None
        self.pass_no = None
        self._originals = []

    def _wrap(self, original, namer, hook):
        def traced(*args, **kwargs):
            try:
                name, attrs = namer(args, kwargs)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                name, attrs = original.__name__, {}
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None,
                    self.solve, self.pass_no, attrs]
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                attrs["error"] = type(exc).__name__
                raise
            else:
                span[END] = time.perf_counter()
                if hook is not None:
                    hook(span, result)
                return result
            finally:
                self.stack.pop()
        traced.__wrapped__ = original
        return traced

    def install(self):
        self.absent = []
        for module_name, attr, namer, hook in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, namer, hook))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path):
        """Save every span as one JSON line."""
        keys = ("name", "start", "end", "parent", "solve", "pass", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans):
    """Span duration minus the time covered by its direct children (calls
    nest, so children never overlap)."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _outermost(spans, index, prefix):
    """True when no ancestor of span `index` has a name starting with prefix."""
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME].startswith(prefix):
            return False
        parent = spans[parent][PARENT]
    return True


def layer_metrics(spans, indices):
    """Per-layer figures of one group of spans (one pass or one set-up).

    Returns {metric name: value}; counts are ints, times are seconds or
    microseconds as the name says.
    """
    selfs = self_times(spans)
    busy, self_s, calls, attrs_sum = {}, {}, {}, {}
    maxima = {"rates.lp.max_decoded": 0, "simplex.solve_lp.max_rows": 0,
              "simplex.solve_lp.tableau_bytes_max": 0}
    evals = 0
    lp_rows = 0
    failed_time_share = 0
    for i in indices:
        name, attrs = spans[i][NAME], spans[i][ATTRS]
        duration = spans[i][END] - spans[i][START]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        if _outermost(spans, i, name):
            busy[name] = busy.get(name, 0.0) + duration
        if name.startswith("search.") and _outermost(spans, i, "search."):
            evals += attrs.get("evals", attrs.get("space", 0))
        if name.startswith("rates.fixed_order."):
            attrs_sum[name] = attrs_sum.get(name, 0) + attrs.get("assignments", 0)
        if name == "rates.lp":
            maxima["rates.lp.max_decoded"] = max(maxima["rates.lp.max_decoded"],
                                                 attrs.get("max_decoded", 0))
        if name == "simplex.solve_lp":
            rows = attrs.get("rows", 0)
            attrs_sum[name] = attrs_sum.get(name, 0) + rows
            if attrs.get("caller") == "rates":
                lp_rows += rows
            maxima["simplex.solve_lp.max_rows"] = max(
                maxima["simplex.solve_lp.max_rows"], rows)
            maxima["simplex.solve_lp.tableau_bytes_max"] = max(
                maxima["simplex.solve_lp.tableau_bytes_max"],
                attrs.get("tableau_bytes", 0))
        if name == "delivery.time_share" and "error" in attrs:
            failed_time_share += 1

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    m = {}
    for algo in ALGORITHMS:
        m[f"search.{algo}.busy_s"] = busy.get(f"search.{algo}", 0.0)
    m["search.self_s"] = sum((v for k, v in self_s.items() if k.startswith("search.")), 0.0)
    m["search.evals"] = evals
    m["rates.fixed_order.single.calls"] = calls.get("rates.fixed_order.single", 0)
    m["rates.fixed_order.batch.calls"] = calls.get("rates.fixed_order.batch", 0)
    m["rates.fixed_order.single.us_per_call"] = per(
        busy.get("rates.fixed_order.single", 0.0),
        calls.get("rates.fixed_order.single", 0), 1e6)
    m["rates.fixed_order.batch.assignments"] = attrs_sum.get("rates.fixed_order.batch", 0)
    m["rates.fixed_order.batch.us_per_assignment"] = per(
        busy.get("rates.fixed_order.batch", 0.0),
        attrs_sum.get("rates.fixed_order.batch", 0), 1e6)
    m["rates.lp.calls"] = calls.get("rates.lp", 0)
    m["rates.lp.busy_s"] = busy.get("rates.lp", 0.0)
    m["rates.lp.self_s"] = self_s.get("rates.lp", 0.0)
    m["rates.lp.rows"] = lp_rows
    m["rates.lp.max_decoded"] = maxima["rates.lp.max_decoded"]
    m["simplex.solve_lp.calls"] = calls.get("simplex.solve_lp", 0)
    m["simplex.solve_lp.busy_s"] = busy.get("simplex.solve_lp", 0.0)
    m["simplex.solve_lp.rows"] = attrs_sum.get("simplex.solve_lp", 0)
    m["simplex.solve_lp.max_rows"] = maxima["simplex.solve_lp.max_rows"]
    m["simplex.solve_lp.tableau_mb_max"] = (
        maxima["simplex.solve_lp.tableau_bytes_max"] / 2 ** 20)
    m["delivery.min_total.busy_s"] = busy.get("delivery.min_total", 0.0)
    m["delivery.min_max.busy_s"] = busy.get("delivery.min_max", 0.0)
    m["delivery.min_max.self_s"] = self_s.get("delivery.min_max", 0.0)
    m["delivery.time_share.busy_s"] = busy.get("delivery.time_share", 0.0)
    m["delivery.time_share.failed"] = failed_time_share
    m["delivery.weighted.small_n.busy_s"] = busy.get("delivery.weighted.small_n", 0.0)
    m["delivery.weighted.large_n.busy_s"] = busy.get("delivery.weighted.large_n", 0.0)
    m["cli.main.calls"] = calls.get("cli.main", 0)
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    m["model.load_instance.busy_s"] = busy.get("model.load_instance", 0.0)
    m["model.generate.busy_s"] = busy.get("model.generate", 0.0)
    m["model.save_instance.busy_s"] = busy.get("model.save_instance", 0.0)
    m["experiments.run_experiment.self_s"] = self_s.get("experiments.run_experiment", 0.0)
    return m


# per-layer metrics that are exact counts: they must repeat from pass to pass
COUNT_METRICS = (
    "search.evals",
    "rates.fixed_order.single.calls",
    "rates.fixed_order.batch.calls",
    "rates.fixed_order.batch.assignments",
    "rates.lp.calls",
    "rates.lp.rows",
    "rates.lp.max_decoded",
    "simplex.solve_lp.calls",
    "simplex.solve_lp.rows",
    "simplex.solve_lp.max_rows",
    "simplex.solve_lp.tableau_mb_max",
    "delivery.time_share.failed",
    "cli.main.calls",
)


def pass_metrics(spans, passes, setup_indices):
    """Per-layer metrics of a traced run: counts from the first pass (with
    a flag telling whether every pass repeated them exactly), times as the
    median over passes.  The model.generate / model.save_instance figures
    come from the traced set-up."""
    by_pass = {}
    for i, span in enumerate(spans):
        if span[PASS] is not None:
            by_pass.setdefault(span[PASS], []).append(i)
    per_pass = [layer_metrics(spans, by_pass.get(p, [])) for p in passes]
    counts_repeat = all(
        all(pm[name] == per_pass[0][name] for name in COUNT_METRICS)
        for pm in per_pass)
    out = {}
    for name in per_pass[0]:
        if name in COUNT_METRICS:
            out[name] = per_pass[0][name]
        else:
            out[name] = median(pm[name] for pm in per_pass)
    setup = layer_metrics(spans, setup_indices)
    for name in ("model.generate.busy_s", "model.save_instance.busy_s"):
        out[name] = setup[name]
    return out, counts_repeat
