"""Layer tracing for one CLI run, installed from outside the program.

``install`` wraps the public functions of each oscrenorm layer. A wrapped
call records a span (name, parent span, start, end) in memory; the spans
are turned into per-layer counts and self times when the run ends. A name
bound with ``from .x import y`` is replaced in every module that holds it,
so calls through any import path are seen. Wrapping changes no argument or
result value, so traced outputs stay byte-identical to untraced ones.

Every ``.s`` metric is a self time: the spans' duration minus the part of
it that child spans cover. Self times therefore add up to no more than the
traced run. The program is one process with no queues, so no layer has a
wait time to report.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("tensors", "oscgroup", "gaussian", "functions", "renorm", "cli", "verify")

#: (module, attribute, span name) for plain wrappers. "A.b" names a method
#: or classmethod of class A.
PLAIN_TARGETS = (
    ("tensors", "GlElement.__post_init__", "tensors.gl_new"),
    ("tensors", "Sym2Tensor.__post_init__", "tensors.sym_new"),
    ("tensors", "act_sym", "tensors.act_sym"),
    ("tensors", "as_vector", "tensors.as_vector"),
    ("oscgroup", "osc_mul", "oscgroup.osc_mul"),
    ("oscgroup", "osc_inv", "oscgroup.osc_inv"),
    ("oscgroup", "an_section", "oscgroup.section"),
    ("oscgroup", "an_apply", "oscgroup.section"),
    ("oscgroup", "section_sum", "oscgroup.section"),
    ("oscgroup", "act_sec", "oscgroup.section"),
    ("oscgroup", "ur", "oscgroup.ur"),
    ("oscgroup", "sd_mul", "oscgroup.ur"),
    ("gaussian", "GaussianMeasure.log_eval", "gaussian.log_eval"),
    # The Gaussian characterization: orbit check plus normalization.
    ("gaussian", "check_gauss_char", "gaussian.check_char"),
    ("gaussian", "shifted_log_eval", "gaussian.check_char"),
    ("gaussian", "normalization_by_quadrature", "gaussian.check_char"),
    ("functions", "convolve_numeric", "functions.convolve_numeric"),
    ("renorm", "wtilde", "renorm.wtilde"),
    ("renorm", "project_polynomial", "renorm.project"),
    ("renorm", "w_full", "renorm.w_full"),
    ("renorm", "heat_kernel_base", "renorm.heat_kernel"),
    ("verify", "group_suite", "verify.suite.group"),
    ("verify", "gaussian_suite", "verify.suite.gaussian"),
    ("verify", "convolution_suite", "verify.suite.convolution"),
    ("verify", "renorm_suite", "verify.suite.renorm"),
)

#: Spans reported as ``<span>.count`` and ``<span>.s``.
COUNTED_SPANS = (
    "tensors.gl_new", "tensors.sym_new", "tensors.act_sym", "tensors.as_vector",
    "oscgroup.osc_mul", "oscgroup.osc_inv", "oscgroup.section", "oscgroup.ur",
    "gaussian.log_eval",
    "functions.rule_build", "functions.conv_point", "functions.convolve_numeric",
    "renorm.step", "renorm.wtilde", "renorm.project", "renorm.w_full",
)

#: Spans reported only as ``<span>.s``.
TIMED_SPANS = (
    "gaussian.check_char", "renorm.heat_kernel", "cli.load_config",
    "verify.suite.group", "verify.suite.gaussian",
    "verify.suite.convolution", "verify.suite.renorm",
)

#: Every per-layer metric a traced run reports, with its unit and the
#: direction that is better.
PER_LAYER = (
    [(f"{s}.count", "count", "lower") for s in COUNTED_SPANS]
    + [(f"{s}.s", "s", "lower") for s in COUNTED_SPANS + TIMED_SPANS]
    + [
        ("functions.rule_build.nodes", "nodes", "lower"),
        ("functions.conv_point.nodes", "nodes", "lower"),
        ("functions.conv_point.repeat_frac", "ratio", "higher"),
        ("functions.integrand.count", "count", "lower"),
        ("renorm.eval_depth1.p50_ms", "ms", "lower"),
        ("renorm.eval_depth2.p50_ms", "ms", "lower"),
        ("cli.import.s", "s", "lower"),
        ("cli.cmd.self_s", "s", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
)


def self_times(parents, starts, ends) -> list:
    """Self time of each span: its duration minus the union of its child
    spans' intervals, each clipped to the span. ``parents[i]`` is the index
    of span i's parent, or -1."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        covered, run_lo, run_hi = 0.0, None, None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], lo), min(ends[c], hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Spans, counters and error counts of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.stack = []
        self.counts = Counter()
        self.errors = Counter()
        self.eval_ms = {1: [], 2: []}
        self.missing = []
        self._depth = {}
        self._in_eval = False

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(self.clock())
        self.ends.append(None)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.ends[idx] = self.clock()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span around each call. ``on_result(args, kwargs,
        result)`` may replace the result."""
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self.close(idx)
            return result if on_result is None else on_result(args, kwargs, result)

        return wrapper

    # -- functions -----------------------------------------------------

    def _count_rule_nodes(self, args, kwargs, rule):
        self.counts["functions.rule_build.nodes"] += int(rule.nodes.shape[0])
        return rule

    def _convolution(self, original, default_order):
        """Wrap ``gauss_convolve_exp``: count the integrand calls and put a
        ``functions.conv_point`` span around each evaluation it returns."""

        def counted(evaluator):
            def call(*args):
                self.counts["functions.integrand.count"] += 1
                return evaluator(*args)

            return call

        @functools.wraps(original)
        def wrapper(P, I, *args, **kwargs):
            I = _with_evaluator(I, counted)
            result = original(P, I, *args, **kwargs)
            rule = kwargs.get("rule", args[0] if args else None)
            order = kwargs.get("order", args[1] if len(args) > 1 else None)
            if rule is not None:
                nodes = int(rule.nodes.shape[0])
            elif order is None and default_order is None:
                nodes = 0
            else:
                nodes = (order or default_order(P.dim)) ** P.dim
            seen = set()

            def spanned(evaluator):
                inner = self.wrap("functions.conv_point", evaluator)

                def call(x, *rest):
                    key = x.tobytes()
                    if key in seen:
                        self.counts["functions.conv_point.repeats"] += 1
                    else:
                        seen.add(key)
                        self.counts["functions.conv_point.nodes"] += nodes
                    return inner(x, *rest)

                return call

            return _with_evaluator(result, spanned)

        return wrapper

    # -- renorm --------------------------------------------------------

    def _step_result(self, args, kwargs, flowed):
        """Time top-level evaluations of a flowed interaction per sample
        point, by nesting depth; evaluations inside another one and repeats
        of a point are left out."""
        source = args[2] if len(args) > 2 else kwargs.get("I")
        if flowed is source:
            return flowed
        depth = self._depth.get(id(source), (0, None))[0] + 1
        seen = set()

        def timed(evaluator):
            def call(x, *rest):
                key = x.tobytes()
                if self._in_eval or key in seen or depth not in self.eval_ms:
                    return evaluator(x, *rest)
                seen.add(key)
                self._in_eval = True
                t0 = self.clock()
                try:
                    return evaluator(x, *rest)
                finally:
                    self.eval_ms[depth].append(1e3 * (self.clock() - t0))
                    self._in_eval = False

            return call

        out = _with_evaluator(flowed, timed)
        # Keep the function alive so that its id stays unique.
        self._depth[id(out)] = (depth, out)
        return out

    # -- metrics -------------------------------------------------------

    def self_by_name(self, root: int | None = None) -> dict:
        """Summed self time per span name, over all spans or over ``root``
        and its descendants."""
        selfs = self_times(self.parents, self.starts, self.ends)
        keep = None
        if root is not None:
            keep = {root}
            for i in range(root + 1, len(self.names)):
                if self.parents[i] in keep:
                    keep.add(i)
        totals = defaultdict(float)
        for i, (name, s) in enumerate(zip(self.names, selfs)):
            if keep is None or i in keep:
                totals[name] += s
        return totals

    def metrics(self, import_s: float, cmd_span: int) -> dict:
        """Per-layer metrics of this process; ``trace.overhead_frac`` needs
        an untraced run and is filled in by the caller."""
        counts = Counter(self.names)
        selfs = self.self_by_name()
        out = {}
        for span in COUNTED_SPANS:
            out[f"{span}.count"] = counts[span]
            out[f"{span}.s"] = selfs.get(span, 0.0)
        for span in TIMED_SPANS:
            out[f"{span}.s"] = selfs.get(span, 0.0)
        calls = counts["functions.conv_point"]
        out["functions.rule_build.nodes"] = self.counts["functions.rule_build.nodes"]
        out["functions.conv_point.nodes"] = self.counts["functions.conv_point.nodes"]
        out["functions.conv_point.repeat_frac"] = (
            self.counts["functions.conv_point.repeats"] / calls if calls else 0.0
        )
        out["functions.integrand.count"] = self.counts["functions.integrand.count"]
        for depth, samples in self.eval_ms.items():
            out[f"renorm.eval_depth{depth}.p50_ms"] = (
                statistics.median(samples) if samples else 0.0
            )
        out["cli.import.s"] = import_s
        out["cli.cmd.self_s"] = selfs.get("cli.cmd", 0.0)
        out["trace.run_s"] = self.ends[cmd_span] - self.starts[cmd_span]
        out["trace.self_sum_s"] = sum(self.self_by_name(cmd_span).values())
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out


def _with_evaluator(function, wrap):
    """A copy of a FieldFunction whose evaluator is ``wrap(evaluator)``;
    anything else is returned unchanged."""
    if dataclasses.is_dataclass(function) and hasattr(function, "evaluator"):
        return dataclasses.replace(function, evaluator=wrap(function.evaluator))
    return function


def _resolve(module, path: str):
    """(owner, attribute, raw value) for "name" or "Class.name"."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return owner, attr, raw


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function of the imported oscrenorm package.

    Targets that the program no longer has are listed in
    ``tracer.missing`` and left out; their metrics then read 0.
    """
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "oscrenorm" or name.startswith("oscrenorm."))
    ]
    package = sys.modules["oscrenorm"]

    def replace_everywhere(original, wrapped):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def patch(module_name: str, path: str, make):
        module = getattr(package, module_name, None)
        owner, attr, raw = (None, None, None) if module is None else _resolve(module, path)
        if raw is None:
            tracer.missing.append(f"{module_name}.{path}")
            return
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
        else:
            replace_everywhere(raw, make(raw))

    for module_name, path, span in PLAIN_TARGETS:
        patch(module_name, path, lambda fn, span=span: tracer.wrap(span, fn))
    patch(
        "functions", "QuadratureRule.for_covariance",
        lambda fn: tracer.wrap("functions.rule_build", fn, tracer._count_rule_nodes),
    )
    default_order = getattr(getattr(package, "functions", None), "default_order", None)
    patch(
        "functions", "gauss_convolve_exp",
        lambda fn: tracer._convolution(fn, default_order),
    )
    patch(
        "renorm", "renorm_step",
        lambda fn: tracer.wrap("renorm.step", fn, tracer._step_result),
    )
