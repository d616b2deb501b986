"""In-memory span recorder that wraps eblab's public entry points from outside.

``Tracer.install()`` replaces every public function of every eblab module
(the names in each module's ``__all__`` that the module itself defines)
with a timing wrapper, at every import site: a function that another
module imported by name (``integrate_line`` in ``metrics`` and
``families``, ``moment_gap_table`` in ``cli`` and ``families``) is
replaced in that module's namespace as well.  The public evaluators of
``MarginalModel`` and ``ExperimentReport.write`` are patched on their
classes.  ``uninstall()`` puts every original object back.

Each call becomes a span ``(layer, kind, start, end, parent)``; the layer
is the module that defines the function.  The integrand handed to
``integrate_line`` is wrapped too and recorded as a span of the calling
layer, so quadrature self time excludes the integrand.  A span's self
time is its duration minus the durations of its direct children.  Spans
stay in memory until ``collect()`` folds them into per-layer totals.

Nothing here touches ``src/``; the package runs unmodified.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import pathlib
import time

import numpy as np

LAYERS = (
    "cli",
    "families",
    "hermite",
    "metrics",
    "mixtures",
    "npmle",
    "orthopoly",
    "quadrature",
    "reports",
)

# kind of span whose self time is reported as <layer>.integrand_s
INTEGRAND = "integrand"

_MIXTURE_METHODS = (
    "log_density",
    "density",
    "posterior_mean",
    "posterior_second_moment",
    "posterior_variance",
    "score",
    "density_derivative",
    "regularized_rule",
)


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        self.spans = []  # [layer, kind, start, end, parent index]
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []  # (owner, attribute name, original object)
        self._eblab = importlib.import_module("eblab")
        self._mods = {name: importlib.import_module(f"eblab.{name}") for name in LAYERS}

    # -- recording ------------------------------------------------------

    def _enter(self, layer, kind):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([layer, kind, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _exit(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _caller_layer(self):
        return self.spans[self._stack[-1]][0] if self._stack else "root"

    def _wrap(self, func, layer, hook=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            outer = tracer._caller_layer() != layer
            index = tracer._enter(layer, func.__name__)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(index)
                if hook is not None:
                    hook(tracer, outer, args, kwargs, None, exc)
                raise
            tracer._exit(index)
            if hook is not None:
                hook(tracer, outer, args, kwargs, result, None)
            return result

        return traced

    def _wrap_integrand(self, f):
        """Span of the calling layer around each integrand evaluation."""
        layer = self._caller_layer()
        tracer = self

        def integrand(y, *args, **kwargs):
            tracer.counts["quadrature.nodes"] += np.size(y)
            index = tracer._enter(layer, INTEGRAND)
            try:
                return f(y, *args, **kwargs)
            finally:
                tracer._exit(index)

        return integrand

    def _wrap_integrate(self, func):
        traced = self._wrap(func, "quadrature", _count("quadrature.integrals"))

        @functools.wraps(func)
        def integrate_line(f, *args, **kwargs):
            return traced(self._wrap_integrand(f), *args, **kwargs)

        return integrate_line

    # -- patching -------------------------------------------------------

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, mod in self._mods.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, layer, _HOOKS.get(f"{layer}.{name}"))
        integrate = self._mods["quadrature"].integrate_line
        wrappers[id(integrate)] = self._wrap_integrate(integrate)
        # every import site: the defining module, importers, the package root
        for owner in (self._eblab, *self._mods.values()):
            for name, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self._patch(owner, name, wrappers[id(obj)])
        model = self._mods["mixtures"].MarginalModel
        for name in _MIXTURE_METHODS:
            self._patch(model, name, self._wrap(vars(model)[name], "mixtures", _evaluation_hook))
        report = self._mods["reports"].ExperimentReport
        self._patch(report, "write", self._wrap(report.write, "reports", _write_hook))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- results --------------------------------------------------------

    def collect(self):
        """Fold recorded spans into per-layer results and clear them.

        Returns a dict with ``<layer>.self_s`` for every layer,
        ``<layer>.integrand_s`` for layers whose integrands ran, the
        counters, and ``root_s``: the summed duration of top-level spans,
        which equals the sum of all self times.
        """
        if self._stack:
            raise RuntimeError("spans still open")
        child = [0.0] * len(self.spans)
        for layer, kind, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(float)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for (layer, kind, start, end, parent), inner in zip(self.spans, child):
            own = (end - start) - inner
            key = "integrand_s" if kind == INTEGRAND else "self_s"
            out[f"{layer}.{key}"] += own
            if parent < 0:
                out["root_s"] += end - start
        out.update(self.counts)
        self.spans.clear()
        self.counts.clear()
        return dict(out)


# -- counters: hook(tracer, outer, args, kwargs, result, exc) -------------


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count(key):
    def hook(tracer, outer, args, kwargs, result, exc):
        tracer.counts[key] += 1

    return hook


def _evaluation_hook(tracer, outer, args, kwargs, result, exc):
    """Outermost mixture evaluations and the points they evaluate (the last argument)."""
    if outer:
        tracer.counts["mixtures.calls"] += 1
        tracer.counts["mixtures.points"] += np.size(
            kwargs.get("y", kwargs.get("x")) if kwargs else args[-1]
        )


def _flux_hook(tracer, outer, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "FormMismatch":
        tracer.counts["metrics.form_mismatch"] += 1


def _recurrence_hook(tracer, outer, args, kwargs, result, exc):
    tracer.counts["orthopoly.recurrences"] += 1
    tracer.counts["orthopoly.degree_sum"] += int(_arg(args, kwargs, 1, "k"))


def _solve_hook(tracer, outer, args, kwargs, result, exc):
    problem = _arg(args, kwargs, 0, "problem")
    tracer.counts["npmle.solves"] += 1
    tracer.counts["npmle.observations"] += problem.observations.size
    solution = result if exc is None else getattr(exc, "solution", None)
    if type(exc).__name__ == "NotConverged":
        tracer.counts["npmle.not_converged"] += 1
    if solution is not None:
        tracer.counts["npmle.iterations"] += solution.iterations


def _run_hook(tracer, outer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["cli.cells"] += len(result.rows)


def _write_hook(tracer, outer, args, kwargs, result, exc):
    if exc is None:
        stem = pathlib.Path(_arg(args, kwargs, 1, "out_path"))
        for suffix in (".csv", ".json"):
            tracer.counts["reports.bytes"] += stem.with_suffix(suffix).stat().st_size


_HOOKS = {
    "mixtures.phi": _evaluation_hook,
    "mixtures.log_phi": _evaluation_hook,
    "metrics.compute_metric_report": _count("metrics.reports"),
    "metrics.Delta_stat": _flux_hook,
    "families.build_lowerbound_instance": _count("families.instances"),
    "families.build_moment_instance": _count("families.instances"),
    "hermite.moment_gap_table": _count("hermite.tables"),
    "orthopoly.recurrence_for_weight": _recurrence_hook,
    "npmle.solve_npmle": _solve_hook,
    "cli.run": _run_hook,
}
