"""Tests of the benchmark's span recorder and output checks.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import collections
import contextlib
import importlib
import inspect
import io
import sys
import time

import numpy as np
import pytest

import eblab
import eblab.cli as cli
from eblab import metrics, mixtures, quadrature, reports
from eblab.mixtures import DiscretePrior
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Unit, failed_cells

PRIOR_G = DiscretePrior([-0.7, 0.2, 1.1], [0.3, 0.5, 0.2])
PRIOR_H = DiscretePrior([-0.4, 0.9], [0.6, 0.4])


def _profiled_counts(func):
    """Counts for one call of ``func`` from a profiler hook, tracer off.

    An independent route to the tracer's counters: mixture evaluations are
    calls of MarginalModel evaluators or phi/log_phi with no such call
    already on the stack; panels are the points handed from quadrature
    code to an eblab function outside quadrature (the integrand), over 15.
    """
    model = mixtures.MarginalModel
    evaluators = {vars(model)[name].__code__ for name in
                  ("log_density", "density", "posterior_mean", "posterior_second_moment",
                   "posterior_variance", "score", "density_derivative", "regularized_rule")}
    evaluators |= {mixtures.phi.__code__, mixtures.log_phi.__code__}
    package_dir = eblab.__file__.rsplit("/", 1)[0]
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in evaluators:
            outer = frame.f_back
            while outer is not None and outer.f_code not in evaluators:
                outer = outer.f_back
            if outer is None:
                counts["mixtures.calls"] += 1
                counts["mixtures.points"] += np.size(frame.f_locals[code.co_varnames[code.co_argcount - 1]])
        elif code is quadrature.integrate_line.__code__:
            counts["quadrature.integrals"] += 1
        elif code is metrics.compute_metric_report.__code__:
            counts["metrics.reports"] += 1
        caller = frame.f_back
        if (caller is not None and caller.f_code.co_filename == quadrature.__file__
                and code.co_filename.startswith(package_dir)
                and code.co_filename != quadrature.__file__):
            counts["quadrature.nodes"] += np.size(frame.f_locals[code.co_varnames[0]])

    sys.setprofile(profile)
    try:
        func()
    finally:
        sys.setprofile(None)
    return counts


def test_counts_are_exact_for_one_metric_report():
    def one_report():
        return metrics.compute_metric_report(PRIOR_G, PRIOR_H)

    expected = _profiled_counts(one_report)
    tracer = Tracer()
    with tracer:
        traced_report = one_report()
    got = tracer.collect()
    assert traced_report == one_report()  # tracing does not change results
    assert expected["metrics.reports"] == 1
    assert min(expected[k] for k in ("quadrature.integrals", "quadrature.nodes", "mixtures.calls")) > 0
    for key, value in expected.items():
        assert got[key] == value, key


def _namespace_snapshot():
    owners = [eblab, *(importlib.import_module(f"eblab.{m}") for m in LAYERS),
              mixtures.MarginalModel, reports.ExperimentReport]
    return {(id(owner), name): obj for owner in owners for name, obj in vars(owner).items()}


def test_every_patched_name_is_restored():
    before = _namespace_snapshot()
    original_integrate = quadrature.integrate_line
    original_table = eblab.hermite.moment_gap_table
    tracer = Tracer()
    with tracer:
        during = _namespace_snapshot()
        # every import site sees the same wrapper, not the original
        assert eblab.metrics.integrate_line is eblab.families.integrate_line
        assert eblab.families.integrate_line is quadrature.integrate_line
        assert quadrature.integrate_line is not original_integrate
        assert cli.moment_gap_table is eblab.families.moment_gap_table
        assert cli.moment_gap_table is not original_table
        assert vars(mixtures.MarginalModel)["log_density"].__wrapped__ is not None
    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) > 20
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_every_public_function_is_wrapped():
    tracer = Tracer()
    with tracer:
        for layer in LAYERS:
            mod = importlib.import_module(f"eblab.{layer}")
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    assert hasattr(obj, "__wrapped__"), f"{layer}.{name}"


def test_self_times_sum_to_traced_wall(tmp_path):
    argv = ["--out", str(tmp_path / "m"), "metrics", "--prior-g", PRIOR_G.to_json(),
            "--prior-h", PRIOR_H.to_json(), "--rhos", "0.05"]
    tracer = Tracer()
    sink = io.StringIO()
    with tracer, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        assert cli.main(argv) == 0
        wall = time.perf_counter() - start
    got = tracer.collect()
    self_total = sum(v for k, v in got.items() if k.endswith((".self_s", ".integrand_s")))
    assert self_total == pytest.approx(got["root_s"], rel=1e-9)
    assert got["root_s"] <= wall
    assert got["root_s"] >= 0.95 * wall - 1e-3
    assert got["cli.cells"] == 1 and got["reports.bytes"] > 0
    assert all(got[f"{layer}.self_s"] >= 0.0 for layer in LAYERS)
    assert got["metrics.integrand_s"] > 0.0


def test_integrand_time_is_not_quadrature_time():
    tracer = Tracer()

    def slow(y):
        time.sleep(0.002)
        return np.zeros_like(y)

    with tracer:
        quadrature.integrate_line(slow)
    got = tracer.collect()
    panels = got["quadrature.nodes"] / 15
    assert got["quadrature.integrals"] == 1
    assert got["root.integrand_s"] >= 0.002 * panels
    assert got["quadrature.self_s"] < got["root.integrand_s"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_inputs_depend_only_on_seed(workload):
    keys = [u.key for u in WORKLOADS[workload](3)]
    assert keys == [u.key for u in WORKLOADS[workload](3)]
    assert len(set(keys)) == len(keys)


def test_checks_fail_bad_cells():
    unit = Unit("pairs", [], cells=2, row_checks=[WORKLOADS["pairs"](0)[0].row_checks[0]])
    good = "pair,eps_sq,delta\n0,0.01,0.008\n1,0.02,0.015\n"
    assert failed_cells(unit, good) == 0
    assert failed_cells(unit, good, good) == 0
    # delta above eps^2 breaks the sandwich
    assert failed_cells(unit, "pair,eps_sq,delta\n0,0.01,0.011\n1,0.02,0.015\n") == 1
    # a value off the reference by more than 1e-7 relative
    assert failed_cells(unit, good, "pair,eps_sq,delta\n0,0.01,0.008\n1,0.02,0.0150001\n") == 1
    # a missing row fails every cell
    assert failed_cells(unit, "pair,eps_sq,delta\n0,0.01,0.008\n") == 2
