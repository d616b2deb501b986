import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e

from eblab import quadrature
from eblab.quadrature import (
    IntegrationSpec,
    ToleranceNotMet,
    arcsine_moment,
    chebyshev_rule,
    gaussian_tail_radius,
    integrate_line,
    integrate_lines,
)


def _gauss_hermite(n):
    """n-point Gauss-Hermite rule for the N(0, 1) measure: (nodes, weights)."""
    nodes, weights = hermite_e.hermegauss(n)
    return nodes, weights / math.sqrt(2.0 * math.pi)


# the oracle of the polynomial-times-gaussian tests
_GH_NODES, _GH_WEIGHTS = _gauss_hermite(200)


def test_arcsine_moment_closed_form():
    # E[X^j] for the arcsine law is C(j, j/2) / 2^j at even j, zero at odd j
    assert arcsine_moment(0) == 1.0
    assert arcsine_moment(1) == 0.0
    assert arcsine_moment(2) == 0.5
    assert arcsine_moment(4) == 0.375
    assert arcsine_moment(6) == 0.3125
    for j in range(0, 40, 2):
        exact = math.comb(j, j // 2) / 2.0**j
        assert abs(arcsine_moment(j) - exact) <= 1e-15 * exact


def test_chebyshev_rule_nodes_and_weights():
    nodes, weights = chebyshev_rule(3)
    # cos(pi/6), cos(pi/2), cos(5 pi/6)
    assert np.allclose(np.sort(nodes), [-math.sqrt(3) / 2, 0.0, math.sqrt(3) / 2], atol=1e-15)
    assert np.allclose(weights, 1.0 / 3.0, atol=1e-16)
    for m in range(1, 21):
        nodes, weights = chebyshev_rule(m)
        assert np.all(np.diff(nodes) > 0.0) and np.all(nodes == -nodes[::-1])


def test_chebyshev_rule_exact_below_degree_2m():
    for m in range(1, 21):
        nodes, weights = chebyshev_rule(m)
        for j in range(2 * m):
            approx = weights @ nodes**j
            assert abs(approx - arcsine_moment(j)) <= 1e-12


def test_chebyshev_rule_first_failure_at_degree_2m():
    # the rule undershoots the arcsine moment at degree 2m by 2^(1-2m)
    for m in range(1, 9):
        nodes, weights = chebyshev_rule(m)
        gap = arcsine_moment(2 * m) - weights @ nodes ** (2 * m)
        assert abs(gap - 2.0 ** (1 - 2 * m)) <= 1e-13


def test_gauss_hermite_oracle_gaussian_moments():
    nodes, weights = _gauss_hermite(40)
    assert abs(weights.sum() - 1.0) <= 1e-13
    for j, expected in [(2, 1.0), (4, 3.0), (6, 15.0), (8, 105.0)]:
        assert abs(weights @ nodes**j - expected) <= 1e-10 * expected


def test_integrate_line_gaussian_mass():
    spec = IntegrationSpec(abs_tol=1e-13, rel_tol=1e-12, truncation_radius=10.0)
    val = integrate_line(lambda y: np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi), spec)
    assert abs(val - 1.0) <= 1e-12


def test_adaptive_line_matches_dense_gauss_hermite():
    # polynomial-times-gaussian integrands of degree <= 20 against a
    # 200-node Gauss-Hermite oracle
    rng = np.random.default_rng(20)
    for _ in range(10):
        poly = np.polynomial.Polynomial(rng.normal(size=21))

        def integrand(y):
            return poly(y) * np.exp(-0.5 * y**2) / math.sqrt(2.0 * math.pi)

        exact = _GH_WEIGHTS @ poly(_GH_NODES)
        adaptive = integrate_line(integrand, IntegrationSpec())
        assert abs(adaptive - exact) <= 1e-9 * max(1.0, abs(exact))


def test_halving_abs_tol_never_increases_error():
    rng = np.random.default_rng(40)
    for _ in range(5):
        poly = np.polynomial.Polynomial(rng.normal(size=21))

        def integrand(y):
            return poly(y) * np.exp(-0.5 * y**2) / math.sqrt(2.0 * math.pi)

        exact = _GH_WEIGHTS @ poly(_GH_NODES)
        errors = []
        tol = abs(exact)
        for _ in range(24):
            spec = IntegrationSpec(abs_tol=tol, rel_tol=0.0)
            errors.append(abs(integrate_line(integrand, spec) - exact))
            tol *= 0.5
        # slack covers summation-order jitter once the error floors out
        slack = 4e-16 * abs(exact)
        assert all(a >= b - slack for a, b in zip(errors, errors[1:]))


def test_integrate_line_two_scale_integrand():
    # narrow spike plus broad bump; adaptive bisection must find the spike
    def f(y):
        return np.exp(-0.5 * (y / 3.0) ** 2) + np.exp(-0.5 * ((y - 1.0) / 1e-3) ** 2)

    exact = 3.0 * math.sqrt(2 * math.pi) + 1e-3 * math.sqrt(2 * math.pi)
    spec = IntegrationSpec(abs_tol=0.0, rel_tol=1e-11, truncation_radius=30.0)
    assert abs(integrate_line(f, spec) - exact) <= 1e-9 * exact


def _spike(y):
    return np.exp(-0.5 * ((y - 1.0) / 1e-6) ** 2)


def test_integrate_line_budget_exhaustion_raises():
    spec = IntegrationSpec(abs_tol=0.0, rel_tol=1e-12, truncation_radius=10.0, max_panels=4)
    with pytest.raises(ToleranceNotMet, match=r"^error bound .* in component 0 ") as info:
        integrate_line(_spike, spec)
    assert isinstance(info.value.estimate, float) and info.value.error_bound > 0.0

    # the spike is the worst component of a two-component pass
    with pytest.raises(ToleranceNotMet, match=r"^error bound .* in component 1 ") as info:
        integrate_line(lambda y: np.stack([np.exp(-0.5 * y * y), _spike(y)], axis=-1), spec)
    estimate, bound = info.value.estimate, info.value.error_bound
    assert estimate.shape == bound.shape == (2,)
    assert bound[1] > 1e-12 * abs(estimate[1]) and bound[1] > bound[0]


def test_integrate_line_non_finite_values_raise():
    def hole(y):
        return np.where(y > 3.0, np.nan, np.exp(-0.5 * y * y))

    for f, shape in ((hole, ()), (lambda y: np.stack([np.exp(-y * y), hole(y)], axis=-1), (2,))):
        with pytest.raises(ToleranceNotMet, match="^integrand produced non-finite values") as info:
            with np.errstate(invalid="ignore"):
                integrate_line(f)
        assert np.shape(info.value.estimate) == np.shape(info.value.error_bound) == shape
        assert np.all(np.isnan(info.value.estimate)) and np.all(np.isinf(info.value.error_bound))


_POLY = np.polynomial.Polynomial(np.arange(21) % 5 - 2.0)


def _poly_gauss(y):
    return _POLY(y) * np.exp(-0.5 * y**2) / math.sqrt(2.0 * math.pi)


def _two_scale(y):
    return np.exp(-0.5 * (y / 3.0) ** 2) + np.exp(-0.5 * ((y - 1.0) / 1e-3) ** 2)


@pytest.mark.parametrize(
    "f, spec, exact",
    [
        (
            lambda y: np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi),
            IntegrationSpec(abs_tol=1e-13, rel_tol=1e-12, truncation_radius=10.0),
            1.0,
        ),
        (_poly_gauss, IntegrationSpec(), _GH_WEIGHTS @ _POLY(_GH_NODES)),
        (
            _two_scale,
            IntegrationSpec(abs_tol=0.0, rel_tol=1e-11, truncation_radius=30.0),
            3.0 * math.sqrt(2 * math.pi) + 1e-3 * math.sqrt(2 * math.pi),
        ),
    ],
    ids=["gauss", "poly_gauss", "two_scale"],
)
def test_one_component_pass_is_the_scalar_pass(f, spec, exact):
    scalar = integrate_line(f, spec)
    assert integrate_line(lambda y: f(y)[:, None], spec)[0] == scalar
    # a sharper second component adds panels; f still meets its own target
    narrow = 1e-3 * math.sqrt(2 * math.pi)
    stacked = integrate_line(
        lambda y: np.stack([f(y), np.exp(-0.5 * ((y - 1.0) / 1e-3) ** 2)], axis=-1), spec
    )
    target = max(spec.abs_tol, spec.rel_tol * abs(exact))
    assert abs(stacked[0] - exact) <= max(target, abs(scalar - exact))
    assert abs(stacked[1] - narrow) <= 1e-9 * narrow
    # a column that meets its target from the start does not end the pass
    padded = integrate_line(lambda y: np.stack([np.zeros_like(y), f(y)], axis=-1), spec)
    assert padded[0] == 0.0
    assert abs(padded[1] - exact) <= max(target, abs(scalar - exact))


def _counted(f):
    """``f`` that records the size of each batch of nodes it is handed."""

    def counted(y):
        counted.batches.append(y.size)
        return f(y)

    counted.batches = []
    return counted


def test_split_panels_share_integrand_calls():
    spec = IntegrationSpec(abs_tol=0.0, rel_tol=1e-11, truncation_radius=30.0)
    refining = _counted(_two_scale)
    integrate_line(refining, spec)
    panels = sum(refining.batches) // 15
    assert panels > 30 and len(refining.batches) < panels
    # 30 initial panels, one call each, and no split: nothing is batched
    flat = _counted(np.zeros_like)
    assert integrate_line(flat, spec) == 0.0
    assert flat.batches == [15] * 30


def _bumps(centers, widths, vector):
    """f(y, which): integral i sums Gaussian bumps with centers[i] and widths[i], one per column."""

    def f(y, which):
        out = np.exp(-0.5 * ((y[:, None] - centers[which]) / widths[which]) ** 2)
        return out if vector else out.sum(axis=-1)

    return f


def _holed(f, bad, cut, vector):
    """``f`` with NaN on the nodes of integral ``bad`` past ``cut``."""

    def holed(y, which):
        hole = (which == bad) & (y > cut)
        return np.where(hole[:, None] if vector else hole, np.nan, f(y, which))

    return holed


def _one_by_one(f, specs):
    """Each integral through ``integrate_line``, the reference for the lock-step pass."""
    return [integrate_line(lambda y, i=i: f(y, np.full(y.shape, i)), spec)
            for i, spec in enumerate(specs)]


_SPECS = st.builds(
    IntegrationSpec,
    abs_tol=st.sampled_from([0.0, 1e-13, 1e-10]),
    rel_tol=st.floats(1e-12, 1e-6),
    truncation_radius=st.floats(1.0, 80.0),
)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(specs=st.lists(_SPECS, min_size=1, max_size=6), vector=st.booleans(), data=st.data())
def test_lock_step_pass_is_each_integral_alone(specs, vector, data):
    shape = (len(specs), data.draw(st.integers(1, 3)))
    centers = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=shape[0] * shape[1],
                                          max_size=shape[0] * shape[1]))).reshape(shape)
    widths = np.array(data.draw(st.lists(st.sampled_from([1e-3, 0.05, 0.3, 1.0, 3.0]),
                                         min_size=centers.size, max_size=centers.size)))
    f = _bumps(centers, widths.reshape(shape), vector)
    for got, alone in zip(integrate_lines(f, specs), _one_by_one(f, specs)):
        assert type(got) is type(alone)
        np.testing.assert_array_equal(got, alone)


def test_deep_lock_step_pass_caps_its_calls_and_matches_each_integral():
    # a kink every pi/3 in every column: rounds of many panels, more than one call can take
    centers = np.array([[0.3, -2.0], [1.7, 4.1], [-3.3, 0.0], [2.2, -0.6], [0.1, 0.2], [0.5, 0.9]])

    def f(y, which):
        return np.sqrt(np.abs(np.sin(3.0 * (y[:, None] - centers[which]))))

    calls = []

    def counted(y, which):
        calls.append(y.size)
        return f(y, which)

    radii = (6.0, 8.0, 9.0, 12.0, 7.0, 10.0)
    specs = [IntegrationSpec(abs_tol=0.0, rel_tol=1e-9, truncation_radius=r) for r in radii]
    for lock_step, alone in zip(integrate_lines(counted, specs), _one_by_one(f, specs)):
        np.testing.assert_array_equal(lock_step, alone)
    assert max(calls) == 15 * quadrature._CALL_PANELS
    # every integral has 8 to 12 first-pass panels; the first 8 calls hold one of each
    assert calls[:8] == [6 * 15] * 8


def test_lock_step_failures_raise_like_integrate_line():
    tight = IntegrationSpec(abs_tol=0.0, rel_tol=1e-12, truncation_radius=10.0, max_panels=4)
    centers, widths = np.array([[0.0], [1.0]]), np.array([[1.0], [1e-6]])
    f = _bumps(centers, widths, vector=False)
    with pytest.raises(ToleranceNotMet, match=r"^error bound .* in component 0 after 10 panels") as info:
        integrate_lines(f, [IntegrationSpec(), tight])
    assert isinstance(info.value.estimate, float) and info.value.error_bound > 0.0
    with pytest.raises(ToleranceNotMet) as alone:
        integrate_line(lambda y: f(y, np.ones(y.shape, dtype=int)), tight)
    assert str(info.value) == str(alone.value) and info.value.estimate == alone.value.estimate

    def hole(y, which):
        return np.where((which == 1) & (y > 3.0), np.nan, np.exp(-0.5 * y * y))[:, None]

    with pytest.raises(ToleranceNotMet, match=r"^integrand produced non-finite values on \[2, 4\]$") as info:
        with np.errstate(invalid="ignore"):
            integrate_lines(hole, [IntegrationSpec(), IntegrationSpec()])
    assert info.value.estimate.shape == info.value.error_bound.shape == (1,)
    assert np.isnan(info.value.estimate).all() and np.isinf(info.value.error_bound).all()


def test_integration_spec_validation():
    with pytest.raises(ValueError):
        IntegrationSpec(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationSpec(truncation_radius=-1.0)
    with pytest.raises(ValueError):
        IntegrationSpec(max_panels=1)


def test_gaussian_tail_radius_monotone_and_valid():
    radii = [gaussian_tail_radius(4.0, 10.0**-e) for e in range(6, 15)]
    # smaller target tail -> larger radius
    assert all(r2 > r1 for r1, r2 in zip(radii, radii[1:]))
    # the radius really does trap the marginal mass of a prior with that
    # second moment: worst case is the point mass at the support edge
    for target in (1e-8, 1e-12):
        r = gaussian_tail_radius(4.0, target)
        tail = math.erfc((r - 2.0) / math.sqrt(2.0))  # N(2,1) two-sided bound
        assert tail <= target


def _generator_refinement(spec):
    """Reference for the driver's first pass plus ``_refinement``: the whole rule as one generator.

    It yields its first-pass panels one request at a time, then the
    children of each round, and is sent their ``_panel_estimates``.
    """
    radius = spec.truncation_radius
    n_init = int(min(64.0, max(8.0, math.ceil(radius))))
    edges = np.linspace(-radius, radius, n_init + 1)
    ends = np.stack([edges[:-1], edges[1:]], axis=1)
    first = []
    for i in range(n_init):
        first.append((yield ends[i : i + 1]))
    shape = first[0][2]
    values = np.concatenate([v for v, _, _ in first])
    errors = np.concatenate([e for _, e, _ in first])
    total = values.sum(axis=0)
    err = errors.sum(axis=0)

    def result(x):
        return float(x[0]) if shape == () else x.copy()

    while True:
        target = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        over = err > target
        if not over.any():
            return result(total)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = int(np.argmax(np.where(over, err / target, 0.0)))
        if len(ends) >= spec.max_panels:
            raise ToleranceNotMet(
                f"error bound {err[c]:.3e} against target {target[c]:.3e} "
                f"in component {c} after {len(ends)} panels "
                f"(target abs {spec.abs_tol:.1e} / rel {spec.rel_tol:.1e})",
                estimate=result(total),
                error_bound=result(err),
            )
        order = np.argsort(-errors[:, c], kind="stable")
        reach = np.searchsorted(np.cumsum(errors[order, c]), err[c] - target[c] / 8.0, "right")
        batch = order[: min(reach + 1, quadrature._BATCH_PANELS, spec.max_panels - len(ends))]
        total -= values[batch].sum(axis=0)
        err -= errors[batch].sum(axis=0)
        a, b = ends[batch].T
        mid = 0.5 * (a + b)
        children = np.stack([a, mid, mid, b], axis=1).reshape(-1, 2)
        child_values, child_errors, _ = yield children
        total += child_values.sum(axis=0)
        err += child_errors.sum(axis=0)
        live = np.ones(len(ends), dtype=bool)
        live[batch] = False
        ends, values, errors = (np.concatenate((old[live], new)) for old, new in
                                ((ends, children), (values, child_values), (errors, child_errors)))


def _generator_lines(f, specs):
    """Reference for ``integrate_lines``: one ``_generator_refinement`` per integral, sent every panel.

    First-pass requests (one panel each) and split rounds (two or more) wait in two FIFO queues.  A call
    takes every waiting first-pass request, at most 2 * 128, then whole rounds, oldest first, while they fit.
    """
    runs = [_generator_refinement(spec) for spec in specs]
    results = [None] * len(runs)
    first, rounds = [(i, next(run)) for i, run in enumerate(runs)], []
    while first or rounds:
        step, first = first[:quadrature._CALL_PANELS], first[quadrature._CALL_PANELS:]
        panels = len(step)
        while rounds and panels + len(rounds[0][1]) <= quadrature._CALL_PANELS:
            panels += len(rounds[0][1])
            step.append(rounds.pop(0))
        ends = np.concatenate([request for _, request in step])
        which = np.repeat([i for i, _ in step], [15 * len(request) for _, request in step])
        values, errors, shape = quadrature._panel_estimates(f(quadrature._nodes(ends), which), ends)
        start = 0
        for i, request in step:
            stop = start + len(request)
            try:
                request = runs[i].send((values[start:stop], errors[start:stop], shape))
                (first if len(request) == 1 else rounds).append((i, request))
            except StopIteration as done:
                results[i] = done.value
            start = stop
    return results


def _schedule(driver, f, specs):
    """Every call ``driver`` makes of ``f`` (node and ``which`` bytes) and its outcome, as bytes."""
    calls = []

    def recorded(y, which):
        calls.append((y.tobytes(), which.dtype.str, which.tobytes()))
        return f(y, which)

    try:
        with np.errstate(invalid="ignore"):
            outcome = [(type(r), np.asarray(r).tobytes()) for r in driver(recorded, specs)]
    except ToleranceNotMet as exc:
        outcome = (str(exc), np.asarray(exc.estimate).tobytes(), np.asarray(exc.error_bound).tobytes())
    return calls, outcome


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    count=st.one_of(st.sampled_from([1, 256, 257, 300]), st.integers(1, 300)),
    vector=st.booleans(),
    failure=st.sampled_from([None, "budget", "nan"]),
    seed=st.integers(0, 2**32 - 1),
    zero=st.just(None),
    close=st.just(False),
)
@example(count=300, vector=False, failure=None, seed=0, zero=None, close=False)
@example(count=300, vector=True, failure=None, seed=0, zero=-0.0, close=True)
@example(count=300, vector=False, failure="budget", seed=1, zero=0.0, close=True)
@example(count=300, vector=False, failure=None, seed=2, zero=None, close=True)
@example(count=257, vector=True, failure="nan", seed=3, zero=None, close=True)
@example(count=120, vector=False, failure=None, seed=4, zero=-0.0, close=False)
@example(count=40, vector=True, failure="budget", seed=5, zero=0.0, close=False)
@example(count=100, vector=False, failure="budget+budget", seed=2, zero=None, close=True)
@example(count=40, vector=True, failure="budget+budget", seed=1, zero=None, close=False)
@example(count=257, vector=True, failure="budget+nan", seed=25, zero=None, close=True)
@example(count=40, vector=False, failure="budget+nan", seed=10, zero=None, close=False)
def test_driver_makes_the_generator_rules_calls(count, vector, failure, seed, zero, close):
    # 1-300 integrals of 8-64 first-pass panels: past 256 the first pass fills whole calls and rolls over.
    # The examples add a column that is ``zero`` on every node, so no padding may flip its sign, and
    # ``close`` radii in [7, 10], so first passes of 8, 9 or 10 panels end in one call.  Two failures in
    # two integrals pin which one surfaces: both budgets run out after the same call (11, then 64), a NaN
    # comes one call before the budget would run out (7 and 8), and a budget runs out first (26 and 36)
    rng = np.random.default_rng(seed)
    radii = rng.uniform(7.0, 10.0, size=count) if close else rng.uniform(1.0, 80.0, size=count)
    specs = [IntegrationSpec(abs_tol=float(rng.choice([0.0, 1e-13, 1e-10])),
                             rel_tol=float(10.0 ** rng.uniform(-12.0, -6.0)), truncation_radius=r)
             for r in radii]
    centers = rng.uniform(-5.0, 5.0, size=(count, 2))
    widths = rng.choice([1e-3, 0.05, 0.3, 1.0, 3.0], size=(count, 2))
    f = _bumps(centers, widths, vector)
    bad = int(rng.integers(count))
    for kind in failure.split("+") if failure else ():
        if kind == "budget":
            specs[bad] = IntegrationSpec(abs_tol=0.0, rel_tol=1e-12, truncation_radius=radii[bad],
                                         max_panels=int(rng.integers(2, 80)))
        else:
            f = _holed(f, bad, rng.uniform(-radii[bad], radii[bad]), vector)
        bad = (bad + count // 2) % count  # a second failure is in another integral
    if zero is not None:
        inner = f

        def f(y, which):
            out = inner(y, which)
            return np.concatenate([out.reshape(len(y), -1), np.full((len(y), 1), zero)], axis=1)

    lock_step = _schedule(integrate_lines, f, specs)
    assert lock_step == _schedule(_generator_lines, f, specs)
    if failure is None:
        assert len(lock_step[1]) == count


def test_runs_of_negative_zero_sum_to_positive_zero():
    # numpy starts every sum at +0.0, so no run of K15 values sums to -0.0 and the pad of ``_row_sums``
    # adds nothing whatever its sign.  A column of -0.0 has K15 values of +0.0; one of -1e-300 on a
    # window of radius 1e-30 has K15 values that underflow to -0.0
    tiny = IntegrationSpec(abs_tol=0.0, rel_tol=1e-9, truncation_radius=1e-30)
    ends = np.array([[-1e-30, -7.5e-31]])
    values, _, _ = quadrature._panel_estimates(np.full((15, 2), [-0.0, -1e-300]), ends)
    assert np.signbit(values).tolist() == [[False, True]]

    def f(y, which):
        return np.stack([np.full(len(y), -0.0), np.full(len(y), -1e-300), np.exp(-0.5 * (y / 0.3) ** 2)],
                        axis=1)

    alone = integrate_line(lambda y: f(y, None), tiny)
    assert not np.signbit(alone[:2]).any()
    # 150 bumps whose rounds share steps with the first passes of 150 tiny windows: runs of different lengths
    specs = [IntegrationSpec(truncation_radius=8.0)] * 150 + [tiny] * 150
    assert _schedule(integrate_lines, f, specs) == _schedule(_generator_lines, f, specs)
    for got in integrate_lines(f, specs)[150:]:
        assert not np.signbit(got[:2]).any()
        np.testing.assert_array_equal(got, alone)


def test_lock_step_pass_of_no_integrals_calls_nothing():
    def f(y, which):
        raise AssertionError("called")

    assert integrate_lines(f, []) == []
