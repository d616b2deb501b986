import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eblab.npmle as npmle
from eblab.mixtures import DiscretePrior, MarginalModel, log_phi
from eblab.npmle import (
    NotConverged,
    NpmleProblem,
    NpmleSolution,
    cell_rng,
    empirical_regret_experiment,
    gradient_certificate,
    sample_observations,
    solve_npmle,
)

TRUE_PRIOR = DiscretePrior([-1.0, 1.0], [0.5, 0.5])


def _cold_nonnegative_qp(hess, lin, *_start):
    """Reference for ``_nonnegative_qp``: every QP from x = 0, first solving on no coordinates."""
    x = np.zeros(lin.size)
    free = np.zeros(lin.size, dtype=bool)
    for _ in range(2 * x.size + 10):
        idx = np.flatnonzero(free)
        target = np.zeros_like(x)
        target[idx] = np.linalg.solve(hess[idx[:, None], idx], -lin[idx])
        blocked = idx[target[idx] < 0.0]
        if blocked.size:
            ratios = x[blocked] / (x[blocked] - target[blocked])
            k = int(np.argmin(ratios))
            x = np.maximum(x + ratios[k] * (target - x), 0.0)
            x[blocked[k]] = 0.0
            free[blocked[k]] = False
            continue
        x = target
        multipliers = hess @ x + lin
        multipliers[free] = np.inf
        j = int(np.argmin(multipliers))
        if not multipliers[j] < -npmle._QP_TOL:
            break
        free[j] = True
    return x


def _stranded_by_full_pass(y, grid):
    """Reference coverage check: some observation's kernel column is 0 on the whole grid."""
    return bool(np.any(npmle._kernel(y, grid).max(axis=0) == 0.0))


def _underflow_distance():
    """Smallest distance whose phi underflows to 0 in the kernel's arithmetic (about 38.6)."""
    lo, hi = 38.0, 39.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if npmle._kernel(np.array([mid]), np.zeros(1))[0, 0] > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


_UNDERFLOW = _underflow_distance()


@st.composite
def _npmle_problems(draw, sizes=(20, 400), grid_sizes=(20, 200)):
    atoms = draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=5, unique=True))
    n = draw(st.integers(*sizes))
    grid_size = draw(st.integers(*grid_sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior = DiscretePrior(atoms, rng.dirichlet(np.ones(len(atoms))))
    y = sample_observations(prior, n, rng)
    return NpmleProblem.from_observations(y, grid_size=grid_size)


# a sample spanning far more than the start's atom spacing: its first steps work on the whole grid
_SPREAD = NpmleProblem.from_observations(np.random.default_rng(1).standard_cauchy(400), grid_size=100)


def _certified_far_fit(problem):
    """Fit with every RuntimeWarning an error; the fit is certified and its certificate finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = solve_npmle(problem)
    assert np.isfinite(fit.gradient_cert) and fit.gradient_cert <= 1.0 + problem.tol
    assert np.isfinite(fit.loglik)
    return fit


def _small_problem(seed=3, n=150, **kwargs):
    rng = cell_rng(seed, n)
    y = sample_observations(TRUE_PRIOR, n, rng)
    return NpmleProblem.from_observations(y, grid_size=120, **kwargs)


def test_solver_meets_certificate_and_ascends():
    problem = _small_problem()
    solution = solve_npmle(problem)
    assert solution.gradient_cert <= 1.0 + problem.tol
    trace = solution.loglik_trace
    assert np.all(np.diff(trace) >= -1e-12)  # ascent, up to roundoff
    assert solution.iterations == trace.size
    assert abs(float(np.sum(solution.prior.weights)) - 1.0) <= 1e-12
    assert solution.prior.atoms.min() >= problem.grid[0]
    assert solution.prior.atoms.max() <= problem.grid[-1]
    # reported loglik is the mean log density of the pruned prior
    model = MarginalModel(solution.prior)
    recomputed = float(np.mean(model.log_density(problem.observations)))
    assert abs(recomputed - solution.loglik) <= 1e-10
    # pruning tiny atoms must not break the certificate
    assert abs(gradient_certificate(solution, problem) - solution.gradient_cert) <= 1e-9


def test_no_grid_reweighting_beats_the_fit():
    problem = _small_problem(seed=11)
    solution = solve_npmle(problem)
    kernel = np.exp(-0.5 * (problem.observations[:, None] - problem.grid[None, :]) ** 2)
    kernel /= np.sqrt(2.0 * np.pi)
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = rng.dirichlet(np.ones(problem.grid.size))
        ll = float(np.mean(np.log(kernel @ w)))
        assert ll <= solution.loglik + 1e-9


def test_budget_exhaustion_carries_partial_solution():
    problem = _small_problem(max_iters=3)
    with pytest.raises(NotConverged) as info:
        solve_npmle(problem)
    partial = info.value.solution
    assert isinstance(partial, NpmleSolution)
    assert partial.iterations == 3
    assert partial.gradient_cert > 1.0 + problem.tol


def test_a_failed_sqp_step_falls_back_to_one_run_of_multiplicative_steps(monkeypatch):
    # two clusters, 300 observations, 100 grid points: too small to bin, so every step is full-kernel
    rng = np.random.default_rng(11)
    y = np.concatenate([rng.normal(-2.0, 1.0, 150), rng.normal(2.0, 1.0, 150)])
    problem = NpmleProblem.from_observations(y, grid_size=100)
    unpatched = solve_npmle(problem)
    assert unpatched.diagnostics["em_steps"] == 0
    calls = []
    sqp_step = npmle._sqp_step

    def fails_first(*args):
        calls.append(len(calls))
        return None if len(calls) == 1 else sqp_step(*args)

    monkeypatch.setattr(npmle, "_sqp_step", fails_first)
    fit = solve_npmle(problem)
    counts = fit.diagnostics
    assert counts["em_steps"] == npmle._EM_CHUNK == 10
    assert fit.iterations == 1 + counts["sqp_steps"] + counts["em_steps"]
    assert len(calls) == 1 + counts["sqp_steps"]  # no SQP step is tried inside the run
    assert np.all(np.diff(fit.loglik_trace) >= 0.0)
    assert fit.gradient_cert <= 1.0 + problem.tol
    assert abs(fit.loglik - unpatched.loglik) <= problem.tol


@pytest.mark.parametrize("sqp", [True, False])
def test_budget_accounting_across_phases(monkeypatch, sqp):
    if not sqp:
        # every SQP step refused: the multiplicative fallback does all the work
        monkeypatch.setattr(npmle, "_sqp_step", lambda *args: None)
    for max_iters in range(1, 9):
        problem = _small_problem(max_iters=max_iters)
        try:
            solution = solve_npmle(problem)
            assert solution.iterations <= max_iters
        except NotConverged as exc:
            solution = exc.solution
            assert solution.iterations == max_iters == solution.loglik_trace.size
        counts = solution.diagnostics
        assert solution.iterations == 1 + counts["sqp_steps"] + counts["em_steps"]
        assert np.all(np.diff(solution.loglik_trace) >= -1e-12)
        if not sqp:
            assert counts["sqp_steps"] == 0 and counts["max_working_set"] == 0


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    atoms=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4, unique=True),
    n=st.integers(20, 400),
    grid_size=st.integers(20, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_is_certified_monotone_and_unbeaten_on_random_priors(atoms, n, grid_size, seed):
    rng = np.random.default_rng(seed)
    prior = DiscretePrior(atoms, rng.dirichlet(np.ones(len(atoms))))
    problem = NpmleProblem.from_observations(
        sample_observations(prior, n, rng), grid_size=grid_size
    )
    solution = solve_npmle(problem)
    assert solution.gradient_cert <= 1.0 + problem.tol
    assert abs(gradient_certificate(solution, problem) - solution.gradient_cert) <= 1e-9
    assert np.all(np.diff(solution.loglik_trace) >= -1e-12)
    kernel = np.exp(-0.5 * (problem.observations[:, None] - problem.grid[None, :]) ** 2)
    kernel /= np.sqrt(2.0 * np.pi)
    for w in rng.dirichlet(np.ones(grid_size), size=20):
        assert float(np.mean(np.log(kernel @ w))) <= solution.loglik + 1e-9
    # the log-likelihood is concave, so L(w*) - L(w) <= max_u D(u) - 1: no tighter fit gains more
    tight = solve_npmle(NpmleProblem(problem.observations, problem.grid, tol=1e-11))
    assert tight.loglik - solution.loglik <= solution.gradient_cert - 1.0 + 1e-12


def test_problem_validation():
    with pytest.raises(ValueError):
        NpmleProblem(observations=[], grid=[0.0, 1.0])
    with pytest.raises(ValueError):
        NpmleProblem(observations=[np.inf], grid=[0.0, 1.0])
    with pytest.raises(ValueError):
        NpmleProblem(observations=[0.0], grid=[1.0, 1.0])
    for grid in ([0.0, 1.0, np.inf], [np.nan, 0.0, 1.0]):  # np.diff passes both
        with pytest.raises(ValueError, match="grid must be finite"):
            NpmleProblem(observations=[0.0], grid=grid)
    with pytest.raises(ValueError):
        NpmleProblem(observations=[0.0], grid=[0.0, 1.0], tol=0.0)
    with pytest.raises(ValueError):
        NpmleProblem.from_observations([0.0, 1.0], bounds=(1.0, 1.0))
    for bounds in (None, (-1.0, 1.0)):
        with pytest.raises(ValueError, match="need at least one observation"):
            NpmleProblem.from_observations([], bounds=bounds)
    # linspace on these bounds gives nan or inf points (the width 2e308 overflows)
    for bounds in ((-np.inf, np.inf), (-np.inf, 1.0), (0.0, np.nan), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="grid must be finite"):
            NpmleProblem.from_observations([0.0, 1.0], bounds=bounds)
    for grid_size in (1, 0, -5):
        with pytest.raises(ValueError, match=f"grid_size must be >= 2, not {grid_size}"):
            NpmleProblem.from_observations([0.0, 1.0], grid_size=grid_size)


def test_observation_stranded_off_grid_is_fitted_at_the_grid_end():
    # phi(59) underflows at every grid point; on its shifted column 60.0 is fitted at the nearest grid end
    y = np.array([0.0, 0.5, 60.0])
    problem = NpmleProblem(observations=y, grid=np.linspace(-1.0, 1.0, 50))
    assert _stranded_by_full_pass(y, problem.grid)
    fit = _certified_far_fit(problem)
    assert fit.prior.atoms.max() == problem.grid[-1]
    assert abs(gradient_certificate(fit, problem) - fit.gradient_cert) <= 1e-9


def test_spread_sample_fit_makes_few_solves_per_step(monkeypatch):
    solve, calls = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
    fit = solve_npmle(_SPREAD)
    steps = fit.diagnostics["sqp_steps"]
    assert steps >= 5 and fit.diagnostics["max_working_set"] == _SPREAD.grid.size
    # a QP that starts from the current weights drops the step's leftover atoms one pass at a time
    assert len(calls) <= 4 * steps


def test_spread_sample_binned_fit_starts_the_full_kernel_near_the_end(monkeypatch):
    # 800 observations on a 100-point grid: binned; the binned phase does the whole-grid work
    problem = NpmleProblem.from_observations(np.random.default_rng(1).standard_cauchy(800), grid_size=100)
    assert npmle._binning_pays(problem.observations.size, problem.grid.size)
    solve, solves, qp, working_sets = np.linalg.solve, [], npmle._nonnegative_qp, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
    monkeypatch.setattr(npmle, "_nonnegative_qp", lambda h, lin, x: working_sets.append(lin.size) or qp(h, lin, x))
    fit = solve_npmle(problem)
    counts = fit.diagnostics
    assert fit.gradient_cert <= 1.0 + problem.tol
    assert fit.iterations == 1 + counts["sqp_steps"] + counts["em_steps"] <= 4
    assert counts["binned_steps"] >= 5
    # the whole-grid QPs ran in the binned phase; the full kernel's working sets stay small
    assert max(working_sets) == problem.grid.size > counts["max_working_set"]
    assert len(solves) <= 4 * len(working_sets)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(problem=_npmle_problems(sizes=(800, 2000), grid_sizes=(50, 400)))
def test_binned_start_fit_matches_the_plain_start_fit(problem):
    assert npmle._binning_pays(problem.observations.size, problem.grid.size)
    fit = solve_npmle(problem)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npmle, "_binning_pays", lambda n, m: False)
        plain = solve_npmle(problem)
    assert plain.diagnostics["binned_steps"] == 0 < fit.diagnostics["binned_steps"]
    for solution in (fit, plain):
        assert solution.gradient_cert <= 1.0 + problem.tol
        assert abs(gradient_certificate(solution, problem) - solution.gradient_cert) <= 1e-9
        assert np.all(np.diff(solution.loglik_trace) >= -1e-12)
    assert abs(fit.loglik - plain.loglik) <= problem.tol


@pytest.mark.parametrize("n, m", [(50, 400), (200, 400), (400, 100), (799, 50), (800, 49), (1000, 501)])
def test_small_or_fine_grid_fits_do_not_bin(n, m):
    assert not npmle._binning_pays(n, m)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    y=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=200).map(np.array),
    grid=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=150, unique=True).map(np.sort),
    seed=st.integers(0, 2**32 - 1),
)
@example(y=np.linspace(-3.0, 3.0, 50), grid=np.linspace(-4.0, 4.0, 33), seed=0)
@example(y=np.linspace(-3.0, 3.0, 50), grid=np.linspace(-4.0, 4.0, 64), seed=1)
@example(y=np.linspace(-3.0, 3.0, 50), grid=np.linspace(-4.0, 4.0, 97), seed=2)
@example(y=np.linspace(-3.0, 3.0, 50), grid=np.linspace(-4.0, 4.0, 5), seed=3)
@example(y=np.linspace(-3.0, 3.0, 50), grid=np.linspace(-4.0, 4.0, 187), seed=4)
def test_streamed_certificate_is_the_full_kernel_certificate(y, grid, seed):
    kernel = npmle._kernel(y, grid)
    fvals = np.random.default_rng(seed).dirichlet(np.ones(grid.size)) @ kernel
    full = npmle._Sample(kernel).certificate(fvals)
    streamed, _ = npmle._priced(y, grid, fvals)
    assert streamed.shape == full.shape
    assert np.all(np.abs(streamed - full) <= 4.0 * np.spacing(full))


@st.composite
def _binned_pricings(draw):
    """An uneven grid and sample, some observations on shifted columns, its ``_Binned`` and a random f."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacing = 10.0 ** draw(st.floats(-3.0, 2.0))
    grid = draw(st.floats(-1e6, 1e6)) + spacing * np.cumsum(rng.uniform(0.2, 1.8, draw(st.integers(2, 400))))
    y = rng.uniform(grid[0], grid[-1], draw(st.integers(1, 400))) + spacing * rng.standard_normal()
    far = draw(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(25.0, 1e4)), max_size=3))
    y = np.r_[y, [grid[-1] + offset if side > 0.0 else grid[0] - offset for side, offset in far]]
    problem = NpmleProblem(observations=y, grid=grid)
    w = rng.dirichlet(np.full(grid.size, draw(st.sampled_from([0.05, 1.0]))))
    w[w < 1e-300] = 1e-300  # every f > 0, and each shifted column's at least 1e-300 phi(0)
    fvals = npmle._density(npmle._kernel(y, grid, problem._shift), w / w.sum()) * draw(st.sampled_from([1.0, 4.0]))
    return problem, npmle._Binned(problem), fvals


# bench-like: two clusters gridded on the sample's range, so the bound is used (2 h r is about 0.2)
_BENCH_LIKE = NpmleProblem.from_observations(sample_observations(TRUE_PRIOR, 3200, cell_rng(0, 3200)))


def _start_pricing(problem):
    """``problem``, its ``_Binned`` and the density of the uniform start: a case of ``_binned_pricings``."""
    kernel = npmle._kernel(problem.observations, problem.grid, problem._shift)
    return problem, npmle._Binned(problem), npmle._density(kernel, npmle._start(problem.grid))


def _overflowed_bin():
    """A case whose 1/f overflows the moments of grid[0]'s bin: the bound is NaN (0 times inf) where its kernel underflows."""
    grid = np.linspace(-25.0, 25.0, 501)  # 2 h r is at most 50 * 0.03
    rng = cell_rng(3, 300)
    y = np.r_[rng.choice(grid, 300) + rng.uniform(-0.03, 0.03, 300), grid[0] + 0.01, grid[0] - 0.01]
    problem, binned, fvals = _start_pricing(NpmleProblem(observations=y, grid=grid))
    fvals[-2:] = 1e-308  # 1/f = 1e308 each: finite, and D stays finite, but the bin's M_0 does not
    with np.errstate(over="ignore", invalid="ignore"):
        assert binned.factor is not None and np.isnan(binned.upper(1.0 / fvals)).any()
    return problem, binned, fvals


def _nan_end_rows():
    """A grid reaching +-1e200, its sample on grid points: the bound is NaN (u^2 M_2 = inf * 0) at the two end rows alone."""
    grid = np.r_[-1e200, np.linspace(-12.0, 12.0, 40), 1e200]
    return _start_pricing(NpmleProblem(observations=np.repeat(grid[np.abs(grid) < 1.0], 10), grid=grid))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_binned_pricings())
@example(case=_start_pricing(_BENCH_LIKE))
# a grid of 5 points, one block; the bound is used (2 h r <= 0.5)
@example(case=_start_pricing(NpmleProblem(observations=cell_rng(1, 200).uniform(-1.0, 1.0, 200),
                                          grid=np.linspace(-1.0, 1.0, 5))))
# 185 and 187 points: the last block takes 9 and 11 rows, and it is priced while the first ten blocks are not
@example(case=_start_pricing(NpmleProblem.from_observations(
    _BENCH_LIKE.observations[_BENCH_LIKE.observations < 1.0], grid_size=185)))
@example(case=_start_pricing(NpmleProblem.from_observations(
    _BENCH_LIKE.observations[_BENCH_LIKE.observations < 1.0], grid_size=187)))
# a wide sample: 2 h r is about 41, so there is no bound and every row is priced
@example(case=_start_pricing(NpmleProblem.from_observations(10.0 * cell_rng(2, 1000).standard_normal(1000),
                                                            grid_size=60)))
# NaN bounds: with overflowed bin moments every row's bound is NaN or inf; with NaN at the end rows alone,
# their blocks are priced with the rows near the sample, and the block at -7.7 to -3.4 is not priced
@example(case=_overflowed_bin())
@example(case=_nan_end_rows())
def test_bounded_pricing_is_the_streamed_certificate_where_it_matters(case):
    # the bound is above D everywhere; the rows it prices keep _priced's bits, the rest stay below one
    problem, binned, fvals = case
    y, grid, shift = problem.observations, problem.grid, problem._shift
    exact, every_row = npmle._priced(y, grid, fvals, shift)
    assert every_row.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        direction, priced = npmle._priced(y, grid, fvals, shift, binned)
        if binned.factor is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                upper = binned.upper(1.0 / fvals) / y.size
                slack = 2.0**-1000 * np.sum(1.0 / fvals) / y.size
                bound = (binned.upper(1.0 / fvals) + 2.0**-1000 * np.sum(1.0 / fvals)) / y.size
            finite = np.isfinite(upper)
            assert np.all(exact[finite] <= upper[finite] * (1.0 + 0.5 * npmle._SKIP) + slack)
            # 8-row blocks, the last taking the 8 to 15 rows left: those whose bound is not below 1 - _SKIP
            # (NaN included) are priced, and the rest only if none of those reaches 1 - _SKIP / 2
            block = np.minimum(np.arange(grid.size) // npmle._BLOCK, max(grid.size // npmle._BLOCK - 1, 0))
            first = np.isin(block, block[~(bound < 1.0 - npmle._SKIP)])
            assert np.array_equal(priced, first | (exact[first].max(initial=0.0) < 1.0 - 0.5 * npmle._SKIP))
    assert direction.max().tobytes() == exact.max().tobytes()
    assert np.array_equal(npmle._peaks(direction), npmle._peaks(exact))
    assert direction[priced].tobytes() == exact[priced].tobytes()
    assert np.all(direction[~priced] < 1.0 - npmle._SKIP) and np.all(exact[~priced] < 1.0 - 0.5 * npmle._SKIP)
    assert binned.factor is not None or priced.all()


def test_a_bench_like_fit_prices_few_grid_rows_exactly():
    fit = solve_npmle(_BENCH_LIKE)
    counts = fit.diagnostics
    assert counts["pricing_passes"] >= 1
    assert counts["priced_rows"] < 0.25 * counts["pricing_passes"] * _BENCH_LIKE.grid.size
    assert fit.gradient_cert <= 1.0 + _BENCH_LIKE.tol
    assert abs(gradient_certificate(fit, _BENCH_LIKE) - fit.gradient_cert) <= 1e-12


def test_a_binned_start_that_misses_a_cluster_grows_its_rows(monkeypatch):
    # the binned weights sit on the left cluster alone: pricing finds the right one and the rows grow
    rng = np.random.default_rng(4)
    y = np.concatenate([rng.normal(-3.0, 1.0, 1000), rng.normal(3.0, 1.0, 1000)])
    problem = NpmleProblem.from_observations(y, grid_size=100)
    plain = solve_npmle(problem)

    def one_cluster(problem, stop_at, qp_start):
        w = np.zeros(problem.grid.size)
        w[np.abs(problem.grid + 3.0).argmin()] = 1.0
        return w, 0, npmle._Binned(problem)

    monkeypatch.setattr(npmle, "_binned_fit", one_cluster)
    fit = solve_npmle(problem)
    counts = fit.diagnostics
    assert counts["pricing_passes"] >= 2
    assert 2 * npmle._RADIUS + 1 < counts["max_rows"] < problem.grid.size
    assert fit.gradient_cert <= 1.0 + problem.tol
    assert gradient_certificate(fit, problem) <= 1.0 + problem.tol
    assert fit.prior.atoms.max() > 0.0 > fit.prior.atoms.min()
    assert fit.iterations == 1 + counts["sqp_steps"] + counts["em_steps"] == fit.loglik_trace.size
    assert np.all(np.diff(fit.loglik_trace) >= -1e-12)
    assert abs(fit.loglik - plain.loglik) <= problem.tol


def _large_problem():
    return NpmleProblem.from_observations(sample_observations(TRUE_PRIOR, 20_000, cell_rng(8, 20_000)))


def test_binned_fit_memory_stays_below_a_quarter_of_the_full_kernel():
    # the full (400, 20000) kernel takes 64 MB; a binned fit holds its working rows and one block
    problem = _large_problem()
    y = problem.observations
    assert npmle._binning_pays(y.size, problem.grid.size)
    tracemalloc.start()
    try:
        fit = solve_npmle(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.gradient_cert <= 1.0 + problem.tol
    assert fit.diagnostics["pricing_passes"] >= 1
    assert peak < problem.grid.size * y.size * 8 / 4


def test_gradient_certificate_streams_the_kernel():
    # one block of 8 grid rows is 1.3 MB; the full (400, 20000) kernel would be 64 MB
    problem = _large_problem()
    fit = solve_npmle(problem)
    tracemalloc.start()
    try:
        check = gradient_certificate(fit, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(check - fit.gradient_cert) <= 1e-12
    assert peak < 16e6


def test_binned_fit_past_underflow_prices_and_certifies():
    # grid spacing 100.6: the observations midway between grid points are fitted on shifted columns
    problem = NpmleProblem.from_observations(np.random.default_rng(5).standard_cauchy(3200))
    assert npmle._binning_pays(problem.observations.size, problem.grid.size)
    assert _stranded_by_full_pass(problem.observations, problem.grid)
    fit = _certified_far_fit(problem)
    assert fit.diagnostics["binned_steps"] > 0 and fit.diagnostics["pricing_passes"] >= 1
    assert abs(gradient_certificate(fit, problem) - fit.gradient_cert) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_cauchy_samples_fit_and_certify_on_the_default_grid(seed):
    y = np.random.default_rng(seed).standard_cauchy(3200)
    problem = NpmleProblem.from_observations(y)
    fit = _certified_far_fit(problem)
    assert abs(gradient_certificate(fit, problem) - fit.gradient_cert) <= 1e-12
    loglik = float(np.mean(MarginalModel(fit.prior).log_density(y)))
    assert abs(fit.loglik - loglik) <= 1e-12 * abs(loglik)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    problem=_npmle_problems(sizes=(20, 1000), grid_sizes=(20, 400)),
    far=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(25.0, 1e4)), min_size=1, max_size=5),
)
def test_shifted_fit_loglik_is_the_log_sum_exp_loglik(problem, far):
    # observations past the grid ends, each at least 25 from it: their kernel columns are shifted
    ends = np.where(np.array([side for side, _ in far]) > 0.0, problem.grid[-1], problem.grid[0])
    y = np.r_[problem.observations, ends + np.array([side * offset for side, offset in far])]
    shifted = NpmleProblem(observations=y, grid=problem.grid)
    assert shifted._shift is not None
    fit = _certified_far_fit(shifted)
    loglik = float(np.mean(MarginalModel(fit.prior).log_density(y)))
    assert abs(fit.loglik - loglik) <= 1e-12 * abs(loglik)
    assert abs(fit.loglik_trace[-1] - loglik) <= 1e-9 * abs(loglik)  # the trace is unshifted too


@settings(derandomize=True, deadline=None, max_examples=60)
@given(problem=_npmle_problems(sizes=(1, 3200), grid_sizes=(2, 400)))
@example(problem=NpmleProblem.from_observations(sample_observations(TRUE_PRIOR, 3200, cell_rng(0, 3200))))
def test_samples_gridded_on_their_own_range_shift_no_row(problem):
    # the bench's samples are gridded on their range with spacing far below 49: no column is shifted
    assert np.diff(problem.grid).max() < 2.0 * np.sqrt(npmle._FAR)
    nearest, shift = npmle._shift(problem.observations, problem.grid)
    assert shift is None and problem._shift is None
    assert np.array_equal(nearest, problem._nearest)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    values=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8, unique=True).map(np.array),
    grid=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=15, unique=True).map(np.sort),
    data=st.data(),
)
def test_counted_sample_is_the_expanded_sample(values, grid, data):
    # distances at most 10 and f <= phi(0) < 1: no underflow, and every log f has one sign
    counts = np.array(data.draw(st.lists(st.integers(1, 5), min_size=values.size, max_size=values.size)))
    w = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(grid.size))
    counted = npmle._CountedSample(npmle._kernel(values, grid), counts.astype(float))
    expanded = npmle._Sample(npmle._kernel(np.repeat(values, counts), grid))
    f_counted, f_expanded = w @ counted.kernel, w @ expanded.kernel
    assert np.allclose(counted.loglik(f_counted), expanded.loglik(f_expanded), rtol=1e-12, atol=0.0)
    assert np.allclose(counted.certificate(f_counted), expanded.certificate(f_expanded), rtol=1e-12, atol=0.0)
    assert np.allclose(counted.hessian(counted.kernel, f_counted), expanded.hessian(expanded.kernel, f_expanded),
                       rtol=1e-12, atol=0.0)
    assert np.isfinite(counted.certificate(f_counted)).all() and np.isfinite(expanded.certificate(f_expanded)).all()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(problem=_npmle_problems())
@example(problem=_SPREAD)
def test_warm_started_qp_returns_the_cold_start_bits(problem):
    # a mismatch here is a degenerate KKT point (a zero coordinate with a zero multiplier)
    qp, warm_starts = npmle._nonnegative_qp, []

    def checked(hess, lin, x):
        warm_starts.append(bool(np.any(x)))
        result = qp(hess, lin, x)
        assert result.tobytes() == _cold_nonnegative_qp(hess, lin).tobytes()
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npmle, "_nonnegative_qp", checked)
        solve_npmle(problem)
    assert warm_starts and not warm_starts[0]  # the first step off the uniform start stays cold
    assert all(warm_starts[1:])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(problem=_npmle_problems())
@example(problem=_SPREAD)
def test_fit_with_the_cold_qp_is_the_same_fit(problem):
    fit = solve_npmle(problem)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npmle, "_nonnegative_qp", _cold_nonnegative_qp)
        cold = solve_npmle(problem)
    assert fit.prior.atoms.tobytes() == cold.prior.atoms.tobytes()
    assert fit.prior.weights.tobytes() == cold.prior.weights.tobytes()
    assert (fit.loglik, fit.gradient_cert, fit.iterations) == (
        cold.loglik, cold.gradient_cert, cold.iterations
    )
    assert fit.loglik_trace.tobytes() == cold.loglik_trace.tobytes()
    assert fit.diagnostics == cold.diagnostics


_OFFSETS = st.one_of(
    st.floats(0.0, 60.0),
    st.floats(37.0, 39.0),  # phi subnormal: 1/f overflows from about 37.6
    st.floats(_UNDERFLOW - 1e-9, _UNDERFLOW + 1e-9),
    st.sampled_from([float(np.nextafter(_UNDERFLOW, 0.0)), _UNDERFLOW]),
    st.floats(60.0, 1e6),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    grid=st.lists(st.floats(-300.0, 300.0), min_size=2, max_size=12, unique=True).map(np.sort),
    picks=st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from([-1.0, 1.0]), _OFFSETS),
        min_size=1,
        max_size=6,
    ),
)
@example(grid=np.array([-50.0, 50.0]), picks=[(0, 1.0, 50.0)])  # midway between two far points
@example(grid=np.array([0.0, 2.0 * _UNDERFLOW]), picks=[(0, 1.0, _UNDERFLOW)])
@example(grid=np.array([0.0, 1.0]), picks=[(0, -1.0, _UNDERFLOW), (1, 1.0, 1.0)])
def test_far_observations_are_refused_or_certified_without_overflow(grid, picks):
    # observations beyond both grid ends and between grid points, on both sides of phi's underflow:
    # each is fitted, with no RuntimeWarning on the way, and the fit is certified
    y = np.array([grid[min(i, grid.size - 1)] + side * offset for i, side, offset in picks])
    problem = NpmleProblem(observations=y, grid=grid)
    fit = _certified_far_fit(problem)
    check = gradient_certificate(fit, problem)
    assert abs(check - fit.gradient_cert) <= 1e-12


def test_an_observation_whose_squared_distance_overflows_is_refused():
    # 1e200 from the grid: c = 1e400 overflows, so no shift can bring its column into range
    with pytest.raises(ValueError, match=r"observation 1e\+200: its squared distance to the grid overflows"):
        NpmleProblem(observations=np.array([0.0, 1e200]), grid=np.array([-1.0, 1.0]))


@pytest.mark.parametrize("distance, overflows", [(37.5, False), (37.8, True)])
def test_an_observation_whose_1_over_f_overflows_fits_and_certifies(distance, overflows):
    # phi(37.8) is subnormal but not 0, and 1/phi(37.8) overflows; with the column shift both fit
    with np.errstate(over="ignore"):
        assert bool(np.isinf(1.0 / npmle._kernel(np.array([distance]), np.zeros(1))[0, 0])) == overflows
    problem = NpmleProblem(observations=np.array([0.0, 0.0, 0.0, 1.0 + distance]),
                           grid=np.linspace(-1.0, 1.0, 50))
    fit = _certified_far_fit(problem)
    assert abs(gradient_certificate(fit, problem) - fit.gradient_cert) <= 1e-9


def test_an_uneven_grid_starts_on_every_grid_point_where_its_start_atoms_are_far_apart():
    # the start's atoms are spaced by index: of the five far grid points they take 200 and 500 only
    assert np.count_nonzero(npmle._start(np.linspace(-3.0, 3.0, 400))) == 40  # an even grid: unchanged
    grid = np.r_[np.linspace(0.0, 1.0, 400), [100.0, 200.0, 300.0, 400.0, 500.0]]
    assert np.all(npmle._start(grid) > 0.0)
    for far in (310.0, 350.0):  # 10 from 300 on an unshifted column; 50 from 300 and 400 on a shifted one
        problem = NpmleProblem(observations=np.array([0.5, far]), grid=grid)
        fit = _certified_far_fit(problem)
        assert abs(gradient_certificate(fit, problem) - fit.gradient_cert) <= 1e-12


def test_a_binned_fit_keeps_each_observation_on_a_shifted_column_its_own_point():
    # 300 and 1000 fall in the grid's gap nearest to 0; binned there, the atoms below 0 that serve 0
    # are too far from them on their shifted columns, and their f would be 0
    rng = np.random.default_rng(0)
    grid = np.r_[np.linspace(-10.0, 0.0, 400), [5000.0]]
    problem = NpmleProblem(observations=np.r_[rng.normal(-1.0, 0.5, 2000), [300.0, 1000.0]], grid=grid)
    assert npmle._binning_pays(problem.observations.size, grid.size)
    fit = _certified_far_fit(problem)
    assert fit.diagnostics["binned_steps"] > 0
    assert abs(gradient_certificate(fit, problem) - fit.gradient_cert) <= 1e-9


def test_a_step_whose_fresh_density_is_0_somewhere_is_not_taken():
    # an SQP step drops the only atoms that reach some observation: its line search's f + alpha K step
    # keeps a positive rounding residue there, while the new weights' f, summed afresh, is exactly 0
    y = 0.7000012588882414 * np.random.default_rng(1036).standard_cauchy(932)
    problem = NpmleProblem.from_observations(y, grid_size=361, max_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotConverged) as info:
            solve_npmle(problem)
    solution = info.value.solution
    assert solution.diagnostics["em_steps"] > 0
    assert np.isfinite(solution.loglik) and np.all(np.diff(solution.loglik_trace) >= 0.0)


# strictly increasing grids on [-10, 10]: a density there is at least 1e-12 phi(20), far from subnormal
_GRIDS = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=30, unique=True).map(np.sort)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(y=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=50).map(np.array), grid=_GRIDS)
def test_grid_major_kernel_is_the_transposed_log_phi_kernel(y, grid):
    assert np.array_equal(npmle._kernel(y, grid), np.exp(log_phi(y[:, None] - grid)).T)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    y=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=50).map(np.array),
    grid=_GRIDS,
    data=st.data(),
)
def test_support_only_density_matches_the_dense_product(y, grid, data):
    kernel = npmle._kernel(y, grid)
    support = data.draw(st.sets(st.integers(0, grid.size - 1), min_size=1, max_size=20))
    w = np.zeros(grid.size)
    w[sorted(support)] = data.draw(
        st.lists(st.floats(1e-12, 1.0), min_size=len(support), max_size=len(support))
    )
    dense = w @ kernel
    assert np.all(np.abs(npmle._density(kernel, w) - dense) <= 1e-14 * dense)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    y=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=50).map(np.array),
    grid=_GRIDS,
    distance=st.floats(39.0, 1e6),
    side=st.sampled_from([-1.0, 1.0]),
)
def test_observation_past_underflow_distance_fits_with_the_log_sum_exp_loglik(y, grid, distance, side):
    far = (grid[-1] if side > 0 else grid[0]) + side * distance  # phi(39) underflows to 0
    problem = NpmleProblem(observations=np.r_[y, far], grid=grid)
    assert _stranded_by_full_pass(problem.observations, grid)
    fit = _certified_far_fit(problem)
    loglik = float(np.mean(MarginalModel(fit.prior).log_density(problem.observations)))
    assert abs(fit.loglik - loglik) <= 1e-12 * abs(loglik)


def test_constrained_grid_respects_bound():
    problem = _small_problem(bounds=(-0.8, 0.8))
    assert problem.grid[0] == -0.8
    assert problem.grid[-1] == 0.8
    solution = solve_npmle(problem)
    assert np.max(np.abs(solution.prior.atoms)) <= 0.8


def test_degenerate_sample_gets_padded_grid():
    problem = NpmleProblem.from_observations(np.zeros(5), grid_size=30)
    assert problem.grid[0] == -1.0 and problem.grid[-1] == 1.0
    solution = solve_npmle(problem)
    assert solution.gradient_cert <= 1.0 + problem.tol


def test_cell_rng_streams_are_stable_and_distinct():
    a = cell_rng(0, 1, 2).standard_normal(4)
    b = cell_rng(0, 1, 2).standard_normal(4)
    c = cell_rng(0, 2, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_observations_shape_and_determinism():
    y1 = sample_observations(TRUE_PRIOR, 37, cell_rng(5))
    y2 = sample_observations(TRUE_PRIOR, 37, cell_rng(5))
    assert y1.shape == (37,)
    assert np.array_equal(y1, y2)
    assert np.all(np.abs(y1) < 1.0 + 8.0)  # atoms at +-1 plus gaussian noise


def test_empirical_regret_record_is_deterministic():
    [(first, solution)] = empirical_regret_experiment(TRUE_PRIOR, [(120, 7)], grid_size=100)
    [(second, _)] = empirical_regret_experiment(TRUE_PRIOR, [(120, 7)], grid_size=100)
    assert first == second
    assert (first["loglik"], first["cert"]) == (solution.loglik, solution.gradient_cert)
    assert set(first) == {"n", "eps_sq", "regret", "loglik", "cert", "seed"}
    assert first["n"] == 120 and first["seed"] == 7
    assert first["regret"] >= 0.0
    assert first["eps_sq"] >= 0.0
    assert first["cert"] <= 1.0 + 1e-6
    [(third, _)] = empirical_regret_experiment(TRUE_PRIOR, [(120, 8)], grid_size=100)
    assert third["regret"] != first["regret"]
