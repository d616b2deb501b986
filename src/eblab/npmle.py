"""Nonparametric maximum likelihood for Gaussian location mixtures.

The mixing distribution is restricted to a fixed finite grid, which
turns maximum likelihood into a finite-dimensional concave program over
the simplex.  Following mixSQP (Kim, Carbonetto, Stephens & Anitescu
2020), the solver minimizes

    phi(x) = -(1/n) sum_i log f_x(y_i) + sum_u x_u   over x >= 0,

whose minimizer sums to one, by sequential quadratic programming on the
exact kernel.  Each step builds the Hessian on a small working set (the
support plus the local maxima of the certificate
D(u) = (1/n) sum_i phi(y_i - u) / f_w(y_i) above one), solves the
nonnegative QP with a primal active-set loop, backtracks on phi and
renormalizes, so the mean log-likelihood never decreases.  A step that
fails is replaced by a short run of the multiplicative fixed-point
iteration w_u <- w_u * D(u).  Stopping is governed solely by the exact
full-grid first-order certificate max_u D(u) <= 1 + tol, which bounds
the log-likelihood suboptimality of the returned weights over the grid.
Randomized experiment helpers derive every stream from a named
(master seed, cell index) pair via numpy's SeedSequence so repeated
runs are bit-for-bit identical regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .mixtures import DiscretePrior, MarginalModel, log_phi

__all__ = [
    "NotConverged",
    "NpmleProblem",
    "NpmleSolution",
    "solve_npmle",
    "gradient_certificate",
    "empirical_regret_experiment",
    "cell_rng",
    "sample_observations",
]

_PRUNE_WEIGHT = 1e-12
_STOP_MARGIN = 0.9  # stop below tol so pruning tiny atoms cannot push the cert back over
_START_ATOMS = 40  # evenly spaced grid atoms carrying the uniform start ...
_START_SPACING = 4.0  # ... at most this far apart where the grid allows
_EM_CHUNK = 10  # multiplicative steps taken when an SQP step fails
_RIDGE = 1e-10  # relative to the largest Hessian diagonal entry
_ARMIJO = 1e-4
_HALVINGS = 40
_QP_TOL = 1e-12  # multiplier threshold for freeing a zero coordinate


class NotConverged(RuntimeError):
    """Iteration budget exhausted; carries the best iterate found."""

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


@dataclass
class NpmleProblem:
    """Observations plus the support grid and stopping policy."""

    observations: np.ndarray
    grid: np.ndarray
    max_iters: int = 50000
    tol: float = 1e-6

    def __post_init__(self):
        self.observations = np.atleast_1d(np.asarray(self.observations, dtype=float))
        self.grid = np.atleast_1d(np.asarray(self.grid, dtype=float))
        if self.observations.size == 0:
            raise ValueError("need at least one observation")
        if not np.all(np.isfinite(self.observations)):
            raise ValueError("non-finite observations")
        if self.grid.size < 2 or np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing with >= 2 points")
        if not (self.tol > 0.0 and self.max_iters >= 1):
            raise ValueError("bad stopping policy")

    @classmethod
    def from_observations(
        cls, observations, grid_size=400, constrained=False, mprime=None, **kwargs
    ):
        """Uniform grid over the sample range, or [-mprime, mprime] if constrained."""
        observations = np.atleast_1d(np.asarray(observations, dtype=float))
        if constrained:
            if mprime is None or not mprime > 0.0:
                raise ValueError("constrained fit needs a positive mprime")
            lo, hi = -float(mprime), float(mprime)
        else:
            lo, hi = float(observations.min()), float(observations.max())
            if lo == hi:
                lo, hi = lo - 1.0, hi + 1.0
        grid = np.linspace(lo, hi, int(grid_size))
        return cls(observations=observations, grid=grid, **kwargs)


@dataclass
class NpmleSolution:
    """Fitted prior with its certificate and ascent trace.

    ``loglik`` is the mean log-likelihood of the pruned prior;
    ``gradient_cert`` is max_u D(u) over the full problem grid, which is
    <= 1 + tol at convergence; ``loglik_trace`` records the mean
    log-likelihood at the start of every iteration (nondecreasing).
    ``diagnostics`` holds deterministic solver counts: ``sqp_steps`` and
    ``em_steps`` split the iterations after the first between the two
    kinds of update, and ``max_working_set`` is the largest number of
    columns an SQP step worked on.
    """

    prior: DiscretePrior
    loglik: float
    gradient_cert: float
    iterations: int
    loglik_trace: np.ndarray = field(repr=False, default=None)
    diagnostics: dict = field(default_factory=dict)


def _certificate(kernel, fvals):
    # matvec form: never materialize the n x m quotient
    return kernel.T @ (1.0 / fvals) / fvals.size


def solve_npmle(problem):
    """Maximize the mixture likelihood over weights on the fixed grid.

    Starts uniform on evenly spaced grid atoms (at least 40, at most 4
    apart where the grid allows) and takes active-set SQP steps on
    phi(x) = -mean log f_x + sum(x) over the support plus the local
    maxima of the certificate above one, which is how new support points
    enter; atoms leave when the QP sets them to zero.  A step that is
    not a descent direction or fails its line search is replaced by a
    short run of multiplicative updates.  Every iteration keeps the mean
    log-likelihood nondecreasing, and the only stopping rule is the
    exact full-grid certificate max_u D(u) <= 1 + tol.  Raises
    ``NotConverged`` (with the partial solution attached) if the budget
    of ``max_iters`` iterations runs out first.
    """
    y = problem.observations
    grid = problem.grid
    kernel = np.exp(log_phi(y[:, None] - grid[None, :]))
    if np.any(kernel.sum(axis=1) == 0.0):
        raise ValueError("an observation is too far from every grid point")
    count = max(_START_ATOMS, math.ceil((grid[-1] - grid[0]) / _START_SPACING) + 1)
    w = np.zeros(grid.size)
    w[np.round(np.linspace(0, grid.size - 1, min(grid.size, count))).astype(int)] = 1.0
    if np.any(kernel @ w == 0.0):
        w[:] = 1.0  # some observation sits far from every start atom
    w /= w.sum()
    fvals = kernel @ w
    trace = [float(np.mean(np.log(fvals)))]
    stop_at = 1.0 + _STOP_MARGIN * problem.tol
    counts = {"sqp_steps": 0, "em_steps": 0, "max_working_set": 0}
    em_left = 0
    while True:
        direction = _certificate(kernel, fvals)
        certificate = float(direction.max())
        if certificate <= stop_at or len(trace) >= problem.max_iters:
            break
        step = None if em_left else _sqp_step(kernel, w, fvals, direction, trace[-1])
        if step is None:
            em_left = (em_left or _EM_CHUNK) - 1
            w = w * direction
            counts["em_steps"] += 1
        else:
            w, size = step
            counts["sqp_steps"] += 1
            counts["max_working_set"] = max(counts["max_working_set"], size)
        w /= w.sum()
        fvals = kernel @ w
        trace.append(float(np.mean(np.log(fvals))))
    solution = _package_solution(problem, kernel, w, certificate, trace, counts)
    if certificate > 1.0 + problem.tol:
        raise NotConverged(
            f"certificate {certificate - 1.0:.3e} above tol {problem.tol:.1e} "
            f"after {solution.iterations} iterations",
            solution,
        )
    return solution


def _sqp_step(kernel, w, fvals, direction, loglik):
    """One SQP step on the working set; (new x, working-set size) or None.

    The QP is the second-order model of phi around w restricted to the
    support plus the certificate's local maxima above one, with a small
    ridge; the step towards its solution is backtracked (Armijo) on the
    exact phi, and the caller renormalizes x.  Returns None when the QP
    direction is not a descent direction or no step length passes.
    """
    padded = np.r_[-np.inf, direction, -np.inf]
    peak = (direction >= padded[:-2]) & (direction >= padded[2:])
    work = np.flatnonzero((w > _PRUNE_WEIGHT) | (peak & (direction > 1.0)))
    k_work = kernel[:, work]
    scaled = k_work / fvals[:, None]
    hess = scaled.T @ scaled / fvals.size
    hess[np.diag_indices_from(hess)] += _RIDGE * float(hess.diagonal().max())
    grad = 1.0 - direction[work]
    w_work = w[work]
    target = _nonnegative_qp(hess, grad - hess @ w_work)
    step = target - w_work
    slope = float(grad @ step)
    if not slope < 0.0:
        return None
    k_step = k_work @ step
    mass = float(step.sum())
    alpha = 1.0
    for _ in range(_HALVINGS):
        f_try = fvals + alpha * k_step
        if np.all(f_try > 0.0):
            change = loglik - float(np.mean(np.log(f_try))) + alpha * mass
            if change <= _ARMIJO * alpha * slope:
                x = w.copy()
                x[work] = (1.0 - alpha) * w_work + alpha * target
                return x, work.size
        alpha *= 0.5
    return None


def _nonnegative_qp(hess, lin):
    """Primal active-set solve of min x'Hx/2 + lin'x over x >= 0.

    Starts from x = 0 with every coordinate fixed at zero.  Each pass
    minimizes over the free coordinates with the rest held at zero; if
    that point leaves the orthant the pass stops at the first blocking
    coordinate and fixes it, otherwise the fixed coordinate with the
    most negative multiplier is freed.  Coordinates enter one at a time,
    so the pass count tracks the size of the solution's support, not of
    the working set.
    """
    x = np.zeros(lin.size)
    free = np.zeros(lin.size, dtype=bool)
    for _ in range(2 * x.size + 10):
        idx = np.flatnonzero(free)
        target = np.zeros_like(x)
        target[idx] = np.linalg.solve(hess[np.ix_(idx, idx)], -lin[idx])
        blocked = idx[target[idx] < 0.0]
        if blocked.size:
            ratios = x[blocked] / (x[blocked] - target[blocked])
            k = int(np.argmin(ratios))
            x = np.maximum(x + ratios[k] * (target - x), 0.0)
            x[blocked[k]] = 0.0
            free[blocked[k]] = False
            continue
        x = target
        multipliers = np.where(free, np.inf, hess @ x + lin)
        j = int(np.argmin(multipliers))
        if not multipliers[j] < -_QP_TOL:
            break
        free[j] = True
    return x


def _package_solution(problem, kernel, w, certificate, trace, counts):
    keep = w > _PRUNE_WEIGHT
    if not np.any(keep):
        keep = w == w.max()
    atoms = problem.grid[keep]
    weights = w[keep] / w[keep].sum()
    prior = DiscretePrior(atoms, weights)
    fvals = kernel[:, keep] @ weights
    return NpmleSolution(
        prior=prior,
        loglik=float(np.mean(np.log(fvals))),
        gradient_cert=certificate,
        iterations=len(trace),
        loglik_trace=np.asarray(trace),
        diagnostics=counts,
    )


def gradient_certificate(solution, problem):
    """Recompute max_u D(u) over the problem grid for a fitted prior."""
    model = MarginalModel(solution.prior)
    fvals = model.density(problem.observations)
    kernel = np.exp(log_phi(problem.observations[:, None] - problem.grid[None, :]))
    return float(_certificate(kernel, fvals).max())


def cell_rng(master_seed, *cell_index):
    """Named stream for one experiment cell.

    Streams are split by seeding a fresh PCG64 generator from the
    (master seed, cell index...) tuple, so cells are independent and the
    assignment never depends on execution order.
    """
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, cell_index)]))


def sample_observations(prior, n, rng):
    """Draw n observations y = u + z from the mixture."""
    atoms = np.asarray(prior.atoms, dtype=float)
    weights = np.asarray(prior.weights, dtype=float)
    idx = rng.choice(atoms.size, size=int(n), p=weights)
    return atoms[idx] + rng.standard_normal(int(n))


def empirical_regret_experiment(true_prior, n, seed, **fit_options):
    """Fit the grid NPMLE on one synthetic sample and score it.

    ``fit_options`` (grid_size, constrained, mprime, max_iters, tol) go
    to ``NpmleProblem.from_observations``.  Returns a flat record with
    the squared Hellinger distance and regret of the fitted prior against
    the truth, the fit diagnostics, and the seed that generated the
    sample.  Its keys, in order, are the columns of the synthetic
    ``npmle`` CSV.  Solver errors propagate.
    """
    rng = cell_rng(seed, n)
    y = sample_observations(true_prior, n, rng)
    solution = solve_npmle(NpmleProblem.from_observations(y, **fit_options))
    scores = metrics.pair_integrals(true_prior, solution.prior, ["hellinger_sq", "regret"])
    return {
        "n": int(n),
        "seed": int(seed),
        "eps_sq": scores["hellinger_sq"],
        "regret": scores["regret"],
        "loglik": solution.loglik,
        "cert": solution.gradient_cert,
    }
