"""Nonparametric maximum likelihood for Gaussian location mixtures.

The mixing distribution is restricted to a fixed finite grid, which
turns maximum likelihood into a concave program over the simplex.
Following mixSQP (Kim, Carbonetto, Stephens & Anitescu 2020), the
solver minimizes

    phi(x) = -(1/n) sum_i log f_x(y_i) + sum_u x_u   over x >= 0,

whose minimizer sums to one, by sequential quadratic programming: each
step solves a nonnegative QP on the support plus the local maxima of the
certificate D(u) = (1/n) sum_i phi(y_i - u) / f_w(y_i) above one and
backtracks on phi, so the mean log-likelihood never decreases; a step
that fails is replaced by a few multiplicative steps w_u <- w_u D(u).
The kernel K[u, i] = phi(y_i - u) is held grid-major, and a density
sums only the rows of the nonzero weights.  As mixSQP scales each
likelihood row by its largest entry, observation i's column is scaled
by exp(c_i / 2), c_i its squared distance to the nearest grid point,
wherever phi would be far below any kept value at every grid point: D
and every step are unchanged, the log-likelihood moves by the known
mean of c / 2, and 1/f is finite at every start, so heavy-tailed samples
fit.  A large sample on a grid much smaller than it is first fitted
binned at the grid (Koenker & Mizera 2014).  The exact fit then ascends
on the kernel rows of a working grid W around the binned support and
prices the whole grid, as in the restricted master and pricing steps of
the constrained Newton method (Wang 2007): an upper bound on D from the
binned kernel and three moments of each bin skips the grid rows where D
cannot reach one, and D is summed exactly on the rest, in the kernel
blocks of 8 to 15 rows that ``gradient_certificate`` sums everywhere.
D's peaks join W until D meets the only stopping rule, the exact
full-grid certificate max_u D(u) <= 1 + tol on the full sample, which
bounds the log-likelihood suboptimality over the grid.
Randomized experiment helpers derive every stream from a named
(master seed, cell index) pair via numpy's SeedSequence, so reruns are
bit-for-bit identical regardless of execution order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .mixtures import LOG_SQRT_2PI, DiscretePrior, MarginalModel

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
_RADIUS = 2  # a binned fit's working rows: its support and the grid rows this near it or a priced peak
_BLOCK = 8  # grid rows per kernel block of the streamed full-grid certificate; the last takes 8 to 15
_SKIP = 1e-6  # a grid row whose bound on D stays this far below one keeps its bound
_SPREAD = 2.0  # the largest grid span times largest distance to the nearest grid point where the bound is used
_FAR = 600.0  # squared distance to the nearest grid point past which a kernel column is shifted


class NotConverged(RuntimeError):
    """Iteration budget exhausted; carries the best iterate found."""

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


@dataclass
class NpmleProblem:
    """Observations plus the support grid and stopping policy, with each observation's nearest grid point."""

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
        if self.grid.size < 2 or not np.all(np.isfinite(self.grid)) or np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be finite and strictly increasing with >= 2 points")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, not {self.tol!r}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be >= 1, not {self.max_iters!r}")
        self._nearest, self._shift = _shift(self.observations, self.grid)

    @classmethod
    def from_observations(cls, observations, grid_size=400, bounds=None, **kwargs):
        """Uniform grid of ``grid_size`` >= 2 points on ``bounds`` = (lo, hi), by default the sample range."""
        observations = np.atleast_1d(np.asarray(observations, dtype=float))
        if observations.size == 0:
            raise ValueError("need at least one observation")
        if int(grid_size) < 2:
            raise ValueError(f"grid_size must be >= 2, not {grid_size!r}")
        if bounds is None:
            lo, hi = float(observations.min()), float(observations.max())
            if lo == hi:
                lo, hi = lo - 1.0, hi + 1.0
        else:
            lo, hi = map(float, bounds)
        with np.errstate(invalid="ignore", over="ignore"):  # a width past the float range: a non-finite grid
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
    kinds of update, ``max_working_set`` is the largest number of
    columns an SQP step worked on, ``binned_steps`` counts the steps
    of the binned fit that came first (0 when the fit did not bin),
    ``pricing_passes`` the full-grid certificates (0 when the fit
    ascended on the whole grid), ``priced_rows`` the grid rows they
    summed D on exactly (the bound served the rest) and ``max_rows`` the
    largest working grid W the exact fit ascended on (m for a fit on the
    whole grid).
    """

    prior: DiscretePrior
    loglik: float
    gradient_cert: float
    iterations: int
    loglik_trace: np.ndarray = field(repr=False, default=None)
    diagnostics: dict = field(default_factory=dict)


def _shift(y, grid):
    """(each observation's nearest grid point, the exponent shift of its kernel column or None).

    Where the squared distance c_i from y_i to its nearest grid point
    passes ``_FAR``, observation i's column of every kernel is built with
    exponent -(y_i - u)^2 / 2 + c_i / 2, whose largest entry is phi(0).
    None when no column is, as for every sample gridded on its own range.
    """
    nearest = np.searchsorted(0.5 * grid[:-1] + 0.5 * grid[1:], y)  # halves: no overflow
    with np.errstate(over="ignore"):
        far = np.square(grid[nearest] - y)
    if not (far > _FAR).any():
        return nearest, None
    if np.isinf(far).any():
        raise ValueError(f"observation {y[np.isinf(far).argmax()]:.6g}: its squared distance to the grid overflows")
    return nearest, np.where(far > _FAR, 0.5 * far, 0.0)


def _kernel(y, grid, shift=None):
    """Grid-major kernel K[j, i] = phi(y_i - u_j), each column times exp(``shift``), built in place in one buffer."""
    kernel = np.subtract.outer(grid, y)
    with np.errstate(over="ignore"):  # phi of an overflowed distance is exactly 0 either way
        np.square(kernel, out=kernel)
    kernel *= -0.5
    if shift is not None:
        kernel += shift
    kernel -= LOG_SQRT_2PI
    return np.exp(kernel, out=kernel)


def _density(kernel, w):
    """f = w @ K summed over the nonzero weights only: a fit has few."""
    nz = w.nonzero()[0]
    return w[nz] @ kernel.take(nz, axis=0)


class _Sample:
    """The observations' grid-major kernel, with the mean log f and its derivatives in the weights."""

    def __init__(self, kernel):
        self.kernel = kernel

    def loglik(self, fvals):
        """Mean log f: np.mean's arithmetic (add.reduce, then divide) without its per-call overhead."""
        return float(np.log(fvals).sum() / fvals.size)

    def certificate(self, fvals):
        # D = K (1/f) / n, one pass over the grid-major kernel; the n x m quotient never exists
        return self.kernel @ (1.0 / fvals) / fvals.size

    def hessian(self, rows, fvals):
        """The Hessian of -mean log f in the weights of the kernel ``rows``."""
        scaled = rows / fvals
        return scaled @ scaled.T / fvals.size


class _CountedSample(_Sample):
    """Observations with counts, each weighing in as that many copies of itself would."""

    def __init__(self, kernel, counts):
        super().__init__(kernel)
        self.counts, self.total, self.root = counts, counts.sum(), np.sqrt(counts)

    def loglik(self, fvals):
        return float(np.log(fvals) @ self.counts / self.total)

    def certificate(self, fvals):
        return self.kernel @ (self.counts / fvals) / self.total

    def hessian(self, rows, fvals):
        scaled = rows * (self.root / fvals)
        return scaled @ scaled.T / self.total


def _start(grid):
    """The uniform start on index-spaced grid atoms, both ends among them, at most 8 apart, else on all.

    On the kernel columns of ``_shift`` its 1/f is then finite at every observation.
    """
    count = max(_START_ATOMS, math.ceil((grid[-1] - grid[0]) / _START_SPACING) + 1)
    atoms = np.round(np.linspace(0, grid.size - 1, min(grid.size, count))).astype(int)
    if np.diff(grid[atoms]).max() > 2.0 * _START_SPACING:
        atoms = np.arange(grid.size)
    w = np.zeros(grid.size)
    w[atoms] = 1.0
    return w / w.sum()


def _binning_pays(n, m):
    """Whether binning n observations at an m-point grid saves time, by a measured (n, m) table.

    Below 800 observations, below twice the grid size or on fewer than 50
    points, the binned fit's steps cost about what they save.
    """
    return m >= 50 and n >= max(800, 2 * m)


def solve_npmle(problem):
    """Maximize the mixture likelihood over weights on the fixed grid.

    Starts uniform on evenly spaced grid atoms (``_start``) and takes SQP
    steps, or runs of multiplicative steps, until the exact full-grid
    certificate max_u D(u) <= 1 + tol holds on the full sample.  Where
    ``_binning_pays``, the steps first fit the binned sample
    (``_binned_fit``) to the same rule on its certificate; the exact
    steps then start from its pruned weights and last QP answer on the
    kernel rows of its support and the ``_RADIUS`` grid rows on each
    side.  Each time they stop, ``_priced`` prices D over the whole
    grid through the binned fit's bound, and D's peaks above one and
    their neighbours join the rows.
    ``iterations``, the trace and the ``sqp_steps``, ``em_steps`` and
    ``max_working_set`` diagnostics count the exact steps only.  Raises
    ``NotConverged`` (with the partial solution attached) if the budget
    of ``max_iters`` exact iterations runs out first.
    """
    grid, y, shift = problem.grid, problem.observations, problem._shift
    stop_at = 1.0 + _STOP_MARGIN * problem.tol
    qp_start = np.zeros(grid.size)  # the last QP's answer on the full grid: none yet
    binning = _binning_pays(y.size, grid.size)
    w, binned_steps, binned = _binned_fit(problem, stop_at, qp_start) if binning else (_start(grid), 0, None)
    rows = _near(w > 0.0) if binning else np.ones(grid.size, dtype=bool)
    sample = _Sample(_kernel(y, grid[rows], shift))
    fvals = _density(sample.kernel, w[rows])
    trace = [sample.loglik(fvals)]
    counts = {"sqp_steps": 0, "em_steps": 0, "max_working_set": 0, "binned_steps": binned_steps,
              "pricing_passes": 0, "priced_rows": 0, "max_rows": 0}
    while True:
        w_rows, qp_rows = w[rows], qp_start[rows]
        w_rows, fvals, certificate = _ascend(sample, w_rows, fvals, stop_at, problem.max_iters, qp_rows,
                                             trace, counts)
        w[rows], qp_start[rows] = w_rows, qp_rows  # both are 0 off the rows
        if rows.all():
            break
        direction, priced = _priced(y, grid, fvals, shift, binned)
        certificate = float(direction.max())
        counts["pricing_passes"] += 1
        counts["priced_rows"] += int(priced.sum())
        new = _near(_peaks(direction)) & ~rows  # with D over stop_at, empty only if W's own D rounded under it
        if certificate <= stop_at or len(trace) >= problem.max_iters or not new.any():
            break
        rows |= new
        sample = _Sample(_kernel(y, grid[rows], shift))
    counts["max_rows"] = int(rows.sum())  # W only grows
    offset = 0.0 if shift is None else float((shift / y.size).sum())
    solution = _package_solution(grid[rows], sample, w[rows], certificate, trace, counts, offset)
    if certificate > 1.0 + problem.tol:
        raise NotConverged(
            f"certificate {certificate - 1.0:.3e} above tol {problem.tol:.1e} "
            f"after {solution.iterations} iterations",
            solution,
        )
    return solution


def _near(marked):
    """The grid rows at most ``_RADIUS`` rows from a marked one."""
    near = marked.copy()
    for shift in range(1, _RADIUS + 1):
        near[shift:] |= marked[:-shift]
        near[:-shift] |= marked[shift:]
    return near


def _peaks(direction):
    """The local maxima of the certificate above one: where new support enters."""
    edges = np.concatenate(([-np.inf], direction, [-np.inf]))
    return (direction >= np.maximum(edges[:-2], edges[2:])) & (direction > 1.0)


def _priced(y, grid, fvals, shift=None, binned=None):
    """(D on the full grid, the rows summed exactly): ``_Sample.certificate`` streamed in ``_BLOCK``-row blocks.

    Each block's kernel is built, summed as K (1/f) / n and dropped; the
    last block takes the 8 to 15 rows left (all of them below 8).  Without
    ``binned`` every block is summed: the oracle that
    ``gradient_certificate`` prices with.  With it, the blocks holding a
    row whose bound on D (``_Binned.upper``) reaches 1 - ``_SKIP`` or is
    not finite are summed first, and the rest keep their bound, below
    1 - ``_SKIP``; those rows' D is below 1 - ``_SKIP`` / 2, so once a
    summed row reaches that the maximum and the peaks above one are the
    oracle's, bit for bit.  Otherwise the rest are summed too.
    """
    n, inverse = fvals.size, 1.0 / fvals
    starts = np.arange(0, max(grid.size - _BLOCK + 1, 1), _BLOCK)
    ends = np.r_[starts[1:], grid.size]
    if binned is None or binned.factor is None:
        direction = np.full(grid.size, np.inf)  # no bound: every block is summed first
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            direction = (binned.upper(inverse) + 2.0**-1000 * inverse.sum()) / n
    hit = np.logical_or.reduceat(~(direction < 1.0 - _SKIP), starts)
    summed = np.zeros_like(hit)
    for blocks in (hit, ~hit):
        for start, end in zip(starts[blocks], ends[blocks]):
            direction[start:end] = _kernel(y, grid[start:end], shift) @ inverse / n
        summed |= blocks
        if direction.max() >= 1.0 - 0.5 * _SKIP:
            break
    return direction, np.repeat(summed, ends - starts)


def _binned_fit(problem, stop_at, qp_start):
    """The fit of the sample binned at its nearest grid points: its pruned weights, step count and ``_Binned``.

    The fit starts from ``_start``, stops by the same rule as the full one
    on the binned certificate, and leaves its last QP answer in
    ``qp_start``.
    """
    binned = _Binned(problem)
    w = _start(problem.grid)
    fvals = _density(binned.sample.kernel, w)
    trace = [binned.sample.loglik(fvals)]
    w, _, _ = _ascend(binned.sample, w, fvals, stop_at, problem.max_iters, qp_start, trace, Counter())
    w[w <= _PRUNE_WEIGHT] = 0.0
    return w / w.sum(), len(trace) - 1, binned


class _Binned:
    """The sample binned at its nearest grid points, and the upper bound on D that its kernel gives.

    Each occupied grid point g_k is one observation counted as often as
    the sample falls nearest to it, but an observation on a shifted kernel
    column is its own point: its column falls off steeply away from its
    nearest grid point, which atoms a few rows off may serve.

    ``upper`` bounds D at every grid row u from the binned kernel
    K[u, k] = phi(d), d = g_k - u.  An observation y = g_k + delta has
    phi(y - u) = phi(d) e^(-d delta) e^(-delta^2 / 2), and
    e^x <= 1 + x + x^2 e^|x| / 2 with |d delta| <= 2 h r, h half the grid's
    span and r the largest |delta|.  So with E = e^(2 h r),
    c = e^(-delta^2 / 2) / f and bin k's moments M_l = sum c delta^l,

        n D(u) <= sum_k K[u, k] (M_0 - d M_1 + E d^2 M_2 / 2)

    plus the shifted observations' exact columns, in exact arithmetic.  In
    d = (g_k - centre) - (u - centre) it is one product of K with six
    columns.  Rounding: each observation's factor 1 - d delta +
    E d^2 delta^2 / 2 is at least 0.7, and where 2 h r <= ``_SPREAD`` the
    absolute values of its expanded parts sum to at most 26 times it.  So
    the bound's rounding, like that of ``_priced``'s D, is at most a
    relative 27 (n + m) eps + 2e-12, below ``_SKIP`` / 2 for n below 10^8,
    and an entry that underflows in either moves it by less than
    2^-1000 sum(1/f) / n, which ``_priced`` adds.  A row whose bound stays
    below 1 - ``_SKIP`` thus has ``_priced``'s D below 1 - ``_SKIP`` / 2.
    Past ``_SPREAD`` the bound is not used.
    """

    def __init__(self, problem):
        grid, y, shift = problem.grid, problem.observations, problem._shift
        alone = np.zeros(y.size, dtype=bool) if shift is None else shift > 0.0
        self.alone = alone if alone.any() else None
        nearest = problem._nearest[~alone]
        bins = np.bincount(nearest, minlength=grid.size)
        occupied = bins.nonzero()[0]
        kernel, counts = _kernel(grid[occupied], grid), bins[occupied].astype(float)
        self.bin_kernel = kernel
        delta = y[~alone] - grid[nearest]
        self.column = (np.cumsum(bins > 0) - 1)[nearest]
        self.powers = np.exp(-0.5 * np.square(delta)) * np.array([np.ones_like(delta), delta, np.square(delta)])
        centre, half = 0.5 * grid[-1] + 0.5 * grid[0], float(0.5 * grid[-1] - 0.5 * grid[0])  # halves: no overflow
        self.centred, self.rows = grid[occupied] - centre, grid - centre
        spread = 2.0 * half * float(np.abs(delta).max(initial=0.0))
        self.factor = math.exp(spread) if spread <= _SPREAD else None  # E, or None: every row is priced
        if self.alone is not None:
            kernel = np.hstack([kernel, _kernel(y[alone], grid, shift[alone])])
            counts = np.r_[counts, np.ones(alone.sum())]
        self.sample = _CountedSample(kernel, counts)

    def upper(self, inverse):
        """n times the bound on D at every grid row, given 1/f; ``_priced`` adds the underflow slack."""
        binned = inverse if self.alone is None else inverse[~self.alone]
        g, u = self.centred, self.rows
        m0, m1, m2 = (np.bincount(self.column, power * binned, minlength=g.size) for power in self.powers)
        p = self.bin_kernel @ np.array([m0, g * m1, m1, g * g * m2, g * m2, m2]).T
        upper = p[:, 0] - p[:, 1] + u * p[:, 2] + 0.5 * self.factor * (p[:, 3] - 2.0 * u * p[:, 4] + u * u * p[:, 5])
        if self.alone is not None:
            upper += self.sample.kernel[:, g.size:] @ inverse[self.alone]
        return upper


def _ascend(sample, w, fvals, stop_at, max_iters, qp_start, trace, counts):
    """Ascent steps from w until the certificate is at most ``stop_at`` or the trace holds ``max_iters`` values.

    Returns (w, f, certificate); appends each step's loglik to ``trace``
    and counts it in ``counts``.  Each step is an SQP step, or one of a
    short run of multiplicative steps after one fails.
    """
    em_left = 0
    while True:
        direction = sample.certificate(fvals)
        certificate = float(direction.max())
        if certificate <= stop_at or len(trace) >= max_iters:
            return w, fvals, certificate
        step = None if em_left else _sqp_step(sample, w, fvals, direction, trace[-1], qp_start)
        if step is None:
            em_left = (em_left or _EM_CHUNK) - 1
            w *= direction
            w /= w.sum()
            fvals = _density(sample.kernel, w)
            counts["em_steps"] += 1
        else:
            w, fvals, size = step
            counts["sqp_steps"] += 1
            counts["max_working_set"] = max(counts["max_working_set"], size)
        trace.append(sample.loglik(fvals))


def _sqp_step(sample, w, fvals, direction, loglik, qp_start):
    """One SQP step on the working set; (new weights, their f, working-set size) or None.

    The QP is the second-order model of phi around w restricted to the
    support plus the certificate's local maxima above one, with a small
    ridge; the step towards its solution is backtracked (Armijo) on the
    exact phi.  The QP starts from the last QP's answer, ``qp_start`` (0
    before the first), and leaves its own there.  None when the step is
    not a descent direction, no length passes, or the passing step's f,
    summed afresh, is 0 somewhere.
    """
    work = ((w > _PRUNE_WEIGHT) | _peaks(direction)).nonzero()[0]
    k_work = sample.kernel.take(work, axis=0)
    hess = sample.hessian(k_work, fvals)
    hess.reshape(-1)[:: work.size + 1] += _RIDGE * float(hess.diagonal().max())  # diagonal view
    grad = 1.0 - direction[work]
    w_work = w[work]
    target = _nonnegative_qp(hess, grad - hess @ w_work, qp_start[work])
    qp_start.fill(0.0)
    qp_start[work] = target
    step = target - w_work
    slope = float(grad @ step)
    if not slope < 0.0:
        return None
    k_step = step @ k_work
    mass = float(step.sum())
    alpha = 1.0
    for _ in range(_HALVINGS):
        f_try = fvals + alpha * k_step
        if f_try.min() > 0.0:  # a NaN fails too
            change = loglik - sample.loglik(f_try) + alpha * mass
            if change <= _ARMIJO * alpha * slope:
                x = w.copy()
                x[work] = (1.0 - alpha) * w_work + alpha * target
                x /= x.sum()
                f_x = _density(sample.kernel, x)  # f + alpha K step can keep a rounding residue where f_x is 0
                return (x, f_x, work.size) if f_x.min() > 0.0 else None
        alpha *= 0.5
    return None


def _nonnegative_qp(hess, lin, x):
    """Primal active-set solve of min x'Hx/2 + lin'x over x >= 0.

    Starts from the feasible x with its positive coordinates free.  Each
    pass minimizes over the free coordinates with the rest held at zero;
    if that point leaves the orthant the pass stops at the first blocking
    coordinate and fixes it, otherwise the fixed coordinate with the most
    negative multiplier is freed (one per pass).  The result is the last
    solve, over the final free set.  The ridge makes the QP strictly
    convex, so (barring a degenerate KKT point, a zero coordinate with a
    zero multiplier) that set is the solution's support from any start,
    and a warm start returns the cold start's x bit for bit.
    """
    free = x > 0.0
    for _ in range(2 * x.size + 10):
        idx = free.nonzero()[0]
        target = np.zeros(x.size)
        if idx.size:
            target[idx] = solved = np.linalg.solve(hess.take(idx, axis=0).take(idx, axis=1), -lin[idx])
            negative = solved < 0.0
            if negative.any():
                blocked = idx[negative]
                ratios = x[blocked] / (x[blocked] - solved[negative])
                k = ratios.argmin()
                x = np.maximum(x + ratios[k] * (target - x), 0.0)
                x[blocked[k]] = 0.0
                free[blocked[k]] = False
                continue
        x = target
        multipliers = hess @ x + lin
        multipliers[free] = np.inf
        j = multipliers.argmin()
        if not multipliers[j] < -_QP_TOL:
            break
        free[j] = True
    return x


def _package_solution(grid, sample, w, certificate, trace, counts, offset):
    keep = w > _PRUNE_WEIGHT
    if not np.any(keep):
        keep = w == w.max()
    atoms = grid[keep]
    weights = w[keep] / w[keep].sum()
    prior = DiscretePrior(atoms, weights)
    fvals = weights @ sample.kernel[keep]
    return NpmleSolution(
        prior=prior,
        loglik=sample.loglik(fvals) - offset,
        gradient_cert=certificate,
        iterations=len(trace),
        loglik_trace=np.asarray(trace) - offset,
        diagnostics=counts,
    )


def gradient_certificate(solution, problem):
    """Recompute max_u D(u) over the problem grid for a fitted prior: f from its atoms, D by ``_priced``.

    f is the prior's ``MarginalModel`` density.  On a shifted kernel column
    it is summed relative to the observation's nearest grid point g, each
    atom's log term taking -(u - g)(u + g - 2y) / 2 in place of
    -(y - u)^2 / 2 + (y - g)^2 / 2, so it is as exact as the fit's own f.
    """
    y, grid, shift = problem.observations, problem.grid, problem._shift
    fvals = np.exp(MarginalModel(solution.prior).log_density(y))
    if shift is not None:
        far = shift > 0.0
        near, u = grid[problem._nearest[far]][:, None], solution.prior.atoms
        terms = -0.5 * (u - near) * ((u - y[far, None]) + (near - y[far, None])) - LOG_SQRT_2PI
        fvals[far] = np.exp(terms) @ solution.prior.weights
    return float(_priced(y, grid, fvals, shift)[0].max())


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


def empirical_regret_experiment(true_prior, cells, **fit_options):
    """Fit the grid NPMLE on the synthetic sample of each (n, seed) in ``cells`` and score every fit.

    ``fit_options`` (grid_size, bounds, max_iters, tol) go
    to ``NpmleProblem.from_observations``.  Returns one ``(record,
    solution)`` per cell: a flat record with the squared Hellinger
    distance and regret of the fitted prior against the truth, the fit's
    loglik and certificate, and the seed that generated the sample, whose
    keys, in order, are the columns of the synthetic ``npmle`` CSV; and
    the ``NpmleSolution``, whose solver counts the CLI sums into its
    sidecar.  All fits are scored in one sweep
    (``metrics.compute_metric_reports``), each bit for bit as
    ``metrics.pair_integrals`` would score it alone.  Solver errors
    propagate.
    """
    solutions = [solve_npmle(NpmleProblem.from_observations(
        sample_observations(true_prior, n, cell_rng(seed, n)), **fit_options)) for n, seed in cells]
    scores = metrics.compute_metric_reports([(true_prior, s.prior) for s in solutions], ("hellinger_sq", "regret"))
    return [({"n": int(n), "seed": int(seed), "eps_sq": score["hellinger_sq"], "regret": score["regret"],
              "loglik": solution.loglik, "cert": solution.gradient_cert}, solution)
            for (n, seed), solution, score in zip(cells, solutions, scores)]
