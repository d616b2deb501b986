"""One-dimensional quadrature backends.

Three rules cover every integral in this package; the first two live
here:

* ``chebyshev_rule``: the m-point Gauss rule for the arcsine density
  1/(pi*sqrt(1-x^2)) on [-1, 1].  Nodes are the Chebyshev points
  cos((2j-1)pi/(2m)), every weight equals 1/m, and the rule reproduces
  arcsine moments exactly through degree 2m-1.  Its nodes and weights
  are the discretized arcsine priors of the ``families`` lower bound.
* ``integrate_line``: globally adaptive Gauss-Kronrod (G7, K15) panels on
  a finite window [-R, R] for a scalar or vector-valued integrand.  Each
  component c has its own summed |K15 - G7| error estimate E_c and
  target max(abs_tol, rel_tol * |I_c|).  Until every component meets its
  target or the panel budget runs out, each round bisects a batch of the
  worst panels of the component furthest over its target: the fewest
  whose errors sum past E_c - target_c / 8, as in ``quad_vec``, and
  evaluates all their children in one integrand call.  Every real-line
  integral of ``metrics`` and ``families`` is one such pass.
  ``integrate_lines`` runs many such integrals in lock step, each with
  its own spec, so that they share every integrand call; each result
  equals its own ``integrate_line`` bit for bit, and ``integrate_line``
  is the case of one integral.  A call takes every waiting panel of the
  first passes' one schedule, laid out once, then whole split rounds,
  oldest first, while they fit, and applies the rule once to all it ends.
* ``orthopoly._composite_legendre``: a fixed composite Gauss-Legendre
  grid on a window.  The Stieltjes inner products of the orthopolynomial
  recurrence are sums over it, and ``orthopoly`` caches the basis on its
  nodes.

Integrands handed to ``integrate_line`` map an array of nodes to an
array of shape (nodes,) or, for k integrals that share one pass and so
one evaluation of whatever state they have in common, (nodes, k).
``integrate_lines`` also passes the index of each node's integral.  The
error control per component follows QUADPACK (Piessens et al. 1983) and
``scipy.integrate.quad_vec``.  Window radii for Gaussian-mixture
integrands come from ``gaussian_tail_radius``, which converts a support
bound into a truncation radius with a provable tail estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegrationSpec",
    "ToleranceNotMet",
    "chebyshev_rule",
    "arcsine_moment",
    "integrate_line",
    "integrate_lines",
    "gaussian_tail_radius",
]


class ToleranceNotMet(RuntimeError):
    """Adaptive integration could not meet its tolerance.

    Raised when the panel budget runs out or the integrand returns a
    non-finite value.  Carries the best available estimate and its error
    bound (arrays with one entry per component for a vector integrand)
    so callers can decide whether the partial answer is usable.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class IntegrationSpec:
    """Tolerance and truncation policy for ``integrate_line``."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-9
    truncation_radius: float = 12.0
    max_panels: int = 20000

    def __post_init__(self):
        if not (self.abs_tol >= 0.0 and self.rel_tol >= 0.0):
            raise ValueError("tolerances must be nonnegative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("at least one tolerance must be positive")
        if not (self.truncation_radius > 0.0 and math.isfinite(self.truncation_radius)):
            raise ValueError("truncation_radius must be finite and positive")
        if self.max_panels < 2:
            raise ValueError("max_panels must be at least 2")


def chebyshev_rule(m):
    """m-point Gauss rule for the arcsine measure on [-1, 1]: (nodes, weights).

    The nodes increase.  They are built from the upper half circle and
    mirrored so the rule is exactly symmetric in floating point (for odd
    m the middle node is exactly 0.0).
    """
    if m < 1:
        raise ValueError("need at least one node")
    m = int(m)
    x = np.empty(m)
    for j in range(1, m // 2 + 1):
        c = math.cos((2 * j - 1) * math.pi / (2 * m))
        x[j - 1] = c
        x[m - j] = -c
    if m % 2 == 1:
        x[m // 2] = 0.0
    order = np.argsort(x)
    return x[order], np.full(m, 1.0 / m)


def arcsine_moment(j):
    """j-th moment of the arcsine law on [-1, 1].

    Odd moments vanish; moment 2r equals binom(2r, r) / 4^r.  Evaluated
    in exact integer arithmetic and rounded once at the end.
    """
    j = int(j)
    if j < 0:
        raise ValueError("moment order must be nonnegative")
    if j % 2 == 1:
        return 0.0
    r = j // 2
    return math.comb(2 * r, r) / 4**r


# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1]
# (the classic QUADPACK pair).  Positive half of the node set; the Gauss
# nodes are the odd-indexed entries.
_XGK = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.02293532201052922,
        0.06309209262997855,
        0.10479001032225018,
        0.14065325971552592,
        0.16900472663926790,
        0.19035057806478541,
        0.20443294007529889,
        0.20948214108472783,
    ]
)
_WG = np.array(
    [
        0.12948496616886969,
        0.27970539148927664,
        0.38183005050511894,
        0.41795918367346938,
    ]
)

_KRONROD_X = np.concatenate((-_XGK[:-1], _XGK[::-1]))  # 15 ascending nodes
_KRONROD_W = np.concatenate((_WGK[:-1], _WGK[::-1]))
_GAUSS_W = np.zeros(15)
_GAUSS_W[1:-1:2] = np.concatenate((_WG[:-1], _WG[::-1]))


# Panels split per refinement round at most (scipy's quad_vec parallel_count).
_BATCH_PANELS = 128
# Panels evaluated in one lock-step integrand call at most: one integral's round may need this many.
_CALL_PANELS = 2 * _BATCH_PANELS


def _nodes(ends):
    """The 15 Kronrod nodes of each panel [a_i, b_i] = ends[i], panel by panel."""
    a, b = ends[:, :1], ends[:, 1:]
    return (0.5 * (a + b) + 0.5 * (b - a) * _KRONROD_X).ravel()


def _panel_estimates(fx, ends):
    """K15 values and |K15 - G7| error estimates from the integrand values ``fx`` at ``_nodes(ends)``.

    Returns values and errors of shape (panels, k) and ``shape``, the shape
    of one integral: () for a scalar integrand, (k,) for k components.
    """
    fx = np.asarray(fx, dtype=float)
    shape = fx.shape[1:]
    fx = fx.reshape(len(ends), 15, -1)
    half = 0.5 * (ends[:, 1:] - ends[:, :1])
    kron = half * (_KRONROD_W @ fx)
    err = abs(kron - half * (_GAUSS_W @ fx))
    if not np.maximum.reduce(err, axis=None) < math.inf:  # a NaN compares false too
        a, b = ends[np.argmin(np.isfinite(err).all(axis=1))]
        raise ToleranceNotMet(
            f"integrand produced non-finite values on [{a:.6g}, {b:.6g}]",
            estimate=np.full(shape, math.nan)[()],
            error_bound=np.full(shape, math.inf)[()],
        )
    return kron, err, shape


def _first_passes(specs):
    """Every first pass, [-R, R] cut into 8 to 64 equal panels, panel t of each before panel t + 1 of any.

    Returns the panels' ends and integrals, then per pass, in the order they end, the position of its last
    panel (``last``), a row of ``finals`` (its integral, its panel count twice) and its panels (``rows``).
    """
    radius = np.array([spec.truncation_radius for spec in specs])
    count = np.minimum(64.0, np.maximum(8.0, np.ceil(radius))).astype(np.intp)
    grid = count > np.arange(count.max())[:, None]  # (t, integral): the integral has a panel t
    position = grid.ravel().cumsum().reshape(grid.shape) - 1
    ends = np.empty((int(count.sum()), 2))
    for n in set(count.tolist()):
        group = (count == n).nonzero()[0]
        edges = np.linspace(-radius[group], radius[group], n + 1)  # (n + 1, integrals of the group)
        ends[position[:n, group], 0], ends[position[:n, group], 1] = edges[:-1], edges[1:]
    last = position[count - 1, np.arange(len(specs))]
    done = last.argsort()
    finals = np.stack((done, count[done], count[done]), axis=1)
    return ends, grid.nonzero()[1], last[done], finals, position[:, done].T[grid[:, done].T]


def _runs(starts, lengths):
    """The indices of the runs starts[j], ..., starts[j] + lengths[j] - 1, one after another."""
    if len(lengths) == 1:
        return np.arange(starts[0], starts[0] + lengths[0])
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return shift + np.arange(len(shift))


def _row_sums(rows, lengths, k):
    """The sum of each run of ``rows``, bit for bit as numpy sums each run's own (panels, k) arrays.

    ``rows`` holds the values and errors of k components side by side, and the runs of the given
    lengths, each at least 1, follow one another.  numpy adds the rows of a (panels, k) array in order
    when k >= 2, so one (runs, panels, 2k) buffer padded with zeros sums every run in one call.  numpy
    starts every sum at +0.0, so no sum is -0.0, even of K15 values of -0.0, and a pad of either zero
    adds nothing.  A single column numpy sums pairwise, so each run's column is summed on its own.
    """
    if k == 1:
        bounds = np.cumsum(lengths).tolist()
        return np.array([[rows[a:b, 0].sum(), rows[a:b, 1].sum()] for a, b in zip([0] + bounds, bounds)])
    if len(lengths) == 1:
        return np.add.reduce(rows, axis=0, keepdims=True)
    padded = np.zeros((len(lengths), int(lengths.max()), 2 * k))
    run = np.repeat(np.arange(len(lengths)), lengths)
    padded[run, np.arange(len(run)) - (np.cumsum(lengths) - lengths)[run]] = rows
    return padded.sum(axis=1)


def integrate_lines(f, specs):
    """Integrate one vectorized integrand family over many windows in lock step.

    Integral i is exactly ``integrate_line`` of y -> f(y, i) with
    ``specs[i]``: its own window, first pass, per-component targets,
    refinement batches and panel budget.  Each integral has one request
    waiting at a time: its next first-pass panel, or the children of its
    split round.  A step evaluates every waiting first-pass panel (at most
    2 * 128), then whole rounds, oldest first, while they fit in 2 * 128
    panels, in one call ``f(y, which)``, where ``which[j]`` is the index of
    the integral that node y[j] belongs to, so a single integral makes
    exactly the calls it would make alone.

    The first passes take turns round robin, so the waiting first-pass
    panels are always the next ones of one schedule, laid out once with
    its nodes, and a step of first-pass panels alone is a slice.  A panel
    is one row of ends, K15 values, errors and integral; the live panels
    past the first passes are one pool, and each integral's sums and
    tolerances one row.  A step applies the rule once to all the integrals
    whose pass or round it completes.  If rows of ``f`` do not depend on
    which nodes share the call and ``f`` does not write to ``y``, every
    result equals its ``integrate_line`` bit for bit.  Returns a list with
    one float or array per spec; the first integral to fail raises its
    ``ToleranceNotMet``.
    """
    results = [None] * len(specs)
    if not specs:
        return results
    ends, owner, last, finals, rows = _first_passes(specs)
    nodes, table, kids = _nodes(ends), ends, ends[:0]
    bounds = [0] + finals[:, 1].cumsum().tolist()  # pass i's panels are rows[bounds[i]:bounds[i + 1]]
    max_panels = np.array([spec.max_panels for spec in specs])
    rounds = finals[:0]  # waiting rounds, oldest first: integral, new and live panels; ``kids`` their rows
    p = c = 0  # the next first-pass panel, the passes complete

    def result(x):
        return float(x[0]) if shape == () else x.copy()

    while p < len(ends) or len(rounds):
        nf = min(len(specs) - c, _CALL_PANELS)  # the first-pass panels in the step
        j, s = len(rounds), len(kids)  # the rounds in the step and their panels
        if nf + s > _CALL_PANELS:  # not every round: as many whole ones as fit
            size = rounds[:, 1].cumsum()
            j = int(size.searchsorted(_CALL_PANELS - nf, "right"))
            s = int(size[j - 1]) if j else 0
        if not j:  # first-pass panels only: a slice of the schedule
            step, y, which = table[p:p + nf], nodes[15 * p:15 * (p + nf)], owner[p:p + nf].repeat(15)
        else:
            step = np.concatenate((table[p:p + nf], kids[:s])) if nf else kids[:s]
            y, which = _nodes(step[:, :2]), step[:, -1].astype(np.intp).repeat(15)
        values, errors, shape = _panel_estimates(f(y, which), step[:, :2])
        if not p:  # the first call: now the rows have their width; a row of sums ends in the tolerances
            k = values.shape[1]
            table = np.concatenate((ends, np.empty((len(ends), 2 * k)), owner[:, None]), axis=1)
            step, pool, kids = table[:nf], table[:0], table[:0]
            sums = np.hstack((np.zeros((len(specs), 2 * k)), [[s.abs_tol, s.rel_tol] for s in specs]))
        step[:, 2:2 + k], step[:, 2 + k:-1] = values, errors
        if j and nf:
            table[p:p + nf] = step[:nf]
        p, c0, c = p + nf, c, (int(last.searchsorted(p + nf)) if nf else c)
        if c == c0 and not j:
            continue
        due, new = rounds[:j], step[nf:]  # the integrals due and their new rows, in step order
        rounds, kids = rounds[j:], kids[s:]
        if c > c0:
            due = np.concatenate((finals[c0:c], due))
            new = np.concatenate((table[rows[bounds[c0]:bounds[c]]], new))
            if c == len(specs):  # every first pass is done: free the schedule
                nodes = table = None
        integrals, lengths, panels = due.T
        state = sums[integrals]
        state[:, :-2] += _row_sums(new[:, 2:-1], lengths, k)
        target = np.maximum(state[:, -2:-1], state[:, -1:] * abs(state[:, :k]))
        over = state[:, k:-2] > target
        split = np.logical_or.reduce(over, axis=1)
        if not np.logical_and.reduce(split):
            for d in (~split).nonzero()[0].tolist():
                results[integrals[d]] = result(state[d, :k])
            pool = pool[(pool[:, -1:] != integrals[~split]).all(axis=1)]  # finished rounds leave it
            new = new[split.repeat(lengths)]
            integrals, lengths, panels, state, over, target = (
                x[split] for x in (integrals, lengths, panels, state, over, target))
            if not len(integrals):
                continue
        err = state[:, k:-2]  # the component furthest over its target; a target of 0 puts its component first
        component = np.divide(err, target, out=np.where(over, np.inf, 0.0), where=over & (target > 0))
        component = component.argmax(axis=1)
        room = max_panels[integrals] - panels
        full = (room <= 0).nonzero()[0]
        if len(full):
            d, col = full[0], component[full[0]]
            raise ToleranceNotMet(
                f"error bound {err[d, col]:.3e} against target {target[d, col]:.3e} in component {col} after "
                f"{panels[d]} panels (target abs {state[d, -2]:.1e} / rel {state[d, -1]:.1e})",
                estimate=result(state[d, :k]), error_bound=result(err[d]))
        pool = np.concatenate((pool, new))
        # each one's live panels, worst c-error first and oldest first among equals, as one run
        rank, ids = np.full(len(specs), -1), np.arange(len(integrals))
        rank[integrals] = ids
        mine = rank[pool[:, -1].astype(np.intp)]
        key = pool[np.arange(len(pool)), 2 + k + component[mine]]  # others' rows read some column
        order = np.lexsort((-key, mine))[len(pool) - int(np.add.reduce(panels)):]
        # the shortest prefix whose errors sum past E_c - target_c / 8, at most 128 panels, splits; past its
        # own panels a row reads others' errors, all >= 0: its cumsum only grows there
        head, width = panels.cumsum() - panels, np.arange(min(_BATCH_PANELS - 1, int(panels.max())))
        prefix = key[order[np.minimum(head[:, None] + width, len(order) - 1)]].cumsum(axis=1)
        reach = np.add.reduce(prefix <= (err - target / 8.0)[ids, component][:, None], axis=1)
        taken = np.minimum(reach + 1, np.minimum(panels, room))  # at most 128
        picked = order[_runs(head, taken)]
        batch = pool[picked]
        state[:, :-2] -= _row_sums(batch[:, 2:-1], taken, k)
        sums[integrals] = state
        keep = np.ones(len(pool), dtype=bool)
        keep[picked] = False
        pool = pool[keep]
        kid = batch.repeat(2, axis=0)  # left, right child of each
        kid[0::2, 1] = kid[1::2, 0] = 0.5 * (kid[0::2, 0] + kid[0::2, 1])
        rounds = np.concatenate((rounds, np.array((integrals, 2 * taken, panels + taken)).T))
        kids = np.concatenate((kids, kid))
    return results


def integrate_line(f, spec=IntegrationSpec()):
    """Adaptively integrate a vectorized integrand over [-R, R].

    R is ``spec.truncation_radius``.  ``f`` maps nodes to values of shape
    (nodes,) or (nodes, k); the result is a float or an array of k
    integrals.  Component c is done when its summed error estimate E_c is
    at most target_c = max(abs_tol, rel_tol * |I_c|).  The first pass
    calls ``f`` once per initial panel.  Each later round takes the
    component c furthest over its target, orders the live panels by their
    c-error (largest first, oldest first among equals) and bisects the
    shortest prefix whose errors sum past E_c - target_c / 8, at most 128
    panels, as ``scipy.integrate.quad_vec`` does; all children of a round
    go to ``f`` in one call.  Raises ``ToleranceNotMet`` when
    ``max_panels`` panels are in play and a target is still missed, or
    when the integrand returns a non-finite value.  This is the
    one-integral case of ``integrate_lines``.
    """
    return integrate_lines(lambda y, which: f(y), [spec])[0]


def gaussian_tail_radius(second_moment_bound, target_tail_mass):
    """Truncation radius for integrals against Gaussian-location mixtures.

    For any mixing distribution supported in [-M, M] with
    M = sqrt(second_moment_bound), the convolved density f = prior * phi
    satisfies

        integral over |y| > R of (1 + y^2) f(y) dy
            <= 2 A exp(-(R - M)^2 / 4),   A = ((M + 1)^2 + 2) / sqrt(2 pi),

    which follows from shifting each mixture component to the origin and
    bounding the Gaussian tail by a Chernoff-style envelope.  Solving the
    right-hand side for the requested tail mass gives R.  The result is
    nonincreasing in ``target_tail_mass``.
    """
    if not target_tail_mass > 0.0:
        raise ValueError("target_tail_mass must be positive")
    if second_moment_bound < 0.0:
        raise ValueError("second_moment_bound must be nonnegative")
    m = math.sqrt(second_moment_bound)
    amp = 2.0 * ((m + 1.0) ** 2 + 2.0) / math.sqrt(2.0 * math.pi)
    ratio = amp / target_tail_mass
    t = 2.0 * math.sqrt(math.log(ratio)) if ratio > 1.0 else 1.0
    return m + max(t, 1.0)
