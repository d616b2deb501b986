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
  equals its own ``integrate_line`` bit for bit.  The state of all the
  integrals lives in arrays: one queue of panel requests, one pool of
  live panels, and each integral's sums.  Each step evaluates the
  requests at the front of the queue in one call and applies the rule
  once, to every integral whose first pass or split round that call
  completes; ``integrate_line`` is the case of one integral.
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
    if not np.isfinite(err).all():
        a, b = ends[np.argmin(np.isfinite(err).all(axis=1))]
        raise ToleranceNotMet(
            f"integrand produced non-finite values on [{a:.6g}, {b:.6g}]",
            estimate=np.full(shape, math.nan)[()],
            error_bound=np.full(shape, math.inf)[()],
        )
    return kron, err, shape


def _first_passes(specs):
    """Every first pass, [-R, R] cut into 8 to 64 equal panels: the ends of all, and each pass's panels.

    Panel t of integral i is row ``last[i] + 1 - count[i] + t`` of the ends (panels + 1, 2), whose
    last row is spare.
    """
    radius = np.array([spec.truncation_radius for spec in specs])
    count = np.minimum(64.0, np.maximum(8.0, np.ceil(radius))).astype(np.intp)
    last = count.cumsum() - 1
    ends = np.empty((last[-1] + 2, 2))
    for n in set(count.tolist()):
        group = (count == n).nonzero()[0]
        edges = np.linspace(-radius[group], radius[group], n + 1)  # (n + 1, integrals of the group)
        rows = (last[group] - n + 1 + np.arange(n)[:, None]).ravel()
        ends[rows, 0], ends[rows, 1] = edges[:-1].ravel(), edges[1:].ravel()
    return ends, last, count


def _runs(starts, lengths):
    """The indices of the runs starts[j], ..., starts[j] + lengths[j] - 1, one after another."""
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return shift + np.arange(len(shift))


def _row_sums(rows, lengths, k):
    """The sum of each run of ``rows``, bit for bit as numpy sums each run's own (panels, k) arrays.

    ``rows`` holds the values and errors of k components side by side, and
    the runs follow one another with the given lengths, each at least 1.
    numpy adds the rows of a (panels, k) array one after another when
    k >= 2, so one (runs, panels, 2k) buffer padded with -0.0, which adds
    nothing, sums every run in one call.  A single column numpy sums
    pairwise, so then each run's column is summed on its own.
    """
    if k == 1:
        bounds = np.cumsum(lengths).tolist()
        return np.array([[rows[a:b, 0].sum(), rows[a:b, 1].sum()] for a, b in zip([0] + bounds, bounds)])
    if len(lengths) == 1:
        return rows.sum(axis=0, keepdims=True)
    padded = np.full((len(lengths), int(lengths.max()), 2 * k), -0.0)
    run = np.repeat(np.arange(len(lengths)), lengths)
    padded[run, np.arange(len(run)) - (np.cumsum(lengths) - lengths)[run]] = rows
    return padded.sum(axis=1)


# added to a first-pass request (integral, row, panels): the request of the panel after it
_NEXT_PANEL = np.array([0, 1, 0])


def integrate_lines(f, specs):
    """Integrate one vectorized integrand family over many windows in lock step.

    Integral i is exactly ``integrate_line`` of y -> f(y, i) with
    ``specs[i]``: its own window, first pass, per-component targets,
    refinement batches and panel budget.  Each integral has one request
    waiting at a time in one queue: its next first-pass panel, or the
    children of its split round.  Each step evaluates requests from the
    front of the queue together in one call ``f(y, which)``, where
    ``which[j]`` is the index of the integral that node y[j] belongs to:
    as many whole requests as fit in 2 * 128 panels and at least one, so
    a single integral makes exactly the calls it would make alone.  Each
    integral's sums and error sums are a row of one array, and its live
    panels, in creation order, rows of one pool.  A step scatters the K15
    values and errors it gets into these, applies the rule once to all
    the integrals whose first pass or round it completes, and queues
    their next requests in the order of the step.  Rows of ``f`` must not
    depend on which other nodes share the call; then every result equals
    its ``integrate_line`` bit for bit.  Returns a list with one float or
    array per spec.  The first integral to fail raises its
    ``ToleranceNotMet``.
    """
    results = [None] * len(specs)
    if not specs:
        return results
    first, last, live = _first_passes(specs)  # live: each integral's panels, once its first pass is complete
    abs_tol, rel_tol = (np.array([[getattr(s, name)] for s in specs]) for name in ("abs_tol", "rel_tol"))
    max_panels = np.array([spec.max_panels for spec in specs])
    ended = np.zeros(len(first), dtype=bool)  # a request for this first-pass row (-1: a round) is due
    ended[last], ended[-1] = True, True
    # the queue: each request's integral, first-pass row (-1 for a round) and panels, and all their ends
    queue = np.ones((len(specs), 3), dtype=np.intp)
    queue[:, 0], queue[:, 1] = np.arange(len(specs)), last + 1 - live
    waiting = first[queue[:, 1]]
    firsts = None  # K15 values and errors side by side, row for row of ``first``

    def result(x):
        return float(x[0]) if shape == () else x.copy()

    while len(queue):
        reach = queue[:, 2].cumsum()
        take = max(1, int(reach.searchsorted(_CALL_PANELS, "right")))
        panels = int(reach[take - 1])
        step, ends, queue, waiting = queue[:take], waiting[:panels], queue[take:], waiting[panels:]
        values, errors, shape = _panel_estimates(f(_nodes(ends), step[:, 0].repeat(15 * step[:, 2])), ends)
        k = values.shape[1]
        estimates = np.concatenate((values, errors), axis=1)
        if firsts is None:
            firsts, sums = np.empty((len(first), 2 * k)), np.full((len(specs), 2 * k), -0.0)
            pool = first[:0], estimates[:0], step[:0, 0]  # the ends, estimates and integral of live panels
        rows = step[:, 1]
        if not ended[rows].any():  # first-pass panels only, one row each, none the last of its pass
            firsts[rows] = estimates
            queue = np.concatenate((queue, step + _NEXT_PANEL))
            waiting = np.concatenate((waiting, first[rows + 1]))
            continue
        start = reach[:take] - step[:, 2]  # each request's first row in this step
        firsts[rows] = estimates[start]  # a round's row -1 is the spare last row
        going = ~ended[rows]  # first passes with panels to go
        due = (~going).nonzero()[0]
        integrals, lengths, begun = step[due, 0], step[due, 2], rows[due] >= 0  # begun: first pass complete
        if len(due) < take or begun.any():  # each due integral's new panels, one run each, in step order
            lengths = np.where(begun, live[integrals], lengths)
            new = _runs(np.where(begun, rows[due] + 1 - lengths, len(first) + start[due]), lengths)
            ends, estimates = np.concatenate((first, ends))[new], np.concatenate((firsts, estimates))[new]
        state = sums[integrals] + _row_sums(estimates, lengths, k)  # -0.0 + x is x: a first sum
        sums[integrals] = state
        target = np.maximum(abs_tol[integrals], rel_tol[integrals] * abs(state[:, :k]))
        over = state[:, k:] > target
        split = over.any(axis=1)
        keep, requests, waiting_next = None, step[:0], ends[:0]  # pool rows kept; the next requests
        if not split.all():
            for d in (~split).nonzero()[0].tolist():
                results[integrals[d]] = result(state[d, :k])
            if not (split | begun).all():  # integrals that finish with panels in the pool leave it
                done = np.zeros(len(specs), dtype=bool)
                done[integrals[~split & ~begun]] = True
                keep = ~done[pool[2]]
        if len(due) < take:  # first passes still going: their next panels
            requests = step[going] + _NEXT_PANEL
            waiting_next = first[requests[:, 1]]
        if split.any():
            splitting = integrals[split]
            if not split.all():
                grow = split.repeat(lengths)
                ends, estimates, lengths = ends[grow], estimates[grow], lengths[split]
                state, over, target = state[split], over[split], target[split]
            err = state[:, k:]
            with np.errstate(divide="ignore", invalid="ignore"):
                component = np.where(over, err / target, 0.0).argmax(axis=1)
            full = (live[splitting] >= max_panels[splitting]).nonzero()[0]
            if len(full):
                d, c = full[0], component[full[0]]
                spec = specs[splitting[d]]
                raise ToleranceNotMet(
                    f"error bound {err[d, c]:.3e} against target {target[d, c]:.3e} in component {c} after "
                    f"{live[splitting[d]]} panels (target abs {spec.abs_tol:.1e} / rel {spec.rel_tol:.1e})",
                    estimate=result(state[d, :k]), error_bound=result(err[d]))
            pool = [np.concatenate(pair) for pair in zip(pool, (ends, estimates, splitting.repeat(lengths)))]
            keep = np.ones(len(pool[2]), dtype=bool) if keep is None else np.concatenate(
                (keep, np.ones(len(ends), dtype=bool)))
            # each one's live panels, worst c-error first and oldest first among equals, as one run
            rank = np.full(len(specs), -1)
            rank[splitting] = np.arange(len(splitting))
            mine = rank[pool[2]]
            held = (mine >= 0).nonzero()[0]
            key = pool[1][held, k + component[mine[held]]]
            order = np.lexsort((-key, mine[held]))
            held, key = held[order], key[order]
            # the shortest prefix whose errors sum past E_c - target_c / 8, at most 128 panels, splits
            count = live[splitting]
            head = count.cumsum() - count
            # (past its own panels a row reads others' errors, all >= 0: its cumsum only grows there)
            width = np.arange(min(_BATCH_PANELS, int(count.max())))
            prefix = key[np.minimum(head[:, None] + width, len(key) - 1)].cumsum(axis=1)
            pick = np.arange(len(splitting)), component
            reach = (prefix <= (err[pick] - target[pick] / 8.0)[:, None]).sum(axis=1)
            room = np.minimum(_BATCH_PANELS, max_panels[splitting] - count)
            count = np.minimum(np.minimum(reach + 1, count), room)
            batch = held[_runs(head, count)]
            sums[splitting] = state - _row_sums(pool[1][batch], count, k)
            children = pool[0][batch].repeat(2, axis=0)  # left, right child of each
            children[0::2, 1] = children[1::2, 0] = 0.5 * (children[0::2, 0] + children[0::2, 1])
            live[splitting] += count
            keep[batch] = False
            rounds = np.empty((len(splitting), 3), dtype=np.intp)
            rounds[:, 0], rounds[:, 1], rounds[:, 2] = splitting, -1, 2 * count
            if len(requests):  # merged with the first passes still going, in the order of the step
                entry = np.concatenate((going.nonzero()[0], due[split]))
                place = entry.repeat(np.concatenate((requests[:, 2], rounds[:, 2]))).argsort(kind="stable")
                requests = np.concatenate((requests, rounds))[entry.argsort()]
                waiting_next = np.concatenate((waiting_next, children))[place]
            else:
                requests, waiting_next = rounds, children
        if keep is not None:
            pool = [column[keep] for column in pool]
        queue, waiting = np.concatenate((queue, requests)), np.concatenate((waiting, waiting_next))
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
