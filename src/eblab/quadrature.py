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
  equals its own ``integrate_line`` bit for bit.  This driver runs each
  integral's first pass itself, one panel per request, as
  ``integrate_line`` documents it.  The split rounds are written once,
  as a generator (``_refinement``) that starts from a complete first
  pass, yields the children each round needs and is sent their
  estimates: one per integral, resumed once when its first pass ends and
  once per round.  ``integrate_line`` is the one-integral case.
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


def _first_pass(spec):
    """The ends (n_init, 2) of the first-pass panels: [-R, R] cut into 8 to 64 equal panels."""
    radius = spec.truncation_radius
    n_init = int(min(64.0, max(8.0, math.ceil(radius))))
    edges = np.linspace(-radius, radius, n_init + 1)
    return np.stack([edges[:-1], edges[1:]], axis=1)


def _refinement(spec, ends, values, errors, shape):
    """The split rounds of ``integrate_line``'s rule for one integral, with the integrand left out.

    Starts from the complete first pass: the panel ends (n_init, 2), their
    K15 values and error estimates, and the integral's shape, as
    ``_panel_estimates`` gives them.  ``ends``, ``values`` and ``errors``
    then hold the live panels in creation order: a split panel is dropped
    and its children appended.  A generator: each round it yields the
    ends of the children it needs and is sent back their values, errors
    and shape.  It returns the integral once every component meets its
    target and raises ``ToleranceNotMet`` when the panel budget runs out
    first.
    """
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
        batch = order[: min(reach + 1, _BATCH_PANELS, spec.max_panels - len(ends))]
        total -= values[batch].sum(axis=0)
        err -= errors[batch].sum(axis=0)
        a, b = ends[batch].T
        mid = 0.5 * (a + b)
        children = np.stack([a, mid, mid, b], axis=1).reshape(-1, 2)  # left, right child
        child_values, child_errors, _ = yield children
        total += child_values.sum(axis=0)
        err += child_errors.sum(axis=0)
        live = np.ones(len(ends), dtype=bool)
        live[batch] = False
        ends, values, errors = (np.concatenate((old[live], new)) for old, new in
                                ((ends, children), (values, child_values), (errors, child_errors)))


def integrate_lines(f, specs):
    """Integrate one vectorized integrand family over many windows in lock step.

    Integral i is exactly ``integrate_line`` of y -> f(y, i) with
    ``specs[i]``: its own window, first pass, per-component targets,
    refinement batches and panel budget.  Each step evaluates the waiting
    panel requests together in one call ``f(y, which)``, where
    ``which[j]`` is the index of the integral that node y[j] belongs to:
    the requests in order, as many whole ones as fit in 2 * 128 panels
    and at least one, so a single integral makes exactly the calls it
    would make alone.  The driver runs each first pass itself, one panel
    per request, into that integral's own arrays; once the pass is
    complete, the integral's ``_refinement`` takes over and requests one
    batch of children per round.  Rows of ``f`` must not depend on which
    other nodes share the call; then every result equals its
    ``integrate_line`` bit for bit.  Returns a list with one float or
    array per spec.  The first integral to fail raises its
    ``ToleranceNotMet``.
    """
    firsts = [_first_pass(spec) for spec in specs]
    passes = [None] * len(specs)  # each integral's first-pass K15 values and errors, row t for panel t
    runs, results = [None] * len(specs), [None] * len(specs)
    # (integral, ends of its panels, t): first-pass panel t, or a refinement round when t is None
    waiting = [(i, ends[:1], 0) for i, ends in enumerate(firsts)]
    while waiting:
        take, panels = 1, len(waiting[0][1])
        while take < len(waiting) and panels + len(waiting[take][1]) <= _CALL_PANELS:
            panels += len(waiting[take][1])
            take += 1
        step, waiting = waiting[:take], waiting[take:]
        ends = np.concatenate([request for _, request, _ in step])
        which = np.repeat([i for i, _, _ in step], [15 * len(request) for _, request, _ in step])
        values, errors, shape = _panel_estimates(f(_nodes(ends), which), ends)
        stop = 0
        for i, request, t in step:
            start, stop = stop, stop + len(request)
            if t is None:
                reply = values[start:stop], errors[start:stop], shape
            else:  # first-pass panel t of integral i
                if t == 0:
                    passes[i] = [np.empty((len(firsts[i]),) + values.shape[1:]) for _ in range(2)]
                passes[i][0][t], passes[i][1][t] = values[start], errors[start]
                if t + 1 < len(firsts[i]):
                    waiting.append((i, firsts[i][t + 1 : t + 2], t + 1))
                    continue
                runs[i], reply = _refinement(specs[i], firsts[i], *passes[i], shape), None
            try:
                waiting.append((i, runs[i].send(reply), None))
            except StopIteration as done:
                results[i] = done.value
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
