"""One-dimensional quadrature backends.

Three rule families cover every integral in this package:

* ``chebyshev_rule``: the m-point Gauss rule for the arcsine density
  1/(pi*sqrt(1-x^2)) on [-1, 1].  Nodes are the Chebyshev points
  cos((2j-1)pi/(2m)), every weight equals 1/m, and the rule reproduces
  arcsine moments exactly through degree 2m-1.
* ``hermite_rule``: Gauss-Hermite nodes rescaled to the standard normal
  measure, so sum(w * h(x)) approximates E[h(Z)] for Z ~ N(0, 1).
* ``integrate_line``: globally adaptive Gauss-Kronrod (G7, K15) panels on
  a finite window [-R, R].  The worst panel (largest |K15 - G7| estimate)
  is bisected until the summed error estimate meets the requested
  tolerance or the panel budget runs out.

Integrands handed to ``integrate_line`` must accept numpy arrays and
evaluate elementwise.  Window radii for Gaussian-mixture integrands come
from ``gaussian_tail_radius``, which converts a support bound into a
truncation radius with a provable tail estimate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "IntegrationSpec",
    "ToleranceNotMet",
    "chebyshev_rule",
    "hermite_rule",
    "arcsine_moment",
    "integrate_line",
    "gaussian_tail_radius",
]

_RULE_KINDS = ("gauss_hermite", "gauss_chebyshev", "adaptive_panel")


class ToleranceNotMet(RuntimeError):
    """Adaptive integration could not meet its tolerance.

    Raised when the panel budget runs out or the integrand returns a
    non-finite value.  Carries the best available estimate and its error bound so callers can
    decide whether the partial answer is usable.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of a fixed quadrature rule.

    Nodes are strictly increasing and weights strictly positive; `kind`
    records which family produced the rule.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.kind not in _RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if nodes.ndim != 1 or weights.ndim != 1 or nodes.size != weights.size:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size == 0:
            raise ValueError("empty quadrature rule")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise ValueError("non-finite quadrature data")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive")

    def __len__(self):
        return self.nodes.size

    def integrate(self, f):
        """Apply the rule to a vectorized integrand."""
        return float(np.dot(self.weights, f(self.nodes)))


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
    """m-point Gauss rule for the arcsine measure on [-1, 1].

    The nodes are built from the upper half circle and mirrored so the
    rule is exactly symmetric in floating point (for odd m the middle
    node is exactly 0.0).
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
    return QuadratureRule(nodes=x[order], weights=np.full(m, 1.0 / m), kind="gauss_chebyshev")


def hermite_rule(n):
    """n-point Gauss-Hermite rule in standard normal convention.

    sum(weights) == 1 and sum(w * h(x)) ~= integral of h against the
    N(0, 1) density.
    """
    if n < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.hermite.hermgauss(int(n))
    return QuadratureRule(
        nodes=x * math.sqrt(2.0),
        weights=w / math.sqrt(math.pi),
        kind="gauss_hermite",
    )


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


def _panel_estimates(f, a, b):
    """(K15 value, |K15 - G7| error estimate) for one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _KRONROD_X), dtype=float)
    kron = half * float(np.dot(_KRONROD_W, fx))
    gauss = half * float(np.dot(_GAUSS_W, fx))
    if not (math.isfinite(kron) and math.isfinite(gauss)):
        raise ToleranceNotMet(
            f"integrand produced non-finite values on [{a:.6g}, {b:.6g}]",
            estimate=math.nan,
            error_bound=math.inf,
        )
    return kron, abs(kron - gauss)


def integrate_line(f, spec=IntegrationSpec()):
    """Adaptively integrate a vectorized integrand over [-R, R].

    R is ``spec.truncation_radius``.  The panel with the largest error
    estimate is split until the total estimated error drops below
    max(abs_tol, rel_tol * |integral|).  Raises ``ToleranceNotMet`` when
    ``max_panels`` panels are in play and the target is still missed, or
    when the integrand returns a non-finite value.
    """
    radius = spec.truncation_radius
    n_init = int(min(64.0, max(8.0, math.ceil(radius))))
    edges = np.linspace(-radius, radius, n_init + 1)

    heap = []
    total = 0.0
    err = 0.0
    tie = 0
    for a, b in zip(edges[:-1], edges[1:]):
        val, e = _panel_estimates(f, a, b)
        total += val
        err += e
        heapq.heappush(heap, (-e, tie, a, b, val))
        tie += 1

    while err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if len(heap) >= spec.max_panels:
            raise ToleranceNotMet(
                f"error bound {err:.3e} after {len(heap)} panels "
                f"(target abs {spec.abs_tol:.1e} / rel {spec.rel_tol:.1e})",
                estimate=total,
                error_bound=err,
            )
        neg_e, _, a, b, val = heapq.heappop(heap)
        total -= val
        err += neg_e  # neg_e == -e
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            v, e = _panel_estimates(f, lo, hi)
            total += v
            err += e
            heapq.heappush(heap, (-e, tie, lo, hi, v))
            tie += 1
    return total


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
