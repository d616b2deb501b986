"""Hermite moment expansions and arcsine moment-gap tables.

Probabilists' Hermite polynomials H_j (H_0 = 1, H_1 = y,
H_{j+1} = y H_j - j H_{j-1}) are orthogonal with int H_i H_j phi = i!
1{i = j}.  For two compact priors the normalized density difference
g = (f_G - f_H) / phi has the entire expansion

    g(y) = sum_j c_j H_j(y),   c_j = (m_j(G) - m_j(H)) / j!,

where m_j is the j-th prior moment.  The L2(phi) truncation errors of g
and g' are therefore explicit moment-gap tail sums, which this module
evaluates in log space so factorials past ~170 do not overflow.

The same machinery specialises to the arcsine law nu versus its m-point
Gauss rule nu_m: their moment gaps are exact binomial expressions (see
``moment_gap_table``), which keeps the leading gap 2^(1-2m) accurate to
the last bit instead of being drowned by floating-point cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_HERMITE_DEGREE",
    "hermite_eval",
    "prior_moment",
    "HermiteSeries",
    "expansion_coefficients",
    "truncation_error",
    "MomentGapTable",
    "moment_gap_table",
    "alpha_bounds",
    "alpha_bounds_hold",
]

MAX_HERMITE_DEGREE = 400


def _hermite_sums(coefficients, y, factorial=False):
    """(sum_j a_j s_j(y), sum_j a_j s_{j-1}(y)) for s_j = H_j / D_j, s_{-1} = 0.

    The single three-term recurrence of the package.  D_j = 1 gives the
    plain H_j, whose range reaches H_300(3) ~ -3.7e306.  D_j = j!
    (``factorial``) gives s_j = (y s_{j-1} - s_{j-2}) / j, which stays
    finite at high degree on wide windows where H_j overflows, but H_j
    cannot be recovered from it past j = 170, where j! overflows.  Zero
    coefficients are skipped.
    """
    y = np.asarray(y, dtype=float)
    acc = np.zeros_like(y)
    acc_prev = np.zeros_like(y)
    s_prev = np.zeros_like(y)
    s = np.ones_like(y)
    for j, a in enumerate(coefficients):
        if j > 0:
            if factorial:
                s_prev, s = s, (y * s - s_prev) / j
            else:
                s_prev, s = s, y * s - (j - 1) * s_prev
        if a != 0.0:
            acc += a * s
            acc_prev += a * s_prev
    return acc, acc_prev


def _scalar_or_array(y, value):
    return float(value) if np.ndim(y) == 0 else value


def hermite_eval(j, y):
    """H_j(y) for the probabilists' Hermite polynomial, j <= 400.

    Plain three-term recurrence; values grow roughly like sqrt(j!) so
    degrees beyond a few hundred can overflow double precision at large
    arguments.
    """
    j = int(j)
    if j < 0 or j > MAX_HERMITE_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_HERMITE_DEGREE}]")
    unit = np.zeros(j + 1)
    unit[j] = 1.0
    return _scalar_or_array(y, _hermite_sums(unit, y)[0])


def prior_moment(prior, j):
    """j-th raw moment of a discrete prior."""
    j = int(j)
    if j < 0:
        raise ValueError("moment order must be nonnegative")
    atoms = np.asarray(prior.atoms, dtype=float)
    weights = np.asarray(prior.weights, dtype=float)
    return float(np.dot(weights, atoms**j))


def _scaled_moment_gap(prior_g, prior_h, j, scale):
    """(m_j(G) - m_j(H)) / scale^j, bounded by 2 when scale covers both supports."""
    ag = np.asarray(prior_g.atoms, dtype=float) / scale
    ah = np.asarray(prior_h.atoms, dtype=float) / scale
    return float(
        np.dot(np.asarray(prior_g.weights, dtype=float), ag**j)
        - np.dot(np.asarray(prior_h.weights, dtype=float), ah**j)
    )


def _common_scale(prior_g, prior_h):
    return max(
        float(np.max(np.abs(prior_g.atoms))),
        float(np.max(np.abs(prior_h.atoms))),
    )


@dataclass
class HermiteSeries:
    """Finite Hermite expansion sum_j coefficients[j] * H_j."""

    coefficients: np.ndarray
    degree: int

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.ndim != 1 or self.coefficients.size != self.degree + 1:
            raise ValueError("need one coefficient per degree 0..degree")

    def evaluate(self, y, start=0):
        """Evaluate sum_{j=start}^{degree} c_j H_j(y) by upward recurrence."""
        coeffs = self.coefficients.copy()
        coeffs[:start] = 0.0
        return _scalar_or_array(y, _hermite_sums(coeffs, y)[0])


def expansion_coefficients(prior_g, prior_h, k):
    """Hermite coefficients of (f_G - f_H) / phi through degree k.

    c_j = (m_j(G) - m_j(H)) / j!, evaluated as scaled gaps times
    exp(j log M - lgamma(j + 1)) so large supports and degrees do not
    overflow.  c_0 is exactly zero because both priors have unit mass.
    """
    k = int(k)
    if k < 0 or k > MAX_HERMITE_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_HERMITE_DEGREE}]")
    scale = _common_scale(prior_g, prior_h)
    coeffs = np.zeros(k + 1)
    if scale == 0.0:
        return HermiteSeries(coefficients=coeffs, degree=k)
    log_scale = math.log(scale)
    for j in range(1, k + 1):
        gap = _scaled_moment_gap(prior_g, prior_h, j, scale)
        if gap != 0.0:
            coeffs[j] = math.copysign(
                math.exp(j * log_scale + math.log(abs(gap)) - math.lgamma(j + 1.0)), gap
            )
    return HermiteSeries(coefficients=coeffs, degree=k)


def truncation_error(prior_g, prior_h, k, rel_floor=1e-13, max_degree=5000):
    """L2(phi) tails of the degree-k truncation of g and g'.

    Returns (err_g, err_gprime) with

        err_g      = sum_{j > k} (m_j(G) - m_j(H))^2 / j!
        err_gprime = sum_{j > k} (m_j(G) - m_j(H))^2 / (j - 1)!

    Terms are accumulated in log space.  Summation stops once the crude
    envelope 4 M^(2j) / (j-1)! sinks below ``rel_floor`` times the sum
    so far (or underflows outright).  The envelope dominates every
    remaining term (gaps are at most 2 M^j in absolute value), so
    structurally zero terms cannot end the sum early, and a relative
    floor keeps the result accurate even when the tail itself is tiny.
    """
    k = int(k)
    if k < 0:
        raise ValueError("truncation degree must be nonnegative")
    scale = _common_scale(prior_g, prior_h)
    if scale == 0.0:
        return 0.0, 0.0
    log_scale = math.log(scale)
    err_g = 0.0
    err_gp = 0.0
    j = k + 1
    while j <= max_degree:
        log_envelope = 2.0 * j * log_scale + math.log(4.0) - math.lgamma(float(j))
        if j > k + 1:
            cutoff = -745.0  # below exp underflow: nothing left to add
            if err_gp > 0.0:
                cutoff = max(cutoff, math.log(rel_floor * err_gp))
            if log_envelope < cutoff:
                break
        gap = _scaled_moment_gap(prior_g, prior_h, j, scale)
        if gap != 0.0:
            log_sq = 2.0 * (j * log_scale + math.log(abs(gap)))
            err_g += math.exp(log_sq - math.lgamma(j + 1.0))
            err_gp += math.exp(log_sq - math.lgamma(float(j)))
        j += 1
    return err_g, err_gp


def _arcsine_rule_gap_exact(m, j):
    """Exact moment gap (arcsine minus m-point Gauss rule) for degree j.

    Averaging cos^j over the Chebyshev angles kills every harmonic except
    multiples of 2m, leaving

        gap = 2 * 4^(-r) * sum_{t >= 1} (-1)^(t+1) binom(2r, r - t m)

    for j = 2r (odd gaps vanish by symmetry).  Integer arithmetic keeps
    the result exact to the final rounding; in particular the leading gap
    at j = 2m is exactly 2^(1-2m).
    """
    if j % 2 == 1:
        return 0.0
    r = j // 2
    t_max = r // m
    if t_max == 0:
        return 0.0
    acc = 0
    for t in range(1, t_max + 1):
        term = math.comb(2 * r, r - t * m)
        acc += term if t % 2 == 1 else -term
    return 2 * acc / 4**r


@dataclass
class MomentGapTable:
    """Moment gaps of the arcsine law against its m-point Gauss rule.

    ``gaps[j]`` is the degree-j gap for j = 0..j_max.  ``alpha_m`` and
    ``beta_m`` are the quarter-weighted tail sums over j >= 2m with
    weights 1/j! and 1/(j-1)!; the *_remainder fields bound what the
    truncation at j_max discards (4/j! envelope, may underflow to zero).
    """

    m: int
    j_max: int
    gaps: np.ndarray
    alpha_m: float
    beta_m: float
    alpha_remainder: float
    beta_remainder: float


def moment_gap_table(m, j_max=200):
    """Gap table plus alpha/beta tail sums for the m-point Gauss rule."""
    m = int(m)
    if m < 1:
        raise ValueError("rule size must be positive")
    j_max = int(j_max)
    if j_max < 2 * m:
        raise ValueError("j_max must reach the first nonzero gap 2m")
    gaps = np.array([_arcsine_rule_gap_exact(m, j) for j in range(j_max + 1)])
    alpha = 0.0
    beta = 0.0
    for j in range(2 * m, j_max + 1):
        gap = gaps[j]
        if gap == 0.0:
            continue
        log_sq = 2.0 * math.log(abs(gap))
        alpha += 0.25 * math.exp(log_sq - math.lgamma(j + 1.0))
        beta += 0.25 * math.exp(log_sq - math.lgamma(float(j)))
    # |gap| <= 2 always, so the discarded alpha tail is below
    # sum_{j > j_max} 1/j! <= 2/(j_max + 1)!.  May underflow to zero.
    log2 = math.log(2.0)
    alpha_rem = math.exp(log2 - math.lgamma(j_max + 2.0))
    beta_rem = math.exp(log2 - math.lgamma(j_max + 1.0))
    return MomentGapTable(
        m=m,
        j_max=j_max,
        gaps=gaps,
        alpha_m=alpha,
        beta_m=beta,
        alpha_remainder=alpha_rem,
        beta_remainder=beta_rem,
    )


def alpha_bounds(m):
    """(2^(-4m) / (2m)!, 2 / (2m)!): the bracket alpha_m must lie in."""
    lower = math.exp(-4.0 * m * math.log(2.0) - math.lgamma(2.0 * m + 1.0))
    upper = math.exp(math.log(2.0) - math.lgamma(2.0 * m + 1.0))
    return lower, upper


def alpha_bounds_hold(table):
    """Whether 2^(-4m) / (2m)! <= alpha_m <= 2 / (2m)! for this table."""
    lower, upper = alpha_bounds(table.m)
    return lower <= table.alpha_m <= upper
