"""Hermite moment expansions and arcsine moment-gap tables.

Probabilists' Hermite polynomials H_j (H_0 = 1, H_1 = y,
H_{j+1} = y H_j - j H_{j-1}) are orthogonal with int H_i H_j phi = i!
1{i = j}.  For two compact priors the normalized density difference
g = (f_G - f_H) / phi has the entire expansion

    g(y) = sum_j c_j H_j(y),   c_j = (m_j(G) - m_j(H)) / j!,

where m_j is the j-th prior moment.  ``expansion_coefficients`` returns
c_0..c_k as an array.  The L2(phi) truncation errors of g and g' are
explicit moment-gap tail sums, which ``truncation_error`` evaluates in
log space so factorials past ~170 do not overflow.

The same machinery specialises to the arcsine law nu versus its m-point
Gauss rule nu_m: their moment gaps are exact binomial expressions (see
``moment_gap_table``), which keeps the leading gap 2^(1-2m) accurate to
the last bit instead of being drowned by floating-point cancellation.
One recurrence, ``_hermite_sums``, evaluates every Hermite series of the
package.  It sums each series in degree order from 0, one addition per
nonzero coefficient, exactly as a per-degree loop adds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_HERMITE_DEGREE",
    "expansion_coefficients",
    "truncation_error",
    "MomentGapTable",
    "moment_gap_table",
    "alpha_bounds",
    "alpha_bounds_hold",
]

MAX_HERMITE_DEGREE = 400
# alpha_m is a normal double through m = 66, subnormal to m = 69 and 0 from m = 70
_MAX_GAP_LEVEL = 66
# truncation_error stops once the tail envelope is below this share of the sum
_TRUNCATION_REL_FLOOR = 1e-13
_TRUNCATION_MAX_DEGREE = 5000
# nodes per product block of _hermite_sums: bounds its (degrees, 2, nodes, series) buffer
_SUM_BLOCK = 64


def _hermite_sums(coefficients, y, factorial=False):
    """(sum_j a_j s_j(y), sum_j a_j s_{j-1}(y)) for s_j = H_j / D_j, s_{-1} = 0.

    The single three-term recurrence of the package.  D_j = 1 gives the
    plain H_j, whose range reaches H_300(3) ~ -3.7e306.  D_j = j!
    (``factorial``) gives s_j = (y s_{j-1} - s_{j-2}) / j, which stays
    finite at high degree on wide windows where H_j overflows, but H_j
    cannot be recovered from it past j = 170, where j! overflows.  (J+1, k)
    coefficients give k series on one recurrence, sums of shape
    y.shape + (k,) whose columns equal the 1-d calls bit for bit.  Zero
    coefficients are skipped per column, so an overflowed s_j stays out.

    Each sum is 0 + a_0 s_0 + a_1 s_1 + ... over the nonzero a_j, in that
    order: per block of nodes one ``sum`` over the degree axis, which numpy
    adds row after row (pairwise only along a lone axis; here the s_j,
    s_{j-1} axis is 2 wide).
    """
    coefficients = np.asarray(coefficients, dtype=float)
    y = np.asarray(y, dtype=float)
    a = coefficients.reshape(len(coefficients), -1)
    nodes = y.reshape(-1)
    s = np.empty((len(a) + 1, nodes.size))  # s[j + 1] = s_j, s[0] = s_{-1}
    s[0], s[1] = 0.0, 1.0
    views = list(s)  # one row view per degree, split once
    for j in range(1, len(a)):
        out = np.multiply(nodes, views[j], out=views[j + 1])
        if factorial:
            np.divide(np.subtract(out, views[j - 1], out=out), float(j), out=out)
        else:
            np.subtract(out, (j - 1.0) * views[j - 1], out=out)
    live = a != 0.0
    rows = np.flatnonzero(live.any(axis=1))  # degrees that some series uses
    terms = np.stack([s[rows + 1], s[rows]], axis=1)[:, :, None]  # s_j and s_{j-1}
    factors, live = a[rows, None, :, None], live[rows, None, :, None]
    if np.isfinite(terms).all():  # a zero coefficient adds +-0 to a sum begun at +0: no bit moves
        live = True
    sums = np.empty((2, a.shape[1], nodes.size))
    for start in range(0, nodes.size, _SUM_BLOCK):
        block = terms[..., start : start + _SUM_BLOCK]
        products = np.zeros((len(rows) + 1, 2, a.shape[1], block.shape[-1]))  # row 0: the 0 start
        np.multiply(block, factors, out=products[1:], where=live)
        products.sum(axis=0, out=sums[..., start : start + _SUM_BLOCK])
    return tuple(part.T.reshape(y.shape + coefficients.shape[1:]) for part in sums)


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


def expansion_coefficients(prior_g, prior_h, k):
    """Hermite coefficients c_0..c_k of (f_G - f_H) / phi, as an array.

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
        return coeffs
    log_scale = math.log(scale)
    for j in range(1, k + 1):
        gap = _scaled_moment_gap(prior_g, prior_h, j, scale)
        if gap != 0.0:
            coeffs[j] = math.copysign(
                math.exp(j * log_scale + math.log(abs(gap)) - math.lgamma(j + 1.0)), gap
            )
    return coeffs


def truncation_error(prior_g, prior_h, k):
    """L2(phi) tails of the degree-k truncation of g and g'.

    Returns (err_g, err_gprime) with

        err_g      = sum_{j > k} (m_j(G) - m_j(H))^2 / j!
        err_gprime = sum_{j > k} (m_j(G) - m_j(H))^2 / (j - 1)!

    Terms are accumulated in log space.  Summation stops once the crude
    envelope 4 M^(2j) / (j-1)! sinks below 1e-13 times the sum
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
    err_g = err_gp = 0.0
    for j in range(k + 1, _TRUNCATION_MAX_DEGREE + 1):
        log_envelope = 2.0 * j * log_scale + math.log(4.0) - math.lgamma(float(j))
        if j > k + 1:
            cutoff = -745.0  # below exp underflow: nothing left to add
            if err_gp > 0.0:
                cutoff = max(cutoff, math.log(_TRUNCATION_REL_FLOOR) + math.log(err_gp))
            if log_envelope < cutoff:
                break
        gap = _scaled_moment_gap(prior_g, prior_h, j, scale)
        if gap != 0.0:
            log_sq = 2.0 * (j * log_scale + math.log(abs(gap)))
            err_g += math.exp(log_sq - math.lgamma(j + 1.0))
            err_gp += math.exp(log_sq - math.lgamma(float(j)))
    return err_g, err_gp


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


def _moment_gap_tables(ms, j_max=200):
    """``moment_gap_table(m, j_max)`` for every m in ``ms``, from one set of binomial rows.

    Averaging cos^j over the Chebyshev angles kills every harmonic except
    multiples of 2m, leaving for j = 2r (odd gaps vanish by symmetry)

        gap = 2 * 4^(-r) * sum_{t >= 1} (-1)^(t+1) binom(2r, r - t m).

    Every m reads its terms from the same exact rows binom(2r, k), k <= r.
    Integer arithmetic keeps each gap exact to the final rounding; in
    particular the leading gap at j = 2m is exactly 2^(1-2m).
    """
    ms, j_max = [int(m) for m in ms], int(j_max)
    if not all(1 <= m <= _MAX_GAP_LEVEL for m in ms):
        raise ValueError(f"rule size must be in [1, {_MAX_GAP_LEVEL}]: alpha_m underflows beyond")
    if j_max < 2 * max(ms, default=0):
        raise ValueError("j_max must reach the first nonzero gap 2m")
    if j_max > MAX_HERMITE_DEGREE:  # about j_max^2 / 8 big binomials; past about j = 200 every term underflows
        raise ValueError(f"j_max must be <= {MAX_HERMITE_DEGREE}, not {j_max}")
    rows = [[1] for _ in range(j_max // 2 + 1)]
    for r, row in enumerate(rows):
        for k in range(r):
            row.append(row[k] * (2 * r - k) // (k + 1))
    # |gap| <= 2 always, so the discarded alpha tail is below
    # sum_{j > j_max} 1/j! <= 2/(j_max + 1)!.  May underflow to zero.
    log2 = math.log(2.0)
    alpha_rem = math.exp(log2 - math.lgamma(j_max + 2.0))
    beta_rem = math.exp(log2 - math.lgamma(j_max + 1.0))
    tables = []
    for m in ms:
        gaps = np.zeros(j_max + 1)
        for r in range(m, len(rows)):
            terms = rows[r][r - m :: -m]  # t = 1, 2, ...
            gaps[2 * r] = 2 * (sum(terms[::2]) - sum(terms[1::2])) / 4**r
        alpha = beta = 0.0
        for j in range(2 * m, j_max + 1):
            gap = gaps[j]
            if gap == 0.0:
                continue
            log_sq = 2.0 * math.log(abs(gap))
            alpha += 0.25 * math.exp(log_sq - math.lgamma(j + 1.0))
            beta += 0.25 * math.exp(log_sq - math.lgamma(float(j)))
        tables.append(MomentGapTable(m, j_max, gaps, alpha, beta, alpha_rem, beta_rem))
    return tables


def moment_gap_table(m, j_max=200):
    """Gap table plus alpha/beta tail sums for the m-point Gauss rule (a one-level sweep)."""
    return _moment_gap_tables([m], j_max)[0]


def alpha_bounds(m):
    """(2^(-4m) / (2m)!, 2 / (2m)!): the bracket alpha_m must lie in."""
    lower = math.exp(-4.0 * m * math.log(2.0) - math.lgamma(2.0 * m + 1.0))
    upper = math.exp(math.log(2.0) - math.lgamma(2.0 * m + 1.0))
    return lower, upper


def alpha_bounds_hold(table):
    """Whether 2^(-4m) / (2m)! <= alpha_m <= 2 / (2m)! for this table."""
    lower, upper = alpha_bounds(table.m)
    return lower <= table.alpha_m <= upper
