"""Benchmark prior families with matched moments or heavy tails.

Each sweep returns ``(rows, summary)``; a row's keys, in order, are the
columns of its CLI CSV.  Two constructions stress the
divergence-versus-regret relationship:

* ``lowerbound_ratio_sweep``: contaminate a point mass at zero with a
  sliver (mass tau_m = alpha_m^2) of the arcsine law, respectively its
  m-point Gauss rule.  The two priors share moments below degree 2m, so
  the marginals are astronomically close in Hellinger distance while the
  regret stays polynomially larger; the ratio against
  eps^2 log(1/eps) / loglog(1/eps) stays bounded below along the sweep.
* ``moment_family_sweep``: a rare spike at b with mass eta = b^(-p)
  against a pure point mass.  The spike keeps the p-th moment bounded
  while forcing regret of order b^2 eta, polynomially larger than the
  squared Hellinger distance eta.  ``fit_loglog_exponent`` gives the
  sweep's log-log slope, and ``regularization_necessity_demo`` compares
  one spike pair's plain and clipped-score regret.

Densities of the contamination pairs differ only at relative size
tau_m ~ 1e-8 .. 1e-77 across the sweep, far below double-precision
subtraction.  All functionals are therefore evaluated from exact
moments alone: with S(y) = sum w e^(x y - x^2/2) over G's arcsine
sliver and U the half-gap series of H's sliver against it,
f_G = phi (1 + tau (S - 1)) and f_H = f_G - 2 tau U phi.  S, S' and
every m's U, U' are Hermite series in H_j / j! with coefficients the
arcsine moments and the exact half gaps, so per node batch one
recurrence serves the whole sweep and no atom is summed.
"""

from __future__ import annotations

import math

import numpy as np

from . import metrics
# moment_gap_table stays bound here: bench/tests/test_tracer.py checks this import site
from .hermite import hermite_sums, moment_gap_table, moment_gap_tables  # noqa: F401
from .mixtures import DiscretePrior, phi
from .quadrature import IntegrationSpec, arcsine_moment, integrate_line

__all__ = [
    "LOWERBOUND_LEVELS",
    "lowerbound_ratio_sweep",
    "moment_family_sweep",
    "fit_loglog_exponent",
    "regularization_necessity_demo",
]

LOWERBOUND_LEVELS = range(2, 13)  # the sweep's levels m: tau = alpha_m^2 underflows past m = 12
ARCSINE_RESOLUTION = 256
# the share of alpha_m and of beta_m that a gap table's truncation at j_max may discard
_TABLE_REMAINDER_SHARE = 1e-9
_FAMILY_SPEC = IntegrationSpec(abs_tol=0.0, truncation_radius=16.0)


def _lowerbound_coefficients(tables):
    """Coefficients in H_j / j! of S (column 0) and of each table's U (column i).

    e^(x y - x^2/2) = sum_j x^j H_j(y) / j!, so S takes the arcsine moments, to
    degree max(j_max, 200), which is exact on |y| <= 16; U takes the half gaps.
    """
    half_gaps = np.stack([0.5 * table.gaps for table in tables], axis=1)
    coefficients = np.zeros((max(len(half_gaps), 201), 1 + len(tables)))
    coefficients[:, 0] = [arcsine_moment(j) for j in range(len(coefficients))]
    coefficients[: len(half_gaps), 1:] = half_gaps
    return coefficients


def lowerbound_ratio_sweep(m_values=LOWERBOUND_LEVELS, **table_options):
    """A row per contamination level m plus summary rate constants.

    G contaminates delta_0 with mass tau = alpha_m^2 of the arcsine law
    (its ``ARCSINE_RESOLUTION``-point Gauss rule, which no integrand
    reads), H with the same mass of the m-point rule.  That keeps eps^2 at
    the 4 tau^2 alpha_m = 4 alpha_m^5 scale while the regret stays of order
    tau^2 beta_m; beta_m >= 2 m alpha_m drives the ratio.  Every m is an
    eps^2 and a regret column of one ``integrate_line`` pass, each to its
    own relative target.  A row is m, tau, alpha, beta, eps_sq, regret and
    ratio = regret / (eps^2 log(1/eps) / loglog(1/eps)).  ``min_ratio`` is
    the empirical lower-bound constant; ``rate_c0`` is the smallest
    m loglog(1/alpha) / log(1/alpha), the constant tying the family index
    to the Hellinger separation.  ``table_options`` (``j_max``) go to
    ``moment_gap_tables``; a ``j_max`` whose tables may discard more than
    1e-9 of alpha_m or beta_m raises ``ValueError``.
    """
    ms = [int(m) for m in m_values]
    if not all(m in LOWERBOUND_LEVELS for m in ms):
        raise ValueError(f"m must be in [{LOWERBOUND_LEVELS[0]}, {LOWERBOUND_LEVELS[-1]}]: tau underflows beyond")
    tables = moment_gap_tables(ms, **table_options)
    for table in tables:
        if (table.alpha_remainder > _TABLE_REMAINDER_SHARE * table.alpha_m
                or table.beta_remainder > _TABLE_REMAINDER_SHARE * table.beta_m):
            raise ValueError(f"j_max = {table.j_max} is too small for m = {table.m}: its gap table's "
                             "truncation bound is not negligible against alpha_m or beta_m")
    tau = np.array([table.alpha_m * table.alpha_m for table in tables])
    coefficients = _lowerbound_coefficients(tables)

    def integrand(y):
        sums, shifted = hermite_sums(coefficients, y, factorial=True)
        s, t, u, uprime = sums[:, :1], shifted[:, :1], sums[:, 1:], shifted[:, 1:]
        fg = 1.0 + tau * (s - 1.0)
        fh = fg - 2.0 * tau * u
        num = uprime * fg - tau * t * u
        gauss = phi(y)[:, None]
        hellinger = 4.0 * tau * tau * u * u * gauss / (np.sqrt(fg) + np.sqrt(fh)) ** 2
        regret = 4.0 * tau * tau * num * num * gauss / (fg * fh * fh)
        return np.stack([hellinger, regret], axis=-1).reshape(len(y), -1)

    values = integrate_line(integrand, _FAMILY_SPEC).reshape(-1, 2).tolist()
    rows = [{"m": m, "tau": float(t), "alpha": table.alpha_m, "beta": table.beta_m, "eps_sq": eps_sq,
             "regret": regret, "ratio": regret / metrics.hellinger_rate_normalizer(eps_sq)}
            for m, t, table, (eps_sq, regret) in zip(ms, tau, tables, values)]
    ratios = [row["ratio"] for row in rows]
    log_inv_alphas = [-math.log(row["alpha"]) for row in rows]
    rate_cs = [row["m"] * math.log(a) / a for row, a in zip(rows, log_inv_alphas)]
    summary = {"min_ratio": min(ratios), "max_ratio": max(ratios), "rate_c0": min(rate_cs)}
    return rows, summary


def _moment_rows(p, b_values):
    """``moment_family_sweep``'s rows, scored in one lock-step ``metrics.compute_metric_reports`` pass."""
    if not p > 0.0 or not all(b > 1.0 for b in b_values):
        raise ValueError("need p > 0 and b > 1, so that eta = b^-p is below one")
    etas = [b ** (-p) for b in b_values]
    for eta in etas:
        if not 0.0 < eta < 1.0:
            raise ValueError(f"eta = b^-p rounds to {eta!r}; it must lie strictly between 0 and 1")
    pairs = [(DiscretePrior([0.0, b], [1.0 - eta, eta]), DiscretePrior.point(0.0))
             for b, eta in zip(b_values, etas)]
    rows = []
    for b, eta, values in zip(b_values, etas, metrics.compute_metric_reports(pairs, ("hellinger_sq", "regret"))):
        regret, regret_lb = values["regret"], b * b * (eta * (1.0 - eta) - math.exp(-b * b / 8.0))
        rows.append({"p": float(p), "b": float(b), "eta": eta, "eps_sq": values["hellinger_sq"],
                     "regret": regret, "regret_lb": regret_lb, "lb_ok": regret >= regret_lb - 1e-12})
    return rows


def fit_loglog_exponent(xs, ys):
    """Least-squares slope of log(y) against log(x); nan if x is constant."""
    lx = np.log(np.asarray(xs, dtype=float))
    if np.all(lx == lx[0]):
        # centring equal logs need not give exact zeros, so test before
        return math.nan
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    denom = float(np.dot(lx, lx))
    return float(np.dot(lx, ly - ly.mean()) / denom)


def moment_family_sweep(p, b_values):
    """A row per spike height b, scored in one lock-step pass, plus the fitted exponent.

    A row is p, b, eta = b^(-p), eps_sq, regret, the closed-form floor
    regret_lb = b^2 (eta (1 - eta) - e^(-b^2/8)) (negative for small b,
    where it carries no information) and lb_ok, whether the regret reaches
    it.  Each row equals its own one-b sweep's bit for bit.  Raises
    ``ToleranceNotMet`` if eps^2 reads below its data-processing floor,
    the squared Hellinger distance on the cells y > b/2 and y <= b/2: the
    panels missed the spike.  The summary reports the measured log-log
    slope next to the target (p - 2)/p: regret ~ b^2 eta and eps^2 ~ eta.
    With fewer than two distinct b values there is no slope, and it is None.
    """
    rows = _moment_rows(p, b_values)
    exponent = None
    if len(set(b_values)) > 1:
        exponent = fit_loglog_exponent([row["eps_sq"] for row in rows], [row["regret"] for row in rows])
    summary = {
        "fitted_exponent": exponent,
        "target_exponent": (float(p) - 2.0) / float(p),
        "max_regret_to_eps_sq": max(row["regret"] / row["eps_sq"] for row in rows),
    }
    return rows, summary


def regularization_necessity_demo(p, b, rho_values=()):
    """Compare plain and clipped-score regret across clipping levels.

    Always includes rho = eps (the Hellinger distance of the pair), the
    scale at which clipping provably helps.  Each row carries the
    log-envelope eps^2 max((log 1/rho)^3, log 1/eps) for reference.
    """
    spike = _moment_rows(p, [b])[0]
    prior_g = DiscretePrior([0.0, spike["b"]], [1.0 - spike["eta"], spike["eta"]])
    eps = math.sqrt(spike["eps_sq"])
    rhos = sorted({float(r) for r in rho_values} | {eps})
    regularized = metrics.pair_integrals(prior_g, DiscretePrior.point(0.0), rhos=rhos)
    rows = []
    for rho in rhos:
        reg = regularized[rho]
        envelope = spike["eps_sq"] * max((-math.log(rho)) ** 3, -math.log(eps))
        rows.append(
            {
                "rho": rho,
                "regret": spike["regret"],
                "regret_regularized": reg,
                "ratio": spike["regret"] / reg if reg > 0.0 else math.inf,
                "envelope": envelope,
            }
        )
    ratio_at_eps = next(r["ratio"] for r in rows if r["rho"] == eps)
    summary = {"eps": eps, "ratio_at_eps": ratio_at_eps, "eps_sq": spike["eps_sq"]}
    return rows, summary
