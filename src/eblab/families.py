"""Benchmark prior families with matched moments or heavy tails.

Two constructions stress the divergence-versus-regret relationship:

* ``build_lowerbound_instance``: contaminate a point mass at zero with a
  sliver (mass tau_m = alpha_m^2) of the arcsine law, respectively its
  m-point Gauss rule.  The two priors share moments below degree 2m, so
  the marginals are astronomically close in Hellinger distance while the
  regret stays polynomially larger; the ratio against
  eps^2 log(1/eps) / loglog(1/eps) stays bounded below along the sweep.
* ``build_moment_instance``: a rare spike at b with mass eta = b^(-p)
  against a pure point mass.  The spike keeps the p-th moment bounded
  while forcing regret of order b^2 eta, polynomially larger than the
  squared Hellinger distance eta.

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
from dataclasses import dataclass

import numpy as np

from . import metrics
# moment_gap_table stays bound here: bench/tests/test_tracer.py checks this import site
from .hermite import _hermite_sums, _moment_gap_tables, moment_gap_table  # noqa: F401
from .mixtures import DiscretePrior, phi
from .quadrature import IntegrationSpec, arcsine_moment, chebyshev_rule, integrate_line

__all__ = [
    "LowerBoundInstance",
    "build_lowerbound_instance",
    "lowerbound_ratio_sweep",
    "MomentFamilyInstance",
    "build_moment_instance",
    "moment_family_sweep",
    "fit_loglog_exponent",
    "regularization_necessity_demo",
]

ARCSINE_RESOLUTION = 256
_FAMILY_SPEC = IntegrationSpec(abs_tol=0.0, truncation_radius=16.0)


def _contaminate(tau, rule):
    """(1 - tau) delta_0 + tau * rule, merging a zero node if present; rule = (nodes, weights)."""
    nodes, weights = rule
    atoms = np.concatenate(([0.0], nodes))
    weights = np.concatenate(([1.0 - tau], tau * weights))
    zero = 1 + np.flatnonzero(nodes == 0.0)
    weights[0] += weights[zero].sum()
    return DiscretePrior(np.delete(atoms, zero), np.delete(weights, zero))


@dataclass
class LowerBoundInstance:
    """Matched-moment contamination pair at level m."""

    m: int
    tau: float
    alpha: float
    beta: float
    prior_g: DiscretePrior
    prior_h: DiscretePrior
    eps_sq: float
    regret_val: float

    @property
    def ratio(self):
        return self.regret_val / metrics.hellinger_rate_normalizer(self.eps_sq)


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


def _lowerbound_instances(m_values, **table_options):
    """Contamination pairs for every m in one vector-valued integration pass.

    Column 2i of the pass is eps^2 and column 2i + 1 the regret of the
    i-th m, each to its own relative target.  Per node batch one Hermite
    recurrence gives S, S' and every m's U, U'; the Gauss rules only
    build the recorded priors.
    """
    ms = [int(m) for m in m_values]
    if not all(2 <= m <= 12 for m in ms):
        raise ValueError("m must be between 2 and 12 (tau underflows beyond)")
    tables = _moment_gap_tables(ms, **table_options)
    tau = np.array([table.alpha_m * table.alpha_m for table in tables])
    coefficients = _lowerbound_coefficients(tables)

    def integrand(y):
        sums, shifted = _hermite_sums(coefficients, y, factorial=True)
        s, t, u, uprime = sums[:, :1], shifted[:, :1], sums[:, 1:], shifted[:, 1:]
        fg = 1.0 + tau * (s - 1.0)
        fh = fg - 2.0 * tau * u
        num = uprime * fg - tau * t * u
        gauss = phi(y)[:, None]
        hellinger = 4.0 * tau * tau * u * u * gauss / (np.sqrt(fg) + np.sqrt(fh)) ** 2
        regret = 4.0 * tau * tau * num * num * gauss / (fg * fh * fh)
        return np.stack([hellinger, regret], axis=-1).reshape(len(y), -1)

    values = integrate_line(integrand, _FAMILY_SPEC).reshape(-1, 2)
    fine = chebyshev_rule(ARCSINE_RESOLUTION)
    return [
        LowerBoundInstance(m, float(t), table.alpha_m, table.beta_m, _contaminate(t, fine),
                           _contaminate(t, chebyshev_rule(m)), *map(float, pair))
        for m, t, table, pair in zip(ms, tau, tables, values)
    ]


def build_lowerbound_instance(m, **table_options):
    """Contamination pair at level m with its Hellinger gap and regret.

    tau is alpha_m squared, which keeps the Hellinger distance at the
    eps^2 <= 4 tau^2 alpha_m = 4 alpha_m^5 scale while the regret stays
    of order tau^2 beta_m; beta_m >= 2 m alpha_m drives the ratio.
    ``table_options`` (``j_max``) go to ``moment_gap_table``.  This is
    the one-level case of the pass ``lowerbound_ratio_sweep`` makes.
    """
    return _lowerbound_instances([m], **table_options)[0]


def lowerbound_ratio_sweep(m_values=range(2, 13), **table_options):
    """Instances for each m plus summary rate constants.

    Each m is an eps^2 and a regret column of one ``integrate_line``
    pass.  ``min_ratio`` is the empirical lower-bound constant for
    regret / (eps^2 log(1/eps) / loglog(1/eps));  ``rate_c0`` is the
    smallest m loglog(1/alpha) / log(1/alpha), the constant tying the
    family index to the Hellinger separation.  ``table_options`` go to
    ``moment_gap_table``.
    """
    instances = _lowerbound_instances(m_values, **table_options)
    ratios = [inst.ratio for inst in instances]
    log_inv_alphas = [-math.log(inst.alpha) for inst in instances]
    rate_cs = [inst.m * math.log(a) / a for inst, a in zip(instances, log_inv_alphas)]
    summary = {"min_ratio": min(ratios), "max_ratio": max(ratios), "rate_c0": min(rate_cs)}
    return instances, summary


@dataclass
class MomentFamilyInstance:
    """Rare-spike pair: G = (1 - eta) delta_0 + eta delta_b versus delta_0."""

    p: float
    b: float
    eta: float
    eps_sq: float
    regret_val: float
    regret_lb: float


def _moment_instances(p, b_values):
    """Spike instances for every b, scored in one lock-step ``integrate_lines`` pass."""
    if not p > 0.0 or not all(b > 1.0 for b in b_values):
        raise ValueError("need p > 0 and b > 1, so that eta = b^-p is below one")
    etas = [b ** (-p) for b in b_values]
    for eta in etas:
        if not 0.0 < eta < 1.0:
            raise ValueError(f"eta = b^-p rounds to {eta!r}; it must lie strictly between 0 and 1")
    pairs = [(DiscretePrior([0.0, b], [1.0 - eta, eta]), DiscretePrior.point(0.0))
             for b, eta in zip(b_values, etas)]
    sweep = metrics._sweep_integrals(pairs, ["hellinger_sq", "regret"])
    return [MomentFamilyInstance(p=float(p), b=float(b), eta=eta, eps_sq=values["hellinger_sq"],
                                 regret_val=values["regret"],
                                 regret_lb=b * b * (eta * (1.0 - eta) - math.exp(-b * b / 8.0)))
            for b, eta, values in zip(b_values, etas, sweep)]


def build_moment_instance(p, b):
    """Spike pair at height b with mass eta = b^(-p), fully scored.

    ``regret_lb`` is the closed-form floor b^2 (eta (1 - eta) - e^(-b^2/8));
    it can be negative for small b, where it carries no information.
    Raises ``ToleranceNotMet`` if eps^2 reads below its data-processing
    floor, the squared Hellinger distance on the cells y > b/2 and y <= b/2:
    the panels missed the spike.  The one-b case of ``moment_family_sweep``.
    """
    return _moment_instances(p, [b])[0]


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
    """Spike instances across b, scored in one lock-step pass, plus the fitted exponent.

    Each instance equals its own ``build_moment_instance`` bit for bit.
    The summary reports the measured log-log slope next to the target
    (p - 2)/p: regret ~ b^2 eta and eps^2 ~ eta with eta = b^(-p).  With
    fewer than two distinct b values there is no slope, and it is None.
    """
    instances = _moment_instances(p, b_values)
    exponent = None
    if len(set(b_values)) > 1:
        exponent = fit_loglog_exponent(
            [inst.eps_sq for inst in instances], [inst.regret_val for inst in instances]
        )
    summary = {
        "fitted_exponent": exponent,
        "target_exponent": (float(p) - 2.0) / float(p),
        "max_regret_to_eps_sq": max(inst.regret_val / inst.eps_sq for inst in instances),
    }
    return instances, summary


def regularization_necessity_demo(p, b, rho_values=()):
    """Compare plain and clipped-score regret across clipping levels.

    Always includes rho = eps (the Hellinger distance of the pair), the
    scale at which clipping provably helps.  Each row carries the
    log-envelope eps^2 max((log 1/rho)^3, log 1/eps) for reference.
    """
    rho_values = [float(r) for r in rho_values]
    if not all(rho > 0.0 for rho in rho_values):
        raise ValueError("rho values must be positive")
    inst = build_moment_instance(p, b)
    prior_g = DiscretePrior([0.0, inst.b], [1.0 - inst.eta, inst.eta])
    eps = math.sqrt(inst.eps_sq)
    rhos = sorted(set(rho_values) | {eps})
    regularized = metrics.pair_integrals(prior_g, DiscretePrior.point(0.0), rhos=rhos)
    rows = []
    for rho in rhos:
        reg = regularized[rho]
        envelope = inst.eps_sq * max(math.log(1.0 / rho) ** 3, math.log(1.0 / eps))
        rows.append(
            {
                "rho": rho,
                "regret": inst.regret_val,
                "regret_regularized": reg,
                "ratio": inst.regret_val / reg if reg > 0.0 else math.inf,
                "envelope": envelope,
            }
        )
    ratio_at_eps = next(r["ratio"] for r in rows if r["rho"] == eps)
    summary = {"eps": eps, "ratio_at_eps": ratio_at_eps, "eps_sq": inst.eps_sq}
    return rows, summary
