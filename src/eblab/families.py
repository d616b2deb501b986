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
subtraction.  All functionals are therefore evaluated through the exact
perturbation form f_G = phi (1 + tau (V + U)), f_H = phi (1 + tau (V - U))
where U and U' come from the Hermite series of the exact moment gaps and
V, P are direct quadrature sums of order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .hermite import _hermite_sums, moment_gap_table
from .mixtures import DiscretePrior, phi
from .quadrature import IntegrationSpec, chebyshev_rule, integrate_line

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
    """(1 - tau) delta_0 + tau * rule, merging a zero node if present."""
    atoms = np.concatenate(([0.0], rule.nodes))
    weights = np.concatenate(([1.0 - tau], tau * rule.weights))
    zero_hits = np.nonzero(rule.nodes == 0.0)[0]
    if zero_hits.size:
        weights[0] += weights[1 + zero_hits[0]]
        keep = np.ones(atoms.size, dtype=bool)
        keep[1 + zero_hits[0]] = False
        atoms, weights = atoms[keep], weights[keep]
    return DiscretePrior(atoms, weights)


def _exp_sums(rule, y):
    """S(y) = sum w e^(x y - x^2/2) and T(y) = sum w x e^(x y - x^2/2)."""
    y = np.asarray(y, dtype=float)
    x = rule.nodes
    ex = np.exp(np.multiply.outer(y, x) - 0.5 * x * x)
    return ex @ rule.weights, ex @ (rule.weights * rule.nodes)


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


def build_lowerbound_instance(m, **table_options):
    """Contamination pair at level m with its Hellinger gap and regret.

    tau is alpha_m squared, which keeps the Hellinger distance at the
    eps^2 <= 4 tau^2 alpha_m = 4 alpha_m^5 scale while the regret stays
    of order tau^2 beta_m; beta_m >= 2 m alpha_m drives the ratio.
    ``table_options`` (``j_max``) go to ``moment_gap_table``.
    """
    m = int(m)
    if not 2 <= m <= 12:
        raise ValueError("m must be between 2 and 12 (tau underflows beyond)")
    table = moment_gap_table(m, **table_options)
    alpha = table.alpha_m
    beta = table.beta_m
    tau = alpha * alpha

    fine = chebyshev_rule(ARCSINE_RESOLUTION)
    coarse = chebyshev_rule(m)
    prior_g = _contaminate(tau, fine)
    prior_h = _contaminate(tau, coarse)

    # U and U' are half-gap Hermite series in h_j = H_j / j!
    half_gaps = 0.5 * table.gaps

    def integrand(y):
        u, uprime = _hermite_sums(half_gaps, y, factorial=True)
        s_fine, t_fine = _exp_sums(fine, y)
        s_coarse, t_coarse = _exp_sums(coarse, y)
        v = 0.5 * (s_fine + s_coarse) - 1.0
        p = 0.5 * (t_fine + t_coarse)
        fg = 1.0 + tau * (v + u)
        fh = 1.0 + tau * (v - u)
        num = uprime * (1.0 + tau * v) - tau * p * u
        gauss = phi(y)
        hellinger = 4.0 * tau * tau * u * u * gauss / (np.sqrt(fg) + np.sqrt(fh)) ** 2
        regret = 4.0 * tau * tau * num * num * gauss / (fg * fh * fh)
        return np.stack([hellinger, regret], axis=-1)

    eps_sq, regret_val = map(float, integrate_line(integrand, _FAMILY_SPEC))

    return LowerBoundInstance(
        m=m,
        tau=tau,
        alpha=alpha,
        beta=beta,
        prior_g=prior_g,
        prior_h=prior_h,
        eps_sq=eps_sq,
        regret_val=regret_val,
    )


def lowerbound_ratio_sweep(m_values=range(2, 13), **table_options):
    """Instances for each m plus summary rate constants.

    ``min_ratio`` is the empirical lower-bound constant for
    regret / (eps^2 log(1/eps) / loglog(1/eps));  ``rate_c0`` is the
    smallest m loglog(1/alpha) / log(1/alpha), the constant tying the
    family index to the Hellinger separation.  ``table_options`` go to
    ``moment_gap_table``.
    """
    instances = [build_lowerbound_instance(m, **table_options) for m in m_values]
    ratios = [inst.ratio for inst in instances]
    rate_cs = []
    for inst in instances:
        log_inv_alpha = -math.log(inst.alpha)
        rate_cs.append(inst.m * math.log(log_inv_alpha) / log_inv_alpha)
    summary = {
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "rate_c0": min(rate_cs),
    }
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


def build_moment_instance(p, b):
    """Spike pair at height b with mass eta = b^(-p), fully scored.

    ``regret_lb`` is the closed-form floor b^2 (eta (1 - eta) - e^(-b^2/8));
    it can be negative for small b, where it carries no information.
    """
    if not (p > 0.0 and b > 0.0):
        raise ValueError("p and b must be positive")
    eta = b ** (-p)
    if eta >= 1.0:
        raise ValueError("eta = b^-p must be below one")
    prior_g = DiscretePrior([0.0, b], [1.0 - eta, eta])
    values = metrics.pair_integrals(prior_g, DiscretePrior.point(0.0), ["hellinger_sq", "regret"])
    eps_sq, regret_val = values["hellinger_sq"], values["regret"]
    regret_lb = b * b * (eta * (1.0 - eta) - math.exp(-b * b / 8.0))
    return MomentFamilyInstance(
        p=float(p), b=float(b), eta=eta, eps_sq=eps_sq, regret_val=regret_val, regret_lb=regret_lb
    )


def fit_loglog_exponent(xs, ys):
    """Least-squares slope of log(y) against log(x); nan if x is constant."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    denom = float(np.dot(lx, lx))
    if denom == 0.0:
        return math.nan
    return float(np.dot(lx, ly - ly.mean()) / denom)


def moment_family_sweep(p, b_values):
    """Spike instances across b plus the fitted regret-vs-eps^2 exponent.

    The summary reports the measured log-log slope next to the target
    (p - 2)/p: regret ~ b^2 eta and eps^2 ~ eta with eta = b^(-p).  With
    fewer than two distinct b values there is no slope, and it is None.
    """
    instances = [build_moment_instance(p, b) for b in b_values]
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
