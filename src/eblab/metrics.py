"""Divergence and regret functionals between two mixture marginals.

All quantities are integrals over the real line of smooth functions of
the two marginal densities f_G, f_H and their posterior means m_G, m_H:

* squared Hellinger   eps^2 = int (sqrt(f_G) - sqrt(f_H))^2
* chi-square-type     delta = 2 int (f_G - f_H)^2 / (f_G + f_H)
* score-flux          Delta = 2 int (m_G f_G - m_H f_H)^2 / (f_G + f_H)
* regret              int (m_H - m_G)^2 f_G
* regularized regret  int (f_G'/(f_G v rho) - f_H'/(f_H v rho))^2 f_G

Each integral is truncated to a window wide enough that the discarded
tail is below 1e-14 (see ``gaussian_tail_radius``) and evaluated with the
adaptive panel integrator.  ``Delta_stat`` is computed by two
independently coded forms at runtime; disagreement signals a window or
stability bug and raises ``FormMismatch``.  ``regret`` has an independent
route too, ``regret_score_form``, which is not run alongside it: the
tests compare the two (``test_metrics``, ``test_acceptance`` test_07,
``test_families``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .mixtures import MarginalModel, log_phi
from .quadrature import IntegrationSpec, gaussian_tail_radius, integrate_line

__all__ = [
    "FormMismatch",
    "MetricReport",
    "integration_window",
    "hellinger_sq",
    "delta_stat",
    "Delta_stat",
    "regret",
    "regret_score_form",
    "regret_regularized",
    "decomposition_residual",
    "compute_metric_report",
    "hellinger_rate_normalizer",
]

_FORM_REL_TOL = 1e-7
_FORM_ABS_FLOOR = 1e-12


class FormMismatch(RuntimeError):
    """Two algebraically equal routes disagreed beyond tolerance."""


def integration_window(*models, tail_mass=1e-14, abs_tol=1e-11, rel_tol=1e-9, max_panels=20000):
    """IntegrationSpec whose window covers every model's support.

    The radius guarantees that the (1 + y^2)-weighted tail of each
    marginal beyond the window is below ``tail_mass``.
    """
    bound = max(m.support_bound for m in models) ** 2
    radius = gaussian_tail_radius(bound, tail_mass)
    return IntegrationSpec(
        abs_tol=abs_tol, rel_tol=rel_tol, truncation_radius=radius, max_panels=max_panels
    )


def _as_models(*priors_or_models):
    out = []
    for p in priors_or_models:
        out.append(p if isinstance(p, MarginalModel) else MarginalModel(p))
    return tuple(out)


def hellinger_sq(model_g, model_h, spec=None):
    """Squared Hellinger distance between the two marginals."""
    model_g, model_h = _as_models(model_g, model_h)
    spec = spec or integration_window(model_g, model_h)

    def integrand(y):
        a = np.exp(0.5 * model_g.log_density(y))
        b = np.exp(0.5 * model_h.log_density(y))
        return (a - b) ** 2

    return integrate_line(integrand, spec)


def delta_stat(model_g, model_h, spec=None):
    """int (f_G - f_H)^2 / (2 (f_G + f_H)); between eps^2 / 2 and eps^2.

    This normalization is the one that sits inside the Hellinger sandwich
    pointwise: (a-b)^2 / (2(a+b)) <= (sqrt(a)-sqrt(b))^2 <= (a-b)^2/(a+b),
    and the one the regret reduction constant 16 is calibrated against.
    """
    model_g, model_h = _as_models(model_g, model_h)
    spec = spec or integration_window(model_g, model_h)

    def integrand(y):
        fg = np.exp(model_g.log_density(y))
        fh = np.exp(model_h.log_density(y))
        return (fg - fh) ** 2 / (2.0 * (fg + fh))

    return integrate_line(integrand, spec)


def _flux_stable(model, y):
    """m(y) f(y) via posterior mean times log-space density."""
    return np.exp(model.log_density(y)) * model.posterior_mean(y)


def Delta_stat(model_g, model_h, spec=None):
    """Score-flux statistic 2 int (m_G f_G - m_H f_H)^2 / (f_G + f_H).

    Computed twice: once from posterior means and log-space densities,
    once by differentiating (f_G - f_H) / phi atom by atom, which reduces
    the integrand to (sum_i w_i u_i phi(y - u_i) / sqrt(fbar))^2
    differences.  The two routes must agree to 1e-7 relative.
    """
    model_g, model_h = _as_models(model_g, model_h)
    spec = spec or integration_window(model_g, model_h)

    def mixture_form(y):
        fg = np.exp(model_g.log_density(y))
        fh = np.exp(model_h.log_density(y))
        flux = _flux_stable(model_g, y) - _flux_stable(model_h, y)
        return 2.0 * flux * flux / (fg + fh)

    def gprime_form(y):
        y = np.asarray(y, dtype=float)
        half_log_fbar = 0.5 * (
            np.logaddexp(model_g.log_density(y), model_h.log_density(y)) - math.log(2.0)
        )

        def scaled_flux(model):
            diff = y[..., None] - model.atoms
            terms = np.exp(log_phi(diff) - half_log_fbar[..., None])
            return terms @ (model.weights * model.atoms)

        s = scaled_flux(model_g) - scaled_flux(model_h)
        return s * s

    first = integrate_line(mixture_form, spec)
    second = integrate_line(gprime_form, spec)
    if abs(first - second) > _FORM_REL_TOL * max(abs(first), abs(second)) + _FORM_ABS_FLOOR:
        raise FormMismatch(
            f"score-flux forms disagree: {first!r} vs {second!r} "
            f"(window {spec.truncation_radius:.2f})"
        )
    return first


def regret(model_g, model_h, spec=None):
    """int (m_H - m_G)^2 f_G: excess risk of the rule tuned to H under G."""
    model_g, model_h = _as_models(model_g, model_h)
    spec = spec or integration_window(model_g, model_h)

    def integrand(y):
        diff = model_h.posterior_mean(y) - model_g.posterior_mean(y)
        return diff * diff * np.exp(model_g.log_density(y))

    return integrate_line(integrand, spec)


def _derivative_direct(model, y):
    """f'(y) = sum_i w_i (u_i - y) phi(y - u_i), summed atom by atom."""
    y = np.asarray(y, dtype=float)
    diff = model.atoms - y[..., None]
    return (np.exp(log_phi(diff)) * diff) @ model.weights


def regret_score_form(model_g, model_h, spec=None):
    """Same regret integral written through density-derivative ratios.

    Uses direct (linear-space) atom sums for f and f', a deliberately
    independent code path from ``regret``.
    """
    model_g, model_h = _as_models(model_g, model_h)
    spec = spec or integration_window(model_g, model_h)

    def integrand(y):
        y = np.asarray(y, dtype=float)
        dg = y[..., None] - model_g.atoms
        fg = np.exp(log_phi(dg)) @ model_g.weights
        dh = y[..., None] - model_h.atoms
        fh = np.exp(log_phi(dh)) @ model_h.weights
        sg = _derivative_direct(model_g, y) / fg
        sh = _derivative_direct(model_h, y) / fh
        return (sg - sh) ** 2 * fg

    return integrate_line(integrand, spec)


def regret_regularized(model_g, model_h, rho, spec=None):
    """Regret of the rho-regularized rules: scores use f v rho in place of f."""
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    model_g, model_h = _as_models(model_g, model_h)
    spec = spec or integration_window(model_g, model_h)

    def integrand(y):
        fg = np.exp(model_g.log_density(y))
        fh = np.exp(model_h.log_density(y))
        dg = fg * (model_g.posterior_mean(y) - np.asarray(y, dtype=float))
        dh = fh * (model_h.posterior_mean(y) - np.asarray(y, dtype=float))
        diff = dg / np.maximum(fg, rho) - dh / np.maximum(fh, rho)
        return diff * diff * fg

    return integrate_line(integrand, spec)


def decomposition_residual(model_g, model_h, y):
    """Pointwise residual of the score-difference decomposition.

    The score difference f_G'/f_G - f_H'/f_H equals
    (m_G + m_H)(f_H - f_G)/(f_G + f_H) + 2(m_G f_G - m_H f_H)/(f_G + f_H)
    identically; both sides are evaluated in cancellation-free form and
    the absolute difference returned.
    """
    model_g, model_h = _as_models(model_g, model_h)
    y = np.asarray(y, dtype=float)
    mg = model_g.posterior_mean(y)
    mh = model_h.posterior_mean(y)
    lg = model_g.log_density(y)
    lh = model_h.log_density(y)
    lhs = mg - mh
    imbalance = np.tanh(0.5 * (lh - lg))  # (f_H - f_G) / (f_G + f_H)
    pg = expit(lg - lh)  # f_G / (f_G + f_H)
    rhs = (mg + mh) * imbalance + 2.0 * (mg * pg - mh * (1.0 - pg))
    out = np.abs(lhs - rhs)
    if np.ndim(y) == 0:
        return float(out)
    return out


def hellinger_rate_normalizer(eps_sq):
    """eps^2 log(1/eps) / loglog(1/eps), with the log clamped at e.

    The clamp keeps the normalizer positive and finite for moderate
    separations; it is inactive in the small-eps regime the rate targets.
    """
    if not eps_sq > 0.0:
        raise ValueError("eps_sq must be positive")
    log_inv_eps = max(-0.5 * math.log(eps_sq), math.e)
    return eps_sq * log_inv_eps / math.log(log_inv_eps)


@dataclass
class MetricReport:
    """All divergence functionals for one (G, H) pair."""

    hellinger_sq: float
    delta: float
    delta_flux: float
    regret: float
    regret_regularized: dict = field(default_factory=dict)


def compute_metric_report(model_g, model_h, rhos=(), spec=None):
    model_g, model_h = _as_models(model_g, model_h)
    spec = spec or integration_window(model_g, model_h)
    return MetricReport(
        hellinger_sq=hellinger_sq(model_g, model_h, spec),
        delta=delta_stat(model_g, model_h, spec),
        delta_flux=Delta_stat(model_g, model_h, spec),
        regret=regret(model_g, model_h, spec),
        regret_regularized={
            float(r): regret_regularized(model_g, model_h, float(r), spec) for r in rhos
        },
    )
