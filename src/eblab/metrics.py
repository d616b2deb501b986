"""Divergence and regret functionals between two mixture marginals.

Every quantity is an integral over the real line of a formula in one
pointwise pair state: the marginal densities f_G, f_H, their logs, and
the posterior means m_G, m_H:

* squared Hellinger   eps^2 = int (sqrt(f_G) - sqrt(f_H))^2
* chi-square-type     delta = int (f_G - f_H)^2 / (2 (f_G + f_H))
* score-flux          Delta = 2 int (m_G f_G - m_H f_H)^2 / (f_G + f_H)
* regret              int (m_H - m_G)^2 f_G
* regularized regret  int (f_G'/(f_G v rho) - f_H'/(f_H v rho))^2 f_G

``pair_integrals`` evaluates the state once per batch of nodes and
integrates each requested functional as one column of a single
vector-valued ``integrate_line`` pass, to its own tolerance, on a window
whose discarded tail is below 1e-14.  ``compute_metric_report`` is one
such pass; each single-functional function integrates only its own
columns.  Delta is always integrated in two independently coded forms,
which must agree to 1e-7 relative or ``FormMismatch`` is raised.
``regret_score_form`` is an independent route to ``regret`` through
linear-space atom sums; it is not run alongside it, and the tests
compare the two (``test_metrics``, ``test_acceptance`` test_07,
``test_families``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

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
    "pair_integrals",
    "decomposition_residual",
    "compute_metric_report",
    "hellinger_rate_normalizer",
]

_FORM_REL_TOL = 1e-7
_FORM_ABS_FLOOR = 1e-12
_TAIL_MASS = 1e-14


class FormMismatch(RuntimeError):
    """Two algebraically equal routes disagreed beyond tolerance."""


def integration_window(*models):
    """IntegrationSpec with default tolerances whose window covers every model's support.

    The radius guarantees that the (1 + y^2)-weighted tail of each
    marginal beyond the window is below 1e-14.
    """
    bound = max(m.support_bound for m in models) ** 2
    return IntegrationSpec(truncation_radius=gaussian_tail_radius(bound, _TAIL_MASS))


def _as_models(*priors_or_models):
    return tuple(p if isinstance(p, MarginalModel) else MarginalModel(p) for p in priors_or_models)


class _PairState:
    """log f, f and posterior mean of both marginals at one batch of nodes.

    Each model is evaluated once per batch (``MarginalModel.evaluate``).
    """

    def __init__(self, model_g, model_h, y):
        self.model_g, self.model_h, self.y = model_g, model_h, y
        (self.lg, pg), (self.lh, ph) = model_g.evaluate(y), model_h.evaluate(y)
        self.fg, self.fh = np.exp(self.lg), np.exp(self.lh)
        self.mg, self.mh = pg @ model_g.atoms, ph @ model_h.atoms


def _flux_gprime(s):
    """Delta integrand from (f_G - f_H) / phi differentiated atom by atom."""
    half_log_fbar = 0.5 * (np.logaddexp(s.lg, s.lh) - math.log(2.0))

    def scaled_flux(model):
        terms = np.exp(log_phi(s.y[..., None] - model.atoms) - half_log_fbar[..., None])
        return terms @ (model.weights * model.atoms)

    diff = scaled_flux(s.model_g) - scaled_flux(s.model_h)
    return diff * diff


def _regret_score(s):
    """Regret integrand from direct (linear-space) atom sums for f and f'."""

    def density_and_score(model):
        diff = model.atoms - s.y[..., None]
        kernel = np.exp(log_phi(diff))
        f = kernel @ model.weights
        return f, ((kernel * diff) @ model.weights) / f

    fg, sg = density_and_score(s.model_g)
    _, sh = density_and_score(s.model_h)
    return (sg - sh) ** 2 * fg


def _clipped_regret(s, rho):
    """Regret integrand of the rules whose scores use f v rho in place of f."""
    dg = s.fg * (s.mg - s.y)
    dh = s.fh * (s.mh - s.y)
    diff = dg / np.maximum(s.fg, rho) - dh / np.maximum(s.fh, rho)
    return diff * diff * s.fg


# each functional's integrand as a formula over the pair state
_FORMULAS = {
    "hellinger_sq": lambda s: (np.exp(0.5 * s.lg) - np.exp(0.5 * s.lh)) ** 2,
    "delta": lambda s: (s.fg - s.fh) ** 2 / (2.0 * (s.fg + s.fh)),
    "delta_flux": lambda s: 2.0 * (s.fg * s.mg - s.fh * s.mh) ** 2 / (s.fg + s.fh),
    "regret": lambda s: (s.mh - s.mg) ** 2 * s.fg,
    "regret_score_form": _regret_score,
}


def pair_integrals(model_g, model_h, names=(), rhos=(), spec=None):
    """Integrals of the named functionals and of the clipped regret at each rho.

    ``names`` pick from hellinger_sq, delta, delta_flux, regret and
    regret_score_form; all come from one ``integrate_line`` pass over the
    pair state, each to its own tolerance.  Returns a dict keyed by name
    and by rho.  ``delta_flux`` is integrated in both forms;
    ``FormMismatch`` is raised if they disagree beyond 1e-7 relative.
    """
    rhos = list(dict.fromkeys(float(r) for r in rhos))
    if not all(rho > 0.0 for rho in rhos):
        raise ValueError("rho must be positive")
    model_g, model_h = _as_models(model_g, model_h)
    spec = spec or integration_window(model_g, model_h)
    formulas = [_FORMULAS[name] for name in names]
    formulas += [functools.partial(_clipped_regret, rho=rho) for rho in rhos]
    checked = "delta_flux" in names
    if checked:
        formulas.append(_flux_gprime)

    def integrand(y):
        state = _PairState(model_g, model_h, y)
        return np.stack([formula(state) for formula in formulas], axis=-1)

    values = [float(v) for v in integrate_line(integrand, spec)]
    if checked:
        first, second = values[names.index("delta_flux")], values.pop()
        if abs(first - second) > _FORM_REL_TOL * max(abs(first), abs(second)) + _FORM_ABS_FLOOR:
            raise FormMismatch(
                f"score-flux forms disagree: {first!r} vs {second!r} "
                f"(window {spec.truncation_radius:.2f})"
            )
    return dict(zip([*names, *rhos], values))


def hellinger_sq(model_g, model_h, spec=None):
    """Squared Hellinger distance between the two marginals."""
    return pair_integrals(model_g, model_h, ["hellinger_sq"], spec=spec)["hellinger_sq"]


def delta_stat(model_g, model_h, spec=None):
    """int (f_G - f_H)^2 / (2 (f_G + f_H)); between eps^2 / 2 and eps^2.

    This normalization is the one that sits inside the Hellinger sandwich
    pointwise: (a-b)^2 / (2(a+b)) <= (sqrt(a)-sqrt(b))^2 <= (a-b)^2/(a+b),
    and the one the regret reduction constant 16 is calibrated against.
    """
    return pair_integrals(model_g, model_h, ["delta"], spec=spec)["delta"]


def Delta_stat(model_g, model_h, spec=None):
    """Score-flux statistic 2 int (m_G f_G - m_H f_H)^2 / (f_G + f_H).

    Computed twice: once from posterior means and log-space densities,
    once by differentiating (f_G - f_H) / phi atom by atom, which reduces
    the integrand to (sum_i w_i u_i phi(y - u_i) / sqrt(fbar))^2
    differences.  The two routes must agree to 1e-7 relative.
    """
    return pair_integrals(model_g, model_h, ["delta_flux"], spec=spec)["delta_flux"]


def regret(model_g, model_h, spec=None):
    """int (m_H - m_G)^2 f_G: excess risk of the rule tuned to H under G."""
    return pair_integrals(model_g, model_h, ["regret"], spec=spec)["regret"]


def regret_score_form(model_g, model_h, spec=None):
    """Same regret integral written through density-derivative ratios.

    Uses direct (linear-space) atom sums for f and f', a deliberately
    independent code path from ``regret``.
    """
    return pair_integrals(model_g, model_h, ["regret_score_form"], spec=spec)["regret_score_form"]


def regret_regularized(model_g, model_h, rho, spec=None):
    """Regret of the rho-regularized rules: scores use f v rho in place of f."""
    return pair_integrals(model_g, model_h, rhos=[rho], spec=spec)[float(rho)]


def decomposition_residual(model_g, model_h, y):
    """Pointwise residual of the score-difference decomposition.

    The score difference f_G'/f_G - f_H'/f_H equals
    (m_G + m_H)(f_H - f_G)/(f_G + f_H) + 2(m_G f_G - m_H f_H)/(f_G + f_H)
    identically; both sides are evaluated in cancellation-free form and
    the absolute difference returned.
    """
    y = np.asarray(y, dtype=float)
    s = _PairState(*_as_models(model_g, model_h), y)
    imbalance = np.tanh(0.5 * (s.lh - s.lg))  # (f_H - f_G) / (f_G + f_H)
    pg = np.exp(-np.logaddexp(0.0, s.lh - s.lg))  # f_G / (f_G + f_H)
    rhs = (s.mg + s.mh) * imbalance + 2.0 * (s.mg * pg - s.mh * (1.0 - pg))
    out = np.abs(s.mg - s.mh - rhs)
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
    """Every functional of the pair, and the clipped regret at each rho, from one pass."""
    rhos = [float(r) for r in rhos]
    names = ["hellinger_sq", "delta", "delta_flux", "regret"]
    values = pair_integrals(model_g, model_h, names, rhos, spec)
    return MetricReport(
        **{name: values[name] for name in names},
        regret_regularized={rho: values[rho] for rho in rhos},
    )
