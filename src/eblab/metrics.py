"""Divergence and regret functionals between two mixture marginals.

Every quantity is an integral over the real line of a formula in one
pointwise pair state: the marginal densities f_G, f_H, their logs, and
the posterior means m_G, m_H.  ``pair_integrals`` keys them by name:

* ``hellinger_sq``  eps^2 = int (sqrt(f_G) - sqrt(f_H))^2
* ``delta``         int (f_G - f_H)^2 / (2 (f_G + f_H))
* ``delta_flux``    Delta = 2 int (m_G f_G - m_H f_H)^2 / (f_G + f_H)
* ``regret``        int (m_H - m_G)^2 f_G, and ``regret_score_form``, the
  same integral through linear-space atom sums
* each rho          int (f_G'/(f_G v rho) - f_H'/(f_H v rho))^2 f_G

One entry point serves each shape of work.  ``pair_integrals`` evaluates
the state once per batch of nodes and integrates each requested
functional as one column of a single vector-valued ``integrate_line``
pass, to its own tolerance, on a window whose discarded tail is below
1e-14; ``compute_metric_report`` is its pass over the four report
functionals.  ``compute_metric_reports`` integrates the named
functionals (the four report ones by default) of a sweep of pairs in
one ``integrate_lines`` pass: each side's priors are stacked once, one
column per pair (``MarginalModel._stack``, which pads a prior with
fewer atoms by weight-0 atoms), and each call gathers for each node the
column of its own pair, so each pair's dict equals its
``pair_integrals`` bit for bit while 100 pairs share about 15 integrand
calls; the ``families`` spike sweep and the ``npmle`` fits are scored
with it too.  A clipping level rho must be positive and finite.  This
rests on one summation order: every sum over atoms adds the nodes'
(atoms, nodes) terms atom by atom, so a node's value does not depend on
who shares its call, and a pad adds only exact zeros.
Each pass checks itself, pair by pair: Delta's two independently coded
forms must agree to 1e-7 relative (``FormMismatch``), and eps^2 must
reach its two-cell floor (``ToleranceNotMet``).  ``regret_score_form``
is not run alongside ``regret``; the tests compare the two.
``decomposition_residual`` checks the pair state's posterior means
against the same linear-space sums.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .mixtures import MarginalModel, _per_atom, log_phi
from .quadrature import (IntegrationSpec, ToleranceNotMet, gaussian_tail_radius, integrate_line,
                         integrate_lines)

__all__ = [
    "FormMismatch",
    "integration_window",
    "pair_integrals",
    "decomposition_residual",
    "compute_metric_report",
    "compute_metric_reports",
    "hellinger_rate_normalizer",
]

_FORM_REL_TOL = 1e-7
_FORM_ABS_FLOOR = 1e-12
_FLOOR_REL_TOL = 1e-7
_TAIL_MASS = 1e-14
# the window radius for _TAIL_MASS is finite only up to a support bound of 1.5e147
_MAX_SUPPORT_BOUND = 1e147


class FormMismatch(RuntimeError):
    """Two algebraically equal routes disagreed beyond tolerance."""


def integration_window(*models):
    """IntegrationSpec with default tolerances whose window covers every model's support.

    The radius guarantees that the (1 + y^2)-weighted tail of each
    marginal beyond the window is below 1e-14.
    """
    bound = max(m.support_bound for m in models)
    if bound > _MAX_SUPPORT_BOUND:
        raise ValueError(f"support bound {bound:.6g} is past {_MAX_SUPPORT_BOUND:.0e}: "
                         "the integration window would overflow")
    return IntegrationSpec(truncation_radius=gaussian_tail_radius(bound**2, _TAIL_MASS))


def _as_models(*priors_or_models):
    return tuple(p if isinstance(p, MarginalModel) else MarginalModel(p) for p in priors_or_models)


class _PairState:
    """log f, f and posterior mean of both marginals at one batch of nodes.

    Each model is evaluated once per batch (``MarginalModel.evaluate``).
    Sums over atoms here and in the integrands are ``_atom_sum``: the
    (atoms, nodes) terms are added atom by atom, so a node's value does
    not depend on the batch it is in, for batches of two or more nodes.
    A single node's terms form one contiguous run, which numpy sums
    pairwise from 8 atoms on and may round differently; the integrators
    call with at least 15 nodes.
    """

    def __init__(self, model_g, model_h, y):
        self.model_g, self.model_h, self.y = model_g, model_h, y
        (self.lg, pg), (self.lh, ph) = model_g.evaluate(y), model_h.evaluate(y)
        self.fg, self.fh = np.exp(self.lg), np.exp(self.lh)
        self.mg, self.mh = _atom_sum(pg, model_g.atoms), _atom_sum(ph, model_h.atoms)
        # (f_G - f_H) / (f_G + f_H) from the logs: finite where both densities underflow
        self.imbalance = np.tanh(0.5 * (self.lg - self.lh))


def _atom_sum(terms, per_atom):
    """sum_i terms_i * per_atom_i over the leading axis of the (atoms, *shape) array ``terms``."""
    return (terms * _per_atom(per_atom, terms.ndim - 1)).sum(axis=0)


def _flux_gprime(s):
    """Delta integrand from (f_G - f_H) / phi differentiated atom by atom."""
    half_log_fbar = 0.5 * (np.logaddexp(s.lg, s.lh) - math.log(2.0))

    def scaled_flux(model):
        terms = np.exp(log_phi(s.y - _per_atom(model.atoms, s.y.ndim)) - half_log_fbar)
        return _atom_sum(terms, model.weights * model.atoms)

    diff = scaled_flux(s.model_g) - scaled_flux(s.model_h)
    return diff * diff


def _linear_density_and_score(model, y):
    """f and the score f'/f from direct (linear-space) atom sums, not from ``evaluate``.

    The sums run over the atoms of positive weight, on the kernel divided by
    its largest term at each node: the score is unchanged by that scale and
    stays finite where f itself underflows.  A weight-0 atom's log kernel is
    -inf, so its kernel is an exact 0.
    """
    weights, diff = model.weights, _per_atom(model.atoms, y.ndim) - y
    log_kernel = np.where(_per_atom(weights, y.ndim) > 0.0, log_phi(diff), -np.inf)
    top = log_kernel.max(axis=0)
    kernel = np.exp(log_kernel - top)
    scaled_f = _atom_sum(kernel, weights)
    return np.exp(top) * scaled_f, _atom_sum(kernel * diff, weights) / scaled_f


def _regret_score(s):
    """Regret integrand from direct (linear-space) atom sums for f and f'."""
    fg, sg = _linear_density_and_score(s.model_g, s.y)
    _, sh = _linear_density_and_score(s.model_h, s.y)
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
    "delta": lambda s: 0.5 * (s.fg + s.fh) * s.imbalance**2,
    # 2 (m_G f_G - m_H f_H) / (f_G + f_H) = m_G - m_H + imbalance (m_G + m_H)
    "delta_flux": lambda s: 0.5 * (s.fg + s.fh) * (s.mg - s.mh + s.imbalance * (s.mg + s.mh)) ** 2,
    "regret": lambda s: (s.mh - s.mg) ** 2 * s.fg,
    "regret_score_form": _regret_score,
}


def _pair_formulas(names, rhos):
    """A pair pass's columns: each named formula, a clipped regret per rho, Delta's second form."""
    for rho in rhos:
        if not 0.0 < rho < math.inf:
            raise ValueError(f"rho must be positive and finite, not {rho!r}")
    formulas = [_FORMULAS[name] for name in names]
    formulas += [functools.partial(_clipped_regret, rho=rho) for rho in rhos]
    if "delta_flux" in names:
        formulas.append(_flux_gprime)
    return formulas


def _columns(formulas, state):
    return np.stack([formula(state) for formula in formulas], axis=-1)


# numpy has no erfc: math.erfc of each entry of an array, as an object array
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _hellinger_floor(model_g, model_h):
    """(floor, t): the squared Hellinger distance of the marginals on the cells y > t and y <= t.

    A lower bound on eps^2 (data processing), with t halfway between the
    priors' largest atoms of positive weight.  For stacked models
    (``MarginalModel._stack``) both are arrays, one entry per column.  Each
    cell's chances under G and H are tail sums of their own; the gap
    between them is one sum over both priors' atoms, an atom of H that G
    also has merged into G's signed weight, so nothing cancels and
    identical priors give a gap of exactly zero.
    """
    ag, wg, ah, wh = (np.reshape(x, (len(x), -1)) for m in (model_g, model_h) for x in (m.atoms, m.weights))
    t = 0.5 * (np.where(wg > 0.0, ag, -np.inf).max(axis=0) + np.where(wh > 0.0, ah, -np.inf).max(axis=0))
    shared = ah[:, None] == ag  # an H atom is merged into the first G atom it equals: a pad repeats one
    merged = shared & (shared.cumsum(axis=1) == 1)
    signed = np.concatenate((wg - (merged * wh[:, None]).sum(axis=0), np.where(shared.any(axis=1), 0.0, -wh)))
    z = (t - np.concatenate((ag, ah))) / math.sqrt(2.0)
    up, down = (_ERFC(side * z).astype(float) for side in (1.0, -1.0))  # 2 P(y > t), 2 P(y <= t) per atom
    gap = (signed * 0.5 * up).sum(axis=0)
    roots = [np.sqrt((wg * 0.5 * cell[: len(ag)]).sum(axis=0))
             + np.sqrt((wh * 0.5 * cell[len(ag) :]).sum(axis=0)) for cell in (up, down)]
    floor = sum(np.divide(gap, s, out=np.zeros_like(gap), where=s > 0.0) ** 2 for s in roots)
    return (floor, t) if model_g.atoms.ndim == 2 else (float(floor[0]), float(t[0]))


def _checked_values(values, names, rhos, spec, floor):
    """One pass's integrals keyed by name and rho, once Delta's two forms agree and eps^2 its ``floor``.

    ``floor`` is ``_hellinger_floor``'s (floor, t), read only when the
    pass integrates hellinger_sq.
    """
    values = [float(v) for v in values]
    if "delta_flux" in names:
        first, second = values[names.index("delta_flux")], values.pop()
        if abs(first - second) > _FORM_REL_TOL * max(abs(first), abs(second)) + _FORM_ABS_FLOOR:
            raise FormMismatch(
                f"score-flux forms disagree: {first!r} vs {second!r} "
                f"(window {spec.truncation_radius:.2f})"
            )
    if "hellinger_sq" in names:
        eps_sq = values[names.index("hellinger_sq")]
        floor, t = floor
        if eps_sq < floor * (1.0 - _FLOOR_REL_TOL):
            raise ToleranceNotMet(f"eps^2 = {eps_sq!r} is below its lower bound {floor!r} from the "
                                  f"cell y > {t!r}: no panel resolved an atom",
                                  estimate=eps_sq, error_bound=math.inf)
    return dict(zip([*names, *rhos], values))


def pair_integrals(model_g, model_h, names=(), rhos=(), spec=None):
    """Integrals of the named functionals and of the clipped regret at each rho.

    ``names`` pick from hellinger_sq, delta, delta_flux, regret and
    regret_score_form; all come from one ``integrate_line`` pass over the
    pair state, each to its own tolerance.  Returns a dict keyed by name
    and by rho (as a float).  A rho that is not positive and finite
    raises ``ValueError`` before any integration.

    ``delta`` sits inside the Hellinger sandwich pointwise,
    (a-b)^2 / (2(a+b)) <= (sqrt(a)-sqrt(b))^2 <= (a-b)^2/(a+b), so
    eps^2 / 2 <= delta <= eps^2; it is the normalization the regret
    reduction constant 16 is calibrated against.  ``delta_flux`` is
    integrated in two forms: from posterior means and log-space
    densities, and by differentiating (f_G - f_H) / phi atom by atom,
    which reduces the integrand to differences of
    (sum_i w_i u_i phi(y - u_i) / sqrt(fbar))^2; ``FormMismatch`` is
    raised if they disagree beyond 1e-7 relative.  ``hellinger_sq``
    raises ``ToleranceNotMet`` if it reads below its two-cell floor.
    """
    rhos = list(dict.fromkeys(float(r) for r in rhos))
    formulas = _pair_formulas(names, rhos)
    models = _as_models(model_g, model_h)
    spec = spec or integration_window(*models)

    def integrand(y):
        return _columns(formulas, _PairState(*models, y))

    floor = _hellinger_floor(*models) if "hellinger_sq" in names else None
    return _checked_values(integrate_line(integrand, spec), names, rhos, spec, floor)


def decomposition_residual(model_g, model_h, y):
    """Pointwise residual of the score-difference decomposition.

    The score difference f_G'/f_G - f_H'/f_H equals
    (m_G + m_H)(f_H - f_G)/(f_G + f_H) + 2(m_G f_G - m_H f_H)/(f_G + f_H)
    identically.  The left side comes from direct (linear-space) atom sums
    for f and f', the right side from the log-space pair state, so a wrong
    posterior mean or density in either route shows as a residual.  Both
    sides stay finite where the densities underflow, as far from the atoms
    as the pair state does.  Returns the absolute difference.
    """
    y = np.asarray(y, dtype=float)
    s = _PairState(*_as_models(model_g, model_h), y)
    _, score_g = _linear_density_and_score(s.model_g, y)
    _, score_h = _linear_density_and_score(s.model_h, y)
    pg = np.exp(-np.logaddexp(0.0, s.lh - s.lg))  # f_G / (f_G + f_H)
    rhs = 2.0 * (s.mg * pg - s.mh * (1.0 - pg)) - (s.mg + s.mh) * s.imbalance
    out = np.abs(score_g - score_h - rhs)
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


_REPORT_NAMES = ("hellinger_sq", "delta", "delta_flux", "regret")


def compute_metric_report(model_g, model_h, rhos=(), spec=None):
    """``pair_integrals`` of the four report functionals and the clipped regret at each rho."""
    return pair_integrals(model_g, model_h, _REPORT_NAMES, rhos, spec)


def compute_metric_reports(pairs, names=_REPORT_NAMES):
    """``pair_integrals(g, h, names)`` of each (g, h) in ``pairs``, integrated in lock step.

    ``names`` default to the four report functionals, so that each dict
    equals its own ``compute_metric_report``; no clipped regret is
    integrated.  Every pair keeps its own window, targets, budget and
    checks, and its values equal its own ``pair_integrals`` bit for bit;
    the pairs share each integrand call (``quadrature.integrate_lines``)
    in one pass for the whole sweep, whatever their atom counts.  Each side
    is stacked once (``MarginalModel._stack``), a column per pair; each call
    only gathers the columns that ``which`` names.
    """
    formulas = _pair_formulas(names, [])
    if not pairs:
        return []
    models = [_as_models(g, h) for g, h in pairs]
    specs = [integration_window(*pair) for pair in models]
    stacks = [MarginalModel._stack([pair[side] for pair in models]) for side in (0, 1)]

    def integrand(y, which):
        return _columns(formulas, _PairState(*(stack._rows(which) for stack in stacks), y))

    floors = [None] * len(specs)
    if "hellinger_sq" in names:
        floors = zip(*(x.tolist() for x in _hellinger_floor(*stacks)))
    return [_checked_values(integrals, names, [], spec, floor)
            for integrals, spec, floor in zip(integrate_lines(integrand, specs), specs, floors)]
