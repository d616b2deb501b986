"""Gaussian location mixtures and their posterior machinery.

A prior is a probability measure on the location parameter; observing
Y = U + Z with Z ~ N(0, 1) independent of U ~ prior gives the marginal
density f(y) = sum_i w_i phi(y - u_i).  Everything downstream (posterior
mean, score, regularized rules, divergence functionals) reads one
evaluation of that sum: the (atoms, *y.shape) array of
log w_i + log phi(y - u_i) is built once, each point's terms are shifted
by their maximum and exponentiated once, and their sum gives log f while
the normalized terms give the posterior weights.  Densities therefore
stay usable far into the tails, where a naive sum underflows.  The atom
axis leads, so that every sum over atoms is one reduction of the leading
axis: numpy adds whole arrays of points atom by atom instead of reducing
each point's short row on its own.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

__all__ = [
    "LOG_SQRT_2PI",
    "phi",
    "log_phi",
    "DiscretePrior",
    "MarginalModel",
    "class_exp_moment",
    "check_class_membership",
]

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_WEIGHT_TOL = 1e-12  # how far prior weights may sum from one


def phi(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x - LOG_SQRT_2PI)


def log_phi(x):
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - LOG_SQRT_2PI


def _validate_measure(atoms, weights):
    # array methods: on a few atoms the np.all / np.any / np.diff wrappers cost more than the checks
    atoms = np.array(atoms, dtype=float, copy=None, ndmin=1)
    weights = np.array(weights, dtype=float, copy=None, ndmin=1)
    if atoms.ndim != 1 or weights.ndim != 1 or atoms.size != weights.size:
        raise ValueError("atoms and weights must be 1-d arrays of equal length")
    if atoms.size == 0:
        raise ValueError("prior needs at least one atom")
    if not np.isfinite(atoms).all() or not np.isfinite(weights).all():
        raise ValueError("non-finite prior data")
    if (weights < 0.0).any():
        raise ValueError("weights must be nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    order = atoms.argsort()
    atoms = atoms[order]
    weights = weights[order]
    if (atoms[1:] <= atoms[:-1]).any():
        raise ValueError("atoms must be distinct")
    return atoms, weights


class DiscretePrior:
    """Finitely supported mixing distribution.

    Atoms are stored sorted ascending; duplicate atoms are rejected.
    Weights are nonnegative and sum to one within 1e-12.
    """

    def __init__(self, atoms, weights):
        self.atoms, self.weights = _validate_measure(atoms, weights)

    @property
    def support_bound(self):
        return float(np.max(np.abs(self.atoms)))

    def to_json(self):
        return json.dumps({"atoms": self.atoms.tolist(), "weights": self.weights.tolist()})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        for key in ("atoms", "weights"):
            if not isinstance(data, dict) or key not in data:
                raise ValueError(f"prior JSON has no {key!r} key")
        return cls(data["atoms"], data["weights"])

    @classmethod
    def point(cls, u):
        return cls([float(u)], [1.0])

    def __repr__(self):
        return f"DiscretePrior(atoms={self.atoms!r}, weights={self.weights!r})"


def _log_sum_exp(log_terms):
    """(log sum_i exp(t_i), exp(t_i) / sum_i exp(t_i)) along the leading (atom) axis.

    The module's one log-sum-exp: each point's terms are shifted by their
    maximum and exponentiated once, and both results are read off that
    one array.  Each reduction adds whole arrays of points atom by atom.
    """
    shift = log_terms.max(axis=0)
    shifted = np.exp(log_terms - shift)
    total = shifted.sum(axis=0)
    return shift + np.log(total), shifted / total


def _per_atom(values, ndim):
    """``values`` of shape (atoms,) or (atoms, *shape), made to broadcast against (atoms, *shape).

    ``ndim`` is len(shape), the number of point axes.
    """
    return values.reshape(values.shape + (1,) * (ndim + 1 - values.ndim))


class MarginalModel:
    """Evaluator bundle for the marginal density of prior * N(0, 1).

    All evaluators accept scalars or arrays and vectorize elementwise.
    Each is a read of one ``evaluate`` call, which builds the (atoms,
    *y.shape) array of log w_i + log phi(y - u_i) once and reduces it
    once, so the relative accuracy of density, posterior mean, and score
    does not degrade in the tails.
    """

    def __init__(self, prior):
        self.atoms = np.asarray(prior.atoms, dtype=float)
        self.weights = np.asarray(prior.weights, dtype=float)
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(self.weights)
        self.support_bound = float(np.max(np.abs(self.atoms)))

    @staticmethod
    def _stack(models):
        """One model whose column r is ``models[r]``, for ``_rows`` to gather from.

        Each column reuses its model's atoms, weights and log weights.  A
        prior with fewer atoms than the largest is padded with weight-0
        copies of its own first atom, whose log weight is -inf, so a pad
        adds only exact zeros to every sum over atoms.
        """
        sizes = np.array([m.atoms.size for m in models])
        row = np.arange(sizes.max())[:, None]
        live = row < sizes
        # each (row, column)'s place in the models' joined arrays; a pad's is its model's first atom
        index = sizes.cumsum() - sizes + np.where(live, row, 0)

        def joined(name):
            return np.concatenate([getattr(m, name) for m in models])[index]

        stack = copy.copy(models[0])
        stack.atoms = joined("atoms")
        stack.weights = np.where(live, joined("weights"), 0.0)
        stack._log_weights = np.where(live, joined("_log_weights"), -np.inf)
        stack.support_bound = max(m.support_bound for m in models)
        return stack

    def _rows(self, which):
        """For a ``_stack`` of models: the model whose column j is column which[j].

        Atoms, weights and log weights are gathered, not taken again, so
        ``evaluate`` at nodes y with y.shape == which.shape gives node j
        what the model of column which[j] alone would give it.
        """
        rows = copy.copy(self)
        rows.atoms, rows.weights, rows._log_weights = (
            a.take(which, axis=1) for a in (self.atoms, self.weights, self._log_weights))
        return rows

    def _log_terms(self, y):
        """The (atoms, *y.shape) array of log w_i + log phi(y - u_i)."""
        y = np.asarray(y, dtype=float)
        diff = y - _per_atom(self.atoms, y.ndim)
        return _per_atom(self._log_weights, y.ndim) - 0.5 * diff * diff - LOG_SQRT_2PI

    @staticmethod
    def _maybe_scalar(value, y):
        if np.ndim(y) == 0:
            return float(value)
        return value

    def evaluate(self, y):
        """(log f(y), posterior weights P(U = u_i | Y = y)) from one build of the log terms.

        log f has the shape of y.  The weights have shape (atoms,
        *y.shape), atom axis first, as ``_log_sum_exp`` builds them; they
        are nonnegative and sum to one along that axis.
        """
        return _log_sum_exp(self._log_terms(y))

    def log_density(self, y):
        return self._maybe_scalar(self.evaluate(y)[0], y)

    def density(self, y):
        return self._maybe_scalar(np.exp(self.evaluate(y)[0]), y)

    def posterior_mean(self, y):
        return self._maybe_scalar(np.tensordot(self.atoms, self.evaluate(y)[1], 1), y)

    def posterior_second_moment(self, y):
        return self._maybe_scalar(np.tensordot(self.atoms**2, self.evaluate(y)[1], 1), y)

    def posterior_variance(self, y):
        p = self.evaluate(y)[1]
        m1 = np.tensordot(self.atoms, p, 1)
        out = np.maximum(np.tensordot(self.atoms**2, p, 1) - m1 * m1, 0.0)
        return self._maybe_scalar(out, y)

    def score(self, y):
        """f'(y) / f(y), identically posterior_mean(y) - y."""
        out = np.tensordot(self.atoms, self.evaluate(y)[1], 1) - np.asarray(y, dtype=float)
        return self._maybe_scalar(out, y)

    def density_derivative(self, y):
        log_f, p = self.evaluate(y)
        out = np.exp(log_f) * (np.tensordot(self.atoms, p, 1) - np.asarray(y, dtype=float))
        return self._maybe_scalar(out, y)

    def regularized_rule(self, rho, y):
        """Bayes rule with the density clipped from below at rho > 0."""
        if not rho > 0.0:
            raise ValueError("rho must be positive")
        log_f, p = self.evaluate(y)
        y_arr = np.asarray(y, dtype=float)
        f = np.exp(log_f)
        out = y_arr + f * (np.tensordot(self.atoms, p, 1) - y_arr) / np.maximum(f, rho)
        return self._maybe_scalar(out, y)


def class_exp_moment(prior, alpha, sigma):
    """E[exp((|U| / sigma)^alpha)] under the prior, overflow-safe."""
    if not (alpha > 0.0 and sigma > 0.0):
        raise ValueError("alpha and sigma must be positive")
    atoms = np.asarray(prior.atoms, dtype=float)
    weights = np.asarray(prior.weights, dtype=float)
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    exponents = (np.abs(atoms) / sigma) ** alpha
    return float(np.exp(_log_sum_exp(log_w + exponents)[0]))


def check_class_membership(prior, alpha, sigma):
    """Whether E[exp((|U|/sigma)^alpha)] <= 2.

    The comparison allows 1e-9 relative slack so that priors constructed
    to sit exactly on the boundary are not rejected by roundoff.
    """
    return class_exp_moment(prior, alpha, sigma) <= 2.0 * (1.0 + 1e-9)
