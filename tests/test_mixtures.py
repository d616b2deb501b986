import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eblab.mixtures import (
    DiscretePrior,
    MarginalModel,
    QuadraturePrior,
    check_class_membership,
    class_exp_moment,
    log_weight_w,
    phi,
    weight_w,
)
from eblab.quadrature import chebyshev_rule


def _random_prior(rng, bound, max_atoms=6):
    size = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-bound, bound, size=size))
    while np.any(np.diff(atoms) < 1e-8):
        atoms = np.sort(rng.uniform(-bound, bound, size=size))
    weights = rng.dirichlet(np.ones(size))
    return DiscretePrior(atoms, weights)


def test_prior_validation():
    with pytest.raises(ValueError):
        DiscretePrior([0.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscretePrior([0.0, 1.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        DiscretePrior([0.0, 1.0], [1.2, -0.2])
    with pytest.raises(ValueError):
        DiscretePrior([], [])


def test_prior_sorting_and_moments():
    prior = DiscretePrior([2.0, -1.0], [0.25, 0.75])
    assert np.array_equal(prior.atoms, [-1.0, 2.0])
    assert np.array_equal(prior.weights, [0.75, 0.25])
    assert prior.support_bound == 2.0
    assert abs(prior.second_moment - (0.75 + 4 * 0.25)) <= 1e-15


def test_prior_json_round_trip():
    prior = DiscretePrior([-1.5, 0.5, 2.0], [0.2, 0.3, 0.5])
    back = DiscretePrior.from_json(prior.to_json())
    assert np.array_equal(back.atoms, prior.atoms)
    assert np.array_equal(back.weights, prior.weights)


def test_point_mass_posterior_identities():
    model = MarginalModel(DiscretePrior.point(1.5))
    y = np.linspace(-6, 6, 41)
    assert np.allclose(model.density(y), phi(y - 1.5), atol=1e-15)
    # point prior: posterior mean is the atom, score is u - y
    assert np.allclose(model.posterior_mean(y), 1.5, atol=1e-13)
    assert np.allclose(model.score(y), 1.5 - y, atol=1e-13)
    assert np.allclose(model.posterior_variance(y), 0.0, atol=1e-13)


def test_two_point_posterior_mean_tanh():
    b = 1.7
    model = MarginalModel(DiscretePrior([-b, b], [0.5, 0.5]))
    y = np.linspace(-8, 8, 101)
    assert np.allclose(model.posterior_mean(y), b * np.tanh(b * y), atol=1e-12)


def test_posterior_mean_matches_bayes_average():
    rng = np.random.default_rng(11)
    for _ in range(10):
        prior = _random_prior(rng, 2.5)
        model = MarginalModel(prior)
        y = rng.uniform(-5, 5, size=7)
        lik = phi(y[:, None] - prior.atoms[None, :]) * prior.weights[None, :]
        direct = (lik * prior.atoms[None, :]).sum(axis=1) / lik.sum(axis=1)
        assert np.allclose(model.posterior_mean(y), direct, atol=1e-12)


def test_shift_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        prior = _random_prior(rng, 2.0)
        mu = float(rng.uniform(-3, 3))
        y = rng.uniform(-4, 4, size=9)
        base = MarginalModel(prior)
        moved = MarginalModel(prior.shift(mu))
        assert np.allclose(moved.posterior_mean(y + mu), base.posterior_mean(y) + mu, atol=1e-10)
        assert np.allclose(moved.density(y + mu), base.density(y), atol=1e-13)


def test_score_and_derivative_finite_difference():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(5):
        prior = _random_prior(rng, 2.0)
        model = MarginalModel(prior)
        y = rng.uniform(-4, 4, size=6)
        fd_f = (model.density(y + h) - model.density(y - h)) / (2 * h)
        assert np.allclose(model.density_derivative(y), fd_f, atol=1e-8)
        fd_m = (model.posterior_mean(y + h) - model.posterior_mean(y - h)) / (2 * h)
        assert np.allclose(model.posterior_variance(y), fd_m, atol=1e-6)


def test_score_matches_log_density_slope():
    rng = np.random.default_rng(17)
    grid = np.linspace(-10.0, 10.0, 200)
    h = 1e-5
    for _ in range(5):
        model = MarginalModel(_random_prior(rng, 2.0))
        fd = (model.log_density(grid + h) - model.log_density(grid - h)) / (2 * h)
        assert np.max(np.abs(model.score(grid) - fd)) <= 1e-6


def test_shifted_score_linear_growth():
    # priors holding at least half their mass inside [-a, a] keep
    # |y + m(y)| below (3 + a + sqrt(log 4)) (|y| + 1)
    grid = np.linspace(-10.0, 10.0, 200)
    cases = [
        (DiscretePrior([-0.4, 0.3, 4.0], [0.3, 0.3, 0.4]), 0.5),
        (DiscretePrior([-6.0, 0.0, 5.5], [0.25, 0.5, 0.25]), 1.0),
        (DiscretePrior([-1.5, 1.5], [0.5, 0.5]), 1.5),
    ]
    for prior, a in cases:
        inside = np.abs(np.asarray(prior.atoms)) <= a
        assert float(np.sum(np.asarray(prior.weights)[inside])) >= 0.5
        model = MarginalModel(prior)
        vprime = grid + model.posterior_mean(grid)
        bound = (3.0 + a + math.sqrt(math.log(4.0))) * (np.abs(grid) + 1.0)
        assert np.all(np.abs(vprime) <= bound)


def test_density_matches_naive_sum_where_representable():
    rng = np.random.default_rng(23)
    ys = np.linspace(-12.0, 12.0, 97)
    for _ in range(5):
        prior = _random_prior(rng, 2.0)
        model = MarginalModel(prior)
        naive = phi(ys[:, None] - prior.atoms) @ prior.weights
        ok = naive > 1e-290  # away from linear-space underflow
        assert np.all(ok)
        assert np.max(np.abs(model.density(ys) - naive) / naive) <= 1e-12
        naive_mean = (phi(ys[:, None] - prior.atoms) * prior.atoms) @ prior.weights / naive
        assert np.max(np.abs(model.posterior_mean(ys) - naive_mean)) <= 1e-12


def test_log_density_tail_monotone_past_support():
    model = MarginalModel(DiscretePrior([-2.0, 1.0], [0.4, 0.6]))
    right = model.log_density(np.linspace(5.0, 45.0, 81))
    left = model.log_density(np.linspace(-5.0, -45.0, 81))
    assert np.all(np.isfinite(right)) and np.all(np.isfinite(left))
    assert np.all(np.diff(right) < 0.0)
    assert np.all(np.diff(left) < 0.0)


def test_log_density_far_tail_finite():
    model = MarginalModel(DiscretePrior([-2.0, 2.0], [0.5, 0.5]))
    y = np.array([-40.0, -25.0, 25.0, 40.0])
    logs = model.log_density(y)
    assert np.all(np.isfinite(logs))
    # tail is dominated by the nearest atom
    assert np.all(logs <= -0.5 * (np.abs(y) - 2.0) ** 2)


def test_posterior_second_moment_consistency():
    rng = np.random.default_rng(9)
    prior = _random_prior(rng, 2.0)
    model = MarginalModel(prior)
    y = rng.uniform(-4, 4, size=8)
    sec = model.posterior_second_moment(y)
    var = model.posterior_variance(y)
    mean = model.posterior_mean(y)
    assert np.allclose(sec - mean**2, var, atol=1e-12)


def test_weight_w_matches_direct_ratio():
    g = MarginalModel(DiscretePrior([-1.0, 1.0], [0.5, 0.5]))
    h = MarginalModel(DiscretePrior.point(0.3))
    y = np.linspace(-5, 5, 21)
    direct = phi(y) ** 2 / (0.5 * (g.density(y) + h.density(y)))
    assert np.allclose(weight_w(g, h, y), direct, rtol=1e-12)
    assert np.allclose(np.exp(log_weight_w(g, h, y)), direct, rtol=1e-12)


def test_quadrature_prior_exposes_rule():
    prior = QuadraturePrior(chebyshev_rule(8))
    assert prior.atoms.size == 8
    assert abs(prior.weights.sum() - 1.0) <= 1e-14
    assert abs(prior.second_moment - 0.5) <= 1e-13
    assert prior.support_bound <= 1.0
    model = MarginalModel(prior)
    assert abs(model.density(0.3) - float(np.dot(prior.weights, phi(0.3 - prior.atoms)))) <= 1e-15


def test_class_membership_exponential_moment():
    # E exp((|U|/sigma)^alpha) is a finite sum for atomic priors
    prior = DiscretePrior([-1.0, 0.5], [0.25, 0.75])
    alpha, sigma = 2.0, 2.0
    expected = 0.25 * math.exp((1.0 / sigma) ** alpha) + 0.75 * math.exp((0.5 / sigma) ** alpha)
    assert abs(class_exp_moment(prior, alpha, sigma) - expected) <= 1e-12
    assert check_class_membership(prior, alpha, sigma)  # expected ~ 1.06 <= 2
    assert not check_class_membership(prior, alpha, 0.4)  # exp(6.25)/4 >> 2
    # boundary scale: moment == 2 exactly, the relative slack must accept it
    point = DiscretePrior([1.0], [1.0])
    boundary_sigma = (1.0 / math.log(2.0)) ** (1.0 / alpha)
    assert abs(class_exp_moment(point, alpha, boundary_sigma) - 2.0) <= 1e-12
    assert check_class_membership(point, alpha, boundary_sigma)
    with pytest.raises(ValueError):
        class_exp_moment(prior, 0.0, 1.0)
    with pytest.raises(ValueError):
        class_exp_moment(prior, 1.0, -2.0)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    pairs=st.lists(
        st.tuples(st.floats(-4.0, 4.0), st.floats(0.01, 1.0)),
        min_size=1,
        max_size=6,
        unique_by=lambda pair: pair[0],
    ),
    ys=st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=60),
)
def test_posterior_mean_is_nondecreasing(pairs, ys):
    # d/dy E[U | y] is the posterior variance, which is nonnegative
    atoms, weights = zip(*pairs)
    weights = np.asarray(weights)
    model = MarginalModel(DiscretePrior(atoms, weights / weights.sum()))
    means = model.posterior_mean(np.sort(ys))
    assert np.all(np.diff(means) >= -1e-12)
