import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from eblab import metrics
from eblab.mixtures import (
    _WEIGHT_TOL,
    DiscretePrior,
    MarginalModel,
    _validate_measure,
    check_class_membership,
    class_exp_moment,
    phi,
)


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


def _reference_validate_measure(atoms, weights):
    """The wrapper-based validator that ``_validate_measure`` replaced, kept as its oracle."""
    atoms = np.atleast_1d(np.asarray(atoms, dtype=float))
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if atoms.ndim != 1 or weights.ndim != 1 or atoms.size != weights.size:
        raise ValueError("atoms and weights must be 1-d arrays of equal length")
    if atoms.size == 0:
        raise ValueError("prior needs at least one atom")
    if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(weights)):
        raise ValueError("non-finite prior data")
    if np.any(weights < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    order = np.argsort(atoms)
    atoms = atoms[order]
    weights = weights[order]
    if atoms.size > 1 and np.any(np.diff(atoms) <= 0.0):
        raise ValueError("atoms must be distinct")
    return atoms, weights


# atoms from a small pool repeat often; 0.0 and -0.0 are equal atoms
_ATOM = st.one_of(st.floats(width=64), st.sampled_from([0.0, -0.0, 0.5, -0.5, math.nan, math.inf]))
_WEIGHT = st.one_of(st.floats(0.0, 1.0), st.floats(width=64))


@st.composite
def _measures(draw):
    """(atoms, weights), well-formed or not: bad values, bad sums, repeats, bad shapes."""
    atoms = draw(st.lists(_ATOM, max_size=6))
    kind = draw(st.sampled_from(["simplex", "near-one", "raw", "2-d", "unequal", "scalar"]))
    if kind in ("simplex", "near-one", "2-d"):
        raw = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=len(atoms), max_size=len(atoms))))
        weights = raw / raw.sum() if raw.size else raw
        if kind == "near-one" and weights.size:
            weights[0] += draw(st.sampled_from([2e-12, -2e-12, 5e-13, -5e-13]))
        if kind == "2-d":
            return np.reshape(atoms, (1, -1)), weights.reshape(1, -1)
        return atoms, weights
    if kind == "unequal":
        return atoms, draw(st.lists(_WEIGHT, max_size=6).filter(lambda w: len(w) != len(atoms)))
    if kind == "scalar":
        return draw(_ATOM), draw(_WEIGHT)
    return atoms, draw(st.lists(_WEIGHT, min_size=len(atoms), max_size=len(atoms)))


def _outcome(validate, atoms, weights):
    try:
        return validate(atoms, weights)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(measure=_measures())
def test_validate_measure_matches_the_wrapper_based_oracle(measure):
    atoms, weights = measure
    # np.diff overflows on far-apart finite atoms; the comparison that replaced it does not
    with np.errstate(over="ignore"):
        expected = _outcome(_reference_validate_measure, atoms, weights)
    got = _outcome(_validate_measure, atoms, weights)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_prior_sorting_and_moments():
    prior = DiscretePrior([2.0, -1.0], [0.25, 0.75])
    assert np.array_equal(prior.atoms, [-1.0, 2.0])
    assert np.array_equal(prior.weights, [0.75, 0.25])
    assert prior.support_bound == 2.0


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
        moved = MarginalModel(DiscretePrior(prior.atoms + mu, prior.weights))
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


def _prior_from_pairs(pairs):
    atoms, weights = zip(*pairs)
    weights = np.asarray(weights)
    return DiscretePrior(atoms, weights / weights.sum())


# 1-6 atoms on [-3, 3]
_PRIORS = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 1.0)),
    min_size=1,
    max_size=6,
    unique_by=lambda pair: pair[0],
).map(_prior_from_pairs)

_EVALUATORS = {
    "log_density": (),
    "density": (),
    "posterior_mean": (),
    "posterior_second_moment": (),
    "posterior_variance": (),
    "score": (),
    "density_derivative": (),
    "regularized_rule": (0.05,),
}


def _count_builds(monkeypatch):
    """Patch MarginalModel._log_terms to count its calls; returns the counter."""
    builds = [0]
    build = MarginalModel._log_terms

    def counted(self, y):
        builds[0] += 1
        return build(self, y)

    monkeypatch.setattr(MarginalModel, "_log_terms", counted)
    return builds


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
def test_each_evaluator_builds_the_log_terms_once(monkeypatch, name):
    builds = _count_builds(monkeypatch)
    model = MarginalModel(DiscretePrior([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3]))
    for y in (0.3, np.linspace(-4.0, 4.0, 9)):
        builds[0] = 0
        getattr(model, name)(*_EVALUATORS[name], y)
        assert builds[0] == 1


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
def test_evaluators_on_a_2d_array_are_the_flat_call_reshaped(name):
    rng = np.random.default_rng(11)
    y = rng.uniform(-6.0, 6.0, (3, 7))
    for size in (1, 3, 8, 12):
        model = MarginalModel(DiscretePrior(rng.uniform(-3.0, 3.0, size), rng.dirichlet(np.ones(size))))
        grid = getattr(model, name)(*_EVALUATORS[name], y)
        flat = getattr(model, name)(*_EVALUATORS[name], y.ravel())
        assert grid.shape == y.shape
        assert grid.tobytes() == flat.reshape(y.shape).tobytes()


def test_pair_pass_builds_the_log_terms_twice_per_integrand_call(monkeypatch):
    builds = _count_builds(monkeypatch)
    per_call = []
    integrate = metrics.integrate_line

    def counting(f, spec):
        def integrand(y):
            before = builds[0]
            out = f(y)
            per_call.append(builds[0] - before)
            return out

        return integrate(integrand, spec)

    monkeypatch.setattr(metrics, "integrate_line", counting)
    g = DiscretePrior([-0.7, 0.2, 1.1], [0.3, 0.5, 0.2])
    h = DiscretePrior([-0.4, 0.9], [0.6, 0.4])
    metrics.pair_integrals(g, h, ["regret"])
    assert per_call and all(count == 2 for count in per_call)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    g=_PRIORS,
    h=_PRIORS,
    ys=st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=50),
    data=st.data(),
)
def test_evaluate_is_one_normalized_log_sum_exp(g, h, ys, data):
    model = MarginalModel(g)
    y = np.asarray(ys)
    log_f, weights = model.evaluate(y)
    oracle = logsumexp(model._log_terms(y), axis=0)
    assert np.all(np.abs(log_f - oracle) <= 1e-14 * np.abs(oracle))
    assert np.all(weights >= 0.0)
    assert np.all(np.abs(weights.sum(axis=0) - 1.0) <= 1e-14)
    # the pair state of a node batch is the pair states of its parts, concatenated
    cut = data.draw(st.integers(1, y.size - 1))
    whole = metrics._PairState(model, MarginalModel(h), y)
    parts = [metrics._PairState(model, MarginalModel(h), part) for part in (y[:cut], y[cut:])]
    for name in ("lg", "lh", "mg", "mh"):
        joined = np.concatenate([getattr(part, name) for part in parts])
        assert np.all(np.abs(getattr(whole, name) - joined) <= 1e-14 * np.abs(joined))
