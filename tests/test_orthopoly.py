import math

import numpy as np
import pytest

from eblab.mixtures import DiscretePrior
from eblab.orthopoly import (
    MAX_STABLE_DEGREE,
    DegreeUnstable,
    HypothesisViolated,
    bernstein_constant,
    build_operators,
    default_window_radius,
    differentiation_matrix,
    jacobi_norm_bound_check,
    operator_norm,
    recurrence_for_weight,
)


def _random_prior(rng, bound, max_atoms=4):
    size = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-bound, bound, size=size))
    while np.any(np.diff(atoms) < 1e-8):
        atoms = np.sort(rng.uniform(-bound, bound, size=size))
    weights = rng.dirichlet(np.ones(size))
    return DiscretePrior(atoms, weights)


def test_point_mass_recurrence_is_hermite():
    # for the point mass at zero w = phi, whose polynomials are H_j / sqrt(j!)
    table = recurrence_for_weight(DiscretePrior([0.0], [1.0]), 10)
    expected_a = np.sqrt(np.arange(1, 12, dtype=float))  # a_1 .. a_{k+1}
    assert np.max(np.abs(table.a - expected_a)) <= 1e-9
    assert np.max(np.abs(table.b)) <= 1e-9


def test_grid_gram_matrix_is_identity():
    rng = np.random.default_rng(21)
    for _ in range(3):
        prior = _random_prior(rng, 1.0)
        table = recurrence_for_weight(prior, 12)
        gram = (table.basis * table.measure) @ table.basis.T
        assert np.max(np.abs(gram - np.eye(table.degree + 2))) <= 1e-8


def test_bernstein_constant_point_mass_is_sqrt_k():
    for k in (4, 9, 16):
        c = bernstein_constant(DiscretePrior([0.0], [1.0]), k)
        assert abs(c - math.sqrt(k)) <= 1e-7 * math.sqrt(k)


def test_operator_identities_hold_to_quadrature_error():
    rng = np.random.default_rng(8)
    prior = _random_prior(rng, 1.5)
    k = 8
    table = recurrence_for_weight(prior, k)
    ops = build_operators(prior, table)
    kp1 = k + 1
    assert ops.L.shape == (kp1, kp1)
    assert differentiation_matrix(table).tobytes() == ops.L.tobytes()  # what bernstein rows read
    assert np.max(np.abs(np.tril(ops.L))) <= 1e-8  # differentiation lowers degree
    assert np.max(np.abs(ops.L - (ops.A + ops.B))) <= 1e-8
    assert np.max(np.abs(ops.S - (ops.L + ops.L.T))) <= 1e-8
    assert np.max(np.abs(np.diag(ops.S))) <= 1e-8
    # J carries the recurrence: symmetric tridiagonal with a on the off-diagonals
    assert ops.J.shape == (k + 2, k + 2)
    assert np.array_equal(ops.J, ops.J.T)
    assert np.allclose(np.diag(ops.J), table.b, atol=0.0)
    assert np.allclose(np.diag(ops.J, 1), table.a, atol=0.0)
    assert np.max(np.abs(ops.J - np.diag(np.diag(ops.J)) - np.diag(np.diag(ops.J, 1), 1) - np.diag(np.diag(ops.J, -1), -1))) == 0.0


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(13)
    for shape in ((5, 5), (7, 3), (2, 9)):
        mat = rng.normal(size=shape)
        exact = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert abs(operator_norm(mat) - exact) <= 1e-8 * exact
    assert operator_norm(np.zeros((4, 4))) == 0.0
    with pytest.raises(ValueError):
        operator_norm(np.ones(3))


def test_default_window_radius_monotone():
    assert default_window_radius(1.0, 10) < default_window_radius(2.0, 10)
    assert default_window_radius(1.0, 10) < default_window_radius(1.0, 20)


def test_degree_cap_and_validation():
    prior = DiscretePrior([0.0], [1.0])
    with pytest.raises(DegreeUnstable):
        recurrence_for_weight(prior, MAX_STABLE_DEGREE + 1)
    with pytest.raises(ValueError):
        recurrence_for_weight(prior, -1)


def test_jacobi_bound_report_point_mass():
    prior = DiscretePrior([0.0], [1.0])
    report = jacobi_norm_bound_check(prior, 8, c1=1.0, c2=1.0)
    assert report.rows_ok
    # hermite rows: a_{j+1}^2 + b_j^2 + a_j^2 = 2j + 1
    assert np.allclose(report.row_lhs, 2.0 * np.arange(9) + 1.0, atol=1e-8)
    assert np.all(report.row_lhs <= report.row_rhs)
    assert abs(report.l_norm - math.sqrt(8)) <= 1e-7
    assert report.j_norm <= report.j_row_bound * (1.0 + 1e-12)
    assert report.empirical_c == report.l_norm / (math.sqrt(8) * math.log(9.0))
    with pytest.raises(HypothesisViolated):
        jacobi_norm_bound_check(prior, 8, c1=0.1, c2=1.0)
    with pytest.raises(HypothesisViolated):
        jacobi_norm_bound_check(prior, 8, c1=1.0, c2=1.5)
    with pytest.raises(ValueError):
        jacobi_norm_bound_check(prior, 8, c1=-1.0, c2=1.0)
    with pytest.raises(ValueError):
        jacobi_norm_bound_check(prior, 0, c1=1.0, c2=1.0)


def test_gram_identity_at_high_degree_wide_support():
    prior = DiscretePrior([-2.0, -0.3, 1.7], [0.3, 0.4, 0.3])
    table = recurrence_for_weight(prior, 40)
    gram = (table.basis * table.measure) @ table.basis.T
    assert np.max(np.abs(gram - np.eye(42))) <= 1e-8


def test_bernstein_constant_nondecreasing_in_degree():
    rng = np.random.default_rng(3)
    prior = _random_prior(rng, 1.0)
    values = [bernstein_constant(prior, k) for k in (2, 4, 8, 16, 32)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_random_polynomials_respect_certified_ratio():
    # the certified constant really is sup ||p'|| / ||p|| over degree <= k
    rng = np.random.default_rng(12)
    prior = _random_prior(rng, 1.5)
    k = 10
    table = recurrence_for_weight(prior, k)
    certified = bernstein_constant(prior, k)
    q = table.basis[: k + 1]
    qd = table.basis_derivative[: k + 1]
    for _ in range(50):
        coeffs = rng.normal(size=k + 1)
        p = coeffs @ q
        pd = coeffs @ qd
        norm_p = math.sqrt(float(np.dot(p * p, table.measure)))
        norm_pd = math.sqrt(float(np.dot(pd * pd, table.measure)))
        assert norm_pd <= (certified + 1e-6) * norm_p


def test_bernstein_constant_within_certified_envelope():
    rng = np.random.default_rng(4)
    k = 12
    for _ in range(4):
        prior = _random_prior(rng, 1.0)
        c = bernstein_constant(prior, k)
        assert 0.0 < c <= (2.0 * 1.0 + 1.0) * math.sqrt(k + 1.0) + 1e-6
