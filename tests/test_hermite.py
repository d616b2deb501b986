import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import hermite_e

from eblab import hermite
from eblab.hermite import (
    _hermite_sums,
    _moment_gap_tables,
    alpha_bounds_hold,
    expansion_coefficients,
    moment_gap_table,
    truncation_error,
)
from eblab.families import lowerbound_ratio_sweep
from eblab.mixtures import DiscretePrior
from eblab.quadrature import IntegrationSpec, arcsine_moment, chebyshev_rule, integrate_line


def _random_prior(rng, bound, max_atoms=5):
    size = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-bound, bound, size=size))
    while np.any(np.diff(atoms) < 1e-8):
        atoms = np.sort(rng.uniform(-bound, bound, size=size))
    weights = rng.dirichlet(np.ones(size))
    return DiscretePrior(atoms, weights)


def test_hermite_sums_low_degrees():
    ys = np.linspace(-3.0, 3.0, 11)
    h = _hermite_sums(np.eye(5), ys)[0].T  # series j has the one coefficient a_j = 1: row j is H_j
    assert np.allclose(h[0], 1.0)
    assert np.allclose(h[1], ys)
    assert np.allclose(h[2], ys**2 - 1.0)
    assert np.allclose(h[3], ys**3 - 3.0 * ys)
    assert np.allclose(h[4], ys**4 - 6.0 * ys**2 + 3.0)


def _loop_hermite_sums(coefficients, y, factorial=False):
    """Reference for ``_hermite_sums``: one recurrence step and one addition per degree."""
    coefficients = np.asarray(coefficients, dtype=float)
    y = np.asarray(y, dtype=float)
    acc, acc_prev = np.zeros((2, *y.shape, *coefficients.shape[1:]))
    s_prev, s = np.zeros_like(y), np.ones_like(y)
    for j, a in enumerate(coefficients):
        if j > 0:
            if factorial:
                s_prev, s = s, (y * s - s_prev) / j
            else:
                s_prev, s = s, y * s - (j - 1) * s_prev
        live = a != 0.0
        if live.all():
            acc += np.multiply.outer(s, a)
            acc_prev += np.multiply.outer(s_prev, a)
        elif live.any():
            acc[..., live] += np.multiply.outer(s, a[live])
            acc_prev[..., live] += np.multiply.outer(s_prev, a[live])
    return acc, acc_prev


def _arcsine_rule_gap_exact(m, j):
    """Reference gap of the arcsine law against its m-point Gauss rule, one binomial at a time.

    gap = 2 * 4^(-r) * sum_{t >= 1} (-1)^(t+1) binom(2r, r - t m) for j = 2r;
    odd gaps vanish by symmetry.
    """
    if j % 2 == 1:
        return 0.0
    r = j // 2
    acc = 0
    for t in range(1, r // m + 1):
        term = math.comb(2 * r, r - t * m)
        acc += term if t % 2 == 1 else -term
    return 2 * acc / 4**r


def _relative_gap(value, reference):
    return np.max(np.abs(np.asarray(value) - reference) / np.abs(reference))


def test_hermite_kernel_range_matches_clenshaw():
    # independent route: numpy's Clenshaw evaluation of HermiteE series,
    # out to degrees and arguments where H_j is near the top of double range
    for j, y in ((80, 25.0), (200, 1.0), (200, 16.0), (300, 3.0)):
        unit = np.eye(j + 1)[j]
        assert _relative_gap(_hermite_sums(unit, y)[0], hermite_e.hermeval(y, unit)) <= 1e-12
    rng = np.random.default_rng(120)
    coeffs = rng.normal(size=121)
    ys = np.linspace(-5.0, 5.0, 21)
    assert _relative_gap(_hermite_sums(coeffs, ys)[0], hermite_e.hermeval(ys, coeffs)) <= 1e-12


def test_factorial_scaled_kernel_matches_clenshaw():
    # sum a_j H_j / j! and sum a_j H_{j-1} / (j-1)!, the lowerbound integrand sums
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=151)
    coeffs[::2] = 0.0
    ys = np.linspace(-16.0, 16.0, 17) + 0.3
    factorials = np.array([math.factorial(j) for j in range(151)], dtype=float)
    value, shifted = _hermite_sums(coeffs, ys, factorial=True)
    assert _relative_gap(value, hermite_e.hermeval(ys, coeffs / factorials)) <= 1e-12
    assert _relative_gap(shifted, hermite_e.hermeval(ys, coeffs[1:] / factorials[:-1])) <= 1e-12


def _sparse_matrix(values):
    """Zero out whole rows and columns of ``values``, by masks drawn alongside it."""
    shape = values.shape
    return st.tuples(
        hnp.arrays(bool, shape[0]), hnp.arrays(bool, shape[1]), hnp.arrays(bool, shape)
    ).map(lambda masks: np.where(masks[0][:, None] | masks[1] | masks[2], 0.0, values))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    coeffs=st.tuples(st.integers(1, 320), st.integers(1, 5))
    .flatmap(lambda shape: hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    .flatmap(_sparse_matrix),
    ys=hnp.arrays(float, st.integers(1, 20), elements=st.floats(-1e3, 1e3)),
    factorial=st.booleans(),
)
def test_matrix_sums_equal_column_sums_exactly(coeffs, ys, factorial):
    # plain H_j overflows past j ~ 100 at |y| = 1e3; a column that never uses
    # such a degree must still come out exactly as on its own, and never NaN
    with np.errstate(over="ignore", invalid="ignore"):
        value, shifted = _hermite_sums(coeffs, ys, factorial=factorial)
        assert value.shape == shifted.shape == (ys.size, coeffs.shape[1])
        for c in range(coeffs.shape[1]):
            column, column_shifted = _hermite_sums(coeffs[:, c], ys, factorial=factorial)
            np.testing.assert_array_equal(value[:, c], column)
            np.testing.assert_array_equal(shifted[:, c], column_shifted)
            if not coeffs[:, c].any():
                assert not value[:, c].any() and not shifted[:, c].any()


_BLOCK = hermite._SUM_BLOCK
_EDGE_Y = st.sampled_from([0.0, -0.0, 1e3, -1e3])


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    coeffs=st.tuples(st.integers(1, 240), st.integers(1, 4))
    .flatmap(lambda shape: hnp.arrays(
        float, shape, elements=st.one_of(st.just(-0.0), st.floats(-1e3, 1e3))))
    .flatmap(_sparse_matrix),
    one_series=st.booleans(),
    ys=st.one_of(
        st.one_of(_EDGE_Y, st.floats(-1e3, 1e3)).map(np.float64),
        hnp.arrays(float, st.sampled_from([1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
                   elements=st.one_of(_EDGE_Y, st.floats(-1e3, 1e3))),
    ),
    factorial=st.booleans(),
)
# the first product added is -0.0, and the loop's 0 + (-0.0) is +0.0
@example(coeffs=np.array([[0.0], [1.0]]), one_series=True, ys=np.float64(-0.0), factorial=True)
def test_hermite_sums_equal_the_per_degree_loop_bit_for_bit(coeffs, one_series, ys, factorial):
    # zero rows and columns, -0.0 and negative coefficients, y = 0 and |y| = 1e3
    # (plain H_j overflows), scalar y and node counts around a product block
    if one_series:
        coeffs = coeffs[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        got = _hermite_sums(coeffs, ys, factorial=factorial)
        expected = _loop_hermite_sums(coeffs, ys, factorial=factorial)
    for value, reference in zip(got, expected):
        assert value.shape == reference.shape == np.shape(ys) + coeffs.shape[1:]
        assert value.tobytes() == reference.tobytes()


def test_hermite_orthogonality_under_gaussian_rule():
    # int H_i H_j phi = j! 1{i == j}, checked with a 60-point Gauss rule
    nodes, weights = hermite_e.hermegauss(60)
    vals = _hermite_sums(np.eye(16), nodes)[0].T
    gram = (vals * weights / math.sqrt(2.0 * math.pi)) @ vals.T
    expected = np.diag([math.factorial(j) for j in range(16)])
    assert np.max(np.abs(gram - expected) / np.maximum(expected.diagonal()[:, None], 1.0)) <= 1e-9


def test_expansion_coefficients_match_moment_gaps():
    g = DiscretePrior([-1.0, 1.2], [0.4, 0.6])
    h = DiscretePrior([0.3], [1.0])
    coeffs = expansion_coefficients(g, h, 12)
    assert coeffs.shape == (13,)
    assert coeffs[0] == 0.0  # both priors have unit mass
    for j in range(1, 13):
        direct = (g.weights @ g.atoms**j - h.weights @ h.atoms**j) / math.factorial(j)
        assert abs(coeffs[j] - direct) <= 1e-14 * max(1.0, abs(direct))


def test_series_evaluate_start_drops_leading_terms():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=7)
    ys = np.linspace(-2.0, 2.0, 9)
    head = np.where(np.arange(7) < 3, coeffs, 0.0)
    tail = np.where(np.arange(7) >= 3, coeffs, 0.0)
    full = _hermite_sums(coeffs, ys)[0]
    assert np.allclose(_hermite_sums(tail, ys)[0], full - _hermite_sums(head, ys)[0], atol=1e-12)


def test_truncation_error_matches_parseval_integral():
    # independent route: integrate the squared series tail against phi
    rng = np.random.default_rng(99)
    full_degree = 60
    for k in (4, 9):
        g = _random_prior(rng, 1.5)
        h = _random_prior(rng, 1.5)
        err_g, err_gp = truncation_error(g, h, k)
        tail = expansion_coefficients(g, h, full_degree)
        tail[: k + 1] = 0.0  # keep only degrees > k
        # the tail's derivative sum_{j > k} j c_j H_{j-1}
        deriv = np.arange(1, full_degree + 1) * tail[1:]
        radius = 1.5 + math.sqrt(4.0 * (full_degree + 2) + 2.0) + 6.0
        spec = IntegrationSpec(abs_tol=0.0, rel_tol=1e-10, truncation_radius=radius)

        def tail_sq(y):
            t = _hermite_sums(tail, y)[0]
            return t * t * np.exp(-0.5 * y**2) / math.sqrt(2.0 * math.pi)

        def tail_deriv_sq(y):
            t = _hermite_sums(deriv, y)[0]
            return t * t * np.exp(-0.5 * y**2) / math.sqrt(2.0 * math.pi)

        assert abs(integrate_line(tail_sq, spec) - err_g) <= 1e-8 * err_g + 1e-18
        assert abs(integrate_line(tail_deriv_sq, spec) - err_gp) <= 1e-8 * err_gp + 1e-18


def test_truncation_error_decreases_and_handles_degenerate_input():
    g = DiscretePrior([-1.0, 1.0], [0.5, 0.5])
    h = DiscretePrior([0.0], [1.0])
    errs = [truncation_error(g, h, k)[1] for k in (2, 6, 12, 24)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert truncation_error(DiscretePrior([0.0], [1.0]), DiscretePrior([0.0], [1.0]), 3) == (0.0, 0.0)
    with pytest.raises(ValueError):
        truncation_error(g, h, -1)


def test_truncation_error_survives_a_subnormal_tail_sum():
    # on the m = 2 lower-bound pair the first tail term at k = 132 is subnormal, so
    # 1e-13 * err_gp underflowed to 0 and its log raised a math domain error
    # the m = 2 row's pair: delta_0 contaminated with mass tau of the 256-point arcsine rule (G)
    # and of the 2-point rule (H); neither rule has a node at 0
    tau = lowerbound_ratio_sweep([2])[0][0]["tau"]
    g, h = (DiscretePrior(np.r_[0.0, nodes], np.r_[1.0 - tau, tau * weights])
            for nodes, weights in (chebyshev_rule(256), chebyshev_rule(2)))
    at_132 = truncation_error(g, h, 132)
    for low, mid, high in zip(truncation_error(g, h, 140), at_132, truncation_error(g, h, 120)):
        assert math.isfinite(mid) and low < mid < high


def test_arcsine_rule_gap_structure():
    m = 3
    nodes, weights = chebyshev_rule(m)
    for j in range(0, 21):
        exact = _arcsine_rule_gap_exact(m, j)
        numeric = arcsine_moment(j) - weights @ nodes**j
        assert abs(exact - numeric) <= 1e-14
        if j % 2 == 1 or j < 2 * m:
            assert exact == 0.0
    assert _arcsine_rule_gap_exact(m, 2 * m) == 2.0 ** (1 - 2 * m)


def test_gap_tables_from_shared_rows_equal_the_binomial_sums():
    tables = _moment_gap_tables(range(1, 67), j_max=200)
    for m, table in enumerate(tables, start=1):
        reference = np.array([_arcsine_rule_gap_exact(m, j) for j in range(201)])
        alone = moment_gap_table(m)
        assert table.m == alone.m == m and table.j_max == alone.j_max == 200
        assert table.gaps.tobytes() == alone.gaps.tobytes() == reference.tobytes()
        sums = (table.alpha_m, table.beta_m, table.alpha_remainder, table.beta_remainder)
        assert sums == (alone.alpha_m, alone.beta_m, alone.alpha_remainder, alone.beta_remainder)


def test_moment_gap_table_sums_and_validation():
    table = moment_gap_table(4, j_max=120)
    assert table.m == 4 and table.j_max == 120
    alpha = sum(
        0.25 * table.gaps[j] ** 2 / math.factorial(j) for j in range(8, 121)
    )
    beta = sum(
        0.25 * table.gaps[j] ** 2 / math.factorial(j - 1) for j in range(8, 121)
    )
    assert abs(table.alpha_m - alpha) <= 1e-12 * alpha
    assert abs(table.beta_m - beta) <= 1e-12 * beta
    assert table.alpha_remainder >= 0.0 and table.beta_remainder >= 0.0
    with pytest.raises(ValueError):
        moment_gap_table(0)
    with pytest.raises(ValueError):
        moment_gap_table(5, j_max=9)
    # alpha_m is the last normal double at m = 66 and subnormal from m = 67
    assert moment_gap_table(66).alpha_m >= sys.float_info.min
    with pytest.raises(ValueError, match="alpha_m underflows"):
        moment_gap_table(67)


def test_alpha_bounds_hold_for_small_rules():
    for m in range(1, 11):
        assert alpha_bounds_hold(moment_gap_table(m))
