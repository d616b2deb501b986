import math

import numpy as np
import pytest

from eblab.quadrature import (
    IntegrationSpec,
    QuadratureRule,
    ToleranceNotMet,
    arcsine_moment,
    chebyshev_rule,
    gaussian_tail_radius,
    hermite_rule,
    integrate_line,
)


def test_arcsine_moment_closed_form():
    # E[X^j] for the arcsine law is C(j, j/2) / 2^j at even j, zero at odd j
    assert arcsine_moment(0) == 1.0
    assert arcsine_moment(1) == 0.0
    assert arcsine_moment(2) == 0.5
    assert arcsine_moment(4) == 0.375
    assert arcsine_moment(6) == 0.3125
    for j in range(0, 40, 2):
        exact = math.comb(j, j // 2) / 2.0**j
        assert abs(arcsine_moment(j) - exact) <= 1e-15 * exact


def test_chebyshev_rule_nodes_and_weights():
    rule = chebyshev_rule(3)
    # cos(pi/6), cos(pi/2), cos(5 pi/6)
    assert np.allclose(np.sort(rule.nodes), [-math.sqrt(3) / 2, 0.0, math.sqrt(3) / 2], atol=1e-15)
    assert np.allclose(rule.weights, 1.0 / 3.0, atol=1e-16)
    assert rule.kind == "gauss_chebyshev"


def test_chebyshev_rule_exact_below_degree_2m():
    for m in range(1, 21):
        rule = chebyshev_rule(m)
        for j in range(2 * m):
            approx = rule.integrate(lambda x: x**j)
            assert abs(approx - arcsine_moment(j)) <= 1e-12


def test_chebyshev_rule_first_failure_at_degree_2m():
    # the rule undershoots the arcsine moment at degree 2m by 2^(1-2m)
    for m in range(1, 9):
        rule = chebyshev_rule(m)
        gap = arcsine_moment(2 * m) - rule.integrate(lambda x: x ** (2 * m))
        assert abs(gap - 2.0 ** (1 - 2 * m)) <= 1e-13


def test_hermite_rule_gaussian_moments():
    rule = hermite_rule(40)
    assert abs(rule.weights.sum() - 1.0) <= 1e-13
    for j, expected in [(2, 1.0), (4, 3.0), (6, 15.0), (8, 105.0)]:
        assert abs(rule.integrate(lambda x: x**j) - expected) <= 1e-10 * expected


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(nodes=[0.0, 0.0], weights=[0.5, 0.5], kind="chebyshev")
    with pytest.raises(ValueError):
        QuadratureRule(nodes=[0.0, 1.0], weights=[0.5, -0.5], kind="chebyshev")
    with pytest.raises(ValueError):
        QuadratureRule(nodes=[0.0], weights=[1.0], kind="made-up")


def test_integrate_line_gaussian_mass():
    spec = IntegrationSpec(abs_tol=1e-13, rel_tol=1e-12, truncation_radius=10.0)
    val = integrate_line(lambda y: np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi), spec)
    assert abs(val - 1.0) <= 1e-12


def test_adaptive_line_matches_dense_hermite_rule():
    # polynomial-times-gaussian integrands of degree <= 20 against a
    # 200-node Gauss-Hermite oracle
    oracle = hermite_rule(200)
    rng = np.random.default_rng(20)
    for _ in range(10):
        poly = np.polynomial.Polynomial(rng.normal(size=21))

        def integrand(y):
            return poly(y) * np.exp(-0.5 * y**2) / math.sqrt(2.0 * math.pi)

        exact = oracle.integrate(poly)
        adaptive = integrate_line(integrand, IntegrationSpec())
        assert abs(adaptive - exact) <= 1e-9 * max(1.0, abs(exact))


def test_halving_abs_tol_never_increases_error():
    oracle = hermite_rule(200)
    rng = np.random.default_rng(40)
    for _ in range(5):
        poly = np.polynomial.Polynomial(rng.normal(size=21))

        def integrand(y):
            return poly(y) * np.exp(-0.5 * y**2) / math.sqrt(2.0 * math.pi)

        exact = oracle.integrate(poly)
        errors = []
        tol = abs(exact)
        for _ in range(24):
            spec = IntegrationSpec(abs_tol=tol, rel_tol=0.0)
            errors.append(abs(integrate_line(integrand, spec) - exact))
            tol *= 0.5
        # slack covers summation-order jitter once the error floors out
        slack = 4e-16 * abs(exact)
        assert all(a >= b - slack for a, b in zip(errors, errors[1:]))


def test_integrate_line_two_scale_integrand():
    # narrow spike plus broad bump; adaptive bisection must find the spike
    def f(y):
        return np.exp(-0.5 * (y / 3.0) ** 2) + np.exp(-0.5 * ((y - 1.0) / 1e-3) ** 2)

    exact = 3.0 * math.sqrt(2 * math.pi) + 1e-3 * math.sqrt(2 * math.pi)
    spec = IntegrationSpec(abs_tol=0.0, rel_tol=1e-11, truncation_radius=30.0)
    assert abs(integrate_line(f, spec) - exact) <= 1e-9 * exact


def _spike(y):
    return np.exp(-0.5 * ((y - 1.0) / 1e-6) ** 2)


def test_integrate_line_budget_exhaustion_raises():
    spec = IntegrationSpec(abs_tol=0.0, rel_tol=1e-12, truncation_radius=10.0, max_panels=4)
    with pytest.raises(ToleranceNotMet, match=r"^error bound .* in component 0 ") as info:
        integrate_line(_spike, spec)
    assert isinstance(info.value.estimate, float) and info.value.error_bound > 0.0

    # the spike is the worst component of a two-component pass
    with pytest.raises(ToleranceNotMet, match=r"^error bound .* in component 1 ") as info:
        integrate_line(lambda y: np.stack([np.exp(-0.5 * y * y), _spike(y)], axis=-1), spec)
    estimate, bound = info.value.estimate, info.value.error_bound
    assert estimate.shape == bound.shape == (2,)
    assert bound[1] > 1e-12 * abs(estimate[1]) and bound[1] > bound[0]


def test_integrate_line_non_finite_values_raise():
    def hole(y):
        return np.where(y > 3.0, np.nan, np.exp(-0.5 * y * y))

    for f, shape in ((hole, ()), (lambda y: np.stack([np.exp(-y * y), hole(y)], axis=-1), (2,))):
        with pytest.raises(ToleranceNotMet, match="^integrand produced non-finite values") as info:
            with np.errstate(invalid="ignore"):
                integrate_line(f)
        assert np.shape(info.value.estimate) == np.shape(info.value.error_bound) == shape
        assert np.all(np.isnan(info.value.estimate)) and np.all(np.isinf(info.value.error_bound))


_POLY = np.polynomial.Polynomial(np.arange(21) % 5 - 2.0)


def _poly_gauss(y):
    return _POLY(y) * np.exp(-0.5 * y**2) / math.sqrt(2.0 * math.pi)


def _two_scale(y):
    return np.exp(-0.5 * (y / 3.0) ** 2) + np.exp(-0.5 * ((y - 1.0) / 1e-3) ** 2)


@pytest.mark.parametrize(
    "f, spec, exact",
    [
        (
            lambda y: np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi),
            IntegrationSpec(abs_tol=1e-13, rel_tol=1e-12, truncation_radius=10.0),
            1.0,
        ),
        (_poly_gauss, IntegrationSpec(), hermite_rule(200).integrate(_POLY)),
        (
            _two_scale,
            IntegrationSpec(abs_tol=0.0, rel_tol=1e-11, truncation_radius=30.0),
            3.0 * math.sqrt(2 * math.pi) + 1e-3 * math.sqrt(2 * math.pi),
        ),
    ],
    ids=["gauss", "poly_gauss", "two_scale"],
)
def test_one_component_pass_is_the_scalar_pass(f, spec, exact):
    scalar = integrate_line(f, spec)
    assert integrate_line(lambda y: f(y)[:, None], spec)[0] == scalar
    # a sharper second component adds panels; f still meets its own target
    narrow = 1e-3 * math.sqrt(2 * math.pi)
    stacked = integrate_line(
        lambda y: np.stack([f(y), np.exp(-0.5 * ((y - 1.0) / 1e-3) ** 2)], axis=-1), spec
    )
    target = max(spec.abs_tol, spec.rel_tol * abs(exact))
    assert abs(stacked[0] - exact) <= max(target, abs(scalar - exact))
    assert abs(stacked[1] - narrow) <= 1e-9 * narrow
    # a column that meets its target from the start does not end the pass
    padded = integrate_line(lambda y: np.stack([np.zeros_like(y), f(y)], axis=-1), spec)
    assert padded[0] == 0.0
    assert abs(padded[1] - exact) <= max(target, abs(scalar - exact))


def test_integration_spec_validation():
    with pytest.raises(ValueError):
        IntegrationSpec(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationSpec(truncation_radius=-1.0)
    with pytest.raises(ValueError):
        IntegrationSpec(max_panels=1)


def test_gaussian_tail_radius_monotone_and_valid():
    radii = [gaussian_tail_radius(4.0, 10.0**-e) for e in range(6, 15)]
    # smaller target tail -> larger radius
    assert all(r2 > r1 for r1, r2 in zip(radii, radii[1:]))
    # the radius really does trap the marginal mass of a prior with that
    # second moment: worst case is the point mass at the support edge
    for target in (1e-8, 1e-12):
        r = gaussian_tail_radius(4.0, target)
        tail = math.erfc((r - 2.0) / math.sqrt(2.0))  # N(2,1) two-sided bound
        assert tail <= target
