"""End-to-end acceptance battery.

Each test pins one headline guarantee of the package: quadrature
exactness, moment-gap identities, tail-sum bounds, operator-norm
certificates, Parseval consistency, metric identities, the two
benchmark families, NPMLE convergence quality, posterior-mean shape
constraints, and byte-level determinism of reports.  Tolerances are
fixed here, not imported, so regressions cannot loosen them silently.
"""

import math

import numpy as np

from eblab import metrics
from eblab.cli import main
from eblab.families import fit_loglog_exponent, lowerbound_ratio_sweep, moment_family_sweep
from eblab.hermite import (
    alpha_bounds_hold,
    expansion_coefficients,
    hermite_sums,
    moment_gap_table,
    truncation_error,
)
from eblab.mixtures import DiscretePrior, MarginalModel
from eblab.npmle import NpmleProblem, cell_rng, empirical_regret_experiment, sample_observations, solve_npmle
from eblab.orthopoly import bernstein_constant, build_operators, operator_norm, recurrence_for_weight
from eblab.quadrature import IntegrationSpec, arcsine_moment, chebyshev_rule, integrate_line


def _random_prior(rng, bound, max_atoms=5):
    size = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-bound, bound, size=size))
    while np.any(np.diff(atoms) < 1e-8):
        atoms = np.sort(rng.uniform(-bound, bound, size=size))
    weights = rng.dirichlet(np.ones(size))
    return DiscretePrior(atoms, weights)


def test_01_gauss_rule_exact_below_degree_2m():
    for m in range(1, 21):
        nodes, weights = chebyshev_rule(m)
        for j in range(2 * m):
            gap = weights @ nodes**j - arcsine_moment(j)
            assert abs(gap) <= 1e-12, (m, j, gap)


def test_02_leading_moment_gap_is_two_to_one_minus_2m():
    for m in range(1, 13):
        table = moment_gap_table(m)
        exact = 2.0 ** (1 - 2 * m)
        assert abs(table.gaps[2 * m] - exact) <= 1e-12 * exact, m


def test_03_tail_sum_bounds_and_smallest_valid_level():
    for m in range(4, 13):
        table = moment_gap_table(m)
        assert table.beta_m >= 2.0 * m * table.alpha_m, m
        assert alpha_bounds_hold(table), m
    valid = [
        m
        for m in range(1, 13)
        if alpha_bounds_hold(moment_gap_table(m))
        and moment_gap_table(m).beta_m >= 2.0 * m * moment_gap_table(m).alpha_m
    ]
    assert min(valid) == 1  # every level passes, down to the one-point rule


def test_04_derivative_operator_certificates():
    rng = np.random.default_rng(2024)
    for i in range(20):
        bound = (0.5, 1.0, 2.0)[i % 3]
        prior = _random_prior(rng, bound)
        for k in (5, 10, 20, 40):
            table = recurrence_for_weight(prior, k)
            ops = build_operators(prior, table)
            assert operator_norm(ops.L) <= (2.0 * bound + 1.0) * math.sqrt(k + 1.0)
            assert np.max(np.abs(np.tril(ops.L))) <= 1e-7
            assert np.max(np.abs(ops.L - ops.A - ops.B)) <= 1e-7
            # row identity: the superdiagonal of L is j / a_j exactly
            js = np.arange(1, k + 1, dtype=float)
            a = table.a[:k]
            beta = np.diag(ops.A, 1)
            assert np.max(np.abs(a * (a + beta) - js)) <= 1e-6
            assert np.max(np.abs(beta)) <= bound + 1e-6


def test_05_point_mass_weight_reduces_to_hermite():
    point = DiscretePrior([0.0], [1.0])
    table = recurrence_for_weight(point, 40)
    assert np.max(np.abs(table.a - np.sqrt(np.arange(1, 42, dtype=float)))) <= 1e-8
    assert np.max(np.abs(table.b)) <= 1e-8
    for k in range(1, 41):
        c = bernstein_constant(point, k)
        assert abs(c - math.sqrt(k)) <= 1e-7 * math.sqrt(k), k


def test_06_truncation_tails_match_quadrature_and_envelope():
    rng = np.random.default_rng(6)
    k, full, bound = 40, 80, 1.0
    envelope = 4.0 * bound**2 * (math.e * bound**2 / k) ** k
    assert k >= 2.0 * math.e * bound**2
    radius = bound + math.sqrt(4.0 * (full + 2) + 2.0) + 6.0
    spec = IntegrationSpec(abs_tol=0.0, rel_tol=1e-10, truncation_radius=radius)
    for _ in range(10):
        g = _random_prior(rng, bound)
        h = _random_prior(rng, bound)
        err_g, err_gp = truncation_error(g, h, k)
        tail = expansion_coefficients(g, h, full)
        tail[: k + 1] = 0.0  # keep only degrees > k

        def tail_sq(y):
            t = hermite_sums(tail, y)[0]
            return t * t * np.exp(-0.5 * y**2) / math.sqrt(2.0 * math.pi)

        quad = integrate_line(tail_sq, spec)
        assert abs(quad - err_g) <= 1e-8 * err_g + 1e-300
        assert err_gp <= envelope


def test_07_metric_identities_on_random_pairs():
    rng = np.random.default_rng(77)
    ys = np.linspace(-8.0, 8.0, 100)
    for _ in range(100):
        g = _random_prior(rng, 2.0)
        h = _random_prior(rng, 2.0)
        assert float(np.max(metrics.decomposition_residual(g, h, ys))) <= 1e-9
        eps_sq = metrics.pair_integrals(g, h, ["hellinger_sq"])["hellinger_sq"]
        delta = metrics.pair_integrals(g, h, ["delta"])["delta"]
        assert 0.5 * eps_sq - 1e-12 <= delta <= eps_sq + 1e-12
        metrics.pair_integrals(g, h, ["delta_flux"])  # raises FormMismatch beyond 1e-7 relative
        r1 = metrics.pair_integrals(g, h, ["regret"])["regret"]
        r2 = metrics.pair_integrals(g, h, ["regret_score_form"])["regret_score_form"]
        assert abs(r1 - r2) <= 1e-7 * max(r1, r2) + 1e-15


def test_08_matched_moment_family_ratio_floor():
    rows = [lowerbound_ratio_sweep([m])[0][0] for m in range(2, 11)]
    ratios = [row["ratio"] for row in rows]
    for row in rows:
        alpha = moment_gap_table(row["m"]).alpha_m
        assert row["eps_sq"] <= 4.0 * alpha**5
        assert row["ratio"] > 0.0
    assert min(ratios) >= 0.5 * ratios[0]


def test_09a_heavy_tail_family_inequalities():
    rows, _ = moment_family_sweep(2.0, (4.0, 6.0, 8.0, 10.0, 12.0))
    for b, row in zip((4.0, 6.0, 8.0, 10.0, 12.0), rows):
        eta = row["eta"]
        assert row["regret"] >= b * b * (eta * (1.0 - eta) - math.exp(-b * b / 8.0)) - 1e-8
        assert row["eps_sq"] <= 2.0 * eta


def test_09b_heavy_tail_exponent_window():
    # With eta = b^-p the family has regret ~ b^2 eta and eps^2 ~ eta,
    # so the log-log slope of regret against eps^2 is (p - 2)/p, which
    # is 0 at p = 2 (measured about -0.055): the regret stays of order
    # one while eps^2 -> 0.
    p = 2.0
    rows, _ = moment_family_sweep(p, (4.0, 6.0, 8.0, 10.0, 12.0))
    slope = fit_loglog_exponent([row["eps_sq"] for row in rows], [row["regret"] for row in rows])
    assert abs(slope - (p - 2.0) / p) <= 0.15


def test_10_npmle_sweep_matches_frozen_fixture():
    true_prior = DiscretePrior([-2.0, 2.0], [0.5, 0.5])
    # one full solve for the ascent property of the trace
    rng = cell_rng(0, 200)
    y = sample_observations(true_prior, 200, rng)
    solution = solve_npmle(NpmleProblem.from_observations(y))
    assert np.all(np.diff(solution.loglik_trace) >= -1e-12)
    assert solution.gradient_cert <= 1.0 + 1e-6

    seeds = [
        int(s.generate_state(1, dtype=np.uint64)[0]) for s in np.random.SeedSequence(0).spawn(20)
    ]
    medians = {}
    for n in (200, 800, 3200):
        regrets = []
        for seed in seeds:
            [(record, _)] = empirical_regret_experiment(true_prior, [(n, seed)])
            assert record["cert"] <= 1.0 + 1e-6
            regrets.append(record["regret"])
        regrets.sort()
        medians[n] = regrets[len(regrets) // 2]
    assert medians[200] > medians[800] > medians[3200]
    assert medians[3200] <= 0.0025  # frozen fixture: 0.00176 measured


def test_11_posterior_mean_shape_constraints():
    rng = np.random.default_rng(11)
    grid = np.linspace(-10.0, 10.0, 200)
    for _ in range(20):
        prior = _random_prior(rng, 2.0)
        model = MarginalModel(prior)
        means = model.posterior_mean(grid)
        assert np.all(np.diff(means) >= -1e-10)
        slope = np.diff(grid + means) / np.diff(grid)
        assert np.all(slope >= 1.0 - 1e-6)
        points = rng.uniform(-10.0, 10.0, size=50)
        score = model.posterior_mean(points) - points
        bound = -math.log(2.0 * math.pi) - 2.0 * model.log_density(points)
        assert np.all(score**2 <= bound + 1e-9)


def test_12_reports_are_byte_identical_across_runs_and_threads(tmp_path):
    hermite_args = ["hermite", "--m-min", "2", "--m-max", "6"]
    for label in ("h1", "h2"):
        assert main(["--out", str(tmp_path / label)] + hermite_args) == 0
    assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()
    assert (tmp_path / "h1.json").read_bytes() == (tmp_path / "h2.json").read_bytes()

    npmle_args = [
        "npmle",
        "--prior",
        "two_point:m=1",
        "--n-values",
        "60",
        "--n-seeds",
        "3",
        "--grid-size",
        "60",
    ]
    for label, threads in (("n1", "1"), ("n2", "3")):
        assert main(["--out", str(tmp_path / label), "--threads", threads] + npmle_args) == 0
    assert (tmp_path / "n1.csv").read_bytes() == (tmp_path / "n2.csv").read_bytes()
    assert (tmp_path / "n1.json").read_bytes() == (tmp_path / "n2.json").read_bytes()
