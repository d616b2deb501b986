import math

import numpy as np
import pytest

from eblab import families, metrics
from eblab.families import (
    fit_loglog_exponent,
    lowerbound_ratio_sweep,
    moment_family_sweep,
    regularization_necessity_demo,
)
from eblab.hermite import hermite_sums, moment_gap_table
from eblab.mixtures import DiscretePrior
from eblab.quadrature import ToleranceNotMet, chebyshev_rule

LOWERBOUND_COLUMNS = ["m", "tau", "alpha", "beta", "eps_sq", "regret", "ratio"]
MOMENT_COLUMNS = ["p", "b", "eta", "eps_sq", "regret", "regret_lb", "lb_ok"]


def _lowerbound_row(m):
    """The one-level sweep's row: the pass that a level built alone makes."""
    rows, _ = lowerbound_ratio_sweep([m])
    return rows[0]


def _moment_row(p, b):
    rows, _ = moment_family_sweep(p, [b])
    return rows[0]


def _contaminate(tau, rule):
    """(1 - tau) delta_0 + tau * rule, merging a zero node if present; rule = (nodes, weights)."""
    nodes, weights = rule
    atoms = np.concatenate(([0.0], nodes))
    weights = np.concatenate(([1.0 - tau], tau * weights))
    zero = 1 + np.flatnonzero(nodes == 0.0)
    weights[0] += weights[zero].sum()
    return DiscretePrior(np.delete(atoms, zero), np.delete(weights, zero))


def contamination_pair(row):
    """The priors (G, H) a lowerbound row describes: its tau of the fine arcsine rule, of the m-point rule."""
    return (_contaminate(row["tau"], chebyshev_rule(families.ARCSINE_RESOLUTION)),
            _contaminate(row["tau"], chebyshev_rule(row["m"])))


def test_lowerbound_m2_against_direct_quadrature():
    # m = 2 is the only level where tau ~ 3e-8 leaves the direct route
    # enough signal above double-precision cancellation to cross-check
    row = _lowerbound_row(2)
    prior_g, prior_h = contamination_pair(row)
    direct_eps = metrics.pair_integrals(prior_g, prior_h, ["hellinger_sq"])["hellinger_sq"]
    direct_reg = metrics.pair_integrals(prior_g, prior_h, ["regret"])["regret"]
    assert abs(row["eps_sq"] - direct_eps) <= 1e-6 * row["eps_sq"]
    assert abs(row["regret"] - direct_reg) <= 1e-9 * row["regret"]


def test_lowerbound_instance_structure():
    row = _lowerbound_row(3)
    assert list(row) == LOWERBOUND_COLUMNS
    assert row["tau"] == row["alpha"] ** 2
    assert row["beta"] > row["alpha"] > 0.0
    assert 0.0 < row["eps_sq"] < row["regret"]
    assert row["ratio"] == row["regret"] / metrics.hellinger_rate_normalizer(row["eps_sq"])
    # contamination pairs share every moment below degree 2m
    g, h = contamination_pair(row)
    for j in range(1, 2 * row["m"]):
        gap = g.weights @ g.atoms**j - h.weights @ h.atoms**j
        assert abs(gap) <= 1e-20
    with pytest.raises(ValueError):
        lowerbound_ratio_sweep([1])
    with pytest.raises(ValueError):
        lowerbound_ratio_sweep([13])


def test_lowerbound_densities_stay_above_half_gaussian():
    ys = np.linspace(-16.0, 16.0, 321)
    gauss = np.exp(-0.5 * ys**2) / np.sqrt(2.0 * np.pi)
    for m in (2, 3, 4):
        for prior in contamination_pair(_lowerbound_row(m)):
            dens = metrics._as_models(prior)[0].density(ys)
            assert np.all(dens >= 0.5 * gauss)


def test_lowerbound_m2_delta_sits_in_sandwich():
    row = _lowerbound_row(2)
    delta = metrics.pair_integrals(*contamination_pair(row), ["delta"])["delta"]
    assert 0.5 * row["eps_sq"] * (1.0 - 1e-6) <= delta <= row["eps_sq"] * (1.0 + 1e-6)


def test_lowerbound_alpha_decreases_along_sweep():
    alphas = [_lowerbound_row(m)["alpha"] for m in range(2, 8)]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_lowerbound_sweep_summary():
    rows, summary = lowerbound_ratio_sweep(m_values=(2, 3, 4))
    ratios = [row["ratio"] for row in rows]
    assert summary["min_ratio"] == min(ratios)
    assert summary["max_ratio"] == max(ratios)
    assert summary["min_ratio"] > 0.0
    rate_cs = [
        row["m"] * math.log(-math.log(row["alpha"])) / -math.log(row["alpha"]) for row in rows
    ]
    assert abs(summary["rate_c0"] - min(rate_cs)) <= 1e-15


def test_lowerbound_sweep_matches_each_level_built_alone():
    rows, _ = lowerbound_ratio_sweep(range(2, 13))
    assert [row["m"] for row in rows] == list(range(2, 13))
    for row in rows:
        alone = _lowerbound_row(row["m"])
        assert (row["tau"], row["alpha"], row["beta"]) == (alone["tau"], alone["alpha"], alone["beta"])
        assert abs(row["eps_sq"] - alone["eps_sq"]) <= 1e-12 * alone["eps_sq"]
        assert abs(row["regret"] - alone["regret"]) <= 1e-12 * alone["regret"]


def test_lowerbound_sweep_refuses_a_j_max_that_truncates_the_tails():
    # the smallest j_max whose tables drop at most 1e-9 of alpha_m and beta_m, for m = 2..12
    smallest = [16, 18, 20, 22, 25, 27, 30, 32, 34, 37, 39]
    reference, _ = lowerbound_ratio_sweep()
    for row, j_max in zip(reference, smallest, strict=True):
        m = row["m"]
        with pytest.raises(ValueError, match=f"j_max = {j_max - 1} is too small for m = {m}:"):
            lowerbound_ratio_sweep([m], j_max=j_max - 1)
        [got], _ = lowerbound_ratio_sweep([m], j_max=j_max)
        assert got == pytest.approx(row, rel=1e-13)


def test_lowerbound_sweep_is_one_integration_pass(monkeypatch):
    calls = []
    integrate = families.integrate_line

    def counted(f, spec):
        calls.append(spec)
        return integrate(f, spec)

    monkeypatch.setattr(families, "integrate_line", counted)
    rows, _ = lowerbound_ratio_sweep(range(2, 13))
    assert len(rows) == 11
    assert len(calls) == 1


def _atom_sums(rule, y):
    """S = sum w e^(x y - x^2/2) and T = S' summed over the rule's atoms directly."""
    nodes, weights = rule
    ex = np.exp(np.multiply.outer(y, nodes) - 0.5 * nodes**2)
    return np.vecdot(ex, weights), np.vecdot(ex, weights * nodes)


def test_lowerbound_moment_series_equal_the_atom_sums():
    # the integrand sums no atom: S, S' come from the arcsine moments and
    # each m-node rule's sums are S - 2U, S' - 2U' from its half gaps
    ys = np.linspace(-16.0, 16.0, 641)
    ms = range(2, 13)
    coefficients = families._lowerbound_coefficients([moment_gap_table(m) for m in ms])
    sums, shifted = hermite_sums(coefficients, ys, factorial=True)
    s_fine, t_fine = _atom_sums(chebyshev_rule(families.ARCSINE_RESOLUTION), ys)
    # |x| <= 1, so a rule's S bounds its T and sets the scale of both
    np.testing.assert_array_less(np.abs(sums[:, 0] - s_fine), 1e-13 * s_fine)
    np.testing.assert_array_less(np.abs(shifted[:, 0] - t_fine), 1e-13 * s_fine)
    for i, m in enumerate(ms, 1):
        s_rule, t_rule = _atom_sums(chebyshev_rule(m), ys)
        np.testing.assert_array_less(np.abs(sums[:, 0] - 2.0 * sums[:, i] - s_rule), 1e-13 * s_rule)
        np.testing.assert_array_less(
            np.abs(shifted[:, 0] - 2.0 * shifted[:, i] - t_rule), 1e-13 * s_rule
        )


def test_moment_instance_scales_and_floor():
    row = _moment_row(2.0, 6.0)
    assert list(row) == MOMENT_COLUMNS
    assert row["eta"] == 6.0**-2.0
    assert 0.0 < row["eps_sq"] <= 2.0 * row["eta"]
    assert row["regret"] >= row["regret_lb"] - 1e-9
    assert row["lb_ok"] is (row["regret"] >= row["regret_lb"] - 1e-12) is True
    assert row["regret_lb"] == 36.0 * (row["eta"] * (1.0 - row["eta"]) - math.exp(-4.5))
    # independent score-form route through the explicit priors
    g = DiscretePrior([0.0, 6.0], [1.0 - row["eta"], row["eta"]])
    h = DiscretePrior.point(0.0)
    other = metrics.pair_integrals(g, h, ["regret_score_form"])["regret_score_form"]
    assert abs(other - row["regret"]) <= 1e-9 * row["regret"]
    with pytest.raises(ValueError):
        _moment_row(-1.0, 6.0)
    with pytest.raises(ValueError):
        _moment_row(2.0, 0.0)
    with pytest.raises(ValueError):
        _moment_row(2.0, 1.0)  # eta would hit one


def test_fit_loglog_exponent_recovers_power_law():
    xs = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    ys = 3.0 * xs**1.8
    assert abs(fit_loglog_exponent(xs, ys) - 1.8) <= 1e-12


def test_fit_loglog_exponent_of_constant_x_is_nan():
    # centring three equal logs leaves nonzero rounding residue for many x
    rng = np.random.default_rng(9)
    for x in rng.uniform(1e-6, 1e3, size=2000):
        assert math.isnan(fit_loglog_exponent([x] * 3, [1.0, 2.0, 3.0]))


def test_moment_sweep_summary_fields():
    rows, summary = moment_family_sweep(3.0, (4.0, 6.0, 8.0))
    assert len(rows) == 3
    assert summary["target_exponent"] == (3.0 - 2.0) / 3.0
    assert abs(summary["fitted_exponent"] - summary["target_exponent"]) <= 0.15  # 0.299 measured
    assert summary["max_regret_to_eps_sq"] == max(row["regret"] / row["eps_sq"] for row in rows)


def test_moment_sweep_rows_are_each_b_scored_alone(monkeypatch):
    calls = []
    integrate = metrics.integrate_lines

    def counted(f, specs):
        calls.append(len(specs))
        return integrate(f, specs)

    monkeypatch.setattr(metrics, "integrate_lines", counted)
    b_values = (4.0, 8.0, 16.0, 32.0)
    rows, _ = moment_family_sweep(3.0, b_values)
    assert calls == [4]  # one lock-step pass for the whole sweep
    monkeypatch.undo()
    assert rows == [_moment_row(3.0, b) for b in b_values]
    for row in rows:
        prior_g = DiscretePrior([0.0, row["b"]], [1.0 - row["eta"], row["eta"]])
        alone = metrics.pair_integrals(prior_g, DiscretePrior.point(0.0), ["hellinger_sq", "regret"])
        assert (row["eps_sq"], row["regret"]) == (alone["hellinger_sq"], alone["regret"])


def _spike_floor(eta, b):
    """The spike pair's two-cell Hellinger distance in closed form, cells y > b/2 and y <= b/2."""
    q = 0.5 * math.erfc(b / (2.0 * math.sqrt(2.0)))
    big_p, gap = (1.0 - eta) * q + eta * (1.0 - q), eta * (1.0 - 2.0 * q)
    return gap * gap * (1.0 / (math.sqrt(big_p) + math.sqrt(q)) ** 2
                        + 1.0 / (math.sqrt(1.0 - big_p) + math.sqrt(1.0 - q)) ** 2)


def test_spike_hellinger_floor_is_the_two_cell_distance():
    for eta, b in ((0.25, 2.0), (1.0 / 64.0, 4.0), (1e-3, 9.0), (0.5, 1.5)):
        q = 0.5 * math.erfc(b / (2.0 * math.sqrt(2.0)))
        big_p = (1.0 - eta) * q + eta * (1.0 - q)
        plain = (math.sqrt(big_p) - math.sqrt(q)) ** 2 + (math.sqrt(1.0 - big_p) - math.sqrt(1.0 - q)) ** 2
        assert _spike_floor(eta, b) == pytest.approx(plain, rel=1e-9)
    # the generic floor of metrics on the benchmark's spike rows: moment --p 3 and the clipped demo
    for p, b in ((3.0, 4.0), (3.0, 8.0), (3.0, 16.0), (3.0, 32.0), (2.0, 8.0)):
        row = _moment_row(p, b)
        models = metrics._as_models(DiscretePrior([0.0, b], [1.0 - row["eta"], row["eta"]]),
                                    DiscretePrior.point(0.0))
        floor, t = metrics._hellinger_floor(*models)
        assert t == b / 2.0
        assert floor == pytest.approx(_spike_floor(row["eta"], b), rel=1e-12, abs=0.0)
        assert row["eps_sq"] >= floor * (1.0 - 1e-7)


@pytest.mark.parametrize("b", [3e4, 1e5])
def test_missed_spike_reads_below_the_hellinger_floor(b):
    # at 3e4 no panel meets the spike (eps^2 ~ 8e-13); at 1e5 the first pass
    # misses the centre bump and eps^2 reads 2.5e-6 relative below the floor
    missed = f"from the cell y > {b / 2.0!r}: no panel resolved an atom"
    with pytest.raises(ToleranceNotMet, match=missed):
        _moment_row(1.0, b)
    with pytest.raises(ToleranceNotMet, match=missed):
        moment_family_sweep(1.0, (100.0, b))


def test_regularization_demo_clipping_helps_at_eps():
    rows, summary = regularization_necessity_demo(2.0, 6.0, rho_values=(0.5,))
    assert summary["eps"] == math.sqrt(summary["eps_sq"])
    rhos = [row["rho"] for row in rows]
    assert rhos == sorted(rhos)
    assert summary["eps"] in rhos
    assert summary["ratio_at_eps"] > 1e3  # clipping at eps removes almost all regret
    for row in rows:
        assert set(row) == {"rho", "regret", "regret_regularized", "ratio", "envelope"}
        assert row["regret_regularized"] <= row["regret"]
    with pytest.raises(ValueError, match="rho must be positive and finite, not -0.5"):
        regularization_necessity_demo(2.0, 6.0, rho_values=(-0.5,))


def test_lowerbound_regret_tracks_tau_sq_beta():
    # the contamination scale tau^2 * beta sets the regret's order
    for m in range(2, 8):
        row = _lowerbound_row(m)
        ratio = row["regret"] / (row["tau"] ** 2 * row["beta"])
        assert 1e-3 <= ratio <= 1e3
