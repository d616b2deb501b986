import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eblab import families, metrics
from eblab.cli import main
from eblab.metrics import (
    FormMismatch,
    compute_metric_report,
    compute_metric_reports,
    decomposition_residual,
    hellinger_rate_normalizer,
    integration_window,
    pair_integrals,
)
from eblab.mixtures import DiscretePrior, MarginalModel
from eblab.quadrature import ToleranceNotMet


def _single(name, g, h, spec=None):
    """One functional integrated in a pass of its own."""
    return pair_integrals(g, h, [name], spec=spec)[name]


def _clipped(g, h, rho):
    """The clipped regret at one rho, integrated in a pass of its own."""
    return pair_integrals(g, h, rhos=[rho])[float(rho)]


def _prior_from_pairs(pairs):
    atoms, weights = zip(*pairs)
    weights = np.asarray(weights)
    return DiscretePrior(atoms, weights / weights.sum())


# 1-5 atoms on [-2, 2] with weights bounded away from zero
_PRIORS = st.lists(
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.05, 1.0)),
    min_size=1,
    max_size=5,
    unique_by=lambda pair: pair[0],
).map(_prior_from_pairs)


def _random_prior(rng, bound, max_atoms=5):
    size = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-bound, bound, size=size))
    while np.any(np.diff(atoms) < 1e-8):
        atoms = np.sort(rng.uniform(-bound, bound, size=size))
    weights = rng.dirichlet(np.ones(size))
    return DiscretePrior(atoms, weights)


def test_hellinger_between_shifted_point_masses():
    # marginals are unit gaussians c apart: H^2 = 2 (1 - exp(-c^2 / 8))
    for c in (0.3, 1.0, 2.5):
        g = DiscretePrior([0.0], [1.0])
        h = DiscretePrior([c], [1.0])
        exact = 2.0 * (1.0 - math.exp(-(c**2) / 8.0))
        assert abs(_single("hellinger_sq", g, h) - exact) <= 1e-11 + 1e-9 * exact


def test_regret_between_point_masses_is_squared_shift():
    # the rule tuned to a point mass predicts that atom everywhere
    for c in (0.4, 1.3):
        g = DiscretePrior([c], [1.0])
        h = DiscretePrior([0.0], [1.0])
        assert abs(_single("regret", g, h) - c**2) <= 1e-9 * c**2
        assert abs(_single("regret_score_form", g, h) - c**2) <= 1e-9 * c**2


@pytest.mark.parametrize("u", [30.0, 100.0])
def test_far_apart_point_masses_score_in_closed_form(u):
    # both densities underflow between the two bumps, where delta and Delta
    # must read their density ratios from the logs, not divide 0 by 0
    report = compute_metric_report(DiscretePrior.point(0.0), DiscretePrior.point(u))
    exact = {"hellinger_sq": 2.0, "delta": 1.0, "delta_flux": 2.0 * u * u, "regret": u * u}
    for name, value in report.items():
        assert abs(value - exact[name]) <= 1e-9 * exact[name]


def test_hellinger_floor_refuses_missed_far_atoms():
    # the marginals are 2 apart in eps^2, but the panels never meet the bump at 1e5
    far = (DiscretePrior.point(0.0), DiscretePrior.point(1e5))
    assert metrics._hellinger_floor(*metrics._as_models(*far)) == (2.0, 5e4)
    same = DiscretePrior([-0.5, 1.0], [0.3, 0.7])
    assert metrics._hellinger_floor(*metrics._as_models(same, same))[0] == 0.0
    for run in (compute_metric_report, lambda g, h: compute_metric_reports([(g, h)])):
        with pytest.raises(ToleranceNotMet, match="below its lower bound 2.0 from the cell y > 50000.0"):
            run(*far)


def _dict_floor(model_g, model_h):
    """Reference for ``metrics._hellinger_floor`` of one pair: its dict and ``math.erfc`` loops."""
    g, h = (dict(zip(m.atoms.tolist(), m.weights.tolist())) for m in (model_g, model_h))
    t = 0.5 * sum(max(u for u, w in prior.items() if w > 0.0) for prior in (g, h))
    signed = {u: g.get(u, 0.0) - h.get(u, 0.0) for u in {**g, **h}}

    def chance(prior, side):  # P(y > t) for side 1, P(y <= t) for side -1
        return sum(w * 0.5 * math.erfc(side * (t - u) / math.sqrt(2.0)) for u, w in prior.items())

    gap = chance(signed, 1.0)
    root_sums = [math.sqrt(chance(g, side)) + math.sqrt(chance(h, side)) for side in (1.0, -1.0)]
    return sum((gap / s) ** 2 for s in root_sums if s > 0.0), t


# priors over a few shared atoms, some of weight 0, of 1 to 6 atoms: stacks pad the shorter ones
_POOL_PRIORS = st.lists(st.tuples(st.sampled_from([-3.0, -1.5, -0.5, 0.0, 0.25, 1.0, 2.5, 40.0]),
                                  st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.0])),
                        min_size=1, max_size=6, unique_by=lambda pair: pair[0]).filter(
    lambda pairs: sum(w for _, w in pairs) > 0.0).map(_prior_from_pairs)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pairs=st.lists(st.tuples(_POOL_PRIORS, _POOL_PRIORS), min_size=1, max_size=8))
def test_hellinger_floor_of_a_sweep_is_each_pairs_dict_floor(pairs):
    models = [metrics._as_models(g, h) for g, h in pairs]
    stacks = [MarginalModel.stack([pair[side] for pair in models]) for side in (0, 1)]
    floors, ts = metrics._hellinger_floor(*stacks)
    for pair, floor, t in zip(models, floors, ts):
        expected, expected_t = _dict_floor(*pair)
        for got, got_t in ((floor, t), metrics._hellinger_floor(*pair)):
            assert got_t == expected_t
            assert abs(got - expected) <= 1e-14 * expected


def test_integration_window_refuses_supports_it_cannot_cover():
    with pytest.raises(ValueError, match="support bound 1e\\+160 is past 1e\\+147"):
        integration_window(MarginalModel(DiscretePrior.point(1e160)))
    assert math.isfinite(integration_window(MarginalModel(DiscretePrior.point(1e147))).truncation_radius)


def test_metrics_vanish_for_identical_priors():
    prior = DiscretePrior([-0.5, 1.0], [0.3, 0.7])
    assert _single("hellinger_sq", prior, prior) <= 1e-11
    assert _single("delta", prior, prior) <= 1e-11
    assert _single("delta_flux", prior, prior) <= 1e-11
    assert _single("regret", prior, prior) <= 1e-11


def test_delta_sits_inside_hellinger_sandwich():
    rng = np.random.default_rng(20240817)
    for _ in range(12):
        g = _random_prior(rng, 2.0)
        h = _random_prior(rng, 2.0)
        eps_sq = _single("hellinger_sq", g, h)
        delta = _single("delta", g, h)
        assert 0.5 * eps_sq - 1e-12 <= delta <= eps_sq + 1e-12


def test_regret_reduction_bound():
    # regret <= 16 (M^2 delta + Delta) on compact pairs; the smallest
    # admissible constant observed over this seed is about 1.39
    rng = np.random.default_rng(31)
    bound = 2.0
    empirical = 0.0
    for _ in range(100):
        g = _random_prior(rng, bound)
        h = _random_prior(rng, bound)
        spec = integration_window(g, h)
        reg = _single("regret", g, h, spec)
        d = _single("delta", g, h, spec)
        dd = _single("delta_flux", g, h, spec)
        assert reg <= 16.0 * (bound**2 * d + dd)
        empirical = max(empirical, reg / (bound**2 * d + dd))
    assert empirical <= 2.0  # recorded constant, margin over the 1.39 measured


def test_shift_invariance_of_regret_and_hellinger():
    rng = np.random.default_rng(14)
    g = _random_prior(rng, 1.5)
    h = _random_prior(rng, 1.5)
    base_reg = _single("regret", g, h)
    base_eps = _single("hellinger_sq", g, h)
    for mu in (0.7, -2.3):
        moved = [DiscretePrior(prior.atoms + mu, prior.weights) for prior in (g, h)]
        assert abs(_single("regret", *moved) - base_reg) <= 1e-8
        assert abs(_single("hellinger_sq", *moved) - base_eps) <= 1e-8


def test_small_separation_ratio_stays_bounded():
    # nearby reweightings of one compact prior: the normalized ratio
    # regret / (eps^2 log(1/eps)/loglog(1/eps)) stayed below 1.92 when
    # this constant was recorded
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(60):
        g = _random_prior(rng, 1.0, max_atoms=3)
        if g.atoms.size < 2:
            continue
        nudged = np.asarray(g.weights) + 0.003 * rng.uniform(-1.0, 1.0, g.atoms.size)
        nudged = np.abs(nudged)
        h = DiscretePrior(g.atoms, nudged / nudged.sum())
        eps_sq = _single("hellinger_sq", g, h)
        if not 0.0 < eps_sq <= 1e-3:
            continue
        checked += 1
        ratio = _single("regret", g, h) / hellinger_rate_normalizer(eps_sq)
        assert ratio <= 4.0
    assert checked >= 20


def test_regret_routes_agree_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(8):
        g = _random_prior(rng, 1.5)
        h = _random_prior(rng, 1.5)
        a = _single("regret", g, h)
        b = _single("regret_score_form", g, h)
        assert abs(a - b) <= 1e-7 * max(a, b) + 1e-12


def test_flux_statistic_symmetric_and_consistent():
    rng = np.random.default_rng(7)
    for _ in range(6):
        g = _random_prior(rng, 1.5)
        h = _random_prior(rng, 1.5)
        forward = _single("delta_flux", g, h)  # raises FormMismatch if routes split
        backward = _single("delta_flux", h, g)
        assert forward >= 0.0
        assert abs(forward - backward) <= 1e-9 * max(forward, backward) + 1e-12


def test_decomposition_residual_near_zero():
    rng = np.random.default_rng(3)
    ys = np.linspace(-8.0, 8.0, 100)
    for _ in range(5):
        g = _random_prior(rng, 2.0)
        h = _random_prior(rng, 2.0)
        res = decomposition_residual(g, h, ys)
        assert res.shape == ys.shape
        assert np.max(res) <= 1e-9
    assert isinstance(decomposition_residual(g, h, 0.5), float)


def test_regularized_regret_recovers_plain_regret_as_rho_vanishes():
    g = DiscretePrior([-1.0, 1.0], [0.5, 0.5])
    h = DiscretePrior([-0.8, 0.9], [0.45, 0.55])
    base = _single("regret", g, h)
    small = _clipped(g, h, 1e-200)
    assert abs(small - base) <= 1e-8 * base
    # clipping at a large floor shrinks the scores, hence the regret
    assert _clipped(g, h, 10.0) < base
    with pytest.raises(ValueError):
        _clipped(g, h, 0.0)


def test_rate_normalizer_closed_form_and_clamp():
    eps_sq = 1e-8
    log_inv = -0.5 * math.log(eps_sq)
    assert abs(
        hellinger_rate_normalizer(eps_sq) - eps_sq * log_inv / math.log(log_inv)
    ) <= 1e-22
    # moderate separation: the log clamps at e, loglog at 1
    assert abs(hellinger_rate_normalizer(0.9) - 0.9 * math.e) <= 1e-15
    with pytest.raises(ValueError):
        hellinger_rate_normalizer(0.0)


def test_integration_window_tracks_support():
    small = integration_window(MarginalModel(DiscretePrior([0.0], [1.0])))
    wide = integration_window(MarginalModel(DiscretePrior([-6.0, 6.0], [0.5, 0.5])))
    assert wide.truncation_radius > small.truncation_radius
    assert small.truncation_radius > 6.0


def test_metric_report_shape_and_serialization():
    g = DiscretePrior([-1.0, 1.0], [0.5, 0.5])
    h = DiscretePrior([0.0], [1.0])
    report = compute_metric_report(g, h, rhos=(0.2, 0.05))
    assert abs(report["regret"] - _single("regret", g, h)) <= 1e-12
    assert set(report) == {"hellinger_sq", "delta", "delta_flux", "regret", 0.05, 0.2}
    assert isinstance(FormMismatch("x"), RuntimeError)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(g=_PRIORS, h=_PRIORS, rhos=st.lists(st.floats(1e-3, 1.0), max_size=3))
def test_one_pass_report_matches_single_functionals(g, h, rhos):
    report = compute_metric_report(g, h, rhos)
    singles = {
        "hellinger_sq": _single("hellinger_sq", g, h),
        "delta": _single("delta", g, h),
        "delta_flux": _single("delta_flux", g, h),
        "regret": _single("regret", g, h),
    }
    for name, single in singles.items():
        assert abs(report[name] - single) <= 1e-9 * abs(single) + 1e-12, name
    for rho in rhos:
        single = _clipped(g, h, rho)
        assert abs(report[rho] - single) <= 1e-9 * abs(single) + 1e-12
    slack = 1.0 + 1e-9
    assert report["delta"] <= report["hellinger_sq"] * slack
    assert report["hellinger_sq"] <= 2.0 * report["delta"] * slack
    score = _single("regret_score_form", g, h)
    assert abs(report["regret"] - score) <= 1e-7 * max(report["regret"], score) + 1e-15
    swapped = compute_metric_report(h, g)["delta_flux"]
    assert abs(swapped - report["delta_flux"]) <= 1e-9 * report["delta_flux"] + 1e-12


@settings(derandomize=True, deadline=None, max_examples=10)
@given(pairs=st.lists(st.tuples(_PRIORS, _PRIORS), max_size=6))
def test_report_sweep_is_each_pair_reported_alone(pairs):
    # pairs of any atom counts share one lock-step pass
    assert compute_metric_reports(pairs) == [compute_metric_report(g, h) for g, h in pairs]


def test_report_sweep_with_zero_weight_atoms_is_each_pair_reported_alone():
    # a sweep stacks log 0 = -inf weights once; no RuntimeWarning, and each pair's bits alone
    pairs = [
        (DiscretePrior([-1.0, 0.0, 1.5], [0.5, 0.0, 0.5]), DiscretePrior([-0.5, 2.0], [1.0, 0.0])),
        (DiscretePrior([-1.0, 0.5, 1.0], [0.0, 0.25, 0.75]), DiscretePrior([0.0, 1.0], [0.6, 0.4])),
        (DiscretePrior([0.2, 0.4, 1.9], [0.3, 0.7, 0.0]), DiscretePrior([-2.0, 0.0], [0.0, 1.0])),
        (DiscretePrior([-0.3, 0.8], [0.0, 1.0]), DiscretePrior.point(0.8)),
    ]
    assert compute_metric_reports(pairs) == [compute_metric_report(g, h) for g, h in pairs]


def _sweep_pairs():
    """Pairs of 1-8 atoms against 8-1; G (even sizes) or H (odd) has one weight-0 atom, placed in turn."""
    rng = np.random.default_rng(20)
    pairs = []
    for size in range(1, 9):
        priors = []
        for side, k in enumerate((size, 9 - size)):
            weights = rng.dirichlet(np.ones(k))
            if k > 1 and side == size % 2:
                weights[(size - 1) % k] = 0.0
                weights /= weights.sum()
            priors.append(DiscretePrior(np.sort(rng.uniform(-2.0, 2.0, k)), weights))
        pairs.append(tuple(priors))
    return pairs


_NAMES = ["hellinger_sq", "delta", "delta_flux", "regret", "regret_score_form"]


@pytest.mark.parametrize("names", [[name] for name in _NAMES] + [_NAMES], ids=[*_NAMES, "all"])
def test_sweep_of_any_atom_counts_is_one_pass_and_each_pair_alone(monkeypatch, names):
    pairs = _sweep_pairs()
    assert {g.atoms.size for g, _ in pairs} == set(range(1, 9))
    assert all(0.0 in g.weights for g, _ in pairs[1::2]) and all(0.0 in h.weights for _, h in pairs[::2])
    assert any(pair[side].weights[0] == 0.0 for pair in pairs for side in (0, 1))
    passes = []
    integrate = metrics.integrate_lines

    def counted(f, specs):
        passes.append(len(specs))
        return integrate(f, specs)

    monkeypatch.setattr(metrics, "integrate_lines", counted)
    sweep = compute_metric_reports(pairs, names)
    assert passes == [len(pairs)]
    for values, (g, h) in zip(sweep, pairs):
        alone = pair_integrals(g, h, names)
        assert {k: v.hex() for k, v in values.items()} == {k: v.hex() for k, v in alone.items()}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    g=_PRIORS,
    h=_PRIORS,
    ys=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=50).map(np.array),
)
def test_decomposition_residual_vanishes_on_random_priors(g, h, ys):
    assert np.max(decomposition_residual(g, h, ys)) <= 1e-9


def test_decomposition_residual_is_finite_where_densities_underflow():
    # f_G underflows past y = 38, f_H below y = -8; the pair state stays finite there
    ys = np.linspace(-20.0, 50.0, 141)
    pairs = [
        (DiscretePrior.point(0.0), DiscretePrior.point(30.0)),
        (DiscretePrior([-1.0, 0.5, 2.0], [0.3, 0.0, 0.7]), DiscretePrior.point(30.0)),
    ]
    for g, h in pairs:
        res = decomposition_residual(g, h, ys)
        assert np.isfinite(res).all()
        assert np.max(res) <= 1e-9
    assert decomposition_residual(*pairs[0], 40.0) <= 1e-9


def test_decomposition_residual_sees_wrong_posterior_means(monkeypatch):
    g = DiscretePrior([-1.0, 0.3, 1.4], [0.2, 0.5, 0.3])
    h = DiscretePrior([-0.6, 0.8], [0.55, 0.45])
    ys = np.linspace(-8.0, 8.0, 101)
    assert np.max(decomposition_residual(g, h, ys)) <= 1e-9
    init = metrics._PairState.__init__

    def corrupted(self, *args):
        init(self, *args)
        self.mg, self.mh = 3.0 * self.mg + 7.0, -self.mh

    monkeypatch.setattr(metrics._PairState, "__init__", corrupted)
    assert np.max(decomposition_residual(g, h, ys)) >= 1e-3


class _Captured(Exception):
    pass


def _integrand_of(module, build):
    """The integrand ``build`` hands to ``module.integrate_line``; the pass stops there."""
    captured = []

    def capture(f, spec=None):
        captured.append(f)
        raise _Captured

    with mock.patch.object(module, "integrate_line", capture), pytest.raises(_Captured):
        build()
    return captured[0]


def _assert_batch_invariant(f, ys, cut):
    """Rows of ``f`` on the whole batch equal its rows on two parts of it."""
    whole = f(ys)
    parts = np.concatenate([f(ys[:cut]), f(ys[cut:])])
    np.testing.assert_allclose(parts, whole, rtol=1e-14, atol=0.0)


_NODES = st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=60).map(np.array)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(g=_PRIORS, h=_PRIORS, rhos=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3),
       ys=_NODES, data=st.data())
def test_pair_integrand_rows_do_not_depend_on_node_batching(g, h, rhos, ys, data):
    names = ["hellinger_sq", "delta", "delta_flux", "regret", "regret_score_form"]
    f = _integrand_of(metrics, lambda: metrics.pair_integrals(g, h, names, rhos))
    assert f(ys).shape == (ys.size, len(names) + len(set(rhos)) + 1)  # + the second flux form
    _assert_batch_invariant(f, ys, data.draw(st.integers(1, ys.size - 1)))


_STATE_FIELDS = ("lg", "lh", "fg", "fh", "mg", "mh", "imbalance")


def _node_values(state, formulas):
    """Each pair-state field and formula column, one array over the nodes each."""
    return [getattr(state, name) for name in _STATE_FIELDS] + list(metrics._columns(formulas, state).T)


@pytest.mark.parametrize("atoms", range(1, 41))
def test_a_nodes_pair_state_is_bit_identical_in_every_batch(atoms):
    # numpy sums 8 or more atoms of a single node pairwise, so batches start at 2 nodes;
    # the integrators call with 15 or more
    rng = np.random.default_rng(atoms)

    def prior(size):
        return DiscretePrior(rng.uniform(-3.0, 3.0, size), rng.dirichlet(np.ones(size)))

    pairs = [(MarginalModel(prior(atoms)), MarginalModel(prior(41 - atoms))) for _ in range(3)]
    stacks = [MarginalModel.stack([pair[side] for pair in pairs]) for side in (0, 1)]
    formulas = metrics._pair_formulas(metrics._REPORT_NAMES, [0.05])
    y, which = rng.uniform(-8.0, 8.0, 3840), rng.integers(0, len(pairs), 3840)

    def stacked_values(n):
        state = metrics._PairState(*(stack.rows(which[:n]) for stack in stacks), y[:n])
        return _node_values(state, formulas)

    whole = stacked_values(y.size)
    for n in (2, 15):
        for part, full in zip(stacked_values(n), whole):
            assert part.tobytes() == full[:n].tobytes()
    for r, pair in enumerate(pairs):  # each pair's own models on the whole batch
        alone = _node_values(metrics._PairState(*pair, y), formulas)
        for own, full in zip(alone, whole):
            assert own[which == r].tobytes() == full[which == r].tobytes()


@settings(derandomize=True, deadline=None, max_examples=25)
@given(ms=st.sets(st.integers(2, 12), min_size=1).map(sorted), ys=_NODES, data=st.data())
def test_lowerbound_integrand_rows_do_not_depend_on_node_batching(ms, ys, data):
    # the sweep's one pass: an eps^2 and a regret column per m
    f = _integrand_of(families, lambda: families.lowerbound_ratio_sweep(ms))
    assert f(ys).shape == (ys.size, 2 * len(ms))
    _assert_batch_invariant(f, ys, data.draw(st.integers(1, ys.size - 1)))


def test_bad_rho_raises_before_integrating(monkeypatch):
    def refuse(f, spec):
        raise AssertionError("integrated before the rho check")

    monkeypatch.setattr(metrics, "integrate_line", refuse)
    g = DiscretePrior([-1.0, 1.0], [0.5, 0.5])
    h = DiscretePrior([0.0], [1.0])
    for bad in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            compute_metric_report(g, h, rhos=(0.1, bad))
        with pytest.raises(ValueError):
            _clipped(g, h, bad)
        with pytest.raises(ValueError):
            families.regularization_necessity_demo(2.0, 6.0, rho_values=(bad,))
    args = ["--prior-g", "two_point:m=1", "--prior-h", "point:u=0", "--rhos", "0.1,nan"]
    assert main(["metrics", *args]) == 2
    assert main(["regratio", "--p", "2", "--b", "8", "--rhos", "0.1,-1"]) == 2


def test_flux_forms_are_cross_checked_in_every_pass(monkeypatch):
    g = DiscretePrior([-1.0, 0.5], [0.4, 0.6])
    h = DiscretePrior([0.0, 1.2], [0.7, 0.3])
    exact_form = metrics._flux_gprime
    for scale, passes in ((1.0 + 5e-8, True), (1.0 + 2e-7, False)):
        monkeypatch.setattr(metrics, "_flux_gprime", lambda s: scale * exact_form(s))
        for run in (functools.partial(_single, "delta_flux"), compute_metric_report):
            if passes:
                run(g, h)
            else:
                with pytest.raises(FormMismatch, match="score-flux forms disagree"):
                    run(g, h)
