import json
import math

import numpy as np
import pytest

import eblab.cli as cli
import eblab.metrics as metrics
from eblab.cli import generate_prior, main, parse_prior_spec
from eblab.metrics import FormMismatch
from eblab.mixtures import DiscretePrior, check_class_membership
from eblab.npmle import cell_rng
from eblab.orthopoly import HypothesisViolated, bernstein_constant
from eblab.reports import ExperimentSpec, InvalidParameter


def test_parse_prior_spec_forms(tmp_path):
    rng = cell_rng(0)
    inline = parse_prior_spec('{"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]}', rng)
    assert np.array_equal(inline.atoms, [-1.0, 1.0])
    path = tmp_path / "prior.json"
    path.write_text(DiscretePrior([0.25], [1.0]).to_json())
    from_file = parse_prior_spec(f"@{path}", rng)
    assert np.array_equal(from_file.atoms, [0.25])
    named = parse_prior_spec("two_point:m=1.5", rng)
    assert named.atoms.size == 2
    assert np.max(np.abs(named.atoms)) <= 1.5
    with pytest.raises(InvalidParameter):
        parse_prior_spec("two_point:m", rng)
    with pytest.raises(InvalidParameter):
        parse_prior_spec("two_point:m=x", rng)


def test_generate_prior_families():
    rng = cell_rng(1)
    point = generate_prior("point", {"u": 0.7}, rng)
    assert np.array_equal(point.atoms, [0.7])
    katom = generate_prior("k_atom", {"k": 4, "m": 2.0}, rng)
    assert katom.atoms.size == 4
    assert np.max(np.abs(katom.atoms)) <= 2.0
    galpha = generate_prior("g_alpha", {"alpha": 1.0, "sigma": 1.0, "k": 6}, rng)
    assert check_class_membership(galpha, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        generate_prior("mystery", {}, rng)
    with pytest.raises(InvalidParameter):
        generate_prior("k_atom", {"k": 0}, rng)


def test_main_exit_codes(tmp_path):
    # bad parameter -> 2
    assert main(["moment", "--p", "2.0", "--b-values", "4,notanumber"]) == 2
    # solver budget exhaustion -> 3
    data = tmp_path / "y.txt"
    rng = cell_rng(0, 5)
    np.savetxt(data, rng.standard_normal(50))
    assert (
        main(
            [
                "--out",
                str(tmp_path / "stall"),
                "npmle",
                "--data",
                str(data),
                "--max-iters",
                "2",
                "--grid-size",
                "40",
            ]
        )
        == 3
    )


@pytest.mark.parametrize("error", [FormMismatch, HypothesisViolated])
def test_unmet_guarantees_exit_3_without_traceback(monkeypatch, capsys, error):
    def runner(spec):
        raise error("guarantee not met")

    monkeypatch.setitem(cli._EXPERIMENTS, "moment", runner)
    assert main(["moment"]) == 3
    err = capsys.readouterr().err
    assert err == "eblab: guarantee not met\n"


def test_non_finite_integrand_exits_3_without_traceback(monkeypatch, capsys):
    integrate = metrics.integrate_line

    def poisoned(f, spec):
        return integrate(lambda y: f(y) * np.nan, spec)

    monkeypatch.setattr(metrics, "integrate_line", poisoned)
    assert main(["metrics", "--prior-g", "two_point:m=1", "--prior-h", "point:u=0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("eblab: integrand produced non-finite values")
    assert "Traceback" not in err


def test_npmle_data_sidecar_records_solver_diagnostics(tmp_path):
    data = tmp_path / "y.txt"
    np.savetxt(data, cell_rng(0, 6).standard_normal(80))
    args = ["npmle", "--data", str(data), "--grid-size", "60"]
    for label in ("a", "b"):
        assert main(["--out", str(tmp_path / label)] + args) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    payload = json.loads((tmp_path / "a.json").read_text())
    assert payload["columns"] == ["n", "loglik", "cert", "iterations", "support_size"]
    diagnostics = payload["summary"]["diagnostics"]
    assert set(diagnostics) == {"sqp_steps", "em_steps", "max_working_set"}
    row = (tmp_path / "a.csv").read_text().splitlines()[1].split(",")
    iterations, support_size = int(row[3]), int(row[4])
    assert iterations == 1 + diagnostics["sqp_steps"] + diagnostics["em_steps"]
    assert diagnostics["max_working_set"] >= support_size


def test_main_success_writes_reports(tmp_path):
    out = tmp_path / "h"
    assert main(["--out", str(out), "hermite", "--m-min", "2", "--m-max", "4"]) == 0
    csv_text = (tmp_path / "h.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header.startswith("m,")
    payload = json.loads((tmp_path / "h.json").read_text())
    assert payload["row_count"] == 3
    assert payload["spec"]["name"] == "hermite"


def _bernstein_rows(prior, k_min, k_max):
    params = {"prior": prior, "k_min": k_min, "k_max": k_max}
    return cli.run(ExperimentSpec(name="bernstein", params=params)).rows


def test_bernstein_point_mass_rows_are_sqrt_k():
    # for w = phi the sharp constant is exactly sqrt(k)
    for row in _bernstein_rows("point:u=0", 2, 40):
        exact = math.sqrt(row["k"])
        assert abs(row["l_norm"] - exact) <= 1e-13 * exact


def test_bernstein_rows_from_one_build_match_per_degree_builds():
    prior = parse_prior_spec("k_atom:k=5,m=1", cell_rng(0, 0))
    for row in _bernstein_rows("k_atom:k=5,m=1", 2, 16):
        per_degree = bernstein_constant(prior, row["k"])
        assert abs(row["l_norm"] - per_degree) <= 1e-12 * per_degree


def test_reruns_are_byte_identical_across_threads(tmp_path):
    args = [
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
    for label, threads in (("a", "1"), ("b", "4")):
        assert main(["--out", str(tmp_path / label), "--threads", threads] + args) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_config_file_supplies_defaults(tmp_path):
    config = {"p": 2.0, "b_values": "4,6", "out": str(tmp_path / "cfg")}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "moment"]) == 0
    rows = (tmp_path / "cfg.csv").read_text().splitlines()
    assert len(rows) == 3  # header + one row per b
    # explicit flags win over the config file
    assert main(["--config", str(cfg), "--out", str(tmp_path / "cli"), "moment", "--b-values", "4"]) == 0
    assert len((tmp_path / "cli.csv").read_text().splitlines()) == 2


def test_regratio_pair_sweep_records_max_ratio(tmp_path):
    out = tmp_path / "sweep"
    args = ["--seed", "5", "--out", str(out), "regratio", "--pairs", "two_point:m=1", "--count", "30"]
    assert main(args) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "pair,eps_sq,delta,delta_flux,regret,ratio"
    assert len(lines) == 31
    ratios = [float(line.split(",")[-1]) for line in lines[1:]]
    assert all(r >= 0.0 for r in ratios)
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert np.isfinite(payload["summary"]["max_ratio"])
    assert payload["summary"]["max_ratio"] == max(ratios)
    # identical draws carry no signal, so every kept pair is separated
    eps = [float(line.split(",")[1]) for line in lines[1:]]
    assert min(eps) > 0.0


def test_regratio_rejects_mixed_and_fixed_specs(capsys):
    assert main(["regratio", "--pairs", "two_point:m=1", "--b", "8"]) == 2
    assert main(["regratio", "--pairs", '{"atoms": [0.0], "weights": [1.0]}']) == 2
    capsys.readouterr()


def test_regratio_clipping_demo_mode(tmp_path):
    out = tmp_path / "demo"
    assert main(["--out", str(out), "regratio", "--p", "2", "--b", "8", "--rhos", "0.05,0.2"]) == 0
    lines = (tmp_path / "demo.csv").read_text().splitlines()
    assert lines[0] == "rho,regret,regret_regularized,ratio,envelope"
    rhos = [float(line.split(",")[0]) for line in lines[1:]]
    assert rhos == sorted(rhos)
    assert len(rhos) == 3  # the pair's own separation level is inserted


def test_metrics_of_identical_point_priors_vanishes(tmp_path):
    out = tmp_path / "zero"
    assert main(["--out", str(out), "metrics", "--prior-g", "point:u=0", "--prior-h", "point:u=0"]) == 0
    row = (tmp_path / "zero.csv").read_text().splitlines()[1]
    values = [float(v) for v in row.split(",")]
    assert max(abs(v) for v in values) <= 1e-10


def test_lowerbound_rows_and_positive_ratio(tmp_path):
    out = tmp_path / "lb"
    assert main(["--out", str(out), "lowerbound", "--m-min", "2", "--m-max", "6"]) == 0
    lines = (tmp_path / "lb.csv").read_text().splitlines()
    assert len(lines) == 6
    header = lines[0].split(",")
    ratio_col = header.index("ratio")
    assert all(float(line.split(",")[ratio_col]) > 0.0 for line in lines[1:])


_DATA_GRID = ["npmle", "--data", "{data}", "--grid-min", "-3", "--grid-max", "3"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["npmle", "--n-values", "40", "--n-seeds", "1", "--grid-min", "-3"], "--grid-min"),
        (["npmle", "--n-values", "40", "--n-seeds", "1", "--grid-max", "3"], "--grid-max"),
        (["npmle", "--data", "{data}", "--grid-min", "-3"], "--grid-min"),
        (["npmle", "--data", "{data}", "--grid-max", "3"], "--grid-max"),
        (_DATA_GRID + ["--constrained"], "--constrained"),
        (_DATA_GRID + ["--constrained", "--mprime", "2"], "--constrained"),
        (["npmle", "--data", "{data}", "--prior", "two_point:m=1"], "--prior"),
        (["npmle", "--data", "{data}", "--n-values", "40"], "--n-values"),
        (["npmle", "--data", "{data}", "--n-seeds", "2"], "--n-seeds"),
        (["npmle", "--n-values", "40", "--n-seeds", "1", "--mprime", "2"], "--mprime"),
        (["npmle", "--data", "{data}", "--mprime", "2"], "--mprime"),
        (["regratio", "--p", "2", "--b", "8", "--count", "3"], "--count"),
        (["lowerbound", "--m-min", "5", "--m-max", "4"], "m_min"),
        (["lowerbound", "--m-min", "1", "--m-max", "3"], "m_min"),
        (["bernstein", "--prior", "point:u=0", "--k-max", "61"], "k_max"),
        (["bernstein", "--prior", "point:u=0", "--grid-size", "0"], "grid_size"),
        (["bernstein", "--prior", "point:u=0", "--grid-size", "-5"], "grid_size"),
    ],
    ids=[
        "synthetic-grid-min",
        "synthetic-grid-max",
        "data-grid-min-alone",
        "data-grid-max-alone",
        "data-grid-constrained",
        "data-grid-constrained-mprime",
        "data-prior",
        "data-n-values",
        "data-n-seeds",
        "synthetic-mprime-unconstrained",
        "data-mprime-unconstrained",
        "demo-count",
        "lowerbound-empty-range",
        "lowerbound-m-below-2",
        "bernstein-k-max-past-cap",
        "bernstein-grid-size-zero",
        "bernstein-grid-size-negative",
    ],
)
def test_unapplied_flags_exit_2_naming_the_flag(tmp_path, capsys, argv, named):
    data = tmp_path / "y.txt"
    np.savetxt(data, cell_rng(0, 7).standard_normal(30))
    argv = [str(data) if arg == "{data}" else arg for arg in argv]
    assert main(["--out", str(tmp_path / "r")] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("eblab: ") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "argv, columns",
    [
        (
            ["metrics", "--prior-g", "two_point:m=1", "--prior-h", "point:u=0", "--rhos", "0.2,0.05"],
            "hellinger_sq,delta,delta_flux,regret,rho_0,regret_reg_0,rho_1,regret_reg_1",
        ),
        (
            ["bernstein", "--prior", "point:u=0", "--k-min", "2", "--k-max", "3", "--grid-size", "400"],
            "k,l_norm,bound,gauss_reference,within_bound",
        ),
        (
            ["hermite", "--m-min", "2", "--m-max", "3", "--j-max", "60"],
            "m,leading_gap,leading_gap_exact,alpha,beta,alpha_lower,alpha_upper,beta_to_alpha,bounds_ok",
        ),
        (["lowerbound", "--m-min", "2", "--m-max", "3"], "m,tau,alpha,beta,eps_sq,regret,ratio"),
        (["moment", "--p", "3", "--b-values", "4,8"], "p,b,eta,eps_sq,regret,regret_lb,lb_ok"),
        (["regratio", "--pairs", "two_point:m=1", "--count", "2"], "pair,eps_sq,delta,delta_flux,regret,ratio"),
        (["regratio", "--p", "2", "--b", "8", "--rhos", "0.1"], "rho,regret,regret_regularized,ratio,envelope"),
        (
            ["npmle", "--n-values", "40", "--n-seeds", "1", "--grid-size", "30"],
            "n,seed,eps_sq,regret,loglik,cert",
        ),
        (["npmle", "--data", "{data}", "--grid-size", "30"], "n,loglik,cert,iterations,support_size"),
    ],
    ids=[
        "metrics",
        "bernstein",
        "hermite",
        "lowerbound",
        "moment",
        "regratio-pairs",
        "regratio-demo",
        "npmle",
        "npmle-data",
    ],
)
def test_csv_headers_are_pinned_and_echo_only_own_params(tmp_path, argv, columns):
    data = tmp_path / "y.txt"
    np.savetxt(data, cell_rng(0, 8).standard_normal(40))
    argv = [str(data) if arg == "{data}" else arg for arg in argv]
    # k_max belongs to bernstein and m_max to hermite/lowerbound; each case
    # that owns one sets it on the command line, so config values never apply
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"k_max": 5, "m_max": 5}))
    assert main(["--config", str(config), "--out", str(tmp_path / "r")] + argv) == 0
    header = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert header == columns
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["columns"] == columns.split(",")
    given = {arg[2:].replace("-", "_") for arg in argv if arg.startswith("--")}
    assert set(payload["spec"]["params"]) == given


@pytest.mark.parametrize("command, key", [("moment", "b_values"), ("npmle", "n_values")])
def test_empty_sweep_list_from_config_exits_2(tmp_path, capsys, command, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: []}))
    assert main(["--config", str(config), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eblab: need at least one")


class _ScriptedRng:
    """Hands out fixed atom draws in order; fixed split and weights."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.used = 0

    def _next(self):
        draw = self.draws[min(self.used, len(self.draws) - 1)]
        self.used += 1
        return np.array(draw, dtype=float)

    def uniform(self, low, high, size=None):
        return 0.5 if size is None else self._next()

    def standard_normal(self, size):
        return self._next()

    def dirichlet(self, alpha):
        return np.full(len(alpha), 1.0 / len(alpha))


@pytest.mark.parametrize(
    "name, params, draws",
    [
        ("two_point", {"m": 1.0}, [[0.3, 0.3], [0.3, -0.2]]),
        ("k_atom", {"k": 3, "m": 1.0}, [[0.1, -0.4, 0.1], [0.1, -0.4, 0.2]]),
        ("g_alpha", {"alpha": 1.0, "sigma": 1.0, "k": 3}, [[0.2, 0.2, -0.1], [0.2, 0.3, -0.1]]),
    ],
    ids=["two_point", "k_atom", "g_alpha"],
)
def test_generators_redraw_repeated_atoms(name, params, draws):
    rng = _ScriptedRng(draws)
    prior = generate_prior(name, params, rng)
    assert rng.used == 2
    assert np.array_equal(prior.atoms, np.sort(draws[1]))


def test_generator_that_keeps_repeating_exits_2(monkeypatch, capsys):
    rng = _ScriptedRng([[0.3, 0.3]])
    monkeypatch.setattr(cli.npmle, "cell_rng", lambda *args: rng)
    assert main(["metrics", "--prior-g", "two_point:m=1", "--prior-h", "point:u=0"]) == 2
    assert rng.used == 101
    err = capsys.readouterr().err
    assert err == "eblab: prior generator keeps drawing repeated atoms\n"


def test_one_value_moment_sweep_writes_strict_json(tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    assert main(["--out", str(tmp_path / "m"), "moment", "--b-values", "4"]) == 0
    sidecar = json.loads((tmp_path / "m.json").read_text(), parse_constant=reject)
    assert sidecar["summary"]["fitted_exponent"] is None

