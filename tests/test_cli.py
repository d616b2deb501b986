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
