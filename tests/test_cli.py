import csv
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eblab.cli as cli
import eblab.metrics as metrics
import eblab.npmle as npmle
import eblab.orthopoly as orthopoly
import eblab.quadrature as quadrature
from eblab.cli import _parse_generator, main, parse_prior_spec
from eblab.metrics import FormMismatch
from eblab.mixtures import DiscretePrior, check_class_membership
from eblab.npmle import cell_rng
from eblab.orthopoly import HypothesisViolated, bernstein_constant
from eblab.reports import ExperimentSpec, InvalidParameter, format_value


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
    point = parse_prior_spec("point:u=0.7", rng)
    assert np.array_equal(point.atoms, [0.7])
    katom = parse_prior_spec("k_atom:k=4,m=2.0", rng)
    assert katom.atoms.size == 4
    assert np.max(np.abs(katom.atoms)) <= 2.0
    galpha = parse_prior_spec("g_alpha:alpha=1.0,sigma=1.0,k=6", rng)
    assert check_class_membership(galpha, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        parse_prior_spec("mystery", rng)
    with pytest.raises(InvalidParameter):
        parse_prior_spec("k_atom:k=0", rng)


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


@pytest.mark.parametrize(
    "argv, code, named",
    [
        (["hermite", "--m-min", "80", "--m-max", "90"], 2, "[1, 66]"),
        (["moment", "--p", "3", "--b-values", "1e200"], 2, "eta = b^-p rounds to 0.0"),
        (["regratio", "--p", "2", "--b", "1e200"], 2, "eta = b^-p rounds to 0.0"),
        (["metrics", "--prior-g", "point:u=0", "--prior-h", "point:u=1e160"], 2, "past 1e+147"),
        (["metrics", "--prior-g", "point:u=0", "--prior-h", "point:u=1e150"], 2, "past 1e+147"),
        (["moment", "--p", "1", "--b-values", "1000000"], 3, "cell y > 500000.0: no panel"),
        (["moment", "--p", "1", "--b-values", "30000"], 3, "cell y > 15000.0: no panel"),
        (["moment", "--p", "1", "--b-values", "100000"], 3, "cell y > 50000.0: no panel"),
        (["metrics", "--prior-g", "point:u=0", "--prior-h", "point:u=1e5"], 3,
         "below its lower bound 2.0 from the cell y > 50000.0: no panel"),
        (["metrics", "--prior-g", "point:u=0", "--prior-h", "point:u=1e146"], 3,
         "eps^2 = 0.0 is below its lower bound 2.0"),
        # phi^2/f of a point mass at u peaks near e^(u^2); at 1e200 its log terms overflow.
        # No overflow warning may leak on the way.
        (["bernstein", "--prior", "point:u=1e200", "--k-max", "3"], 2,
         "weight phi^2/f overflows a double on the grid at support bound 1e+200 "),
        (["regratio", "--p", "2", "--b", "8", "--rhos", "inf"], 2, "rho must be positive and finite, not inf"),
        (["metrics", "--prior-g", "two_point:m=1", "--prior-h", "point:u=0", "--rhos", "0.1,inf"], 2,
         "rho must be positive and finite, not inf"),
    ],
    ids=["hermite-alpha-underflow", "moment-eta-underflow", "demo-eta-underflow",
         "metrics-support-overflow", "metrics-support-past-window", "moment-spike-missed",
         "moment-spike-missed-3e4", "moment-spike-bump-missed-1e5", "metrics-far-atom-1e5",
         "metrics-far-atom-1e146", "bernstein-weight-overflow-1e200",
         "demo-rho-infinite", "metrics-rho-infinite"],
)
def test_out_of_range_inputs_exit_with_their_code(capsys, argv, code, named):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("eblab: ") and named in err
    assert "Traceback" not in err


def test_bernstein_point_mass_past_the_double_range_of_its_weight(tmp_path, capsys):
    # phi^2/f of a point mass at 27 peaks near e^729, past a double: the measure is divided by its peak,
    # which leaves every row as it was, and a point mass's rows are sqrt(k), as for the Gaussian weight
    out = tmp_path / "b"
    assert main(["--out", str(out), "bernstein", "--prior", "point:u=27", "--k-max", "12"]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader((tmp_path / "b.csv").read_text().splitlines()))
    assert [int(row["k"]) for row in rows] == list(range(1, 13))
    for row in rows:
        assert abs(float(row["l_norm"]) - math.sqrt(int(row["k"]))) <= 1e-13 * math.sqrt(int(row["k"]))


@pytest.mark.parametrize(
    "generator, key",
    [
        ("two_point:m=1,k=3", "k"),
        ("point:u=1,m=2", "m"),
        ("k_atom:k=5,m=1,k=6", "k"),
        ("k_atom:k=5.5", "k"),
        ("k_atom:k=inf", "k"),
        ("k_atom:m=inf", "m"),
        ("g_alpha:sigma=inf", "sigma"),
        ("k_atom:m=1e308", "m"),
        ("two_point:m=1e308", "m"),
    ],
    ids=["key-not-read", "point-key-not-read", "key-twice", "fractional-k", "infinite-k",
         "infinite-m", "infinite-sigma", "k-atom-range-overflow", "two-point-range-overflow"],
)
def test_bad_generator_specs_exit_2_naming_the_key(capsys, generator, key):
    assert main(["regratio", "--pairs", generator, "--count", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eblab: ") and repr(key) in err
    assert "Traceback" not in err
    # a prior flag parses the same spec
    assert main(["metrics", "--prior-g", generator, "--prior-h", "point:u=0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eblab: ") and repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["npmle", "--data", "MISSING/y.txt"], "MISSING/y.txt"),
        (["--config", "MISSING/c.json", "npmle", "--data", "MISSING/y.txt"], "MISSING/c.json"),
        (["metrics", "--prior-g", "@MISSING/g.json", "--prior-h", "point:u=0"], "MISSING/g.json"),
        (["bernstein", "--prior", "point:u=0", "--k-max", "3", "--dump-matrices", "MISSING/x.npz"],
         "MISSING/x.npz"),
        (["metrics", "--prior-g", '{"atoms":[0]}', "--prior-h", "point:u=1"], "'weights'"),
    ],
    ids=["npmle-data", "config", "metrics-prior-file", "bernstein-dump", "prior-json-no-weights"],
)
def test_unreadable_or_incomplete_inputs_exit_2(tmp_path, capsys, argv, named):
    missing = str(tmp_path / "missing")  # a directory that does not exist
    assert main([arg.replace("MISSING", missing) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eblab: ") and named.replace("MISSING", missing) in err
    assert "Traceback" not in err


def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert main(["--out", str(out), "hermite"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"eblab: cannot write --out {str(out)!r}: ")
    assert "Traceback" not in err


def test_out_prints_the_paths_it_writes(tmp_path, capsys):
    out = tmp_path / "run.v2"
    assert main(["--out", str(out), "hermite"]) == 0
    assert capsys.readouterr().out == f"wrote {out}.csv\nwrote {out}.json\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2.csv", "run.v2.json"]
    # a path with no file name is bad input, not a traceback
    assert main(["--out", ".", "hermite"]) == 2
    assert capsys.readouterr().err.startswith("eblab: cannot write --out '.': ")


def test_out_naming_a_device_or_fifo_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setitem(cli._EXPERIMENTS, "hermite", calls.append)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    devices = set(os.listdir("/dev"))
    for out in (str(fifo), f"{fifo}.csv", os.devnull):
        assert main(["--out", out, "hermite"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"eblab: cannot write --out {out!r}: ") and "device or FIFO" in err
    assert calls == []  # refused before the run
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
    assert not {"null.csv", "null.json"} & (set(os.listdir("/dev")) - devices)


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
    assert set(diagnostics) == {"sqp_steps", "em_steps", "max_working_set", "binned_steps", "pricing_passes",
                                "priced_rows", "max_rows"}
    row = (tmp_path / "a.csv").read_text().splitlines()[1].split(",")
    iterations, support_size = int(row[3]), int(row[4])
    assert iterations == 1 + diagnostics["sqp_steps"] + diagnostics["em_steps"]
    assert diagnostics["max_working_set"] >= support_size


def test_npmle_data_far_observation_fits_without_overflow_warning(tmp_path, capsys):
    # (1e200 - 0.1)^2 overflows; phi of that distance is 0, as the fit needs
    data = tmp_path / "y.txt"
    data.write_text("0.1\n0.5\n1e200\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["npmle", "--data", str(data)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err


def test_npmle_synthetic_sidecar_sums_solver_diagnostics(tmp_path, monkeypatch):
    solutions = []
    solve = npmle.solve_npmle

    def recorded(problem):
        solutions.append(solve(problem))
        return solutions[-1]

    monkeypatch.setattr(npmle, "solve_npmle", recorded)
    args = ["npmle", "--n-values", "40,60", "--n-seeds", "2", "--grid-size", "50"]
    assert main(["--out", str(tmp_path / "s")] + args) == 0
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["columns"] == ["n", "seed", "eps_sq", "regret", "loglik", "cert"]
    assert len(solutions) == payload["row_count"] == 4
    assert payload["summary"]["diagnostics"] == {
        "iterations": sum(s.iterations for s in solutions),
        "sqp_steps": sum(s.diagnostics["sqp_steps"] for s in solutions),
        "em_steps": sum(s.diagnostics["em_steps"] for s in solutions),
        "max_working_set": max(s.diagnostics["max_working_set"] for s in solutions),
        "binned_steps": sum(s.diagnostics["binned_steps"] for s in solutions),
        "pricing_passes": sum(s.diagnostics["pricing_passes"] for s in solutions),
        "priced_rows": sum(s.diagnostics["priced_rows"] for s in solutions),
        "max_rows": max(s.diagnostics["max_rows"] for s in solutions),
    }


def test_npmle_synthetic_grid_flags_fix_every_fit_grid(tmp_path, monkeypatch):
    lo, hi = -0.5, 0.75
    calls = []
    experiment = npmle.empirical_regret_experiment

    def recorded(true_prior, cells, **fit_options):
        calls.append((true_prior, cells))
        return experiment(true_prior, cells, **fit_options)

    monkeypatch.setattr(npmle, "empirical_regret_experiment", recorded)
    args = ["npmle", "--prior", "two_point:m=2", "--n-values", "60,90", "--n-seeds", "2",
            "--grid-size", "50", "--grid-min", str(lo), "--grid-max", str(hi)]
    assert main(["--seed", "3", "--out", str(tmp_path / "g")] + args) == 0
    [(true_prior, cells)] = calls
    fits = experiment(true_prior, cells, grid_size=50, bounds=(lo, hi))
    atoms = np.concatenate([solution.prior.atoms for _, solution in fits])
    assert lo <= atoms.min() and atoms.max() <= hi
    assert lo in atoms or hi in atoms  # the grid binds: some fit leans on an end
    rows = [",".join(format_value(v) for v in record.values()) for record, _ in fits]
    assert (tmp_path / "g.csv").read_text().splitlines() == [",".join(fits[0][0])] + rows


@pytest.mark.parametrize("lo", ["-1e3", "-1.5E1", "-3", "-.5"])
def test_npmle_grid_min_reads_a_negative_number_in_exponent_form(tmp_path, lo):
    data = tmp_path / "y.txt"
    np.savetxt(data, cell_rng(0, 7).standard_normal(30))
    argv = ["npmle", "--data", str(data), "--grid-size", "50", "--grid-max", "1e3"]
    assert main(["--out", str(tmp_path / "bare")] + argv + ["--grid-min", lo]) == 0
    assert main(["--out", str(tmp_path / "joined")] + argv + [f"--grid-min={lo}"]) == 0
    assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()


@pytest.mark.parametrize("value", ["-inf", "-x"])
def test_npmle_grid_min_takes_no_flag_like_value(tmp_path, capsys, value):
    data = tmp_path / "y.txt"
    np.savetxt(data, cell_rng(0, 7).standard_normal(30))
    argv = ["--out", str(tmp_path / "r"), "npmle", "--data", str(data), "--grid-min", value, "--grid-max", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith("eblab npmle: error: argument --grid-min: expected one argument\n")
    assert not (tmp_path / "r.csv").exists()


def test_npmle_constrained_and_mprime_are_gone(tmp_path, capsys):
    assert main(["npmle", "-h"]) == 0
    help_text = capsys.readouterr().out
    assert "--grid-min" in help_text and "--constrained" not in help_text and "--mprime" not in help_text
    config = tmp_path / "run.json"
    for key in ("constrained", "mprime"):
        config.write_text(json.dumps({key: 2}))
        assert main(["--config", str(config), "npmle", "--n-values", "40", "--n-seeds", "1"]) == 2
        assert capsys.readouterr().err == (
            f"eblab: config key {key!r} is not a flag of eblab or of any subcommand\n"
        )


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


def test_bernstein_rows_build_no_operators_but_l(monkeypatch):
    def refuse(nu, table):
        raise AssertionError("build_operators called without --dump-matrices")

    monkeypatch.setattr(orthopoly, "build_operators", refuse)
    rows = _bernstein_rows("k_atom:k=5,m=1", 2, 8)
    assert [row["k"] for row in rows] == list(range(2, 9))
    assert all(row["within_bound"] for row in rows)


def test_bernstein_dump_matrices_are_the_k_max_operators(tmp_path):
    dump = tmp_path / "ops.npz"
    argv = ["--out", str(tmp_path / "b"), "--seed", "3", "bernstein", "--prior", "k_atom:k=5,m=1",
            "--k-min", "2", "--k-max", "12", "--dump-matrices", str(dump)]
    assert main(argv) == 0
    prior = parse_prior_spec("k_atom:k=5,m=1", cell_rng(3, 0))
    ops = orthopoly.build_operators(prior, orthopoly.recurrence_for_weight(prior, 12))
    with np.load(dump) as saved:
        assert sorted(saved.files) == ["A", "B", "J", "L", "S"]
        for name in saved.files:
            expected = getattr(ops, name)
            assert saved[name].shape == expected.shape and saved[name].tobytes() == expected.tobytes(), name
    with open(tmp_path / "b.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["k"]) for row in rows] == list(range(2, 13))
    for row in rows:
        k = int(row["k"])
        assert float(row["l_norm"]) == orthopoly.operator_norm(ops.L[: k + 1, : k + 1])


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


@pytest.mark.parametrize("seed", [0, 5, 101])
@pytest.mark.parametrize("generator", ["k_atom:k=5,m=1", "two_point:m=1", "g_alpha"])
def test_regratio_sweep_rows_are_each_pair_reported_alone(tmp_path, generator, seed):
    out = tmp_path / "sweep"
    argv = ["--seed", str(seed), "--out", str(out), "regratio", "--pairs", generator, "--count", "12"]
    assert main(argv) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    for idx, row in enumerate(rows):
        rng = cell_rng(seed, idx)
        report = metrics.compute_metric_report(parse_prior_spec(generator, rng),
                                               parse_prior_spec(generator, rng))
        fields = ("hellinger_sq", "delta", "delta_flux", "regret")
        assert row.split(",")[:5] == [str(idx), *("%.17g" % report[name] for name in fields)]


def test_regratio_sweep_shares_its_integrand_calls(tmp_path, monkeypatch):
    sizes = []
    integrate = metrics.integrate_lines

    def counting(f, specs):
        def counted(y, which):
            sizes.append(y.size)
            return f(y, which)

        return integrate(counted, specs)

    monkeypatch.setattr(metrics, "integrate_lines", counting)
    argv = ["--out", str(tmp_path / "sweep"), "regratio", "--pairs", "k_atom:k=5,m=1", "--count", "100"]
    assert main(argv) == 0
    # about 13 first-pass calls of one panel per pair, then the refinement rounds
    assert len(sizes) <= 20 and max(sizes) <= 15 * 2 * 128


def test_regratio_sweep_makes_15_calls_over_1706_panels(tmp_path, monkeypatch):
    sizes = []
    integrate = metrics.integrate_lines

    def counting(f, specs):
        def counted(y, which):
            sizes.append(y.size)
            return f(y, which)

        return integrate(counted, specs)

    monkeypatch.setattr(metrics, "integrate_lines", counting)
    argv = ["--seed", "0", "--out", str(tmp_path / "sweep"), "regratio", "--pairs", "k_atom:k=5,m=1",
            "--count", "100"]
    assert main(argv) == 0
    assert len(sizes) == 15  # the integrand calls of the one-panel-per-request first pass
    # 100 first passes and 76 split rounds evaluate 1,706 panels of 15 nodes
    assert sum(sizes) == 25_590


def test_regratio_pairs_that_stay_identical_exit_2(capsys, monkeypatch):
    sweeps = []
    sweep = metrics.compute_metric_reports

    def counted(pairs):
        sweeps.append(len(pairs))
        return sweep(pairs)

    monkeypatch.setattr(metrics, "compute_metric_reports", counted)
    assert main(["regratio", "--pairs", "point:u=0", "--count", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "eblab: generator 'point:u=0' keeps returning identical pairs\n"
    assert sweeps == [3]  # each pair drawn once, in one pass


def test_consecutive_runs_echo_only_their_own_params(tmp_path):
    runs = [
        (["metrics", "--prior-g", "point:u=0", "--prior-h", "point:u=1", "--rhos", "0.1"],
         {"prior_g": "point:u=0", "prior_h": "point:u=1", "rhos": [0.1]}),
        (["regratio", "--pairs", "two_point:m=1", "--count", "2"],
         {"pairs": "two_point:m=1", "count": 2}),
        (["metrics", "--prior-g", "point:u=0", "--prior-h", "point:u=2"],
         {"prior_g": "point:u=0", "prior_h": "point:u=2"}),
    ]
    for i, (argv, params) in enumerate(runs):
        assert main(["--out", str(tmp_path / f"r{i}"), *argv]) == 0
        payload = json.loads((tmp_path / f"r{i}.json").read_text())
        assert payload["spec"]["params"] == params
    assert cli._build_parser() is cli._build_parser()


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


def test_regratio_envelope_is_finite_at_a_subnormal_rho(tmp_path):
    # 1/rho overflows to inf below about 5.6e-309; log(1/rho) = -log(rho) does not
    out = tmp_path / "tiny"
    assert main(["--out", str(out), "regratio", "--p", "2", "--b", "8", "--rhos", "1e-320"]) == 0
    header, *lines = (tmp_path / "tiny.csv").read_text().splitlines()
    assert header.split(",")[-1] == "envelope"
    envelopes = {float(line.split(",")[0]): float(line.split(",")[-1]) for line in lines}
    assert 1e-320 in envelopes and len(envelopes) == 2  # the pair's own separation level is inserted
    assert all(math.isfinite(e) and e > 0.0 for e in envelopes.values())


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


_SYNTHETIC = ["npmle", "--n-values", "40", "--n-seeds", "1"]
_DATA_GRID = ["npmle", "--data", "{data}", "--grid-min", "-3", "--grid-max", "3"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (_SYNTHETIC + ["--grid-min", "-3"], "--grid-min"),
        (_SYNTHETIC + ["--grid-max", "3"], "--grid-max"),
        (["npmle", "--data", "{data}", "--grid-min", "-3"], "--grid-min"),
        (["npmle", "--data", "{data}", "--grid-max", "3"], "--grid-max"),
        (_DATA_GRID + ["--constrained"], "unrecognized arguments: --constrained"),
        (_DATA_GRID + ["--constrained", "--mprime", "2"], "unrecognized arguments: --constrained --mprime 2"),
        (["npmle", "--data", "{data}", "--constrained"], "unrecognized arguments: --constrained"),
        (_SYNTHETIC + ["--constrained"], "unrecognized arguments: --constrained"),
        (["npmle", "--data", "{data}", "--prior", "two_point:m=1"], "--prior"),
        (["npmle", "--data", "{data}", "--n-values", "40"], "--n-values"),
        (["npmle", "--data", "{data}", "--n-seeds", "2"], "--n-seeds"),
        (_SYNTHETIC + ["--mprime", "2"], "unrecognized arguments: --mprime 2"),
        (["npmle", "--n-values", "0", "--n-seeds", "1"], "--n-values"),
        (["npmle", "--data", "{data}", "--mprime", "2"], "unrecognized arguments: --mprime 2"),
        (_SYNTHETIC + ["--grid-min", "-3", "--grid-max", "inf"], "--grid-max"),
        (["npmle", "--data", "{data}", "--grid-min=-1e308", "--grid-max", "1e308"], "--grid-min/--grid-max"),
        (["npmle", "--data", "{data}", "--grid-min=-inf", "--grid-max", "3"], "--grid-min"),
        (["npmle", "--data", "{data}", "--grid-min", "3", "--grid-max", "-3"], "--grid-min"),
        (["npmle", "--data", "{data}", "--grid-size", "1"], "grid_size"),
        (["npmle", "--data", "{data}", "--grid-size", "0"], "grid_size"),
        (_SYNTHETIC + ["--grid-size", "-5"], "grid_size"),
        (["regratio", "--p", "2", "--b", "8", "--count", "3"], "--count"),
        (["lowerbound", "--m-min", "5", "--m-max", "4"], "m_min"),
        (["lowerbound", "--m-min", "1", "--m-max", "3"], "m_min"),
        (["bernstein", "--prior", "point:u=0", "--k-max", "61"], "k_max"),
        (["bernstein", "--prior", "point:u=0", "--grid-size", "0"], "grid_size"),
        (["bernstein", "--prior", "point:u=0", "--grid-size", "-5"], "grid_size"),
        (_SYNTHETIC + ["--tol", "0"], "tol must be finite and > 0, not 0.0"),
        (_SYNTHETIC + ["--tol", "nan"], "tol must be finite and > 0, not nan"),
        (_SYNTHETIC + ["--tol", "-1"], "tol must be finite and > 0, not -1.0"),
        (_SYNTHETIC + ["--tol", "inf"], "tol must be finite and > 0, not inf"),
        (["npmle", "--data", "{data}", "--max-iters", "0"], "max_iters must be >= 1, not 0"),
        (["hermite", "--m-min", "2", "--m-max", "6", "--j-max", "401"], "j_max must be <= 400, not 401"),
        (["lowerbound", "--m-min", "2", "--m-max", "3", "--j-max", "401"], "j_max must be <= 400, not 401"),
    ],
    ids=[
        "synthetic-grid-min",
        "synthetic-grid-max",
        "data-grid-min-alone",
        "data-grid-max-alone",
        "data-grid-constrained",
        "data-grid-constrained-mprime",
        "data-constrained-without-mprime",
        "synthetic-constrained-without-mprime",
        "data-prior",
        "data-n-values",
        "data-n-seeds",
        "synthetic-mprime-unconstrained",
        "synthetic-n-values-zero",
        "data-mprime-unconstrained",
        "synthetic-grid-max-infinite",
        "data-grid-width-overflows",
        "data-grid-min-infinite",
        "data-grid-min-above-max",
        "data-grid-size-one",
        "data-grid-size-zero",
        "synthetic-grid-size-negative",
        "demo-count",
        "lowerbound-empty-range",
        "lowerbound-m-below-2",
        "bernstein-k-max-past-cap",
        "bernstein-grid-size-zero",
        "bernstein-grid-size-negative",
        "npmle-tol-zero",
        "npmle-tol-nan",
        "npmle-tol-negative",
        "npmle-tol-infinite",
        "npmle-max-iters-zero",
        "hermite-j-max-past-cap",
        "lowerbound-j-max-past-cap",
    ],
)
def test_unapplied_flags_exit_2_naming_the_flag(tmp_path, capsys, argv, named):
    data = tmp_path / "y.txt"
    np.savetxt(data, cell_rng(0, 7).standard_normal(30))
    argv = [str(data) if arg == "{data}" else arg for arg in argv]
    assert main(["--out", str(tmp_path / "r")] + argv) == 2
    err = capsys.readouterr().err
    if named.startswith("unrecognized arguments: "):  # a removed flag: argparse prints usage, then the error
        assert err.startswith("usage: eblab ") and err.endswith(f"\neblab: error: {named}\n")
    else:
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


def test_misspelled_config_key_exits_2_naming_it(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"m_maxx": 3}))
    assert main(["--config", str(config), "hermite"]) == 2
    assert capsys.readouterr().err == (
        "eblab: config key 'm_maxx' is not a flag of eblab or of any subcommand\n"
    )
    # a key of another subcommand's flag is left alone
    config.write_text(json.dumps({"k_max": 3, "m_max": 2, "seed": 1}))
    assert main(["--config", str(config), "--out", str(tmp_path / "h"), "hermite"]) == 0
    assert json.loads((tmp_path / "h.json").read_text())["spec"]["params"] == {"m_max": 2}


def test_config_values_take_their_flags_parse(tmp_path, capsys):
    config = tmp_path / "run.json"
    args = ["--config", str(config), "--out", str(tmp_path / "c"), "npmle", "--n-values", "50",
            "--n-seeds", "1", "--grid-size", "40"]
    config.write_text(json.dumps({"grid_min": "-2", "grid_max": 2}))
    assert main(args) == 0
    params = json.loads((tmp_path / "c.json").read_text())["spec"]["params"]
    assert (params["grid_min"], params["grid_max"]) == (-2.0, 2.0)
    for bad, message in (
        ({"grid_min": -2, "grid_max": "two"}, "config key 'grid_max': invalid float value 'two'"),
        ({"grid_min": [-2], "grid_max": 2}, "config key 'grid_min': invalid float value '[-2]'"),
        ({"max_iters": 2.5}, "config key 'max_iters': invalid int value '2.5'"),
        ({"max_iters": True}, "config key 'max_iters': invalid int value 'true'"),
        ({"seed": 1.5}, "config key 'seed': invalid int value '1.5'"),
        ({"out": 5}, "config key 'out': expected a string, not 5"),
        ({"prior": {"atoms": [0]}}, 'config key \'prior\': expected a string, not {"atoms": [0]}'),
    ):
        config.write_text(json.dumps(bad))
        # an explicit --out would win over the config's
        assert main(args if "out" not in bad else args[:2] + args[4:]) == 2
        assert capsys.readouterr().err == f"eblab: {message}\n"


def test_list_flags_parse_alike_from_the_command_line_and_config(tmp_path, capsys):
    assert main(["npmle", "--n-values", "50.7", "--n-seeds", "1"]) == 2
    assert "argument --n-values: bad integer list '50.7'" in capsys.readouterr().err
    config = tmp_path / "run.json"
    for command, bad, message in (
        ("npmle", {"n_values": [50.7]}, "config key 'n_values': bad integer list '50.7'"),
        ("regratio", {"rhos": [0.05, "x"]}, "config key 'rhos': bad numeric list '0.05,x'"),
        ("moment", {"b_values": [4, True]}, "config key 'b_values': bad numeric list '4,true'"),
        ("moment", {"p": [3]}, "config key 'p': invalid float value '[3]'"),
    ):
        config.write_text(json.dumps(bad))
        assert main(["--config", str(config), command]) == 2
        assert capsys.readouterr().err == f"eblab: {message}\n"
    # a config list is echoed as parsed, like the same flag's value
    config.write_text(json.dumps({"b_values": [4, "8"]}))
    assert main(["--config", str(config), "--out", str(tmp_path / "m"), "moment"]) == 0
    params = json.loads((tmp_path / "m.json").read_text())["spec"]["params"]
    assert params == {"b_values": [4.0, 8.0]}


def test_reruns_of_refining_integrals_are_byte_identical(tmp_path):
    # deep adaptive refinement: the batch order of split panels must be fixed
    for argv in (
        ["lowerbound", "--m-min", "2", "--m-max", "4"],
        ["regratio", "--p", "2", "--b", "8", "--rhos", "0.05"],
    ):
        for label in ("a", "b"):
            assert main(["--out", str(tmp_path / label)] + argv) == 0
        for suffix in (".csv", ".json"):
            first = (tmp_path / "a").with_suffix(suffix).read_bytes()
            assert first == (tmp_path / "b").with_suffix(suffix).read_bytes()


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
    "spec, draws",
    [
        ("two_point:m=1.0", [[0.3, 0.3], [0.3, -0.2]]),
        ("k_atom:k=3,m=1.0", [[0.1, -0.4, 0.1], [0.1, -0.4, 0.2]]),
        ("g_alpha:alpha=1.0,sigma=1.0,k=3", [[0.2, 0.2, -0.1], [0.2, 0.3, -0.1]]),
    ],
    ids=["two_point", "k_atom", "g_alpha"],
)
def test_generators_redraw_repeated_atoms(spec, draws):
    rng = _ScriptedRng(draws)
    prior = _parse_generator(spec)(rng)
    assert rng.used == 2
    assert np.array_equal(prior.atoms, np.sort(draws[1]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(atoms=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                st.sampled_from([0.0, -0.0, 1.5, -1.5])), min_size=1, max_size=8))
def test_distinct_atoms_redraws_exactly_when_np_unique_finds_repeats(atoms):
    draw = np.array(atoms)
    repeated = np.unique(draw).size < draw.size
    try:
        assert cli._distinct_atoms(lambda: draw) is draw
        redrew = False
    except InvalidParameter:
        redrew = True
    assert redrew == repeated


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


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["lowerbound", "--m-min", "2", "--m-max", "12"], 18),
        (["moment", "--p", "3", "--b-values", "4,8,16,32"], 45),
        (["regratio", "--p", "2", "--b", "8", "--rhos", "0.01,0.05,0.2"], 84),
        (["npmle", "--n-values", "200,800,3200", "--n-seeds", "1"], 15),
    ],
    ids=["lowerbound", "moment", "clipped", "npmle"],
)
def test_construction_sweeps_make_their_integrand_calls(tmp_path, monkeypatch, argv, calls):
    # every integral of the call, lock-step sweeps and single ``integrate_line`` passes alike
    made = []
    integrate = quadrature.integrate_lines

    def counting(f, specs):
        def counted(y, which):
            made.append(y.size)
            return f(y, which)

        return integrate(counted, specs)

    monkeypatch.setattr(quadrature, "integrate_lines", counting)
    monkeypatch.setattr(metrics, "integrate_lines", counting)
    assert main(["--out", str(tmp_path / "run")] + argv) == 0
    assert len(made) == calls
