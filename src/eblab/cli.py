"""Command-line front end: one subcommand per experiment family.

Every experiment is described by an ``ExperimentSpec`` and dispatched
through ``run``, which returns an ``ExperimentReport``.  A subcommand's
parameters are the flags of its subparser, each filled from the command
line or else from the ``--config`` file.  Each runner returns its rows
(dicts) and a summary; the first row's keys, in order, are the CSV
columns.  Reports are written as CSV plus a JSON sidecar when ``--out``
is given, otherwise the CSV goes to stdout (summary to stderr).  Cells
(one per grid point of the experiment) run in order in the calling
thread; ``--threads`` is accepted for compatibility and changes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import pathlib
import sys

import numpy as np

from . import families, metrics, npmle, orthopoly
from .hermite import alpha_bounds, alpha_bounds_hold, moment_gap_table
from .mixtures import DiscretePrior, MarginalModel, check_class_membership
from .quadrature import ToleranceNotMet
from .reports import ExperimentReport, ExperimentSpec, InvalidParameter, UnknownExperiment

__all__ = ["main", "run", "generate_prior", "parse_prior_spec"]


# ---------------------------------------------------------------------------
# prior argument parsing


def _distinct_atoms(draw):
    """Call ``draw`` until it returns distinct atoms, at most 101 times."""
    for _ in range(101):
        atoms = draw()
        if np.unique(atoms).size == atoms.size:
            return atoms
    raise InvalidParameter("prior generator keeps drawing repeated atoms")


def generate_prior(name, params, rng):
    """Draw a random prior from a named generator.

    ``two_point``: two distinct atoms uniform in [-m, m], random split.
    ``k_atom``: k atoms uniform in [-m, m] with Dirichlet weights.
    ``g_alpha``: k Gaussian-scale atoms shrunk until the exponential
    moment E exp((|u|/sigma)^alpha) is at most two.
    """
    if name == "point":
        return DiscretePrior.point(params.get("u", 0.0))
    if name == "two_point":
        m = float(params.get("m", 1.0))
        if not m > 0.0:
            raise InvalidParameter("two_point needs m > 0")
        atoms = _distinct_atoms(lambda: rng.uniform(-m, m, size=2))
        split = rng.uniform(0.05, 0.95)
        return DiscretePrior(atoms, [split, 1.0 - split])
    if name == "k_atom":
        k = int(params.get("k", 5))
        m = float(params.get("m", 2.0))
        if k < 1 or not m > 0.0:
            raise InvalidParameter("k_atom needs k >= 1 and m > 0")
        atoms = _distinct_atoms(lambda: rng.uniform(-m, m, size=k))
        weights = rng.dirichlet(np.ones(k))
        return DiscretePrior(atoms, weights)
    if name == "g_alpha":
        alpha = float(params.get("alpha", 1.0))
        sigma = float(params.get("sigma", 1.0))
        k = int(params.get("k", 8))
        if not (alpha > 0.0 and sigma > 0.0 and k >= 1):
            raise InvalidParameter("g_alpha needs alpha, sigma > 0 and k >= 1")
        atoms = _distinct_atoms(lambda: sigma * rng.standard_normal(k))
        weights = rng.dirichlet(np.ones(k))
        for _ in range(200):
            prior = DiscretePrior(atoms, weights)
            if check_class_membership(prior, alpha, sigma):
                return prior
            atoms = 0.8 * atoms
        raise InvalidParameter("could not shrink g_alpha draw into the class")
    raise InvalidParameter(f"unknown prior generator {name!r}")


def parse_prior_spec(text, rng):
    """Parse a prior given as @file.json, inline JSON, or name:key=val,...."""
    text = text.strip()
    if text.startswith("@"):
        return DiscretePrior.from_json(pathlib.Path(text[1:]).read_text())
    if text.startswith("{"):
        return DiscretePrior.from_json(text)
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for part in rest.split(","):
            key, sep, val = part.partition("=")
            if not sep:
                raise InvalidParameter(f"bad generator parameter {part!r}")
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise InvalidParameter(f"bad generator value {part!r}") from exc
    return generate_prior(name.strip(), params, rng)


def _parse_floats(text):
    try:
        values = [float(v) for v in str(text).split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidParameter(f"bad numeric list {text!r}") from exc
    if not values:
        raise InvalidParameter(f"empty numeric list {text!r}")
    return values


def _parse_ints(text):
    return [int(v) for v in _parse_floats(text)]


# ---------------------------------------------------------------------------
# experiment runners: spec -> (rows, summary); the first row's keys are the columns


def _reject(params, keys, reason):
    """Refuse the first of ``keys`` that is set: the mode would echo it but not apply it."""
    for key in keys:
        value = params.get(key)
        if value is not None and value is not False:
            flag = "--" + key.replace("_", "-")
            raise InvalidParameter(f"{flag} is not applied {reason}")


def _given(params, **casts):
    """The keys of ``casts`` set by a flag or --config, cast; the library holds each default."""
    return {key: cast(params[key]) for key, cast in casts.items() if key in params}


def _run_metrics(spec):
    p = spec.params
    rng = npmle.cell_rng(spec.seed, 0)
    prior_g = parse_prior_spec(p["prior_g"], rng)
    prior_h = parse_prior_spec(p["prior_h"], rng)
    rhos = sorted(p.get("rhos", []))
    report = metrics.compute_metric_report(prior_g, prior_h, rhos=rhos)
    fields = ("hellinger_sq", "delta", "delta_flux", "regret")
    row = {name: getattr(report, name) for name in fields}
    for i, rho in enumerate(rhos):
        row[f"rho_{i}"] = rho
        row[f"regret_reg_{i}"] = report.regret_regularized[rho]
    summary = {
        "prior_g": json.loads(prior_g.to_json()),
        "prior_h": json.loads(prior_h.to_json()),
    }
    return [row], summary


def _run_bernstein(spec):
    p = spec.params
    rng = npmle.cell_rng(spec.seed, 0)
    prior = parse_prior_spec(p["prior"], rng)
    k_min = int(p.get("k_min", 1))
    k_max = int(p.get("k_max", 20))
    if not 1 <= k_min <= k_max <= orthopoly.MAX_STABLE_DEGREE:
        raise InvalidParameter(f"need 1 <= k_min <= k_max <= {orthopoly.MAX_STABLE_DEGREE}")
    # q_0..q_k do not depend on the top degree of the build, so one build
    # at k_max serves every row through the leading (k+1) x (k+1) block of L
    table = orthopoly.recurrence_for_weight(prior, k_max, **_given(p, grid_size=int))
    ops = orthopoly.build_operators(prior, table)
    rows = []
    for k in range(k_min, k_max + 1):
        l_norm = orthopoly.operator_norm(ops.L[: k + 1, : k + 1])
        bound = (2.0 * prior.support_bound + 1.0) * math.sqrt(k + 1.0)
        rows.append(
            {
                "k": k,
                "l_norm": l_norm,
                "bound": bound,
                "gauss_reference": math.sqrt(float(k)),
                "within_bound": l_norm <= bound * (1.0 + 1e-9),
            }
        )
    if p.get("dump_matrices"):
        np.savez(p["dump_matrices"], L=ops.L, A=ops.A, B=ops.B, S=ops.S, J=ops.J)
    summary = {
        "support_bound": prior.support_bound,
        "max_norm_to_bound": max(r["l_norm"] / r["bound"] for r in rows),
        "all_within_bound": all(r["within_bound"] for r in rows),
    }
    return rows, summary


def _run_hermite(spec):
    p = spec.params
    m_min = int(p.get("m_min", 1))
    m_max = int(p.get("m_max", 8))
    table_options = _given(p, j_max=int)
    if m_min < 1 or m_max < m_min:
        raise InvalidParameter("need 1 <= m_min <= m_max")

    rows = []
    for m in range(m_min, m_max + 1):
        table = moment_gap_table(m, **table_options)
        alpha_lower, alpha_upper = alpha_bounds(m)
        rows.append(
            {
                "m": m,
                "leading_gap": table.gaps[2 * m],
                "leading_gap_exact": 2.0 ** (1 - 2 * m),
                "alpha": table.alpha_m,
                "beta": table.beta_m,
                "alpha_lower": alpha_lower,
                "alpha_upper": alpha_upper,
                "beta_to_alpha": table.beta_m / table.alpha_m,
                "bounds_ok": alpha_bounds_hold(table),
            }
        )
    holds_from = None
    for row in reversed(rows):
        if not row["bounds_ok"]:
            break
        holds_from = row["m"]
    return rows, {"bounds_hold_from_m": holds_from}


def _run_lowerbound(spec):
    p = spec.params
    m_min = int(p.get("m_min", 2))
    m_max = int(p.get("m_max", 12))
    table_options = _given(p, j_max=int)
    if m_min < 2 or m_max < m_min:
        raise InvalidParameter("need 2 <= m_min <= m_max")

    instances, summary = families.lowerbound_ratio_sweep(range(m_min, m_max + 1), **table_options)
    rows = [
        {
            "m": inst.m,
            "tau": inst.tau,
            "alpha": inst.alpha,
            "beta": inst.beta,
            "eps_sq": inst.eps_sq,
            "regret": inst.regret_val,
            "ratio": inst.ratio,
        }
        for inst in instances
    ]
    return rows, summary


def _run_moment(spec):
    p = spec.params
    p_exp = float(p.get("p", 2.0))
    b_values = [float(b) for b in p.get("b_values", [4.0, 8.0, 16.0, 32.0])]
    if not b_values:
        raise InvalidParameter("need at least one b value")

    instances, summary = families.moment_family_sweep(p_exp, b_values)
    rows = [
        {
            "p": inst.p,
            "b": inst.b,
            "eta": inst.eta,
            "eps_sq": inst.eps_sq,
            "regret": inst.regret_val,
            "regret_lb": inst.regret_lb,
            "lb_ok": inst.regret_val >= inst.regret_lb - 1e-12,
        }
        for inst in instances
    ]
    return rows, summary


def _run_regratio(spec):
    p = spec.params
    pairs = p.get("pairs")
    if pairs is None:
        _reject(p, ("count",), "without --pairs: it sizes the random-pair sweep")
        return families.regularization_necessity_demo(
            float(p.get("p", 2.0)),
            float(p.get("b", 16.0)),
            [float(r) for r in p.get("rhos", [])],
        )
    _reject(p, ("p", "b", "rhos"), "with --pairs: it belongs to the clipping demo")
    if pairs.lstrip().startswith(("@", "{")):
        raise InvalidParameter("pair sweep needs a random generator spec, not a fixed prior")
    count = int(p.get("count", 100))
    if count < 1:
        raise InvalidParameter("count must be >= 1")

    rows = []
    for idx in range(count):
        rng = npmle.cell_rng(spec.seed, idx)
        for _ in range(100):
            prior_g = parse_prior_spec(pairs, rng)
            prior_h = parse_prior_spec(pairs, rng)
            report = metrics.compute_metric_report(prior_g, prior_h)
            # identical draws carry no separation signal; redraw
            if report.hellinger_sq > 0.0:
                break
        else:
            raise InvalidParameter(f"generator {pairs!r} keeps returning identical pairs")
        rows.append(
            {
                "pair": idx,
                "eps_sq": report.hellinger_sq,
                "delta": report.delta,
                "delta_flux": report.delta_flux,
                "regret": report.regret,
                "ratio": report.regret / metrics.hellinger_rate_normalizer(report.hellinger_sq),
            }
        )
    summary = {
        "generator": pairs,
        "pairs": count,
        "max_ratio": max(r["ratio"] for r in rows),
    }
    return rows, summary


def _load_observations(path):
    values = []
    for line in pathlib.Path(path).read_text().splitlines():
        line = line.split(",")[0].strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise InvalidParameter(f"bad observation line {line!r}") from exc
    if not values:
        raise InvalidParameter(f"no observations in {path}")
    return np.asarray(values)


def _run_npmle(spec):
    p = spec.params
    fit = _given(p, grid_size=int, tol=float, max_iters=int)
    constrained = bool(p.get("constrained", False))
    mprime = p.get("mprime")
    if not constrained:
        _reject(p, ("mprime",), "without --constrained")

    if p.get("data"):
        _reject(p, ("prior", "n_values", "n_seeds"), "with --data: it belongs to synthetic runs")
        y = _load_observations(p["data"])
        lo, hi = p.get("grid_min"), p.get("grid_max")
        if lo is not None and hi is not None:
            _reject(p, ("constrained", "mprime"), "with --grid-min/--grid-max, which fix the grid")
            # the sample-range problem with its grid moved onto the given bounds
            problem = npmle.NpmleProblem.from_observations(y, **fit)
            grid = np.linspace(float(lo), float(hi), problem.grid.size)
            problem = dataclasses.replace(problem, grid=grid)
        else:
            _reject(p, ("grid_min", "grid_max"), "alone: give both --grid-min and --grid-max")
            problem = npmle.NpmleProblem.from_observations(
                y, constrained=constrained, mprime=mprime, **fit
            )
        solution = npmle.solve_npmle(problem)
        row = {
            "n": y.size,
            "loglik": solution.loglik,
            "cert": solution.gradient_cert,
            "iterations": solution.iterations,
            "support_size": solution.prior.atoms.size,
        }
        summary = {
            "fitted_prior": json.loads(solution.prior.to_json()),
            "diagnostics": solution.diagnostics,
        }
        return [row], summary

    _reject(p, ("grid_min", "grid_max"), "without --data: synthetic runs build their own grid")
    rng = npmle.cell_rng(spec.seed, 0)
    true_prior = parse_prior_spec(p.get("prior", "two_point:m=1"), rng)
    n_values = [int(n) for n in p.get("n_values", [200, 800, 3200])]
    n_seeds = int(p.get("n_seeds", 20))
    if not n_values or n_seeds < 1:
        raise InvalidParameter("need at least one sample size and one seed")
    seeds = [
        int(s.generate_state(1, dtype=np.uint64)[0])
        for s in np.random.SeedSequence(spec.seed).spawn(n_seeds)
    ]

    rows = [
        npmle.empirical_regret_experiment(
            true_prior, n, seed, constrained=constrained, mprime=mprime, **fit
        )
        for n in n_values
        for seed in seeds
    ]
    medians = {}
    for n in n_values:
        regrets = sorted(r["regret"] for r in rows if r["n"] == n)
        medians[str(n)] = regrets[len(regrets) // 2]
    summary = {
        "true_prior": json.loads(true_prior.to_json()),
        "median_regret": medians,
        "max_cert": max(r["cert"] for r in rows),
    }
    return rows, summary


_EXPERIMENTS = {
    "metrics": _run_metrics,
    "bernstein": _run_bernstein,
    "hermite": _run_hermite,
    "lowerbound": _run_lowerbound,
    "moment": _run_moment,
    "regratio": _run_regratio,
    "npmle": _run_npmle,
}


def run(spec):
    """Dispatch an ExperimentSpec to its runner; returns an ExperimentReport."""
    try:
        runner = _EXPERIMENTS[spec.name]
    except KeyError:
        raise UnknownExperiment(f"no experiment named {spec.name!r}") from None
    rows, summary = runner(spec)
    return ExperimentReport(spec=spec, columns=list(rows[0]), rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eblab",
        description="Numerical laboratory for empirical-Bayes denoising metrics.",
    )
    parser.add_argument("--config", help="JSON file with defaults for flags and params")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--out", help="output stem; writes <out>.csv and <out>.json")
    parser.add_argument(
        "--threads", type=int, help="accepted for compatibility; cells always run in order"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("metrics", help="divergence battery between two priors")
    s.add_argument("--prior-g", required=True)
    s.add_argument("--prior-h", required=True)
    s.add_argument("--rhos", help="comma-separated clipping levels")

    s = sub.add_parser("bernstein", help="derivative-operator norms for phi^2/f weights")
    s.add_argument("--prior", required=True)
    s.add_argument("--k-min", type=int)
    s.add_argument("--k-max", type=int)
    s.add_argument("--grid-size", type=int)
    s.add_argument("--dump-matrices", help="write operator matrices to this .npz path")

    s = sub.add_parser("hermite", help="arcsine moment-gap tables and tail sums")
    s.add_argument("--m-min", type=int)
    s.add_argument("--m-max", type=int)
    s.add_argument("--j-max", type=int)

    s = sub.add_parser("lowerbound", help="matched-moment contamination sweep")
    s.add_argument("--m-min", type=int)
    s.add_argument("--m-max", type=int)
    s.add_argument("--j-max", type=int)

    s = sub.add_parser("moment", help="heavy-tail spike family sweep")
    s.add_argument("--p", type=float)
    s.add_argument("--b-values")

    s = sub.add_parser("regratio", help="regret against the Hellinger rate over random pairs")
    s.add_argument("--pairs", help="pair generator, e.g. two_point:m=1 or k_atom:k=5,m=2")
    s.add_argument("--count", type=int)
    s.add_argument("--p", type=float, help="clipping demo: tail exponent")
    s.add_argument("--b", type=float, help="clipping demo: spike location")
    s.add_argument("--rhos", help="clipping demo: comma-separated levels")

    s = sub.add_parser("npmle", help="grid maximum-likelihood prior fits")
    s.add_argument("--data", help="file of observations, one per line")
    s.add_argument("--prior", help="true prior for synthetic runs")
    s.add_argument("--n-values", help="comma-separated sample sizes")
    s.add_argument("--n-seeds", type=int)
    s.add_argument("--grid-min", type=float)
    s.add_argument("--grid-max", type=float)
    s.add_argument("--grid-size", type=int)
    s.add_argument("--tol", type=float)
    s.add_argument("--max-iters", type=int)
    s.add_argument("--constrained", action="store_true", default=None)
    s.add_argument("--mprime", type=float)

    return parser


# dests every subcommand shares; the rest of the namespace is the subcommand's params
_GLOBAL_DESTS = {"config", "seed", "out", "threads", "command"}
_LIST_FLOAT_KEYS = {"rhos", "b_values"}
_LIST_INT_KEYS = {"n_values"}


def _load_config(path):
    if not path:
        return {}
    config = json.loads(pathlib.Path(path).read_text())
    if not isinstance(config, dict):
        raise InvalidParameter("config file must hold a JSON object")
    return config


def _spec_from_args(args, config):
    def pick(key, default):
        cli_val = getattr(args, key)
        if cli_val is not None:
            return cli_val
        return config.get(key, default)

    params = {}
    for key in (k for k in vars(args) if k not in _GLOBAL_DESTS):
        value = pick(key, None)
        if value is None:
            continue
        if key in _LIST_FLOAT_KEYS and isinstance(value, str):
            value = _parse_floats(value)
        elif key in _LIST_INT_KEYS and isinstance(value, str):
            value = _parse_ints(value)
        params[key] = value

    return ExperimentSpec(name=args.command, params=params, seed=int(pick("seed", 0)))


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        report = run(_spec_from_args(args, config))
    except (InvalidParameter, UnknownExperiment, ValueError) as exc:
        print(f"eblab: {exc}", file=sys.stderr)
        return 2
    except (
        ToleranceNotMet,
        npmle.NotConverged,
        metrics.FormMismatch,
        orthopoly.DegreeUnstable,
        orthopoly.HypothesisViolated,
    ) as exc:
        print(f"eblab: {exc}", file=sys.stderr)
        return 3
    out = args.out if args.out is not None else config.get("out")
    if out:
        report.write(out)
        print(f"wrote {pathlib.Path(out).with_suffix('.csv')}")
        print(f"wrote {pathlib.Path(out).with_suffix('.json')}")
    else:
        sys.stdout.write(report.csv_text())
        print(json.dumps(report.summary, sort_keys=True, default=float), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
