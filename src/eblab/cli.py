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
import functools
import json
import math
import pathlib
import re
import sys

import numpy as np

from . import families, metrics, npmle, orthopoly
# moment_gap_table stays bound here: bench/tests/test_tracer.py checks this import site
from .hermite import (_moment_gap_tables, alpha_bounds, alpha_bounds_hold,  # noqa: F401
                      moment_gap_table)
from .mixtures import DiscretePrior, check_class_membership
from .quadrature import ToleranceNotMet
from .reports import ExperimentReport, ExperimentSpec, InvalidParameter, UnknownExperiment, output_paths

__all__ = ["main", "run", "parse_prior_spec"]


# ---------------------------------------------------------------------------
# prior argument parsing


def _distinct_atoms(draw):
    """Call ``draw`` until it returns distinct atoms, at most 101 times."""
    for _ in range(101):
        atoms = draw()
        # a set merges equal atoms, 0.0 and -0.0 included, as np.unique does
        if len(set(atoms.tolist())) == atoms.size:
            return atoms
    raise InvalidParameter("prior generator keeps drawing repeated atoms")


def _point(rng, u):
    return DiscretePrior.point(u)


def _two_point(rng, m):
    atoms = _distinct_atoms(lambda: rng.uniform(-m, m, size=2))
    split = rng.uniform(0.05, 0.95)
    return DiscretePrior(atoms, [split, 1.0 - split])


def _k_atom(rng, k, m):
    atoms = _distinct_atoms(lambda: rng.uniform(-m, m, size=k))
    weights = rng.dirichlet(np.ones(k))
    return DiscretePrior(atoms, weights)


def _g_alpha(rng, alpha, sigma, k):
    atoms = _distinct_atoms(lambda: sigma * rng.standard_normal(k))
    weights = rng.dirichlet(np.ones(k))
    for _ in range(200):
        prior = DiscretePrior(atoms, weights)
        if check_class_membership(prior, alpha, sigma):
            return prior
        atoms = 0.8 * atoms
    raise InvalidParameter("could not shrink g_alpha draw into the class")


# each generator's draw and the defaults of the parameters it reads
_GENERATORS = {
    "point": (_point, {"u": 0.0}),
    "two_point": (_two_point, {"m": 1.0}),
    "k_atom": (_k_atom, {"k": 5, "m": 2.0}),
    "g_alpha": (_g_alpha, {"alpha": 1.0, "sigma": 1.0, "k": 8}),
}
# what each parameter must be, as (test, description)
_PARAMETER_CHECKS = {
    "u": (math.isfinite, "finite"),
    # atoms are drawn uniform on [-m, m], whose width 2m must be finite too
    "m": (lambda v: 0.0 < v and 2.0 * v < math.inf, "> 0 with 2m finite"),
    "sigma": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "alpha": (lambda v: v > 0.0, "> 0"),
    "k": (lambda v: float(v).is_integer() and v >= 1, "a whole number >= 1"),
}


def _parse_generator(text):
    """The draw rng -> prior of a ``name:key=val,...`` spec, its parameters checked once.

    ``point``: the point mass at u.
    ``two_point``: two distinct atoms uniform in [-m, m], random split.
    ``k_atom``: k atoms uniform in [-m, m] with Dirichlet weights.
    ``g_alpha``: k Gaussian-scale atoms shrunk until the exponential
    moment E exp((|u|/sigma)^alpha) is at most two.
    An unknown generator, a key given twice, a parameter the generator
    does not read, or one out of its range raises ``InvalidParameter``
    naming it.
    """
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for part in rest.split(","):
            key, sep, val = part.partition("=")
            if not sep:
                raise InvalidParameter(f"bad generator parameter {part!r}")
            key = key.strip()
            if key in params:
                raise InvalidParameter(f"generator parameter {key!r} is given twice")
            try:
                params[key] = float(val)
            except ValueError as exc:
                raise InvalidParameter(f"bad generator value {part!r}") from exc
    name = name.strip()
    if name not in _GENERATORS:
        raise InvalidParameter(f"unknown prior generator {name!r}")
    draw, defaults = _GENERATORS[name]
    for key, value in params.items():
        if key not in defaults:
            raise InvalidParameter(f"generator {name!r} has no parameter {key!r}")
        test, description = _PARAMETER_CHECKS[key]
        if not test(value):
            raise InvalidParameter(f"generator parameter {key!r} must be {description}, not {value!r}")
    params = {key: float(value) for key, value in {**defaults, **params}.items()}
    if "k" in params:
        params["k"] = int(params["k"])
    return functools.partial(draw, **params)


def parse_prior_spec(text, rng):
    """Parse a prior given as @file.json, inline JSON, or name:key=val,...."""
    text = text.strip()
    if text.startswith("@"):
        return DiscretePrior.from_json(pathlib.Path(text[1:]).read_text())
    if text.startswith("{"):
        return DiscretePrior.from_json(text)
    return _parse_generator(text)(rng)


def _parse_floats(text):
    """The numbers of a comma-separated list flag; an empty list is left to the runner."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from None


def _parse_ints(text):
    values = _parse_floats(text)
    if not all(v.is_integer() for v in values):
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    return [int(v) for v in values]


# ---------------------------------------------------------------------------
# experiment runners: spec -> (rows, summary); the first row's keys are the columns


def _reject(params, keys, reason):
    """Refuse the first of ``keys`` that is set: the mode would echo it but not apply it."""
    for key in keys:
        if params.get(key) is not None:
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
    row = {name: report[name] for name in ("hellinger_sq", "delta", "delta_flux", "regret")}
    for i, rho in enumerate(rhos):
        row[f"rho_{i}"] = rho
        row[f"regret_reg_{i}"] = report[rho]
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
    # one build at k_max serves every row through the leading (k+1) x (k+1)
    # block of L; its window depends on the top degree, so a row matches a
    # per-degree build to about 1e-12, not bit for bit
    table = orthopoly.recurrence_for_weight(prior, k_max, **_given(p, grid_size=int))
    l_mat = orthopoly.differentiation_matrix(table)
    rows = []
    for k in range(k_min, k_max + 1):
        l_norm = orthopoly.operator_norm(l_mat[: k + 1, : k + 1])
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
    if p.get("dump_matrices"):  # A, B, S and J are built for the dump alone
        ops = orthopoly.build_operators(prior, table)
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
    for table in _moment_gap_tables(range(m_min, m_max + 1), **table_options):
        m = table.m
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
    return families.lowerbound_ratio_sweep(range(m_min, m_max + 1), **table_options)


def _run_moment(spec):
    p = spec.params
    p_exp = float(p.get("p", 2.0))
    b_values = p.get("b_values", [4.0, 8.0, 16.0, 32.0])
    if not b_values:
        raise InvalidParameter("need at least one b value")
    return families.moment_family_sweep(p_exp, b_values)


def _run_regratio(spec):
    p = spec.params
    pairs = p.get("pairs")
    if pairs is None:
        _reject(p, ("count",), "without --pairs: it sizes the random-pair sweep")
        return families.regularization_necessity_demo(
            float(p.get("p", 2.0)),
            float(p.get("b", 16.0)),
            p.get("rhos", []),
        )
    _reject(p, ("p", "b", "rhos"), "with --pairs: it belongs to the clipping demo")
    if pairs.lstrip().startswith(("@", "{")):
        raise InvalidParameter("pair sweep needs a random generator spec, not a fixed prior")
    count = int(p.get("count", 100))
    if count < 1:
        raise InvalidParameter("count must be >= 1")

    draw = _parse_generator(pairs)
    # every cell draws its pair from its own stream; an identical pair (eps^2 = 0
    # carries no separation signal) comes only from a generator without randomness
    rngs = [npmle.cell_rng(spec.seed, idx) for idx in range(count)]
    reports = metrics.compute_metric_reports([(draw(rng), draw(rng)) for rng in rngs])
    if not all(report["hellinger_sq"] > 0.0 for report in reports):
        raise InvalidParameter(f"generator {pairs!r} keeps returning identical pairs")
    rows = [
        {
            "pair": idx,
            "eps_sq": report["hellinger_sq"],
            "delta": report["delta"],
            "delta_flux": report["delta_flux"],
            "regret": report["regret"],
            "ratio": report["regret"] / metrics.hellinger_rate_normalizer(report["hellinger_sq"]),
        }
        for idx, report in enumerate(reports)
    ]
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


def _grid_bounds(p):
    """(lo, hi) of ``--grid-min/--grid-max``, else None: the fit grids the sample range."""
    lo, hi = p.get("grid_min"), p.get("grid_max")
    if lo is None or hi is None:
        _reject(p, ("grid_min", "grid_max"), "alone: give both --grid-min and --grid-max")
        return None
    if not math.isfinite(hi - lo):
        raise InvalidParameter(f"--grid-min/--grid-max must give a finite grid, not [{lo!r}, {hi!r}]")
    if not lo < hi:
        raise InvalidParameter(f"--grid-min must be below --grid-max, not [{lo!r}, {hi!r}]")
    return lo, hi


def _run_npmle(spec):
    p = spec.params
    fit = _given(p, grid_size=int, tol=float, max_iters=int)
    fit["bounds"] = _grid_bounds(p)

    if p.get("data"):
        _reject(p, ("prior", "n_values", "n_seeds"), "with --data: it belongs to synthetic runs")
        y = _load_observations(p["data"])
        solution = npmle.solve_npmle(npmle.NpmleProblem.from_observations(y, **fit))
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

    rng = npmle.cell_rng(spec.seed, 0)
    true_prior = parse_prior_spec(p.get("prior", "two_point:m=1"), rng)
    n_values = p.get("n_values", [200, 800, 3200])
    n_seeds = int(p.get("n_seeds", 20))
    if not n_values or n_seeds < 1:
        raise InvalidParameter("need at least one sample size and one seed")
    if min(n_values) < 1:
        raise InvalidParameter(f"--n-values must all be >= 1, got {min(n_values)}")
    seeds = [
        int(s.generate_state(1, dtype=np.uint64)[0])
        for s in np.random.SeedSequence(spec.seed).spawn(n_seeds)
    ]

    fits = npmle.empirical_regret_experiment(true_prior, [(n, seed) for n in n_values for seed in seeds], **fit)
    rows = [record for record, _ in fits]
    medians = {}
    for n in n_values:
        regrets = sorted(r["regret"] for r in rows if r["n"] == n)
        medians[str(n)] = regrets[len(regrets) // 2]
    diagnostics = {"iterations": sum(solution.iterations for _, solution in fits)}
    for key in fits[0][1].diagnostics:  # a max_* count takes the largest fit's, every other the sum
        counts = [solution.diagnostics[key] for _, solution in fits]
        diagnostics[key] = max(counts) if key.startswith("max_") else sum(counts)
    summary = {
        "true_prior": json.loads(true_prior.to_json()),
        "median_regret": medians,
        "max_cert": max(r["cert"] for r in rows),
        "diagnostics": diagnostics,
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


@functools.cache  # argparse parsers keep no state between parse_args calls
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
    s.add_argument("--rhos", type=_parse_floats, help="comma-separated clipping levels")

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
    s.add_argument("--b-values", type=_parse_floats)

    s = sub.add_parser("regratio", help="regret against the Hellinger rate over random pairs")
    s.add_argument("--pairs", help="pair generator, e.g. two_point:m=1 or k_atom:k=5,m=2")
    s.add_argument("--count", type=int)
    s.add_argument("--p", type=float, help="clipping demo: tail exponent")
    s.add_argument("--b", type=float, help="clipping demo: spike location")
    s.add_argument("--rhos", type=_parse_floats, help="clipping demo: comma-separated levels")

    s = sub.add_parser("npmle", help="grid maximum-likelihood prior fits")
    s.add_argument("--data", help="file of observations, one per line")
    s.add_argument("--prior", help="true prior for synthetic runs")
    s.add_argument("--n-values", type=_parse_ints, help="comma-separated sample sizes")
    s.add_argument("--n-seeds", type=int)
    s.add_argument("--grid-min", type=float)
    s.add_argument("--grid-max", type=float)
    s.add_argument("--grid-size", type=int)
    s.add_argument("--tol", type=float)
    s.add_argument("--max-iters", type=int)

    # a negative number, -1e3 included (Python 3.11's argparse reads that as a flag), is a value; -inf and -x are not
    negative_number = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    for p in (parser, *_subparsers(parser).values()):
        p._negative_number_matcher = negative_number
    return parser


# dests every subcommand shares; the rest of the namespace is the subcommand's params
_GLOBAL_DESTS = {"config", "seed", "out", "threads", "command"}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _load_config(path, parser):
    """The config file's object; a key that is no global or subcommand flag is refused.

    A key of another subcommand's flag passes, so that one config can serve
    every subcommand.
    """
    if not path:
        return {}
    config = json.loads(pathlib.Path(path).read_text())
    if not isinstance(config, dict):
        raise InvalidParameter("config file must hold a JSON object")
    flags = {a.dest for p in (parser, *_subparsers(parser).values()) for a in p._actions
             if a.option_strings and a.dest != "help"}
    for key in config:
        if key not in flags:
            raise InvalidParameter(f"config key {key!r} is not a flag of eblab or of any subcommand")
    return config


def _flag_actions(parser, command):
    """The global and the subcommand's flag actions, keyed by dest."""
    return {a.dest: a for p in (parser, _subparsers(parser)[command]) for a in p._actions}


def _from_config(action, key, value):
    """A config value through its flag's parse; a flag with no parse takes a string."""
    if action.type is None:
        if not isinstance(value, str):
            raise InvalidParameter(f"config key {key!r}: expected a string, not {json.dumps(value)}")
        return value
    if isinstance(value, list) and action.type in (_parse_floats, _parse_ints):
        value = ",".join(v if isinstance(v, str) else json.dumps(v) for v in value)  # comma form
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        return action.type(text)
    except argparse.ArgumentTypeError as exc:
        raise InvalidParameter(f"config key {key!r}: {exc}") from None
    except ValueError:
        raise InvalidParameter(
            f"config key {key!r}: invalid {action.type.__name__} value {text!r}"
        ) from None


def _flag_value(args, config, actions, key):
    """The flag's value, else the config's through the flag's parse; None when neither is set."""
    value = getattr(args, key)
    if value is None and config.get(key) is not None:
        value = _from_config(actions[key], key, config[key])
    return value


def _spec_from_args(args, config, actions):
    params = {key: value for key in vars(args)
              if key not in _GLOBAL_DESTS and (value := _flag_value(args, config, actions, key)) is not None}
    return ExperimentSpec(name=args.command, params=params, seed=_flag_value(args, config, actions, "seed") or 0)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed a usage error (code 2) or the help
        return exc.code
    try:
        config = _load_config(args.config, parser)
        actions = _flag_actions(parser, args.command)
        out = _flag_value(args, config, actions, "out")
        if out:  # refused before the run if it names no file stem (a device, a FIFO, ".")
            try:
                output_paths(out)
            except ValueError as exc:
                raise InvalidParameter(f"cannot write --out {out!r}: {exc}") from None
        report = run(_spec_from_args(args, config, actions))
    except (InvalidParameter, UnknownExperiment, ValueError, OSError) as exc:
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
    if out:
        try:
            written = report.write(out)
        except (OSError, ValueError) as exc:  # ValueError: a path with no name, such as "."
            print(f"eblab: cannot write --out {out!r}: {exc}", file=sys.stderr)
            return 2
        for path in written:
            print(f"wrote {path}")
    else:
        sys.stdout.write(report.csv_text())
        print(json.dumps(report.summary, sort_keys=True, default=float), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
