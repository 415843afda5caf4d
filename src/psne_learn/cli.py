"""Command-line interface: psne-learn <subcommand>.

Subcommands map one-to-one onto the library layers: `enumerate` builds a
candidate family, `sample` draws observations from a model, `fit` runs the
exact MLE, `theory` evaluates the closed-form bound calculators, and
`experiment` runs a Monte Carlo harness.  Every run echoes its resolved
configuration to stderr: every parsed option, with `enumerate`'s default
actions filled in, or `experiment`'s whole resolved ExperimentConfig.
Exit codes: 0 success, 2 input error, 3 configuration error, 4 capacity
error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, fields

# let values like "-1,0,1", "-1e-3,0,1" or "-.5,1" pass as arguments rather
# than option strings: comma-separated decimals, each with an optional sign,
# leading dot and exponent, the first one negative
_NUMBER = r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
_NUMERIC_LIST = re.compile(rf"^(?=-){_NUMBER}(,{_NUMBER})*$")

from . import __version__
from .errors import CapacityError, ConfigError, InputError
from .estimator import DEFAULT_GRID, enumerate_psne_sets, family_sizes, fit_mle
from .bounds import (
    fano_error_lower_bound,
    fano_pair_kl,
    sufficient_samples,
    superset_recovery_margin,
)
from .experiments import ExperimentConfig, run_experiment
from .fileio import (
    EXPERIMENT_KEYS,
    parse_config,
    parse_list,
    read_dataset,
    read_family,
    write_dataset,
    write_family,
    write_fit,
    write_results,
)
from .mixture import MixtureModel

EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_CAPACITY = 4
EXIT_IO = 5


def _echo(config: dict) -> None:
    print(f"config: {json.dumps(config, sort_keys=True)}", file=sys.stderr)


def _options(args) -> dict:
    """Every parsed option, keyed by its destination."""
    return {key: value for key, value in vars(args).items() if key != "func"}


def _cmd_enumerate(args) -> int:
    actions = family_sizes(args.n, args.actions or ())
    _echo({**_options(args), "actions": actions})
    family = enumerate_psne_sets(args.n, args.k, actions, args.grid)
    write_family(args.out, family)
    print(f"wrote {len(family)} candidate PSNE sets to {args.out}", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    _echo(_options(args))
    family = read_family(args.family)
    if not 0 <= args.psne < len(family):
        raise InputError(
            f"--psne {args.psne} outside 0..{len(family) - 1} for this family"
        )
    model = MixtureModel(family.space, family[args.psne], args.q)
    write_dataset(args.out, model.sample(args.m, args.seed))
    print(f"wrote {args.m} samples to {args.out}", file=sys.stderr)
    return 0


def _cmd_fit(args) -> int:
    _echo(_options(args))
    family = read_family(args.family)
    data = read_dataset(args.data, family.space)
    result = fit_mle(family, data)
    write_fit(args.out, result)
    print(
        f"best PSNE set {result.psne.indices.tolist()} with q_hat={result.q_hat!r}",
        file=sys.stderr,
    )
    return 0


def _require(args, names: list[str], feature: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise InputError(f"{feature} needs {', '.join(missing)}")


def _cmd_theory(args) -> int:
    _echo(_options(args))
    out = {}
    if args.beta:
        _require(args, ["r", "q", "joint"], "--beta")
        out["beta"] = superset_recovery_margin(args.r, args.q, args.joint)
    if args.fano_kl:
        _require(args, ["q", "joint"], "--fano-kl")
        out["kl"] = fano_pair_kl(args.q, args.joint)
    if args.m_sufficient:
        _require(args, ["eps", "delta", "d_h"], "--m-sufficient")
        out["m_sufficient"] = sufficient_samples(args.eps, args.delta, args.d_h)
    if args.fano_bound:
        _require(args, ["m", "n", "k", "joint"], "--fano-bound")
        out["fano_bound"] = fano_error_lower_bound(
            args.m, args.n, args.k, args.joint, args.q
        )
    if not out:
        raise InputError(
            "select at least one quantity: --beta, --fano-kl, "
            "--m-sufficient, --fano-bound"
        )
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    overrides = {key: getattr(args, key) for key in EXPERIMENT_KEYS}
    config = parse_config(args.config, overrides)
    _echo({"subcommand": "experiment", **asdict(config)})
    table = run_experiment(config)
    write_results(args.out, table, args.format)
    print(f"wrote {len(table.rows)} result rows to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psne-learn",
        description=(
            "Learn PSNE sets of polymatrix games from behavioral data: "
            "enumerate candidate equilibrium sets, sample the mixture "
            "model, fit the exact MLE, evaluate sample-complexity bounds, "
            "and run Monte Carlo experiments."
        ),
    )
    parser._negative_number_matcher = _NUMERIC_LIST
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", help="enumerate realizable PSNE sets")
    p._negative_number_matcher = _NUMERIC_LIST
    p.add_argument("--n", type=int, required=True, help="number of players")
    p.add_argument("--k", type=int, required=True, help="max parents per player")
    p.add_argument("--actions", type=parse_list(int), help="sizes, e.g. 2,2 (default all 2)")
    p.add_argument("--grid", type=parse_list(float), default=DEFAULT_GRID)
    p.add_argument("--out", required=True, help="family JSON path")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="draw observations from a mixture model")
    p.add_argument("--family", required=True, help="family JSON path")
    p.add_argument("--psne", type=int, required=True, help="candidate index")
    p.add_argument("--q", type=float, required=True, help="signal level")
    p.add_argument("--m", type=int, required=True, help="sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", help="exact MLE over a candidate family")
    p.add_argument("--family", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="fit JSON path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("theory", help="closed-form bound calculators (JSON out)")
    p.add_argument("--beta", action="store_true", help="superset-recovery margin")
    p.add_argument("--fano-kl", action="store_true", help="singleton-pair KL")
    p.add_argument("--m-sufficient", action="store_true", help="sufficient samples")
    p.add_argument("--fano-bound", action="store_true", help="minimax error floor")
    p.add_argument("--r", type=int, help="PSNE-set size")
    p.add_argument("--q", type=float, help="mixture signal level")
    p.add_argument("--joint", type=int, help="joint-action count |A|")
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--d-h", type=int, help="candidate-family size")
    p.add_argument("--m", type=int, help="sample count")
    p.add_argument("--n", type=int, help="number of players")
    p.add_argument("--k", type=int, help="influential players / parent budget")
    p.set_defaults(func=_cmd_theory)

    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    p = sub.add_parser(
        "experiment",
        help="run a Monte Carlo harness",
        epilog="flags override config-file keys of the same name; defaults: "
        + ", ".join(
            f"{key} {defaults[field]}"
            for key, (field, _, _) in EXPERIMENT_KEYS.items()
            if key != "kind" and defaults[field] not in ((), None)
        ),
    )
    p._negative_number_matcher = _NUMERIC_LIST
    p.add_argument("--config", help="flat key = value config file")
    for key, (_, parse, text) in EXPERIMENT_KEYS.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=parse, help=text)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", required=True, help="results path")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
