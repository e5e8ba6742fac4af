"""Command-line front end.

Subcommands:

* ``solve-full``        one full-data run from a config file (or flags)
* ``solve-restricted``  one restricted run
* ``bench``             batch over a directory of ``*.cfg`` files
* ``adversarial``       failure-mode separation suite on the adversarial matrices
* ``verify-theorems``   conditioning-guarantee Monte Carlo experiments

Exit codes: 0 success, 1 config, usage or I/O error, 2 solver
non-convergence, 3 numerical breakdown.  A usage error (an unknown flag, a
value of the wrong type, no subcommand) prints the usage and exits 1, not
argparse's own 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .config import ExperimentConfig, field_types, load_config
from .diagnostics import separation_experiment, verify_krill_theorem, verify_rpc_theorem
from .errors import InputError, NumericalError
from .harness import run_batch, run_experiment
from .krr import FULL, RESTRICTED

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors exit ``EXIT_INPUT``; its
    subparsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_solve_flags(parser, mode):
    """The handler that solves in ``mode``, and one flag per config key,
    except ``mode`` itself and the keys tagged for the other mode."""
    parser.set_defaults(run=lambda args: _cmd_solve(args, mode))
    parser.add_argument("--config", help="config file; flags below override it "
                                         "(a seed must be set in one of them)")
    types = field_types()
    for f in fields(ExperimentConfig):
        if f.name == "mode" or f.metadata.get("mode") not in (None, mode):
            continue
        flag = "--" + f.name.replace("_", "-")
        if types[f.name] is bool:
            parser.add_argument(flag, action="store_true", default=None, dest=f.name)
        else:
            parser.add_argument(flag, dest=f.name, choices=f.metadata.get("choices"),
                                type=None if types[f.name] is str else types[f.name])


def _config_from_args(args, mode):
    config = load_config(args.config) if args.config else ExperimentConfig()
    config.mode = mode
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    return config


def _cmd_solve(args, mode):
    config = _config_from_args(args, mode)
    summary = run_experiment(config)
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    print()
    return EXIT_OK if summary["converged"] else EXIT_NOT_CONVERGED


def _cmd_bench(args):
    result = run_batch(args.config_dir, workers=args.workers)
    n_fail = sum(1 for s in result["runs"].values() if not s["converged"])
    print(json.dumps({
        "runs": len(result["runs"]),
        "not_converged": n_fail,
        "fraction_solved_csv": result["fraction_solved_csv"],
    }, indent=2))
    return EXIT_OK if n_fail == 0 else EXIT_NOT_CONVERGED


def _cmd_adversarial(args):
    reports = [
        separation_experiment("uniform", n=args.n, rank=args.rank,
                              n_seeds=args.n_seeds, seed0=args.seed),
        separation_experiment("greedy", n=args.n, rank=args.rank,
                              delta=args.delta, n_seeds=args.n_seeds,
                              seed0=args.seed),
    ]
    _emit_reports(reports, args.output)
    return EXIT_OK if all(r["separated"] for r in reports) else EXIT_NOT_CONVERGED


def _cmd_verify(args):
    import numpy as np

    spectrum = 2.0 ** -np.arange(1, args.n + 1)
    reports = [
        verify_rpc_theorem(spectrum, mu=args.mu, delta=args.delta,
                           n_seeds=args.n_seeds, seed0=args.seed),
        verify_krill_theorem(n=args.n_data, k=args.k, mu=args.mu,
                             n_seeds=min(args.n_seeds, 100), seed0=args.seed),
    ]
    _emit_reports(reports, args.output)
    ok = (reports[0]["event_fraction"] >= 1.0 - args.delta - 0.05
          and reports[1]["conditional_violations"] == 0)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _emit_reports(reports, output):
    if output:
        os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
        with open(output, "w") as fh:
            json.dump(reports, fh, indent=2)
            fh.write("\n")
    # per-seed lists go only to the output file
    summaries = [{k: v for k, v in rep.items() if not isinstance(v, list)}
                 for rep in reports]
    print(json.dumps(summaries, indent=2))


def build_parser():
    parser = _Parser(
        prog="krrsolve",
        description="Randomized-preconditioned solvers for kernel ridge regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_full = sub.add_parser("solve-full", help="solve a full-data problem")
    _add_solve_flags(p_full, FULL)
    p_rest = sub.add_parser("solve-restricted", help="solve a restricted problem")
    _add_solve_flags(p_rest, RESTRICTED)

    p_bench = sub.add_parser("bench", help="run a directory of configs")
    p_bench.add_argument("config_dir")
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.set_defaults(run=_cmd_bench)

    p_adv = sub.add_parser("adversarial", help="failure-mode separation suite")
    p_adv.set_defaults(run=_cmd_adversarial)
    p_adv.add_argument("--seed", type=int, required=True)
    p_adv.add_argument("--n", type=int, default=1000)
    p_adv.add_argument("--rank", type=int, default=10)
    p_adv.add_argument("--delta", type=float, default=1e-3)
    p_adv.add_argument("--n-seeds", type=int, default=50, dest="n_seeds")
    p_adv.add_argument("--output", help="write full JSON records here")

    p_ver = sub.add_parser("verify-theorems", help="conditioning-guarantee experiments")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("--seed", type=int, required=True)
    p_ver.add_argument("--n", type=int, default=200, help="spectrum length")
    p_ver.add_argument("--mu", type=float, default=1e-3)
    p_ver.add_argument("--delta", type=float, default=0.1)
    p_ver.add_argument("--n-data", type=int, default=2000, dest="n_data")
    p_ver.add_argument("--k", type=int, default=50)
    p_ver.add_argument("--n-seeds", type=int, default=200, dest="n_seeds")
    p_ver.add_argument("--output", help="write full JSON records here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
