"""Command-line interface.

Subcommands: ``gen`` writes a synthetic instance file, ``run`` applies one
algorithm to an instance file, ``sweep`` executes a full experiment grid,
and ``plotdata`` turns sweep results into wide per-figure tables.  Progress
and diagnostics go to stderr; results go to files (plus a short stdout
summary for ``run``).  Exit codes: 0 success, 1 usage error, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .algorithms import ALGORITHMS, outcome_to_json, run_algorithm
from .datagen import SatGenConfig, gen_instance
from .experiment import (
    DEFAULT_ALGORITHMS,
    DEFAULT_CAPACITIES,
    ExperimentSpec,
    emit_plot_data,
    run_experiment,
)
from .graph import signature
from .metrics import evaluate
from .model import InstanceFormatError, load_instance, save_instance


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x for x in text.split(",") if x)


def _build_parser() -> _Parser:
    parser = _Parser(prog="reservematch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance file")
    gen.add_argument("--capacity", "--qc", dest="capacity", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", type=int, default=100, help="number of students (default 100)")
    gen.add_argument("--psi-factor", default="1.0", help="reserve scale factor (default 1.0)")
    gen.add_argument("--out", type=Path, required=True, help="instance file to write")

    run = sub.add_parser("run", help="run one algorithm on an instance file")
    run.add_argument("instance", type=Path)
    run.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    run.add_argument("--out", type=Path, help="outcome file to write")

    sweep = sub.add_parser("sweep", help="run an experiment grid")
    sweep.add_argument("--out", type=Path, required=True, help="output directory")
    sweep.add_argument("--n", type=int, default=100)
    sweep.add_argument("--qc", type=_int_list, default=DEFAULT_CAPACITIES, help="comma-separated capacities")
    sweep.add_argument("--psi-factors", type=_str_list, default=("1.0",), help="comma-separated reserve factors")
    sweep.add_argument("--seeds-per-cell", type=int, default=100)
    sweep.add_argument("--seed", type=int, default=1729, help="master seed")
    sweep.add_argument("--algos", type=_str_list, default=DEFAULT_ALGORITHMS)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--quiet", action="store_true")

    plot = sub.add_parser("plotdata", help="emit plot-ready wide tables from sweep results")
    plot.add_argument("--results", type=Path, required=True, help="sweep output directory")
    plot.add_argument("--metric", required=True, choices=("p1", "p2", "p3"))
    plot.add_argument("--case", required=True, choices=("avg", "worst"))
    plot.add_argument("--out", type=Path, help="directory for the tables (default: results dir)")

    return parser


def _check_settings(settings: SatGenConfig | ExperimentSpec) -> None:
    """Run ``settings.check()``, reporting a bad setting as a usage error."""
    try:
        settings.check()
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    config = SatGenConfig(
        capacity=args.capacity, seed=args.seed, n_students=args.n, psi_factor=args.psi_factor
    )
    _check_settings(config)
    instance = gen_instance(config)
    save_instance(instance, args.out)
    meta = {k: (str(v) if not isinstance(v, (int, float)) else v) for k, v in asdict(config).items()}
    with open(f"{args.out}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    outcome = run_algorithm(args.algo, instance)
    values = evaluate(instance, outcome)
    sig = signature(outcome.matching)
    print(f"algorithm {outcome.algorithm}")
    print(f"signature {sig.rank1} {sig.rank2} {sig.rank3}")
    print("selected " + " ".join(map(str, outcome.selected)))
    print(f"p1 {values.p1} p2 {values.p2} p3 {values.p3:.6f}")
    if args.out is not None:
        doc = json.loads(outcome_to_json(outcome))
        doc["metrics"] = asdict(values)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        out_dir=args.out,
        n_students=args.n,
        capacities=tuple(args.qc),
        psi_factors=tuple(args.psi_factors),
        seeds_per_cell=args.seeds_per_cell,
        master_seed=args.seed,
        algorithms=tuple(args.algos),
    )
    _check_settings(spec)
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    paths = run_experiment(spec, jobs=args.jobs, progress=not args.quiet)
    for name, path in paths.items():
        print(f"[sweep] {name}: {path}", file=sys.stderr)
    return 0


def _cmd_plotdata(args: argparse.Namespace) -> int:
    written = emit_plot_data(args.results, args.metric, args.case, args.out)
    for path in written:
        print(f"[plotdata] {path}", file=sys.stderr)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "plotdata": _cmd_plotdata,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, InstanceFormatError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
