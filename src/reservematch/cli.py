"""Command-line interface.

Subcommands: ``gen`` writes a synthetic instance file, ``run`` applies one
algorithm to an instance file, and ``sweep`` executes a full experiment
grid and writes its results, the wide per-figure tables included.
Progress and diagnostics go to stderr; results go to files (plus a short
stdout summary for ``run``).  Exit codes: 0 success, 1 usage error (a
``SettingsError`` from the library's checks or the parser), 2 runtime
error.  A flag left out takes the library's default.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import Iterable

from .algorithms import ALGORITHMS, outcome_to_json
from .datagen import SatGenConfig, SettingsError, gen_instance
from .experiment import ExperimentSpec, run_experiment
from .graph import signature
from .metrics import evaluate
from .model import load_instance, save_instance


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise SettingsError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x for x in text.split(",") if x)


def _settings_parser(sub: argparse._SubParsersAction, name: str, help: str, settings: type) -> _Parser:
    """A subcommand whose flags fill the dataclass ``settings``.  A flag left
    out is absent from the namespace, so the field's default applies."""
    defaults = ", ".join(f"{f.name}={f.default}" for f in fields(settings) if f.default is not MISSING)
    return sub.add_parser(name, help=help, epilog=f"defaults: {defaults}", argument_default=argparse.SUPPRESS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="reservematch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = _settings_parser(sub, "gen", "generate a synthetic instance file", SatGenConfig)
    gen.add_argument("--capacity", "--qc", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", dest="n_students", type=int, help="number of students")
    gen.add_argument("--psi-factor", help="reserve scale factor")
    gen.add_argument("--out", type=Path, required=True, help="instance file to write")

    run = sub.add_parser("run", help="run one algorithm on an instance file")
    run.add_argument("instance", type=Path)
    run.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    run.add_argument("--out", type=Path, help="outcome file to write")

    sweep = _settings_parser(sub, "sweep", "run an experiment grid", ExperimentSpec)
    sweep.add_argument("--out", dest="out_dir", type=Path, required=True, help="output directory")
    sweep.add_argument("--n", dest="n_students", type=int)
    sweep.add_argument("--qc", dest="capacities", type=_int_list, help="comma-separated capacities")
    sweep.add_argument("--psi-factors", type=_str_list, help="comma-separated reserve factors")
    sweep.add_argument("--seeds-per-cell", type=int)
    sweep.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    sweep.add_argument("--jobs", type=int)
    sweep.add_argument("--quiet", action="store_true", default=False)

    return parser


def _given(args: argparse.Namespace, names: Iterable[str]) -> dict:
    """The flags given among ``names``, by name."""
    return {k: getattr(args, k) for k in names if k in args}


def _cmd_gen(args: argparse.Namespace) -> int:
    config = SatGenConfig(**_given(args, (f.name for f in fields(SatGenConfig))))
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
    outcome = ALGORITHMS[args.algo](instance)
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
    spec = ExperimentSpec(**_given(args, (f.name for f in fields(ExperimentSpec))))
    paths = run_experiment(spec, progress=not args.quiet, **_given(args, ["jobs"]))
    for name, path in paths.items():
        print(f"[sweep] {name}: {path}", file=sys.stderr)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except SettingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
