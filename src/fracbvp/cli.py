"""Command-line entry point.

Subcommands::

    fracbvp run    --case 1 --method both --n 100 [--m 10] [...]
    fracbvp table1 [--out DIR]
    fracbvp sweep  --case 3 --n-list 40,80,200 [...]

Exit code 0 covers every completed scientific run, including a solver that
diverges (that outcome lands in the ``status`` column); exit 2 is a usage
fault and exit 1 an I/O fault, each with a message.  Flags override values
from an optional ``key=value`` config file; the environment is never
consulted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import RunConfig, run, sweep, table1


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The entries of a ``key=value`` file as ``--key=value`` flags, so that
    the parser checks their values as it checks the command line's.  A key
    is any flag of a subcommand that takes a value, but ``--config``."""
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    keys = {flag[2:].replace("-", "_") for sub in commands.values()
            for flag, action in sub._option_string_actions.items()
            if action.nargs != 0 and action.dest != "config"}
    flags = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            parser.error(f"{path}:{lineno}: unknown key {key!r}")
        flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    return flags


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", choices=["1", "2", "3", "4"], default=None,
                   help="benchmark case to run")
    p.add_argument("--method", choices=["fdm", "ifoi", "both"], default=None)
    p.add_argument("--n", type=int, default=None,
                   help="grid intervals on [0,1] (default: per-case)")
    p.add_argument("--m", type=int, default=None,
                   help="number of fractional integration stages")
    p.add_argument("--alpha-spacing", dest="alpha_spacing",
                   choices=["regular", "quadratic"], default=None)
    p.add_argument("--scheme", choices=["gl", "rect", "abm"], default=None)
    p.add_argument("--repeats", type=int, default=None,
                   help="timing repetitions; the median is reported.  Only "
                        "the first IFOI solve of a length class composes "
                        "its operator; later repeats reuse it")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults for unset flags")
    p.add_argument("--case3-a", type=float, default=None,
                   help="case-3 left boundary value override")
    p.add_argument("--case3-b", type=float, default=None,
                   help="case-3 Robin weight override")
    p.add_argument("--case3-c", type=float, default=None,
                   help="case-3 Robin right-hand value override")


def _case3_constants(args: argparse.Namespace) -> dict[str, float]:
    """The ``--case3-*`` values given, as keywords of ``make_case3``."""
    given = {key: getattr(args, f"case3_{key}") for key in "abc"}
    return {key: v for key, v in given.items() if v is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbvp",
        description="Benchmark staged fractional-order integration against "
                    "finite differences on four boundary-value problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one case with one or both methods")
    _add_common(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="record stage snapshots and emit SVG plots")

    p_table = sub.add_parser("table1", help="case-3 error/time table at "
                                            "N in {40, 80, 200}")
    p_table.add_argument("--out", default=None)
    p_table.add_argument("--repeats", type=int, default=None)
    p_table.add_argument("--config", default=None)

    p_sweep = sub.add_parser("sweep", help="run one case across several grids")
    _add_common(p_sweep)
    p_sweep.add_argument("--n-list", dest="n_list", default=None,
                         help="comma-separated grid sizes, e.g. 40,80,200")
    return parser


def _report_lines(reports) -> list[str]:
    lines = []
    for r in reports:
        err = "n/a" if r.sup_error is None else f"{r.sup_error:.3e}"
        lines.append(f"{r.params['case']} {r.method:>4} n={r.params['n']:>4} "
                     f"error={err} time={r.wall_time:.3e}s status={r.status}")
    return lines


# parse_args and parse_known_args leave a parser as they find it, so one
# serves every call
_PARSER = _build_parser()


def main(argv=None) -> int:
    parser = _PARSER
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    try:
        if args.config:
            # config entries go in ahead of the command line's own flags,
            # which win; entries this subcommand does not take are ignored
            flags = _config_flags(parser, args.config)
            args, _ = parser.parse_known_args(argv[:1] + flags + argv[1:])
        out_dir = args.out if args.out is not None else "."
        repeats = args.repeats if args.repeats is not None else 1
        if args.command == "table1":
            path = table1(out_dir, repeats=repeats)
            print(f"wrote {path}")
            return 0

        if args.case is None:
            print("error: --case is required", file=sys.stderr)
            return 2
        config = RunConfig(
            case_id=args.case,
            method=args.method or "both",
            n=args.n, m=args.m,
            spacing=args.alpha_spacing,
            scheme=args.scheme,
            repeats=repeats,
            output_dir=out_dir,
            emit_trace=getattr(args, "trace", False),
            case3_constants=_case3_constants(args),
        )
        if args.command == "run":
            reports = run(config)
        else:
            if not args.n_list:
                print("error: sweep requires --n-list", file=sys.stderr)
                return 2
            n_list = [int(v) for v in str(args.n_list).split(",")
                      if v.strip()]
            if not n_list:
                raise ValueError(f"--n-list {args.n_list!r} names no grid")
            reports = sweep(n_list, config)
        for line in _report_lines(reports):
            print(line)
        return 0
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
