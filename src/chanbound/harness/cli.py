"""Command-line entry point: verify / sweep / eval / report.

Exit codes for verify and report: 0 when every check passed, 2 when some
checks were inconclusive (bracket too wide) but none failed, 1 when any
check certified a violation.  Every command reports a rejected input as
one `error:` line on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..bounds import LOG2
from .report import emit_report, emit_sweep, format_summary, load_report
from .suites import bound_value, config_from_dict, run_suite, SUITE_NAMES
from .sweeps import FAMILIES, sweep_tightness
from .verdict import VIOLATION, exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chanbound",
        description="Verify capacity continuity bounds at desk scale with seeded campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # `missing` names what a KeyError of the command is missing
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.set_defaults(run=_cmd_verify, missing="config key")
    p_verify.add_argument("--suite", choices=SUITE_NAMES)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--config", type=Path, help="JSON campaign config")
    p_verify.add_argument("--out", type=Path, help="report path (.json or .csv)")
    p_verify.add_argument("--format", choices=("json", "csv"))

    p_sweep = sub.add_parser("sweep", help="closed-form tightness sweep")
    p_sweep.set_defaults(run=_cmd_sweep, missing="grid key")
    p_sweep.add_argument("--family", choices=FAMILIES, required=True)
    p_sweep.add_argument("--grid", type=Path, help="JSON grid file")
    p_sweep.add_argument("--out", type=Path, required=True)

    p_eval = sub.add_parser("eval", help="evaluate one bound formula")
    p_eval.set_defaults(run=_cmd_eval, missing="parameter")
    p_eval.add_argument("--bound", required=True, help="a name of the bound table `suites.BOUNDS`")
    p_eval.add_argument("--params", default="", help="comma-separated k=v pairs")
    p_eval.add_argument("--units", choices=("nats", "bits"), default="nats")

    p_report = sub.add_parser("report", help="reload and summarize a JSON report")
    p_report.set_defaults(run=_cmd_report, missing="report key")
    p_report.add_argument("--in", dest="path", type=Path, required=True)
    p_report.add_argument("--summary", action="store_true")

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except KeyError as exc:
        print(f"error: missing {args.missing} {exc}", file=sys.stderr)
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


def _read_object(path: Path, what: str) -> dict:
    """The JSON object in the file at `path`; any other JSON value is rejected, naming `what`."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


def _cmd_verify(args) -> int:
    doc = _read_object(args.config, "a campaign config") if args.config else {}
    if args.suite:
        doc["suite"] = args.suite
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.seed is not None:
        doc["seed"] = args.seed
    if "suite" not in doc:
        raise ValueError("no suite given (use --suite or a config file)")
    report = run_suite(config_from_dict(doc))
    if args.out:
        fmt = args.format or ("csv" if str(args.out).endswith(".csv") else "json")
        emit_report(report, fmt, args.out)
    print(format_summary(report))
    for v in report.verdicts:
        if v.outcome == VIOLATION:
            print(
                f"VIOLATION {v.bound_name} trial={v.trial} lhs={v.lhs:.12g} "
                f"rhs_hi={v.rhs_hi:.12g}"
            )
    return exit_code(report.summary)


def _cmd_sweep(args) -> int:
    rows = sweep_tightness(args.family, _read_object(args.grid, "a sweep grid") if args.grid else {})
    emit_sweep(rows, args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


#: eval's aliases: `epsilon` of eps, and `l` and `omega` of the oscillator keys of `parse_oscillator`
_ALIASES = {"epsilon": "eps", "l": "modes", "omega": "frequencies"}


class _Params:
    """eval's `k=v,...` parameters: `given` maps each key to its value, a string, and `names` to its name as given."""

    def __init__(self, spec: str):
        self.given, self.names = {}, {}
        for name, _, raw in (map(str.strip, chunk.partition("=")) for chunk in spec.split(",") if chunk):
            key = _ALIASES.get(name, name)
            if key in self.given:
                first = self.names[key]
                raise ValueError(f"parameter {name!r} given twice" if name == first
                                 else f"give one of {first if name == key else name} and {key}")
            self.given[key], self.names[key] = raw, name


def _cmd_eval(args) -> int:
    params = _Params(args.params)
    value = bound_value(args.bound, params.given, params.names)
    if args.units == "bits":
        value = value / LOG2
    print(format(value, ".17g"))
    return 0


def _cmd_report(args) -> int:
    report = load_report(args.path)
    print(format_summary(report))
    if args.summary:
        per_bound: dict = {}
        for v in report.verdicts:
            key = (v.bound_name, v.outcome)
            per_bound[key] = per_bound.get(key, 0) + 1
        for (name, outcome), count in sorted(per_bound.items()):
            print(f"  {name}: {outcome} x{count}")
    return exit_code(report.summary)


if __name__ == "__main__":
    raise SystemExit(main())
