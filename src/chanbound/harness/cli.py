"""Command-line entry point: verify / sweep / eval / report.

Exit codes for verify and report: 0 when every check passed, 2 when some
checks were inconclusive (bracket too wide) but none failed, 1 when any
check certified a violation.  Every command reports a rejected input as
one `error:` line on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .. import bounds as bnd
from ..energy import OscillatorSpec, oscillator_f
from .report import emit_report, emit_sweep, format_summary, load_report
from .suites import config_from_dict, OSCILLATOR_KEYS, parse_oscillator, run_suite, SUITE_NAMES
from .sweeps import FAMILIES, sweep_tightness
from .verdict import VIOLATION, exit_code

LOG2 = math.log(2.0)


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
    p_eval.add_argument("--bound", required=True)
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
    """eval's `k=v,...` parameters, strings until a typed read; a read or an `in` test adds its key to `asked`."""

    def __init__(self, spec: str):
        self.given, self.asked = {}, set()  # key -> (value, key as given)
        for name, _, raw in (map(str.strip, chunk.partition("=")) for chunk in spec.split(",") if chunk):
            key = _ALIASES.get(name, name)
            if key in self.given:
                first = self.given[key][1]
                raise ValueError(f"parameter {name!r} given twice" if name == first
                                 else f"give one of {first if name == key else name} and {key}")
            self.given[key] = raw, name

    def __contains__(self, key: str) -> bool:
        self.asked.add(key)
        return key in self.given

    def _get(self, key: str, default):
        if key not in self and default is None:
            raise KeyError(key)
        return self.given.get(key, (default, key))

    def integer(self, key: str, default=None) -> int:
        return bnd.check_integer(*self._get(key, default))

    def real(self, key: str, default=None) -> float:
        return bnd.check_real(*self._get(key, default))

    def flag(self, key: str) -> bool:
        raw, name = self._get(key, "0")
        if raw not in ("0", "1"):
            raise ValueError(f"{name} = {raw} must be 0 or 1")
        return raw == "1"

    def oscillator(self) -> OscillatorSpec:
        doc = {key: self.given[key][0] for key in OSCILLATOR_KEYS if key in self}
        if "frequencies" in doc:  # one value serves every mode, or a list w1:w2:...
            raw, name = self.given["frequencies"]
            try:
                doc["frequencies"] = [float(v) for v in raw.split(":")] if ":" in raw else float(raw)
            except ValueError:
                raise ValueError(f"{name} = {raw} must be numbers separated by ':'") from None
        return parse_oscillator(doc)


def _eval_bound(name: str, p: _Params) -> float:
    """The bound `name` at params p; every bound but erasure_gap needs eps (or epsilon)."""
    if name == "erasure_gap":
        return bnd.erasure_isometry_gap(p.real("x"))
    eps = p.real("eps")
    if name in ("lemma4_finite", "lemma4_qc"):
        return bnd.lemma4_bound(name.split("_", 1)[1], eps, d=p.integer("d"), part_c=p.flag("part_c"))
    if name in ("lemma4_energy", "lemma4_pure"):
        f_handle = functools.partial(oscillator_f, p.oscillator())
        return bnd.lemma4_bound(name.split("_", 1)[1], eps, f_handle=f_handle, energy=p.real("E"),
                                part_c=p.flag("part_c"))
    if name == "prop2":
        return bnd.prop2_bound(eps, p.integer("d_a"), p.flag("same_channel"), p.flag("same_state"))
    if name in ("prop3", "prop7"):
        spec = p.oscillator()
        args = (eps, lambda e: oscillator_f(spec, e + spec.ground_energy), p.real("E_bar"))
        return bnd.prop3_bound(*args, pure=p.flag("pure")) if name == "prop3" else bnd.prop7_bound(*args)
    if name == "prop4":
        return bnd.prop4_bound(eps, p.integer("d_a"), p.integer("n", 1))
    if name in ("t_st", "prop5", "prop8", "thm2_chi", "thm2_c", "thm2_q", "thm2_pbar", "thm2_p"):
        spec, e_cap, r = p.oscillator(), p.real("E"), p.real("r") if "r" in p else None  # P_r reads no t, d_cap
        t_fn = bnd.t_functional(spec, e_cap, r, p.integer("d_cap", 10**6) if r is None else 10**6)
        if name == "t_st":
            return t_fn(p.integer("t", 0) if r is None else 0, eps)
        if name == "prop5":
            return bnd.prop5_bound(eps, p.integer("n", 1), functools.partial(t_fn, p.integer("t", 0) if r is None else 0))
        if name == "prop8":
            return bnd.prop8_bound(eps, functools.partial(t_fn, 0))
        return bnd.theorem2_bound(name.split("_", 1)[1], eps, t_fn)
    if name in ("corollary_osc", "p_r"):
        return bnd.p_r(p.oscillator(), p.real("E"), eps, p.real("r", 1.0))
    if name == "prop6":
        return bnd.prop6_bound(eps, p.integer("d_a"), p.flag("same_channel"), p.flag("same_ensemble"))
    if name.startswith("thm1_"):
        cap = name.split("_", 1)[1]
        if "log_d_a" in p:
            return bnd.theorem1_bound(cap, eps, log_d_a=p.real("log_d_a"))
        return bnd.theorem1_bound(cap, eps, d_a=p.integer("d_a"))
    raise ValueError(f"unknown bound {name!r}")


def _cmd_eval(args) -> int:
    params = _Params(args.params)
    value = _eval_bound(args.bound, params)
    if unread := sorted(name for key, (_, name) in params.given.items() if key not in params.asked):
        raise ValueError(f"{args.bound} reads no parameters {unread}; it reads {sorted(params.asked)}")
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
