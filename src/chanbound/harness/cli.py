"""Command-line entry point: verify / sweep / eval / report.

Exit codes for verify and report: 0 when every check passed, 2 when some
checks were inconclusive (bracket too wide) but none failed, 1 when any
check certified a violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .. import bounds as bnd
from ..energy import OscillatorSpec, oscillator_f, oscillator_f_bar
from .report import emit_report, emit_sweep, format_summary, load_report
from .suites import config_from_dict, run_suite, SUITE_NAMES
from .sweeps import FAMILIES, sweep_tightness
from .verdict import VIOLATION, exit_code

LOG2 = math.log(2.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chanbound",
        description="Verify capacity continuity bounds at desk scale with seeded campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--config", type=Path, help="JSON campaign config")
    p_verify.add_argument("--out", type=Path, help="report path (.json or .csv)")
    p_verify.add_argument("--format", choices=("json", "csv"))

    p_sweep = sub.add_parser("sweep", help="closed-form tightness sweep")
    p_sweep.add_argument("--family", choices=FAMILIES, required=True)
    p_sweep.add_argument("--grid", type=Path, help="JSON grid file")
    p_sweep.add_argument("--out", type=Path, required=True)

    p_eval = sub.add_parser("eval", help="evaluate one bound formula")
    p_eval.add_argument("--bound", required=True)
    p_eval.add_argument("--params", default="", help="comma-separated k=v pairs")
    p_eval.add_argument("--units", choices=("nats", "bits"), default="nats")

    p_report = sub.add_parser("report", help="reload and summarize a JSON report")
    p_report.add_argument("--in", dest="path", type=Path, required=True)
    p_report.add_argument("--summary", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "eval":
        return _cmd_eval(args)
    return _cmd_report(args)


def _cmd_verify(args) -> int:
    doc = {}
    if args.config:
        doc = json.loads(args.config.read_text(encoding="utf-8"))
    if args.suite:
        doc["suite"] = args.suite
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.seed is not None:
        doc["seed"] = args.seed
    if "suite" not in doc:
        print("error: no suite given (use --suite or a config file)", file=sys.stderr)
        return 1
    config = config_from_dict(doc)
    report = run_suite(config)
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
    grid = {}
    if args.grid:
        grid = json.loads(args.grid.read_text(encoding="utf-8"))
    rows = sweep_tightness(args.family, grid)
    emit_sweep(rows, args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _parse_params(spec: str) -> dict:
    params: dict = {}
    if not spec:
        return params
    for chunk in spec.split(","):
        if not chunk:
            continue
        key, _, raw = chunk.partition("=")
        key = key.strip()
        raw = raw.strip()
        if ":" in raw:
            params[key] = [float(v) for v in raw.split(":")]
        else:
            try:
                params[key] = int(raw)
            except ValueError:
                try:
                    params[key] = float(raw)
                except ValueError:
                    params[key] = raw
    return params


def _integer(p: dict, key: str, default=None) -> int:
    """p[key], or `default` when given and the key is absent, through `bounds.check_integer`."""
    return bnd.check_integer(p[key] if default is None else p.get(key, default), key)


def _oscillator_from(params: dict) -> OscillatorSpec:
    modes = _integer(params, "l" if "l" in params else "modes", 1)
    freqs = params.get("frequencies", params.get("omega", [1.0] * modes))
    if isinstance(freqs, (int, float)):
        freqs = [float(freqs)] * modes
    return OscillatorSpec(
        modes=modes,
        frequencies=tuple(freqs),
        hbar=float(params.get("hbar", 1.0)),
        truncation=_integer(params, "truncation", 40),
    )


def _eval_bound(name: str, p: dict) -> float:
    """The bound `name` at params p; every bound but erasure_gap needs eps (or epsilon)."""
    if name == "erasure_gap":
        return bnd.erasure_isometry_gap(float(p["x"]))
    eps = p.get("eps", p.get("epsilon"))
    if eps is None:
        raise KeyError("eps")
    eps = float(eps)
    if name in ("lemma4_finite", "lemma4_qc"):
        variant = name.split("_", 1)[1]
        return bnd.lemma4_bound(variant, eps, d=_integer(p, "d"), part_c=bool(p.get("part_c", 0)))
    if name in ("lemma4_energy", "lemma4_pure"):
        spec = _oscillator_from(p)
        handle = lambda e: oscillator_f(spec, e)
        return bnd.lemma4_bound(
            name.split("_", 1)[1], eps, f_handle=handle, energy=float(p["E"]),
            part_c=bool(p.get("part_c", 0)),
        )
    if name == "prop2":
        return bnd.prop2_bound(eps, _integer(p, "d_a"), bool(p.get("same_channel", 0)), bool(p.get("same_state", 0)))
    if name == "prop3":
        spec = _oscillator_from(p)
        return bnd.prop3_bound(eps, lambda e: oscillator_f_bar(spec, e), float(p["E_bar"]), pure=bool(p.get("pure", 0)))
    if name == "prop4":
        return bnd.prop4_bound(eps, _integer(p, "d_a"), _integer(p, "n", 1))
    if name in ("t_st", "prop5", "prop8", "thm2_chi", "thm2_c", "thm2_q", "thm2_pbar", "thm2_p"):
        t_fn = bnd.t_functional(_oscillator_from(p), float(p["E"]), float(p["r"]) if "r" in p else None,
                                _integer(p, "d_cap", 10**6))
        if name == "t_st":
            return t_fn(_integer(p, "t", 0), eps)
        if name == "prop5":
            return bnd.prop5_bound(eps, _integer(p, "n", 1), functools.partial(t_fn, _integer(p, "t", 0)))
        if name == "prop8":
            return bnd.prop8_bound(eps, functools.partial(t_fn, 0))
        return bnd.theorem2_bound(name.split("_", 1)[1], eps, t_fn)
    if name in ("corollary_osc", "p_r"):
        spec = _oscillator_from(p)
        return bnd.p_r(spec, float(p["E"]), eps, float(p.get("r", 1.0)))
    if name == "prop6":
        return bnd.prop6_bound(eps, _integer(p, "d_a"), bool(p.get("same_channel", 0)), bool(p.get("same_ensemble", 0)))
    if name == "prop7":
        spec = _oscillator_from(p)
        return bnd.prop7_bound(eps, lambda e: oscillator_f_bar(spec, e), float(p["E_bar"]))
    if name.startswith("thm1_"):
        cap = name.split("_", 1)[1]
        if "log_d_a" in p:
            return bnd.theorem1_bound(cap, eps, log_d_a=float(p["log_d_a"]))
        return bnd.theorem1_bound(cap, eps, d_a=_integer(p, "d_a"))
    raise ValueError(f"unknown bound {name!r}")


def _cmd_eval(args) -> int:
    params = _parse_params(args.params)
    try:
        value = _eval_bound(args.bound, params)
    except KeyError as exc:
        print(f"error: missing parameter {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:  # int(inf) overflows
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
