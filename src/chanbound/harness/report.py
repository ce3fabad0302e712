"""Report emission and reloading: JSON campaign documents and fixed-column CSV."""

from __future__ import annotations

import json
from typing import Iterable

from .suites import CampaignReport
from .verdict import (
    CSV_HEADER,
    SWEEP_CSV_HEADER,
    SweepRow,
    summarize,
    sweep_row_to_csv,
    verdict_from_dict,
)


def report_to_dict(report: CampaignReport) -> dict:
    return {
        "suite": report.suite,
        "seed": report.seed,
        "config": report.config,
        "rows": [v.to_dict() for v in report.verdicts],
        "summary": report.summary,
    }


def emit_report(report: CampaignReport, fmt: str, path) -> None:
    """Write a campaign report; floats keep full round-trip precision."""
    if not report.verdicts:
        raise ValueError("refusing to emit an empty report")
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=1, default=_jsonable)
            fh.write("\n")
    elif fmt == "csv":
        lines = [CSV_HEADER] + [v.to_csv_row() for v in report.verdicts]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}; expected json or csv")


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def load_report(path) -> CampaignReport:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    verdicts = tuple(verdict_from_dict(row) for row in doc["rows"])
    return CampaignReport(
        suite=str(doc["suite"]),
        seed=int(doc["seed"]),
        config=dict(doc["config"]),
        verdicts=verdicts,
        summary=summarize(verdicts),
    )


def emit_sweep(rows: Iterable[SweepRow], path) -> None:
    rows = list(rows)
    if not rows:
        raise ValueError("refusing to emit an empty sweep")
    lines = [SWEEP_CSV_HEADER] + [sweep_row_to_csv(r) for r in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def format_summary(report: CampaignReport) -> str:
    s = report.summary
    return (
        f"suite={report.suite} seed={report.seed} total={s['total']} "
        f"pass={s['pass']} inconclusive={s['inconclusive']} violation={s['violation']}"
    )
