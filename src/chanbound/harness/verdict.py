"""Three-way verdicts for inequality checks with bracketed epsilon.

Bounds increase in epsilon, so evaluating the right-hand side at the
certified lower and upper ends of the epsilon bracket sandwiches the true
bound: a PASS at the lower end certifies the instance, and only a failure
that persists at the upper end counts as a VIOLATION.  This never reports
a false counterexample to a proven statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, get_type_hints

PASS = "PASS"
INCONCLUSIVE = "INCONCLUSIVE"
VIOLATION = "VIOLATION"

DEFAULT_TOL = 1e-9  # the absolute slack of every verdict; no config changes it


def classify(lhs: float, rhs_at_lower: float, rhs_at_upper: float) -> str:
    if lhs <= rhs_at_lower + DEFAULT_TOL:
        return PASS
    if lhs > rhs_at_upper + DEFAULT_TOL:
        return VIOLATION
    return INCONCLUSIVE


@dataclass(frozen=True)
class BoundVerdict:
    """Record of one inequality check."""

    suite: str
    trial: int
    bound_name: str
    lhs: float
    eps_lo: float
    eps_hi: float
    rhs_lo: float
    rhs_hi: float
    outcome: str
    certificates: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_csv_row(self) -> str:
        return _csv_row(self, CSV_HEADER)


# the CSV columns: every field but the certificates, in declaration order
CSV_HEADER = ",".join(f.name for f in fields(BoundVerdict) if f.name != "certificates")
_VERDICT_TYPES = get_type_hints(BoundVerdict)


def _csv_row(record, header: str) -> str:
    """The record's fields named in `header`: text and integers as they are, None empty, floats to 17 digits."""
    cells = (getattr(record, name) for name in header.split(","))
    return ",".join("" if x is None else str(x) if isinstance(x, (str, int)) else format(float(x), ".17g")
                    for x in cells)


def verdict_from_dict(doc: dict) -> BoundVerdict:
    """Inverse of `BoundVerdict.to_dict`: each column cast to its declared type; certificates may be absent."""
    return BoundVerdict(**{name: _VERDICT_TYPES[name](doc[name]) for name in CSV_HEADER.split(",")},
                        certificates=dict(doc.get("certificates", {})))


def summarize(verdicts) -> dict:
    counts = {PASS: 0, INCONCLUSIVE: 0, VIOLATION: 0}
    for v in verdicts:
        counts[v.outcome] += 1
    return {
        "total": len(verdicts),
        "pass": counts[PASS],
        "inconclusive": counts[INCONCLUSIVE],
        "violation": counts[VIOLATION],
    }


def exit_code(summary: dict) -> int:
    """0 = all PASS; 2 = some INCONCLUSIVE, no VIOLATION; 1 = any VIOLATION."""
    if summary["violation"] > 0:
        return 1
    if summary["inconclusive"] > 0:
        return 2
    return 0


@dataclass(frozen=True)
class SweepRow:
    """One point of a closed-form tightness sweep."""

    family: str
    capacity: str
    variable: str
    value: float
    x: float
    r: Optional[float]
    delta: float
    epsilon: float
    bound: float
    ratio: float


SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def sweep_row_to_csv(row: SweepRow) -> str:
    return _csv_row(row, SWEEP_CSV_HEADER)
