"""Workload definitions: which seeded campaigns one benchmark run executes.

Every workload is a list of steps.  A suite step runs
``chanbound.harness.suites.run_suite`` at a pinned trial count and emits
the report as CSV.  The certify step runs the acceptance criterion-07
procedure on seeded 2-2-2 channel pairs through ``chanbound.metrics``.  A
step's campaign seed is the run's ``--seed`` unless the step pins one.  Why
each workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

# prop3 / prop7 with oscillator input at the default truncation of 40; the
# channel needs d_b * d_e >= 40.
OSC40 = {"kind": "oscillator", "modes": 1, "frequencies": [1.0], "truncation": 40, "E": 1.5}
DIMS40 = {"d_b": 8, "d_e": 5}


# The cost of one see-saw bracket depends on how fast the see-saw converges
# on its instance: over seeds, a see-saw campaign that fits in one run varied
# by 2x (prop6, 6 trials: 6.3-12.6 s), and three certify pairs by 1.6x.  So
# the workloads that bracket time a campaign at pinned (suite, trials, seed),
# with seed 7 as in the ROADMAP baselines.  The run then takes each of their
# steps once more at its own seed, as an untimed campaign that is checked
# like the timed one.  Trial counts are small so that the three repeats a
# run makes at least take at most about 35 s, even when the host runs 2x slow.
PINNED_SEED = 7


@dataclass(frozen=True)
class Step:
    name: str  # suite name, or "certify"
    trials: int  # trials for a suite, channel pairs for certify
    overrides: dict = field(default_factory=dict)
    seed: Optional[int] = None  # campaign seed; None means the run's seed


WORKLOADS = {
    "exact": (
        Step("lemma4", 96),
        Step("identities", 48),
        Step("prop3", 32, {"energy": OSC40, "dims": DIMS40}),
        Step("prop7", 48, {"energy": OSC40, "dims": DIMS40}),
    ),
    "seesaw": (
        Step("prop2", 2, seed=PINNED_SEED),
        Step("prop4", 2, seed=PINNED_SEED),
        Step("prop6", 1, seed=PINNED_SEED),
        Step("certify", 1, seed=PINNED_SEED),
    ),
    "seesaw_energy": (
        Step("prop5", 1, seed=PINNED_SEED),
        Step("prop8", 1, seed=PINNED_SEED),
    ),
}

# criterion-07 constants
CERTIFY_BRUTE_WIDTH = 1e-4
CERTIFY_BRUTE_SAMPLES = 100_000


@dataclass
class StepResult:
    """Outcome of one step: report bytes plus what the checks need."""

    name: str
    attempted: int
    failed: int
    report: bytes
    bracket_widths: list  # eps_hi - eps_lo for every bracketed row
    bracket_tol: float
    misses: list  # correctness misses, as text

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.report).hexdigest()


def run_suite_step(step: Step, seed: int, csv_path) -> StepResult:
    from chanbound.harness import report as report_mod
    from chanbound.harness.suites import CampaignConfig, run_suite
    from chanbound.harness.verdict import INCONCLUSIVE, VIOLATION

    config = CampaignConfig(suite=step.name, trials=step.trials, seed=seed, **step.overrides)
    rep = run_suite(config)
    report_mod.emit_report(rep, "csv", csv_path)
    with open(csv_path, "rb") as fh:
        data = fh.read()
    bracket_tol = float(config.budget("bracket_tol", 1e-6))
    widths, misses = [], []
    for v in rep.verdicts:
        if "bracket" in str(v.certificates.get("epsilon_kind", "")):
            widths.append(v.eps_hi - v.eps_lo)
            if not v.eps_lo <= v.eps_hi:
                misses.append(f"{step.name} seed {seed} trial {v.trial}: "
                              f"eps_lo {v.eps_lo!r} > eps_hi {v.eps_hi!r}")
    violations = sum(v.outcome == VIOLATION for v in rep.verdicts)
    if violations:
        misses.append(f"{step.name} seed {seed}: {violations} VIOLATION verdicts")
    failed = sum(v.outcome in (VIOLATION, INCONCLUSIVE) for v in rep.verdicts)
    return StepResult(step.name, len(rep.verdicts), failed, data, widths, bracket_tol, misses)


def run_certify_step(step: Step, seed: int) -> StepResult:
    """Criterion-07 soundness checks on `step.trials` seeded channel pairs."""
    from chanbound import metrics
    from chanbound.harness.generators import Generators

    lines = ["pair,beta_lo,beta_hi,diamond_lo,diamond_hi,brute"]
    widths, misses = [], []
    failed = 0
    for k in range(step.trials):
        gen = Generators.for_trial(seed, k)
        phi, psi = gen.channel(2, 2, 2), gen.channel(2, 2, 2)
        br = metrics.channel_bures_bracket(phi, psi, seed=k)
        dia = metrics.diamond_bracket(phi, psi, seed=k, bures_bracket=br)
        widths.append(br.width)
        ok = 0.5 * dia.lower <= br.upper + 1e-6
        brute = math.nan
        if br.width <= CERTIFY_BRUTE_WIDTH:
            brute = metrics.bures_sup_bruteforce(phi, psi, samples=CERTIFY_BRUTE_SAMPLES, seed=k)
            ok = ok and brute <= br.upper + 1e-9
        if not ok:
            failed += 1
            misses.append(f"certify seed {seed} pair {k}: soundness check failed "
                          f"(diamond_lo {dia.lower!r}, beta_hi {br.upper!r}, brute {brute!r})")
        lines.append(",".join(repr(float(x)) for x in
                              (k, br.lower, br.upper, dia.lower, dia.upper, brute)))
    data = ("\n".join(lines) + "\n").encode()
    return StepResult("certify", step.trials, failed, data, widths, metrics.BRACKET_TOL, misses)
