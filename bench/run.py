"""Seeded campaign benchmark for chanbound.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One closed-loop caller runs the
workload's campaigns (see workloads.py) one after another, repeating the
whole campaign until ``--seconds`` are used, and at least three times, so
that every report can be compared byte for byte across repeats.

A campaign's time is the sum over its steps of each step's mean over the
repeats, scaled by the host factor.  The host's speed drifts with its other
load, by up to 2x within a run and between runs.  So a fixed numpy-only
reference computation (calibrate.py) is timed before every step and around
every set-up probe, and campaign and set-up times are scaled by its nominal
time over its mean time in the same phase.  The raw wall times are printed
next to them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the first half of the time runs untraced and the second
half traced, and the last line carries the per-layer metrics.  Human-readable lines before
it record the environment, every metric with its unit, report hashes and
the correctness checks; a JSON copy goes to ``.bench_out/``.

Exit status 2, with no result line, when the checkout holds no
``src/chanbound`` to build.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_REPEATS = 3
REFERENCE_SAMPLES = 2  # reference timings before every step
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ALL_SUITES = ("lemma4", "identities", "prop3", "prop7", "prop2", "prop4", "prop6", "prop5", "prop8")
STEP_KEYS = {"certify": "certify_s"}  # per-step time metrics; suites are suite_s.<suite>


def cap_blas_threads() -> int:
    """Pin BLAS pools to one thread before numpy loads; returns the usable core count.

    The matrices here are at most 160 x 160.  On a 2-core host a second
    OpenBLAS thread doubled the CPU time of prop3, identities and prop5
    without shortening their wall time, and it made their wall time depend
    on how busy the host keeps the other core.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


NPROC = cap_blas_threads()  # before calibrate.py, the first import of numpy

sys.path.insert(0, str(BENCH_DIR))
from calibrate import REFERENCE_NOMINAL_S, reference_s  # noqa: E402
from tracer import KERNEL_NAMES, LAYER_NAMES, Tracer, percentile  # noqa: E402
from workloads import WORKLOADS, StepResult, run_certify_step, run_suite_step  # noqa: E402


def environment(nproc: int, args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "blas_threads": os.environ[THREAD_VARS[1]],
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(), "cpu": cpu,
    }


def measure_setup(seed: int) -> tuple:
    """Wall seconds of fresh interpreters that import the stack and make a first call.

    Returns them with the reference samples taken around them, which give
    set-up its own host factor: set-up is over before the campaigns start.
    """
    samples, reference = [], []
    reference_s()  # warm-up, not kept
    for _ in range(SETUP_PROBES):
        reference.extend(reference_s() for _ in range(REFERENCE_SAMPLES))
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"), str(seed)],
                                stdout=subprocess.DEVNULL)
        # a blocking wait, so the exit is seen at once; Popen.wait(timeout)
        # polls, which would round every sample up to its polling step
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    reference.extend(reference_s() for _ in range(REFERENCE_SAMPLES))
    return samples, reference


def run_step(step, seed: int) -> StepResult:
    seed = seed if step.seed is None else step.seed
    try:
        if step.name == "certify":
            return run_certify_step(step, seed)
        return run_suite_step(step, seed, OUT / f"{step.name}.csv")
    except Exception:  # a raising suite fails all its trials; the run goes on
        return StepResult(step.name, step.trials, step.trials, b"", [], 0.0,
                          [f"{step.name} raised:\n{traceback.format_exc()}"])


def run_campaign(steps, seed: int, tracer=None) -> dict:
    """Run every step once; returns wall times and step results."""
    results, step_s, suite_spans, reference = [], {}, [], []
    t0 = time.perf_counter()
    for step in steps:
        reference.extend(reference_s() for _ in range(REFERENCE_SAMPLES))
        ts = time.perf_counter()
        with tracer.span(f"harness.suite.{step.name}") if tracer else contextlib.nullcontext():
            res = run_step(step, seed)
        te = time.perf_counter()
        step_s[step.name] = te - ts
        suite_spans.append((ts, te, step.trials))
        results.append(res)
    return {"campaign_s": time.perf_counter() - t0, "step_s": step_s,
            "results": results, "suite_spans": suite_spans, "reference_s": reference}


def run_phase(steps, seed: int, seconds: float, min_repeats: int, tracer=None,
              spans_path=None) -> list:
    """Repeat the campaign until the next repeat would overrun `seconds`."""
    repeats = []
    t0 = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        rep = run_campaign(steps, seed, tracer)
        if tracer:
            rep["trace"] = trace_summary(tracer, rep["suite_spans"])
            if not repeats:
                tracer.write_spans(spans_path)
        repeats.append(rep)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r["campaign_s"] for r in repeats)
        if len(repeats) >= min_repeats and elapsed + typical > seconds:
            return repeats


def trace_summary(tracer, suite_spans) -> dict:
    totals = tracer.layer_totals()
    return {
        "layers": {name: totals.get(name, [0, 0.0, 0.0]) for name in LAYER_NAMES},
        "kernel": {name: [tracer.kernel_calls[name], tracer.kernel_s[name]] for name in KERNEL_NAMES},
        "iterations": tracer.iterations,
        "samples": tracer.samples,
        "bytes_computed": tracer.bytes_computed,
        "diamond_over_trivial": tracer.diamond_over_trivial,
        "trial_s": tracer.trial_durations(suite_spans),
    }


def exact_counts(summary: dict) -> dict:
    """Every count the trace makes that must repeat exactly at one seed."""
    counts = {f"{n}.calls": v[0] for n, v in summary["layers"].items()}
    counts.update({f"{n}.calls": v[0] for n, v in summary["kernel"].items()})
    counts["metrics.channel_bures_bracket.iterations"] = summary["iterations"]
    return counts


def check(repeats) -> list:
    """Correctness misses over all repeats: per-step misses, and reports that differ."""
    misses = []
    first = repeats[0]["results"]
    for res in first:
        misses.extend(res.misses)
    for rep in repeats[1:]:
        for a, b in zip(first, rep["results"]):
            misses.extend(m for m in b.misses if m not in misses)
            if a.report != b.report:
                misses.append(f"{a.name}: report bytes differ between repeats "
                              f"({a.sha256[:12]} vs {b.sha256[:12]})")
    return misses


def med(values) -> float:
    return float(statistics.median(values))


def step_key(name: str) -> str:
    return STEP_KEYS.get(name, f"suite_s.{name}")


# Means, not medians, on both sides: the host switches between a fast and a
# slow state, so a 25 ms reference sample lands in one state or the other and
# their median jumps between the two, while a step of seconds sees a mix of
# both.  Means of both move in proportion to the share of time spent slow.
def host_factor(reference) -> float:
    """Nominal over mean reference time: below 1 when the host runs slow."""
    return REFERENCE_NOMINAL_S / statistics.fmean(reference)


def phase_reference(repeats) -> list:
    return [x for r in repeats for x in r["reference_s"]]


def step_time(repeats, name: str) -> float:
    """A step's mean wall time over the repeats of one phase, host drift taken out."""
    host = host_factor(phase_reference(repeats))
    return statistics.fmean(r["step_s"][name] for r in repeats) * host


def campaign_time(repeats) -> float:
    """Sum over the campaign's steps of each step's mean time, host drift taken out."""
    return sum(step_time(repeats, name) for name in repeats[0]["step_s"])


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def per_layer_metrics(untraced, traced, steps, quality) -> dict:
    out = {}
    summaries = [r["trace"] for r in traced]
    first = summaries[0]
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = metric(first["layers"][name][0], "count")
        out[f"{name}.total_ms"] = metric(med(s["layers"][name][1] for s in summaries) * 1e3, "ms")
        out[f"{name}.self_ms"] = metric(med(s["layers"][name][2] for s in summaries) * 1e3, "ms")
    for name in KERNEL_NAMES:
        out[f"{name}.calls"] = metric(first["kernel"][name][0], "count")
        out[f"{name}.self_ms"] = metric(med(s["kernel"][name][1] for s in summaries) * 1e3, "ms")
    out["metrics.channel_bures_bracket.iterations"] = metric(first["iterations"], "count")
    brute_s = med(s["layers"]["metrics.bures_sup_bruteforce"][1] for s in summaries)
    out["metrics.bures_sup_bruteforce.samples_per_s"] = metric(
        first["samples"] / brute_s if brute_s > 0 else 0.0, "1/s")
    out["metrics.bures_sup_bruteforce.bytes_computed"] = metric(first["bytes_computed"], "B")
    out["metrics.diamond_upper_over_trivial"] = metric(first["diamond_over_trivial"], "count")
    trial_s = [t for s in summaries for t in s["trial_s"]]
    out["harness.trial_ms.p50"] = metric(percentile(trial_s, 0.5) * 1e3, "ms")
    out["harness.trial_ms.p90"] = metric(percentile(trial_s, 0.9) * 1e3, "ms")
    out["quality.unconverged_frac"] = metric(quality[0], "frac")
    out["quality.bracket_width_max"] = metric(quality[1], "eps")
    names = {s.name for s in steps}
    for name in ALL_SUITES + tuple(STEP_KEYS):
        value = step_time(untraced, name) if name in names else 0.0
        out[step_key(name)] = metric(value, "s")
    out["trace.overhead_s"] = metric(campaign_time(traced) - campaign_time(untraced), "s")
    return out


def bracket_quality(results) -> tuple:
    """(unconverged fraction, largest width) over bracketed rows; (0, 0) without any."""
    rows = [(w, res.bracket_tol) for res in results for w in res.bracket_widths]
    if not rows:
        return 0.0, 0.0
    return sum(w > tol for w, tol in rows) / len(rows), max(w for w, _ in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one trial per suite (one pair for certify): a quick self-test")
    args = parser.parse_args(argv)

    if not (SRC / "chanbound" / "__init__.py").is_file():
        print(f"error: no chanbound sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: compiling the sources failed", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    steps = WORKLOADS[args.workload]
    if args.smoke:
        steps = tuple(dataclasses.replace(s, trials=1) for s in steps)

    setup, setup_reference = measure_setup(args.seed)
    sys.path.insert(0, str(SRC))
    import chanbound.harness  # noqa: F401
    from chanbound.energy import TruncationTailWarning
    from chanbound.harness.suites import CampaignConfig, run_suite

    warnings.simplefilter("ignore", TruncationTailWarning)
    run_suite(CampaignConfig(suite="lemma4", trials=1, seed=args.seed))  # same first call as setup
    env = environment(NPROC, args)

    wall0, cpu0 = time.perf_counter(), time.process_time()
    if args.trace:
        untraced = run_phase(steps, args.seed, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(steps, args.seed, args.seconds / 2, 1, tracer,
                               OUT / f"spans-{args.workload}-s{args.seed}.csv")
        finally:
            tracer.uninstall()
        repeats = untraced + traced
    else:
        untraced = repeats = run_phase(steps, args.seed, args.seconds, MIN_REPEATS)
    cpu_ratio = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    # steps with a pinned campaign seed also run once, untimed, at the run's seed
    seeded_steps = tuple(dataclasses.replace(s, trials=1, seed=None) for s in steps if s.seed is not None)
    seeded = run_campaign(seeded_steps, args.seed)["results"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    misses = check(repeats) + [m for res in seeded for m in res.misses]
    if args.trace:
        counts = [exact_counts(r["trace"]) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            misses.append("trace counts differ between traced repeats at one seed")
    correct = not misses
    every = [r for rep in repeats for r in rep["results"]] + seeded
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    camp = [r["campaign_s"] for r in untraced]
    refs = phase_reference(untraced)
    host = host_factor(refs)
    setup_host = host_factor(setup_reference)
    quality = bracket_quality(untraced[0]["results"])

    e2e = {
        "campaign_s": metric(campaign_time(untraced), "s"),
        "setup_s": metric(med(setup) * setup_host, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    info = {
        "campaign_wall_median_s": metric(med(camp), "s"),
        "setup_wall_s": metric(med(setup), "s"),
        "host_factor": metric(host, "ratio"),
        "setup_host_factor": metric(setup_host, "ratio"),
        "failed_frac": metric(failed / attempted, "frac"),
        "unconverged_frac": metric(quality[0], "frac"),
        "bracket_width_max": metric(quality[1], "eps"),
    }
    for name in untraced[0]["step_s"]:
        info[step_key(name)] = metric(step_time(untraced, name), "s")
    metrics = per_layer_metrics(untraced, traced, steps, quality) if args.trace else e2e

    print("env " + json.dumps(env, sort_keys=True))
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}; host factor {setup_host:.4f}")
    print("setup reference_s: " + " ".join(f"{x:.5f}" for x in setup_reference))
    print(f"campaign_s repeats ({len(camp)} untraced): {' '.join(f'{c:.4f}' for c in camp)}")
    for name in untraced[0]["step_s"]:
        times = " ".join(f"{r['step_s'][name]:.4f}" for r in untraced)
        print(f"step {name} repeats: {times}")
    print(f"reference_s samples ({len(refs)} untraced): fastest {min(refs):.5f}, "
          f"mean {statistics.fmean(refs):.5f}; host factor {host:.4f}")
    print("reference_s: " + " ".join(f"{x:.5f}" for x in refs))
    print(f"noise: untraced campaign_s spans {min(camp):.4f}..{max(camp):.4f} s; "
          f"cpu/wall over the measured phase {cpu_ratio:.3f}")
    for step, res in zip(steps, untraced[0]["results"]):
        print(f"report {res.name} seed {args.seed if step.seed is None else step.seed} "
              f"sha256 {res.sha256}")
    for res in seeded:
        print(f"report {res.name} seed {args.seed} (1 trial, untimed) sha256 {res.sha256}")
    for name, m in {**e2e, **info, **(metrics if args.trace else {})}.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"operations: attempted {attempted}, failed {failed}")
    print("checks: " + ("PASS" if correct else "FAIL"))
    for miss in misses:
        print(f"  miss: {miss}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"env": env, "setup_s": setup, "campaign_s": camp, "info": info,
              "reports": {r.name: r.sha256 for r in untraced[0]["results"]},
              "seeded_reports": {r.name: r.sha256 for r in seeded},
              "misses": misses, "result": result, "end_to_end": e2e}
    with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
