"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--seed 3]

Run from the root of a source checkout; takes a few minutes.

1. Smoke: every workload runs at one trial per suite (one pair for
   certify), untraced and traced.  Each run must pass its correctness
   checks and print every metric BENCHMARK.json declares for its mode, with
   the declared unit, on a ``metric`` line and in its result line.
2. Exact counts: two traced smoke runs of each workload at one seed must
   give identical ``.calls`` counts (layers and ``kernel.*``) and
   ``metrics.channel_bures_bracket.iterations``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, trace: int) -> tuple:
    """One smoke run; returns (metric lines as {name: (value, unit)}, result dict)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            printed, result = run(workload, args.seed, trace)
            tag = f"{workload} trace={trace}"
            if not result["correct"]:
                problems.append(f"{tag}: correctness checks failed")
            if set(result["metrics"]) != set(declared[trace]):
                problems.append(f"{tag}: result metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ set(declared[trace]))}")
            for name, unit in declared[trace].items():
                if printed.get(name, (None, None))[1] != unit:
                    problems.append(f"{tag}: metric {name} not printed with unit {unit}")
                if result["metrics"].get(name, {}).get("unit") != unit:
                    problems.append(f"{tag}: result metric {name} lacks unit {unit}")
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if k.endswith(".calls") or k.endswith(".iterations")})
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: traced counts differ at seed {args.seed}: {diff}")
        print(f"{workload}: smoke and exact-count checks done", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
