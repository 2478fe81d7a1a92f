"""Repeat the benchmark and summarise the spread between runs.

    python3 perfbench/baseline.py

For each workload, runs ``run.py --workload W --seed S --seconds N --trace T``
in its own process, one at a time, with N the ``run_seconds`` of
BENCHMARK.json: tracing off for seeds 1-10 (the spread across seeds, inputs
included), tracing off five more times at the reference seed (the spread of
repeats on one input, host noise alone), and tracing on for seeds 1-2. For
each metric the summary gives the median over the runs, the quartiles as
``statistics.quantiles(n=4)`` gives them, and the spread: the distance
between the quartiles as a share of the median. Every run and the summary are
written to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import REFERENCE_SEED, run_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (name in baseline.json, trace, seeds)
SETS = (
    ("end_to_end", 0, range(1, 11)),
    ("repeats", 0, [REFERENCE_SEED] * 5),
    ("trace", 1, range(1, 3)),
)


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(values),
        }
    return summary


def main() -> None:
    seconds = run_seconds()
    record = {
        "host": {
            "cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "seconds": seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = record["workloads"][workload] = {}
        for set_name, trace, seeds in SETS:
            runs = []
            for seed in seeds:
                started = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    capture_output=True, text=True, check=True,
                )
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                result["seed"] = seed
                result["run_s"] = time.monotonic() - started
                runs.append(result)
                print(f"{workload} {set_name} seed {seed}: {result['run_s']:.1f} s, "
                      f"{result['attempted']} passes, {result['failed']} failed", flush=True)
            summary = summarise(runs)
            entry[set_name] = {"summary": summary, "runs": runs}
            for name, s in summary.items():
                print(f"  {name}: median {s['median']:.6g} {s['unit']}, "
                      f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.3f}")
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
