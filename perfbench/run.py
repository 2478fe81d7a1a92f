"""Stage benchmark of the varieties pipeline.

    python3 perfbench/run.py --workload {classify_cv,metrics_bootstrap,lm_kn,all}
        [--seed N] [--seconds S] [--trace 0|1] [--write-reference]

Run from the repository root. Inputs are generated once per (workload, seed)
into ``.perfbench/`` before anything is timed (see workloads.py). Then passes
run one at a time, each in a fresh interpreter (one_pass.py) and each started
after the previous one ended, until ``--seconds`` have passed (default: the
``run_seconds`` of BENCHMARK.json); at least one pass always runs. Every
pass's artifact digests are checked: at the reference seed against
``reference.json``, at any other seed against the first pass of this
invocation. A pass that raises or mismatches is failed and its timings are
dropped.

Times and rates are scaled to a reference host speed, measured in each pass
(see CALIBRATION_S). With ``--trace 0`` the result holds the end-to-end
metrics, each the median over the passes. With ``--trace 1`` untraced and
traced passes alternate and the result holds the per-layer metrics of the
traced passes (medians), plus the tracing overhead: the median traced wall
time minus the median untraced one. ``--workload all`` runs every workload, with tracing
off and, given ``--trace 1``, on as well, and prints every metric.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 17
PASS_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

# A shared host's speed drifts by up to 2x in phases of seconds to minutes,
# unseen by the guest (no steal time; CPU time tracks wall time). So each pass
# also times a fixed piece of work (one_pass.calibrate) right before and after
# its stages, and its times are scaled by CALIBRATION_S / that time: they read
# as seconds on a host where the calibration takes CALIBRATION_S. On the
# baseline host the calibration takes about that long when the host is fast.
CALIBRATION_S = 0.05
# (name, unit); one run reports the median over its passes
END_TO_END = (
    ("wall_s", "s"),
    ("tokens_per_s", "tokens/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


def speed(result: dict) -> float:
    """How much faster than the calibration's reference the host ran the
    pass; a pass's times are multiplied by it, its rates divided."""
    return CALIBRATION_S / result["calibration_s"]


def scaled_layers(result: dict) -> dict[str, float]:
    factor = speed(result)
    layers = dict(result["layers"])
    for name, value in layers.items():
        unit = tracing.UNITS[name]
        if unit == "s":
            layers[name] = value * factor
        elif unit.endswith("/s"):
            layers[name] = value / factor
    return layers


def child_env() -> dict:
    """The pass processes' environment: BLAS threads capped at the CPUs this
    process may use."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def ensure_inputs(workload: str, seed: int) -> Path:
    # keyed by all the code that makes the inputs (the generators build and
    # write them with the package's own corpus code), so a changed
    # generator, workload size or package never reuses stale files
    digest = hashlib.sha256()
    sources = [HERE / "workloads.py", ROOT / "tests" / "synthdata.py",
               *sorted((ROOT / "src" / "varieties").rglob("*.py"))]
    for source in sources:
        digest.update(str(source.relative_to(ROOT)).encode() + b"\0")
        digest.update(source.read_bytes())
    directory = WORK / "inputs" / f"{workload}-{digest.hexdigest()[:12]}" / f"seed-{seed}"
    if not directory.exists():
        partial = directory.with_name(directory.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(partial)],
            check=True,
            timeout=PASS_TIMEOUT_S,
        )
        os.replace(partial, directory)
    return directory


def run_pass(workload: str, config: Path, inputs: Path, env: dict,
             trace: bool = False) -> dict | None:
    """One child process; its JSON result, or None if it failed."""
    out = WORK / "out" / f"{workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [
        sys.executable, str(HERE / "one_pass.py"),
        "--workload", workload,
        "--config", str(config),
        "--out", str(out),
        "--inputs", str(inputs),
    ]
    if trace:
        spans = WORK / "spans" / f"{workload}-seed{inputs.name.removeprefix('seed-')}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(spans)]
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(time.monotonic())],
            capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        print(f"{workload}: pass failed with exit code {proc.returncode}", file=sys.stderr)
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(workload: str, seed: int) -> tuple[Path, Path, dict]:
    inputs = ensure_inputs(workload, seed)
    config = WORK / "configs" / f"{workload}-seed{seed}.cfg"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(config_text(workload, seed, inputs))
    info = json.loads((inputs / "inputs.json").read_text())
    return inputs, config, info


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes of one workload for ``seconds``; returns the result object
    plus the sample lists behind each metric (key ``samples``)."""
    env = child_env()
    inputs, config, info = prepare(workload, seed)
    expected = None
    if seed == REFERENCE_SEED:
        expected = json.loads(REFERENCE.read_text())["digests"][workload]

    kinds = (False, True) if trace else (False,)
    results = {kind: [] for kind in kinds}
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while attempted == 0 or attempted % len(kinds) or time.monotonic() < deadline:
        traced = kinds[attempted % len(kinds)]
        attempted += 1
        result = run_pass(workload, config, inputs, env, trace=traced)
        if result is None:
            failed += 1
            continue
        if expected is None:
            expected = result["digests"]
        if result["digests"] != expected:
            failed += 1
            print(f"{workload}: pass {attempted} artifact digests differ", file=sys.stderr)
            continue
        results[traced].append(result)

    samples: dict[str, list[float]] = {}
    walls = [r["wall_s"] * speed(r) for r in results[False]]
    if trace:
        layers = [scaled_layers(r) for r in results[True]]
        for name in tracing.UNITS:
            if name != "trace.overhead_s":
                samples[name] = [passed[name] for passed in layers]
        traced_walls = [r["wall_s"] * speed(r) for r in results[True]]
        if walls and traced_walls:
            overhead = statistics.median(traced_walls) - statistics.median(walls)
            samples["trace.overhead_s"] = [overhead]
        units = tracing.UNITS
    else:
        samples["wall_s"] = walls
        samples["tokens_per_s"] = [info["tokens"] / w for w in walls]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in results[False]]
        samples["setup_s"] = [r["setup_s"] * speed(r) for r in results[False]]
        units = dict(END_TO_END)
    metrics = {
        name: {"value": statistics.median(values), "unit": units[name]}
        for name, values in samples.items()
        if values
    }
    every = results[False] + results.get(True, [])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "unscaled": {
            "wall_s": [r["wall_s"] for r in every],
            "calibration_s": [r["calibration_s"] for r in every],
        },
        "tokens": info["tokens"],
    }


def report(workload: str, seed: int, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{workload} seed {seed}: {attempted} passes, {failed} failed, "
        f"error_rate {failed / attempted:.4f}, {result['tokens']} input tokens"
    )
    for name, metric in result["metrics"].items():
        values = result["samples"][name]
        print(
            f"  {name} = {metric['value']:.6g} {metric['unit']}  ({len(values)} samples: "
            f"min {min(values):.6g}, median {statistics.median(values):.6g}, "
            f"max {max(values):.6g})"
        )
    for name, values in result["unscaled"].items():
        if values:
            print(f"  unscaled {name}: median {statistics.median(values):.6g} s over "
                  f"{len(values)} passes")


def write_reference() -> None:
    env = child_env()
    digests = {}
    for workload in WORKLOADS:
        inputs, config, _ = prepare(workload, REFERENCE_SEED)
        result = run_pass(workload, config, inputs, env)
        if result is None:
            sys.exit(f"{workload}: pass failed; reference not written")
        digests[workload] = result["digests"]
    payload = {"seed": REFERENCE_SEED, "digests": digests}
    REFERENCE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the artifact digests of one pass per workload at the reference seed",
    )
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for needed in ("src/varieties/pipeline.py", "tests/synthdata.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {ROOT / needed} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    if args.write_reference:
        write_reference()
        return 0

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        report(args.workload, args.seed, result)
        final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True)[: args.trace + 1]:
                result = measure(workload, args.seed, args.seconds, trace)
                report(workload, args.seed, result)
                final["correct"] &= result["correct"]
                final["attempted"] += result["attempted"]
                final["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    final["metrics"][f"{workload}.{name}"] = metric
    if not final["metrics"]:
        print("error: no pass completed", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
