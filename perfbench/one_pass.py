"""One pass of one workload in a fresh interpreter.

    python3 perfbench/one_pass.py --workload W --config FILE --out DIR
        --inputs DIR --spawned-at T [--trace SPANS.json]

Runs the workload's stages in order through ``varieties.pipeline.run_stage``,
the CLI's own entry, and prints one JSON line: set-up seconds (from
``--spawned-at``, the parent's ``time.monotonic()`` just before it started
this process, to the start of the first calibration), wall seconds (first
stage call to last return), the calibration seconds (see ``calibrate``),
peak RSS, and the sha256 of every output the run manifest lists. With
``--trace`` it also prints the per-layer metrics and writes its spans to the
given file.
"""

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from varieties.config import load_config  # noqa: E402
from varieties.pipeline import MANIFEST_NAME, run_stage  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work like the pipeline's own
    (tuple keys, dict counting, sorting, string joins), none of it package
    code and under a megabyte of memory, so peak RSS stays the stages'. It
    runs right before the first stage and right after the last, so it sees
    the host at the speed the stages saw."""
    rng = random.Random(0)
    vocabulary = [f"w{i}" for i in range(16)]
    words = [rng.choice(vocabulary) for _ in range(30000)]
    started = time.perf_counter()
    for _ in range(3):
        counts: dict = {}
        for i in range(len(words) - 2):
            key = (words[i], words[i + 1], words[i + 2])
            counts[key] = counts.get(key, 0) + 1
        following: dict = {}
        for (first, second, third), n in counts.items():
            following.setdefault(first, []).append((second, third, n))
        sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        " ".join(words[:5000]).split()
    return time.perf_counter() - started


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    # the environment must not change what is measured
    config = load_config(args.config, overrides={"out": args.out}, env={})
    rec = tracing.Recorder()
    if args.trace:
        tracing.install(rec)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    before = calibrate()
    started = time.monotonic()
    for stage in WORKLOADS[args.workload].stages:
        with rec.span(f"pipeline.{stage}"):
            run_stage(stage, config)
    result["wall_s"] = time.monotonic() - started
    result["calibration_s"] = (before + calibrate()) / 2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = Path(args.out)
    manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
    result["digests"] = {
        rel: _sha256(out / rel)
        for entry in manifest["stages"].values()
        for rel in entry["outputs"]
    }
    if args.trace:
        inputs = json.loads((Path(args.inputs) / "inputs.json").read_text())
        result["layers"] = tracing.layer_metrics(rec.spans, inputs)
        rec.write(Path(args.trace))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
