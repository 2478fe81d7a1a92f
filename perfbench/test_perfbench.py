"""The benchmark's own tests.

    python3 -m pytest perfbench

At the reference seed, two traced passes of each workload must reproduce the
committed artifact digests, repeat every count exactly, and leave the
layers the workload never calls at zero.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYERS = ("corpus", "features", "svm", "clustering", "lexicons", "metrics", "bootstrap", "poslm")
# the metric that counts each layer's calls
CALLS = {
    "corpus": "corpus.calls",
    "features": "features.calls",
    "svm": "svm.train_calls",
    "clustering": "clustering.calls",
    "lexicons": "lexicons.match_phrases_calls",
    "metrics": "metrics.evals",
    "bootstrap": "bootstrap.calls",
    "poslm": "poslm.calls",
}


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.PER_LAYER
    )


@pytest.fixture(scope="module")
def traced_passes():
    env = run.child_env()
    passes = {}
    for workload in WORKLOADS:
        inputs, config, _ = run.prepare(workload, run.REFERENCE_SEED)
        passes[workload] = [
            run.run_pass(workload, config, inputs, env, trace=True) for _ in range(2)
        ]
    return passes


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_passes_reproduce_the_reference_digests(traced_passes, workload):
    reference = json.loads(run.REFERENCE.read_text())
    assert reference["seed"] == run.REFERENCE_SEED
    for result in traced_passes[workload]:
        assert result is not None
        assert result["digests"] == reference["digests"][workload]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(traced_passes, workload):
    first, second = (r["layers"] for r in traced_passes[workload])
    counts = [n for n, unit, _ in tracing.PER_LAYER if unit in tracing.EXACT_UNITS]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_only_the_predicted_layers_are_called(traced_passes, workload):
    layers = traced_passes[workload][0]["layers"]
    idle = WORKLOADS[workload].idle_layers
    called = {layer for layer in LAYERS if layers[CALLS[layer]] > 0}
    assert called == set(LAYERS) - set(idle)
    for name, value in layers.items():
        if name.split(".")[0] in idle:
            assert value == 0, name


def test_fails_without_the_repository():
    # a directory holding only BENCHMARK.json and perfbench/
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lm_kn",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
