"""What the benchmark in ``perfbench/`` needs of the package: every binding
its tracer wraps, the attributes its span notes read, and every config key
its workloads write. A change that removes one fails here, not only in a
benchmark pass."""

import importlib
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from varieties.config import PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# install() patches the package's modules in place, so it runs in a child
# process; the traced calls read the attributes the span notes use
TRACED_CALLS = """
import tracing
from varieties import poslm, svm

rec = tracing.Recorder()
tracing.install(rec)
svm.train_binary([[-1.0], [1.0]], ["a", "b"])
model = poslm.train_lm([["A", "B"], ["B", "A"]], ["A", "B"], order=2)
poslm.ppl(model, [["A", "B"]])
poslm.ppl_by_chunks(model, [["A", "B"]] * 3, 2)
noted = [span["name"] for span in rec.spans if span["notes"]]
assert noted == [
    "svm.train_binary", "poslm.train_lm", "poslm.ppl", "poslm.ppl_by_chunks"
], noted
# the ngrams note counts the entries the model yields, not its keys
trained = next(span for span in rec.spans if span["name"] == "poslm.train_lm")
assert trained["notes"]["ngrams"] == len(list(model.logprobs.items())), trained["notes"]
"""


def test_tracer_installs_and_reads_its_notes():
    path = os.pathsep.join(
        [str(ROOT / "src"), str(PERFBENCH)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", TRACED_CALLS],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_workload_config_keys_are_config_fields(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    known = {f.name for f in fields(PipelineConfig)}
    for name, workload in workloads.WORKLOADS.items():
        assert set(workload.config) <= known, (name, set(workload.config) - known)
