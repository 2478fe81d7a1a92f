"""Run the classify, cluster, metrics and lm stages at paper scale and record
each run's wall time, peak RSS and output digests.

    python3 scripts/paper_scale.py LABEL

writes ``BENCH_<LABEL>.json`` at the repository root. The inputs come from
the generators in ``tests/synthdata.py`` at fixed seeds:

- classify and cluster: ``variety_corpus`` at 52,400 sentences per variety,
  under the stock config; ``classify_unbalanced`` and ``cluster_unbalanced``
  run them again with T at three times that (157,200 sentences), so
  ``balance`` drops two thirds of T's chunks;
- metrics: ``metrics_corpus`` at 65,000 sentences per corpus (780k tokens)
  with 1000 bootstrap iterations;
- lm: ``lm_family_corpus`` at a tenth of paper scale, 72,000 T and 7,000 NN
  sentences per family and 700,000 training tokens per family, because
  ``markov_pos_sentences`` draws tags one at a time and would take many
  minutes for 7M tokens per family.

The inputs are built once, in a child process, and cached under
``.paper_scale/`` keyed by the sha256 of this file and of the generators.
Each run is one stage, ``python -m varieties.cli <stage>`` in a fresh child.
This process imports nothing but the standard library and reads each child's
wall time and its peak RSS (``ru_maxrss``) through ``os.wait4``, so a
child's figure is its own. A stage's figure does not include any process it
starts itself. Every run writes into a new output directory of its own, and
the record holds the sha256 of every output its run manifest lists, which a
byte-identical change reproduces.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATORS = ROOT / "tests" / "synthdata.py"
CACHE = ROOT / ".paper_scale"

# run -> (stage, config keys, the input files it reads)
CLASSIFY_INPUTS = {"N": "variety/N.jsonl", "NN": "variety/NN.jsonl", "T": "variety/T.jsonl"}
UNBALANCED_INPUTS = {**CLASSIFY_INPUTS, "T": "variety/T3.jsonl"}
RUNS = {
    "classify": ("classify", {}, CLASSIFY_INPUTS),
    "cluster": ("cluster", {}, CLASSIFY_INPUTS),
    "classify_unbalanced": ("classify", {}, UNBALANCED_INPUTS),
    "cluster_unbalanced": ("cluster", {}, UNBALANCED_INPUTS),
    "metrics": (
        "metrics",
        {"bootstrap_iterations": 1000},
        {"N": "metrics/N.jsonl", "NN": "metrics/NN.jsonl", "T": "metrics/T.jsonl"},
    ),
    "lm": ("lm", {"lm_train_tokens": 700_000}, {"NN": "lm/NN.jsonl", "T": "lm/T.jsonl"}),
}


def generate(directory: str) -> None:
    """Write every input under ``directory`` with ``inputs.json``, their
    sentence and token counts. Run in a child process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import synthdata
    from varieties.corpus import concat, write_jsonl

    built = {
        "variety": {
            **{v: synthdata.variety_corpus(v, 52_400, seed=17) for v in ("N", "NN", "T")},
            "T3": synthdata.variety_corpus("T", 3 * 52_400, seed=17),
        },
        "metrics": {v: synthdata.metrics_corpus(v, 65_000, seed=17) for v in ("N", "NN", "T")},
        # distinct generator seeds, so no NN test sentence repeats a T one
        "lm": {
            variety: concat(
                synthdata.lm_family_corpus(variety, family, size, seed=4 * v + f)
                for f, family in enumerate(("Germanic", "Romance"))
            )
            for v, (variety, size) in enumerate((("T", 72_000), ("NN", 7_000)))
        },
    }
    counts = {}
    for group, corpora in built.items():
        (Path(directory) / group).mkdir(parents=True)
        for variety, corpus in corpora.items():
            name = f"{group}/{variety}.jsonl"
            write_jsonl(corpus, Path(directory) / name)
            counts[name] = {"sentences": len(corpus), "tokens": corpus.token_count}
    (Path(directory) / "inputs.json").write_text(json.dumps(counts, indent=2, sort_keys=True))


def _child(code: str) -> str:
    """Run ``code`` in a fresh interpreter that can import this file; its
    standard output."""
    prelude = f"import sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); import paper_scale; "
    return subprocess.run(
        [sys.executable, "-c", prelude + code], check=True, capture_output=True, text=True
    ).stdout


def _inputs() -> Path:
    digest = hashlib.sha256(GENERATORS.read_bytes() + Path(__file__).read_bytes()).hexdigest()
    directory = CACHE / f"inputs-{digest[:16]}"
    if not (directory / "inputs.json").exists():
        shutil.rmtree(directory, ignore_errors=True)
        _child(f"paper_scale.generate({str(directory)!r})")
    return directory


def _host() -> dict:
    blas = _child(
        "import json, numpy; d = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "print(json.dumps({'numpy': numpy.__version__, 'blas': d.get('name'), "
        "'blas_version': d.get('version')}))"
    )
    return {"cpus": os.cpu_count(), "python": sys.version.split()[0], **json.loads(blas)}


def _run(stage: str, config: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MiB and exit status of one stage run."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env = {k: v for k, v in env.items() if not k.startswith("VARIETIES_")}
    started = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, "-m", "varieties.cli", stage, "--config", str(config)],
        env=env, stdout=subprocess.DEVNULL,
    )
    _pid, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return time.monotonic() - started, usage.ru_maxrss / 1024, child.returncode


def main(label: str) -> None:
    inputs = _inputs()
    counts = json.loads((inputs / "inputs.json").read_text())
    out = CACHE / f"out-{label}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runs = {}
    for name, (stage, keys, files) in RUNS.items():
        config = out / f"{name}.cfg"
        lines = [f"out = {out / name}", "seed = 17"]
        lines += [f"corpus_{v.lower()} = {inputs / name}" for v, name in files.items()]
        lines += [f"{key} = {value}" for key, value in keys.items()]
        config.write_text("\n".join(lines) + "\n")
        wall, peak, code = _run(stage, config)
        if code:
            raise SystemExit(f"{name} exited with {code}")
        tokens = sum(counts[file]["tokens"] for file in files.values())
        manifest = json.loads((out / name / "manifest.json").read_text())
        runs[name] = {
            "stage": stage,
            "wall_s": round(wall, 3),
            "peak_rss_mb": round(peak, 1),
            "input_tokens": tokens,
            "tokens_per_s": round(tokens / wall),
            "inputs": {file: counts[file] for file in files.values()},
            "config": keys,
            "outputs": manifest["stages"][stage]["outputs"],
        }
        print(f"{name}: {wall:.1f} s, {peak:.1f} MiB", flush=True)
    record = {"label": label, "host": _host(), "runs": runs}
    (ROOT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 scripts/paper_scale.py LABEL")
    main(sys.argv[1])
