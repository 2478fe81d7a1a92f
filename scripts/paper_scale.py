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
This process imports nothing but the standard library and records two
memory figures per run:

- ``peak_rss_mb``: the stage process's ``ru_maxrss``, read through
  ``os.wait4``. It is the largest of that process and each of its reaped
  children taken alone, so a worker's memory never adds to it;
- ``peak_rss_tree_mb``: the largest sum of ``VmRSS`` over the stage process
  and its descendants, sampled from ``/proc/<pid>/status`` about every
  20 ms, so a peak shorter than that can be missed. A page a forked worker
  still shares with its parent counts once in each, so the sum can exceed
  the memory in use. On a kernel without ``/proc/<pid>/task/<tid>/children``
  it reads 0.

Sampling also makes the wall time read up to one interval late.

Every run writes into a new output directory of its own, and
the record holds the sha256 of every output its run manifest lists, which a
byte-identical change reproduces. The committed ``BENCH_paper.json`` is read
before anything is written, and after each run whose inputs match a run
recorded there the script prints whether every output digest is equal,
naming any that differ.
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
COMMITTED = ROOT / "BENCH_paper.json"
GENERATORS = ROOT / "tests" / "synthdata.py"
CACHE = ROOT / ".paper_scale"
# seconds between samples of a stage's process tree
SAMPLE_S = 0.02

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


def _tree_rss_kib(pid: int) -> int:
    """The sum of ``VmRSS`` over ``pid`` and its descendants, in KiB; 0 for
    a process that is gone."""
    proc = Path("/proc") / str(pid)
    try:
        status = (proc / "status").read_text()
        children = [int(c) for task in (proc / "task").iterdir()
                    for c in (task / "children").read_text().split()]
    except (FileNotFoundError, ProcessLookupError):
        # gone, or (without CONFIG_PROC_CHILDREN) no children file
        return 0
    # a zombie has no VmRSS line
    own = next((int(line.split()[1]) for line in status.splitlines() if line.startswith("VmRSS:")), 0)
    return own + sum(_tree_rss_kib(child) for child in children)


def _run(stage: str, config: Path) -> tuple[float, float, float, int]:
    """Wall seconds, peak RSS and peak tree RSS in MiB, and exit status of
    one stage run."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env = {k: v for k, v in env.items() if not k.startswith("VARIETIES_")}
    started = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, "-m", "varieties.cli", stage, "--config", str(config)],
        env=env, stdout=subprocess.DEVNULL,
    )
    tree = 0
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        tree = max(tree, _tree_rss_kib(child.pid))
        time.sleep(SAMPLE_S)
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss and VmRSS are in KiB on Linux
    return time.monotonic() - started, usage.ru_maxrss / 1024, tree / 1024, child.returncode


def _compared(name: str, run: dict, committed: dict | None) -> str:
    """Whether ``run``'s output digests equal those of the committed run of
    that name, if that one read the same inputs."""
    if committed is None or committed["inputs"] != run["inputs"]:
        return f"{name}: no run on these inputs in {COMMITTED.name}"
    ours, theirs = run["outputs"], committed["outputs"]
    differ = sorted(f for f in ours.keys() | theirs.keys() if ours.get(f) != theirs.get(f))
    if differ:
        return f"{name}: outputs differ from {COMMITTED.name}: {', '.join(differ)}"
    return f"{name}: every output digest equals {COMMITTED.name}"


def main(label: str) -> None:
    # read before this run can overwrite it
    committed = json.loads(COMMITTED.read_text())["runs"] if COMMITTED.exists() else {}
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
        wall, peak, tree, code = _run(stage, config)
        if code:
            raise SystemExit(f"{name} exited with {code}")
        tokens = sum(counts[file]["tokens"] for file in files.values())
        manifest = json.loads((out / name / "manifest.json").read_text())
        runs[name] = {
            "stage": stage,
            "wall_s": round(wall, 3),
            "peak_rss_mb": round(peak, 1),
            "peak_rss_tree_mb": round(tree, 1),
            "input_tokens": tokens,
            "tokens_per_s": round(tokens / wall),
            "inputs": {file: counts[file] for file in files.values()},
            "config": keys,
            "outputs": manifest["stages"][stage]["outputs"],
        }
        print(f"{name}: {wall:.1f} s, {peak:.1f} MiB, tree {tree:.1f} MiB", flush=True)
        print(_compared(name, runs[name], committed.get(name)), flush=True)
    record = {"label": label, "host": _host(), "runs": runs}
    (ROOT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 scripts/paper_scale.py LABEL")
    main(sys.argv[1])
