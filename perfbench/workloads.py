"""Benchmark workloads: synthetic inputs, pipeline config and stages.

Each workload names the pipeline stages it runs, in order, and the config
they run under. Its inputs come from the generators in ``tests/synthdata.py``
and are written as JSONL once per (workload, seed), before any timed pass, by
running this file:

    python3 perfbench/workloads.py <workload> <seed> <directory>

The workload seed picks both the generator seeds and the config ``seed``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    config: dict
    why: str
    # layers the workload never calls; the benchmark's tests check that they
    # stay at zero calls, so a change there is predicted not to move it
    idle_layers: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="classify_cv",
            stages=("classify", "cluster"),
            config={
                "chunk_target": 100,
                "cv_folds": 10,
                "top_pos3": 300,
                "postok_min_count": 5,
                # the tests use the same C because synthetic chunks are small
                "svm_c": 50,
            },
            why="feature counting and SMO training do almost all the work; "
            "bootstrap and poslm are never called",
            idle_layers=("metrics", "bootstrap", "poslm"),
        ),
        Workload(
            name="metrics_bootstrap",
            stages=("metrics",),
            config={"bootstrap_iterations": 5},
            why="phrase matching, the five metrics and bootstrap resampling do "
            "about all the work; features, svm and poslm are never called",
            idle_layers=("features", "svm", "clustering", "poslm"),
        ),
        Workload(
            name="lm_kn",
            stages=("ingest", "lm"),
            config={
                "lm_order": 5,
                "lm_train_tokens": 20000,
                "lm_test_sentences": 650,
                "lm_country_sentences": 500,
            },
            why="largest input: JSONL parsing and writing take about half, Kneser-Ney "
            "training, scoring and ARPA writing most of the rest; features, lexicons "
            "and resampling are never called",
            idle_layers=("features", "svm", "clustering", "lexicons", "metrics", "bootstrap"),
        ),
    )
}


def corpora(name: str, seed: int) -> dict:
    """The workload's input corpora by variety, built from the test-suite
    generators."""
    sys.path.insert(0, str(ROOT / "tests"))
    import synthdata
    from varieties.corpus import concat

    if name == "classify_cv":
        # 50 sentences make 6 chunks per variety at every seed tried (0-40),
        # so the work of a pass does not change with the seed
        return {v: synthdata.variety_corpus(v, 50, seed=seed) for v in ("N", "NN", "T")}
    if name == "metrics_bootstrap":
        # equal sentence counts and lengths give equal token counts, so the
        # metrics stage's size guard passes
        return {v: synthdata.metrics_corpus(v, 250, seed=seed) for v in ("N", "NN", "T")}
    if name == "lm_kn":
        # four distinct generator seeds, so NN test sentences never repeat
        # the T training sentences of their family
        families = ("Germanic", "Romance")
        sizes = {"T": 2500, "NN": 750}
        return {
            variety: concat(
                synthdata.lm_family_corpus(
                    variety, family, sizes[variety], seed=4 * seed + 2 * v_idx + f_idx
                )
                for f_idx, family in enumerate(families)
            )
            for v_idx, variety in enumerate(("T", "NN"))
        }
    raise KeyError(name)


def generate(name: str, seed: int, directory: Path) -> None:
    """Write the workload's corpora as ``<variety>.jsonl`` plus
    ``inputs.json`` with their sentence and token counts."""
    from varieties.corpus import write_jsonl

    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for variety, corpus in corpora(name, seed).items():
        path = directory / f"{variety}.jsonl"
        write_jsonl(corpus, path)
        files[variety] = {
            "path": path.name,
            "sentences": len(corpus),
            "tokens": corpus.token_count,
        }
    summary = {
        "workload": name,
        "seed": seed,
        "files": files,
        "sentences": sum(f["sentences"] for f in files.values()),
        "tokens": sum(f["tokens"] for f in files.values()),
    }
    (directory / "inputs.json").write_text(json.dumps(summary, indent=2) + "\n")


def config_text(name: str, seed: int, inputs: Path) -> str:
    """The workload's config in the pipeline's ``key = value`` format; the
    output directory is passed per pass, as the CLI's ``--out`` does."""
    values = dict(seed=seed, **WORKLOADS[name].config)
    for variety in ("N", "NN", "T"):
        path = inputs / f"{variety}.jsonl"
        if path.exists():
            values[f"corpus_{variety.lower()}"] = str(path)
    return "".join(f"{key} = {value}\n" for key, value in values.items())


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
