"""The end-to-end experiment stages behind the CLI subcommands.

Every stage is a pure function of (config, input files, seeds): outputs are
written atomically (temp file + rename), recorded in a run manifest with
content hashes, and are byte-identical across reruns. The manifest itself is
the single exception: it carries wall-clock stage timings.

A lock file serializes access to the output directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import bootstrap as boot
from . import clustering as clus
from . import features as feat
from . import metrics as met
from . import poslm
from . import svm
from .config import PipelineConfig, config_snapshot
from .corpus import Corpus, balance, chunk, filter_corpus, ingest, shuffle, write_jsonl
from .errors import UntaggedTokenError, VarietiesError
from .lexicons import Resources, default_manifest_path, load_resources

MANIFEST_NAME = "manifest.json"
LOCK_NAME = ".lock"

FEATURE_ROWS = (
    ("FW",),
    ("POS3",),
    ("POSTOK",),
    ("COH",),
    ("FW", "POS3"),
    ("FW", "POSTOK"),
    ("POS3", "POSTOK"),
    ("FW", "POS3", "POSTOK"),
)
CLASSIFICATION_TASKS = (("N", "NN"), ("N", "T"), ("NN", "T"), ("N", "NN", "T"))
# sentences per perplexity chunk; the lm t-test pairs the chunks' perplexities
LM_CHUNK_SENTENCES = 100
# data rows of a CSV output shown in report.md
REPORT_CSV_ROWS = 50


def _row_name(families: tuple[str, ...]) -> str:
    return "+".join(families)


def _task_name(labels: tuple[str, ...]) -> str:
    return "3-way" if len(labels) == 3 else "-".join(labels)


# ---------------------------------------------------------------------------
# output-directory plumbing


def _held_by_dead_run(lock: Path) -> bool:
    """True when the lock names a process that no longer exists. A lock
    without a readable pid (its run may not have written it yet) is live."""
    try:
        pid = int(lock.read_text(encoding="utf-8"))
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError):
        pass
    return False


@contextmanager
def output_lock(out_dir: Path):
    """Hold the output directory for one run. The lock of a dead run is taken
    over, and the temp files that run left behind are removed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / LOCK_NAME
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    busy = VarietiesError(
        f"output directory {out_dir} is locked by another run "
        f"(remove {lock} if that run is dead)"
    )
    try:
        fd = os.open(lock, flags)
    except FileExistsError:
        if not _held_by_dead_run(lock):
            raise busy
        lock.unlink(missing_ok=True)
        try:
            # fails when another run took the dead lock over first
            fd = os.open(lock, flags)
        except FileExistsError:
            raise busy
        for tmp in out_dir.rglob("*.tmp"):
            tmp.unlink(missing_ok=True)
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


def _write(path: Path, fill: Callable[[Path], object]) -> None:
    """Write ``path`` whole or not at all: ``fill`` writes a temp file beside
    it, which then replaces it. The one writer of every file of a run."""
    tmp = path.with_name(path.name + ".tmp")
    fill(tmp)
    os.replace(tmp, path)


def _json_fill(payload) -> Callable[[Path], object]:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return lambda tmp: tmp.write_text(text, encoding="utf-8")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_manifest(out_dir: Path) -> dict:
    path = out_dir / MANIFEST_NAME
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"config": None, "resources": {}, "stages": {}}


class _Stage:
    """Writes the output files of one stage and records them, with the
    stage's time, in the manifest."""

    def __init__(self, name: str, config: PipelineConfig, out_dir: Path):
        self.name = name
        self.config = config
        self.out_dir = out_dir
        self.outputs: list[Path] = []
        self.start = time.monotonic()

    def write(self, relative: str, fill: Callable[[Path], object]) -> None:
        """Write the output ``relative`` through ``fill(temp_path)``."""
        p = self.out_dir / relative
        p.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(p)
        _write(p, fill)

    def write_csv(self, relative: str, header: Sequence[str], rows) -> None:
        def fill(tmp: Path) -> None:
            with open(tmp, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)

        self.write(relative, fill)

    def write_json(self, relative: str, payload) -> None:
        self.write(relative, _json_fill(payload))

    def finish(self, resources_manifest: Path) -> None:
        seconds = time.monotonic() - self.start
        manifest = _load_manifest(self.out_dir)
        manifest["config"] = config_snapshot(self.config)
        resource_dir = resources_manifest.parent
        resource_hashes = {str(resources_manifest): _sha256(resources_manifest)}
        for name in sorted(json.loads(resources_manifest.read_text()).values()):
            resource_hashes[name] = _sha256(resource_dir / name)
        manifest["resources"] = resource_hashes
        manifest["stages"][self.name] = {
            "seconds": round(seconds, 3),
            "outputs": {
                str(p.relative_to(self.out_dir)): _sha256(p) for p in sorted(self.outputs)
            },
        }
        _write(self.out_dir / MANIFEST_NAME, _json_fill(manifest))


def _resources_for(config: PipelineConfig) -> tuple[Resources, Path]:
    manifest = (
        Path(config.resources) if config.resources else default_manifest_path()
    )
    return load_resources(manifest), manifest


def _ingest_variety(config: PipelineConfig, variety: str) -> Corpus:
    return ingest(config.corpus_path(variety), config.format, default_variety=variety)


def _balanced_chunks(config: PipelineConfig) -> tuple[list[Corpus], list[str]]:
    """Shuffle, chunk and down-sample the three corpora to equal class sizes;
    returns chunks and labels interleaved deterministically."""
    by_variety: dict[str, list[Corpus]] = {}
    for variety in ("N", "NN", "T"):
        corpus = _ingest_variety(config, variety)
        variety_chunks = chunk(shuffle(corpus, config.seed), config.chunk_target)
        if not variety_chunks:
            raise VarietiesError(
                f"variety {variety} has {corpus.token_count} tokens, under half "
                f"of chunk_target = {config.chunk_target}, so it makes no chunk; "
                f"lower chunk_target or supply more text"
            )
        by_variety[variety] = variety_chunks
    balanced = balance(by_variety, config.seed)
    chunks: list[Corpus] = []
    labels: list[str] = []
    for variety in sorted(balanced):
        for c in balanced[variety]:
            chunks.append(c)
            labels.append(variety)
    return chunks, labels


# ---------------------------------------------------------------------------
# stages


def cmd_ingest(config: PipelineConfig, out_dir: Path) -> None:
    """Validate and normalize the configured corpora; emit canonical JSONL
    plus a stats table."""
    stage = _Stage("ingest", config, out_dir)
    _, resources_manifest = _resources_for(config)
    stats_rows = []
    found_any = False
    for variety in ("N", "NN", "T"):
        key = f"corpus_{variety.lower()}"
        if getattr(config, key) is None:
            continue
        found_any = True
        corpus = _ingest_variety(config, variety)
        stage.write(f"ingest/{variety}.jsonl", lambda tmp: write_jsonl(corpus, tmp))
        types = len({w for sent in corpus.sentences for w in sent.surfaces()})
        stats_rows.append([variety, len(corpus), corpus.token_count, types])
    if not found_any:
        raise VarietiesError("no corpus paths configured; nothing to ingest")
    stage.write_csv(
        "ingest/stats.csv", ["variety", "sentences", "tokens", "types"], stats_rows
    )
    stage.finish(resources_manifest)


def cmd_classify(config: PipelineConfig, out_dir: Path) -> None:
    """Pairwise and three-way cross-validated accuracies for every feature
    row, plus confusion matrices and top-ranked features per pair."""
    config.require_corpora("N", "NN", "T")
    resources, resources_manifest = _resources_for(config)
    stage = _Stage("classify", config, out_dir)
    chunks, labels = _balanced_chunks(config)
    per_variety = len(chunks) // 3
    if 2 * per_variety < config.cv_folds:
        raise VarietiesError(
            f"cv_folds = {config.cv_folds} needs at least {config.cv_folds} "
            f"chunks per pairwise task, but balancing left {per_variety} "
            f"chunks per variety ({2 * per_variety} per pair) at "
            f"chunk_target = {config.chunk_target}; lower cv_folds or "
            f"chunk_target, or supply more text"
        )

    records = feat.ChunkCounts(chunks)
    accuracy_rows = []
    confusion_rows = []
    feature_rows = []
    diagnostics = []
    for families in FEATURE_ROWS:
        row = _row_name(families)
        plan = feat.FeaturePlan(
            families=families,
            resources=resources,
            top_pos3=config.top_pos3,
            postok_min_count=config.postok_min_count,
        )
        # fit counts POS3, the one family that can fail, over every chunk, so
        # a row that cannot be counted fails before it writes any task rows
        try:
            plan.fit(records)
        except UntaggedTokenError as exc:
            diagnostics.append([row, str(exc)])
            continue
        for task in CLASSIFICATION_TASKS:
            keep = [i for i, lab in enumerate(labels) if lab in task]
            task_records = records.take(keep)
            task_labels = [labels[i] for i in keep]
            report = svm.cross_validate(
                task_records,
                task_labels,
                plan,
                folds=config.cv_folds,
                seed=config.seed,
                C=config.svm_c,
            )
            accuracy_rows.append(
                [row, _task_name(task), f"{report.mean_accuracy:.6f}"]
                + [f"{a:.6f}" for a in report.fold_accuracies]
            )
            for t_idx, true_lab in enumerate(report.label_order):
                for p_idx, pred_lab in enumerate(report.label_order):
                    confusion_rows.append(
                        [
                            row,
                            _task_name(task),
                            true_lab,
                            pred_lab,
                            int(report.confusion[t_idx, p_idx]),
                        ]
                    )
            if len(task) == 2:
                spaces = plan.fit(task_records)
                X = feat.vectorize_chunks(task_records, spaces)
                model = svm.train_binary(
                    X,
                    task_labels,
                    C=config.svm_c,
                    feature_names=feat.space_feature_names(spaces),
                )
                for rank, (name, weight) in enumerate(
                    svm.rank_features(model)[:20], start=1
                ):
                    feature_rows.append(
                        [row, _task_name(task), rank, name, repr(weight)]
                    )

    fold_headers = [f"fold_{i}" for i in range(config.cv_folds)]
    stage.write_csv(
        "classify/accuracy.csv",
        ["features", "task", "mean_accuracy"] + fold_headers,
        accuracy_rows,
    )
    stage.write_csv(
        "classify/confusion.csv",
        ["features", "task", "true", "predicted", "count"],
        confusion_rows,
    )
    stage.write_csv(
        "classify/top_features.csv",
        ["features", "task", "rank", "feature", "weight"],
        feature_rows,
    )
    if diagnostics:
        stage.write_csv("classify/diagnostics.csv", ["features", "error"], diagnostics)
    stage.finish(resources_manifest)


def cmd_cluster(config: PipelineConfig, out_dir: Path) -> None:
    """Bisecting k-means over function-word vectors (k=3 and k=2) with a 2-D
    PCA projection for plotting."""
    config.require_corpora("N", "NN", "T")
    resources, resources_manifest = _resources_for(config)
    stage = _Stage("cluster", config, out_dir)
    chunks, labels = _balanced_chunks(config)
    space = feat.fw_space(resources.function_words)
    X = feat.vectorize_chunks(chunks, [space])
    projection = clus.pca_2d(X)
    chunk_ids = [f"{lab}_{i}" for i, lab in enumerate(labels)]

    summary = {}
    for k in (3, 2):
        result = clus.bisecting_kmeans(X, k=k, seed=config.seed)
        accuracy = clus.cluster_accuracy(result.assignment, labels)
        label_map = clus.best_label_map(result.assignment, labels)
        scatter = [
            [chunk_id, repr(x), repr(y), cluster, label, int(label_map.get(cluster) == label)]
            for chunk_id, (x, y), cluster, label in zip(
                chunk_ids, projection.coords.tolist(), result.assignment.tolist(), labels
            )
        ]
        stage.write_csv(
            f"cluster/scatter_k{k}.csv",
            ["chunk_id", "x", "y", "cluster", "true_label", "correct"],
            scatter,
        )
        centroid_xy = (result.centroids - X.mean(axis=0)) @ projection.axes.T
        stage.write_csv(
            f"cluster/centroids_k{k}.csv",
            ["cluster", "x", "y"],
            [[c, repr(float(xy[0])), repr(float(xy[1]))] for c, xy in enumerate(centroid_xy)],
        )
        summary[f"k{k}"] = {
            "accuracy": accuracy,
            "total_sse": result.total_sse,
            "label_map": {str(c): lab for c, lab in label_map.items()},
        }
    summary["explained_variance"] = list(projection.explained)
    stage.write_json("cluster/summary.json", summary)
    stage.finish(resources_manifest)


# pipeline names of the metrics, in metrics.METRIC_NAMES order
METRIC_ROWS = (
    "lexical_richness",
    "mean_word_rank",
    "collocation_types",
    "transitions",
    "pronouns",
)


def cmd_metrics(config: PipelineConfig, out_dir: Path) -> None:
    """Raw and normalized metric triples with bootstrap significance."""
    config.require_corpora("N", "NN", "T")
    resources, resources_manifest = _resources_for(config)
    stage = _Stage("metrics", config, out_dir)
    corpora = {v: _ingest_variety(config, v) for v in ("N", "NN", "T")}
    guard = met.check_sizes(corpora["N"], corpora["NN"], corpora["T"])
    if not guard.ok:
        raise VarietiesError(f"equal-size guard failed: {guard.message}")

    stats = met.SentenceStats.of([corpora[v] for v in ("N", "NN", "T")], resources)
    observed = [
        stats.values(np.arange(start, stop))
        for start, stop in zip(stats.bounds, stats.bounds[1:])
    ]
    boot_config = boot.BootstrapConfig(
        sample_tokens=min(c.token_count for c in corpora.values()),
        iterations=config.bootstrap_iterations,
        seed=config.seed,
    )
    total_results = boot.d_total_tests(stats, observed, boot_config)
    dif_results = boot.d_dif_tests(stats, observed, boot_config)
    csv_rows = []
    payload = {}
    for m, name in enumerate(METRIC_ROWS):
        raw = dict(zip(("N", "NN", "T"), (values[m] for values in observed)))
        triple = met.normalize_triple(name, raw["N"], raw["T"], raw["NN"])
        total_result = total_results[m]
        dif_result = dif_results[m]
        star = bool(dif_result.significant)
        csv_rows.append(
            [
                name,
                repr(triple.raw_n),
                repr(triple.raw_t),
                repr(triple.raw_nn),
                f"{triple.norm_n:.6f}",
                f"{triple.norm_t:.6f}",
                f"{triple.norm_nn:.6f}",
                repr(total_result.observed),
                total_result.p_text(),
                repr(dif_result.ci[0]),
                repr(dif_result.ci[1]),
                "*" if star else "",
            ]
        )
        payload[name] = {
            "raw": {"N": raw["N"], "T": raw["T"], "NN": raw["NN"]},
            "normalized": {
                "N": triple.norm_n,
                "T": triple.norm_t,
                "NN": triple.norm_nn,
            },
            "d_total": {
                "observed": total_result.observed,
                "p_value": total_result.p_value,
                "p_is_upper_bound": total_result.p_is_upper_bound,
            },
            "d_dif": {
                "observed": dif_result.observed,
                "ci": list(dif_result.ci),
                "k": dif_result.k_label,
                "significant": star,
            },
            "seed": config.seed,
            "iterations": config.bootstrap_iterations,
        }
    stage.write_csv(
        "metrics/metrics.csv",
        [
            "metric",
            "raw_N",
            "raw_T",
            "raw_NN",
            "norm_N",
            "norm_T",
            "norm_NN",
            "d_total",
            "d_total_p",
            "d_dif_lo",
            "d_dif_hi",
            "significant",
        ],
        csv_rows,
    )
    stage.write_json("metrics/metrics.json", payload)
    stage.finish(resources_manifest)


def _take_tokens(corpus: Corpus, budget: int, what: str) -> Corpus:
    kept = []
    got = 0
    for sent in corpus.sentences:
        if got >= budget:
            break
        kept.append(sent)
        got += sent.token_count
    if got < budget:
        warnings.warn(
            f"{what}: only {got} tokens available of the requested {budget}; "
            "running scaled down"
        )
    return Corpus(sentences=tuple(kept), provenance=corpus.provenance)


def cmd_lm(config: PipelineConfig, out_dir: Path) -> None:
    """Family POS language models: train on Germanic/Romance translationese,
    score the family NN test sets and per-country slices."""
    config.require_corpora("NN", "T")
    resources, resources_manifest = _resources_for(config)
    stage = _Stage("lm", config, out_dir)
    corpus_t = _ingest_variety(config, "T")
    corpus_nn = filter_corpus(_ingest_variety(config, "NN"), variety="NN")

    # every test set (family and country) and training set is read, tags
    # included and training tags checked against the tagset, before any
    # model is trained or written
    test_sets = {}
    for family in ("Germanic", "Romance"):
        test = filter_corpus(corpus_nn, family=family)
        if len(test) == 0:
            raise VarietiesError(f"no non-native sentences with family {family}")
        if len(test) < config.lm_test_sentences:
            warnings.warn(
                f"{family} NN: only {len(test)} sentences of the requested "
                f"{config.lm_test_sentences}"
            )
        test = shuffle(test, config.seed).sentences[: config.lm_test_sentences]
        if len(test) <= LM_CHUNK_SENTENCES:
            raise VarietiesError(
                f"{family} NN test set has {len(test)} sentences "
                f"(lm_test_sentences = {config.lm_test_sentences}); the paired "
                f"t-test needs at least 2 chunks of {LM_CHUNK_SENTENCES} sentences"
            )
        test_sets[family] = poslm.pos_sequences(Corpus(sentences=test))

    countries = sorted(
        {
            s.country
            for s in corpus_nn.sentences
            if s.country is not None and s.family in ("Germanic", "Romance")
        }
    )
    country_sets = {}
    for country in countries:
        subset = shuffle(filter_corpus(corpus_nn, country=country), config.seed)
        country_sets[country] = (
            subset.sentences[0].family,
            poslm.pos_sequences(
                Corpus(sentences=subset.sentences[: config.lm_country_sentences])
            ),
        )

    train_sets = {}
    for family in ("Germanic", "Romance"):
        train = filter_corpus(corpus_t, variety="T", family=family)
        if len(train) == 0:
            raise VarietiesError(f"no translated sentences with family {family}")
        train = _take_tokens(
            shuffle(train, config.seed), config.lm_train_tokens, f"{family} T"
        )
        train_sets[family] = poslm.pos_sequences(train)
        unknown = set().union(*train_sets[family]) - resources.tagset.tags
        if unknown:
            raise VarietiesError(
                f"{family} T training set: tag {min(unknown)!r} is not in the tagset"
            )

    models = {}
    for family in ("Germanic", "Romance"):
        model = poslm.train_lm(
            train_sets.pop(family), resources.tagset, order=config.lm_order
        )
        models[family] = model
        stage.write(
            f"lm/{family.lower()}_t.arpa", lambda tmp: poslm.write_arpa(model, tmp)
        )

    table_rows = []
    ttest_payload = {}
    for family, test_sents in test_sets.items():
        reports = {
            model_family: poslm.ppl_by_chunks(
                models[model_family], test_sents, LM_CHUNK_SENTENCES
            )
            for model_family in ("Germanic", "Romance")
        }
        for model_family, report in reports.items():
            table_rows.append(
                [
                    f"{model_family[:3]}T",
                    f"{family[:3]}NN",
                    f"{report.perplexity:.6f}",
                    report.scored,
                    report.excluded,
                ]
            )
        ger_series = [c.perplexity for c in reports["Germanic"].per_chunk]
        rom_series = [c.perplexity for c in reports["Romance"].per_chunk]
        ttest = boot.paired_ttest(ger_series, rom_series)
        ttest_payload[f"{family[:3]}NN"] = {
            "t": ttest.t,
            "df": ttest.df,
            "p_value": ttest.p_value,
            "chunks": len(ger_series),
            "better_model": "GerT"
            if reports["Germanic"].perplexity < reports["Romance"].perplexity
            else "RomT",
        }
    stage.write_csv(
        "lm/perplexity.csv",
        ["model", "test_set", "perplexity", "scored", "excluded"],
        table_rows,
    )
    stage.write_json("lm/ttest.json", ttest_payload)

    country_rows = []
    for country, (family, test_sents) in country_sets.items():
        ger = poslm.ppl(models["Germanic"], test_sents).perplexity
        rom = poslm.ppl(models["Romance"], test_sents).perplexity
        country_rows.append([country, family, f"{ger:.6f}", f"{rom:.6f}"])
    stage.write_csv(
        "lm/countries.csv",
        ["country", "family", "ppl_gert", "ppl_romt"],
        country_rows,
    )
    stage.finish(resources_manifest)


def cmd_report(config: PipelineConfig, out_dir: Path) -> None:
    """Consolidate stage outputs into one markdown report plus the final run
    manifest; missing recorded outputs are named explicitly."""
    manifest = _load_manifest(out_dir)
    if not manifest["stages"]:
        raise VarietiesError("no stage outputs recorded; run other stages first")
    missing = []
    for stage_name, entry in sorted(manifest["stages"].items()):
        for rel in entry["outputs"]:
            if not (out_dir / rel).exists():
                missing.append(f"{stage_name}: {rel}")
    if missing:
        raise VarietiesError("missing stage outputs: " + "; ".join(missing))

    stage = _Stage("report", config, out_dir)
    _, resources_manifest = _resources_for(config)
    lines = ["# Variety analysis report", ""]
    for stage_name, entry in sorted(manifest["stages"].items()):
        if stage_name == "report":
            continue
        lines.append(f"## {stage_name}")
        lines.append("")
        for rel in sorted(entry["outputs"]):
            path = out_dir / rel
            lines.append(f"### {rel}")
            lines.append("")
            if path.suffix == ".csv":
                lines.extend(_csv_to_markdown(path))
            elif path.suffix == ".json":
                lines.append("```json")
                lines.append(path.read_text(encoding="utf-8").rstrip())
                lines.append("```")
            else:
                lines.append(f"(binary or large artifact: {rel})")
            lines.append("")
    report = "\n".join(lines) + "\n"
    stage.write("report.md", lambda tmp: tmp.write_text(report, encoding="utf-8"))

    inventory = {}
    for stage_name, entry in sorted(manifest["stages"].items()):
        for rel, digest in entry["outputs"].items():
            inventory[rel] = digest
    run_manifest = {
        "config": config_snapshot(config),
        "resources": manifest["resources"],
        "files": inventory,
    }
    stage.write_json("run_manifest.json", run_manifest)
    stage.finish(resources_manifest)


def _csv_to_markdown(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return ["(empty)"]
    out = ["| " + " | ".join(rows[0]) + " |"]
    out.append("|" + "---|" * len(rows[0]))
    for row in rows[1 : REPORT_CSV_ROWS + 1]:
        out.append("| " + " | ".join(row) + " |")
    if len(rows) - 1 > REPORT_CSV_ROWS:
        out.append(f"| ... ({len(rows) - 1 - REPORT_CSV_ROWS} more rows) |")
    return out


STAGES: dict[str, Callable[[PipelineConfig, Path], None]] = {
    "ingest": cmd_ingest,
    "classify": cmd_classify,
    "cluster": cmd_cluster,
    "metrics": cmd_metrics,
    "lm": cmd_lm,
    "report": cmd_report,
}


def run_stage(name: str, config: PipelineConfig) -> Path:
    out_dir = Path(config.out)
    with output_lock(out_dir):
        STAGES[name](config, out_dir)
    return out_dir
