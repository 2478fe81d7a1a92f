"""The end-to-end experiment stages behind the CLI subcommands.

Every stage is a pure function of (config, input files, seeds): outputs are
byte-identical across reruns. ``run_stage`` drives every stage: under a lock
on the output directory it checks the corpora the stage reads, loads the
resources and runs the stage's body, which writes each output into
``out/.staging``. Only when the body returns are the staged files hashed and
recorded in a new manifest (which alone carries wall-clock timings), whose
rename within ``.staging`` is the commit point; ``_publish`` then moves the
outputs into place, the manifest last. A stage cut short before the commit
point leaves ``out`` as it was; one cut short after it is published, by
itself or by the next run to take the lock. No file outside ``.staging`` is
removed unless a manifest records it. The report stage checks every recorded
output's sha256 before it reads any.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
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
from .corpus import (
    Corpus,
    balance,
    chunk,
    concat,
    family_of,
    ingest,
    matching_rows,
    shuffle,
    shuffle_rows,
    write_jsonl,
)
from .errors import DegenerateDataError, UntaggedTokenError, VarietiesError
from .lexicons import Resources, default_manifest_path, load_resources

MANIFEST_NAME = "manifest.json"
LOCK_NAME = ".lock"
STAGING_NAME = ".staging"

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
    """Hold the output directory for one run, taking a dead run's lock over,
    and first publish or drop what an earlier run left staged."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise VarietiesError(f"out: not a directory: {out_dir}") from None
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
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        _publish(out_dir)
        yield
    finally:
        lock.unlink(missing_ok=True)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_manifest(out_dir: Path, name: str = MANIFEST_NAME) -> dict:
    """The manifest ``name`` in ``out_dir``: by default that of the runs so
    far. A file that is not a run manifest, or that records an output that
    is not a file in ``out_dir`` (which ``_publish`` could not remove), is a
    validation error."""
    path = out_dir / name
    if not path.exists():
        return {"config": None, "resources": {}, "stages": {}}
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise VarietiesError(f"{path}: not a run manifest: {exc}") from None
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("resources"), dict)
        and isinstance(manifest.get("stages"), dict)
    ):
        raise VarietiesError(f"{path}: not a run manifest: no resources and stages objects")
    for name, entry in manifest["stages"].items():
        if not isinstance(entry, dict) or not isinstance(entry.get("outputs"), dict):
            raise VarietiesError(f"{path}: not a run manifest: stage {name} has no outputs")
        for rel in entry["outputs"]:
            if Path(rel).is_absolute() or ".." in Path(rel).parts or (out_dir / rel).is_dir():
                raise VarietiesError(
                    f"{path}: records output {rel!r}, which is not a file in {out_dir}"
                )
    return manifest


def _publish(out_dir: Path, staged: dict | None = None, current: dict | None = None) -> None:
    """Publish the run whose ``staged`` manifest ``.staging`` holds over the
    ``current`` one (both read when not given), else drop ``.staging``. Each
    step, in this order, can be redone: the next call finishes a cut one."""
    staging = out_dir / STAGING_NAME
    if staged is None and (staging / MANIFEST_NAME).exists():
        staged = _load_manifest(out_dir, f"{STAGING_NAME}/{MANIFEST_NAME}")
        current = _load_manifest(out_dir)
    if staged is not None:
        recorded = {rel for entry in staged["stages"].values() for rel in entry["outputs"]}
        for rel in sorted(recorded):
            if (staging / rel).is_file():
                (out_dir / rel).parent.mkdir(parents=True, exist_ok=True)
                os.replace(staging / rel, out_dir / rel)
        for entry in current["stages"].values():
            for rel in entry["outputs"].keys() - recorded:
                (out_dir / rel).unlink(missing_ok=True)
        os.replace(staging / MANIFEST_NAME, out_dir / MANIFEST_NAME)
    if staging.exists():
        shutil.rmtree(staging)


class _Stage:
    """The output files of one stage, each written whole into ``.staging``,
    and the manifest of the runs so far, read before the stage runs."""

    def __init__(self, name: str, config: PipelineConfig, out_dir: Path):
        self.name = name
        self.config = config
        self.out_dir = out_dir
        self.staging = out_dir / STAGING_NAME
        self.manifest = _load_manifest(out_dir)
        self.outputs: list[str] = []
        self.start = time.monotonic()

    def write(self, relative: str, fill: Callable[[Path], object]) -> None:
        """Write the output ``relative`` through ``fill(staged_path)``."""
        p = self.staging / relative
        p.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(relative)
        fill(p)

    def write_csv(self, relative: str, header: Sequence[str], rows) -> None:
        def fill(tmp: Path) -> None:
            with open(tmp, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)

        self.write(relative, fill)

    def write_json(self, relative: str, payload) -> None:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self.write(relative, lambda tmp: tmp.write_text(text, encoding="utf-8"))

    def finish(self, resources: Resources) -> None:
        """Hash each staged output and stage the new manifest, whose rename is
        the commit point; then publish."""
        seconds = time.monotonic() - self.start
        outputs = {rel: _sha256(self.staging / rel) for rel in self.outputs}
        entry = {"seconds": round(seconds, 3), "outputs": outputs}
        staged = {**self.manifest, "config": config_snapshot(self.config)}
        staged |= {"resources": resources.digests, "stages": {**staged["stages"], self.name: entry}}
        self.write_json(f"{MANIFEST_NAME}.tmp", staged)
        os.replace(self.staging / f"{MANIFEST_NAME}.tmp", self.staging / MANIFEST_NAME)
        _publish(self.out_dir, staged, self.manifest)


def _ingest_variety(config: PipelineConfig, variety: str) -> Corpus:
    return ingest(config.corpus_path(variety), config.format, default_variety=variety)


def _one_variety(config: PipelineConfig, variety: str) -> Corpus:
    """The ``variety`` corpus as read, which must hold that variety only."""
    corpus = _ingest_variety(config, variety)
    if corpus.varieties() - {variety}:
        raise VarietiesError(
            f"{config.corpus_path(variety)}: the {variety} corpus holds sentences "
            f"of varieties {', '.join(sorted(corpus.varieties()))}; each corpus "
            f"file must hold one variety"
        )
    return corpus


def _balanced_chunks(config: PipelineConfig) -> tuple[list[Corpus], list[str]]:
    """Shuffle, chunk and down-sample the three corpora to equal class sizes;
    returns chunks and labels interleaved deterministically."""
    by_variety: dict[str, list[Corpus]] = {}
    for variety in ("N", "NN", "T"):
        # the chunks are views of the shuffled corpus; the one read is let go
        corpus = shuffle(_one_variety(config, variety), config.seed)
        by_variety[variety] = chunk(corpus, config.chunk_target)
        if not by_variety[variety]:
            raise VarietiesError(
                f"variety {variety} has {corpus.token_count} tokens, under half "
                f"of chunk_target = {config.chunk_target}, so it makes no chunk; "
                f"lower chunk_target or supply more text"
            )
    balanced = balance(by_variety, config.seed)
    del by_variety, corpus
    chunks: list[Corpus] = []
    labels: list[str] = []
    for variety in sorted(balanced):
        # the kept chunks cut again from one copy of their rows, so the
        # shuffled corpus, with the rows chunk and balance dropped, is let go
        kept = balanced.pop(variety)
        laid = concat(kept, kept[0].provenance)
        ends = np.cumsum([0] + [len(c) for c in kept]).tolist()
        del kept
        chunks += [laid.take(slice(a, b)) for a, b in zip(ends, ends[1:])]
        labels += [variety] * (len(ends) - 1)
    return chunks, labels


# ---------------------------------------------------------------------------
# stages


def cmd_ingest(config: PipelineConfig, stage: _Stage, resources: Resources) -> None:
    """Validate and normalize the configured corpora; emit canonical JSONL
    plus a stats table."""
    stats_rows = []
    found_any = False
    for variety in ("N", "NN", "T"):
        key = f"corpus_{variety.lower()}"
        if getattr(config, key) is None:
            continue
        found_any = True
        corpus = _ingest_variety(config, variety)
        stage.write(f"ingest/{variety}.jsonl", lambda tmp: write_jsonl(corpus, tmp))
        # a corpus as read holds the surfaces that occur, and only those
        types = len(corpus.columns.surface_vocab)
        stats_rows.append([variety, len(corpus), corpus.token_count, types])
    if not found_any:
        raise VarietiesError("no corpus paths configured; nothing to ingest")
    stage.write_csv(
        "ingest/stats.csv", ["variety", "sentences", "tokens", "types"], stats_rows
    )


def cmd_classify(config: PipelineConfig, stage: _Stage, resources: Resources) -> None:
    """Pairwise and three-way cross-validated accuracies for every feature
    row, plus confusion matrices and top-ranked features per pair."""
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
    # POS3, the one family that can fail, is counted over every chunk once,
    # so a row that needs it and cannot be counted is left out of every task
    try:
        records.totals(feat.POS3)
        untagged = None
    except UntaggedTokenError as exc:
        untagged = str(exc)
    plans = {}
    diagnostics = []
    for families in FEATURE_ROWS:
        if untagged is not None and feat.POS3 in families:
            diagnostics.append([_row_name(families), untagged])
            continue
        plans[_row_name(families)] = feat.FeaturePlan(
            families=families,
            resources=resources,
            top_pos3=config.top_pos3,
            postok_min_count=config.postok_min_count,
        )
    accuracy_rows = []
    confusion_rows = []
    feature_rows = []
    for task in CLASSIFICATION_TASKS:
        keep = [i for i, lab in enumerate(labels) if lab in task]
        task_records = records.take(keep)
        task_labels = [labels[i] for i in keep]
        reports = svm.cross_validate(
            task_records,
            task_labels,
            list(plans.values()),
            folds=config.cv_folds,
            seed=config.seed,
            C=config.svm_c,
        )
        for row, report in zip(plans, reports):
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
            matrices = svm.plan_matrices(list(plans.values()), task_records, task_records)
            for row, (spaces, X) in zip(plans, matrices):
                model = svm.train_binary(
                    X, task_labels, C=config.svm_c, feature_names=feat.space_feature_names(spaces)
                )
                for rank, (name, weight) in enumerate(
                    svm.rank_features(model)[:20], start=1
                ):
                    feature_rows.append(
                        [row, _task_name(task), rank, name, repr(weight)]
                    )
    # the loop is task-major; the outputs are row-major (the sort is stable)
    for lines in (accuracy_rows, confusion_rows, feature_rows):
        lines.sort(key=lambda line: list(plans).index(line[0]))

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


def cmd_cluster(config: PipelineConfig, stage: _Stage, resources: Resources) -> None:
    """Bisecting k-means over function-word vectors (k=3 and k=2) with a 2-D
    PCA projection for plotting."""
    chunks, labels = _balanced_chunks(config)
    space = feat.fw_space(resources.function_words)
    X = feat.vectorize_chunks(chunks, [space])
    del chunks
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


# pipeline names of the metrics, in metrics.METRIC_NAMES order
METRIC_ROWS = (
    "lexical_richness",
    "mean_word_rank",
    "collocation_types",
    "transitions",
    "pronouns",
)


def cmd_metrics(config: PipelineConfig, stage: _Stage, resources: Resources) -> None:
    """Raw and normalized metric triples with bootstrap significance."""
    corpora = {v: _one_variety(config, v) for v in ("N", "NN", "T")}
    guard = met.check_sizes(corpora["N"], corpora["NN"], corpora["T"])
    if not guard.ok:
        raise VarietiesError(f"equal-size guard failed: {guard.message}")

    stats = met.SentenceStats.of([corpora[v] for v in ("N", "NN", "T")], resources)
    observed = []
    for variety, start, stop in zip(corpora, stats.bounds, stats.bounds[1:]):
        try:
            observed.append(stats.values(np.arange(start, stop)))
        except DegenerateDataError as exc:
            raise DegenerateDataError(f"{corpora[variety].provenance}: {exc}") from None
    # every triple is checked before any resample is drawn
    triples = [
        met.normalize_triple(name, observed[0][m], observed[2][m], observed[1][m])
        for m, name in enumerate(METRIC_ROWS)
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
    results = zip(METRIC_ROWS, triples, total_results, dif_results)
    for name, triple, total_result, dif_result in results:
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
            "raw": {"N": triple.raw_n, "T": triple.raw_t, "NN": triple.raw_nn},
            "normalized": {"N": triple.norm_n, "T": triple.norm_t, "NN": triple.norm_nn},
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


def _token_prefix(lengths: np.ndarray, budget: int, what: str) -> int:
    """How many of the sentences of these ``lengths`` the shortest prefix
    that holds ``budget`` tokens takes, or all of them."""
    totals = np.cumsum(lengths)
    kept = min(int(np.searchsorted(totals, budget)) + 1, len(lengths))
    got = int(totals[kept - 1]) if kept else 0
    if got < budget:
        warnings.warn(
            f"{what}: only {got} tokens available of the requested {budget}; "
            "running scaled down"
        )
    return kept


def cmd_lm(config: PipelineConfig, stage: _Stage, resources: Resources) -> None:
    """Family POS language models: train on Germanic/Romance translationese,
    score the family NN test sets and per-country slices."""
    corpus_t = _ingest_variety(config, "T")
    corpus_nn = _ingest_variety(config, "NN")

    # every test set (family and country) and training set is a row index
    # array into its corpus as read, drawn in shuffle's order; all of them
    # are selected, and their tags checked, before any model is trained or
    # written
    nn = corpus_nn.columns
    test_rows = {}
    countries = set()
    for family in ("Germanic", "Romance"):
        rows = matching_rows(corpus_nn, variety="NN", family=family)
        if len(rows) == 0:
            raise VarietiesError(f"no non-native sentences with family {family}")
        codes = np.unique(nn.country[rows]).tolist()
        countries |= {nn.country_vocab[c] for c in codes if c >= 0}
        if len(rows) < config.lm_test_sentences:
            warnings.warn(
                f"{family} NN: only {len(rows)} sentences of the requested "
                f"{config.lm_test_sentences}"
            )
        rows = shuffle_rows(rows, config.seed)[: config.lm_test_sentences]
        if len(rows) <= LM_CHUNK_SENTENCES:
            raise VarietiesError(
                f"{family} NN test set has {len(rows)} sentences "
                f"(lm_test_sentences = {config.lm_test_sentences}); the paired "
                f"t-test needs at least 2 chunks of {LM_CHUNK_SENTENCES} sentences"
            )
        test_rows[family] = rows

    country_rows = {
        country: shuffle_rows(
            matching_rows(corpus_nn, variety="NN", country=country), config.seed
        )[: config.lm_country_sentences]
        for country in sorted(countries)
    }
    # the NN sentences some set draws, each scored once per model
    scored = np.unique(np.concatenate([*test_rows.values(), *country_rows.values()]))
    nn.check_tagged(corpus_nn.provenance, scored)
    scored_tags = poslm.pos_sequences(corpus_nn.take(scored))

    train_rows = {}
    t = corpus_t.columns
    tags_t = poslm.TagSequences(t.pos_vocab, t.pos_ids, t.ptr)
    for family in ("Germanic", "Romance"):
        rows = matching_rows(corpus_t, variety="T", family=family)
        if len(rows) == 0:
            raise VarietiesError(f"no translated sentences with family {family}")
        rows = shuffle_rows(rows, config.seed)
        rows = rows[: _token_prefix(np.diff(t.ptr)[rows], config.lm_train_tokens, f"{family} T")]
        t.check_tagged(corpus_t.provenance, rows)
        unknown = tags_t.distinct_tags(rows) - resources.tagset.tags
        if unknown:
            raise VarietiesError(
                f"{family} T training set: tag {min(unknown)!r} is not in the tagset"
            )
        train_rows[family] = rows
    # training reads T's tags alone, one family's at a time
    del corpus_t, t

    scores = {}
    for family in ("Germanic", "Romance"):
        model = poslm.train_lm(
            tags_t.take(train_rows.pop(family)), resources.tagset, order=config.lm_order
        )
        stage.write(
            f"lm/{family.lower()}_t.arpa", lambda tmp: poslm.write_arpa(model, tmp)
        )
        scores[family] = poslm.ppl(model, scored_tags).per_sentence

    def report(family: str, rows: np.ndarray, chunks: int | None = None):
        return scores[family].report(np.searchsorted(scored, rows), chunks)

    table_rows = []
    ttest_payload = {}
    for family, rows in test_rows.items():
        reports = {
            model_family: report(model_family, rows, LM_CHUNK_SENTENCES)
            for model_family in ("Germanic", "Romance")
        }
        for model_family, family_report in reports.items():
            table_rows.append(
                [
                    f"{model_family[:3]}T",
                    f"{family[:3]}NN",
                    f"{family_report.perplexity:.6f}",
                    family_report.scored,
                    family_report.excluded,
                ]
            )
        ger_series = [c.perplexity for c in reports["Germanic"].per_chunk]
        rom_series = [c.perplexity for c in reports["Romance"].per_chunk]
        try:
            ttest = boot.paired_ttest(ger_series, rom_series)
        except DegenerateDataError as exc:
            raise DegenerateDataError(
                f"{family} NN test set: the GerT and RomT chunk perplexities "
                f"give no paired t-test: {exc}"
            ) from None
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

    country_table = []
    for country, rows in country_rows.items():
        ger = report("Germanic", rows).perplexity
        rom = report("Romance", rows).perplexity
        country_table.append([country, family_of(country), f"{ger:.6f}", f"{rom:.6f}"])
    stage.write_csv(
        "lm/countries.csv",
        ["country", "family", "ppl_gert", "ppl_romt"],
        country_table,
    )


def cmd_report(config: PipelineConfig, stage: _Stage, resources: Resources) -> None:
    """Consolidate stage outputs into one markdown report plus the final run
    manifest; recorded outputs that are missing, or whose sha256 is not the
    recorded one, are named explicitly. A previous report's own outputs are
    neither checked nor listed, since this run replaces them."""
    out_dir = stage.out_dir
    manifest = stage.manifest
    stages = {name: entry for name, entry in sorted(manifest["stages"].items()) if name != "report"}
    if not stages:
        raise VarietiesError("no stage outputs recorded; run other stages first")
    inventory = {}
    missing = []
    changed = []
    for stage_name, entry in stages.items():
        for rel, digest in entry["outputs"].items():
            inventory[rel] = digest
            if not (out_dir / rel).exists():
                missing.append(f"{stage_name}: {rel}")
            elif _sha256(out_dir / rel) != digest:
                changed.append(f"{stage_name}: {rel}")
    if missing:
        raise VarietiesError("missing stage outputs: " + "; ".join(missing))
    if changed:
        raise VarietiesError(
            f"stage outputs whose sha256 is not the one {MANIFEST_NAME} records: "
            + "; ".join(changed)
        )

    lines = ["# Variety analysis report", ""]
    for stage_name, entry in stages.items():
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
    run_manifest = {
        "config": config_snapshot(config),
        "resources": manifest["resources"],
        "files": inventory,
    }
    stage.write_json("run_manifest.json", run_manifest)


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


STAGES: dict[str, Callable[[PipelineConfig, _Stage, Resources], None]] = {
    "ingest": cmd_ingest,
    "classify": cmd_classify,
    "cluster": cmd_cluster,
    "metrics": cmd_metrics,
    "lm": cmd_lm,
    "report": cmd_report,
}


# the corpora each stage reads, checked before anything else
STAGE_CORPORA = {
    "classify": ("N", "NN", "T"),
    "cluster": ("N", "NN", "T"),
    "metrics": ("N", "NN", "T"),
    "lm": ("NN", "T"),
}


def run_stage(name: str, config: PipelineConfig) -> Path:
    """Run one stage: under the output lock, check the corpora it reads, load
    and hash the resources, read the manifest of the runs so far, run its
    body, then commit its outputs. A stage cut short before its commit point
    leaves ``out`` as it was; one cut short after it is published."""
    body = STAGES[name]
    out_dir = Path(config.out)
    with output_lock(out_dir):
        for variety in STAGE_CORPORA.get(name, ()):
            config.corpus_path(variety)
        resources = load_resources(config.resources or default_manifest_path())
        stage = _Stage(name, config, out_dir)
        try:
            body(config, stage, resources)
            stage.finish(resources)
        except BaseException:
            _publish(out_dir)
            raise
    return out_dir
