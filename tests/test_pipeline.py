import csv
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import groupby
from pathlib import Path

import pytest

from synthdata import (
    clustering_corpora,
    lm_family_corpus,
    metrics_corpus,
    trim_to_tokens,
    variety_corpus,
)
from varieties import features, poslm
from varieties import pipeline as pipeline_module
from varieties.cli import main
from varieties.config import load_config
from varieties.corpus import (
    AnnotatedSentence,
    Corpus,
    Token,
    balance,
    chunk,
    concat,
    filter_corpus,
    shuffle,
    write_jsonl,
)
from varieties.errors import CorpusFormatError, VarietiesError
from varieties.lexicons import default_manifest_path
from varieties.pipeline import CLASSIFICATION_TASKS, FEATURE_ROWS, output_lock, run_stage


def write_config(path: Path, **values) -> Path:
    lines = [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def strip_pos(corpus: Corpus) -> Corpus:
    return Corpus(
        sentences=tuple(
            AnnotatedSentence(
                tokens=tuple(Token(surface=t.surface) for t in s.tokens),
                variety=s.variety,
            )
            for s in corpus.sentences
        ),
        provenance=corpus.provenance,
    )


@pytest.fixture(scope="module")
def classify_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("classify_data")
    for variety in ("N", "NN", "T"):
        write_jsonl(variety_corpus(variety, 350, seed=5), root / f"{variety}.jsonl")
    return root


def classify_config(root: Path, tmp_path: Path, **extra) -> Path:
    values = dict(
        corpus_n=root / "N.jsonl",
        corpus_nn=root / "NN.jsonl",
        corpus_t=root / "T.jsonl",
        out=tmp_path / "out",
        seed=11,
        chunk_target=100,
        cv_folds=5,
        top_pos3=300,
        postok_min_count=5,
        # synthetic chunks are two orders of magnitude smaller than real ones,
        # so per-token frequencies need a larger soft-margin budget
        svm_c=50.0,
    )
    values.update(extra)
    return write_config(tmp_path / "run.cfg", **values)


class TestIngestStage:
    def test_outputs_and_stats(self, classify_dir, tmp_path):
        cfg = load_config(classify_config(classify_dir, tmp_path), env={})
        out = run_stage("ingest", cfg)
        stats = {row["variety"]: row for row in read_csv(out / "ingest" / "stats.csv")}
        assert set(stats) == {"N", "NN", "T"}
        assert int(stats["N"]["sentences"]) == 350
        assert (out / "ingest" / "N.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "ingest" in manifest["stages"]
        assert all(
            len(digest) == 64
            for digest in manifest["stages"]["ingest"]["outputs"].values()
        )

    def test_rerun_is_byte_identical(self, classify_dir, tmp_path):
        cfg_a = load_config(
            classify_config(classify_dir, tmp_path, out=tmp_path / "out_a"), env={}
        )
        cfg_b = load_config(
            write_config(
                tmp_path / "b.cfg",
                corpus_n=classify_dir / "N.jsonl",
                corpus_nn=classify_dir / "NN.jsonl",
                corpus_t=classify_dir / "T.jsonl",
                out=tmp_path / "out_b",
                seed=11,
                chunk_target=100,
                cv_folds=5,
                top_pos3=300,
            ),
            env={},
        )
        out_a = run_stage("ingest", cfg_a)
        out_b = run_stage("ingest", cfg_b)
        for rel in ("ingest/N.jsonl", "ingest/NN.jsonl", "ingest/T.jsonl",
                    "ingest/stats.csv"):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_nothing_configured(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path / "c.cfg", out=tmp_path / "out"), env={}
        )
        with pytest.raises(VarietiesError, match="nothing to ingest"):
            run_stage("ingest", cfg)

    def test_malformed_corpus_leaves_no_output(self, classify_dir, tmp_path, capsys):
        # N and NN are read and written before T is read
        bad = tmp_path / "T.jsonl"
        bad.write_text('{"tokens": ["a"]}\n{"tokens": [""]}\n')
        cfg_path = classify_config(classify_dir, tmp_path, corpus_t=bad)
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}:2: token surface must be nonempty and whitespace-free: ''\n"
        )
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_rerun_keeps_the_recorded_outputs(self, classify_dir, tmp_path):
        out = run_stage("ingest", load_config(classify_config(classify_dir, tmp_path), env={}))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        # the rerun writes a different N.jsonl before it fails on T
        write_jsonl(variety_corpus("N", 50, seed=6), tmp_path / "N.jsonl")
        (tmp_path / "T.jsonl").write_text('{"tokens": [""]}\n')
        cfg_path = classify_config(
            classify_dir, tmp_path, corpus_n=tmp_path / "N.jsonl", corpus_t=tmp_path / "T.jsonl"
        )
        with pytest.raises(CorpusFormatError):
            run_stage("ingest", load_config(cfg_path, env={}))
        recorded = json.loads((out / "manifest.json").read_text())["stages"]["ingest"]["outputs"]
        for rel, digest in recorded.items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


# sha256 of the classify and cluster stages' outputs on the classify_out and
# cluster_out fixtures, recorded when every fold recounted its chunks; any
# drift in counting, space selection, SVM training or formatting fails here
CLASSIFY_DIGESTS = {
    "classify/accuracy.csv": "2e25416f77bb7f59c8ef785ee8a17fd23f0db509b7d715ffdb37967d122bdc57",
    "classify/confusion.csv": "013f9a235fbb1e99b7cde19d618c0cfa0980d3cbd28fa84c27a14a644f6120e2",
    "classify/top_features.csv": "504145e684bb7a61bc1aea45ba2631a1b7c7b9c2c2bde450c9e8120407918028",
}
CLUSTER_DIGESTS = {
    "cluster/centroids_k2.csv": "6a2a9dfc6f0a00287d1c18be0209151aa90e5a1cb3c6e99c416c7e3c5c17393c",
    "cluster/centroids_k3.csv": "37b7750448434db0eb4970b2eefc3a9a15ba0cf0d22121766ec8b61258b5cce0",
    "cluster/scatter_k2.csv": "079cc77fb3f11119e4f2de56e3c52713656e1e5e095a726f76abd586a24084e3",
    "cluster/scatter_k3.csv": "ad7174dc4cd95bda9b9816fa656f43795a7e676858d750a6c22250ffec057197",
    "cluster/summary.json": "88e1657468fc390edc06b331985ef290f5f19b215869635d6a8387e18a3e5c51",
}


def assert_digests(out: Path, digests: dict) -> None:
    for rel, digest in digests.items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel


@pytest.fixture(scope="module")
def classify_out(classify_dir, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("classify_run")
    cfg = load_config(classify_config(classify_dir, tmp), env={})
    return run_stage("classify", cfg), cfg


class TestClassifyStage:
    def test_all_rows_and_tasks_present(self, classify_out):
        out, _ = classify_out
        rows = read_csv(out / "classify" / "accuracy.csv")
        assert len(rows) == 8 * 4
        assert {r["task"] for r in rows} == {"N-NN", "N-T", "NN-T", "3-way"}

    def test_synthetic_separable_accuracy(self, classify_out):
        out, _ = classify_out
        rows = read_csv(out / "classify" / "accuracy.csv")
        for row in rows:
            assert float(row["mean_accuracy"]) >= 0.95, (
                row["features"], row["task"], row["mean_accuracy"],
            )

    def test_confusion_totals(self, classify_out):
        out, _ = classify_out
        by_key = {}
        for row in read_csv(out / "classify" / "confusion.csv"):
            key = (row["features"], row["task"])
            by_key[key] = by_key.get(key, 0) + int(row["count"])
        totals = set(by_key.values())
        assert len(totals) <= 2  # one total for pairs, one for 3-way

    def test_outputs_match_recorded_digests(self, classify_out):
        out, _ = classify_out
        assert_digests(out, CLASSIFY_DIGESTS)

    def test_discriminative_signature_word_ranks_high(self, classify_out):
        out, _ = classify_out
        rows = read_csv(out / "classify" / "top_features.csv")
        nn_t = [
            r["feature"]
            for r in rows
            if r["features"] == "FW" and r["task"] == "NN-T"
        ]
        assert any(
            name in nn_t for name in ("FW:maybe", "FW:perhaps", "FW:very", "FW:which")
        )

    def test_missing_pos_yields_diagnostics_but_other_rows(
        self, classify_dir, tmp_path
    ):
        root = tmp_path / "untagged"
        root.mkdir()
        for variety in ("N", "NN", "T"):
            write_jsonl(
                strip_pos(variety_corpus(variety, 200, seed=3)),
                root / f"{variety}.jsonl",
            )
        cfg = load_config(classify_config(root, tmp_path, cv_folds=4), env={})
        out = run_stage("classify", cfg)
        diagnostics = read_csv(out / "classify" / "diagnostics.csv")
        assert {d["features"] for d in diagnostics} == {
            "POS3", "FW+POS3", "POS3+POSTOK", "FW+POS3+POSTOK",
        }
        accuracy_rows = read_csv(out / "classify" / "accuracy.csv")
        assert {r["features"] for r in accuracy_rows} == {
            "FW", "POSTOK", "COH", "FW+POSTOK",
        }
        # row-major: each feature row's tasks in order, failed rows left out
        rows = ["+".join(f) for f in FEATURE_ROWS if "POS3" not in f]
        tasks = ["3-way" if len(t) == 3 else "-".join(t) for t in CLASSIFICATION_TASKS]
        top = read_csv(out / "classify" / "top_features.csv")
        for lines, wanted in ((accuracy_rows, tasks), (top, [t for t in tasks if t != "3-way"])):
            keys = [key for key, _ in groupby((r["features"], r["task"]) for r in lines)]
            assert keys == [(row, task) for row in rows for task in wanted]

    def test_row_with_untagged_variety_fails_whole(self, tmp_path):
        # N and NN are tagged, so a POS3 row could finish its N-NN task
        # before reaching T; it must leave no row behind
        root = tmp_path / "t_untagged"
        root.mkdir()
        for variety in ("N", "NN", "T"):
            corpus = variety_corpus(variety, 200, seed=3)
            if variety == "T":
                corpus = strip_pos(corpus)
            write_jsonl(corpus, root / f"{variety}.jsonl")
        cfg = load_config(classify_config(root, tmp_path, cv_folds=4), env={})
        out = run_stage("classify", cfg)
        pos3_rows = {"POS3", "FW+POS3", "POS3+POSTOK", "FW+POS3+POSTOK"}
        diagnostics = read_csv(out / "classify" / "diagnostics.csv")
        assert {d["features"] for d in diagnostics} == pos3_rows
        assert all("untagged" in d["error"] for d in diagnostics)
        accuracy_rows = read_csv(out / "classify" / "accuracy.csv")
        assert len(accuracy_rows) == 4 * 4
        assert {r["features"] for r in accuracy_rows} == {
            "FW", "POSTOK", "COH", "FW+POSTOK",
        }
        for name in ("confusion.csv", "top_features.csv"):
            rows = read_csv(out / "classify" / name)
            assert not {r["features"] for r in rows} & pos3_rows, name

    def test_rerun_removes_the_outputs_it_no_longer_writes(self, tmp_path):
        # an untagged T leaves classify/diagnostics.csv; a rerun on tagged
        # data into the same directory writes none, and must not leave the
        # old one behind
        root = tmp_path / "data"
        root.mkdir()
        tagged = {v: variety_corpus(v, 200, seed=3) for v in ("N", "NN", "T")}
        for variety, corpus in tagged.items():
            write_jsonl(strip_pos(corpus) if variety == "T" else corpus, root / f"{variety}.jsonl")
        cfg = load_config(classify_config(root, tmp_path, cv_folds=4), env={})
        out = run_stage("classify", cfg)
        assert (out / "classify" / "diagnostics.csv").exists()
        write_jsonl(tagged["T"], root / "T.jsonl")
        run_stage("classify", cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        recorded = set(manifest["stages"]["classify"]["outputs"])
        assert "classify/diagnostics.csv" not in recorded
        files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        assert files - {"manifest.json"} == recorded

    @pytest.mark.parametrize("stage", ["classify", "cluster"])
    def test_file_holding_another_variety_is_a_validation_error(
        self, classify_dir, tmp_path, capsys, stage
    ):
        root = tmp_path / "mixed"
        root.mkdir()
        corpus = variety_corpus("N", 100, seed=5)
        stray = variety_corpus("T", 1, seed=5).sentences
        write_jsonl(Corpus(sentences=corpus.sentences + stray), root / "N.jsonl")
        cfg = classify_config(classify_dir, tmp_path, corpus_n=root / "N.jsonl", cv_folds=4)
        assert main([stage, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: {root / 'N.jsonl'}: the N corpus holds sentences of varieties N, T; "
            "each corpus file must hold one variety"
        ]
        assert not (tmp_path / "out" / stage).exists()

    def test_each_chunk_counted_once_per_family(self, tmp_path, monkeypatch):
        calls = Counter()
        names = ("_fw_table", "_pos3_table", "_postok_table", "_coh_table")

        def counted(name, count):
            def wrapper(counts, *lists):
                # one table over all chunks; FW and COH per word or phrase list
                for chunk in counts._chunks:
                    calls[(name, id(chunk)) + lists] += 1
                return count(counts, *lists)

            return wrapper

        for name in names:
            table = getattr(features.ChunkCounts, name)
            monkeypatch.setattr(features.ChunkCounts, name, counted(name, table))
        root = tmp_path / "small"
        root.mkdir()
        for variety in ("N", "NN", "T"):
            write_jsonl(variety_corpus(variety, 120, seed=5), root / f"{variety}.jsonl")
        cfg = load_config(classify_config(root, tmp_path, cv_folds=3), env={})
        run_stage("classify", cfg)
        assert {key[0] for key in calls} == set(names)
        assert max(calls.values()) == 1

    def test_balanced_chunks_hold_only_their_own_rows(self, tmp_path):
        # T is three times the others, so balance drops about two thirds of
        # its chunks: the chunks kept are those chunk and balance give, cut
        # from a copy of their own rows, with no shuffled corpus behind them
        root = tmp_path / "unbalanced"
        root.mkdir()
        for variety, size in (("N", 120), ("NN", 120), ("T", 360)):
            write_jsonl(variety_corpus(variety, size, seed=5), root / f"{variety}.jsonl")
        cfg = load_config(classify_config(root, tmp_path), env={})
        chunks, labels = pipeline_module._balanced_chunks(cfg)
        expected = balance(
            {
                v: chunk(shuffle(pipeline_module._one_variety(cfg, v), cfg.seed), cfg.chunk_target)
                for v in ("N", "NN", "T")
            },
            cfg.seed,
        )
        assert labels == [v for v in sorted(expected) for _ in expected[v]]
        assert [c.sentences for c in chunks] == [
            c.sentences for v in sorted(expected) for c in expected[v]
        ]
        origins = {id(c.origin[0]): c.origin[0] for c in chunks}
        assert len(origins) == 3
        assert sum(len(o.ptr) - 1 for o in origins.values()) == sum(len(c) for c in chunks)

    def test_too_few_chunks_for_the_folds_is_a_validation_error(
        self, tmp_path, capsys
    ):
        # 50 sentences make 6 chunks per variety at chunk_target 100, so a
        # pairwise task holds 12 chunks: one fewer than 13 folds need
        root = tmp_path / "tiny"
        root.mkdir()
        for variety in ("N", "NN", "T"):
            write_jsonl(variety_corpus(variety, 50, seed=5), root / f"{variety}.jsonl")
        cfg = classify_config(root, tmp_path, cv_folds=13)
        assert main(["classify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "cv_folds = 13" in err
        assert "6 chunks per variety" in err
        assert "chunk_target = 100" in err
        out = tmp_path / "out"
        assert not (out / "classify").exists()
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("stage", ["classify", "cluster"])
    def test_variety_too_small_for_one_chunk_is_a_validation_error(
        self, classify_dir, tmp_path, capsys, stage
    ):
        # three T sentences hold fewer than half of chunk_target = 100 tokens,
        # so chunking T yields nothing
        small_t = variety_corpus("T", 3, seed=5)
        assert small_t.token_count < 50
        root = tmp_path / "small_t"
        root.mkdir()
        write_jsonl(small_t, root / "T.jsonl")
        cfg = classify_config(
            classify_dir, tmp_path, corpus_t=root / "T.jsonl", cv_folds=4
        )
        assert main([stage, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert (
            f"error: variety T has {small_t.token_count} tokens, under half of "
            "chunk_target = 100"
        ) in err
        assert "Traceback" not in err
        out = tmp_path / "out"
        assert not (out / "classify").exists()
        assert not (out / "cluster").exists()
        assert not (out / ".lock").exists()


@pytest.fixture(scope="module")
def cluster_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cluster_run")
    data = tmp / "data"
    data.mkdir()
    for variety, corpus in clustering_corpora(320, seed=2).items():
        write_jsonl(corpus, data / f"{variety}.jsonl")
    cfg = load_config(
        write_config(
            tmp / "run.cfg",
            corpus_n=data / "N.jsonl",
            corpus_nn=data / "NN.jsonl",
            corpus_t=data / "T.jsonl",
            out=tmp / "out",
            seed=4,
            chunk_target=100,
        ),
        env={},
    )
    return run_stage("cluster", cfg)


class TestClusterStage:
    def test_outputs_match_recorded_digests(self, cluster_out):
        assert_digests(cluster_out, CLUSTER_DIGESTS)

    def test_summary_and_accuracy(self, cluster_out):
        summary = json.loads((cluster_out / "cluster" / "summary.json").read_text())
        assert summary["k3"]["accuracy"] >= 0.90
        # two clusters over three balanced classes: a perfect N | NN+T split
        # scores exactly 2/3 under injective matching
        assert summary["k2"]["accuracy"] == pytest.approx(2 / 3, abs=0.05)
        assert summary["explained_variance"][0] >= summary["explained_variance"][1]

    def test_k2_groups_constrained_pair(self, cluster_out):
        rows = read_csv(cluster_out / "cluster" / "scatter_k2.csv")
        clusters_of = {}
        for row in rows:
            clusters_of.setdefault(row["true_label"], []).append(row["cluster"])

        def dominant(label):
            values = clusters_of[label]
            return max(set(values), key=values.count)

        assert dominant("NN") == dominant("T")
        assert dominant("N") != dominant("NN")

    def test_scatter_has_centroids_and_coords(self, cluster_out):
        summary = json.loads((cluster_out / "cluster" / "summary.json").read_text())
        for k in (2, 3):
            path = cluster_out / "cluster" / f"scatter_k{k}.csv"
            header = path.read_text().splitlines()[0]
            assert header == "chunk_id,x,y,cluster,true_label,correct"
            # a chunk is correct when its cluster maps to its true label
            label_map = summary[f"k{k}"]["label_map"]
            scatter = read_csv(path)
            for row in scatter:
                correct = label_map.get(row["cluster"]) == row["true_label"]
                assert row["correct"] == str(int(correct))
            hits = sum(row["correct"] == "1" for row in scatter)
            assert hits / len(scatter) == summary[f"k{k}"]["accuracy"]
            centroids = read_csv(cluster_out / "cluster" / f"centroids_k{k}.csv")
            assert len(centroids) == k

    def test_rerun_is_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for variety, corpus in clustering_corpora(120, seed=9).items():
            write_jsonl(corpus, data / f"{variety}.jsonl")
        outputs = []
        for run in ("one", "two"):
            cfg = load_config(
                write_config(
                    tmp_path / f"{run}.cfg",
                    corpus_n=data / "N.jsonl",
                    corpus_nn=data / "NN.jsonl",
                    corpus_t=data / "T.jsonl",
                    out=tmp_path / run,
                    seed=4,
                    chunk_target=80,
                ),
                env={},
            )
            outputs.append(run_stage("cluster", cfg))
        for rel in (
            "cluster/scatter_k3.csv",
            "cluster/scatter_k2.csv",
            "cluster/centroids_k3.csv",
            "cluster/summary.json",
        ):
            assert (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes()


# sha256 of the metrics stage's outputs on the metrics_data corpora at two
# seeds, recorded from the corpus-by-corpus implementation that the
# per-sentence statistics replaced; any drift in metric values, resample
# draws or formatting fails here
METRICS_DIGESTS = {
    8: {
        "metrics/metrics.csv": "5801af10e6312396b819a5869fd445a284c087738653fb1e17e724593415572c",
        "metrics/metrics.json": "76d1409dbeadf2323603d32c957543ec5ee48061b008f074578275a15e469511",
    },
    3: {
        "metrics/metrics.csv": "24e6f548f6cf5ca2fd1d2b3319851d4372c20f4e0e8acc21c0dcf4759ede5a5c",
        "metrics/metrics.json": "c57fe030045c2584aa4c682a2888a5f800f6209c866d4a9954825479264f6cd1",
    },
}


@pytest.fixture(scope="module")
def metrics_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("metrics_data")
    for variety in ("N", "NN", "T"):
        write_jsonl(metrics_corpus(variety, 260, seed=6), data / f"{variety}.jsonl")
    return data


def metrics_config(data: Path, tmp: Path, **extra) -> Path:
    values = dict(
        corpus_n=data / "N.jsonl",
        corpus_nn=data / "NN.jsonl",
        corpus_t=data / "T.jsonl",
        out=tmp / "out",
        seed=8,
        bootstrap_iterations=150,
    )
    values.update(extra)
    return write_config(tmp / "run.cfg", **values)


@pytest.fixture(scope="module")
def metrics_out(metrics_data, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("metrics_run")
    return run_stage("metrics", load_config(metrics_config(metrics_data, tmp), env={}))


class TestMetricsStage:
    def test_five_metrics_reported(self, metrics_out):
        rows = read_csv(metrics_out / "metrics" / "metrics.csv")
        assert {r["metric"] for r in rows} == {
            "lexical_richness",
            "mean_word_rank",
            "collocation_types",
            "transitions",
            "pronouns",
        }
        for row in rows:
            total = (
                float(row["norm_N"]) + float(row["norm_T"]) + float(row["norm_NN"])
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_engineered_contrasts_are_starred(self, metrics_out):
        payload = json.loads((metrics_out / "metrics" / "metrics.json").read_text())
        for metric in ("lexical_richness", "pronouns", "collocation_types",
                       "mean_word_rank"):
            assert payload[metric]["d_dif"]["significant"], metric
            assert payload[metric]["d_total"]["p_is_upper_bound"], metric

    @pytest.mark.parametrize("seed", sorted(METRICS_DIGESTS))
    def test_outputs_match_recorded_digests(self, metrics_data, tmp_path, seed):
        cfg = load_config(metrics_config(metrics_data, tmp_path, seed=seed), env={})
        out = run_stage("metrics", cfg)
        assert_digests(out, METRICS_DIGESTS[seed])

    def test_untagged_token_fails_the_run(self, tmp_path, capsys):
        data = tmp_path / "untagged"
        data.mkdir()
        for variety in ("N", "NN", "T"):
            corpus = metrics_corpus(variety, 60, seed=4)
            if variety == "NN":
                sentences = list(corpus.sentences)
                tokens = list(sentences[5].tokens)
                tokens[2] = Token(surface=tokens[2].surface)
                sentences[5] = AnnotatedSentence(tokens=tuple(tokens), variety="NN")
                corpus = Corpus(sentences=tuple(sentences))
                untagged = tokens[2].surface
            write_jsonl(corpus, data / f"{variety}.jsonl")
        cfg_path = metrics_config(data, tmp_path, bootstrap_iterations=5)
        assert main(["metrics", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert (
            f"error: {data / 'NN.jsonl'}: untagged token: sentence 5, token 2 "
            f"{untagged!r} is missing its POS tag"
        ) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "metrics").exists()
        assert not (tmp_path / "out" / ".lock").exists()

    def test_file_holding_another_variety_is_a_validation_error(self, tmp_path, capsys):
        # sizes the equal-size guard accepts, so only the stray T records fail
        data = tmp_path / "mixed"
        data.mkdir()
        for variety in ("N", "NN", "T"):
            write_jsonl(metrics_corpus(variety, 60, seed=4), data / f"{variety}.jsonl")
        stray = metrics_corpus("T", 5, seed=4).sentences
        n = Corpus(sentences=metrics_corpus("N", 55, seed=4).sentences + stray)
        write_jsonl(n, data / "N.jsonl")
        cfg_path = metrics_config(data, tmp_path, bootstrap_iterations=5)
        assert main(["metrics", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data / 'N.jsonl'}: the N corpus holds sentences of varieties N, T; "
            "each corpus file must hold one variety"
        ]
        assert not (tmp_path / "out" / "metrics").exists()

    def test_untagged_token_error_names_its_file(self, tmp_path, capsys):
        # T is laid after N and NN; its sentence is counted within T's file
        data = tmp_path / "untagged"
        data.mkdir()
        for variety in ("N", "NN", "T"):
            corpus = metrics_corpus(variety, 60, seed=4)
            if variety == "T":
                sentences = list(corpus.sentences)
                tokens = list(sentences[41].tokens)
                tokens[0] = Token(surface=tokens[0].surface)
                sentences[41] = AnnotatedSentence(tokens=tuple(tokens), variety="T")
                corpus = Corpus(sentences=tuple(sentences))
                untagged = tokens[0].surface
            write_jsonl(corpus, data / f"{variety}.jsonl")
        cfg_path = metrics_config(data, tmp_path, bootstrap_iterations=5)
        assert main(["metrics", "--config", str(cfg_path)]) == 1
        assert (
            f"error: {data / 'T.jsonl'}: untagged token: sentence 41, token 0 "
            f"{untagged!r} is missing its POS tag"
        ) in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize(
        "resource,text,message",
        [
            (
                "idioms",
                "zzqx never\n",
                "collocation_types: cannot normalize an all-zero metric triple",
            ),
            (
                "word_ranks",
                "zzqx\t1\n",
                "{data}/N.jsonl: mean_word_rank: no token is covered by the rank list",
            ),
            (
                "cohesive_markers",
                "thus\tother\n",
                "transitions: empty transition-marker list (no sentence_transition marker)",
            ),
        ],
        ids=["no_idiom_occurs", "no_ranked_token", "no_transition_marker"],
    )
    def test_data_no_metric_can_summarise_is_a_validation_error(
        self, tmp_path, capsys, resource, text, message
    ):
        data = tmp_path / "data"
        data.mkdir()
        for variety in ("N", "NN", "T"):
            write_jsonl(metrics_corpus(variety, 60, seed=4), data / f"{variety}.jsonl")
        shipped = default_manifest_path()
        entries = {
            key: str(shipped.parent / name)
            for key, name in json.loads(shipped.read_text()).items()
        }
        entries[resource] = str(tmp_path / "list.txt")
        (tmp_path / "list.txt").write_text(text)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        cfg_path = metrics_config(data, tmp_path, bootstrap_iterations=5, resources=manifest)
        assert main(["metrics", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: " + message.format(data=data)
        ]
        assert not (tmp_path / "out" / "metrics").exists()

    def test_null_corpora_earn_no_stars(self, tmp_path):
        data = tmp_path / "null"
        data.mkdir()
        for variety, seed in (("N", 21), ("NN", 22), ("T", 23)):
            write_jsonl(
                metrics_corpus(variety, 220, seed=seed, null=True),
                data / f"{variety}.jsonl",
            )
        cfg = load_config(
            write_config(
                tmp_path / "run.cfg",
                corpus_n=data / "N.jsonl",
                corpus_nn=data / "NN.jsonl",
                corpus_t=data / "T.jsonl",
                out=tmp_path / "out",
                seed=9,
                bootstrap_iterations=150,
            ),
            env={},
        )
        out = run_stage("metrics", cfg)
        payload = json.loads((out / "metrics" / "metrics.json").read_text())
        starred = [m for m, entry in payload.items() if entry["d_dif"]["significant"]]
        assert starred == []

    def test_size_guard_blocks_mismatched_corpora(self, tmp_path):
        data = tmp_path / "sizes"
        data.mkdir()
        write_jsonl(metrics_corpus("N", 260, seed=1), data / "N.jsonl")
        write_jsonl(metrics_corpus("NN", 150, seed=2), data / "NN.jsonl")
        write_jsonl(metrics_corpus("T", 260, seed=3), data / "T.jsonl")
        cfg = load_config(
            write_config(
                tmp_path / "run.cfg",
                corpus_n=data / "N.jsonl",
                corpus_nn=data / "NN.jsonl",
                corpus_t=data / "T.jsonl",
                out=tmp_path / "out",
            ),
            env={},
        )
        with pytest.raises(VarietiesError, match="NN"):
            run_stage("metrics", cfg)


# sha256 of the lm stage's outputs on the lm_out fixture, recorded when
# Kneser-Ney counting ran on tuple-keyed dicts; ttest.json holds full-precision
# floats, so it catches last-bit drift the 7-decimal ARPA text hides
LM_DIGESTS = {
    "lm/germanic_t.arpa": "3beed494e011cd5f2e22a60edc8275440759df5a21748f59727d8a69e9d16321",
    "lm/romance_t.arpa": "3ef0aed71d2736554fa25d5c65e10e492e5004283bdeda9939a0fa0f7991bec1",
    "lm/perplexity.csv": "f2aa550408103230cc5c485b3627e159cfc18a685b9fe6d606138202e7267143",
    "lm/ttest.json": "e7bd9048c8a53d5653e8ed3cdad196850513f1189929a3f6d6be2dc41f47dc4a",
    "lm/countries.csv": "791434215e30a225bd3d8b9273000efff53cbdd425fce62df88baf784195d66a",
}


@pytest.fixture(scope="module")
def lm_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lm_run")
    data = tmp / "data"
    data.mkdir()
    nn = concat(
        [
            lm_family_corpus("NN", "Germanic", 700, seed=31),
            lm_family_corpus("NN", "Romance", 700, seed=32),
        ]
    )
    t = concat(
        [
            lm_family_corpus("T", "Germanic", 1600, seed=33),
            lm_family_corpus("T", "Romance", 1600, seed=34),
        ]
    )
    write_jsonl(nn, data / "NN.jsonl")
    write_jsonl(t, data / "T.jsonl")
    cfg = load_config(
        write_config(
            tmp / "run.cfg",
            corpus_nn=data / "NN.jsonl",
            corpus_t=data / "T.jsonl",
            out=tmp / "out",
            seed=3,
            lm_order=3,
            lm_train_tokens=12000,
            lm_test_sentences=600,
            lm_country_sentences=60,
        ),
        env={},
    )
    return run_stage("lm", cfg)


class TestLmStage:
    def test_table_and_family_ordering(self, lm_out):
        rows = read_csv(lm_out / "lm" / "perplexity.csv")
        table = {(r["model"], r["test_set"]): float(r["perplexity"]) for r in rows}
        assert len(table) == 4
        assert table[("GerT", "GerNN")] < table[("RomT", "GerNN")]
        assert table[("RomT", "RomNN")] < table[("GerT", "RomNN")]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_a_model_trains_beside_t_tags_alone(self, tmp_path, monkeypatch):
        # while a model trains the stage holds T's tag column and that
        # family's training tags: about 20 B per T token here, against 32
        # with all of T's columns and both families' tags
        t = concat(
            lm_family_corpus("T", family, 2500, seed=33 + i)
            for i, family in enumerate(("Germanic", "Romance"))
        )
        nn = concat(
            lm_family_corpus("NN", family, 300, seed=41 + i)
            for i, family in enumerate(("Germanic", "Romance"))
        )
        write_jsonl(t, tmp_path / "T.jsonl")
        write_jsonl(nn, tmp_path / "NN.jsonl")
        cfg = load_config(
            write_config(
                tmp_path / "run.cfg",
                corpus_nn=tmp_path / "NN.jsonl",
                corpus_t=tmp_path / "T.jsonl",
                out=tmp_path / "out",
                lm_order=3,
                lm_train_tokens=20000,
                lm_test_sentences=250,
                lm_country_sentences=40,
            ),
            env={},
        )
        held = []
        train = poslm.train_lm

        def recording(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return train(*args, **kwargs)

        monkeypatch.setattr(poslm, "train_lm", recording)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_stage("lm", cfg)
        finally:
            if started:
                tracemalloc.stop()
        assert len(held) == 2
        assert all((h - before) / t.token_count < 26 for h in held)

    def test_ttest_reported_per_family(self, lm_out):
        payload = json.loads((lm_out / "lm" / "ttest.json").read_text())
        assert set(payload) == {"GerNN", "RomNN"}
        assert payload["GerNN"]["better_model"] == "GerT"
        assert payload["RomNN"]["better_model"] == "RomT"
        for entry in payload.values():
            assert 0 <= entry["p_value"] <= 1

    def test_country_scatter_sides(self, lm_out):
        rows = read_csv(lm_out / "lm" / "countries.csv")
        assert len(rows) == 9
        for row in rows:
            ger, rom = float(row["ppl_gert"]), float(row["ppl_romt"])
            if row["family"] == "Romance":
                assert rom < ger, row
            else:
                assert ger < rom, row

    def test_arpa_models_written(self, lm_out):
        for family in ("germanic", "romance"):
            assert (lm_out / "lm" / f"{family}_t.arpa").exists()

    def test_outputs_match_recorded_digests(self, lm_out):
        assert_digests(lm_out, LM_DIGESTS)

    def _small_run(self, tmp_path, nn_sentences, t=None, **extra):
        data = tmp_path / "data"
        data.mkdir()
        write_jsonl(concat(nn_sentences), data / "NN.jsonl")
        if t is None:
            t = concat(
                [
                    lm_family_corpus("T", "Germanic", 400, seed=43),
                    lm_family_corpus("T", "Romance", 400, seed=44),
                ]
            )
        write_jsonl(t, data / "T.jsonl")
        values = dict(
            corpus_nn=data / "NN.jsonl",
            corpus_t=data / "T.jsonl",
            out=tmp_path / "out",
            seed=3,
            lm_order=3,
            lm_train_tokens=3000,
            lm_test_sentences=200,
            lm_country_sentences=40,
        )
        values.update(extra)
        return main(["lm", "--config", str(write_config(tmp_path / "run.cfg", **values))])

    def test_countries_come_from_nn_sentences_only(self, tmp_path):
        # every SE sentence of the NN file is declared native
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        nn[0] = Corpus(
            sentences=tuple(
                AnnotatedSentence(tokens=s.tokens, variety="N", country="SE")
                if s.country == "SE"
                else s
                for s in nn[0].sentences
            )
        )
        assert any(s.variety == "N" for s in nn[0].sentences)
        assert self._small_run(tmp_path, nn) == 0
        rows = read_csv(tmp_path / "out" / "lm" / "countries.csv")
        assert len(rows) == 8
        assert "SE" not in {row["country"] for row in rows}

    def test_too_few_test_sentences_is_a_validation_error(self, tmp_path, capsys):
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        assert self._small_run(tmp_path, nn, lm_test_sentences=100) == 1
        err = capsys.readouterr().err
        assert (
            "Germanic NN test set has 100 sentences (lm_test_sentences = 100); "
            "the paired t-test needs at least 2 chunks of 100 sentences"
        ) in err
        assert not (tmp_path / "out" / "lm").exists()

    @staticmethod
    def _untag(corpus: Corpus, index: int, position: int) -> tuple[Corpus, str]:
        """``corpus`` with the POS tag of one token removed, and its surface."""
        sentences = list(corpus.sentences)
        sent = sentences[index]
        tokens = list(sent.tokens)
        tokens[position] = Token(surface=tokens[position].surface)
        sentences[index] = AnnotatedSentence(
            tokens=tuple(tokens), variety=sent.variety, country=sent.country
        )
        return Corpus(sentences=tuple(sentences)), tokens[position].surface

    def _assert_untagged_run_left_nothing(
        self, tmp_path, capsys, corpus, sentence, position, surface
    ):
        # the sentence is counted within the file the stage read
        err = capsys.readouterr().err
        assert (
            f"error: {tmp_path / 'data' / corpus}: untagged token: sentence "
            f"{sentence}, token {position} {surface!r} is missing its POS tag"
        ) in err.splitlines()
        assert "Traceback" not in err
        out = tmp_path / "out"
        assert not (out / "lm").exists()
        assert not (out / ".lock").exists()

    @pytest.mark.filterwarnings("ignore:.*running scaled down:UserWarning")
    def test_untagged_training_token_fails_before_any_model_is_written(
        self, tmp_path, capsys
    ):
        # the Germanic model could be trained and written before the Romance
        # training tags are read; no model may be left behind
        romance, surface = self._untag(
            lm_family_corpus("T", "Romance", 400, seed=44), 7, 1
        )
        t = concat([lm_family_corpus("T", "Germanic", 400, seed=43), romance])
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        # every T sentence is read: the training budget exceeds both families
        assert self._small_run(tmp_path, nn, t=t, lm_train_tokens=10**6) == 1
        self._assert_untagged_run_left_nothing(tmp_path, capsys, "T.jsonl", 407, 1, surface)

    @pytest.mark.filterwarnings("ignore:.*running scaled down:UserWarning")
    def test_out_of_tagset_training_tag_is_a_validation_error(self, tmp_path, capsys):
        romance = lm_family_corpus("T", "Romance", 400, seed=44)
        sentences = list(romance.sentences)
        sent = sentences[7]
        tokens = list(sent.tokens)
        tokens[0] = Token(surface=tokens[0].surface, pos="XYZ")
        sentences[7] = AnnotatedSentence(
            tokens=tuple(tokens), variety=sent.variety, country=sent.country
        )
        t = concat(
            [lm_family_corpus("T", "Germanic", 400, seed=43), Corpus(sentences=tuple(sentences))]
        )
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        # every T sentence is read: the training budget exceeds both families
        assert self._small_run(tmp_path, nn, t=t, lm_train_tokens=10**6) == 1
        err = capsys.readouterr().err
        assert "error: Romance T training set: tag 'XYZ' is not in the tagset" in err
        assert "Traceback" not in err
        out = tmp_path / "out"
        assert not (out / "lm").exists()
        assert not (out / ".lock").exists()

    @staticmethod
    def _drawn_rows(nn: Corpus) -> tuple[set[int], set[int]]:
        """The rows of the NN file that ``_small_run``'s family test sets and
        country slices draw, replayed on a corpus whose sentence i is the one
        token "i"."""
        marked = Corpus(
            AnnotatedSentence((Token(str(i)),), s.variety, s.country)
            for i, s in enumerate(nn.sentences)
        )

        def drawn(corpus, n):
            return {int(s.tokens[0].surface) for s in shuffle(corpus, 3).sentences[:n]}

        test_sets, slices = set(), set()
        for family in ("Germanic", "Romance"):
            family_set = filter_corpus(marked, variety="NN", family=family)
            test_sets |= drawn(family_set, 200)
            for country in family_set.countries():
                slices |= drawn(filter_corpus(marked, variety="NN", country=country), 40)
        return test_sets, slices

    def test_untagged_country_token_fails_before_any_output_is_written(
        self, tmp_path, capsys
    ):
        # a sentence drawn into its country's slice (40 sentences at seed 3)
        # but not into its family's test set (200 of 300) was read at the
        # parent only for the per-country table, after the models and
        # perplexity tables
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        test_sets, slices = self._drawn_rows(concat(nn))
        index = min(slices - test_sets)
        nn[0], surface = self._untag(nn[0], index, 0)
        assert self._small_run(tmp_path, nn) == 1
        self._assert_untagged_run_left_nothing(tmp_path, capsys, "NN.jsonl", index, 0, surface)

    def test_each_nn_sentence_is_scored_once_per_model(self, tmp_path, monkeypatch):
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        sentences = concat(nn).sentences
        test_sets, slices = self._drawn_rows(concat(nn))
        # scoring each set on its own would score these sentences twice
        assert test_sets & slices
        received = []

        def counting(score):
            def counted(model, tag_sentences, *args):
                received.append(sum(map(len, tag_sentences)))
                return score(model, tag_sentences, *args)

            return counted

        for name in ("ppl", "ppl_by_chunks"):
            monkeypatch.setattr(
                pipeline_module.poslm, name, counting(getattr(pipeline_module.poslm, name))
            )
        assert self._small_run(tmp_path, nn) == 0
        drawn_tokens = sum(sentences[i].token_count for i in test_sets | slices)
        assert received == [drawn_tokens, drawn_tokens]

    def test_untagged_token_that_no_set_draws_is_not_read(self, tmp_path):
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        test_sets, slices = self._drawn_rows(concat(nn))
        undrawn = min(set(range(300, 600)) - test_sets - slices)
        nn[1], _surface = self._untag(nn[1], undrawn - 300, 0)
        assert self._small_run(tmp_path, nn) == 0
        assert (tmp_path / "out" / "lm" / "countries.csv").exists()

    def test_untagged_test_set_token_names_the_nn_file(self, tmp_path, capsys):
        # two untagged sentences of the Romance test set: the first in the
        # file is named, counted from the start of the file
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        test_sets, _slices = self._drawn_rows(concat(nn))
        romance_rows = sorted(i for i in test_sets if i >= 300)
        nn[1], _surface = self._untag(nn[1], romance_rows[-1] - 300, 1)
        nn[1], surface = self._untag(nn[1], romance_rows[0] - 300, 2)
        assert self._small_run(tmp_path, nn) == 1
        self._assert_untagged_run_left_nothing(
            tmp_path, capsys, "NN.jsonl", romance_rows[0], 2, surface
        )

    def test_untagged_training_token_names_the_t_file(self, tmp_path, capsys):
        # of two untagged Germanic T sentences, the earlier one in the file is
        # not in the 3000-token training prefix and is not read
        germanic = lm_family_corpus("T", "Germanic", 400, seed=43)
        marked = Corpus(
            AnnotatedSentence((Token(str(i)),), "T", s.country)
            for i, s in enumerate(germanic.sentences)
        )
        order = [int(s.tokens[0].surface) for s in shuffle(marked, 3).sentences]
        lengths = [germanic.sentences[i].token_count for i in order]
        kept = next(k for k in range(1, 401) if sum(lengths[:k]) >= 3000)
        prefix = set(order[:kept])
        outside = min(set(range(400)) - prefix)
        inside = min(i for i in prefix if i > outside)
        germanic, _surface = self._untag(germanic, outside, 0)
        germanic, surface = self._untag(germanic, inside, 1)
        t = concat([germanic, lm_family_corpus("T", "Romance", 400, seed=44)])
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        assert self._small_run(tmp_path, nn, t=t) == 1
        self._assert_untagged_run_left_nothing(tmp_path, capsys, "T.jsonl", inside, 1, surface)

    def test_zero_variance_t_test_is_a_validation_error(self, tmp_path, capsys):
        # the Romance T sentences repeat the Germanic ones' tag sequences, so
        # the two models are one model and every paired difference is 0
        germanic = lm_family_corpus("T", "Germanic", 400, seed=43)
        romance_of = {"AT": "FR", "DE": "IT", "NL": "ES", "SE": "PT"}
        romance = Corpus(
            AnnotatedSentence(s.tokens, "T", romance_of[s.country])
            for s in germanic.sentences
        )
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        assert self._small_run(tmp_path, nn, t=concat([germanic, romance])) == 1
        err = capsys.readouterr().err
        assert (
            "error: Germanic NN test set: the GerT and RomT chunk perplexities "
            "give no paired t-test: differences have zero variance; t is undefined"
        ) in err.splitlines()
        assert "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_t_test_leaves_no_model(self, tmp_path, monkeypatch):
        # the models are written before they are scored; paired_ttest raises
        # ValueError when the perplexity differences have zero variance
        def zero_variance(first, second):
            raise ValueError("zero variance")

        monkeypatch.setattr(pipeline_module.boot, "paired_ttest", zero_variance)
        nn = [
            lm_family_corpus("NN", "Germanic", 300, seed=41),
            lm_family_corpus("NN", "Romance", 300, seed=42),
        ]
        assert self._small_run(tmp_path, nn) == 2
        assert list((tmp_path / "out").iterdir()) == []


class TestReportStage:
    def test_report_and_manifest(self, classify_dir, tmp_path):
        cfg = load_config(classify_config(classify_dir, tmp_path), env={})
        run_stage("ingest", cfg)
        run_stage("report", cfg)
        out = Path(cfg.out)
        report = (out / "report.md").read_text()
        assert "## ingest" in report
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "ingest/stats.csv" in manifest["files"]
        assert all(len(d) == 64 for d in manifest["files"].values())

    def test_missing_stage_output_named(self, classify_dir, tmp_path):
        cfg = load_config(classify_config(classify_dir, tmp_path), env={})
        run_stage("ingest", cfg)
        (Path(cfg.out) / "ingest" / "stats.csv").unlink()
        with pytest.raises(VarietiesError, match="ingest: ingest/stats.csv"):
            run_stage("report", cfg)

    def test_edited_stage_output_named(self, classify_dir, tmp_path, capsys):
        cfg_path = classify_config(classify_dir, tmp_path)
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        with open(out / "ingest" / "stats.csv", "a", encoding="utf-8") as fh:
            fh.write("X,1,1,1\n")
        assert main(["report", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: stage outputs whose sha256 is not the one manifest.json records: "
            "ingest: ingest/stats.csv\n"
        )
        assert not (out / "report.md").exists()

    @pytest.mark.parametrize("change", ["edit", "delete"])
    def test_report_reruns_after_its_own_outputs_change(self, classify_dir, tmp_path, change):
        cfg = load_config(classify_config(classify_dir, tmp_path), env={})
        run_stage("ingest", cfg)
        run_stage("report", cfg)
        out = Path(cfg.out)
        first = {name: (out / name).read_bytes() for name in ("report.md", "run_manifest.json")}
        for name in first:
            if change == "edit":
                with open(out / name, "a", encoding="utf-8") as fh:
                    fh.write("edited\n")
            else:
                (out / name).unlink()
        run_stage("report", cfg)
        # a report lists the other stages' outputs only, so a rerun rewrites
        # the first run's bytes
        assert {name: (out / name).read_bytes() for name in first} == first

    def test_report_without_stages_rejected(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path / "c.cfg", out=tmp_path / "out"), env={}
        )
        with pytest.raises(VarietiesError, match="no stage outputs"):
            run_stage("report", cfg)


class TestLocking:
    def test_lock_excludes_second_run(self, classify_dir, tmp_path):
        cfg = load_config(classify_config(classify_dir, tmp_path), env={})
        out_dir = Path(cfg.out)
        with output_lock(out_dir):
            with pytest.raises(VarietiesError, match="locked"):
                run_stage("ingest", cfg)

    def test_lock_released_after_stage(self, classify_dir, tmp_path):
        cfg = load_config(classify_config(classify_dir, tmp_path), env={})
        run_stage("ingest", cfg)
        assert not (Path(cfg.out) / ".lock").exists()

    def test_dead_run_lock_is_reclaimed(self, classify_dir, tmp_path):
        cfg = load_config(classify_config(classify_dir, tmp_path), env={})
        out_dir = Path(cfg.out)
        (out_dir / ".staging" / "ingest").mkdir(parents=True)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        (out_dir / ".lock").write_text(str(child.pid))
        leftover = out_dir / ".staging" / "ingest" / "stats.csv"
        leftover.write_text("half-written")
        run_stage("ingest", cfg)
        assert not leftover.exists()
        assert (out_dir / "ingest" / "stats.csv").exists()
        assert not (out_dir / ".lock").exists()

    def test_failed_write_leaves_no_temp_file(self, classify_dir, tmp_path, monkeypatch):
        cfg = load_config(classify_config(classify_dir, tmp_path), env={})
        out = run_stage("ingest", cfg)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def fill(tmp):
            tmp.write_text("half-written")
            raise OSError("disk full")

        def body(config, stage, resources):
            stage.write("ingest/stats.csv", fill)

        monkeypatch.setitem(pipeline_module.STAGES, "ingest", body)
        with pytest.raises(OSError, match="disk full"):
            run_stage("ingest", cfg)
        # no temp file is left, and the earlier outputs keep their bytes
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_dead_run_takeover_keeps_files_it_did_not_stage(self, classify_dir, tmp_path):
        cfg = load_config(classify_config(classify_dir, tmp_path), env={})
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        (out_dir / ".lock").write_text(str(child.pid))
        notes = out_dir / "notes.tmp"
        notes.write_text("not the pipeline's")
        run_stage("ingest", cfg)
        assert notes.read_text() == "not the pipeline's"

    @pytest.mark.parametrize("holder", ["live pid", "no pid yet"])
    def test_live_or_unreadable_lock_blocks(self, classify_dir, tmp_path, holder):
        cfg = load_config(classify_config(classify_dir, tmp_path), env={})
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True)
        lock = out_dir / ".lock"
        lock.write_text(str(os.getpid()) if holder == "live pid" else "")
        with pytest.raises(VarietiesError, match="locked"):
            run_stage("ingest", cfg)
        assert lock.exists()


def _files(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def assert_one_run(out: Path) -> None:
    """Every file under ``out`` but manifest.json is an output it records,
    with the recorded sha256, and nothing staged or locked is left."""
    assert not (out / ".staging").exists() and not (out / ".lock").exists()
    recorded = {
        rel: digest
        for entry in json.loads((out / "manifest.json").read_text())["stages"].values()
        for rel, digest in entry["outputs"].items()
    }
    files = {rel: hashlib.sha256(data).hexdigest() for rel, data in _files(out).items()}
    del files["manifest.json"]
    assert files == recorded


# the child runs a stage and is killed at the k-th rename (argv: config, k)
KILLED_AT_RENAME = """
import os, signal, sys
from varieties import pipeline
from varieties.config import load_config
renames = 0
real = os.replace
def replace(src, dst):
    global renames
    renames += 1
    if renames == int(sys.argv[2]):
        os.kill(os.getpid(), signal.SIGKILL)
    real(src, dst)
pipeline.os.replace = replace
pipeline.run_stage("classify", load_config(sys.argv[1], env={}))
"""


@pytest.fixture(scope="module")
def classify_rerun(classify_dir, tmp_path_factory):
    """A classify run at seed 11, the files of a rerun of it at seed 12, and
    how many renames that rerun makes."""
    tmp = tmp_path_factory.mktemp("classify_rerun")
    first = run_stage("classify", load_config(classify_config(classify_dir, tmp), env={}))
    second = tmp / "second"
    shutil.copytree(first, second)
    cfg = load_config(classify_config(classify_dir, tmp, out=second, seed=12), env={})
    renames = []
    real = os.replace
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module.os, "replace", lambda *a: renames.append(a) or real(*a))
        run_stage("classify", cfg)
    return first, _files(second), len(renames)


class TestInterruptedCommit:
    """A classify rerun at a new seed cut short at each of its renames leaves
    one run in out, the previous one before the commit point and the new one
    after it, which manifest.json describes."""

    def _rerun_config(self, classify_rerun, classify_dir, tmp_path) -> Path:
        shutil.copytree(classify_rerun[0], tmp_path / "out")
        return classify_config(classify_dir, tmp_path, seed=12)

    def _assert_run(self, out: Path, k: int, classify_rerun) -> None:
        first, second, renames = classify_rerun
        assert_one_run(out)
        expected = _files(first) if k == 1 else second
        for rel, data in expected.items():
            if rel.startswith("classify/"):
                assert (out / rel).read_bytes() == data, rel
        # the staged manifest, the three outputs, the manifest: k covers each
        assert renames == 5

    @pytest.mark.parametrize("k", range(1, 6))
    def test_interrupt_at_each_rename(
        self, classify_rerun, classify_dir, tmp_path, monkeypatch, k
    ):
        cfg = load_config(self._rerun_config(classify_rerun, classify_dir, tmp_path), env={})
        out = Path(cfg.out)
        before = _files(out)
        renames = 0
        real = os.replace

        def replace(src, dst):
            nonlocal renames
            renames += 1
            if renames == k:
                raise KeyboardInterrupt
            real(src, dst)

        monkeypatch.setattr(pipeline_module.os, "replace", replace)
        with pytest.raises(KeyboardInterrupt):
            run_stage("classify", cfg)
        monkeypatch.undo()
        self._assert_run(out, k, classify_rerun)
        if k == 1:
            assert _files(out) == before

    @pytest.mark.parametrize("k", range(1, 6))
    def test_run_killed_at_each_rename_is_made_whole_by_the_next(
        self, classify_rerun, classify_dir, tmp_path, k
    ):
        cfg_path = self._rerun_config(classify_rerun, classify_dir, tmp_path)
        out = tmp_path / "out"
        # the child does not inherit pytest's pythonpath, so it gets src here
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        child = subprocess.run(
            [sys.executable, "-c", KILLED_AT_RENAME, str(cfg_path), str(k)], env=env
        )
        assert child.returncode == -signal.SIGKILL
        assert (out / ".lock").exists()
        run_stage("ingest", load_config(cfg_path, env={}))
        self._assert_run(out, k, classify_rerun)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("full_run")
    data = tmp / "data"
    data.mkdir()
    halves = {
        variety: concat(
            [
                lm_family_corpus(
                    variety, "Germanic", 300, seed=base, plant_phrases=True
                ),
                lm_family_corpus(
                    variety, "Romance", 300, seed=base + 1, plant_phrases=True
                ),
            ]
        )
        for variety, base in (("N", 50), ("NN", 60), ("T", 70))
    }
    budget = min(c.token_count for c in halves.values()) - 20
    for variety, corpus in halves.items():
        write_jsonl(trim_to_tokens(corpus, budget), data / f"{variety}.jsonl")
    cfg = load_config(
        write_config(
            tmp / "run.cfg",
            corpus_n=data / "N.jsonl",
            corpus_nn=data / "NN.jsonl",
            corpus_t=data / "T.jsonl",
            out=tmp / "out",
            seed=23,
            chunk_target=120,
            cv_folds=4,
            top_pos3=200,
            svm_c=50.0,
            bootstrap_iterations=100,
            lm_order=3,
            lm_train_tokens=3000,
            lm_test_sentences=200,
            lm_country_sentences=40,
        ),
        env={},
    )
    for stage in ("ingest", "classify", "cluster", "metrics", "lm", "report"):
        run_stage(stage, cfg)
    return Path(cfg.out)


class TestRunManifest:
    """manifest.json is read and checked before a stage runs, and written
    last."""

    def _files(self, out: Path) -> dict:
        return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def test_records_the_shipped_resources(self, classify_dir, tmp_path):
        out = run_stage("ingest", load_config(classify_config(classify_dir, tmp_path), env={}))
        shipped = default_manifest_path()
        expected = {str(shipped): hashlib.sha256(shipped.read_bytes()).hexdigest()}
        for name in json.loads(shipped.read_text()).values():
            expected[name] = hashlib.sha256((shipped.parent / name).read_bytes()).hexdigest()
        assert len(expected) == 6
        assert json.loads((out / "manifest.json").read_text())["resources"] == expected

    @pytest.mark.parametrize(
        "text",
        [
            "not json\n",
            "[]\n",
            '{"config": null, "resources": {}, "stages": {"ingest": {"outputs": []}}}\n',
        ],
        ids=["not-json", "not-an-object", "outputs-not-an-object"],
    )
    def test_manifest_that_is_not_a_run_manifest_exits_one_before_any_output(
        self, classify_dir, tmp_path, capsys, text
    ):
        cfg_path = classify_config(classify_dir, tmp_path)
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        (out / "manifest.json").write_text(text)
        before = self._files(out)
        assert main(["classify", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'manifest.json'}: not a run manifest: ")
        assert self._files(out) == before

    @pytest.mark.parametrize("where", ["relative", "absolute", "directory"])
    def test_manifest_recording_an_output_outside_out_exits_one(
        self, classify_dir, tmp_path, capsys, where
    ):
        # a rerun would delete the victim outside out, or fail to remove
        # the directory after its commit
        victim = tmp_path / "victim.txt"
        victim.write_text("keep me")
        rel = {"relative": "../victim.txt", "absolute": str(victim), "directory": "ingest"}[where]
        out = tmp_path / "out"
        (out / "ingest").mkdir(parents=True)
        (out / "manifest.json").write_text(
            json.dumps(
                {"config": None, "resources": {}, "stages": {"ingest": {"outputs": {rel: "0" * 64}}}}
            )
        )
        before = self._files(out)
        cfg_path = classify_config(classify_dir, tmp_path)
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'manifest.json'}: records output {rel!r}, which is not a file in {out}\n"
        )
        assert victim.read_text() == "keep me"
        assert self._files(out) == before


class TestFullPipeline:
    """All six stages over one dataset in one output directory."""

    def test_every_stage_recorded_with_hashes(self, full_run):
        manifest = json.loads((full_run / "manifest.json").read_text())
        assert set(manifest["stages"]) == {
            "ingest", "classify", "cluster", "metrics", "lm", "report",
        }
        run_manifest = json.loads((full_run / "run_manifest.json").read_text())
        for rel, digest in run_manifest["files"].items():
            assert (full_run / rel).exists(), rel
            assert len(digest) == 64

    def test_report_covers_all_stages(self, full_run):
        report = (full_run / "report.md").read_text()
        for stage in ("ingest", "classify", "cluster", "metrics", "lm"):
            assert f"## {stage}" in report
        assert "metrics/metrics.csv" in report

    def test_only_recorded_outputs_are_left(self, full_run):
        # every file is written through a temp file that replaces it, under a
        # lock that the run releases
        manifest = json.loads((full_run / "manifest.json").read_text())
        recorded = {
            rel for entry in manifest["stages"].values() for rel in entry["outputs"]
        }
        files = {
            str(p.relative_to(full_run)) for p in full_run.rglob("*") if p.is_file()
        }
        assert files - {"manifest.json"} == recorded

    def test_resource_hashes_recorded(self, full_run):
        manifest = json.loads((full_run / "manifest.json").read_text())
        assert any(key.endswith("function_words.txt") for key in manifest["resources"])


class TestCli:
    def test_success_exit_zero(self, classify_dir, tmp_path, capsys):
        cfg_path = classify_config(classify_dir, tmp_path)
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        assert "outputs in" in capsys.readouterr().out

    def test_validation_error_exit_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.cfg", out=tmp_path / "out")
        assert main(["metrics", "--config", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting",
        [{"svm_c": "nan"}, {"svm_c": "inf"}, {"cv_folds": 1}],
        ids=["svm_c-nan", "svm_c-inf", "cv_folds-1"],
    )
    def test_unusable_svm_settings_exit_one(self, classify_dir, tmp_path, capsys, setting):
        # unchecked, a nan C gives all-zero alphas and chance accuracies with
        # exit 0, and one fold leaves no training rows (exit 2 in the
        # one-vs-one training)
        cfg_path = classify_config(classify_dir, tmp_path, **setting)
        assert main(["classify", "--config", str(cfg_path)]) == 1
        (key,) = setting
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out" / "classify").exists()
        assert not (tmp_path / "out" / ".lock").exists()

    def test_corpus_path_that_is_a_directory_exits_one(self, classify_dir, tmp_path, capsys):
        cfg_path = classify_config(classify_dir, tmp_path, corpus_n=tmp_path)
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert f"error: corpus_n: not a regular file: {tmp_path}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["jsonl", "vertical"])
    def test_corpus_that_is_not_utf8_exits_one(self, classify_dir, tmp_path, capsys, fmt):
        bad = tmp_path / f"N.{fmt}"
        if fmt == "jsonl":
            bad.write_bytes(b'{"tokens": ["a"]}\n{"tokens": ["caf\xe9"]}\n')
        else:
            bad.write_bytes(b"a\tDT\n\ncaf\xe9\tNN\n")
        cfg_path = classify_config(classify_dir, tmp_path, corpus_n=bad, format=fmt)
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        line = 2 if fmt == "jsonl" else 3
        assert err == f"error: {bad}:{line}: not UTF-8 text\n"

    def test_config_that_is_a_directory_exits_one(self, tmp_path, capsys):
        assert main(["ingest", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: config file is not a regular file: {tmp_path}\n"
        )

    @pytest.mark.parametrize("idioms", ["directory", "missing"])
    def test_unreadable_resource_list_exits_one(self, classify_dir, tmp_path, capsys, idioms):
        shipped = default_manifest_path()
        entries = {
            key: str(shipped.parent / name)
            for key, name in json.loads(shipped.read_text()).items()
        }
        unreadable = tmp_path / "idioms" if idioms == "directory" else tmp_path / "absent.txt"
        if idioms == "directory":
            unreadable.mkdir()
        entries["idioms"] = str(unreadable)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        cfg_path = classify_config(classify_dir, tmp_path, resources=manifest)
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {unreadable.resolve()}: cannot read: ")
        assert list((tmp_path / "out").iterdir()) == []

    def _resource_manifest(self, tmp_path: Path, **changes) -> Path:
        """The shipped resource manifest, with absolute list paths and
        ``changes`` applied."""
        shipped = default_manifest_path()
        entries = {
            key: str(shipped.parent / name)
            for key, name in json.loads(shipped.read_text()).items()
        }
        manifest = tmp_path / "resources.json"
        manifest.write_text(json.dumps({**entries, **changes}))
        return manifest

    def test_resource_manifest_key_outside_the_five_is_ignored(
        self, classify_dir, tmp_path
    ):
        manifest = self._resource_manifest(tmp_path, notes="see README")
        cfg_path = classify_config(classify_dir, tmp_path, resources=manifest)
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        recorded = json.loads((out / "manifest.json").read_text())
        entries = json.loads(manifest.read_text())
        assert set(recorded["resources"]) == {str(manifest)} | (
            set(entries.values()) - {"see README"}
        )
        assert set(recorded["stages"]["ingest"]["outputs"]) == {
            "ingest/N.jsonl", "ingest/NN.jsonl", "ingest/T.jsonl", "ingest/stats.csv"
        }

    def test_resource_entry_that_is_not_a_string_exits_one(
        self, classify_dir, tmp_path, capsys
    ):
        manifest = self._resource_manifest(tmp_path, idioms=5)
        cfg_path = classify_config(classify_dir, tmp_path, resources=manifest)
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}: idioms must be a path string, got 5\n"
        )
        assert list((tmp_path / "out").iterdir()) == []

    def test_resource_manifest_that_is_not_utf8_exits_one(
        self, classify_dir, tmp_path, capsys
    ):
        manifest = self._resource_manifest(tmp_path)
        manifest.write_bytes(b'{"notes": "caf\xe9",\n' + manifest.read_bytes()[1:])
        cfg_path = classify_config(classify_dir, tmp_path, resources=manifest)
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {manifest}:1: not UTF-8 text\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_negative_seed_exits_one(self, classify_dir, tmp_path, capsys):
        cfg_path = classify_config(classify_dir, tmp_path)
        assert main(["cluster", "--config", str(cfg_path), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_out_that_is_a_file_exits_one(self, classify_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory")
        cfg_path = classify_config(classify_dir, tmp_path)
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: out: not a directory: {out}\n"
        assert out.read_text() == "not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.cfg"]

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(b"# caf\xe9\n")
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {cfg_path}:1: not UTF-8 text\n"

    def test_usage_error_exit_one(self, capsys):
        assert main(["not-a-command"]) == 1

    def test_runtime_failure_exit_two(self, classify_dir, tmp_path, monkeypatch):
        def boom(config, stage, resources):
            raise RuntimeError("sabotage")

        monkeypatch.setitem(pipeline_module.STAGES, "ingest", boom)
        cfg_path = classify_config(classify_dir, tmp_path)
        assert main(["ingest", "--config", str(cfg_path)]) == 2

    def test_out_override_beats_config(self, classify_dir, tmp_path):
        cfg_path = classify_config(classify_dir, tmp_path)
        override = tmp_path / "elsewhere"
        assert main(["ingest", "--config", str(cfg_path), "--out", str(override)]) == 0
        assert (override / "ingest" / "stats.csv").exists()

    def test_env_override(self, classify_dir, tmp_path, monkeypatch):
        cfg_path = classify_config(classify_dir, tmp_path)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("VARIETIES_OUT", str(env_out))
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        assert (env_out / "ingest" / "stats.csv").exists()

    def test_entry_point_subprocess(self, classify_dir, tmp_path):
        # the child does not inherit pytest's pythonpath, so it gets src here
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        env = {**os.environ, "PYTHONPATH": path}
        cfg_path = classify_config(classify_dir, tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "varieties.cli", "ingest", "--config",
             str(cfg_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert "outputs in" in done.stdout
        missing = subprocess.run(
            [sys.executable, "-m", "varieties.cli", "metrics", "--config",
             str(tmp_path / "absent.cfg")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert missing.returncode == 1
        assert "error:" in missing.stderr
