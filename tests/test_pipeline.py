import csv
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from synthdata import (
    clustering_corpora,
    lm_family_corpus,
    metrics_corpus,
    trim_to_tokens,
    variety_corpus,
)
from varieties import features
from varieties.cli import main
from varieties.config import load_config
from varieties.corpus import (
    AnnotatedSentence,
    Corpus,
    Token,
    concat,
    filter_corpus,
    shuffle,
    write_jsonl,
)
from varieties.errors import VarietiesError
from varieties.pipeline import output_lock, run_stage


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

    def test_each_chunk_counted_once_per_family(self, tmp_path, monkeypatch):
        calls = Counter()

        def counted(name, count):
            def wrapper(chunk, *lists):
                # FW and COH: once per chunk and word or phrase list
                calls[(name, id(chunk)) + lists] += 1
                return count(chunk, *lists)

            return wrapper

        for name in ("_fw_counts", "_pos3_counts", "_postok_counts", "_coh_counts"):
            monkeypatch.setattr(features, name, counted(name, getattr(features, name)))
        root = tmp_path / "small"
        root.mkdir()
        for variety in ("N", "NN", "T"):
            write_jsonl(variety_corpus(variety, 120, seed=5), root / f"{variety}.jsonl")
        cfg = load_config(classify_config(root, tmp_path, cv_folds=3), env={})
        run_stage("classify", cfg)
        assert {key[0] for key in calls} == {
            "_fw_counts", "_pos3_counts", "_postok_counts", "_coh_counts",
        }
        assert max(calls.values()) == 1

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
            f"error: untagged token: sentence 5, token 2 {untagged!r} "
            "is missing its POS tag"
        ) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "metrics").exists()
        assert not (tmp_path / "out" / ".lock").exists()

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

    def _assert_untagged_run_left_nothing(self, tmp_path, capsys, surface):
        err = capsys.readouterr().err
        assert "error: untagged token: sentence " in err
        assert f"{surface!r} is missing its POS tag" in err
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
        self._assert_untagged_run_left_nothing(tmp_path, capsys, surface)

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

    def test_untagged_country_token_fails_before_any_output_is_written(
        self, tmp_path, capsys
    ):
        # a sentence drawn into its country's slice (40 sentences at seed 3)
        # but not into its family's test set (200 of 300) is read only for
        # the per-country table, after the models and perplexity tables
        germanic = lm_family_corpus("NN", "Germanic", 300, seed=41)
        in_test_set = {id(s) for s in shuffle(germanic, 3).sentences[:200]}
        country = germanic.sentences[0].country
        in_slice = {
            id(s)
            for s in shuffle(filter_corpus(germanic, country=country), 3).sentences[:40]
        }
        index = next(
            i
            for i, s in enumerate(germanic.sentences)
            if id(s) in in_slice and id(s) not in in_test_set
        )
        germanic, surface = self._untag(germanic, index, 0)
        nn = [germanic, lm_family_corpus("NN", "Romance", 300, seed=42)]
        assert self._small_run(tmp_path, nn) == 1
        self._assert_untagged_run_left_nothing(tmp_path, capsys, surface)


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
        (out_dir / "ingest").mkdir(parents=True)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        (out_dir / ".lock").write_text(str(child.pid))
        leftover = out_dir / "ingest" / "stats.csv.tmp"
        leftover.write_text("half-written")
        run_stage("ingest", cfg)
        assert not leftover.exists()
        assert (out_dir / "ingest" / "stats.csv").exists()
        assert not (out_dir / ".lock").exists()

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

    def test_usage_error_exit_one(self, capsys):
        assert main(["not-a-command"]) == 1

    def test_runtime_failure_exit_two(self, classify_dir, tmp_path, monkeypatch):
        import varieties.pipeline as pipeline_module

        def boom(config, out_dir):
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
