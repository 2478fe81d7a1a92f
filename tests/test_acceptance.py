"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 10 needs the real Europarl-derived dataset and is skipped unless
VARIETIES_EUROPARL_DIR points at a directory holding N.jsonl, NN.jsonl and
T.jsonl.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oracles import ReferenceKN, qp_oracle_4pt, t_two_tailed_numeric
from synthdata import (
    clustering_corpora,
    gaussian_blobs,
    variety_corpus,
    vocab_corpus,
)
from varieties.bootstrap import BootstrapConfig, paired_ttest
from varieties.bootstrap import test_d_dif as run_d_dif
from varieties.bootstrap import test_d_total as run_d_total
from varieties.clustering import bisecting_kmeans, cluster_accuracy
from varieties.corpus import balance, chunk, filter_corpus, ingest, shuffle
from varieties.features import FW, FeaturePlan, fw_space, vectorize_chunks
from varieties.lexicons import PhraseEntry, PhraseList, RankList, WordList
from varieties.metrics import (
    collocation_types,
    mean_word_rank,
    normalize_triple,
    pronouns,
    transitions,
    ttr,
)
from varieties.poslm import (
    BOS,
    EOS,
    ppl,
    ppl_by_chunks,
    pos_sequences,
    read_arpa,
    train_lm,
    write_arpa,
)
from varieties.svm import cross_validate, dual_objective, train_binary
from conftest import make_corpus, make_sentence


@contextmanager
def criterion(number, title, budget_seconds):
    status = "FAIL"
    start = time.perf_counter()
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:>2} [{status}] {title} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )


KN_CORPUS = [
    ["A", "B", "C"],
    ["A", "B", "C", "D"],
    ["B", "B", "A"],
    ["C", "A", "B", "C"],
    ["D", "A"],
    ["A", "B"],
    ["C", "C", "C", "B", "A"],
]
KN_TAGS = ["A", "B", "C", "D"]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_01_kn_correctness():
    with criterion(1, "modified-KN conditionals match brute force at 1e-9", 1.0):
        for order in range(1, 6):
            model = train_lm(KN_CORPUS, KN_TAGS, order=order)
            reference = ReferenceKN(KN_CORPUS, KN_TAGS, order=order)
            vocab = sorted(KN_TAGS) + [EOS]
            for context in [()] + list(reference.contexts()):
                total = 0.0
                for word in vocab:
                    ours = model.prob(word, context)
                    assert abs(ours - reference.prob(word, context)) < 1e-9
                    total += ours
                assert abs(total - 1.0) < 1e-6


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_02_perplexity_identity():
    with criterion(2, "perplexity identity and OOV accounting exact", 1.0):
        model = train_lm(KN_CORPUS, KN_TAGS, order=3)
        test_set = [["A", "B", "C", "D"], ["B", "X", "A"], ["C", "C"], ["Y"]]
        report = ppl(model, test_set)
        log_sum = 0.0
        scored = 0
        excluded = 0
        positions = 0
        for sentence in test_set:
            history = [BOS] * (model.order - 1)
            for tag in sentence:
                positions += 1
                if tag not in model.vocab:
                    excluded += 1
                    history = []
                    continue
                log_sum += model.logprob(tag, history)
                scored += 1
                history.append(tag)
            log_sum += model.logprob(EOS, history)
            scored += 1
            positions += 1
        assert report.scored == scored
        assert report.excluded == excluded
        assert report.scored + report.excluded == positions
        assert abs(report.perplexity - 10.0 ** (-log_sum / scored)) < 1e-9


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_03_arpa_round_trip():
    with criterion(3, "ARPA round-trip preserves scores to 1e-6", 1.0):
        fixtures = [
            ([["DT", "NN"]], ["DT", "NN"], 2),
            (KN_CORPUS, KN_TAGS, 5),
            (KN_CORPUS + [["D", "D", "C", "B"]] * 3, KN_TAGS, 3),
        ]
        probe = [["A", "B", "C"], ["C", "B"], ["D", "A", "B", "C", "D"],
                 ["DT", "NN"]]
        for idx, (corpus, tags, order) in enumerate(fixtures):
            model = train_lm(corpus, tags, order=order)
            path = Path(f"/tmp/acceptance_model_{idx}.arpa")
            write_arpa(model, path)
            loaded = read_arpa(path)
            for sentence in probe:
                history = [BOS] * (model.order - 1)
                for tag in sentence:
                    if tag not in model.vocab:
                        history = []
                        continue
                    assert abs(
                        loaded.logprob(tag, history) - model.logprob(tag, history)
                    ) < 1e-6
                    history.append(tag)
                assert abs(
                    loaded.logprob(EOS, history) - model.logprob(EOS, history)
                ) < 1e-6
            path.unlink()


def test_criterion_04_smo_optimality():
    with criterion(4, "SMO dual within 1e-4 of QP oracle; KKT at 1e-3 x100", 10.0):
        X = np.array([[1.0, 1.0], [2.0, 2.5], [-1.0, -1.0], [-2.0, -1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        labels = ["pos" if v > 0 else "neg" for v in y]
        model = train_binary(X, labels, C=10.0, tol=1e-6)
        oracle_value, _ = qp_oracle_4pt(X, y, C=10.0)
        assert abs(dual_objective(model, X, labels) - oracle_value) < 1e-4

        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            dim = int(rng.integers(2, 5))
            w_true = rng.normal(size=dim)
            w_true /= np.linalg.norm(w_true)
            b_true = float(rng.normal() * 0.3)
            points = []
            while len(points) < 12:
                x = rng.normal(size=dim) * 2.0
                if abs(w_true @ x + b_true) > 0.3:
                    points.append(x)
            points = np.array(points)
            instance_labels = ["p" if w_true @ x + b_true > 0 else "n" for x in points]
            if len(set(instance_labels)) < 2:
                continue
            trained = train_binary(points, instance_labels, C=10.0, tol=1e-3)
            y_signed = np.array(
                [1.0 if l == trained.labels[0] else -1.0 for l in instance_labels]
            )
            for i in range(len(points)):
                margin = y_signed[i] * trained.decision(points[i])
                alpha = trained.alphas[i]
                if alpha <= 1e-8:
                    assert margin >= 1.0 - 1e-3 - 1e-9
                elif alpha >= 10.0 - 1e-8:
                    assert margin <= 1.0 + 1e-3 + 1e-9
                else:
                    assert abs(margin - 1.0) <= 1e-3 + 1e-9
            checked += 1


def test_criterion_05_synthetic_classification(resources):
    with criterion(5, "FW 10-fold CV >= 95%; shuffled labels at chance", 60.0):
        by_variety = {
            variety: chunk(variety_corpus(variety, 700, seed=0), 120)
            for variety in ("N", "NN", "T")
        }
        chunks, labels = [], []
        for variety, variety_chunks in sorted(balance(by_variety, 0).items()):
            chunks.extend(variety_chunks)
            labels.extend([variety] * len(variety_chunks))
        plan = FeaturePlan(families=(FW,), resources=resources)
        [report] = cross_validate(chunks, labels, [plan], folds=10, seed=1)
        assert report.mean_accuracy >= 0.95

        rng = np.random.default_rng(7)
        shuffled = list(labels)
        rng.shuffle(shuffled)
        [chance] = cross_validate(chunks, shuffled, [plan], folds=10, seed=1)
        assert abs(chance.mean_accuracy - 1 / 3) <= 0.10


def test_criterion_06_clustering(resources):
    with criterion(6, "blobs k=3 >= 0.90; engineered NN~T merges at k=2", 10.0):
        X, blob_labels = gaussian_blobs(
            centers=[(0, 0), (12, 0), (0, 12)], points_per_blob=50, spread=1.0,
            seed=3,
        )
        result = bisecting_kmeans(X, k=3, seed=1)
        assert cluster_accuracy(result.assignment, blob_labels) >= 0.90

        corpora = clustering_corpora(320, seed=2)
        chunks, labels = [], []
        for variety, corpus in sorted(corpora.items()):
            for c in chunk(corpus, 100):
                chunks.append(c)
                labels.append(variety)
        vectors = vectorize_chunks(chunks, [fw_space(resources.function_words)])
        two = bisecting_kmeans(vectors, k=2, seed=5)
        nn_clusters = [
            int(two.assignment[i]) for i, lab in enumerate(labels) if lab == "NN"
        ]
        t_clusters = [
            int(two.assignment[i]) for i, lab in enumerate(labels) if lab == "T"
        ]
        n_clusters = [
            int(two.assignment[i]) for i, lab in enumerate(labels) if lab == "N"
        ]
        majority = lambda values: max(set(values), key=values.count)
        assert majority(nn_clusters) == majority(t_clusters)
        assert majority(n_clusters) != majority(nn_clusters)
        merged = majority(nn_clusters)
        together = (nn_clusters + t_clusters).count(merged)
        assert together / (len(nn_clusters) + len(t_clusters)) >= 0.90


def test_criterion_07_metric_unit_values():
    with criterion(7, "metric hand values exact; normalization law", 1.0):
        ttr_corpus = make_corpus(
            [make_sentence(["run", "runs"], lemma=["run", "run"])]
        )
        assert ttr(ttr_corpus).raw == 0.5

        ranks = RankList(name="r", ranks={"cat": 100, "dog": 300})
        fw = WordList(name="fw", entries=frozenset({"the"}))
        rank_corpus = make_corpus([make_sentence(["the", "cat", "dog"])])
        assert mean_word_rank(rank_corpus, ranks, fw).raw == 200.0

        markers = PhraseList(
            name="m",
            entries=(PhraseEntry(tokens=("in", "addition")),),
        )
        transition_corpus = make_corpus(
            [make_sentence(["in", "addition"] + [f"w{i}" for i in range(8)])]
        )
        assert transitions(transition_corpus, markers).raw == 0.1

        pronoun_corpus = make_corpus(
            [make_sentence(["he", "said"], pos=["PRP", "VBD"])]
        )
        assert pronouns(pronoun_corpus).raw == 0.5

        idioms = PhraseList(
            name="i",
            entries=(
                PhraseEntry(tokens=("red", "tape")),
                PhraseEntry(tokens=("food", "chain")),
                PhraseEntry(tokens=("far", "cry")),
            ),
        )
        idiom_corpus = make_corpus(
            [
                make_sentence(["red", "tape", "red", "tape"]),
                make_sentence(["food", "chain", "now"]),
            ]
        )
        assert collocation_types(idiom_corpus, idioms).raw == 2.0

        triple = normalize_triple("TTR", 0.081, 0.0755, 0.071)
        assert abs(triple.norm_n + triple.norm_t + triple.norm_nn - 1.0) < 1e-9
        scaled = normalize_triple("TTR", 81.0, 75.5, 71.0)
        assert abs(scaled.norm_n - triple.norm_n) < 1e-12
        assert abs(scaled.norm_t - triple.norm_t) < 1e-12
        assert abs(scaled.norm_nn - triple.norm_nn) < 1e-12


def test_criterion_08_bootstrap_calibration():
    with criterion(8, "bootstrap null calibration and shift detection", 300.0):
        fm = lambda corpus: ttr(corpus).raw

        high_p = 0
        trials = 50
        for trial in range(trials):
            corpora = [
                vocab_corpus(v, 120, 160, seed=1000 * trial + offset)
                for v, offset in (("N", 1), ("NN", 2), ("T", 3))
            ]
            config = BootstrapConfig(sample_tokens=900, iterations=1000, seed=trial)
            result = run_d_total(fm, *corpora, config)
            high_p += result.p_value > 0.05
        assert high_p >= 0.90 * trials

        shifted_n = vocab_corpus("N", 300, vocab_size=2000, seed=1)
        base_nn = vocab_corpus("NN", 300, vocab_size=40, seed=2, vocab_offset=5000)
        base_t = vocab_corpus("T", 300, vocab_size=40, seed=3, vocab_offset=9000)
        config = BootstrapConfig(sample_tokens=2000, iterations=1000, seed=11)
        shifted = run_d_total(fm, shifted_n, base_nn, base_t, config)
        assert shifted.p_is_upper_bound and shifted.p_value <= 0.001

        # D_dif flags exactly the engineered NN~T geometry
        flagged = run_d_dif(fm, shifted_n, base_nn, base_t, config)
        assert flagged.significant
        null_corpora = [
            vocab_corpus(v, 300, 120, seed=s)
            for v, s in (("N", 21), ("NN", 22), ("T", 23))
        ]
        unflagged = run_d_dif(fm, *null_corpora, config)
        assert not unflagged.significant


def test_criterion_09_ttest_oracle():
    with criterion(9, "t-test p(2.262, df=9) = 0.0500; CDF laws", 1.0):
        n = 10
        d = np.ones(n)
        d[0] += math.sqrt(n - 1)
        shift = d.std(ddof=1) / math.sqrt(n) * 2.262 - d.mean()
        result = paired_ttest(d + shift, np.zeros(n))
        assert result.df == 9
        assert abs(result.p_value - 0.0500) <= 0.001
        assert abs(result.p_value - t_two_tailed_numeric(2.262, 9)) < 1e-6

        for df in (1, 5, 9, 49):
            size = df + 1
            rng = np.random.default_rng(df)
            base = rng.normal(size=size)
            base -= base.mean()
            base /= base.std(ddof=1)

            def p_of(t_value):
                series = base + t_value / math.sqrt(size)
                res = paired_ttest(series, np.zeros(size))
                return res.p_value, res.t

            previous = None
            for t_value in (0.3, 1.0, 2.0, 3.5):
                p_pos, t_pos = p_of(t_value)
                p_neg, _ = p_of(-t_value)
                assert abs(p_pos - p_neg) < 1e-9
                assert abs(p_pos - t_two_tailed_numeric(t_pos, df)) < 1e-6
                if previous is not None:
                    assert p_pos < previous
                previous = p_pos


EUROPARL_DIR = os.environ.get("VARIETIES_EUROPARL_DIR")


@pytest.mark.skipif(
    not EUROPARL_DIR,
    reason="set VARIETIES_EUROPARL_DIR to the Europarl-derived JSONL corpora",
)
def test_criterion_10_europarl_headline_numbers(resources):
    """Data-dependent reproduction: the published function-word accuracies,
    the lexical-richness triple, and the family-LM perplexity ordering."""
    from varieties.bootstrap import paired_ttest as run_ttest
    from varieties.poslm import train_lm as train

    root = Path(EUROPARL_DIR)
    corpora = {
        v: ingest(root / f"{v}.jsonl", default_variety=v) for v in ("N", "NN", "T")
    }

    with criterion(10, "Europarl headline numbers", 24 * 3600.0):
        # function-word accuracies within +/-2 points of the published row
        by_variety = {
            v: chunk(shuffle(corpora[v], 17), 2000) for v in ("N", "NN", "T")
        }
        balanced = balance(by_variety, 17)
        plan = FeaturePlan(families=(FW,), resources=resources)
        expected = {
            ("N", "NN"): 98.72,
            ("N", "T"): 98.72,
            ("NN", "T"): 96.89,
            ("N", "NN", "T"): 96.60,
        }
        for task, target in expected.items():
            chunks, labels = [], []
            for variety in task:
                chunks.extend(balanced[variety])
                labels.extend([variety] * len(balanced[variety]))
            [report] = cross_validate(chunks, labels, [plan], folds=10, seed=17)
            assert abs(report.mean_accuracy * 100 - target) <= 2.0, task

        # normalized lexical-richness triple within +/-0.01 of the published one
        slices = {}
        for variety in ("N", "NN", "T"):
            kept, total = [], 0
            for sentence in shuffle(corpora[variety], 17).sentences:
                if total >= 780_000:
                    break
                kept.append(sentence)
                total += sentence.token_count
            slices[variety] = make_corpus(kept)
        triple = normalize_triple(
            "TTR",
            ttr(slices["N"]).raw,
            ttr(slices["T"]).raw,
            ttr(slices["NN"]).raw,
        )
        assert abs(triple.norm_n - 0.356) <= 0.01
        assert abs(triple.norm_t - 0.332) <= 0.01
        assert abs(triple.norm_nn - 0.312) <= 0.01

        # family perplexity ordering with paired t-test significance
        models = {}
        for family in ("Germanic", "Romance"):
            train_corpus = filter_corpus(corpora["T"], variety="T", family=family)
            kept, total = [], 0
            for sentence in shuffle(train_corpus, 17).sentences:
                if total >= 7_000_000:
                    break
                kept.append(sentence)
                total += sentence.token_count
            models[family] = train(
                pos_sequences(make_corpus(kept)), resources.tagset, order=5
            )
        for family, better in (("Germanic", "Germanic"), ("Romance", "Romance")):
            test_corpus = filter_corpus(corpora["NN"], variety="NN", family=family)
            sentences = pos_sequences(
                make_corpus(shuffle(test_corpus, 17).sentences[:5350])
            )
            reports = {
                name: ppl_by_chunks(model, sentences, 100)
                for name, model in models.items()
            }
            worse = "Romance" if better == "Germanic" else "Germanic"
            assert reports[better].perplexity < reports[worse].perplexity
            series_better = [c.perplexity for c in reports[better].per_chunk]
            series_worse = [c.perplexity for c in reports[worse].per_chunk]
            assert run_ttest(series_better, series_worse).p_value < 0.05
