import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import make_corpus, make_sentence, traced
from oracles import ReferenceKN, reference_score
from synthdata import LM_TAGS, lm_family_corpus
from varieties.corpus import concat
from varieties.poslm import (
    BOS,
    EOS,
    _count_ngrams,
    pos_sequences,
    ppl,
    ppl_by_chunks,
    read_arpa,
    train_lm,
    write_arpa,
)

HAND_CORPUS = [
    ["A", "B", "C"],
    ["A", "B", "C", "D"],
    ["B", "B", "A"],
    ["C", "A", "B", "C"],
    ["D", "A"],
    ["A", "B"],
    ["C", "C", "C", "B", "A"],
]
HAND_TAGS = ["A", "B", "C", "D"]

# 40 tags, three of which sort before both boundary markers ("$" < "," < "."
# < "</s>" < "<s>"); Zipf-weighted draws make counts repeat, so no order up
# to 13 has all three discounts fall back
TAGS40 = [",", ".", "$"] + [f"T{i:02d}" for i in range(37)]
_rng = np.random.default_rng(41)
_zipf = 1.0 / np.arange(1, 41) ** 2
TAGS40_CORPUS = [
    [TAGS40[i] for i in _rng.choice(40, size=_rng.integers(1, 8), p=_zipf / _zipf.sum())]
    for _ in range(8)
]


class TestHandComputedBigram:
    def test_single_observation_discounted_and_interpolated(self):
        # corpus [DT NN], order 2, tagset {DT, NN}: every count-of-counts is
        # degenerate so all discounts fall back to 0.5, and
        #   P(NN|DT) = (1 - 0.5)/1 + 0.5 * P_uni(NN) = 0.5 + 0.5/3 = 2/3
        with pytest.warns(UserWarning, match="degenerate"):
            model = train_lm([["DT", "NN"]], ["DT", "NN"], order=2)
        assert model.prob("NN", ("DT",)) == pytest.approx(2 / 3, abs=1e-9)
        assert model.prob("DT", ("DT",)) == pytest.approx(1 / 6, abs=1e-9)
        assert model.prob(EOS, ("DT",)) == pytest.approx(1 / 6, abs=1e-9)
        for word in ("DT", "NN", EOS):
            assert model.prob(word, ()) == pytest.approx(1 / 3, abs=1e-9)


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestAgainstReference:
    @pytest.mark.parametrize(
        "corpus,tags,order",
        [pytest.param(HAND_CORPUS, HAND_TAGS, n, id=str(n)) for n in (1, 2, 3, 4, 5)]
        + [
            pytest.param(TAGS40_CORPUS, TAGS40, n, id=f"tags40-{n}")
            for n in (12, 13)
        ],
    )
    def test_every_conditional_matches_reference(self, corpus, tags, order):
        model = train_lm(corpus, tags, order=order)
        reference = ReferenceKN(corpus, tags, order=order)
        contexts = [()] + list(reference.contexts())
        vocab = sorted(tags) + [EOS]
        checked = 0
        for context in contexts:
            for word in vocab:
                assert model.prob(word, context) == pytest.approx(
                    reference.prob(word, context), abs=1e-9
                ), (context, word)
                checked += 1
        assert checked >= 5 * len(contexts)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_normalization_over_all_contexts(self, order):
        model = train_lm(HAND_CORPUS, HAND_TAGS, order=order)
        reference = ReferenceKN(HAND_CORPUS, HAND_TAGS, order=order)
        vocab = sorted(HAND_TAGS) + [EOS]
        for context in [()] + list(reference.contexts()):
            total = sum(model.prob(word, context) for word in vocab)
            assert total == pytest.approx(1.0, abs=1e-6), context

    def test_unseen_tag_gets_positive_mass(self):
        model = train_lm([["A", "B"], ["B", "A"]], ["A", "B", "C"], order=2)
        assert model.prob("C", ("A",)) > 0
        assert model.prob("C", ()) > 0

    def test_normalization_on_random_corpora(self):
        # larger randomized corpora: every stored context stays a proper
        # distribution at orders 3..5
        rng = np.random.default_rng(13)
        tags = ["T1", "T2", "T3", "T4", "T5"]
        for order in (3, 4, 5):
            sentences = [
                [tags[i] for i in rng.integers(0, len(tags), size=rng.integers(2, 9))]
                for _ in range(60)
            ]
            model = train_lm(sentences, tags, order=order)
            vocab = sorted(tags) + [EOS]
            contexts = sorted(model.backoffs)
            sample = contexts[:: max(1, len(contexts) // 40)]
            for context in [()] + sample:
                total = sum(model.prob(word, context) for word in vocab)
                assert total == pytest.approx(1.0, abs=1e-6), (order, context)


class TestTraining:
    def test_out_of_tagset_named(self):
        with pytest.raises(ValueError, match=r"'X' at sentence 1, position 2"):
            train_lm([["A", "B"], ["A", "B", "X"]], ["A", "B"], order=2)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_lm([], ["A"], order=2)
        with pytest.raises(ValueError, match="empty"):
            train_lm([[]], ["A"], order=2)

    def test_boundary_markers_banned_from_tagset(self):
        with pytest.raises(ValueError, match="boundary"):
            train_lm([["A"]], ["A", BOS], order=2)

    def test_degenerate_counts_fall_back_with_warning(self):
        with pytest.warns(UserWarning, match="falling back"):
            model = train_lm([["A", "B"]], ["A", "B"], order=2)
        assert model.discounts[0] == (0.5, 0.5, 0.5)

    def test_uniform_corpus_order1_unigrams(self):
        rng = np.random.default_rng(0)
        tags = ["T1", "T2", "T3", "T4"]
        sentences = [
            [tags[i] for i in rng.integers(0, 4, size=200)] for _ in range(60)
        ]
        with pytest.warns(UserWarning):
            model = train_lm(sentences, tags, order=1)
        for tag in tags:
            assert model.prob(tag, ()) == pytest.approx(0.25, abs=0.02)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_training_is_deterministic(self):
        first = train_lm(HAND_CORPUS, HAND_TAGS, order=3)
        second = train_lm(HAND_CORPUS, HAND_TAGS, order=3)
        assert first.logprobs == second.logprobs
        assert first.backoffs == second.backoffs

    def test_doubling_corpus_keeps_top_order_ratios(self):
        symbols, once = _count_ngrams(HAND_CORPUS, frozenset(HAND_TAGS), 3)
        _, twice = _count_ngrams(HAND_CORPUS * 2, frozenset(HAND_TAGS), 3)
        keys, counts_once = once[3]
        np.testing.assert_array_equal(twice[3][0], keys)
        counts_twice = twice[3][1]
        # windows ending in the begin marker are contexts, not predicted grams
        predicted = keys % len(symbols) != symbols.index(BOS)
        contexts = keys // len(symbols)
        for ctx in np.unique(contexts[predicted]):
            same = predicted & (contexts == ctx)
            assert counts_once[same] / counts_once[same].sum() == pytest.approx(
                counts_twice[same] / counts_twice[same].sum()
            )

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_order5_model_matches_recorded_digest(self):
        # every stored float to the last bit, recorded when counting ran on
        # tuple-keyed dicts; the reference comparisons above allow 1e-9, so a
        # last-bit change (numpy's log10 or power for math's) shows only here
        corpus = lm_family_corpus("T", "Germanic", 1500, seed=33)
        model = train_lm(pos_sequences(corpus), LM_TAGS + [",", ".", "$"], order=5)
        text = repr(
            (sorted(model.logprobs.items()), sorted(model.backoffs.items()), model.discounts)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0db2ab79fdad1b357acca2e3a85af061e3c11a86dfdce2664b21a4cb03460beb"
        )

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_model_holds_under_48_bytes_per_entry(self):
        # string-tuple dicts held about 127 B per logprobs + backoffs entry
        # here; the per-order arrays about 21
        sentences = pos_sequences(lm_family_corpus("T", "Germanic", 1500, seed=33))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = train_lm(sentences, LM_TAGS + [",", ".", "$"], order=5)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert held / (len(model.logprobs) + len(model.backoffs)) < 48

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_doubling_corpus_does_not_hurt_training_fit(self):
        model_once = train_lm(HAND_CORPUS, HAND_TAGS, order=3)
        model_twice = train_lm(HAND_CORPUS * 2, HAND_TAGS, order=3)
        before = ppl(model_once, HAND_CORPUS).perplexity
        after = ppl(model_twice, HAND_CORPUS).perplexity
        assert after <= before + 1e-9


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestPerplexity:
    def test_identity_with_per_token_queries(self):
        model = train_lm(HAND_CORPUS, HAND_TAGS, order=3)
        test_set = [["A", "B", "C"], ["B", "A"]]
        report = ppl(model, test_set)
        log_sum = 0.0
        positions = 0
        for sentence in test_set:
            history = [BOS] * (model.order - 1)
            for tag in sentence:
                log_sum += model.logprob(tag, history)
                history.append(tag)
                positions += 1
            log_sum += model.logprob(EOS, history)
            positions += 1
        assert report.scored == positions
        assert report.excluded == 0
        assert report.perplexity == pytest.approx(
            10.0 ** (-log_sum / positions), abs=1e-9
        )

    def test_single_tag_corpus_approaches_one(self):
        previous = math.inf
        for m in (10, 50, 200):
            model = train_lm([["A"] * m], ["A"], order=1)
            report = ppl(model, [["A"] * m])
            # brute-force product: P(A) = m/(m+1), P(</s>) = 1/(m+1)
            expected = 10.0 ** (
                -(m * math.log10(m / (m + 1)) + math.log10(1 / (m + 1))) / (m + 1)
            )
            assert report.perplexity == pytest.approx(expected, abs=1e-9)
            assert 1.0 < report.perplexity < previous
            previous = report.perplexity

    def test_oov_exclusion_accounting(self):
        model = train_lm(HAND_CORPUS, HAND_TAGS, order=3)
        report = ppl(model, [["A", "X", "B"], ["Y", "A"]])
        assert report.excluded == 2
        assert report.scored == 3 + 2  # in-vocab tokens + sentence ends
        assert report.scored + report.excluded == 7

    def test_oov_truncates_history(self):
        model = train_lm(HAND_CORPUS, HAND_TAGS, order=3)
        report = ppl(model, [["A", "X", "B"]])
        expected = (
            model.logprob("A", (BOS, BOS))
            + model.logprob("B", ())  # history reset at the excluded symbol
            + model.logprob(EOS, ("B",))
        )
        assert report.log10_sum == pytest.approx(expected, abs=1e-12)

    def test_oov_leaves_unaffected_positions_unchanged(self):
        model = train_lm(HAND_CORPUS, HAND_TAGS, order=3)
        clean = ppl(model, [["A", "B", "A", "B"]])
        noisy = ppl(model, [["A", "B", "X", "A", "B"]])
        # positions before the insertion and the sentence-end position (whose
        # two-symbol context is A,B in both) contribute identically
        head_clean = model.logprob("A", (BOS, BOS)) + model.logprob("B", (BOS, "A"))
        end_clean = model.logprob(EOS, ("A", "B"))
        head_noisy = model.logprob("A", (BOS, BOS)) + model.logprob("B", (BOS, "A"))
        end_noisy = model.logprob(EOS, ("A", "B"))
        assert head_clean == head_noisy
        assert end_clean == end_noisy
        assert noisy.excluded == 1
        assert noisy.scored == clean.scored

    def test_empty_test_set_rejected(self):
        model = train_lm(HAND_CORPUS, HAND_TAGS, order=2)
        with pytest.raises(ValueError, match="empty"):
            ppl(model, [])


# out-of-vocabulary tags first, in the middle, last, two in a row and alone;
# the begin marker is out of vocabulary as a tag, the end marker is not
OOV_PROBES = [
    ["X", "DT", "NN", "VB"],
    ["DT", "NN", "X", "VB", "IN", "DT", "NN"],
    ["DT", "JJ", "NN", "X"],
    ["DT", "X", "Y", "NN", "VB", "RB"],
    ["X", "Y", "Z"],
    ["X"],
    [BOS, "DT", "NN"],
    ["DT", EOS, "NN"],
]


def _in_order(values):
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestBatchScorerExact:
    @pytest.fixture(scope="class")
    def test_set(self):
        held_out = list(pos_sequences(lm_family_corpus("T", "Romance", 40, seed=8)))
        return OOV_PROBES + held_out[:20] + OOV_PROBES[::-1] + held_out[20:]

    @pytest.mark.parametrize("reload", [False, True], ids=["trained", "reloaded"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_matches_per_token_walk(self, tmp_path, test_set, order, reload):
        train = pos_sequences(lm_family_corpus("T", "Germanic", 120, seed=4))
        model = train_lm(train, LM_TAGS, order=order)
        if reload:
            write_arpa(model, tmp_path / "model.arpa")
            model = read_arpa(tmp_path / "model.arpa")
        expected = reference_score(model, test_set)

        # one-sentence chunks give the per-sentence figures
        single = ppl_by_chunks(model, test_set, chunk_size_sentences=1).per_chunk
        assert [(c.log10_sum, c.scored, c.excluded) for c in single] == expected

        whole = ppl(model, test_set)
        assert whole.log10_sum == _in_order(log for log, _, _ in expected)
        assert whole.scored == sum(scored for _, scored, _ in expected)
        assert whole.excluded == sum(excluded for _, _, excluded in expected)

        chunked = ppl_by_chunks(model, test_set, chunk_size_sentences=7)
        for i, chunk in enumerate(chunked.per_chunk):
            block = expected[7 * i : 7 * i + 7]
            assert chunk.log10_sum == _in_order(log for log, _, _ in block)
            assert chunk.scored == sum(scored for _, scored, _ in block)
            assert chunk.excluded == sum(excluded for _, _, excluded in block)
        assert chunked.log10_sum == _in_order(c.log10_sum for c in chunked.per_chunk)

    def test_subset_reports_equal_scoring_the_subset(self, test_set):
        # a subset's report from the whole set's per-sentence scores is what
        # scoring that subset alone gives, to the last bit
        train = pos_sequences(lm_family_corpus("T", "Germanic", 120, seed=4))
        model = train_lm(train, LM_TAGS, order=3)
        scores = ppl(model, test_set).per_sentence
        rows = np.random.default_rng(5).permutation(len(test_set))[:37]
        subset = [test_set[i] for i in rows]
        for report, alone in (
            (scores.report(rows), ppl(model, subset)),
            (scores.report(rows, 10), ppl_by_chunks(model, subset, 10)),
        ):
            assert report == alone
            assert report.perplexity == alone.perplexity
            assert report.per_chunk == alone.per_chunk


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestPplByChunks:
    def _model(self):
        return train_lm(HAND_CORPUS, HAND_TAGS, order=2)

    def test_5000_sentences_make_50_chunks(self):
        model = self._model()
        rng = np.random.default_rng(1)
        sentences = [
            [HAND_TAGS[i] for i in rng.integers(0, 4, size=8)] for _ in range(5000)
        ]
        report = ppl_by_chunks(model, sentences, chunk_size_sentences=100)
        assert len(report.per_chunk) == 50
        assert not any(c.short for c in report.per_chunk)

    def test_final_short_chunk_flagged(self):
        model = self._model()
        sentences = [["A", "B"]] * 150
        report = ppl_by_chunks(model, sentences, chunk_size_sentences=100)
        assert len(report.per_chunk) == 2
        assert not report.per_chunk[0].short
        assert report.per_chunk[1].short

    def test_chunks_aggregate_to_whole(self):
        model = self._model()
        rng = np.random.default_rng(2)
        sentences = [
            [HAND_TAGS[i] for i in rng.integers(0, 4, size=6)] for _ in range(230)
        ]
        chunked = ppl_by_chunks(model, sentences, chunk_size_sentences=100)
        whole = ppl(model, sentences)
        assert chunked.perplexity == pytest.approx(whole.perplexity, abs=1e-9)
        assert chunked.scored == whole.scored
        assert sum(c.scored for c in chunked.per_chunk) == whole.scored


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestArpa:
    def _score_set(self):
        return [["A", "B", "C"], ["C", "B"], ["D", "A", "B", "C", "D"]]

    @pytest.mark.parametrize(
        "corpus,order",
        [
            ([["DT", "NN"]], 2),
            (HAND_CORPUS, 5),
            (HAND_CORPUS + [["D", "D", "C", "B"]] * 3, 3),
        ],
    )
    def test_round_trip_preserves_scores(self, tmp_path, corpus, order):
        tags = sorted({t for s in corpus for t in s})
        model = train_lm(corpus, tags, order=order)
        path = tmp_path / "model.arpa"
        write_arpa(model, path)
        loaded = read_arpa(path)
        assert loaded.order == model.order
        for sentence in self._score_set():
            history = [BOS] * (model.order - 1)
            for tag in sentence:
                if tag not in model.vocab:
                    history = []
                    continue
                assert loaded.logprob(tag, history) == pytest.approx(
                    model.logprob(tag, history), abs=1e-6
                )
                history.append(tag)
            assert loaded.logprob(EOS, history) == pytest.approx(
                model.logprob(EOS, history), abs=1e-6
            )

    def test_round_trip_perplexity(self, tmp_path):
        model = train_lm(HAND_CORPUS, HAND_TAGS, order=4)
        path = tmp_path / "model.arpa"
        write_arpa(model, path)
        loaded = read_arpa(path)
        original = ppl(model, self._score_set())
        reread = ppl(loaded, self._score_set())
        assert reread.perplexity == pytest.approx(original.perplexity, rel=1e-6)

    def test_header_count_mismatch_names_section(self, tmp_path):
        model = train_lm(HAND_CORPUS, HAND_TAGS, order=2)
        path = tmp_path / "model.arpa"
        write_arpa(model, path)
        lines = path.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if l.startswith("ngram 1="))
        declared = int(lines[header_idx].split("=")[1])
        lines[header_idx] = f"ngram 1={declared + 1}"
        bad = tmp_path / "bad.arpa"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="section 1-grams"):
            read_arpa(bad)

    def test_missing_end_marker_rejected(self, tmp_path):
        path = tmp_path / "truncated.arpa"
        path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\tA\n")
        with pytest.raises(ValueError, match="end"):
            read_arpa(path)

    def test_unsorted_file_with_missing_prefix(self, tmp_path):
        # sections out of key order, and a trigram "A B A" with no "A B"
        # line; the values were recorded with the string-tuple dict reader
        path = tmp_path / "hand.arpa"
        path.write_text(
            """\\data\\
ngram 1=5
ngram 2=4
ngram 3=2

\\1-grams:
-0.5228787\tB\t-0.2218487
-0.9030900\t</s>
-99\t<s>\t-0.4771213
-0.4259687\tA\t-0.3010300
-1.0000000\tC

\\2-grams:
-0.4771213\tB A\t-0.1249387
-0.3010300\t<s> A\t-0.1760913
-0.6020600\tA </s>
-0.3979400\tB </s>

\\3-grams:
-0.3010300\tA B A
-0.1549020\t<s> A B

\\end\\
"""
        )
        model = read_arpa(path)
        assert model.order == 3
        assert model.vocab == {"A", "B", "C", EOS}
        assert ("A", "B") not in model.logprobs
        assert ("A", "B") not in model.backoffs
        assert len(model.logprobs) == 11
        pinned = [
            ("A", ("A", "B"), -0.30103),
            ("B", (BOS, "A"), -0.154902),
            (EOS, ("A", "B"), -0.39794),
            ("A", ("C", "B"), -0.4771213),
            ("C", ("B", "A"), -1.4259687),
            ("B", ("A",), -0.8239087),
            (EOS, ("B",), -0.39794),
            ("A", (), -0.4259687),
        ]
        for word, history, value in pinned:
            assert model.logprob(word, history) == value, (word, history)
        report = ppl(model, [["A", "B", "A"], ["A", "B"], ["C", "X", "B", "A"]])
        assert report.log10_sum == -5.5419526999999995
        assert (report.scored, report.excluded) == (11, 1)
        assert report.perplexity == 3.190170405168043

    def test_kenlm_style_external_file_loads(self, tmp_path):
        # single-<s> convention, <unk> entry, tab separation: the format a
        # standard n-gram toolkit emits
        external = """\\data\\
ngram 1=5
ngram 2=5
ngram 3=2

\\1-grams:
-1.3010300\t<unk>\t0.0000000
-99\t<s>\t-0.4771213
-0.9030900\t</s>
-0.4259687\tA\t-0.3010300
-0.5228787\tB\t-0.2218487

\\2-grams:
-0.3010300\t<s> A\t-0.1760913
-0.4771213\tA B\t-0.1249387
-0.6020600\tB A\t-0.0969100
-0.3979400\tB </s>
-0.9030900\tA </s>

\\3-grams:
-0.1549020\t<s> A B
-0.3010300\tA B A

\\end\\
"""
        path = tmp_path / "external.arpa"
        path.write_text(external)
        model = read_arpa(path)
        assert model.order == 3
        assert "A" in model.vocab and "B" in model.vocab
        # the same file with space-separated columns parses identically
        spaced = tmp_path / "spaced.arpa"
        spaced.write_text(external.replace("\t", " "))
        respaced = read_arpa(spaced)
        assert respaced.logprobs == model.logprobs
        assert respaced.backoffs == model.backoffs
        # longest match hits the stored trigrams directly
        assert model.logprob("B", ("<s>", "A")) == pytest.approx(-0.1549020)
        assert model.logprob("A", ("A", "B")) == pytest.approx(-0.3010300)
        # unseen trigram backs off through bow(A B) to the bigram B </s>
        expected_backoff = -0.1249387 + -0.3979400
        assert model.logprob(EOS, ("A", "B")) == pytest.approx(expected_backoff)
        report = ppl(model, [["A", "B", "A"], ["A", "B"]])
        assert report.perplexity > 1.0


    def test_gram_listed_twice_takes_its_last_line(self, tmp_path):
        path = tmp_path / "twice.arpa"
        path.write_text(
            "\\data\\\nngram 1=4\nngram 2=3\n\n"
            "\\1-grams:\n-0.5\tA\t-0.1\n-0.6\t</s>\n-0.7\tA\t-0.2\n-99\t<s>\t-0.3\n\n"
            "\\2-grams:\n-0.4\t<s> A\n-0.8\tA </s>\n-0.9\t<s> A\n\n"
            "\\end\\\n"
        )
        model = read_arpa(path)
        assert dict(model.logprobs) == {
            ("</s>",): -0.6,
            ("<s>",): -99.0,
            ("A",): -0.7,
            ("<s>", "A"): -0.9,
            ("A", "</s>"): -0.8,
        }
        assert dict(model.backoffs) == {("<s>",): -0.3, ("A",): -0.2}

    def test_repeated_section_header_counts_every_line_against_the_header(self, tmp_path):
        path = tmp_path / "repeated.arpa"
        path.write_text(
            "\\data\\\nngram 1=2\n\n"
            "\\1-grams:\n-0.5\tA\n-0.6\t</s>\n\n"
            "\\1-grams:\n-0.7\tB\n-0.8\tC\n\n"
            "\\end\\\n"
        )
        with pytest.raises(ValueError, match="section 1-grams has 4 entries, header declares 2"):
            read_arpa(path)

    @pytest.mark.parametrize("header", [True, False], ids=["section_header", "no_section_header"])
    def test_declared_empty_top_section_keeps_the_order(self, tmp_path, header):
        path = tmp_path / "empty_top.arpa"
        path.write_text(
            "\\data\\\nngram 1=3\nngram 2=1\nngram 3=0\n\n"
            "\\1-grams:\n-0.3\tA\t-0.1\n-0.6\t</s>\n-99\t<s>\t-0.2\n\n"
            "\\2-grams:\n-0.4\t<s> A\n\n"
            + ("\\3-grams:\n\n" if header else "")
            + "\\end\\\n"
        )
        model = read_arpa(path)
        assert model.order == 3 and len(model.levels) == 3
        assert len(model.levels[2].keys) == 0
        assert len(model.logprobs) == 4
        assert model.logprob("A", (BOS, BOS)) == -0.4
        assert model.logprob(EOS, (BOS, "A")) == -0.1 + -0.6


class TestPosIO:
    def test_pos_sequences_from_corpus(self):
        corpus = make_corpus(
            [make_sentence(["the", "cat"], pos=["DT", "NN"])]
        )
        assert list(pos_sequences(corpus)) == [["DT", "NN"]]

    def test_pos_sequences_requires_tags(self):
        corpus = make_corpus([make_sentence(["the", "cat"], pos=["DT", None])])
        with pytest.raises(ValueError, match="sentence 0"):
            pos_sequences(corpus)


_TAGS36 = [f"T{i:02d}" for i in range(36)]
_rng36 = np.random.default_rng(5)
# each counts its low orders under the key bound and its top order above it
COUNTING_INPUTS = {
    "8-tag chain": (pos_sequences(lm_family_corpus("T", "Romance", 300, seed=8)), LM_TAGS, 5),
    # fully connected: from order 3 on the bound exceeds the windows
    "36 tags": (
        [list(_rng36.choice(_TAGS36, size=_rng36.integers(3, 15))) for _ in range(300)],
        _TAGS36,
        5,
    ),
    "hand": (HAND_CORPUS, HAND_TAGS, 4),
}


def unique_levels(sentences, tags, order):
    """The levels of ``_count_ngrams`` counted by ``np.unique`` at every
    order from 2 on, after order 1 laid out as every symbol id with its
    count, and whether each of those orders' key bound is at most its window
    count."""
    symbols = sorted(set(tags) | {BOS, EOS})
    code = {symbol: i for i, symbol in enumerate(symbols)}
    padded = []
    for sentence in sentences:
        padded += [code[BOS]] * (order - 1) + [code[t] for t in sentence] + [code[EOS]]
    ids = np.array(padded)
    unigrams = Counter(padded)
    levels = [
        (np.zeros(1, dtype=np.int64), np.array([len(ids)])),
        (np.arange(len(symbols)), np.array([unigrams[i] for i in range(len(symbols))])),
    ]
    prefix = ids.copy()
    under_bound = []
    for n in range(2, order + 1):
        starts = len(ids) - n + 1
        under_bound.append(len(levels[-1][0]) * len(symbols) <= starts)
        keys, inverse, counts = np.unique(
            prefix[:starts] * len(symbols) + ids[n - 1 :], return_inverse=True, return_counts=True
        )
        prefix[:starts] = inverse
        levels.append((keys, counts))
    return symbols, levels, under_bound


class TestCountNgrams:
    """Order 1 holds every symbol id. From order 2 on, an order whose key
    bound is at most its window count is counted by a counting sort, any
    other by ``np.unique``; both give ``np.unique``'s keys and counts."""

    @pytest.mark.parametrize("name", sorted(COUNTING_INPUTS))
    def test_levels_equal_unique_counting(self, name):
        sentences, tags, order = COUNTING_INPUTS[name]
        symbols, levels = _count_ngrams(sentences, frozenset(tags), order)
        expected_symbols, expected, _ = unique_levels(sentences, tags, order)
        assert symbols == expected_symbols
        assert len(levels) == len(expected)
        for (keys, counts), (want_keys, want_counts) in zip(levels, expected):
            np.testing.assert_array_equal(keys, want_keys)
            np.testing.assert_array_equal(counts, want_counts)
            assert keys.dtype == want_keys.dtype and counts.dtype == want_counts.dtype

    def test_order_one_holds_every_symbol(self):
        symbols, levels = _count_ngrams([["DT", "NN"]], frozenset({"DT", "NN", "VB"}), 2)
        assert symbols == ["</s>", "<s>", "DT", "NN", "VB"]
        np.testing.assert_array_equal(levels[1][0], np.arange(5))
        np.testing.assert_array_equal(levels[1][1], [1, 1, 1, 1, 0])

    def test_levels_past_int32_keys_equal_unique_counting(self):
        # with 50,000 tags, prefixes x symbols pass 2**31 from order 2 on,
        # so those keys are counted in int64
        tags = [f"t{i}" for i in range(50_000)]
        rng = np.random.default_rng(9)
        sentences = [
            [tags[i] for i in rng.integers(0, len(tags), rng.integers(1, 8))] for _ in range(300)
        ]
        symbols, levels = _count_ngrams(sentences, frozenset(tags), 3)
        _, expected, _ = unique_levels(sentences, tags, 3)
        assert len(levels[1][0]) * len(symbols) >= 2**31
        for (keys, counts), (want_keys, want_counts) in zip(levels, expected):
            np.testing.assert_array_equal(keys, want_keys)
            np.testing.assert_array_equal(counts, want_counts)

    def test_counting_holds_int32_ids_and_keys(self):
        # padded ids, prefixes and keys in int32 while they fit: about 26 B
        # per padded id at the peak, 34 in int64
        corpus = concat(
            lm_family_corpus("T", family, 3000, seed=seed)
            for seed, family in enumerate(("Germanic", "Romance"))
        )
        sentences = pos_sequences(corpus)
        padded = corpus.token_count + 5 * len(corpus)
        _, peak, _ = traced(lambda: _count_ngrams(sentences, frozenset(LM_TAGS), 5))
        assert peak / padded < 30

    @pytest.mark.parametrize("name", sorted(COUNTING_INPUTS))
    def test_inputs_cover_both_sides_of_the_bound(self, name):
        under_bound = unique_levels(*COUNTING_INPUTS[name])[2]
        assert under_bound[0] and not under_bound[-1]
