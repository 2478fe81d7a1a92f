import dataclasses
from collections import Counter

import numpy as np
import pytest

from conftest import make_corpus, make_sentence, traced
from oracles import reference_sentence_counts
from synthdata import lm_family_corpus, metrics_corpus, variety_corpus
from varieties.corpus import Corpus, concat
from varieties.lexicons import PhraseEntry, PhraseList, RankList, WordList
from varieties.metrics import (
    SentenceStats,
    check_sizes,
    collocation_types,
    mean_word_rank,
    normalize_triple,
    pronouns,
    transitions,
    ttr,
)


def phrase_list(*texts):
    return PhraseList(
        name="t", entries=tuple(PhraseEntry(tokens=tuple(t.split())) for t in texts)
    )


class TestTtr:
    def test_lemmatized(self):
        corpus = make_corpus(
            [make_sentence(["run", "runs"], lemma=["run", "run"])]
        )
        assert ttr(corpus).raw == pytest.approx(0.5)

    def test_all_distinct(self):
        corpus = make_corpus([make_sentence([f"w{i}" for i in range(10)])])
        value = ttr(corpus)
        assert value.raw == pytest.approx(1.0)
        assert value.basis == 10

    def test_surface_fallback(self):
        corpus = make_corpus([make_sentence(["the", "the", "cat"])])
        assert ttr(corpus).raw == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        from varieties.corpus import Corpus

        with pytest.raises(ValueError):
            ttr(Corpus(sentences=()))

    def test_sentence_order_invariant(self):
        sentences = [make_sentence([f"w{i % 7}"]) for i in range(20)]
        forward = ttr(make_corpus(sentences))
        backward = ttr(make_corpus(list(reversed(sentences))))
        assert forward.raw == backward.raw


class TestMeanWordRank:
    RANKS = RankList(name="r", ranks={"cat": 100, "dog": 300, "the": 1})
    FW = WordList(name="fw", entries=frozenset({"the"}))

    def test_simple_mean(self):
        corpus = make_corpus([make_sentence(["cat", "dog"])])
        value = mean_word_rank(corpus, self.RANKS, self.FW)
        assert value.raw == pytest.approx(200.0)
        assert value.basis == 2

    def test_function_words_excluded(self):
        corpus = make_corpus([make_sentence(["the", "cat"])])
        value = mean_word_rank(corpus, self.RANKS, self.FW)
        assert value.raw == pytest.approx(100.0)
        assert value.basis == 1

    def test_oov_excluded_from_both_sides(self):
        corpus = make_corpus([make_sentence(["cat", "zyzzyva"])])
        value = mean_word_rank(corpus, self.RANKS, self.FW)
        assert value.raw == pytest.approx(100.0)
        assert value.basis == 1

    def test_nothing_covered_rejected(self):
        corpus = make_corpus([make_sentence(["zyzzyva"])])
        with pytest.raises(ValueError, match="rank list"):
            mean_word_rank(corpus, self.RANKS, self.FW)


class TestCollocations:
    IDIOMS = phrase_list("red tape", "food chain", "make sure")

    def test_type_count(self):
        sentences = [make_sentence(["red", "tape", "x"]) for _ in range(7)]
        sentences.append(make_sentence(["food", "chain"]))
        value = collocation_types(make_corpus(sentences), self.IDIOMS)
        assert value.raw == 2.0

    def test_no_idioms(self):
        corpus = make_corpus([make_sentence(["plain", "words"])])
        assert collocation_types(corpus, self.IDIOMS).raw == 0.0

    def test_monotone_under_extension(self):
        base = [make_sentence(["red", "tape"])]
        extended = base + [make_sentence(["food", "chain"])]
        v1 = collocation_types(make_corpus(base), self.IDIOMS)
        v2 = collocation_types(make_corpus(extended), self.IDIOMS)
        assert v2.raw >= v1.raw


class TestTransitions:
    MARKERS = phrase_list("in addition", "thus")

    def test_frequency(self):
        body = [f"w{i}" for i in range(996)]
        corpus = make_corpus(
            [
                make_sentence(["in", "addition"] + body[:498]),
                make_sentence(["in", "addition"] + body[498:]),
            ]
        )
        assert transitions(corpus, self.MARKERS).raw == pytest.approx(0.002)

    def test_zero(self):
        corpus = make_corpus([make_sentence(["nothing", "here"])])
        assert transitions(corpus, self.MARKERS).raw == 0.0

    def test_empty_marker_list_rejected(self):
        corpus = make_corpus([make_sentence(["x"])])
        with pytest.raises(ValueError, match="empty"):
            transitions(corpus, PhraseList(name="none", entries=()))


class TestPronouns:
    def test_frequency(self):
        corpus = make_corpus(
            [make_sentence(["he", "said"], pos=["PRP", "VBD"])]
        )
        assert pronouns(corpus).raw == pytest.approx(0.5)

    def test_possessive_counts(self):
        corpus = make_corpus(
            [make_sentence(["his", "book"], pos=["PRP$", "NN"])]
        )
        assert pronouns(corpus).raw == pytest.approx(0.5)

    def test_missing_tags_rejected(self):
        corpus = make_corpus([make_sentence(["he", "said"], pos=["PRP", None])])
        with pytest.raises(ValueError, match="POS tag"):
            pronouns(corpus)

    def test_pronoun_and_complement_sum_to_one(self):
        corpus = make_corpus(
            [
                make_sentence(
                    ["he", "reads", "his", "big", "book"],
                    pos=["PRP", "VBZ", "PRP$", "JJ", "NN"],
                )
            ]
        )
        p = pronouns(corpus).raw
        non_pronoun = sum(
            1
            for sent in corpus.sentences
            for t in sent.tokens
            if t.pos not in ("PRP", "PRP$")
        ) / corpus.token_count
        assert p + non_pronoun == pytest.approx(1.0)


class TestCheckSizes:
    def _corpus(self, n_tokens, variety="N"):
        return make_corpus(
            [make_sentence([f"t{i}" for i in range(n_tokens)], variety=variety)]
        )

    def test_equal_passes(self):
        check = check_sizes(self._corpus(780), self._corpus(780), self._corpus(780))
        assert check.ok

    def test_within_one_percent_passes(self):
        check = check_sizes(self._corpus(1000), self._corpus(995), self._corpus(1002))
        assert check.ok

    def test_offender_named(self):
        check = check_sizes(self._corpus(780), self._corpus(500), self._corpus(780))
        assert not check.ok
        assert check.offenders == ("NN",)
        assert "NN" in check.message

    def test_empty_corpus_diagnostic(self):
        from varieties.corpus import Corpus

        check = check_sizes(self._corpus(100), Corpus(sentences=()), self._corpus(100))
        assert not check.ok
        assert "NN" in check.message


class TestNormalizeTriple:
    def test_simple(self):
        triple = normalize_triple("TTR", 1.0, 1.0, 2.0)
        assert (triple.norm_n, triple.norm_t, triple.norm_nn) == (0.25, 0.25, 0.5)

    def test_degenerate_axis(self):
        triple = normalize_triple("TTR", 5.0, 0.0, 0.0)
        assert (triple.norm_n, triple.norm_t, triple.norm_nn) == (1.0, 0.0, 0.0)

    def test_sums_to_one_and_scale_invariant(self):
        triple = normalize_triple("TTR", 0.081, 0.0755, 0.071)
        assert triple.norm_n + triple.norm_t + triple.norm_nn == pytest.approx(
            1.0, abs=1e-9
        )
        scaled = normalize_triple("TTR", 8.1, 7.55, 7.1)
        assert scaled.norm_n == pytest.approx(triple.norm_n, abs=1e-12)
        assert scaled.norm_t == pytest.approx(triple.norm_t, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            normalize_triple("TTR", 0.0, 0.0, 0.0)


def lemmatized(corpus):
    """Every third token lemmatized to its first three letters, so lemmas
    merge surfaces."""
    return make_corpus(
        [
            make_sentence(
                [t.surface for t in s.tokens],
                variety=s.variety,
                pos=[t.pos for t in s.tokens],
                lemma=[t.surface[:3] if i % 3 == 0 else None for i, t in enumerate(s.tokens)],
            )
            for s in corpus.sentences
        ]
    )


STATS_CORPORA = {
    "metrics-N": metrics_corpus("N", 80, seed=1),
    "metrics-null": metrics_corpus("T", 80, seed=3, null=True),
    "variety-NN": variety_corpus("NN", 60, seed=2),
    "lm-planted": lm_family_corpus("T", "Romance", 80, seed=4, plant_phrases=True),
    "lemmatized": lemmatized(metrics_corpus("NN", 60, seed=5)),
}


def metric_values(corpus, resources):
    """The five metric functions, in METRIC_NAMES order."""
    return (
        ttr(corpus).raw,
        mean_word_rank(corpus, resources.word_ranks, resources.function_words).raw,
        collocation_types(corpus, resources.idioms).raw,
        transitions(corpus, resources.sentence_transitions()).raw,
        pronouns(corpus).raw,
    )


def drawn(corpus, indices):
    return Corpus(sentences=tuple(corpus.sentences[i] for i in indices))


class TestSentenceStats:
    @pytest.mark.parametrize("name", sorted(STATS_CORPORA))
    def test_all_sentences_equal_the_metric_functions(self, resources, name):
        corpus = STATS_CORPORA[name]
        stats = SentenceStats.of([corpus], resources)
        assert len(stats) == len(corpus)
        assert stats.values(np.arange(len(stats))) == metric_values(corpus, resources)

    @pytest.mark.parametrize("name", sorted(STATS_CORPORA))
    def test_index_draws_equal_the_drawn_corpus(self, resources, name):
        corpus = STATS_CORPORA[name]
        stats = SentenceStats.of([corpus], resources)
        rng = np.random.default_rng(7)
        for size in (1, 5, 40, 200):
            indices = rng.integers(0, len(corpus), size=size)
            assert stats.values(indices) == metric_values(drawn(corpus, indices), resources)

    def test_one_table_over_three_corpora_equals_the_metric_functions(self, resources):
        parts = [STATS_CORPORA[name] for name in ("metrics-N", "lemmatized", "lm-planted")]
        table = SentenceStats.of(parts, resources)
        whole = concat(parts)
        recounted = SentenceStats.of([whole], resources)
        assert table.bounds == (0, 80, 140, 220)
        for part, start, stop in zip(parts, table.bounds, table.bounds[1:]):
            assert table.values(np.arange(start, stop)) == metric_values(part, resources)
        rng = np.random.default_rng(3)
        for _ in range(5):
            indices = rng.integers(0, len(whole), size=150)
            expected = metric_values(drawn(whole, indices), resources)
            assert table.values(indices) == expected
            assert recounted.values(indices) == expected

    def test_lemma_pairs_are_counted_in_int32_in_place(self, resources):
        # the lemma pairs are int32 here and their runs are counted in place:
        # about 33 B per token at the peak, 47 with int64 pairs and np.diff's
        # copies of the run ends
        corpora = [metrics_corpus(v, 6000, seed=1) for v in ("N", "NN", "T")]
        _, peak, _ = traced(lambda: SentenceStats.of(corpora, resources))
        assert peak / sum(c.token_count for c in corpora) < 38

    def test_missing_pos_named_like_pronouns(self, resources):
        corpus = make_corpus(
            [
                make_sentence(["he", "said"], pos=["PRP", "VBD"]),
                make_sentence(["she", "wrote", "it"], pos=["PRP", None, "PRP"]),
            ]
        )
        with pytest.raises(ValueError, match="'wrote' is missing its POS tag"):
            pronouns(corpus)
        with pytest.raises(ValueError, match="'wrote' is missing its POS tag"):
            SentenceStats.of([corpus], resources)

    def test_draw_without_ranked_token_rejected(self, resources):
        corpus = make_corpus(
            [
                make_sentence(["the", "world"], pos=["DT", "NN"]),
                make_sentence(["zyzzyva", "the"], pos=["NN", "DT"]),
            ]
        )
        stats = SentenceStats.of([corpus], resources)
        stats.values(np.array([0, 1]))
        with pytest.raises(ValueError, match="rank list"):
            stats.values(np.array([1, 1]))

    def test_empty_corpus_rejected(self, resources):
        stats = SentenceStats.of([Corpus(sentences=())], resources)
        with pytest.raises(ValueError, match="empty corpus"):
            stats.values(np.arange(0))

    def test_empty_marker_list_rejected(self, resources):
        no_transitions = dataclasses.replace(
            resources,
            cohesive_markers=PhraseList(
                name="m", entries=(PhraseEntry(tokens=("thus",), category="other"),)
            ),
        )
        corpus = make_corpus([make_sentence(["thus"], pos=["RB"])])
        with pytest.raises(ValueError, match="empty transition-marker list"):
            SentenceStats.of([corpus], no_transitions)


def table_rows(table):
    """Each row of a KeyCounts table as a key -> count Counter."""
    return [
        Counter(
            {table.keys[c]: n for c, n in zip(table.col[start:stop], table.count[start:stop])}
        )
        for start, stop in zip(table.ptr, table.ptr[1:])
    ]


# the metrics_bootstrap benchmark workload's corpora, at its reference seed
BENCHMARK_SHAPED = [metrics_corpus(v, 250, seed=17) for v in ("N", "NN", "T")]


class TestSentenceCountsAgainstReference:
    """``SentenceStats.of`` against one loop per sentence over token fields
    (``oracles.reference_sentence_counts``)."""

    def check(self, corpora, resources):
        stats = SentenceStats.of(corpora, resources)
        counts, lemmas, idioms = reference_sentence_counts(corpora, resources)
        assert stats.counts.dtype == np.int64
        assert stats.counts.T.tolist() == [list(row) for row in counts]
        assert table_rows(stats.lemmas) == [Counter(row) for row in lemmas]
        assert table_rows(stats.idioms) == [Counter(row) for row in idioms]

    @pytest.mark.parametrize("name", sorted(STATS_CORPORA))
    def test_each_stats_corpus(self, resources, name):
        self.check([STATS_CORPORA[name]], resources)

    def test_benchmark_shaped_corpora(self, resources):
        self.check(BENCHMARK_SHAPED, resources)

    def test_corpora_laid_end_to_end(self, resources):
        self.check([STATS_CORPORA[name] for name in sorted(STATS_CORPORA)], resources)
