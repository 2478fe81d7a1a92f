import numpy as np
import pytest

from conftest import make_chunk, make_sentence
from varieties.errors import UntaggedTokenError
from varieties.features import (
    COH,
    FW,
    POS3,
    POSTOK,
    ChunkCounts,
    FeaturePlan,
    FeatureSpace,
    coh_space,
    fw_space,
    position_events,
    select_postok_vocab,
    select_top_pos3,
    space_feature_names,
    vectorize_chunks,
)
from varieties.lexicons import PhraseEntry, PhraseList, WordList


def words(*entries):
    return WordList(name="fw", entries=frozenset(entries))


def phrases(*texts):
    return PhraseList(
        name="coh",
        entries=tuple(PhraseEntry(tokens=tuple(t.split())) for t in texts),
    )


def frequencies(chunk, space):
    """The chunk's nonzero per-token frequencies in ``space``, by key."""
    row = vectorize_chunks([chunk], [space])[0]
    return {key: value for key, value in zip(space.keys, row) if value}


class TestExtractFw:
    def test_simple_frequency(self):
        chunk = make_chunk([make_sentence(["the", "cat", "the", "dog"])])
        assert frequencies(chunk, fw_space(words("the"))) == {"the": 0.5}

    def test_no_function_words(self):
        chunk = make_chunk([make_sentence(["cat", "dog"])])
        X = vectorize_chunks([chunk], [fw_space(words("the"))])
        assert np.array_equal(X, np.zeros((1, 1)))

    def test_frequency_over_large_chunk(self):
        # 2,000 tokens, 100 of them "of" -> 0.05
        body = [f"w{i}" for i in range(1900)] + ["of"] * 100
        chunk = make_chunk([make_sentence(body)])
        vec = frequencies(chunk, fw_space(words("of", "the")))
        assert vec == {"of": pytest.approx(0.05)}

    def test_duplication_invariance(self):
        sentences = [make_sentence(["the", "cat"]), make_sentence(["a", "dog"])]
        space = fw_space(words("the", "a"))
        once = vectorize_chunks([make_chunk(sentences)], [space])
        thrice = vectorize_chunks([make_chunk(sentences * 3)], [space])
        assert np.array_equal(once, thrice)

    def test_family_count_bounds(self):
        # FW raw counts can never exceed the token count; positional events
        # never exceed five per sentence
        sentences = [
            make_sentence(["the", "a", "of", "the", "cat"]),
            make_sentence(["the"]),
        ]
        chunk = make_chunk(sentences)
        fw_row = vectorize_chunks([chunk], [fw_space(words("the", "a", "of", "cat"))])
        assert fw_row.sum() <= 1.0 + 1e-12
        assert sum(ChunkCounts(chunk).postok.values()) <= 5 * len(sentences)


class TestExtractPos3:
    def test_single_trigram(self, resources):
        chunk = make_chunk(
            [make_sentence(["he", "has", "gone"], pos=["PRP", "VHZ", "VBN"])]
        )
        (space,) = FeaturePlan(families=(POS3,), resources=resources).fit([chunk])
        assert frequencies(chunk, space) == {"PRP_VHZ_VBN": pytest.approx(1 / 3)}

    def test_below_window_yields_nothing(self, resources):
        chunk = make_chunk([make_sentence(["a", "b"], pos=["DT", "NN"])])
        (space,) = FeaturePlan(families=(POS3,), resources=resources).fit([chunk])
        assert vectorize_chunks([chunk], [space]).shape == (1, 0)

    def test_no_cross_sentence_trigrams(self, resources):
        chunk = make_chunk(
            [
                make_sentence(["a", "b"], pos=["DT", "NN"]),
                make_sentence(["c", "d"], pos=["VB", "RB"]),
            ]
        )
        (space,) = FeaturePlan(families=(POS3,), resources=resources).fit([chunk])
        assert space.keys == ()
        assert frequencies(chunk, FeatureSpace(family=POS3, keys=("NN_VB_RB",))) == {}

    def test_missing_tag_rejected(self, resources):
        chunk = make_chunk([make_sentence(["a", "b", "c"], pos=["DT", None, "NN"])])
        plan = FeaturePlan(families=(POS3,), resources=resources)
        with pytest.raises(UntaggedTokenError, match="untagged"):
            plan.fit([chunk])
        with pytest.raises(UntaggedTokenError, match="untagged"):
            vectorize_chunks([chunk], [FeatureSpace(family=POS3, keys=("DT_NN_NN",))])


class TestSelectTopPos3:
    def test_top_k_with_count_order(self):
        chunks = [
            make_chunk(
                [make_sentence(["x"] * 5, pos=["A", "A", "A", "B", "B"])]
                + [make_sentence(["y"] * 3, pos=["A", "A", "A"])] * 4
            )
        ]
        space = select_top_pos3(chunks, k=1)
        assert space.keys == ("A_A_A",)

    def test_ties_break_lexicographically(self):
        chunks = [
            make_chunk(
                [
                    make_sentence(["x"] * 3, pos=["B", "B", "B"]),
                    make_sentence(["y"] * 3, pos=["A", "A", "A"]),
                ]
            )
        ]
        space = select_top_pos3(chunks, k=2)
        assert space.keys == ("A_A_A", "B_B_B")

    def test_deterministic(self):
        chunks = [
            make_chunk([make_sentence([f"w{i}" for i in range(30)],
                                      pos=["A", "B", "C"] * 10)])
        ]
        assert select_top_pos3(chunks, 10).keys == select_top_pos3(chunks, 10).keys


class TestPositionEvents:
    def test_three_token_sentence(self):
        assert position_events(["we", "must", "act"]) == [
            ("first", "we"),
            ("second", "must"),
            ("third", "act"),
            ("penultimate", "must"),
            ("last", "act"),
        ]

    def test_single_token_sentence(self):
        assert position_events(["yes"]) == [("first", "yes"), ("last", "yes")]

    def test_two_token_sentence(self):
        assert position_events(["go", "home"]) == [
            ("first", "go"),
            ("second", "home"),
            ("penultimate", "go"),
            ("last", "home"),
        ]

    def test_event_budget_per_sentence(self):
        # never more than 5 events
        for n in range(1, 9):
            assert len(position_events([f"w{i}" for i in range(n)])) <= 5


class TestExtractPostok:
    def test_events_filtered_by_vocab(self):
        chunk = make_chunk([make_sentence(["we", "must", "act"])])
        vocab = FeatureSpace(family=POSTOK, keys=("first:we", "last:act"))
        assert frequencies(chunk, vocab) == {
            "first:we": pytest.approx(1 / 3),
            "last:act": pytest.approx(1 / 3),
        }

    def test_empty_vocab_empty_vector(self):
        chunk = make_chunk([make_sentence(["we", "must", "act"])])
        X = vectorize_chunks([chunk], [FeatureSpace(family=POSTOK, keys=())])
        assert X.shape == (1, 0)

    def test_vocab_selection_threshold(self):
        chunks = [
            make_chunk([make_sentence(["go", "home"])] * 5
                       + [make_sentence(["stay", "here"])])
        ]
        space = select_postok_vocab(chunks, min_count=5)
        assert set(space.keys) == {"first:go", "second:home", "penultimate:go",
                                   "last:home"}


class TestExtractCoh:
    def test_marker_frequency(self):
        body = [f"w{i}" for i in range(996)]
        chunk = make_chunk(
            [
                make_sentence(["in", "addition"] + body[:498]),
                make_sentence(["in", "addition"] + body[498:]),
            ]
        )
        vec = frequencies(chunk, coh_space(phrases("in addition")))
        assert vec == {"in addition": pytest.approx(0.002)}

    def test_no_markers(self):
        chunk = make_chunk([make_sentence(["plain", "words"])])
        assert frequencies(chunk, coh_space(phrases("in addition"))) == {}

    def test_single_word_marker(self):
        body = ["thus"] * 3 + [f"w{i}" for i in range(1497)]
        chunk = make_chunk([make_sentence(body)])
        assert frequencies(chunk, coh_space(phrases("thus"))) == {
            "thus": pytest.approx(0.002)
        }


class TestVectorize:
    def test_dimension_is_sum_of_spaces(self):
        fw = FeatureSpace(family=FW, keys=tuple(f"f{i}" for i in range(400)))
        pos3 = FeatureSpace(family=POS3, keys=tuple(f"A_B_{i}" for i in range(3000)))
        chunk = make_chunk([make_sentence(["a", "b", "c"], pos=["A", "B", "C"])])
        assert vectorize_chunks([chunk], [fw, pos3]).shape == (1, 3400)

    def test_absent_features_are_zero(self):
        space = FeatureSpace(family=FW, keys=("the", "of"))
        chunk = make_chunk([make_sentence(["cat", "dog"])])
        assert np.array_equal(vectorize_chunks([chunk], [space]), np.zeros((1, 2)))

    def test_deterministic(self):
        space = FeatureSpace(family=FW, keys=("the", "of"))
        chunk = make_chunk([make_sentence(["the", "of", "cat"])])
        assert np.array_equal(
            vectorize_chunks([chunk], [space]), vectorize_chunks([chunk], [space])
        )

    def test_values_match_extractors(self):
        # each entry is exactly the raw count over the chunk token count
        chunk = make_chunk([make_sentence(["the", "of", "the", "cat"])])
        space = fw_space(words("the", "of"))
        row = vectorize_chunks([chunk], [space])[0]
        surfaces = [tok.surface for sent in chunk.sentences for tok in sent.tokens]
        assert row.tolist() == [
            surfaces.count(key) / chunk.token_count for key in space.keys
        ]

    def test_coh_space_respects_longest_match(self):
        space = coh_space(phrases("make sure", "sure"))
        chunk = make_chunk([make_sentence(["make", "sure"])])
        by_key = dict(zip(space.keys, vectorize_chunks([chunk], [space])[0]))
        assert by_key["make sure"] == pytest.approx(0.5)
        assert by_key["sure"] == 0.0

    def test_coh_counts_kept_per_phrase_list(self):
        # one record read through two lists: longest match differs per list
        record = ChunkCounts(make_chunk([make_sentence(["make", "sure"])]))
        longest = coh_space(phrases("make sure", "sure"))
        alone = coh_space(phrases("sure"))
        X = vectorize_chunks([record], [longest, alone])
        assert X.tolist() == [[0.5, 0.0, 0.5]]


class TestFeaturePlan:
    def test_fit_builds_requested_spaces(self, resources):
        chunks = [
            make_chunk([make_sentence(["the", "cat", "sat"], pos=["DT", "NN", "VBD"])])
        ]
        plan = FeaturePlan(families=(FW, POS3), resources=resources, top_pos3=10)
        spaces = plan.fit(chunks)
        assert [s.family for s in spaces] == [FW, POS3]
        assert len(spaces[0]) == len(resources.function_words)
        assert spaces[1].keys == ("DT_NN_VBD",)

    def test_unknown_family_rejected(self, resources):
        with pytest.raises(ValueError):
            FeaturePlan(families=("XX",), resources=resources)


class TestExports:
    def test_feature_names_order(self):
        spaces = [
            FeatureSpace(family=FW, keys=("a",)),
            FeatureSpace(family=COH, keys=("in addition",)),
        ]
        assert space_feature_names(spaces) == ["FW:a", "COH:in addition"]
