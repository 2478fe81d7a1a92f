import numpy as np
import pytest

from conftest import make_chunk, make_sentence, traced
from oracles import (
    reference_chunk_counts,
    reference_pos3_order,
    reference_select_postok_vocab,
    reference_select_top_pos3,
    reference_vectorize,
)
from synthdata import variety_corpus
from varieties.corpus import chunk as make_chunks
from varieties.corpus import shuffle
from varieties.errors import UntaggedTokenError
from varieties.features import (
    COH,
    FAMILIES,
    FW,
    POS3,
    POSTOK,
    ChunkCounts,
    FeaturePlan,
    FeatureSpace,
    coh_space,
    fw_space,
    select_postok_vocab,
    select_top_pos3,
    space_feature_names,
    vectorize_chunks,
)
from varieties.lexicons import PhraseEntry, PhraseList, WordList
from varieties.poslm import pos_sequences
from varieties.svm import stratified_folds


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
        _keys, totals = ChunkCounts([chunk]).totals(POSTOK)
        assert totals.sum() <= 5 * len(sentences)


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
        # one count store read through two lists: longest match differs per list
        counts = ChunkCounts([make_chunk([make_sentence(["make", "sure"])])])
        longest = coh_space(phrases("make sure", "sure"))
        alone = coh_space(phrases("sure"))
        X = vectorize_chunks(counts, [longest, alone])
        assert X.tolist() == [[0.5, 0.0, 0.5]]


@pytest.fixture(scope="module")
def labelled_chunks():
    chunks, labels = [], []
    for variety in ("N", "NN", "T"):
        for c in make_chunks(variety_corpus(variety, 120, seed=5), 100):
            chunks.append(c)
            labels.append(variety)
    return chunks, labels


def task_folds(labels):
    """(task rows, training rows, held-out rows) as cross-validation takes
    them: training rows in order, held-out rows as the folds deal them."""
    for task in (("N", "T"), ("N", "NN", "T")):
        keep = [i for i, lab in enumerate(labels) if lab in task]
        for test in stratified_folds([labels[i] for i in keep], 4, seed=3):
            train = [i for i in range(len(keep)) if i not in set(test)]
            yield keep, train, test


def position_counts(tokens):
    keys, totals = ChunkCounts([make_chunk([make_sentence(tokens)])]).totals(POSTOK)
    return dict(zip(keys, totals.tolist()))


class TestPositionEvents:
    def test_three_token_sentence(self):
        assert position_counts(["we", "must", "act"]) == {
            "first:we": 1,
            "second:must": 1,
            "third:act": 1,
            "penultimate:must": 1,
            "last:act": 1,
        }

    def test_single_token_sentence(self):
        assert position_counts(["yes"]) == {"first:yes": 1, "last:yes": 1}

    def test_two_token_sentence(self):
        assert position_counts(["go", "home"]) == {
            "first:go": 1,
            "second:home": 1,
            "penultimate:go": 1,
            "last:home": 1,
        }


class TestCountTableAgainstOracle:
    """Selection and vectorization on row views of one ChunkCounts equal the
    per-chunk Counter reference on the same chunks."""

    def views(self, labelled_chunks):
        chunks, labels = labelled_chunks
        counts = ChunkCounts(chunks)
        for keep, train, test in task_folds(labels):
            task = counts.take(keep)
            yield (
                (task.take(train), [chunks[keep[i]] for i in train]),
                (task.take(test), [chunks[keep[i]] for i in test]),
            )

    def test_top_pos3_ties_and_k_beyond_the_keys(self, labelled_chunks):
        ties = 0
        for (train, reference), _held_out in self.views(labelled_chunks):
            order = reference_pos3_order(reference)
            everything = select_top_pos3(train, k=len(order) + 10)
            assert everything.keys == reference_select_top_pos3(reference, len(order) + 10)
            assert len(everything) == len(order)
            # a cut between two keys of equal total keeps the smaller key
            cuts = [k for k in range(1, len(order)) if order[k - 1][1] == order[k][1]]
            ties += len(cuts)
            for k in cuts[:3]:
                assert select_top_pos3(train, k).keys == reference_select_top_pos3(reference, k)
        assert ties

    def test_postok_min_count_boundary(self, labelled_chunks):
        for (train, reference), _held_out in self.views(labelled_chunks):
            keys, totals = train.totals(POSTOK)
            boundary = int(np.median(totals[totals > 0]))
            for min_count in (1, boundary, boundary + 1):
                space = select_postok_vocab(train, min_count)
                assert space.keys == reference_select_postok_vocab(reference, min_count)
            at_boundary = {k for k, t in zip(keys, totals) if t == boundary}
            assert at_boundary <= set(select_postok_vocab(train, boundary).keys)
            assert not at_boundary & set(select_postok_vocab(train, boundary + 1).keys)

    def test_keys_seen_only_in_held_out_chunks_are_never_selected(self, labelled_chunks):
        held_out_only = {POS3: 0, POSTOK: 0}
        for (train, reference), (_test, test_reference) in self.views(labelled_chunks):
            spaces = {
                POS3: select_top_pos3(train, k=10**6),
                POSTOK: select_postok_vocab(train, min_count=0),
            }
            for family, space in spaces.items():
                seen = set().union(*(reference_chunk_counts(c, family) for c in reference))
                unseen = set().union(
                    *(reference_chunk_counts(c, family) for c in test_reference)
                ) - seen
                held_out_only[family] += len(unseen)
                assert set(space.keys) == seen
                assert not unseen & set(space.keys)
        assert all(held_out_only.values())

    def test_vectorize_is_exact_and_c_ordered(self, labelled_chunks, resources):
        plan = FeaturePlan(
            families=FAMILIES, resources=resources, top_pos3=30, postok_min_count=2
        )
        for (train, reference), (test, test_reference) in self.views(labelled_chunks):
            spaces = plan.fit(train)
            for view, chunks in ((train, reference), (test, test_reference)):
                X = vectorize_chunks(view, spaces)
                assert X.flags.c_contiguous
                assert np.array_equal(X, reference_vectorize(chunks, spaces))

    def test_one_entry_per_chunk_and_key_with_a_nonzero_count(
        self, labelled_chunks, resources
    ):
        assert_tables_equal_the_reference(labelled_chunks[0], resources)

    def test_sentences_of_one_to_three_tokens(self, resources):
        assert_tables_equal_the_reference(short_sentence_chunks(), resources)

    def test_no_trigram_spans_a_sentence_or_chunk(self):
        # each sentence has its own tags, so a trigram across a sentence or
        # chunk boundary would mix two sentences' tags
        keys, _totals = ChunkCounts(short_sentence_chunks()).totals(POS3)
        assert keys
        assert all(len({tag.split("t")[0] for tag in key.split("_")}) == 1 for key in keys)

    def test_no_sentence_has_more_than_five_positions(self):
        chunks = short_sentence_chunks()
        table = ChunkCounts(chunks)._table(FeatureSpace(family=POSTOK, keys=()))
        events = [int(table.count[a:b].sum()) for a, b in zip(table.ptr, table.ptr[1:])]
        # a sentence of n tokens has min(2n, 5) positions
        assert events == [sum(min(2 * len(s.tokens), 5) for s in c.sentences) for c in chunks]
        assert max(e for e, c in zip(events, chunks) if len(c) == 1) == 5

    def test_columns_in_sorted_string_order(self):
        # "NN" < "NNS" as ids, but "NNS_..." < "NN_..." as strings; a tag
        # may hold the "_" that joins a trigram, and a word a ":"
        chunk = make_chunk(
            [
                make_sentence(["a:", "b", "c", "d"], pos=["NN", "NN", "NN_X", "NNS"]),
                make_sentence(["a", "b", ":c"], pos=["NNS", "NN", "X"]),
            ]
        )
        for family in (POS3, POSTOK):
            keys, totals = ChunkCounts([chunk]).totals(family)
            assert keys == sorted(reference_chunk_counts(chunk, family))
            assert totals.tolist() == [reference_chunk_counts(chunk, family)[k] for k in keys]

    def test_untagged_token_fails_pos3_alone(self, resources):
        def tagged(*words):
            return make_sentence(list(words), pos=["DT"] * len(words))

        chunks = [
            make_chunk([tagged("the", "cat", "sat")] * 3),
            make_chunk(
                [
                    tagged("in", "addition", "the", "dog"),
                    tagged("of", "course"),
                    make_sentence(["a", "b", "c"], pos=["DT", None, "NN"]),
                    tagged("however", "the", "end"),
                ]
            ),
        ]
        with pytest.raises(UntaggedTokenError) as by_tags:
            pos_sequences(chunks[1])
        counts = ChunkCounts(chunks)
        with pytest.raises(UntaggedTokenError) as by_counts:
            counts.totals(POS3)
        assert str(by_counts.value) == str(by_tags.value) == (
            "untagged token: sentence 2, token 1 'b' is missing its POS tag"
        )
        spaces = [
            fw_space(resources.function_words),
            select_postok_vocab(counts, min_count=1),
            coh_space(resources.cohesive_markers),
        ]
        X = vectorize_chunks(counts, spaces)
        assert np.array_equal(X, reference_vectorize(chunks, spaces))
        ends = np.cumsum([len(space) for space in spaces])
        assert all(block.any() for block in np.split(X, ends[:-1], axis=1))

    def test_chunks_of_one_corpus_with_gaps_repeats_and_overlaps(self, resources):
        corpus = shuffle(variety_corpus("T", 120, seed=3), 1)
        cut = make_chunks(corpus, 100)
        overlap = corpus.take(slice(len(cut[0]) // 2, len(cut[0]) + 3))
        chunks = cut[::2] + [cut[2], overlap, cut[1]]
        assert_tables_equal_the_reference(chunks, resources)


class TestChunkCountsMemory:
    def test_counts_chunks_on_the_columns_they_were_cut_from(self, resources):
        # no copy of the chunks laid end to end: about 27 B per token at the
        # FW table's peak, 41 with one
        corpus = shuffle(variety_corpus("N", 4000, seed=1), 3)
        chunks = make_chunks(corpus, 200)
        fw = fw_space(resources.function_words)
        _, peak, _ = traced(lambda: vectorize_chunks(chunks, [fw]))
        assert peak / corpus.token_count < 34


def short_sentence_chunks():
    """Chunks of sentences of one, two and three tokens, then one chunk per
    sentence of one to eight tokens. Sentence s tags its tokens s0t0, s0t1,
    ...; its words recur in other sentences."""
    sizes = [[1, 2, 3], [3, 1, 1, 2], [2, 2], [1], [3, 3, 1]] + [[n] for n in range(1, 9)]
    chunks, s = [], 0
    for chunk_sizes in sizes:
        sentences = []
        for n in chunk_sizes:
            words = [f"w{i}" for i in range(n)]
            sentences.append(make_sentence(words, pos=[f"s{s}t{i}" for i in range(n)]))
            s += 1
        chunks.append(make_chunk(sentences))
    return chunks


def assert_tables_equal_the_reference(chunks, resources):
    """Every family's table has one entry per chunk and key with a nonzero
    count, equal to the per-chunk Counter reference."""
    counts = ChunkCounts(chunks)
    fw = fw_space(resources.function_words)
    spaces = [
        fw,
        FeatureSpace(family=POS3, keys=()),
        FeatureSpace(family=POSTOK, keys=()),
        coh_space(resources.cohesive_markers),
    ]
    for space in spaces:
        table = counts._table(space)
        expected = [reference_chunk_counts(c, space.family, space.keys) for c in chunks]
        if space is fw:
            expected = [{k: n for k, n in e.items() if k in fw.keys} for e in expected]
        assert len(table.col) == sum(len(e) for e in expected)
        # walk the CSR rows: chunk r's entries are ptr[r]:ptr[r + 1]
        got = [
            {
                table.keys[col]: int(count)
                for col, count in zip(table.col[a:b], table.count[a:b])
            }
            for a, b in zip(table.ptr[:-1], table.ptr[1:])
        ]
        assert got == expected


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
