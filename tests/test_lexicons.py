import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_match_phrases
from varieties.errors import ResourceError
from varieties.lexicons import (
    PhraseEntry,
    PhraseList,
    SENTENCE_TRANSITION,
    load_phrase_list,
    load_rank_list,
    load_resources,
    load_tag_set,
    load_word_list,
    lookup,
    match_phrases,
    prefix_keys,
)


class TestWordList:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("the\nof\nand\n")
        words = load_word_list(path)
        assert len(words) == 3
        assert "the" in words
        assert "cat" not in words

    def test_duplicates_rejected_with_location(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("the\nThe\n")
        with pytest.raises(ResourceError, match=":2"):
            load_word_list(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# only a comment\n\n")
        with pytest.raises(ResourceError, match="empty"):
            load_word_list(path)

    def test_multiword_line_rejected(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("in addition\n")
        with pytest.raises(ResourceError, match="single word"):
            load_word_list(path)

    @pytest.mark.parametrize(
        "load", [load_word_list, load_phrase_list, load_rank_list, load_tag_set]
    )
    def test_not_utf8_names_file_and_line(self, tmp_path, load):
        path = tmp_path / "list.txt"
        path.write_bytes(b"# a comment\r\nthe\t1\r\ncaf\xe9\t2\r\n")
        with pytest.raises(ResourceError) as error:
            load(path)
        assert str(error.value) == f"{path}:3: not UTF-8 text"


class TestPhraseList:
    def test_categories(self, tmp_path):
        path = tmp_path / "phr.txt"
        path.write_text("in addition\tsentence_transition\nmake sure\n")
        phrases = load_phrase_list(path)
        assert len(phrases) == 2
        transitions = phrases.in_category(SENTENCE_TRANSITION)
        assert [e.text for e in transitions] == ["in addition"]

    def test_duplicate_phrase_rejected(self, tmp_path):
        path = tmp_path / "phr.txt"
        path.write_text("make sure\nMake  Sure\tother\n")
        with pytest.raises(ResourceError, match="duplicate"):
            load_phrase_list(path)


class TestRankList:
    def test_basic(self, tmp_path):
        path = tmp_path / "ranks.txt"
        path.write_text("the\t1\ncat\t100\n")
        ranks = load_rank_list(path)
        assert ranks.rank("the") == 1
        assert ranks.rank("dog") is None

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "ranks.txt"
        path.write_text("the one\n")
        with pytest.raises(ResourceError, match="word<TAB>rank"):
            load_rank_list(path)

    def test_nonpositive_rank(self, tmp_path):
        path = tmp_path / "ranks.txt"
        path.write_text("the\t0\n")
        with pytest.raises(ResourceError, match="positive"):
            load_rank_list(path)

    def test_duplicate_word(self, tmp_path):
        path = tmp_path / "ranks.txt"
        path.write_text("the\t1\nthe\t2\n")
        with pytest.raises(ResourceError, match="duplicate"):
            load_rank_list(path)


def _phrases(*texts_categories):
    entries = []
    for item in texts_categories:
        if isinstance(item, tuple):
            text, category = item
        else:
            text, category = item, None
        entries.append(PhraseEntry(tokens=tuple(text.split()), category=category))
    return PhraseList(name="test", entries=tuple(entries))


def matched(sentences, phrases):
    """``match_phrases`` over sentences given as word lists: per sentence,
    its (entry, start) matches."""
    vocab = sorted({word for sentence in sentences for word in sentence})
    code = {word: i for i, word in enumerate(vocab)}
    ids = np.array([code[w] for sentence in sentences for w in sentence], dtype=np.int32)
    ptr = np.cumsum([0] + [len(sentence) for sentence in sentences])
    found = [[] for _ in sentences]
    for s, e, start in zip(*(a.tolist() for a in match_phrases(ids, ptr, vocab, phrases))):
        found[s].append((phrases.entries[e], start))
    return found


class TestMatchPhrases:
    def test_single_match(self):
        phrases = _phrases("bear in mind")
        hits = matched([["bear", "in", "mind", "that"]], phrases)[0]
        assert [(e.text, i) for e, i in hits] == [("bear in mind", 0)]

    def test_repeated_matches(self):
        phrases = _phrases("in light of")
        hits = matched([["in", "light", "of", "in", "light", "of"]], phrases)[0]
        assert [i for _, i in hits] == [0, 3]

    def test_longest_match_wins(self):
        phrases = _phrases("make sure", "sure")
        hits = matched([["make", "sure"]], phrases)[0]
        assert [(e.text, i) for e, i in hits] == [("make sure", 0)]

    def test_case_insensitive(self):
        phrases = _phrases("red tape")
        assert matched([["Red", "TAPE"]], phrases)[0]

    def test_no_overlap_and_verbatim_spans(self):
        phrases = _phrases("a b", "b a")
        tokens = ["a", "b", "a", "b"]
        hits = matched([tokens], phrases)[0]
        spans = [(i, i + len(e.tokens)) for e, i in hits]
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        for entry, start in hits:
            assert tuple(tokens[start : start + len(entry.tokens)]) == entry.tokens


def _identities(matches):
    return [(id(entry), start) for entry, start in matches]


class TestAgainstReferenceMatcher:
    """The batch matcher against the per-sentence greedy loop of
    ``oracles.reference_match_phrases``."""

    def check(self, sentences, phrases):
        batch = matched(sentences, phrases)
        for sentence, found in zip(sentences, batch):
            expected = reference_match_phrases(sentence, phrases)
            assert _identities(found) == _identities(expected), sentence
        return batch

    def test_overlapping_phrases(self):
        phrases = _phrases("a b", "b c", "c d e")
        found = self.check([["a", "b", "c", "d", "e"], ["b", "c", "d", "e"]], phrases)
        assert [[(e.text, i) for e, i in hits] for hits in found] == [
            [("a b", 0), ("c d e", 2)],
            [("b c", 0)],
        ]

    def test_shared_prefixes(self):
        phrases = _phrases("in", "in light", "in light of", "in addition", "in the light of")
        sentence = "in light in light of in addition in the light in the light of".split()
        found = self.check([sentence], phrases)[0]
        assert [(e.text, i) for e, i in found] == [
            ("in light", 0),
            ("in light of", 2),
            ("in addition", 5),
            ("in", 7),
            ("in the light of", 10),
        ]

    def test_phrase_longer_than_its_sentence(self):
        phrases = _phrases("at the same time", "the")
        found = self.check([["at", "the"], ["at", "the", "same"]], phrases)
        assert [[i for _, i in hits] for hits in found] == [[1], [1]]

    def test_no_match_runs_into_the_next_sentence(self):
        phrases = _phrases("in light of", "of")
        found = self.check([["x", "in", "light"], ["of", "y"], ["in", "light", "of"]], phrases)
        assert [[(e.text, i) for e, i in hits] for hits in found] == [
            [],
            [("of", 0)],
            [("in light of", 0)],
        ]

    def test_phrase_tokens_absent_from_the_corpus(self):
        phrases = _phrases("red tape", "zyzzyva", "tape measure")
        found = self.check([["red", "ribbon"], ["measure", "tape"]], phrases)
        assert found == [[], []]

    def test_uppercase_input(self):
        phrases = _phrases("red tape", "make sure")
        found = self.check([["RED", "Tape", "make", "SURE"]], phrases)[0]
        assert [(e.text, i) for e, i in found] == [("red tape", 0), ("make sure", 2)]

    def test_duplicate_entries_first_in_list_wins(self):
        entries = (
            PhraseEntry(tokens=("make", "sure"), category="a"),
            PhraseEntry(tokens=("sure",)),
            PhraseEntry(tokens=("make", "sure"), category="b"),
            PhraseEntry(tokens=("make", "sure"), category="a"),
        )
        phrases = PhraseList(name="dup", entries=entries)
        found = self.check([["make", "sure", "sure"]], phrases)[0]
        assert [(e, i) for e, i in found] == [(entries[0], 0), (entries[1], 2)]
        assert found[0][0] is entries[0]

    def test_empty_inputs(self):
        assert self.check([], _phrases("a b")) == []
        assert self.check([["a"]], PhraseList(name="none", entries=())) == [[]]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_token_streams(self, seed):
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(rng.randint(2, 7))]
        texts = [
            " ".join(rng.choices(words, k=rng.randint(1, 5)))
            for _ in range(rng.randint(1, 25))
        ]
        phrases = PhraseList(
            name="random",
            entries=tuple(
                PhraseEntry(tokens=tuple(t.split()), category=rng.choice(("a", "b")))
                for t in texts
            ),
        )
        sentences = [
            [rng.choice(words).upper() if rng.random() < 0.1 else rng.choice(words)
             for _ in range(rng.randint(1, 12))]
            for _ in range(rng.randint(1, 40))
        ]
        self.check(sentences, phrases)


class TestPrefixKeys:
    """The packed prefix keys and their lookup against a brute force over
    the id tuples."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_against_brute_force(self, data):
        size = data.draw(st.integers(1, 5))
        rows = data.draw(st.lists(st.lists(st.integers(0, size - 1), max_size=5), max_size=12))
        width = data.draw(st.integers(max(map(len, rows), default=0), 6))
        keys, index = prefix_keys(rows, size, width)
        assert len(keys) == width
        # per length, the distinct prefixes of the rows at least that long, sorted
        prefixes = [
            sorted({tuple(r[:n]) for r in rows if len(r) >= n}) for n in range(1, width + 1)
        ]
        for n, (level, spelled) in enumerate(zip(keys, prefixes), start=1):
            parent = [0 if n == 1 else prefixes[n - 2].index(p[:-1]) for p in spelled]
            assert level.tolist() == [q * size + p[-1] for q, p in zip(parent, spelled)]
        assert index.tolist() == [
            prefixes[len(r) - 1].index(tuple(r)) if r else 0 for r in rows
        ]
        for level in keys:
            query = np.arange(-2, len(rows) * size + 2)
            listed = level.tolist()
            assert lookup(level, query).tolist() == [
                listed.index(q) if q in listed else -1 for q in query.tolist()
            ]

    def test_lookup_in_no_keys(self):
        found = lookup(np.zeros(0, dtype=np.int64), np.array([0, 3]))
        assert found.tolist() == [-1, -1]


class TestTagSet:
    def test_load(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("DT\nNN\nPRP$\n")
        tags = load_tag_set(path)
        assert "PRP$" in tags
        assert "dt" not in tags

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("DT\nDT\n")
        with pytest.raises(ResourceError):
            load_tag_set(path)


class TestResources:
    def test_default_bundle_loads(self, resources):
        # the shipped function-word list is the ~400-entry reconstruction
        assert 350 <= len(resources.function_words) <= 450
        assert len(resources.cohesive_markers) > 100
        assert len(resources.sentence_transitions()) >= 50
        assert len(resources.idioms) > 100
        assert resources.word_ranks.rank("the") == 1
        assert len(resources.tagset) == 36

    def test_paper_discussed_entries_present(self, resources):
        for word in ("maybe", "perhaps", "or", "which", "too", "sure", "very"):
            assert word in resources.function_words, word
        idioms = {e.text for e in resources.idioms}
        for phrase in (
            "make sure",
            "bear in mind",
            "bring forward",
            "figure out",
            "in light of",
            "food chain",
            "red tape",
        ):
            assert phrase in idioms, phrase
        transitions = {e.text for e in resources.sentence_transitions()}
        for phrase in ("in addition", "at the same time", "thus", "moreover",
                       "to conclude"):
            assert phrase in transitions, phrase

    def test_manifest_missing_key(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"function_words": "fw.txt"}')
        with pytest.raises(ResourceError, match="lacks"):
            load_resources(manifest)
