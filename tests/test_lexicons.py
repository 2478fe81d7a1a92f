import pytest

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
    match_phrases,
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


class TestMatchPhrases:
    def test_single_match(self):
        phrases = _phrases("bear in mind")
        hits = match_phrases(["bear", "in", "mind", "that"], phrases)
        assert [(e.text, i) for e, i in hits] == [("bear in mind", 0)]

    def test_repeated_matches(self):
        phrases = _phrases("in light of")
        hits = match_phrases(["in", "light", "of", "in", "light", "of"], phrases)
        assert [i for _, i in hits] == [0, 3]

    def test_longest_match_wins(self):
        phrases = _phrases("make sure", "sure")
        hits = match_phrases(["make", "sure"], phrases)
        assert [(e.text, i) for e, i in hits] == [("make sure", 0)]

    def test_case_insensitive(self):
        phrases = _phrases("red tape")
        assert match_phrases(["Red", "TAPE"], phrases)

    def test_index_built_once_longest_first(self):
        phrases = _phrases("in", "in light of", "in addition", "red tape")
        index = phrases.by_first
        assert phrases.by_first is index
        assert [e.text for e in index["in"]] == ["in light of", "in addition", "in"]
        assert [e.text for e in index["red"]] == ["red tape"]

    def test_no_overlap_and_verbatim_spans(self):
        phrases = _phrases("a b", "b a")
        tokens = ["a", "b", "a", "b"]
        hits = match_phrases(tokens, phrases)
        spans = [(i, i + len(e.tokens)) for e, i in hits]
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        for entry, start in hits:
            assert tuple(tokens[start : start + len(entry.tokens)]) == entry.tokens


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
