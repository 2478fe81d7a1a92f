import gc
import json
import sys
import tracemalloc
import weakref
from collections import Counter

import pytest

from conftest import make_corpus, make_sentence
from synthdata import lm_family_corpus
from varieties.corpus import (
    AnnotatedSentence,
    Chunk,
    Corpus,
    CorpusFormatError,
    Token,
    balance,
    chunk,
    concat,
    family_of,
    filter_corpus,
    ingest,
    shuffle,
    tokenize_raw,
    write_jsonl,
)


class TestToken:
    def test_lowercases_surface_and_lemma(self):
        tok = Token(surface="The", lemma="The")
        assert tok.surface == "the"
        assert tok.lemma == "the"

    def test_rejects_empty_and_whitespace(self):
        with pytest.raises(ValueError):
            Token(surface="")
        with pytest.raises(ValueError):
            Token(surface="two words")

    def test_lemma_fallback(self):
        assert Token(surface="ran").lemma_or_surface == "ran"
        assert Token(surface="ran", lemma="run").lemma_or_surface == "run"

    def test_whitespace_check_matches_isspace(self):
        chars = [chr(c) for c in range(sys.maxunicode + 1)]
        spaces = [c for c in chars if c.isspace()]
        assert len(spaces) > 20
        for space in spaces:
            for surface in (space, space + "ab", "a" + space + "b", "ab" + space):
                with pytest.raises(ValueError, match="whitespace-free"):
                    Token(surface=surface)
        with pytest.raises(ValueError, match="whitespace-free"):
            Token(surface="")
        # every other code point, all in one surface, is accepted
        Token(surface="".join(c for c in chars if not c.isspace()))


class TestAnnotatedSentence:
    def test_family_derived_from_country(self):
        sent = make_sentence(["hello"], country="DE")
        assert sent.family == "Germanic"
        assert make_sentence(["hello"], country="FR").family == "Romance"
        assert make_sentence(["hello"], country="PL").family == "Other"

    def test_family_country_conflict_rejected(self):
        with pytest.raises(ValueError):
            AnnotatedSentence(
                tokens=(Token(surface="x"),),
                variety="N",
                country="DE",
                family="Romance",
            )

    def test_unknown_variety_rejected(self):
        with pytest.raises(ValueError):
            make_sentence(["x"], variety="X")

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            AnnotatedSentence(tokens=(), variety="N")


def test_family_table():
    assert all(family_of(c) == "Germanic" for c in ("AT", "DE", "NL", "SE"))
    assert all(family_of(c) == "Romance" for c in ("PT", "IT", "ES", "FR", "RO"))
    assert family_of("GB") == "Other"


def test_tokenize_raw_drops_punctuation_tokens():
    assert tokenize_raw("We , agree !") == ["we", "agree"]
    assert tokenize_raw("don't stop -- now...") == ["don't", "stop", "now..."]


class TestIngestJsonl:
    def test_minimal_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"tokens":["we","agree"],"pos":["PRP","VBP"],"variety":"N"}\n'
        )
        corpus = ingest(path)
        assert len(corpus) == 1
        assert corpus.token_count == 2
        assert corpus.sentences[0].tokens[0].pos == "PRP"

    def test_unknown_variety_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"tokens":["a"],"variety":"N"}\n{"tokens":["b"],"variety":"X"}\n'
        )
        with pytest.raises(CorpusFormatError, match="line 2"):
            ingest(path)

    def test_default_variety_applies(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"tokens":["a"]}\n')
        assert ingest(path, default_variety="T").sentences[0].variety == "T"
        with pytest.raises(CorpusFormatError):
            ingest(path)

    def test_raw_text_records_are_tokenized(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text":"We , agree .","variety":"N"}\n')
        corpus = ingest(path)
        assert [t.surface for t in corpus.sentences[0].tokens] == ["we", "agree"]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"tokens":["a","b"],"pos":["DT"]', '"pos" must be an array aligned'),
            ('"tokens":["a","b"],"pos":["DT",7]', '"pos" entries must be strings or null'),
            ('"tokens":["a","b"],"lemma":[null,5]', '"lemma" entries must be strings'),
            ('"tokens":["a","b"],"country":5', '"country" must be a string'),
            ('"tokens":["a","b"],"family":["Germanic"]', '"family" must be a string'),
            ('"text":5', '"text" must be a string'),
        ],
        ids=[
            "misaligned-pos",
            "pos-number",
            "lemma-number",
            "country-number",
            "family-list",
            "text-number",
        ],
    )
    def test_misaligned_pos_rejected(self, tmp_path, fields, message):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"tokens":["a","b"],"variety":"N"}\n'
            f'{{{fields},"variety":"N"}}\n'
        )
        with pytest.raises(CorpusFormatError, match=f"^line 2: {message}"):
            ingest(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(CorpusFormatError, match="empty"):
            ingest(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"tokens":["a"],"variety":"N"}\n{nope\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            ingest(path)


class TestIngestVertical:
    def test_headers_and_sentences(self, tmp_path):
        path = tmp_path / "c.vert"
        path.write_text(
            "#variety=NN\n#country=DE\n"
            "we\tPRP\twe\nagree\tVBP\tagree\n\n"
            "yes\tUH\n"
        )
        corpus = ingest(path, "vertical")
        assert len(corpus) == 2
        first, second = corpus.sentences
        assert first.variety == "NN"
        assert first.country == "DE"
        assert first.family == "Germanic"
        assert second.tokens[0].pos == "UH"
        assert second.tokens[0].lemma is None

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "c.vert"
        path.write_text("#speaker=alice\nwe\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            ingest(path, "vertical")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "c"
        path.write_text("x\n")
        with pytest.raises(CorpusFormatError, match="format"):
            ingest(path, "conll")


def _write_reused_tokens(path, fmt: str, lines: int, bad_surface: str | None = None):
    """``lines`` sentences over the same three tokens, plus one sentence whose
    only token is ``bad_surface``; returns the line of the bad token."""
    if fmt == "jsonl":
        record = {
            "tokens": ["we", "agree", "we"],
            "pos": ["PRP", "VBP", "PRP"],
            "lemma": ["we", None, "we"],
            "variety": "N",
        }
        rows = [json.dumps(record)] * lines
        if bad_surface is not None:
            rows.append(json.dumps({"tokens": [bad_surface], "variety": "N"}))
        path.write_text("\n".join(rows) + "\n")
        return len(rows)
    rows = ["we\tPRP\twe\nagree\tVBP\nwe\tPRP\twe\n"] * lines
    if bad_surface is not None:
        rows.append(f"{bad_surface}\tNN\n")
    path.write_text("#variety=N\n" + "\n".join(rows))
    return 1 + 4 * lines + 1


class TestInterning:
    @pytest.mark.parametrize("fmt", ["jsonl", "vertical"])
    def test_equal_triples_share_one_token(self, tmp_path, fmt):
        path = tmp_path / f"c.{fmt}"
        _write_reused_tokens(path, fmt, lines=3)
        corpus = ingest(path, fmt)
        tokens = list(corpus.tokens())
        assert len(tokens) == 9
        we = tokens[0]
        assert (we.surface, we.pos, we.lemma) == ("we", "PRP", "we")
        assert all(t is we for i, t in enumerate(tokens) if i % 3 != 1)
        assert all(t is tokens[1] for t in tokens[1::3])
        assert tokens[1] is not we

    def test_calls_share_no_table(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_reused_tokens(path, "jsonl", lines=2)
        first = ingest(path)
        second = ingest(path)
        assert first.sentences == second.sentences
        assert first.sentences[0].tokens[0] is not second.sentences[0].tokens[0]
        # once its corpus is gone nothing keeps a token alive
        token = weakref.ref(first.sentences[0].tokens[0])
        del first
        gc.collect()
        assert token() is None

    @pytest.mark.parametrize("fmt", ["jsonl", "vertical"])
    @pytest.mark.parametrize("bad", ["a b", "\u3000", ""])
    def test_bad_surface_after_reuse_names_its_line(self, tmp_path, fmt, bad):
        path = tmp_path / f"c.{fmt}"
        line = _write_reused_tokens(path, fmt, lines=200, bad_surface=bad)
        with pytest.raises(
            CorpusFormatError, match=f"^line {line}: token surface must be nonempty"
        ):
            ingest(path, fmt)

    def test_ingest_holds_under_100_bytes_per_token(self, tmp_path):
        # one Token object per token costs about 235 B/token here; one per
        # distinct (surface, POS, lemma) leaves the sentence tuples, about 36
        corpus = concat(
            lm_family_corpus("T", family, 1100, seed=seed)
            for seed, family in enumerate(("Germanic", "Romance"))
        )
        assert corpus.token_count >= 20000
        path = tmp_path / "c.jsonl"
        write_jsonl(corpus, path)
        del corpus
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            back = ingest(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert held / back.token_count < 100


class TestRoundTrip:
    def test_jsonl_round_trip_identity(self, tmp_path):
        sentences = [
            make_sentence(["we", "agree"], variety="N", pos=["PRP", "VBP"]),
            make_sentence(["oui"], variety="T", country="FR"),
            make_sentence(["ja", "gut"], variety="NN", country="DE",
                          lemma=["ja", "gut"]),
        ]
        corpus = make_corpus(sentences)
        path = tmp_path / "out.jsonl"
        write_jsonl(corpus, path)
        back = ingest(path)
        assert back.sentences == corpus.sentences

    def test_partial_pos_round_trip(self, tmp_path):
        sent = AnnotatedSentence(
            tokens=(Token(surface="a", pos="DT"), Token(surface="b")),
            variety="N",
        )
        corpus = make_corpus([sent])
        path = tmp_path / "out.jsonl"
        write_jsonl(corpus, path)
        assert ingest(path).sentences == corpus.sentences
        record = json.loads(path.read_text().splitlines()[0])
        assert record["pos"] == ["DT", None]


class TestShuffle:
    def test_preserves_multiset(self):
        corpus = make_corpus(
            [make_sentence([f"w{i}"]) for i in range(50)]
        )
        shuffled = shuffle(corpus, seed=7)
        assert Counter(shuffled.sentences) == Counter(corpus.sentences)

    def test_deterministic(self):
        corpus = make_corpus([make_sentence([f"w{i}"]) for i in range(100)])
        assert shuffle(corpus, 7).sentences == shuffle(corpus, 7).sentences

    def test_different_seeds_differ(self):
        corpus = make_corpus([make_sentence([f"w{i}"]) for i in range(1000)])
        assert shuffle(corpus, 7).sentences != shuffle(corpus, 8).sentences


class TestChunk:
    def test_greedy_fill_and_trailing_drop(self):
        # five 600-token sentences at target 2000: one 2400-token chunk of
        # four sentences, trailing 600 dropped (< half target)
        sentences = [
            make_sentence([f"s{i}_t{j}" for j in range(600)]) for i in range(5)
        ]
        chunks = chunk(make_corpus(sentences), target_size=2000)
        assert [c.token_count for c in chunks] == [2400]
        assert len(chunks[0].sentences) == 4

    def test_single_oversize_sentence(self):
        sentences = [make_sentence([f"t{j}" for j in range(2500)])]
        chunks = chunk(make_corpus(sentences), target_size=2000)
        assert [c.token_count for c in chunks] == [2500]

    def test_empty_corpus(self):
        assert chunk(Corpus(sentences=()), 2000) == []

    def test_mixed_varieties_rejected(self):
        corpus = make_corpus(
            [make_sentence(["a"], variety="N"), make_sentence(["b"], variety="T")]
        )
        with pytest.raises(ValueError, match="single-variety"):
            chunk(corpus)

    def test_trailing_exactly_half_target_is_kept(self):
        sentences = [
            make_sentence([f"a{j}" for j in range(2000)]),
            make_sentence([f"b{j}" for j in range(1000)]),
        ]
        chunks = chunk(make_corpus(sentences), target_size=2000)
        assert [c.token_count for c in chunks] == [2000, 1000]

    def test_token_mass_conservation(self):
        # retained + dropped token mass equals the corpus total
        corpus = make_corpus(
            [make_sentence([f"s{i}_{j}" for j in range(137)]) for i in range(41)]
        )
        chunks = chunk(corpus, target_size=500)
        retained = sum(c.token_count for c in chunks)
        dropped = corpus.token_count - retained
        assert 0 <= dropped < 0.5 * 500 + 137
        for c in chunks:
            assert c.token_count >= 250
            assert c.token_count < 500 + c.sentences[-1].token_count

    def test_mass_conserved_after_shuffle(self):
        corpus = make_corpus(
            [make_sentence([f"s{i}_{j}" for j in range(1 + i % 90)])
             for i in range(60)]
        )
        for seed in (1, 2):
            chunks = chunk(shuffle(corpus, seed), target_size=300)
            retained = sum(c.token_count for c in chunks)
            assert 0 <= corpus.token_count - retained < 150 + 90


class TestBalance:
    def _chunks(self, variety, n):
        return [
            chunk(make_corpus([make_sentence([f"{variety}{i}_{j}" for j in range(10)],
                                             variety=variety)]), 10)[0]
            for i in range(n)
        ]

    def test_downsamples_to_smallest(self):
        data = {"N": self._chunks("N", 9), "NN": self._chunks("NN", 4),
                "T": self._chunks("T", 7)}
        balanced = balance(data, seed=3)
        assert {k: len(v) for k, v in balanced.items()} == {"N": 4, "NN": 4, "T": 4}
        for key in data:
            assert all(c in data[key] for c in balanced[key])

    def test_already_balanced_unchanged_in_size(self):
        data = {"N": self._chunks("N", 3), "T": self._chunks("T", 3)}
        balanced = balance(data, seed=0)
        assert {k: len(v) for k, v in balanced.items()} == {"N": 3, "T": 3}

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="'NN'"):
            balance({"N": self._chunks("N", 2), "NN": []}, seed=0)

    def test_deterministic(self):
        data = {"N": self._chunks("N", 20), "T": self._chunks("T", 5)}
        first = balance(data, seed=11)
        second = balance(data, seed=11)
        assert first == second

    def test_published_class_sizes(self):
        # the down-sampling that leaves 354 chunks per variety
        def quick_chunks(variety, n):
            sent = make_sentence(["tok"] * 10, variety=variety)
            return [
                Chunk(sentences=(sent,), token_count=10, variety=variety)
                for _ in range(n)
            ]

        data = {
            "N": quick_chunks("N", 500),
            "NN": quick_chunks("NN", 354),
            "T": quick_chunks("T", 9000),
        }
        balanced = balance(data, seed=17)
        assert {k: len(v) for k, v in balanced.items()} == {
            "N": 354, "NN": 354, "T": 354,
        }


class TestFilter:
    def test_by_family_and_variety(self):
        corpus = make_corpus(
            [
                make_sentence(["a"], variety="NN", country="DE"),
                make_sentence(["b"], variety="NN", country="FR"),
                make_sentence(["c"], variety="T", country="DE"),
            ]
        )
        germanic_nn = filter_corpus(corpus, variety="NN", family="Germanic")
        assert [s.tokens[0].surface for s in germanic_nn] == ["a"]

    def test_no_match_gives_empty(self):
        corpus = make_corpus([make_sentence(["a"], country="DE")])
        assert len(filter_corpus(corpus, country="GB")) == 0

    def test_order_preserved(self):
        corpus = make_corpus(
            [make_sentence([f"w{i}"], variety="T") for i in range(10)]
        )
        kept = filter_corpus(corpus, variety="T")
        assert kept.sentences == corpus.sentences
