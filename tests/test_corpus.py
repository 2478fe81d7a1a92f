import gc
import json
import random
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import make_corpus, make_sentence, traced
from oracles import reference_write_jsonl
from synthdata import lm_family_corpus
from varieties.corpus import (
    AnnotatedSentence,
    Corpus,
    CorpusFormatError,
    KeyCounts,
    Token,
    balance,
    chunk,
    concat,
    family_of,
    filter_corpus,
    gather,
    ingest,
    matching_rows,
    shuffle,
    shuffle_rows,
    tokenize_raw,
    write_jsonl,
)
from varieties.errors import UntaggedTokenError, VarietiesError
from varieties.poslm import pos_sequences


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
        with pytest.raises(ValueError, match="token pos is empty"):
            Token(surface="a", pos="")
        with pytest.raises(ValueError, match="token lemma is empty"):
            Token(surface="a", lemma="")

    def test_lemma_fallback(self):
        # a token without a lemma of its own is counted under its surface
        columns = make_corpus([make_sentence(["ran", "ran"], lemma=[None, "Run"])]).columns
        assert [columns.lemma_vocab[i] for i in columns.lemma_ids] == ["ran", "run"]
        assert columns.lemma_given.tolist() == [False, True]

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

    def test_surfaces_and_lemmas(self):
        sent = make_sentence(["She", "ran", "home"], lemma=["she", "run", None])
        assert [t.surface for t in sent.tokens] == ["she", "ran", "home"]
        columns = make_corpus([sent]).columns
        assert [columns.lemma_vocab[i] for i in columns.lemma_ids] == ["she", "run", "home"]


class TestTags:
    def test_one_list_per_sentence(self):
        corpus = make_corpus(
            [
                make_sentence(["he", "ran"], pos=["PRP", "VBD"]),
                make_sentence(["go"], pos=["VB"]),
            ]
        )
        assert list(pos_sequences(corpus)) == [["PRP", "VBD"], ["VB"]]
        assert list(pos_sequences(Corpus(sentences=()))) == []

    def test_first_untagged_token_is_named(self):
        corpus = make_corpus(
            [
                make_sentence(["he", "ran"], pos=["PRP", "VBD"]),
                make_sentence(["we", "went", "in"], pos=["PRP", "VBD", None]),
                make_sentence(["x"]),
            ]
        )
        with pytest.raises(UntaggedTokenError) as caught:
            pos_sequences(corpus)
        assert str(caught.value) == (
            "untagged token: sentence 1, token 2 'in' is missing its POS tag"
        )
        # a validation error for the CLI, a ValueError for library callers
        assert isinstance(caught.value, VarietiesError)
        assert isinstance(caught.value, ValueError)


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
        with pytest.raises(CorpusFormatError) as error:
            ingest(path)
        assert str(error.value) == f"{path}:2: unknown variety label 'X'"

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
            ('"tokens":["a","b"],"pos":["DT",""]', "token pos is empty; a missing pos is null"),
            ('"tokens":["a","b"],"lemma":["",null]', "token lemma is empty"),
            ('"tokens":["a","b"],"country":5', '"country" must be a string'),
            ('"tokens":["a","b"],"family":["Germanic"]', '"family" must be a string'),
            ('"text":5', '"text" must be a string'),
        ],
        ids=[
            "misaligned-pos",
            "pos-number",
            "lemma-number",
            "pos-empty",
            "lemma-empty",
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
        with pytest.raises(CorpusFormatError) as error:
            ingest(path)
        assert str(error.value).startswith(f"{path}:2: {message}")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(CorpusFormatError, match="empty"):
            ingest(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"tokens":["a"],"variety":"N"}\n{nope\n')
        with pytest.raises(CorpusFormatError) as error:
            ingest(path)
        assert str(error.value).startswith(f"{path}:2: invalid JSON")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{nope", "invalid JSON: Expecting property name enclosed in double quotes"),
            ('{"tokens":["a"]} x', "invalid JSON: Extra data"),
            ("{}{}", "invalid JSON: Extra data"),
            ("]", "invalid JSON: Expecting value"),
            ('{"tokens":["a', "invalid JSON: Unterminated string starting at"),
            ("5", "record is not a JSON object"),
            ("[]", "record is not a JSON object"),
        ],
        ids=["bad-key", "trailing-word", "two-objects", "no-value", "truncated", "number", "array"],
    )
    def test_malformed_line_names_line_and_json_error(self, tmp_path, line, message):
        """The message is what ``json.loads`` says about the stripped line."""
        if message.startswith("invalid JSON: "):
            with pytest.raises(json.JSONDecodeError) as loads_error:
                json.loads(line)
            assert message == f"invalid JSON: {loads_error.value.msg}"
        path = tmp_path / "c.jsonl"
        path.write_text(f'{{"tokens":["a"],"variety":"N"}}\n \t{line}\t \n')
        with pytest.raises(CorpusFormatError) as error:
            ingest(path)
        assert str(error.value) == f"{path}:2: {message}"
        assert error.value.line == 2

    def test_bom_on_first_line_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"tokens":["a"],"variety":"N"}\n')
        with pytest.raises(CorpusFormatError) as error:
            ingest(path)
        assert str(error.value) == (
            f"{path}:1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        )

    def test_padding_blank_lines_and_crlf(self, tmp_path):
        records = ['{"tokens":["a"],"variety":"N"}', '{"tokens":["b"],"variety":"T"}']
        lf = tmp_path / "lf.jsonl"
        lf.write_text("\n".join(records) + "\n")
        padded = tmp_path / "padded.jsonl"
        padded.write_text(
            f"\n  \n\x0c{records[0]}\xa0\n\xa0\n\t\n\xa0{records[1]}\x0c\n\n"
        )
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(("\r\n".join(records) + "\r\n").encode())
        expected = ingest(lf).sentences
        assert [s.variety for s in expected] == ["N", "T"]
        assert ingest(padded).sentences == expected
        assert ingest(crlf).sentences == expected


class TestNotUtf8:
    """A file with a byte that is not UTF-8 is a ``CorpusFormatError`` naming
    the file and its first such line, lines counted as text-mode reading
    counts them."""

    RECORD = b'{"tokens": ["a"], "variety": "N"}'

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_jsonl(self, tmp_path, newline):
        path = tmp_path / "c.jsonl"
        bad = b'{"tokens": ["caf\xe9"], "variety": "N"}'
        path.write_bytes(newline.join([self.RECORD, b"", self.RECORD, bad, self.RECORD]))
        with pytest.raises(CorpusFormatError) as error:
            ingest(path)
        assert str(error.value) == f"{path}:4: not UTF-8 text"
        assert error.value.line == 4

    def test_vertical(self, tmp_path):
        path = tmp_path / "c.vert"
        path.write_bytes(b"#variety=N\nwe\tPRP\n\ncaf\xe9\tNN\n")
        with pytest.raises(CorpusFormatError) as error:
            ingest(path, "vertical")
        assert str(error.value) == f"{path}:4: not UTF-8 text"

    def test_line_past_the_first_decoded_block(self, tmp_path):
        # the reader decodes blocks of several kilobytes, so the error comes
        # up far from the line; the line is counted again
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join([self.RECORD] * 5000 + [b"\xff", self.RECORD]))
        with pytest.raises(CorpusFormatError) as error:
            ingest(path)
        assert str(error.value) == f"{path}:5001: not UTF-8 text"


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
        with pytest.raises(CorpusFormatError) as error:
            ingest(path, "vertical")
        assert str(error.value) == f"{path}:1: unknown header '#speaker=alice'"

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
        tokens = [tok for sent in corpus.sentences for tok in sent.tokens]
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
        with pytest.raises(CorpusFormatError) as error:
            ingest(path, fmt)
        assert str(error.value).startswith(f"{path}:{line}: token surface must be nonempty")

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
        back, _peak, held = traced(lambda: ingest(path))
        assert held / back.token_count < 100


def _sentence(tokens, **meta):
    return AnnotatedSentence(
        tokens=tuple(Token(*fields) for fields in tokens), variety="N", **meta
    )


class TestWriteJsonl:
    @pytest.mark.parametrize(
        "sentences",
        [
            [_sentence([('"q"', None, None), ("back\\slash", "X\\", '"')])],
            [_sentence([("nul\x00", "\x00", None), ("del\x7f", None, "\x7f")])],
            [_sentence([("é", "ADJ", "été"), ("\U0001d518", None, "a\u2028b")])],
            [
                _sentence([("a", "DT", None), ("b", None, None)]),
                _sentence([("a", None, None), ("b", None, "b")]),
                _sentence([("a", None, None)]),
                _sentence([("a", "DT", "a")]),
            ],
            [
                _sentence([("ja", None, None)], country="DE"),
                _sentence([("ja", None, None)], family="Romance"),
                _sentence([("ja", None, None)], country="GB", family="Other"),
                _sentence([("ja", None, None)]),
            ],
        ],
        ids=["quotes-backslashes", "control", "non-ascii", "null-pos-lemma", "country-family"],
    )
    def test_bytes_equal_one_json_dumps_per_line(self, tmp_path, sentences):
        corpus = make_corpus(sentences)
        write_jsonl(corpus, tmp_path / "out.jsonl")
        reference_write_jsonl(corpus, tmp_path / "ref.jsonl")
        written = (tmp_path / "out.jsonl").read_bytes()
        assert written == (tmp_path / "ref.jsonl").read_bytes()
        assert ingest(tmp_path / "out.jsonl").sentences == corpus.sentences

    def test_long_corpus_bytes_equal_the_reference(self, tmp_path):
        # more lines than one write block, from one token object per token
        # (more than the writer's cache keeps) and, read back, from one per
        # distinct token
        corpus = lm_family_corpus("T", "Romance", 7000, seed=3)
        assert corpus.token_count > 65536
        reference_write_jsonl(corpus, tmp_path / "ref.jsonl")
        expected = (tmp_path / "ref.jsonl").read_bytes()
        write_jsonl(corpus, tmp_path / "out.jsonl")
        assert (tmp_path / "out.jsonl").read_bytes() == expected
        write_jsonl(ingest(tmp_path / "ref.jsonl"), tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == expected

    def test_write_peak_is_a_small_share_of_the_file(self, tmp_path):
        # 40,000 lines at about 22 B per token: a writer holding the whole
        # text (one join at the end) peaks above that, one in blocks of a
        # few thousand lines near 8
        path = tmp_path / "c.jsonl"
        write_jsonl(lm_family_corpus("T", "Germanic", 1000, seed=0), path)
        corpus = Corpus(sentences=ingest(path).sentences * 40)
        _, peak, _ = traced(lambda: write_jsonl(corpus, path))
        assert path.stat().st_size / corpus.token_count > 20
        assert peak / corpus.token_count < 12


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

    def test_shuffled_rows_are_the_shuffled_selection(self):
        corpus = make_corpus(
            [
                make_sentence([f"w{i}"], variety="NN", country="FR" if i % 3 else "DE")
                for i in range(60)
            ]
        )
        rows = matching_rows(corpus, variety="NN", family="Romance")
        assert rows.tolist() == [i for i in range(60) if i % 3]
        drawn = corpus.take(shuffle_rows(rows, 7))
        assert drawn.sentences == shuffle(filter_corpus(corpus, family="Romance"), 7).sentences


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

    def test_chunks_are_views_of_their_corpus(self):
        corpus = shuffle(lm_family_corpus("T", "Germanic", 300, seed=5), 3)
        chunks = chunk(corpus, 200)
        first = 0
        for c in chunks:
            assert np.shares_memory(c.columns.surface_ids, corpus.columns.surface_ids)
            assert c.origin == (corpus.columns, first)
            rows = np.arange(first, first + len(c))
            assert c.sentences == corpus.take(rows).sentences
            first += len(c)
        # a chunk of a chunk is a row range of the first corpus too
        assert chunks[1].take(slice(2, 5)).origin == (corpus.columns, len(chunks[0]) + 2)

    def test_single_oversize_sentence(self):
        sentences = [make_sentence([f"t{j}" for j in range(2500)])]
        chunks = chunk(make_corpus(sentences), target_size=2000)
        assert [c.token_count for c in chunks] == [2500]

    def test_empty_corpus(self):
        assert chunk(Corpus(sentences=()), 2000) == []

    def test_chunks_are_corpora_with_the_source_provenance(self):
        sentences = [make_sentence([f"s{i}_t{j}" for j in range(6)]) for i in range(5)]
        chunks = chunk(make_corpus(sentences, provenance="data/N.jsonl"), 10)
        assert all(type(c) is Corpus for c in chunks)
        assert [c.provenance for c in chunks] == ["data/N.jsonl"] * 3
        assert [c.sentences for c in chunks] == [
            tuple(sentences[0:2]), tuple(sentences[2:4]), (sentences[4],)
        ]

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
                Corpus(sentences=(sent,), provenance=variety) for _ in range(n)
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

    def test_selects_by_a_token_mask(self):
        # a byte per token selects the rows, beside the half-size copy; an
        # index gather of them took about 13 B per token of the whole
        corpus = concat(
            lm_family_corpus("T", family, 1000, seed=seed)
            for seed, family in enumerate(("Germanic", "Romance"))
        )
        germanic, peak, _ = traced(lambda: filter_corpus(corpus, family="Germanic"))
        assert peak / corpus.token_count < 11
        assert germanic.sentences == corpus.take(matching_rows(corpus, family="Germanic")).sentences

    def test_order_preserved(self):
        corpus = make_corpus(
            [make_sentence([f"w{i}"], variety="T") for i in range(10)]
        )
        kept = filter_corpus(corpus, variety="T")
        assert kept.sentences == corpus.sentences


def table_of(rows):
    """``KeyCounts.from_pairs`` over rows of string keys: one pair per key
    in a row, key ids in order of first appearance, not sorted."""
    keys = list(dict.fromkeys(key for row in rows for key in row))
    code = {key: i for i, key in enumerate(keys)}
    row_of = np.array([r for r, row in enumerate(rows) for _ in row], dtype=np.int64)
    id_of = np.array([code[key] for row in rows for key in row], dtype=np.int64)
    return KeyCounts.from_pairs(row_of, id_of, keys, len(rows))


def test_key_counts_rows_and_gathers_equal_a_counter_per_row():
    rng = random.Random(4)
    # about one row in eight holds no key
    rows = [
        [rng.choice("pqrstuvw") + "x" * rng.randrange(2) for _ in range(rng.randrange(8))]
        for _ in range(60)
    ]
    assert [] in rows
    table = table_of(rows)
    assert table.keys == sorted(set().union(*rows))
    assert table.col.dtype == table.count.dtype == np.int32
    assert len(table.ptr) == len(rows) + 1

    def counters(lengths, col, count):
        ends = np.cumsum(lengths)
        return [
            Counter({table.keys[c]: int(n) for c, n in zip(col[e - k : e], count[e - k : e])})
            for k, e in zip(lengths, ends)
        ]

    everything = np.arange(len(rows))
    selections = [
        everything,
        everything[:0],
        np.concatenate([everything[1::2], everything[::2]]),  # interleaved
        everything[::-1],
        np.array([7, 3, 7, 0, 3]),  # repeats
        np.array(rng.sample(range(len(rows)), 25)),
        np.array([i for i, keys in enumerate(rows) if not keys]),
    ]
    for chosen in selections:
        lengths, at = gather(table.ptr, chosen)
        col, count = table.col[at], table.count[at]
        expected = [Counter(rows[r]) for r in chosen]
        # one entry per distinct key of each row
        assert lengths.tolist() == [len(e) for e in expected]
        assert counters(lengths, col, count) == expected
        distinct = set().union(*(rows[r] for r in chosen))
        assert np.count_nonzero(np.bincount(col)) == len(distinct)


def key_count_rows(table):
    return [
        Counter({table.keys[c]: int(n) for c, n in zip(table.col[a:b], table.count[a:b])})
        for a, b in zip(table.ptr, table.ptr[1:])
    ]


@pytest.mark.parametrize("seed", range(4))
def test_key_counts_from_pairs_equal_the_string_rows(seed):
    rng = random.Random(seed)
    rows = [
        [rng.choice("pqrstuvw") + "x" * rng.randrange(2) for _ in range(rng.randrange(8))]
        for _ in range(rng.randrange(1, 60))
    ]
    # key ids in no sorted order, one key under two ids, one id never used
    keys = sorted(set().union(*rows), key=lambda k: (k[::-1], len(k))) + ["unused"]
    keys.append(keys[0])
    code = {key: i for i, key in enumerate(keys[:-2])}
    pairs = [(r, len(keys) - 1 if key == keys[0] and rng.random() < 0.5 else code[key])
             for r, row in enumerate(rows) for key in row]
    rng.shuffle(pairs)
    row_of = np.array([r for r, _ in pairs], dtype=np.int64)
    id_of = np.array([i for _, i in pairs], dtype=np.int64)
    table = KeyCounts.from_pairs(row_of, id_of, keys, len(rows))
    assert table.keys == sorted(set().union(*rows))
    assert table.column == {key: i for i, key in enumerate(table.keys)}
    assert key_count_rows(table) == [Counter(r) for r in rows]
    assert table.col.dtype == table.count.dtype == np.int32
    assert table.ptr.dtype == np.int64 and len(table.ptr) == len(rows) + 1


def test_key_counts_past_int32_pairs():
    # rows x observed columns above 2**31: the pairs are counted in int64
    rng = np.random.default_rng(5)
    n_rows, keys = 800_000, [f"k{i:04d}" for i in range(3000)]
    rows = rng.integers(0, n_rows, 6000)
    ids = rng.permutation(np.arange(6000) % len(keys))
    table = KeyCounts.from_pairs(rows, ids, keys, n_rows)
    assert n_rows * len(table.keys) >= 2**31
    expected = Counter(zip(rows.tolist(), (keys[i] for i in ids.tolist())))
    got = {
        (r, table.keys[c]): int(n)
        for r, (a, b) in enumerate(zip(table.ptr[:-1].tolist(), table.ptr[1:].tolist()))
        for c, n in zip(table.col[a:b].tolist(), table.count[a:b].tolist())
    }
    assert got == expected


def test_gather_holds_one_position_array():
    # positions are int64, 8 B an entry; adding each entry's index to its
    # row's offset in a whole-length temporary took 16
    lengths = np.random.default_rng(2).integers(0, 41, 50_000)
    keys = [str(i) for i in range(40)]
    ids = np.concatenate([np.arange(n) for n in lengths])
    table = KeyCounts.from_pairs(np.repeat(np.arange(len(lengths)), lengths), ids, keys, len(lengths))
    rows = np.random.default_rng(3).permutation(len(lengths))
    (_lengths, at), peak, _ = traced(lambda: gather(table.ptr, rows))
    assert peak / len(at) < 12


def test_key_counts_from_no_pairs():
    none = np.zeros(0, dtype=np.int64)
    table = KeyCounts.from_pairs(none, none, ["a", "b"], 3)
    assert table.keys == [] and table.ptr.tolist() == [0, 0, 0, 0]
    assert len(table.col) == len(table.count) == 0


class TestColumns:
    def corpus(self):
        shared = Token("the", "DT")
        return make_corpus(
            [
                AnnotatedSentence((shared, Token("Cats", "NNS", "cat"), Token("ran")), "N"),
                AnnotatedSentence((Token("cats", "NNS"), shared), "N"),
                AnnotatedSentence((Token("ran", "VBD", "run"),), "N"),
            ]
        )

    def test_ids_decode_to_the_token_fields(self):
        corpus = self.corpus()
        columns = corpus.columns
        assert corpus.columns is columns
        assert columns.surface_vocab == ("cats", "ran", "the")
        assert columns.pos_vocab == ("DT", "NNS", "VBD")
        assert columns.lemma_vocab == ("cat", "cats", "ran", "run", "the")
        assert columns.ptr.tolist() == [0, 3, 5, 6] and columns.ptr.dtype == np.int64
        tokens = [t for s in corpus.sentences for t in s.tokens]
        for ids, vocab, values in (
            (columns.surface_ids, columns.surface_vocab, [t.surface for t in tokens]),
            (columns.pos_ids, columns.pos_vocab, [t.pos for t in tokens]),
            (columns.lemma_ids, columns.lemma_vocab, [t.lemma or t.surface for t in tokens]),
        ):
            assert ids.dtype == np.int32
            assert [vocab[i] if i >= 0 else None for i in ids] == values
        assert columns.pos_ids.tolist()[2] == -1

    def test_empty_corpus(self):
        columns = Corpus(sentences=()).columns
        assert columns.surface_vocab == columns.pos_vocab == columns.lemma_vocab == ()
        assert columns.ptr.tolist() == [0]
        assert len(columns.surface_ids) == len(columns.pos_ids) == len(columns.lemma_ids) == 0
        columns.check_tagged()

    def test_untagged_error_names_the_token_as_tags_does(self):
        corpus = self.corpus()
        with pytest.raises(UntaggedTokenError) as by_tags:
            pos_sequences(corpus)
        with pytest.raises(UntaggedTokenError) as by_columns:
            corpus.columns.check_tagged()
        assert str(by_columns.value) == str(by_tags.value) == (
            "untagged token: sentence 0, token 2 'ran' is missing its POS tag"
        )
        # a corpus read from a file opens the error with that file
        with pytest.raises(UntaggedTokenError) as named:
            corpus.columns.check_tagged("corpus.jsonl")
        assert str(named.value) == (
            "corpus.jsonl: untagged token: sentence 0, token 2 'ran' is missing its POS tag"
        )

    def test_untagged_check_reads_only_the_given_rows(self):
        tagged = make_sentence(["a", "b"], pos=["DT", "NN"])
        corpus = make_corpus(
            [tagged, make_sentence(["x", "y"]), tagged, make_sentence(["z"]), tagged]
        )
        corpus.columns.check_tagged(rows=np.array([4, 0, 2]))
        # the first untagged sentence among the rows in corpus order, named
        # by its row
        with pytest.raises(UntaggedTokenError, match="sentence 3, token 0 'z'"):
            corpus.columns.check_tagged(rows=np.array([4, 3, 0]))
        with pytest.raises(UntaggedTokenError, match="sentence 1, token 0 'x'"):
            corpus.columns.check_tagged(rows=np.array([3, 1]))

    def test_take_gathers_the_drawn_sentences(self):
        corpus = self.corpus()
        rows = np.array([2, 0, 2, 1])
        taken = corpus.take(rows)
        assert taken.sentences == tuple(corpus.sentences[i] for i in rows)
        assert taken.provenance == corpus.provenance
        fresh = make_corpus(taken.sentences).columns
        for name in ("surface", "pos", "lemma"):
            vocab = getattr(taken.columns, f"{name}_vocab")
            assert vocab == getattr(corpus.columns, f"{name}_vocab")
            decoded = [vocab[i] if i >= 0 else None for i in getattr(taken.columns, f"{name}_ids")]
            fresh_vocab = getattr(fresh, f"{name}_vocab")
            assert decoded == [
                fresh_vocab[i] if i >= 0 else None for i in getattr(fresh, f"{name}_ids")
            ]
        assert taken.columns.ptr.tolist() == fresh.ptr.tolist()


@pytest.mark.parametrize(
    "rows",
    [slice(-3, -1), slice(None, 3), slice(7, None), slice(-30, 30), slice(12, 15)],
    ids=["negative", "open-start", "open-stop", "past-both-ends", "past-the-end"],
)
def test_take_of_a_slice_takes_the_rows_a_list_would(rows):
    corpus = lm_family_corpus("T", "Germanic", 10, seed=4)
    want = range(len(corpus))[rows]
    taken = corpus.take(rows)
    assert taken.sentences == tuple(corpus.sentences[i] for i in want)
    assert taken.columns.ptr[-1] == taken.token_count
    assert taken.origin == (corpus.columns, want.start)


@pytest.mark.parametrize(
    "rows, error",
    [
        (slice(None, None, -1), ValueError),
        (slice(3, 1, -1), ValueError),
        (slice(0, 10, 2), ValueError),
        (np.array([-2]), IndexError),
        (np.array([3, -11]), IndexError),
    ],
    ids=["reversed", "reversed-bounds", "step-2", "negative-row", "row-before-the-first"],
)
def test_take_of_rows_outside_the_corpus_raises(rows, error):
    corpus = lm_family_corpus("T", "Germanic", 10, seed=4)
    with pytest.raises(error):
        corpus.take(rows)
    if isinstance(rows, np.ndarray):
        with pytest.raises(IndexError):
            pos_sequences(corpus).take(rows)
