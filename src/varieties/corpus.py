"""Data model and preparation for variety-labelled corpora.

The unit of annotation is a sentence carrying its language variety (native
"N", non-native "NN", translated "T") plus optional country / language-family
metadata. Sentences are grouped into ~2,000-token chunks (never splitting a
sentence) for classification; a chunk is itself a ``Corpus``. Corpora can be
shuffled, filtered and down-sampled to equal class sizes. Every randomised
operation takes an explicit seed and is reproducible.

This module is the only reader of token fields: other modules see sentence
content through ``AnnotatedSentence.surfaces()``, ``Corpus.tags()``, the one
validated reader of POS tags, and ``Corpus.columns``, the corpus's tokens as
interned id arrays. ``KeyCounts`` is the one table of key counts per row
(chunk feature keys, sentence lemmas/idioms), built from (row, key id) pairs.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring
from json.scanner import make_scanner
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CorpusFormatError, UntaggedTokenError

VARIETY_LABELS = ("N", "NN", "T")
FAMILY_LABELS = ("Germanic", "Romance", "Other")

GERMANIC_COUNTRIES = frozenset({"AT", "DE", "NL", "SE"})
ROMANCE_COUNTRIES = frozenset({"PT", "IT", "ES", "FR", "RO"})

_PUNCT_CHARS = frozenset(string.punctuation) | frozenset("«»„“”‘’‚—–…·¡¿")


def family_of(country: str) -> str:
    """Language family for an ISO-3166 alpha-2 country code."""
    if country in GERMANIC_COUNTRIES:
        return "Germanic"
    if country in ROMANCE_COUNTRIES:
        return "Romance"
    return "Other"


def tokenize_raw(text: str) -> list[str]:
    """Rule tokenizer for raw text: lowercase, split on whitespace, drop
    tokens consisting solely of punctuation."""
    return [
        tok
        for tok in text.lower().split()
        if not all(c in _PUNCT_CHARS for c in tok)
    ]


@dataclass(frozen=True)
class Token:
    """A single lowercased token with optional POS tag and lemma."""

    surface: str
    pos: str | None = None
    lemma: str | None = None

    def __post_init__(self):
        # split() drops str.isspace runs, so only a nonempty surface with no
        # whitespace character splits into itself
        if self.surface.split() != [self.surface]:
            raise ValueError(
                f"token surface must be nonempty and whitespace-free: {self.surface!r}"
            )
        # a missing tag or lemma is None (null in JSONL, an empty field in
        # the vertical format), so an empty one is never a value
        for field in ("pos", "lemma"):
            if getattr(self, field) == "":
                raise ValueError(f"token {field} is empty; a missing {field} is null")
        if self.surface.lower() != self.surface:
            object.__setattr__(self, "surface", self.surface.lower())
        if self.lemma is not None and self.lemma.lower() != self.lemma:
            object.__setattr__(self, "lemma", self.lemma.lower())

    @property
    def lemma_or_surface(self) -> str:
        return self.lemma if self.lemma is not None else self.surface


class _TokenTable(dict):
    """One validated ``Token`` per distinct raw (surface, pos, lemma) triple.

    A reader keeps one table per file, so equal tokens share one immutable
    object. A triple whose ``Token`` raises is not stored, so it raises again
    wherever it recurs.
    """

    def __missing__(self, key: tuple[str, str | None, str | None]) -> Token:
        token = self[key] = Token(*key)
        return token


@dataclass(frozen=True, slots=True)
class AnnotatedSentence:
    """An ordered token sequence with its variety label and speaker metadata.

    ``family`` is derived from ``country`` when absent; when both are given
    they must agree with the country->family table.
    """

    tokens: tuple[Token, ...]
    variety: str
    country: str | None = None
    family: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")
        if self.variety not in VARIETY_LABELS:
            raise ValueError(f"unknown variety label {self.variety!r}")
        if self.family is None:
            if self.country is not None:
                object.__setattr__(self, "family", family_of(self.country))
        else:
            if self.family not in FAMILY_LABELS:
                raise ValueError(f"unknown family label {self.family!r}")
            if self.country is not None and family_of(self.country) != self.family:
                raise ValueError(
                    f"family {self.family!r} inconsistent with country {self.country!r}"
                )

    @property
    def token_count(self) -> int:
        return len(self.tokens)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]


def _untagged(sentence: int, position: int, surface: str) -> UntaggedTokenError:
    return UntaggedTokenError(
        f"untagged token: sentence {sentence}, token {position} "
        f"{surface!r} is missing its POS tag"
    )


def _gather(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In CSR offsets ``ptr`` (row r is entries ``ptr[r]:ptr[r + 1]``): the
    length of each of ``rows`` (in any order, repeats allowed), then the
    positions of their entries, row after row."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    at = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return lengths, at + np.arange(len(at))


@dataclass(frozen=True, eq=False)
class Columns:
    """A corpus's tokens as interned ids, in ``KeyCounts``' CSR layout:
    sentence s is tokens ``ptr[s]:ptr[s + 1]``. Each vocabulary is sorted, so
    ids sort like their strings; it holds the values that occur, and only
    those unless the corpus was made by ``Corpus.take``. The id arrays are
    int32, one entry per token. A token without a POS tag has POS id -1; a
    token's lemma is its ``lemma_or_surface``."""

    surface_vocab: tuple[str, ...]
    pos_vocab: tuple[str, ...]
    lemma_vocab: tuple[str, ...]
    surface_ids: np.ndarray
    pos_ids: np.ndarray
    lemma_ids: np.ndarray
    ptr: np.ndarray

    def take(self, rows: np.ndarray) -> Columns:
        """The sentences at ``rows``, sharing these vocabularies."""
        lengths, at = _gather(self.ptr, rows)
        return replace(
            self,
            surface_ids=self.surface_ids[at],
            pos_ids=self.pos_ids[at],
            lemma_ids=self.lemma_ids[at],
            ptr=np.concatenate(([0], np.cumsum(lengths))),
        )

    def check_tagged(self, starts: Sequence[int] = (0,)) -> None:
        """Raise ``UntaggedTokenError`` at the first token without a POS tag,
        as ``Corpus.tags`` does. ``starts`` are the first sentences of the
        corpora laid end to end here (one corpus by default); the error
        counts the sentence from its corpus's start."""
        untagged = np.flatnonzero(self.pos_ids < 0)
        if len(untagged):
            at = int(untagged[0])
            row = int(np.searchsorted(self.ptr, at, side="right")) - 1
            first = max(start for start in starts if start <= row)
            surface = self.surface_vocab[self.surface_ids[at]]
            raise _untagged(row - first, at - int(self.ptr[row]), surface)


@dataclass(frozen=True)
class Corpus:
    """An immutable ordered collection of annotated sentences."""

    sentences: tuple[AnnotatedSentence, ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[AnnotatedSentence]:
        return iter(self.sentences)

    @cached_property
    def token_count(self) -> int:
        return sum(s.token_count for s in self.sentences)

    def tags(self) -> list[list[str]]:
        """POS tags, one list per sentence. The first token without a tag
        raises ``UntaggedTokenError`` naming its sentence, position and
        surface."""
        out = []
        for s_idx, sent in enumerate(self.sentences):
            tags = [t.pos for t in sent.tokens]
            if None in tags:
                t_idx = tags.index(None)
                raise _untagged(s_idx, t_idx, sent.tokens[t_idx].surface)
            out.append(tags)
        return out

    @cached_property
    def columns(self) -> Columns:
        """The tokens as interned id arrays."""
        lengths = np.fromiter((len(s.tokens) for s in self.sentences), np.int64, len(self))

        def tokens() -> Iterator[Token]:
            return chain.from_iterable(s.tokens for s in self.sentences)

        # fields are read once per token object (ingest shares one object per
        # distinct token); dicts keyed by id keep the pass at 4 B per token
        distinct = dict(zip(map(id, tokens()), tokens()))
        index = dict(zip(distinct, range(len(distinct))))
        token_ids = np.fromiter(map(index.__getitem__, map(id, tokens())), np.int32, int(lengths.sum()))
        vocabs, ids = [], []
        for values in (
            [t.surface for t in distinct.values()],
            [t.pos for t in distinct.values()],
            [t.lemma_or_surface for t in distinct.values()],
        ):
            vocab = sorted(set(values) - {None})
            code = dict(zip(vocab, range(len(vocab))))
            code[None] = -1
            vocabs.append(tuple(vocab))
            ids.append(np.fromiter(map(code.__getitem__, values), np.int32, len(values))[token_ids])
        return Columns(*vocabs, *ids, np.concatenate(([0], np.cumsum(lengths))))

    def take(self, rows: np.ndarray) -> Corpus:
        """The sentences at ``rows`` (indices, repeats allowed) as a corpus
        of the same provenance, whose columns are gathered from these."""
        taken = Corpus(tuple(map(self.sentences.__getitem__, rows.tolist())), self.provenance)
        # filled as the cached property would be: a gather costs less than a
        # pass over the taken tokens
        taken.__dict__["columns"] = self.columns.take(rows)
        return taken

    def varieties(self) -> set[str]:
        return {s.variety for s in self.sentences}


class KeyCounts:
    """Counts of string keys per row in CSR form: row r holds key
    ``keys[col[i]]`` ``count[i]`` times for i in ``ptr[r]:ptr[r + 1]``, one
    entry per distinct key of the row. The columns are the observed keys in
    sorted order; ``col`` and ``count`` are int32. ``from_pairs`` is the
    one way to build a table."""

    @classmethod
    def from_pairs(
        cls, rows: np.ndarray, ids: np.ndarray, keys: Sequence[str], n_rows: int
    ) -> KeyCounts:
        """Count (row, key id) pairs, ``rows[i]`` holding key ``keys[ids[i]]``
        once, for rows ``0:n_rows``. Ids of equal keys count as one key."""
        table = cls.__new__(cls)
        observed = np.unique(ids).tolist()
        table.keys = sorted({keys[i] for i in observed})
        table.column = {key: i for i, key in enumerate(table.keys)}
        width = max(len(table.keys), 1)
        to_column = np.zeros(len(keys), dtype=np.intc)
        to_column[observed] = [table.column[keys[i]] for i in observed]
        pairs = np.multiply(rows, width, dtype=np.int64)
        pairs += to_column[ids]
        # np.unique's counts without its copy of the pairs, which are as
        # long as a corpus is: sort in place, then find the last pair of each
        # run of equal ones
        pairs.sort()
        last = np.flatnonzero(np.append(pairs[1:] != pairs[:-1], len(pairs) > 0))
        table.count = np.diff(last, prepend=-1).astype(np.intc)
        pairs = pairs[last]
        table.col = (pairs % width).astype(np.intc)
        table.ptr = np.searchsorted(pairs, np.arange(n_rows + 1) * width).astype(np.int64)
        return table

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of ``rows`` (row indices, in any order, repeats
        allowed): each row's entry count, then the entries' positions in
        ``col`` and ``count``, row after row. Costs only those rows'
        entries; the caller reads only the arrays it needs at them."""
        return _gather(self.ptr, rows)


# ---------------------------------------------------------------------------
# ingestion


def ingest(path: str | Path, fmt: str = "jsonl", default_variety: str | None = None) -> Corpus:
    """Read a corpus file in ``jsonl`` or ``vertical`` format.

    ``default_variety`` applies to records that do not declare their own
    variety; records with neither are rejected with their line number.
    """
    path = Path(path)
    if fmt == "jsonl":
        sentences = _read_jsonl(path, default_variety)
    elif fmt == "vertical":
        sentences = _read_vertical(path, default_variety)
    else:
        raise CorpusFormatError(f"unknown corpus format {fmt!r}")
    if not sentences:
        raise CorpusFormatError(f"empty corpus file: {path}")
    return Corpus(sentences=tuple(sentences), provenance=str(path))


# the scanner json.loads runs, called once per stripped line
_scan_json = make_scanner(json.JSONDecoder())


def _read_jsonl(path: Path, default_variety: str | None) -> list[AnnotatedSentence]:
    sentences = []
    table = _TokenTable()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            # json.loads's errors: BOM first; a stripped line has no JSON whitespace
            try:
                record, end = _scan_json(line, 0)
            except StopIteration:
                bom = line.startswith("\ufeff")
                msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if bom else "Expecting value"
                raise CorpusFormatError(f"invalid JSON: {msg}", line_no) from None
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc.msg}", line_no) from exc
            if end != len(line):
                raise CorpusFormatError("invalid JSON: Extra data", line_no)
            sentences.append(
                _sentence_from_record(record, line_no, default_variety, table)
            )
    return sentences


# the JSON types an entry of "tokens", and of an aligned "pos" or "lemma"
# array, may have
_SURFACE_TYPES = frozenset({str})
_ENTRY_TYPES = frozenset({str, type(None)})


def _sentence_from_record(
    record: object, line_no: int, default_variety: str | None, table: _TokenTable
) -> AnnotatedSentence:
    if not isinstance(record, dict):
        raise CorpusFormatError("record is not a JSON object", line_no)
    if "tokens" in record:
        surfaces = record["tokens"]
        if not isinstance(surfaces, list) or not _SURFACE_TYPES.issuperset(
            map(type, surfaces)
        ):
            raise CorpusFormatError('"tokens" must be an array of strings', line_no)
    elif "text" in record:
        if not isinstance(record["text"], str):
            raise CorpusFormatError('"text" must be a string', line_no)
        surfaces = tokenize_raw(record["text"])
        if not surfaces:
            raise CorpusFormatError("no tokens survive raw-text tokenization", line_no)
    else:
        raise CorpusFormatError('record lacks a "tokens" or "text" field', line_no)
    pos, lemma = record.get("pos"), record.get("lemma")
    for key, value in (("pos", pos), ("lemma", lemma)):
        if value is not None and (not isinstance(value, list) or len(value) != len(surfaces)):
            raise CorpusFormatError(f'"{key}" must be an array aligned with the tokens', line_no)
        if value is not None and not _ENTRY_TYPES.issuperset(map(type, value)):
            raise CorpusFormatError(f'"{key}" entries must be strings or null', line_no)
    country, family = record.get("country"), record.get("family")
    for key, value in (("country", country), ("family", family)):
        if value is not None and not isinstance(value, str):
            raise CorpusFormatError(f'"{key}" must be a string', line_no)
    variety = record.get("variety", default_variety)
    if variety not in VARIETY_LABELS:
        raise CorpusFormatError(f"unknown variety label {variety!r}", line_no)
    triples = zip(surfaces, pos or repeat(None), lemma or repeat(None))
    try:
        return AnnotatedSentence(tuple(map(table.__getitem__, triples)), variety, country, family)
    except ValueError as exc:
        raise CorpusFormatError(str(exc), line_no) from exc


_METADATA = ("variety", "country", "family")


def _read_vertical(path: Path, default_variety: str | None) -> list[AnnotatedSentence]:
    sentences = []
    table = _TokenTable()
    current: list[Token] = []
    meta: dict[str, str | None] = {"variety": default_variety, "country": None, "family": None}
    sentence_start_line = 1

    def flush(line_no: int):
        if not current:
            return
        variety = meta["variety"]
        if variety not in VARIETY_LABELS:
            raise CorpusFormatError(
                f"unknown variety label {variety!r}", sentence_start_line
            )
        try:
            sentences.append(
                AnnotatedSentence(
                    tokens=tuple(current),
                    variety=variety,
                    country=meta["country"],
                    family=meta["family"],
                )
            )
        except ValueError as exc:
            raise CorpusFormatError(str(exc), sentence_start_line) from exc
        current.clear()

    line_no = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                flush(line_no)
                sentence_start_line = line_no + 1
                continue
            if line.startswith("#"):
                flush(line_no)
                key, sep, value = line[1:].partition("=")
                if not sep or key.strip() not in _METADATA:
                    raise CorpusFormatError(f"unknown header {line!r}", line_no)
                meta[key.strip()] = value.strip() or None
                sentence_start_line = line_no + 1
                continue
            fields = line.split("\t")
            if len(fields) > 3:
                raise CorpusFormatError("expected surface<TAB>pos<TAB>lemma", line_no)
            fields += [""] * (3 - len(fields))
            try:
                current.append(table[fields[0], fields[1] or None, fields[2] or None])
            except ValueError as exc:
                raise CorpusFormatError(str(exc), line_no) from exc
        flush(line_no)
    return sentences


def write_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Serialize a corpus so that ``ingest`` reproduces it exactly. Each line
    is ``json.dumps(record, ensure_ascii=False)`` of the sentence's record."""
    # each token object's fields as JSON, by id (the corpus keeps its tokens
    # alive): ingest shares one object per distinct token, but a corpus built
    # token by token has one per token, so a large cache is emptied
    fragments: dict[int, tuple[str, str, str]] = {}
    tails: dict[tuple, str] = {}
    block: list[str] = []
    with open(path, "w", encoding="utf-8") as fh:
        for sent in corpus.sentences:
            encoded = list(map(fragments.get, map(id, sent.tokens)))
            if None in encoded:
                if len(fragments) > 65536:
                    fragments.clear()
                for i, token in enumerate(sent.tokens):
                    if encoded[i] is None:
                        encoded[i] = fragments[id(token)] = tuple(
                            "null" if value is None else encode_basestring(value)
                            for value in (token.surface, token.pos, token.lemma)
                        )
            surfaces, pos, lemma = zip(*encoded)
            line = '{"tokens": [' + ", ".join(surfaces) + "]"
            for key, values in (("pos", pos), ("lemma", lemma)):
                if values.count("null") < len(values):
                    line += f', "{key}": [{", ".join(values)}]'
            meta = (sent.variety, sent.country, sent.family)
            if meta not in tails:
                tails[meta] = "".join(
                    f', "{k}": {encode_basestring(v)}'
                    for k, v in zip(_METADATA, meta) if v is not None
                ) + "}\n"
            block.append(line + tails[meta])
            # one write per line costs more; one join at the end holds the file
            if len(block) == 4096:
                fh.write("".join(block))
                block.clear()
        fh.write("".join(block))


# ---------------------------------------------------------------------------
# preparation


def shuffle(corpus: Corpus, seed: int) -> Corpus:
    """Deterministic random permutation of the corpus sentences."""
    order = list(corpus.sentences)
    random.Random(seed).shuffle(order)
    return Corpus(sentences=tuple(order), provenance=corpus.provenance)


def chunk(corpus: Corpus, target_size: int = 2000) -> list[Corpus]:
    """Greedy fill: append sentences until the chunk reaches ``target_size``
    tokens, then close it. A trailing chunk strictly below half the target is
    dropped. Sentences are never split. Each chunk is a corpus with the
    provenance of ``corpus``."""
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    varieties = corpus.varieties()
    if len(varieties) > 1:
        raise ValueError(
            f"chunking requires a single-variety corpus, found {sorted(varieties)}"
        )
    chunks: list[Corpus] = []
    pending: list[AnnotatedSentence] = []
    pending_tokens = 0
    for sent in corpus.sentences:
        pending.append(sent)
        pending_tokens += sent.token_count
        if pending_tokens >= target_size:
            chunks.append(Corpus(sentences=tuple(pending), provenance=corpus.provenance))
            pending = []
            pending_tokens = 0
    if pending_tokens >= 0.5 * target_size:
        chunks.append(Corpus(sentences=tuple(pending), provenance=corpus.provenance))
    return chunks


def balance(chunks_by_variety: dict[str, list[Corpus]], seed: int) -> dict[str, list[Corpus]]:
    """Down-sample every variety to the smallest class size, uniformly without
    replacement. Retained chunks keep their original relative order."""
    for label, chunks in chunks_by_variety.items():
        if not chunks:
            raise ValueError(f"variety {label!r} has no chunks to sample from")
    smallest = min(len(chunks) for chunks in chunks_by_variety.values())
    rng = random.Random(seed)
    balanced: dict[str, list[Corpus]] = {}
    for label in sorted(chunks_by_variety):
        chunks = chunks_by_variety[label]
        keep = sorted(rng.sample(range(len(chunks)), smallest))
        balanced[label] = [chunks[i] for i in keep]
    return balanced


def filter_corpus(
    corpus: Corpus,
    variety: str | None = None,
    country: str | None = None,
    family: str | None = None,
) -> Corpus:
    """Order-preserving subsequence of sentences matching every given field."""
    kept = tuple(
        s
        for s in corpus.sentences
        if (variety is None or s.variety == variety)
        and (country is None or s.country == country)
        and (family is None or s.family == family)
    )
    return Corpus(sentences=kept, provenance=corpus.provenance)


def concat(corpora: Iterable[Corpus], provenance: str = "") -> Corpus:
    sentences: list[AnnotatedSentence] = []
    for corpus in corpora:
        sentences.extend(corpus.sentences)
    return Corpus(sentences=tuple(sentences), provenance=provenance)
