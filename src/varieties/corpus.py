"""Data model and preparation for variety-labelled corpora.

The unit of annotation is a sentence carrying its language variety (native
"N", non-native "NN", translated "T") plus optional country / language-family
metadata. Sentences are grouped into ~2,000-token chunks (never splitting a
sentence) for classification; corpora can be shuffled, filtered and
down-sampled to equal class sizes. Every randomised operation takes an
explicit seed and is reproducible.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CorpusFormatError

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


@dataclass(frozen=True)
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

    def tokens(self) -> Iterator[Token]:
        for sent in self.sentences:
            yield from sent.tokens

    def varieties(self) -> set[str]:
        return {s.variety for s in self.sentences}


@dataclass(frozen=True)
class Chunk:
    """A sentence-boundary-respecting block of roughly ``target_size`` tokens.

    Chunks are the unit of classification; all member sentences share one
    variety.
    """

    sentences: tuple[AnnotatedSentence, ...]
    token_count: int
    variety: str

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def tokens(self) -> Iterator[Token]:
        for sent in self.sentences:
            yield from sent.tokens


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


def _read_jsonl(path: Path, default_variety: str | None) -> list[AnnotatedSentence]:
    sentences = []
    table = _TokenTable()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc.msg}", line_no) from exc
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

    def _aligned(key: str) -> list | None:
        value = record.get(key)
        if value is None:
            return None
        if not isinstance(value, list) or len(value) != len(surfaces):
            raise CorpusFormatError(
                f'"{key}" must be an array aligned with the tokens', line_no
            )
        if not _ENTRY_TYPES.issuperset(map(type, value)):
            raise CorpusFormatError(f'"{key}" entries must be strings or null', line_no)
        return value

    pos = _aligned("pos")
    lemma = _aligned("lemma")
    for key in ("country", "family"):
        if record.get(key) is not None and not isinstance(record[key], str):
            raise CorpusFormatError(f'"{key}" must be a string', line_no)
    variety = record.get("variety", default_variety)
    if variety not in VARIETY_LABELS:
        raise CorpusFormatError(f"unknown variety label {variety!r}", line_no)
    try:
        tokens = tuple(
            map(
                table.__getitem__,
                zip(surfaces, pos or repeat(None), lemma or repeat(None)),
            )
        )
        return AnnotatedSentence(
            tokens=tokens,
            variety=variety,
            country=record.get("country"),
            family=record.get("family"),
        )
    except ValueError as exc:
        raise CorpusFormatError(str(exc), line_no) from exc


_VERTICAL_HEADERS = ("variety", "country", "family")


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
                if not sep or key.strip() not in _VERTICAL_HEADERS:
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
    """Serialize a corpus so that ``ingest`` reproduces it exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent in corpus.sentences:
            tokens = sent.tokens
            pos = [t.pos for t in tokens]
            lemma = [t.lemma for t in tokens]
            record: dict = {"tokens": [t.surface for t in tokens]}
            if pos.count(None) < len(pos):
                record["pos"] = pos
            if lemma.count(None) < len(lemma):
                record["lemma"] = lemma
            record["variety"] = sent.variety
            if sent.country is not None:
                record["country"] = sent.country
            if sent.family is not None:
                record["family"] = sent.family
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# preparation


def shuffle(corpus: Corpus, seed: int) -> Corpus:
    """Deterministic random permutation of the corpus sentences."""
    order = list(corpus.sentences)
    random.Random(seed).shuffle(order)
    return Corpus(sentences=tuple(order), provenance=corpus.provenance)


def chunk(corpus: Corpus, target_size: int = 2000) -> list[Chunk]:
    """Greedy fill: append sentences until the chunk reaches ``target_size``
    tokens, then close it. A trailing chunk strictly below half the target is
    dropped. Sentences are never split."""
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    varieties = corpus.varieties()
    if len(varieties) > 1:
        raise ValueError(
            f"chunking requires a single-variety corpus, found {sorted(varieties)}"
        )
    chunks: list[Chunk] = []
    pending: list[AnnotatedSentence] = []
    pending_tokens = 0
    for sent in corpus.sentences:
        pending.append(sent)
        pending_tokens += sent.token_count
        if pending_tokens >= target_size:
            chunks.append(
                Chunk(
                    sentences=tuple(pending),
                    token_count=pending_tokens,
                    variety=sent.variety,
                )
            )
            pending = []
            pending_tokens = 0
    if pending and pending_tokens >= 0.5 * target_size:
        chunks.append(
            Chunk(
                sentences=tuple(pending),
                token_count=pending_tokens,
                variety=pending[0].variety,
            )
        )
    return chunks


def balance(chunks_by_variety: dict[str, list[Chunk]], seed: int) -> dict[str, list[Chunk]]:
    """Down-sample every variety to the smallest class size, uniformly without
    replacement. Retained chunks keep their original relative order."""
    for label, chunks in chunks_by_variety.items():
        if not chunks:
            raise ValueError(f"variety {label!r} has no chunks to sample from")
    smallest = min(len(chunks) for chunks in chunks_by_variety.values())
    rng = random.Random(seed)
    balanced: dict[str, list[Chunk]] = {}
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
