"""Data model and preparation for variety-labelled corpora.

The unit of annotation is a sentence carrying its language variety (native
"N", non-native "NN", translated "T") plus optional country / language-family
metadata. A ``Corpus`` has one representation, ``Corpus.columns``: sorted
surface, POS and lemma vocabularies with one int32 id array each and CSR
sentence offsets, plus per-sentence variety, country and family codes. The
readers intern each record straight into those columns, and shuffling,
filtering, chunking (~2,000-token chunks, never splitting a sentence),
slicing and concatenation are index arithmetic on them. ``Token`` and
``AnnotatedSentence`` are the validated construction and inspection API:
``Corpus(sentences)`` interns them, and ``Corpus.sentences`` builds them from
the columns on first use. Every randomised operation takes an explicit seed
and is reproducible.

This module is the only reader of token fields: other modules see sentence
content through ``Corpus.columns``, whose ``check_tagged`` is the one check
that every token has a POS tag. ``KeyCounts`` is the one table of key counts
per row (chunk feature keys, sentence lemmas/idioms), built from (row, key
id) pairs.
"""

from __future__ import annotations

import json
import random
import string
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from json.encoder import encode_basestring
from json.scanner import make_scanner
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CorpusFormatError, UntaggedTokenError, undecodable_line

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


def _token_fault(surface: str, pos: str | None, lemma: str | None) -> str | None:
    """Why ``Token`` rejects these fields, or None."""
    # split() drops str.isspace runs, so only a nonempty surface with no
    # whitespace character splits into itself
    if surface.split() != [surface]:
        return f"token surface must be nonempty and whitespace-free: {surface!r}"
    # a missing tag or lemma is None (null in JSONL, an empty field in the
    # vertical format), so an empty one is never a value
    for field, value in (("pos", pos), ("lemma", lemma)):
        if value == "":
            return f"token {field} is empty; a missing {field} is null"
    return None


@dataclass(frozen=True)
class Token:
    """A single lowercased token with optional POS tag and lemma."""

    surface: str
    pos: str | None = None
    lemma: str | None = None

    def __post_init__(self):
        fault = _token_fault(self.surface, self.pos, self.lemma)
        if fault is not None:
            raise ValueError(fault)
        if self.surface.lower() != self.surface:
            object.__setattr__(self, "surface", self.surface.lower())
        if self.lemma is not None and self.lemma.lower() != self.lemma:
            object.__setattr__(self, "lemma", self.lemma.lower())


def _sentence_fault(
    length: int, variety: object, country: str | None, family: str | None
) -> str | None:
    """Why ``AnnotatedSentence`` rejects a sentence of ``length`` tokens with
    this metadata, or None."""
    if not length:
        return "sentence must contain at least one token"
    if variety not in VARIETY_LABELS:
        return f"unknown variety label {variety!r}"
    if family is not None:
        if family not in FAMILY_LABELS:
            return f"unknown family label {family!r}"
        if country is not None and family_of(country) != family:
            return f"family {family!r} inconsistent with country {country!r}"
    return None


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
        fault = _sentence_fault(len(self.tokens), self.variety, self.country, self.family)
        if fault is not None:
            raise ValueError(fault)
        if self.family is None and self.country is not None:
            object.__setattr__(self, "family", family_of(self.country))

    @property
    def token_count(self) -> int:
        return len(self.tokens)


def _untagged(sentence: int, position: int, surface: str, path: str) -> UntaggedTokenError:
    message = (
        f"untagged token: sentence {sentence}, token {position} "
        f"{surface!r} is missing its POS tag"
    )
    return UntaggedTokenError(f"{path}: {message}" if path else message)


# gather and KeyCounts add to a long array this many entries at a time, so
# beside it they hold one block of addends
_BLOCK = 1 << 16


def gather(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In CSR offsets ``ptr`` (row r is entries ``ptr[r]:ptr[r + 1]``): the
    length of each of ``rows`` (in any order, repeats allowed), then the
    positions of their entries, row after row."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    at = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    for first in range(0, len(at), _BLOCK):
        block = at[first : first + _BLOCK]
        block += np.arange(first, first + len(block))
    return lengths, at


@dataclass(frozen=True, eq=False)
class Columns:
    """A corpus as interned ids.

    Per token, in ``KeyCounts``' CSR layout (sentence s is tokens
    ``ptr[s]:ptr[s + 1]``, int64 ``ptr``): int32 ids into the surface, POS
    and lemma vocabularies. A token without a POS tag has POS id -1; a
    token's lemma id is that of its lemma, or of its surface if it has none,
    and ``lemma_given`` says whether the token has a lemma of its own. Per
    sentence: its variety and family as int8 indices into ``VARIETY_LABELS``
    and ``FAMILY_LABELS`` and its country as an int32 index into
    ``country_vocab``; a missing country or family is -1. Each vocabulary is
    sorted, so ids sort like their strings; it holds the values that occur,
    and only those unless the corpus was cut from a larger one
    (``Corpus.take``)."""

    surface_vocab: tuple[str, ...]
    pos_vocab: tuple[str, ...]
    lemma_vocab: tuple[str, ...]
    surface_ids: np.ndarray
    pos_ids: np.ndarray
    lemma_ids: np.ndarray
    ptr: np.ndarray
    lemma_given: np.ndarray
    variety: np.ndarray
    country_vocab: tuple[str, ...]
    country: np.ndarray
    family: np.ndarray

    def take(self, rows: np.ndarray | slice) -> Columns:
        """The sentences at ``rows``, sharing these vocabularies: a slice
        ``a:b`` as views of these arrays, the rows a boolean mask keeps, or
        those of an index array (any order, repeats allowed) gathered."""
        lengths = np.diff(self.ptr)
        if isinstance(rows, slice):
            at = slice(self.ptr[rows.start], self.ptr[rows.stop])
        elif rows.dtype == bool:
            at = np.repeat(rows, lengths)
        else:
            at = gather(self.ptr, rows)[1]
        return replace(
            self,
            surface_ids=self.surface_ids[at],
            pos_ids=self.pos_ids[at],
            lemma_ids=self.lemma_ids[at],
            ptr=np.concatenate(([0], np.cumsum(lengths[rows]))),
            lemma_given=self.lemma_given[at],
            variety=self.variety[rows],
            country=self.country[rows],
            family=self.family[rows],
        )

    def check_tagged(self, path: str = "", rows: np.ndarray | None = None) -> None:
        """Raise ``UntaggedTokenError`` at the first token without a POS tag
        in the sentences at ``rows`` (all by default), in the order they have
        here, naming its sentence, position and surface. The error opens with
        ``path``, the corpus's file if it was read from one, as
        ``CorpusFormatError`` does."""
        untagged = np.flatnonzero(self.pos_ids < 0)
        sentence = np.searchsorted(self.ptr, untagged, side="right") - 1
        if rows is not None:
            checked = np.zeros(len(self.ptr) - 1, dtype=bool)
            checked[rows] = True
            untagged = untagged[checked[sentence]]
            sentence = sentence[checked[sentence]]
        if len(untagged):
            at, row = int(untagged[0]), int(sentence[0])
            surface = self.surface_vocab[self.surface_ids[at]]
            raise _untagged(row, at - int(self.ptr[row]), surface, path)


# ---------------------------------------------------------------------------
# interning


class _Fault(Exception):
    """A raw value that a reader's cheap check rejects; the reader then
    rebuilds the error through the full validation order."""


class _Interned(dict):
    """Values -> ids, in order of first appearance."""

    def __missing__(self, value) -> int:
        self[value] = i = len(self)
        return i


class _Checked(dict):
    """Raw field values -> the ids of their normal forms in ``interned``.
    ``normal`` runs once per distinct raw value and returns its normal form,
    or None for a value it rejects, which raises ``_Fault`` and is never
    stored. An unhashable raw value raises ``TypeError``."""

    def __init__(self, interned: _Interned, normal: Callable):
        super().__init__()
        self.interned = interned
        self.normal = normal

    def __missing__(self, raw) -> int:
        value = self.normal(raw)
        if value is None:
            raise _Fault
        self[raw] = i = self.interned[value]
        return i


def _surface(raw) -> str | None:
    return raw.lower() if type(raw) is str and raw.split() == [raw] else None


def _tag(raw) -> str | None:
    return raw if type(raw) is str and raw else None


def _lemma(raw) -> str | None:
    return raw.lower() if type(raw) is str and raw else None


def _metadata(raw: tuple) -> tuple | None:
    """A sentence's (variety, country, family) with the family derived."""
    variety, country, family = raw
    if any(value is not None and type(value) is not str for value in (country, family)):
        return None
    if _sentence_fault(1, variety, country, family) is not None:
        return None
    if family is None and country is not None:
        family = family_of(country)
    return variety, country, family


def _sorted_ids(values: list, ids: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The ``values`` that ``ids`` use, sorted, and ``ids`` as int32 indices
    into them; -1 stays -1."""
    seen = np.zeros(len(values) + 1, dtype=bool)
    seen[ids] = True
    used = sorted(np.flatnonzero(seen[:-1]).tolist(), key=values.__getitem__)
    # the last entry maps -1 to -1
    code = np.full(len(values) + 1, -1, dtype=np.int32)
    code[used] = np.arange(len(used))
    return tuple(values[i] for i in used), code[ids]


class _Builder:
    """Interns sentences into the arrays of their ``Columns``: provisional
    ids in order of first appearance, sorted once at the end. A word's
    surface and lemma share one table, and a missing tag or lemma is id -1;
    each raw field value is checked and lowercased once per distinct value."""

    def __init__(self):
        words = _Interned()
        self.surface_of = _Checked(words, _surface)
        self.lemma_of = _Checked(words, _lemma)
        self.pos_of = _Checked(_Interned(), _tag)
        self.metadata_of = _Checked(_Interned(), _metadata)
        # a missing tag or lemma is None in a record
        self.lemma_of[None] = self.pos_of[None] = -1
        self.surface, self.pos, self.lemma = array("i"), array("i"), array("i")
        self.lengths, self.metadata = array("q"), array("i")

    def append(self, surface: list[int], pos: list[int], lemma: list[int], metadata: int):
        self.surface.fromlist(surface)
        self.pos.fromlist(pos)
        self.lemma.fromlist(lemma)
        self.lengths.append(len(surface))
        self.metadata.append(metadata)

    def add(self, sentence: AnnotatedSentence) -> None:
        """Intern a validated sentence."""
        words, tags = self.surface_of.interned, self.pos_of.interned
        tokens = sentence.tokens
        self.append(
            [words[t.surface] for t in tokens],
            [-1 if t.pos is None else tags[t.pos] for t in tokens],
            [-1 if t.lemma is None else words[t.lemma] for t in tokens],
            self.metadata_of[sentence.variety, sentence.country, sentence.family],
        )

    def columns(self) -> Columns:
        # each provisional array is let go once its ids are sorted, so about
        # two of them are alive at a time beside the columns
        words = list(self.surface_of.interned)
        surface = np.frombuffer(self.surface, np.intc)
        lemma = np.frombuffer(self.lemma, np.intc)
        lemma_given = lemma >= 0
        np.copyto(lemma, surface, where=~lemma_given)
        lemma_vocab, lemma_ids = _sorted_ids(words, lemma)
        del lemma, self.lemma
        surface_vocab, surface_ids = _sorted_ids(words, surface)
        del surface, self.surface
        pos_vocab, pos_ids = _sorted_ids(
            list(self.pos_of.interned), np.frombuffer(self.pos, np.intc)
        )
        del self.pos
        metadata = np.frombuffer(self.metadata, np.intc)
        triples = list(self.metadata_of.interned)
        country_vocab = tuple(sorted({country for _, country, _ in triples} - {None}))
        country_index = {country: i for i, country in enumerate(country_vocab)}
        return Columns(
            surface_vocab=surface_vocab,
            pos_vocab=pos_vocab,
            lemma_vocab=lemma_vocab,
            surface_ids=surface_ids,
            pos_ids=pos_ids,
            lemma_ids=lemma_ids,
            ptr=np.concatenate(([0], np.cumsum(np.frombuffer(self.lengths, np.int64)))),
            lemma_given=lemma_given,
            variety=np.array([VARIETY_LABELS.index(v) for v, _, _ in triples], np.int8)[metadata],
            country_vocab=country_vocab,
            country=np.array([country_index.get(c, -1) for _, c, _ in triples], np.int32)[metadata],
            family=np.array(
                [-1 if f is None else FAMILY_LABELS.index(f) for _, _, f in triples], np.int8
            )[metadata],
        )


def _materialize(columns: Columns) -> tuple[AnnotatedSentence, ...]:
    """The sentences of ``columns`` as objects, with one ``Token`` per
    distinct (surface, POS, lemma)."""
    c = columns
    lemma = np.where(c.lemma_given, c.lemma_ids, -1)
    pos_width, lemma_width = len(c.pos_vocab) + 1, len(c.lemma_vocab) + 1
    keys = (c.surface_ids.astype(np.int64) * pos_width + c.pos_ids + 1) * lemma_width + lemma + 1
    distinct, inverse = np.unique(keys, return_inverse=True)
    rest, lemma_of = np.divmod(distinct, lemma_width)
    surface_of, pos_of = np.divmod(rest, pos_width)
    tags, lemmas = (None,) + c.pos_vocab, (None,) + c.lemma_vocab
    tokens = [
        Token(c.surface_vocab[s], tags[p], lemmas[m])
        for s, p, m in zip(surface_of.tolist(), pos_of.tolist(), lemma_of.tolist())
    ]
    laid = list(map(tokens.__getitem__, inverse.ravel().tolist()))
    bounds = c.ptr.tolist()
    countries, families = c.country_vocab + (None,), FAMILY_LABELS + (None,)
    return tuple(
        AnnotatedSentence(tuple(laid[a:b]), VARIETY_LABELS[v], countries[k], families[f])
        for a, b, v, k, f in zip(
            bounds, bounds[1:], c.variety.tolist(), c.country.tolist(), c.family.tolist()
        )
    )


class Corpus:
    """An ordered collection of annotated sentences, held as ``columns`` and
    never changed. ``Corpus(sentences)`` interns validated sentences and
    keeps only their columns; ``sentences`` is built from the columns on
    first use."""

    def __init__(self, sentences: Iterable[AnnotatedSentence] = (), provenance: str = ""):
        built = _Builder()
        for sentence in sentences:
            built.add(sentence)
        self.columns = built.columns()
        self.provenance = provenance
        self.origin = (self.columns, 0)

    @classmethod
    def _of(cls, columns: Columns, provenance: str) -> Corpus:
        corpus = cls.__new__(cls)
        corpus.columns = columns
        corpus.provenance = provenance
        # the columns this corpus is a row range of, and its first row there
        corpus.origin = (columns, 0)
        return corpus

    @cached_property
    def sentences(self) -> tuple[AnnotatedSentence, ...]:
        return _materialize(self.columns)

    def __len__(self) -> int:
        return len(self.columns.ptr) - 1

    def __iter__(self) -> Iterator[AnnotatedSentence]:
        return iter(self.sentences)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.provenance == other.provenance and self.sentences == other.sentences

    __hash__ = None

    @property
    def token_count(self) -> int:
        return len(self.columns.surface_ids)

    def take(self, rows: np.ndarray | slice) -> Corpus:
        """The sentences at ``rows`` (see ``Columns.take``) as a corpus of the
        same provenance. A slice's corpus is a view, whose ``origin`` names
        the columns it was cut from."""
        taken = Corpus._of(self.columns.take(rows), self.provenance)
        if isinstance(rows, slice):
            columns, first = self.origin
            taken.origin = (columns, first + rows.start)
        return taken

    def varieties(self) -> set[str]:
        return {VARIETY_LABELS[v] for v in np.unique(self.columns.variety).tolist()}

    def countries(self) -> set[str]:
        vocab = self.columns.country_vocab
        return {vocab[c] for c in np.unique(self.columns.country).tolist() if c >= 0}


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
        # a pair is row * width + column, in int32 while that holds them all
        index = np.int32 if n_rows * width < 2**31 else np.int64
        pairs = np.multiply(rows, width, dtype=index)
        for first in range(0, len(pairs), _BLOCK):
            pairs[first : first + _BLOCK] += to_column[ids[first : first + _BLOCK]]
        # np.unique's counts without its copies of the pairs, which are as
        # long as a corpus is: sort in place, keep the last pair of each run
        # of equal ones, and count each run from the run ends
        pairs.sort()
        ends = np.empty(len(pairs), dtype=bool)
        np.not_equal(pairs[1:], pairs[:-1], out=ends[:-1])
        ends[-1:] = True
        pairs = pairs[ends]
        table.count = np.flatnonzero(ends).astype(np.intc)
        del ends
        table.count[1:] -= table.count[:-1]
        table.count[:1] += 1
        bounds = np.arange(n_rows + 1, dtype=index) * width
        table.ptr = np.searchsorted(pairs, bounds).astype(np.int64)
        table.col = np.remainder(pairs, width, out=pairs).astype(np.intc, copy=False)
        return table

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of ``rows`` (row indices, in any order, repeats
        allowed): each row's entry count, then the entries' positions in
        ``col`` and ``count``, row after row. Costs only those rows'
        entries; the caller reads only the arrays it needs at them."""
        return gather(self.ptr, rows)


# ---------------------------------------------------------------------------
# ingestion


def ingest(path: str | Path, fmt: str = "jsonl", default_variety: str | None = None) -> Corpus:
    """Read a corpus file in ``jsonl`` or ``vertical`` format.

    ``default_variety`` applies to records that do not declare their own
    variety; records with neither are rejected. A ``CorpusFormatError``
    names the file and line: ``path:line: message``.
    """
    path = Path(path)
    if fmt == "jsonl":
        read = _read_jsonl
    elif fmt == "vertical":
        read = _read_vertical
    else:
        raise CorpusFormatError(f"unknown corpus format {fmt!r}")
    try:
        built = read(path, default_variety)
    except UnicodeDecodeError:
        raise CorpusFormatError("not UTF-8 text", undecodable_line(path), path) from None
    except CorpusFormatError as exc:
        raise CorpusFormatError(exc.reason, exc.line, path) from exc.__cause__
    # the reader's frame is gone by now, so columns() lets each of the
    # builder's arrays go as soon as it has its ids
    columns = built.columns()
    if len(columns.ptr) == 1:
        raise CorpusFormatError("empty corpus file", path=path)
    return Corpus._of(columns, str(path))


# the scanner json.loads runs, called once per stripped line
_scan_json = make_scanner(json.JSONDecoder())
# one id -1, a missing tag or lemma, as array("i") bytes
_MISSING = array("i", [-1]).tobytes()


def _read_jsonl(path: Path, default_variety: str | None) -> _Builder:
    built = _Builder()
    surface_of = built.surface_of.__getitem__
    pos_of = built.pos_of.__getitem__
    lemma_of = built.lemma_of.__getitem__
    metadata_of = built.metadata_of
    add_surface, add_pos, add_lemma = (a.fromlist for a in (built.surface, built.pos, built.lemma))
    add_missing_pos, add_missing_lemma = built.pos.frombytes, built.lemma.frombytes
    add_length, add_metadata = built.lengths.append, built.metadata.append
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
            # the cheap checks: each distinct raw field value is checked once,
            # as it is interned; a record that fails one is validated again
            # in full for its first fault
            try:
                if type(record) is not dict:
                    raise _Fault
                surfaces = record.get("tokens")
                if surfaces is None:
                    text = record.get("text")
                    if "tokens" in record or type(text) is not str:
                        raise _Fault
                    surfaces = tokenize_raw(text)
                if type(surfaces) is not list or not surfaces:
                    raise _Fault
                n = len(surfaces)
                metadata = metadata_of[
                    record.get("variety", default_variety),
                    record.get("country"),
                    record.get("family"),
                ]
                add_surface(list(map(surface_of, surfaces)))
                pos = record.get("pos")
                if pos is None:
                    add_missing_pos(_MISSING * n)
                elif type(pos) is list and len(pos) == n:
                    add_pos(list(map(pos_of, pos)))
                else:
                    raise _Fault
                lemma = record.get("lemma")
                if lemma is None:
                    add_missing_lemma(_MISSING * n)
                elif type(lemma) is list and len(lemma) == n:
                    add_lemma(list(map(lemma_of, lemma)))
                else:
                    raise _Fault
            except (_Fault, TypeError):
                fault = _record_fault(record, default_variety)
                if fault is None:
                    raise
                raise CorpusFormatError(fault, line_no) from None
            add_length(n)
            add_metadata(metadata)
    return built


# the JSON types an entry of "tokens", and of an aligned "pos" or "lemma"
# array, may have
_SURFACE_TYPES = frozenset({str})
_ENTRY_TYPES = frozenset({str, type(None)})


def _record_fault(record: object, default_variety: str | None) -> str | None:
    """The first fault of a JSONL record, or None. The order: the record's
    structure and field types, its variety, each token in turn, then the
    sentence's metadata."""
    if not isinstance(record, dict):
        return "record is not a JSON object"
    if "tokens" in record:
        surfaces = record["tokens"]
        if not isinstance(surfaces, list) or not _SURFACE_TYPES.issuperset(
            map(type, surfaces)
        ):
            return '"tokens" must be an array of strings'
    elif "text" in record:
        if not isinstance(record["text"], str):
            return '"text" must be a string'
        surfaces = tokenize_raw(record["text"])
        if not surfaces:
            return "no tokens survive raw-text tokenization"
    else:
        return 'record lacks a "tokens" or "text" field'
    pos, lemma = record.get("pos"), record.get("lemma")
    for key, value in (("pos", pos), ("lemma", lemma)):
        if value is not None and (not isinstance(value, list) or len(value) != len(surfaces)):
            return f'"{key}" must be an array aligned with the tokens'
        if value is not None and not _ENTRY_TYPES.issuperset(map(type, value)):
            return f'"{key}" entries must be strings or null'
    country, family = record.get("country"), record.get("family")
    for key, value in (("country", country), ("family", family)):
        if value is not None and not isinstance(value, str):
            return f'"{key}" must be a string'
    variety = record.get("variety", default_variety)
    if variety not in VARIETY_LABELS:
        return f"unknown variety label {variety!r}"
    for fields in zip(surfaces, pos or repeat(None), lemma or repeat(None)):
        fault = _token_fault(*fields)
        if fault is not None:
            return fault
    return _sentence_fault(len(surfaces), variety, country, family)


_METADATA = ("variety", "country", "family")


def _read_vertical(path: Path, default_variety: str | None) -> _Builder:
    built = _Builder()
    surface, pos, lemma = [], [], []
    meta: dict[str, str | None] = {"variety": default_variety, "country": None, "family": None}
    sentence_start_line = 1

    def flush():
        if not surface:
            return
        key = (meta["variety"], meta["country"], meta["family"])
        try:
            metadata = built.metadata_of[key]
        except _Fault:
            raise CorpusFormatError(
                _sentence_fault(len(surface), *key), sentence_start_line
            ) from None
        built.append(surface[:], pos[:], lemma[:], metadata)
        for pending in (surface, pos, lemma):
            pending.clear()

    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                flush()
                sentence_start_line = line_no + 1
                continue
            if line.startswith("#"):
                flush()
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
            fields[1:] = [value or None for value in fields[1:]]
            try:
                surface.append(built.surface_of[fields[0]])
            except _Fault:
                raise CorpusFormatError(_token_fault(*fields), line_no) from None
            pos.append(built.pos_of[fields[1]])
            lemma.append(built.lemma_of[fields[2]])
        flush()
    return built


# write_jsonl formats and writes this many lines at a time: one write per
# line costs more, one join at the end holds the file
_JSONL_LINES_PER_WRITE = 4096


def write_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Serialize a corpus so that ``ingest`` reproduces it exactly. Each line
    is ``json.dumps(record, ensure_ascii=False)`` of the sentence's record,
    joined from one JSON fragment per vocabulary entry."""
    c = corpus.columns
    surfaces = [encode_basestring(w) for w in c.surface_vocab]
    # the last fragment is id -1's: a missing tag or lemma
    tags = [encode_basestring(t) for t in c.pos_vocab] + ["null"]
    lemmas = [encode_basestring(w) for w in c.lemma_vocab] + ["null"]
    countries, families = c.country_vocab + (None,), FAMILY_LABELS + (None,)
    tails: dict[tuple[int, int, int], str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(corpus), _JSONL_LINES_PER_WRITE):
            rows = slice(start, start + _JSONL_LINES_PER_WRITE)
            ptr = c.ptr[start : start + _JSONL_LINES_PER_WRITE + 1]
            tokens = slice(int(ptr[0]), int(ptr[-1]))
            bounds = (ptr - ptr[0]).tolist()
            pos = c.pos_ids[tokens]
            lemma = np.where(c.lemma_given[tokens], c.lemma_ids[tokens], -1)
            any_pos = np.logical_or.reduceat(pos >= 0, bounds[:-1]).tolist()
            any_lemma = np.logical_or.reduceat(lemma >= 0, bounds[:-1]).tolist()
            surface_ids = c.surface_ids[tokens].tolist()
            pos_ids, lemma_ids = pos.tolist(), lemma.tolist()
            metas = zip(c.variety[rows].tolist(), c.country[rows].tolist(), c.family[rows].tolist())
            lines = []
            # each line's tail closes its last array
            for a, b, has_pos, has_lemma, meta in zip(bounds, bounds[1:], any_pos, any_lemma, metas):
                line = '{"tokens": [' + ", ".join(map(surfaces.__getitem__, surface_ids[a:b]))
                if has_pos:
                    line += '], "pos": [' + ", ".join(map(tags.__getitem__, pos_ids[a:b]))
                if has_lemma:
                    line += '], "lemma": [' + ", ".join(map(lemmas.__getitem__, lemma_ids[a:b]))
                if meta not in tails:
                    values = (VARIETY_LABELS[meta[0]], countries[meta[1]], families[meta[2]])
                    tails[meta] = "]" + "".join(
                        f', "{k}": {encode_basestring(v)}'
                        for k, v in zip(_METADATA, values) if v is not None
                    ) + "}\n"
                lines.append(line + tails[meta])
            fh.write("".join(lines))


# ---------------------------------------------------------------------------
# preparation


def shuffle_rows(rows: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic random permutation of ``rows``: a corpus of the
    sentences at ``rows``, shuffled, holds the sentences at the rows this
    returns."""
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)
    return rows[np.array(order, dtype=np.intp)]


def shuffle(corpus: Corpus, seed: int) -> Corpus:
    """Deterministic random permutation of the corpus sentences."""
    return corpus.take(shuffle_rows(np.arange(len(corpus)), seed))


def chunk(corpus: Corpus, target_size: int = 2000) -> list[Corpus]:
    """Greedy fill: append sentences until the chunk reaches ``target_size``
    tokens, then close it. A trailing chunk strictly below half the target is
    dropped. Sentences are never split. Each chunk is a corpus with the
    provenance of ``corpus``, a view of its rows."""
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    varieties = corpus.varieties()
    if len(varieties) > 1:
        raise ValueError(
            f"chunking requires a single-variety corpus, found {sorted(varieties)}"
        )
    # each chunk's first sentence, then the end of the last one
    bounds = [0]
    pending_tokens = 0
    for end, length in enumerate(np.diff(corpus.columns.ptr).tolist(), start=1):
        pending_tokens += length
        if pending_tokens >= target_size:
            bounds.append(end)
            pending_tokens = 0
    if pending_tokens >= 0.5 * target_size:
        bounds.append(len(corpus))
    return [corpus.take(slice(a, b)) for a, b in zip(bounds, bounds[1:])]


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
    keep = np.zeros(len(corpus), dtype=bool)
    keep[matching_rows(corpus, variety, country, family)] = True
    return corpus.take(keep)


def matching_rows(
    corpus: Corpus,
    variety: str | None = None,
    country: str | None = None,
    family: str | None = None,
) -> np.ndarray:
    """The rows, in order, of the sentences matching every given field."""
    c = corpus.columns
    keep = np.ones(len(corpus), dtype=bool)
    for codes, labels, wanted in (
        (c.variety, VARIETY_LABELS, variety),
        (c.country, c.country_vocab, country),
        (c.family, FAMILY_LABELS, family),
    ):
        if wanted is not None:
            # -2 is no code, so a value that never occurs keeps nothing
            keep &= codes == (labels.index(wanted) if wanted in labels else -2)
    return np.flatnonzero(keep)


def _merged(vocabs: list[tuple[str, ...]]) -> tuple[tuple[str, ...], list[np.ndarray | None]]:
    """One sorted vocabulary holding all of ``vocabs``, and per vocabulary
    the int32 array that maps its ids into it (its last entry maps -1 to -1),
    or None where all of them are one vocabulary."""
    distinct = {id(vocab): vocab for vocab in vocabs}
    if len(distinct) == 1:
        return vocabs[0], [None] * len(vocabs)
    merged = tuple(sorted(set().union(*distinct.values())))
    index = {value: i for i, value in enumerate(merged)}
    codes = {
        key: np.array([index[value] for value in vocab] + [-1], dtype=np.int32)
        for key, vocab in distinct.items()
    }
    return merged, [codes[id(vocab)] for vocab in vocabs]


def concat(corpora: Iterable[Corpus], provenance: str = "") -> Corpus:
    """The sentences of ``corpora`` laid end to end. Corpora cut from one
    corpus keep its vocabularies; different vocabularies are merged."""
    parts = [corpus.columns for corpus in corpora]
    if not parts:
        return Corpus((), provenance)
    fields = {}
    for ids, vocab in (
        ("surface_ids", "surface_vocab"),
        ("pos_ids", "pos_vocab"),
        ("lemma_ids", "lemma_vocab"),
        ("country", "country_vocab"),
    ):
        fields[vocab], codes = _merged([getattr(part, vocab) for part in parts])
        fields[ids] = np.concatenate(
            [
                getattr(part, ids) if code is None else code[getattr(part, ids)]
                for part, code in zip(parts, codes)
            ]
        )
    for name in ("lemma_given", "variety", "family"):
        fields[name] = np.concatenate([getattr(part, name) for part in parts])
    ends = np.cumsum([int(part.ptr[-1]) for part in parts])
    fields["ptr"] = np.concatenate(
        [[0]] + [part.ptr[1:] + end - part.ptr[-1] for part, end in zip(parts, ends)]
    )
    return Corpus._of(Columns(**fields), provenance)
