"""Feature counting over chunks: four families and combinations.

Families:
  FW      function-word frequencies
  POS3    POS-tag trigrams (within sentences, no padding)
  POSTOK  words in the first/second/third/penultimate/last sentence positions
  COH     cohesive-marker frequencies

A chunk is a ``Corpus``; the counters read it only through its sentences'
``surfaces()``, the corpus's validated ``tags()``, which raises
``UntaggedTokenError`` on the first untagged token, and, for COH, the
``columns`` of all chunks laid end to end, matched against the markers in one
``match_phrases`` call. A stage counts each family once over all its chunks
into one ``corpus.KeyCounts`` (ChunkCounts); tasks
and folds are views that gather only their rows. Data-dependent vocabularies
(top-k trigrams, positional pairs) are selected from column totals over
training rows only and carried around as FeatureSpace objects; vectorization
writes each space's columns, raw counts divided by the chunk token count.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, KeyCounts, concat
from .lexicons import PhraseEntry, PhraseList, Resources, WordList, match_phrases

FW = "FW"
POS3 = "POS3"
POSTOK = "POSTOK"
COH = "COH"
FAMILIES = (FW, POS3, POSTOK, COH)


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered admissible keys for one family (the model's dimensions)."""

    family: str
    keys: tuple[str, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown feature family {self.family!r}")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError(f"duplicate keys in {self.family} space")

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def phrases(self) -> PhraseList:
        """The keys as one phrase list, built once per space (COH spaces
        match chunks against it)."""
        return PhraseList(
            name="coh-space",
            entries=tuple(PhraseEntry(tokens=tuple(k.split())) for k in self.keys),
        )

    def feature_names(self) -> list[str]:
        return [f"{self.family}:{key}" for key in self.keys]


# ---------------------------------------------------------------------------
# raw counting per family: each helper yields one chunk's keys


def _fw_counts(chunk: Corpus, words: frozenset[str]) -> Iterator[str]:
    for sent in chunk.sentences:
        yield from (w for w in sent.surfaces() if w in words)


def _pos3_counts(chunk: Corpus) -> Iterator[str]:
    for tags in chunk.tags():
        for i in range(len(tags) - 2):
            yield "_".join(tags[i : i + 3])


def position_events(surfaces: Sequence[str]) -> list[tuple[str, str]]:
    """(position, word) events for one sentence.

    Only positions that exist are emitted; in short sentences one token may
    fill several positions and each is emitted (a one-word sentence yields
    its word as both first and last).
    """
    n = len(surfaces)
    # (position, index, shortest sentence that has it)
    slots = [("first", 0, 1), ("second", 1, 2), ("third", 2, 3),
             ("penultimate", n - 2, 2), ("last", n - 1, 1)]
    return [(position, surfaces[i]) for position, i, least in slots if n >= least]


def _postok_counts(chunk: Corpus) -> Iterator[str]:
    for sent in chunk.sentences:
        for position, word in position_events(sent.surfaces()):
            yield f"{position}:{word}"


def _coh_table(chunks: list[Corpus], markers: PhraseList) -> KeyCounts:
    """Each chunk's marker matches, from one match over every chunk's
    sentences."""
    columns = concat(chunks).columns
    sentence, entry, _start = match_phrases(
        columns.surface_ids, columns.ptr, columns.surface_vocab, markers
    )
    chunk_of = np.repeat(np.arange(len(chunks)), [len(c) for c in chunks])
    texts = [e.text for e in markers]
    return KeyCounts.from_pairs(chunk_of[sentence], entry, texts, len(chunks))


class ChunkCounts:
    """A stage's chunks and one table per family, counted over every chunk on
    first use; FW and COH tables are kept per word or phrase list (COH counts
    by longest match). ``take`` gives a view of distinct rows that shares the
    tables; a view iterates its chunks."""

    def __init__(self, chunks: Iterable[Corpus]):
        self._chunks = list(chunks)
        self._token_counts = np.array([c.token_count for c in self._chunks])
        self._tables: dict[object, KeyCounts] = {}
        self._maps: dict[str, tuple[FeatureSpace, np.ndarray]] = {}
        self.rows = np.arange(len(self._chunks))

    @classmethod
    def of(cls, chunks: Chunks) -> ChunkCounts:
        """``chunks`` itself if it is a ChunkCounts, so views share counts."""
        return chunks if isinstance(chunks, ChunkCounts) else cls(chunks)

    def take(self, rows: Sequence[int]) -> ChunkCounts:
        view = copy.copy(self)
        view.rows = self.rows[np.asarray(rows, dtype=np.intp)]
        return view

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return (self._chunks[r] for r in self.rows)

    def _table(self, space: FeatureSpace) -> KeyCounts:
        family = space.family
        key = family if family in (POS3, POSTOK) else (family, space.keys)
        if key not in self._tables:
            if family == COH:
                table = _coh_table(self._chunks, space.phrases)
            elif family == FW:
                words = frozenset(space.keys)
                table = KeyCounts(_fw_counts(c, words) for c in self._chunks)
            else:
                count = _pos3_counts if family == POS3 else _postok_counts
                table = KeyCounts(count(c) for c in self._chunks)
            self._tables[key] = table
        return self._tables[key]

    def totals(self, family: str) -> tuple[list[str], np.ndarray]:
        """The POS3 or POSTOK table's keys and their totals over this view."""
        table = self._table(FeatureSpace(family=family, keys=()))
        _lengths, at = table.gather(self.rows)
        col, count = table.col[at], table.count[at]
        return table.keys, np.bincount(col, weights=count, minlength=len(table.keys))


Chunks = Iterable[Corpus] | ChunkCounts


# ---------------------------------------------------------------------------
# space selection on training chunks


def select_top_pos3(train_chunks: Chunks, k: int = 3000) -> FeatureSpace:
    """Top-k most frequent POS trigrams; ties broken lexicographically."""
    keys, totals = ChunkCounts.of(train_chunks).totals(POS3)
    seen = np.flatnonzero(totals)
    top = seen[np.argsort(-totals[seen], kind="stable")][:k]
    return FeatureSpace(family=POS3, keys=tuple(keys[i] for i in top))


def select_postok_vocab(train_chunks: Chunks, min_count: int = 5) -> FeatureSpace:
    keys, totals = ChunkCounts.of(train_chunks).totals(POSTOK)
    kept = np.flatnonzero(totals >= max(min_count, 1))
    return FeatureSpace(family=POSTOK, keys=tuple(keys[i] for i in kept))


def fw_space(words: WordList) -> FeatureSpace:
    return FeatureSpace(family=FW, keys=tuple(words.sorted_entries()))


def coh_space(markers: PhraseList) -> FeatureSpace:
    return FeatureSpace(family=COH, keys=tuple(e.text for e in markers.entries))


@dataclass(frozen=True)
class FeaturePlan:
    """Which families to use plus the selection parameters behind them.

    ``fit`` builds the concrete FeatureSpaces from training chunks so that
    data-dependent vocabularies never see held-out data.
    """

    families: tuple[str, ...]
    resources: Resources
    top_pos3: int = 3000
    postok_min_count: int = 5

    def __post_init__(self):
        for family in self.families:
            if family not in FAMILIES:
                raise ValueError(f"unknown feature family {family!r}")

    def fit(self, train_chunks: Chunks) -> list[FeatureSpace]:
        counts = ChunkCounts.of(train_chunks)
        spaces = []
        for family in self.families:
            if family == FW:
                spaces.append(fw_space(self.resources.function_words))
            elif family == POS3:
                spaces.append(select_top_pos3(counts, self.top_pos3))
            elif family == POSTOK:
                spaces.append(select_postok_vocab(counts, self.postok_min_count))
            elif family == COH:
                spaces.append(coh_space(self.resources.cohesive_markers))
        return spaces


# ---------------------------------------------------------------------------
# vectorization


def vectorize_chunks(chunks: Chunks, spaces: Sequence[FeatureSpace]) -> np.ndarray:
    """Dense matrix, one row per chunk: the spaces' keys in order, each raw
    count divided by the chunk token count, zeros for unseen keys."""
    counts = ChunkCounts.of(chunks)
    X = np.zeros((len(counts), sum(len(s) for s in spaces)))
    tokens = counts._token_counts[counts.rows]
    offset = 0
    for space in spaces:
        table = counts._table(space)
        lengths, at = table.gather(counts.rows)
        # each table column's position in the space, -1 if the space lacks it;
        # the last map is kept per family, so FW and COH spaces map once a stage
        if counts._maps.get(space.family, (None,))[0] != space:
            found = np.fromiter((table.column.get(k, -1) for k in space.keys), np.intp, len(space))
            where = np.full(len(table.keys), -1)
            where[found[found >= 0]] = np.flatnonzero(found >= 0)
            counts._maps[space.family] = (space, where)
        col = counts._maps[space.family][1][table.col[at]]
        kept = col >= 0
        row = np.repeat(np.arange(len(counts)), lengths)[kept]
        X[row, offset + col[kept]] = table.count[at[kept]] / tokens[row]
        offset += len(space)
    return X


def space_feature_names(spaces: Sequence[FeatureSpace]) -> list[str]:
    return [name for space in spaces for name in space.feature_names()]
