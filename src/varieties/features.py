"""Feature counting over chunks: four families and combinations.

Families:
  FW      function-word frequencies
  POS3    POS-tag trigrams (within sentences, no padding)
  POSTOK  words in the first/second/third/penultimate/last sentence positions
  COH     cohesive-marker frequencies

A chunk is a ``Corpus``. A stage counts each family once over all its
chunks into one ``corpus.KeyCounts`` (ChunkCounts), reading tokens only
through the ``columns`` of the corpora the chunks were cut from: FW keys are
surface ids, POS3 keys three POS ids (each chunk's ``Columns.check_tagged``
raises ``UntaggedTokenError`` on its first untagged token), POSTOK keys a
position and a surface id, and COH keys the markers matched in one
``match_phrases`` call per corpus. Tasks and folds are views that gather
only their rows. Data-dependent vocabularies (top-k trigrams, positional
pairs) are selected from column totals over training rows only and carried
around as FeatureSpace objects; vectorization writes each space's columns,
raw counts divided by the chunk token count.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Columns, Corpus, KeyCounts, gather
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


# ---------------------------------------------------------------------------
# raw counting per family, on the columns of every chunk laid end to end

# each sentence position: its name, its token's offset from the sentence's
# start (>= 0) or end (< 0), and the shortest sentence that has it
_SLOTS = (("first", 0, 1), ("second", 1, 2), ("third", 2, 3),
          ("penultimate", -2, 2), ("last", -1, 1))


def _spelled(packed: np.ndarray, spell) -> tuple[np.ndarray, list[str]]:
    """Each integer key of ``packed`` as an index into the distinct keys,
    and those keys spelled by ``spell``."""
    distinct = np.unique(packed)
    return np.searchsorted(distinct, packed), [spell(k) for k in distinct.tolist()]


class ChunkCounts:
    """A stage's chunks and one table per family, counted over every chunk on
    first use; FW and COH tables are kept per word or phrase list (COH counts
    by longest match). ``take`` gives a view of distinct rows that shares the
    tables; a view iterates its chunks. Chunks cut from one corpus
    (``Corpus.origin``) are counted as row ranges on its columns, and only the
    distinct integer keys are spelled as strings."""

    def __init__(self, chunks: Iterable[Corpus]):
        # per corpus the chunks were cut from: its columns and the chunk of
        # each of its sentences (-1: none); a chunk that overlaps one already
        # placed starts a part of its own. Shared by views, like the tables.
        self._chunks = list(chunks)
        self._parts: list[tuple[Columns, np.ndarray]] = []
        free: dict[int, int] = {}
        for i, c in enumerate(self._chunks):
            columns, first = c.origin
            part = free.get(id(columns))
            if part is None or (self._parts[part][1][first : first + len(c)] >= 0).any():
                part = free[id(columns)] = len(self._parts)
                self._parts.append((columns, np.full(len(columns.ptr) - 1, -1, np.intc)))
            self._parts[part][1][first : first + len(c)] = i
        self._token_counts = np.array([c.token_count for c in self._chunks])
        self._tables: dict[object, KeyCounts] = {}
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

    def _table(self, family: str, keys: tuple[str, ...] = ()) -> KeyCounts:
        """FW and COH tables count ``keys``, POS3 and POSTOK every key."""
        key = family if family in (POS3, POSTOK) else (family, keys)
        if key not in self._tables:
            if family == FW:
                table = self._fw_table(frozenset(keys))
            elif family == POS3:
                table = self._pos3_table()
            elif family == POSTOK:
                table = self._postok_table()
            else:
                table = self._coh_table(keys)
            self._tables[key] = table
        return self._tables[key]

    def _counted(self, count: Callable) -> KeyCounts:
        """One table of ``count``'s (row, key id, keys) on each part's columns
        and chunks, the pairs of sentences in no chunk (row -1) left out."""
        rows, ids, keys = [np.zeros(0, np.intc)], [np.zeros(0, np.intc)], []
        for columns, chunk_of in self._parts:
            row, found, spelled = count(columns, chunk_of)
            kept = row >= 0
            rows.append(row[kept])
            ids.append(found[kept] + len(keys))
            keys += spelled
        # one at a time, so each list's parts go before the next is laid out
        rows = np.concatenate(rows)
        ids = np.concatenate(ids)
        return KeyCounts.from_pairs(rows, ids, keys, len(self._chunks))

    def _fw_table(self, words: frozenset[str]) -> KeyCounts:
        def count(columns, chunk_of):
            vocab = columns.surface_vocab
            wanted = np.fromiter((w in words for w in vocab), bool, len(vocab))[columns.surface_ids]
            # per sentence (never empty), its count of wanted tokens
            found = np.add.reduceat(wanted, columns.ptr[:-1], dtype=np.intp)
            return np.repeat(chunk_of, found), columns.surface_ids[wanted], vocab

        return self._counted(count)

    def _pos3_table(self) -> KeyCounts:
        """POS trigrams within sentences. Each chunk is checked in turn: the
        first untagged token raises ``UntaggedTokenError``, its sentence
        counted from its chunk's start."""
        for c in self._chunks:
            c.columns.check_tagged()

        def count(columns, chunk_of):
            tags = columns.pos_vocab
            width = len(tags)
            # a key is the three tag ids, in int32 while that holds every key
            pos = columns.pos_ids.astype(np.int32 if width**3 < 2**31 else np.int64, copy=False)
            # a trigram starts at every token but the last two of its sentence
            # (in a one-token sentence, the second-to-last is the previous
            # sentence's last token)
            ends = columns.ptr[1:]
            starts = np.ones(len(pos), dtype=bool)
            starts[ends - 1] = False
            starts[ends[ends >= 2] - 2] = False
            ids, keys = _spelled(
                ((pos[:-2] * width + pos[1:-1]) * width + pos[2:])[starts[:-2]],
                lambda k: f"{tags[k // width // width]}_{tags[k // width % width]}_{tags[k % width]}",
            )
            return np.repeat(chunk_of, np.maximum(np.diff(columns.ptr) - 2, 0)), ids, keys

        return self._counted(count)

    def _postok_table(self) -> KeyCounts:
        """Each sentence's word in every position it has: in a short sentence
        one word may fill several (a one-word sentence's word is both first
        and last), and no sentence has more than five."""

        def count(columns, chunk_of):
            words = columns.surface_vocab
            width = len(words)
            lengths = np.diff(columns.ptr)
            sentences, packed = [], []
            for position, (_name, offset, least) in enumerate(_SLOTS):
                sentence = np.flatnonzero(lengths >= least)
                at = (columns.ptr[sentence] if offset >= 0 else columns.ptr[sentence + 1]) + offset
                sentences.append(sentence)
                packed.append(np.add(columns.surface_ids[at], position * width, dtype=np.int64))
            ids, keys = _spelled(
                np.concatenate(packed), lambda k: f"{_SLOTS[k // width][0]}:{words[k % width]}"
            )
            return chunk_of[np.concatenate(sentences)], ids, keys

        return self._counted(count)

    def _coh_table(self, keys: tuple[str, ...]) -> KeyCounts:
        """Each chunk's matches of the markers ``keys``, one match per part."""
        markers = PhraseList("coh-space", tuple(PhraseEntry(tuple(k.split())) for k in keys))
        # a key spaced otherwise than its text stays unmatched
        texts = [e.text for e in markers]

        def count(columns, chunk_of):
            sentence, entry, _start = match_phrases(
                columns.surface_ids, columns.ptr, columns.surface_vocab, markers
            )
            return chunk_of[sentence], entry, texts

        return self._counted(count)

    def totals(self, family: str) -> tuple[list[str], np.ndarray]:
        """The POS3 or POSTOK table's keys and their totals over this view."""
        table = self._table(family)
        _lengths, at = gather(table.ptr, self.rows)
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
    return FeatureSpace(family=FW, keys=tuple(sorted(words.entries)))


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
        table = counts._table(space.family, space.keys)
        lengths, at = gather(table.ptr, counts.rows)
        # each table column's position in the space, -1 if the space lacks it
        found = np.fromiter((table.column.get(k, -1) for k in space.keys), np.intp, len(space))
        where = np.full(len(table.keys), -1)
        where[found[found >= 0]] = np.flatnonzero(found >= 0)
        col = where[table.col[at]]
        kept = col >= 0
        row = np.repeat(np.arange(len(counts)), lengths)[kept]
        X[row, offset + col[kept]] = table.count[at[kept]] / tokens[row]
        offset += len(space)
    return X


def space_feature_names(spaces: Sequence[FeatureSpace]) -> list[str]:
    return [f"{space.family}:{key}" for space in spaces for key in space.keys]
