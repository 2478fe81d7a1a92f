"""Feature counting over chunks: four families and combinations.

Families:
  FW      function-word frequencies
  POS3    POS-tag trigrams (within sentences, no padding)
  POSTOK  words in the first/second/third/penultimate/last sentence positions
  COH     cohesive-marker frequencies

Each chunk's raw counts are kept in one ChunkCounts record, each family
counted on first use, so a stage counts every chunk once however many folds,
feature rows and tasks read it. Data-dependent vocabularies (top-k trigrams,
positional pairs) are selected on training chunks only and carried around as
FeatureSpace objects; vectorization reads the records through the spaces and
divides raw counts by the chunk token count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .corpus import Chunk
from .errors import UntaggedTokenError
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
    def key_index(self) -> dict[str, int]:
        return {key: i for i, key in enumerate(self.keys)}

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
# raw counting per family


def _fw_counts(chunk: Chunk) -> Counter:
    """Every surface, so that any FW space reads its own words."""
    return Counter(tok.surface for tok in chunk.tokens())


def _pos3_counts(chunk: Chunk) -> Counter:
    counts: Counter = Counter()
    for sent in chunk.sentences:
        tags = []
        for i, tok in enumerate(sent.tokens):
            if tok.pos is None:
                raise UntaggedTokenError(
                    f"POS trigrams need tags on every token; token {i} "
                    f"({tok.surface!r}) is untagged"
                )
            tags.append(tok.pos)
        for i in range(len(tags) - 2):
            counts["_".join(tags[i : i + 3])] += 1
    return counts


def position_events(surfaces: Sequence[str]) -> list[tuple[str, str]]:
    """(position, word) events for one sentence.

    Only positions that exist are emitted; in short sentences one token may
    fill several positions and each is emitted (a one-word sentence yields
    its word as both first and last).
    """
    n = len(surfaces)
    if n == 0:
        return []
    events = [("first", surfaces[0])]
    if n >= 2:
        events.append(("second", surfaces[1]))
    if n >= 3:
        events.append(("third", surfaces[2]))
    if n >= 2:
        events.append(("penultimate", surfaces[n - 2]))
    events.append(("last", surfaces[n - 1]))
    return events


def _postok_counts(chunk: Chunk) -> Counter:
    counts: Counter = Counter()
    for sent in chunk.sentences:
        for position, word in position_events(sent.surfaces()):
            counts[f"{position}:{word}"] += 1
    return counts


def _coh_counts(chunk: Chunk, markers: PhraseList) -> Counter:
    counts: Counter = Counter()
    for sent in chunk.sentences:
        for entry, _start in match_phrases(sent.surfaces(), markers):
            counts[entry.text] += 1
    return counts


class ChunkCounts:
    """One chunk's raw counts per family, each counted on first use.

    COH counts depend on the phrase list (longest match), so they are kept
    per list, keyed by the COH space's keys.
    """

    def __init__(self, chunk: Chunk):
        self.chunk = chunk
        self.token_count = chunk.token_count
        self._coh: dict[tuple[str, ...], Counter] = {}

    @cached_property
    def fw(self) -> Counter:
        return _fw_counts(self.chunk)

    @cached_property
    def pos3(self) -> Counter:
        return _pos3_counts(self.chunk)

    @cached_property
    def postok(self) -> Counter:
        return _postok_counts(self.chunk)

    def counts(self, space: FeatureSpace) -> Counter:
        """The raw counts that ``space`` reads its keys from."""
        if space.family == FW:
            return self.fw
        if space.family == POS3:
            return self.pos3
        if space.family == POSTOK:
            return self.postok
        coh = self._coh.get(space.keys)
        if coh is None:
            coh = self._coh[space.keys] = _coh_counts(self.chunk, space.phrases)
        return coh


def chunk_counts(chunks: Iterable[Chunk | ChunkCounts]) -> list[ChunkCounts]:
    """Count records for ``chunks``; records pass through unchanged, so
    callers that hold records share their counts."""
    return [c if isinstance(c, ChunkCounts) else ChunkCounts(c) for c in chunks]


# ---------------------------------------------------------------------------
# space selection on training chunks


def select_top_pos3(
    train_chunks: Iterable[Chunk | ChunkCounts], k: int = 3000
) -> FeatureSpace:
    """Top-k most frequent POS trigrams; ties broken lexicographically."""
    totals: Counter = Counter()
    for record in chunk_counts(train_chunks):
        totals.update(record.pos3)
    ordered = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return FeatureSpace(family=POS3, keys=tuple(key for key, _ in ordered))


def select_postok_vocab(
    train_chunks: Iterable[Chunk | ChunkCounts], min_count: int = 5
) -> FeatureSpace:
    totals: Counter = Counter()
    for record in chunk_counts(train_chunks):
        totals.update(record.postok)
    keys = tuple(sorted(k for k, c in totals.items() if c >= min_count))
    return FeatureSpace(family=POSTOK, keys=keys)


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

    def fit(self, train_chunks: Sequence[Chunk | ChunkCounts]) -> list[FeatureSpace]:
        records = chunk_counts(train_chunks)
        spaces = []
        for family in self.families:
            if family == FW:
                spaces.append(fw_space(self.resources.function_words))
            elif family == POS3:
                spaces.append(select_top_pos3(records, self.top_pos3))
            elif family == POSTOK:
                spaces.append(select_postok_vocab(records, self.postok_min_count))
            elif family == COH:
                spaces.append(coh_space(self.resources.cohesive_markers))
        return spaces

    def count(self, records: Sequence[ChunkCounts]) -> None:
        """Count every family of the plan on every record, so that a chunk
        that cannot be counted (an untagged token under POS3) fails the plan
        before any fold is trained."""
        for space in self.fit(records):
            for record in records:
                record.counts(space)


# ---------------------------------------------------------------------------
# vectorization


def vectorize_chunks(
    chunks: Sequence[Chunk | ChunkCounts], spaces: Sequence[FeatureSpace]
) -> np.ndarray:
    """Dense matrix, one row per chunk: the spaces' keys in order, each raw
    count divided by the chunk token count, zeros for unseen keys."""
    records = chunk_counts(chunks)
    X = np.zeros((len(records), sum(len(s) for s in spaces)))
    for row, record in zip(X, records):
        offset = 0
        for space in spaces:
            index = space.key_index
            for key, count in record.counts(space).items():
                idx = index.get(key)
                if idx is not None:
                    row[offset + idx] = count / record.token_count
            offset += len(space)
    return X


def space_feature_names(spaces: Sequence[FeatureSpace]) -> list[str]:
    names: list[str] = []
    for space in spaces:
        names.extend(space.feature_names())
    return names
