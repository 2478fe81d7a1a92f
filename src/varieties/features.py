"""Sparse feature extraction over chunks: four families and combinations.

Families:
  FW      function-word frequencies
  POS3    POS-tag trigrams (within sentences, no padding)
  POSTOK  words in the first/second/third/penultimate/last sentence positions
  COH     cohesive-marker frequencies

All values are raw counts divided by the chunk token count. Data-dependent
vocabularies (top-k trigrams, positional pairs) are selected on training
chunks only and carried around as FeatureSpace objects; vectorization is a
pure function of chunk + spaces.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Chunk
from .lexicons import PhraseEntry, PhraseList, Resources, WordList, match_phrases

FW = "FW"
POS3 = "POS3"
POSTOK = "POSTOK"
COH = "COH"
FAMILIES = (FW, POS3, POSTOK, COH)

_POSITIONS = ("first", "second", "third", "penultimate", "last")


class FeatureId(NamedTuple):
    family: str
    key: str

    def __str__(self) -> str:
        return f"{self.family}:{self.key}"


@dataclass(frozen=True)
class FeatureVector:
    """Sparse map from feature id to per-token frequency."""

    values: Mapping[FeatureId, float]
    chunk_token_count: int

    def __len__(self) -> int:
        return len(self.values)

    def get(self, fid: FeatureId) -> float:
        return self.values.get(fid, 0.0)


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered admissible keys for one family (the model's dimensions)."""

    family: str
    keys: tuple[str, ...]
    provenance: str = ""

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


def _fw_counts(chunk: Chunk, words: frozenset[str] | WordList) -> Counter:
    vocab = words.entries if isinstance(words, WordList) else words
    counts: Counter = Counter()
    for tok in chunk.tokens():
        if tok.surface in vocab:
            counts[tok.surface] += 1
    return counts


def _pos3_counts(chunk: Chunk) -> Counter:
    counts: Counter = Counter()
    for sent in chunk.sentences:
        tags = []
        for i, tok in enumerate(sent.tokens):
            if tok.pos is None:
                raise ValueError(
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


def _normalize(counts: Counter, family: str, token_count: int) -> FeatureVector:
    values = {
        FeatureId(family, key): count / token_count for key, count in counts.items()
    }
    return FeatureVector(values=values, chunk_token_count=token_count)


# ---------------------------------------------------------------------------
# per-family extraction (spec surface)


def extract_fw(chunk: Chunk, fw: WordList) -> FeatureVector:
    if chunk.token_count == 0:
        raise ValueError("cannot extract features from an empty chunk")
    return _normalize(_fw_counts(chunk, fw), FW, chunk.token_count)


def extract_pos3(chunk: Chunk) -> FeatureVector:
    return _normalize(_pos3_counts(chunk), POS3, chunk.token_count)


def extract_postok(chunk: Chunk, vocab: FeatureSpace) -> FeatureVector:
    admissible = set(vocab.keys)
    counts = Counter(
        {k: v for k, v in _postok_counts(chunk).items() if k in admissible}
    )
    return _normalize(counts, POSTOK, chunk.token_count)


def extract_coh(chunk: Chunk, markers: PhraseList) -> FeatureVector:
    return _normalize(_coh_counts(chunk, markers), COH, chunk.token_count)


# ---------------------------------------------------------------------------
# space selection on training chunks


def select_top_pos3(train_chunks: Iterable[Chunk], k: int = 3000) -> FeatureSpace:
    """Top-k most frequent POS trigrams; ties broken lexicographically."""
    totals: Counter = Counter()
    for chunk in train_chunks:
        totals.update(_pos3_counts(chunk))
    ordered = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return FeatureSpace(
        family=POS3,
        keys=tuple(key for key, _ in ordered),
        provenance=f"top-{k} POS trigrams over {len(totals)} observed",
    )


def select_postok_vocab(
    train_chunks: Iterable[Chunk], min_count: int = 5
) -> FeatureSpace:
    totals: Counter = Counter()
    for chunk in train_chunks:
        totals.update(_postok_counts(chunk))
    keys = tuple(sorted(k for k, c in totals.items() if c >= min_count))
    return FeatureSpace(
        family=POSTOK,
        keys=keys,
        provenance=f"positional pairs with count >= {min_count}",
    )


def fw_space(words: WordList) -> FeatureSpace:
    return FeatureSpace(
        family=FW, keys=tuple(words.sorted_entries()), provenance=words.name
    )


def coh_space(markers: PhraseList) -> FeatureSpace:
    return FeatureSpace(
        family=COH,
        keys=tuple(e.text for e in markers.entries),
        provenance=markers.name,
    )


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

    def fit(self, train_chunks: Sequence[Chunk]) -> list[FeatureSpace]:
        spaces = []
        for family in self.families:
            if family == FW:
                spaces.append(fw_space(self.resources.function_words))
            elif family == POS3:
                spaces.append(select_top_pos3(train_chunks, self.top_pos3))
            elif family == POSTOK:
                spaces.append(select_postok_vocab(train_chunks, self.postok_min_count))
            elif family == COH:
                spaces.append(coh_space(self.resources.cohesive_markers))
        return spaces


# ---------------------------------------------------------------------------
# vectorization


def _counts_for_space(chunk: Chunk, space: FeatureSpace) -> Counter:
    if space.family == FW:
        return _fw_counts(chunk, frozenset(space.keys))
    if space.family == POS3:
        return _pos3_counts(chunk)
    if space.family == POSTOK:
        return _postok_counts(chunk)
    if space.family == COH:
        return _coh_counts(chunk, space.phrases)
    raise ValueError(f"unknown feature family {space.family!r}")


def vectorize(chunk: Chunk, spaces: Sequence[FeatureSpace]) -> np.ndarray:
    """Dense vector: concatenation of the spaces in order, zeros for unseen."""
    parts = []
    for space in spaces:
        counts = _counts_for_space(chunk, space)
        vec = np.zeros(len(space.keys))
        index = space.key_index
        for key, count in counts.items():
            idx = index.get(key)
            if idx is not None:
                vec[idx] = count / chunk.token_count
        parts.append(vec)
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def vectorize_chunks(chunks: Sequence[Chunk], spaces: Sequence[FeatureSpace]) -> np.ndarray:
    if not chunks:
        return np.zeros((0, sum(len(s) for s in spaces)))
    return np.vstack([vectorize(chunk, spaces) for chunk in chunks])


def space_feature_names(spaces: Sequence[FeatureSpace]) -> list[str]:
    names: list[str] = []
    for space in spaces:
        names.extend(space.feature_names())
    return names


# ---------------------------------------------------------------------------
# matrix export


def write_sparse_csv(
    path: str | Path,
    chunk_ids: Sequence[str],
    spaces: Sequence[FeatureSpace],
    matrix: np.ndarray,
) -> None:
    """Nonzero entries as ``chunk_id, feature, value`` triplets."""
    names = space_feature_names(spaces)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chunk_id", "feature", "value"])
        for row_idx, chunk_id in enumerate(chunk_ids):
            row = matrix[row_idx]
            for col in np.nonzero(row)[0]:
                writer.writerow([chunk_id, names[col], repr(float(row[col]))])


def write_dense_csv(
    path: str | Path,
    chunk_ids: Sequence[str],
    spaces: Sequence[FeatureSpace],
    matrix: np.ndarray,
) -> None:
    names = space_feature_names(spaces)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chunk_id"] + names)
        for row_idx, chunk_id in enumerate(chunk_ids):
            writer.writerow([chunk_id] + [repr(float(v)) for v in matrix[row_idx]])
