"""Word-list resources and phrase matching.

Every feature family and metric is parameterized by plain-text resource
files (function words, cohesive markers, idiomatic expressions, a ranked
word-frequency list and the closed POS tagset), wired together through a
small JSON manifest so lists can be swapped without code changes. The
package ships best-effort default lists under ``varieties/resources``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources as importlib_resources
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import ResourceError

SENTENCE_TRANSITION = "sentence_transition"


@dataclass(frozen=True)
class WordList:
    name: str
    entries: frozenset[str]

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def sorted_entries(self) -> list[str]:
        return sorted(self.entries)


@dataclass(frozen=True)
class PhraseEntry:
    tokens: tuple[str, ...]
    category: str | None = None

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class PhraseList:
    name: str
    entries: tuple[PhraseEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[PhraseEntry]:
        return iter(self.entries)

    def in_category(self, category: str) -> "PhraseList":
        kept = tuple(e for e in self.entries if e.category == category)
        return PhraseList(name=f"{self.name}[{category}]", entries=kept)

    @cached_property
    def by_first(self) -> dict[str, tuple[PhraseEntry, ...]]:
        """Entries keyed by their first token, longest first (ties in token
        order), built once per list for ``match_phrases``."""
        grouped: dict[str, list[PhraseEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.tokens[0], []).append(entry)
        return {
            first: tuple(sorted(candidates, key=lambda e: (-len(e.tokens), e.tokens)))
            for first, candidates in grouped.items()
        }


@dataclass(frozen=True)
class RankList:
    """word -> frequency rank, 1 = most frequent."""

    name: str
    ranks: Mapping[str, int]

    def __contains__(self, word: str) -> bool:
        return word in self.ranks

    def __len__(self) -> int:
        return len(self.ranks)

    def rank(self, word: str) -> int | None:
        return self.ranks.get(word)


@dataclass(frozen=True)
class TagSet:
    """Closed POS tag vocabulary; membership is total."""

    tags: frozenset[str]

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags

    def __len__(self) -> int:
        return len(self.tags)


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield line_no, line


def load_word_list(path: str | Path, name: str | None = None) -> WordList:
    path = Path(path)
    entries: set[str] = set()
    for line_no, line in _data_lines(path):
        word = line.strip().lower()
        if len(word.split()) != 1:
            raise ResourceError(f"{path}:{line_no}: expected a single word, got {line!r}")
        if word in entries:
            raise ResourceError(f"{path}:{line_no}: duplicate entry {word!r}")
        entries.add(word)
    if not entries:
        raise ResourceError(f"{path}: empty word list")
    return WordList(name=name or path.stem, entries=frozenset(entries))


def load_phrase_list(path: str | Path, name: str | None = None) -> PhraseList:
    """One phrase per line, with an optional TAB-separated category label."""
    path = Path(path)
    entries: list[PhraseEntry] = []
    seen: set[tuple[str, ...]] = set()
    for line_no, line in _data_lines(path):
        phrase, _, category = line.partition("\t")
        tokens = tuple(phrase.strip().lower().split())
        if not tokens:
            raise ResourceError(f"{path}:{line_no}: empty phrase")
        if tokens in seen:
            raise ResourceError(f"{path}:{line_no}: duplicate phrase {' '.join(tokens)!r}")
        seen.add(tokens)
        entries.append(PhraseEntry(tokens=tokens, category=category.strip() or None))
    if not entries:
        raise ResourceError(f"{path}: empty phrase list")
    return PhraseList(name=name or path.stem, entries=tuple(entries))


def load_rank_list(path: str | Path, name: str | None = None) -> RankList:
    path = Path(path)
    ranks: dict[str, int] = {}
    for line_no, line in _data_lines(path):
        word, sep, rank_text = line.partition("\t")
        word = word.strip().lower()
        if not sep or not word:
            raise ResourceError(f"{path}:{line_no}: expected word<TAB>rank, got {line!r}")
        try:
            rank = int(rank_text.strip())
        except ValueError:
            raise ResourceError(f"{path}:{line_no}: rank is not an integer: {line!r}")
        if rank <= 0:
            raise ResourceError(f"{path}:{line_no}: rank must be positive")
        if word in ranks:
            raise ResourceError(f"{path}:{line_no}: duplicate word {word!r}")
        ranks[word] = rank
    if not ranks:
        raise ResourceError(f"{path}: empty rank list")
    return RankList(name=name or path.stem, ranks=ranks)


def load_tag_set(path: str | Path) -> TagSet:
    path = Path(path)
    tags: set[str] = set()
    for line_no, line in _data_lines(path):
        tag = line.strip()
        if len(tag.split()) != 1:
            raise ResourceError(f"{path}:{line_no}: expected a single tag, got {line!r}")
        if tag in tags:
            raise ResourceError(f"{path}:{line_no}: duplicate tag {tag!r}")
        tags.add(tag)
    if not tags:
        raise ResourceError(f"{path}: empty tagset")
    return TagSet(tags=frozenset(tags))


# ---------------------------------------------------------------------------
# phrase matching


def match_phrases(
    tokens: Sequence[str], phrases: PhraseList
) -> list[tuple[PhraseEntry, int]]:
    """Case-insensitive exact token-sequence matches, greedy longest-first.

    At each position the longest matching phrase wins and scanning resumes
    past it, so reported spans never overlap.
    """
    lowered = [t.lower() for t in tokens]
    by_first = phrases.by_first
    matches: list[tuple[PhraseEntry, int]] = []
    i = 0
    n = len(lowered)
    while i < n:
        hit = None
        for entry in by_first.get(lowered[i], ()):
            width = len(entry.tokens)
            if i + width <= n and tuple(lowered[i : i + width]) == entry.tokens:
                hit = entry
                break
        if hit is None:
            i += 1
        else:
            matches.append((hit, i))
            i += len(hit.tokens)
    return matches


# ---------------------------------------------------------------------------
# resource bundle

MANIFEST_KEYS = ("function_words", "cohesive_markers", "idioms", "word_ranks", "tagset")


@dataclass(frozen=True)
class Resources:
    function_words: WordList
    cohesive_markers: PhraseList
    idioms: PhraseList
    word_ranks: RankList
    tagset: TagSet

    def sentence_transitions(self) -> PhraseList:
        return self.cohesive_markers.in_category(SENTENCE_TRANSITION)


def load_resources(manifest_path: str | Path) -> Resources:
    """Load the resource bundle named by a JSON manifest.

    The manifest maps the five resource names to file paths, resolved
    relative to the manifest's own directory.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ResourceError(f"cannot read manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ResourceError(f"{manifest_path}: manifest must be a JSON object")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ResourceError(f"{manifest_path}: manifest lacks {', '.join(missing)}")

    def resolve(key: str) -> Path:
        return (manifest_path.parent / manifest[key]).resolve()

    return Resources(
        function_words=load_word_list(resolve("function_words"), "function_words"),
        cohesive_markers=load_phrase_list(resolve("cohesive_markers"), "cohesive_markers"),
        idioms=load_phrase_list(resolve("idioms"), "idioms"),
        word_ranks=load_rank_list(resolve("word_ranks"), "word_ranks"),
        tagset=load_tag_set(resolve("tagset")),
    )


def default_manifest_path() -> Path:
    return Path(str(importlib_resources.files("varieties") / "resources" / "manifest.json"))


def default_resources() -> Resources:
    """The best-effort resource lists shipped with the package."""
    return load_resources(default_manifest_path())
