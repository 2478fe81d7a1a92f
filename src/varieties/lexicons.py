"""Word-list resources and phrase matching.

Every feature family and metric is parameterized by plain-text resource
files (function words, cohesive markers, idiomatic expressions, a ranked
word-frequency list and the closed POS tagset), wired together through a
small JSON manifest so lists can be swapped without code changes. The
package ships best-effort default lists under ``varieties/resources``.

``match_phrases`` is the one phrase matcher. It takes many sentences at once
as word ids into a vocabulary (the layout of ``Corpus.columns``) and finds
every sentence's greedy longest-first matches with array operations: per
phrase length n, each position whose first n words spell a phrase prefix is
looked up among the list's exact n-word prefix keys, so the longest phrase
starting at each position is known before one left-to-right pass over those
candidates drops the ones that overlap an earlier match.

``prefix_keys`` and ``lookup`` build and search those packed prefix keys.
``poslm`` stores its n-gram levels as the same keys.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources as importlib_resources
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ResourceError, undecodable_line

SENTENCE_TRANSITION = "sentence_transition"


@dataclass(frozen=True)
class WordList:
    name: str
    entries: frozenset[str]

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)


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
    def _index(self) -> tuple[dict[str, int], list[tuple[np.ndarray, np.ndarray]]]:
        """Each of the phrases' distinct words -> its index in sorted order,
        and per phrase length n = 1, 2, ...: the ``prefix_keys`` of the
        distinct n-word phrase prefixes over those indices, and the index in
        ``entries`` of the phrase each key spells in full (the first in list
        order among entries with equal tokens), -1 if none. Built once per
        list for ``match_phrases``."""
        words = sorted({word for entry in self.entries for word in entry.tokens})
        code = {word: i for i, word in enumerate(words)}
        rows = [[code[word] for word in entry.tokens] for entry in self.entries]
        keys, index = prefix_keys(rows, len(words), max(map(len, rows), default=0))
        spelled = [np.full(len(level), -1, dtype=np.int64) for level in keys]
        # last to first, so the first in list order wins
        for entry in reversed(range(len(rows))):
            if rows[entry]:
                spelled[len(rows[entry]) - 1][index[entry]] = entry
        return code, list(zip(keys, spelled))


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
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                yield line_no, line
    except UnicodeDecodeError:
        raise ResourceError(f"{path}:{undecodable_line(path)}: not UTF-8 text") from None
    except OSError as exc:
        raise ResourceError(f"{path}: cannot read: {exc.strerror}") from None


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


def prefix_keys(
    rows: Sequence[Sequence[int]], size: int, width: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per length n = 1 .. width, the sorted distinct keys of the n-id
    prefixes of ``rows`` (ids in ``range(size)``, at most ``width`` per row),
    and each row's index among the keys of its length (0 if it is empty). A
    key is p * size + the n-th id, p being the index of the first n - 1 ids
    among the keys of length n - 1 (0 at n = 1): keys sort like the id
    prefixes they spell and stay below len(rows) * size at any length."""
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    index = np.zeros(len(rows), dtype=np.int64)
    keys = []
    for n in range(1, width + 1):
        longer = np.flatnonzero(lengths >= n)
        last = np.array([rows[i][n - 1] for i in longer.tolist()], dtype=np.int64)
        level, index[longer] = np.unique(index[longer] * size + last, return_inverse=True)
        keys.append(level)
    return keys, index


def lookup(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of each query in the sorted ``keys``, -1 where it is absent."""
    if not len(keys):
        return np.full(len(query), -1, dtype=np.int64)
    found = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[found] == query, found, -1)


def match_phrases(
    ids: np.ndarray, ptr: np.ndarray, vocab: Sequence[str], phrases: PhraseList
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Case-insensitive exact token-sequence matches in many sentences,
    greedy longest-first: sentence s is the words ``vocab[ids[i]]`` for i in
    ``ptr[s]:ptr[s + 1]``.

    Scanning a sentence left to right, at each position the longest phrase
    that matches there wins, and scanning resumes past it, so matches never
    overlap and never span two sentences. Among entries with equal tokens
    the first in list order wins. Returns the matches in sentence and
    position order as three int arrays: each match's sentence, its entry's
    index in ``phrases.entries`` and its start within the sentence.
    """
    ptr = np.asarray(ptr)
    code, levels = phrases._index
    word_of = np.array([code.get(w.lower(), -1) for w in vocab], dtype=np.int32)
    word = word_of[ids]
    # candidate starts (positions holding a phrase's first word, a key of
    # length 1), the end of each one's sentence, and the entry and length of
    # the longest phrase there
    first_words = levels[0][0] if levels else []
    start = np.flatnonzero(np.isin(word_of, first_words)[ids])
    end = ptr[np.searchsorted(ptr, start, side="right")]
    entry = np.full(len(start), -1)
    length = np.zeros(len(start), dtype=np.int64)
    # the candidates whose first n words spell a phrase prefix, and that
    # prefix's index among the keys of length n
    alive = np.arange(len(start))
    prefix = np.zeros(len(start), dtype=np.int64)
    for n, (keys, spelled) in enumerate(levels, start=1):
        last = start[alive] + n - 1
        inside = last < end[alive]
        alive, prefix, last = alive[inside], prefix[inside], last[inside]
        found = lookup(keys, prefix * len(code) + word[last])
        # a word outside every phrase is -1, which can spell a real key
        known = (found >= 0) & (word[last] >= 0)
        alive, prefix = alive[known], found[known]
        full = spelled[prefix] >= 0
        entry[alive[full]] = spelled[prefix[full]]
        length[alive[full]] = n
    hits = np.flatnonzero(entry >= 0)
    kept = []
    resume = 0
    for i, at, n in zip(hits.tolist(), start[hits].tolist(), length[hits].tolist()):
        if at >= resume:
            kept.append(i)
            resume = at + n
    at = start[kept]
    sentence = np.searchsorted(ptr, at, side="right") - 1
    return sentence, entry[kept], at - ptr[sentence]


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
    # sha256 of the manifest, keyed by the path it was loaded from, and of
    # each list, keyed by its manifest entry as written
    digests: dict[str, str] = field(default_factory=dict, compare=False)

    def sentence_transitions(self) -> PhraseList:
        return self.cohesive_markers.in_category(SENTENCE_TRANSITION)


def load_resources(manifest_path: str | Path) -> Resources:
    """Load the resource bundle named by a JSON manifest, and hash what it
    loads.

    The manifest maps the five resource names to file paths, resolved
    relative to the manifest's own directory. Other keys are ignored.
    """
    manifest_path = Path(manifest_path)
    try:
        data = manifest_path.read_bytes()
        manifest = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError:
        line = undecodable_line(manifest_path)
        raise ResourceError(f"{manifest_path}:{line}: not UTF-8 text") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ResourceError(f"cannot read manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ResourceError(f"{manifest_path}: manifest must be a JSON object")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ResourceError(f"{manifest_path}: manifest lacks {', '.join(missing)}")
    for key in MANIFEST_KEYS:
        if not isinstance(manifest[key], str):
            raise ResourceError(
                f"{manifest_path}: {key} must be a path string, got {manifest[key]!r}"
            )
    paths = {key: (manifest_path.parent / manifest[key]).resolve() for key in MANIFEST_KEYS}
    loaded = dict(
        function_words=load_word_list(paths["function_words"], "function_words"),
        cohesive_markers=load_phrase_list(paths["cohesive_markers"], "cohesive_markers"),
        idioms=load_phrase_list(paths["idioms"], "idioms"),
        word_ranks=load_rank_list(paths["word_ranks"], "word_ranks"),
        tagset=load_tag_set(paths["tagset"]),
    )
    # hashed once loaded, so an unreadable list is named by its loader
    digests = {str(manifest_path): hashlib.sha256(data).hexdigest()}
    for key in MANIFEST_KEYS:
        digests[manifest[key]] = hashlib.sha256(paths[key].read_bytes()).hexdigest()
    return Resources(**loaded, digests=digests)


def default_manifest_path() -> Path:
    return Path(str(importlib_resources.files("varieties") / "resources" / "manifest.json"))


def default_resources() -> Resources:
    """The best-effort resource lists shipped with the package."""
    return load_resources(default_manifest_path())
