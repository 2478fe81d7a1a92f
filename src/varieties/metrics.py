"""The five variety metrics and total-sum normalization.

Each metric maps a corpus to a nonnegative scalar:

  TTR                 distinct lemmas / tokens (lexical richness)
  MEAN_WORD_RANK      mean frequency rank of non-function-word tokens
  COLLOCATION_TYPES   number of distinct idiomatic expressions present
  TRANSITIONS         sentence-transition markers per token
  PRONOUNS            PRP / PRP$ tokens per token

Every metric is an aggregate of per-sentence quantities: pronoun, transition
and rank counts are sums over sentences, TTR and collocation types count the
distinct lemmas or idioms of the sentences. ``SentenceStats`` counts them
once per corpus and evaluates all five metrics on any sample of its
sentences; the metrics stage computes the observed values and every
bootstrap resample that way. The five corpus functions (``ttr`` ...
``pronouns``) read the same counting helpers and give one metric of one
corpus, for ``bootstrap.test_d_total``/``test_d_dif`` and library use.

Metric triples over (N, T, NN) corpora are compared after dividing each
value by the triple's sum, which makes them scale-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, Token
from .lexicons import PhraseList, RankList, Resources, WordList, match_phrases

TTR = "TTR"
MEAN_WORD_RANK = "MEAN_WORD_RANK"
COLLOCATION_TYPES = "COLLOCATION_TYPES"
TRANSITIONS = "TRANSITIONS"
PRONOUNS = "PRONOUNS"
METRIC_NAMES = (TTR, MEAN_WORD_RANK, COLLOCATION_TYPES, TRANSITIONS, PRONOUNS)

_PRONOUN_TAGS = frozenset({"PRP", "PRP$"})
# the equal-size guard's bound on pairwise token-count differences
_SIZE_TOLERANCE = 0.01


@dataclass(frozen=True)
class MetricValue:
    metric: str
    raw: float
    basis: int  # token count the value was computed over

    def __post_init__(self):
        if self.raw < 0:
            raise ValueError("metric values are nonnegative")
        if self.basis <= 0:
            raise ValueError("metric basis must be positive")


@dataclass(frozen=True)
class MetricTriple:
    metric: str
    raw_n: float
    raw_t: float
    raw_nn: float
    norm_n: float
    norm_t: float
    norm_nn: float


@dataclass(frozen=True)
class SizeCheck:
    ok: bool
    message: str
    offenders: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# counting: the one counting path behind each metric, read by the corpus
# functions (over a corpus's whole token stream) and by SentenceStats (per
# sentence)


def _lemmas(tokens: Iterable[Token]) -> set[str]:
    """Distinct lemmas; lemma falls back to the surface."""
    return {tok.lemma_or_surface for tok in tokens}


def _rank_counts(
    tokens: Iterable[Token], ranks: RankList, fw: WordList
) -> tuple[int, int]:
    """(rank sum, ranked-token count) over tokens that are neither function
    words nor missing from the rank list."""
    total = 0
    included = 0
    for tok in tokens:
        if tok.surface in fw:
            continue
        rank = ranks.rank(tok.surface)
        if rank is None:
            continue
        total += rank
        included += 1
    return total, included


def _matched_texts(surfaces: list[str], phrases: PhraseList) -> list[str]:
    """Texts of a sentence's phrase matches, in order (phrases never span
    sentences)."""
    return [entry.text for entry, _ in match_phrases(surfaces, phrases)]


def _pronoun_count(tokens: Iterable[Token]) -> int:
    hits = 0
    for tok in tokens:
        if tok.pos is None:
            raise ValueError(f"token {tok.surface!r} is missing its POS tag")
        if tok.pos in _PRONOUN_TAGS:
            hits += 1
    return hits


def _check_markers(markers: PhraseList) -> None:
    if len(markers) == 0:
        raise ValueError("empty transition-marker list")


# ---------------------------------------------------------------------------
# metric values from aggregated counts, with each metric's checks


def _ttr_value(distinct: int, tokens: int) -> MetricValue:
    if tokens == 0:
        raise ValueError("cannot compute TTR of an empty corpus")
    return MetricValue(metric=TTR, raw=distinct / tokens, basis=tokens)


def _rank_value(total: int, included: int) -> MetricValue:
    if included == 0:
        raise ValueError("no token is covered by the rank list")
    return MetricValue(metric=MEAN_WORD_RANK, raw=total / included, basis=included)


def _collocation_value(types: int, tokens: int) -> MetricValue:
    if tokens == 0:
        raise ValueError("cannot scan an empty corpus for idioms")
    return MetricValue(metric=COLLOCATION_TYPES, raw=float(types), basis=tokens)


def _transition_value(hits: int, tokens: int) -> MetricValue:
    if tokens == 0:
        raise ValueError("cannot scan an empty corpus for transitions")
    return MetricValue(metric=TRANSITIONS, raw=hits / tokens, basis=tokens)


def _pronoun_value(hits: int, tokens: int) -> MetricValue:
    if tokens == 0:
        raise ValueError("cannot compute pronoun frequency of an empty corpus")
    return MetricValue(metric=PRONOUNS, raw=hits / tokens, basis=tokens)


# ---------------------------------------------------------------------------
# the metrics of one corpus


def ttr(corpus: Corpus) -> MetricValue:
    """Distinct (lemmatized) tokens over total tokens; lemma falls back to
    the lowercased surface."""
    return _ttr_value(len(_lemmas(corpus.tokens())), corpus.token_count)


def mean_word_rank(corpus: Corpus, ranks: RankList, fw: WordList) -> MetricValue:
    """Mean frequency rank over tokens that are neither function words nor
    missing from the rank list; excluded tokens leave both numerator and
    denominator."""
    return _rank_value(*_rank_counts(corpus.tokens(), ranks, fw))


def collocation_types(corpus: Corpus, idioms: PhraseList) -> MetricValue:
    """Number of distinct idiom types with at least one match."""
    types = {
        text for sent in corpus.sentences for text in _matched_texts(sent.surfaces(), idioms)
    }
    return _collocation_value(len(types), corpus.token_count)


def transitions(corpus: Corpus, markers: PhraseList) -> MetricValue:
    """Sentence-transition matches per token."""
    _check_markers(markers)
    hits = sum(len(_matched_texts(sent.surfaces(), markers)) for sent in corpus.sentences)
    return _transition_value(hits, corpus.token_count)


def pronouns(corpus: Corpus) -> MetricValue:
    """Personal + possessive pronouns (PRP, PRP$) per token; requires POS
    tags on every token."""
    return _pronoun_value(_pronoun_count(corpus.tokens()), corpus.token_count)


# ---------------------------------------------------------------------------
# the metrics of sentence samples


@dataclass(frozen=True)
class _IdSets:
    """One set of strings per sentence, as ids into ``vocab`` in CSR form:
    sentence i holds ``ids[ptr[i]:ptr[i + 1]]``."""

    vocab: tuple[str, ...]
    ptr: np.ndarray
    ids: np.ndarray

    @classmethod
    def of(cls, sets: Iterable[set[str]]) -> "_IdSets":
        index: dict[str, int] = {}
        ptr = [0]
        ids: list[int] = []
        for texts in sets:
            ids.extend(index.setdefault(text, len(index)) for text in sorted(texts))
            ptr.append(len(ids))
        return cls(
            vocab=tuple(index),
            ptr=np.array(ptr, dtype=np.int64),
            ids=np.array(ids, dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts: Sequence["_IdSets"]) -> "_IdSets":
        index: dict[str, int] = {}
        ids = []
        ptr = [np.zeros(1, dtype=np.int64)]
        for part in parts:
            remap = np.array(
                [index.setdefault(text, len(index)) for text in part.vocab],
                dtype=np.int64,
            )
            ids.append(remap[part.ids])
            ptr.append(part.ptr[1:] + ptr[-1][-1])
        return cls(vocab=tuple(index), ptr=np.concatenate(ptr), ids=np.concatenate(ids))

    def distinct(self, rows: np.ndarray) -> int:
        """Number of distinct strings over the sentences ``rows`` (pass
        each row once: repeats only add work)."""
        starts = self.ptr[rows]
        lengths = self.ptr[rows + 1] - starts
        ends = np.cumsum(lengths)
        # position of every id of the selected sentences, row after row
        positions = np.repeat(starts - ends + lengths, lengths) + np.arange(
            int(lengths.sum())
        )
        return int(np.count_nonzero(np.bincount(self.ids[positions])))


# the integer counts of SentenceStats, one int64 array each
_COUNTS = ("tokens", "pronouns", "rank_sum", "ranked", "transitions")


@dataclass(frozen=True)
class SentenceStats:
    """Per-sentence quantities behind the five metrics, counted once per
    corpus.

    Every metric is an exact integer aggregate of them, so ``values`` gives
    the metrics of any sample of sentences (given as indices, repeats
    allowed) without building the sampled corpus: sums of gathered counts,
    and distinct lemma / idiom counts over the distinct sentences drawn.
    """

    tokens: np.ndarray
    pronouns: np.ndarray
    rank_sum: np.ndarray
    ranked: np.ndarray
    transitions: np.ndarray
    lemmas: _IdSets
    idioms: _IdSets

    @classmethod
    def of(cls, corpus: Corpus, resources: Resources) -> "SentenceStats":
        """Count every sentence of ``corpus``; raises on the first token
        that lacks a POS tag, as ``pronouns`` does."""
        markers = resources.sentence_transitions()
        _check_markers(markers)
        counts: dict[str, list[int]] = {name: [] for name in _COUNTS}
        lemmas = []
        idioms = []
        for sent in corpus.sentences:
            surfaces = sent.surfaces()
            rank_sum, ranked = _rank_counts(
                sent.tokens, resources.word_ranks, resources.function_words
            )
            counts["tokens"].append(sent.token_count)
            counts["pronouns"].append(_pronoun_count(sent.tokens))
            counts["rank_sum"].append(rank_sum)
            counts["ranked"].append(ranked)
            counts["transitions"].append(len(_matched_texts(surfaces, markers)))
            lemmas.append(_lemmas(sent.tokens))
            idioms.append(set(_matched_texts(surfaces, resources.idioms)))
        return cls(
            **{name: np.array(values, dtype=np.int64) for name, values in counts.items()},
            lemmas=_IdSets.of(lemmas),
            idioms=_IdSets.of(idioms),
        )

    @classmethod
    def concat(cls, parts: Sequence["SentenceStats"]) -> "SentenceStats":
        """The statistics of the concatenated corpora, from those of the
        parts (counted with the same resources)."""
        return cls(
            **{name: np.concatenate([getattr(p, name) for p in parts]) for name in _COUNTS},
            lemmas=_IdSets.concat([p.lemmas for p in parts]),
            idioms=_IdSets.concat([p.idioms for p in parts]),
        )

    def __len__(self) -> int:
        return len(self.tokens)

    def values(self, indices: np.ndarray) -> tuple[float, ...]:
        """The raw metrics, in ``METRIC_NAMES`` order, of the sample made of
        the sentences at ``indices``; equal to the metric functions on that
        sample's corpus."""
        tokens = int(self.tokens[indices].sum())
        rows = np.unique(indices)
        return (
            _ttr_value(self.lemmas.distinct(rows), tokens).raw,
            _rank_value(
                int(self.rank_sum[indices].sum()), int(self.ranked[indices].sum())
            ).raw,
            _collocation_value(self.idioms.distinct(rows), tokens).raw,
            _transition_value(int(self.transitions[indices].sum()), tokens).raw,
            _pronoun_value(int(self.pronouns[indices].sum()), tokens).raw,
        )


def check_sizes(corpus_n: Corpus, corpus_nn: Corpus, corpus_t: Corpus) -> SizeCheck:
    """Equal-size guard: pairwise token counts must agree within
    ``_SIZE_TOLERANCE`` (relative to the larger of each pair)."""
    sizes = {
        "N": corpus_n.token_count,
        "NN": corpus_nn.token_count,
        "T": corpus_t.token_count,
    }
    empty = tuple(name for name, size in sizes.items() if size == 0)
    if empty:
        return SizeCheck(
            ok=False,
            message=f"empty corpus: {', '.join(empty)}",
            offenders=empty,
        )
    names = sorted(sizes)
    offenders = set()
    for a_idx in range(len(names)):
        for b_idx in range(a_idx + 1, len(names)):
            a, b = names[a_idx], names[b_idx]
            if abs(sizes[a] - sizes[b]) > _SIZE_TOLERANCE * max(sizes[a], sizes[b]):
                # blame the one farther from the median size
                median = sorted(sizes.values())[1]
                offenders.add(max((a, b), key=lambda l: abs(sizes[l] - median)))
    if offenders:
        detail = ", ".join(f"{l}={sizes[l]}" for l in names)
        return SizeCheck(
            ok=False,
            message=f"token counts differ by more than {_SIZE_TOLERANCE:.0%}: {detail} "
            f"(offending: {', '.join(sorted(offenders))})",
            offenders=tuple(sorted(offenders)),
        )
    return SizeCheck(ok=True, message="token counts agree within tolerance")


def normalize_triple(
    metric: str, raw_n: float, raw_t: float, raw_nn: float
) -> MetricTriple:
    """Total-sum normalization of a metric triple; values then sum to 1."""
    total = raw_n + raw_t + raw_nn
    if total <= 0:
        raise ValueError("cannot normalize an all-zero metric triple")
    return MetricTriple(
        metric=metric,
        raw_n=raw_n,
        raw_t=raw_t,
        raw_nn=raw_nn,
        norm_n=raw_n / total,
        norm_t=raw_t / total,
        norm_nn=raw_nn / total,
    )
