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
once, for N, NN and T laid end to end in one table with one lemma and one
idiom id space; each corpus is a range of its rows. It evaluates all five
metrics on any draw of rows from one multiplicity vector (how often each row
was drawn): exact integer products give the sums, its nonzero rows the
distinct lemmas and idioms. The metrics stage computes the observed values
and every bootstrap resample that way. The five corpus functions (``ttr``
... ``pronouns``) read the same counting helpers and give one metric of one
corpus, for ``bootstrap.test_d_total``/``test_d_dif`` and library use.

Metric triples over (N, T, NN) corpora are compared after dividing each
value by the triple's sum, which makes them scale-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus
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


def _rank_counts(
    surfaces: Iterable[str], ranks: RankList, fw: WordList
) -> tuple[int, int]:
    """(rank sum, ranked-token count) over tokens that are neither function
    words nor missing from the rank list."""
    total = 0
    included = 0
    for surface in surfaces:
        if surface in fw:
            continue
        rank = ranks.rank(surface)
        if rank is None:
            continue
        total += rank
        included += 1
    return total, included


def _matched_texts(surfaces: list[str], phrases: PhraseList) -> tuple[str, ...]:
    """Texts of a sentence's phrase matches, in order (phrases never span
    sentences); a tuple, so the many sentences without a match share the
    one empty tuple."""
    return tuple([entry.text for entry, _ in match_phrases(surfaces, phrases)])


def _pronoun_count(tags: list[str]) -> int:
    return sum(map(_PRONOUN_TAGS.__contains__, tags))


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
    lemmas = {lemma for sent in corpus.sentences for lemma in sent.lemmas()}
    return _ttr_value(len(lemmas), corpus.token_count)


def mean_word_rank(corpus: Corpus, ranks: RankList, fw: WordList) -> MetricValue:
    """Mean frequency rank over tokens that are neither function words nor
    missing from the rank list; excluded tokens leave both numerator and
    denominator."""
    surfaces = (surface for sent in corpus.sentences for surface in sent.surfaces())
    return _rank_value(*_rank_counts(surfaces, ranks, fw))


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
    hits = sum(map(_pronoun_count, corpus.tags()))
    return _pronoun_value(hits, corpus.token_count)


# ---------------------------------------------------------------------------
# the metrics of sentence samples


@dataclass(frozen=True)
class _IdSets:
    """One set of strings per sentence, as ids of one id space in CSR form:
    sentence i holds ``ids[ptr[i]:ptr[i + 1]]``."""

    ptr: np.ndarray
    ids: np.ndarray

    @classmethod
    def of(cls, sets: Iterable[Iterable[str]]) -> "_IdSets":
        """Intern ``sets`` one sentence at a time, as they are produced."""
        index: dict[str, int] = {}
        ptr = [0]
        ids: list[int] = []
        for texts in sets:
            ids.extend(index.setdefault(text, len(index)) for text in dict.fromkeys(texts))
            ptr.append(len(ids))
        return cls(ptr=np.array(ptr, dtype=np.int64), ids=np.array(ids, dtype=np.int64))

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


@dataclass(frozen=True)
class SentenceStats:
    """Per-sentence quantities behind the five metrics, counted once for
    corpora laid end to end: corpus c is rows ``bounds[c]:bounds[c + 1]``.

    Every metric is an exact integer aggregate of them, so ``values`` gives
    the metrics of any sample of rows (given as indices, repeats allowed)
    without building the sampled corpus: products of the counts with the
    sample's row multiplicities, and distinct lemma / idiom counts over the
    rows drawn.
    """

    # int64, one row per quantity: tokens, pronouns, rank sum, ranked
    # tokens, transitions; one column per sentence
    counts: np.ndarray
    bounds: tuple[int, ...]
    lemmas: _IdSets
    idioms: _IdSets

    @classmethod
    def of(cls, corpora: Sequence[Corpus], resources: Resources) -> "SentenceStats":
        """Count every sentence of ``corpora``, in order; raises on the
        first token that lacks a POS tag, naming its sentence within its
        corpus, as ``pronouns`` does."""
        markers = resources.sentence_transitions()
        _check_markers(markers)
        counts = []
        idioms = []
        for corpus in corpora:
            for sent, tags in zip(corpus.sentences, corpus.tags()):
                surfaces = sent.surfaces()
                rank_sum, ranked = _rank_counts(
                    surfaces, resources.word_ranks, resources.function_words
                )
                transition_hits = len(_matched_texts(surfaces, markers))
                counts.append(
                    (sent.token_count, _pronoun_count(tags), rank_sum, ranked, transition_hits)
                )
                idioms.append(_matched_texts(surfaces, resources.idioms))
        return cls(
            counts=np.array(counts, dtype=np.int64).reshape(-1, 5).T.copy(),
            bounds=tuple(accumulate(map(len, corpora), initial=0)),
            lemmas=_IdSets.of(sent.lemmas() for c in corpora for sent in c.sentences),
            idioms=_IdSets.of(idioms),
        )

    @property
    def tokens(self) -> np.ndarray:
        return self.counts[0]

    def __len__(self) -> int:
        return self.counts.shape[1]

    def values(self, indices: np.ndarray) -> tuple[float, ...]:
        """The raw metrics, in ``METRIC_NAMES`` order, of the sample made of
        the sentences at ``indices``; equal to the metric functions on that
        sample's corpus."""
        multiplicity = np.bincount(indices, minlength=len(self))
        tokens, pronoun_hits, rank_sum, ranked, transition_hits = (
            self.counts @ multiplicity
        ).tolist()
        rows = np.flatnonzero(multiplicity)
        return (
            _ttr_value(self.lemmas.distinct(rows), tokens).raw,
            _rank_value(rank_sum, ranked).raw,
            _collocation_value(self.idioms.distinct(rows), tokens).raw,
            _transition_value(transition_hits, tokens).raw,
            _pronoun_value(pronoun_hits, tokens).raw,
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
