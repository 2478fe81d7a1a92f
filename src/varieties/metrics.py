"""The five variety metrics and total-sum normalization.

Each metric maps a corpus to a nonnegative scalar:

  TTR                 distinct lemmas / tokens (lexical richness)
  MEAN_WORD_RANK      mean frequency rank of non-function-word tokens
  COLLOCATION_TYPES   number of distinct idiomatic expressions present
  TRANSITIONS         sentence-transition markers per token
  PRONOUNS            PRP / PRP$ tokens per token

Every metric is an aggregate of per-sentence quantities: pronoun, transition
and rank counts are sums over sentences, TTR and collocation types count the
distinct lemmas or idioms of the sentences. All of them are counted on a
corpus's interned token columns (``Corpus.columns``), the module's only view
of sentence content: a per-token quantity is a per-vocabulary value indexed
by the token ids, and idioms and transition markers are matched by one batch
``match_phrases`` call over all sentences. ``SentenceStats`` counts them once,
for N, NN and T laid end to end in one table: ``np.add.reduceat`` over the
sentence offsets gives each sentence's counts, and each sentence's lemmas and
idioms are a row of a ``corpus.KeyCounts`` table built from (sentence, id)
pairs; each corpus is a range of its rows. It evaluates all five metrics on
any draw of rows from one multiplicity vector (how often each row was
drawn): exact integer products give the sums, the columns gathered from its
nonzero rows the distinct lemmas and idioms. The metrics stage computes the
observed values and every bootstrap resample that way. The five corpus
functions (``ttr`` ... ``pronouns``) sum the same per-vocabulary tables and
matches over a whole corpus and give one metric of one corpus, for
``bootstrap.test_d_total``/``test_d_dif`` and library use.

Metric triples over (N, T, NN) corpora are compared after dividing each
value by the triple's sum, which makes them scale-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Sequence

import numpy as np

from .corpus import Columns, Corpus, KeyCounts, concat, gather
from .errors import DegenerateDataError, VarietiesError
from .lexicons import SENTENCE_TRANSITION, PhraseList, RankList, Resources, WordList, match_phrases

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


# ---------------------------------------------------------------------------
# counting: per-vocabulary tables and phrase matches on a corpus's columns,
# the one counting path behind each metric, summed over a corpus by the
# corpus functions and per sentence by SentenceStats


def _rank_tables(
    columns: Columns, ranks: RankList, fw: WordList
) -> tuple[np.ndarray, np.ndarray]:
    """Per surface: its frequency rank and whether it is ranked, that is
    neither a function word nor missing from the rank list (an unranked
    surface has rank 0)."""
    words = columns.surface_vocab
    ranked = np.array([w not in fw and w in ranks for w in words], dtype=np.int64)
    rank = np.array([ranks.rank(w) if r else 0 for w, r in zip(words, ranked)], dtype=np.int64)
    return rank, ranked


def _pronoun_table(columns: Columns) -> np.ndarray:
    """Per POS tag: 1 for PRP / PRP$, else 0."""
    return np.array([t in _PRONOUN_TAGS for t in columns.pos_vocab], dtype=np.int64)


def _total(table: np.ndarray, ids: np.ndarray) -> int:
    """A per-vocabulary table summed over the tokens ``ids``."""
    return int(np.bincount(ids, minlength=len(table)) @ table)


def _matches(columns: Columns, phrases: PhraseList) -> tuple[np.ndarray, np.ndarray]:
    """The sentence and entry index of each phrase match, in order (phrases
    never span sentences)."""
    sentence, entry, _start = match_phrases(
        columns.surface_ids, columns.ptr, columns.surface_vocab, phrases
    )
    return sentence, entry


def _check_markers(markers: PhraseList) -> None:
    if len(markers) == 0:
        raise DegenerateDataError(
            f"transitions: empty transition-marker list (no {SENTENCE_TRANSITION} marker)"
        )


# ---------------------------------------------------------------------------
# metric values from aggregated counts, with each metric's checks


def _ttr_value(distinct: int, tokens: int) -> MetricValue:
    if tokens == 0:
        raise ValueError("cannot compute TTR of an empty corpus")
    return MetricValue(metric=TTR, raw=distinct / tokens, basis=tokens)


def _rank_value(total: int, included: int) -> MetricValue:
    if included == 0:
        raise DegenerateDataError("mean_word_rank: no token is covered by the rank list")
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
    lemma_ids = corpus.columns.lemma_ids
    return _ttr_value(len(np.unique(lemma_ids)), len(lemma_ids))


def mean_word_rank(corpus: Corpus, ranks: RankList, fw: WordList) -> MetricValue:
    """Mean frequency rank over tokens that are neither function words nor
    missing from the rank list; excluded tokens leave both numerator and
    denominator."""
    columns = corpus.columns
    rank, ranked = _rank_tables(columns, ranks, fw)
    ids = columns.surface_ids
    return _rank_value(_total(rank, ids), _total(ranked, ids))


def collocation_types(corpus: Corpus, idioms: PhraseList) -> MetricValue:
    """Number of distinct idiom types with at least one match."""
    columns = corpus.columns
    _sentence, entry = _matches(columns, idioms)
    return _collocation_value(len(np.unique(entry)), len(columns.surface_ids))


def transitions(corpus: Corpus, markers: PhraseList) -> MetricValue:
    """Sentence-transition matches per token."""
    _check_markers(markers)
    columns = corpus.columns
    sentence, _entry = _matches(columns, markers)
    return _transition_value(len(sentence), len(columns.surface_ids))


def pronouns(corpus: Corpus) -> MetricValue:
    """Personal + possessive pronouns (PRP, PRP$) per token; requires POS
    tags on every token."""
    columns = corpus.columns
    columns.check_tagged()
    hits = _total(_pronoun_table(columns), columns.pos_ids)
    return _pronoun_value(hits, len(columns.pos_ids))


# ---------------------------------------------------------------------------
# the metrics of sentence samples


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
    lemmas: KeyCounts
    idioms: KeyCounts

    @classmethod
    def of(cls, corpora: Sequence[Corpus], resources: Resources) -> "SentenceStats":
        """Count every sentence of ``corpora``, in order, on the columns of
        the corpora laid end to end. Each corpus is first checked for a
        token that lacks a POS tag, the error naming its file."""
        markers = resources.sentence_transitions()
        _check_markers(markers)
        for corpus in corpora:
            corpus.columns.check_tagged(corpus.provenance)
        bounds = tuple(accumulate(map(len, corpora), initial=0))
        columns = concat(corpora).columns
        pronoun = _pronoun_table(columns)
        rank, ranked = _rank_tables(columns, resources.word_ranks, resources.function_words)
        transition_rows, _entry = _matches(columns, markers)
        idiom_rows, idiom_entries = _matches(columns, resources.idioms)
        rows = len(columns.ptr) - 1
        starts = columns.ptr[:-1]
        counts = np.stack(
            [
                np.diff(columns.ptr),
                np.add.reduceat(pronoun[columns.pos_ids], starts),
                np.add.reduceat(rank[columns.surface_ids], starts),
                np.add.reduceat(ranked[columns.surface_ids], starts),
                np.bincount(transition_rows, minlength=rows),
            ]
        )
        lemma_ids, lemma_vocab = columns.lemma_ids, columns.lemma_vocab
        # free the surface and POS ids before the lemma pairs, which set the
        # memory peak
        del columns
        return cls(
            counts=counts,
            bounds=bounds,
            lemmas=KeyCounts.from_pairs(
                np.repeat(np.arange(rows, dtype=np.int32), counts[0]), lemma_ids, lemma_vocab, rows
            ),
            idioms=KeyCounts.from_pairs(
                idiom_rows, idiom_entries, [e.text for e in resources.idioms], rows
            ),
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
        lemmas, idioms = (
            int(np.count_nonzero(np.bincount(table.col[gather(table.ptr, rows)[1]])))
            for table in (self.lemmas, self.idioms)
        )
        return (
            _ttr_value(lemmas, tokens).raw,
            _rank_value(rank_sum, ranked).raw,
            _collocation_value(idioms, tokens).raw,
            _transition_value(transition_hits, tokens).raw,
            _pronoun_value(pronoun_hits, tokens).raw,
        )


def check_sizes(corpus_n: Corpus, corpus_nn: Corpus, corpus_t: Corpus) -> None:
    """Equal-size guard: pairwise token counts must agree within
    ``_SIZE_TOLERANCE`` (relative to the larger of each pair), or
    ``VarietiesError`` names the empty or offending corpora."""
    sizes = {"N": corpus_n.token_count, "NN": corpus_nn.token_count, "T": corpus_t.token_count}
    empty = [name for name, size in sizes.items() if size == 0]
    if empty:
        raise VarietiesError(f"equal-size guard failed: empty corpus: {', '.join(empty)}")
    median = sorted(sizes.values())[1]
    # of each pair that differs, the one farther from the median size
    offenders = {
        max((a, b), key=lambda l: abs(sizes[l] - median))
        for a, b in combinations(sorted(sizes), 2)
        if abs(sizes[a] - sizes[b]) > _SIZE_TOLERANCE * max(sizes[a], sizes[b])
    }
    if offenders:
        detail = ", ".join(f"{l}={sizes[l]}" for l in sorted(sizes))
        raise VarietiesError(
            f"equal-size guard failed: token counts differ by more than "
            f"{_SIZE_TOLERANCE:.0%}: {detail} (offending: {', '.join(sorted(offenders))})"
        )


def normalize_triple(
    metric: str, raw_n: float, raw_t: float, raw_nn: float
) -> MetricTriple:
    """Total-sum normalization of a metric triple; values then sum to 1."""
    total = raw_n + raw_t + raw_nn
    if total <= 0:
        raise DegenerateDataError(f"{metric}: cannot normalize an all-zero metric triple")
    return MetricTriple(
        metric=metric,
        raw_n=raw_n,
        raw_t=raw_t,
        raw_nn=raw_nn,
        norm_n=raw_n / total,
        norm_t=raw_t / total,
        norm_nn=raw_nn / total,
    )
