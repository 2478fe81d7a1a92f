"""Order-n POS language models with modified Kneser-Ney smoothing.

Counting convention: every sentence is padded with (order-1) begin markers
(context-only, never predicted) and one end marker (predicted once). Raw
windows of every length 1..order are collected, skipping windows that end in
the begin marker. At the highest order probabilities use raw counts; at
lower orders they use continuation counts (number of distinct left
extensions), except that begin-marker-initial n-grams keep their raw counts
because nothing can precede them.

Counting runs on integer id arrays, not on string tuples. Symbols get ids in
sorted string order, all sentences are padded into one id array, and every
window length is counted by one sort/unique pass over keys (index of the
window's prefix among the shorter windows, last id), so no key can overflow
at any order or tagset size. Continuation counts are the number of distinct
longer windows sharing a suffix. Estimation is vectorised per order but
keeps each gram's floating-point operations and their order, and takes
log10 and powers of ten per element with `math.log10` and `**` (numpy's
versions can differ in the last bit), so every stored value is the per-gram
formula evaluated in double precision.

Per order, three discounts for counts of 1, 2 and >=3:

    Y   = n1 / (n1 + 2 n2)
    D_k = k - (k+1) Y n_{k+1} / n_k          (k = 1, 2, 3)

computed from the count-of-counts n_1..n_4 of the adjusted counts at that
order (begin-marker-initial grams included). Any discount falling outside
(0, k) — in particular when n_1 or n_2 vanish — falls back to 0.5 with a
warning. Probabilities are interpolated bottom-up against the uniform
distribution over the closed vocabulary (tagset + end marker), so every
conditional distribution sums to exactly one.

Models store log10 probabilities and backoff weights, the exact quantities
serialized in the ARPA text format, as arrays in the sorted-array layout of
Heafield, "KenLM: Faster and Smaller Language Model Queries" (WMT 2011).
Per order n, an `NgramLevel` holds the sorted keys of the order-n windows the
model knows, packed as `lexicons.prefix_keys` packs them (the unigram keys
are the symbol ids), the log10 probability of each key with a mask of the
keys that have one, and the log10 backoff with a mask of the keys that have
one. Pure contexts (the all-begin-marker runs) have a backoff and no
probability; a key with neither is there only as the prefix of a longer
key. Since ids follow sorted string order, key order is string-tuple order.
`KneserNeyModel.logprobs` and `backoffs` are read-only mappings from string
tuples over these arrays. Every sentence, in training or scoring, is padded
by one function (`_padded`), and every key is spelled by one (`_spelled`).

Scoring has one batch path, used by `ppl`, `ppl_by_chunks` and
`KneserNeyModel.logprob`. Symbols are mapped to ids once; an out-of-vocabulary
symbol becomes -1, which no window may cover, so it cuts the history. The
index of the window of every length ending at every position comes from the
prefix chain and `searchsorted`. The backoff walk then runs order by order,
longest first: a position takes `acc + log10 P` at its longest stored n-gram,
where `acc` has summed, in turn, the backoff of every longer context that has
one. Each position does the per-token walk's float operations in the same
order, and sentences, chunks and totals are summed left to right, so every
score equals the per-token walk's to the last bit.

Every figure is added up from per-sentence scores (`SentenceScores`). A
sentence's scores do not depend on the sentences scored with it, so
`SentenceScores.report` gives any subset of a scored set, in any order, the
figures that `ppl` or `ppl_by_chunks` give that subset alone.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, _in_range, gather
from .lexicons import TagSet, lookup, prefix_keys

BOS = "<s>"
EOS = "</s>"

_FALLBACK_DISCOUNT = 0.5
_PLACEHOLDER_LOG10 = -99.0
# write_arpa formats and writes this many lines at a time, which bounds the
# memory it adds beyond the n-gram names
_ARPA_LINES_PER_WRITE = 8192


class NgramLevel(NamedTuple):
    """The keys of one order and what the model stores for each."""

    keys: np.ndarray  # int64, sorted: prefix index * len(symbols) + last id
    logprob: np.ndarray  # log10 P where has_prob, else 0
    has_prob: np.ndarray
    backoff: np.ndarray  # log10 backoff weight where has_backoff, else 0
    has_backoff: np.ndarray


@dataclass(frozen=True, eq=False)
class KneserNeyModel:
    order: int
    symbols: tuple[str, ...]  # sorted; a symbol's id is its index
    levels: tuple[NgramLevel, ...]  # orders 1..order
    discounts: tuple[tuple[float, float, float], ...] | None = None

    @cached_property
    def vocab(self) -> frozenset[str]:
        """Predictable symbols: those with a unigram probability, the begin
        marker excepted (tagset + EOS for a trained model)."""
        unigrams = np.flatnonzero(self.levels[0].has_prob).tolist()
        return frozenset(self.symbols[i] for i in unigrams) - {BOS}

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {symbol: i for i, symbol in enumerate(self.symbols)}

    @property
    def logprobs(self) -> Mapping[tuple[str, ...], float]:
        return _Stored(self, backoffs=False)

    @property
    def backoffs(self) -> Mapping[tuple[str, ...], float]:
        return _Stored(self, backoffs=True)

    def logprob(self, word: str, history: Sequence[str]) -> float:
        """log10 P(word | history) via the standard backoff walk."""
        # a leading -1: the walk reads each target's context one position back
        ids = np.array(
            [-1] + [self._ids.get(s, -1) for s in (*history, word)], dtype=np.int64
        )
        value, unresolved = _walk(self, ids, np.array([len(ids) - 1]))
        if unresolved[0]:
            raise ValueError(f"symbol {word!r} is outside the model vocabulary")
        return float(value[0])

    def prob(self, word: str, history: Sequence[str]) -> float:
        return 10.0 ** self.logprob(word, history)


class _Stored(Mapping):
    """Read-only view of a model's log10 probabilities or backoffs keyed by
    string tuples. Its length is an array count; tuples are built only when
    it is iterated."""

    def __init__(self, model: KneserNeyModel, backoffs: bool):
        self._model = model
        self._backoffs = backoffs

    def _column(self, level: NgramLevel) -> tuple[np.ndarray, np.ndarray]:
        if self._backoffs:
            return level.backoff, level.has_backoff
        return level.logprob, level.has_prob

    def __len__(self) -> int:
        return sum(
            int(np.count_nonzero(self._column(level)[1])) for level in self._model.levels
        )

    def __getitem__(self, gram: tuple[str, ...]) -> float:
        model = self._model
        if not isinstance(gram, tuple) or not 1 <= len(gram) <= model.order:
            raise KeyError(gram)
        ids = np.array([model._ids.get(s, -1) for s in gram], dtype=np.int64)
        windows = _windows(model, ids)
        index = int(windows[len(gram) - 1][-1]) if len(gram) <= len(windows) else -1
        values, has = self._column(model.levels[len(gram) - 1])
        if index < 0 or not has[index]:
            raise KeyError(gram)
        return float(values[index])

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return (gram for gram, _ in self._pairs())

    def _pairs(self) -> Iterator[tuple[tuple[str, ...], float]]:
        for level, names in zip(self._model.levels, _spelled(self._model, joined=False)):
            values, has = self._column(level)
            kept = np.flatnonzero(has)
            yield from zip([names[i] for i in kept.tolist()], values[kept].tolist())

    def items(self) -> ItemsView:
        return _StoredItems(self)


class _StoredItems(ItemsView):
    def __iter__(self):
        return self._mapping._pairs()


def _spelled(model: KneserNeyModel, joined: bool) -> Iterator[list]:
    """Per order, the n-gram each of the model's keys spells, in key order:
    a tuple of symbols, or with ``joined`` the symbols joined by spaces."""
    symbols = model.symbols
    names = list(symbols) if joined else [(symbol,) for symbol in symbols]
    for level in model.levels[1:]:
        yield names
        prefix, last = np.divmod(level.keys, len(symbols))
        if joined:
            names = [f"{names[p]} {symbols[w]}" for p, w in zip(prefix.tolist(), last.tolist())]
        else:
            names = [names[p] + (symbols[w],) for p, w in zip(prefix.tolist(), last.tolist())]
    yield names


@dataclass(frozen=True)
class ChunkPerplexity:
    perplexity: float
    scored: int
    excluded: int
    log10_sum: float
    short: bool = False


@dataclass(frozen=True)
class PerplexityReport:
    perplexity: float
    scored: int
    excluded: int
    log10_sum: float
    per_chunk: tuple[ChunkPerplexity, ...] | None = None
    # the scores of every sentence of the set, in order
    per_sentence: SentenceScores | None = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# training


def _padded(
    tag_ids: np.ndarray, lengths: np.ndarray, order: int, bos: int, eos: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sentences of these (nonzero) lengths, whose tags are ``tag_ids`` laid
    end to end, each padded to order-1 begin markers, its tags and one end
    marker: the padded ids, a mask of the tags in them, and the position of
    each end marker."""
    ends = np.cumsum(lengths + order) - 1
    ids = np.full(int(ends[-1]) + 1, bos, dtype=tag_ids.dtype)
    is_tag = np.ones(len(ids), dtype=bool)
    is_tag[ends] = False
    for back in range(1, order):
        is_tag[ends - lengths - back] = False
    ids[is_tag] = tag_ids
    ids[ends] = eos
    return ids, is_tag, ends


def _count_ngrams(
    sentences: Iterable[Sequence[str]], tags: frozenset[str], order: int
) -> tuple[list[str], list[tuple[np.ndarray, np.ndarray]]]:
    """Distinct windows of every length 0..order of the padded sentences,
    laid end to end, and their counts.

    Returns the symbols (tags and both markers, sorted; a symbol's id is its
    index, so id rows sort like the string tuples) and one (keys, counts)
    pair per window length n. A key is prefix * len(symbols) + last id, where
    prefix is the index of the window's first n-1 symbols among the keys of
    length n-1; length 0 holds the one empty window, and length 1 every
    symbol id, with a zero count for a symbol never seen. Keys are sorted, so
    windows sharing a context are contiguous. Windows ending in the begin
    marker are kept: they are contexts, never predicted grams. A window that
    runs past an end marker ends among the order-1 begin markers that follow
    it, so it is never a predicted gram nor the context or left extension of
    one, and needs no masking."""
    sentences = TagSequences.of(sentences)
    symbols = sorted(tags | {BOS, EOS})
    bos, eos = symbols.index(BOS), symbols.index(EOS)
    code = {tag: i for i, tag in enumerate(symbols) if tag in tags}
    tag_ids = np.array([code.get(tag, -1) for tag in sentences.vocab], np.int32)[sentences.ids]
    outside = np.flatnonzero(tag_ids < 0)
    if len(outside):
        at = int(outside[0])
        s_idx = int(np.searchsorted(sentences.ptr, at, side="right")) - 1
        raise ValueError(
            f"out-of-tagset tag {sentences.vocab[sentences.ids[at]]!r} at sentence "
            f"{s_idx}, position {at - int(sentences.ptr[s_idx])}"
        )
    lengths = np.diff(sentences.nonempty().ptr)
    if not len(lengths):
        raise ValueError("training corpus is empty")
    ids = _padded(tag_ids, lengths, order, bos, eos)[0]
    del tag_ids
    levels = [
        (np.zeros(1, dtype=np.int64), np.array([len(ids)])),
        (np.arange(len(symbols), dtype=np.int64), np.bincount(ids, minlength=len(symbols))),
    ]
    # prefix[i]: index of the window of length n-1 starting at i; ids,
    # prefixes and keys are int32 while their values fit
    prefix = ids.astype(np.int32 if len(ids) < 2**31 else np.int64)
    for n in range(2, order + 1):
        starts = len(ids) - n + 1
        bound = len(levels[-1][0]) * len(symbols)
        index = np.int32 if bound < 2**31 else np.int64
        keys = np.multiply(prefix[:starts], len(symbols), dtype=index)
        keys += ids[n - 1 :]
        if bound <= starts:
            # every key lies below the bound: a counting sort, in linear time
            counts = np.bincount(keys, minlength=bound)
            if n < order:
                prefix[:starts] = (np.cumsum(counts > 0) - 1).astype(prefix.dtype)[keys]
            keys = np.flatnonzero(counts)
            counts = counts[keys]
        elif n < order:
            keys, inverse, counts = np.unique(
                keys, return_inverse=True, return_counts=True
            )
            prefix[:starts] = inverse
        else:
            keys, counts = np.unique(keys, return_counts=True)
        levels.append((keys.astype(np.int64, copy=False), counts))
    return symbols, levels


def _estimate_discounts(counts: np.ndarray, order_label: int) -> tuple[float, float, float]:
    n1, n2, n3, n4 = (int(np.count_nonzero(counts == k)) for k in (1, 2, 3, 4))
    if n1 == 0 or n2 == 0:
        warnings.warn(
            f"degenerate count-of-counts at order {order_label} "
            f"(n1={n1}, n2={n2}); falling back to discount "
            f"{_FALLBACK_DISCOUNT}",
            stacklevel=3,
        )
        return (_FALLBACK_DISCOUNT,) * 3
    y = n1 / (n1 + 2.0 * n2)
    discounts = []
    for k, nk, nk1 in ((1, n1, n2), (2, n2, n3), (3, n3, n4)):
        d = k - (k + 1.0) * y * nk1 / nk if nk else _FALLBACK_DISCOUNT
        if not 0.0 < d < k:
            warnings.warn(
                f"discount D{k}={d:.3f} outside (0,{k}) at order "
                f"{order_label}; falling back to {_FALLBACK_DISCOUNT}",
                stacklevel=3,
            )
            d = _FALLBACK_DISCOUNT
        discounts.append(d)
    return (discounts[0], discounts[1], discounts[2])


def _kept(counts: np.ndarray, discounts: tuple[float, float, float]) -> np.ndarray:
    """max(count - D(count), 0) per count, with D(0) = 0."""
    d = np.where(
        counts >= 3,
        discounts[2],
        np.where(counts == 2, discounts[1], np.where(counts == 1, discounts[0], 0.0)),
    )
    return np.maximum(counts - d, 0.0)


def _gammas(
    counts: np.ndarray,
    starts: np.ndarray,
    totals: np.ndarray,
    discounts: tuple[float, float, float],
) -> np.ndarray:
    """Interpolation weight of each context whose grams' counts begin at
    ``starts``: (D1 b1 + D2 b2 + D3 b3) / total, where b_k is the number of
    the context's grams with count k (b3: count >= 3)."""
    b1, b2, b3 = (
        np.add.reduceat(mask.astype(np.int64), starts)
        for mask in (counts == 1, counts == 2, counts >= 3)
    )
    return (discounts[0] * b1 + discounts[1] * b2 + discounts[2] * b3) / totals


def train_lm(
    sentences: Iterable[Sequence[str]],
    tagset: TagSet | Iterable[str],
    order: int = 5,
) -> KneserNeyModel:
    """Estimate a modified-Kneser-Ney model over the closed tag vocabulary."""
    if order < 1:
        raise ValueError("order must be >= 1")
    tags = frozenset(tagset.tags if isinstance(tagset, TagSet) else tagset)
    if BOS in tags or EOS in tags:
        raise ValueError("the tagset must not contain the boundary markers")
    symbols, levels = _count_ngrams(sentences, tags, order)
    size = len(symbols)
    bos = symbols.index(BOS)

    # per window length n: context (prefix) index, last id, first id, and the
    # index among the windows of length n-1 of the suffix (the window without
    # its first symbol); a length-1 window's suffix is the empty window
    prefixes, lasts = zip(*(np.divmod(keys, size) for keys, _ in levels))
    firsts = [None, lasts[1]]
    suffixes = [None, np.zeros_like(lasts[1])]
    for n in range(2, order + 1):
        firsts.append(firsts[n - 1][prefixes[n]])
        suffixes.append(
            np.searchsorted(
                levels[n - 1][0], suffixes[n - 1][prefixes[n]] * size + lasts[n]
            )
        )

    # the highest order keeps raw counts; below it a gram counts its distinct
    # left extensions (the distinct longer windows it is the suffix of),
    # except that begin-marker-initial grams keep raw counts
    adjusted = [counts for _, counts in levels]
    for n in range(order - 1, 0, -1):
        left = np.bincount(suffixes[n + 1], minlength=len(levels[n][0]))
        adjusted[n] = np.where(firsts[n] == bos, levels[n][1], left)
    # the predicted grams: windows that do not end in the begin marker
    grams = [np.flatnonzero(last != bos) for last in lasts]
    discounts: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)]  # pad index 0
    for n in range(1, order + 1):
        discounts.append(_estimate_discounts(adjusted[n][grams[n]], n))

    vocab = sorted(tags) + [EOS]
    keys = [level[0] for level in levels[1:]]
    logprob = [np.zeros(len(k)) for k in keys]
    has_prob = [np.zeros(len(k), dtype=bool) for k in keys]
    backoff = [np.zeros(len(k)) for k in keys]
    has_backoff = [np.zeros(len(k), dtype=bool) for k in keys]

    # unigrams: interpolate with the uniform distribution over the closed
    # vocabulary so unseen tags keep positive mass
    vocab_ids = np.array([symbols.index(word) for word in vocab])
    counts = adjusted[1][vocab_ids]
    totals = counts.sum(keepdims=True)
    gamma = _gammas(counts, np.zeros(1, dtype=np.intp), totals, discounts[1])
    p = gamma / len(vocab) + _kept(counts, discounts[1]) / totals
    level_lp = [math.log10(x) for x in p.tolist()]
    logprob[0][vocab_ids] = level_lp
    has_prob[0][vocab_ids] = True
    # 10 ** log10 P of every window of the level below, the lower-order
    # estimate a longer gram interpolates with
    powers = np.zeros(size)
    powers[vocab_ids] = [10.0**x for x in level_lp]

    for n in range(2, order + 1):
        sel = grams[n]
        ctx = prefixes[n][sel]
        counts = adjusted[n][sel]
        starts = np.flatnonzero(np.r_[True, ctx[1:] != ctx[:-1]])
        totals = np.add.reduceat(counts, starts)
        gammas = _gammas(counts, starts, totals, discounts[n])
        group = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(ctx)]))
        p = (
            _kept(counts, discounts[n]) / totals[group]
            + gammas[group] * powers[suffixes[n][sel]]
        )
        level_lp = [math.log10(x) for x in p.tolist()]
        logprob[n - 1][sel] = level_lp
        has_prob[n - 1][sel] = True
        contexts = ctx[starts]
        backoff[n - 2][contexts] = [math.log10(g) for g in gammas.tolist()]
        has_backoff[n - 2][contexts] = True
        powers = np.zeros(len(keys[n - 1]))
        powers[sel] = [10.0**x for x in level_lp]

    return KneserNeyModel(
        order=order,
        symbols=tuple(symbols),
        levels=tuple(map(NgramLevel, keys, logprob, has_prob, backoff, has_backoff)),
        discounts=tuple(discounts[1:]),
    )


# ---------------------------------------------------------------------------
# perplexity


def _windows(model: KneserNeyModel, ids: np.ndarray) -> list[np.ndarray]:
    """Per order n, the index among the model's order-n keys of the window
    of n symbols ending at each position of ``ids``, or -1 where that window
    runs past the start, covers an id of -1 or is not a key. The list ends
    at the first order whose windows are all -1: every longer window
    extends one of them, so it is -1 too."""
    size = len(model.symbols)
    windows = [ids]
    for level in model.levels[1:]:
        prefix = windows[-1][:-1]
        known = np.flatnonzero((prefix >= 0) & (ids[1:] >= 0))
        window = np.full(len(ids), -1, dtype=np.int64)
        window[known + 1] = lookup(level.keys, prefix[known] * size + ids[known + 1])
        windows.append(window)
        if not (window >= 0).any():
            break
    return windows


def _walk(
    model: KneserNeyModel, ids: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """log10 P of the symbol at each target position of ``ids`` given the
    symbols before it, by the backoff walk run order by order over all
    targets at once, and a mask of the targets that no stored n-gram
    predicts. A target's context is read one position back, so under an
    order > 1 model targets are positions >= 1. An id of -1 is a symbol
    outside the model, which cuts the history."""
    windows = _windows(model, ids)
    values = np.zeros(len(targets))
    acc = np.zeros(len(targets))
    todo = np.ones(len(targets), dtype=bool)
    for n in range(len(windows), 0, -1):
        level = model.levels[n - 1]
        gram = windows[n - 1][targets]
        hit = np.flatnonzero(todo & (gram >= 0))
        hit = hit[level.has_prob[gram[hit]]]
        values[hit] = acc[hit] + level.logprob[gram[hit]]
        todo[hit] = False
        if n == 1 or not todo.any():
            break
        below = model.levels[n - 2]
        # the context: the n-1 symbols before the target
        context = windows[n - 2][targets - 1]
        miss = np.flatnonzero(todo & (context >= 0))
        miss = miss[below.has_backoff[context[miss]]]
        acc[miss] += below.backoff[context[miss]]
    return values, todo


def _in_order(values: Iterable[float]) -> float:
    """Float sum from 0.0, left to right. ``sum()`` compensates float sums
    from Python 3.12 on and ``np.sum`` adds pairwise, so either can change
    the last bit."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True, eq=False)
class SentenceScores:
    """Per sentence of a scored set, in order: its log10 sum and its scored
    and excluded counts."""

    log10_sum: np.ndarray
    scored: np.ndarray
    excluded: np.ndarray

    def report(
        self, rows: np.ndarray | None = None, chunk_sentences: int | None = None
    ) -> PerplexityReport:
        """The report of the sentences at ``rows`` (all by default), in that
        order: ``ppl``'s, or with ``chunk_sentences`` ``ppl_by_chunks``'s,
        equal to the last bit to what they give for those sentences alone."""
        rows = slice(None) if rows is None else rows
        sums, scored, excluded = self.log10_sum[rows], self.scored[rows], self.excluded[rows]
        if chunk_sentences is None:
            return PerplexityReport(*_aggregate(sums.tolist(), scored, excluded))
        chunks = []
        for start in range(0, len(sums), chunk_sentences):
            block = slice(start, start + chunk_sentences)
            chunks.append(
                ChunkPerplexity(
                    *_aggregate(sums[block].tolist(), scored[block], excluded[block]),
                    short=block.stop > len(sums),
                )
            )
        return PerplexityReport(
            *_aggregate(
                [c.log10_sum for c in chunks],
                [c.scored for c in chunks],
                [c.excluded for c in chunks],
            ),
            per_chunk=tuple(chunks),
        )


def _aggregate(
    log10_sums: list[float], scored: Iterable[int], excluded: Iterable[int]
) -> tuple[float, int, int, float]:
    """Perplexity 10^(-log10 sum / scored) of the parts (sentences or
    chunks) with these log10 sums, added in order, and these counts; then
    the scored and excluded totals and the log10 sum."""
    log_sum = _in_order(log10_sums)
    total = int(np.sum(scored))
    return 10.0 ** (-log_sum / total), total, int(np.sum(excluded)), log_sum


def _sentence_scores(model: KneserNeyModel, sentences: Iterable[Sequence[str]]) -> SentenceScores:
    """Per sentence, empty ones dropped: log10 sum, scored and excluded
    counts. Every tag and the end marker is scored; out-of-vocabulary tags
    are excluded and truncate the history. A sentence's scores are summed in
    order."""
    sentences = TagSequences.of(sentences).nonempty()
    if not len(sentences):
        raise ValueError("empty test set")
    vocab_ids = {word: model._ids[word] for word in model.vocab}
    lengths = np.diff(sentences.ptr)
    tag_ids = np.array([vocab_ids.get(tag, -1) for tag in sentences.vocab], np.int64)[
        sentences.ids
    ]
    # a model read without a marker pads with -1
    ids, is_tag, ends = _padded(
        tag_ids, lengths, model.order, model._ids.get(BOS, -1), model._ids.get(EOS, -1)
    )
    # the targets: the tags in the vocabulary and the end markers
    is_target = is_tag & (ids >= 0)
    is_target[ends] = True
    values, unresolved = _walk(model, ids, np.flatnonzero(is_target))
    if unresolved.any():
        # every scored tag is in the vocabulary, so it has a unigram
        raise ValueError(f"symbol {EOS!r} is outside the model vocabulary")

    excluded = np.add.reduceat(tag_ids < 0, sentences.ptr[:-1], dtype=np.int64)
    scored = lengths - excluded + 1
    # one row per sentence, zero-padded: adding the columns in turn sums
    # each sentence's scores in order (a sum is never -0.0, so x + 0.0 == x)
    row = np.repeat(np.arange(len(sentences)), scored)
    column = np.arange(len(values)) - np.repeat(np.cumsum(scored) - scored, scored)
    table = np.zeros((len(sentences), int(scored.max())))
    table[row, column] = values
    sums = np.zeros(len(sentences))
    for scores in table.T:
        sums += scores
    return SentenceScores(sums, scored, excluded)


def ppl(model: KneserNeyModel, sentences: Iterable[Sequence[str]]) -> PerplexityReport:
    """Perplexity 10^(-avg log10 P) over all scoring positions (every tag
    and each sentence's end marker), excluding out-of-vocabulary symbols from
    both the sum and the token count. ``per_sentence`` holds each non-empty
    sentence's scores, whose ``report`` gives any subset's figures."""
    scores = _sentence_scores(model, sentences)
    return replace(scores.report(), per_sentence=scores)


def ppl_by_chunks(
    model: KneserNeyModel,
    sentences: Sequence[Sequence[str]],
    chunk_size_sentences: int = 100,
) -> PerplexityReport:
    """Per-chunk perplexities over consecutive sentence blocks; a final short
    block is retained and flagged. The whole-set figures aggregate the
    per-chunk sums token-weighted."""
    if chunk_size_sentences < 1:
        raise ValueError("chunk_size_sentences must be >= 1")
    return _sentence_scores(model, sentences).report(chunk_sentences=chunk_size_sentences)


# ---------------------------------------------------------------------------
# ARPA interchange


def write_arpa(model: KneserNeyModel, path: str | Path) -> None:
    """Standard ARPA text format, each section in key order, which is
    string-tuple order. Pure-context entries (the all-begin-marker runs)
    carry the conventional placeholder probability."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        written = [np.flatnonzero(lv.has_prob | lv.has_backoff) for lv in model.levels]
        for n, entries in enumerate(written, start=1):
            fh.write(f"ngram {n}={len(entries)}\n")
        fh.write("\n")
        levels = zip(model.levels, written, _spelled(model, joined=True))
        for n, (level, entries, names) in enumerate(levels, start=1):
            fh.write(f"\\{n}-grams:\n")
            logprob = np.where(level.has_prob, level.logprob, _PLACEHOLDER_LOG10)
            for start in range(0, len(entries), _ARPA_LINES_PER_WRITE):
                block = entries[start : start + _ARPA_LINES_PER_WRITE]
                fh.write(
                    "".join(
                        f"{lp:.7f}\t{names[i]}\t{bow:.7f}\n"
                        if has_bow
                        else f"{lp:.7f}\t{names[i]}\n"
                        for i, lp, bow, has_bow in zip(
                            block.tolist(),
                            logprob[block].tolist(),
                            level.backoff[block].tolist(),
                            level.has_backoff[block].tolist(),
                        )
                    )
                )
            fh.write("\n")
        fh.write("\\end\\\n")


def _store_last(values: np.ndarray, has: np.ndarray, at: np.ndarray, given: list[float]) -> None:
    """values[at] = given, the last one winning where a gram is listed twice."""
    at, last = np.unique(at[::-1], return_index=True)
    values[at] = np.array(given)[::-1][last]
    has[at] = True


def read_arpa(path: str | Path) -> KneserNeyModel:
    """Parse an ARPA file back into a scoring model. Section lengths must
    match the \\data\\ header. An n-gram whose (n-1)-symbol prefix has no
    line of its own gets that prefix as a key with no probability and no
    backoff, which scores as a missing entry does."""
    path = Path(path)
    # per order, each line's (gram, log10 prob, log10 backoff or None)
    listed: dict[int, list[tuple[tuple[str, ...], float, float | None]]] = {}
    declared: dict[int, int] = {}
    state = "preamble"
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if state == "preamble":
                if line == "\\data\\":
                    state = "counts"
                continue
            if line == "\\end\\":
                state = "done"
                break
            if line.startswith("\\") and line.endswith("-grams:"):
                n = int(line[1:].split("-")[0])
                if n not in declared:
                    raise ValueError(
                        f"{path}:{line_no}: section {n}-grams not declared in header"
                    )
                section = n
                listed.setdefault(n, [])
                state = "grams"
                continue
            if state == "counts":
                if not line.startswith("ngram "):
                    raise ValueError(f"{path}:{line_no}: expected 'ngram N=count'")
                spec_part = line[len("ngram ") :]
                n_text, _, count_text = spec_part.partition("=")
                declared[int(n_text)] = int(count_text)
                continue
            if state == "grams":
                fields = line.split("\t")
                if len(fields) == 1:
                    # tolerate space-separated files: prob, n symbols, then an
                    # optional backoff weight
                    parts = line.split()
                    if len(parts) == section + 2:
                        fields = [parts[0], " ".join(parts[1:-1]), parts[-1]]
                    else:
                        fields = [parts[0], " ".join(parts[1:])]
                if len(fields) not in (2, 3):
                    raise ValueError(f"{path}:{line_no}: malformed n-gram line")
                gram = tuple(fields[1].split())
                if len(gram) != section:
                    raise ValueError(
                        f"{path}:{line_no}: {len(gram)}-gram in the {section}-grams section"
                    )
                backoff = float(fields[2]) if len(fields) == 3 else None
                listed[section].append((gram, float(fields[0]), backoff))
    if state != "done":
        raise ValueError(f"{path}: missing \\end\\ marker")
    if not declared:
        raise ValueError(f"{path}: no n-gram sections declared")
    for n, count in declared.items():
        if len(listed.get(n, [])) != count:
            raise ValueError(
                f"{path}: section {n}-grams has {len(listed.get(n, []))} entries, "
                f"header declares {count}"
            )

    order = max(declared)
    lines = [listed.get(n, []) for n in range(1, order + 1)]
    grams = [gram for section in lines for gram, _, _ in section]
    symbols = tuple(sorted({s for gram in grams for s in gram}))
    ids = {symbol: i for i, symbol in enumerate(symbols)}
    # every symbol is an order-1 key, and every prefix of a gram is a key
    rows = [(i,) for i in range(len(symbols))] + [[ids[s] for s in gram] for gram in grams]
    keys, index = prefix_keys(rows, len(symbols), order)
    sections = np.split(index[len(symbols) :], np.cumsum([len(s) for s in lines])[:-1])

    levels = []
    for level_keys, section, at in zip(keys, lines, sections):
        logprob, has_prob = np.zeros(len(level_keys)), np.zeros(len(level_keys), dtype=bool)
        _store_last(logprob, has_prob, at, [lp for _, lp, _ in section])
        backoff, has_backoff = np.zeros(len(level_keys)), np.zeros(len(level_keys), dtype=bool)
        with_backoff = [i for i, (_, _, bow) in enumerate(section) if bow is not None]
        _store_last(
            backoff, has_backoff, at[with_backoff], [section[i][2] for i in with_backoff]
        )
        levels.append(NgramLevel(level_keys, logprob, has_prob, backoff, has_backoff))
    return KneserNeyModel(order=order, symbols=symbols, levels=tuple(levels))


# ---------------------------------------------------------------------------
# POS sequences


class TagSequences:
    """POS tag sentences as ids: sentence s is ``ids[ptr[s]:ptr[s + 1]]``, in
    the CSR layout of ``Corpus.columns``, each id an index into ``vocab``.
    It stands for the list of tag lists it holds: iterating it gives each
    sentence's tags as a list."""

    def __init__(self, vocab: Sequence[str], ids: np.ndarray, ptr: np.ndarray):
        self.vocab = vocab
        self.ids = ids
        self.ptr = ptr

    @classmethod
    def of(cls, sentences: Iterable[Sequence[str]]) -> TagSequences:
        """``sentences`` itself if it is a TagSequences, else its tag lists
        interned."""
        if isinstance(sentences, TagSequences):
            return sentences
        sentences = [list(tags) for tags in sentences]
        vocab = list(dict.fromkeys(chain.from_iterable(sentences)))
        code = {tag: i for i, tag in enumerate(vocab)}
        lengths = [len(tags) for tags in sentences]
        ids = np.fromiter(
            map(code.__getitem__, chain.from_iterable(sentences)), np.int64, sum(lengths)
        )
        return cls(vocab, ids, np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))))

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __iter__(self) -> Iterator[list[str]]:
        tags = list(map(self.vocab.__getitem__, self.ids.tolist()))
        bounds = self.ptr.tolist()
        return (tags[a:b] for a, b in zip(bounds, bounds[1:]))

    def nonempty(self) -> TagSequences:
        """The sentences that have tags."""
        lengths = np.diff(self.ptr)
        if lengths.all():
            return self
        return TagSequences(self.vocab, self.ids, self.ptr[np.append(True, lengths > 0)])

    def take(self, rows: np.ndarray) -> TagSequences:
        """The sentences at ``rows`` (any order, repeats allowed, each in 0:len)."""
        lengths, at = gather(self.ptr, _in_range(rows, len(self)))
        return TagSequences(self.vocab, self.ids[at], np.concatenate(([0], np.cumsum(lengths))))

    def distinct_tags(self, rows: np.ndarray) -> set[str]:
        """The tags of the sentences at ``rows``, which have tags."""
        keep = np.zeros(len(self), dtype=bool)
        keep[rows] = True
        seen = np.zeros(len(self.vocab), dtype=bool)
        seen[self.ids[np.repeat(keep, np.diff(self.ptr))]] = True
        return {self.vocab[i] for i in np.flatnonzero(seen).tolist()}


def pos_sequences(corpus: Corpus) -> TagSequences:
    """POS tag sequences of a tagged corpus, on its POS id column. The first
    token without a tag raises ``UntaggedTokenError`` naming its sentence,
    position and surface."""
    columns = corpus.columns
    columns.check_tagged()
    return TagSequences(columns.pos_vocab, columns.pos_ids, columns.ptr)
