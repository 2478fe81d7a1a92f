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
model knows, packed as above (the index of the first n-1 symbols among the
order-(n-1) keys, times the number of symbols, plus the last id; the
unigram keys are the symbol ids), the log10 probability of each key with a
mask of the keys that have one, and the log10 backoff with a mask of the
keys that have one. Pure contexts (the all-begin-marker runs) have a backoff
and no probability; a key with neither is there only as the prefix of a
longer key. Since ids follow sorted string order, key order is string-tuple
order. `KneserNeyModel.logprobs` and `backoffs` are read-only mappings from
string tuples over these arrays.

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
"""

from __future__ import annotations

import math
import warnings
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus
from .lexicons import TagSet

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
        model = self._model
        names = [(symbol,) for symbol in model.symbols]
        for n, level in enumerate(model.levels, start=1):
            if n > 1:
                prefix, last = np.divmod(level.keys, len(model.symbols))
                names = [
                    names[p] + (model.symbols[w],)
                    for p, w in zip(prefix.tolist(), last.tolist())
                ]
            values, has = self._column(level)
            kept = np.flatnonzero(has)
            yield from zip([names[i] for i in kept.tolist()], values[kept].tolist())

    def items(self) -> ItemsView:
        return _StoredItems(self)


class _StoredItems(ItemsView):
    def __iter__(self):
        return self._mapping._pairs()


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


# ---------------------------------------------------------------------------
# training


def _count_ngrams(
    sentences: Iterable[Sequence[str]], tags: frozenset[str], order: int
) -> tuple[list[str], list[tuple[np.ndarray, np.ndarray]]]:
    """Distinct windows of every length 0..order of the padded sentences,
    laid end to end, and their counts.

    Returns the symbols (tags and both markers, sorted; a symbol's id is its
    index, so id rows sort like the string tuples) and one (keys, counts)
    pair per window length n. A key is prefix * len(symbols) + last id, where
    prefix is the index of the window's first n-1 symbols among the keys of
    length n-1; length 0 holds the one empty window. Keys are sorted, so
    windows sharing a context are contiguous. Windows ending in the begin
    marker are kept: they are contexts, never predicted grams. A window that
    runs past an end marker ends among the order-1 begin markers that follow
    it, so it is never a predicted gram nor the context or left extension of
    one, and needs no masking."""
    symbols = sorted(tags | {BOS, EOS})
    ids_of = {tag: i for i, tag in enumerate(symbols) if tag in tags}
    bos, eos = symbols.index(BOS), symbols.index(EOS)
    pad = [bos] * (order - 1)
    padded: list[int] = []
    for s_idx, sentence in enumerate(sentences):
        sentence = list(sentence)
        if not sentence:
            continue
        padded.extend(pad)
        try:
            padded.extend(map(ids_of.__getitem__, sentence))
        except KeyError:
            t_idx = next(i for i, tag in enumerate(sentence) if tag not in ids_of)
            raise ValueError(
                f"out-of-tagset tag {sentence[t_idx]!r} at sentence {s_idx}, "
                f"position {t_idx}"
            ) from None
        padded.append(eos)
    if not padded:
        raise ValueError("training corpus is empty")

    ids = np.array(padded, dtype=np.int64)
    del padded  # 8 B per tag, freed before the counting passes that set the peak
    levels = [(np.zeros(1, dtype=np.int64), np.array([len(ids)]))]
    # prefix[i]: index of the window of length n-1 starting at i
    prefix = np.zeros(len(ids), dtype=np.int64)
    for n in range(1, order + 1):
        starts = len(ids) - n + 1
        keys = prefix[:starts] * len(symbols) + ids[n - 1 :]
        if n < order:
            keys, inverse, counts = np.unique(
                keys, return_inverse=True, return_counts=True
            )
            prefix[:starts] = inverse
        else:
            keys, counts = np.unique(keys, return_counts=True)
        levels.append((keys, counts))
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
    # the model's order-1 keys are all symbol ids, seen in training or not, so
    # an order-2 key's prefix is its first symbol's id
    keys = [np.arange(size, dtype=np.int64)] + [level[0] for level in levels[2:]]
    if order > 1:
        keys[1] = lasts[1][prefixes[2]] * size + lasts[2]
    logprob = [np.zeros(len(k)) for k in keys]
    has_prob = [np.zeros(len(k), dtype=bool) for k in keys]
    backoff = [np.zeros(len(k)) for k in keys]
    has_backoff = [np.zeros(len(k), dtype=bool) for k in keys]

    # unigrams: interpolate with the uniform distribution over the closed
    # vocabulary so unseen tags keep positive mass
    vocab_ids = np.array([symbols.index(word) for word in vocab])
    by_id = np.zeros(size, dtype=np.int64)
    by_id[lasts[1][grams[1]]] = adjusted[1][grams[1]]
    counts = by_id[vocab_ids]
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
    powers = powers[lasts[1]]

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
        contexts = ctx[starts] if n > 2 else lasts[1][ctx[starts]]
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


def _lookup(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of each query in the sorted ``keys``, -1 where it is absent."""
    if not len(keys):
        return np.full(len(query), -1, dtype=np.int64)
    found = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[found] == query, found, -1)


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
        window[known + 1] = _lookup(level.keys, prefix[known] * size + ids[known + 1])
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


def _sentence_scores(
    model: KneserNeyModel, sentences: Sequence[Sequence[str]]
) -> tuple[list[float], list[int], list[int]]:
    """Per non-empty sentence: log10 sum, scored and excluded counts. Every
    tag and the end marker is scored; out-of-vocabulary tags are excluded
    and truncate the history. A sentence's scores are summed in order."""
    order = model.order
    vocab_ids = {word: model._ids[word] for word in model.vocab}
    lengths = np.array([len(s) for s in sentences])
    tag_ids = np.array(
        [vocab_ids.get(tag, -1) for s in sentences for tag in s], dtype=np.int64
    )
    # each sentence: order-1 begin markers, its tags, one end marker
    sentence_of = np.repeat(np.arange(len(sentences)), lengths)
    tag_at = np.arange(len(tag_ids)) + sentence_of * order + order - 1
    end_at = np.cumsum(lengths) + np.arange(len(sentences)) * order + order - 1
    ids = np.full(
        len(tag_ids) + len(sentences) * order, model._ids.get(BOS, -1), dtype=np.int64
    )
    ids[tag_at] = tag_ids
    ids[end_at] = model._ids.get(EOS, -1)
    in_vocab = tag_ids >= 0
    is_target = np.zeros(len(ids), dtype=bool)
    is_target[tag_at[in_vocab]] = True
    is_target[end_at] = True
    values, unresolved = _walk(model, ids, np.flatnonzero(is_target))
    if unresolved.any():
        # every scored tag is in the vocabulary, so it has a unigram
        raise ValueError(f"symbol {EOS!r} is outside the model vocabulary")

    excluded = np.bincount(sentence_of[~in_vocab], minlength=len(sentences))
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
    return sums.tolist(), scored.tolist(), excluded.tolist()


def ppl(model: KneserNeyModel, sentences: Iterable[Sequence[str]]) -> PerplexityReport:
    """Perplexity 10^(-avg log10 P) over all scoring positions (every tag
    and each sentence's end marker), excluding out-of-vocabulary symbols from
    both the sum and the token count."""
    sentences = [tags for tags in sentences if tags]
    if not sentences:
        raise ValueError("empty test set")
    sums, scored, excluded = _sentence_scores(model, sentences)
    log_sum = _in_order(sums)
    return PerplexityReport(
        perplexity=10.0 ** (-log_sum / sum(scored)),
        scored=sum(scored),
        excluded=sum(excluded),
        log10_sum=log_sum,
    )


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
    sentences = [s for s in sentences if s]
    if not sentences:
        raise ValueError("empty test set")
    sums, scored, excluded = _sentence_scores(model, sentences)
    chunks = []
    for start in range(0, len(sentences), chunk_size_sentences):
        block = slice(start, start + chunk_size_sentences)
        log_sum = _in_order(sums[block])
        chunks.append(
            ChunkPerplexity(
                perplexity=10.0 ** (-log_sum / sum(scored[block])),
                scored=sum(scored[block]),
                excluded=sum(excluded[block]),
                log10_sum=log_sum,
                short=len(sums[block]) < chunk_size_sentences,
            )
        )
    total_log = _in_order(c.log10_sum for c in chunks)
    total_scored = sum(c.scored for c in chunks)
    return PerplexityReport(
        perplexity=10.0 ** (-total_log / total_scored),
        scored=total_scored,
        excluded=sum(c.excluded for c in chunks),
        log10_sum=total_log,
        per_chunk=tuple(chunks),
    )


# ---------------------------------------------------------------------------
# ARPA interchange


def write_arpa(model: KneserNeyModel, path: str | Path) -> None:
    """Standard ARPA text format, each section in key order, which is
    string-tuple order. Pure-context entries (the all-begin-marker runs)
    carry the conventional placeholder probability."""
    size = len(model.symbols)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        written = [np.flatnonzero(lv.has_prob | lv.has_backoff) for lv in model.levels]
        for n, entries in enumerate(written, start=1):
            fh.write(f"ngram {n}={len(entries)}\n")
        fh.write("\n")
        names = list(model.symbols)
        for n, (level, entries) in enumerate(zip(model.levels, written), start=1):
            if n > 1:
                prefix, last = np.divmod(level.keys, size)
                names = [
                    f"{names[p]} {model.symbols[w]}"
                    for p, w in zip(prefix.tolist(), last.tolist())
                ]
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


def _pack(rows: np.ndarray, keys: list[np.ndarray], size: int) -> np.ndarray:
    """Packed keys of the id rows (one n-gram per row), whose prefixes are
    all among ``keys`` (the keys of orders 1..n-1)."""
    index = rows[:, 0]
    for j in range(1, rows.shape[1] - 1):
        index = np.searchsorted(keys[j], index * size + rows[:, j])
    return index * size + rows[:, -1] if rows.shape[1] > 1 else index


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
    section: int | None = None
    seen: dict[int, int] = {}
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
                seen[n] = 0
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
                seen[section] += 1
                continue
    if state != "done":
        raise ValueError(f"{path}: missing \\end\\ marker")
    if not declared:
        raise ValueError(f"{path}: no n-gram sections declared")
    for n, count in declared.items():
        if seen.get(n, 0) != count:
            raise ValueError(
                f"{path}: section {n}-grams has {seen.get(n, 0)} entries, "
                f"header declares {count}"
            )

    order = max(declared)
    lines = [listed.get(n, []) for n in range(1, order + 1)]
    symbols = tuple(sorted({s for section in lines for gram, _, _ in section for s in gram}))
    size = len(symbols)
    ids = {symbol: i for i, symbol in enumerate(symbols)}
    rows = [
        np.array([[ids[s] for s in gram] for gram, _, _ in section], dtype=np.int64)
        .reshape(-1, n)
        for n, section in enumerate(lines, start=1)
    ]

    # every key's prefix is a key of the order below: collect the prefixes
    # top down, then pack bottom up
    needed = rows[:]
    for n in range(order - 1, 1, -1):
        needed[n - 1] = np.concatenate([needed[n - 1], needed[n][:, :-1]])
    keys = [np.arange(size, dtype=np.int64)]
    for n in range(2, order + 1):
        keys.append(np.unique(_pack(needed[n - 1], keys, size)))

    levels = []
    for level_keys, section, level_rows in zip(keys, lines, rows):
        at = np.searchsorted(level_keys, _pack(level_rows, keys, size))
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


def pos_sequences(corpus: Corpus) -> list[list[str]]:
    """POS tag sequences of a tagged corpus; every token must carry a tag
    (``Corpus.tags``)."""
    return corpus.tags()
