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
serialized in the ARPA text format.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus
from .lexicons import TagSet

BOS = "<s>"
EOS = "</s>"

_FALLBACK_DISCOUNT = 0.5
_PLACEHOLDER_LOG10 = -99.0


@dataclass(frozen=True)
class KneserNeyModel:
    order: int
    vocab: frozenset[str]  # predictable symbols: tagset + EOS
    logprobs: dict[tuple[str, ...], float]
    backoffs: dict[tuple[str, ...], float]
    discounts: tuple[tuple[float, float, float], ...] | None = None

    def logprob(self, word: str, history: Sequence[str]) -> float:
        """log10 P(word | history) via the standard backoff walk."""
        h = tuple(history)[-(self.order - 1) :] if self.order > 1 else ()
        acc = 0.0
        while h:
            stored = self.logprobs.get(h + (word,))
            if stored is not None:
                return acc + stored
            acc += self.backoffs.get(h, 0.0)
            h = h[1:]
        stored = self.logprobs.get((word,))
        if stored is None:
            raise ValueError(f"symbol {word!r} is outside the model vocabulary")
        return acc + stored

    def prob(self, word: str, history: Sequence[str]) -> float:
        return 10.0 ** self.logprob(word, history)


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
    scores_sentence_end: bool
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
    logprobs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}

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
    logprobs.update(zip([(word,) for word in vocab], level_lp))
    # 10 ** log10 P of every window of the level below, the lower-order
    # estimate a longer gram interpolates with
    powers = np.zeros(size)
    powers[vocab_ids] = [10.0**x for x in level_lp]
    powers = powers[lasts[1]]
    names = [(symbols[w],) for w in lasts[1].tolist()]

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
        backoffs.update(
            zip(
                [names[c] for c in ctx[starts].tolist()],
                [math.log10(g) for g in gammas.tolist()],
            )
        )
        names = [
            names[c] + (symbols[w],)
            for c, w in zip(prefixes[n].tolist(), lasts[n].tolist())
        ]
        logprobs.update(zip([names[i] for i in sel.tolist()], level_lp))
        powers = np.zeros(len(names))
        powers[sel] = [10.0**x for x in level_lp]

    return KneserNeyModel(
        order=order,
        vocab=frozenset(vocab),
        logprobs=logprobs,
        backoffs=backoffs,
        discounts=tuple(discounts[1:]),
    )


# ---------------------------------------------------------------------------
# perplexity


def _score_sentence(
    model: KneserNeyModel, tags: Sequence[str], score_sentence_end: bool
) -> tuple[float, int, int]:
    """(log10 sum, scored, excluded) for one sentence. Out-of-vocabulary
    positions are skipped and truncate the history at the excluded symbol."""
    history: list[str] = [BOS] * (model.order - 1)
    log_sum = 0.0
    scored = 0
    excluded = 0
    keep = max(model.order - 1, 1)
    for tag in tags:
        if tag not in model.vocab:
            excluded += 1
            history = []
            continue
        log_sum += model.logprob(tag, history)
        scored += 1
        history.append(tag)
        if len(history) > keep:
            history = history[-keep:]
    if score_sentence_end:
        log_sum += model.logprob(EOS, history)
        scored += 1
    return log_sum, scored, excluded


def ppl(
    model: KneserNeyModel,
    sentences: Iterable[Sequence[str]],
    score_sentence_end: bool = True,
) -> PerplexityReport:
    """Perplexity 10^(-avg log10 P) over all scoring positions, excluding
    out-of-vocabulary symbols from both the sum and the token count."""
    log_sum = 0.0
    scored = 0
    excluded = 0
    seen = False
    for tags in sentences:
        if not tags:
            continue
        seen = True
        s_log, s_scored, s_excl = _score_sentence(model, tags, score_sentence_end)
        log_sum += s_log
        scored += s_scored
        excluded += s_excl
    if not seen:
        raise ValueError("empty test set")
    if scored == 0:
        raise ValueError("no in-vocabulary scoring positions in the test set")
    return PerplexityReport(
        perplexity=10.0 ** (-log_sum / scored),
        scored=scored,
        excluded=excluded,
        log10_sum=log_sum,
        scores_sentence_end=score_sentence_end,
    )


def ppl_by_chunks(
    model: KneserNeyModel,
    sentences: Sequence[Sequence[str]],
    chunk_size_sentences: int = 100,
    score_sentence_end: bool = True,
) -> PerplexityReport:
    """Per-chunk perplexities over consecutive sentence blocks; a final short
    block is retained and flagged. The whole-set figures aggregate the
    per-chunk sums token-weighted."""
    if chunk_size_sentences < 1:
        raise ValueError("chunk_size_sentences must be >= 1")
    sentences = [list(s) for s in sentences if s]
    if not sentences:
        raise ValueError("empty test set")
    chunks: list[ChunkPerplexity] = []
    total_log = 0.0
    total_scored = 0
    total_excluded = 0
    for start in range(0, len(sentences), chunk_size_sentences):
        block = sentences[start : start + chunk_size_sentences]
        log_sum = 0.0
        scored = 0
        excluded = 0
        for tags in block:
            s_log, s_scored, s_excl = _score_sentence(model, tags, score_sentence_end)
            log_sum += s_log
            scored += s_scored
            excluded += s_excl
        if scored == 0:
            raise ValueError("a chunk has no in-vocabulary scoring positions")
        chunks.append(
            ChunkPerplexity(
                perplexity=10.0 ** (-log_sum / scored),
                scored=scored,
                excluded=excluded,
                log10_sum=log_sum,
                short=len(block) < chunk_size_sentences,
            )
        )
        total_log += log_sum
        total_scored += scored
        total_excluded += excluded
    return PerplexityReport(
        perplexity=10.0 ** (-total_log / total_scored),
        scored=total_scored,
        excluded=total_excluded,
        log10_sum=total_log,
        scores_sentence_end=score_sentence_end,
        per_chunk=tuple(chunks),
    )


# ---------------------------------------------------------------------------
# ARPA interchange


def write_arpa(model: KneserNeyModel, path: str | Path) -> None:
    """Standard ARPA text format. Pure-context entries (the all-begin-marker
    runs) carry the conventional placeholder probability."""
    by_order: list[dict[tuple[str, ...], tuple[float, float | None]]] = [
        {} for _ in range(model.order + 1)
    ]
    for gram, lp in model.logprobs.items():
        by_order[len(gram)][gram] = (lp, None)
    for ctx, bow in model.backoffs.items():
        lp = model.logprobs.get(ctx, _PLACEHOLDER_LOG10)
        by_order[len(ctx)][ctx] = (lp, bow)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        for n in range(1, model.order + 1):
            fh.write(f"ngram {n}={len(by_order[n])}\n")
        fh.write("\n")
        for n in range(1, model.order + 1):
            fh.write(f"\\{n}-grams:\n")
            for gram in sorted(by_order[n]):
                lp, bow = by_order[n][gram]
                line = f"{lp:.7f}\t{' '.join(gram)}"
                if bow is not None:
                    line += f"\t{bow:.7f}"
                fh.write(line + "\n")
            fh.write("\n")
        fh.write("\\end\\\n")


def read_arpa(path: str | Path) -> KneserNeyModel:
    """Parse an ARPA file back into a scoring model. Section lengths must
    match the \\data\\ header."""
    path = Path(path)
    logprobs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
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
                logprobs[gram] = float(fields[0])
                if len(fields) == 3:
                    backoffs[gram] = float(fields[2])
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
    vocab = frozenset(g[0] for g in logprobs if len(g) == 1 and g[0] != BOS)
    return KneserNeyModel(
        order=order,
        vocab=vocab,
        logprobs=logprobs,
        backoffs=backoffs,
        discounts=None,
    )


# ---------------------------------------------------------------------------
# POS sequences


def pos_sequences(corpus: Corpus) -> list[list[str]]:
    """POS tag sequences of a tagged corpus; every token must carry a tag."""
    out = []
    for s_idx, sent in enumerate(corpus.sentences):
        tags = []
        for t_idx, tok in enumerate(sent.tokens):
            if tok.pos is None:
                raise ValueError(
                    f"token {t_idx} of sentence {s_idx} is missing its POS tag"
                )
            tags.append(tok.pos)
        out.append(tags)
    return out
