"""Independent oracles: deliberately straightforward implementations used to
verify the production code, sharing none of its code paths.

* qp_oracle: grid-refinement maximization of the SVM dual over 4 points
* reference_smo: the SMO pair-update loop that rebuilds its gradient view
  and working sets on every iteration
* jacobi_eigh: cyclic Jacobi eigendecomposition for symmetric matrices
* ReferenceKN: modified Kneser-Ney conditional probabilities computed by
  direct recursive interpolation over brute-force counts
* reference_score: per-sentence n-gram model scores by the per-token backoff
  walk over string-tuple dicts
* t_two_tailed_numeric: two-tailed t-test p-value by Simpson integration of
  the t density
* reference_select_top_pos3, reference_select_postok_vocab,
  reference_vectorize: feature selection and vectorization from one Counter
  per chunk, merged per call
* reference_train_pairs, reference_vote: one-vs-one training on each label
  pair's masked rows, and the vote of one example, a loop over the pair
  models' ``decision`` values
* reference_cross_validate: cross-validation of one feature plan, selecting
  and vectorizing each fold's training and held-out chunks apart with the
  reference feature code and voting chunk by chunk; only fold dealing and
  ``train_binary`` are the package's own
* reference_write_jsonl: canonical JSONL, one json.dumps of a record dict
  per sentence
* reference_ingest: the object reader, one validated ``Token`` per token and
  one ``AnnotatedSentence`` per record, checking each record field by field
  in order
* reference_match_phrases: greedy longest-first phrase matching in one
  sentence, a loop over its positions and the entries that start with each
  word
* reference_sentence_counts: the per-sentence metric quantities from token
  fields, one loop per sentence
"""

import json
import math
from collections import Counter
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from varieties.corpus import VARIETY_LABELS, AnnotatedSentence, Corpus, Token, tokenize_raw
from varieties.errors import ConvergenceError, CorpusFormatError

BOS = "<s>"
EOS = "</s>"


# ---------------------------------------------------------------------------
# SVM dual, brute force


def svm_dual(alpha, X, y):
    Q = (y[:, None] * X) @ (y[:, None] * X).T
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def qp_oracle_4pt(X, y, C, rounds=12, grid=13):
    """Maximize the dual over the box + equality constraint by iterated grid
    refinement over the first three alphas (the fourth is determined)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    assert len(y) == 4
    lo = np.zeros(3)
    hi = np.full(3, float(C))
    best_value = -np.inf
    best_alpha = None
    for _ in range(rounds):
        axes = [np.linspace(lo[k], hi[k], grid) for k in range(3)]
        for a0 in axes[0]:
            for a1 in axes[1]:
                for a2 in axes[2]:
                    a3 = -(a0 * y[0] + a1 * y[1] + a2 * y[2]) / y[3]
                    if a3 < -1e-12 or a3 > C + 1e-12:
                        continue
                    alpha = np.array([a0, a1, a2, min(max(a3, 0.0), C)])
                    value = svm_dual(alpha, X, y)
                    if value > best_value:
                        best_value = value
                        best_alpha = alpha
        span = (hi - lo) * (2.0 / (grid - 1))
        center = best_alpha[:3]
        lo = np.maximum(0.0, center - span)
        hi = np.minimum(C, center + span)
    return best_value, best_alpha


# ---------------------------------------------------------------------------
# SVM dual, textbook SMO loop


def reference_smo(K: np.ndarray, y: np.ndarray, C: float, tol: float, max_iter: int):
    """SMO with the maximal-violating-pair rule as a textbook loop: every
    iteration rebuilds yG = -y*G and the I_up/I_low masks from alpha and G.
    Returns (alpha, bias, objective trace, gap)."""
    n = y.shape[0]
    alpha = np.zeros(n)
    G = -np.ones(n)  # gradient of 1/2 a'Qa - sum(a)
    trace = []

    def objective() -> float:
        # W(a) = sum(a) - 1/2 a'Qa, and a'Qa = a.(G + 1)
        return float(0.5 * alpha.sum() - 0.5 * alpha @ G)

    trace.append(objective())
    gap = np.inf
    pos = y > 0
    for _ in range(max_iter):
        yG = -y * G
        up = (pos & (alpha < C)) | (~pos & (alpha > 0.0))
        low = (pos & (alpha > 0.0)) | (~pos & (alpha < C))
        if not up.any() or not low.any():
            gap = 0.0
            break
        i = int(np.flatnonzero(up)[np.argmax(yG[up])])
        j = int(np.flatnonzero(low)[np.argmin(yG[low])])
        gap = yG[i] - yG[j]
        if gap <= tol:
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step = gap / max(eta, 1e-12)
        headroom_i = C - alpha[i] if y[i] > 0 else alpha[i]
        headroom_j = alpha[j] if y[j] > 0 else C - alpha[j]
        step = min(step, headroom_i, headroom_j)
        # land exactly on the box boundary when the step is clipped there
        if step >= headroom_i:
            alpha[i] = C if y[i] > 0 else 0.0
        else:
            alpha[i] += y[i] * step
        if step >= headroom_j:
            alpha[j] = 0.0 if y[j] > 0 else C
        else:
            alpha[j] -= y[j] * step
        G += y * step * (K[:, i] - K[:, j])
        obj = objective()
        if obj < trace[-1] - 1e-9 * max(1.0, abs(obj)):
            raise AssertionError(
                f"dual objective decreased: {trace[-1]} -> {obj}"
            )
        trace.append(obj)
    else:
        raise ConvergenceError(
            f"SMO did not reach tol={tol} within {max_iter} iterations "
            f"(KKT gap {gap:.3e})"
        )

    # admissible bias lies in [m(a), M(a)]; take the midpoint
    yG = -y * G
    up = (pos & (alpha < C)) | (~pos & (alpha > 0.0))
    low = (pos & (alpha > 0.0)) | (~pos & (alpha < C))
    m = yG[up].max() if up.any() else 0.0
    M = yG[low].min() if low.any() else 0.0
    bias = 0.5 * (m + M)
    return alpha, float(bias), tuple(trace), float(max(gap, 0.0))


# ---------------------------------------------------------------------------
# symmetric eigendecomposition, cyclic Jacobi


def jacobi_eigh(A, sweeps=100, tol=1e-14):
    """(eigenvalues desc, eigenvectors as columns) via Jacobi rotations."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = math.sqrt(sum(A[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    order = np.argsort(-np.diag(A))
    return np.diag(A)[order], V[:, order]


# ---------------------------------------------------------------------------
# modified Kneser-Ney, direct recursion


class ReferenceKN:
    """Recomputes modified-KN conditionals from scratch: brute-force window
    counts, continuation counts via explicit left-extension scans, and the
    textbook recursive interpolation (no fold-in, no backoff walk)."""

    FALLBACK = 0.5

    def __init__(self, sentences, tagset, order):
        self.order = order
        self.vocab = sorted(tagset) + [EOS]
        self.padded = [[BOS] * (order - 1) + list(s) + [EOS] for s in sentences]
        self.symbols = sorted({w for p in self.padded for w in p})
        self._windows = {}
        for padded in self.padded:
            for n in range(1, order + 1):
                for i in range(len(padded) - n + 1):
                    gram = tuple(padded[i : i + n])
                    self._windows[gram] = self._windows.get(gram, 0) + 1
        self._discounts = {n: self._estimate_discounts(n) for n in range(1, order + 1)}

    # -- counting ----------------------------------------------------------
    def raw_count(self, gram):
        return self._windows.get(tuple(gram), 0)

    def observed_grams(self, n):
        return {
            gram
            for gram in self._windows
            if len(gram) == n and gram[-1] != BOS
        }

    def adjusted_count(self, gram):
        gram = tuple(gram)
        if len(gram) == self.order or gram[0] == BOS:
            return self.raw_count(gram)
        return sum(
            1 for v in self.symbols if self.raw_count((v,) + gram) > 0
        )

    # -- discounts ----------------------------------------------------------
    def _estimate_discounts(self, n):
        counts = [self.adjusted_count(g) for g in self.observed_grams(n)]
        n1 = counts.count(1)
        n2 = counts.count(2)
        n3 = counts.count(3)
        n4 = counts.count(4)
        if n1 == 0 or n2 == 0:
            return (self.FALLBACK,) * 3
        y = n1 / (n1 + 2.0 * n2)
        out = []
        for k, nk, nk1 in ((1, n1, n2), (2, n2, n3), (3, n3, n4)):
            d = k - (k + 1.0) * y * nk1 / nk if nk else self.FALLBACK
            if not 0.0 < d < k:
                d = self.FALLBACK
            out.append(d)
        return tuple(out)

    def _discount_for(self, count, discounts):
        if count >= 3:
            return discounts[2]
        if count == 2:
            return discounts[1]
        if count == 1:
            return discounts[0]
        return 0.0

    # -- probabilities -------------------------------------------------------
    def prob(self, word, history):
        history = tuple(history)[-(self.order - 1) :] if self.order > 1 else ()
        return self._prob(word, history)

    def _prob(self, word, history):
        n = len(history) + 1
        if n == 1:
            counts = {
                g[0]: self.adjusted_count(g) for g in self.observed_grams(1)
            }
            total = sum(counts.values())
            discounts = self._discounts[1]
            gamma = self._gamma(counts, discounts) / total
            base = 1.0 / len(self.vocab)
            count = counts.get(word, 0)
            p = gamma * base
            if count:
                p += max(count - self._discount_for(count, discounts), 0.0) / total
            return p
        words = {
            g[-1]: self.adjusted_count(g)
            for g in self.observed_grams(n)
            if g[:-1] == history
        }
        if not words:
            return self._prob(word, history[1:])
        total = sum(words.values())
        discounts = self._discounts[n]
        gamma = self._gamma(words, discounts) / total
        count = words.get(word, 0)
        p = gamma * self._prob(word, history[1:])
        if count:
            p += max(count - self._discount_for(count, discounts), 0.0) / total
        return p

    def _gamma(self, counts, discounts):
        mass = 0.0
        for count in counts.values():
            mass += self._discount_for(count, discounts)
        return mass

    def contexts(self):
        """Every observed context at every order 1..order-1 (for exhaustive
        normalization checks), including the all-begin-marker runs."""
        seen = set()
        for n in range(2, self.order + 1):
            for padded in self.padded:
                for i in range(len(padded) - n + 1):
                    gram = tuple(padded[i : i + n])
                    if gram[-1] != BOS:
                        seen.add(gram[:-1])
        return sorted(seen)


# ---------------------------------------------------------------------------
# n-gram model scores, per-token backoff walk


def reference_score(model, sentences):
    """(log10 sum, scored, excluded) of each sentence, end marker included,
    by walking string-tuple dicts copied from ``model.logprobs`` and
    ``model.backoffs`` token by token: each position takes its longest
    stored n-gram plus the backoff of every longer context. Tags outside
    ``model.vocab`` are skipped and cut the history."""
    logprobs = dict(model.logprobs.items())
    backoffs = dict(model.backoffs.items())

    def logprob(word, history):
        h = tuple(history)[-(model.order - 1) :] if model.order > 1 else ()
        acc = 0.0
        while h:
            stored = logprobs.get(h + (word,))
            if stored is not None:
                return acc + stored
            acc += backoffs.get(h, 0.0)
            h = h[1:]
        return acc + logprobs[(word,)]

    scores = []
    for tags in sentences:
        history = [BOS] * (model.order - 1)
        log_sum = 0.0
        scored = 0
        excluded = 0
        for tag in tags:
            if tag not in model.vocab:
                excluded += 1
                history = []
                continue
            log_sum += logprob(tag, history)
            scored += 1
            history.append(tag)
        log_sum += logprob(EOS, history)
        scored += 1
        scores.append((log_sum, scored, excluded))
    return scores


# ---------------------------------------------------------------------------
# t distribution, numeric integration


def t_density(x, df):
    log_c = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return np.exp(log_c - ((df + 1) / 2.0) * np.log1p(x * x / df))


def t_two_tailed_numeric(t, df, points=200_001):
    """2 * integral_{|t|}^{inf} f(x; df) dx with the substitution
    x = |t| + s/(1-s), Simpson on a uniform s grid."""
    t = abs(float(t))
    s = np.linspace(0.0, 1.0 - 1e-9, points)
    x = t + s / (1.0 - s)
    integrand = t_density(x, df) / (1.0 - s) ** 2
    h = s[1] - s[0]
    weights = np.ones(points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    tail = float((weights * integrand).sum() * h / 3.0)
    return 2.0 * tail


# ---------------------------------------------------------------------------
# feature selection and vectorization, one Counter per chunk


def reference_chunk_counts(chunk, family, keys=()):
    """One chunk's raw counts in ``family``: FW counts every surface, COH
    matches the phrases in ``keys`` case-insensitively, longest first."""
    phrases = sorted((tuple(key.split()) for key in keys), key=len, reverse=True)
    counts = Counter()
    for sent in chunk.sentences:
        words = [t.surface for t in sent.tokens]
        n = len(words)
        if family == "FW":
            counts.update(words)
        elif family == "POS3":
            tags = [t.pos for t in sent.tokens]
            counts.update("_".join(tags[i : i + 3]) for i in range(n - 2))
        elif family == "POSTOK":
            if n >= 1:
                counts[f"first:{words[0]}"] += 1
                counts[f"last:{words[-1]}"] += 1
            if n >= 2:
                counts[f"second:{words[1]}"] += 1
                counts[f"penultimate:{words[-2]}"] += 1
            if n >= 3:
                counts[f"third:{words[2]}"] += 1
        else:
            lowered = [w.lower() for w in words]
            i = 0
            while i < n:
                hit = next((p for p in phrases if tuple(lowered[i : i + len(p)]) == p), None)
                if hit is None:
                    i += 1
                else:
                    counts[" ".join(hit)] += 1
                    i += len(hit)
    return counts


def _reference_totals(chunks, family):
    totals = Counter()
    for chunk in chunks:
        totals.update(reference_chunk_counts(chunk, family))
    return totals


def reference_pos3_order(chunks):
    """(trigram, total) pairs, most frequent first, ties lexicographic."""
    totals = _reference_totals(chunks, "POS3")
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))


def reference_select_top_pos3(chunks, k):
    return tuple(key for key, _ in reference_pos3_order(chunks)[:k])


def reference_select_postok_vocab(chunks, min_count):
    totals = _reference_totals(chunks, "POSTOK")
    return tuple(sorted(key for key, c in totals.items() if c >= min_count))


def reference_vectorize(chunks, spaces):
    """One row per chunk: each space key's raw count over the chunk's token
    count."""
    X = np.zeros((len(chunks), sum(len(space.keys) for space in spaces)))
    for r, chunk in enumerate(chunks):
        tokens = sum(len(sent.tokens) for sent in chunk.sentences)
        offset = 0
        for space in spaces:
            counts = reference_chunk_counts(chunk, space.family, space.keys)
            for i, key in enumerate(space.keys):
                if counts[key]:
                    X[r, offset + i] = counts[key] / tokens
            offset += len(space.keys)
    return X


def reference_train_pairs(X, labels, C):
    """The labels in sorted order and one ``train_binary`` model per label
    pair, each on the pair's rows picked by a boolean mask."""
    from varieties.svm import train_binary

    order = tuple(sorted(set(labels), key=repr))
    models = []
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            in_pair = np.array([lab in (order[a], order[b]) for lab in labels])
            models.append(
                train_binary(X[in_pair], [lab for lab, keep in zip(labels, in_pair) if keep], C=C)
            )
    return order, models


def reference_vote(models, order, x):
    """One example's one-vs-one vote, one ``decision`` call per pair model:
    the majority wins, then the larger sum of winning |decision|, then the
    label first in ``order``; a decision of 0 goes to the model's first
    label."""
    votes = {lab: 0 for lab in order}
    magnitude = {lab: 0.0 for lab in order}
    for model in models:
        value = model.decision(x)
        winner = model.labels[0] if value >= 0 else model.labels[1]
        votes[winner] += 1
        magnitude[winner] += abs(value)
    # max keeps the first of equal keys
    return max(order, key=lambda lab: (votes[lab], magnitude[lab]))


def reference_cross_validate(chunks, labels, plan, folds, seed, C):
    """One plan's stratified k-fold CV as a loop over folds: each fold selects
    the plan's spaces from its training chunks and vectorizes its training
    and held-out chunks separately, then votes chunk by chunk. Returns (fold
    accuracies, confusion, label order)."""
    from varieties.svm import stratified_folds

    order = tuple(sorted(set(labels), key=repr))
    confusion = np.zeros((len(order), len(order)), dtype=int)
    accuracies = []
    for test_idx in stratified_folds(labels, folds, seed):
        train_idx = [i for i in range(len(chunks)) if i not in set(test_idx)]
        train = [chunks[i] for i in train_idx]
        keys = {
            "FW": lambda: tuple(sorted(plan.resources.function_words.entries)),
            "POS3": lambda: reference_select_top_pos3(train, plan.top_pos3),
            "POSTOK": lambda: reference_select_postok_vocab(train, plan.postok_min_count),
            "COH": lambda: tuple(e.text for e in plan.resources.cohesive_markers.entries),
        }
        spaces = [SimpleNamespace(family=f, keys=keys[f]()) for f in plan.families]
        train_order, models = reference_train_pairs(
            reference_vectorize(train, spaces), [labels[i] for i in train_idx], C
        )
        held_out = reference_vectorize([chunks[i] for i in test_idx], spaces)
        hits = 0
        for i, x in zip(test_idx, held_out):
            predicted = reference_vote(models, train_order, x)
            confusion[order.index(labels[i]), order.index(predicted)] += 1
            hits += predicted == labels[i]
        accuracies.append(hits / len(test_idx))
    return tuple(accuracies), confusion, order


# ---------------------------------------------------------------------------
# canonical JSONL


def reference_write_jsonl(corpus, path):
    """One ``json.dumps(record, ensure_ascii=False)`` line per sentence; an
    all-null ``pos`` or ``lemma`` array and a null country or family are
    left out."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent in corpus.sentences:
            pos = [t.pos for t in sent.tokens]
            lemma = [t.lemma for t in sent.tokens]
            record = {"tokens": [t.surface for t in sent.tokens]}
            if any(p is not None for p in pos):
                record["pos"] = pos
            if any(m is not None for m in lemma):
                record["lemma"] = lemma
            record["variety"] = sent.variety
            if sent.country is not None:
                record["country"] = sent.country
            if sent.family is not None:
                record["family"] = sent.family
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def reference_ingest(path, fmt="jsonl", default_variety=None):
    """A corpus file read into ``AnnotatedSentence`` objects, a record or
    sentence at a time; the first check that fails raises. A JSONL record is
    checked for its structure and field types, then its variety, then its
    tokens in order (``Token``), then its metadata (``AnnotatedSentence``). A
    vertical token line raises as it is read, a sentence's metadata when the
    sentence ends. Every error names the file: ``path:line: message``."""
    path = Path(path)
    read = _reference_jsonl if fmt == "jsonl" else _reference_vertical
    try:
        sentences = read(path, default_variety)
    except CorpusFormatError as exc:
        raise CorpusFormatError(exc.reason, exc.line, path) from None
    if not sentences:
        raise CorpusFormatError("empty corpus file", path=path)
    return Corpus(sentences, provenance=str(path))


def _reference_jsonl(path, default_variety):
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc.msg}", line_no) from None
            sentences.append(_reference_record(record, line_no, default_variety))
    return sentences


def _reference_record(record, line_no, default_variety):
    def fail(message):
        return CorpusFormatError(message, line_no)

    if not isinstance(record, dict):
        raise fail("record is not a JSON object")
    if "tokens" in record:
        surfaces = record["tokens"]
        if not isinstance(surfaces, list) or any(type(s) is not str for s in surfaces):
            raise fail('"tokens" must be an array of strings')
    elif "text" in record:
        if not isinstance(record["text"], str):
            raise fail('"text" must be a string')
        surfaces = tokenize_raw(record["text"])
        if not surfaces:
            raise fail("no tokens survive raw-text tokenization")
    else:
        raise fail('record lacks a "tokens" or "text" field')
    for key in ("pos", "lemma"):
        value = record.get(key)
        if value is not None and (not isinstance(value, list) or len(value) != len(surfaces)):
            raise fail(f'"{key}" must be an array aligned with the tokens')
        if value is not None and any(v is not None and type(v) is not str for v in value):
            raise fail(f'"{key}" entries must be strings or null')
    for key in ("country", "family"):
        value = record.get(key)
        if value is not None and not isinstance(value, str):
            raise fail(f'"{key}" must be a string')
    variety = record.get("variety", default_variety)
    if variety not in VARIETY_LABELS:
        raise fail(f"unknown variety label {variety!r}")
    try:
        tokens = [
            Token(*fields)
            for fields in zip(
                surfaces, record.get("pos") or repeat(None), record.get("lemma") or repeat(None)
            )
        ]
        return AnnotatedSentence(tokens, variety, record.get("country"), record.get("family"))
    except ValueError as exc:
        raise fail(str(exc)) from None


def _reference_vertical(path, default_variety):
    sentences = []
    tokens = []
    meta = {"variety": default_variety, "country": None, "family": None}
    start_line = 1

    def flush():
        if not tokens:
            return
        if meta["variety"] not in VARIETY_LABELS:
            raise CorpusFormatError(f"unknown variety label {meta['variety']!r}", start_line)
        try:
            sentences.append(
                AnnotatedSentence(tokens[:], meta["variety"], meta["country"], meta["family"])
            )
        except ValueError as exc:
            raise CorpusFormatError(str(exc), start_line) from None
        tokens.clear()

    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                flush()
                if line.startswith("#"):
                    key, sep, value = line[1:].partition("=")
                    if not sep or key.strip() not in meta:
                        raise CorpusFormatError(f"unknown header {line!r}", line_no)
                    meta[key.strip()] = value.strip() or None
                start_line = line_no + 1
                continue
            fields = line.split("\t")
            if len(fields) > 3:
                raise CorpusFormatError("expected surface<TAB>pos<TAB>lemma", line_no)
            fields += [""] * (3 - len(fields))
            try:
                tokens.append(Token(fields[0], fields[1] or None, fields[2] or None))
            except ValueError as exc:
                raise CorpusFormatError(str(exc), line_no) from None
        flush()
    return sentences


# ---------------------------------------------------------------------------
# phrase matching and per-sentence metric counts, one sentence at a time


def reference_match_phrases(tokens, phrases):
    """(entry, start) pairs of one sentence: at each position the longest
    entry whose tokens follow (ties: token order, then list order) wins and
    scanning resumes past it."""
    by_first = {}
    for entry in phrases.entries:
        by_first.setdefault(entry.tokens[0], []).append(entry)
    for candidates in by_first.values():
        candidates.sort(key=lambda e: (-len(e.tokens), e.tokens))
    lowered = [t.lower() for t in tokens]
    matches = []
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


PRONOUN_TAGS = ("PRP", "PRP$")


def reference_sentence_counts(corpora, resources):
    """Per sentence of ``corpora`` laid end to end: (tokens, pronouns, rank
    sum, ranked tokens, transitions), its lemmas and its idiom match texts."""
    markers = [e for e in resources.cohesive_markers.entries if e.category == "sentence_transition"]
    markers = SimpleNamespace(entries=tuple(markers))
    counts, lemmas, idioms = [], [], []
    for corpus in corpora:
        for sent in corpus.sentences:
            surfaces = [t.surface for t in sent.tokens]
            rank_sum = ranked = 0
            for surface in surfaces:
                rank = resources.word_ranks.ranks.get(surface)
                if surface not in resources.function_words.entries and rank is not None:
                    rank_sum += rank
                    ranked += 1
            pronouns = sum(t.pos in PRONOUN_TAGS for t in sent.tokens)
            transitions = len(reference_match_phrases(surfaces, markers))
            counts.append((len(surfaces), pronouns, rank_sum, ranked, transitions))
            lemmas.append([t.lemma if t.lemma is not None else t.surface for t in sent.tokens])
            idioms.append(
                [e.text for e, _ in reference_match_phrases(surfaces, resources.idioms)]
            )
    return counts, lemmas, idioms
