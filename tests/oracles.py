"""Independent oracles: deliberately straightforward implementations used to
verify the production code, sharing none of its code paths.

* qp_oracle: grid-refinement maximization of the SVM dual over 4 points
* jacobi_eigh: cyclic Jacobi eigendecomposition for symmetric matrices
* ReferenceKN: modified Kneser-Ney conditional probabilities computed by
  direct recursive interpolation over brute-force counts
* reference_score: per-sentence n-gram model scores by the per-token backoff
  walk over string-tuple dicts
* t_two_tailed_numeric: two-tailed t-test p-value by Simpson integration of
  the t density
"""

import math

import numpy as np

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
