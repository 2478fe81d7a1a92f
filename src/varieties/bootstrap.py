"""Bootstrap significance machinery for metric triples, plus the paired t-test.

Two resampling tests over corpora N, NN, T and a metric function f:

* the total pairwise distance
      D_total = |f(N)-f(NN)| + |f(N)-f(T)| + |f(NN)-f(T)|
  is compared against resamples drawn from the pooled corpus (percentile
  p-value, all three samples drawn from the concatenation);

* the distance difference
      D_dif = |f(N)-f(K)| - |f(NN)-f(T)|,   K = the constrained variety
  closest to N on the original corpora, is resampled per-corpus and judged
  by its 95% confidence interval: min-end-point > 0 means p < 0.05.

Samples are drawn at sentence granularity (with replacement), growing until
the token target is reached; overshoot is allowed. All randomness flows
through numpy SeedSequence spawning, so results are reproducible and
independent of evaluation order.

A draw is an array of sentence indices, and one draw serves every metric:
``d_total_tests`` and ``d_dif_tests`` take the observed metric values of
N, NN and T and evaluate a ``Sample`` (such as ``metrics.SentenceStats``,
which gives all five metrics from per-sentence counts) on each draw.
D_total, the choice of K and D_dif each have one formula, shared by the
observed values and the resample series. ``test_d_total`` and
``test_d_dif`` run the same engine for one metric function over corpora,
materializing each draw as a corpus, for custom statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np
from scipy.special import betainc

from .corpus import Corpus

MetricFn = Callable[[Corpus], float]


@dataclass(frozen=True)
class BootstrapConfig:
    sample_tokens: int
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.sample_tokens <= 0:
            raise ValueError("sample_tokens must be positive")


@dataclass(frozen=True)
class BootstrapResult:
    observed: float
    series: tuple[float, ...]  # sorted ascending
    seed: int
    p_value: float | None = None
    p_is_upper_bound: bool = False
    ci: tuple[float, float] | None = None
    significant: bool | None = None
    k_label: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.series)

    def p_text(self) -> str:
        if self.p_value is None:
            return ""
        return ("p < " if self.p_is_upper_bound else "p = ") + f"{self.p_value:g}"


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p_value: float


# the statistics take floats or arrays of them alike, so observed values
# and resample series go through one formula
def _total_distance(f_n, f_nn, f_t):
    return abs(f_n - f_nn) + abs(f_n - f_t) + abs(f_nn - f_t)


def _k_label(f_n: float, f_nn: float, f_t: float) -> str:
    return "NN" if abs(f_n - f_nn) < abs(f_n - f_t) else "T"


def _distance_difference(f_n, f_k, f_nn, f_t):
    return abs(f_n - f_k) - abs(f_nn - f_t)


class Sample(Protocol):
    """A fixed set of sentences to resample: per-sentence token counts, and
    the metric values of any draw of them, given as sentence indices
    (``metrics.SentenceStats`` is one)."""

    tokens: np.ndarray

    def values(self, indices: np.ndarray) -> Sequence[float]: ...


class _SentencePool:
    """Sentence-granularity sampler over fixed per-sentence token counts."""

    def __init__(self, token_counts: np.ndarray):
        if len(token_counts) == 0:
            raise ValueError("cannot resample an empty corpus")
        self.token_counts = token_counts
        self.mean_tokens = float(token_counts.mean())

    def draw(self, rng: np.random.Generator, target_tokens: int) -> np.ndarray:
        """Sentence indices of a sample grown with replacement until its
        token count reaches the target (overshoot allowed)."""
        picked: list[np.ndarray] = []
        got = 0
        while got < target_tokens:
            need = target_tokens - got
            batch_size = max(8, int(need / self.mean_tokens * 1.2) + 1)
            batch = rng.integers(0, len(self.token_counts), size=batch_size)
            cumulative = got + np.cumsum(self.token_counts[batch])
            cut = int(np.searchsorted(cumulative, target_tokens, side="left"))
            if cut < batch_size:
                picked.append(batch[: cut + 1])
                got = int(cumulative[cut])
            else:
                picked.append(batch)
                got = int(cumulative[-1])
        return np.concatenate(picked)


def _resample(samples: Sequence[Sample], config: BootstrapConfig) -> np.ndarray:
    """Metric values of every draw: ``[j, s, m]`` is metric m on the draw
    from ``samples[s]`` in iteration j.

    Iteration j draws from the samples in order with its own generator,
    spawned from the config seed, so every metric sees the same draws and
    a draw does not depend on which metrics are evaluated.
    """
    pools = [_SentencePool(sample.tokens) for sample in samples]
    seeds = np.random.SeedSequence(config.seed).spawn(config.iterations)
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        rows.append(
            [
                sample.values(pool.draw(rng, config.sample_tokens))
                for sample, pool in zip(samples, pools)
            ]
        )
    return np.array(rows, dtype=float)


def _percentile_p(series: np.ndarray, observed: float) -> tuple[float, bool]:
    """Fraction of resamples >= observed; when none reach it, report the
    value as an upper bound (p < 1/iterations) instead of zero."""
    exceed = int((series >= observed).sum())
    if exceed == 0:
        return 1.0 / len(series), True
    return exceed / len(series), False


def _nearest_rank(sorted_values: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile of an ascending array."""
    n = len(sorted_values)
    idx = max(0, math.ceil(percentile / 100.0 * n) - 1)
    return float(sorted_values[idx])


def d_total_tests(
    pooled: Sample, observed: Sequence[Sequence[float]], config: BootstrapConfig
) -> list[BootstrapResult]:
    """Percentile bootstrap for D_total, one result per metric: all three
    per-iteration samples are drawn from the pooled corpora, so the resample
    series estimates the null of exchangeable varieties.

    ``observed`` holds the metric values of the original N, NN and T
    corpora, one row each.
    """
    values = _resample([pooled] * 3, config)
    series = _total_distance(values[:, 0], values[:, 1], values[:, 2])
    results = []
    for m, (f_n, f_nn, f_t) in enumerate(zip(*observed)):
        statistic = _total_distance(f_n, f_nn, f_t)
        sorted_series = np.sort(series[:, m])
        p_value, upper_bound = _percentile_p(sorted_series, statistic)
        results.append(
            BootstrapResult(
                observed=statistic,
                series=tuple(float(v) for v in sorted_series),
                seed=config.seed,
                p_value=p_value,
                p_is_upper_bound=upper_bound,
                significant=p_value < 0.05,
            )
        )
    return results


def d_dif_tests(
    samples: Sequence[Sample],
    observed: Sequence[Sequence[float]],
    config: BootstrapConfig,
) -> list[BootstrapResult]:
    """Confidence-interval bootstrap for D_dif with per-corpus resampling,
    one result per metric; ``samples`` and the rows of ``observed`` are N,
    NN and T.

    K is fixed once from the original corpora. The 95% interval spans the
    nearest-rank 2.5th and 97.5th percentiles; a min-end-point above zero
    flags NN-T proximity as significant (p < 0.05).
    """
    values = _resample(samples, config)
    results = []
    for m, (f_n, f_nn, f_t) in enumerate(zip(*observed)):
        k_label = _k_label(f_n, f_nn, f_t)
        k, f_k = (1, f_nn) if k_label == "NN" else (2, f_t)
        series = np.sort(
            _distance_difference(
                values[:, 0, m], values[:, k, m], values[:, 1, m], values[:, 2, m]
            )
        )
        lo = _nearest_rank(series, 2.5)
        hi = _nearest_rank(series, 97.5)
        results.append(
            BootstrapResult(
                observed=_distance_difference(f_n, f_k, f_nn, f_t),
                series=tuple(float(v) for v in series),
                seed=config.seed,
                ci=(lo, hi),
                significant=lo > 0.0,
                k_label=k_label,
            )
        )
    return results


class _CorpusSample:
    """The sentences of a corpus with one metric, ``fm``, evaluated on the
    corpus each draw makes."""

    def __init__(self, sentences: tuple, fm: MetricFn):
        self.sentences = sentences
        self.tokens = np.array([s.token_count for s in sentences])
        self.fm = fm

    def values(self, indices: np.ndarray) -> tuple[float]:
        sample = Corpus(
            sentences=tuple(self.sentences[i] for i in indices),
            provenance="bootstrap-sample",
        )
        return (self.fm(sample),)


def test_d_total(
    fm: MetricFn,
    c_n: Corpus,
    c_nn: Corpus,
    c_t: Corpus,
    config: BootstrapConfig,
) -> BootstrapResult:
    """Percentile bootstrap for D_total of one metric function: the
    ``d_total_tests`` engine, with each draw built as a corpus for ``fm``."""
    observed = [[fm(c)] for c in (c_n, c_nn, c_t)]
    pooled = _CorpusSample(c_n.sentences + c_nn.sentences + c_t.sentences, fm)
    return d_total_tests(pooled, observed, config)[0]


def test_d_dif(
    fm: MetricFn,
    c_n: Corpus,
    c_nn: Corpus,
    c_t: Corpus,
    config: BootstrapConfig,
) -> BootstrapResult:
    """Confidence-interval bootstrap for D_dif of one metric function: the
    ``d_dif_tests`` engine, with each draw built as a corpus for ``fm``."""
    corpora = (c_n, c_nn, c_t)
    observed = [[fm(c)] for c in corpora]
    samples = [_CorpusSample(c.sentences, fm) for c in corpora]
    return d_dif_tests(samples, observed, config)[0]


def paired_ttest(series_a: Sequence[float], series_b: Sequence[float]) -> TTestResult:
    """Two-tailed paired t-test: t = mean(d) / (sd(d)/sqrt(n)), with the
    p-value from the regularized-incomplete-beta form of the t CDF."""
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired series must be 1-D and of equal length")
    if len(a) < 2:
        raise ValueError("need at least 2 pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("differences have zero variance; t is undefined")
    n = len(d)
    t = float(d.mean() / (sd / math.sqrt(n)))
    df = n - 1
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t=t, df=df, p_value=p)
