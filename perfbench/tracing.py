"""Outside-in span recorder for the benchmark's traced passes.

``install`` wraps the package's public functions at the bindings the
pipeline looks them up through (``match_phrases`` in both ``features`` and
``metrics``, ``vectorize_chunks`` in both ``features`` and ``svm``, ...), so
no module of the package changes. Spans (name, start, end, parent, notes)
are kept in memory and written out when the pass ends; ``layer_metrics``
turns one pass's spans into the per-layer metrics below.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

STAGES = ("ingest", "classify", "cluster", "metrics", "lm")
# function in varieties.metrics -> the metric name the pipeline reports
METRIC_FUNCTIONS = {
    "ttr": "lexical_richness",
    "mean_word_rank": "mean_word_rank",
    "collocation_types": "collocation_types",
    "transitions": "transitions",
    "pronouns": "pronouns",
}
METRICS = tuple(METRIC_FUNCTIONS.values())

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = (
    *((f"pipeline.stage_s.{s}", "s", "lower") for s in STAGES),
    ("pipeline.self_s", "s", "lower"),
    ("corpus.calls", "count", "lower"),
    ("corpus.ingest_s", "s", "lower"),
    ("corpus.ingest_tokens_per_s", "tokens/s", "higher"),
    ("corpus.parse_ratio", "ratio", "lower"),
    ("corpus.write_jsonl_s", "s", "lower"),
    ("corpus.chunk_s", "s", "lower"),
    ("features.calls", "count", "lower"),
    ("features.fit_s", "s", "lower"),
    ("features.vectorize_s", "s", "lower"),
    ("features.chunk_vectorizations", "count", "lower"),
    ("features.recount_ratio", "ratio", "lower"),
    ("features.chunks_per_s", "chunks/s", "higher"),
    ("svm.train_s", "s", "lower"),
    ("svm.train_calls", "count", "lower"),
    ("svm.smo_iterations", "count", "lower"),
    ("svm.support_vectors", "count", "lower"),
    ("svm.cv_self_s", "s", "lower"),
    ("clustering.calls", "count", "lower"),
    ("clustering.kmeans_s", "s", "lower"),
    ("clustering.pca_s", "s", "lower"),
    ("lexicons.match_phrases_s", "s", "lower"),
    ("lexicons.match_phrases_calls", "count", "lower"),
    ("lexicons.calls_per_sentence", "ratio", "lower"),
    ("metrics.eval_s", "s", "lower"),
    ("metrics.evals", "count", "lower"),
    ("bootstrap.calls", "count", "lower"),
    ("bootstrap.test_s", "s", "lower"),
    ("bootstrap.self_s", "s", "lower"),
    *((f"bootstrap.resamples_per_s.{m}", "resamples/s", "higher") for m in METRICS),
    ("poslm.calls", "count", "lower"),
    ("poslm.train_s", "s", "lower"),
    ("poslm.train_tokens_per_s", "tokens/s", "higher"),
    ("poslm.ngrams", "count", "lower"),
    ("poslm.discount_fallbacks", "count", "lower"),
    ("poslm.score_s", "s", "lower"),
    ("poslm.score_tokens_per_s", "tokens/s", "higher"),
    ("poslm.write_arpa_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}
# metrics that count work instead of timing it; they repeat exactly
EXACT_UNITS = ("count", "ratio")


class Recorder:
    """Spans in call order; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> dict:
        span = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": 0.0,
            "end": 0.0,
            "notes": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    def current(self) -> dict:
        return self.spans[self._open[-1]]

    def root(self) -> int:
        return self._open[0]

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording one span per call; ``note(args, kwargs, result)``
        returns the span's notes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if note is not None:
                span["notes"] = note(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(rec: Recorder) -> None:
    """Wrap every traced binding of the imported package."""
    from varieties import bootstrap, clustering, features, metrics, pipeline, poslm, svm

    def patch(owner, attr: str, name: str, note=None):
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), note))

    patch(pipeline, "ingest", "corpus.ingest", lambda a, k, r: {"tokens": r.token_count})
    patch(pipeline, "chunk", "corpus.chunk")
    patch(pipeline, "write_jsonl", "corpus.write_jsonl")

    patch(features.FeaturePlan, "fit", "features.fit")

    def vectorized(args, kwargs, result):
        chunks = _arg(args, kwargs, 0, "chunks")
        # chunk objects live for their whole stage, so (stage, id) is distinct
        return {"chunks": len(chunks), "keys": [[rec.root(), id(c)] for c in chunks]}

    for owner in (features, svm):
        patch(owner, "vectorize_chunks", "features.vectorize_chunks", vectorized)

    patch(
        svm,
        "train_binary",
        "svm.train_binary",
        lambda a, k, model: {
            "iterations": len(model.objective_path) - 1,
            "support_vectors": int((model.alphas > 0).sum()),
        },
    )
    patch(svm, "cross_validate", "svm.cross_validate")

    patch(clustering, "bisecting_kmeans", "clustering.bisecting_kmeans")
    patch(clustering, "pca_2d", "clustering.pca_2d")

    for owner in (features, metrics):
        patch(owner, "match_phrases", "lexicons.match_phrases")

    def evaluated(args, kwargs, result):
        corpus = _arg(args, kwargs, 0, "corpus")
        return {"resample": corpus.provenance == "bootstrap-sample"}

    for fn, metric in METRIC_FUNCTIONS.items():
        patch(metrics, fn, f"metrics.{metric}", evaluated)

    patch(bootstrap, "test_d_total", "bootstrap.test_d_total")
    patch(bootstrap, "test_d_dif", "bootstrap.test_d_dif")

    train_lm = poslm.train_lm

    def train_lm_counting_fallbacks(*args, **kwargs):
        # a discount fallback is reported only as a UserWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = train_lm(*args, **kwargs)
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        rec.current()["fallbacks"] = sum(issubclass(w.category, UserWarning) for w in caught)
        return model

    def trained(args, kwargs, model):
        sentences = _arg(args, kwargs, 0, "sentences")
        return {
            "tokens": sum(len(s) for s in sentences),
            "ngrams": len(model.logprobs),
        }

    poslm.train_lm = rec.wrap("poslm.train_lm", train_lm_counting_fallbacks, trained)
    scored = lambda a, k, report: {"scored": report.scored}
    patch(poslm, "ppl", "poslm.ppl", scored)
    patch(poslm, "ppl_by_chunks", "poslm.ppl_by_chunks", scored)
    patch(poslm, "write_arpa", "poslm.write_arpa")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[dict], inputs: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_s`` excepted,
    which needs an untraced pass too)."""
    duration = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            covered[s["parent"]] += duration[i]
    self_time = [d - c for d, c in zip(duration, covered)]

    def named(*names: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def total(indices, of=duration) -> float:
        return sum(of[i] for i in indices)

    def noted(indices, key: str) -> float:
        return sum(spans[i]["notes"][key] for i in indices)

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"pipeline.stage_s.{stage}"] = total(named(f"pipeline.{stage}"))
    m["pipeline.self_s"] = total(named(*(f"pipeline.{s}" for s in STAGES)), self_time)

    ingest = named("corpus.ingest")
    m["corpus.calls"] = len(named("corpus.ingest", "corpus.chunk", "corpus.write_jsonl"))
    m["corpus.ingest_s"] = total(ingest)
    m["corpus.ingest_tokens_per_s"] = _ratio(noted(ingest, "tokens"), total(ingest))
    m["corpus.parse_ratio"] = _ratio(len(ingest), len(inputs["files"]))
    m["corpus.write_jsonl_s"] = total(named("corpus.write_jsonl"))
    m["corpus.chunk_s"] = total(named("corpus.chunk"))

    fit = named("features.fit")
    vectorize = named("features.vectorize_chunks")
    vectorizations = noted(vectorize, "chunks")
    distinct = {tuple(key) for i in vectorize for key in spans[i]["notes"]["keys"]}
    m["features.calls"] = len(fit) + len(vectorize)
    m["features.fit_s"] = total(fit)
    m["features.vectorize_s"] = total(vectorize)
    m["features.chunk_vectorizations"] = vectorizations
    m["features.recount_ratio"] = _ratio(vectorizations, len(distinct))
    m["features.chunks_per_s"] = _ratio(vectorizations, total(vectorize))

    train = named("svm.train_binary")
    m["svm.train_s"] = total(train)
    m["svm.train_calls"] = len(train)
    m["svm.smo_iterations"] = noted(train, "iterations")
    m["svm.support_vectors"] = noted(train, "support_vectors")
    m["svm.cv_self_s"] = total(named("svm.cross_validate"), self_time)

    kmeans = named("clustering.bisecting_kmeans")
    pca = named("clustering.pca_2d")
    m["clustering.calls"] = len(kmeans) + len(pca)
    m["clustering.kmeans_s"] = total(kmeans)
    m["clustering.pca_s"] = total(pca)

    match = named("lexicons.match_phrases")
    m["lexicons.match_phrases_s"] = total(match)
    m["lexicons.match_phrases_calls"] = len(match)
    m["lexicons.calls_per_sentence"] = _ratio(len(match), inputs["sentences"])

    evals = named(*(f"metrics.{metric}" for metric in METRICS))
    m["metrics.eval_s"] = total(evals, self_time)
    m["metrics.evals"] = len(evals)

    tests = named("bootstrap.test_d_total", "bootstrap.test_d_dif")
    m["bootstrap.calls"] = len(tests)
    m["bootstrap.test_s"] = total(tests)
    m["bootstrap.self_s"] = total(tests, self_time)
    # a test evaluates one metric; its resamples are the metric spans under
    # it that got a bootstrap sample
    resamples = {metric: 0 for metric in METRICS}
    tests_of = {metric: set() for metric in METRICS}
    test_set = set(tests)
    for i in evals:
        parent = spans[i]["parent"]
        if parent in test_set:
            metric = spans[i]["name"].removeprefix("metrics.")
            resamples[metric] += spans[i]["notes"]["resample"]
            tests_of[metric].add(parent)
    for metric in METRICS:
        m[f"bootstrap.resamples_per_s.{metric}"] = _ratio(
            resamples[metric], total(tests_of[metric])
        )

    lm_train = named("poslm.train_lm")
    score = named("poslm.ppl", "poslm.ppl_by_chunks")
    write_arpa = named("poslm.write_arpa")
    m["poslm.calls"] = len(lm_train) + len(score) + len(write_arpa)
    m["poslm.train_s"] = total(lm_train)
    m["poslm.train_tokens_per_s"] = _ratio(noted(lm_train, "tokens"), total(lm_train))
    m["poslm.ngrams"] = noted(lm_train, "ngrams")
    m["poslm.discount_fallbacks"] = sum(spans[i]["fallbacks"] for i in lm_train)
    m["poslm.score_s"] = total(score)
    m["poslm.score_tokens_per_s"] = _ratio(noted(score, "scored"), total(score))
    m["poslm.write_arpa_s"] = total(write_arpa)

    m["trace.spans"] = len(spans)
    return m
