"""Linear-kernel SVM trained by sequential minimal optimization.

The dual problem  max W(a) = sum(a) - 1/2 a'Qa,  Q_ij = y_i y_j x_i.x_j,
subject to 0 <= a_i <= C and sum(a_i y_i) = 0, is solved by repeatedly
optimizing the maximal violating pair (Keerthi-style working-set rule):
i maximizes -y G over I_up, j minimizes it over I_low, and the pair is
updated analytically with clipping to the box. The gap m(a) - M(a) is the
KKT violation; training stops when it falls below tol.

Multiclass is one-vs-one with majority voting. Cross-validation refits
data-dependent feature vocabularies on every training split.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from random import Random
from typing import Hashable, Sequence

import numpy as np

from .corpus import Corpus
from .errors import ConvergenceError
from .features import ChunkCounts, FeaturePlan, chunk_counts, vectorize_chunks

DEFAULT_C = 1.0
DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 1000


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    alphas: np.ndarray | None
    labels: tuple[Hashable, Hashable]  # (positive, negative)
    feature_names: tuple[str, ...] | None = None
    objective_path: tuple[float, ...] = ()
    kkt_gap: float = 0.0

    @property
    def dim(self) -> int:
        return int(self.weights.shape[0])

    def decision(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != self.weights.shape:
            raise ValueError(f"dimension mismatch: model {self.dim}, input {x.shape}")
        return float(self.weights @ x + self.bias)


def _working_sets(alpha: np.ndarray, pos: np.ndarray, C: float):
    """Masks of I_up (alphas that may move toward +y) and I_low (toward -y)."""
    up = (pos & (alpha < C)) | (~pos & (alpha > 0.0))
    low = (pos & (alpha > 0.0)) | (~pos & (alpha < C))
    return up, low


def _textbook_zeros(yG: np.ndarray, y: np.ndarray) -> np.ndarray:
    """yG with every exact zero signed as -y*G signs it. G never holds -0.0
    (it starts at -1, and x + -x is +0.0), so -y*G reads -0.0 where y = +1;
    the incremental yG -= step*(K_i - K_j) leaves +0.0 there. Only the sign
    of a zero differs, so comparisons and the pair choice never see it."""
    return np.where(yG == 0.0, -0.0 * y, yG)


def _smo(K: np.ndarray, y: np.ndarray, C: float, tol: float, max_iter: int):
    """Core pair-update loop. Returns (alpha, bias, objective trace, gap).

    The loop keeps yG = -y*G and the working sets between iterations and
    changes them only where the pair moved: yG drops by step*(K_i - K_j),
    which is -y times the textbook G += y*step*(K_i - K_j) exactly, as
    y = +-1, but for the sign of a zero (see _textbook_zeros); and
    I_up/I_low are offset arrays, 0 for members and -inf/+inf otherwise, so
    the pair is the first maximum of yG + up_off and the first minimum of
    yG + low_off. The pair's box arithmetic runs on Python floats.
    """
    n = y.shape[0]
    alpha = np.zeros(n)
    # -y*G, where G, the gradient of 1/2 a'Qa - sum(a), is -1 at alpha = 0
    yG = np.array(y, dtype=float)
    Kt = K.T.copy()  # row k is column k of K, contiguous
    ys = y.tolist()
    pos = y > 0
    up, low = _working_sets(alpha, pos, C)
    up_off = np.where(up, 0.0, -np.inf)
    low_off = np.where(low, 0.0, np.inf)
    half_ay = 0.5 * (alpha * y)  # kept equal to 0.5*(alpha*y) as alpha moves
    trace = []

    def objective() -> float:
        # W(a) = sum(a) - 1/2 a'Qa, a'Qa = a.(G + 1) and a.G = -(a*y).yG; the
        # sign flips are exact, so this equals 0.5*sum(a) - 0.5*a.G bit for bit
        return float(0.5 * alpha.sum() + half_ay @ yG)

    trace.append(objective())
    gap = np.inf
    for _ in range(max_iter):
        i = int((yG + up_off).argmax())
        j = int((yG + low_off).argmin())
        # i lies outside I_up, or j outside I_low, only when that set is empty
        if up_off[i] or low_off[j]:
            gap = 0.0
            break
        y_i, y_j = ys[i], ys[j]
        # an exact zero takes the textbook sign (see _textbook_zeros)
        gap = (yG.item(i) or -0.0 * y_i) - (yG.item(j) or -0.0 * y_j)
        if gap <= tol:
            break
        eta = K.item(i, i) + K.item(j, j) - 2.0 * K.item(i, j)
        step = gap / max(eta, 1e-12)
        a_i, a_j = alpha.item(i), alpha.item(j)
        headroom_i = C - a_i if y_i > 0 else a_i
        headroom_j = a_j if y_j > 0 else C - a_j
        step = min(step, headroom_i, headroom_j)
        # land exactly on the box boundary when the step is clipped there
        if step >= headroom_i:
            a_i = C if y_i > 0 else 0.0
        else:
            a_i += y_i * step
        if step >= headroom_j:
            a_j = 0.0 if y_j > 0 else C
        else:
            a_j -= y_j * step
        alpha[i] = a_i
        alpha[j] = a_j
        half_ay[i] = 0.5 * (a_i * y_i)
        half_ay[j] = 0.5 * (a_j * y_j)
        yG -= step * (Kt[i] - Kt[j])
        for k, a_k in ((i, a_i), (j, a_j)):
            if ys[k] > 0:
                up_off[k] = 0.0 if a_k < C else -np.inf
                low_off[k] = 0.0 if a_k > 0.0 else np.inf
            else:
                up_off[k] = 0.0 if a_k > 0.0 else -np.inf
                low_off[k] = 0.0 if a_k < C else np.inf
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
    yG = _textbook_zeros(yG, y)
    up, low = _working_sets(alpha, pos, C)
    m = yG[up].max() if up.any() else 0.0
    M = yG[low].min() if low.any() else 0.0
    bias = 0.5 * (m + M)
    return alpha, float(bias), tuple(trace), float(max(gap, 0.0))


def train_binary(
    X: Sequence[Sequence[float]] | np.ndarray,
    labels: Sequence[Hashable],
    C: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
    feature_names: Sequence[str] | None = None,
) -> SvmModel:
    """Train a binary linear SVM; the lexicographically smaller label is the
    positive class."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D array of example vectors")
    distinct = sorted(set(labels), key=repr)
    if len(distinct) != 2:
        raise ValueError(f"need exactly 2 classes, got {distinct}")
    positive, negative = distinct
    y = np.array([1.0 if lab == positive else -1.0 for lab in labels])
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and labels disagree in length")

    K = X @ X.T
    max_iter = DEFAULT_MAX_PASSES * max(len(y), 10)
    alpha, bias, trace, gap = _smo(K, y, C, tol, max_iter)
    weights = (alpha * y) @ X
    model = SvmModel(
        weights=weights,
        bias=bias,
        alphas=alpha,
        labels=(positive, negative),
        feature_names=tuple(feature_names) if feature_names is not None else None,
        objective_path=trace,
        kkt_gap=gap,
    )
    return model


def predict(model: SvmModel, x: np.ndarray) -> tuple[Hashable, float]:
    """(label, raw decision value); the boundary itself goes to the positive
    class."""
    value = model.decision(x)
    return (model.labels[0] if value >= 0 else model.labels[1]), value


def dual_objective(model: SvmModel, X: np.ndarray, labels: Sequence[Hashable]) -> float:
    """W(a) recomputed from stored alphas (for verification)."""
    if model.alphas is None:
        raise ValueError("model carries no dual coefficients")
    X = np.asarray(X, dtype=float)
    y = np.array([1.0 if lab == model.labels[0] else -1.0 for lab in labels])
    Q = (y[:, None] * X) @ (y[:, None] * X).T
    a = model.alphas
    return float(a.sum() - 0.5 * a @ Q @ a)


# ---------------------------------------------------------------------------
# one-vs-one multiclass


@dataclass
class OvoEnsemble:
    models: dict[tuple[Hashable, Hashable], SvmModel]
    label_order: tuple[Hashable, ...]


def train_multiclass(
    X: np.ndarray,
    labels: Sequence[Hashable],
    C: float = DEFAULT_C,
) -> OvoEnsemble:
    X = np.asarray(X, dtype=float)
    order = tuple(sorted(set(labels), key=repr))
    if len(order) < 2:
        raise ValueError("need at least 2 classes")
    labels = list(labels)
    models = {}
    for a_idx in range(len(order)):
        for b_idx in range(a_idx + 1, len(order)):
            pair = (order[a_idx], order[b_idx])
            in_pair = [lab in pair for lab in labels]
            if all(in_pair):
                X_pair, y_pair = X, labels
            else:
                X_pair = X[np.array(in_pair)]
                y_pair = [lab for lab in labels if lab in pair]
            models[pair] = train_binary(X_pair, y_pair, C=C)
    return OvoEnsemble(models=models, label_order=order)


def predict_multiclass(ensemble: OvoEnsemble, x: np.ndarray) -> Hashable:
    """Majority vote; ties broken by the largest sum of winning decision
    magnitudes, then by fixed label order."""
    votes: dict[Hashable, int] = {lab: 0 for lab in ensemble.label_order}
    magnitude: dict[Hashable, float] = {lab: 0.0 for lab in ensemble.label_order}
    for model in ensemble.models.values():
        winner, value = predict(model, x)
        votes[winner] += 1
        magnitude[winner] += abs(value)
    # max keeps the first of equal keys, so a full tie goes to the label
    # earliest in label_order
    return max(ensemble.label_order, key=lambda lab: (votes[lab], magnitude[lab]))


# ---------------------------------------------------------------------------
# cross-validation


@dataclass(frozen=True)
class CvReport:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    confusion: np.ndarray  # rows: true label, cols: predicted
    label_order: tuple[Hashable, ...]
    seed: int

    @property
    def evaluated(self) -> int:
        return int(self.confusion.sum())


def stratified_folds(
    labels: Sequence[Hashable], folds: int, seed: int
) -> list[list[int]]:
    """Deterministic stratified fold assignment: per-class shuffle, then
    round-robin dealing."""
    rng = Random(seed)
    by_label: dict[Hashable, list[int]] = {}
    for idx, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(idx)
    assignment: list[list[int]] = [[] for _ in range(folds)]
    offset = 0
    for lab in sorted(by_label, key=repr):
        indices = by_label[lab]
        rng.shuffle(indices)
        for pos, idx in enumerate(indices):
            assignment[(pos + offset) % folds].append(idx)
        offset += len(indices)
    return assignment


def cross_validate(
    chunks: Sequence[Corpus | ChunkCounts],
    labels: Sequence[Hashable],
    plan: FeaturePlan,
    folds: int = 10,
    seed: int = 0,
    C: float = DEFAULT_C,
) -> CvReport:
    """Stratified k-fold CV. Feature vocabularies (top-k trigrams, positional
    pairs) are re-selected on each training split to avoid leakage; each
    chunk is counted once for all folds."""
    chunks = chunk_counts(chunks)
    if len(chunks) != len(labels):
        raise ValueError("chunks and labels disagree in length")
    if len(chunks) < folds:
        raise ValueError(f"cannot make {folds} folds from {len(chunks)} chunks")
    counts: dict[Hashable, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    if len(set(counts.values())) > 1:
        summary = ", ".join(
            f"{lab!r}: {counts[lab]}" for lab in sorted(counts, key=repr)
        )
        warnings.warn(f"classes are not balanced ({summary})", stacklevel=2)
    order = tuple(sorted(counts, key=repr))
    index_of = {lab: i for i, lab in enumerate(order)}
    confusion = np.zeros((len(order), len(order)), dtype=int)
    fold_acc = []
    assignment = stratified_folds(labels, folds, seed)
    for test_idx in assignment:
        test_set = set(test_idx)
        train_idx = [i for i in range(len(chunks)) if i not in test_set]
        train_chunks = [chunks[i] for i in train_idx]
        spaces = plan.fit(train_chunks)
        X_train = vectorize_chunks(train_chunks, spaces)
        y_train = [labels[i] for i in train_idx]
        X_test = vectorize_chunks([chunks[i] for i in test_idx], spaces)
        ensemble = train_multiclass(X_train, y_train, C=C)
        predictions = [predict_multiclass(ensemble, x) for x in X_test]
        hits = 0
        for idx, pred in zip(test_idx, predictions):
            true = labels[idx]
            confusion[index_of[true], index_of[pred]] += 1
            hits += int(pred == true)
        fold_acc.append(hits / len(test_idx))
    return CvReport(
        fold_accuracies=tuple(fold_acc),
        mean_accuracy=float(np.mean(fold_acc)),
        confusion=confusion,
        label_order=order,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# interpretation


def rank_features(model: SvmModel) -> list[tuple[str, float]]:
    """(feature name, signed weight) sorted by |weight| descending; ties keep
    input order."""
    names = (
        list(model.feature_names)
        if model.feature_names is not None
        else [f"f{i}" for i in range(model.dim)]
    )
    order = np.argsort(-np.abs(model.weights), kind="stable")
    return [(names[i], float(model.weights[i])) for i in order]
