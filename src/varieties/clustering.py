"""Bisecting k-means, 2-D PCA projection, permutation-matched accuracy.

The clusterer starts from one cluster and repeatedly splits the cluster
with the largest sum of squared errors via 2-means (best of several
random-pair initializations) until k clusters exist. PCA is display-only:
clustering always operates in the full feature space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Hashable, Sequence

import numpy as np

from .errors import DegenerateDataError

_MAX_LLOYD_ITER = 300
_SPLIT_TRIALS = 10  # random-pair 2-means restarts per split
_PCA_TOL = 1e-10
_PCA_MAX_ITER = 10_000


@dataclass(frozen=True)
class ClusteringResult:
    assignment: np.ndarray  # vector index -> cluster id
    centroids: np.ndarray  # k x d
    total_sse: float


@dataclass(frozen=True)
class Projection2D:
    coords: np.ndarray  # n x 2
    axes: np.ndarray  # 2 x d, orthonormal rows
    explained: tuple[float, float]  # variance fractions, axis 1 >= axis 2


def _sse(X: np.ndarray, centroid: np.ndarray) -> float:
    diff = X - centroid
    return float(np.einsum("ij,ij->", diff, diff))


def _lloyd_2means(X: np.ndarray, centroids: np.ndarray):
    """2-means to convergence; returns (assignment, centroids, sse)."""
    assignment = np.zeros(len(X), dtype=int)
    for _ in range(_MAX_LLOYD_ITER):
        d0 = ((X - centroids[0]) ** 2).sum(axis=1)
        d1 = ((X - centroids[1]) ** 2).sum(axis=1)
        new_assignment = (d1 < d0).astype(int)
        for side in (0, 1):
            members = new_assignment == side
            if not members.any():
                # move the point farthest from the other centroid over
                other = 1 - side
                far = int(np.argmax(((X - centroids[other]) ** 2).sum(axis=1)))
                new_assignment[far] = side
                members = new_assignment == side
            centroids[side] = X[members].mean(axis=0)
        if (new_assignment == assignment).all():
            break
        assignment = new_assignment
    sse = sum(_sse(X[assignment == s], centroids[s]) for s in (0, 1))
    return assignment, centroids, sse


def _best_split(X: np.ndarray, seed_seq: np.random.SeedSequence):
    """Split one cluster in two: best of ``_SPLIT_TRIALS`` random-pair
    inits, selected by lowest SSE then lowest trial index."""
    best = None
    children = seed_seq.spawn(_SPLIT_TRIALS)
    for trial in range(_SPLIT_TRIALS):
        rng = np.random.default_rng(children[trial])
        pick = rng.choice(len(X), size=2, replace=False)
        centroids = X[pick].astype(float).copy()
        assignment, centroids, sse = _lloyd_2means(X, centroids)
        if best is None or sse < best[2] - 1e-12:
            best = (assignment, centroids, sse)
    return best


def bisecting_kmeans(vectors: np.ndarray, k: int, seed: int) -> ClusteringResult:
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2:
        raise ValueError("vectors must form a 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(X):
        raise ValueError(f"k={k} exceeds the number of vectors ({len(X)})")

    seed_seq = np.random.SeedSequence(seed)
    clusters: list[np.ndarray] = [np.arange(len(X))]  # member index arrays
    sses = [_sse(X[clusters[0]], X[clusters[0]].mean(axis=0))]
    while len(clusters) < k:
        # split the largest-SSE cluster that can still be split
        candidates = [c for c in range(len(clusters)) if len(clusters[c]) >= 2]
        target = max(candidates, key=lambda c: (sses[c], -c))
        members = clusters[target]
        assignment, _, _ = _best_split(X[members], seed_seq.spawn(1)[0])
        left = members[assignment == 0]
        right = members[assignment == 1]
        before = sses[target]
        left_sse = _sse(X[left], X[left].mean(axis=0))
        right_sse = _sse(X[right], X[right].mean(axis=0))
        if left_sse + right_sse > before + 1e-9 * max(1.0, before):
            raise AssertionError("2-means split increased SSE")
        clusters[target] = left
        sses[target] = left_sse
        clusters.append(right)
        sses.append(right_sse)

    assignment = np.zeros(len(X), dtype=int)
    centroids = np.zeros((len(clusters), X.shape[1]))
    for cid, members in enumerate(clusters):
        assignment[members] = cid
        centroids[cid] = X[members].mean(axis=0)
    # left to right: sum() compensates float sums from Python 3.12 on
    total = 0.0
    for c, m in enumerate(clusters):
        total += _sse(X[m], centroids[c])
    return ClusteringResult(assignment=assignment, centroids=centroids, total_sse=total)


# ---------------------------------------------------------------------------
# PCA


def _power_iterate(A: np.ndarray, orthogonal_to: np.ndarray | None) -> np.ndarray:
    d = A.shape[0]
    v = np.ones(d) / np.sqrt(d)
    if orthogonal_to is not None:
        v = v - (v @ orthogonal_to) * orthogonal_to
    if np.linalg.norm(v) < 1e-12:
        v = np.zeros(d)
        v[0] = 1.0
        if orthogonal_to is not None:
            v = v - (v @ orthogonal_to) * orthogonal_to
    v /= np.linalg.norm(v)
    for _ in range(_PCA_MAX_ITER):
        w = A @ v
        if orthogonal_to is not None:
            w = w - (w @ orthogonal_to) * orthogonal_to
        norm = np.linalg.norm(w)
        if norm < 1e-15:
            # A vanishes on this subspace; any unit vector in it is fine
            return v
        w /= norm
        if np.linalg.norm(w - v) < _PCA_TOL:
            return w
        v = w
    return v


def pca_2d(vectors: np.ndarray) -> Projection2D:
    """Project onto the top-2 eigenvectors of the mean-centered covariance.

    Eigenpairs come from power iteration with deflation (tolerance 1e-10,
    10k iteration cap). Zero-variance input is reported as degenerate.
    """
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2 or X.shape[0] < 3 or X.shape[1] < 2:
        raise ValueError("need at least 3 vectors of dimension >= 2")
    centered = X - X.mean(axis=0)
    # in place, so at most two d x d arrays are alive
    cov = centered.T @ centered
    cov /= len(X) - 1
    total_var = float(np.trace(cov))
    if total_var <= 1e-15:
        raise DegenerateDataError("zero-variance data: principal axes undefined")

    v1 = _power_iterate(cov, None)
    lam1 = float(v1 @ cov @ v1)
    deflated = np.outer(v1, v1)
    deflated *= lam1
    np.subtract(cov, deflated, out=deflated)
    v2 = _power_iterate(deflated, v1)
    v2 = v2 - (v2 @ v1) * v1
    v2 /= np.linalg.norm(v2)
    lam2 = float(v2 @ cov @ v2)
    if lam2 > lam1:
        v1, v2, lam1, lam2 = v2, v1, lam2, lam1
    axes = np.vstack([v1, v2])
    coords = centered @ axes.T
    explained = (max(lam1, 0.0) / total_var, max(lam2, 0.0) / total_var)
    return Projection2D(coords=coords, axes=axes, explained=explained)


# ---------------------------------------------------------------------------
# evaluation


def _best_mapping(
    assignment: Sequence[int] | np.ndarray, true_labels: Sequence[Hashable]
) -> tuple[int, dict[int, Hashable]]:
    """(hits, cluster->label map) of the first mapping with the most hits.

    Mappings are injective when there are at least as many labels as
    clusters (permutation matching); with more clusters than labels every
    mapping is considered. Cluster count is capped at 6.
    """
    assignment = np.asarray(assignment)
    if len(assignment) != len(true_labels):
        raise ValueError("assignment and labels disagree in length")
    cluster_ids = sorted(set(assignment.tolist()))
    if len(cluster_ids) > 6:
        raise ValueError(
            f"{len(cluster_ids)} clusters exceed the supported maximum of 6"
        )
    labels = sorted(set(true_labels), key=repr)
    true = np.asarray([labels.index(lab) for lab in true_labels])
    if len(cluster_ids) <= len(labels):
        mappings = permutations(range(len(labels)), len(cluster_ids))
    else:
        mappings = product(range(len(labels)), repeat=len(cluster_ids))
    best_hits = -1
    best_mapping: tuple[int, ...] = ()
    for mapping in mappings:
        translate = dict(zip(cluster_ids, mapping))
        hits = sum(
            int(translate[c] == t) for c, t in zip(assignment.tolist(), true.tolist())
        )
        if hits > best_hits:
            best_hits = hits
            best_mapping = mapping
    return best_hits, {cid: labels[m] for cid, m in zip(cluster_ids, best_mapping)}


def cluster_accuracy(
    assignment: Sequence[int] | np.ndarray, true_labels: Sequence[Hashable]
) -> float:
    """Best fraction of chunks matched over cluster->label mappings (see
    ``_best_mapping``)."""
    hits, _ = _best_mapping(assignment, true_labels)
    return hits / len(true_labels)


def best_label_map(
    assignment: Sequence[int] | np.ndarray, true_labels: Sequence[Hashable]
) -> dict[int, Hashable]:
    """The cluster->label mapping that attains cluster_accuracy."""
    return _best_mapping(assignment, true_labels)[1]
