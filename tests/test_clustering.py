import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import traced
from oracles import jacobi_eigh
from synthdata import clustering_corpora, gaussian_blobs
from varieties import clustering
from varieties.clustering import (
    bisecting_kmeans,
    best_label_map,
    cluster_accuracy,
    pca_2d,
)
from varieties.config import load_config
from varieties.corpus import write_jsonl
from varieties.errors import DegenerateDataError
from varieties.pipeline import run_stage


class TestBisectingKmeans:
    def test_two_point_masses(self):
        X = np.vstack([np.zeros((10, 2)), np.full((10, 2), 9.0)])
        result = bisecting_kmeans(X, k=2, seed=0)
        assert result.total_sse == pytest.approx(0.0, abs=1e-12)
        assert len(set(result.assignment[:10])) == 1
        assert len(set(result.assignment[10:])) == 1
        assert result.assignment[0] != result.assignment[10]

    def test_k1_gives_global_mean(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 4))
        result = bisecting_kmeans(X, k=1, seed=0)
        assert np.allclose(result.centroids[0], X.mean(axis=0))
        assert set(result.assignment.tolist()) == {0}

    def test_three_blobs_recovered(self):
        X, labels = gaussian_blobs(
            centers=[(0, 0), (12, 0), (0, 12)], points_per_blob=40, spread=1.0,
            seed=7,
        )
        result = bisecting_kmeans(X, k=3, seed=1)
        assert cluster_accuracy(result.assignment, labels) >= 0.90

    def test_k_exceeding_points_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            bisecting_kmeans(np.zeros((3, 2)), k=4, seed=0)

    def test_deterministic_per_seed(self):
        X, _ = gaussian_blobs([(0, 0), (5, 5)], 30, 1.0, seed=2)
        first = bisecting_kmeans(X, k=4, seed=9)
        second = bisecting_kmeans(X, k=4, seed=9)
        assert np.array_equal(first.assignment, second.assignment)
        assert first.total_sse == second.total_sse

    def test_sse_recomputable(self):
        X, _ = gaussian_blobs([(0, 0), (6, 6)], 25, 1.2, seed=4)
        result = bisecting_kmeans(X, k=3, seed=0)
        recomputed = sum(
            float(((X[result.assignment == c] - result.centroids[c]) ** 2).sum())
            for c in range(len(result.centroids))
        )
        assert result.total_sse == pytest.approx(recomputed, rel=1e-12)

    def test_total_sse_adds_left_to_right(self, monkeypatch):
        # sum() compensates float sums from Python 3.12 on; the total must
        # not change with it. Here a compensated sum differs from adding the
        # three cluster SSEs in order.
        X, _ = gaussian_blobs(
            centers=[(0, 0), (12, 0), (0, 12)], points_per_blob=40, spread=1.0,
            seed=0,
        )
        monkeypatch.setattr(
            clustering, "sum", lambda values, start=0: math.fsum(values) + start,
            raising=False,
        )
        result = bisecting_kmeans(X, k=3, seed=1)
        parts = []
        for c in range(3):
            diff = X[result.assignment == c] - result.centroids[c]
            parts.append(float(np.einsum("ij,ij->", diff, diff)))
        assert math.fsum(parts) != parts[0] + parts[1] + parts[2]
        assert result.total_sse == parts[0] + parts[1] + parts[2]

    def test_splits_never_increase_sse(self):
        # total SSE after k clusters is monotone non-increasing in k
        X, _ = gaussian_blobs([(0, 0), (4, 4), (8, 0)], 30, 1.5, seed=5)
        sses = [bisecting_kmeans(X, k=k, seed=3).total_sse for k in range(1, 6)]
        assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))

    def test_duplicate_points_still_split(self):
        X = np.zeros((5, 2))
        result = bisecting_kmeans(X, k=3, seed=0)
        assert len(set(result.assignment.tolist())) == 3


class TestPca2d:
    def test_collinear_points(self):
        ts = np.linspace(-2, 2, 9)
        X = np.column_stack([ts, ts])
        proj = pca_2d(X)
        axis = proj.axes[0]
        assert abs(abs(axis @ np.array([1, 1]) / np.sqrt(2)) - 1) < 1e-9
        assert proj.explained[0] == pytest.approx(1.0, abs=1e-12)
        assert proj.explained[1] == pytest.approx(0.0, abs=1e-12)

    def test_full_rank_2d_is_isometry(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 2)) @ np.array([[2.0, 0.3], [0.3, 0.5]])
        proj = pca_2d(X)
        for i in range(0, 30, 7):
            for j in range(1, 30, 5):
                original = np.linalg.norm(X[i] - X[j])
                projected = np.linalg.norm(proj.coords[i] - proj.coords[j])
                assert projected == pytest.approx(original, abs=1e-9)

    def test_axes_match_jacobi_oracle(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(60, 10)) @ rng.normal(size=(10, 10))
        proj = pca_2d(X)
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (len(X) - 1)
        eigenvalues, eigenvectors = jacobi_eigh(cov)
        for axis_idx in range(2):
            ours = proj.axes[axis_idx]
            ref = eigenvectors[:, axis_idx]
            aligned = min(np.abs(ours - ref).max(), np.abs(ours + ref).max())
            assert aligned < 1e-6
            assert proj.explained[axis_idx] == pytest.approx(
                eigenvalues[axis_idx] / eigenvalues.sum(), abs=1e-9
            )

    def test_axes_orthonormal(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 6))
        proj = pca_2d(X)
        gram = proj.axes @ proj.axes.T
        assert np.allclose(gram, np.eye(2), atol=1e-9)
        assert proj.explained[0] >= proj.explained[1]

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateDataError, match="zero-variance"):
            pca_2d(np.ones((5, 3)))

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            pca_2d(np.zeros((2, 3)))

    def test_beats_random_projections_on_reconstruction(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(50, 6)) * np.array([5, 3, 1, 0.5, 0.2, 0.1])
        proj = pca_2d(X)
        centered = X - X.mean(axis=0)
        captured = (centered @ proj.axes.T ** 1).var(axis=0).sum()
        pca_var = proj.coords.var(axis=0).sum()
        for _ in range(20):
            basis, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            random_var = (centered @ basis).var(axis=0).sum()
            assert pca_var >= random_var - 1e-9

    @pytest.mark.parametrize("n, d", [(5, 40), (12, 100), (30, 30), (50, 8), (3, 2)])
    def test_in_place_covariance_and_deflation_are_bit_identical(self, n, d):
        rng = np.random.default_rng(n * 1000 + d)
        X = rng.normal(size=(n, d)) * rng.random(d) * 10.0 ** rng.integers(-3, 3, d)
        proj = pca_2d(X)
        expected = _pca_out_of_place(X)
        for got, want in zip((proj.coords, proj.axes, proj.explained), expected):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_at_most_two_d_by_d_arrays_are_alive(self):
        # d > n, so the d x d covariance and its deflated copy dominate; the
        # out-of-place expressions held four d x d arrays at once
        n, d = 60, 400
        X = np.random.default_rng(0).random((n, d))
        _, peak, _ = traced(lambda: pca_2d(X))
        assert peak < 2.75 * d * d * 8


def _pca_out_of_place(X):
    """``pca_2d``'s coords, axes and explained variance through its former
    out-of-place covariance and deflation expressions."""
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (len(X) - 1)
    total_var = float(np.trace(cov))
    v1 = clustering._power_iterate(cov, None)
    lam1 = float(v1 @ cov @ v1)
    deflated = cov - lam1 * np.outer(v1, v1)
    v2 = clustering._power_iterate(deflated, v1)
    v2 = v2 - (v2 @ v1) * v1
    v2 /= np.linalg.norm(v2)
    lam2 = float(v2 @ cov @ v2)
    if lam2 > lam1:
        v1, v2, lam1, lam2 = v2, v1, lam2, lam1
    axes = np.vstack([v1, v2])
    return centered @ axes.T, axes, (max(lam1, 0.0) / total_var, max(lam2, 0.0) / total_var)


class TestClusterAccuracy:
    def test_perfect_two_way_split(self):
        assert cluster_accuracy([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0

    def test_single_cluster_three_classes(self):
        assignment = [0] * 9
        labels = ["a", "b", "c"] * 3
        assert cluster_accuracy(assignment, labels) == pytest.approx(1 / 3)

    def test_permutation_invariance(self):
        labels = ["a", "a", "b", "b", "c", "c"]
        original = [0, 0, 1, 1, 2, 2]
        swapped = [2, 2, 0, 0, 1, 1]
        assert cluster_accuracy(original, labels) == cluster_accuracy(swapped, labels)

    def test_more_than_six_clusters_rejected(self):
        with pytest.raises(ValueError, match="maximum of 6"):
            cluster_accuracy(list(range(7)), ["a"] * 7)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            cluster_accuracy([0, 1], ["a"])

    def test_two_clusters_three_labels(self):
        # k=2 over three classes: best injective map labels one cluster per
        # class, so a perfect NN+T merge scores 2/3
        assignment = [0, 0, 1, 1, 1, 1]
        labels = ["N", "N", "NN", "NN", "T", "T"]
        assert cluster_accuracy(assignment, labels) == pytest.approx(2 / 3)

    @pytest.mark.parametrize(
        "assignment, labels, accuracy",
        [
            ([0, 1, 2, 2], ["a", "a", "b", "b"], 1.0),
            # cluster 0 matches either label once; the first mapping wins
            ([0, 0, 1, 1, 2, 2], ["a", "b", "a", "a", "b", "b"], 5 / 6),
        ],
    )
    def test_more_clusters_than_labels(self, assignment, labels, accuracy):
        # two clusters may map to one label
        assert cluster_accuracy(assignment, labels) == pytest.approx(accuracy)
        assert best_label_map(assignment, labels) == {0: "a", 1: "a", 2: "b"}


class TestScatterOutput:
    def test_csv_fields(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for variety, corpus in clustering_corpora(120, seed=9).items():
            write_jsonl(corpus, data / f"{variety}.jsonl")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"corpus_n = {data / 'N.jsonl'}\n"
            f"corpus_nn = {data / 'NN.jsonl'}\n"
            f"corpus_t = {data / 'T.jsonl'}\n"
            f"out = {tmp_path / 'out'}\n"
            "seed = 4\nchunk_target = 100\n"
        )
        out = run_stage("cluster", load_config(cfg, env={}))
        summary = json.loads((out / "cluster" / "summary.json").read_text())
        lines = (out / "cluster" / "scatter_k3.csv").read_text().splitlines()
        assert lines[0] == "chunk_id,x,y,cluster,true_label,correct"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == 6 for row in rows)
        # one row per balanced chunk, each chunk once
        assert len({row[0] for row in rows}) == len(rows)
        assert Counter(row[4] for row in rows) == {"N": 12, "NN": 12, "T": 12}
        # a perfect clustering marks every row correct
        assert summary["k3"]["accuracy"] == 1.0
        assert all(line.endswith(",1") for line in lines[1:])
