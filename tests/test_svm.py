import importlib
from pathlib import Path

import numpy as np
import pytest

from oracles import qp_oracle_4pt, reference_smo
from synthdata import variety_corpus
from varieties import svm
from varieties.config import load_config
from varieties.corpus import balance
from varieties.corpus import chunk as make_chunks
from varieties.errors import ConvergenceError
from varieties.features import FAMILIES, FW, ChunkCounts, FeaturePlan
from varieties.pipeline import run_stage
from varieties.svm import (
    OvoEnsemble,
    SvmModel,
    cross_validate,
    dual_objective,
    predict,
    predict_multiclass,
    rank_features,
    stratified_folds,
    train_binary,
    train_multiclass,
)

# fixed 4-point separable problem; the dual optimum is the hard-margin value
# 1/2 ||w||^2 = 0.25 (confirmed by the grid-refinement oracle)
FOUR_X = np.array([[1.0, 1.0], [2.0, 2.5], [-1.0, -1.0], [-2.0, -1.0]])
FOUR_Y = np.array([1.0, 1.0, -1.0, -1.0])
FOUR_LABELS = ["pos" if v > 0 else "neg" for v in FOUR_Y]
FOUR_DUAL = 0.25


class TestTrainBinary:
    def test_symmetric_1d(self):
        model = train_binary(np.array([[-1.0], [1.0]]), ["a", "b"], C=10.0)
        # boundary at 0, both points on the margin, both support vectors
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        assert abs(model.weights[0]) == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(model.alphas, [0.5, 0.5], atol=1e-9)
        assert model.decision(np.array([1.0])) * model.decision(np.array([-1.0])) < 0
        for x, label in [([-1.0], "a"), ([1.0], "b")]:
            pred, value = predict(model, np.array(x))
            assert pred == label
            assert abs(value) == pytest.approx(1.0, abs=1e-6)

    def test_dual_matches_qp_oracle(self):
        model = train_binary(FOUR_X, FOUR_LABELS, C=10.0, tol=1e-6)
        smo_value = dual_objective(model, FOUR_X, FOUR_LABELS)
        oracle_value, _ = qp_oracle_4pt(FOUR_X, FOUR_Y, C=10.0)
        assert smo_value == pytest.approx(oracle_value, abs=1e-4)
        assert smo_value == pytest.approx(FOUR_DUAL, abs=1e-4)

    def test_inseparable_terminates_within_box(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        labels = ["a", "a", "b", "b"]  # XOR, inseparable linearly
        model = train_binary(X, labels, C=0.5)
        assert np.all(model.alphas >= -1e-12)
        assert np.all(model.alphas <= 0.5 + 1e-12)
        hits = sum(predict(model, x)[0] == lab for x, lab in zip(X, labels))
        assert hits < 4

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            train_binary(np.array([[1.0], [2.0]]), ["a", "a"])

    def test_dimension_mismatch_at_predict(self):
        model = train_binary(np.array([[-1.0], [1.0]]), ["a", "b"])
        with pytest.raises(ValueError, match="dimension"):
            model.decision(np.array([1.0, 2.0]))

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(svm, "DEFAULT_MAX_PASSES", 1)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 4))
        labels = ["a" if v > 0 else "b" for v in rng.normal(size=80)]
        # the cap is DEFAULT_MAX_PASSES x max(n, 10) iterations, read at call time
        cap = svm.DEFAULT_MAX_PASSES * max(len(labels), 10)
        with pytest.raises(
            ConvergenceError,
            match=rf"SMO did not reach tol=1e-09 within {cap} iterations \(KKT gap \d",
        ):
            train_binary(X, labels, C=100.0, tol=1e-9)

    def test_objective_nondecreasing(self):
        model = train_binary(FOUR_X, FOUR_LABELS, C=10.0)
        path = np.array(model.objective_path)
        assert np.all(np.diff(path) >= -1e-9)

    def test_weights_equal_alpha_collapse(self):
        model = train_binary(FOUR_X, FOUR_LABELS, C=10.0)
        y = np.array([1.0 if l == model.labels[0] else -1.0 for l in FOUR_LABELS])
        assert np.allclose(model.weights, (model.alphas * y) @ FOUR_X, atol=1e-9)

    def test_dual_feasibility(self):
        model = train_binary(FOUR_X, FOUR_LABELS, C=10.0)
        y = np.array([1.0 if l == model.labels[0] else -1.0 for l in FOUR_LABELS])
        assert abs(float(model.alphas @ y)) <= 1e-8 * 10.0 * len(y)


def _assert_same_solve(K, y, C, tol=svm.DEFAULT_TOL, max_iter=None, solve=svm._smo):
    if max_iter is None:
        max_iter = svm.DEFAULT_MAX_PASSES * max(len(y), 10)
    alpha, bias, path, gap = solve(K, y, C, tol, max_iter)
    ref_alpha, ref_bias, ref_path, ref_gap = reference_smo(K, y, C, tol, max_iter)
    assert np.array_equal(alpha, ref_alpha)
    assert bias == ref_bias
    assert gap == ref_gap
    assert path == ref_path
    # bit for bit, down to the sign of a zero bias or gap
    assert _bits(alpha, bias, gap, *path) == _bits(ref_alpha, ref_bias, ref_gap, *ref_path)
    return alpha, bias, path, gap


def _bits(alpha, *values):
    return alpha.tobytes() + np.array(values).tobytes()


class TestSmoExact:
    """The incremental loop against the textbook loop it replaced: every
    iterate, hence alphas, bias, KKT gap and objective path, is equal."""

    @pytest.mark.parametrize("n", [2, 11, 80, 640])
    @pytest.mark.parametrize("separable", [True, False])
    def test_random_instances(self, n, separable):
        rng = np.random.default_rng(n + 1000 * separable)
        dim = 600 if n == 640 else 5
        X = rng.normal(size=(n, dim))
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        if separable:
            X[:, 0] += 3.0 * y
        path = _assert_same_solve(X @ X.T, y, C=1.0)[2]
        assert len(path) > 1

    def test_small_c_clips_most_alphas(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 4))
        y = np.where(rng.normal(size=60) > 0, 1.0, -1.0)
        C = 0.01
        alpha = _assert_same_solve(X @ X.T, y, C)[0]
        assert np.count_nonzero(alpha == C) > len(y) // 2

    def test_duplicates_with_opposite_labels_hit_the_eta_floor(self):
        # K_ii + K_jj - 2 K_ij is 0 for a duplicated pair, so eta is floored
        # at 1e-12 and the step is clipped to the box
        X = np.array([[1.0, 2.0], [1.0, 2.0], [-1.0, 0.5], [0.5, -1.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        _assert_same_solve(X @ X.T, y, C=2.0)

    def test_duplicates_with_the_same_label_tie_on_the_first_index(self):
        # duplicates keep equal yG throughout, so every pick is a tie; the
        # first of each group takes the whole step
        X = np.array([[1.0, 1.0]] * 3 + [[-1.0, -1.0]] * 3)
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        alpha = _assert_same_solve(X @ X.T, y, C=10.0)[0]
        assert alpha.tolist() == [0.25, 0.0, 0.0, 0.25, 0.0, 0.0]

    def test_exact_zeros_in_the_gradient(self):
        # integer data cancel exactly: the textbook loop reports a bias of
        # -0.0 here, and so must the incremental one
        X = np.array([[0.0, -1.0], [-2.0, 0.0], [-1.0, 0.0], [2.0, -2.0], [0.0, -2.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
        _, bias, _, _ = _assert_same_solve(X @ X.T, y, C=1.0)
        assert np.signbit(bias)

    def test_single_point_class(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 3))
        y = -np.ones(12)
        y[5] = 1.0
        _assert_same_solve(X @ X.T, y, C=1.0)

    def test_nonconvergence_message_is_the_same(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 4))
        y = np.where(rng.normal(size=80) > 0, 1.0, -1.0)
        messages = []
        for solve in (svm._smo, reference_smo):
            with pytest.raises(ConvergenceError) as info:
                solve(X @ X.T, y, 100.0, 1e-9, 80)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_classify_stage_solves_are_exact(self, tmp_path, monkeypatch):
        """Every SMO problem the classify stage solves on the benchmark's
        classify_cv inputs (seed 17) gives the textbook loop's result."""
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        workloads = importlib.import_module("workloads")
        inputs = tmp_path / "inputs"
        workloads.generate("classify_cv", 17, inputs)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(workloads.config_text("classify_cv", 17, inputs))
        config = load_config(cfg, overrides={"out": str(tmp_path / "out")}, env={})

        solve = svm._smo
        solved = []

        def checked(K, y, C, tol, max_iter):
            result = _assert_same_solve(K, y, C, tol, max_iter, solve=solve)
            solved.append(len(result[2]) - 1)
            return result

        monkeypatch.setattr(svm, "_smo", checked)
        run_stage("classify", config)
        # 8 feature rows x (3 pair tasks x (10 folds + 1 full fit)
        #                  + 10 folds x 3 one-vs-one models of the 3-way task)
        assert len(solved) == 504
        assert sum(solved) > 0


def _kkt_violation(model, X, labels, C):
    """Largest KKT violation in margin units."""
    y = np.array([1.0 if l == model.labels[0] else -1.0 for l in labels])
    worst = 0.0
    for i in range(len(y)):
        margin = y[i] * model.decision(X[i])
        a = model.alphas[i]
        if a <= 1e-8:
            worst = max(worst, 1.0 - margin)
        elif a >= C - 1e-8:
            worst = max(worst, margin - 1.0)
        else:
            worst = max(worst, abs(margin - 1.0))
    return worst


class TestKkt:
    def test_hundred_random_separable_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            dim = int(rng.integers(2, 5))
            w_true = rng.normal(size=dim)
            w_true /= np.linalg.norm(w_true)
            b_true = float(rng.normal() * 0.3)
            X = []
            while len(X) < 12:
                x = rng.normal(size=dim) * 2.0
                if abs(w_true @ x + b_true) > 0.3:
                    X.append(x)
            X = np.array(X)
            labels = ["p" if w_true @ x + b_true > 0 else "n" for x in X]
            if len(set(labels)) < 2:
                continue
            model = train_binary(X, labels, C=10.0, tol=1e-3)
            assert _kkt_violation(model, X, labels, 10.0) <= 1e-3 + 1e-9, trial


class TestPredict:
    def test_raw_decision_passthrough(self):
        model = SvmModel(
            weights=np.array([1.0]), bias=0.0, alphas=None, labels=("p", "n")
        )
        assert predict(model, np.array([3.0])) == ("p", 3.0)

    def test_boundary_goes_positive(self):
        model = SvmModel(
            weights=np.array([1.0]), bias=0.0, alphas=None, labels=("p", "n")
        )
        assert predict(model, np.array([0.0]))[0] == "p"

    def test_scaling_decisions_and_labels(self):
        model = SvmModel(
            weights=np.array([2.0, -1.0]), bias=0.5, alphas=None,
            labels=("p", "n"),
        )
        scaled = SvmModel(
            weights=model.weights * 3, bias=model.bias * 3, alphas=None,
            labels=("p", "n"),
        )
        x = np.array([1.0, 1.0])
        assert predict(model, 2 * x)[1] != predict(model, x)[1]
        assert predict(scaled, x)[0] == predict(model, x)[0]
        assert predict(scaled, x)[1] == pytest.approx(3 * predict(model, x)[1])


class TestMulticlass:
    def test_three_tight_clusters(self):
        rng = np.random.default_rng(0)
        centers = {"a": (0, 0), "b": (10, 0), "c": (0, 10)}
        X, labels = [], []
        for lab, center in centers.items():
            X.extend(rng.normal(loc=center, scale=0.2, size=(15, 2)))
            labels.extend([lab] * 15)
        X = np.array(X)
        ensemble = train_multiclass(X, labels)
        hits = sum(predict_multiclass(ensemble, x) == l for x, l in zip(X, labels))
        assert hits == len(labels)

    def test_pair_models_train_on_the_pair_rows(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 3))
        labels = ["a", "b", "c", "a", "b", "c", "c", "a", "b", "a", "c", "b"]
        ensemble = train_multiclass(X, labels, C=5.0)
        for pair, model in ensemble.models.items():
            rows = [i for i, lab in enumerate(labels) if lab in pair]
            alone = train_binary(X[rows], [labels[i] for i in rows], C=5.0)
            assert np.array_equal(model.weights, alone.weights)
            assert model.bias == alone.bias
        # two labels: the one pair covers every row
        two = [lab if lab != "c" else "b" for lab in labels]
        (model,) = train_multiclass(X, two, C=5.0).models.values()
        alone = train_binary(X, two, C=5.0)
        assert np.array_equal(model.weights, alone.weights)
        assert model.bias == alone.bias

    def test_vote_tie_break_is_deterministic(self):
        # cyclic winners: each label gets exactly one vote; magnitudes decide
        def fake(labels, w):
            return SvmModel(
                weights=np.array([w]), bias=0.0, alphas=None, labels=labels
            )

        ensemble = OvoEnsemble(
            models={
                ("a", "b"): fake(("a", "b"), 1.0),    # predicts a, |dec| = x
                ("a", "c"): fake(("c", "a"), 5.0),    # predicts c, |dec| = 5x
                ("b", "c"): fake(("b", "c"), 3.0),    # predicts b, |dec| = 3x
            },
            label_order=("a", "b", "c"),
        )
        x = np.array([1.0])
        assert predict_multiclass(ensemble, x) == "c"
        # zero decision values everywhere: falls through to fixed label order
        zero = OvoEnsemble(
            models={
                ("a", "b"): fake(("a", "b"), 0.0),
                ("a", "c"): fake(("c", "a"), 0.0),
                ("b", "c"): fake(("b", "c"), 0.0),
            },
            label_order=("a", "b", "c"),
        )
        assert predict_multiclass(zero, x) == "a"


def _variety_chunks(n_sentences=700, seed=0, target=120):
    by_variety = {
        variety: make_chunks(variety_corpus(variety, n_sentences, seed), target)
        for variety in ("N", "NN", "T")
    }
    chunks, labels = [], []
    for variety, variety_chunks_ in sorted(balance(by_variety, seed).items()):
        for c in variety_chunks_:
            chunks.append(c)
            labels.append(variety)
    return chunks, labels


class TestCrossValidate:
    def test_separable_synthetic_varieties(self, resources):
        chunks, labels = _variety_chunks()
        plan = FeaturePlan(families=(FW,), resources=resources)
        report = cross_validate(chunks, labels, plan, folds=10, seed=1)
        assert report.mean_accuracy >= 0.95
        assert report.evaluated == len(chunks)
        assert report.mean_accuracy == pytest.approx(
            float(np.mean(report.fold_accuracies))
        )

    def test_shuffled_labels_hit_chance(self, resources):
        chunks, labels = _variety_chunks()
        rng = np.random.default_rng(9)
        shuffled = list(labels)
        rng.shuffle(shuffled)
        plan = FeaturePlan(families=(FW,), resources=resources)
        report = cross_validate(chunks, shuffled, plan, folds=10, seed=1)
        assert abs(report.mean_accuracy - 1 / 3) <= 0.1

    def test_unbalanced_classes_warn(self, resources):
        chunks, labels = _variety_chunks(n_sentences=250, target=100)
        plan = FeaturePlan(families=(FW,), resources=resources)
        with pytest.warns(UserWarning, match="not balanced"):
            cross_validate(chunks[3:], labels[3:], plan, folds=5, seed=0)

    def test_fold_sizes_balanced_354(self):
        labels = ["N"] * 354 + ["T"] * 354
        folds = stratified_folds(labels, folds=10, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sum(sizes) == 708
        assert sizes[0] >= 70 and sizes[-1] <= 72  # ~71 chunks per fold

    def test_too_few_chunks_rejected(self, resources):
        chunks, labels = _variety_chunks(n_sentences=20, target=60)
        plan = FeaturePlan(families=(FW,), resources=resources)
        with pytest.raises(ValueError, match="folds"):
            cross_validate(chunks[:5], labels[:5], plan, folds=10)

    def test_reproducible_for_fixed_seed(self, resources):
        chunks, labels = _variety_chunks(n_sentences=250, target=100)
        plan = FeaturePlan(families=(FW,), resources=resources)
        first = cross_validate(chunks, labels, plan, folds=5, seed=3)
        second = cross_validate(chunks, labels, plan, folds=5, seed=3)
        assert first.fold_accuracies == second.fold_accuracies
        assert np.array_equal(first.confusion, second.confusion)

    @pytest.mark.parametrize("task", [("N", "T"), ("NN", "T")])
    def test_shared_tables_equal_fresh_counts(self, resources, task):
        # a task view of the stage's tables, counted over every chunk first,
        # gives the report of counting the task's chunks afresh; the varieties
        # are interleaved so that task rows are not stage rows, and C is small
        # enough that some folds misclassify
        chunks, labels = _variety_chunks(n_sentences=250, target=100)
        order = np.random.default_rng(4).permutation(len(chunks))
        chunks, labels = [chunks[i] for i in order], [labels[i] for i in order]
        plan = FeaturePlan(
            families=FAMILIES, resources=resources, top_pos3=40, postok_min_count=3
        )
        records = ChunkCounts(chunks)
        plan.fit(records)
        keep = [i for i, lab in enumerate(labels) if lab in task]
        task_labels = [labels[i] for i in keep]
        shared = cross_validate(records.take(keep), task_labels, plan, folds=4, seed=3, C=0.2)
        fresh = cross_validate(
            [chunks[i] for i in keep], task_labels, plan, folds=4, seed=3, C=0.2
        )
        assert shared.fold_accuracies == fresh.fold_accuracies
        assert shared.mean_accuracy == fresh.mean_accuracy
        assert np.array_equal(shared.confusion, fresh.confusion)
        assert shared.label_order == fresh.label_order
        assert min(shared.fold_accuracies) < 1.0


class TestRankFeatures:
    def test_sorted_by_magnitude(self):
        model = SvmModel(
            weights=np.array([0.5, -2.0, 0.1]), bias=0.0, alphas=None,
            labels=("p", "n"), feature_names=("f1", "f2", "f3"),
        )
        assert [name for name, _ in rank_features(model)] == ["f2", "f1", "f3"]

    def test_all_zero_weights_keep_input_order(self):
        model = SvmModel(
            weights=np.zeros(3), bias=0.0, alphas=None,
            labels=("p", "n"), feature_names=("f1", "f2", "f3"),
        )
        assert [name for name, _ in rank_features(model)] == ["f1", "f2", "f3"]

    def test_sole_discriminator_ranks_first(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 5)) * 0.05
        labels = ["a"] * 30 + ["b"] * 30
        X[:30, 2] += 1.0  # feature index 2 alone separates
        model = train_binary(
            X, labels, C=10.0, feature_names=[f"f{i}" for i in range(5)]
        )
        assert rank_features(model)[0][0] == "f2"
