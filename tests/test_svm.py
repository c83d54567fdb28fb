import numpy as np
import pytest

from tdfenc import (
    VideoVector,
    hinge_objective,
    load_svm_model,
    predict,
    save_svm_model,
    train_linear_svm,
)
from tdfenc.errors import DataError
from tdfenc.svm import LinearSvmModel


def separable_pair():
    return [(np.array([-2.0]), 0), (np.array([2.0]), 1)]


def symmetric_blobs(seed, n=15, d=2, center=2.0, spread=0.3):
    # point-mirrored classes keep the optimal bias at exactly zero
    rng = np.random.default_rng(seed)
    lo = rng.normal(-center, spread, size=(n, d))
    data = np.vstack([lo, -lo])
    labels = np.array([0] * n + [1] * n)
    return list(zip(data, labels)), data, labels


from oracles import svm_subgradient_oracle


class TestTraining:
    def test_separable_pair_large_penalty(self):
        model = train_linear_svm(separable_pair(), 2, penalty=100.0, max_epochs=500, tol=1e-10)
        for x, label in separable_pair():
            assert predict(model, x)[0] == label
        # zero hinge at the optimum: only the regularizer remains
        for c, sign in ((0, 1.0), (1, -1.0)):
            targets = np.array([sign, -sign])
            inputs = np.array([[-2.0], [2.0]])
            objective = hinge_objective(model.weights[c], model.biases[c], 100.0, inputs, targets)
            regularizer = 0.5 * float(model.weights[c] @ model.weights[c])
            assert objective == pytest.approx(regularizer, abs=1e-8)

    def test_missing_class_rejected(self):
        with pytest.raises(DataError, match="class 1"):
            train_linear_svm([(np.zeros(2), 0), (np.ones(2), 0)], 2, penalty=1.0)

    def test_matches_subgradient_oracle(self):
        for seed in (0, 1, 2):
            pairs, data, labels = symmetric_blobs(seed)
            model = train_linear_svm(pairs, 2, penalty=1.0, max_epochs=2000, tol=1e-10, seed=seed)
            targets = np.where(labels == 0, 1.0, -1.0)
            ours = hinge_objective(model.weights[0], model.biases[0], 1.0, data, targets)
            oracle = svm_subgradient_oracle(data, targets, 1.0)
            assert abs(ours - oracle) / oracle < 1e-3

    def test_per_epoch_objective_non_increasing(self):
        for seed in range(6):
            pairs, _, _ = symmetric_blobs(seed, n=20, d=3)
            for penalty in (1.0, 100.0):
                trace = []
                train_linear_svm(
                    pairs, 2, penalty=penalty, max_epochs=400, tol=1e-9,
                    seed=seed, objective_trace=trace,
                )
                assert len(trace) == 2
                for class_trace in trace:
                    assert np.all(np.diff(class_trace) <= 1e-8)

    def test_deterministic_under_seed(self):
        pairs, _, _ = symmetric_blobs(3)
        a = train_linear_svm(pairs, 2, penalty=10.0, seed=4)
        b = train_linear_svm(pairs, 2, penalty=10.0, seed=4)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_accepts_video_vectors(self):
        pairs = [
            (VideoVector(np.array([-1.0, 0.0]), "average", "time"), 0),
            (VideoVector(np.array([1.0, 0.0]), "average", "time"), 1),
        ]
        model = train_linear_svm(pairs, 2, penalty=100.0)
        assert predict(model, pairs[0][0])[0] == 0

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(DataError, match="inconsistent"):
            train_linear_svm([(np.zeros(2), 0), (np.zeros(3), 1)], 2, penalty=1.0)

    def test_bad_hyperparameters_rejected(self):
        pairs = separable_pair()
        with pytest.raises(DataError):
            train_linear_svm(pairs, 2, penalty=0.0)
        with pytest.raises(DataError):
            train_linear_svm(pairs, 1, penalty=1.0)
        with pytest.raises(DataError):
            train_linear_svm(pairs, 2, penalty=1.0, max_epochs=0)


class TestPredict:
    def test_separable_pair_predictions(self):
        model = train_linear_svm(separable_pair(), 2, penalty=100.0)
        assert predict(model, np.array([-2.0]))[0] == 0
        assert predict(model, np.array([2.0]))[0] == 1

    def test_tie_goes_to_lowest_index(self):
        model = LinearSvmModel(
            weights=np.array([[1.0], [-1.0]]), biases=np.zeros(2), penalty=1.0
        )
        predicted, scores = predict(model, np.array([0.0]))
        assert predicted == 0
        np.testing.assert_array_equal(scores, [0.0, 0.0])

    def test_scores_affine_in_input(self):
        rng = np.random.default_rng(5)
        model = LinearSvmModel(
            weights=rng.normal(size=(3, 4)), biases=rng.normal(size=3), penalty=1.0
        )
        x = rng.normal(size=4)
        zero = predict(model, np.zeros(4))[1]
        base = predict(model, x)[1]
        for alpha in (2.0, 0.5):
            scaled = predict(model, alpha * x)[1]
            np.testing.assert_allclose(scaled - zero, alpha * (base - zero), atol=1e-12)

    def test_matches_direct_dot_products(self):
        rng = np.random.default_rng(6)
        model = LinearSvmModel(
            weights=rng.normal(size=(4, 7)), biases=rng.normal(size=4), penalty=2.0
        )
        for _ in range(20):
            x = rng.normal(size=7)
            _, scores = predict(model, x)
            expected = np.array([model.weights[c] @ x + model.biases[c] for c in range(4)])
            np.testing.assert_allclose(scores, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        model = LinearSvmModel(weights=np.zeros((2, 3)), biases=np.zeros(2), penalty=1.0)
        with pytest.raises(DataError):
            predict(model, np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        model = LinearSvmModel(weights=[[1.0], [-1.0]], biases=[0.0, 0.0], penalty=1.0)
        with pytest.raises(DataError, match="input vector has non-finite values"):
            predict(model, np.array([bad]))

    def test_overflowing_scores_rejected(self):
        model = LinearSvmModel(weights=[[1e200], [-1.0]], biases=[0.0, 0.0], penalty=1.0)
        with pytest.raises(DataError, match="input scores overflow float64"):
            predict(model, np.array([1e200]))


class TestHingeObjective:
    def test_zero_parameters_give_penalty_times_count(self):
        rng = np.random.default_rng(7)
        inputs = rng.normal(size=(13, 4))
        targets = np.where(rng.uniform(size=13) < 0.5, 1.0, -1.0)
        assert hinge_objective(np.zeros(4), 0.0, 3.0, inputs, targets) == pytest.approx(3.0 * 13)

    def test_separated_with_unit_margins(self):
        inputs = np.array([[-2.0], [2.0]])
        targets = np.array([-1.0, 1.0])
        w = np.array([0.5])
        assert hinge_objective(w, 0.0, 100.0, inputs, targets) == pytest.approx(0.125)

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inputs = rng.normal(size=(9, 3))
            targets = np.where(rng.uniform(size=9) < 0.5, 1.0, -1.0)
            w = rng.normal(size=3)
            b = float(rng.normal())
            c = float(rng.uniform(0.5, 5.0))
            manual = 0.5 * sum(wi * wi for wi in w)
            for x, y in zip(inputs, targets):
                manual += c * max(1.0 - y * (float(np.dot(w, x)) + b), 0.0)
            assert hinge_objective(w, b, c, inputs, targets) == pytest.approx(manual, abs=1e-12)


def test_model_roundtrip_byte_identical(tmp_path):
    pairs, _, _ = symmetric_blobs(9)
    model = train_linear_svm(pairs, 2, penalty=5.0, seed=1)
    first, second = tmp_path / "a.tdfm", tmp_path / "b.tdfm"
    save_svm_model(model, first)
    loaded = load_svm_model(first)
    assert loaded.penalty == model.penalty
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.biases, model.biases)
    save_svm_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
