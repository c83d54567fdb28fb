"""The Gram-matrix trainer against the primal-row reference, and its input checks."""

import warnings

import numpy as np
import pytest

from oracles import hinge_objective, svm_primal_rows_reference
from test_svm import symmetric_blobs
from tdfenc import predict, train_linear_svm
from tdfenc.errors import DataError


def wide_set(seed=11, per_class=10, classes=4, dims=300):
    # Fewer vectors than dimensions, the shape of the benchmark's training
    # sets. The shared offset makes the rows strongly correlated, as fused
    # video vectors are, so coordinate descent is slow to converge.
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 0.3, size=(classes, dims))
    labels = np.repeat(np.arange(classes), per_class)
    offset = rng.normal(size=dims)
    data = offset + centers[labels] + rng.normal(0.0, 0.3, size=(len(labels), dims))
    return data, labels


CASES = {
    # more vectors than dimensions, every class run until it meets tol
    "blobs-to-tol": (*symmetric_blobs(2, n=20, d=3)[1:], 2, 1.0, 2000, 1e-10),
    # 40 x 300, every class stopped at its epoch cap
    "wide-at-cap": (*wide_set(), 4, 100.0, 20, 1e-6),
}


@pytest.fixture(params=sorted(CASES), scope="module")
def trained(request):
    data, labels, num_classes, penalty, max_epochs, tol = CASES[request.param]
    trace = []
    model = train_linear_svm(
        list(zip(data, labels)), num_classes, penalty, max_epochs, tol, seed=5,
        objective_trace=trace,
    )
    reference = svm_primal_rows_reference(
        data, labels, num_classes, penalty, max_epochs, tol, seed=5
    )
    return request.param, data, labels, penalty, max_epochs, model, trace, reference


def test_same_iterates_as_the_primal_row_reference(trained):
    name, data, labels, _, max_epochs, model, trace, reference = trained
    ref_weights, ref_biases, ref_traces = reference
    lengths = [len(t) for t in trace]
    assert lengths == [len(t) for t in ref_traces]
    if name == "wide-at-cap":
        assert lengths == [max_epochs] * len(lengths)
    else:
        assert max(lengths) < max_epochs
    for c in range(len(trace)):
        scale = np.abs(ref_weights[c]).max()
        assert np.abs(model.weights[c] - ref_weights[c]).max() <= 1e-10 * scale
        assert abs(model.biases[c] - ref_biases[c]) <= 1e-10 * max(abs(ref_biases[c]), scale)
    probes = np.vstack([data, np.random.default_rng(3).normal(size=data.shape)])
    ref_predictions = np.argmax(probes @ ref_weights.T + ref_biases, axis=1)
    assert [predict(model, x)[0] for x in probes] == ref_predictions.tolist()


def test_last_trace_entry_is_the_hinge_objective_of_the_model(trained):
    _, data, labels, penalty, _, model, trace, _ = trained
    for c, class_trace in enumerate(trace):
        targets = np.where(labels == c, 1.0, -1.0)
        expected = hinge_objective(model.weights[c], model.biases[c], penalty, data, targets)
        assert class_trace[-1] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 2])
def test_non_finite_training_vector_names_its_row(bad, row):
    pairs = [(np.array([1.0, 0.0]), 0), (np.array([0.0, 1.0]), 1), (np.array([1.0, 1.0]), 1)]
    pairs[row] = (np.array([bad, 0.0]), pairs[row][1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"training vector {row} has non-finite"):
            train_linear_svm(pairs, 2, 1.0)


def test_overflowing_gram_matrix_rejected_without_warnings():
    pairs = [(np.array([1e200, 0.0]), 0), (np.array([1.0, 0.0]), 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="overflow"):
            train_linear_svm(pairs, 2, 1.0)


@pytest.mark.parametrize("penalty", [np.inf, np.nan])
def test_non_finite_penalty_rejected(penalty):
    with pytest.raises(DataError, match="penalty"):
        train_linear_svm([(np.array([-1.0]), 0), (np.array([1.0]), 1)], 2, penalty)
