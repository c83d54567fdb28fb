"""One-vs-rest linear SVM trained by dual coordinate descent on the hinge loss.

Each class c gets a binary subproblem minimizing
``0.5*||w||^2 + C * sum_i max(1 - y_i*(w.x_i + b), 0)`` with y_i = +1 for
class c and -1 otherwise. The dual solved is that of inputs augmented with a
constant-1 coordinate, where b carries the same (negligible at this scale)
regularization as w; the objective recorded and used to pick the best iterate
(``hinge_objective``) is the one above, which leaves b out.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import binio
from .errors import DataError, FormatError

MODEL_MAGIC = b"TDFM"


@dataclass(frozen=True)
class LinearSvmModel:
    """Per-class weight vectors and biases with the training penalty C."""

    weights: np.ndarray
    biases: np.ndarray
    penalty: float

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        biases = np.asarray(self.biases, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] < 2 or weights.shape[1] < 1:
            raise DataError(f"weights must be a num_classes x P matrix, got {weights.shape}")
        if biases.shape != (weights.shape[0],):
            raise DataError("biases length must match the class count")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
            raise DataError("model parameters contain non-finite values")
        if not np.isfinite(self.penalty) or self.penalty <= 0:
            raise DataError(f"penalty must be positive, got {self.penalty}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dims(self) -> int:
        return self.weights.shape[1]


def _vector_of(x) -> np.ndarray:
    values = getattr(x, "values", x)
    return np.asarray(values, dtype=np.float64)


def hinge_objective(weights, bias: float, penalty: float, inputs, targets) -> float:
    """Regularized hinge loss: 0.5*||w||^2 + C * sum_i max(1 - y_i*(w.x_i + b), 0)."""
    w = np.asarray(weights, dtype=np.float64)
    data = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != w.shape[0]:
        raise DataError("inputs must be a T x P matrix matching the weight length")
    margins = y * (data @ w + bias)
    return float(0.5 * np.dot(w, w) + penalty * np.sum(np.maximum(1.0 - margins, 0.0)))


def _train_binary(
    gram: np.ndarray,
    targets: np.ndarray,
    penalty: float,
    max_epochs: int,
    tol: float,
    rng: np.random.Generator,
    trace: list | None,
) -> tuple[np.ndarray, float]:
    """Dual coordinate descent for one binary subproblem over the Gram matrix.

    The dual is that of the bias-augmented inputs (kernel ``gram + 1``), where b
    is regularized like w. With ``beta = y*alpha``, ``w = X^T beta``, b is the
    running ``sum(beta)`` and ``scores = gram @ beta`` gains one row of gram per
    alpha that moves. The primal can swing between epochs, so the iterate
    returned is the one with the lowest ``hinge_objective``, which leaves b out.
    """
    count = len(targets)
    y = targets.tolist()
    diag = (gram.diagonal() + 1.0).tolist()
    rows = list(gram)
    alpha = [0.0] * count
    scores = np.zeros(count)
    bias = 0.0
    best_beta, best_bias = np.zeros(count), 0.0
    best_objective = np.inf
    for _ in range(max_epochs):
        worst = 0.0
        for i in rng.permutation(count).tolist():
            grad = y[i] * (scores.item(i) + bias) - 1.0
            a = alpha[i]
            # magnitude of the projected gradient
            if a <= 0.0:
                projected = -grad if grad < 0.0 else 0.0
            elif a >= penalty:
                projected = grad if grad > 0.0 else 0.0
            else:
                projected = abs(grad)
            if projected > worst:
                worst = projected
            if projected > 1e-14:
                updated = a - grad / diag[i]
                updated = 0.0 if updated < 0.0 else penalty if updated > penalty else updated
                if updated != a:
                    step = (updated - a) * y[i]
                    scores += step * rows[i]
                    bias += step
                    alpha[i] = updated
        beta = targets * alpha
        products = gram @ beta
        hinge = np.maximum(1.0 - targets * (products + bias), 0.0)
        objective = 0.5 * float(beta @ products) + penalty * float(hinge.sum())
        if objective < best_objective:
            best_objective = objective
            best_beta, best_bias = beta, bias
        if trace is not None:
            trace.append(best_objective)
        if worst < tol:
            break
    return best_beta, best_bias


def train_linear_svm(
    train,
    num_classes: int,
    penalty: float,
    max_epochs: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
    objective_trace: list | None = None,
) -> LinearSvmModel:
    """Train one-vs-rest hinge-loss classifiers by dual coordinate descent.

    ``train`` is a list of (vector, label) pairs; vectors may be VideoVectors
    or plain arrays of one common dimension. Coordinates are visited in a
    seeded random order each epoch, and a class subproblem stops once the
    largest projected dual gradient of an epoch falls below ``tol``. When
    ``objective_trace`` is a list, one per-epoch list of primal objectives is
    appended per class; its last entry is the recorded final objective.
    """
    if num_classes < 2:
        raise DataError(f"need at least 2 classes, got {num_classes}")
    if not (penalty > 0 and np.isfinite(penalty)):
        raise DataError(f"penalty must be positive and finite, got {penalty}")
    if max_epochs < 1:
        raise DataError(f"max_epochs must be positive, got {max_epochs}")
    if not train:
        raise DataError("training set is empty")
    rows = [_vector_of(x) for x, _ in train]
    labels = np.asarray([label for _, label in train], dtype=np.int64)
    width = rows[0].shape[0]
    for r in rows:
        if r.shape != (width,):
            raise DataError("training vectors have inconsistent dimensions")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise DataError("labels out of range for the declared class count")
    for c in range(num_classes):
        if not np.any(labels == c):
            raise DataError(f"class {c} has no training examples")
    data = np.vstack(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise DataError(f"training vector {int(np.argmin(finite))} has non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = data @ data.T
    if not np.isfinite(gram).all():
        raise DataError("training vectors are too large: their inner products overflow float64")
    betas = np.empty((num_classes, len(rows)))
    biases = np.empty(num_classes)
    for c in range(num_classes):
        targets = np.where(labels == c, 1.0, -1.0)
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        class_trace: list | None = [] if objective_trace is not None else None
        betas[c], biases[c] = _train_binary(
            gram, targets, penalty, max_epochs, tol, rng, class_trace
        )
        if objective_trace is not None:
            objective_trace.append(class_trace)
    return LinearSvmModel(weights=betas @ data, biases=biases, penalty=penalty)


def predict(model: LinearSvmModel, x) -> tuple[int, np.ndarray]:
    """Class index with the highest score and the full score vector.

    Scores are ``w_c . x + b_c``; ties go to the lowest class index. An input
    with NaN or ±inf, or one whose scores overflow, raises ``DataError``.
    """
    vec = _vector_of(x)
    if vec.shape != (model.dims,):
        raise DataError(
            f"dimension mismatch: input shape {vec.shape}, model dims {model.dims}"
        )
    if not np.isfinite(vec).all():
        raise DataError("input vector has non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        scores = model.weights @ vec + model.biases
    if not np.isfinite(scores).all():
        raise DataError("input scores overflow float64")
    return int(np.argmax(scores)), scores


def save_svm_model(model: LinearSvmModel, path) -> None:
    """Write a TDFM file: header (num_classes, P), penalty, weights row-major, biases."""
    binio.atomic_write(
        path,
        binio.pack_header(MODEL_MAGIC, model.num_classes, model.dims),
        binio.f64_bytes(np.asarray([model.penalty])),
        binio.f64_bytes(model.weights),
        binio.f64_bytes(model.biases),
    )


def load_svm_model(path) -> LinearSvmModel:
    path = Path(path)
    with open(path, "rb") as fh:
        binio.check_magic(fh, MODEL_MAGIC, path)
        num_classes, dims = binio.read_u32(fh, 2, path)
        if num_classes < 2 or dims < 1:
            raise FormatError(f"corrupt file: {path}: bad header classes={num_classes}, P={dims}")
        penalty = float(binio.read_f64(fh, 1, path)[0])
        weights = binio.read_f64(fh, num_classes * dims, path).reshape(num_classes, dims)
        biases = binio.read_f64(fh, num_classes, path)
        binio.check_eof(fh, path)
    return LinearSvmModel(weights=weights, biases=biases, penalty=penalty)
