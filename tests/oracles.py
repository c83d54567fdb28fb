"""Independent reference implementations used as test oracles.

These deliberately avoid the library's computation paths: the DFT is a direct
O(N^2) matrix product, interpolation is a scalar per-point loop, LLC is an
iterative constrained solver, Fisher vectors come from finite differences of an
explicit log-likelihood, the SVM bound comes from subgradient descent, and
``hinge_objective`` is the SVM primal written out directly. The SVM reference
trainer runs the same dual coordinate descent as the library on P-length
primal rows, not on the Gram matrix, and the Fisher loop reference
accumulates one GMM component at a time where the library builds all
components in one batched pass. The K-means reference is a plain Lloyd loop
over the full distance matrix, with ``rng.choice`` draws for its k-means++
start and ``np.add.at`` for its centroid sums.
"""

import numpy as np

from tdfenc.errors import DataError


def naive_dft_reference(signal) -> np.ndarray:
    """Direct O(N^2) evaluation of the DFT magnitude; the test oracle for dft_magnitude."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DataError("signal must be a non-empty vector")
    if not np.all(np.isfinite(x)):
        raise DataError("signal contains non-finite values")
    n = x.shape[0]
    idx = np.arange(n, dtype=np.int64)
    phase = (idx[:, None] * idx[None, :]) % n
    matrix = np.exp((-2j * np.pi / n) * phase)
    return np.abs(matrix @ x)


def squared_distances(points, centers):
    """All pairwise squared Euclidean distances by the Gram expansion, clamped
    at zero: the reference ranking for the blocked nearest-center search."""
    sq = (
        np.sum(points * points, axis=1)[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(sq, 0.0)


def kmeans_pp_reference(data, num_words, rng):
    """k-means++ seeding as a plain loop over rng.choice with explicit probabilities;
    when every remaining point coincides with a chosen one, the lowest free index."""
    m = data.shape[0]
    chosen = [int(rng.integers(m))]
    min_sq = squared_distances(data, data[chosen[-1]][None, :])[:, 0]
    for _ in range(num_words - 1):
        total = float(min_sq.sum())
        if total <= 0.0:
            nxt = min(set(range(m)) - set(chosen))
        else:
            nxt = int(rng.choice(m, p=min_sq / total))
        chosen.append(nxt)
        min_sq = np.minimum(min_sq, squared_distances(data, data[nxt][None, :])[:, 0])
    return data[chosen]


def kmeans_reference(data, num_words, seed, max_iters):
    """Lloyd's algorithm as a plain loop: the seeded k-means++ start above, then
    per iteration the argmin of the full distance matrix, each cluster that
    argmin leaves empty reseated on the point farthest from its own centroid,
    and centroids from ``np.add.at`` sums. Stops when the labels repeat or
    after ``max_iters`` iterations. Returns the centroids and the number of
    iterations run."""
    centroids = kmeans_pp_reference(data, num_words, np.random.default_rng(seed)).copy()
    labels = None
    for iteration in range(1, max_iters + 1):
        new_labels = np.argmin(squared_distances(data, centroids), axis=1)
        own_sq = np.sum((data - centroids[new_labels]) ** 2, axis=1)
        empty = [k for k in range(num_words) if not np.any(new_labels == k)]
        for k in empty:
            farthest = int(np.argmax(own_sq))
            centroids[k] = data[farthest]
            new_labels[farthest] = k
            own_sq[farthest] = -np.inf
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, data)
        counts = np.bincount(labels, minlength=num_words)
        centroids = sums / counts[:, None]
    return centroids, iteration


def keys_kernel(t):
    """Scalar cubic-convolution kernel, a = -1/2."""
    t = abs(t)
    if t <= 1.0:
        return (1.5 * t - 2.5) * t * t + 1.0
    if t < 2.0:
        return ((-0.5 * t + 2.5) * t - 4.0) * t + 2.0
    return 0.0


def cubic_oracle(points, target_length):
    """Per-point cubic-convolution interpolation with linear edge extension."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)

    def sample(idx):
        if idx == -1:
            return 2.0 * pts[0] - pts[1]
        if idx == n:
            return 2.0 * pts[-1] - pts[-2]
        return pts[idx]

    out = np.empty(target_length)
    for j in range(target_length):
        t = 0.0 if target_length == 1 else j * (n - 1) / (target_length - 1)
        base = int(np.floor(t))
        total = 0.0
        for m in range(base - 1, base + 3):
            w = keys_kernel(t - m)
            if w != 0.0:
                total += w * sample(min(max(m, -1), n))
        out[j] = total
    return out


def llc_projected_gradient_oracle(codebook, params, x, iters=20000):
    """Accelerated projected gradient (with adaptive restart) on the same
    k-neighbor sum-to-one constrained least-squares problem."""
    distances = np.sum((codebook.centroids - x) ** 2, axis=1)
    nearest = np.argsort(distances, kind="stable")[: params.neighbors]
    basis = codebook.centroids[nearest]
    k = params.neighbors
    gram = basis @ basis.T + params.lam * np.eye(k)
    step = 1.0 / (2.0 * np.linalg.eigvalsh(gram).max())

    def project(c):
        return c - (c.sum() - 1.0) / k

    def gradient(c):
        return 2.0 * (basis @ (basis.T @ c - x) + params.lam * c)

    def objective(c):
        return np.sum((x - basis.T @ c) ** 2) + params.lam * np.sum(c * c)

    current = project(np.full(k, 1.0 / k))
    momentum = current.copy()
    t_prev = 1.0
    last_objective = objective(current)
    for _ in range(iters):
        nxt = project(momentum - step * gradient(momentum))
        value = objective(nxt)
        if value > last_objective:
            # restart the momentum; keeps convergence linear on this strongly convex problem
            momentum, t_prev = nxt, 1.0
        else:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2)) / 2.0
            momentum = nxt + ((t_prev - 1.0) / t_next) * (nxt - current)
            t_prev = t_next
        current, last_objective = nxt, value
    code = np.zeros(codebook.num_words)
    code[nearest] = current
    return code


def gmm_log_likelihood(data, weights, means, stds):
    """Total log-likelihood of a diagonal GMM parameterized by standard deviations."""
    total = 0.0
    for x in data:
        comps = np.log(weights) + np.sum(
            -0.5 * np.log(2 * np.pi * stds**2) - 0.5 * ((x - means) / stds) ** 2, axis=1
        )
        peak = comps.max()
        total += peak + np.log(np.exp(comps - peak).sum())
    return total


def fisher_finite_difference_oracle(model, data, h=1e-5):
    """Central finite differences of the log-likelihood, rescaled to Fisher coordinates."""
    n, _ = data.shape
    k, d = model.means.shape
    stds = np.sqrt(model.variances)
    u = np.zeros((k, d))
    v = np.zeros((k, d))
    for ki in range(k):
        for di in range(d):
            plus = model.means.copy()
            minus = model.means.copy()
            plus[ki, di] += h
            minus[ki, di] -= h
            grad = (
                gmm_log_likelihood(data, model.weights, plus, stds)
                - gmm_log_likelihood(data, model.weights, minus, stds)
            ) / (2 * h)
            u[ki, di] = stds[ki, di] / (n * np.sqrt(model.weights[ki])) * grad

            plus = stds.copy()
            minus = stds.copy()
            plus[ki, di] += h
            minus[ki, di] -= h
            grad = (
                gmm_log_likelihood(data, model.weights, model.means, plus)
                - gmm_log_likelihood(data, model.weights, model.means, minus)
            ) / (2 * h)
            v[ki, di] = stds[ki, di] / (n * np.sqrt(2.0 * model.weights[ki])) * grad
    return np.concatenate([u.ravel(), v.ravel()])


def fisher_loop_reference(model, data, resp, normalize):
    """Fisher vector accumulated one component at a time from given posteriors.

    ``resp`` holds the N x K posteriors, so only the accumulation of the two
    orders is compared. With ``normalize`` the vector is signed-square-rooted
    and scaled to unit length.
    """
    n = data.shape[0]
    sigma = np.sqrt(model.variances)
    first = np.empty((model.num_components, model.dims))
    second = np.empty_like(first)
    for k in range(model.num_components):
        standardized = (data - model.means[k]) / sigma[k]
        weighted = resp[:, k][:, None]
        first[k] = np.sum(weighted * standardized, axis=0) / (n * np.sqrt(model.weights[k]))
        second[k] = np.sum(weighted * (standardized * standardized - 1.0), axis=0) / (
            n * np.sqrt(2.0 * model.weights[k])
        )
    values = np.concatenate([first.ravel(), second.ravel()])
    if normalize:
        values = np.sign(values) * np.sqrt(np.abs(values))
        norm = np.linalg.norm(values)
        if norm > 0:
            values = values / norm
    return values


def hinge_objective(weights, bias: float, penalty: float, inputs, targets) -> float:
    """Regularized hinge loss: 0.5*||w||^2 + C * sum_i max(1 - y_i*(w.x_i + b), 0),
    the primal objective the SVM trainer records; b stays out of the regularizer."""
    w = np.asarray(weights, dtype=np.float64)
    data = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != w.shape[0]:
        raise DataError("inputs must be a T x P matrix matching the weight length")
    margins = y * (data @ w + bias)
    return float(0.5 * np.dot(w, w) + penalty * np.sum(np.maximum(1.0 - margins, 0.0)))


def svm_subgradient_oracle(inputs, targets, penalty, steps=200000):
    """Diminishing-step subgradient descent on the hinge objective; best value kept."""
    w = np.zeros(inputs.shape[1])
    b = 0.0
    best = np.inf
    for t in range(steps):
        margins = targets * (inputs @ w + b)
        violated = margins < 1.0
        grad_w = w - penalty * (targets[violated, None] * inputs[violated]).sum(axis=0)
        grad_b = -penalty * targets[violated].sum()
        step = 2.0 / (t + 2.0)
        w -= step * grad_w
        b -= step * 0.05 * grad_b
        objective = 0.5 * w @ w + penalty * np.maximum(1.0 - targets * (inputs @ w + b), 0.0).sum()
        best = min(best, objective)
    return best


def svm_primal_rows_reference(inputs, labels, num_classes, penalty, max_epochs, tol, seed):
    """One-vs-rest dual coordinate descent that keeps the bias-augmented primal w.

    Each coordinate reads its gradient as a dot product of w with its augmented
    row and a move of its alpha adds that row to w; each epoch's primal is
    computed from w. The permutations, update rule, ``tol`` test and best-primal
    rule are those of ``train_linear_svm``. Returns the weights, the biases and
    one per-epoch list of best primal objectives per class.
    """
    augmented = np.hstack([inputs, np.ones((inputs.shape[0], 1))])
    diag = np.sum(augmented * augmented, axis=1)
    count, width = augmented.shape
    weights = np.zeros((num_classes, width - 1))
    biases = np.zeros(num_classes)
    traces = []
    for c in range(num_classes):
        targets = np.where(labels == c, 1.0, -1.0)
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        alpha = np.zeros(count)
        w = np.zeros(width)
        best_w = w.copy()
        best_objective = np.inf
        trace = []
        for _ in range(max_epochs):
            worst = 0.0
            for i in rng.permutation(count):
                grad = targets[i] * np.dot(w, augmented[i]) - 1.0
                a = alpha[i]
                if a <= 0.0:
                    projected = min(grad, 0.0)
                elif a >= penalty:
                    projected = max(grad, 0.0)
                else:
                    projected = grad
                worst = max(worst, abs(projected))
                if abs(projected) > 1e-14:
                    updated = min(max(a - grad / diag[i], 0.0), penalty)
                    if updated != a:
                        w += (updated - a) * targets[i] * augmented[i]
                        alpha[i] = updated
            margins = targets * (inputs @ w[:-1] + w[-1])
            objective = 0.5 * w[:-1] @ w[:-1] + penalty * np.maximum(1.0 - margins, 0.0).sum()
            if objective < best_objective:
                best_objective = objective
                best_w = w.copy()
            trace.append(best_objective)
            if worst < tol:
                break
        weights[c], biases[c] = best_w[:-1], best_w[-1]
        traces.append(trace)
    return weights, biases, traces
