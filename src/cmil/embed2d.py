"""2-D projections for the global explanation views: PCA and an exact t-SNE."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataValidationError, ShapeError

_P_FLOOR = 1e-12


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    s = np.sum(x * x, axis=1)
    gram = x @ x.T
    np.multiply(2.0, gram, out=gram)
    d2 = np.add(s[:, None], s[None, :])
    np.subtract(d2, gram, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0, out=d2)


def pca_2d(points: np.ndarray) -> np.ndarray:
    """Project onto the top-2 principal components.

    Sign convention: each component is flipped so its largest-magnitude
    loading is positive (ties broken by lowest feature index), which makes
    the output deterministic across SVD implementations.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ShapeError(f"PCA needs an n x d matrix with d >= 2, got {x.shape}")
    centered = x - x.mean(axis=0)
    if np.max(np.abs(centered)) == 0.0:
        raise DataValidationError("cannot project: all points are identical")
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2].copy()
    for k in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[k])))
        if comps[k, j] < 0:
            comps[k] = -comps[k]
    return centered @ comps.T


def calibrate_conditionals(d2: np.ndarray, perplexity: float,
                           tol: float = 1e-5, max_iter: int = 200):
    """Per-row bisection on the Gaussian precision so that each conditional
    distribution's Shannon entropy (bits) matches log2(perplexity) within tol.

    Returns (conditional matrix with zero diagonal, precisions).  Rows with
    equidistant neighbours stay uniform at any bandwidth; bisection then stops
    at max_iter and the uniform row is kept.
    """
    n = d2.shape[0]
    target = math.log2(perplexity)
    cond = np.zeros((n, n))
    betas = np.ones(n)
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        di = d2[i, others[i]]
        di = di - di.min()  # shift-invariant; keeps exp() from underflowing
        beta, lo, hi = 1.0, 0.0, math.inf
        pi = np.full(n - 1, 1.0 / (n - 1))
        for _ in range(max_iter):
            w = np.exp(-beta * di)
            pi = w / w.sum()
            nz = pi > 0
            entropy = -np.sum(pi[nz] * np.log2(pi[nz]))
            if abs(entropy - target) <= tol:
                break
            if entropy > target:
                lo = beta
                beta = beta * 2.0 if hi == math.inf else 0.5 * (lo + hi)
            else:
                hi = beta
                beta = 0.5 * (lo + hi)
        cond[i, others[i]] = pi
        betas[i] = beta
    return cond, betas


def _kl_nats(p: np.ndarray, q: np.ndarray) -> float:
    t = np.divide(p, q)
    np.log(t, out=t)
    np.multiply(p, t, out=t)
    return float(np.sum(t))


def _q_matrix(y: np.ndarray):
    num = _pairwise_sq_dists(y)
    np.add(1.0, num, out=num)
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    q = np.divide(num, num.sum())
    return np.maximum(q, _P_FLOOR, out=q), num


def _tsne_grad(p: np.ndarray, q: np.ndarray, num: np.ndarray, y: np.ndarray):
    pq = np.subtract(p, q)
    np.multiply(pq, num, out=pq)
    rowsum = pq.sum(axis=1)
    # diag(rowsum) - pq, built in place: negate, then add rowsum on the diagonal
    np.negative(pq, out=pq)
    pq.flat[::pq.shape[0] + 1] += rowsum
    return 4.0 * (pq @ y)


@dataclass
class TsneResult:
    points: np.ndarray
    kl_trace: list = field(default_factory=list)
    betas: np.ndarray = None


def tsne_2d(points: np.ndarray, perplexity: float = None, seed: int = 0,
            iterations: int = 500, learning_rate: float = 200.0) -> TsneResult:
    """Exact O(n^2) symmetric-SNE embedding into two dimensions.

    Schedule: early exaggeration x12 while momentum is 0.5, momentum 0.8
    afterwards, per-parameter adaptive gains as in the reference
    implementation; the last 100 iterations switch to plain descent with step
    backtracking so the KL trace over that window is non-increasing.

    kl_trace[i] is the KL divergence (nats) of the iterate after step i, and
    the Q matrix of that same iterate feeds step i+1, so each iterate's Q and
    KL are computed once.
    """
    x = np.asarray(points, dtype=float)
    n = x.shape[0]
    if perplexity is None:
        perplexity = min(30, (n - 1) // 3)
    if perplexity < 1:
        raise ConfigError(f"perplexity must be >= 1, got {perplexity}")
    if perplexity > (n - 1) / 3:
        raise ConfigError(
            f"perplexity {perplexity} too large for {n} points (limit {(n - 1) / 3:.2f})"
        )
    if iterations < 1:
        raise ConfigError("iterations must be positive")

    d2 = _pairwise_sq_dists(x)
    if np.max(d2) <= 0.0:
        raise DataValidationError("cannot project: all points are identical")
    cond, betas = calibrate_conditionals(d2, perplexity)
    p = np.add(cond, cond.T)
    del d2, cond  # only p is used from here on
    np.divide(p, 2.0 * n, out=p)
    np.maximum(p, _P_FLOOR, out=p)

    rng = np.random.default_rng(seed)
    y = rng.normal(scale=1e-4, size=(n, 2))
    vel = np.zeros_like(y)
    gains = np.ones_like(y)
    # exaggeration runs while momentum is low; both end at the same switch
    switch = min(250, iterations // 2)
    tail = min(100, iterations)
    p_exaggerated = p * 12.0
    kl_trace = []

    # (q, num) and, once computed, kl describe the current y
    q, num = _q_matrix(y)
    kl = None
    for it in range(iterations):
        if it < iterations - tail:
            grad = _tsne_grad(p_exaggerated if it < switch else p, q, num, y)
            momentum = 0.5 if it < switch else 0.8
            flipped = np.sign(grad) != np.sign(vel)
            gains = np.maximum(np.where(flipped, gains + 0.2, gains * 0.8), 0.01)
            vel = momentum * vel - learning_rate * (gains * grad)
            y = y + vel
            y = y - y.mean(axis=0)
            q, num = _q_matrix(y)
            kl = _kl_nats(p, q)
        else:
            grad = _tsne_grad(p, q, num, y)
            if kl is None:
                kl = _kl_nats(p, q)
            step = learning_rate
            for _ in range(40):
                cand = y - step * grad
                cand = cand - cand.mean(axis=0)
                cand_q, cand_num = _q_matrix(cand)
                cand_kl = _kl_nats(p, cand_q)
                if cand_kl <= kl:
                    y, q, num, kl = cand, cand_q, cand_num, cand_kl
                    break
                step *= 0.5
        kl_trace.append(kl)

    return TsneResult(points=y, kl_trace=kl_trace, betas=betas)


def project_2d(points: np.ndarray, method: str = "pca", **params) -> np.ndarray:
    """Dispatch to PCA or t-SNE; returns an n x 2 array."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected an n x d matrix, got shape {x.shape}")
    if x.shape[0] < 3:
        raise DataValidationError(f"need at least 3 points, got {x.shape[0]}")
    if method == "pca":
        if params:
            raise ConfigError(f"pca takes no parameters, got {sorted(params)}")
        return pca_2d(x)
    if method == "tsne":
        return tsne_2d(x, **params).points
    raise ConfigError(f"unknown projection method {method!r}")
