"""2-D projections for the global explanation views: PCA and an exact t-SNE."""

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataValidationError, ShapeError

_P_FLOOR = 1e-12

# The fewest points each projection accepts.  t-SNE's perplexity,
# min(30, (n - 1) // 3), is 0 below 4 points.
MIN_POINTS = {"pca": 3, "tsne": 4}


def _check_count(method: str, n: int) -> None:
    if n < MIN_POINTS[method]:
        raise DataValidationError(f"{method} needs at least {MIN_POINTS[method]} points, got {n}")


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


_ROWS = 64  # rows per block of the squared distances, in silhouette and t-SNE


def lift(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n x d points lifted for sq_dist_rows: n x 2d columns with [-x_k, 1]
    and 2d x n rows with [1; x_k] at 2k and 2k + 1, so row i of column pair
    k times row pair k is x_k[j] - x_k[i] for every j."""
    x = np.asarray(points, dtype=float)
    cols, rows = np.ones((x.shape[0], 2 * x.shape[1])), np.ones((2 * x.shape[1], x.shape[0]))
    relift(x, cols, rows)
    return cols, rows


def relift(points: np.ndarray, cols: np.ndarray, rows: np.ndarray) -> None:
    """Refill lift's cols and rows in place with the n x d points' coordinates."""
    np.negative(points, out=cols[:, ::2])
    rows[1::2] = points.T


def sq_dist_rows(cols: np.ndarray, rows: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill the b x m `out` with the squared distances from the b points whose
    lifted columns are `cols` (b x 2d, d >= 1) to the m points whose lifted
    rows are `rows` (2d x m; see lift), summed one coordinate at a time with
    `tmp` as scratch.  Each difference is one K = 2 matmul whose products
    are by 1, so it is rounded once, as a subtraction is: the distances are
    exactly symmetric and exactly 0 between coincident points.  Called with
    the rows from point lo on, it builds a block's upper strip (see
    sq_dist_strips)."""
    np.matmul(cols[:, :2], rows[:2], out=out)
    np.multiply(out, out, out=out)
    for k in range(2, cols.shape[1], 2):
        np.matmul(cols[:, k:k + 2], rows[k:k + 2], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)
    return out


def sq_dist_strips(cols: np.ndarray, rows: np.ndarray, buf: np.ndarray):
    """Yield (lo, strip) for each block of _ROWS rows lo .. lo+b-1 of the n
    points lifted to `cols` and `rows` (see lift): strip is a 2 x b x (n - lo)
    view of the flat buffer `buf` (2 min(_ROWS, n) n floats), whose strip[1]
    is the block's upper strip of squared distances, to points lo .. n-1
    (strip[1][r, r] = 0), built by sq_dist_rows with strip[0] as scratch."""
    n = cols.shape[0]
    for lo in range(0, n, _ROWS):
        strip = buf[:2 * min(_ROWS, n - lo) * (n - lo)].reshape(2, -1, n - lo)
        sq_dist_rows(cols[lo:lo + _ROWS], rows[:, lo:], strip[1], strip[0])
        yield lo, strip


def add_strip_product(s: np.ndarray, lo: int, right: np.ndarray,
                      own: np.ndarray, mirrored: np.ndarray) -> None:
    """Add strip s's share of S @ right, for a symmetric n x n S or a stack
    of k of them (s is [k x] b x (n - lo); own and mirrored are [k x] n x c).

    s holds rows lo .. lo+b-1 of S from column lo on: s @ right[lo:] is
    written to those rows of own, and the part right of the b x b diagonal
    block, transposed, is added to the rows after them in mirrored.  Over
    every block's strip, own + mirrored = S @ right, each pair built once.
    """
    b = s.shape[-2]
    np.matmul(s, right[lo:], out=own[..., lo:lo + b, :])
    mirrored[..., lo + b:, :] += s[..., b:].swapaxes(-1, -2) @ right[lo:lo + b]


_TOL, _MAX_ITER = 1e-5, 200  # the calibration's entropy tolerance (bits) and bisection steps


def calibrate_conditionals(points: np.ndarray, perplexity: float):
    """Per-row bisection on the Gaussian precision so that each conditional
    distribution's Shannon entropy matches log2(perplexity) bits within
    _TOL, for n x d points (d >= 1).

    Returns (conditional matrix with zero diagonal, precisions).  Rows with
    equidistant neighbours stay uniform at any bandwidth; bisection then stops
    after _MAX_ITER steps and the uniform row is kept.

    Each block of _ROWS rows of squared distances is built by sq_dist_rows
    from the points lifted once, so the returned matrix is the only n x n
    array, and its rows are bisected together, each until its own last
    step.  With t = -beta * d, w = exp(t) and S = sum(w), the entropy is
    ln S - sum(w t) / S nats, so zero weights need no mask, and each row's
    distribution w / S is formed once.
    """
    xcols, xrows = lift(points)
    n = xcols.shape[0]
    target = math.log2(perplexity) * math.log(2.0)  # nats
    tol_nats = _TOL * math.log(2.0)
    cond = np.zeros((n, n))
    betas = np.ones(n)
    rows = min(_ROWS, n)
    d2, tmp = np.empty((rows, n)), np.empty((rows, n))
    t, w = np.empty((rows, n - 1)), np.empty((rows, n - 1))
    for lo in range(0, n, rows):
        b = min(rows, n - lo)
        block = np.arange(b)
        off = np.ones((b, n), dtype=bool)  # the block's off-diagonal entries
        off[block, lo + block] = False
        d = sq_dist_rows(xcols[lo:lo + b], xrows, d2[:b], tmp[:b])[off].reshape(b, n - 1)
        d -= d.min(axis=1, keepdims=True)  # shift-invariant; keeps exp() from underflowing
        beta = betas[lo:lo + b]
        beta_lo, beta_hi = np.zeros(b), np.full(b, math.inf)
        active = block
        for step in range(_MAX_ITER):
            tk, wk = t[:active.size], w[:active.size]
            np.take(d, active, axis=0, out=tk)
            np.multiply(tk, -beta[active, None], out=tk)
            np.exp(tk, out=wk)
            s = wk.sum(axis=1)
            entropy = np.log(s) - np.einsum("ij,ij->i", wk, tk) / s
            done = np.abs(entropy - target) <= tol_nats
            last = done | (step == _MAX_ITER - 1)
            for r in np.flatnonzero(last):
                # a finished row's distances are not read again: its distribution replaces them
                np.divide(wk[r], s[r], out=d[active[r]])
            active, entropy = active[~done], entropy[~done]
            if not active.size:
                break
            up = entropy > target
            cur = beta[active]
            beta_lo[active] = np.where(up, cur, beta_lo[active])
            beta_hi[active] = np.where(up, beta_hi[active], cur)
            beta[active] = np.where(up & (beta_hi[active] == math.inf), cur * 2.0,
                                    0.5 * (beta_lo[active] + beta_hi[active]))
        cond[lo:lo + b][off] = d.ravel()
    return cond, betas


class _Iterate(NamedTuple):
    """One t-SNE map y with KL(P || Q) at y, or None where the pass was not
    asked for it, and the two kernel products its gradient is made from:
    pn = (P o num) @ [y | 1], nn = (num o num) @ [y | 1], where
    num = 1 / (1 + d^2) with a zero diagonal and Z = sum(num)."""

    y: np.ndarray
    kl: float | None
    z: float
    pn: np.ndarray
    nn: np.ndarray

    def grad(self, exaggeration: float) -> np.ndarray:
        # W = a (P o num) - (num o num) / Z; gradient = 4 (rowsum(W) y - W y)
        w = exaggeration * self.pn - self.nn / self.z
        return 4.0 * (w[:, 2:] * self.y - w[:, :2])


def _pair_sum(s: np.ndarray) -> float:
    """The sum of a symmetric S over the pairs its strip s holds: the
    diagonal block once, the part right of it twice."""
    return 2.0 * float(s.sum()) - float(s[:, :s.shape[0]].sum())


class _Objective:
    """The parts of exact t-SNE's gradient, and KL(P || Q) on request, from
    one pass over blocks of _ROWS rows, so that the symmetric P is the only
    n x n array held.

    Every product the pass forms from d^2 (P o num, num o num) is symmetric,
    so rows lo .. hi build only the strip of columns lo .. n, and each pair
    is built once (see add_strip_product and _pair_sum).

    KL = sum p log p + sum p log(1 + d^2) + log Z * sum p, each sum over
    i != j.  Q = num / Z needs no floor: off the diagonal it is positive for
    any finite y, and the diagonal, where q is 0, is skipped exactly (its
    log(1 + d^2) is 0 and num is zeroed there).  A pass without the KL skips
    the log and its dot product with P; Z, pn and nn are the same bits
    either way.
    """

    def __init__(self, p: np.ndarray):
        n = p.shape[0]
        self._p = p
        self._buf = np.empty(2 * min(_ROWS, n) * n)
        self._yt1 = np.ones((3, n))  # [y | 1] transposed: rows x, y, 1
        self._lifted = lift(np.zeros((n, 2)))  # refilled from y on each pass
        # the y-independent part of KL: sum of p log p, and of p, over i != j
        self._plogp = 0.0
        for lo in range(0, n, _ROWS):
            ps = p[lo:lo + _ROWS, lo:]
            t = np.log(ps, out=self._buf[:ps.size].reshape(ps.shape))
            t.ravel()[::t.shape[1] + 1] = 0.0
            self._plogp += _pair_sum(np.multiply(ps, t, out=t))
        self._p_off = float(p.sum() - np.trace(p))

    def at(self, y: np.ndarray, with_kl: bool) -> _Iterate:
        p, n = self._p, y.shape[0]
        yt1 = self._yt1
        yt1[:2] = y.T
        own, mirrored = np.empty((2, n, 3)), np.zeros((2, n, 3))
        p_log_den, z = 0.0, 0.0
        relift(y, *self._lifted)
        for lo, strip in sq_dist_strips(*self._lifted, self._buf):
            t, den = strip
            ps = p[lo:lo + den.shape[0], lo:]
            np.add(den, 1.0, out=den)  # 1 + d^2: exactly 1 on the diagonal
            if with_kl:
                np.log(den, out=t)
                p_log_den += _pair_sum(np.multiply(ps, t, out=t))
            np.divide(1.0, den, out=den)  # num
            den.ravel()[::den.shape[1] + 1] = 0.0
            z += _pair_sum(den)
            np.multiply(ps, den, out=t)
            np.multiply(den, den, out=den)  # the strip stacks P o num over num o num
            add_strip_product(strip, lo, yt1.T, own, mirrored)
        pn, nn = own + mirrored
        kl = self._plogp + p_log_den + math.log(z) * self._p_off if with_kl else None
        return _Iterate(y, kl, z, pn, nn)


_ITERATIONS = 500  # gradient steps of every map


def _learning_rate(n: int) -> float:
    return max(n / 48.0, min(n / 12.0, 50.0))


def tsne_2d(points: np.ndarray, seed: int) -> np.ndarray:
    """Exact O(n^2) symmetric-SNE embedding of n >= 4 points into two
    dimensions, at perplexity min(30, (n - 1) // 3), over _ITERATIONS steps
    from a start drawn with `seed`.

    Schedule: early exaggeration x12 while momentum is 0.5, momentum 0.8
    afterwards, per-parameter adaptive gains as in the reference
    implementation; the last 100 iterations switch to plain descent with step
    backtracking, so the KL never rises over that window.

    The learning rate (_learning_rate) is max(n / 48, min(n / 12, 50)).
    n / 48 is the rate of Belkina et al. (2019) for exaggeration 12 with this
    gradient's factor 4; scikit-learn's "auto" rule floors it at 50.  Below
    600 points the floor here is n / 12, which keeps the exaggerated
    attraction step within 4x each point's neighbour offset: at 30 points a
    floor of 50 ends in a poor local minimum for some seeds.

    Returns the n x 2 map.  Each iterate, a step or a line-search candidate,
    gets its gradient from one pass over row blocks (see _Objective).  Only the
    line search reads a KL, so a pass computes it only for the iterate that
    enters the last 100 iterations and for each candidate there.  P is made in
    place from the conditional matrix: the only n x n array held.
    """
    x = np.asarray(points, dtype=float)
    n = x.shape[0]
    _check_count("tsne", n)
    if np.all(x == x[0]):
        raise DataValidationError("cannot project: all points are identical")
    p, _ = calibrate_conditionals(x, min(30, (n - 1) // 3))
    for lo in range(0, n, _ROWS):  # p_ij = c_ij + c_ji, a strip of rows at a time
        row, col = p[lo:lo + _ROWS, lo:], p[lo:, lo:lo + _ROWS]
        np.add(row, col.T, out=row)  # numpy reads the overlapping block before writing
        col[:] = row.T
    np.divide(p, 2.0 * n, out=p)
    np.maximum(p, _P_FLOOR, out=p)
    objective = _Objective(p)

    # exaggeration runs while momentum is low; both end at the same switch
    switch = min(250, _ITERATIONS // 2)
    head = _ITERATIONS - min(100, _ITERATIONS)  # momentum steps before the line search
    rate = _learning_rate(n)
    rng = np.random.default_rng(seed)
    cur = objective.at(rng.normal(scale=1e-4, size=(n, 2)), head == 0)
    vel = np.zeros((n, 2))
    gains = np.ones((n, 2))

    for it in range(_ITERATIONS):
        if it < head:
            grad = cur.grad(12.0 if it < switch else 1.0)
            momentum = 0.5 if it < switch else 0.8
            flipped = np.sign(grad) != np.sign(vel)
            gains = np.maximum(np.where(flipped, gains + 0.2, gains * 0.8), 0.01)
            vel = momentum * vel - rate * (gains * grad)
            y = cur.y + vel
            cur = objective.at(y - y.mean(axis=0), it == head - 1)
        else:
            grad = cur.grad(1.0)
            step = rate
            for _ in range(40):
                y = cur.y - step * grad
                cand = objective.at(y - y.mean(axis=0), True)
                if cand.kl <= cur.kl:
                    cur = cand
                    break
                step *= 0.5

    return cur.y


def project_2d(points: np.ndarray, method: str, seed: int) -> np.ndarray:
    """Dispatch to PCA or t-SNE; returns an n x 2 array.

    `seed` seeds the t-SNE start; PCA is deterministic and ignores it.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected an n x d matrix, got shape {x.shape}")
    if method not in MIN_POINTS:
        raise ConfigError(f"unknown projection method {method!r}")
    _check_count(method, x.shape[0])
    if method == "pca":
        return pca_2d(x)
    return tsne_2d(x, seed=seed)
