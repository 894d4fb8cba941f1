"""Output-weight trainers for random feature networks.

Three fitting routes share one convention: the hidden layer is frozen,
so every trainer sees only the feature matrix X (n samples by N
features) and the label vector Y, and returns the output weights W
together with diagnostics.

* ``fit_ols``: minimum-norm least squares via the pseudo-inverse.
* ``fit_constrained``: least squares restricted to the ball
  ``norm(W) <= lam``, solved through the Lagrange multiplier Lambda
  with ``W = (X'X + Lambda I)^{-1} X'Y``.
* ``fit_sgd``: projected mini-batch SGD with step size eta0/sqrt(t).

The first two also run without the design: ``fold_features`` folds
the rows ``[X | Y]`` of a hidden layer's design into one R factor,
building each block's features inside the fold's own buffer,
``prefix_problem`` cuts from it a small problem with the same solutions
as any leading-column width, and ``risk_from_r`` gives the design's
empirical risk. ``fit_widths`` runs that path (or SGD on the design)
for every caller, so ``fit_ols`` and ``fit_constrained`` never
decompose a tall design.

The output cap, when a model carries one, acts at prediction time
only; no trainer ever sees it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import _blas
from .data import Dataset
from .network import (
    ROW_BLOCK,
    ROW_PIECE,
    FeatureMatrix,
    HiddenWeights,
    RandomFeatureNet,
    design_matrix,
    predict,
    row_blocks,
)
from .rng import substream

__all__ = [
    "TrainConfig",
    "FitDiagnostics",
    "fit_ols",
    "fit_constrained",
    "fold_features",
    "prefix_problem",
    "risk_from_r",
    "project_ball",
    "fit_sgd",
    "fit",
    "fit_widths",
    "empirical_risk",
]

_SGD_INDEX_STREAM = 60

# SGD steps whose batch indices one draw takes and whose rows one fancy
# index gathers
_SGD_GATHER = 16

# singular values below this fraction of the largest are treated as zero
_SVD_RCOND = 1e-10

METHODS = ("ols", "constrained", "sgd")

# what a fit may raise without aborting the other widths of a curve
_NUMERIC_FAILURES = (np.linalg.LinAlgError, ArithmeticError, ValueError)


@dataclass(frozen=True)
class TrainConfig:
    """Which trainer to run and with what knobs.

    ``lam`` is the norm budget: the constraint radius for the
    constrained solver and the projection radius for SGD. ``average``
    switches SGD to returning the mean of all iterates instead of the
    last one; it is off by default.
    """

    method: str
    lam: float | None = None
    eta0: float | None = None
    batch: int | None = None
    steps: int | None = None
    seed: int = 0
    cap: float | None = None
    average: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.method in ("constrained", "sgd"):
            if self.lam is None or not self.lam > 0:
                raise ValueError(f"method {self.method!r} requires lam > 0, got {self.lam}")
        if self.method == "sgd":
            if self.eta0 is None or not self.eta0 > 0:
                raise ValueError(f"sgd requires eta0 > 0, got {self.eta0}")
            if self.steps is None or self.steps < 1:
                raise ValueError(f"sgd requires steps >= 1, got {self.steps}")
            if self.batch is not None and self.batch < 1:
                raise ValueError(f"batch must be at least 1, got {self.batch}")
        if self.cap is not None and not self.cap > 0:
            raise ValueError(f"cap must be positive, got {self.cap}")


@dataclass(frozen=True)
class FitDiagnostics:
    empirical_risk: float
    lambda_multiplier: float | None = None  # constrained only
    effective_rank: int | None = None  # ols and constrained
    steps_run: int | None = None  # sgd only

    def __post_init__(self) -> None:
        if not self.empirical_risk >= 0:
            raise ValueError("empirical risk cannot be negative")
        if self.lambda_multiplier is not None and not self.lambda_multiplier >= 0:
            raise ValueError("multiplier cannot be negative")

    def to_dict(self) -> dict:
        out = {"empirical_risk": self.empirical_risk}
        if self.lambda_multiplier is not None:
            out["lambda_multiplier"] = self.lambda_multiplier
        if self.effective_rank is not None:
            out["effective_rank"] = self.effective_rank
        if self.steps_run is not None:
            out["steps_run"] = self.steps_run
        return out


def _as_matrix(design) -> np.ndarray:
    values = design.values if isinstance(design, FeatureMatrix) else np.asarray(design, dtype=float)
    if values.ndim != 2:
        raise ValueError("design must be an n x N matrix")
    return values


def _check_xy(design, Y) -> tuple[np.ndarray, np.ndarray]:
    X = _as_matrix(design)
    y = np.asarray(Y, dtype=float).ravel()
    if X.shape[0] == 0:
        raise ValueError("cannot fit on empty data")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"{X.shape[0]} design rows but {y.shape[0]} labels")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("design and labels must be finite")
    return X, y


def _mean_sq_residual(X: np.ndarray, y: np.ndarray, W: np.ndarray) -> float:
    r = X @ W - y
    return float(r @ r / y.size)


@_blas.single_blas_thread()
def fit_ols(design, Y) -> tuple[np.ndarray, FitDiagnostics]:
    """Minimum-norm least squares, on one OpenBLAS thread.

    Rank deficiency (including n < N) is handled by the pseudo-inverse:
    among all W with X'X W = X'Y the returned one has minimal norm.
    """

    X, y = _check_xy(design, Y)
    W, _, rank, _ = np.linalg.lstsq(X, y, rcond=_SVD_RCOND)
    diag = FitDiagnostics(
        empirical_risk=_mean_sq_residual(X, y, W), effective_rank=int(rank)
    )
    return W, diag


@_blas.single_blas_thread()
def fit_constrained(design, Y, lam: float) -> tuple[np.ndarray, FitDiagnostics]:
    """Least squares over the ball norm(W) <= lam, on one OpenBLAS thread.

    The minimizer is W(t) = (X'X + tI)^{-1} X'Y with t = Lambda >= 0
    chosen so that norm(W) = lam, unless the minimum-norm OLS solution
    already fits inside the ball, in which case Lambda = 0. Since
    f(t) = norm(W(t)) is strictly decreasing where positive, Lambda is
    found by doubling a bracket and bisecting it to a width of 1e-10 of
    its upper end, which is returned: f(hi) <= lam keeps W in the ball,
    and as t f'(t) / f(t) lies in [-1, 0], f(hi) is within 1e-10 lam of
    lam. One SVD of X serves every f evaluation: with X = U diag(s) V',
    f(t) is the norm of s_i (U'Y)_i / (s_i^2 + t).

    The thin SVD holds an n x N ``U``, so a tall design should come
    through ``fold_features`` and ``prefix_problem``, as ``fit_widths``
    sends it: the prefix problem has at most N rows and the same W.
    """

    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    X, y = _check_xy(design, Y)
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    keep = s > _SVD_RCOND * s.max(initial=0.0)
    s = s[keep]
    c = u.T[keep] @ y
    vt = vt[keep]

    def solution_coeffs(t: float) -> np.ndarray:
        return s * c / (s * s + t)

    min_norm = math.sqrt(float(np.sum((c / s) ** 2)))
    if min_norm <= lam:
        W = vt.T @ (c / s)
        diag = FitDiagnostics(
            empirical_risk=_mean_sq_residual(X, y, W), lambda_multiplier=0.0,
            effective_rank=s.size,
        )
        return W, diag

    def f(t: float) -> float:
        return float(np.linalg.norm(solution_coeffs(t)))

    hi = 1.0
    for _ in range(200):
        if f(hi) <= lam:
            break
        hi *= 2.0
    else:  # pragma: no cover - would need astronomically scaled data
        raise ArithmeticError("failed to bracket the norm constraint")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > lam:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * hi:
            break

    W = vt.T @ solution_coeffs(hi)
    diag = FitDiagnostics(
        empirical_risk=_mean_sq_residual(X, y, W), lambda_multiplier=hi,
        effective_rank=s.size,
    )
    return W, diag


# the panel width of the dtpqrt fold, cut to the column count below it
_PANEL = 32


def _fold(r: np.ndarray, rows: np.ndarray) -> None:
    """Fold the column-major ``rows`` of ``[X | Y]`` into the column-major R ``r``, in place.

    LAPACK ``dtpqrt`` updates R from R stacked on the rows, skipping R's
    zeros, through ``_blas.gil_free_dtpqrt``, which releases the GIL;
    ``rows`` is overwritten. Where numpy links no ``dtpqrt``, numpy's QR
    of the stacked rows gives the same R to rounding.
    """

    kernel = _blas.gil_free_dtpqrt()
    if kernel is None:
        r[:] = np.linalg.qr(np.vstack([r, rows]), mode="r")
        return
    info = kernel(r, rows, min(_PANEL, r.shape[1]))
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dtpqrt failed with info = {info}")


@_blas.single_blas_thread()
def fold_features(hidden: HiddenWeights, data: Dataset) -> np.ndarray:
    """R of ``[design_matrix(hidden, data.X) | data.Y]``, folded without the design.

    Each block of ``row_blocks(data.n)`` is folded into R in place, its
    features built ``ROW_PIECE`` rows at a time straight into the buffer
    ``dtpqrt`` folds, so no block design is held beside it. The filled
    rows are checked for non-finite values before they are folded. Where
    the pieces have the bits of the whole block's design
    (``network.ROW_PIECE``), R has the bits of folding each materialized
    design block on the same kernel; elsewhere the gemm rounds some
    features of a piece differently, and R agrees to rounding. Other cuts
    give the same R to rounding. It runs on one OpenBLAS thread
    (``_blas.single_blas_thread``), as every run folds. A basket run
    folds its train blocks with the same ``_fold_buffers`` and
    ``_fold_block`` while their labels are drawn
    (``experiments._fold_while_drawn``).
    """

    if data.n == 0:
        raise ValueError("cannot fit on empty data")
    r, buffer = _fold_buffers(hidden, data.n)
    for block in row_blocks(data.n):
        _fold_block(r, hidden, data.X[block], data.Y[block], buffer)
    return r


def _fold_buffers(hidden: HiddenWeights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A zero R, and one flat buffer for the largest block of ``row_blocks(n)`` with its labels."""

    r = np.zeros((hidden.N + 1, hidden.N + 1), order="F")
    return r, np.empty(max(block.stop - block.start for block in row_blocks(n)) * (hidden.N + 1))


def _fold_block(
    r: np.ndarray, hidden: HiddenWeights, X: np.ndarray, y: np.ndarray, buffer: np.ndarray,
) -> None:
    """Fold ``[design_matrix(hidden, X) | y]`` into ``r``, the features built in ``buffer``.

    The block's rows fill a column-major view of the front of the flat
    ``buffer``, which ``dtpqrt`` then overwrites.
    """

    rows = buffer[: y.size * (hidden.N + 1)].reshape((y.size, hidden.N + 1), order="F")
    rows[:, -1] = y
    for piece in row_blocks(y.size, ROW_PIECE):
        filled = rows[piece]
        filled[:, :-1] = design_matrix(hidden, X[piece]).values
        if not np.isfinite(filled).all():
            raise ValueError("design and labels must be finite")
    _fold(r, rows)


def _check_width(N: int, N_max: int) -> None:
    if not 1 <= N <= N_max:
        raise ValueError(f"width {N} is outside 1..{N_max}")


def prefix_problem(r: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The least-squares problem of the first ``N`` design columns, from R.

    With ``R`` the square (N_max + 1) x (N_max + 1) factor of ``[X | Y]``,
    the leading ``N`` rows of its first ``N`` columns and of its last
    column Q'Y make an N x N problem whose squared residual differs from
    the design's by a constant: the squared rest of Q'Y, rows ``N`` and
    on, which ``risk_from_r`` sums whole. R's rows past the n folded ones
    need not be zero: with dead leading features they reached 3.2 at
    n = 340, N = 511. Any trainer that sees only the residual (``fit_ols``,
    ``fit_constrained``) finds the same W on it, and it has the singular
    values of those N columns, hence the same effective rank; its risk
    is not the design's (see ``risk_from_r``). ``N`` must lie in
    ``1..r.shape[1] - 1``: R's last column is Q'Y, not a feature.
    """

    _check_width(N, r.shape[1] - 1)
    return r[:N, :N], r[:N, -1]


def risk_from_r(r: np.ndarray, W: np.ndarray, n: int) -> float:
    """Empirical risk over the ``n`` rows behind ``r`` of the first ``W.size`` features.

    The residual of the prefix problem plus the part of Q'Y that those
    columns cannot reach.
    """

    rx, qty = prefix_problem(r, W.size)
    res = rx @ W - qty
    tail = r[qty.size:, -1]
    return float((res @ res + tail @ tail) / n)


def project_ball(w, lam: float) -> np.ndarray:
    """Orthogonal projection onto the closed ball of radius lam."""

    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    w = np.asarray(w, dtype=float)
    norm = float(np.linalg.norm(w))
    if norm <= lam:
        return w
    return w * (lam / norm)


@_blas.single_blas_thread()
def fit_sgd(design, Y, config: TrainConfig, observer=None) -> tuple[np.ndarray, FitDiagnostics]:
    """Projected mini-batch SGD on the empirical squared risk, on one OpenBLAS thread.

    Starts at W_1 = 0 and performs exactly steps-1 updates

        W_{t+1} = proj(W_t - (2 eta_t / batch) * X_J' (X_J W_t - Y_J))

    with eta_t = eta0 / sqrt(t) and J a batch of indices drawn i.i.d.
    uniformly (with replacement) from a substream keyed only by the
    config seed, so runs are reproducible and independent of how the
    data were produced. One draw takes the indices of ``_SGD_GATHER``
    steps just before their rows are gathered, so the working memory is
    one gather of indices and rows whatever ``steps`` is; draws of any
    size read the stream in order, so the cut does not change J.

    ``observer(t, W_t)`` is invoked on every iterate including the
    initial zero vector; the array passed is a snapshot the observer may
    keep.

    With ``config.average`` the returned vector is the average of all
    iterates W_1..W_steps instead of the final one (a Polyak-style
    variant, off by default). Diagnostics always report the risk of
    the returned vector.
    """

    if config.method != "sgd":
        raise ValueError(f"fit_sgd called with method {config.method!r}")
    X, y = _check_xy(design, Y)
    n, N = X.shape
    batch = config.batch if config.batch is not None else min(n, 64)
    if batch > n:
        raise ValueError(f"batch {batch} exceeds the {n} available samples")
    steps = config.steps
    lam = config.lam

    W = np.zeros(N)
    if observer is not None:
        observer(1, W.copy())
    total = W.copy() if config.average else None

    idx_stream = substream(config.seed, _SGD_INDEX_STREAM)
    t = 1
    while t < steps:
        Jg = idx_stream.integers(0, n, size=(min(_SGD_GATHER, steps - t), batch))
        # in place, rounding as (2/batch) X_J'(X_J W - y_J) and project_ball do
        for Xb, yb in zip(X[Jg], y[Jg]):
            r = np.dot(Xb, W)
            r -= yb
            g = np.dot(r, Xb)
            g *= 2.0 / batch
            g *= config.eta0 / math.sqrt(t)
            W -= g
            norm = math.sqrt(np.dot(W, W))
            if not norm <= lam:  # a NaN norm scales W too, as in project_ball
                W *= lam / norm
            t += 1
            if observer is not None:
                observer(t, W.copy())
            if total is not None:
                total += W
        del Xb, yb  # views that would keep this gather's rows alive through the next

    out = total / steps if total is not None else W
    diag = FitDiagnostics(
        empirical_risk=_mean_sq_residual(X, y, out), steps_run=steps - 1
    )
    return out, diag


def fit(design, Y, config: TrainConfig) -> tuple[np.ndarray, FitDiagnostics]:
    """Dispatch to the trainer named by the config."""

    if config.method == "ols":
        return fit_ols(design, Y)
    if config.method == "constrained":
        return fit_constrained(design, Y, config.lam)
    return fit_sgd(design, Y, config)


@_blas.single_blas_thread()
def fit_widths(
    hidden: HiddenWeights, widths, data: Dataset, config: TrainConfig,
    failed: dict | None = None, solve=fit, r: np.ndarray | None = None,
) -> dict:
    """Fit each width's leading features of ``hidden``: N -> (W, diagnostics, solve ms).

    OLS and the constrained fit never build the n x N design: its rows
    are folded into one R of ``[X | Y]`` by ``fold_features``, which
    builds each block's features inside the fold's buffer, and each
    width solves the small problem ``prefix_problem`` cuts from it, with
    the design's risk from ``risk_from_r``. A caller that solves several
    configs on one dataset passes the R it folded once as ``r``. SGD
    samples rows, so it alone gets the whole design. A width whose own
    solve fails is recorded in ``failed`` (N -> message) when a dict is
    given and raises otherwise; a failed fold always raises. ``solve`` is
    the trainer run on every width, ``fit`` unless a caller wraps it. A
    width outside ``1..hidden.N`` raises before any fold. It runs on one
    OpenBLAS thread (``_blas.single_blas_thread``).
    """

    for N in widths:
        _check_width(N, hidden.N)
    if config.method == "sgd":
        x_train = design_matrix(hidden, data.X).values
    elif r is None:
        r = fold_features(hidden, data)

    solved = {}
    for N in widths:
        t0 = time.perf_counter()
        try:
            if config.method == "sgd":
                W, diag = solve(x_train[:, :N], data.Y, config)
            else:
                W, diag = solve(*prefix_problem(r, N), config)
                diag = replace(diag, empirical_risk=risk_from_r(r, W, data.n))
        except _NUMERIC_FAILURES as exc:
            if failed is None:
                raise
            failed[N] = str(exc)
            continue
        solved[N] = (W, diag, (time.perf_counter() - t0) * 1e3)
    return solved


@_blas.single_blas_thread()
def empirical_risk(net: RandomFeatureNet, data: Dataset) -> float:
    """Mean squared residual of the net's predictions on the data.

    Uses the net's own prediction pipeline, so a model carrying an
    output cap is scored as it would actually predict. It runs on one
    OpenBLAS thread, so its sum does not depend on the core count.
    """

    if data.n < 1:
        raise ValueError("empirical risk needs at least one sample")
    r = predict(net, data.X) - data.Y
    return float(r @ r / data.n)
