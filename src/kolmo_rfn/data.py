"""Dataset generation and persistence.

Two regimes produce training pairs (X_i, Y_i):

* PDE datasets: inputs are log-moneyness points drawn uniformly on
  [-M, M]^d; labels are either one payoff draw phi(exp(X_i + L_T)) per
  row (``single_draw``), an unbiased Monte Carlo price per row
  (``mc_price``), or an MC price plus centered Gaussian noise
  (``noisy_observation``).  In every case E[Y | X = x] = u(T, exp(x)).
* Basket-put datasets: inputs are strikes uniform on [0, M]; labels are
  Monte Carlo put prices under a lognormal S_T plus optional noise.

Inputs, label draws, and observation noise come from separate
substreams of the dataset seed, and Monte Carlo label rows get one
substream each, keyed by (seed, row), so generation is reproducible and
order-independent.  Monte Carlo labels are computed in blocks of rows
(``_ALONE_BLOCK`` paths in all when the caller draws them alone,
``_SHARED_BLOCK`` when two threads do; a row of more than
``_CHUNK // 2`` paths alone) that draw from those same per-row streams,
so label i depends only on (seed, i): not on n, not on the block size,
not on the thread that drew it, and bit for bit equal to ``price_mc``
(or the ``sample_lognormal`` put average) on row i's stream, which the
tests use as the reference.  Their standard errors are kept as
``Dataset.label_se``.  When a row draws at least
``_SHARED_FILL`` normals, the caller's thread and one helper thread
run the same block loop: each takes the next block of rows nobody has
started, draws every row from its own stream into a buffer of the
thread's own and adds the block's payoffs.  When either thread stops,
even on an error, the other starts no new block, and the helper is
done before the call returns.  The
caller's thread need not be the main one: a rate curve draws its test
set on a worker thread while the main thread folds the train design,
so such a run has three threads at work.  Rows the caller draws alone
are final block by block, in order, and a basket dataset hands them,
noise included, to its ``finished`` hook as they are: a basket run folds
its train rows on another thread meanwhile.  Datasets persist as CSV
(header ``x_1,...,x_d,y``) with a JSON sidecar holding the generation
metadata.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._blas import single_blas_thread
from .levy import (
    _CHUNK,
    _check_psd,
    IncrementSampler,
    LevyTriplet,
    Payoff,
    payoff_eval,
    simulate_levy_increment,
    sqrt_sigma,
)
from .network import row_blocks
from .rng import keyed_generator, row_keys, substream

__all__ = [
    "Dataset",
    "LognormalSpec",
    "sample_lognormal",
    "basket_weights",
    "gen_pde_dataset",
    "gen_basket_put_dataset",
    "save_dataset",
    "load_dataset",
]

_X_STREAM = 50
_LABEL_STREAM = 51
_NOISE_STREAM = 52

LABEL_KINDS = ("single_draw", "mc_price", "noisy_observation")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired samples with their provenance.

    ``label_se`` holds the Monte Carlo standard error of each label
    (without observation noise) when the labels are Monte Carlo prices
    generated in this process; it is None for ``single_draw`` labels and
    for datasets loaded from CSV.
    """

    X: np.ndarray
    Y: np.ndarray
    label_kind: str
    seed: int
    M: float
    T: float
    paths: int | None = None
    noise_std: float | None = None
    label_se: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.X.ndim != 2:
            raise ValueError("X must be an n x d matrix")
        if self.Y.shape != (self.X.shape[0],):
            raise ValueError("Y length must match the rows of X")
        if self.label_kind not in LABEL_KINDS:
            raise ValueError(f"unknown label kind {self.label_kind!r}")
        if self.label_se is not None and self.label_se.shape != self.Y.shape:
            raise ValueError("label_se length must match Y")
        for arr in (self.X, self.Y, self.label_se):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class LognormalSpec:
    """Martingale lognormal S_T: S0_j * exp(-cov_jj T/2 + (sqrt(cov) W_T)_j)."""

    s0: np.ndarray
    cov: np.ndarray
    T: float = 1.0

    def __post_init__(self) -> None:
        s0 = np.atleast_1d(np.asarray(self.s0, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "cov", cov)
        m = s0.shape[0]
        if cov.shape != (m, m):
            raise ValueError(f"cov shape {cov.shape} does not match {m} assets")
        _check_psd(cov, "cov")
        if (s0 <= 0).any():
            raise ValueError("initial prices must be positive")
        if self.T < 0:
            raise ValueError("T must be nonnegative")

    @property
    def m(self) -> int:
        return self.s0.shape[0]


def _lognormal_prices(spec: LognormalSpec, root: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Terminal prices (..., m) from standard normals z (..., m); T > 0."""

    drift = -0.5 * np.diag(spec.cov) * spec.T
    return spec.s0 * np.exp(drift + math.sqrt(spec.T) * (z @ root.T))


def sample_lognormal(spec: LognormalSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw (size, m) terminal prices; each component has mean S0_j."""

    if spec.T == 0:
        return np.tile(spec.s0, (size, 1))
    root = sqrt_sigma(spec.cov)
    return _lognormal_prices(spec, root, rng.standard_normal((size, spec.m)))


# a row whose fill draws fewer normals holds the GIL for its bookkeeping
# about as long as its fill releases it, so a second thread slows it down
_SHARED_FILL = 1024

# path-rows of a block when the caller and the helper both run the block
# loop: their two buffers, one each, then sit beside a train fold's block
# buffer without raising the run's peak memory
_SHARED_BLOCK = 8192

# path-rows of a block when the caller runs the block loop alone (rows of
# basket puts): finished rows reach a fold on another thread a few hundred
# at a time, and a 100-path basket row is drawn faster than in blocks of
# _CHUNK // 2
_ALONE_BLOCK = 16384


def _mc_labels(
    seed: int, n: int, paths: int, width: int, draw, values, chunk: int = _CHUNK, stop=None,
    finished=None,
):
    """Monte Carlo means and standard errors of n label rows, by blocks.

    Row i draws from ``substream(seed, _LABEL_STREAM, i)``: ``draw(generator,
    z)`` fills the row's normals z (paths, width) and returns its other
    variates as a tuple of arrays. ``values(rows, z, *others)`` maps a
    block's normals (rows, size, width) and its rows' other draws,
    concatenated, to the (rows, size) payoffs. A row of more than
    ``_CHUNK // 2`` paths is drawn alone, its paths in turn in blocks of
    at most ``chunk``. Shorter rows go through one block loop: it takes
    the next block of whole rows nobody has started, draws it into a
    buffer of its own and adds its payoffs. The caller runs it alone on
    ``_ALONE_BLOCK`` path-row blocks; when a row's fill draws at least
    ``_SHARED_FILL`` normals, a helper thread runs it too, on
    ``_SHARED_BLOCK`` path-row blocks, and the two write disjoint rows.
    A thread that stops, even on an error, leaves no block for the
    other to start. Per row, the sums run in the same order and the
    standard error uses the same formula as ``price_mc``. Once the
    ``threading.Event`` ``stop`` is set, the next block raises
    RuntimeError instead of adding its payoffs.

    ``finished(rows, mean)``, when given, receives every row's mean once,
    in row order, on the caller's thread: ``rows`` is a slice and
    ``mean`` those rows' means, with the bits of the returned ones. Rows
    the caller draws alone come block by block, as each block's payoffs
    are added; other rows come in one call once all are drawn.
    """

    total = np.zeros(n)
    total_sq = np.zeros(n)
    keys = row_keys(seed, _LABEL_STREAM, rows=n)
    handed = 0  # rows whose means went to finished

    def hand_over(hi: int) -> None:
        nonlocal handed
        if finished is not None and hi > handed:
            finished(slice(handed, hi), total[handed:hi] / paths)
            handed = hi

    def add(rows, z, others) -> None:
        if stop is not None and stop.is_set():
            raise RuntimeError("label generation was stopped")
        vals = values(rows, z, *(np.concatenate(parts) for parts in zip(*others)))
        total[rows] += vals.sum(axis=-1)
        total_sq[rows] += (vals * vals).sum(axis=-1)

    if paths > _CHUNK // 2:
        open_row = keyed_generator(keys)
        for i in range(n):
            gen = open_row(i)
            for done in range(0, paths, chunk):
                z = np.empty((1, min(chunk, paths - done), width))
                add(slice(i, i + 1), z, [draw(gen, z[0])])
    else:
        shared = paths * width >= _SHARED_FILL
        per_block = min(n, max(1, (_SHARED_BLOCK if shared else _ALONE_BLOCK) // paths))
        starts = iter(range(0, n, per_block))
        lock = threading.Lock()

        def work() -> None:
            try:
                open_row = keyed_generator(keys)
                buffer = np.empty((per_block, paths, width))
                while True:
                    with lock:
                        lo = next(starts, None)
                    if lo is None:
                        return
                    hi = min(n, lo + per_block)
                    z = buffer[: hi - lo]
                    add(slice(lo, hi), z, [draw(open_row(i), z[i - lo]) for i in range(lo, hi)])
                    if not shared:  # the caller alone draws the blocks in order
                        hand_over(hi)
            finally:
                with lock:
                    for _ in starts:  # the other thread starts no new block
                        pass

        if not shared:
            work()
        else:
            # imported here: concurrent.futures brings in logging, about 10 ms
            # of every cold start, and only jobs with long label rows use it
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(1) as pool:
                helper = pool.submit(work)
                work()
                helper.result()
    hand_over(n)
    mean = total / paths
    if paths == 1:
        return mean, np.full(n, math.inf)
    var = np.maximum(total_sq - paths * mean * mean, 0.0) / (paths - 1)
    return mean, np.sqrt(var / paths)


@single_blas_thread()
def gen_pde_dataset(
    triplet: LevyTriplet,
    payoff: Payoff,
    M: float,
    T: float,
    n: int,
    label_kind: str = "single_draw",
    seed: int = 0,
    paths: int = 1000,
    noise_std: float = 0.0,
    stop: threading.Event | None = None,
) -> Dataset:
    """Inputs uniform on [-M, M]^d, labels per the chosen regime.

    Monte Carlo labels stop at their next block, raising RuntimeError,
    once ``stop`` is set: a rate curve sets it when its own thread fails
    while this runs on its worker. Like ``gen_basket_put_dataset``, it
    runs on one OpenBLAS thread (``_blas.single_blas_thread``), so its
    rows do not depend on the core count.
    """

    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if label_kind not in LABEL_KINDS:
        raise ValueError(f"unknown label kind {label_kind!r}")
    if not M > 0:
        raise ValueError("M must be positive")
    if label_kind != "single_draw" and paths < 1:
        raise ValueError(f"paths must be at least 1, got {paths}")
    if label_kind == "noisy_observation" and noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    d = triplet.d
    X = substream(seed, _X_STREAM).uniform(-M, M, size=(n, d))

    if label_kind == "single_draw":
        incr = simulate_levy_increment(triplet, T, substream(seed, _LABEL_STREAM), size=n)
        Y = payoff_eval(payoff, np.exp(X + incr))
        return Dataset(X=X, Y=np.asarray(Y, dtype=float), label_kind=label_kind, seed=seed, M=M, T=T)

    if T == 0:
        # one (1, d) block per row: the same arithmetic as price_mc at T=0
        Y = payoff_eval(payoff, np.exp(X)[:, None, :])[:, 0]
        se = np.zeros(n)
    else:
        sampler = IncrementSampler(triplet, T)

        def values(rows, z, *jumps):
            out = sampler.increments(z, *jumps)
            out += X[rows, None, :]
            return payoff_eval(payoff, np.exp(out, out=out))

        Y, se = _mc_labels(seed, n, paths, d, sampler.draw, values, stop=stop)
    kwargs = {"paths": paths, "label_se": se}
    if label_kind == "noisy_observation":
        if noise_std > 0:
            Y = Y + substream(seed, _NOISE_STREAM).normal(0.0, noise_std, size=n)
        kwargs["noise_std"] = noise_std
    return Dataset(X=X, Y=Y, label_kind=label_kind, seed=seed, M=M, T=T, **kwargs)


def basket_weights(sampler: LognormalSpec, weights=None) -> np.ndarray:
    """The checked weight vector of a basket of ``sampler``'s assets; None means equal weights."""

    if weights is None:
        return np.full(sampler.m, 1.0 / sampler.m)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape != (sampler.m,):
        raise ValueError(f"weights shape {w.shape} does not match {sampler.m} assets")
    if (w < 0).any():
        raise ValueError("basket weights must be nonnegative")
    return w


@single_blas_thread()
def gen_basket_put_dataset(
    sampler: LognormalSpec,
    weights,
    M: float,
    n: int,
    noise_std: float = 0.0,
    seed: int = 0,
    paths: int = 100,
    stop: threading.Event | None = None,
    finished=None,
) -> Dataset:
    """Strikes uniform on [0, M]; labels are MC put prices plus noise.

    ``weights`` None means equal weights. Row i's Monte Carlo paths come
    from the substream (seed, row) so rows are independent and the
    dataset is reproducible regardless of generation order. The labels
    stop at their next block, raising RuntimeError, once ``stop`` is set.
    ``finished(X, Y, hi)``, when given, is called on this thread each
    time the rows below ``hi`` of the dataset's X and Y hold their final
    values, with ``hi`` rising to n; it may read those rows, on any
    thread, and no others. Rows drawn block by block reach it block by
    block (``data._mc_labels``), and each block's noise is drawn from the
    noise stream in row order, so Y has the bits of one draw of all rows.
    """

    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not M > 0:
        raise ValueError("M must be positive")
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    if paths < 1:
        raise ValueError("paths must be at least 1")
    w = basket_weights(sampler, weights)

    K = substream(seed, _X_STREAM).uniform(0.0, M, size=n)
    root = sqrt_sigma(sampler.cov) if sampler.T > 0 else None

    def draw(gen, z):
        if root is not None:
            gen.standard_normal(out=z)
        return ()

    def values(rows, z):
        if root is None:
            s_t = np.tile(sampler.s0, z.shape[:2] + (1,))
        else:
            s_t = _lognormal_prices(sampler, root, z)
        return np.maximum(K[rows, None] - s_t @ w, 0.0)

    X = K[:, None]
    Y = np.empty(n)
    noise = substream(seed, _NOISE_STREAM) if noise_std > 0 else None

    def labelled(rows, mean):
        Y[rows] = mean
        if noise is not None:
            Y[rows] += noise.normal(0.0, noise_std, size=mean.size)
        if finished is not None:
            finished(X, Y, rows.stop)

    # a row's put average is one sum over all its paths, as when the row
    # is drawn by sample_lognormal, so rows are never split into chunks
    _, se = _mc_labels(
        seed, n, paths, sampler.m, draw, values, chunk=max(_CHUNK, paths), stop=stop,
        finished=labelled,
    )
    return Dataset(
        X=X,
        Y=Y,
        label_kind="noisy_observation",
        seed=seed,
        M=M,
        T=sampler.T,
        paths=paths,
        noise_std=noise_std,
        label_se=se,
    )


def save_dataset(ds: Dataset, path) -> None:
    """Write CSV ``x_1,...,x_d,y`` plus a ``.json`` metadata sidecar."""

    path = Path(path)
    header = ",".join([f"x_{j + 1}" for j in range(ds.d)] + ["y"])
    # the bytes np.savetxt(fmt="%.17g") writes, formatted one call per
    # block of rows instead of one call per row, so the text of only one
    # block is held at once
    row = ",".join(["%.17g"] * (ds.d + 1)) + "\n"
    with path.open("w") as fh:
        fh.write(header + "\n")
        for rows in row_blocks(ds.n):
            body = np.column_stack([ds.X[rows], ds.Y[rows]])
            fh.write((row * body.shape[0]) % tuple(body.ravel().tolist()))
    sidecar = {
        "label_kind": ds.label_kind,
        "seed": int(ds.seed),
        "M": ds.M,
        "T": ds.T,
        "n": int(ds.n),
    }
    if ds.paths is not None:
        sidecar["paths"] = int(ds.paths)
    if ds.noise_std is not None:
        sidecar["noise_std"] = ds.noise_std
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar))


def load_dataset(path) -> Dataset:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline()
    if path.stat().st_size > len(header):
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    else:  # no rows: the header still names the columns, so d survives
        body = np.empty((0, len(header.split(","))))
    bad = ~np.isfinite(body).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"data row {i + 1} (line {i + 2}) holds a non-finite value")
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    return Dataset(
        X=body[:, :-1],
        Y=body[:, -1],
        label_kind=sidecar["label_kind"],
        seed=int(sidecar["seed"]),
        M=float(sidecar["M"]),
        T=float(sidecar["T"]),
        paths=sidecar.get("paths"),
        noise_std=sidecar.get("noise_std"),
    )
