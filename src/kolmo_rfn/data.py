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
(at most ``_CHUNK`` paths in all) that draw from those same per-row
streams, so label i depends only on (seed, i): not on n, not on the
block size, and bit for bit equal to ``price_mc`` (or the
``sample_lognormal`` put average) on row i's stream, which the tests
use as the reference.  Their standard errors are kept as
``Dataset.label_se``.  Datasets persist as CSV (header
``x_1,...,x_d,y``) with a JSON sidecar holding the generation metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .levy import (
    _CHUNK,
    IncrementSampler,
    LevyTriplet,
    Payoff,
    payoff_eval,
    simulate_levy_increment,
    sqrt_sigma,
)
from .network import row_blocks
from .rng import row_streams, substream

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


def _label_blocks(seed: int, n: int, paths: int, width: int, chunk: int, draw):
    """Yield (rows, z, per-row draws) blocks of at most ``chunk`` path-rows.

    Row i draws from ``substream(seed, _LABEL_STREAM, i)``:
    ``draw(generator, z)`` fills the row's normals z (size, width) and
    returns its other variates as a tuple of arrays.  A row with more
    than ``chunk`` paths gets blocks of its own, one per chunk of paths,
    drawn in turn from its stream.
    """

    gens = row_streams(seed, _LABEL_STREAM, rows=n)
    if paths > chunk:
        for i, gen in enumerate(gens):
            for done in range(0, paths, chunk):
                z = np.empty((1, min(chunk, paths - done), width))
                yield slice(i, i + 1), z, [draw(gen, z[0])]
        return
    per_block = chunk // paths
    for lo in range(0, n, per_block):
        hi = min(n, lo + per_block)
        z = np.empty((hi - lo, paths, width))
        yield slice(lo, hi), z, [draw(gen, z[r]) for r, gen in enumerate(islice(gens, hi - lo))]


def _mc_labels(seed: int, n: int, paths: int, width: int, draw, values, chunk: int = _CHUNK):
    """Monte Carlo means and standard errors of n label rows, by blocks.

    ``draw`` is as in :func:`_label_blocks`; ``values(rows, z, *others)``
    maps a block's normals (rows, size, width) and its rows' other draws,
    concatenated, to the (rows, size) payoffs.  Per row, the sums run in
    the same order and the standard error uses the same formula as
    ``price_mc``.
    """

    total = np.zeros(n)
    total_sq = np.zeros(n)
    for rows, z, others in _label_blocks(seed, n, paths, width, chunk, draw):
        vals = values(rows, z, *(np.concatenate(parts) for parts in zip(*others)))
        total[rows] += vals.sum(axis=-1)
        total_sq[rows] += (vals * vals).sum(axis=-1)
    mean = total / paths
    if paths == 1:
        return mean, np.full(n, math.inf)
    var = np.maximum(total_sq - paths * mean * mean, 0.0) / (paths - 1)
    return mean, np.sqrt(var / paths)


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
) -> Dataset:
    """Inputs uniform on [-M, M]^d, labels per the chosen regime."""

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

        Y, se = _mc_labels(seed, n, paths, d, sampler.draw, values)
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


def gen_basket_put_dataset(
    sampler: LognormalSpec,
    weights,
    M: float,
    n: int,
    noise_std: float = 0.0,
    seed: int = 0,
    paths: int = 100,
) -> Dataset:
    """Strikes uniform on [0, M]; labels are MC put prices plus noise.

    ``weights`` None means equal weights. Row i's Monte Carlo paths come
    from the substream (seed, row) so rows are independent and the
    dataset is reproducible regardless of generation order.
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

    # a row's put average is one sum over all its paths, as when the row
    # is drawn by sample_lognormal, so rows are never split into chunks
    Y, se = _mc_labels(seed, n, paths, sampler.m, draw, values, chunk=max(_CHUNK, paths))
    if noise_std > 0:
        Y = Y + substream(seed, _NOISE_STREAM).normal(0.0, noise_std, size=n)
    return Dataset(
        X=K[:, None],
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
