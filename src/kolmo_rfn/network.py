"""Random feature networks.

The hidden layer is drawn once and frozen: rows of ``A`` follow a
multivariate t distribution t_nu(0, Id), entries of ``B`` a scalar
Student-t.  Only the output vector ``W`` is ever trained.  The network
value at a point x is

    H(x) = sum_i W_i * relu(A_i . x + B_i),

optionally passed through the cap T_L(u) = max(min(u, L), -L) at
prediction time.  This module also exposes the sampling densities pi_w
and pi_b (in log space internally, since the Gamma((nu+d)/2) prefactor
overflows for moderate d) and JSON model persistence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._blas import single_blas_thread
from .rng import substream

__all__ = [
    "WeightDistributionSpec",
    "HiddenWeights",
    "RandomFeatureNet",
    "FeatureMatrix",
    "sample_hidden_weights",
    "subnetwork",
    "log_pi_w",
    "pi_w",
    "log_pi_b",
    "pi_b",
    "predict",
    "design_matrix",
    "ROW_BLOCK",
    "ROW_PIECE",
    "row_blocks",
    "save_model",
    "load_model",
    "net_to_dict",
    "net_from_dict",
]

# Stream ids of the four independent sources behind sample_hidden_weights.
# Keeping normals and chi-squares on separate streams makes sampling
# prefix-stable: the first N0 rows of an N > N0 draw coincide with the
# N0 draw for the same (spec, d, seed).
_A_NORMAL, _A_CHI, _B_NORMAL, _B_CHI = 0, 1, 2, 3

# rows per block wherever rows are streamed in blocks: ``save_dataset``,
# and the TSQR fold of train at every width. Folding one 2 048-row block
# of d = 50 ReLU features into the R of the rows before it with LAPACK
# ``dtpqrt``, on one OpenBLAS thread (OpenBLAS 0.3.31, 2 shared cores),
# in microseconds per row, median of five runs:
#
#   N + 1   2 048 rows
#     161   3.7
#     201   5.6
#     401   16.3
#     641   36.9
#   1 281   150
#
# ``dtpqrt`` skips R's zeros, so a short block is not slowed by the
# N + 1 rows of R, and one flat block size serves every width
ROW_BLOCK = 2048

# design rows built at once where a block's design is built piece by
# piece: into the TSQR fold buffer (train) and before each product of
# ``predict``. A multiple of 4, so each piece follows the ``row_blocks``
# rule. On OpenBLAS 0.3.31 (Haswell kernel) a piece's features have the
# bits of the whole block's at d = 1, and at d = 2, 5, 20 and 50 (the d
# swept) for N <= 192 (but N = 2, 3 at d = 50) or N a multiple of 8;
# past 192 features the gemm rounds the last N mod 8 features of some
# rows of a block differently, by a few ulp
ROW_PIECE = 512


@dataclass(frozen=True)
class WeightDistributionSpec:
    """Degrees of freedom of the hidden-weight distributions.

    :param nu: degrees of freedom of the multivariate t for rows of A;
        must exceed 1.  Trainer-level guarantees may need nu > 2 or
        nu > 4, which is checked where it matters, not here.
    :param b_dof: degrees of freedom of the scalar Student-t for B;
        must be positive.  The implied density pi_b is strictly positive
        on all of R with polynomial tail of degree b_dof + 1.
    """

    nu: float = 5.0
    b_dof: float = 2.0

    def __post_init__(self) -> None:
        if not self.nu > 1.0:
            raise ValueError(f"nu must exceed 1, got {self.nu}")
        if not self.b_dof > 0.0:
            raise ValueError(f"b_dof must be positive, got {self.b_dof}")


@dataclass(frozen=True, eq=False)
class HiddenWeights:
    """Frozen hidden layer: directions A (N x d), biases B (length N)."""

    A: np.ndarray
    B: np.ndarray
    spec: WeightDistributionSpec
    seed: int
    N: int
    d: int

    def __post_init__(self) -> None:
        if self.A.shape != (self.N, self.d):
            raise ValueError(f"A has shape {self.A.shape}, expected {(self.N, self.d)}")
        if self.B.shape != (self.N,):
            raise ValueError(f"B has shape {self.B.shape}, expected {(self.N,)}")
        if not (np.isfinite(self.A).all() and np.isfinite(self.B).all()):
            raise ValueError("hidden weights contain non-finite entries")
        self.A.setflags(write=False)
        self.B.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RandomFeatureNet:
    """Hidden layer plus trainable output vector W and optional cap L."""

    hidden: HiddenWeights
    W: np.ndarray
    cap: float | None = None

    def __post_init__(self) -> None:
        if self.W.shape != (self.hidden.N,):
            raise ValueError(f"W has length {self.W.shape}, expected ({self.hidden.N},)")
        if self.cap is not None and not self.cap > 0.0:
            raise ValueError(f"cap must be positive when set, got {self.cap}")
        self.W.setflags(write=False)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """ReLU feature values, entry (i, j) = relu(A_j . X_i + B_j)."""

    values: np.ndarray
    point_count: int
    feature_count: int

    def __post_init__(self) -> None:
        if self.values.shape != (self.point_count, self.feature_count):
            raise ValueError("values shape does not match declared counts")


def sample_hidden_weights(
    spec: WeightDistributionSpec, N: int, d: int, seed: int
) -> HiddenWeights:
    """Draw the frozen hidden layer.

    Rows of A are sampled as Z / sqrt(U/nu) with Z standard normal in
    R^d and U ~ chi-square(nu) realized as Gamma(nu/2, 2), which also
    admits non-integer degrees of freedom; B entries use the same
    construction with b_dof.  Each of the four sources has its own
    substream of ``seed``, so the draw is a pure function of
    (spec, N, d, seed) and is prefix-stable in N.
    """

    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    z = substream(seed, _A_NORMAL).standard_normal((N, d))
    u = 2.0 * substream(seed, _A_CHI).standard_gamma(spec.nu / 2.0, size=N)
    A = z / np.sqrt(u / spec.nu)[:, None]
    zb = substream(seed, _B_NORMAL).standard_normal(N)
    ub = 2.0 * substream(seed, _B_CHI).standard_gamma(spec.b_dof / 2.0, size=N)
    B = zb / np.sqrt(ub / spec.b_dof)
    return HiddenWeights(A=A, B=B, spec=spec, seed=seed, N=N, d=d)


def subnetwork(hidden: HiddenWeights, N: int) -> HiddenWeights:
    """First ``N`` neurons of ``hidden``.

    Because sampling is prefix-stable this equals
    ``sample_hidden_weights(hidden.spec, N, hidden.d, hidden.seed)``
    without redrawing, which is how nested per-N experiment curves are
    built.
    """

    if not 1 <= N <= hidden.N:
        raise ValueError(f"N must be in [1, {hidden.N}], got {N}")
    return HiddenWeights(
        A=hidden.A[:N].copy(),
        B=hidden.B[:N].copy(),
        spec=hidden.spec,
        seed=hidden.seed,
        N=N,
        d=hidden.d,
    )


def log_pi_w(spec: WeightDistributionSpec, x) -> np.ndarray | float:
    """Log-density of t_nu(0, Id) at x (single d-vector or rows of points)."""

    arr = np.atleast_1d(np.asarray(x, dtype=float))
    single = arr.ndim == 1
    pts = arr[None, :] if single else arr
    d = pts.shape[1]
    nu = spec.nu
    norm = (
        math.lgamma((nu + d) / 2.0)
        - math.lgamma(nu / 2.0)
        - 0.5 * d * np.log(nu)
        - 0.5 * d * np.log(np.pi)
    )
    val = norm - 0.5 * (nu + d) * np.log1p(np.sum(pts * pts, axis=1) / nu)
    return float(val[0]) if single else val


def pi_w(spec: WeightDistributionSpec, x) -> np.ndarray | float:
    """Density of the A-row distribution t_nu(0, Id) at x."""

    return np.exp(log_pi_w(spec, x))


def log_pi_b(spec: WeightDistributionSpec, u) -> np.ndarray | float:
    """Log-density of the scalar Student-t(b_dof) at u."""

    arr = np.asarray(u, dtype=float)
    k = spec.b_dof
    norm = math.lgamma((k + 1.0) / 2.0) - math.lgamma(k / 2.0) - 0.5 * np.log(k * np.pi)
    val = norm - 0.5 * (k + 1.0) * np.log1p(arr * arr / k)
    return float(val) if np.isscalar(u) or arr.ndim == 0 else val


def pi_b(spec: WeightDistributionSpec, u) -> np.ndarray | float:
    """Density of the B-entry distribution Student-t(b_dof) at u."""

    return np.exp(log_pi_b(spec, u))


def _rows(hidden: HiddenWeights, X) -> np.ndarray:
    """X as an (n, d) array; a flat array is read as rows of d."""

    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2:
        arr = arr.reshape(-1, hidden.d) if arr.size else np.empty((0, hidden.d))
    if arr.shape[1] != hidden.d:
        raise ValueError(f"X has {arr.shape[1]} columns, expected {hidden.d}")
    return arr


def row_blocks(n: int, size: int = ROW_BLOCK) -> list[slice]:
    """Slices of ``size`` rows (a multiple of 4) that cover ``range(n)`` in order.

    The last slice ends at ``n``. A remainder of fewer than 4 rows joins
    the slice before it. OpenBLAS computes a matrix-vector product in
    groups of 4 rows and treats a short product differently, so with this
    cut each slice's product has the bits the whole product has on one
    BLAS thread. ``size`` is ``ROW_BLOCK`` (the train fold and
    ``save_dataset``) or ``ROW_PIECE`` (the pieces of a fold block, and
    of ``predict``).
    """

    blocks = [slice(i, min(i + size, n)) for i in range(0, n, size)]
    if len(blocks) > 1 and n - blocks[-1].start < 4:
        blocks[-2:] = [slice(blocks[-2].start, n)]
    return blocks


def design_matrix(hidden: HiddenWeights, X) -> FeatureMatrix:
    """ReLU features of the rows of X (a flat array is read as rows of d)."""

    arr = _rows(hidden, X)
    # at d = 1 the product is an outer product, with the same bits as the
    # gemm and without its call overhead
    values = arr * hidden.A[:, 0] if hidden.d == 1 else arr @ hidden.A.T
    values += hidden.B
    np.maximum(values, 0.0, out=values)
    return FeatureMatrix(values=values, point_count=arr.shape[0], feature_count=hidden.N)


@single_blas_thread()
def predict(net: RandomFeatureNet, X) -> np.ndarray:
    """Vector of network values at the rows of X (cap applied if set).

    The design is built ``ROW_PIECE`` rows at a time (``row_blocks``),
    so memory grows with ``ROW_PIECE * N`` and not with the number of
    points. It runs on one OpenBLAS thread (``_blas.single_blas_thread``).
    Each value matches the whole design's product to rounding, and bit
    for bit wherever the pieces' features have the whole design's bits
    (see ``ROW_PIECE``).
    """

    arr = _rows(net.hidden, X)
    vals = np.empty(arr.shape[0])
    for rows in row_blocks(arr.shape[0], ROW_PIECE):
        vals[rows] = design_matrix(net.hidden, arr[rows]).values @ net.W
    if net.cap is not None:
        np.clip(vals, -net.cap, net.cap, out=vals)
    return vals


def net_to_dict(net: RandomFeatureNet) -> dict:
    """JSON-ready dict {spec, seed, N, d, A, B, W, cap} (A row-major)."""

    return {
        "spec": {"nu": net.hidden.spec.nu, "b_dof": net.hidden.spec.b_dof},
        "seed": int(net.hidden.seed),
        "N": int(net.hidden.N),
        "d": int(net.hidden.d),
        "A": net.hidden.A.tolist(),
        "B": net.hidden.B.tolist(),
        "W": net.W.tolist(),
        "cap": net.cap,
    }


def net_from_dict(doc: dict) -> RandomFeatureNet:
    spec = WeightDistributionSpec(**doc["spec"])
    hidden = HiddenWeights(
        A=np.asarray(doc["A"], dtype=float).reshape(doc["N"], doc["d"]),
        B=np.asarray(doc["B"], dtype=float),
        spec=spec,
        seed=int(doc["seed"]),
        N=int(doc["N"]),
        d=int(doc["d"]),
    )
    cap = doc.get("cap")
    return RandomFeatureNet(
        hidden=hidden,
        W=np.asarray(doc["W"], dtype=float),
        cap=None if cap is None else float(cap),
    )


def save_model(net: RandomFeatureNet, path) -> None:
    """Write the model as a single JSON document.

    Floats are serialized via repr and parse back to the identical
    double, so a round trip reproduces predictions bit-exactly.
    """

    Path(path).write_text(json.dumps(net_to_dict(net)))


def load_model(path) -> RandomFeatureNet:
    return net_from_dict(json.loads(Path(path).read_text()))
