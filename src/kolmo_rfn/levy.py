"""Exponential Levy model machinery.

A d-dimensional Levy process is described here by its characteristic
triplet: diffusion covariance ``sigma``, drift ``gamma``, and a finite
atomic compound-Poisson jump measure with atoms inside a ball of radius
R.  The module provides the Levy symbol eta (the exponent in
E[exp(i xi . L_T)] = exp(T eta(xi))), the non-degeneracy check on
sigma, exact path-increment simulation, payoff evaluation, Monte Carlo
pricing of u(T, s) = E[phi(s exp(L_T))], and the closed-form
Black-Scholes call/put used as a reference curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import substream

__all__ = [
    "CompoundPoissonSpec",
    "LevyTriplet",
    "NondegeneracyReport",
    "Payoff",
    "max_call",
    "basket_put",
    "tent",
    "indicator",
    "table",
    "truncated",
    "PAYOFFS",
    "payoff_eval",
    "payoff_log_eval",
    "equal_correlation_sigma",
    "risk_neutral_gamma",
    "levy_symbol",
    "verify_nondegeneracy",
    "sqrt_sigma",
    "IncrementSampler",
    "simulate_levy_increment",
    "price_mc",
    "bs_call_price",
    "bs_put_price",
]

_PRICE_STREAM = 40
_CHUNK = 1 << 17

# strong-form horizon threshold: C*T must exceed 1/(2^{3/2} pi)
STRONG_FORM_THRESHOLD = 1.0 / (2.0 ** 1.5 * math.pi)


@dataclass(frozen=True, eq=False)
class CompoundPoissonSpec:
    """Finite atomic jump measure: intensity * sum_k p_k * delta_{y_k}.

    :param intensity: jump arrival rate per unit time (lambda_J >= 0)
    :param atoms: sequence of (probability, jump vector) pairs; the
        probabilities must sum to 1 and every jump must satisfy
        ``norm(y) <= radius``
    :param radius: declared support radius R > 1
    """

    intensity: float
    atoms: tuple
    radius: float = 1.5

    def __post_init__(self) -> None:
        if not self.intensity >= 0.0:
            raise ValueError(f"intensity must be nonnegative, got {self.intensity}")
        if not self.radius > 1.0:
            raise ValueError(f"jump support radius must exceed 1, got {self.radius}")
        if len(self.atoms) == 0:
            raise ValueError("compound Poisson spec needs at least one atom")
        probs = np.array([p for p, _ in self.atoms], dtype=float)
        if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("atom probabilities must be nonnegative and sum to 1")
        dims = {np.atleast_1d(np.asarray(y, dtype=float)).shape for _, y in self.atoms}
        if len(dims) != 1:
            raise ValueError("all jump atoms must share one dimension")
        for _, y in self.atoms:
            if np.linalg.norm(np.atleast_1d(y)) > self.radius + 1e-12:
                raise ValueError("jump atom outside the declared radius")

    @property
    def d(self) -> int:
        return np.atleast_1d(np.asarray(self.atoms[0][1])).shape[0]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Atom probabilities (k,) and jump vectors (k, d)."""

        probs = np.array([p for p, _ in self.atoms], dtype=float)
        ys = np.array([np.atleast_1d(np.asarray(y, dtype=float)) for _, y in self.atoms])
        return probs, ys


def _check_psd(matrix, name: str = "covariance") -> np.ndarray:
    """``matrix`` as a 2-d float array, if square, symmetric and positive semidefinite.

    Symmetric and semidefinite to 1e-12 of its Frobenius norm (of 1 for
    a norm below 1).
    """

    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square")
    scale = np.linalg.norm(matrix)
    if scale > 0 and np.linalg.norm(matrix - matrix.T) > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(0.5 * (matrix + matrix.T)).min() < -1e-12 * max(scale, 1.0):
        raise ValueError(f"{name} must be positive semidefinite")
    return matrix


@dataclass(frozen=True, eq=False)
class LevyTriplet:
    """Characteristic triplet (sigma, gamma, jumps)."""

    sigma: np.ndarray
    gamma: np.ndarray
    jumps: CompoundPoissonSpec | None = None

    def __post_init__(self) -> None:
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "gamma", gamma)
        d = gamma.shape[0]
        if sigma.shape != (d, d):
            raise ValueError(f"sigma shape {sigma.shape} does not match drift dimension {d}")
        _check_psd(sigma, "sigma")
        if self.jumps is not None and self.jumps.d != d:
            raise ValueError(f"jump dimension {self.jumps.d} does not match d={d}")
        self.sigma.setflags(write=False)
        self.gamma.setflags(write=False)

    @property
    def d(self) -> int:
        return self.gamma.shape[0]


def equal_correlation_sigma(sigma: float, rho: float, d: int) -> np.ndarray:
    """Covariance with sigma^2 on the diagonal and sigma^2*rho off it."""

    rho_min = -1.0 / (d - 1) if d > 1 else -1.0
    if not rho_min <= rho <= 1.0:
        raise ValueError(f"rho={rho} gives an indefinite matrix for d={d}")
    out = np.full((d, d), sigma * sigma * rho)
    np.fill_diagonal(out, sigma * sigma)
    return out


def risk_neutral_gamma(sigma: np.ndarray, jumps: CompoundPoissonSpec | None = None) -> np.ndarray:
    """Drift making every exp(L_{t,i}) a martingale.

    Solves gamma_i + sigma_ii/2 + intensity * sum_k p_k
    (exp(y_{k,i}) - 1 - y_{k,i} 1{norm(y_k) <= 1}) = 0 componentwise.
    """

    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    gamma = -0.5 * np.diag(sigma).copy()
    if jumps is not None:
        probs, ys = jumps.arrays()
        small = np.linalg.norm(ys, axis=1) <= 1.0
        term = np.expm1(ys) - ys * small[:, None]
        gamma -= jumps.intensity * probs @ term
    return gamma


def levy_symbol(triplet: LevyTriplet, xi) -> complex:
    """Levy-Khintchine exponent eta(xi).

    eta(xi) = i xi.gamma - xi.sigma xi / 2
              + intensity * sum_k p_k (e^{i xi.y_k} - 1 - i xi.y_k 1{norm(y_k)<=1})
    """

    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (triplet.d,):
        raise ValueError(f"xi has shape {xi.shape}, expected ({triplet.d},)")
    val = 1j * (xi @ triplet.gamma) - 0.5 * (xi @ triplet.sigma @ xi)
    if triplet.jumps is not None:
        probs, ys = triplet.jumps.arrays()
        small = np.linalg.norm(ys, axis=1) <= 1.0
        phase = ys @ xi
        val += triplet.jumps.intensity * np.sum(
            probs * (np.exp(1j * phase) - 1.0 - 1j * phase * small)
        )
    return complex(val)


@dataclass(frozen=True)
class NondegeneracyReport:
    """Result of the ellipticity check on sigma.

    ``holds`` is the headline answer (lambda_min(sigma)/2 >= C up to a
    1e-12 slack); ``strong_form`` additionally records whether
    C*T > 1/(2^{3/2} pi) when a horizon was supplied.  The report is
    truthy exactly when ``holds``.
    """

    holds: bool
    lambda_min: float
    C: float
    strong_form: bool | None = None

    def __bool__(self) -> bool:
        return self.holds


def verify_nondegeneracy(triplet: LevyTriplet, C: float, T: float | None = None) -> NondegeneracyReport:
    """Check xi.sigma xi / 2 >= C |xi|^2, i.e. lambda_min(sigma)/2 >= C."""

    if not C > 0.0:
        raise ValueError(f"C must be positive, got {C}")
    lam_min = float(np.linalg.eigvalsh(triplet.sigma).min())
    holds = 0.5 * lam_min >= C - 1e-12
    strong = None if T is None else bool(C * T > STRONG_FORM_THRESHOLD)
    return NondegeneracyReport(holds=holds, lambda_min=lam_min, C=C, strong_form=strong)


def sqrt_sigma(sigma: np.ndarray) -> np.ndarray:
    """Matrix S with S S^T = sigma.

    Cholesky when sigma is definite; otherwise a symmetric-eigendecomposition
    square root with eigenvalues below 1e-10 * trace/d clipped to zero.
    """

    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
        tol = 1e-10 * np.trace(sigma) / sigma.shape[0]
        vals = np.where(vals > tol, vals, 0.0)
        return vecs * np.sqrt(vals)


def _as_rng(rng_or_seed) -> np.random.Generator:
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return substream(int(rng_or_seed), _PRICE_STREAM)


class IncrementSampler:
    """Exact sampler of L_T for one triplet and horizon T.

    Holds what every draw reuses (sqrt(sigma), the jump arrays, the
    compensator), so it is built once per dataset rather than once per
    Monte Carlo row.  :meth:`draw` fixes the order in which one block of
    increments consumes a generator: normals, then Poisson jump counts,
    then jump atoms; :meth:`increments` turns draws into increments.
    Monte Carlo prices are reproducible bit for bit only because every
    caller draws in this order.
    """

    def __init__(self, triplet: LevyTriplet, T: float) -> None:
        if T < 0:
            raise ValueError(f"T must be nonnegative, got {T}")
        self.d = triplet.d
        self.shift = triplet.gamma * T
        self.scale = math.sqrt(T)
        self.root_t = sqrt_sigma(triplet.sigma).T
        self.rate = None
        jumps = triplet.jumps
        if jumps is not None and jumps.intensity > 0:
            self.probs, self.ys = jumps.arrays()
            self.rate = jumps.intensity * T
            small = np.linalg.norm(self.ys, axis=1) <= 1.0
            self.compensator = T * jumps.intensity * ((self.probs * small) @ self.ys)

    def draw(self, rng: np.random.Generator, z: np.ndarray) -> tuple:
        """Fill z (paths, d) with normals, then draw those paths' jumps.

        Returns () without jumps, else (counts, atoms): each path's jump
        count and the atom index of every jump, path after path.
        """

        rng.standard_normal(out=z)
        if self.rate is None:
            return ()
        counts = rng.poisson(self.rate, size=z.shape[0])
        total = int(counts.sum())
        atoms = rng.choice(len(self.probs), size=total, p=self.probs) if total else np.empty(0, np.intp)
        return counts, atoms

    def increments(self, z: np.ndarray, counts=None, atoms=None) -> np.ndarray:
        """Increments (..., paths, d) from normals z of that shape.

        ``counts`` and ``atoms`` are the jumps :meth:`draw` returned for
        z's paths in row-major order (several draws concatenated).
        """

        out = z @ self.root_t
        out *= self.scale
        out += self.shift
        if self.rate is not None:
            if atoms.size:
                flat = out.reshape(-1, self.d)
                owner = np.repeat(np.arange(flat.shape[0]), counts.ravel())
                for j in range(self.d):
                    flat[:, j] += np.bincount(owner, weights=self.ys[atoms, j], minlength=flat.shape[0])
            out -= self.compensator
        return out


def simulate_levy_increment(triplet: LevyTriplet, T: float, rng, size: int | None = None):
    """Draw L_T (one d-vector, or a (size, d) block when size is given).

    Exact simulation via the Levy-Ito decomposition: Gaussian part
    gamma*T + sqrt(sigma) sqrt(T) Z, plus the compound-Poisson jump sum,
    minus the small-jump compensator T * intensity * sum_k p_k y_k
    1{norm(y_k) <= 1} that the symbol's centering term prescribes.
    """

    rng = _as_rng(rng)
    n = 1 if size is None else int(size)
    if T == 0:
        out = np.zeros((n, triplet.d))
    else:
        sampler = IncrementSampler(triplet, T)
        # zero rows up to whole groups of 4, and to at least 32 rows: OpenBLAS
        # rounds the rows past its gemm's last group of 4, and a product of
        # few rows (numpy's gemv for one), unlike the same rows of a taller
        # product (seen at d = 50), so a jump-free row's increment does not
        # depend on n
        z = np.zeros((max(32, n + (-n % 4)), triplet.d))
        jumps = sampler.draw(rng, z[:n])
        out = sampler.increments(z[:n], *jumps) if jumps else sampler.increments(z)[:n]
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# payoffs


@dataclass(frozen=True, eq=False)
class Payoff:
    """A payoff's kind and parameters, plus the facts its constructor derives.

    ``fn`` evaluates points along the last axis: price vectors s in
    [0, inf)^d for asset-space kinds (max_call, basket_put), x = log(s)
    for ``log_space`` kinds (tent, indicator, table, truncated).
    ``support`` is the bounding box of the log-support (None if
    unbounded). ``kinks`` lists, in log-coordinates, every point where
    the payoff along its first coordinate is not smooth, the breakpoints
    a quadrature rule must split at: a one-asset max_call or basket_put
    has its strike's, a multi-asset one none (its kinks move with the
    other assets).
    """

    kind: str
    params: dict
    d: int
    log_space: bool
    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple[np.ndarray, np.ndarray] | None = None
    kinks: tuple = ()


def max_call(strike: float, d: int = 1) -> Payoff:
    """phi(s) = max(max_i s_i - K, 0)."""

    if strike < 0:
        raise ValueError("strike must be nonnegative")
    strike, d = float(strike), int(d)

    def fn(s):
        # a running maximum over the column views is several times faster
        # than max(axis=-1) on a short last axis, with the same bits
        top = s[..., 0]
        for j in range(1, d):
            top = np.maximum(top, s[..., j])
        return np.maximum(top - strike, 0.0)

    kinks = (math.log(strike),) if d == 1 and strike > 0 else ()
    return Payoff("max_call", {"strike": strike, "d": d}, d, False, fn, kinks=kinks)


def basket_put(strike: float, weights) -> Payoff:
    """phi(s) = max(K - w . s, 0) with fixed strike and weights."""

    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if (w < 0).any():
        raise ValueError("basket weights must be nonnegative")
    strike = float(strike)
    # a difference of logs, as strike / w[0] overflows for a subnormal weight
    kinks = (math.log(strike) - math.log(w[0]),) if w.shape == (1,) and strike > 0 and w[0] > 0 else ()
    return Payoff(
        "basket_put", {"strike": strike, "weights": w}, w.shape[0], False,
        lambda s: np.maximum(strike - s @ w, 0.0),
        kinks=kinks,
    )


def tent(center: float = 0.0, width: float = 1.0) -> Payoff:
    """One-dimensional hat in log-coordinates: max(1 - |x - c|/width, 0)."""

    if not width > 0:
        raise ValueError("tent width must be positive")
    c, w = float(center), float(width)
    return Payoff(
        "tent", {"center": c, "width": w}, 1, True,
        lambda x: np.maximum(1.0 - np.abs(x[..., 0] - c) / w, 0.0),
        support=(np.array([c - w]), np.array([c + w])),
        kinks=(c - w, c, c + w),
    )


def indicator(lo, hi) -> Payoff:
    """Indicator of the log-coordinate box [lo, hi] (componentwise)."""

    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or (lo >= hi).any():
        raise ValueError("indicator box needs lo < hi componentwise")
    return Payoff(
        "indicator", {"lo": lo, "hi": hi}, lo.shape[0], True,
        lambda x: np.all((x >= lo) & (x <= hi), axis=-1).astype(float),
        support=(lo, hi),
        kinks=(lo[0], hi[0]),
    )


def table(xs, ys) -> Payoff:
    """Piecewise-linear log-coordinate payoff, zero outside the grid."""

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.shape[0] < 2:
        raise ValueError("table needs matching 1-d grids with at least 2 nodes")
    if (np.diff(xs) <= 0).any():
        raise ValueError("table grid must be strictly increasing")
    return Payoff(
        "table", {"xs": xs, "ys": ys}, 1, True,
        lambda x: np.interp(x[..., 0], xs, ys, left=0.0, right=0.0),
        support=(np.array([xs[0]]), np.array([xs[-1]])),
        kinks=tuple(xs),
    )


def truncated(inner: Payoff, bound: float) -> Payoff:
    """``inner`` in log-coordinates, cut to zero outside the ball of radius ``bound``."""

    bound = float(bound)
    if not bound > 0:
        raise ValueError(f"bound must be positive, got {bound}")
    lo, hi = inner.support or (np.full(inner.d, -bound), np.full(inner.d, bound))

    def fn(x):
        return np.where(np.linalg.norm(x, axis=-1) <= bound, payoff_log_eval(inner, x), 0.0)

    return Payoff(
        "truncated", {"inner": inner, "bound": bound}, inner.d, True, fn,
        support=(np.maximum(lo, -bound), np.minimum(hi, bound)),
        kinks=tuple(sorted(set(inner.kinks) | {-bound, bound})),
    )


# every payoff constructor, by the kind it makes
PAYOFFS = {make.__name__: make for make in (max_call, basket_put, tent, indicator, table, truncated)}


def payoff_log_eval(payoff: Payoff, x) -> np.ndarray | float:
    """Payoff at log-coordinates x (one point, or points along the last axis)."""

    arr = np.atleast_1d(np.asarray(x, dtype=float))
    single = arr.ndim == 1
    pts = arr[None, :] if single else arr
    if pts.shape[-1] != payoff.d:
        raise ValueError(f"x has dimension {pts.shape[-1]}, payoff expects {payoff.d}")
    vals = payoff.fn(pts) if payoff.log_space else payoff_eval(payoff, np.exp(pts))
    return float(vals[0]) if single else vals


def payoff_eval(payoff: Payoff, s) -> np.ndarray | float:
    """Payoff at asset values s (one point, or points along the last axis).

    A stack of point blocks (..., paths, d) is evaluated block by block
    with the same arithmetic as each block alone, so batching Monte
    Carlo rows leaves every value bit-identical.
    """

    arr = np.atleast_1d(np.asarray(s, dtype=float))
    single = arr.ndim == 1
    pts = arr[None, :] if single else arr
    if pts.shape[-1] != payoff.d:
        raise ValueError(f"s has dimension {pts.shape[-1]}, payoff expects {payoff.d}")
    if payoff.log_space:
        if (pts <= 0).any():
            raise ValueError("log-space payoffs need strictly positive asset values")
        pts = np.log(pts)
    elif (pts < 0).any() or not np.isfinite(pts).all():
        raise ValueError("asset values must be finite and nonnegative")
    vals = payoff.fn(pts)
    return float(vals[0]) if single else vals


# ---------------------------------------------------------------------------
# pricing


def price_mc(triplet: LevyTriplet, payoff: Payoff, x, T: float, paths: int, rng) -> tuple[float, float]:
    """Monte Carlo estimate of u(T, exp(x)) = E[phi(exp(x + L_T))].

    Returns (mean, standard error); the standard error is the sample
    standard deviation over paths divided by sqrt(paths).  ``rng`` is a
    numpy Generator or an integer seed.
    """

    if paths < 1:
        raise ValueError(f"paths must be at least 1, got {paths}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (triplet.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({triplet.d},)")
    if T == 0:
        return float(payoff_eval(payoff, np.exp(x))), 0.0

    rng = _as_rng(rng)
    sampler = IncrementSampler(triplet, T)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < paths:
        block = min(_CHUNK, paths - done)
        z = np.empty((block, triplet.d))
        incr = sampler.increments(z, *sampler.draw(rng, z))
        vals = payoff_eval(payoff, np.exp(x + incr))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += block
    mean = total / paths
    if paths == 1:
        return mean, math.inf
    var = max(total_sq - paths * mean * mean, 0.0) / (paths - 1)
    return mean, math.sqrt(var / paths)


_SQRT1_2 = math.sqrt(0.5)

# Phi(a) = erfc(-a / sqrt(2)) / 2, which keeps its relative accuracy in the lower tail
_ndtr_ufunc = np.frompyfunc(lambda a: 0.5 * math.erfc(-a * _SQRT1_2), 1, 1)


def _ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise (a NaN stays NaN)."""

    with np.errstate(invalid="ignore"):
        return np.asarray(_ndtr_ufunc(np.asarray(x, dtype=float)), dtype=float)


def bs_call_price(spot, strike, sigma: float, T: float):
    """Black-Scholes call at zero rate: spot*N(d1) - strike*N(d2)."""

    spot = np.asarray(spot, dtype=float)
    strike = np.asarray(strike, dtype=float)
    sig = sigma * math.sqrt(T)
    if sig == 0:
        return np.maximum(spot - strike, 0.0)[()]
    with np.errstate(divide="ignore"):
        d1 = np.where(strike > 0, (np.log(np.maximum(spot, 1e-300) / np.where(strike > 0, strike, 1.0)) + 0.5 * sig * sig) / sig, np.inf)
    val = spot * _ndtr(d1) - strike * _ndtr(d1 - sig)
    return np.where(strike > 0, np.where(spot > 0, val, 0.0), spot)[()]


def bs_put_price(spot, strike, sigma: float, T: float):
    """Black-Scholes put at zero rate, via parity with the call."""

    spot = np.asarray(spot, dtype=float)
    strike = np.asarray(strike, dtype=float)
    return (bs_call_price(spot, strike, sigma, T) - spot + strike)[()]
