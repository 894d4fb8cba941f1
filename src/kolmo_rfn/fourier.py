"""Training-free output weights from the target's Fourier representation.

For targets of the form H(x) = E[Phi(x + V)] with a compactly supported
payoff Phi (in log coordinates) and a smoothing vector V whose
characteristic function decays like exp(-C |xi|^2), the network weights
can be written down directly: a signed density alpha(xi, u) on
frequency-offset space satisfies

    integral of alpha(xi, u) relu(xi . x + u)  du dxi  =  H(x)

for every x in the box [-M, M]^d, so importance sampling against the
hidden-weight distribution gives output weights

    W_i = f(A_i, B_i) / N,    f = alpha / (pi_w pi_b),

an unbiased N-term estimator of H. No training data is involved, which
makes this an independent check of the 1/sqrt(N) approximation rate.

Everything here works with the transform convention
f_hat(xi) = (2 pi)^{-d/2} integral e^{-i x . xi} f(x) dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .levy import Payoff, _check_psd, payoff_log_eval
from .network import HiddenWeights, WeightDistributionSpec, pi_b, pi_w

__all__ = [
    "FourierProfile",
    "phi_hat_tent",
    "phi_hat_indicator",
    "phi_hat_table",
    "char_fn_gaussian",
    "gaussian_profile",
    "alpha",
    "oracle_weight_envelope",
    "construct_oracle_weights",
    "reference_convolution",
    "sup_error_on_grid",
]

# the closed form of a table segment's first moment loses eps/|eta|
# absolutely, so its series (through eta^15) takes over below this
_MOMENT_CUTOFF = 0.5

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# reference_convolution: a Gauss-Legendre rule per piece of a window of
# this many standard deviations either side (the Gaussian mass outside
# is below 2e-33)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_WINDOW_SDS = 12.0


def phi_hat_tent(center: float, width: float, xi):
    """Transform of the hat max(1 - |x - center|/width, 0).

    The unit hat at zero transforms to (2 pi)^{-1/2} 2(1 - cos xi)/xi^2,
    evaluated as sinc(xi/2)^2, which has no cancellation and is exact
    at 0; shifting multiplies by e^{-i center xi} and scaling by width
    stretches the frequency axis and the amplitude.
    """

    if not width > 0:
        raise ValueError("width must be positive")
    arr = np.asarray(xi, dtype=float)
    vals = (
        width * _INV_SQRT_2PI * np.exp(-1j * center * arr)
        * np.sinc(width * arr / (2.0 * np.pi)) ** 2
    )
    return complex(vals[()]) if arr.ndim == 0 else vals


def phi_hat_indicator(lo: float, hi: float, xi):
    """Transform of the interval indicator 1_{[lo, hi]}."""

    if not hi > lo:
        raise ValueError("indicator needs lo < hi")
    arr = np.asarray(xi, dtype=float)
    # factor out the midpoint phase; the rest is a stable sinc
    mid = 0.5 * (lo + hi)
    width = hi - lo
    out = width * np.exp(-1j * mid * arr) * np.sinc(width * arr / (2.0 * np.pi)) * _INV_SQRT_2PI
    return complex(out[()]) if arr.ndim == 0 else out


def _moment_base(eta: np.ndarray) -> np.ndarray:
    """(sin eta - eta cos eta) / eta^2, with its series below the cutoff."""

    out = np.empty(eta.shape)
    small = np.abs(eta) < _MOMENT_CUTOFF
    e = eta[small]
    # sum over k >= 1 of (-1)^(k+1) 2k eta^(2k-1) / (2k+1)!
    term = e / 3.0
    acc = term.copy()
    for k in range(2, 9):
        term = term * (-e * e) * k / ((k - 1) * 2 * k * (2 * k + 1))
        acc += term
    out[small] = acc
    big = ~small
    eb = eta[big]
    out[big] = (np.sin(eb) - eb * np.cos(eb)) / (eb * eb)
    return out


def phi_hat_table(xs, ys, xi):
    """Transform of a piecewise-linear payoff, zero outside [xs[0], xs[-1]].

    Summed exactly over segments: on one of half-width c about m, with
    mean value ybar and half-rise delta, the integral is
    2c e^{-i xi m} (ybar sinc(xi c) - i delta j(xi c)) where
    j(eta) = (sin eta - eta cos eta)/eta^2. Nonzero end values, the
    jumps that zero extension makes, need no extra term.
    """

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    arr = np.asarray(xi, dtype=float)
    flat = np.atleast_1d(arr)
    half = 0.5 * np.diff(xs)
    mid = 0.5 * (xs[1:] + xs[:-1])
    mean = 0.5 * (ys[1:] + ys[:-1])
    rise = 0.5 * np.diff(ys)
    eta = np.outer(flat, half)
    seg = np.exp(-1j * np.outer(flat, mid)) * (
        mean * np.sinc(eta / np.pi) - 1j * rise * _moment_base(eta)
    )
    out = _INV_SQRT_2PI * (seg @ (2.0 * half))
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def char_fn_gaussian(cov, xi):
    """E[e^{i xi . V}] for centered Gaussian V: exp(-xi . cov . xi / 2)."""

    cov = _check_psd(cov)
    arr = np.asarray(xi, dtype=float)
    pts = np.atleast_2d(arr)
    if pts.shape[1] != cov.shape[0]:
        raise ValueError(f"xi has dimension {pts.shape[1]}, covariance is {cov.shape[0]}-dim")
    vals = _gaussian_char(cov, pts)
    return float(vals[0]) if arr.ndim <= 1 else vals


def _gaussian_char(cov: np.ndarray, pts: np.ndarray) -> np.ndarray:
    # char_fn_gaussian without its checks, for a covariance checked once
    return np.exp(-0.5 * np.einsum("ij,jk,ik->i", pts, cov, pts))


@dataclass(frozen=True)
class FourierProfile:
    """The target's frequency-domain description.

    ``phi_hat`` and ``char_V`` consume an (n, d) array of frequency rows
    and return n complex values. ``C`` is the declared decay constant:
    |char_V(xi)| <= exp(-C |xi|^2) must hold, and construction spot-checks
    it on a deterministic probe set.
    """

    phi_hat: Callable[[np.ndarray], np.ndarray]
    char_V: Callable[[np.ndarray], np.ndarray]
    M: float
    d: int
    C: float

    def __post_init__(self) -> None:
        if not self.M > 0:
            raise ValueError("M must be positive")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not self.C > 0:
            raise ValueError("C must be positive")
        probes = [np.zeros(self.d)]
        for r in (0.5, 1.0, 2.0, 4.0, 8.0):
            probes.extend(r * np.eye(self.d))
            probes.append(np.full(self.d, r / math.sqrt(self.d)))
        pts = np.array(probes)
        vals = np.asarray(self.char_V(pts), dtype=complex)
        if abs(vals[0] - 1.0) > 1e-9:
            raise ValueError("char_V(0) must equal 1")
        bound = np.exp(-self.C * (pts**2).sum(axis=1))
        if (np.abs(vals) > bound * (1.0 + 1e-9) + 1e-300).any():
            raise ValueError(
                "char_V decays slower than exp(-C |xi|^2) for the declared C"
            )

    def G(self, xis: np.ndarray) -> np.ndarray:
        """(2 pi)^{-d/2} phi_hat(xi) char_V(xi), batched over rows."""

        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        scale = (2.0 * math.pi) ** (-0.5 * self.d)
        return scale * np.asarray(self.phi_hat(xis), dtype=complex) * np.asarray(
            self.char_V(xis), dtype=complex
        )


def gaussian_profile(payoff: Payoff, M: float, C: float) -> FourierProfile:
    """One-dimensional profile for a compactly supported payoff and Gaussian V.

    V's variance is 2C, which meets the decay bound with equality.
    Payoff kinds: tent, indicator (1-d), table.
    """

    if payoff.kind == "tent":
        c, w = payoff.params["center"], payoff.params["width"]
        base = lambda xs: phi_hat_tent(c, w, xs)
    elif payoff.kind == "indicator":
        lo, hi = payoff.params["lo"], payoff.params["hi"]
        if lo.shape != (1,):
            raise ValueError("gaussian_profile handles one-dimensional payoffs")
        base = lambda xs: phi_hat_indicator(lo[0], hi[0], xs)
    elif payoff.kind == "table":
        xs_, ys_ = payoff.params["xs"], payoff.params["ys"]
        base = lambda xs: phi_hat_table(xs_, ys_, xs)
    else:
        raise ValueError(f"no closed-form transform for payoff kind {payoff.kind!r}")

    cov_mat = _check_psd([[2.0 * C]])
    return FourierProfile(
        phi_hat=lambda rows: base(np.atleast_2d(rows)[:, 0]),
        char_V=lambda rows: _gaussian_char(cov_mat, np.atleast_2d(rows)),
        M=float(M),
        d=1,
        C=float(C),
    )


def _alpha_rows(profile: FourierProfile, xis, us, gp, gm) -> np.ndarray:
    """alpha at each (frequency row, offset) pair, given gp = G(xis) and gm = G(-xis).

    alpha(xi, u) = -1_{(-M |xi|_1, 0]}(u) Re[e^{-iu} G(xi) + e^{iu} G(-xi)]
                   + 1_{[0, 1]}(u) gt(xi) - 1_{[-1, 0]}(u) gt(-xi)

    with gt = 2 Re G - Im G. The first term carries the curvature of the
    target over the box (|xi|_1 is the l1 norm), the other two absorb the
    affine remainder of the relu representation.
    """

    l1 = np.abs(xis).sum(axis=1)
    out = np.zeros(us.shape)

    box = (us > -profile.M * l1) & (us <= 0.0)
    if box.any():
        u = us[box]
        out[box] -= (np.exp(-1j * u) * gp[box] + np.exp(1j * u) * gm[box]).real

    pos = (us >= 0.0) & (us <= 1.0)
    out[pos] += 2.0 * gp[pos].real - gp[pos].imag
    neg = (us >= -1.0) & (us <= 0.0)
    out[neg] -= 2.0 * gm[neg].real - gm[neg].imag
    return out


def alpha(profile: FourierProfile, xi, u: float) -> float:
    """The signed mixing density at one (frequency, offset) pair."""

    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (profile.d,):
        raise ValueError(f"xi has shape {xi.shape}, expected ({profile.d},)")
    xis = xi[None, :]
    vals = _alpha_rows(profile, xis, np.array([float(u)]), profile.G(xis), profile.G(-xis))
    return float(vals[0])


def oracle_weight_envelope(
    profile: FourierProfile, spec: WeightDistributionSpec, xis, us
) -> np.ndarray:
    """Pointwise bound on |f| = |alpha| / (pi_w pi_b) at the given rows.

    |alpha(xi, u)| <= (1_{(-M |xi|_1, 0]}(u) + 4 * 1_{[-1, 1]}(u)) (|G(xi)| + |G(-xi)|),
    divided through by the sampling densities.
    """

    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    us = np.atleast_1d(np.asarray(us, dtype=float))
    bound = _alpha_bound(profile, xis, us, profile.G(xis), profile.G(-xis))
    return bound / (pi_w(spec, xis) * pi_b(spec, us))


def _alpha_bound(profile: FourierProfile, xis, us, gp, gm) -> np.ndarray:
    # the envelope's bound on |alpha|, given gp = G(xis) and gm = G(-xis)
    ind = ((us > -profile.M * np.abs(xis).sum(axis=1)) & (us <= 0.0)).astype(float)
    ind += 4.0 * ((us >= -1.0) & (us <= 1.0))
    return ind * (np.abs(gp) + np.abs(gm))


def construct_oracle_weights(hidden: HiddenWeights, profile: FourierProfile) -> np.ndarray:
    """Output weights W_i = f(A_i, B_i)/N, no training data involved.

    Sampling the hidden rows from (pi_w, pi_b) makes the resulting
    N-term network an unbiased estimator of the profile's target on
    [-M, M]^d. Raises if the magnitudes escape their envelope, which
    would mean the profile and the hidden sampling disagree.
    """

    if hidden.d != profile.d:
        raise ValueError(f"hidden weights are {hidden.d}-dim, profile is {profile.d}-dim")
    A, B = hidden.A, hidden.B
    # G at the sampled rows feeds both alpha and the envelope
    gp, gm = profile.G(A), profile.G(-A)
    dens = pi_w(hidden.spec, A) * pi_b(hidden.spec, B)
    f = _alpha_rows(profile, A, B, gp, gm) / dens
    env = _alpha_bound(profile, A, B, gp, gm) / dens
    if (np.abs(f) > env * (1.0 + 1e-9) + 1e-300).any():
        raise ArithmeticError("sampled weight escaped its envelope; inconsistent profile")
    return f / hidden.N


# ---------------------------------------------------------------------------
# reference targets


def reference_convolution(payoff: Payoff, cov, x):
    """H(x) = E[Phi(x + V)] for one-dimensional Gaussian V.

    ``x`` is one point (a float comes back) or points along the last
    axis, as for ``payoff_log_eval``. The offset v = y - x runs over
    [-12 sd, 12 sd] cut to the payoff's support and split at its kinks,
    and each piece gets a 64-node Gauss-Legendre rule, so a payoff that
    is polynomial between kinks is integrated to rounding. A zero
    variance degenerates to Phi(x) itself.
    """

    arr = np.atleast_1d(np.asarray(x, dtype=float))
    cov = _check_psd(cov)
    if arr.shape[-1] != 1 or cov.shape != (1, 1) or payoff.d != 1:
        raise ValueError("reference convolution is one-dimensional")
    if not cov.any():
        return payoff_log_eval(payoff, arr)
    if payoff.support is None:
        raise ValueError(f"payoff kind {payoff.kind!r} has unbounded log-support")
    sd = math.sqrt(cov[0, 0])
    pts = arr.reshape(-1, 1)
    lo = np.maximum(payoff.support[0][0] - pts, -_WINDOW_SDS * sd)
    hi = np.maximum(np.minimum(payoff.support[1][0] - pts, _WINDOW_SDS * sd), lo)
    kinks = np.asarray(payoff.kinks, dtype=float) - pts
    cuts = np.sort(np.clip(np.hstack([lo, kinks, hi]), lo, hi), axis=1)
    half = 0.5 * np.diff(cuts, axis=1)
    v = (0.5 * (cuts[:, 1:] + cuts[:, :-1]))[..., None] + half[..., None] * _GL_NODES
    dens = np.exp(-0.5 * (v / sd) ** 2) * (_INV_SQRT_2PI / sd)
    vals = payoff_log_eval(payoff, (pts[..., None] + v)[..., None]) * dens
    out = ((vals @ _GL_WEIGHTS) * half).sum(axis=1)
    return float(out[0]) if arr.ndim == 1 else out.reshape(arr.shape[:-1])


def sup_error_on_grid(design, W, reference_values) -> float:
    """Max |design @ W - reference| over the grid points of the design's rows.

    ``design`` holds the features at each grid point, for instance the
    first N columns of a wider layer's grid design, ``W`` the width's
    output weights and ``reference_values`` the target at the same
    points. A grid maximum is a lower bound on the true sup.
    """

    design = np.asarray(design, dtype=float)
    W = np.asarray(W, dtype=float)
    ref = np.asarray(reference_values, dtype=float)
    if ref.ndim != 1 or ref.shape[0] < 2:
        raise ValueError("need at least 2 reference values on a 1-d grid")
    if W.ndim != 1 or design.shape != (ref.shape[0], W.shape[0]):
        raise ValueError(f"design has shape {design.shape}, expected {(ref.shape[0], W.size)}")
    return float(np.abs(design @ W - ref).max())
