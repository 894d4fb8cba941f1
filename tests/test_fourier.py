import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from kolmo_rfn.config import payoff_from_dict, payoff_to_dict
from kolmo_rfn.fourier import (
    FourierProfile,
    alpha,
    char_fn_gaussian,
    construct_oracle_weights,
    gaussian_profile,
    oracle_weight_envelope,
    phi_hat_indicator,
    phi_hat_table,
    phi_hat_tent,
    reference_convolution,
    sup_error_on_grid,
)
from kolmo_rfn.levy import (
    indicator,
    max_call,
    payoff_log_eval,
    table,
    tent,
    truncated,
)
from kolmo_rfn.network import (
    RandomFeatureNet,
    WeightDistributionSpec,
    design_matrix,
    pi_b,
    pi_w,
    predict,
    sample_hidden_weights,
    subnetwork,
)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# mpmath, 50 digits, canonical profile: tent(0,1), V ~ N(0, 0.3), M=1
ALPHA_1_M05 = -0.47294138524115672359
ALPHA_07_03 = 0.28387216534976422361
ALPHA_M2_M15 = -0.0087498297813134132811
H_0 = 0.57763377028426375734
H_03 = 0.52675726653545898638
H_M06 = 0.39874843938474741202
TENT_HAT_PI = 0.16168521622098628


def canonical_profile():
    return gaussian_profile(tent(0.0, 1.0), M=1.0, C=0.15)


def zero_profile(d=1):
    return FourierProfile(
        phi_hat=lambda rows: np.zeros(np.atleast_2d(rows).shape[0], dtype=complex),
        char_V=lambda rows: np.exp(-(np.atleast_2d(rows) ** 2).sum(axis=1)),
        M=1.0,
        d=d,
        C=1.0,
    )


def quad_transform(f, a, b, xi, points=None):
    kw = {"limit": 400} if points is None else {"limit": 2000, "points": points, "epsabs": 1e-14}
    re, _ = integrate.quad(lambda x: f(x) * math.cos(x * xi), a, b, **kw)
    im, _ = integrate.quad(lambda x: f(x) * math.sin(x * xi), a, b, **kw)
    return INV_SQRT_2PI * (re - 1j * im)


def quad_reference(payoff, var, x):
    """The adaptive-quad convolution the Gauss-Legendre rule replaced."""

    sd = math.sqrt(var)
    lo, hi = payoff.support
    a, b = lo[0] - x, hi[0] - x
    pts = sorted({min(max(k - x, a), b) for k in payoff.kinks})
    val, _ = integrate.quad(
        lambda v: payoff_log_eval(payoff, [x + v]) * INV_SQRT_2PI / sd * math.exp(-0.5 * (v / sd) ** 2),
        a, b, points=pts, limit=200, epsabs=1e-12, epsrel=1e-10,
    )
    return val


class TestTentTransform:
    def test_at_zero(self):
        assert phi_hat_tent(0.0, 1.0, 0.0) == pytest.approx(INV_SQRT_2PI, rel=1e-15)

    def test_at_pi(self):
        assert phi_hat_tent(0.0, 1.0, math.pi) == pytest.approx(TENT_HAT_PI, rel=1e-14)

    def test_conjugate_symmetry(self):
        for xi in (0.3, 1.7, 5.0):
            val = phi_hat_tent(0.4, 0.8, xi)
            assert phi_hat_tent(0.4, 0.8, -xi) == pytest.approx(np.conj(val), rel=1e-14)

    def test_series_matches_closed_form_at_same_point(self):
        # near zero, where 2 (1 - cos xi) / xi^2 would cancel, the sinc form
        # agrees with the series 1 - xi^2/12 + xi^4/360
        for xi in (9.9e-5, -5e-5, 1e-6):
            series = INV_SQRT_2PI * (1.0 - xi**2 / 12.0 + xi**4 / 360.0)
            assert phi_hat_tent(0.0, 1.0, xi) == pytest.approx(series, rel=1e-15)

    def test_matches_quadrature(self):
        c, w = 0.3, 0.7
        f = lambda x: max(1.0 - abs(x - c) / w, 0.0)
        for xi in (0.0, 0.5, 2.0, -3.1):
            want = quad_transform(f, c - w, c + w, xi)
            assert phi_hat_tent(c, w, xi) == pytest.approx(want, abs=1e-12)

    def test_vectorized(self):
        xs = np.array([-2.0, 0.0, 1.0, 4.0])
        batch = phi_hat_tent(0.2, 1.5, xs)
        singles = [phi_hat_tent(0.2, 1.5, x) for x in xs]
        assert np.allclose(batch, singles, rtol=1e-15)

    def test_width_validated(self):
        with pytest.raises(ValueError):
            phi_hat_tent(0.0, 0.0, 1.0)


class TestIndicatorTransform:
    def test_at_zero(self):
        assert phi_hat_indicator(-1.0, 2.0, 0.0) == pytest.approx(3.0 * INV_SQRT_2PI, rel=1e-14)

    def test_matches_quadrature(self):
        f = lambda x: 1.0 if -0.5 <= x <= 1.5 else 0.0
        for xi in (0.4, 2.0, -1.3):
            want = quad_transform(f, -0.5, 1.5, xi)
            assert phi_hat_indicator(-0.5, 1.5, xi) == pytest.approx(want, abs=1e-10)

    def test_series_matches_closed_form_at_same_point(self):
        # near zero the sinc form agrees with the integral of e^{-i x xi}
        # over [lo, hi] expanded to 4th order
        lo, hi = -0.5, 1.5
        for xi in (9.9e-5, -5e-5, 1e-6):
            series = INV_SQRT_2PI * sum(
                (-1j * xi) ** k * (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * math.factorial(k))
                for k in range(5)
            )
            assert phi_hat_indicator(lo, hi, xi) == pytest.approx(series, rel=1e-15)

    def test_conjugate_symmetry(self):
        val = phi_hat_indicator(0.0, 1.0, 2.2)
        assert phi_hat_indicator(0.0, 1.0, -2.2) == pytest.approx(np.conj(val), rel=1e-14)

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            phi_hat_indicator(1.0, 1.0, 0.5)


class TestTableTransform:
    def test_triangle_table_equals_tent(self):
        xs, ys = [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]
        for xi in (0.0, 0.7, 3.0, -2.2):
            assert phi_hat_table(xs, ys, xi) == pytest.approx(
                phi_hat_tent(0.0, 1.0, xi), abs=1e-9
            )

    def test_at_zero_is_area(self):
        # trapezoid with area 1.5
        val = phi_hat_table([0.0, 1.0, 2.0], [1.0, 1.0, 0.0], 0.0)
        assert val == pytest.approx(1.5 * INV_SQRT_2PI, rel=1e-10)

    def test_vectorized(self):
        xs, ys = [0.0, 1.0], [0.0, 2.0]
        grid = np.array([0.1, 1.0])
        batch = phi_hat_table(xs, ys, grid)
        assert np.allclose(batch, [phi_hat_table(xs, ys, g) for g in grid], rtol=1e-12)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
            ([-1.2, -0.3, 0.4, 1.1], [0.2, 1.0, 0.5, 0.7]),  # jumps at both ends
            ([0.0, 1.0, 2.0], [1.0, 1.0, 0.0]),
        ],
        ids=["hat", "nonzero_ends", "trapezoid"],
    )
    def test_matches_quadrature_to_high_frequency(self, xs, ys):
        f = lambda x: float(np.interp(x, xs, ys, left=0.0, right=0.0))
        xis = [0.0, 1e-7, 1e-4, 0.3, -2.5, 7.0, 33.3, -120.7, 250.1, 500.0, -500.0]
        got = phi_hat_table(xs, ys, np.array(xis))
        for xi, g in zip(xis, got):
            want = quad_transform(f, xs[0], xs[-1], xi, points=xs[1:-1])
            assert abs(g - want) <= 1e-14

    def test_series_branch_joins_closed_form(self):
        # the segment moment switches to its series below |eta| = 0.5; a
        # one-segment ramp puts eta = xi on both sides of the switch
        xs, ys = [-1.0, 1.0], [0.0, 2.0]
        f = lambda x: x + 1.0
        for xi in (0.4999999, 0.5, 0.5000001, -0.5, 1e-3):
            want = quad_transform(f, -1.0, 1.0, xi, points=[])
            assert abs(phi_hat_table(xs, ys, xi) - want) <= 1e-15


class TestCharFn:
    def test_at_zero(self):
        assert char_fn_gaussian(np.eye(3), np.zeros(3)) == 1.0

    def test_scalar_value(self):
        assert char_fn_gaussian([[1.0]], [2.0]) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_equality_case(self):
        C = 0.15
        rng = np.random.default_rng(0)
        for _ in range(10):
            xi = rng.standard_normal(3)
            got = char_fn_gaussian(2 * C * np.eye(3), xi)
            assert got == pytest.approx(math.exp(-C * xi @ xi), rel=1e-13)

    def test_batch_matches_loop(self):
        cov = np.array([[0.5, 0.1], [0.1, 0.3]])
        pts = np.random.default_rng(1).standard_normal((7, 2))
        batch = char_fn_gaussian(cov, pts)
        assert np.allclose(batch, [char_fn_gaussian(cov, p) for p in pts], rtol=1e-14)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            char_fn_gaussian([[-1.0]], [1.0])
        with pytest.raises(ValueError):
            char_fn_gaussian([[1.0, 0.5], [0.0, 1.0]], [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            char_fn_gaussian(np.eye(2), [1.0, 2.0, 3.0])


class TestProfile:
    def test_decay_violation_caught(self):
        # variance 0.2 decays like exp(-0.1 xi^2), slower than the declared 0.2
        with pytest.raises(ValueError, match="decays slower"):
            FourierProfile(
                phi_hat=lambda rows: phi_hat_tent(0.0, 1.0, np.atleast_2d(rows)[:, 0]),
                char_V=lambda rows: char_fn_gaussian([[0.2]], np.atleast_2d(rows)),
                M=1.0,
                d=1,
                C=0.2,
            )

    def test_char_at_zero_checked(self):
        with pytest.raises(ValueError):
            FourierProfile(
                phi_hat=lambda rows: np.ones(np.atleast_2d(rows).shape[0], dtype=complex),
                char_V=lambda rows: 0.5 * np.exp(-(np.atleast_2d(rows) ** 2).sum(axis=1)),
                M=1.0,
                d=1,
                C=0.5,
            )

    def test_parameter_validation(self):
        prof = canonical_profile()
        for kwargs in ({"M": 0.0}, {"d": 0}, {"C": 0.0}):
            with pytest.raises(ValueError):
                FourierProfile(
                    phi_hat=prof.phi_hat,
                    char_V=prof.char_V,
                    **{"M": 1.0, "d": 1, "C": 0.15, **kwargs},
                )

    def test_g_conjugate_symmetry(self):
        # real payoff, symmetric V: G(-xi) must be the conjugate of G(xi)
        prof = gaussian_profile(tent(0.4, 0.8), M=1.0, C=0.15)
        xis = np.linspace(-4, 4, 17)[:, None]
        assert np.allclose(prof.G(-xis), np.conj(prof.G(xis)), rtol=0, atol=1e-15)

    def test_asset_payoff_rejected(self):
        from kolmo_rfn.levy import max_call

        with pytest.raises(ValueError):
            gaussian_profile(max_call(1.0, d=1), M=1.0, C=0.15)


class TestAlpha:
    def test_frozen_values(self):
        prof = canonical_profile()
        assert alpha(prof, [1.0], -0.5) == pytest.approx(ALPHA_1_M05, rel=1e-13)
        assert alpha(prof, [0.7], 0.3) == pytest.approx(ALPHA_07_03, rel=1e-13)
        assert alpha(prof, [-2.0], -1.5) == pytest.approx(ALPHA_M2_M15, rel=1e-13)

    def test_zero_outside_support(self):
        prof = canonical_profile()
        xi = [1.0]
        assert alpha(prof, xi, 1.0 * 1.0 + 5.0) == 0.0  # beyond M |xi|_1 and [-1, 1]
        assert alpha(prof, [0.5], 1.5) == 0.0
        assert alpha(prof, [0.5], -3.0) == 0.0  # below both supports

    def test_zero_profile(self):
        prof = zero_profile()
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert alpha(prof, rng.standard_normal(1), rng.uniform(-3, 3)) == 0.0

    def test_real_and_finite(self):
        prof = gaussian_profile(tent(0.4, 0.8), M=1.0, C=0.15)
        rng = np.random.default_rng(3)
        for _ in range(50):
            val = alpha(prof, rng.standard_normal(1) * 3, rng.uniform(-4, 2))
            assert isinstance(val, float) and math.isfinite(val)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            alpha(canonical_profile(), [1.0, 2.0], 0.5)


class TestOracleWeights:
    def test_zero_profile_gives_zero_weights(self):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=50, d=1, seed=0)
        W = construct_oracle_weights(hidden, zero_profile())
        assert not W.any()

    def test_dimension_mismatch(self):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=10, d=2, seed=0)
        with pytest.raises(ValueError):
            construct_oracle_weights(hidden, canonical_profile())

    def test_weights_below_envelope(self):
        prof = canonical_profile()
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=2000, d=1, seed=7)
        W = construct_oracle_weights(hidden, prof)
        env = oracle_weight_envelope(prof, hidden.spec, hidden.A, hidden.B)
        assert (np.abs(W) * hidden.N <= env * (1 + 1e-9) + 1e-300).all()

    def test_envelope_bounds_alpha_over_densities(self):
        prof = canonical_profile()
        spec = WeightDistributionSpec()
        rng = np.random.default_rng(4)
        xis = rng.uniform(-6, 6, (200, 1))
        us = rng.uniform(-3, 1.5, 200)
        f = np.array([alpha(prof, xi, u) for xi, u in zip(xis, us)]) / (
            pi_w(spec, xis) * pi_b(spec, us)
        )
        env = oracle_weight_envelope(prof, spec, xis, us)
        assert (np.abs(f) <= env * (1 + 1e-9) + 1e-300).all()

    def test_scaled_weights_are_prefix_stable(self):
        # W_i N depends only on row i, so a longer draw reuses the old rows
        prof = canonical_profile()
        spec = WeightDistributionSpec()
        big = sample_hidden_weights(spec, N=200, d=1, seed=11)
        small = subnetwork(big, 50)
        W_big = construct_oracle_weights(big, prof)
        W_small = construct_oracle_weights(small, prof)
        assert np.allclose(W_big[:50] * 200, W_small * 50, rtol=1e-13)

    def test_magnitudes_stable_across_seeds(self):
        prof = canonical_profile()
        spec = WeightDistributionSpec()
        tops = []
        for seed in range(5):
            hidden = sample_hidden_weights(spec, N=500, d=1, seed=seed)
            W = construct_oracle_weights(hidden, prof)
            tops.append(np.abs(W).max() * hidden.N)
        assert all(np.isfinite(t) and 0 < t < 500 for t in tops)


class TestUnbiasedness:
    def test_monte_carlo_matches_reference(self):
        prof = canonical_profile()
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=10**5, d=1, seed=1234)
        W = construct_oracle_weights(hidden, prof)
        for x, want in [(0.3, H_03), (0.0, H_0), (-0.6, H_M06)]:
            feats = np.maximum(hidden.A[:, 0] * x + hidden.B, 0.0)
            terms = W * hidden.N * feats
            est = terms.mean()
            se = terms.std(ddof=1) / math.sqrt(hidden.N)
            assert abs(est - want) <= 3 * se

    def test_monte_carlo_asymmetric_profile(self):
        payoff = tent(0.4, 0.8)
        prof = gaussian_profile(payoff, M=1.0, C=0.15)
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=10**5, d=1, seed=77)
        W = construct_oracle_weights(hidden, prof)
        x = -0.2
        want = reference_convolution(payoff, [[0.3]], [x])
        feats = np.maximum(hidden.A[:, 0] * x + hidden.B, 0.0)
        terms = W * hidden.N * feats
        assert abs(terms.mean() - want) <= 3 * terms.std(ddof=1) / math.sqrt(hidden.N)

    def test_deterministic_quadrature_identity(self):
        # integrating alpha(xi, u) relu(xi x + u) over its support recovers
        # H(x), with no sampling anywhere
        prof = canonical_profile()
        x0 = 0.3

        def inner(xi):
            lo = min(-prof.M * abs(xi), -1.0)
            pts = [lo, -1.0, 0.0, 1.0] if lo < -1.0 else [lo, 0.0, 1.0]
            total = 0.0
            for a, b in zip(pts[:-1], pts[1:]):
                val, _ = integrate.quad(
                    lambda u: alpha(prof, [xi], u) * max(xi * x0 + u, 0.0),
                    a, b, limit=100, epsabs=1e-11, epsrel=1e-10,
                )
                total += val
            return total

        # the outer tolerance sits above the inner quadrature noise floor,
        # otherwise quadpack reports slow convergence
        lhs, _ = integrate.quad(
            inner, -18.0, 18.0, limit=500, points=[-1.0, 0.0, 1.0],
            epsabs=1e-7, epsrel=1e-7,
        )
        assert lhs == pytest.approx(H_03, abs=2e-7)


class TestReferenceConvolution:
    def test_degenerate_v(self):
        po = tent(0.0, 1.0)
        for x in (-0.4, 0.0, 0.9):
            assert reference_convolution(po, [[0.0]], [x]) == payoff_log_eval(po, [x])

    def test_frozen_values(self):
        po = tent(0.0, 1.0)
        assert reference_convolution(po, [[0.3]], [0.0]) == pytest.approx(H_0, rel=1e-10)
        assert reference_convolution(po, [[0.3]], [0.3]) == pytest.approx(H_03, rel=1e-10)
        assert reference_convolution(po, [[0.3]], [-0.6]) == pytest.approx(H_M06, rel=1e-10)

    def test_truncated_linear_closed_form(self):
        # payoff y on [0, 2]: H(x) = x (Ncdf(b) - Ncdf(a)) + s (npdf(a) - npdf(b))
        po = table([0.0, 2.0], [0.0, 2.0])
        s = 0.5
        pdf = lambda z: INV_SQRT_2PI * math.exp(-0.5 * z * z)
        for x, frozen in [(0.4, 0.45863671767148393417), (1.1, 1.0234450739836017833)]:
            a, b = -x / s, (2.0 - x) / s
            closed = x * (ndtr(b) - ndtr(a)) + s * (pdf(a) - pdf(b))
            assert closed == pytest.approx(frozen, rel=1e-14)
            got = reference_convolution(po, [[s * s]], [x])
            assert got == pytest.approx(frozen, rel=1e-7)

    def test_tiny_variance_keeps_the_peak(self):
        # adaptive quad over the whole support missed the narrow peak and
        # returned about 1e-33; the window follows the standard deviation
        got = reference_convolution(tent(0.0, 1.0), [[1e-6]], [0.08])
        assert got == pytest.approx(0.92, abs=1e-9)

    def test_truncated_call_against_partial_expectation(self):
        # e^y - 1 on 0 <= y <= 1.5, y ~ N(x, s^2): a lognormal partial expectation
        po = truncated(max_call(1.0), 1.5)
        s = 0.5
        for x in (-0.9, -0.2, 0.0, 0.35, 1.0):
            lo, hi = -x / s, (1.5 - x) / s
            closed = math.exp(x + 0.5 * s * s) * (ndtr(hi - s) - ndtr(lo - s)) - (ndtr(hi) - ndtr(lo))
            assert reference_convolution(po, [[s * s]], [x]) == pytest.approx(closed, abs=1e-12)

    @pytest.mark.parametrize(
        "po",
        [tent(0.0, 1.0), table([-1.2, -0.3, 0.4, 1.1], [0.2, 1.0, 0.5, 0.7]), indicator([-0.5], [0.7]),
         truncated(tent(0.25, 0.5), 0.5)],
        ids=["tent", "table", "indicator", "truncated_tent"],
    )
    def test_batched_grid_matches_adaptive_quad(self, po):
        grid = np.linspace(-1.0, 1.0, 41)
        got = reference_convolution(po, [[0.3]], grid[:, None])
        assert got.shape == grid.shape
        want = np.array([quad_reference(po, 0.3, g) for g in grid])
        assert np.abs(got - want).max() <= 1e-13
        for g, v in zip(grid[::10], got[::10]):
            assert reference_convolution(po, [[0.3]], [g]) == v

    def test_points_along_last_axis(self):
        po = tent(0.0, 1.0)
        pts = np.linspace(-1.0, 1.0, 6).reshape(2, 3, 1)
        got = reference_convolution(po, [[0.3]], pts)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), reference_convolution(po, [[0.3]], pts.reshape(-1, 1)))
        assert isinstance(reference_convolution(po, [[0.3]], [0.1]), float)
        zero = reference_convolution(po, [[0.0]], pts)
        assert np.array_equal(zero, payoff_log_eval(po, pts))

    def test_far_from_the_support_is_zero(self):
        assert reference_convolution(tent(0.0, 1.0), [[0.01]], [5.0]) == 0.0

    def test_symmetry_inherited(self):
        po = tent(0.0, 1.0)
        for x in (0.2, 0.7):
            left = reference_convolution(po, [[0.2]], [-x])
            right = reference_convolution(po, [[0.2]], [x])
            assert left == pytest.approx(right, rel=1e-10)

    def test_dimension_limits(self):
        with pytest.raises(ValueError):
            reference_convolution(indicator([0.0, 0.0], [1.0, 1.0]), np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            reference_convolution(tent(), np.eye(2), [0.0])


class TestSupErrorOnGrid:
    def make_net(self, seed=0, N=20, W=None):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=N, d=1, seed=seed)
        w = np.zeros(N) if W is None else W
        return RandomFeatureNet(hidden=hidden, W=w)

    def grid_design(self, net, M, n):
        return design_matrix(net.hidden, np.linspace(-M, M, n)[:, None]).values

    def test_zero_when_reference_is_the_net(self):
        net = self.make_net(W=np.linspace(-1, 1, 20))
        # same computation path: exactly zero
        grid = np.linspace(-1, 1, 21)[:, None]
        assert sup_error_on_grid(self.grid_design(net, 1.0, 21), net.W, predict(net, grid)) == 0.0

    def test_constant_gap(self):
        net = self.make_net()  # identically zero
        assert sup_error_on_grid(self.grid_design(net, 1.0, 11), net.W, np.full(11, 0.7)) == pytest.approx(0.7)

    def test_refinement_never_decreases(self):
        net = self.make_net(W=np.random.default_rng(5).standard_normal(20))
        coarse = sup_error_on_grid(self.grid_design(net, 1.0, 11), net.W, np.zeros(11))
        fine = sup_error_on_grid(self.grid_design(net, 1.0, 21), net.W, np.zeros(21))
        assert fine >= coarse

    def test_cached_reference_values(self):
        net = self.make_net(W=np.random.default_rng(6).standard_normal(20))
        grid = np.linspace(-0.5, 0.5, 31)
        feats = np.maximum(np.outer(grid, net.hidden.A[:, 0]) + net.hidden.B, 0.0)
        want = np.abs(feats @ net.W - np.sin(grid)).max()
        assert sup_error_on_grid(feats, net.W, np.sin(grid)) == pytest.approx(want, rel=1e-12)
        for bad in (np.zeros(1), np.zeros((31, 1))):
            with pytest.raises(ValueError):
                sup_error_on_grid(feats, net.W, bad)

    def test_dimension_limit(self):
        # the design must have one row per reference value and one column per weight
        feats = np.zeros((5, 4))
        for design, W in (
            (feats, np.zeros(3)), (feats[:4], np.zeros(4)), (feats[0], np.zeros(4)),
            (feats, np.zeros((4, 1))), (feats[None], np.zeros(4)),
        ):
            with pytest.raises(ValueError):
                sup_error_on_grid(design, W, np.zeros(5))


class TestTruncatePayoff:
    # the oracle's payoffs are cut at radius M + R, outside the box [-M, M]
    def test_outside_zero(self):
        po = truncated(tent(0.0, 5.0), 1.0 + 0.5)
        assert payoff_log_eval(po, [2.5]) == 0.0

    def test_inside_untouched(self):
        inner = tent(0.0, 5.0)
        po = truncated(inner, 1.0 + 0.5)
        assert payoff_log_eval(po, [0.0]) == payoff_log_eval(inner, [0.0])
        for x in (-1.4, 0.3, 1.5):
            assert payoff_log_eval(po, [x]) == payoff_log_eval(inner, [x])

    def test_truncated_integral(self):
        # tent(0,1) cut at radius 0.5: integral 2(0.5) - 0.5^2 = 0.75
        po = truncated(tent(0.0, 1.0), 0.25 + 0.25)
        val, _ = integrate.quad(lambda x: payoff_log_eval(po, [x]), -1.0, 1.0, points=[-0.5, 0.0, 0.5])
        assert val == pytest.approx(0.75, rel=1e-10)

    def test_serialization_round_trip(self):
        po = truncated(tent(0.2, 0.7), 1.0 + 1.0)
        back = payoff_from_dict(payoff_to_dict(po))
        pts = np.linspace(-2.5, 2.5, 11)[:, None]
        assert np.array_equal(payoff_log_eval(back, pts), payoff_log_eval(po, pts))

    def test_validation(self):
        for bound in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                truncated(tent(), bound)


class TestRateSanity:
    def test_error_shrinks_with_width(self):
        # mean over seeds: a 400-neuron oracle net beats a 10-neuron one
        prof = canonical_profile()
        spec = WeightDistributionSpec()
        grid = np.linspace(-1.0, 1.0, 101)
        ref_vals = reference_convolution(tent(0.0, 1.0), [[0.3]], grid[:, None])
        errs = {10: [], 400: []}
        for seed in range(6):
            hidden = sample_hidden_weights(spec, N=400, d=1, seed=seed)
            f = construct_oracle_weights(hidden, prof) * 400
            design = design_matrix(hidden, grid[:, None]).values
            for N in (10, 400):
                errs[N].append(sup_error_on_grid(design[:, :N], f[:N] / N, ref_vals))
        assert np.mean(errs[400]) < np.mean(errs[10])
