import math
import warnings

import numpy as np
import pytest

from kolmo_rfn.config import payoff_from_dict, payoff_to_dict
from kolmo_rfn.levy import (
    STRONG_FORM_THRESHOLD,
    CompoundPoissonSpec,
    LevyTriplet,
    _ndtr,
    basket_put,
    bs_call_price,
    bs_put_price,
    equal_correlation_sigma,
    indicator,
    levy_symbol,
    max_call,
    payoff_eval,
    payoff_log_eval,
    price_mc,
    risk_neutral_gamma,
    simulate_levy_increment,
    sqrt_sigma,
    table,
    tent,
    truncated,
    verify_nondegeneracy,
)
from kolmo_rfn.rng import substream

# frozen by a 50-digit mpmath evaluation of the zero-rate Black-Scholes formulas
BS_CALL_ATM = 0.07965567455405796
BS_PUT_06 = 0.00026111811907240607
BS_PUT_14 = 0.40450032451908110
BS_CALL_WIDE = 0.31093065244522669

JUMP_1D = CompoundPoissonSpec(intensity=2.0, atoms=((0.25, [0.4]), (0.75, [-0.3])), radius=1.5)


def gbm_triplet(vol=0.2, d=1):
    sigma = np.eye(d) * vol * vol
    return LevyTriplet(sigma=sigma, gamma=risk_neutral_gamma(sigma))


class TestSpecs:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(intensity=1.0, atoms=((0.5, [0.1]), (0.6, [0.2])), radius=1.5)

    def test_radius_must_exceed_one(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(intensity=1.0, atoms=((1.0, [0.5]),), radius=1.0)

    def test_atom_outside_radius_rejected(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(intensity=1.0, atoms=((1.0, [2.0]),), radius=1.5)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(intensity=-1.0, atoms=((1.0, [0.5]),), radius=1.5)

    def test_triplet_requires_symmetric_sigma(self):
        with pytest.raises(ValueError):
            LevyTriplet(sigma=[[1.0, 0.5], [0.0, 1.0]], gamma=[0.0, 0.0])

    def test_triplet_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            LevyTriplet(sigma=[[-1.0]], gamma=[0.0])

    def test_jump_dimension_must_match(self):
        with pytest.raises(ValueError):
            LevyTriplet(sigma=np.eye(2), gamma=np.zeros(2), jumps=JUMP_1D)

    def test_equal_correlation_matrix(self):
        s = equal_correlation_sigma(0.2, 0.2, 3)
        assert np.allclose(np.diag(s), 0.04)
        off = s[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.008)
        # eigenvalues sigma^2(1-rho) and sigma^2(1+(d-1)rho)
        eig = np.sort(np.linalg.eigvalsh(s))
        assert np.allclose(eig, [0.032, 0.032, 0.056])

    def test_equal_correlation_invalid_rho(self):
        with pytest.raises(ValueError):
            equal_correlation_sigma(0.2, -0.9, 3)


class TestSymbol:
    def test_pure_gaussian(self):
        trip = LevyTriplet(sigma=np.eye(2), gamma=np.zeros(2))
        assert levy_symbol(trip, [1.0, 0.0]) == pytest.approx(-0.5 + 0j)

    def test_pure_drift(self):
        trip = LevyTriplet(sigma=np.zeros((2, 2)), gamma=[1.0, 0.0])
        assert levy_symbol(trip, [1.0, 0.0]) == pytest.approx(1j)

    def test_single_atom_at_pi(self):
        jump = CompoundPoissonSpec(intensity=1.0, atoms=((1.0, [1.0]),), radius=1.5)
        trip = LevyTriplet(sigma=[[0.0]], gamma=[0.0], jumps=jump)
        val = levy_symbol(trip, math.pi)
        assert val == pytest.approx(-2.0 - 1j * math.pi, abs=1e-14)

    def test_real_part_dominated_by_diffusion(self):
        # cosine term of the jump part is nonpositive
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = rng.integers(1, 4)
            a = rng.standard_normal((d, d))
            sigma = a @ a.T
            atoms = tuple(
                (p, rng.uniform(-0.8, 0.8, d))
                for p in np.full(3, 1.0 / 3.0)
            )
            jumps = CompoundPoissonSpec(intensity=rng.uniform(0, 3), atoms=atoms, radius=1.5)
            trip = LevyTriplet(sigma=sigma, gamma=rng.standard_normal(d), jumps=jumps)
            xi = rng.standard_normal(d) * 3
            eta = levy_symbol(trip, xi)
            assert eta.real <= -0.5 * xi @ sigma @ xi + 1e-12

    def test_char_fn_decay_under_nondegeneracy(self):
        sigma = equal_correlation_sigma(0.7, 0.1, 3)
        trip = LevyTriplet(sigma=sigma, gamma=np.zeros(3), jumps=None)
        C = 0.2
        assert verify_nondegeneracy(trip, C)
        rng = np.random.default_rng(1)
        T = 1.0
        for _ in range(100):
            xi = rng.standard_normal(3) * rng.uniform(0, 5)
            lhs = abs(np.exp(T * levy_symbol(trip, xi)))
            assert lhs <= math.exp(-C * T * xi @ xi) + 1e-12


class TestNondegeneracy:
    def test_boundary_true(self):
        trip = LevyTriplet(sigma=0.08 * np.eye(2), gamma=np.zeros(2))
        assert verify_nondegeneracy(trip, 0.04)

    def test_above_boundary_false(self):
        trip = LevyTriplet(sigma=0.08 * np.eye(2), gamma=np.zeros(2))
        assert not verify_nondegeneracy(trip, 0.05)

    def test_equal_correlation_experiment_violates_strong_form(self):
        # sigma=0.2, rho=0.2, d=50: lambda_min/2 = sigma^2(1-rho)/2 = 0.016,
        # well below the horizon threshold 1/(2^{3/2} pi) ~ 0.1125
        sigma = equal_correlation_sigma(0.2, 0.2, 50)
        trip = LevyTriplet(sigma=sigma, gamma=np.zeros(50))
        rep = verify_nondegeneracy(trip, STRONG_FORM_THRESHOLD, T=1.0)
        assert not rep
        assert rep.lambda_min / 2 == pytest.approx(0.016)

    def test_strong_form_report(self):
        trip = LevyTriplet(sigma=0.4 * np.eye(1), gamma=np.zeros(1))
        assert verify_nondegeneracy(trip, 0.15, T=1.0).strong_form is True
        assert verify_nondegeneracy(trip, 0.05, T=1.0).strong_form is False
        assert verify_nondegeneracy(trip, 0.15).strong_form is None

    def test_invalid_c_rejected(self):
        trip = LevyTriplet(sigma=np.eye(1), gamma=np.zeros(1))
        with pytest.raises(ValueError):
            verify_nondegeneracy(trip, 0.0)


class TestSqrtSigma:
    def test_cholesky_path(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        sigma = a @ a.T + 0.1 * np.eye(4)
        s = sqrt_sigma(sigma)
        assert np.allclose(s @ s.T, sigma, rtol=1e-12, atol=1e-12)

    def test_singular_fallback(self):
        v = np.array([[1.0], [2.0]])
        sigma = v @ v.T  # rank one
        s = sqrt_sigma(sigma)
        assert np.allclose(s @ s.T, sigma, rtol=0, atol=1e-10)


class TestSimulation:
    def test_zero_horizon(self):
        trip = gbm_triplet()
        assert np.array_equal(simulate_levy_increment(trip, 0.0, substream(0, 1)), [0.0])
        block = simulate_levy_increment(trip, 0.0, substream(0, 1), size=5)
        assert block.shape == (5, 1) and not block.any()

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            simulate_levy_increment(gbm_triplet(), -1.0, substream(0, 1))

    def test_deterministic_given_stream(self):
        trip = LevyTriplet(sigma=np.eye(2) * 0.1, gamma=np.zeros(2), jumps=None)
        a = simulate_levy_increment(trip, 1.0, substream(5, 2), size=100)
        b = simulate_levy_increment(trip, 1.0, substream(5, 2), size=100)
        assert np.array_equal(a, b)

    def test_gaussian_covariance(self):
        sigma = np.array([[0.09, 0.03], [0.03, 0.05]])
        trip = LevyTriplet(sigma=sigma, gamma=np.zeros(2))
        draws = simulate_levy_increment(trip, 2.0, substream(11, 0), size=10**5)
        emp = np.cov(draws.T)
        assert np.linalg.norm(emp - 2.0 * sigma) <= 0.05 * np.linalg.norm(2.0 * sigma)

    def test_empirical_char_fn_with_jumps(self):
        trip = LevyTriplet(sigma=[[0.04]], gamma=[0.01], jumps=JUMP_1D)
        T = 0.75
        draws = simulate_levy_increment(trip, T, substream(13, 0), size=2 * 10**5)[:, 0]
        xi = 1.0
        emp = np.exp(1j * xi * draws)
        target = np.exp(T * levy_symbol(trip, xi))
        se = math.sqrt(emp.real.var(ddof=1) + emp.imag.var(ddof=1)) / math.sqrt(draws.size)
        assert abs(emp.mean() - target) <= 3 * se

    def test_martingale_after_risk_neutral_drift(self):
        atoms = ((0.25, [0.4, 0.0, -0.1]), (0.75, [-0.3, 0.2, 0.05]))
        jumps = CompoundPoissonSpec(intensity=2.0, atoms=atoms, radius=1.5)
        sigma = equal_correlation_sigma(0.2, 0.2, 3)
        trip = LevyTriplet(sigma=sigma, gamma=risk_neutral_gamma(sigma, jumps), jumps=jumps)
        growth = np.exp(simulate_levy_increment(trip, 1.0, substream(17, 0), size=10**5))
        se = growth.std(axis=0, ddof=1) / math.sqrt(growth.shape[0])
        assert (np.abs(growth.mean(axis=0) - 1.0) <= 3 * se).all()

    def test_jump_draw_order_is_normals_then_counts_then_atoms(self):
        # Monte Carlo labels are reproducible only while every caller
        # consumes a stream in this order; rebuild one block by hand
        atoms = ((0.25, [0.4, 0.0]), (0.75, [-0.3, 0.2]))
        jumps = CompoundPoissonSpec(intensity=2.0, atoms=atoms, radius=1.5)
        sigma = equal_correlation_sigma(0.2, 0.3, 2)
        trip = LevyTriplet(sigma=sigma, gamma=risk_neutral_gamma(sigma, jumps), jumps=jumps)
        T, n = 0.8, 200
        got = simulate_levy_increment(trip, T, substream(3, 9), size=n)

        rng = substream(3, 9)
        z = rng.standard_normal((n, 2))
        counts = rng.poisson(2.0 * T, size=n)
        probs, ys = jumps.arrays()
        idx = rng.choice(2, size=counts.sum(), p=probs)
        jump_sum = np.zeros((n, 2))
        np.add.at(jump_sum, np.repeat(np.arange(n), counts), ys[idx])
        compensator = T * 2.0 * (probs @ ys)  # both atoms lie inside the unit ball
        want = trip.gamma * T + math.sqrt(T) * z @ sqrt_sigma(sigma).T + jump_sum - compensator
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_gaussian_increments_have_the_bits_of_the_formula(self):
        # the sampler scales and shifts in place; + and * commute in IEEE
        # arithmetic, so this must equal gamma T + sqrt(T) (z @ root') exactly
        sigma = equal_correlation_sigma(0.2, 0.3, 3)
        trip = LevyTriplet(sigma=sigma, gamma=risk_neutral_gamma(sigma))
        T, n = 0.8, 500
        got = simulate_levy_increment(trip, T, substream(3, 9), size=n)
        z = substream(3, 9).standard_normal((n, 3))
        assert np.array_equal(got, trip.gamma * T + math.sqrt(T) * (z @ sqrt_sigma(sigma).T))

    def test_risk_neutral_gamma_frozen_value(self):
        # mpmath: -0.04/2 - 2 * (0.25(e^{0.4}-1-0.4) + 0.75(e^{-0.3}-1+0.3))
        g = risk_neutral_gamma([[0.04]], JUMP_1D)
        assert np.isclose(g[0], -0.12713967984321196, rtol=1e-14)

    def test_risk_neutral_gamma_no_jumps(self):
        g = risk_neutral_gamma(np.diag([0.04, 0.09]))
        assert np.allclose(g, [-0.02, -0.045], rtol=1e-15)


class TestPayoffs:
    def test_max_call_out_of_money(self):
        assert payoff_eval(max_call(1.0, d=2), [0.5, 0.9]) == 0.0

    def test_max_call_in_the_money(self):
        assert payoff_eval(max_call(1.0, d=2), [1.3, 0.9]) == pytest.approx(0.3)

    def test_basket_put_hand_value(self):
        assert payoff_eval(basket_put(1.2, [0.5, 0.5]), [1.0, 1.0]) == pytest.approx(0.2)

    def test_tent_on_log_coordinates(self):
        po = tent(center=0.0, width=1.0)
        assert payoff_eval(po, [math.exp(0.5)]) == pytest.approx(0.5)
        assert payoff_log_eval(po, [0.5]) == pytest.approx(0.5)
        assert payoff_log_eval(po, [2.0]) == 0.0

    def test_indicator_box(self):
        po = indicator([-1.0, 0.0], [0.0, 2.0])
        assert payoff_log_eval(po, [-0.5, 1.0]) == 1.0
        assert payoff_log_eval(po, [0.5, 1.0]) == 0.0
        assert payoff_log_eval(po, [0.0, 0.0]) == 1.0  # boundary included

    def test_table_interpolation(self):
        po = table([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert payoff_log_eval(po, [0.5]) == pytest.approx(1.0)
        assert payoff_log_eval(po, [-0.1]) == 0.0
        assert payoff_log_eval(po, [2.1]) == 0.0

    def test_negative_asset_rejected(self):
        with pytest.raises(ValueError):
            payoff_eval(max_call(1.0, d=1), [-0.5])
        with pytest.raises(ValueError):
            payoff_eval(tent(), [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            payoff_eval(max_call(1.0, d=2), [1.0, 1.0, 1.0])

    def test_batch_eval(self):
        vals = payoff_eval(max_call(1.0, d=2), [[1.3, 0.9], [0.5, 0.9]])
        assert np.allclose(vals, [0.3, 0.0])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_max_call_matches_max_over_last_axis(self, d):
        po = max_call(1.0, d=d)
        block = np.random.default_rng(d).lognormal(0.0, 0.3, size=(7, 50, d))
        assert np.array_equal(payoff_eval(po, block), np.maximum(block.max(axis=-1) - 1.0, 0.0))
        point = block[0, 0]
        assert np.array_equal(payoff_eval(po, point), np.maximum(point.max(axis=-1) - 1.0, 0.0))

    @pytest.mark.parametrize(
        "po",
        [
            max_call(1.1, d=3),
            basket_put(1.2, [0.5, 0.5]),
            tent(0.3, 0.7),
            indicator([-1.0], [1.0]),
            table([0.0, 1.0], [1.0, 0.0]),
            truncated(tent(0.3, 0.7), 0.4),
            truncated(max_call(1.0, d=2), 0.5),
        ],
    )
    def test_payoff_dict_round_trip(self, po):
        back = payoff_from_dict(payoff_to_dict(po))
        assert back.kind == po.kind
        pts = np.exp(np.linspace(-0.5, 0.5, 7))
        s = np.tile(pts[:, None], (1, po.d))
        assert np.array_equal(payoff_eval(back, s), payoff_eval(po, s))

    # each kind's dimension, log-support box (None: unbounded), 1-d kinks
    # and serialized form, pinned as literals
    @pytest.mark.parametrize(
        "po, d, support, kinks, doc",
        [
            (max_call(1.1, d=3), 3, None, (), {"kind": "max_call", "params": {"strike": 1.1, "d": 3}}),
            (
                max_call(1.1), 1, None, (0.09531017980432493,),
                {"kind": "max_call", "params": {"strike": 1.1, "d": 1}},
            ),
            (max_call(0.0), 1, None, (), {"kind": "max_call", "params": {"strike": 0.0, "d": 1}}),
            (
                basket_put(1.2, [0.5, 0.25]), 2, None, (),
                {"kind": "basket_put", "params": {"strike": 1.2, "weights": [0.5, 0.25]}},
            ),
            (
                basket_put(1.2, [0.5]), 1, None, (0.8754687373538999,),
                {"kind": "basket_put", "params": {"strike": 1.2, "weights": [0.5]}},
            ),
            (
                tent(0.25, 0.5), 1, ([-0.25], [0.75]), (-0.25, 0.25, 0.75),
                {"kind": "tent", "params": {"center": 0.25, "width": 0.5}},
            ),
            (
                indicator([-1.0, 0.5], [1.0, 2.0]), 2, ([-1.0, 0.5], [1.0, 2.0]), (-1.0, 1.0),
                {"kind": "indicator", "params": {"lo": [-1.0, 0.5], "hi": [1.0, 2.0]}},
            ),
            (
                table([0.0, 1.0, 2.5], [1.0, 0.0, 0.5]), 1, ([0.0], [2.5]), (0.0, 1.0, 2.5),
                {"kind": "table", "params": {"xs": [0.0, 1.0, 2.5], "ys": [1.0, 0.0, 0.5]}},
            ),
            (
                truncated(max_call(1.0, d=2), 2.0), 2, ([-2.0, -2.0], [2.0, 2.0]), (-2.0, 2.0),
                {
                    "kind": "truncated",
                    "params": {
                        "inner": {"kind": "max_call", "params": {"strike": 1.0, "d": 2}},
                        "bound": 2.0,
                    },
                },
            ),
            (
                truncated(max_call(1.0), 1.5), 1, ([-1.5], [1.5]), (-1.5, 0.0, 1.5),
                {
                    "kind": "truncated",
                    "params": {"inner": {"kind": "max_call", "params": {"strike": 1.0, "d": 1}}, "bound": 1.5},
                },
            ),
            (
                truncated(indicator([-1.0, 0.5], [3.0, 2.0]), 1.5), 2, ([-1.0, 0.5], [1.5, 1.5]),
                (-1.5, -1.0, 1.5, 3.0),
                {
                    "kind": "truncated",
                    "params": {
                        "inner": {"kind": "indicator", "params": {"lo": [-1.0, 0.5], "hi": [3.0, 2.0]}},
                        "bound": 1.5,
                    },
                },
            ),
            (
                truncated(tent(0.25, 0.5), 0.5), 1, ([-0.25], [0.5]), (-0.5, -0.25, 0.25, 0.5, 0.75),
                {
                    "kind": "truncated",
                    "params": {
                        "inner": {"kind": "tent", "params": {"center": 0.25, "width": 0.5}},
                        "bound": 0.5,
                    },
                },
            ),
        ],
        ids=[
            "max_call", "max_call_1d", "max_call_zero_strike", "basket_put", "basket_put_1d",
            "tent", "indicator_2d", "table", "truncated_max_call", "truncated_max_call_1d",
            "truncated_indicator_2d", "truncated_tent",
        ],
    )
    def test_kind_facts_are_pinned(self, po, d, support, kinks, doc):
        assert po.d == d
        assert po.log_space == (po.kind not in ("max_call", "basket_put"))
        if support is None:
            assert po.support is None
        else:
            assert [a.tolist() for a in po.support] == list(support)
        assert tuple(float(k) for k in po.kinks) == kinks
        assert payoff_to_dict(po) == doc

    def test_one_asset_kink_of_a_subnormal_weight(self):
        # strike / w overflows here; the kink is log(strike) - log(w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            po = basket_put(1.0, [1e-310])
        assert po.kinks == (-math.log(1e-310),)
        assert math.isfinite(po.kinks[0])

    def test_from_dict_rejects_unknown_kind_and_params(self):
        with pytest.raises(ValueError, match="digital"):
            payoff_from_dict({"kind": "digital", "params": {"strike": 1.0}})
        with pytest.raises(ValueError, match="strik"):
            payoff_from_dict({"kind": "max_call", "params": {"strike": 1.0, "strik": 2.0}})
        inner = {"kind": "tent", "params": {"center": 0.0, "width": 1.0, "height": 2.0}}
        with pytest.raises(ValueError, match="height"):
            payoff_from_dict({"kind": "truncated", "params": {"inner": inner, "bound": 1.0}})

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            tent(width=0.0)
        with pytest.raises(ValueError):
            basket_put(1.0, [-0.5, 1.5])
        with pytest.raises(ValueError):
            indicator([0.0], [0.0])
        with pytest.raises(ValueError):
            table([0.0, 0.0], [1.0, 1.0])


class TestPricing:
    def test_zero_horizon_is_exact(self):
        trip = gbm_triplet()
        mean, se = price_mc(trip, max_call(0.8, d=1), [0.0], 0.0, 100, substream(0, 0))
        assert mean == pytest.approx(0.2)
        assert se == 0.0

    def test_atm_call_matches_black_scholes(self):
        mean, se = price_mc(gbm_triplet(), max_call(1.0, d=1), [0.0], 1.0, 2 * 10**5, substream(7, 1))
        assert abs(mean - BS_CALL_ATM) <= 3 * se
        assert 0 < se < 5e-4

    def test_put_monotone_in_strike_same_seed(self):
        # pathwise: max(K - s, 0) grows with K, so with a shared seed the
        # higher strike cannot price lower
        trip = gbm_triplet()
        lo, _ = price_mc(trip, basket_put(0.8, [1.0]), [0.0], 1.0, 5000, substream(9, 2))
        hi, _ = price_mc(trip, basket_put(1.0, [1.0]), [0.0], 1.0, 5000, substream(9, 2))
        assert hi >= lo

    def test_deterministic_with_integer_seed(self):
        trip = gbm_triplet()
        a = price_mc(trip, max_call(1.0, d=1), [0.0], 1.0, 1000, 123)
        b = price_mc(trip, max_call(1.0, d=1), [0.0], 1.0, 1000, 123)
        assert a == b

    def test_paths_validation(self):
        with pytest.raises(ValueError):
            price_mc(gbm_triplet(), max_call(1.0, d=1), [0.0], 1.0, 0, 1)


class TestBlackScholes:
    def test_frozen_values(self):
        assert np.isclose(bs_call_price(1.0, 1.0, 0.2, 1.0), BS_CALL_ATM, rtol=1e-13)
        assert np.isclose(bs_put_price(1.0, 1.0, 0.2, 1.0), BS_CALL_ATM, rtol=1e-13)
        assert np.isclose(bs_put_price(1.0, 0.6, 0.2, 1.0), BS_PUT_06, rtol=1e-12)
        assert np.isclose(bs_put_price(1.0, 1.4, 0.2, 1.0), BS_PUT_14, rtol=1e-13)
        assert np.isclose(bs_call_price(1.1, 0.9, 0.35, 2.0), BS_CALL_WIDE, rtol=1e-13)

    def test_put_call_parity(self):
        k = np.linspace(0.1, 2.0, 17)
        call = bs_call_price(1.0, k, 0.2, 1.0)
        put = bs_put_price(1.0, k, 0.2, 1.0)
        assert np.allclose(call - put, 1.0 - k, rtol=0, atol=1e-14)

    def test_zero_strike(self):
        assert bs_call_price(1.0, 0.0, 0.2, 1.0) == 1.0
        assert bs_put_price(1.0, 0.0, 0.2, 1.0) == 0.0

    def test_ndtr_matches_scipy(self):
        from scipy.special import ndtr

        x = np.concatenate([np.linspace(-37.0, 37.0, 200_001), [-np.inf, np.inf, np.nan, 0.0, -0.0]])
        got = _ndtr(x)
        want = ndtr(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.abs(got - want)[~np.isnan(want)].max() <= 2.3e-16
        # the lower tail keeps its relative accuracy, down to ndtr(-37) ~ 6e-300
        tail = (x < -1.0) & np.isfinite(x)
        assert (np.abs(got - want)[tail] / want[tail]).max() <= 1e-13
        assert got[-5] == 0.0 and got[-4] == 1.0
        assert _ndtr(0.3).shape == () and _ndtr(0.0) == 0.5

    def test_grid_evaluation(self):
        k = np.array([0.0, 0.6, 1.0, 1.4])
        puts = bs_put_price(1.0, k, 0.2, 1.0)
        assert puts.shape == (4,)
        assert (np.diff(puts) > 0).all()
