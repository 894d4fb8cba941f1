import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kolmo_rfn.network import (
    ROW_BLOCK,
    ROW_PIECE,
    FeatureMatrix,
    HiddenWeights,
    RandomFeatureNet,
    WeightDistributionSpec,
    design_matrix,
    load_model,
    log_pi_b,
    log_pi_w,
    net_from_dict,
    net_to_dict,
    pi_b,
    pi_w,
    predict,
    row_blocks,
    sample_hidden_weights,
    save_model,
    subnetwork,
)

SPEC = WeightDistributionSpec(nu=5.0, b_dof=2.0)


def manual_hidden(A, B, spec=SPEC, seed=0):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return HiddenWeights(A=A, B=B, spec=spec, seed=seed, N=A.shape[0], d=A.shape[1])


class TestSpecValidation:
    @pytest.mark.parametrize("nu", [1.0, 0.5, -3.0, np.nan])
    def test_bad_nu_rejected(self, nu):
        with pytest.raises(ValueError):
            WeightDistributionSpec(nu=nu, b_dof=2.0)

    @pytest.mark.parametrize("b_dof", [0.0, -1.0, np.nan])
    def test_bad_b_dof_rejected(self, b_dof):
        with pytest.raises(ValueError):
            WeightDistributionSpec(nu=5.0, b_dof=b_dof)

    def test_non_integer_dof_allowed(self):
        WeightDistributionSpec(nu=1.5, b_dof=0.7)


class TestSampling:
    def test_shapes(self):
        h = sample_hidden_weights(SPEC, N=3, d=2, seed=1)
        assert h.A.shape == (3, 2)
        assert h.B.shape == (3,)

    def test_deterministic_in_seed(self):
        h1 = sample_hidden_weights(SPEC, N=100, d=4, seed=77)
        h2 = sample_hidden_weights(SPEC, N=100, d=4, seed=77)
        assert np.array_equal(h1.A, h2.A)
        assert np.array_equal(h1.B, h2.B)

    def test_seeds_differ(self):
        h1 = sample_hidden_weights(SPEC, N=100, d=4, seed=77)
        h2 = sample_hidden_weights(SPEC, N=100, d=4, seed=78)
        assert not np.array_equal(h1.A, h2.A)

    def test_prefix_stable_in_N(self):
        small = sample_hidden_weights(SPEC, N=10, d=3, seed=5)
        large = sample_hidden_weights(SPEC, N=160, d=3, seed=5)
        assert np.array_equal(small.A, large.A[:10])
        assert np.array_equal(small.B, large.B[:10])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), d=st.integers(1, 50), N=st.integers(1, 300),
        extra=st.integers(1, 1000), nu=st.floats(1.01, 30.0), b_dof=st.floats(0.1, 30.0),
    )
    def test_any_wider_draw_starts_with_the_narrower_one(self, seed, d, N, extra, nu, b_dof):
        spec = WeightDistributionSpec(nu=nu, b_dof=b_dof)
        small = sample_hidden_weights(spec, N=N, d=d, seed=seed)
        large = sample_hidden_weights(spec, N=N + extra, d=d, seed=seed)
        assert small.A.tobytes() == large.A[:N].tobytes()
        assert small.B.tobytes() == large.B[:N].tobytes()

    def test_subnetwork_equals_fresh_sample(self):
        large = sample_hidden_weights(SPEC, N=160, d=3, seed=5)
        sub = subnetwork(large, 40)
        fresh = sample_hidden_weights(SPEC, N=40, d=3, seed=5)
        assert np.array_equal(sub.A, fresh.A)
        assert np.array_equal(sub.B, fresh.B)
        assert sub.N == 40 and sub.d == 3

    def test_subnetwork_bounds_checked(self):
        h = sample_hidden_weights(SPEC, N=10, d=2, seed=0)
        with pytest.raises(ValueError):
            subnetwork(h, 0)
        with pytest.raises(ValueError):
            subnetwork(h, 11)

    def test_second_moment_of_A_rows(self):
        # E|A_1|^2 = nu*d/(nu-2) = 50/3 for nu=5, d=10
        h = sample_hidden_weights(SPEC, N=10**5, d=10, seed=2024)
        emp = np.mean(np.sum(h.A**2, axis=1))
        assert abs(emp - 50.0 / 3.0) <= 0.05 * 50.0 / 3.0

    def test_all_entries_finite(self):
        h = sample_hidden_weights(WeightDistributionSpec(nu=1.1, b_dof=0.3), N=5000, d=2, seed=3)
        assert np.isfinite(h.A).all()
        assert np.isfinite(h.B).all()

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            sample_hidden_weights(SPEC, N=0, d=1, seed=0)
        with pytest.raises(ValueError):
            sample_hidden_weights(SPEC, N=1, d=0, seed=0)


class TestDensities:
    def test_pi_w_frozen_values(self):
        # 50-digit mpmath evaluation of the closed form
        # Gamma((nu+d)/2) / (Gamma(nu/2) nu^{d/2} pi^{d/2}) (1+|x|^2/nu)^{-(nu+d)/2}
        assert np.isclose(pi_w(SPEC, [0.0]), 0.37960668982249443, rtol=1e-13)
        assert np.isclose(
            pi_w(SPEC, [0.5, -1.0, 2.0]), 0.0041050626625083856, rtol=1e-13
        )
        assert np.isclose(
            pi_w(WeightDistributionSpec(nu=2.5, b_dof=2.0), [1.0, 1.0]),
            0.042408898756225231,
            rtol=1e-13,
        )

    def test_pi_w_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(4) * 3
            assert pi_w(SPEC, x) == pi_w(SPEC, -x)

    def test_pi_w_integrates_to_one_d1(self):
        grid = np.linspace(-50.0, 50.0, 200001)
        vals = pi_w(SPEC, grid[:, None])
        total = np.trapezoid(vals, grid)
        assert abs(total - 1.0) < 1e-3

    def test_pi_w_batch_matches_single(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((7, 3))
        batch = pi_w(SPEC, pts)
        singles = [pi_w(SPEC, p) for p in pts]
        assert np.allclose(batch, singles, rtol=1e-15)

    def test_pi_w_survives_large_d(self):
        # the Gamma prefactor overflows naive evaluation near d ~ 300
        val = log_pi_w(SPEC, np.zeros(2000))
        assert np.isfinite(val)

    @pytest.mark.parametrize("nu, b_dof", [(5.0, 2.0), (2.5, 3.5), (1.5, 0.7), (40.0, 11.0)])
    def test_normalising_constants_match_gammaln(self, nu, b_dof):
        from scipy.special import gammaln

        spec = WeightDistributionSpec(nu=nu, b_dof=b_dof)
        for d in (1, 3, 50):
            want = gammaln((nu + d) / 2) - gammaln(nu / 2) - 0.5 * d * np.log(nu * np.pi)
            assert abs(log_pi_w(spec, np.zeros(d)) - want) <= 1e-15 * max(1.0, abs(want))
        want = gammaln((b_dof + 1) / 2) - gammaln(b_dof / 2) - 0.5 * np.log(b_dof * np.pi)
        assert abs(log_pi_b(spec, 0.0) - want) <= 1e-15

    def test_pi_b_frozen_values(self):
        # 50-digit mpmath evaluation of the Student-t density
        assert np.isclose(pi_b(SPEC, 0.0), 0.35355339059327376, rtol=1e-13)
        assert np.isclose(pi_b(SPEC, 1.0), 0.19245008972987525, rtol=1e-13)
        assert np.isclose(
            pi_b(WeightDistributionSpec(nu=5.0, b_dof=3.5), -0.75),
            0.26585515612067778,
            rtol=1e-13,
        )

    def test_pi_b_symmetric(self):
        u = np.linspace(-20, 20, 41)
        assert np.array_equal(pi_b(SPEC, u), pi_b(SPEC, -u))

    def test_pi_b_polynomial_tail(self):
        # u^3 * pi_b(t(2), u) increases to 1; it stays above 0.9 from u=10 on
        u = np.geomspace(10.0, 1e3, 50)
        scaled = u**3 * pi_b(SPEC, u)
        assert scaled.min() > 0.9
        assert scaled.max() <= 1.0 + 1e-12

    def test_pi_b_strictly_positive_far_out(self):
        assert pi_b(SPEC, 1e8) > 0.0

    def test_pi_w_integrates_to_one_d2(self):
        # tensor-grid integration over [-60, 60]^2
        g = np.linspace(-60.0, 60.0, 1201)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        vals = pi_w(SPEC, pts).reshape(xx.shape)
        total = np.trapezoid(np.trapezoid(vals, g, axis=1), g)
        assert abs(total - 1.0) < 1e-3


def row(hidden, x):
    """The features of one point, as the one-row design matrix gives them."""

    return design_matrix(hidden, [x]).values[0]


def predict_one(net, x):
    return float(predict(net, [x])[0])


class TestFeatures:
    def test_zero_weights_give_zero_vector(self):
        h = manual_hidden(np.zeros((4, 2)), np.zeros(4))
        assert np.array_equal(row(h, [1.5, -2.0]), np.zeros(4))

    def test_identity_on_positive(self):
        h = manual_hidden([[1.0]], [0.0])
        assert np.array_equal(row(h, [2.0]), [2.0])

    def test_hand_example_two_neurons(self):
        h = manual_hidden([[1.0], [1.0]], [0.0, -1.0])
        assert np.array_equal(row(h, [2.0]), [2.0, 1.0])

    def test_dimension_mismatch_raises(self):
        h = manual_hidden([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError):
            row(h, [1.0, 2.0, 3.0])

    def test_nonnegative(self):
        h = sample_hidden_weights(SPEC, N=50, d=3, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(10):
            assert (row(h, rng.standard_normal(3)) >= 0.0).all()

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((6, 3))
        B = rng.standard_normal(6)
        x = rng.standard_normal(3)
        for c in (0.5, 2.0, 7.25):
            scaled = manual_hidden(c * A, c * B)
            base = manual_hidden(A, B)
            assert np.allclose(row(scaled, x), c * row(base, x), rtol=1e-14)


class TestEvaluate:
    def test_zero_output_weights(self):
        h = sample_hidden_weights(SPEC, N=8, d=2, seed=4)
        net = RandomFeatureNet(hidden=h, W=np.zeros(8))
        assert predict_one(net, [0.3, -0.4]) == 0.0

    def test_hand_example(self):
        h = manual_hidden([[1.0], [1.0]], [0.0, -1.0])
        net = RandomFeatureNet(hidden=h, W=np.array([1.0, -1.0]))
        assert predict_one(net, [2.0]) == 1.0

    def test_cap_truncates_both_sides(self):
        h = manual_hidden([[1.0]], [0.0])
        high = RandomFeatureNet(hidden=h, W=np.array([1.0]), cap=1.0)
        low = RandomFeatureNet(hidden=h, W=np.array([-1.5]), cap=1.0)
        assert predict_one(high, [2.0]) == 1.0  # uncapped 2
        assert predict_one(low, [2.0]) == -1.0  # uncapped -3

    def test_cap_identity_inside_band(self):
        h = sample_hidden_weights(SPEC, N=10, d=2, seed=6)
        w = np.full(10, 1e-4)
        capped = RandomFeatureNet(hidden=h, W=w, cap=100.0)
        plain = RandomFeatureNet(hidden=h, W=w)
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(20, 2))
        assert np.array_equal(predict(capped, X), predict(plain, X))

    def test_cap_idempotent(self):
        h = sample_hidden_weights(SPEC, N=10, d=2, seed=6)
        net = RandomFeatureNet(hidden=h, W=np.full(10, 3.0), cap=0.5)
        rng = np.random.default_rng(8)
        X = rng.uniform(-2, 2, size=(30, 2))
        once = predict(net, X)
        assert np.array_equal(np.clip(once, -0.5, 0.5), once)

    def test_cap_must_be_positive(self):
        h = manual_hidden([[1.0]], [0.0])
        with pytest.raises(ValueError):
            RandomFeatureNet(hidden=h, W=np.array([1.0]), cap=0.0)

    def test_w_length_checked(self):
        h = manual_hidden([[1.0]], [0.0])
        with pytest.raises(ValueError):
            RandomFeatureNet(hidden=h, W=np.array([1.0, 2.0]))


class TestDesignMatrix:
    def test_empty_point_set(self):
        h = sample_hidden_weights(SPEC, N=5, d=3, seed=9)
        fm = design_matrix(h, np.empty((0, 3)))
        assert fm.values.shape == (0, 5)
        assert fm.point_count == 0 and fm.feature_count == 5

    def test_single_point_matches_features(self):
        # a flat d-vector is read as one row
        h = sample_hidden_weights(SPEC, N=5, d=3, seed=9)
        x = np.array([0.1, -0.2, 0.3])
        fm = design_matrix(h, x)
        assert fm.point_count == 1
        assert np.array_equal(fm.values, design_matrix(h, x[None, :]).values)

    def test_matches_per_point_loop(self):
        h = sample_hidden_weights(SPEC, N=4, d=3, seed=10)
        rng = np.random.default_rng(21)
        X = rng.standard_normal((5, 3))
        fm = design_matrix(h, X)
        # different batch shapes may hit different BLAS kernels, so this
        # is a machine-precision contract, not a bitwise one
        for i in range(5):
            assert np.allclose(fm.values[i], row(h, X[i]), rtol=1e-12, atol=1e-15)

    def test_entries_nonnegative_and_exact(self):
        h = sample_hidden_weights(SPEC, N=6, d=2, seed=12)
        rng = np.random.default_rng(22)
        X = rng.standard_normal((40, 2))
        fm = design_matrix(h, X)
        assert (fm.values >= 0.0).all()
        raw = X @ h.A.T + h.B
        assert np.array_equal(fm.values, np.maximum(raw, 0.0))

    @settings(max_examples=60, deadline=None)
    @example(d=1, N=1, n=0, dead=0, seed=0)
    @example(d=1, N=6, n=9, dead=3, seed=1)
    @given(
        d=st.integers(1, 4), N=st.integers(1, 12), n=st.integers(0, 20),
        dead=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_one_expression_formula(self, d, N, n, dead, seed):
        # the design is built in place (an outer product at d = 1), with
        # the bits of the plain expression
        rng = np.random.default_rng(seed)
        B = rng.standard_normal(N)
        B[:dead] = -1e3  # dead features: zero at every point below
        h = manual_hidden(rng.standard_normal((N, d)) / rng.chisquare(3.0, (N, 1)), B)
        X = rng.uniform(-2.0, 2.0, (n, d))
        fm = design_matrix(h, X)
        assert np.array_equal(fm.values, np.maximum(X @ h.A.T + h.B, 0.0))
        assert fm.values.shape == (n, N)

    def test_column_mismatch_raises(self):
        h = sample_hidden_weights(SPEC, N=3, d=2, seed=1)
        with pytest.raises(ValueError):
            design_matrix(h, np.zeros((4, 3)))

    def test_predict_matches_numpy_formula(self):
        h = sample_hidden_weights(SPEC, N=7, d=2, seed=14)
        rng = np.random.default_rng(23)
        net = RandomFeatureNet(hidden=h, W=rng.standard_normal(7), cap=0.8)
        X = rng.uniform(-1, 1, size=(15, 2))
        want = [
            min(max(sum(w * max(a @ x + b, 0.0) for w, a, b in zip(net.W, h.A, h.B)), -0.8), 0.8)
            for x in X
        ]
        assert np.allclose(predict(net, X), want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("cap", [None, 0.5])
    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("n", [0, 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK, 2 * ROW_BLOCK + 1])
    def test_blocked_predict_matches_whole_design(self, n, d, cap):
        h = sample_hidden_weights(SPEC, N=40, d=d, seed=15)
        rng = np.random.default_rng(n + d)
        net = RandomFeatureNet(hidden=h, W=rng.standard_normal(40), cap=cap)
        X = rng.uniform(-1, 1, size=(n, d))
        want = design_matrix(h, X).values @ net.W
        if cap is not None:
            want = np.clip(want, -cap, cap)
        assert np.array_equal(predict(net, X), want)

    def test_predict_holds_one_piece_of_the_design(self):
        h = sample_hidden_weights(SPEC, N=200, d=5, seed=17)
        net = RandomFeatureNet(hidden=h, W=np.ones(200))
        X = np.random.default_rng(25).uniform(-1, 1, size=(ROW_BLOCK, 5))
        tracemalloc.start()
        try:
            predict(net, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ROW_PIECE * 200 * 8 + 2**20  # a 4 096 x 200 block is 6.5 MB

    def test_predict_over_several_blocks(self):
        # past one block the bits follow BLAS's own row split, so this is
        # a rounding-level contract
        h = sample_hidden_weights(SPEC, N=50, d=3, seed=16)
        rng = np.random.default_rng(24)
        net = RandomFeatureNet(hidden=h, W=rng.standard_normal(50))
        X = rng.uniform(-1, 1, size=(2 * ROW_BLOCK + 6, 3))
        want = design_matrix(h, X).values @ net.W
        assert np.linalg.norm(predict(net, X) - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "n",
        [0, 1, 5, ROW_BLOCK, ROW_BLOCK + 3, ROW_BLOCK + 4, 3 * ROW_BLOCK + 2,
         2 * ROW_BLOCK, 2 * ROW_BLOCK + 3, 2 * ROW_BLOCK + 4, 6 * ROW_BLOCK + 2],
    )
    def test_row_blocks_cover_rows_in_order(self, n):
        for size in (ROW_BLOCK, ROW_PIECE):
            blocks = row_blocks(n, size)
            assert all(b.stop <= n for b in blocks)
            assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
            sizes = [b.stop - b.start for b in blocks]
            assert all(s == size for s in sizes[:-1])
            assert len(sizes) <= 1 or sizes[-1] >= 4  # a short remainder joins its neighbour

    # a fixed budget, and no deadline: a loaded machine must not fail a property
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n_max=st.integers(1, 450), points=st.integers(1, 150), data=st.data())
    def test_column_prefix_is_the_subnetwork_design(self, seed, n_max, points, data):
        # the 1-d oracle scores every width on a column prefix of one grid
        # design. Each entry is one rounded product there; at d > 1 the
        # BLAS path depends on the width (d = 2 differs at N = 1 and 197)
        N = data.draw(st.integers(1, n_max))
        hidden = sample_hidden_weights(SPEC, N=n_max, d=1, seed=seed)
        X = np.linspace(-2.0, 2.0, points)[:, None]
        want = design_matrix(subnetwork(hidden, N), X).values
        assert np.array_equal(design_matrix(hidden, X).values[:, :N], want)

    def test_feature_matrix_shape_validated(self):
        with pytest.raises(ValueError):
            FeatureMatrix(values=np.zeros((2, 3)), point_count=2, feature_count=4)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        h = sample_hidden_weights(SPEC, N=20, d=3, seed=31)
        rng = np.random.default_rng(32)
        net = RandomFeatureNet(hidden=h, W=rng.standard_normal(20), cap=2.5)
        path = tmp_path / "model.json"
        save_model(net, path)
        back = load_model(path)
        assert np.array_equal(back.hidden.A, net.hidden.A)
        assert np.array_equal(back.hidden.B, net.hidden.B)
        assert np.array_equal(back.W, net.W)
        assert back.cap == net.cap
        assert back.hidden.spec == net.hidden.spec
        assert back.hidden.seed == net.hidden.seed
        X = rng.uniform(-1, 1, size=(50, 3))
        assert np.array_equal(predict(back, X), predict(net, X))

    def test_dict_round_trip_without_cap(self):
        h = sample_hidden_weights(SPEC, N=4, d=2, seed=33)
        net = RandomFeatureNet(hidden=h, W=np.array([0.1, -0.2, 0.3, 0.0]))
        doc = json.loads(json.dumps(net_to_dict(net)))
        back = net_from_dict(doc)
        assert back.cap is None
        assert np.array_equal(back.W, net.W)

    def test_hidden_arrays_read_only(self):
        h = sample_hidden_weights(SPEC, N=4, d=2, seed=34)
        with pytest.raises(ValueError):
            h.A[0, 0] = 1.0
