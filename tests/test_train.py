import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kolmo_rfn import _blas
from kolmo_rfn import train as train_module
from kolmo_rfn.config import train_from_dict, train_to_dict
from kolmo_rfn.data import _X_STREAM, Dataset
from kolmo_rfn.network import (
    ROW_BLOCK,
    ROW_PIECE,
    HiddenWeights,
    RandomFeatureNet,
    WeightDistributionSpec,
    design_matrix,
    row_blocks,
    sample_hidden_weights,
)
from kolmo_rfn.rng import substream
from kolmo_rfn.train import (
    _SGD_GATHER,
    _SGD_INDEX_STREAM,
    _SVD_RCOND,
    FitDiagnostics,
    TrainConfig,
    empirical_risk,
    fit,
    fit_constrained,
    fit_ols,
    fit_sgd,
    fit_widths,
    fold_features,
    prefix_problem,
    project_ball,
    risk_from_r,
)


def random_instance(rng, n, N, rank=None):
    if rank is None:
        X = rng.standard_normal((n, N))
    else:
        X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, N))
    y = rng.standard_normal(n)
    return X, y


def make_dataset(X, Y):
    return Dataset(
        X=np.asarray(X, dtype=float),
        Y=np.asarray(Y, dtype=float),
        label_kind="single_draw",
        seed=0,
        M=10.0,
        T=1.0,
    )


class TestConfig:
    def test_round_trip(self):
        cfg = TrainConfig(method="sgd", lam=2.0, eta0=0.1, batch=8, steps=100, seed=3)
        assert train_from_dict(train_to_dict(cfg)) == cfg

    def test_ols_needs_nothing(self):
        assert TrainConfig(method="ols").lam is None

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown keys \['capp'\] in train config"):
            train_from_dict({"method": "ols", "capp": 1.0})
        full = TrainConfig(method="sgd", lam=2.0, eta0=0.1, batch=8, steps=100, seed=3, cap=1.5, average=True)
        assert train_from_dict(train_to_dict(full)) == full

    def test_constrained_requires_lambda(self):
        with pytest.raises(ValueError):
            TrainConfig(method="constrained")
        with pytest.raises(ValueError):
            TrainConfig(method="constrained", lam=0.0)

    def test_sgd_requires_knobs(self):
        with pytest.raises(ValueError):
            TrainConfig(method="sgd", lam=1.0, steps=10)  # no eta0
        with pytest.raises(ValueError):
            TrainConfig(method="sgd", lam=1.0, eta0=0.1)  # no steps
        with pytest.raises(ValueError):
            TrainConfig(method="sgd", lam=1.0, eta0=0.1, steps=0)
        with pytest.raises(ValueError):
            TrainConfig(method="sgd", lam=1.0, eta0=0.1, steps=5, batch=0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            TrainConfig(method="ridge")

    def test_negative_risk_rejected(self):
        with pytest.raises(ValueError):
            FitDiagnostics(empirical_risk=-1.0)


class TestOls:
    def test_exact_fit(self):
        W, diag = fit_ols([[1.0], [2.0]], [2.0, 4.0])
        assert np.allclose(W, [2.0])
        assert diag.empirical_risk == pytest.approx(0.0, abs=1e-28)
        assert diag.effective_rank == 1

    def test_overdetermined_hand_value(self):
        W, diag = fit_ols([[1.0], [1.0]], [1.0, 3.0])
        assert np.allclose(W, [2.0])
        assert diag.empirical_risk == pytest.approx(1.0)

    def test_underdetermined_min_norm(self):
        W, _ = fit_ols([[1.0, 1.0]], [2.0])
        assert np.allclose(W, [1.0, 1.0])

    def test_normal_equations_on_random_instances(self):
        rng = np.random.default_rng(0)
        for n, N, rank in [(20, 5, None), (5, 20, None), (30, 10, 4), (10, 30, 3)]:
            X, y = random_instance(rng, n, N, rank)
            W, diag = fit_ols(X, y)
            lhs = np.linalg.norm(X.T @ (X @ W - y))
            assert lhs <= 1e-8 * np.linalg.norm(X.T @ y) + 1e-12
            if rank is not None:
                assert diag.effective_rank == rank

    def test_min_norm_against_null_space(self):
        rng = np.random.default_rng(1)
        X, y = random_instance(rng, 12, 8, rank=3)
        W, _ = fit_ols(X, y)
        # null-space basis of X
        _, s, vt = np.linalg.svd(X)
        null = vt[(s < 1e-10 * s[0]).sum() * 0 + 3:]  # rows beyond the rank
        for v in null:
            assert np.linalg.norm(W + 0.1 * v) > np.linalg.norm(W)
        # and W itself has no null-space component
        assert np.allclose(null @ W, 0.0, atol=1e-10)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_ols(np.empty((0, 3)), [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_ols([[1.0], [2.0]], [1.0])

    def test_accepts_feature_matrix(self):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=6, d=2, seed=0)
        X = np.random.default_rng(2).uniform(-1, 1, (40, 2))
        design = design_matrix(hidden, X)
        y = X[:, 0] + X[:, 1]
        W, _ = fit_ols(design, y)
        W2, _ = fit_ols(design.values, y)
        assert np.array_equal(W, W2)


class TestConstrained:
    def test_inactive_constraint(self):
        W, diag = fit_constrained([[1.0]], [2.0], lam=3.0)
        assert np.allclose(W, [2.0])
        assert diag.lambda_multiplier == 0.0

    def test_active_constraint_hand_value(self):
        W, diag = fit_constrained([[1.0]], [2.0], lam=1.0)
        assert np.allclose(W, [1.0])
        # f(1) = lam here, so bisection keeps 1 as the upper end of its
        # bracket and returns it
        assert diag.lambda_multiplier == pytest.approx(1.0, rel=1e-6)
        assert abs(np.linalg.norm(W) - 1.0) <= 1e-8

    def test_zero_labels(self):
        W, diag = fit_constrained(np.eye(3), np.zeros(3), lam=1.0)
        assert not W.any()
        assert diag.lambda_multiplier == 0.0

    def test_norm_equation_on_random_instances(self):
        rng = np.random.default_rng(5)
        for n, N in [(30, 6), (6, 30), (20, 20)]:
            X, y = random_instance(rng, n, N)
            W_free, _ = fit_ols(X, y)
            lam = 0.5 * np.linalg.norm(W_free)  # force the constraint active
            W, diag = fit_constrained(X, y, lam)
            assert diag.lambda_multiplier > 0
            assert abs(np.linalg.norm(W) - lam) <= 1e-8 * lam
            assert np.linalg.norm(W) <= lam * (1 + 1e-6)
            # KKT stationarity: (X'X + Lambda I) W = X'Y
            resid = X.T @ X @ W + diag.lambda_multiplier * W - X.T @ y
            assert np.linalg.norm(resid) <= 1e-6 * (np.linalg.norm(X.T @ y) + 1)

    def test_every_active_fit_lands_in_its_ball(self):
        # acceptance criterion 3's instances, held to rounding: bisection
        # returns the upper end of a bracket 1e-10 wide, where norm(W) <= lam
        rng = np.random.default_rng(20260818)
        actives = 0
        for i in range(1000):
            n, N = int(rng.integers(5, 61)), int(rng.integers(1, 41))
            X, y = random_instance(rng, n, N, max(1, min(n, N) // 2) if i % 3 == 0 else None)
            norm = np.linalg.norm(fit_ols(X, y)[0])
            lam = float(norm * rng.uniform(0.3, 1.7)) if norm > 1e-9 else 1.0
            W, diag = fit_constrained(X, y, lam)
            if diag.lambda_multiplier > 0:
                actives += 1
                assert lam * (1 - 1e-10 - 1e-14) <= np.linalg.norm(W) <= lam * (1 + 1e-12), i
        assert actives > 400

    def test_risk_never_beats_ols(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            X, y = random_instance(rng, 15, 7)
            _, free = fit_ols(X, y)
            lam = rng.uniform(0.05, 5.0)
            _, tied = fit_constrained(X, y, lam)
            assert tied.empirical_risk >= free.empirical_risk - 1e-12

    def test_equals_ols_when_slack(self):
        rng = np.random.default_rng(7)
        X, y = random_instance(rng, 25, 4)
        W_free, free = fit_ols(X, y)
        W, diag = fit_constrained(X, y, lam=2 * np.linalg.norm(W_free))
        assert np.allclose(W, W_free, rtol=1e-10, atol=1e-12)
        assert diag.lambda_multiplier == 0.0
        assert diag.empirical_risk == pytest.approx(free.empirical_risk, rel=1e-12, abs=1e-15)

    def test_optimal_over_the_ball(self):
        # brute-force check on a 2-feature instance: no feasible direction improves
        rng = np.random.default_rng(8)
        X, y = random_instance(rng, 40, 2)
        lam = 0.25
        W, _ = fit_constrained(X, y, lam)

        def risk(w):
            r = X @ w - y
            return r @ r / len(y)

        base = risk(W)
        thetas = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        boundary = lam * np.column_stack([np.cos(thetas), np.sin(thetas)])
        assert base <= np.array([risk(w) for w in boundary]).min() + 1e-10

    def test_decreasing_norm_profile(self):
        rng = np.random.default_rng(9)
        X, y = random_instance(rng, 10, 5)
        u, s, vt = np.linalg.svd(X, full_matrices=False)
        c = u.T @ y

        def f(t):
            return np.linalg.norm(s * c / (s * s + t))

        grid = np.linspace(0.0, 10.0, 50)
        vals = [f(t) for t in grid]
        assert (np.diff(vals) <= 1e-12).all()

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            fit_constrained([[1.0]], [1.0], lam=0.0)

    def test_effective_rank_matches_ols(self):
        rng = np.random.default_rng(10)
        for n, N, rank in [(30, 10, 4), (10, 30, 3)]:
            X, y = random_instance(rng, n, N, rank)
            _, free = fit_ols(X, y)
            for lam in (1e-3, 1e3):
                _, tied = fit_constrained(X, y, lam)
                assert tied.effective_rank == free.effective_rank == rank


def fit_constrained_full_svd(X, y, lam):
    """The ball-constrained fit from a full SVD of the n x N design.

    Reference for ``fit_constrained``, which takes the same SVD from
    the R of a QR of [X | y]: same rank cut, bracket and bisection.
    Returns (W, multiplier, effective rank, empirical risk).
    """

    u, s, vt = np.linalg.svd(X, full_matrices=False)
    keep = s > 1e-10 * s[0] if s.size and s[0] > 0 else np.zeros(s.shape, dtype=bool)
    s, c, vt = s[keep], u.T[keep] @ y, vt[keep]

    def coeffs(t):
        return s * c / (s * s + t)

    def f(t):
        return float(np.linalg.norm(coeffs(t)))

    if not s.size or math.sqrt(float(np.sum((c / s) ** 2))) <= lam:
        W = vt.T @ (c / s) if s.size else np.zeros(X.shape[1])
        mult = 0.0
    else:
        hi = 1.0
        while f(hi) > lam:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > lam:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-10 * hi:
                break
        W, mult = vt.T @ coeffs(hi), hi
    r = X @ W - y
    return W, mult, int(keep.sum()), float(r @ r / y.size)


def _constrained_cases():
    rng = np.random.default_rng(11)
    cases = []
    for n, N, rank in [
        (40, 8, None), (8, 40, None), (12, 12, None),  # n > N, n < N, n = N
        (40, 12, 5), (9, 30, 4), (15, 15, 6),  # rank-deficient
    ]:
        X, y = random_instance(rng, n, N, rank)
        cases.append(pytest.param(X, y, id=f"{n}x{N}" + (f"_rank{rank}" if rank else "")))
    X, y = random_instance(rng, 50, 10)
    X[:, [0, 4, 9]] = 0.0
    cases.append(pytest.param(X, y, id="dead_columns"))
    hidden = sample_hidden_weights(WeightDistributionSpec(), N=60, d=2, seed=3)
    Z = np.random.default_rng(12).uniform(-1, 1, (80, 2))
    cases.append(pytest.param(design_matrix(hidden, Z).values, Z[:, 0] ** 2 + Z[:, 1], id="relu_design"))
    cases.append(pytest.param(np.zeros((6, 4)), rng.standard_normal(6), id="zero_design"))
    cases.append(pytest.param(np.zeros((6, 0)), rng.standard_normal(6), id="zero_columns"))
    return cases


class TestConstrainedAgainstFullSvd:
    @pytest.mark.parametrize("X,y", _constrained_cases())
    def test_matches_full_svd_reference(self, X, y):
        W_free, _ = fit_ols(X, y)
        free_norm = float(np.linalg.norm(W_free))
        # an interpolating fit has a risk at rounding level, where only an
        # absolute floor on the label scale is meaningful
        risk_floor = 1e-20 * float(y @ y) / y.size
        lams = [2.0 * free_norm + 1.0, 1e-3] + ([0.9 * free_norm, 0.3 * free_norm] if free_norm else [])
        active = []
        for lam in lams:
            W_ref, mult_ref, rank_ref, risk_ref = fit_constrained_full_svd(X, y, lam)
            W, diag = fit_constrained(X, y, lam)
            assert (diag.lambda_multiplier > 0) == (mult_ref > 0), lam
            active.append(mult_ref > 0)
            assert diag.effective_rank == rank_ref
            assert diag.empirical_risk == pytest.approx(risk_ref, rel=1e-10, abs=risk_floor)
            assert np.linalg.norm(W - W_ref) <= 1e-6 * max(np.linalg.norm(W_ref), 1e-300)
            if mult_ref > 0:
                assert diag.lambda_multiplier == pytest.approx(mult_ref, rel=1e-6)
            else:
                assert diag.lambda_multiplier == 0.0
        # the slack radius leaves the ball inactive; every smaller one binds
        # unless the minimum-norm fit is zero
        assert active == [False] + [free_norm > 0] * (len(lams) - 1)


def _streamed_cases():
    rng = np.random.default_rng(21)
    cases = []
    # one row, part of a block, one block, several blocks
    for n in (1, 300, ROW_BLOCK, 2 * ROW_BLOCK, 2 * ROW_BLOCK + 123, 4 * ROW_BLOCK + 123):
        cases.append(pytest.param(*random_instance(rng, n, 12), id=f"random_{n}x12"))
    for n, N, rank in [(7, 20, None), (12, 12, None), (300, 12, 5), (9, 30, 4)]:
        X, y = random_instance(rng, n, N, rank)
        cases.append(pytest.param(X, y, id=f"{n}x{N}" + (f"_rank{rank}" if rank else "")))
    X, y = random_instance(rng, ROW_BLOCK + 1, 10)
    X[:, [0, 4, 9]] = 0.0
    cases.append(pytest.param(X, y, id="dead_columns"))
    hidden = sample_hidden_weights(WeightDistributionSpec(), N=60, d=2, seed=3)
    Z = np.random.default_rng(12).uniform(-1, 1, (ROW_BLOCK + 500, 2))
    cases.append(pytest.param(design_matrix(hidden, Z).values, Z[:, 0] ** 2 + Z[:, 1], id="relu_design"))
    cases.append(pytest.param(np.zeros((6, 4)), rng.standard_normal(6), id="zero_design"))
    return cases


@_blas.single_blas_thread()
def fold_rows(r, design, Y):
    """Fold the rows ``[X | Y]`` of a design handed to it into the R of a running TSQR.

    ``r`` is the (N + 1) x (N + 1) R factor of every row folded so far
    (None before the first block, which folds into zeros). The R of ``r``
    stacked on the new rows is the R of all rows together (Demmel,
    Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 2012). Returns a new
    R; ``r`` is left as it was. It is the reference ``fold_features`` is
    held to: both fold through ``train._fold``, on one OpenBLAS thread.
    """

    X, y = train_module._check_xy(design, Y)
    width = X.shape[1] + 1
    out = np.zeros((width, width), order="F") if r is None else np.array(r, order="F")
    rows = np.empty((y.size, width), order="F")
    rows[:, :-1] = X
    rows[:, -1] = y
    train_module._fold(out, rows)
    return out


def fold_in_blocks(X, y):
    r = None
    for i in range(0, X.shape[0], ROW_BLOCK):
        r = fold_rows(r, X[i:i + ROW_BLOCK], y[i:i + ROW_BLOCK])
    return r


def fit_from_r(r, N, n, cfg):
    """The rate curve's per-width solve: the trainer on the prefix problem."""

    W, diag = fit(*prefix_problem(r, N), cfg)
    return W, diag.effective_rank, diag.lambda_multiplier, risk_from_r(r, W, n)


class TestStreamedAgainstDesign:
    """Every width solved from one streamed R against the solvers on its design."""

    @pytest.mark.parametrize("X,y", _streamed_cases())
    def test_matches_materialized_fits(self, X, y):
        n, n_max = X.shape
        r = fold_in_blocks(X, y)
        assert r.shape == (n_max + 1, n_max + 1)
        # an interpolating fit has a risk at rounding level, where only an
        # absolute floor on the label scale is meaningful
        risk_floor = 1e-20 * float(y @ y) / n
        for N in sorted({1, n_max // 3, n_max // 2, n_max - 1, n_max} - {0}):
            x = X[:, :N]
            W_ref, ref = fit_ols(x, y)
            W, rank, _, risk = fit_from_r(r, N, n, TrainConfig(method="ols"))
            assert rank == ref.effective_rank, N
            assert risk == pytest.approx(ref.empirical_risk, rel=1e-10, abs=risk_floor)
            assert np.linalg.norm(W - W_ref) <= 1e-10 * max(np.linalg.norm(W_ref), 1e-300), N

            free_norm = float(np.linalg.norm(W_ref))
            for lam in [2.0 * free_norm + 1.0, 0.9 * free_norm, 0.3 * free_norm, 1e-3]:
                if not lam > 0:
                    continue
                W_ref, ref = fit_constrained(x, y, lam)
                W, rank, mult, risk = fit_from_r(r, N, n, TrainConfig(method="constrained", lam=lam))
                assert rank == ref.effective_rank
                assert (mult > 0) == (ref.lambda_multiplier > 0)
                assert mult == pytest.approx(ref.lambda_multiplier, rel=1e-10)
                assert risk == pytest.approx(ref.empirical_risk, rel=1e-10, abs=risk_floor)
                assert np.linalg.norm(W - W_ref) <= 1e-10 * max(np.linalg.norm(W_ref), 1e-300), (N, lam)

    @pytest.mark.parametrize("n0,n1,N", [(50, 30, 8), (3, 2, 6), (1, 1, 1), (ROW_BLOCK, 700, 40), (2 * ROW_BLOCK, 700, 40)])
    def test_fold_agrees_with_the_stacked_qr(self, n0, n1, N):
        rng = np.random.default_rng(n0 + n1 + N)
        X0, y0 = random_instance(rng, n0, N)
        X1, y1 = random_instance(rng, n1, N)
        r = fold_rows(None, X0, y0)
        assert_same_gram(r, stacked_qr(None, X0, y0))
        assert_same_gram(fold_rows(r, X1, y1), stacked_qr(r, X1, y1))

    def test_fit_widths_solves_each_width_from_the_fold(self):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=30, d=2, seed=4)
        X = np.random.default_rng(13).uniform(-1, 1, (ROW_BLOCK + 77, 2))
        data = make_dataset(X, np.sin(X[:, 0]) + X[:, 1])
        r = fold_in_blocks(design_matrix(hidden, X).values, data.Y)
        for cfg in (TrainConfig(method="ols"), TrainConfig(method="constrained", lam=0.5)):
            solved = fit_widths(hidden, (5, 30), data, cfg)
            assert list(solved) == [5, 30]
            for N, (W, diag, ms) in solved.items():
                W_ref, rank, mult, risk = fit_from_r(r, N, data.n, cfg)
                assert np.array_equal(W, W_ref) and diag.empirical_risk == risk
                assert diag.effective_rank == rank and diag.lambda_multiplier == mult
                assert ms >= 0

    def test_fit_widths_records_or_raises_a_failed_width(self):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=6, d=1, seed=4)
        data = make_dataset(np.linspace(-1, 1, 20)[:, None], np.linspace(0, 1, 20))
        cfg = TrainConfig(method="sgd", lam=5.0, eta0=0.1, steps=3, batch=50)
        failed = {}
        assert fit_widths(hidden, (3, 6), data, cfg, failed) == {}
        assert sorted(failed) == [3, 6] and "exceeds the 20 available" in failed[6]
        with pytest.raises(ValueError, match="exceeds the 20 available"):
            fit_widths(hidden, (6,), data, cfg)
        empty = make_dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(ValueError, match="cannot fit on empty data"):
            fit_widths(hidden, (6,), empty, TrainConfig(method="ols"), {})  # the fold itself fails
        with pytest.raises(ValueError, match="cannot fit on empty data"):
            fit_widths(hidden, (6,), empty, cfg)

    def test_fold_checks_every_block(self):
        r = fold_rows(None, np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="finite"):
            fold_rows(r, [[1.0, np.nan]], [1.0])
        with pytest.raises(ValueError, match="finite"):
            fold_rows(r, [[1.0, 2.0]], [np.inf])
        with pytest.raises(ValueError, match="empty"):
            fold_rows(r, np.empty((0, 2)), [])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(1, 90), n_max=st.integers(1, 12),
        rank=st.one_of(st.none(), st.integers(1, 11)), data=st.data(),
    )
    def test_fold_at_random_cuts_solves_the_whole_design(self, seed, n, n_max, rank, data):
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6))) if n > 1 else []
        N = data.draw(st.integers(1, n_max))
        X, y = random_instance(np.random.default_rng(seed), n, n_max, rank if rank and rank < n_max else None)
        r = None
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            r = fold_rows(r, X[lo:hi], y[lo:hi])
        W_ref, _, rank_ref, _ = np.linalg.lstsq(X[:, :N], y, rcond=_SVD_RCOND)
        res = X[:, :N] @ W_ref - y
        W, rank_got, _, risk = fit_from_r(r, N, n, TrainConfig(method="ols"))
        assert rank_got == rank_ref
        assert risk == pytest.approx(float(res @ res) / n, rel=1e-10, abs=1e-20 * float(y @ y) / n)
        assert np.linalg.norm(W - W_ref) <= 1e-10 * max(np.linalg.norm(W_ref), 1e-300)


def stacked_qr(r, X, y):
    """The oracle: numpy's QR of ``r`` stacked on ``[X | y]``."""

    rows = np.column_stack([X, y])
    return np.linalg.qr(rows if r is None else np.vstack([r, rows]), mode="r")


def assert_same_gram(got, want, rtol=1e-14):
    """``got`` and ``want`` are R factors of the same rows, to rounding.

    R'R is compared, not R: R fixes the sign of a row only where its
    diagonal is nonzero, and a dead feature leaves a zero there.
    """

    gram = want.T @ want
    assert got.shape[1] == want.shape[1]
    assert np.linalg.norm(got.T @ got - gram) <= rtol * np.linalg.norm(gram)


def assert_solves_lstsq(r, design, y, widths):
    """Each width's OLS fit from ``r`` is lstsq's on the whole design.

    W and the risk agree to 1e-10 relative; an ill-conditioned design
    fixes them only to about cond * eps (random ReLU designs at d = 1
    reach cond = 1e9), so past cond = 1e4 the bound grows with the
    condition number of the kept spectrum.
    """

    n = len(y)
    for N in widths:
        x = design[:, :N]
        W_ref, _, rank, s = np.linalg.lstsq(x, y, rcond=_SVD_RCOND)
        resid = x @ W_ref - y
        cond = s[0] / s[rank - 1] if rank else 1.0
        tol = max(1e-10, 1e-14 * cond)
        W, got_rank, _, risk = fit_from_r(r, N, n, TrainConfig(method="ols"))
        assert got_rank == rank, N
        assert np.linalg.norm(W - W_ref) <= tol * max(np.linalg.norm(W_ref), 1e-300), N
        assert risk == pytest.approx(float(resid @ resid) / n, rel=tol, abs=1e-20 * float(y @ y) / n)


def _kernel_cases():
    rng = np.random.default_rng(31)
    cases = []
    for n, N, rank, name in [
        (3, 8, None, "fewer_rows_than_columns"),
        (1, 8, None, "one_row"),
        (9, 8, None, "square_rows"),  # [X | y] is 9 x 9
        (10, 8, None, "one_row_more_than_columns"),
        (40, 12, 4, "rank4_of_12"),
        (7, 20, 3, "rank3_of_20_wide"),
    ]:
        cases.append(pytest.param(*random_instance(rng, n, N, rank), id=name))
    X, y = random_instance(rng, 30, 6)
    X[:, [1, 4]] = 0.0
    cases.append(pytest.param(X, y, id="zero_columns"))
    cases.append(pytest.param(np.empty((5, 0)), rng.standard_normal(5), id="no_features"))
    X, y = random_instance(rng, 50, 9)
    cases.append(pytest.param(X, y, id="c_ordered"))
    cases.append(pytest.param(np.asfortranarray(X), y, id="f_ordered"))
    cases.append(pytest.param(rng.standard_normal((50, 14))[:, :9], y, id="column_prefix_view"))
    return cases


class TestFoldKernel:
    """The in-place dtpqrt fold against its fallback, numpy's QR of the stacked rows."""

    @pytest.mark.parametrize("X,y", _kernel_cases())
    def test_r_has_the_bits_of_numpys_qr(self, monkeypatch, X, y):
        # through the fallback R has the bits of numpy's QR of R stacked on
        # the rows; the dtpqrt fold agrees with it to rounding, and both
        # solve the rows' least squares. A first block, then the same rows
        # read backwards through a negatively strided view
        def two_blocks():
            r = fold_rows(None, X, y)
            return r, fold_rows(r, X[::-1], y[::-1])

        first, second = two_blocks()
        monkeypatch.setattr(_blas, "gil_free_dtpqrt", lambda: None)  # the fallback
        first_qr, second_qr = two_blocks()
        assert np.array_equal(first_qr, stacked_qr(np.zeros_like(first_qr), X, y))
        assert np.array_equal(second_qr, stacked_qr(first_qr, X[::-1], y[::-1]))
        assert first_qr.flags.f_contiguous and second_qr.flags.f_contiguous
        assert_same_gram(first, first_qr)
        assert_same_gram(second, second_qr)
        n_max = X.shape[1]
        for r in (second, second_qr):
            assert r.shape == (n_max + 1, n_max + 1)
            assert_solves_lstsq(r, np.vstack([X, X[::-1]]), np.concatenate([y, y[::-1]]), range(1, n_max + 1))

    @pytest.mark.parametrize("X,y", _kernel_cases())
    def test_the_gil_free_dtpqrt_agrees_with_numpys_qr(self, X, y):
        kernel = _blas.gil_free_dtpqrt()
        if kernel is None:
            pytest.skip("numpy links no scipy_dtpqrt_64_")
        rows = np.column_stack([X, y])
        n = rows.shape[1]
        below = np.tril(np.full((n, n), 7.0), -1)
        for nb in sorted({1, min(32, n), n}):
            a, b = np.array(below, order="F"), np.array(rows, order="F")
            assert kernel(a, b, nb) == 0
            assert np.array_equal(np.tril(a, -1), below)  # R's strict lower triangle is left alone
            assert_same_gram(np.triu(a), stacked_qr(None, X, y))

    def test_the_gil_free_dtpqrt_checks_its_buffers(self):
        kernel = _blas.gil_free_dtpqrt()
        if kernel is None:
            pytest.skip("numpy links no scipy_dtpqrt_64_")
        a, b = np.zeros((3, 3), order="F"), np.ones((6, 3), order="F")
        read_only = a.copy(order="F")
        read_only.setflags(write=False)
        for args in [
            (np.zeros((3, 3)), b, 3),  # row-major
            (a, np.ones((6, 3)), 3),
            (a.astype(np.float32, order="F"), b, 3),
            (read_only, b, 3),
            (np.zeros((4, 4), order="F"), b, 3),  # R narrower or wider than the rows
            (a, np.ones((12, 3), order="F")[::2], 3),  # strided rows
        ]:
            with pytest.raises(ValueError, match="column-major float64"):
                kernel(*args)
        for nb in (0, 4):
            with pytest.raises(ValueError, match="panel width"):
                kernel(a, b, nb)
        assert not a.any() and np.all(b == 1.0)

    @pytest.mark.parametrize("fail_at", [1, 2], ids=["factorization", "second_block"])
    def test_a_lapack_failure_raises(self, monkeypatch, fail_at):
        # info = -4 from the binding, on the first block's fold or the second's
        real = _blas.gil_free_dtpqrt()
        if real is None:
            pytest.skip("numpy links no scipy_dtpqrt_64_")
        calls = []

        def failing(a, b, nb):
            info = real(a, b, nb)
            calls.append(nb)
            return -4 if len(calls) == fail_at else info

        monkeypatch.setattr(_blas, "gil_free_dtpqrt", lambda: failing)
        if fail_at == 1:
            X, y = random_instance(np.random.default_rng(2), 20, 4)
            with pytest.raises(np.linalg.LinAlgError, match=r"dtpqrt .*info = -4"):
                fold_rows(None, X, y)
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=4, d=1, seed=1)
        n = ROW_BLOCK + 20
        data = make_dataset(np.linspace(-1, 1, n)[:, None], np.random.default_rng(3).standard_normal(n))
        for cfg in (TrainConfig(method="ols"), TrainConfig(method="constrained", lam=1.0)):
            calls.clear()
            with pytest.raises(np.linalg.LinAlgError, match=r"dtpqrt .*info = -4"):
                fit_widths(hidden, (2, 4), data, cfg, failed={})  # a failed fold always raises
            assert calls == [5] * fail_at  # the panel is cut to the 5 columns of [X | Y]

    # the fallback as the dtpqrt fold's oracle at random cuts, with fewer
    # rows than columns, rank-deficient designs and dead features
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), n_max=st.integers(1, 170),
        rank=st.one_of(st.none(), st.integers(1, 169)),
        dead=st.sets(st.integers(0, 169), max_size=5), data=st.data(),
    )
    def test_the_fold_agrees_with_its_fallback_at_random_cuts(self, seed, n, n_max, rank, dead, data):
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
        X, y = random_instance(np.random.default_rng(seed), n, n_max, rank if rank and rank < n_max else None)
        X[:, [j for j in dead if j < n_max]] = 0.0  # features zero on every row, as dead ReLUs are

        def fold():
            r = None
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                r = fold_rows(r, X[lo:hi], y[lo:hi])
            return r

        r = fold()
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(_blas, "gil_free_dtpqrt", lambda: None)
            r_qr = fold()
        assert_same_gram(r, r_qr)
        widths = sorted({1, data.draw(st.integers(1, n_max)), n_max})
        for folded in (r, r_qr):
            assert_solves_lstsq(folded, X, y, widths)

    def test_one_block_holds_the_design_and_one_buffer(self):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=200, d=5, seed=8)
        Z = np.random.default_rng(9).uniform(-1, 1, (ROW_BLOCK, 5))
        y = Z.sum(axis=1)
        r = fold_rows(None, design_matrix(hidden, Z[:300]), y[:300])
        design_bytes = ROW_BLOCK * 200 * 8
        buffer_bytes = (r.shape[0] + ROW_BLOCK) * 201 * 8
        # one block of fit_widths's loop: numpy reports its data allocations
        # to tracemalloc, so a copy of the block or of the buffer shows
        tracemalloc.start()
        try:
            fold_rows(r, design_matrix(hidden, Z), y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= design_bytes + buffer_bytes + 2**20

    def test_a_fit_widths_block_holds_one_buffer_and_one_piece(self):
        # two blocks: the second buffer is allocated after the first is freed
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=200, d=5, seed=8)
        Z = np.random.default_rng(9).uniform(-1, 1, (2 * ROW_BLOCK, 5))
        data = make_dataset(Z, Z.sum(axis=1))
        buffer_bytes = (201 + ROW_BLOCK) * 201 * 8
        piece_bytes = ROW_PIECE * 200 * 8
        tracemalloc.start()
        try:
            fit_widths(hidden, (200,), data, TrainConfig(method="ols"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a 4 096 x 200 design block beside the buffer is 6.5 MB over this
        assert peak < buffer_bytes + piece_bytes + 2**20

    def test_the_whole_fold_holds_one_2048_row_buffer_and_one_piece(self):
        # ten blocks: R, one block of 2 048 rows and one piece; a block of
        # 4 096 rows alone is 3.3 MB over this bound
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=200, d=5, seed=8)
        Z = np.random.default_rng(9).uniform(-1, 1, (20_000, 5))
        data = make_dataset(Z, Z.sum(axis=1))
        buffer_bytes = (201 + 2048) * 201 * 8  # R and the block
        piece_bytes = ROW_PIECE * 200 * 8
        tracemalloc.start()
        try:
            fold_features(hidden, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < buffer_bytes + piece_bytes + 2**20


@_blas.single_blas_thread()
def design_block_fold(hidden, X, y):
    """The reference: ``fold_rows`` over each block's materialized design, cut as ``fold_features`` cuts.

    Like ``fold_features``, it runs on one OpenBLAS thread: a threaded
    gemm or ``dtpqrt`` splits its sums by thread.
    """

    r = None
    for rows in row_blocks(len(y)):
        r = fold_rows(r, design_matrix(hidden, X[rows]), y[rows])
    return r


def with_dead_features(hidden, dead):
    """``hidden`` with the features in ``dead`` zero at every point: A row 0, bias -1."""

    A, B = hidden.A.copy(), hidden.B.copy()
    A[dead], B[dead] = 0.0, -1.0
    return HiddenWeights(A=A, B=B, spec=hidden.spec, seed=hidden.seed, N=hidden.N, d=hidden.d)


def degenerate(hidden, dead, copies):
    """``hidden`` with the features in ``dead`` zero everywhere and each ``j`` of ``copies`` a copy of feature ``k``."""

    out = with_dead_features(hidden, [j % hidden.N for j in dead])
    A, B = out.A.copy(), out.B.copy()
    for j, k in copies:
        A[j % hidden.N], B[j % hidden.N] = A[k % hidden.N], B[k % hidden.N]
    return HiddenWeights(A=A, B=B, spec=out.spec, seed=out.seed, N=out.N, d=out.d)


class TestFoldFeatures:
    """The fold that builds each block's features in its dtpqrt buffer."""

    # the oracles of the flat blocks: the same cuts of the same features
    # fold to the same bits, and any cut solves the whole design's least
    # squares, at widths up to and past 512 features
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 5, 20]),
        N=st.one_of(st.integers(1, 200), st.sampled_from([511, 512, 700])),
        dead=st.sets(st.integers(0, 699), max_size=5),
        copies=st.lists(st.tuples(st.integers(0, 699), st.integers(0, 699)), max_size=5),
        data=st.data(),
    )
    def test_flat_blocks_against_their_oracles(self, seed, d, N, dead, copies, data):
        n = data.draw(st.one_of(
            st.integers(1, 3 * ROW_BLOCK + 5), st.integers(1, N),  # several blocks, or fewer rows than features
            st.sampled_from([ROW_BLOCK, ROW_BLOCK + 3, 2 * ROW_BLOCK + 4, 3 * ROW_BLOCK + 5]),
        ))
        rng = np.random.default_rng(seed)
        hidden = degenerate(sample_hidden_weights(WeightDistributionSpec(), N=N, d=d, seed=seed), dead, copies)
        X = rng.uniform(-1, 1, (n, d))
        y = rng.standard_normal(n)
        with _blas.single_blas_thread():  # the features fold_features builds, on its one thread
            design = np.vstack([design_matrix(hidden, X[p]).values for p in row_blocks(n, ROW_PIECE)])

        def fold(size):
            r = None
            for rows in row_blocks(n, size):
                r = fold_rows(r, design[rows], y[rows])
            return r

        r = fold_features(hidden, make_dataset(X, y))
        assert r.tobytes() == fold(ROW_BLOCK).tobytes()
        for folded in (r, fold(4096)):
            assert_solves_lstsq(folded, design, y, [N])

    # past 192 features OpenBLAS's gemm rounds the last N mod 8 features of
    # a 512-row piece differently from those of a whole block at d >= 2
    # (network.ROW_PIECE)
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 5, 20]),
        n=st.one_of(
            st.integers(1, 3 * ROW_BLOCK + 5),
            # a short remainder merged into its piece or block, and the cuts themselves
            st.sampled_from([ROW_PIECE + 3, ROW_BLOCK, ROW_BLOCK + 3, 2 * ROW_BLOCK + 4, 3 * ROW_BLOCK + 5]),
        ),
        N=st.integers(1, 200).filter(lambda N: N <= 192 or N % 8 == 0),
        dead=st.sets(st.integers(0, 199), max_size=5),
    )
    @example(seed=0, d=20, n=657, N=181, dead=set())
    def test_r_has_the_bits_of_the_design_block_fold(self, seed, d, n, N, dead):
        rng = np.random.default_rng(seed)
        hidden = with_dead_features(
            sample_hidden_weights(WeightDistributionSpec(), N=N, d=d, seed=seed),
            [j for j in dead if j < N],
        )
        X = rng.uniform(-1, 1, (n, d))
        data = make_dataset(X, rng.standard_normal(n))
        assert fold_features(hidden, data).tobytes() == design_block_fold(hidden, X, data.Y).tobytes()

    @pytest.mark.parametrize(
        "d,N,n", [(50, 333, ROW_BLOCK + 700), (50, 3, 1030), (5, 333, 2 * ROW_BLOCK + 3)],
    )
    def test_r_agrees_to_rounding_where_a_piece_rounds_differently(self, d, N, n):
        rng = np.random.default_rng(d + N)
        hidden = with_dead_features(sample_hidden_weights(WeightDistributionSpec(), N=N, d=d, seed=N), [0])
        X = rng.uniform(-1, 1, (n, d))
        data = make_dataset(X, rng.standard_normal(n))
        got, want = fold_features(hidden, data), design_block_fold(hidden, X, data.Y)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_a_non_finite_feature_or_label_raises(self):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=4, d=1, seed=2)
        X = np.linspace(-1, 1, ROW_BLOCK + 600)[:, None]
        for where in (0, ROW_BLOCK - 1, ROW_BLOCK + 599):  # first and last piece of a block
            bad_x, bad_y = X.copy(), np.ones(len(X))
            bad_x[where] = np.inf
            bad_y[ROW_BLOCK + 600 - 1 - where] = np.nan
            for data in (make_dataset(bad_x, np.ones(len(X))), make_dataset(X, bad_y)):
                with pytest.raises(ValueError, match="design and labels must be finite"):
                    fold_features(hidden, data)
        with pytest.raises(ValueError, match="cannot fit on empty data"):
            fold_features(hidden, make_dataset(np.empty((0, 1)), np.empty(0)))


class TestWidthChecks:
    """A width that is not a feature count of R or the hidden layer fails loudly."""

    def test_prefix_problem_takes_feature_columns_only(self):
        r = fold_rows(None, *random_instance(np.random.default_rng(3), 20, 5))
        for N in (0, -1, 6):
            with pytest.raises(ValueError, match=f"width {N} is outside 1..5"):
                prefix_problem(r, N)
        rx, qty = prefix_problem(r, 5)
        assert rx.shape == (5, 5) and np.array_equal(qty, r[:5, 5])

    @pytest.mark.parametrize(
        "cfg", [TrainConfig(method="ols"), TrainConfig(method="sgd", lam=5.0, eta0=0.1, steps=3)],
        ids=["fold", "sgd"],
    )
    @pytest.mark.parametrize("widths", [(10, 12), (0, 10)], ids=["too_wide", "zero"])
    def test_fit_widths_rejects_a_width_before_any_fold(self, monkeypatch, cfg, widths):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=10, d=1, seed=5)
        data = make_dataset(np.linspace(-1, 1, 40)[:, None], np.linspace(0, 1, 40))

        def no_fold(*args):
            raise AssertionError("folded before the widths were checked")

        monkeypatch.setattr(train_module, "fold_features", no_fold)
        monkeypatch.setattr(train_module, "design_matrix", no_fold)
        bad = max(widths) if max(widths) > 10 else 0
        with pytest.raises(ValueError, match=f"width {bad} is outside 1..10"):
            fit_widths(hidden, widths, data, cfg, failed={})


class TestProjectBall:
    def test_inside_unchanged(self):
        assert np.array_equal(project_ball([3.0, 4.0], 5.0), [3.0, 4.0])

    def test_outside_rescaled(self):
        assert np.allclose(project_ball([3.0, 4.0], 1.0), [0.6, 0.8])

    def test_zero_vector(self):
        assert not project_ball(np.zeros(4), 1.0).any()

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            project_ball([1.0], 0.0)


class TestSgd:
    def one_point(self, lam, eta0=0.25, steps=2):
        cfg = TrainConfig(method="sgd", lam=lam, eta0=eta0, batch=1, steps=steps, seed=0)
        return fit_sgd([[1.0]], [2.0], cfg)

    def test_no_update_at_one_step(self):
        W, diag = self.one_point(lam=10.0, steps=1)
        assert np.array_equal(W, [0.0])
        assert diag.steps_run == 0

    def test_single_update_hand_value(self):
        W, diag = self.one_point(lam=10.0)
        assert np.allclose(W, [1.0])
        assert diag.steps_run == 1

    def test_projection_active(self):
        W, _ = self.one_point(lam=0.5)
        assert np.allclose(W, [0.5])

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(10)
        X, y = random_instance(rng, 50, 8)
        cfg = TrainConfig(method="sgd", lam=5.0, eta0=0.05, batch=4, steps=200, seed=42)
        Wa, _ = fit_sgd(X, y, cfg)
        Wb, _ = fit_sgd(X, y, cfg)
        assert np.array_equal(Wa, Wb)
        Wc, _ = fit_sgd(X, y, TrainConfig(method="sgd", lam=5.0, eta0=0.05, batch=4, steps=200, seed=43))
        assert not np.array_equal(Wa, Wc)

    def test_default_batch_is_capped_by_n(self):
        rng = np.random.default_rng(11)
        X, y = random_instance(rng, 10, 3)
        cfg = TrainConfig(method="sgd", lam=5.0, eta0=0.05, steps=50, seed=1)
        fit_sgd(X, y, cfg)  # batch defaults to min(n, 64) = 10; must not raise
        with pytest.raises(ValueError):
            fit_sgd(X, y, TrainConfig(method="sgd", lam=5.0, eta0=0.05, batch=11, steps=5, seed=1))

    def test_every_iterate_feasible(self):
        rng = np.random.default_rng(12)
        X, y = random_instance(rng, 30, 6)
        lam = 0.3
        seen = []
        cfg = TrainConfig(method="sgd", lam=lam, eta0=1.0, batch=2, steps=300, seed=7)
        fit_sgd(X, y, cfg, observer=lambda t, w: seen.append((t, np.linalg.norm(w))))
        assert len(seen) == 300
        assert seen[0] == (1, 0.0)
        assert all(norm <= lam * (1 + 1e-12) for _, norm in seen)

    def test_approaches_ols_risk(self):
        rng = np.random.default_rng(13)
        X, y = random_instance(rng, 64, 4)
        _, free = fit_ols(X, y)
        cfg = TrainConfig(method="sgd", lam=50.0, eta0=0.05, batch=16, steps=20000, seed=3)
        _, diag = fit_sgd(X, y, cfg)
        assert diag.empirical_risk - free.empirical_risk <= 0.05 * (1 + free.empirical_risk)

    def test_averaged_variant_feasible_and_reported(self):
        rng = np.random.default_rng(14)
        X, y = random_instance(rng, 40, 5)
        cfg = TrainConfig(
            method="sgd", lam=1.0, eta0=0.2, batch=8, steps=500, seed=9, average=True
        )
        W, diag = fit_sgd(X, y, cfg)
        assert np.linalg.norm(W) <= 1.0 + 1e-12
        r = X @ W - y
        assert diag.empirical_risk == pytest.approx(r @ r / len(y))

    def test_memory_does_not_grow_with_steps(self):
        X, y = random_instance(np.random.default_rng(16), 1000, 50)

        def peak(steps):
            cfg = TrainConfig(method="sgd", lam=5.0, eta0=0.05, steps=steps, seed=2)
            tracemalloc.start()
            try:
                fit_sgd(X, y, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20)  # one-off allocations of a first call
        # one gather of 16 x 64 indices, labels and 50-feature rows, whatever
        # the step count; an 8 192 x 64 block of indices alone is 4 MB
        gather_bytes = _SGD_GATHER * 64 * (1 + 1 + 50) * 8
        assert peak(20_000) <= peak(2_000) + 2**16
        assert peak(20_000) <= gather_bytes + 2**16

    def test_dispatch(self):
        rng = np.random.default_rng(15)
        X, y = random_instance(rng, 20, 4)
        for cfg in (
            TrainConfig(method="ols"),
            TrainConfig(method="constrained", lam=1.0),
            TrainConfig(method="sgd", lam=1.0, eta0=0.1, steps=20, seed=0),
        ):
            W, diag = fit(X, y, cfg)
            assert W.shape == (4,)
            assert diag.empirical_risk >= 0


def sgd_per_step(X, y, config, observer=None):
    """The per-step SGD loop: fresh arrays and project_ball on every step."""

    n, N = X.shape
    batch = config.batch if config.batch is not None else min(n, 64)
    W = np.zeros(N)
    if observer is not None:
        observer(1, W.copy())
    total = W.copy() if config.average else None
    idx_stream = substream(config.seed, _SGD_INDEX_STREAM)
    t = 1
    while t < config.steps:
        rows = min(8192, config.steps - t)
        J = idx_stream.integers(0, n, size=(rows, batch))
        for k in range(rows):
            Xb = X[J[k]]
            grad = (2.0 / batch) * (Xb.T @ (Xb @ W - y[J[k]]))
            W = project_ball(W - config.eta0 / math.sqrt(t) * grad, config.lam)
            t += 1
            if observer is not None:
                observer(t, W.copy())
            if total is not None:
                total += W
    out = total / config.steps if total is not None else W
    r = X @ out - y
    return out, FitDiagnostics(empirical_risk=float(r @ r / y.size), steps_run=config.steps - 1)


class TestSgdAgainstPerStepLoop:
    # fit_sgd draws the indices and gathers the rows of several steps at
    # once and updates W in place; the per-step loop above, which draws
    # its indices in 8 192-row blocks, is its oracle, bit for bit

    @pytest.mark.parametrize("average", [False, True], ids=["last", "averaged"])
    @pytest.mark.parametrize("lam", [0.3, 1e3], ids=["projected", "free"])
    @pytest.mark.parametrize(
        "n, N, batch, steps, prefix",
        [
            (40, 6, 8, 300, False),
            (40, 6, 5, 8192 + 37, False),  # a second index block and a partial gather
            (12, 5, 12, 100, False),  # batch == n
            (30, 1, 4, 200, False),  # N == 1
            (40, 6, 8, 300, True),  # a column-prefix view, as fit_widths passes it
        ],
        ids=["plain", "two_blocks", "batch_is_n", "one_feature", "prefix_view"],
    )
    def test_same_bits_as_the_per_step_loop(self, n, N, batch, steps, prefix, lam, average):
        rng = np.random.default_rng(n * N + steps)
        wide = np.maximum(rng.standard_normal((n, N + 3 if prefix else N)), 0.0)
        X = wide[:, :N]
        assert X.flags.c_contiguous != prefix
        y = 3.0 * rng.standard_normal(n)
        cfg = TrainConfig(method="sgd", lam=lam, eta0=0.2, batch=batch, steps=steps, seed=n + steps, average=average)
        got, want = [], []
        W, diag = fit_sgd(X, y, cfg, observer=lambda t, w: got.append((t, w)))
        W_ref, diag_ref = sgd_per_step(X, y, cfg, observer=lambda t, w: want.append((t, w)))
        assert np.array_equal(W, W_ref)
        assert diag == diag_ref
        assert [t for t, _ in got] == [t for t, _ in want] == list(range(1, steps + 1))
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))
        # the radius binds on some iterate exactly when it is meant to
        norms = [np.linalg.norm(w) for _, w in want]
        assert (max(norms) > lam * (1 - 1e-12)) == (lam < 1.0)


def drawn_in_pieces(stream, rows, piece, draw):
    """``rows`` rows of ``draw(stream, k)``, drawn ``piece`` rows at a time."""

    return np.concatenate([draw(stream, min(piece, rows - t)) for t in range(0, rows, piece)])


class TestDrawsInPieces:
    # fit_sgd draws each gather's indices as it uses them, and the oracle
    # sgd_per_step draws 8 192-row blocks: both must read the same values

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 70),
        n=st.sampled_from([1, 2, 7, 1000, 2**32 + 5]), rows=st.integers(1, 2 * 8192 + 40),
    )
    @example(seed=0, batch=64, n=1000, rows=8192 + 37)
    @example(seed=1, batch=5, n=7, rows=2 * 8192 + 13)
    @example(seed=2, batch=1, n=2**32 + 5, rows=8192 + 1)
    @example(seed=3, batch=70, n=2, rows=8191)
    def test_gather_draws_equal_block_draws(self, seed, batch, n, rows):
        def draw(stream, k):
            return stream.integers(0, n, size=(k, batch))

        got = drawn_in_pieces(substream(seed, _SGD_INDEX_STREAM), rows, _SGD_GATHER, draw)
        want = drawn_in_pieces(substream(seed, _SGD_INDEX_STREAM), rows, 8192, draw)
        assert got.shape == (rows, batch) and np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), rows=st.integers(1, 3000),
        piece=st.integers(1, 700),
    )
    @example(seed=0, d=3, rows=2048 + 5, piece=_SGD_GATHER)
    def test_input_rows_drawn_in_pieces_equal_one_draw(self, seed, d, rows, piece):
        def draw(stream, k):
            return stream.uniform(-2.0, 2.0, size=(k, d))

        got = drawn_in_pieces(substream(seed, _X_STREAM), rows, piece, draw)
        assert np.array_equal(got, draw(substream(seed, _X_STREAM), rows))


class TestRiskAndErrorEstimate:
    def zero_net(self, d=1, N=3, cap=None):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=N, d=d, seed=0)
        return RandomFeatureNet(hidden=hidden, W=np.zeros(N), cap=cap)

    def test_constant_zero_net(self):
        data = make_dataset(np.zeros((2, 1)), [1.0, -1.0])
        assert empirical_risk(self.zero_net(), data) == 1.0

    def test_perfect_fit_risk_zero(self):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=5, d=2, seed=3)
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, (30, 2))
        W = rng.standard_normal(5)
        net = RandomFeatureNet(hidden=hidden, W=W)
        data = make_dataset(X, design_matrix(hidden, X).values @ W)
        assert empirical_risk(net, data) == pytest.approx(0.0, abs=1e-28)

    def test_matches_loop_oracle(self):
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=4, d=2, seed=5)
        rng = np.random.default_rng(17)
        X = rng.uniform(-1, 1, (11, 2))
        y = rng.standard_normal(11)
        net = RandomFeatureNet(hidden=hidden, W=rng.standard_normal(4), cap=0.5)
        raw = np.maximum(X @ hidden.A.T + hidden.B, 0.0) @ net.W
        assert (np.abs(raw) > 0.5).any() and (np.abs(raw) < 0.5).any()
        oracle = sum((p - yi) ** 2 for p, yi in zip(np.clip(raw, -0.5, 0.5), y)) / 11
        assert empirical_risk(net, make_dataset(X, y)) == pytest.approx(oracle, rel=1e-12)

    def test_cap_participates(self):
        data = make_dataset(np.zeros((1, 1)), [3.0])
        hidden = sample_hidden_weights(WeightDistributionSpec(), N=1, d=1, seed=0)
        big = RandomFeatureNet(hidden=hidden, W=np.full(1, 100.0), cap=1.0)
        pred = float(np.clip(100.0 * max(hidden.B[0], 0.0), -1.0, 1.0))
        assert empirical_risk(big, data) == pytest.approx((pred - 3.0) ** 2)

    def test_error_estimate_hand_value(self):
        test = make_dataset(np.zeros((4, 1)), [3.0, 4.0, 0.0, 0.0])
        assert empirical_risk(self.zero_net(), test) == pytest.approx(6.25)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(18)
        X = rng.uniform(-1, 1, (20, 1))
        y = rng.standard_normal(20)
        net = self.zero_net()
        perm = rng.permutation(20)
        a = empirical_risk(net, make_dataset(X, y))
        b = empirical_risk(net, make_dataset(X[perm], y[perm]))
        assert a == pytest.approx(b, rel=1e-12)
