import json
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmo_rfn import data as data_module
from kolmo_rfn import experiments as experiments_module
from kolmo_rfn import fourier, levy
from kolmo_rfn import train as train_module
from kolmo_rfn.config import model_from_dict, model_to_dict
from kolmo_rfn.data import Dataset, LognormalSpec, basket_weights, gen_basket_put_dataset, gen_pde_dataset
from kolmo_rfn.experiments import (
    _HIDDEN,
    _ORACLE,
    _TEST_DATA,
    _TRAIN_DATA,
    _pde_data,
    ExperimentSpec,
    fit_log_slope,
    run_basket_put,
    run_experiment,
    run_oracle_convergence,
    run_rate_curve,
    run_sgd_vs_ols,
    write_report,
)
from kolmo_rfn.levy import (
    LevyTriplet,
    bs_put_price,
    equal_correlation_sigma,
    max_call,
    risk_neutral_gamma,
    table,
    tent,
)
from kolmo_rfn.network import (
    ROW_BLOCK,
    RandomFeatureNet,
    WeightDistributionSpec,
    design_matrix,
    pi_b,
    pi_w,
    predict,
    sample_hidden_weights,
    subnetwork,
)
from kolmo_rfn.rng import derive_seed
from kolmo_rfn.train import TrainConfig, empirical_risk, fit, fit_ols, fit_widths


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# config_hash of each shipped config; a refactor must leave these alone
SHIPPED_CONFIG_HASHES = {
    "basket_put": "3df5ccdbdbd39e6c18588160badaaa6c7e205c2fddc1da4335a3ffe52b39ec83",
    "oracle_convergence": "4846d833f01a785e3ef52116b5d7ec0387a48334d5417aa90b9db7eb2d13c330",
    "rate_curve_desk": "ba04e58c11e1a0516789001760243247da1b51fec23c1f91bfb4550b586bd1fd",
    "rate_curve_full": "f0ab252c162a222059c4079c993624f4b59fc95fcab1bcbee62b331d55a4a4f8",
    "sgd_vs_ols": "58ad5fd0442686b1156876cfb52c7271cb5781bb9e967d925ef24b6dacbe64b9",
}


def bs_triplet(d=2, sigma=0.2, rho=0.2):
    cov = equal_correlation_sigma(sigma, rho, d)
    return LevyTriplet(sigma=cov, gamma=risk_neutral_gamma(cov))


def small_rate_spec(**overrides):
    base = dict(
        kind="rate_curve",
        model=bs_triplet(),
        payoff=max_call(1.0, 2),
        M=1.0,
        T=1.0,
        n_train=800,
        n_test=200,
        N_list=(5, 10, 20),
        train=(TrainConfig(method="ols"),),
        master_seed=7,
        paths=50,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def rows_without_wall(report):
    # wall-clock entries are the one nondeterministic column
    wall_cols = {i for i, c in enumerate(report.columns) if c == "wall_ms"}
    return [tuple(v for i, v in enumerate(r) if i not in wall_cols) for r in report.rows]


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="parade")

    def test_empty_N_list(self):
        with pytest.raises(ValueError):
            small_rate_spec(N_list=())

    def test_nonincreasing_N_list(self):
        with pytest.raises(ValueError):
            small_rate_spec(N_list=(10, 10))
        with pytest.raises(ValueError):
            small_rate_spec(N_list=(20, 10))

    def test_nonpositive_N(self):
        with pytest.raises(ValueError):
            small_rate_spec(N_list=(0, 10))

    def test_n_test_at_least_one(self):
        with pytest.raises(ValueError):
            small_rate_spec(n_test=0)

    @pytest.mark.parametrize(
        "field, value",
        [("oracle_seeds", 0), ("sgd_seeds", 0), ("sgd_seeds", -1), ("test_paths", 0), ("test_paths", -5)],
    )
    def test_counts_at_least_one(self, field, value):
        # an explicit zero is an error, not a silent default or a NaN row
        with pytest.raises(ValueError, match=field):
            small_rate_spec(**{field: value})
        doc = small_rate_spec().to_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=field):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize(
        "field, value", [("grid_points", 1), ("grid_points", 0), ("basket_weights", []), ("checkpoints", [])]
    )
    def test_degenerate_values_rejected(self, field, value):
        # a one-point grid scores a single strike and an empty one none; an
        # empty list is an error, not an absent field's default
        with pytest.raises(ValueError, match=field):
            small_rate_spec(**{field: value})
        doc = small_rate_spec().to_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=field):
            ExperimentSpec.from_dict(doc)

    def test_single_train_config_normalizes_to_tuple(self):
        spec = small_rate_spec(train=TrainConfig(method="ols"))
        assert spec.train == (TrainConfig(method="ols"),)

    def test_dict_round_trip_preserves_hash(self):
        spec = small_rate_spec()
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.config_hash() == spec.config_hash()
        assert again.N_list == spec.N_list
        assert again.train == spec.train

    def test_dict_round_trip_with_output_path(self):
        doc = small_rate_spec(output_path="runs/r").to_dict()
        assert ExperimentSpec.from_dict(doc).to_dict() == doc

    def test_unknown_top_level_key_rejected(self):
        doc = {"kind": "rate_curve", "n_trian": 5000, "N_list": [5]}
        with pytest.raises(ValueError, match="n_trian"):
            ExperimentSpec.from_dict(doc)

    def test_unknown_weights_key_rejected(self):
        doc = small_rate_spec().to_dict()
        doc["weights"]["b_doff"] = 3.0
        with pytest.raises(ValueError, match="b_doff"):
            ExperimentSpec.from_dict(doc)

    def test_unknown_train_key_rejected(self):
        doc = small_rate_spec().to_dict()
        doc["train"][0]["capp"] = 1.0
        with pytest.raises(ValueError, match="capp"):
            ExperimentSpec.from_dict(doc)

    def test_hash_ignores_output_path(self):
        a = small_rate_spec(output_path=None)
        b = small_rate_spec(output_path="somewhere/else")
        assert a.config_hash() == b.config_hash()

    def test_hash_sees_seed_change(self):
        assert small_rate_spec(master_seed=1).config_hash() != small_rate_spec().config_hash()

    @pytest.mark.parametrize("name, digest", sorted(SHIPPED_CONFIG_HASHES.items()))
    def test_shipped_config_hash_is_pinned(self, name, digest):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        assert ExperimentSpec.from_dict(doc).config_hash() == digest

    def test_hyphenated_kind_accepted(self):
        doc = small_rate_spec().to_dict()
        doc["kind"] = "rate-curve"
        assert ExperimentSpec.from_dict(doc).kind == "rate_curve"


class TestModelDicts:
    def test_equal_correlation_form(self):
        doc = {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 3}
        trip = model_from_dict(doc)
        np.testing.assert_allclose(trip.sigma, equal_correlation_sigma(0.2, 0.2, 3))
        np.testing.assert_allclose(trip.gamma, risk_neutral_gamma(trip.sigma))

    def test_triplet_round_trip(self):
        trip = bs_triplet(d=2)
        again = model_from_dict(model_to_dict(trip))
        np.testing.assert_array_equal(again.sigma, trip.sigma)
        np.testing.assert_array_equal(again.gamma, trip.gamma)
        assert again.jumps is None

    def test_jumps_round_trip(self):
        doc = {
            "type": "equal_correlation", "sigma": 0.2, "rho": 0.1, "d": 1,
            "jumps": {"intensity": 2.0, "atoms": [[0.3, [0.4]], [0.7, [-0.2]]], "radius": 1.5},
        }
        trip = model_from_dict(doc)
        again = model_from_dict(model_to_dict(trip))
        assert again.jumps.intensity == 2.0
        p1, y1 = trip.jumps.arrays()
        p2, y2 = again.jumps.arrays()
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(again.gamma, trip.gamma)

    def test_unknown_model_type(self):
        with pytest.raises(ValueError):
            model_from_dict({"type": "heston", "sigma": 0.2})

    def test_unknown_drift_rule(self):
        with pytest.raises(ValueError):
            model_from_dict(
                {"type": "equal_correlation", "sigma": 0.2, "rho": 0.1, "d": 1, "gamma": "real_world"}
            )

    @pytest.mark.parametrize(
        "model, typo",
        [
            ({"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 2, "gama": [0.0, 0.0]}, "gama"),
            ({"type": "triplet", "sigma": [[0.04]], "rho": 0.2}, "rho"),
            ({"sigma": [[0.04]], "gamma": [0.0], "T": 1.0}, "T"),
            (
                {
                    "type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 1,
                    "jumps": {"intensity": 1.0, "atoms": [[1.0, [0.1]]], "radus": 3.0},
                },
                "radus",
            ),
            ({"type": "lognormal", "s0": [1.0], "cov": [[0.04]], "TT": 2.0}, "TT"),
            ({"type": "lognormal", "s0": [1.0, 1.0], "cov": {"sigma": 0.2, "rh": 0.2, "d": 2}}, "rh"),
        ],
        ids=["equal_correlation", "triplet", "default_type", "jumps", "lognormal", "lognormal_cov"],
    )
    def test_unknown_model_key_rejected(self, model, typo):
        doc = small_rate_spec().to_dict()
        doc["model"] = model
        with pytest.raises(ValueError, match=rf"unknown keys \['{typo}'\]"):
            ExperimentSpec.from_dict(doc)

    def test_every_allowed_model_key_loads(self):
        jumps = {"intensity": 1.0, "atoms": [[1.0, [0.1, 0.0]]], "radius": 2.0}
        ec = {
            "type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 2,
            "gamma": [0.0, 0.0], "jumps": jumps,
        }
        assert model_from_dict(ec).jumps.radius == 2.0
        trip = {"type": "triplet", "sigma": [[0.04]], "gamma": [0.01], "jumps": None}
        assert model_from_dict(trip).gamma.tolist() == [0.01]
        cov = {"sigma": 0.2, "rho": 0.5, "d": 2}
        logn = {"type": "lognormal", "s0": [1.0, 1.0], "cov": cov, "T": 2.0}
        np.testing.assert_allclose(model_from_dict(logn).cov, equal_correlation_sigma(0.2, 0.5, 2))

    @pytest.mark.parametrize("kind", ["heston", "triplet", None])
    def test_lognormal_needs_its_type(self, kind):
        doc = {"s0": [1.0], "cov": [[0.04]]}
        if kind is not None:
            doc["type"] = kind
        with pytest.raises(ValueError, match=f"model type {kind!r}"):
            model_from_dict(doc, ("lognormal",))

    def test_lognormal_round_trip(self):
        spec = LognormalSpec(s0=np.array([1.0, 0.9]), cov=equal_correlation_sigma(0.3, 0.5, 2), T=2.0)
        again = model_from_dict(model_to_dict(spec))
        np.testing.assert_array_equal(again.s0, spec.s0)
        np.testing.assert_array_equal(again.cov, spec.cov)
        assert again.T == 2.0


class TestSlopeFitter:
    def test_exact_power_law(self):
        Ns = [10, 20, 40, 80, 160]
        errs = [0.7 / math.sqrt(N) for N in Ns]
        assert fit_log_slope(Ns, errs) == pytest.approx(-0.5, abs=1e-12)

    def test_excludes_N1_by_default(self):
        Ns = [1, 10, 100]
        errs = [99.0, 0.1, 0.01]
        assert fit_log_slope(Ns, errs) == pytest.approx(-1.0, abs=1e-12)
        # opting in changes the fit
        assert fit_log_slope(Ns, errs, exclude_n1=False) != pytest.approx(-1.0, abs=1e-3)

    def test_ignores_nonfinite_and_nonpositive(self):
        Ns = [10, 20, 40, 80]
        errs = [0.5 / math.sqrt(N) for N in Ns]
        errs[1] = math.nan
        errs[2] = 0.0
        assert fit_log_slope(Ns, errs) == pytest.approx(-0.5, abs=1e-12)

    def test_too_few_points_gives_nan(self):
        assert math.isnan(fit_log_slope([10], [0.5]))
        assert math.isnan(fit_log_slope([1, 10], [0.5, 0.1]))


class TestRateCurve:
    def test_deterministic_given_seed(self):
        a = run_rate_curve(small_rate_spec())
        b = run_rate_curve(small_rate_spec())
        assert rows_without_wall(a) == rows_without_wall(b)
        assert a.config_hash == b.config_hash

    def test_seed_changes_errors(self):
        a = run_rate_curve(small_rate_spec())
        b = run_rate_curve(small_rate_spec(master_seed=8))
        assert [r[1] for r in a.rows] != [r[1] for r in b.rows]

    def test_test_set_size_does_not_touch_training(self):
        a = run_rate_curve(small_rate_spec(n_test=100))
        b = run_rate_curve(small_rate_spec(n_test=400))
        assert [r[2] for r in a.rows] == [r[2] for r in b.rows]

    def test_one_row_per_N(self):
        rep = run_rate_curve(small_rate_spec())
        assert [r[0] for r in rep.rows] == [5, 10, 20]
        assert rep.columns == ("N", "e_hat", "train_risk", "wall_ms")
        assert rep.e0 == rep.rows[0][1]

    def test_perfect_fit_on_realizable_target(self):
        # labels come from the exact 1-feature net the runner will draw
        spec = small_rate_spec(N_list=(1,), n_train=50, n_test=30)
        w_spec = WeightDistributionSpec()
        hidden = sample_hidden_weights(w_spec, 1, 2, derive_seed(spec.master_seed, 3))
        target = RandomFeatureNet(hidden=hidden, W=np.array([0.8]))
        rng = np.random.default_rng(0)
        X_train = rng.uniform(-1, 1, size=(50, 2))
        X_test = rng.uniform(-1, 1, size=(30, 2))

        def ds(X):
            return Dataset(
                X=X, Y=predict(target, X), label_kind="single_draw", seed=0, M=1.0, T=1.0
            )

        rep = run_rate_curve(spec, datasets=(ds(X_train), ds(X_test)))
        assert rep.rows[0][1] <= 1e-10
        assert math.isnan(rep.slope)

    @pytest.mark.parametrize("whole_blocks", [False, True])
    @pytest.mark.parametrize("cap", [None, 0.05])
    def test_rows_match_the_materialized_design(self, whole_blocks, cap):
        # several row blocks on both sides, the last one short or whole;
        # the cap clips most predictions
        spec = small_rate_spec(train=(TrainConfig(method="ols", cap=cap),))
        n_train, n_test = (2 * ROW_BLOCK, ROW_BLOCK) if whole_blocks else (ROW_BLOCK + 904, ROW_BLOCK + 1)
        train = gen_pde_dataset(spec.model, spec.payoff, spec.M, spec.T, n_train, seed=1)
        test = gen_pde_dataset(spec.model, spec.payoff, spec.M, spec.T, n_test, seed=2)
        rep = run_rate_curve(spec, datasets=(train, test))
        for N, e_hat, risk, _ in rep.rows:
            hidden = sample_hidden_weights(spec.weight_spec, N, 2, derive_seed(spec.master_seed, 3))
            W, diag = fit_ols(design_matrix(hidden, train.X).values, train.Y)
            assert risk == pytest.approx(diag.empirical_risk, rel=1e-10)
            net = RandomFeatureNet(hidden=hidden, W=W, cap=cap)
            assert e_hat == pytest.approx(math.sqrt(empirical_risk(net, test)), rel=1e-10)
            assert rep.extras["effective_rank"][str(N)] == diag.effective_rank

    def test_width_subset_matches_full_run(self):
        # every width solves from one R whose size follows the largest
        # width, so a subset's rows agree with the full run's to rounding
        full = rows_without_wall(run_rate_curve(small_rate_spec(N_list=(5, 10, 20))))
        part = rows_without_wall(run_rate_curve(small_rate_spec(N_list=(5, 10))))
        assert [r[0] for r in part] == [5, 10]
        for a, b in zip(part, full):
            assert a[1:] == pytest.approx(b[1:], rel=1e-12)

    def test_effective_rank_matches_ols_on_dead_features(self):
        # a handful of distinct inputs leaves the design rank deficient and
        # kills every feature that is off at all of them
        rng = np.random.default_rng(5)
        points = rng.uniform(0.5, 1.5, (4, 2))
        X = points[rng.integers(0, 4, 600)]
        train = Dataset(X=X, Y=X.sum(axis=1), label_kind="single_draw", seed=0, M=1.0, T=1.0)
        test = Dataset(X=points, Y=points.sum(axis=1), label_kind="single_draw", seed=1, M=1.0, T=1.0)
        spec = small_rate_spec(N_list=(5, 20, 60))
        rep = run_rate_curve(spec, datasets=(train, test))
        hidden = sample_hidden_weights(spec.weight_spec, 60, 2, derive_seed(spec.master_seed, 3))
        design = design_matrix(hidden, X).values
        assert (~design.any(axis=0)).sum() > 0
        expected = {str(N): fit_ols(design[:, :N], train.Y)[1].effective_rank for N in spec.N_list}
        assert rep.extras["effective_rank"] == expected
        assert max(expected.values()) <= 4

    @pytest.mark.parametrize("first_block", [False, True])
    def test_failed_fold_fails_every_width_it_serves(self, first_block):
        spec = small_rate_spec()
        train = gen_pde_dataset(spec.model, spec.payoff, spec.M, spec.T, ROW_BLOCK + 10, seed=1)
        bad_y = train.Y.copy()
        bad_y[0 if first_block else -1] = math.inf  # the fold's first or second row block
        train = Dataset(X=train.X, Y=bad_y, label_kind="single_draw", seed=1, M=spec.M, T=spec.T)
        test = gen_pde_dataset(spec.model, spec.payoff, spec.M, spec.T, 50, seed=2)
        rep = run_rate_curve(spec, datasets=(train, test))
        assert [r[0] for r in rep.rows] == list(spec.N_list)
        assert all(math.isnan(r[1]) and math.isnan(r[2]) for r in rep.rows)
        assert [e["N"] for e in rep.extras["errors"]] == list(spec.N_list)
        assert all("finite" in e["error"] for e in rep.extras["errors"])
        assert "effective_rank" not in rep.extras

    def test_failed_fit_is_recorded_not_raised(self):
        # batch larger than the training set makes every sgd fit fail
        spec = small_rate_spec(
            train=(TrainConfig(method="sgd", lam=10.0, eta0=0.1, steps=10, batch=5000),),
        )
        rep = run_rate_curve(spec)
        assert len(rep.rows) == 3
        assert all(math.isnan(r[1]) for r in rep.rows)
        assert math.isnan(rep.slope)
        assert len(rep.extras["errors"]) == 3

    def test_report_files_and_slope_refit(self, tmp_path):
        out = tmp_path / "runs" / "rate"
        rep = run_rate_curve(small_rate_spec(output_path=str(out)))
        csv_path = out.with_suffix(".csv")
        json_path = out.with_suffix(".json")
        assert csv_path.exists() and json_path.exists()

        header = csv_path.read_text().splitlines()[0]
        assert header == "N,e_hat,train_risk,wall_ms"
        table_vals = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        refit = fit_log_slope(table_vals[:, 0], table_vals[:, 1])
        assert refit == pytest.approx(rep.slope, rel=1e-12)

        summary = json.loads(json_path.read_text())
        for key in ("slope", "e0", "seed", "config_hash"):
            assert key in summary
        assert summary["config_hash"] == rep.config_hash
        assert summary["slope"] == pytest.approx(rep.slope, rel=1e-15)

    def test_reports_the_test_label_noise_floor(self):
        spec = small_rate_spec()
        rep = run_rate_curve(spec)
        test_ds = gen_pde_dataset(
            spec.model, spec.payoff, spec.M, spec.T, spec.n_test, label_kind="mc_price",
            seed=derive_seed(spec.master_seed, 2), paths=spec.paths,
        )
        assert rep.extras["test_label_se_rms"] == math.sqrt(np.mean(test_ds.label_se ** 2))
        assert 0 < rep.extras["test_label_se_rms"] < 0.1

    def test_no_noise_floor_for_single_draw_test_labels(self):
        rep = run_rate_curve(small_rate_spec(test_label_kind="single_draw"))
        assert "test_label_se_rms" not in rep.extras

    def test_dispatch_by_kind(self):
        rep = run_experiment(small_rate_spec())
        assert rep.kind == "rate_curve"

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError):
            run_rate_curve(small_rate_spec(kind="basket_put", model=LognormalSpec(
                s0=np.array([1.0]), cov=np.array([[0.04]]), T=1.0)))


class TestTestSetWorker:
    """A generated test set is drawn on a worker thread while the train design folds."""

    @staticmethod
    def _recorded_pde_data(monkeypatch, fail_test_set=False):
        """Record, per data stream, whether the main thread drew it."""

        real = experiments_module._pde_data
        on_main = {}

        def recorded(spec, stream, *args):
            on_main[stream] = threading.current_thread() is threading.main_thread()
            if fail_test_set and stream == _TEST_DATA:
                raise ValueError("test set failed")
            return real(spec, stream, *args)

        monkeypatch.setattr(experiments_module, "_pde_data", recorded)
        return on_main

    def test_rows_equal_those_of_the_supplied_datasets(self, monkeypatch):
        # 600 paths x 2 normals a test row: its labels take a helper thread as well
        spec = small_rate_spec(test_paths=600, train=(TrainConfig(method="constrained", lam=5.0),))
        train = _pde_data(spec, _TRAIN_DATA, spec.n_train, spec.label_kind, spec.paths)
        test = _pde_data(spec, _TEST_DATA, spec.n_test, "mc_price", spec.test_paths)
        on_main = self._recorded_pde_data(monkeypatch)
        before = threading.enumerate()
        drawn = run_rate_curve(spec)
        assert threading.enumerate() == before
        assert on_main == {_TRAIN_DATA: True, _TEST_DATA: False}

        counts = []
        real_fit = experiments_module.fit

        def counting(*args):
            counts.append(threading.active_count())
            return real_fit(*args)

        monkeypatch.setattr(experiments_module, "fit", counting)
        supplied = run_rate_curve(spec, datasets=(train, test))
        assert threading.enumerate() == before
        assert counts == [len(before)] * len(spec.N_list)  # no worker beside the fits
        assert rows_without_wall(drawn) == rows_without_wall(supplied)
        assert drawn.slope == supplied.slope and drawn.extras == supplied.extras
        assert "errors" not in drawn.extras and "test_label_se_rms" in drawn.extras

    def test_a_test_set_error_comes_out_of_the_run(self, monkeypatch):
        # a ValueError, which a failed width would be recorded for, still raises
        on_main = self._recorded_pde_data(monkeypatch, fail_test_set=True)
        before = threading.enumerate()
        with pytest.raises(ValueError, match="test set failed"):
            run_rate_curve(small_rate_spec(test_paths=600))
        assert threading.enumerate() == before
        assert on_main == {_TRAIN_DATA: True, _TEST_DATA: False}

    def test_a_failed_fold_fails_every_width(self, monkeypatch):
        def failing(*args):
            raise np.linalg.LinAlgError("LAPACK dtpqrt failed with info = -4")

        monkeypatch.setattr(train_module, "_fold", failing)
        spec = small_rate_spec(test_paths=600)
        before = threading.enumerate()
        rep = run_rate_curve(spec)
        assert threading.enumerate() == before
        assert all(math.isnan(r[1]) and math.isnan(r[2]) for r in rep.rows)
        assert rep.extras["errors"] == [
            {"N": N, "error": "LAPACK dtpqrt failed with info = -4"} for N in spec.N_list
        ]
        assert rep.extras["n_test"] == spec.n_test and rep.extras["test_label_se_rms"] > 0

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_error_on_this_thread_stops_the_test_set(self, monkeypatch, error):
        # KeyboardInterrupt stands for a Ctrl-C during the fold
        spec = small_rate_spec(n_test=20000, test_paths=600)
        started = threading.Event()
        drawn = []  # one entry per test row whose paths were drawn
        real_draw = levy.IncrementSampler.draw

        def draw(sampler, gen, z):
            drawn.append(None)
            started.set()
            return real_draw(sampler, gen, z)

        def failing_fit(*args, **kwargs):
            assert started.wait(30)  # the worker is drawing test labels
            raise error("fit failed")

        monkeypatch.setattr(levy.IncrementSampler, "draw", draw)
        monkeypatch.setattr(experiments_module, "fit_widths", failing_fit)
        before = threading.enumerate()
        with pytest.raises(error, match="fit failed"):
            run_rate_curve(spec)
        assert threading.enumerate() == before
        # the worker stopped at its next block of 13 rows instead of drawing all 20 000
        assert 0 < len(drawn) < spec.n_test // 4


class _Injected(Exception):
    """A failure a test injects."""


def _call_bounded(call, timeout=60.0):
    """``call()`` on a daemon thread joined for at most ``timeout`` s, so a hang fails the test."""

    out = {}

    def run():
        try:
            out["value"] = call()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"no return within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def small_basket_spec(**overrides):
    base = dict(
        kind="basket_put",
        model=LognormalSpec(s0=np.array([1.0]), cov=np.array([[0.04]]), T=1.0),
        M=1.0,
        n_train=600,
        n_test=150,
        N_list=(40,),
        paths=40,
        train=(TrainConfig(method="ols"),),
        master_seed=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestBasketPut:
    def test_row_per_trainer_and_N(self):
        spec = small_basket_spec(
            N_list=(20, 40),
            train=(TrainConfig(method="ols"), TrainConfig(method="constrained", lam=50.0)),
        )
        rep = run_basket_put(spec)
        assert rep.columns == ("method", "N", "e_hat", "train_risk", "wall_ms")
        assert [(r[0], r[1]) for r in rep.rows] == [
            ("ols", 20), ("ols", 40), ("constrained", 20), ("constrained", 40)
        ]

    def test_one_fold_serves_every_least_squares_config(self, monkeypatch):
        configs = (
            TrainConfig(method="ols"),
            TrainConfig(method="sgd", lam=5.0, eta0=0.05, steps=200),
            TrainConfig(method="constrained", lam=0.05),
        )
        # two blocks a fold
        spec = small_basket_spec(n_train=ROW_BLOCK + 100, N_list=(20, 40), train=configs)
        folded = []
        real_fold = train_module._fold_block

        def counting(*args):
            folded.append(None)
            return real_fold(*args)

        monkeypatch.setattr(train_module, "_fold_block", counting)
        rep = run_basket_put(spec)
        assert len(folded) == 2
        alone = [run_basket_put(replace(spec, train=(cfg,))) for cfg in configs]
        assert len(folded) == 2 + 2 + 2  # the sgd spec folds nothing
        assert rows_without_wall(rep) == [row for one in alone for row in rows_without_wall(one)]
        assert rep.extras["rmse_closed_form"] == {
            cfg.method: one.extras["rmse_closed_form"][cfg.method] for cfg, one in zip(configs, alone)
        }

    def test_single_asset_reports_closed_form_rmse(self):
        rep = run_basket_put(small_basket_spec())
        rmse = rep.extras["rmse_closed_form"]["ols"]
        assert 0 <= rmse < 0.05

    def test_multi_asset_has_no_closed_form(self):
        spec = small_basket_spec(
            model=LognormalSpec(
                s0=np.array([1.0, 1.0]), cov=equal_correlation_sigma(0.2, 0.3, 2), T=1.0
            ),
        )
        rep = run_basket_put(spec)
        assert "rmse_closed_form" not in rep.extras

    def test_deterministic(self):
        a = run_basket_put(small_basket_spec())
        b = run_basket_put(small_basket_spec())
        assert rows_without_wall(a) == rows_without_wall(b)

    def test_constrained_risk_not_below_ols(self):
        # tight ball: the constrained fit optimizes over a subset
        spec = small_basket_spec(
            train=(TrainConfig(method="ols"), TrainConfig(method="constrained", lam=0.05)),
        )
        rep = run_basket_put(spec)
        by_method = {r[0]: r[3] for r in rep.rows}
        assert by_method["constrained"] >= by_method["ols"] - 1e-15

    def test_needs_lognormal_model(self):
        with pytest.raises(ValueError):
            run_basket_put(small_basket_spec(model=bs_triplet()))

    def test_a_repeated_method_is_rejected(self):
        # rows and rmse_closed_form are keyed by method: a second constrained
        # config would overwrite the first one's closed-form RMSE
        spec = small_basket_spec(
            train=(
                TrainConfig(method="constrained", lam=0.05),
                TrainConfig(method="ols"),
                TrainConfig(method="constrained", lam=50.0),
            ),
        )
        with pytest.raises(ValueError, match="'constrained' is trained twice"):
            run_basket_put(spec)

    @pytest.mark.parametrize("assets", [1, 2])
    @pytest.mark.parametrize("n_train", [30, ROW_BLOCK + 905, 2 * ROW_BLOCK + 905])
    def test_rows_match_the_materialized_design(self, assets, n_train):
        # the reference fits each width on a column prefix of the whole
        # train design and scores it on the whole test and grid designs;
        # 30 rows is fewer than the widest layer, ROW_BLOCK + 905 and
        # 2 ROW_BLOCK + 905 span several blocks with a short tail, and
        # the cap clips the ols fit's predictions near the money
        model = LognormalSpec(s0=np.array([1.0]), cov=np.array([[0.04]]), T=1.0)
        if assets == 2:
            model = LognormalSpec(
                s0=np.array([1.0, 0.9]), cov=equal_correlation_sigma(0.2, 0.3, 2), T=1.0
            )
        spec = small_basket_spec(
            model=model, n_train=n_train, n_test=ROW_BLOCK + 1, N_list=(20, 50),
            train=(
                TrainConfig(method="ols", cap=0.05),
                TrainConfig(method="constrained", lam=5.0),
                TrainConfig(method="sgd", lam=100.0, eta0=0.01, steps=300, seed=4),
            ),
        )
        rep = run_basket_put(spec)

        weights = basket_weights(model, None)
        train, test = (
            gen_basket_put_dataset(model, weights, spec.M, n, seed=derive_seed(spec.master_seed, s),
                                   paths=spec.paths)
            for n, s in ((spec.n_train, 1), (spec.n_test, 2))
        )
        hidden = sample_hidden_weights(spec.weight_spec, 50, 1, derive_seed(spec.master_seed, 3))
        full_train = design_matrix(hidden, train.X).values
        full_test = design_matrix(hidden, test.X).values
        grid = np.linspace(0.0, spec.M, spec.grid_points)
        grid_design = design_matrix(hidden, grid[:, None]).values
        closed = bs_put_price(1.0, grid, 0.2, 1.0)

        def capped_rmse(design, W, Y, cap):
            preds = design @ W
            if cap is not None:
                preds = np.clip(preds, -cap, cap)
            r = preds - Y
            return math.sqrt(float(r @ r / Y.size))

        rows = iter(rep.rows)
        for cfg in spec.train:
            for N in spec.N_list:
                method, width, e_hat, risk, _ = next(rows)
                assert (method, width) == (cfg.method, N)
                W, diag = fit(full_train[:, :N], train.Y, cfg)
                assert risk == pytest.approx(diag.empirical_risk, rel=1e-10)
                assert e_hat == pytest.approx(capped_rmse(full_test[:, :N], W, test.Y, cfg.cap), rel=1e-10)
                if cfg.cap is not None:
                    assert (np.abs(full_test[:, :N] @ W) > cfg.cap).any()
            if assets == 1:  # W is the widest fit's
                assert rep.extras["rmse_closed_form"][cfg.method] == pytest.approx(
                    capped_rmse(grid_design, W, closed, cfg.cap), rel=1e-10
                )
        assert next(rows, None) is None
        assert (assets == 1) == ("rmse_closed_form" in rep.extras)

    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    @pytest.mark.parametrize("n_train", [1_000, 4_099, 9_001])
    def test_rows_equal_the_whole_set_fold(self, monkeypatch, n_train, noise_std):
        # the train rows are folded on a helper thread while their labels
        # are drawn; the reference folds the finished train set with
        # fold_features and runs every step after it on one thread. A
        # block folded before its labels were final would show in R.
        # 1 000 rows is one fold block, 4 099 two with a merged remainder,
        # 9 001 five with a short tail
        spec = small_basket_spec(
            n_train=n_train, noise_std=noise_std, N_list=(20, 50),
            train=(
                TrainConfig(method="ols"),
                TrainConfig(method="constrained", lam=5.0),
                TrainConfig(method="sgd", lam=100.0, eta0=0.01, steps=300, seed=4),
            ),
        )
        folds = []
        real_fit_widths = experiments_module.fit_widths

        def recorded(*args, **kwargs):
            folds.append(kwargs["r"])
            return real_fit_widths(*args, **kwargs)

        monkeypatch.setattr(experiments_module, "fit_widths", recorded)
        before = threading.enumerate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads trade the interpreter often
        try:
            rep = _call_bounded(lambda: run_basket_put(spec))
        finally:
            sys.setswitchinterval(interval)
        assert threading.enumerate() == before

        weights = basket_weights(spec.model, None)
        train, test = (
            gen_basket_put_dataset(spec.model, weights, spec.M, n, noise_std=noise_std,
                                   seed=derive_seed(spec.master_seed, s), paths=spec.paths)
            for n, s in ((spec.n_train, _TRAIN_DATA), (spec.n_test, _TEST_DATA))
        )
        hidden = sample_hidden_weights(spec.weight_spec, 50, 1, derive_seed(spec.master_seed, _HIDDEN))
        r = train_module.fold_features(hidden, train)
        assert all(np.array_equal(got, r) for got in folds)
        grid = np.linspace(0.0, spec.M, spec.grid_points)[:, None]
        closed = bs_put_price(1.0, grid[:, 0], 0.2, 1.0)
        rows, rmse = [], {}
        for cfg in spec.train:
            solved = fit_widths(hidden, spec.N_list, train, cfg, r=r)
            for N in spec.N_list:
                W, diag, _ = solved[N]
                net = RandomFeatureNet(subnetwork(hidden, N), W, cfg.cap)
                rows.append((cfg.method, N, math.sqrt(empirical_risk(net, test)), diag.empirical_risk))
            err = predict(net, grid) - closed
            rmse[cfg.method] = math.sqrt(float(err @ err / err.size))
        assert rows_without_wall(rep) == rows
        assert rep.extras["rmse_closed_form"] == rmse

    def test_a_failing_fold_block_stops_the_labels(self, monkeypatch):
        # the first fold block fails, and the label draw waits at row 3 000
        # until the labels' stop is set: the caller may finish the label
        # block it is in, but starts no other
        n, paths = 9_001, 40
        spec = small_basket_spec(n_train=n, paths=paths)
        stops, opened = [], []
        gen, keyed = experiments_module.gen_basket_put_dataset, data_module.keyed_generator

        def stop_recorded(*args, **kwargs):
            stops.append(kwargs.get("stop"))
            return gen(*args, **kwargs)

        def recorded(keys):
            open_row = keyed(keys)

            def record(i):
                if len(opened) == 3_000:
                    assert stops[0].wait(timeout=60)
                opened.append((i, stops[0].is_set()))
                return open_row(i)

            return record

        def failing(*args):
            raise _Injected("fold block failed")

        monkeypatch.setattr(experiments_module, "gen_basket_put_dataset", stop_recorded)
        monkeypatch.setattr(data_module, "keyed_generator", recorded)
        monkeypatch.setattr(train_module, "_fold_block", failing)
        before = threading.enumerate()
        with pytest.raises(_Injected, match="fold block failed"):
            _call_bounded(lambda: run_basket_put(spec))
        assert threading.enumerate() == before
        per_block = data_module._ALONE_BLOCK // paths
        assert len({i // per_block for i, stopped in opened if stopped}) == 1
        assert len(opened) < n

    def test_a_failing_label_draw_releases_the_fold(self, monkeypatch):
        # train row 5 000 fails: the two fold blocks whose labels were final
        # are folded, and the helper then ends instead of waiting for more
        spec = small_basket_spec(n_train=9_001)
        keyed = data_module.keyed_generator
        folded = []
        real_fold = train_module._fold_block

        def failing(keys):
            open_row = keyed(keys)

            def open_or_fail(i):
                if i == 5_000:
                    raise _Injected("label row failed")
                return open_row(i)

            return open_or_fail

        def counting(*args):
            folded.append(threading.current_thread())
            return real_fold(*args)

        monkeypatch.setattr(data_module, "keyed_generator", failing)
        monkeypatch.setattr(train_module, "_fold_block", counting)
        before = threading.enumerate()
        with pytest.raises(_Injected, match="label row failed"):
            _call_bounded(lambda: run_basket_put(spec))
        assert threading.enumerate() == before
        assert len(folded) == 2
        assert not set(folded) & set(before)

    def test_never_builds_the_whole_design(self):
        # numpy reports its data allocations to tracemalloc, so a whole
        # n x N train design (or a copy of one) shows in the peak
        n, N = 3 * ROW_BLOCK + 2, 200
        spec = small_basket_spec(n_train=n, n_test=100, N_list=(N,), paths=10)
        tracemalloc.start()
        try:
            run_basket_put(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * N


class TestHeldOutErrorMatchesEvaluate:
    """A report's e_hat is what CLI ``evaluate`` prints for that width's net on the test set.

    W comes from ``fit_widths`` on the same data, so every difference
    would be the scorer's; the cap clips some predictions.
    """

    @pytest.mark.parametrize("cfg", [
        TrainConfig(method="ols"), TrainConfig(method="constrained", lam=0.5, cap=0.05),
    ], ids=["ols", "constrained_capped"])
    def test_rate_curve(self, cfg):
        # a test set of more than one block
        spec = small_rate_spec(train=(cfg,))
        train = gen_pde_dataset(spec.model, spec.payoff, spec.M, spec.T, spec.n_train, seed=1)
        test = gen_pde_dataset(spec.model, spec.payoff, spec.M, spec.T, ROW_BLOCK + 952, seed=2)
        rep = run_rate_curve(spec, datasets=(train, test))
        hidden = sample_hidden_weights(spec.weight_spec, 20, 2, derive_seed(spec.master_seed, _HIDDEN))
        solved = fit_widths(hidden, spec.N_list, train, cfg)
        for N, e_hat, _, _ in rep.rows:
            net = RandomFeatureNet(subnetwork(hidden, N), solved[N][0], cfg.cap)
            assert e_hat == math.sqrt(empirical_risk(net, test))

    def test_basket_put(self):
        spec = small_basket_spec(
            n_test=ROW_BLOCK + 1, N_list=(20, 40),
            train=(TrainConfig(method="ols"), TrainConfig(method="constrained", lam=0.5, cap=0.05)),
        )
        rep = run_basket_put(spec)
        train, test = (
            gen_basket_put_dataset(spec.model, basket_weights(spec.model, None), spec.M, n,
                                   seed=derive_seed(spec.master_seed, s), paths=spec.paths)
            for n, s in ((spec.n_train, _TRAIN_DATA), (spec.n_test, _TEST_DATA))
        )
        hidden = sample_hidden_weights(spec.weight_spec, 40, 1, derive_seed(spec.master_seed, _HIDDEN))
        grid = np.linspace(0.0, spec.M, spec.grid_points)
        closed = bs_put_price(1.0, grid, 0.2, 1.0)
        rows = iter(rep.rows)
        for cfg in spec.train:
            solved = fit_widths(hidden, spec.N_list, train, cfg)
            for N in spec.N_list:
                method, width, e_hat, _, _ = next(rows)
                assert (method, width) == (cfg.method, N)
                net = RandomFeatureNet(subnetwork(hidden, N), solved[N][0], cfg.cap)
                assert e_hat == math.sqrt(empirical_risk(net, test))
            err = predict(net, grid[:, None]) - closed  # the widest net
            assert rep.extras["rmse_closed_form"][cfg.method] == math.sqrt(float(err @ err / err.size))


def small_oracle_spec(**overrides):
    base = dict(
        kind="oracle_convergence",
        payoff=tent(0.0, 1.0),
        M=1.0,
        C=0.15,
        N_list=(25, 100),
        oracle_seeds=4,
        grid_points=41,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestOracleConvergence:
    def test_row_per_seed_and_N(self):
        rep = run_oracle_convergence(small_oracle_spec())
        assert rep.columns == ("seed", "N", "sup_error", "max_weight")
        assert len(rep.rows) == 4 * 2
        assert {r[0] for r in rep.rows} == {0, 1, 2, 3}

    def test_means_match_rows(self):
        rep = run_oracle_convergence(small_oracle_spec())
        for N in (25, 100):
            from_rows = np.mean([r[2] for r in rep.rows if r[1] == N])
            assert rep.extras["mean_sup_error"][str(N)] == pytest.approx(from_rows, rel=1e-15)

    def test_ratio_present_when_100_and_400_run(self):
        rep = run_oracle_convergence(small_oracle_spec(N_list=(100, 400), oracle_seeds=2))
        means = rep.extras["mean_sup_error"]
        assert rep.extras["ratio_100_400"] == pytest.approx(
            means["100"] / means["400"], rel=1e-15
        )

    def test_no_ratio_without_those_widths(self):
        rep = run_oracle_convergence(small_oracle_spec())
        assert "ratio_100_400" not in rep.extras

    def test_deterministic(self):
        a = run_oracle_convergence(small_oracle_spec())
        b = run_oracle_convergence(small_oracle_spec())
        assert rows_without_wall(a) == rows_without_wall(b)

    def test_zero_payoff_degenerates_cleanly(self):
        # zero target: the constructed weights, the net, and H all vanish
        flat = table([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        rep = run_oracle_convergence(
            small_oracle_spec(payoff=flat, N_list=(100, 400), oracle_seeds=2)
        )
        assert all(r[2] == 0.0 for r in rep.rows)
        assert all(r[3] == 0.0 for r in rep.rows)
        assert "ratio_100_400" not in rep.extras

    def test_needs_payoff(self):
        with pytest.raises(ValueError):
            run_oracle_convergence(small_oracle_spec(payoff=None))

    # a fixed budget, and no deadline: a loaded machine must not fail a property
    @settings(max_examples=25, deadline=None)
    @given(
        master_seed=st.integers(0, 2**32), widths=st.sets(st.integers(1, 120), min_size=1, max_size=4),
        seeds=st.integers(1, 3), grid_points=st.integers(2, 60),
    )
    def test_rows_equal_the_per_width_net_path(self, master_seed, widths, seeds, grid_points):
        # the oracle path before every width shared one grid design: a
        # subnetwork, a net and a prediction per width
        spec = small_oracle_spec(
            N_list=tuple(sorted(widths)), oracle_seeds=seeds, grid_points=grid_points,
            master_seed=master_seed,
        )
        profile = fourier.gaussian_profile(spec.payoff, spec.M, spec.C)
        pts = np.linspace(-spec.M, spec.M, grid_points)[:, None]
        ref = fourier.reference_convolution(spec.payoff, [[2.0 * spec.C]], pts)
        n_max = spec.N_list[-1]
        want = []
        for s in range(seeds):
            hidden = sample_hidden_weights(
                spec.weight_spec, n_max, 1, derive_seed(master_seed, _ORACLE, s)
            )
            # construct_oracle_weights' arithmetic, G evaluated where alpha needs it
            A, B = hidden.A, hidden.B
            f = fourier._alpha_rows(profile, A, B, profile.G(A), profile.G(-A)) / (
                pi_w(hidden.spec, A) * pi_b(hidden.spec, B)
            ) / n_max * n_max
            for N in spec.N_list:
                net = RandomFeatureNet(hidden=subnetwork(hidden, N), W=f[:N] / N)
                err = float(np.abs(predict(net, pts) - ref).max())
                want.append((s, N, err, float(np.abs(f[:N]).max() / N)))
        assert list(run_oracle_convergence(spec).rows) == want

    def test_covariance_checked_a_fixed_number_of_times(self, monkeypatch):
        # once by the profile and once by the reference, however many
        # seeds and widths, so no G evaluation repeats the check
        calls = []
        check = fourier._check_psd
        monkeypatch.setattr(fourier, "_check_psd", lambda cov: calls.append(cov) or check(cov))
        counts = []
        for seeds, widths in ((1, (5,)), (3, (5, 20, 60))):
            calls.clear()
            run_oracle_convergence(small_oracle_spec(oracle_seeds=seeds, N_list=widths))
            counts.append(len(calls))
        assert counts == [2, 2]


def small_sgd_spec(**overrides):
    base = dict(
        kind="sgd_vs_ols",
        model=bs_triplet(),
        payoff=max_call(1.0, 2),
        M=1.0,
        T=1.0,
        n_train=300,
        N_list=(15,),
        train=(TrainConfig(method="sgd", lam=100.0, eta0=0.01, steps=400),),
        sgd_seeds=2,
        master_seed=11,
        paths=50,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSgdVsOls:
    def test_checkpoint_rows(self):
        rep = run_sgd_vs_ols(small_sgd_spec())
        assert rep.columns == ("T", "risk_gap", "risk", "wall_ms")
        marks = [r[0] for r in rep.rows]
        assert marks[0] == 1
        assert marks[-1] == 400
        assert marks == sorted(marks)

    def test_first_checkpoint_is_the_zero_net(self):
        spec = small_sgd_spec()
        rep = run_sgd_vs_ols(spec)
        # W_1 = 0, so the risk at T=1 is the mean squared label
        ols_risk = rep.extras["ols_risk"]
        zero_risk = rep.rows[0][2]
        assert rep.rows[0][1] == pytest.approx(zero_risk - ols_risk, abs=1e-15)
        assert zero_risk > ols_risk

    def test_gap_shrinks(self):
        rep = run_sgd_vs_ols(small_sgd_spec())
        assert rep.rows[-1][1] < rep.rows[0][1]
        assert rep.extras["final_gap_mean"] == pytest.approx(rep.rows[-1][1], rel=1e-15)

    def test_explicit_checkpoints(self):
        rep = run_sgd_vs_ols(small_sgd_spec(checkpoints=(1, 7, 400)))
        assert [r[0] for r in rep.rows] == [1, 7, 400]

    def test_rows_end_at_the_last_step(self):
        # a list that stops short gains steps, so the final gaps are
        # those of the last iterate
        short = run_sgd_vs_ols(small_sgd_spec(checkpoints=(1, 7)))
        full = run_sgd_vs_ols(small_sgd_spec(checkpoints=(1, 7, 400)))
        assert rows_without_wall(short) == rows_without_wall(full)
        assert short.extras["final_gaps"] == full.extras["final_gaps"]
        assert short.extras["final_gap_mean"] == full.rows[-1][1]

    def test_averaged_final_gaps_score_the_returned_vector(self, monkeypatch):
        # with averaging, fit_sgd returns the mean of W_1..W_steps, while
        # the rows keep scoring the iterates
        returned = []

        def recorded(*args, **kwargs):
            out = train_module.fit_sgd(*args, **kwargs)
            returned.append(out[0])
            return out

        monkeypatch.setattr(experiments_module, "fit_sgd", recorded)
        cfg = TrainConfig(method="sgd", lam=100.0, eta0=0.01, steps=400, average=True)
        spec = small_sgd_spec(train=(cfg,))
        rep = run_sgd_vs_ols(spec)
        train_ds = _pde_data(spec, _TRAIN_DATA, spec.n_train, spec.label_kind, spec.paths)
        hidden = sample_hidden_weights(
            spec.weight_spec, spec.N_list[0], train_ds.d, derive_seed(spec.master_seed, _HIDDEN)
        )
        r = train_module.fold_features(hidden, train_ds)
        ols_risk = rep.extras["ols_risk"]
        gaps = [train_module.risk_from_r(r, W, train_ds.n) - ols_risk for W in returned]
        assert rep.extras["final_gaps"] == gaps
        assert rep.extras["final_gap_mean"] == float(np.mean(gaps))
        assert rep.extras["final_gap_mean"] != rep.rows[-1][1]

    def test_wall_ms_is_the_time_to_reach_each_checkpoint(self, monkeypatch):
        rep = run_sgd_vs_ols(small_sgd_spec())
        wall = [row[3] for row in rep.rows]
        assert wall == sorted(wall)
        assert wall[0] < wall[-1]
        # a clock that ticks one second a reading: each seed reads it once
        # before fit_sgd and once at each checkpoint, in order
        ticks = iter(range(10**6))

        class Clock:
            @staticmethod
            def perf_counter():
                return float(next(ticks))

        monkeypatch.setattr(experiments_module, "time", Clock)
        rep = run_sgd_vs_ols(small_sgd_spec())
        assert [row[3] for row in rep.rows] == [1e3 * (k + 1) for k in range(len(rep.rows))]

    def test_checkpoints_validated(self):
        with pytest.raises(ValueError):
            run_sgd_vs_ols(small_sgd_spec(checkpoints=(0, 400)))
        with pytest.raises(ValueError):
            run_sgd_vs_ols(small_sgd_spec(checkpoints=(1, 500)))

    def test_needs_single_sgd_config(self):
        with pytest.raises(ValueError):
            run_sgd_vs_ols(small_sgd_spec(train=(TrainConfig(method="ols"),)))
        with pytest.raises(ValueError):
            run_sgd_vs_ols(small_sgd_spec(N_list=(15, 30)))

    def test_deterministic(self):
        a = run_sgd_vs_ols(small_sgd_spec())
        b = run_sgd_vs_ols(small_sgd_spec())
        assert rows_without_wall(a) == rows_without_wall(b)

    def test_per_seed_gaps_recorded(self):
        rep = run_sgd_vs_ols(small_sgd_spec())
        assert len(rep.extras["final_gaps"]) == 2

    def test_ols_risk_matches_the_design_oracle(self):
        spec = small_sgd_spec()
        rep = run_sgd_vs_ols(spec)
        train_ds = _pde_data(spec, _TRAIN_DATA, spec.n_train, spec.label_kind, spec.paths)
        hidden = sample_hidden_weights(
            spec.weight_spec, spec.N_list[0], train_ds.d, derive_seed(spec.master_seed, _HIDDEN)
        )
        _, ref = fit_ols(design_matrix(hidden, train_ds.X).values, train_ds.Y)
        ols_risk = rep.extras["ols_risk"]
        assert ols_risk == pytest.approx(ref.empirical_risk, rel=1e-12)
        # the optimum is no worse than any iterate
        assert all(ols_risk <= risk for _, _, risk, _ in rep.rows)
        assert min(rep.extras["final_gaps"]) >= 0


class TestWriteReport:
    def test_oracle_csv_schema(self, tmp_path):
        rep = run_oracle_convergence(small_oracle_spec(output_path=str(tmp_path / "o")))
        header = (tmp_path / "o.csv").read_text().splitlines()[0]
        assert header == "seed,N,sup_error,max_weight"

    def test_write_creates_parent_dirs(self, tmp_path):
        rep = run_rate_curve(small_rate_spec())
        csv_path, json_path = write_report(rep, tmp_path / "deep" / "nest" / "r")
        assert csv_path.exists() and json_path.exists()

    def test_csv_round_trips_exact_floats(self, tmp_path):
        rep = run_rate_curve(small_rate_spec())
        csv_path, _ = write_report(rep, tmp_path / "r")
        vals = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(vals[:, 1], [r[1] for r in rep.rows])
