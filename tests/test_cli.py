import json
import re
from pathlib import Path

import numpy as np
import pytest

from kolmo_rfn.cli import main
from kolmo_rfn.data import Dataset, load_dataset, save_dataset
from kolmo_rfn.network import (
    HiddenWeights,
    RandomFeatureNet,
    WeightDistributionSpec,
    design_matrix,
    load_model,
    predict,
    sample_hidden_weights,
    save_model,
)
from kolmo_rfn.train import fit_constrained, fit_ols

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def pde_data_config(tmp_path):
    doc = {
        "kind": "pde",
        "model": {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 2},
        "payoff": {"kind": "max_call", "params": {"strike": 1.0, "d": 2}},
        "M": 1.0, "T": 1.0, "n": 200, "label_kind": "single_draw", "seed": 4,
    }
    path = tmp_path / "data_cfg.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def rate_config(tmp_path):
    doc = {
        "kind": "rate_curve",
        "model": {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 2},
        "payoff": {"kind": "max_call", "params": {"strike": 1.0, "d": 2}},
        "M": 1.0, "T": 1.0, "n_train": 400, "n_test": 100, "paths": 30,
        "N_list": [5, 10], "train": {"method": "ols"}, "master_seed": 2,
    }
    path = tmp_path / "rate_cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestDataAndTrainingFlow:
    def test_full_pipeline(self, tmp_path, pde_data_config, capsys):
        train_csv = tmp_path / "train.csv"
        test_csv = tmp_path / "test.csv"
        model = tmp_path / "model.json"

        assert main(["gen-data", "--config", str(pde_data_config), "--out", str(train_csv)]) == 0
        assert main([
            "gen-data", "--config", str(pde_data_config), "--seed", "9", "--out", str(test_csv)
        ]) == 0
        assert train_csv.exists() and test_csv.exists()

        assert main([
            "train", "--data", str(train_csv), "--N", "16",
            "--method", "ols", "--out", str(model),
        ]) == 0
        assert model.exists()
        net = load_model(model)
        assert net.hidden.N == 16 and net.hidden.d == 2

        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--data", str(test_csv)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["n"] == 200
        assert result["e_hat"] >= 0
        assert result["e_hat"] == pytest.approx(result["empirical_risk"] ** 0.5)

    def test_sample_weights_round_trip(self, tmp_path):
        out = tmp_path / "hidden.json"
        assert main([
            "sample-weights", "--N", "8", "--d", "3", "--seed", "5", "--out", str(out)
        ]) == 0
        net = load_model(out)
        assert net.hidden.A.shape == (8, 3)
        assert np.all(net.W == 0)

    def test_train_against_saved_hidden_weights(self, tmp_path, pde_data_config):
        data = tmp_path / "d.csv"
        hidden = tmp_path / "h.json"
        model = tmp_path / "m.json"
        main(["gen-data", "--config", str(pde_data_config), "--out", str(data)])
        main(["sample-weights", "--N", "8", "--d", "2", "--out", str(hidden)])
        assert main([
            "train", "--data", str(data), "--hidden", str(hidden),
            "--method", "ols", "--out", str(model),
        ]) == 0
        assert (tmp_path / "m.json.diag.json").exists()

    def test_hidden_dimension_mismatch(self, tmp_path, pde_data_config, capsys):
        data = tmp_path / "d.csv"
        hidden = tmp_path / "h.json"
        main(["gen-data", "--config", str(pde_data_config), "--out", str(data)])
        main(["sample-weights", "--N", "8", "--d", "5", "--out", str(hidden)])
        code = main([
            "train", "--data", str(data), "--hidden", str(hidden),
            "--method", "ols", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert "d=5" in capsys.readouterr().err

    def test_readme_data_config_runs(self, tmp_path):
        # the README's gen-data example, shrunk, must keep working
        section = README.read_text().split("### Data config schema (`gen-data`)", 1)[1]
        doc = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        doc["n"] = 20
        cfg = tmp_path / "data.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "train.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.n == 20 and ds.d == doc["model"]["d"]

    def test_basket_data_kind(self, tmp_path):
        doc = {
            "kind": "basket_put",
            "model": {"type": "lognormal", "s0": [1.0], "cov": [[0.04]], "T": 1.0},
            "M": 1.0, "n": 50, "paths": 20, "seed": 1,
        }
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "b.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()


def _streamed_train_cases():
    """(n, d, hidden layer) designs for the streamed CLI fit."""

    spec = WeightDistributionSpec()
    cases = [
        pytest.param(7, 2, sample_hidden_weights(spec, 20, 2, 1), id="n_below_N"),
        pytest.param(4097, 2, sample_hidden_weights(spec, 30, 2, 2), id="n4097"),
        pytest.param(9000, 3, sample_hidden_weights(spec, 25, 3, 3), id="n9000"),
    ]
    h = sample_hidden_weights(spec, 12, 2, 4)
    A, B = h.A.copy(), h.B.copy()
    A[[2, 7]], B[[2, 7]] = 0.0, -1.0  # relu(-1) = 0 on every point
    cases.append(pytest.param(500, 2, HiddenWeights(A, B, spec, 4, 12, 2), id="dead_features"))
    h = sample_hidden_weights(spec, 8, 2, 5)
    A, B = np.vstack([h.A, h.A]), np.concatenate([h.B, h.B])  # every feature twice: rank 8 of 16
    cases.append(pytest.param(600, 2, HiddenWeights(A, B, spec, 5, 16, 2), id="duplicated_rows"))
    return cases


class TestStreamedTrain:
    """CLI train solves from the folded R; the fit on the whole design is the oracle."""

    @pytest.mark.parametrize("n,d,hidden", _streamed_train_cases())
    def test_matches_fit_on_the_design(self, tmp_path, capsys, n, d, hidden):
        rng = np.random.default_rng(n)
        X = rng.uniform(-1, 1, (n, d))
        ds = Dataset(X=X, Y=np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(n),
                     label_kind="single_draw", seed=0, M=1.0, T=1.0)
        data, hidden_path = tmp_path / "d.csv", tmp_path / "h.json"
        save_dataset(ds, data)
        save_model(RandomFeatureNet(hidden=hidden, W=np.zeros(hidden.N)), hidden_path)
        ds = load_dataset(data)
        design = design_matrix(hidden, ds.X).values
        W_ols, ref = fit_ols(design, ds.Y)
        free_norm = float(np.linalg.norm(W_ols))
        runs = [(["--method", "ols"], W_ols, ref)]
        for lam in (2.0 * free_norm, 0.3 * free_norm):  # constraint inactive, then active
            runs.append((["--method", "constrained", "--lambda", repr(lam)],
                         *fit_constrained(design, ds.Y, lam)))
        risk_floor = 1e-20 * float(ds.Y @ ds.Y) / n  # an interpolating fit's risk is rounding
        for flags, W_ref, ref in runs:
            model = tmp_path / "m.json"
            capsys.readouterr()
            assert main(["train", "--data", str(data), "--hidden", str(hidden_path),
                         *flags, "--out", str(model)]) == 0
            diag = json.loads(capsys.readouterr().out)
            want = design @ W_ref
            got = predict(load_model(model), ds.X)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), flags
            assert diag["empirical_risk"] == pytest.approx(ref.empirical_risk, rel=1e-10, abs=risk_floor)
            assert diag["effective_rank"] == ref.effective_rank
            if ref.lambda_multiplier is not None:
                assert (diag["lambda_multiplier"] > 0) == (ref.lambda_multiplier > 0), flags
                assert diag["lambda_multiplier"] == pytest.approx(ref.lambda_multiplier, rel=1e-8)
            capsys.readouterr()
            assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 0
            risk = json.loads(capsys.readouterr().out)["empirical_risk"]
            assert risk == pytest.approx(ref.empirical_risk, rel=1e-10, abs=risk_floor)

    @pytest.mark.parametrize("flags", [
        ["--method", "ols"],
        ["--method", "constrained", "--lambda", "1"],
        ["--method", "sgd", "--lambda", "1", "--eta0", "0.1", "--steps", "3"],
    ], ids=["ols", "constrained", "sgd"])
    def test_header_only_csv_exits_1(self, tmp_path, capsys, flags):
        data = tmp_path / "empty.csv"
        save_dataset(Dataset(X=np.empty((0, 2)), Y=np.empty(0), label_kind="single_draw",
                             seed=0, M=1.0, T=1.0), data)
        assert main(["train", "--data", str(data), "--N", "5", *flags,
                     "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert "cannot fit on empty data" in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()


class TestValidationExits:
    def test_constrained_without_lambda(self, tmp_path, pde_data_config, capsys):
        data = tmp_path / "d.csv"
        main(["gen-data", "--config", str(pde_data_config), "--out", str(data)])
        code = main([
            "train", "--data", str(data), "--N", "8",
            "--method", "constrained", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert "--lambda" in capsys.readouterr().err

    def test_sgd_without_knobs(self, tmp_path, pde_data_config, capsys):
        data = tmp_path / "d.csv"
        main(["gen-data", "--config", str(pde_data_config), "--out", str(data)])
        code = main([
            "train", "--data", str(data), "--N", "8",
            "--method", "sgd", "--lambda", "5", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1

    @pytest.mark.parametrize("flags, reason", [
        (["--N", "8", "--method", "constrained"], "--lambda"),
        (["--N", "8", "--method", "sgd", "--lambda", "5", "--steps", "3"], "eta0"),
        (["--N", "8", "--method", "sgd", "--lambda", "5", "--eta0", "0.1"], "steps"),
        (["--method", "ols"], "--N"),
    ], ids=["constrained_lambda", "sgd_eta0", "sgd_steps", "hidden_or_N"])
    def test_flag_errors_come_before_reading_the_data(self, tmp_path, capsys, flags, reason):
        # a missing data file would exit 2: a flag error must be found first
        code = main(["train", "--data", str(tmp_path / "ghost.csv"), *flags,
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert reason in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["train", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
        assert "bad.json" in capsys.readouterr().err

    def test_gen_data_non_object_config(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "list.json" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_gen_data_unknown_key(self, tmp_path, pde_data_config, capsys):
        doc = json.loads(pde_data_config.read_text())
        doc["n_trian"] = 5000
        pde_data_config.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        assert main(["gen-data", "--config", str(pde_data_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "data_cfg.json" in err and "n_trian" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, model, typo",
        [
            (
                "pde",
                {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 2, "gama": [0.0, 0.0]},
                "gama",
            ),
            (
                "pde",
                {
                    "type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 2,
                    "jumps": {"intensity": 1.0, "atoms": [[1.0, [0.1, 0.1]]], "radus": 3.0},
                },
                "radus",
            ),
            ("basket_put", {"type": "lognormal", "s0": [1.0], "cov": [[0.04]], "TT": 2.0}, "TT"),
        ],
        ids=["drift", "jumps", "lognormal"],
    )
    def test_gen_data_unknown_model_key(self, tmp_path, pde_data_config, kind, model, typo, capsys):
        doc = json.loads(pde_data_config.read_text())
        if kind == "basket_put":
            doc = {"kind": kind, "n": 5, "paths": 5}
        doc["model"] = model
        pde_data_config.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        assert main(["gen-data", "--config", str(pde_data_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "data_cfg.json" in err and repr(typo) in err and "Traceback" not in err
        assert not out.exists()

    def test_gen_data_basket_rejects_other_model_type(self, tmp_path, capsys):
        cfg = tmp_path / "basket_cfg.json"
        doc = {"kind": "basket_put", "n": 5, "paths": 5,
               "model": {"type": "heston", "s0": [1.0], "cov": [[0.04]]}}
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "basket_cfg.json" in err and "'heston'" in err and "Traceback" not in err
        assert not out.exists()

    def test_gen_data_without_output(self, tmp_path, pde_data_config, capsys):
        assert main(["gen-data", "--config", str(pde_data_config)]) == 1
        assert "--out" in capsys.readouterr().err

    def test_unknown_data_kind(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "exotic", "n": 5}))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1

    def test_gen_data_missing_payoff_field(self, tmp_path, pde_data_config, capsys):
        doc = json.loads(pde_data_config.read_text())
        del doc["payoff"]["params"]["strike"]
        pde_data_config.write_text(json.dumps(doc))
        assert main(["gen-data", "--config", str(pde_data_config), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "data_cfg.json" in err and "'strike'" in err
        assert "Traceback" not in err

    def test_train_without_hidden_or_N(self, tmp_path, pde_data_config, capsys):
        data = tmp_path / "d.csv"
        main(["gen-data", "--config", str(pde_data_config), "--out", str(data)])
        code = main(["train", "--data", str(data), "--method", "ols",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "--N" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out


class TestIOExits:
    def test_missing_config_path_in_message(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["gen-data", "--config", str(missing), "--out", str(tmp_path / "x.csv")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_missing_model(self, tmp_path, pde_data_config, capsys):
        data = tmp_path / "d.csv"
        main(["gen-data", "--config", str(pde_data_config), "--out", str(data)])
        assert main(["evaluate", "--model", str(tmp_path / "ghost.json"),
                     "--data", str(data)]) == 2

    def test_missing_data(self, tmp_path, capsys):
        hidden = tmp_path / "h.json"
        main(["sample-weights", "--N", "4", "--d", "2", "--out", str(hidden)])
        assert main(["train", "--data", str(tmp_path / "ghost.csv"), "--hidden", str(hidden),
                     "--method", "ols", "--out", str(tmp_path / "m.json")]) == 2


class TestExperimentCommand:
    def test_rate_curve_writes_reports(self, tmp_path, rate_config, capsys):
        out = tmp_path / "runs" / "rate"
        code = main(["experiment", "rate-curve", "--config", str(rate_config),
                     "--out", str(out)])
        assert code == 0
        assert out.with_suffix(".csv").exists()
        assert out.with_suffix(".json").exists()
        out, err = capsys.readouterr()
        summary = json.loads(out)
        assert summary["kind"] == "rate_curve"
        assert "slope" in summary and "config_hash" in summary
        assert "errors" not in summary and err == ""

    def test_seed_override(self, tmp_path, rate_config, capsys):
        out = tmp_path / "r"
        assert main(["experiment", "rate-curve", "--config", str(rate_config),
                     "--seed", "77", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 77

    def test_kind_mismatch(self, rate_config, capsys):
        assert main(["experiment", "basket-put", "--config", str(rate_config)]) == 1
        assert "rate_curve" in capsys.readouterr().err

    def test_underscore_kind_accepted(self, tmp_path, rate_config):
        assert main(["experiment", "rate_curve", "--config", str(rate_config),
                     "--out", str(tmp_path / "r2")]) == 0

    def test_missing_config(self, tmp_path, capsys):
        assert main(["experiment", "rate-curve", "--config",
                     str(tmp_path / "ghost.json")]) == 2

    def test_model_missing_field(self, rate_config, capsys):
        doc = json.loads(rate_config.read_text())
        del doc["model"]["rho"]
        rate_config.write_text(json.dumps(doc))
        assert main(["experiment", "rate-curve", "--config", str(rate_config)]) == 1
        err = capsys.readouterr().err
        assert "rate_cfg.json" in err and "'rho'" in err
        assert "Traceback" not in err

    def test_non_object_config(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["experiment", "rate-curve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "list.json" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_key(self, tmp_path, rate_config, capsys):
        doc = json.loads(rate_config.read_text())
        doc["n_trian"] = 5000
        rate_config.write_text(json.dumps(doc))
        out = tmp_path / "r"
        assert main(["experiment", "rate-curve", "--config", str(rate_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "rate_cfg.json" in err and "n_trian" in err and "Traceback" not in err
        assert not out.with_suffix(".csv").exists()

    def test_unknown_train_key(self, tmp_path, rate_config, capsys):
        doc = json.loads(rate_config.read_text())
        doc["train"] = {"method": "ols", "capp": 1.0}
        rate_config.write_text(json.dumps(doc))
        out = tmp_path / "r"
        assert main(["experiment", "rate-curve", "--config", str(rate_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {rate_config}: ") and "capp" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.with_suffix(".csv").exists()

    def test_unknown_weights_key(self, rate_config, capsys):
        doc = json.loads(rate_config.read_text())
        doc["weights"] = {"nu": 5.0, "bdof": 2.0}
        rate_config.write_text(json.dumps(doc))
        assert main(["experiment", "rate-curve", "--config", str(rate_config)]) == 1
        err = capsys.readouterr().err
        assert "rate_cfg.json" in err and "bdof" in err and "Traceback" not in err

    def test_unknown_model_key(self, tmp_path, rate_config, capsys):
        doc = json.loads(rate_config.read_text())
        doc["model"]["gama"] = [0.0, 0.0]
        rate_config.write_text(json.dumps(doc))
        out = tmp_path / "r"
        assert main(["experiment", "rate-curve", "--config", str(rate_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {rate_config}: ") and "gama" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("field", ["oracle_seeds", "sgd_seeds", "test_paths"])
    def test_zero_count_exits(self, tmp_path, rate_config, field, capsys):
        doc = json.loads(rate_config.read_text())
        doc[field] = 0
        rate_config.write_text(json.dumps(doc))
        out = tmp_path / "r"
        assert main(["experiment", "rate-curve", "--config", str(rate_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "rate_cfg.json" in err and field in err and "Traceback" not in err
        assert not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("grid_points", 0), ("basket_weights", []), ("paths", 99.9), ("N_list", [5, 10.5]),
    ])
    def test_degenerate_or_non_integer_value_exits(self, tmp_path, rate_config, field, value, capsys):
        doc = json.loads(rate_config.read_text())
        doc[field] = value
        rate_config.write_text(json.dumps(doc))
        out = tmp_path / "r"
        assert main(["experiment", "rate-curve", "--config", str(rate_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {rate_config}: {field}") and "Traceback" not in err
        assert not out.with_suffix(".csv").exists()

    def test_integral_float_counts_run(self, tmp_path, rate_config, capsys):
        # JSON writers may print counts as floats; 2e2 steps are 200 steps
        doc = json.loads(rate_config.read_text())
        doc.update(kind="sgd_vs_ols", N_list=[5], n_train=50.0, checkpoints=[1, 2e2],
                   train={"method": "sgd", "lambda": 10.0, "eta0": 0.01, "steps": 2e2, "batch": 8.0})
        rate_config.write_text(json.dumps(doc))
        out = tmp_path / "sgd"
        assert main(["experiment", "sgd-vs-ols", "--config", str(rate_config), "--out", str(out)]) == 0
        train = json.loads(out.with_suffix(".json").read_text())["config"]["train"][0]
        assert (train["steps"], train["batch"]) == (200, 8)
        rows = out.with_suffix(".csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "200"]

    def test_invalid_kind_choice(self, capsys):
        assert main(["experiment", "warp-drive", "--config", "x.json"]) == 1

    def test_failed_widths_are_counted_and_named(self, tmp_path, rate_config, capsys):
        # a minibatch larger than n_train makes every sgd fit fail
        doc = json.loads(rate_config.read_text())
        doc["train"] = {"method": "sgd", "lambda": 10.0, "eta0": 0.1, "steps": 10, "batch": 5000}
        cfg = tmp_path / "sgd_rate_cfg.json"
        cfg.write_text(json.dumps(doc))
        # exit 3: the experiment ran and wrote its report, but widths failed
        assert main(["experiment", "rate-curve", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert json.loads(out)["errors"] == 2
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("error: N=5: ") and lines[1].startswith("error: N=10: ")
        assert all("exceeds the 400 available samples" in line for line in lines)
