"""The benchmark's workloads: generated inputs, one operation each, and its checks.

Every workload turns ``(seed, op index, size)`` into a config the program
runs, times one call of ``run`` per operation and hands the output to
``check``. The configs mirror the shipped files under ``configs/`` and
the README's CLI flow; only their sizes shrink at the ``bench`` size, so
that one timed run holds many operations and its median is steady.
``shipped`` reproduces the shipped sizes (for comparing with the ROADMAP
baseline) and ``tiny`` keeps the benchmark's own tests fast.

The program is imported from ``src/`` next to this directory; callers
put it on ``sys.path`` first (see ``run.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from kolmo_rfn import cli, experiments

SIZES = ("tiny", "bench", "shipped")
DESK_WIDTHS = [10, 20, 40, 80, 160]

# shipped acceptance tolerances (tests/test_acceptance.py, criteria 1, 2 and 7)
SLOPE_BAND = (-0.70, -0.30)
BASKET_RMSE_MAX = 5e-3
ORACLE_RATIO_BAND = (1.4, 2.8)

# wall-clock report columns; everything else must repeat bit for bit
_CLOCK_COLUMNS = ("wall_ms",)


def op_seed(seed: int, k: int) -> int:
    """Master seed of operation ``k`` in a run with benchmark seed ``seed``."""

    return (int(seed) << 20) + int(k)


@dataclass
class Outcome:
    """What one operation produced: a digest of its numbers and failed checks."""

    digest: str
    failures: list[str]
    stats: dict


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, str], object]  # (master seed, size) -> parsed program input
    run: Callable[[object, Path], object]  # (program input, scratch dir) -> output
    check: Callable[[object], Outcome]
    pooled_check: Callable[[list[dict]], list[str]] | None = None  # stats of the passing ops


def _digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _finite(v) -> bool:
    return not isinstance(v, float) or math.isfinite(v)


# ---------------------------------------------------------------------------
# experiment workloads: one op is run_experiment on a generated spec


def _report_checks(report) -> list[str]:
    """Checks every experiment report must pass: complete, finite, no errors."""

    failures = []
    width = len(report.columns)
    if not report.rows or any(len(row) != width for row in report.rows):
        failures.append("rows_complete")
    if not all(_finite(v) for row in report.rows for v in row):
        failures.append("rows_finite")
    if report.extras.get("errors"):
        failures.append("no_errors")
    return failures


def _report_digest(report) -> str:
    keep = [i for i, c in enumerate(report.columns) if c not in _CLOCK_COLUMNS]
    return _digest({
        "columns": [report.columns[i] for i in keep],
        "rows": [[row[i] for i in keep] for row in report.rows],
        "slope": report.slope,
        "e0": report.e0,
        "seed": report.seed,
        "config_hash": report.config_hash,
        "extras": report.extras,
    })


def _spec(config: Callable[[int, str], dict]) -> Callable[[int, str], object]:
    """Turn a config generator into one that returns the parsed ExperimentSpec."""

    return lambda master_seed, size: experiments.ExperimentSpec.from_dict(config(master_seed, size))


def _run_spec(spec, workdir: Path):
    return experiments.run_experiment(replace(spec, output_path=str(workdir / "report")))


def _sized(size: str, table: dict[str, Any]) -> Any:
    if size not in table:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    return table[size]


def desk_config(master_seed: int, size: str) -> dict:
    n_train, n_test, test_paths = _sized(size, {
        "tiny": (2_000, 100, 100),
        "bench": (20_000, 2_000, 1_000),
        "shipped": (100_000, 20_000, 1_000),
    })
    return {
        "kind": "rate_curve",
        "model": {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 5},
        "payoff": {"kind": "max_call", "params": {"strike": 1.0, "d": 5}},
        "M": 1.0, "T": 1.0,
        "n_train": n_train, "n_test": n_test,
        "N_list": DESK_WIDTHS,
        "label_kind": "single_draw", "test_label_kind": "mc_price", "test_paths": test_paths,
        "train": {"method": "ols"},
        "master_seed": master_seed,
    }


def check_rate_curve(report) -> Outcome:
    failures = _report_checks(report)
    if len(report.rows) != len(report.config["N_list"]):
        failures.append("one_row_per_width")
    e_hat = [row[1] for row in report.rows]
    return Outcome(_report_digest(report), failures, {"e_hat": e_hat, "slope": report.slope})


def check_desk_pooled(stats: list[dict]) -> list[str]:
    # criterion 1 is a statement about many seeds (8 of 10 in band); one
    # seed's slope leaves the band for about one seed in ten, so the band
    # is checked on the run's pooled curve. The pooled curve is the median
    # over the run's seeds, not the mean: at the bench n_train about one
    # op in 200 has its N=160 error blow up (master seed (207 << 20) + 13:
    # e_hat 2.12 against 0.13 for its neighbours, 0.124 at the shipped
    # size), which alone pulls the mean curve's slope out of the band, and
    # criterion 1 lets such a seed be one of the two out of ten
    slope = experiments.fit_log_slope(DESK_WIDTHS, np.median([s["e_hat"] for s in stats], axis=0))
    lo, hi = SLOPE_BAND
    return [] if lo <= slope <= hi else [f"pooled_slope_in_band({slope:.3f})"]


def basket_config(master_seed: int, size: str) -> dict:
    n_train, n_test = _sized(size, {
        "tiny": (2_000, 200),
        "bench": (10_000, 2_000),
        "shipped": (50_000, 10_000),
    })
    return {
        "kind": "basket_put",
        "model": {"type": "lognormal", "s0": [1.0], "cov": [[0.04]], "T": 1.0},
        "basket_weights": [1.0],
        "M": 1.0, "n_train": n_train, "n_test": n_test,
        "N_list": [200], "paths": 100, "noise_std": 0.0,
        "train": {"method": "ols"}, "grid_points": 101,
        "master_seed": master_seed,
    }


def check_basket(report) -> Outcome:
    failures = _report_checks(report)
    rmse = report.extras.get("rmse_closed_form", {}).get("ols", math.nan)
    if not math.isfinite(rmse):
        failures.append("rmse_closed_form_finite")
    return Outcome(_report_digest(report), failures, {"rmse": rmse})


def check_basket_pooled(stats: list[dict]) -> list[str]:
    # criterion 7 checks one seed (master seed 0). Over master seeds the
    # RMSE has a heavy tail at every n_train: the largest of 1 085 ops read
    # 1.2e-2 at the bench n_train of 1e4, of 613 ops 5.0e-3 at 2e4 and of
    # 320 ops 4.2e-3 at the shipped 5e4, against medians of 2.4e-4 to
    # 3.2e-4. So the tolerance holds the mean RMSE over the run's seeds,
    # as criterion 2 does for the oracle ratio; every op's RMSE is listed
    # in the results file
    rmse = float(np.mean([s["rmse"] for s in stats]))
    return [] if rmse <= BASKET_RMSE_MAX else [f"mean_rmse_closed_form({rmse:.3g})"]


def sgd_config(master_seed: int, size: str) -> dict:
    seeds, steps = _sized(size, {
        "tiny": (1, 2_000),
        "bench": (1, 50_000),
        "shipped": (10, 100_000),
    })
    return {
        "kind": "sgd_vs_ols",
        "model": {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 2},
        "payoff": {"kind": "max_call", "params": {"strike": 1.0, "d": 2}},
        "M": 1.0, "T": 1.0, "n_train": 1_000, "n_test": 1, "N_list": [50],
        "label_kind": "single_draw",
        "train": {"method": "sgd", "lambda": 1000.0, "eta0": 0.003, "steps": steps},
        "sgd_seeds": seeds,
        "master_seed": master_seed,
    }


def check_sgd(report) -> Outcome:
    failures = _report_checks(report)
    stats = {k: report.extras.get(k, math.nan) for k in ("final_gap_mean", "gap_tolerance", "ols_risk")}
    if not all(math.isfinite(v) for v in stats.values()):
        failures.append("sgd_gap_finite")
    # OLS minimizes the empirical risk, so no SGD iterate may beat it
    elif any(g < -1e-9 * (1.0 + stats["ols_risk"]) for g in report.extras.get("final_gaps", [])):
        failures.append("sgd_gap_nonnegative")
    return Outcome(_report_digest(report), failures, stats)


def check_sgd_pooled(stats: list[dict]) -> list[str]:
    # criterion 4 bounds the gap averaged over SGD seeds for master seed 0.
    # Over master seeds, the shipped step size diverges for about one
    # hidden layer in a hundred (a few heavy-tailed features make
    # eta0 * |x|^2 large), so the run's median gap is held to the
    # tolerance; every op's gap is listed in the results file
    gap = float(np.median([s["final_gap_mean"] for s in stats]))
    tol = float(np.median([s["gap_tolerance"] for s in stats]))
    return [] if gap <= tol else [f"median_sgd_gap({gap:.4f}>{tol:.4f})"]


def oracle_config(master_seed: int, size: str) -> dict:
    oracle_seeds = _sized(size, {"tiny": 4, "bench": 20, "shipped": 20})
    return {
        "kind": "oracle_convergence",
        "payoff": {"kind": "tent", "params": {"center": 0.0, "width": 1.0}},
        "M": 1.0, "C": 0.15, "N_list": [25, 50, 100, 200, 400],
        "oracle_seeds": oracle_seeds, "grid_points": 101,
        "master_seed": master_seed,
    }


def check_oracle(report) -> Outcome:
    failures = _report_checks(report)
    means = report.extras.get("mean_sup_error", {})
    if not all(math.isfinite(means.get(n, math.nan)) for n in ("100", "400")):
        failures.append("mean_sup_error_finite")
    return Outcome(_report_digest(report), failures, {"mean_sup_error": means})


def check_oracle_pooled(stats: list[dict]) -> list[str]:
    # criterion 2 takes the ratio of sup errors averaged over 20 seeds; one
    # op's ratio left the band for 1 master seed in 60, so the means are
    # taken over every oracle seed of the run
    err = {n: np.mean([s["mean_sup_error"][n] for s in stats]) for n in ("100", "400")}
    ratio = float(err["100"] / err["400"])
    lo, hi = ORACLE_RATIO_BAND
    return [] if lo <= ratio <= hi else [f"pooled_ratio_100_400({ratio:.3f})"]


# ---------------------------------------------------------------------------
# the README's CLI flow, in process


# The README example gives 1-d jump atoms with d=5 and exits 1 ("jump
# dimension 1 does not match d=5"); these 5-d atoms have norms 0.89 and
# 0.67, inside the radius 1.5.
_CLI_JUMPS = {"intensity": 2.0, "atoms": [[0.25, [0.4] * 5], [0.75, [-0.3] * 5]], "radius": 1.5}


@dataclass(frozen=True)
class CliInput:
    data_config: dict
    test_seed: int
    N: int
    weights_seed: int


def cli_config(master_seed: int, size: str) -> CliInput:
    n, N = _sized(size, {"tiny": (500, 20), "bench": (20_000, 200), "shipped": (100_000, 200)})
    doc = {
        "kind": "pde",
        "model": {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 5, "jumps": _CLI_JUMPS},
        "payoff": {"kind": "max_call", "params": {"strike": 1.0, "d": 5}},
        "M": 1.0, "T": 1.0, "n": n,
        "label_kind": "single_draw", "paths": 1000, "noise_std": 0.0,
        "seed": master_seed,
    }
    return CliInput(data_config=doc, test_seed=master_seed + 9, N=N, weights_seed=master_seed)


def cli_steps(inp: CliInput, workdir: Path) -> list[list[str]]:
    """The four README commands, as argument lists for ``cli.main``."""

    cfg, train, test, model = (str(workdir / f) for f in ("data.json", "train.csv", "test.csv", "model.json"))
    return [
        ["gen-data", "--config", cfg, "--out", train],
        ["gen-data", "--config", cfg, "--seed", str(inp.test_seed), "--out", test],
        ["train", "--data", train, "--N", str(inp.N), "--weights-seed", str(inp.weights_seed),
         "--method", "constrained", "--lambda", "50", "--out", model],
        ["evaluate", "--model", model, "--data", test],
    ]


def cli_step(argv: list[str]) -> tuple[int, str, str]:
    """Run one command through ``kolmo_rfn.cli.main``; return (exit code, stdout, stderr)."""

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli(inp: CliInput, workdir: Path) -> dict:
    """Run the README flow, stopping at the first command that fails."""

    (workdir / "data.json").write_text(json.dumps(inp.data_config))
    result = {"workdir": workdir, "steps": []}
    for argv in cli_steps(inp, workdir):
        result["steps"].append(cli_step(argv))
        if result["steps"][-1][0] != 0:
            break
    return result


def check_cli(result: dict) -> Outcome:
    steps = result["steps"]
    failures = [f"exit_code({code}: {err.strip()})" for code, _out, err in steps if code != 0]
    files = {
        f: hashlib.sha256((result["workdir"] / f).read_bytes()).hexdigest()
        for f in ("train.csv", "test.csv", "model.json")
        if (result["workdir"] / f).exists()
    }
    if len(steps) != 4 or failures:
        return Outcome(_digest(files), failures or ["all_steps_ran"], {})
    train = json.loads(steps[2][1])
    train.pop("model", None)  # a path inside the scratch directory
    evaluation = json.loads(steps[3][1])
    if not all(_finite(v) for v in (*train.values(), *evaluation.values())):
        failures.append("train_evaluate_finite")
    if not math.isfinite(evaluation.get("e_hat", math.nan)):
        failures.append("e_hat_finite")
    digest = _digest({"files": files, "train": train, "evaluate": evaluation})
    return Outcome(digest, failures, {"e_hat": evaluation.get("e_hat")})


# ---------------------------------------------------------------------------


# Why each workload is here (BENCHMARK.json records the same, with the
# layer shares of a traced run):
# - desk_rate_curve: the ROADMAP's end-to-end job; MC test labels and the
#   five per-width solves on nested prefixes both show here.
# - basket_put: the data layer loaded the other way round (many short
#   100-path rows, one width), so a change tuned for long rows that costs
#   short rows shows, and cross-width sharing is bypassed.
# - sgd_vs_ols: the only workload the SGD trainer dominates; it bypasses
#   Monte Carlo labels.
# - cli_pipeline: the only one for the CLI, CSV/JSON persistence, the jump
#   path of the Levy sampler and fit_constrained.
# - oracle_convergence: the only one for fourier.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_rate_curve", _spec(desk_config), _run_spec, check_rate_curve, check_desk_pooled),
        Workload("basket_put", _spec(basket_config), _run_spec, check_basket, check_basket_pooled),
        Workload("sgd_vs_ols", _spec(sgd_config), _run_spec, check_sgd, check_sgd_pooled),
        Workload("cli_pipeline", cli_config, run_cli, check_cli),
        Workload("oracle_convergence", _spec(oracle_config), _run_spec, check_oracle, check_oracle_pooled),
    )
}
