"""Experiment runner: rate curves, basket puts, oracle convergence, SGD vs OLS.

Each experiment is declared by an ExperimentSpec (``kolmo_rfn.config``),
runs deterministically from its master seed, and produces an
ExperimentReport that can be written as a CSV of rows plus a JSON
summary. Seeds for data generation, hidden-weight sampling, and SGD are
derived from the master seed through independent substreams, so
changing one leg (say, the size of the test set) never perturbs another.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._blas import single_blas_thread
from .config import ExperimentSpec
from .data import Dataset, LognormalSpec, basket_weights, gen_basket_put_dataset, gen_pde_dataset
from .fourier import (
    construct_oracle_weights,
    gaussian_profile,
    reference_convolution,
    sup_error_on_grid,
)
from .levy import LevyTriplet, bs_put_price
from .network import design_matrix, row_blocks, sample_hidden_weights
from .rng import derive_seed
from .train import _NUMERIC_FAILURES, fit, fit_ols, fit_sgd, fit_widths

__all__ = [
    "ExperimentReport",
    "fit_log_slope",
    "run_rate_curve",
    "run_basket_put",
    "run_oracle_convergence",
    "run_sgd_vs_ols",
    "run_experiment",
    "write_report",
]

# substream ids under the master seed
_TRAIN_DATA = 1
_TEST_DATA = 2
_HIDDEN = 3
_SGD = 4
_ORACLE = 10


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    slope: float | None
    e0: float | None
    seed: int
    config: dict
    config_hash: str
    extras: dict = field(default_factory=dict)


def write_report(report: ExperimentReport, output_path) -> tuple[Path, Path]:
    """CSV of rows plus a JSON summary next to it."""

    base = Path(output_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")

    def cell(v) -> str:
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    lines = [",".join(report.columns)]
    lines += [",".join(cell(v) for v in row) for row in report.rows]
    try:
        csv_path.write_text("\n".join(lines) + "\n")
        summary = {
            "kind": report.kind,
            "slope": report.slope,
            "e0": report.e0,
            "seed": report.seed,
            "config_hash": report.config_hash,
            "config": report.config,
            **report.extras,
        }
        json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {base}: {exc}") from exc
    return csv_path, json_path


def fit_log_slope(Ns, errs, exclude_n1: bool = True) -> float:
    """OLS slope of log(err) against log(N).

    Non-finite or nonpositive errors are dropped; N=1 is excluded by
    default since it only anchors the curve's level.
    """

    Ns = np.asarray(Ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = np.isfinite(errs) & (errs > 0)
    if exclude_n1:
        keep &= Ns > 1
    if keep.sum() < 2:
        return math.nan
    x = np.log(Ns[keep])
    y = np.log(errs[keep])
    design = np.column_stack([np.ones(x.size), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[1])


def _capped_rmse(design_values: np.ndarray, W: np.ndarray, Y: np.ndarray, cap) -> float:
    preds = design_values @ W
    if cap is not None:
        np.clip(preds, -cap, cap, out=preds)
    r = preds - Y
    return math.sqrt(float(r @ r / Y.size))


def _finish(spec: ExperimentSpec, columns, rows, slope, e0, extras) -> ExperimentReport:
    """Build the report and write it when the spec names an output path."""

    report = ExperimentReport(
        kind=spec.kind,
        columns=columns,
        rows=tuple(rows),
        slope=slope,
        e0=e0,
        seed=spec.master_seed,
        config=spec.to_dict(),
        config_hash=spec.config_hash(),
        extras=extras,
    )
    if spec.output_path:
        write_report(report, spec.output_path)
    return report


def _pde_data(spec: ExperimentSpec, stream: int, n: int, label_kind: str, paths: int) -> Dataset:
    """PDE data drawn from substream ``stream`` of the master seed."""

    if not isinstance(spec.model, LevyTriplet) or spec.payoff is None:
        raise ValueError(f"{spec.kind} needs a Levy triplet model and a payoff")
    return gen_pde_dataset(
        spec.model, spec.payoff, spec.M, spec.T, n,
        label_kind=label_kind, seed=derive_seed(spec.master_seed, stream),
        paths=paths, noise_std=spec.noise_std,
    )


# ---------------------------------------------------------------------------
# rate curve


def run_rate_curve(spec: ExperimentSpec, datasets: tuple[Dataset, Dataset] | None = None) -> ExperimentReport:
    """Prediction error against network width on PDE data.

    Datasets are generated once from the model and payoff (or supplied
    by the caller, e.g. for synthetic sanity checks). The widths are
    prefixes of one hidden layer and share one R factor of its train
    design, folded from row blocks, and every width is solved from that
    R. Held-out errors come from row blocks of the test design as well, so
    neither design is ever built whole (SGD alone needs the train rows).
    Rows with failed fits keep their slot with a NaN error so the report
    stays one-row-per-N.
    """

    if spec.kind != "rate_curve":
        raise ValueError(f"spec kind is {spec.kind!r}")
    if len(spec.train) != 1:
        raise ValueError("rate_curve uses exactly one train config")
    cfg = spec.train[0]
    if datasets is None:
        train_ds = _pde_data(spec, _TRAIN_DATA, spec.n_train, spec.label_kind, spec.paths)
        # held-out labels default to per-point prices so e_hat tracks the
        # distance to the target function, not the training-label noise
        test_ds = _pde_data(
            spec, _TEST_DATA, spec.n_test, spec.test_label_kind or "mc_price",
            spec.test_paths or spec.paths,
        )
    else:
        train_ds, test_ds = datasets
    hidden = sample_hidden_weights(
        spec.weight_spec, spec.N_list[-1], train_ds.d, derive_seed(spec.master_seed, _HIDDEN)
    )
    fits: dict[int, tuple] = {}
    failed: dict[int, str] = {}
    try:
        # this module's fit, so wrapping experiments.fit wraps every width's solve
        solved = fit_widths(hidden, spec.N_list, train_ds, cfg, failed, solve=fit)
        for N, e_hat in _held_out_rmse(hidden, solved, test_ds, cfg.cap).items():
            fits[N] = (e_hat, *solved[N][1:])
    except _NUMERIC_FAILURES as exc:  # the R or the held-out pass failed: every width did
        for N in spec.N_list:
            failed.setdefault(N, str(exc))

    rows = []
    ranks = {}
    for N in spec.N_list:
        e_hat, diag, wall_ms = fits.get(N, (math.nan, None, math.nan))
        rows.append((N, e_hat, diag.empirical_risk if diag else math.nan, wall_ms))
        if diag is not None and diag.effective_rank is not None:
            ranks[str(N)] = diag.effective_rank
    e_hats = [r[1] for r in rows]
    extras = {"label_kind": train_ds.label_kind, "n_train": train_ds.n, "n_test": test_ds.n}
    if test_ds.label_se is not None:
        # the Monte Carlo noise floor under e_hat
        extras["test_label_se_rms"] = float(np.sqrt(np.mean(test_ds.label_se ** 2)))
    if ranks:
        extras["effective_rank"] = ranks
    if failed:
        extras["errors"] = [{"N": N, "error": failed[N]} for N in spec.N_list if N in failed]
    return _finish(
        spec, ("N", "e_hat", "train_risk", "wall_ms"), rows,
        fit_log_slope(spec.N_list, e_hats), e_hats[0], extras,
    )


def _held_out_rmse(hidden, solved: dict, test_ds: Dataset, cap) -> dict[int, float]:
    """Capped held-out RMSE of every solved width, one gemm per test block.

    The columns of the stack are the widths' W, zero-padded to the full
    layer, so one product of a block's design gives every width's
    predictions.
    """

    widths = list(solved)
    stack = np.zeros((hidden.N, len(widths)))
    for j, N in enumerate(widths):
        stack[:N, j] = solved[N][0]
    sse = np.zeros(len(widths))
    for rows in row_blocks(test_ds.n):
        resid = design_matrix(hidden, test_ds.X[rows]).values @ stack
        if cap is not None:
            np.clip(resid, -cap, cap, out=resid)
        resid -= test_ds.Y[rows, None]
        sse += np.einsum("ij,ij->j", resid, resid)
    return {N: math.sqrt(float(sse[j]) / test_ds.n) for j, N in enumerate(widths)}


# ---------------------------------------------------------------------------
# basket put


def run_basket_put(spec: ExperimentSpec) -> ExperimentReport:
    """Learn put prices from strike alone; every trainer sees the same data.

    For a single lognormal asset the learned curve is also scored
    against the closed-form put prices on a strike grid.
    """

    if spec.kind != "basket_put":
        raise ValueError(f"spec kind is {spec.kind!r}")
    if not isinstance(spec.model, LognormalSpec):
        raise ValueError("basket_put needs a lognormal terminal-price model")
    sampler = spec.model
    weights = basket_weights(sampler, spec.basket_weights)
    train_ds, test_ds = (
        gen_basket_put_dataset(
            sampler, weights, spec.M, n, noise_std=spec.noise_std,
            seed=derive_seed(spec.master_seed, stream), paths=spec.paths,
        )
        for n, stream in ((spec.n_train, _TRAIN_DATA), (spec.n_test, _TEST_DATA))
    )
    n_max = spec.N_list[-1]
    hidden_full = sample_hidden_weights(
        spec.weight_spec, n_max, 1, derive_seed(spec.master_seed, _HIDDEN)
    )
    full_train = design_matrix(hidden_full, train_ds.X).values
    full_test = design_matrix(hidden_full, test_ds.X).values

    single_asset = sampler.m == 1 and np.isclose(weights[0], 1.0)
    strike_grid = np.linspace(0.0, spec.M, spec.grid_points)
    if single_asset:
        closed = bs_put_price(
            sampler.s0[0], strike_grid, math.sqrt(sampler.cov[0, 0]), sampler.T
        )
        grid_design = design_matrix(hidden_full, strike_grid[:, None]).values

    rows = []
    rmse_by_method: dict[str, float] = {}
    for cfg in spec.train:
        for N in spec.N_list:
            t0 = time.perf_counter()
            w_n, diag_n = fit(full_train[:, :N], train_ds.Y, cfg)
            e_hat = _capped_rmse(full_test[:, :N], w_n, test_ds.Y, cfg.cap)
            wall = (time.perf_counter() - t0) * 1e3
            rows.append((cfg.method, N, e_hat, diag_n.empirical_risk, wall))
            if single_asset and N == n_max:
                rmse_by_method[cfg.method] = _capped_rmse(
                    grid_design, w_n, closed, cfg.cap
                )

    methods = {cfg.method for cfg in spec.train}
    extras: dict = {"paths": spec.paths, "noise_std": spec.noise_std}
    if single_asset:
        extras["rmse_closed_form"] = rmse_by_method
    e_hats = [r[2] for r in rows]
    slope = None
    if len(methods) == 1 and len(spec.N_list) > 1:
        slope = fit_log_slope([r[1] for r in rows], e_hats)
    return _finish(
        spec, ("method", "N", "e_hat", "train_risk", "wall_ms"), rows, slope, e_hats[0], extras
    )


# ---------------------------------------------------------------------------
# oracle convergence


def run_oracle_convergence(spec: ExperimentSpec) -> ExperimentReport:
    """Sup-grid error of training-free weights across widths and seeds.

    Emits one row per (seed, N); the summary carries per-N means and,
    when both N=100 and N=400 were run, their error ratio.
    """

    if spec.kind != "oracle_convergence":
        raise ValueError(f"spec kind is {spec.kind!r}")
    payoff = spec.payoff
    if payoff is None:
        raise ValueError("oracle_convergence needs a compactly supported payoff")
    profile = gaussian_profile(payoff, spec.M, spec.C)
    cov = np.array([[2.0 * spec.C]])
    axis = np.linspace(-spec.M, spec.M, spec.grid_points)
    ref_vals = reference_convolution(payoff, cov, axis[:, None])

    n_max = spec.N_list[-1]
    rows = []
    sup_by_n: dict[int, list[float]] = {N: [] for N in spec.N_list}
    for s in range(spec.oracle_seeds):
        hidden = sample_hidden_weights(
            spec.weight_spec, n_max, 1, derive_seed(spec.master_seed, _ORACLE, s)
        )
        f = construct_oracle_weights(hidden, profile) * n_max
        # each width's features on the grid are a column prefix of this one design
        grid = design_matrix(hidden, axis[:, None]).values
        for N in spec.N_list:
            err = sup_error_on_grid(grid[:, :N], f[:N] / N, ref_vals)
            rows.append((s, N, err, float(np.abs(f[:N]).max() / N)))
            sup_by_n[N].append(err)

    means = {N: float(np.mean(v)) for N, v in sup_by_n.items()}
    extras: dict = {"mean_sup_error": {str(N): means[N] for N in spec.N_list}}
    if 100 in means and 400 in means and means[400] > 0:
        extras["ratio_100_400"] = means[100] / means[400]
    slope = fit_log_slope(spec.N_list, [means[N] for N in spec.N_list], exclude_n1=True)
    return _finish(
        spec, ("seed", "N", "sup_error", "max_weight"), rows, slope, means[spec.N_list[0]], extras
    )


# ---------------------------------------------------------------------------
# SGD against the OLS optimum


def _default_checkpoints(steps: int) -> tuple[int, ...]:
    marks = [1]
    t = 1
    while t < steps:
        t = min(steps, t * 10)
        for m in (t // 10 * 3, t):
            if 1 < m <= steps and m > marks[-1]:
                marks.append(m)
    if marks[-1] != steps:
        marks.append(steps)
    return tuple(marks)


def run_sgd_vs_ols(spec: ExperimentSpec) -> ExperimentReport:
    """Empirical-risk gap of SGD iterates against the OLS optimum.

    One dataset, one hidden layer; SGD restarts once per sgd seed and
    the rows hold the gap at each checkpoint averaged over those seeds.
    """

    if spec.kind != "sgd_vs_ols":
        raise ValueError(f"spec kind is {spec.kind!r}")
    if len(spec.train) != 1 or spec.train[0].method != "sgd":
        raise ValueError("sgd_vs_ols needs exactly one sgd train config")
    base_cfg = spec.train[0]
    if len(spec.N_list) != 1:
        raise ValueError("sgd_vs_ols uses a single network width")
    N = spec.N_list[0]
    train_ds = _pde_data(spec, _TRAIN_DATA, spec.n_train, spec.label_kind, spec.paths)
    hidden = sample_hidden_weights(
        spec.weight_spec, N, train_ds.d, derive_seed(spec.master_seed, _HIDDEN)
    )
    X = design_matrix(hidden, train_ds.X).values
    y = train_ds.Y
    _, ols_diag = fit_ols(X, y)
    ols_risk = ols_diag.empirical_risk

    steps = base_cfg.steps
    marks = spec.checkpoints if spec.checkpoints is not None else _default_checkpoints(steps)
    marks = tuple(sorted(set(int(m) for m in marks)))
    if marks[0] < 1 or marks[-1] > steps:
        raise ValueError("checkpoints must lie in [1, steps]")

    t0 = time.perf_counter()
    risk_traces = []
    final_gaps = []
    for s in range(spec.sgd_seeds):
        cfg = replace(base_cfg, seed=derive_seed(spec.master_seed, _SGD, s))
        trace: dict[int, float] = {}
        mark_set = set(marks)

        def observer(t, w, _trace=trace, _marks=mark_set):
            if t in _marks:
                r = X @ w - y
                _trace[t] = float(r @ r / y.size)

        _, diag = fit_sgd(X, y, cfg, observer=observer)
        risk_traces.append(trace)
        final_gaps.append(trace[marks[-1]] - ols_risk)

    wall = (time.perf_counter() - t0) * 1e3
    rows = []
    for m in marks:
        mean_risk = float(np.mean([tr[m] for tr in risk_traces]))
        rows.append((m, mean_risk - ols_risk, mean_risk, wall))
    extras = {
        "ols_risk": ols_risk,
        "final_gap_mean": float(np.mean(final_gaps)),
        "final_gaps": [float(g) for g in final_gaps],
        "gap_tolerance": 0.05 * (1.0 + ols_risk),
    }
    return _finish(spec, ("T", "risk_gap", "risk", "wall_ms"), rows, None, None, extras)


_RUNNERS = {
    "rate_curve": run_rate_curve,
    "basket_put": run_basket_put,
    "oracle_convergence": run_oracle_convergence,
    "sgd_vs_ols": run_sgd_vs_ols,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run the experiment ``spec`` declares, on one OpenBLAS thread."""

    with single_blas_thread():
        return _RUNNERS[spec.kind](spec)
