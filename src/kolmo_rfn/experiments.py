"""Experiment runner: rate curves, basket puts, oracle convergence, SGD vs OLS.

Each experiment is declared by an ExperimentSpec (``kolmo_rfn.config``),
runs deterministically from its master seed, and produces an
ExperimentReport that can be written as a CSV of rows plus a JSON
summary. Seeds for data generation, hidden-weight sampling, and SGD are
derived from the master seed through independent substreams, so
changing one leg (say, the size of the test set) never perturbs another.
Every runner holds numpy's OpenBLAS at one thread
(``_blas.single_blas_thread``), so its rows do not depend on the core
count, whether it is called directly or through ``run_experiment``.
"""

from __future__ import annotations

import json
import math
import queue
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import train
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
from .network import RandomFeatureNet, design_matrix, predict, row_blocks, sample_hidden_weights, subnetwork
from .rng import derive_seed
from .train import (
    _NUMERIC_FAILURES, TrainConfig, empirical_risk, fit, fit_sgd, fit_widths, fold_features, risk_from_r,
)

__all__ = [
    "ExperimentReport",
    "fit_log_slope",
    "run_rate_curve",
    "run_basket_put",
    "run_oracle_convergence",
    "run_sgd_vs_ols",
    "run_experiment",
    "write_report",
    "strict_json",
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


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""

    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def strict_json(doc, **kwargs) -> str:
    """``json.dumps`` that writes a non-finite float as null, since RFC 8259 JSON has no NaN."""

    return json.dumps(_finite_or_null(doc), allow_nan=False, **kwargs)


def write_report(report: ExperimentReport, output_path) -> tuple[Path, Path]:
    """CSV of rows plus a JSON summary next to it.

    The summary is strict JSON: a NaN slope or an infinite noise floor
    is written as null. The report itself keeps its floats.
    """

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
        json_path.write_text(strict_json(summary, indent=2, sort_keys=True) + "\n")
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


def _pde_data(
    spec: ExperimentSpec, stream: int, n: int, label_kind: str, paths: int, stop=None,
) -> Dataset:
    """PDE data drawn from substream ``stream`` of the master seed."""

    if not isinstance(spec.model, LevyTriplet) or spec.payoff is None:
        raise ValueError(f"{spec.kind} needs a Levy triplet model and a payoff")
    return gen_pde_dataset(
        spec.model, spec.payoff, spec.M, spec.T, n,
        label_kind=label_kind, seed=derive_seed(spec.master_seed, stream),
        paths=paths, noise_std=spec.noise_std, stop=stop,
    )


# ---------------------------------------------------------------------------
# rate curve


@single_blas_thread()
def run_rate_curve(spec: ExperimentSpec, datasets: tuple[Dataset, Dataset] | None = None) -> ExperimentReport:
    """Prediction error against network width on PDE data.

    Datasets are generated once from the model and payoff (or supplied
    by the caller, e.g. for synthetic sanity checks). The widths are
    prefixes of one hidden layer and share one R factor of its train
    design, folded from row blocks, and every width is solved from that
    R. Each width's held-out error is the square root of
    ``empirical_risk`` of its net on the test set, the number CLI
    ``evaluate`` prints for that model and data; ``predict`` builds the
    test design piece by piece, so neither design is ever built whole
    (SGD alone needs the train rows). Rows with failed fits keep their
    slot with a NaN error so the report stays one-row-per-N.

    A generated test set is drawn on one worker thread while this thread
    fits the widths: the fold's ``dtpqrt`` releases the GIL, so the
    labels run beside it. The worker is joined before the held-out pass,
    and an error it raised comes out of this call. When this thread
    raises (a fit error or Ctrl-C), the worker stops at its next label
    block, so the error comes out without waiting for the whole test
    set. Each dataset draws
    from its own streams, so the rows are those of the same data supplied
    through ``datasets``, which starts no worker.
    """

    if spec.kind != "rate_curve":
        raise ValueError(f"spec kind is {spec.kind!r}")
    if len(spec.train) != 1:
        raise ValueError("rate_curve uses exactly one train config")
    if datasets is not None:
        train_ds, test_ds = datasets
        return _rate_curve(spec, train_ds, lambda: test_ds)
    # imported here, as in data._mc_labels: concurrent.futures brings in
    # logging, about 10 ms of every cold start
    from concurrent.futures import ThreadPoolExecutor

    train_ds = _pde_data(spec, _TRAIN_DATA, spec.n_train, spec.label_kind, spec.paths)
    stop = threading.Event()
    with ThreadPoolExecutor(1) as pool:
        # held-out labels default to per-point prices so e_hat tracks the
        # distance to the target function, not the training-label noise
        test_set = pool.submit(
            _pde_data, spec, _TEST_DATA, spec.n_test, spec.test_label_kind or "mc_price",
            spec.test_paths or spec.paths, stop,
        )
        try:
            return _rate_curve(spec, train_ds, test_set.result)
        except BaseException:
            stop.set()  # leaving the pool joins the worker, which now ends at its next block
            raise


def _rate_curve(spec: ExperimentSpec, train_ds: Dataset, test_data) -> ExperimentReport:
    """The rate curve of ``spec`` on ``train_ds``; ``test_data()`` is called after the fits.

    Each solved width's net is scored by ``empirical_risk`` on the test
    set; an error there fails every width, with its message.
    """

    cfg = spec.train[0]
    hidden = sample_hidden_weights(
        spec.weight_spec, spec.N_list[-1], train_ds.d, derive_seed(spec.master_seed, _HIDDEN)
    )
    fits: dict[int, tuple] = {}
    failed: dict[int, str] = {}
    solved: dict = {}
    try:
        # this module's fit, so wrapping experiments.fit wraps every width's solve
        solved = fit_widths(hidden, spec.N_list, train_ds, cfg, failed, solve=fit)
    except _NUMERIC_FAILURES as exc:  # the R failed: every width did
        failed = dict.fromkeys(spec.N_list, str(exc))
    test_ds = test_data()  # outside the handlers: a failed test set is not a failed width
    try:
        fits = {
            N: (math.sqrt(empirical_risk(RandomFeatureNet(subnetwork(hidden, N), W, cfg.cap), test_ds)),
                diag, wall_ms)
            for N, (W, diag, wall_ms) in solved.items()
        }
    except _NUMERIC_FAILURES as exc:  # the held-out pass failed: every width did
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


# ---------------------------------------------------------------------------
# basket put


@single_blas_thread()
def run_basket_put(spec: ExperimentSpec) -> ExperimentReport:
    """Learn put prices from strike alone; every trainer sees the same data.

    Widths are fitted and scored as in a rate curve: through
    ``fit_widths``, and by ``empirical_risk`` of each width's net on the
    test set. The train rows are folded once, and every least-squares
    config solves from that R; SGD gets the design. When a config needs
    R, a run uses two threads: the labels are drawn on this one while a
    helper folds each finished block of train rows (``_fold_while_drawn``),
    and R has the bits of ``fold_features`` on the finished train set.
    For a single lognormal asset the widest net's ``predict`` is also
    scored against the closed-form put prices on a strike grid. Rows and
    that score are keyed by method, so each method may be trained once.
    """

    if spec.kind != "basket_put":
        raise ValueError(f"spec kind is {spec.kind!r}")
    if not isinstance(spec.model, LognormalSpec):
        raise ValueError("basket_put needs a lognormal terminal-price model")
    methods = [cfg.method for cfg in spec.train]
    for method in methods:
        if methods.count(method) > 1:
            raise ValueError(f"basket_put rows are keyed by method; {method!r} is trained twice")
    sampler = spec.model
    weights = basket_weights(sampler, spec.basket_weights)
    hidden = sample_hidden_weights(
        spec.weight_spec, spec.N_list[-1], 1, derive_seed(spec.master_seed, _HIDDEN)
    )

    def draw(n, stream, **hooks) -> Dataset:
        return gen_basket_put_dataset(
            sampler, weights, spec.M, n, noise_std=spec.noise_std,
            seed=derive_seed(spec.master_seed, stream), paths=spec.paths, **hooks,
        )

    r = None
    if all(cfg.method == "sgd" for cfg in spec.train):
        train_ds, test_ds = draw(spec.n_train, _TRAIN_DATA), draw(spec.n_test, _TEST_DATA)
    else:
        train_ds, test_ds, r = _fold_while_drawn(hidden, spec.n_train, spec.n_test, draw)

    single_asset = sampler.m == 1 and np.isclose(weights[0], 1.0)
    strike_grid = np.linspace(0.0, spec.M, spec.grid_points)
    if single_asset:
        closed = bs_put_price(
            sampler.s0[0], strike_grid, math.sqrt(sampler.cov[0, 0]), sampler.T
        )

    rows = []
    rmse_by_method: dict[str, float] = {}
    for cfg in spec.train:
        # this module's fit, so wrapping experiments.fit wraps every width's solve
        solved = fit_widths(hidden, spec.N_list, train_ds, cfg, solve=fit, r=r)
        for N in spec.N_list:
            W, diag, wall_ms = solved[N]
            net = RandomFeatureNet(subnetwork(hidden, N), W, cfg.cap)
            e_hat = math.sqrt(empirical_risk(net, test_ds))
            rows.append((cfg.method, N, e_hat, diag.empirical_risk, wall_ms))
        if single_asset:  # net is the widest fit's
            err = predict(net, strike_grid[:, None]) - closed
            rmse_by_method[cfg.method] = math.sqrt(float(err @ err / err.size))

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


def _fold_while_drawn(hidden, n: int, n_test: int, draw) -> tuple[Dataset, Dataset, np.ndarray]:
    """``draw(n, stream, **hooks)``'s train and test sets, and the R of the train design.

    The labels hold the GIL, so they are drawn on this thread; one helper
    thread folds each block of ``row_blocks(n)`` into R as soon as its
    labels are final, with the buffers and block kernel of
    ``fold_features``, so R has its bits on the finished train set. The
    helper wakes once per fold block, and folds through the one buffer
    allocated here before it starts. The last block is folded while the test labels are
    drawn. If the helper raises, the labels stop at their next block; it
    is joined, and its error raised, before this returns, and a label
    error ends its wait.
    """

    r, buffer = train._fold_buffers(hidden, n)
    arrived: queue.SimpleQueue = queue.SimpleQueue()
    waiting = iter(row_blocks(n))
    block = next(waiting)

    def finished(X, Y, hi) -> None:
        nonlocal block
        while block is not None and block.stop <= hi:
            arrived.put((X[block], Y[block]))
            block = next(waiting, None)

    stop = threading.Event()
    errors: list[BaseException] = []

    def fold() -> None:
        try:
            for X, y in iter(arrived.get, None):
                train._fold_block(r, hidden, X, y, buffer)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    helper = threading.Thread(target=fold, name="basket-fold")
    helper.start()
    try:
        train_ds = draw(n, _TRAIN_DATA, stop=stop, finished=finished)
        test_ds = draw(n_test, _TEST_DATA, stop=stop)
    finally:
        arrived.put(None)  # ends the helper's loop, after every block that arrived
        helper.join()
        if errors:
            raise errors[0]
    return train_ds, test_ds, r


# ---------------------------------------------------------------------------
# oracle convergence


@single_blas_thread()
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
    return tuple(marks)


@single_blas_thread()
def run_sgd_vs_ols(spec: ExperimentSpec) -> ExperimentReport:
    """Empirical-risk gap of SGD iterates against the OLS optimum.

    One dataset, one hidden layer, folded once into the R of its train
    design. The OLS optimum is solved from that R, and each checkpoint's
    risk is read from it by ``risk_from_r``, so the gap compares two
    risks of one formula. SGD runs on the design, restarting once per sgd
    seed. Each row holds the gap of the iterate W_T at its checkpoint T,
    averaged over those seeds, and ``wall_ms``, the time from the start of
    ``fit_sgd`` to W_T, averaged the same way, so it never falls as T
    grows; the checkpoints always end at T = steps.
    ``final_gaps`` and ``final_gap_mean`` score the vector ``fit_sgd``
    returns: the last iterate W_steps, or with ``average`` the average of
    W_1..W_steps.
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
    r = fold_features(hidden, train_ds)
    _, ols_diag, _ = fit_widths(hidden, (N,), train_ds, TrainConfig(method="ols"), solve=fit, r=r)[N]
    ols_risk = ols_diag.empirical_risk
    X = design_matrix(hidden, train_ds.X).values

    steps = base_cfg.steps
    marks = spec.checkpoints if spec.checkpoints is not None else _default_checkpoints(steps)
    # the last row is the last iterate, whatever the list
    marks = tuple(sorted({int(m) for m in marks} | {steps}))
    if marks[0] < 1 or marks[-1] > steps:
        raise ValueError("checkpoints must lie in [1, steps]")

    risk_traces = []
    time_traces = []
    final_gaps = []
    for s in range(spec.sgd_seeds):
        cfg = replace(base_cfg, seed=derive_seed(spec.master_seed, _SGD, s))
        risks: dict[int, float] = {}
        times: dict[int, float] = {}
        mark_set = set(marks)

        def observer(t, w, _risks=risks, _times=times, _marks=mark_set):
            if t in _marks:
                _times[t] = time.perf_counter()
                _risks[t] = risk_from_r(r, w, train_ds.n)

        t0 = time.perf_counter()
        W, _ = fit_sgd(X, train_ds.Y, cfg, observer=observer)
        risk_traces.append(risks)
        time_traces.append({t: (at - t0) * 1e3 for t, at in times.items()})
        final_gaps.append(risk_from_r(r, W, train_ds.n) - ols_risk)

    rows = []
    for m in marks:
        mean_risk = float(np.mean([tr[m] for tr in risk_traces]))
        mean_ms = float(np.mean([tr[m] for tr in time_traces]))
        rows.append((m, mean_risk - ols_risk, mean_risk, mean_ms))
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
