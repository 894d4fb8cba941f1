"""Command line entry points.

Subcommands cover the full workflow: sample hidden weights, generate
datasets, train output weights, evaluate a saved model, and run the
packaged experiments. Exit codes: 0 on success, 1 for validation and
usage problems, 2 for I/O failures (missing or unreadable files), 3
when an experiment ran but some of its widths failed (its report is
written and each failure is named on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ._blas import single_blas_thread
from .config import EXPERIMENT_KINDS, ExperimentSpec, dataset_from_dict
from .data import load_dataset, save_dataset
from .experiments import run_experiment
from .network import (
    RandomFeatureNet,
    WeightDistributionSpec,
    load_model,
    sample_hidden_weights,
    save_model,
)
from .train import METHODS, TrainConfig, empirical_risk, fit_widths

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; we reserve 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_json(path) -> dict:
    p = Path(path)
    text = p.read_text()  # FileNotFoundError carries the path to the handler
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config {p}: expected a JSON object, got {type(doc).__name__}")
    return doc


@contextmanager
def _config_fields(path):
    """Report a bad field of the config at ``path`` as a ValueError naming the file."""

    try:
        yield
    except (KeyError, TypeError) as exc:
        raise ValueError(f"config {path}: missing or mistyped field: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from exc


def _weight_spec(args) -> WeightDistributionSpec:
    return WeightDistributionSpec(nu=args.nu, b_dof=args.b_dof)


def _cmd_sample_weights(args) -> int:
    hidden = sample_hidden_weights(_weight_spec(args), args.N, args.d, args.seed)
    net = RandomFeatureNet(hidden=hidden, W=np.zeros(args.N))
    save_model(net, args.out)
    print(f"wrote {args.N} hidden features (d={args.d}, seed={args.seed}) to {args.out}")
    return 0


def _cmd_gen_data(args) -> int:
    doc = _load_json(args.config)
    with _config_fields(args.config):
        out = args.out or doc.get("output")
        if out is None:
            raise ValueError("no output path: pass --out or set \"output\" in the config")
        ds = dataset_from_dict(doc, args.seed)
    save_dataset(ds, out)
    print(f"wrote {ds.n} rows (d={ds.d}, labels={ds.label_kind}, seed={ds.seed}) to {out}")
    return 0


def _cmd_train(args) -> int:
    # every flag is checked before the data is read or a hidden layer sampled
    if args.method == "constrained" and args.lam is None:
        raise ValueError("--lambda is required for --method constrained (norm-ball radius)")
    cfg = TrainConfig(
        method=args.method, lam=args.lam, eta0=args.eta0, batch=args.batch,
        steps=args.steps, seed=args.seed, cap=args.cap, average=args.average,
    )
    if args.hidden is None and args.N is None:
        raise ValueError("pass --hidden FILE or --N to sample hidden weights")
    ds = load_dataset(args.data)
    if args.hidden is not None:
        hidden = load_model(args.hidden).hidden
        if hidden.d != ds.d:
            raise ValueError(
                f"hidden weights expect d={hidden.d} but the data has d={ds.d}"
            )
    else:
        hidden = sample_hidden_weights(_weight_spec(args), args.N, ds.d, args.weights_seed)
    W, diag, _ = fit_widths(hidden, (hidden.N,), ds, cfg)[hidden.N]
    net = RandomFeatureNet(hidden=hidden, W=W, cap=args.cap)
    save_model(net, args.out)
    diag_doc = diag.to_dict()
    Path(str(args.out) + ".diag.json").write_text(json.dumps(diag_doc, indent=2) + "\n")
    print(json.dumps({"model": str(args.out), **diag_doc}))
    return 0


def _cmd_evaluate(args) -> int:
    net = load_model(args.model)
    ds = load_dataset(args.data)
    risk = empirical_risk(net, ds)
    result = {
        "n": ds.n,
        "d": ds.d,
        "empirical_risk": risk,
        "e_hat": math.sqrt(risk),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def _cmd_experiment(args) -> int:
    doc = _load_json(args.config)
    doc.setdefault("kind", args.kind)
    if args.seed is not None:
        doc["master_seed"] = args.seed
    if args.out is not None:
        doc["output"] = args.out
    with _config_fields(args.config):
        spec = ExperimentSpec.from_dict(doc)
    kind = args.kind.replace("-", "_")
    if spec.kind != kind:
        raise ValueError(f"config declares kind {spec.kind!r} but the command line asked for {kind!r}")
    report = run_experiment(spec)
    summary = {
        "kind": report.kind,
        "rows": len(report.rows),
        "slope": report.slope,
        "e0": report.e0,
        "seed": report.seed,
        "config_hash": report.config_hash,
        **{k: v for k, v in report.extras.items() if not isinstance(v, (list, dict))},
    }
    errors = report.extras.get("errors", [])
    if errors:
        summary["errors"] = len(errors)
    if spec.output_path:
        summary["output"] = str(Path(spec.output_path).with_suffix(".csv"))
    print(json.dumps(summary))
    for failure in errors:
        print(f"error: N={failure['N']}: {failure['error']}", file=sys.stderr)
    return 3 if errors else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="kolmo-rfn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-weights", parents=[], help="sample and save hidden weights")
    p.add_argument("--N", type=int, required=True, help="number of features")
    p.add_argument("--d", type=int, required=True, help="input dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nu", type=float, default=5.0, help="t dof for the A rows")
    p.add_argument("--b-dof", type=float, default=2.0, help="t dof for the biases")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_sample_weights)

    p = sub.add_parser("gen-data", help="generate a labeled dataset from a JSON config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="fit output weights on a dataset")
    p.add_argument("--data", required=True, help="dataset CSV from gen-data")
    p.add_argument("--hidden", default=None, help="model JSON holding hidden weights")
    p.add_argument("--N", type=int, default=None, help="sample this many features instead")
    p.add_argument("--weights-seed", type=int, default=0)
    p.add_argument("--nu", type=float, default=5.0)
    p.add_argument("--b-dof", type=float, default=2.0)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="norm-ball radius")
    p.add_argument("--eta0", type=float, default=None, help="sgd step-size scale")
    p.add_argument("--batch", type=int, default=None, help="sgd minibatch size")
    p.add_argument("--steps", type=int, default=None, help="sgd iterate count")
    p.add_argument("--seed", type=int, default=0, help="sgd sampling seed")
    p.add_argument("--cap", type=float, default=None, help="clip predictions to [-cap, cap]")
    p.add_argument("--average", action="store_true", help="return the sgd iterate average")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="empirical risk of a model on a dataset")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--out", default=None, help="optional JSON result path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run a packaged experiment from a JSON config")
    p.add_argument(
        "kind", choices=[k.replace("_", "-") for k in EXPERIMENT_KINDS] + list(EXPERIMENT_KINDS)
    )
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--out", default=None, help="override the report output path")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with single_blas_thread():
            return args.func(args)
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else exc
        print(f"error: cannot read {missing}", file=sys.stderr)
        return 2
    except IsADirectoryError as exc:
        print(f"error: {exc.filename} is a directory", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
