"""The package runs on numpy alone: scipy is a test dependency only.

A fresh interpreter imports ``kolmo_rfn.cli``, runs every experiment kind
and the CLI data, weight-sampling, training and evaluation commands at
tiny size, and then lists the scipy modules it has loaded. Checking
``sys.modules`` at the end also catches an import made lazily inside a
function. The same interpreter checks that importing the package starts
no thread and that no thread is left running once the commands return.

Importing the package must also leave the BLAS alone: it loads no ctypes
module beyond those numpy itself imports, and it does not look the OpenBLAS
libraries up (that happens at the first run), so the cold start pays for
neither. After the commands, every mapped OpenBLAS must report the thread
count it had before them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_MAX_CALL = {"kind": "max_call", "params": {"strike": 1.0, "d": 2}}
_MODEL = {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 2}

_TRAIN = {
    "ols": {"method": "ols"},
    "constrained": {"method": "constrained", "lambda": 5.0},
    "sgd": {"method": "sgd", "lambda": 100.0, "eta0": 0.003, "steps": 50},
}

EXPERIMENTS = {
    **{
        f"rate_curve_{method}": {
            "kind": "rate_curve", "model": _MODEL, "payoff": _MAX_CALL,
            "n_train": 300, "n_test": 20, "paths": 20, "N_list": [5, 10], "train": train,
        }
        for method, train in _TRAIN.items()
    },
    "basket_put": {
        "kind": "basket_put", "model": {"type": "lognormal", "s0": [1.0], "cov": [[0.04]], "T": 1.0},
        "basket_weights": [1.0], "n_train": 200, "n_test": 50, "N_list": [20], "paths": 10,
        "train": {"method": "ols"}, "grid_points": 11,
    },
    "sgd_vs_ols": {
        "kind": "sgd_vs_ols", "model": _MODEL, "payoff": _MAX_CALL, "n_train": 100, "n_test": 1,
        "N_list": [10], "train": _TRAIN["sgd"], "sgd_seeds": 1,
    },
    "oracle_convergence": {
        "kind": "oracle_convergence", "payoff": {"kind": "tent", "params": {"center": 0.0, "width": 1.0}},
        "C": 0.15, "N_list": [10, 20], "oracle_seeds": 1, "grid_points": 11,
    },
    "oracle_table": {
        "kind": "oracle_convergence",
        "payoff": {"kind": "table", "params": {"xs": [-1.0, 0.0, 1.0], "ys": [0.2, 1.0, 0.0]}},
        "C": 0.15, "N_list": [10], "oracle_seeds": 1, "grid_points": 11,
    },
}

DATA = {
    # 600 paths x 2 normals a row: enough for label rows to be shared with a helper thread
    "pde": {
        "kind": "pde", "model": _MODEL, "payoff": _MAX_CALL, "n": 100, "label_kind": "mc_price", "paths": 600,
    },
    "basket": {"kind": "basket_put", "model": EXPERIMENTS["basket_put"]["model"], "n": 50, "paths": 10},
}

SCRIPT = """
import json, sys, threading
alone = threading.enumerate()
import numpy
before_import = set(sys.modules)
from kolmo_rfn.cli import main
after_import = threading.enumerate()
ctypes_by_import = sorted(m for m in set(sys.modules) - before_import if "ctypes" in m)
from kolmo_rfn import _blas
looked_up_by_import = _blas._controls is not None


def blas_threads():
    import ctypes, os
    counts = {}
    for path in _blas._mapped_openblas():
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        for _, get in _blas._SYMBOLS:
            if hasattr(lib, get):
                counts[path] = getattr(lib, get)()
                break
    return counts


threads_before = blas_threads()

runs = json.loads(sys.argv[1])
for argv in runs:
    code = main(argv)
    if code != 0:
        sys.exit(f"exit {code}: {argv}")
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "started_by_import": len(after_import) - len(alone),
    "left_running": len(threading.enumerate()) - len(alone),
    "ctypes_by_import": ctypes_by_import,
    "looked_up_by_import": looked_up_by_import,
    "blas_threads_restored": blas_threads() == threads_before,
}))
"""


def _commands(tmp: Path) -> list[list[str]]:
    runs = []
    for name, doc in EXPERIMENTS.items():
        cfg = tmp / f"{name}_config.json"
        cfg.write_text(json.dumps(doc))
        runs.append(["experiment", doc["kind"], "--config", str(cfg), "--out", str(tmp / name)])
    for name, doc in DATA.items():
        cfg = tmp / f"data_{name}.json"
        cfg.write_text(json.dumps(doc))
        train, test = (str(tmp / f"{name}_{split}.csv") for split in ("train", "test"))
        runs.append(["gen-data", "--config", str(cfg), "--seed", "1", "--out", train])
        runs.append(["gen-data", "--config", str(cfg), "--seed", "2", "--out", test])
        for method in ("ols", "constrained", "sgd"):
            model = str(tmp / f"{name}_{method}.json")
            runs.append(["train", "--data", train, "--N", "8", "--method", method, "--lambda", "5",
                         "--eta0", "0.003", "--steps", "50", "--out", model])
            runs.append(["evaluate", "--model", model, "--data", test])
    hidden = str(tmp / "hidden.json")
    runs.append(["sample-weights", "--N", "8", "--d", "2", "--seed", "1", "--out", hidden])
    runs.append(["train", "--data", str(tmp / "pde_train.csv"), "--hidden", hidden, "--method", "ols",
                 "--out", str(tmp / "pde_hidden_ols.json")])
    return runs


def test_package_runs_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(_commands(tmp_path))],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "scipy": [], "started_by_import": 0, "left_running": 0,
        "ctypes_by_import": [], "looked_up_by_import": False, "blas_threads_restored": True,
    }
    for name in EXPERIMENTS:
        assert (tmp_path / f"{name}.json").exists() and (tmp_path / f"{name}.csv").exists()
