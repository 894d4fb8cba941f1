"""Runs pin numpy's OpenBLAS to one thread and give the caller's count back.

The rows of a run must not depend on the machine's BLAS thread count: the
same commands in fresh interpreters under ``OPENBLAS_NUM_THREADS=1`` and
``=2`` must write the same report rows.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kolmo_rfn import _blas, experiments
from kolmo_rfn.cli import main
from kolmo_rfn.config import ExperimentSpec

SRC = Path(__file__).resolve().parents[1] / "src"

RATE = {
    "kind": "rate_curve",
    "model": {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 2},
    "payoff": {"kind": "max_call", "params": {"strike": 1.0, "d": 2}},
    "n_train": 300, "n_test": 50, "paths": 20, "N_list": [5, 10], "train": {"method": "ols"},
}


def _numpy_openblas():
    """(get, set) of numpy's own OpenBLAS, found independently of the lookup under test."""

    root = str(Path(np.__file__).resolve().parent)  # numpy/.libs and numpy.libs/ both start with it
    for path in _blas._mapped_openblas():
        if not path.startswith(root):
            continue
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        for set_name, get_name in _blas._SYMBOLS:
            if hasattr(lib, get_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, set_
    pytest.skip("numpy does not run on a mapped OpenBLAS")


@pytest.fixture
def numpy_threads():
    """numpy's OpenBLAS thread count getter, with the count set to 2 for the test."""

    get, set_ = _numpy_openblas()
    before = get()
    set_(2)
    yield get
    set_(before)


@pytest.fixture
def recorded(monkeypatch):
    """Counts numpy's OpenBLAS reports from inside each rate-curve run."""

    get, _ = _numpy_openblas()
    counts = []
    runner = experiments._RUNNERS["rate_curve"]

    def recording(spec):
        counts.append(get())
        return runner(spec)

    monkeypatch.setitem(experiments._RUNNERS, "rate_curve", recording)
    return counts


def test_lookup_finds_numpys_openblas(numpy_threads):
    with _blas.single_blas_thread():
        assert numpy_threads() == 1
    assert numpy_threads() == 2


def test_nested_scopes_restore_the_outer_count(numpy_threads):
    with _blas.single_blas_thread():
        with _blas.single_blas_thread():
            assert numpy_threads() == 1
        assert numpy_threads() == 1
    assert numpy_threads() == 2


def test_run_experiment_runs_on_one_thread(numpy_threads, recorded, tmp_path):
    experiments.run_experiment(ExperimentSpec.from_dict({**RATE, "output": str(tmp_path / "r")}))
    assert recorded == [1]
    assert numpy_threads() == 2


def test_count_restored_when_the_run_raises(numpy_threads, monkeypatch):
    def failing(spec):
        assert numpy_threads() == 1
        raise RuntimeError("runner failed")

    monkeypatch.setitem(experiments._RUNNERS, "rate_curve", failing)
    with pytest.raises(RuntimeError, match="runner failed"):
        experiments.run_experiment(ExperimentSpec.from_dict(RATE))
    assert numpy_threads() == 2


def test_cli_restores_the_count_on_every_exit(numpy_threads, recorded, tmp_path, capsys):
    cfg = tmp_path / "rate.json"
    cfg.write_text(json.dumps(RATE))
    # 0: the experiment command, which enters run_experiment's scope inside main's
    assert main(["experiment", "rate-curve", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert recorded == [1] and numpy_threads() == 2
    # 1: a flag error
    assert main(["train", "--data", str(tmp_path / "ghost.csv"), "--N", "4",
                 "--method", "constrained", "--out", str(tmp_path / "m.json")]) == 1
    assert numpy_threads() == 2
    # 3: every width failed (a minibatch larger than n_train)
    failing = {**RATE, "train": {"method": "sgd", "lambda": 10.0, "eta0": 0.1, "steps": 10, "batch": 5000}}
    cfg.write_text(json.dumps(failing))
    assert main(["experiment", "rate-curve", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 3
    assert recorded == [1, 1] and numpy_threads() == 2


def test_run_completes_without_an_openblas(monkeypatch, tmp_path):
    # no /proc: the lookup finds nothing and the scope does nothing
    monkeypatch.setattr(_blas, "_MAPS", str(tmp_path / "no_such_maps"))
    monkeypatch.setattr(_blas, "_controls", None)
    report = experiments.run_experiment(ExperimentSpec.from_dict(RATE))
    assert _blas._controls == [] and len(report.rows) == 2


# Fresh interpreters, one per thread count: the rate curve has d = 5 and
# Monte Carlo test labels, the basket put one width of 200 features.
CORE_COUNT_RUNS = {
    "rate_curve": {
        "kind": "rate_curve",
        "model": {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 5},
        "payoff": {"kind": "max_call", "params": {"strike": 1.0, "d": 5}},
        "n_train": 2000, "n_test": 200, "N_list": [10, 40, 160], "label_kind": "single_draw",
        "test_label_kind": "mc_price", "test_paths": 200, "train": {"method": "ols"}, "master_seed": 7,
    },
    "basket_put": {
        "kind": "basket_put", "model": {"type": "lognormal", "s0": [1.0], "cov": [[0.04]], "T": 1.0},
        "basket_weights": [1.0], "n_train": 2000, "n_test": 500, "N_list": [200], "paths": 100,
        "train": {"method": "ols"}, "grid_points": 11, "master_seed": 7,
    },
}

CORE_COUNT_SCRIPT = """
import json, sys
if sys.argv[2] == "scipy":
    import scipy.linalg  # maps scipy's OpenBLAS first, so numpy's must be found on its own
from kolmo_rfn.cli import main

for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
"""


def _report_rows(tmp: Path, threads: str, first_import: str) -> dict:
    runs = []
    for kind, doc in CORE_COUNT_RUNS.items():
        cfg = tmp / f"{kind}.json"
        cfg.write_text(json.dumps(doc))
        runs.append(["experiment", kind, "--config", str(cfg), "--out", str(tmp / f"{kind}_{threads}")])
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-c", CORE_COUNT_SCRIPT, json.dumps(runs), first_import],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp,
    )
    assert proc.returncode == 0, proc.stderr
    rows = {}
    for kind in CORE_COUNT_RUNS:
        header, *lines = (tmp / f"{kind}_{threads}.csv").read_text().splitlines()
        keep = [i for i, name in enumerate(header.split(",")) if name != "wall_ms"]
        rows[kind] = [[line.split(",")[i] for i in keep] for line in lines]
    return rows


def test_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    pytest.importorskip("scipy.linalg")
    one = _report_rows(tmp_path, "1", "numpy")
    two = _report_rows(tmp_path, "2", "scipy")
    assert one == two
