"""The benchmark's own tests, at the ``tiny`` input size.

Run with ``python -m pytest perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from program import ROOT, import_program

import_program()

import harness  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def tmp_root(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.fixture(scope="module")
def measured(tmp_root):
    """measured(name, trace): one short tiny-size run, shared by the tests of this module."""

    results = {}

    def get(name: str, trace: bool) -> dict:
        if (name, trace) not in results:
            results[name, trace] = harness.measure(
                name, 3, 0.3, trace, scratch_root=tmp_root / f"{name}-{int(trace)}",
                size="tiny", setup_probes=1,
            )
        return results[name, trace]

    return get


def _declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_declared_metrics_match_the_harness():
    assert _declared("end_to_end") == dict(harness.END_TO_END)
    assert _declared("per_layer") == {name: unit for name, unit, _ in PER_LAYER}
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, measured, tmp_root):
    result = measured(name, trace)
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    line = json.loads(harness.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for key in ("nproc", "blas_name", "blas_version", "blas_threads", "numpy", "scipy", "python"):
        assert result["env"][key] is not None
    assert "KOLMO_RFN_THREADS" in result["env"]
    assert not list((tmp_root / f"{name}-{int(trace)}").iterdir())  # scratch removed


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_never_changes_a_computed_number(name, measured):
    plain = measured(name, False)
    traced = measured(name, True)
    assert not [f for f in traced["failures"] if f["check"].startswith("trace_changed_output")]
    by_k = {}
    for op in traced["ops"]:
        by_k.setdefault(op["k"], []).append(op["digest"])
    assert all(len(set(d)) == 1 and d[0] is not None for d in by_k.values())
    # the untraced run made the same ops from the same seed
    first = plain["summary"]["digests"][0]
    assert by_k[0][0] == first


def test_nan_row_counts_as_a_failed_op(tmp_path, monkeypatch):
    from kolmo_rfn import experiments

    real_fit = experiments.fit

    def failing_fit(design, y, cfg):
        if design.shape[1] == 160:
            raise ValueError("injected failure at N=160")
        return real_fit(design, y, cfg)

    monkeypatch.setattr(experiments, "fit", failing_fit)
    result = harness.measure("desk_rate_curve", 3, 0.01, False, scratch_root=tmp_path,
                             size="tiny", setup_probes=1)
    assert result["attempted"] == 1
    assert result["failed"] == 1 and result["summary"]["failed_frac"] == 1.0
    assert not result["correct"]
    checks = {f["check"] for f in result["failures"]}
    assert {"rows_finite", "no_errors"} <= checks


def test_basket_tolerance_holds_the_mean_over_the_run():
    from workloads import check_basket_pooled

    # one heavy-tailed op among typical ones passes; a mean over 5e-3 fails
    assert check_basket_pooled([{"rmse": 1.2e-2}] + [{"rmse": 3e-4}] * 7) == []
    assert check_basket_pooled([{"rmse": 6e-3}] * 3)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_convergence",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
