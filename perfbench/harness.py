"""Run one workload for a fixed time and report its metrics.

A run is a closed loop: one client in this process starts the next
operation ("op") when the previous one has returned, until ``seconds``
have passed. Op ``k`` gets its own master seed from the benchmark seed,
so a run covers many seeds and the same seed always gives the same ops.

Untraced runs report the end-to-end metrics. Traced runs run every op
twice, untraced and then with the tracer installed: the two outputs must
have the same digest, the traced copy gives the per-layer metrics, and
the pair gives the tracing overhead.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from envstamp import environment
from spans import PER_LAYER, Tracer
from workloads import WORKLOADS, Outcome, op_seed

HERE = Path(__file__).resolve().parent

# end-to-end metrics of the untraced run: (name, unit)
END_TO_END = [("setup_s", "s"), ("experiment_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


@dataclass
class OpRecord:
    k: int
    master_seed: int
    traced: bool
    wall_s: float
    cpu_s: float
    digest: str | None
    failures: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def setup_seconds(name: str, seed: int, size: str, probes: int) -> list[float]:
    """Cold-start times: new interpreter until the first op could begin."""

    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def _timed_op(workload, k: int, master_seed: int, size: str, workdir: Path, traced: bool) -> OpRecord:
    workdir.mkdir()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            raw = workload.run(workload.prepare(master_seed, size), workdir)
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            traceback.print_exc(file=sys.stderr)
            return OpRecord(k, master_seed, traced, wall, cpu, None, [f"raised({type(exc).__name__}: {exc})"])
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        outcome: Outcome = workload.check(raw)
        return OpRecord(k, master_seed, traced, wall, cpu, outcome.digest, outcome.failures, outcome.stats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it (None under 20 ops)."""

    if n < 20:
        return None
    return next(p for p in _TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0)


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scratch_root: Path,
    size: str = "bench",
    setup_probes: int = 3,
) -> dict:
    """Run ``name`` for ``seconds`` and return the full result document."""

    workload = WORKLOADS[name]
    setup = setup_seconds(name, seed, size, setup_probes)
    tracer = Tracer() if trace else None
    ops: list[OpRecord] = []
    layer_rows: list[dict] = []
    scratch_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_root))
    try:
        started = time.perf_counter()
        k = 0
        last = 0.0
        # stop before an op that would end past the deadline, but run at least one
        while k == 0 or time.perf_counter() - started + last <= seconds:
            op_start = time.perf_counter()
            master_seed = op_seed(seed, k)
            plain = _timed_op(workload, k, master_seed, size, tmp / f"op{k}", False)
            ops.append(plain)
            if tracer is not None:
                tracer.begin_op(k)
                tracer.install()
                try:
                    traced = _timed_op(workload, k, master_seed, size, tmp / f"op{k}t", True)
                finally:
                    tracer.uninstall()
                tracer.finish_op()
                if plain.digest is not None and traced.digest != plain.digest:
                    traced.failures.append(f"trace_changed_output({plain.digest}!={traced.digest})")
                ops.append(traced)
                layer_rows.append(tracer.op_metrics())
            last = time.perf_counter() - op_start
            k += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain_ops = [op for op in ops if not op.traced]
    failures = [(op.k, op.traced, f) for op in ops for f in op.failures]
    clean = [op.stats for op in plain_ops if not op.failures]
    pooled = workload.pooled_check(clean) if workload.pooled_check and clean else []
    failed = len(ops) if pooled else sum(1 for op in ops if op.failures)

    walls = [op.wall_s for op in plain_ops]
    summary = {
        "ops": len(plain_ops),
        "failed_frac": failed / len(ops),
        "digests": {op.k: op.digest for op in plain_ops},
        "setup_s_samples": setup,
    }
    tail = tail_percentile(len(walls))
    if tail is not None:
        summary[f"experiment_p{tail:g}_s"] = float(np.percentile(walls, tail))

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "experiment_s": statistics.median(walls),
            "cpu_s": statistics.median(op.cpu_s for op in plain_ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        traced_walls = [op.wall_s for op in ops if op.traced]
        values = {
            metric: statistics.median(row[metric] for row in layer_rows)
            for metric, _unit, _better in PER_LAYER if metric != "trace_overhead_frac"
        }
        values["trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        units = {metric: unit for metric, unit, _better in PER_LAYER}
        summary["layer_per_op"] = layer_rows

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "env": environment(),
        "correct": not failures and not pooled,
        "attempted": len(ops),
        "failed": failed,
        "failures": [{"op": k, "traced": t, "check": f} for k, t, f in failures]
        + [{"op": "pooled", "traced": False, "check": f} for f in pooled],
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "summary": summary,
        "ops": [op.__dict__ for op in ops],
        "spans": tracer.dump() if tracer is not None else None,
    }


def write_results(result: dict, out_dir: Path) -> Path:
    """Write the result (spans in a file of their own) and return its path."""

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    doc = dict(result)
    spans = doc.pop("spans")
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps({"env": doc["env"], **spans}, separators=(",", ":")))
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(doc, separators=(",", ":"), default=str) + "\n")
    return path


def result_line(result: dict) -> str:
    """The last line of standard output: correct, attempted, failed and metrics."""

    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


def report_lines(result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit, and the environment."""

    s = result["summary"]
    lines = [f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
             f"size={result['size']} ops={s['ops']}"]
    for name, m in result["metrics"].items():
        extra = ""
        if name == "experiment_s":
            extra = f"  (median of {s['ops']} ops"
            extra += "".join(f", {k[len('experiment_'):-2]} {v:.6g} s" for k, v in s.items()
                             if k.startswith("experiment_p")) + ")"
        elif name == "setup_s":
            extra = f"  (median of {len(s['setup_s_samples'])} cold starts)"
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}{extra}")
    lines.append(f"  failed_frac = {s['failed_frac']:.6g} ratio  ({result['failed']} of {result['attempted']} ops)")
    first = min(s["digests"])
    lines.append(f"  digest op {first} = {s['digests'][first]}")
    env = result["env"]
    lines.append("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    return lines
