"""Span recording around the program's public functions, installed from outside.

``Tracer.install`` replaces every module attribute that refers to one of
the functions in ``TARGETS`` with a recording wrapper, in each module the
program looks the name up in, and ``uninstall`` puts the originals back.
No program source changes, and a wrapper returns exactly what the
function returned, so tracing never changes a computed number.

Spans hold (name, start, end, parent, op) and stay in memory until the
run writes them out. The program runs on one thread here (the benchmark
refuses to run with KOLMO_RFN_THREADS set), so the open spans form one
stack and a span's parent is the span below it. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# per-layer metrics of the traced run: (name, unit, better)
PER_LAYER = [
    ("rng.substream_calls", "count", "lower"),
    ("rng.substream_s", "s", "lower"),
    ("levy.price_mc_calls", "count", "lower"),
    ("levy.price_mc_s", "s", "lower"),
    ("levy.mc_paths", "count", "lower"),
    ("levy.sqrt_sigma_calls", "count", "lower"),
    ("levy.increment_s", "s", "lower"),
    ("levy.payoff_s", "s", "lower"),
    ("levy.label_se_rms", "price", "lower"),
    ("data.gen_s", "s", "lower"),
    ("data.self_s", "s", "lower"),
    ("data.rows", "count", "lower"),
    ("data.sample_lognormal_calls", "count", "lower"),
    ("data.sample_lognormal_s", "s", "lower"),
    ("data.save_s", "s", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.csv_bytes", "bytes", "lower"),
    ("network.sample_s", "s", "lower"),
    ("network.design_s", "s", "lower"),
    ("network.design_bytes", "bytes", "lower"),
    ("network.dead_features", "count", "lower"),
    ("network.predict_s", "s", "lower"),
    ("network.model_io_s", "s", "lower"),
    ("train.ols_calls", "count", "lower"),
    *((f"train.solve_s.N{n}", "s", "lower") for n in (10, 20, 40, 80, 160)),
    ("train.ols_s", "s", "lower"),
    ("train.effective_rank", "count", "higher"),
    ("train.constrained_s", "s", "lower"),
    ("train.constraint_active", "flag", "lower"),
    ("train.sgd_steps", "count", "lower"),
    ("train.sgd_s", "s", "lower"),
    ("train.sgd_step_us", "us", "lower"),
    ("fourier.profile_s", "s", "lower"),
    ("fourier.reference_s", "s", "lower"),
    ("fourier.oracle_weights_s", "s", "lower"),
    ("fourier.sup_error_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.write_s", "s", "lower"),
    ("cli.gen_data_s", "s", "lower"),
    ("cli.train_s", "s", "lower"),
    ("cli.evaluate_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _observe_price_mc(tracer, args, kwargs, out, dur):
    tracer.add("levy.mc_paths", _arg(args, kwargs, 4, "paths"))
    tracer.add("se_sq", out[1] ** 2)
    tracer.add("se_n", 1)


def _observe_rows(tracer, args, kwargs, out, dur):
    tracer.add("data.rows", out.n)


def _observe_save(tracer, args, kwargs, out, dur):
    tracer.add("data.csv_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _observe_design(tracer, args, kwargs, out, dur):
    n, N = out.values.shape
    tracer.add("network.design_bytes", n * N * 8)
    # dead columns are counted when the op ends, outside every span
    if tracer.widest_design is None or (N, n) > tracer.widest_design.shape[::-1]:
        tracer.widest_design = out.values


def _observe_ols(tracer, args, kwargs, out, dur):
    W, diag = out
    tracer.add(f"train.solve_s.N{W.shape[0]}", dur)
    tracer.put_at_width("train.effective_rank", W.shape[0], diag.effective_rank)


def _observe_constrained(tracer, args, kwargs, out, dur):
    tracer.put_at_width("train.constraint_active", out[0].shape[0], int(out[1].lambda_multiplier > 0))


def _observe_sgd(tracer, args, kwargs, out, dur):
    tracer.add("train.sgd_steps", out[1].steps_run)


def _cli_span(argv) -> str:
    return "cli." + argv[0]


# (module, function, span name or argv -> name, observer)
TARGETS = [
    ("kolmo_rfn.rng", "substream", "rng.substream", None),
    ("kolmo_rfn.levy", "price_mc", "levy.price_mc", _observe_price_mc),
    ("kolmo_rfn.levy", "sqrt_sigma", "levy.sqrt_sigma", None),
    ("kolmo_rfn.levy", "simulate_levy_increment", "levy.increment", None),
    ("kolmo_rfn.levy", "payoff_eval", "levy.payoff", None),
    ("kolmo_rfn.data", "gen_pde_dataset", "data.gen", _observe_rows),
    ("kolmo_rfn.data", "gen_basket_put_dataset", "data.gen", _observe_rows),
    ("kolmo_rfn.data", "sample_lognormal", "data.sample_lognormal", None),
    ("kolmo_rfn.data", "save_dataset", "data.save", _observe_save),
    ("kolmo_rfn.data", "load_dataset", "data.load", None),
    ("kolmo_rfn.network", "sample_hidden_weights", "network.sample", None),
    ("kolmo_rfn.network", "design_matrix", "network.design", _observe_design),
    ("kolmo_rfn.network", "predict", "network.predict", None),
    ("kolmo_rfn.network", "save_model", "network.model_io", None),
    ("kolmo_rfn.network", "load_model", "network.model_io", None),
    ("kolmo_rfn.train", "fit_ols", "train.ols", _observe_ols),
    ("kolmo_rfn.train", "fit_constrained", "train.constrained", _observe_constrained),
    ("kolmo_rfn.train", "fit_sgd", "train.sgd", _observe_sgd),
    ("kolmo_rfn.fourier", "gaussian_profile", "fourier.profile", None),
    ("kolmo_rfn.fourier", "reference_convolution", "fourier.reference", None),
    ("kolmo_rfn.fourier", "construct_oracle_weights", "fourier.oracle_weights", None),
    ("kolmo_rfn.fourier", "sup_error_on_grid", "fourier.sup_error", None),
    ("kolmo_rfn.experiments", "run_experiment", "experiments.run", None),
    ("kolmo_rfn.experiments", "write_report", "experiments.write", None),
    ("workloads", "cli_step", _cli_span, None),
]


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.op_first_span = 0
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.widest_design = None
        self._patched: list[tuple[object, str, object]] = []

    # -- counters ----------------------------------------------------------

    def add(self, key: str, value) -> None:
        self.counters[self.op][key] += value

    def put_at_width(self, key: str, width: int, value) -> None:
        """Keep ``value`` from the call with the largest width in this op."""

        best = self.counters[self.op].get(key + "@width", -1)
        if width >= best:
            self.counters[self.op][key + "@width"] = width
            self.counters[self.op][key] = value

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        tracer = self
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (name_of(args[0]) if name_of else name, start, end, parent, tracer.op)
            if observe is not None:
                observe(tracer, args, kwargs, out, end - start)
            return out

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "workloads" or n.startswith("kolmo_rfn")]
        for module_name, func, name, observe in TARGETS:
            original = getattr(sys.modules[module_name], func)
            wrapper = self.wrap(name, original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_first_span = len(self.spans)
        self.widest_design = None

    def finish_op(self) -> None:
        """Count the all-zero columns of the op's widest design matrix."""

        if self.widest_design is not None:
            self.counters[self.op]["network.dead_features"] = int((~self.widest_design.any(axis=0)).sum())
        self.widest_design = None

    # -- per-op metrics ----------------------------------------------------

    def op_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace_overhead_frac, for the last op."""

        first = self.op_first_span
        spans = self.spans[first:]
        child_time: Counter = Counter()
        for _name, start, end, parent, _op in spans:
            if parent >= first:
                child_time[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for sid, (name, start, end, _parent, _op) in enumerate(spans, start=first):
            total[name] += end - start
            own[name] += end - start - child_time[sid]
            calls[name] += 1
        c = self.counters[self.op]
        sgd_steps = c["train.sgd_steps"]
        cli_names = [n for n in calls if n.startswith("cli.")]
        out = {
            "rng.substream_calls": calls["rng.substream"],
            "rng.substream_s": total["rng.substream"],
            "levy.price_mc_calls": calls["levy.price_mc"],
            "levy.price_mc_s": total["levy.price_mc"],
            "levy.mc_paths": c["levy.mc_paths"],
            "levy.sqrt_sigma_calls": calls["levy.sqrt_sigma"],
            "levy.increment_s": total["levy.increment"],
            "levy.payoff_s": total["levy.payoff"],
            "levy.label_se_rms": math.sqrt(c["se_sq"] / c["se_n"]) if c["se_n"] else 0.0,
            "data.gen_s": total["data.gen"],
            "data.self_s": own["data.gen"],
            "data.rows": c["data.rows"],
            "data.sample_lognormal_calls": calls["data.sample_lognormal"],
            "data.sample_lognormal_s": total["data.sample_lognormal"],
            "data.save_s": total["data.save"],
            "data.load_s": total["data.load"],
            "data.csv_bytes": c["data.csv_bytes"],
            "network.sample_s": total["network.sample"],
            "network.design_s": total["network.design"],
            "network.design_bytes": c["network.design_bytes"],
            "network.dead_features": c["network.dead_features"],
            "network.predict_s": total["network.predict"],
            "network.model_io_s": total["network.model_io"],
            "train.ols_calls": calls["train.ols"],
            **{f"train.solve_s.N{n}": c[f"train.solve_s.N{n}"] for n in (10, 20, 40, 80, 160)},
            "train.ols_s": total["train.ols"],
            "train.effective_rank": c["train.effective_rank"],
            "train.constrained_s": total["train.constrained"],
            "train.constraint_active": c["train.constraint_active"],
            "train.sgd_steps": sgd_steps,
            "train.sgd_s": total["train.sgd"],
            "train.sgd_step_us": total["train.sgd"] / sgd_steps * 1e6 if sgd_steps else 0.0,
            "fourier.profile_s": total["fourier.profile"],
            "fourier.reference_s": total["fourier.reference"],
            "fourier.oracle_weights_s": total["fourier.oracle_weights"],
            "fourier.sup_error_s": total["fourier.sup_error"],
            "experiments.self_s": own["experiments.run"],
            "experiments.write_s": total["experiments.write"],
            "cli.gen_data_s": total["cli.gen-data"],
            "cli.train_s": total["cli.train"],
            "cli.evaluate_s": total["cli.evaluate"],
            "cli.self_s": sum(own[n] for n in cli_names),
        }
        return {k: float(v) for k, v in out.items()}

    def dump(self) -> dict:
        """Spans as {names, spans: [[name index, start, end, parent, op]]}."""

        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, op in (s for s in self.spans if s is not None):
            rows.append([names.setdefault(name, len(names)), start, end, parent, op])
        return {"names": list(names), "spans": rows}
