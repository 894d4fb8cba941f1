"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.WORKLOADS`` against the sources in
``src/`` for about S seconds and prints every metric by name and unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. The full result,
stamped with the environment, goes to ``.perfbench_results/``; scratch
files live in ``.perfbench_tmp/`` and are removed before the run ends.

Exit codes: 0 when every check passed; 1 when a check failed (each
failure is named on standard error with its workload and op) or the
program cannot be imported; 2 for bad arguments.
"""

from __future__ import annotations

import argparse
import os
import sys

from program import ROOT, import_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="bench", help="tiny | bench | shipped (default bench)")
    args = parser.parse_args(argv)

    if os.environ.get("KOLMO_RFN_THREADS") is not None:
        print("error: unset KOLMO_RFN_THREADS; the benchmark runs the program on one thread",
              file=sys.stderr)
        return 1
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    import harness
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.size not in SIZES:
        parser.error(f"unknown size {args.size!r}; expected one of {SIZES}")
    if not args.seconds > 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")

    scratch = ROOT / ".perfbench_tmp"
    try:
        result = harness.measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            scratch_root=scratch, size=args.size,
        )
    finally:
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()
    path = harness.write_results(result, ROOT / ".perfbench_results")

    for line in harness.report_lines(result):
        print(line)
    print(f"  results: {path.relative_to(ROOT)}")
    for failure in result["failures"]:
        print(f"FAILED workload={args.workload} seed={args.seed} op={failure['op']} "
              f"traced={failure['traced']} check={failure['check']}", file=sys.stderr)
    print(harness.result_line(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
