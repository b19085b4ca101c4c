#!/usr/bin/env python3
"""Benchmark command for quadperfect.

    python3 perfbench/run.py --workload norm-scan --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from its
src/ directory; nothing is installed.  Workloads: norm-scan, large-factor,
cli-oneshot (see README.md).  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it rebinds the library's module-level names to
timing wrappers for the warm-up and the first round, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  A detailed record of the run
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("norm-scan", "large-factor", "cli-oneshot")

# What a fresh process does before its first real call: import the library
# and the CLI, touch each scanned ring once and build the argument parser.
SETUP_CODE = """\
import quadperfect as qp, quadperfect.cli as cli
for d in (-1, -2, -7, -11):
    rg = qp.Ring(d)
    qp.search_perfect(rg, 2, 2, 64)
    qp.delta(2, rg.element(9, 3))
cli.build_parser()
"""
IMPORT_CODE = """\
import time
start = time.perf_counter()
import quadperfect.cli
print(time.perf_counter() - start)
"""
SETUP_REPEATS = 10


def load_library():
    """Import quadperfect from this checkout's src/, or None."""
    if not (SRC / "quadperfect" / "__init__.py").is_file():
        return None, None
    sys.path.insert(0, str(SRC))
    import quadperfect
    import quadperfect.cli

    if Path(quadperfect.__file__).resolve().parent != SRC / "quadperfect":
        return None, None
    return quadperfect, quadperfect.cli


def child_times(args: list[str], env: dict, count: int, parse=False) -> list[float]:
    """Wall times of count fresh interpreters, or with parse the time each
    one prints."""
    values = []
    for _ in range(count):
        elapsed, code, out, err, _ = wl.run_child(args, str(ROOT), env)
        if code != 0:
            raise RuntimeError(f"child {args[:2]} exited {code}: {err.strip()[-300:]}")
        values.append(float(out) if parse else elapsed)
    return values


def child_median(args: list[str], env: dict, parse=False) -> float:
    """Median over SETUP_REPEATS fresh interpreters, after one untimed run
    that fills the bytecode cache."""
    return statistics.median(child_times(args, env, SETUP_REPEATS + 1, parse)[1:])


def make_workload(name: str, qp, seed: int, env: dict):
    if name == "norm-scan":
        return wl.NormScan(qp, seed)
    if name == "large-factor":
        return wl.LargeFactor(qp, seed)
    return wl.CliOneshot(qp, seed, str(ROOT), env)


def run_round(work, index: int, cli):
    if isinstance(work, wl.CliOneshot) and cli is not None:
        return work.run_inprocess(index, cli)
    return work.run_round(index)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quadperfect benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qp, cli = load_library()
    if qp is None:
        print(f"perfbench: no quadperfect sources under {SRC}", file=sys.stderr)
        return 2
    # Child interpreters keep their bytecode cache in the checkout, as an
    # installed package would, so CLI timings do not include recompiling.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    work = make_workload(args.workload, qp, args.seed, env)
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    rounds: list = []
    metrics: dict = {}

    if args.trace:
        # Traced: warm-up and round 0 under the tracer, then round 0 again
        # untraced until the time is up, to give the tracing overhead.
        # cli-oneshot runs its commands through cli.main in this process.
        tracer = Tracer()
        tracer.install()
        try:
            wl.warm_up(qp, cli)
            start = time.perf_counter()
            run_round(work, 0, cli)
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        plain = []
        loop_start = time.perf_counter()
        while not plain or time.perf_counter() - loop_start < args.seconds:
            start = time.perf_counter()
            run_round(work, 0, cli)
            plain.append(time.perf_counter() - start)
        metrics = tracer.per_layer()
        commands = tracer.calls["cli.command"]
        metrics["cli.command_s"] = (tracer.total["cli.command"] / max(commands, 1), "s")
        metrics["cli.interpreter_s"] = (child_median(["-c", "pass"], env), "s")
        metrics["cli.import_s"] = (child_median(["-c", IMPORT_CODE], env, parse=True), "s")
        record["trace_overhead"] = {
            "traced_round_s": traced_s,
            "untraced_round_s_median": statistics.median(plain),
            "untraced_rounds": len(plain),
        }
        record["missing_names"] = tracer.missing
        record["backends"] = dict(tracer.backends)
    else:
        # Set-up is timed SETUP_REPEATS times before the rounds and as many
        # times after them, so a slow spell of the host weighs on fewer of
        # the samples.  The first, untimed, run fills the bytecode cache.
        setup_args = ["-c", SETUP_CODE]
        setup = child_times(setup_args, env, SETUP_REPEATS + 1)[1:]
        wl.warm_up(qp, cli)
        loop_start = time.perf_counter()
        while not rounds or time.perf_counter() - loop_start < args.seconds:
            rounds.append(work.run_round(len(rounds)))
        loop_s = time.perf_counter() - loop_start
        setup += child_times(setup_args, env, SETUP_REPEATS)
        if isinstance(work, wl.CliOneshot):
            peak_kib = work.peak_kib
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = work.metrics(rounds)
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
        record["rounds"] = rounds
        record["setup_samples"] = setup
        record["loop_s"] = loop_s
    work.final_checks()

    record.update(work.details())
    record["errors"] = work.errors
    result = {
        "correct": not work.errors,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if record.get("backends"):
        print(f"perfbench: search backends used: {record['backends']}", file=sys.stderr)
    for line in work.errors:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    for what, n in work.failures.items():
        print(f"perfbench: {n} x failed: {what}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
