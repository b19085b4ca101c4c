#!/usr/bin/env python3
"""In-process A/B of two source trees on one perfbench workload.

    python3 tools/inproc_ab.py --base ../parent --change . --workload large-factor --pairs 20

Loads BASE/src/quadperfect as the package qp_base and CHANGE/src/quadperfect
as qp_change in this one process, so both sides share the interpreter, the
heap and the host's slow spells.  Each side gets its own workload object,
built by perfbench/run.py and perfbench/workloads.py of the tree holding
this script with the same seed, so both see the same inputs; nothing under
perfbench/ is edited.  Pair i
runs round i on both sides, the base first in even pairs and the change
first in odd ones.  Every functools cache of a side's package is cleared
before each of its rounds, as perfbench does for quadperfect.  cli-oneshot
runs its commands through each side's cli.main.

Prints one JSON object: per side the median round_s with its quartiles, the
pooled per-operation p50 (none for cli-oneshot, which times whole rounds),
failed operations and check failures; then the number of pairs in which the
change's round was faster and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

SIDES = ("base", "change")


def load_tree(root: Path, name: str):
    """Import root/src/quadperfect as the package name; returns it and its
    cli module."""
    pkg = root / "src" / "quadperfect"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"inproc_ab: no quadperfect sources under {root / 'src'}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod, importlib.import_module(f"{name}.cli")


def clear_caches(name: str) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != name:
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def run_round(work, index: int, cli) -> float:
    """The round's seconds as perfbench counts them: time in the library
    calls only, checks left out."""
    if isinstance(work, wl.CliOneshot):
        return work.run_inprocess(index, cli)
    return work.run_round(index)["round_s"]


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0], xs[0], xs[0]]
    return statistics.quantiles(xs, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)

    names = {"base": "qp_base", "change": "qp_change"}
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    libs = {side: load_tree(roots[side], names[side]) for side in SIDES}
    # cli-oneshot's in-process path spawns nothing, so the environment is unused.
    works = {side: bench.make_workload(args.workload, libs[side][0], args.seed, {}) for side in SIDES}
    for side in SIDES:
        with contextlib.redirect_stdout(io.StringIO()):
            wl.warm_up(*libs[side])

    rounds: dict[str, list[float]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            # perfbench's own cache clearing sees only a package named
            # quadperfect.
            clear_caches(names[side])
            rounds[side].append(run_round(works[side], i, libs[side][1]))

    out: dict = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs}
    for side in SIDES:
        work = works[side]
        samples = work.samples
        out[side] = {
            "root": str(roots[side]),
            "round_s_median": statistics.median(rounds[side]),
            "round_s_quartiles": quartiles(rounds[side]),
            "op_ms_p50": statistics.median(samples) * 1000 if samples else None,
            "ops": len(samples),
            "failed": work.failed,
            "check_errors": work.errors[:5],
        }
    out["change_faster_pairs"] = sum(c < b for b, c in zip(rounds["base"], rounds["change"]))
    out["median_ratio"] = out["change"]["round_s_median"] / out["base"]["round_s_median"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
