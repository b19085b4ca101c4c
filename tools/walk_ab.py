#!/usr/bin/env python3
"""Alternating fresh-process A/B of the search walk on two source trees.

    python3 tools/walk_ab.py --base ../parent --change . --d -7 --bound 10**20 --pairs 10

Each run is a fresh interpreter that imports ROOT/src/quadperfect of one
tree and times search._scan(Ring(D), N, T, BOUND, ODD), the walk alone,
with no count and no revalidation.  Each tree first gets one untimed run
that writes its bytecode cache, so no timed run pays for compiling, in
time or in peak memory.  Pair i runs the base first in even pairs and the
change first in odd ones.  BOUND is an integer or A**B.

Prints one JSON object: the arguments, per side each run's seconds and
VmHWM (the process's peak resident set, read from /proc/self/status) with
their medians, the number of pairs in which the change ran faster, the hit
norms, and whether they were equal in every pair; exits 1 when they were
not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")

CHILD = """\
import sys, time
sys.path.insert(0, {src!r})
import quadperfect
assert quadperfect.__file__.startswith({src!r}), quadperfect.__file__
from quadperfect import Ring
from quadperfect.search import _scan
start = time.perf_counter()
norms = sorted(_scan(Ring({d}), {n}, {t}, {bound}, {odd}))
elapsed = time.perf_counter() - start
hwm = next(s for s in open('/proc/self/status') if s.startswith('VmHWM'))
print(elapsed, hwm.split()[1], *norms)
"""


def int_expr(text: str) -> int:
    """An integer written as digits or as A**B."""
    base, _, exp = text.partition("**")
    return int(base) ** int(exp) if exp else int(base)


def run(root: Path, args) -> tuple[float, int, list[int]]:
    """One fresh-process walk: its seconds, its VmHWM in KiB and its sorted
    hit norms."""
    src = str(root / "src")
    if not (root / "src" / "quadperfect" / "__init__.py").is_file():
        raise SystemExit(f"walk_ab: no quadperfect sources under {src}")
    code = CHILD.format(src=src, d=args.d, n=args.n, t=args.t, bound=args.bound, odd=args.odd)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    return float(out[0]), int(out[1]), [int(x) for x in out[2:]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    parser.add_argument("--d", type=int, default=-7)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--t", type=int, default=2)
    parser.add_argument("--bound", type=int_expr, default=10**20)
    parser.add_argument("--odd", action="store_true", help="walk odd norms only")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    for root in roots.values():
        run(root, args)
    equal, faster = True, 0
    for i in range(args.pairs):
        pair = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            pair[side] = run(roots[side], args)
            runs[side].append(pair[side])
        equal &= pair["base"][2] == pair["change"][2]
        faster += pair["change"][0] < pair["base"][0]
    out = {
        "d": args.d, "n": args.n, "t": args.t, "bound": args.bound, "odd": args.odd,
        "pairs": args.pairs,
    }
    for side in SIDES:
        seconds = [r[0] for r in runs[side]]
        hwm = [r[1] for r in runs[side]]
        out[side] = {
            "seconds": seconds, "vmhwm_kib": hwm,
            "median_s": statistics.median(seconds), "median_vmhwm_kib": statistics.median(hwm),
        }
    out["change_faster_pairs"] = faster
    out["hit_norms"] = runs["change"][0][2] if args.pairs else []
    out["hits_equal"] = equal
    print(json.dumps(out))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
