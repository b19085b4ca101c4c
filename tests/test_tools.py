"""tools/inproc_ab.py: one process, two package names, one JSON line."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_inproc_ab_runs_both_sides():
    # The same tree on both sides: each loads under its own package name and
    # passes every workload check.
    cmd = [
        sys.executable, str(ROOT / "tools" / "inproc_ab.py"), "--base", str(ROOT),
        "--change", str(ROOT), "--workload", "norm-scan", "--pairs", "2",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["pairs"] == 2
    for side in ("base", "change"):
        assert out[side]["failed"] == 0 and out[side]["check_errors"] == []
        assert out[side]["ops"] == 20
        assert out[side]["round_s_median"] > 0
    assert 0 <= out["change_faster_pairs"] <= 2
