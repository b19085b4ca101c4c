"""tools/inproc_ab.py, tools/factor_diff.py, tools/walk_ab.py and
tools/code_lines.py: each prints one JSON line."""

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


def test_factor_diff_same_tree():
    # Both sides load this tree, so every number factors alike; the count
    # reaches all four kinds of number.
    cmd = [
        sys.executable, str(ROOT / "tools" / "factor_diff.py"), "--base", str(ROOT),
        "--change", str(ROOT), "--seed", "23", "--count", "40",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out == {"seed": 23, "count": 40, "mismatches": 0, "first": []}


def test_factor_diff_elements_same_tree():
    # Both sides load this tree; 40 elements reach all four kinds, each in
    # some of the nine rings.
    cmd = [
        sys.executable, str(ROOT / "tools" / "factor_diff.py"), "--base", str(ROOT),
        "--change", str(ROOT), "--seed", "23", "--count", "40", "--elements",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out == {"seed": 23, "count": 40, "mismatches": 0, "first": []}


def test_walk_ab_same_tree():
    # Both sides run this tree's walk in fresh processes and find the same
    # norms below 10^8: 28, 8128 and 33550336 in d = -7, and none over the
    # odd norms of d = -2, a walk whose primes start from 3.
    for walk, norms in [
        (["--d", "-7"], [28, 8128, 33550336]),
        (["--d", "-2", "--odd"], []),
    ]:
        cmd = [
            sys.executable, str(ROOT / "tools" / "walk_ab.py"), "--base", str(ROOT),
            "--change", str(ROOT), *walk, "--bound", "10**8", "--pairs", "2",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["pairs"] == 2 and out["bound"] == 10**8
        assert out["odd"] == ("--odd" in walk)
        assert out["hits_equal"] and out["hit_norms"] == norms
        for side in ("base", "change"):
            assert len(out[side]["seconds"]) == len(out[side]["vmhwm_kib"]) == 2
            assert all(kib > 0 for kib in out[side]["vmhwm_kib"])


def code_lines(root: Path) -> dict:
    cmd = [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(root)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_code_lines_counts_only_code(tmp_path):
    pkg = tmp_path / "src" / "quadperfect"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "X = (1,\n"
        "     2)  # trailing comment\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring."""\n'
        "        # another comment\n"
        '        return """not a docstring"""\n'
    )
    assert code_lines(tmp_path) == {"modules": {"mod.py": 5}, "total": 5}


def test_code_lines_on_this_tree():
    out = code_lines(ROOT)
    assert "primes.py" in out["modules"]
    assert out["total"] == sum(out["modules"].values())
