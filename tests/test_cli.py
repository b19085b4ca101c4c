"""The qp command line: every subcommand, both renderings, exit codes and
the output-file option."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quadperfect.cli import main


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def qp_target() -> tuple[str, str]:
    """The module and function of the [project.scripts] qp entry in
    pyproject.toml."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^qp\s*=\s*"([\w.]+):(\w+)"', pyproject, re.M)
    return target.groups()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestFactor:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "factor", "--d", "-1", "--elem", "9+3*w")
        assert code == 0
        assert "unit: 0-1*w" in out
        assert "1+1*w" in out and "1+2*w" in out and "3" in out

    def test_json(self, capsys):
        obj = run_json(capsys, "factor", "--d", "-1", "--elem", "9+3*w")
        assert obj["unit"] == {"a": 0, "b": -1, "d": -1}
        assert [f["norm"] for f in obj["factors"]] == [2, 5, 9]
        assert all(f["exp"] == 1 for f in obj["factors"])

    def test_i_alias(self, capsys):
        code, out, _ = run(capsys, "factor", "--d", "-1", "--elem", "9+3*i")
        assert code == 0

    def test_large_norm_prime(self, capsys):
        code, out, _ = run(capsys, "factor", "--d", "-1", "--elem=1000000000039+1*w")
        assert code == 0
        norms = [line.split()[-1] for line in out.splitlines()[1:]]
        assert norms == ["2", "89", "337", "64969", "256592474325833"]

    def test_zero_is_computation_error(self, capsys):
        code, _, err = run(capsys, "factor", "--d", "-1", "--elem", "0")
        assert code == 1
        assert "qp: error" in err


class TestDeltaIndex:
    def test_index_prints_exact_integer(self, capsys):
        code, out, _ = run(capsys, "index", "--d", "-1", "--elem", "9+3*w", "--n", "2")
        assert code == 0
        assert out == "2\n"

    def test_index_fraction(self, capsys):
        code, out, _ = run(capsys, "index", "--d", "-1", "--elem", "1+1*w")
        assert code == 0
        assert out == "3/2\n"

    def test_delta_text(self, capsys):
        code, out, _ = run(capsys, "delta", "--d", "-1", "--elem", "9+3*w")
        assert (code, out) == (0, "180\n")

    def test_delta_negative_n(self, capsys):
        code, out, _ = run(
            capsys, "delta", "--d", "-1", "--elem", "9+3*w", "--n", "-2"
        )
        assert (code, out) == (0, "2\n")

    def test_json_big_ints_as_strings(self, capsys):
        obj = run_json(capsys, "delta", "--d", "-1", "--elem", "9+3*w")
        assert obj["delta2"] == "180"
        assert obj["index2"] == {"num": "2", "den": "1"}

    @pytest.mark.parametrize("command", ["delta", "index"])
    def test_json_factors_once(
        self, capsys, factor_calls, factor_rational_calls, command
    ):
        # delta reads its shares off N(z) and the content of z, so it factors
        # the norm once and never the element.
        obj = run_json(capsys, command, "--d", "-1", "--elem", "9+3*w")
        assert obj == {"delta2": "180", "index2": {"num": "2", "den": "1"}}
        assert factor_calls == [] and factor_rational_calls == [90]

    def test_odd_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["delta", "--d", "-1", "--elem", "3", "--n", "3"])
        assert exc.value.code == 2

    def test_index_negative_n_is_usage_error(self, capsys):
        # delta takes n = -2 (see test_delta_negative_n); index does not.
        with pytest.raises(SystemExit) as exc:
            main(["index", "--d", "-1", "--elem", "9+3*w", "--n", "-2"])
        assert exc.value.code == 2
        assert "positive even" in capsys.readouterr().err

    @pytest.mark.parametrize("command,elem", [("delta", "3"), ("index", "9+3*i")])
    def test_unprintable_refused_at_once(self, capsys, command, elem):
        # delta(10^8, 3) has 9^(5 * 10^7) in it, far past the digits that int
        # to str conversion allows; computing it first would take minutes.
        start = time.perf_counter()
        argv = [command, "--d", "-1", "--elem", elem, "--n", "100000000"]
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("qp: error: ")

    def test_printable_power_still_printed(self, capsys):
        # delta(8000, 3) = 1 + 9^4000 has 3817 digits, under the default 4300.
        code, out, _ = run(capsys, "delta", "--d", "-1", "--elem", "3", "--n", "8000")
        assert code == 0
        assert out == f"{1 + 9**4000}\n" and len(out) == 3817 + 1


class TestDivisorsClassify:
    def test_divisors(self, capsys):
        obj = run_json(capsys, "divisors", "--d", "-1", "--elem", "9+3*w")
        assert obj["count"] == 8
        assert obj["norms"] == [1, 2, 5, 9, 10, 18, 45, 90]

    def test_classify(self, capsys):
        for d, expect in (("-1", "ramified"), ("-7", "split"), ("-3", "inert")):
            code, out, _ = run(capsys, "classify", "--d", d, "--elem", "2")
            assert (code, out) == (0, expect + "\n")

    def test_classify_json(self, capsys):
        obj = run_json(capsys, "classify", "--d", "-2", "--elem", "11")
        assert obj == {"class": "split", "d": -2, "p": 11}

    def test_classify_rejects_nonprime(self, capsys):
        for elem in ("12", "2+1*w", "0", "1", "-5"):
            code, out, err = run(capsys, "classify", "--d", "-1", "--elem", elem)
            assert (code, out) == (1, ""), elem
            assert "qp: error" in err

    def test_classify_beyond_witness_range(self, capsys):
        code, out, err = run(capsys, "classify", "--d", "-1", f"--elem={2**89 - 1}")
        assert code == 2 and out == ""
        assert "qp: error" in err and "probable prime" in err
        assert "Traceback" not in err


class TestSearch:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "search", "--d", "-1", "--n", "2", "--t", "2", "--bound", "100"
        )
        assert code == 0
        assert "hits (2):" in out
        assert "3+9*w" in out and "9+3*w" in out

    def test_json_t3_fixture(self, capsys):
        obj = run_json(
            capsys, "search", "--d", "-1", "--n", "2", "--t", "3", "--bound", "2000"
        )
        assert {"d": -1, "a": 30, "b": 30} in obj["hits"]

    def test_empty_search_is_success(self, capsys):
        code, out, _ = run(capsys, "search", "--d", "-163", "--bound", "500")
        assert code == 0
        assert "hits (0):" in out

    def test_odd_norm_flag(self, capsys):
        obj = run_json(capsys, "search", "--d", "-2", "--bound", "3000", "--odd-norm")
        assert obj["odd_norm"] is True
        assert obj["hits"] == []

    @pytest.mark.parametrize("extra", [["--t", "3"], ["--n", "4"]])
    def test_odd_norm_rejects_other_n_t(self, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "-1", "--bound", "100", "--odd-norm", *extra])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "qp: error: --odd-norm searches n=2, t=2 only" in err

    def test_odd_norm_hit_prints_checks(self, capsys, forced_odd_hit):
        from quadperfect import Ring, search_odd_norm

        argv = ["search", "--d", "-1", "--bound", "100", "--odd-norm"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "checks [2.5] on 2+1*w:" in out
        assert "checks [count] on 2+1*w:" in out
        reps = search_odd_norm(Ring(-1), 100).hit_checks
        obj = run_json(capsys, *argv)
        assert obj["hit_checks"] == [[r.to_json() for r in reps[0]]]

    def test_odd_norm_explicit_n2_t2(self, capsys):
        argv = ["search", "--d", "-1", "--bound", "100", "--odd-norm"]
        obj = run_json(capsys, *argv, "--n", "2", "--t", "2")
        assert obj["odd_norm"] is True and (obj["n"], obj["t"]) == (2, 2)

    def test_deterministic_modulo_wall_time(self, capsys):
        a = run_json(capsys, "search", "--d", "-11", "--bound", "4000")
        b = run_json(capsys, "search", "--d", "-11", "--bound", "4000")
        a.pop("wall_time_ms"), b.pop("wall_time_ms")
        assert a == b

    def test_bound_guard(self, capsys):
        code, _, err = run(capsys, "search", "--d", "-1", "--bound", "20000000000")
        assert code == 1
        assert "--force" in err

    def test_force_accepted(self, capsys):
        # The guard only fires above 10^10; --force is legal on any bound.
        code, out, _ = run(capsys, "search", "--d", "-1", "--bound", "50", "--force")
        assert code == 0

    def test_t_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "-1", "--t", "1", "--bound", "10"])
        assert exc.value.code == 2

    def test_negative_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "-1", "--n", "-2", "--bound", "10"])
        assert exc.value.code == 2
        assert "--n must be a positive even integer, got -2" in capsys.readouterr().err

    def test_d_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "-5", "--bound", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--d", "-1", "--bound", "0"],
            ["search", "--d", "-1", "--bound", "-5"],
            ["conjecture", "--d", "-1", "--bound", "-3"],
        ],
    )
    def test_bound_below_one_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--bound must be >= 1" in capsys.readouterr().err


class TestVerify:
    def test_21_on_fixture(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d", "-1", "--elem", "3+9*w", "--theorem", "2.1"
        )
        assert code == 0
        assert "gamma=1" in out and "q=3 m=15 k=1 v=5" in out
        assert "overall: PASS" in out

    def test_22_json(self, capsys):
        obj = run_json(
            capsys, "verify", "--d", "-1", "--elem", "3+9*w", "--theorem", "2.2"
        )
        assert obj["overall"] is True
        assert obj["decomposition"]["m"] == 15
        names = [c["name"] for c in obj["checks"]]
        assert "k_odd" in names and "v_floor" in names

    def test_23_24_on_counterexample(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d", "-7", "--elem", "2+3*w", "--theorem", "2.3"
        )
        assert code == 0
        assert "overall: FAIL" in out
        obj = run_json(
            capsys, "verify", "--d", "-7", "--elem", "2+3*w", "--theorem", "2.4"
        )
        assert obj["overall"] is False
        assert obj["decomposition"]["k"] == 0

    @pytest.mark.parametrize(
        "d,elem,theorem", [("-1", "3+9*i", "2.1"), ("-7", "2+3*w", "2.4")]
    )
    def test_factors_once(self, capsys, factor_calls, d, elem, theorem):
        argv = ["verify", "--d", d, "--elem", elem, "--theorem", theorem]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert len(factor_calls) == 1

    def test_ring_gating(self, capsys):
        code, _, err = run(
            capsys, "verify", "--d", "-7", "--elem", "2+3*w", "--theorem", "2.2"
        )
        assert code == 1
        code, _, err = run(
            capsys, "verify", "--d", "-1", "--elem", "3+9*w", "--theorem", "2.3"
        )
        assert code == 1

    def test_25_needs_odd_perfect(self, capsys):
        code, _, err = run(
            capsys, "verify", "--d", "-1", "--elem", "3+9*w", "--theorem", "2.5"
        )
        assert code == 1

    def test_count(self, capsys):
        obj = run_json(
            capsys, "verify", "--d", "-1", "--elem", "9+3*w", "--theorem", "count"
        )
        assert obj["checks"][0]["actual"] == "3"

    def test_lift_rejected_on_even_norm(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--d", "-1", "--elem", "9+3*w", "--theorem", "lift"
        )
        assert code == 1

    def test_negative_element_both_spellings(self, capsys):
        # A printed search hit such as -2+1*w starts with a minus sign.
        argv = ("verify", "--theorem", "2.2", "--d", "-2")
        spaced = run(capsys, *argv, "--elem", "-2+1*w")
        joined = run(capsys, *argv, "--elem=-2+1*w")
        assert spaced[0] == 0
        assert spaced == joined
        assert "check 2.2 on -2+1*w" in spaced[1]

    def test_unknown_theorem_id(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--d", "-1", "--elem", "3", "--theorem", "9.9"])
        assert exc.value.code == 2


class TestConjecture:
    def test_gauss_pass(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--d", "-1", "--bound", "100")
        assert code == 0
        assert "overall: PASS" in out

    def test_d2_reports_failures(self, capsys):
        obj = run_json(capsys, "conjecture", "--d", "-2", "--bound", "10000")
        assert obj["overall"] is False
        assert obj["norm_bound"] == 10000
        assert [c["actual"] for c in obj["checks"]] == ["0", "0"]

    def test_wrong_ring(self, capsys):
        code, _, _ = run(capsys, "conjecture", "--d", "-19", "--bound", "100")
        assert code == 1


ONE_PER_SUBCOMMAND = [
    ["factor", "--d", "-1", "--elem", "9+3*w"],
    ["delta", "--d", "-1", "--elem", "9+3*w"],
    ["index", "--d", "-1", "--elem", "9+3*w"],
    ["divisors", "--d", "-1", "--elem", "9+3*w"],
    ["classify", "--d", "-2", "--elem", "11"],
    ["search", "--d", "-1", "--bound", "100"],
    ["verify", "--d", "-1", "--elem", "3+9*w", "--theorem", "2.2"],
    ["conjecture", "--d", "-2", "--bound", "100"],
]


def mask_wall_time(text: str) -> str:
    text = re.sub(r"in \d+ ms", "in N ms", text)
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": N', text)


class TestPlumbing:
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("argv", ONE_PER_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_out_file(self, capsys, tmp_path, argv, fmt):
        code, printed, err = run(capsys, *argv, *fmt)
        assert code == 0, err
        target = tmp_path / "report"
        assert main([*argv, *fmt, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert mask_wall_time(target.read_text()) == mask_wall_time(printed)

    def test_out_unwritable(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        argv = ["factor", "--d", "-1", "--elem", "9+3*i", "--out", str(target)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("qp: error: ") and err.count("\n") == 1
        assert str(target) in err

    def test_json_is_key_sorted(self, capsys):
        code, out, _ = run(capsys, "classify", "--d", "-2", "--elem", "3", "--json")
        keys = list(json.loads(out))
        assert keys == sorted(keys)

    def test_malformed_element(self, capsys):
        for elem in ["3+w", "3+9*i\n"]:
            code, _, err = run(capsys, "factor", "--d", "-1", "--elem", elem)
            assert code == 1, elem
            assert "malformed" in err

    def test_i_alias_rejected_elsewhere(self, capsys):
        code, _, err = run(capsys, "factor", "--d", "-7", "--elem", "1+1*i")
        assert code == 1

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_round_trip_printed_elements(self, capsys):
        # Every element the CLI prints re-parses to the same element.
        from quadperfect import Ring, parse_element

        obj = run_json(capsys, "search", "--d", "-7", "--bound", "100")
        for h in obj["hits"]:
            z = Ring(h["d"]).element(h["a"], h["b"])
            assert parse_element(z.ring, str(z)) == z

    def test_console_script(self, tmp_path):
        # The qp script an installer writes for the pyproject.toml target,
        # run by path in a fresh interpreter against the source tree.
        module, func = qp_target()
        script = tmp_path / "qp"
        script.write_text(
            f"#!{sys.executable}\n"
            "import re, sys\n"
            f"from {module} import {func}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            f"    sys.exit({func}())\n",
            encoding="utf-8",
        )
        script.chmod(0o755)
        proc = subprocess.run(
            [str(script), "index", "--d", "-1", "--elem", "9+3*i", "--n", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2\n"

    def test_console_script_target(self):
        # What the qp console script runs, without an install: the
        # module:function target from pyproject.toml, called as the
        # generated wrapper calls it.
        module, func = qp_target()
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "index", "--d", "-1", "--elem", "9+3*i"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2\n"

    def test_module_entry_point(self):
        # The python -m path runs from a source checkout with no install.
        proc = subprocess.run(
            [sys.executable, "-m", "quadperfect.cli"]
            + ["index", "--d", "-1", "--elem", "9+3*i"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2\n"
