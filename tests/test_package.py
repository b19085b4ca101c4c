"""The package surface: the names quadperfect exports, the README table
that documents them, and the README's Python tour and console examples."""

from __future__ import annotations

import ast
import copy
import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import quadperfect
from quadperfect import (
    Ring,
    abundancy_index,
    check_mersenne_inert,
    check_prime_count,
    classify_rational_prime,
    cli,
    delta,
    delta_naive,
    factor,
    factor_rational,
    is_powerfully_perfect,
    is_prime,
    prime_above,
    search_odd_norm,
    search_perfect,
    sigma,
    split_prime_pair,
)
from quadperfect.primes import IntFactorization, QuadFactorization
from quadperfect.search import SearchReport
from quadperfect.theorems import Check, EvenNormDecomposition, VerifierReport

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC = {
    "ADMISSIBLE_D",
    "MixedRings",
    "NotPrime",
    "OddExponent",
    "PreconditionFailed",
    "PrimeClass",
    "QuadInt",
    "Ring",
    "SplitDichotomyViolation",
    "TooLarge",
    "ZeroElement",
    "abundancy_index",
    "check_mersenne_inert",
    "check_odd_structure",
    "check_prime_count",
    "check_structure_bounds",
    "classify_rational_prime",
    "conjecture_scan",
    "decompose_even",
    "delta",
    "delta_naive",
    "divisors",
    "factor",
    "factor_rational",
    "is_powerfully_perfect",
    "is_prime",
    "is_quadratic_prime",
    "lift_to_3perfect",
    "norm2_prime",
    "parse_element",
    "prime_above",
    "search_odd_norm",
    "search_perfect",
    "sigma",
    "split_prime_pair",
    "valuation",
}


def test_exports_are_the_documented_surface():
    assert sorted(quadperfect.__all__) == sorted(PUBLIC)
    namespace: dict = {}
    exec("from quadperfect import *", namespace)
    assert PUBLIC <= namespace.keys()
    text = README.read_text(encoding="utf-8")
    assert [name for name in sorted(PUBLIC) if f"`{name}`" not in text] == []


def test_readme_python_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Python tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def readme_console_examples() -> list:
    """Each "$ qp ..." line of the README's console blocks, with the
    output printed under it, as a pytest param named by the command."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```console\n(.*?)```", text, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            output = output.rstrip("\n") + "\n"
            examples.append(pytest.param(command, output, id=command))
    return examples


@pytest.mark.parametrize("command,expected", readme_console_examples())
def test_readme_console_examples(capsys, command, expected):
    argv = shlex.split(command)
    assert argv[0] == "qp"
    assert cli.main(argv[1:]) == 0
    masked = re.sub(r"in \d+ ms", "in N ms", capsys.readouterr().out)
    assert masked == re.sub(r"in \d+ ms", "in N ms", expected)


def test_cli_import_stays_light():
    # Measured against a bare interpreter with the same flags and path, so
    # what site preloads does not count.
    listing = "import sys; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def loaded(prefix: str) -> set[str]:
        cmd = [sys.executable, "-c", prefix + listing]
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
        return set(out.stdout.split())

    added = loaded("import quadperfect.cli; ") - loaded("")
    assert "quadperfect.cli" in added
    heavy = {"dataclasses", "inspect", "ast", "dis", "json", "array"}
    assert sorted(added & heavy) == []


def test_sources_parse_at_declared_python_floor():
    # The suite runs on one interpreter; the grammar check holds the sources
    # to the oldest Python that pyproject.toml declares.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minor = re.search(r'requires-python = ">=3\.(\d+)"', pyproject).group(1)
    sources = sorted((ROOT / "src" / "quadperfect").glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        text = path.read_text(encoding="utf-8")
        ast.parse(text, str(path), feature_version=(3, int(minor)))


R = Ring(-1)
XI = R.element(1, 1)
# Each record's fields in declaration order, as the library builds it.
RECORDS = [
    (IntFactorization, {"n": 12, "factors": ((2, 2), (3, 1))}),
    (QuadFactorization, {"ring": R, "unit": R.one(), "factors": ((XI, 1),)}),
    (Check, {"name": "q", "expected": "prime", "actual": "prime", "passed": True}),
    (VerifierReport, {"theorem": "2.1", "subject": None, "checks": []}),
    (
        EvenNormDecomposition,
        {
            "ring": R,
            "xi": XI,
            "gamma": 1,
            "x": R.element(6, 3),
            "q": 3,
            "m": 15,
            "k": 1,
            "v": 5,
        },
    ),
    (
        SearchReport,
        {
            "ring": R,
            "n": 2,
            "t": 2,
            "norm_bound": 100,
            "hits": [],
            "elements_scanned": 0,
            "wall_time_ms": 0,
            "odd_norm": False,
            "hit_checks": [],
        },
    ),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_contract(cls, fields):
    # Every record is built once, from every one of its fields, and refuses
    # assignment and deletion afterwards.
    assert cls.__slots__ == tuple(fields)
    for rec in (cls(*fields.values()), cls(**fields)):
        assert {name: getattr(rec, name) for name in fields} == fields
        for name in fields:
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(rec, name, fields[name])
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(rec, name)
    for name in fields:
        rest = {k: v for k, v in fields.items() if k != name}
        with pytest.raises(TypeError, match=f"missing field {name!r}"):
            cls(**rest)
    with pytest.raises(TypeError, match=f"takes {len(fields)} fields"):
        cls(*fields.values(), None)


CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
def test_values_copy_and_pickle(rg, clone):
    # A copied value keeps the one Ring instance per d, which the ring
    # identity checks rely on.
    assert clone(rg) is rg
    z = rg.element(9, 3)
    values = [
        z,
        factor(z),
        search_perfect(rg, 2, 2, 100),
        search_odd_norm(rg, 100),
        check_prime_count(z),
    ]
    for value in values:
        copied = clone(value)
        assert type(copied) is type(value)
        assert copied.to_json() == value.to_json()
        owner = copied.subject if isinstance(copied, VerifierReport) else copied
        assert owner.ring is rg


def test_function_level_imports():
    # Every import made inside a function, as (module.function, what).  The
    # deferred search import is the one half left of the search <-> theorems
    # cycle; cli loads json only for --json output.
    found = set()
    for path in sorted((ROOT / "src" / "quadperfect").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = f"{path.stem}.{fn.name}"
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    found.add((where, "." * node.level + (node.module or "")))
                elif isinstance(node, ast.Import):
                    found |= {(where, alias.name) for alias in node.names}
    assert found == {("theorems.conjecture_scan", ".search"), ("cli.main", "json")}


def test_every_function_is_exported_or_used():
    # A module-level function that the package neither exports nor calls
    # (by name or as an attribute; an import alias does not count) is code
    # that only tests run.
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "quadperfect").glob("*.py"))
    ]
    defined = {
        fn.name for tree in trees for fn in tree.body if isinstance(fn, ast.FunctionDef)
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert defined - used - set(quadperfect.__all__) == set()


Z = Ring(-1).element(3, 9)
NON_INTEGER_CALLS = {
    "delta(2.0, z)": lambda: delta(2.0, Z),
    "delta_naive(2.0, z)": lambda: delta_naive(2.0, Z),
    "abundancy_index(2.0, z)": lambda: abundancy_index(2.0, Z),
    "sigma(1, 7.0)": lambda: sigma(1, 7.0),
    "sigma(1.0, 7)": lambda: sigma(1.0, 7),
    "factor_rational(7.0)": lambda: factor_rational(7.0),
    "factor_rational(True)": lambda: factor_rational(True),
    "Ring(-7.0)": lambda: Ring(-7.0),
    "element(3.5, 1)": lambda: Ring(-1).element(3.5, 1),
    "element(3, 1.0)": lambda: Ring(-1).element(3, 1.0),
    # bool is a subclass of int, but True is no coordinate, bound or norm.
    "element(True, 0)": lambda: Ring(-1).element(True, 0),
    "search_perfect(n=2.0)": lambda: search_perfect(Ring(-1), 2.0, 2, 10**4),
    "search_perfect(t=2.0)": lambda: search_perfect(Ring(-1), 2, 2.0, 10**4),
    "search_perfect(bound=1e4)": lambda: search_perfect(Ring(-1), 2, 2, 1e4),
    "search_perfect(bound=True)": lambda: search_perfect(Ring(-1), 2, 2, True),
    "search_odd_norm(bound=1e4)": lambda: search_odd_norm(Ring(-1), 1e4),
    "is_prime(7.0)": lambda: is_prime(7.0),
    "is_prime(True)": lambda: is_prime(True),
    "classify_rational_prime(7.0)": lambda: classify_rational_prime(7.0, Ring(-1)),
    "prime_above(5.0)": lambda: prime_above(5.0, Ring(-1)),
    "split_prime_pair(5.0)": lambda: split_prime_pair(5.0, Ring(-1)),
    "check_mersenne_inert(2.0)": lambda: check_mersenne_inert(2.0, Ring(-1)),
    "is_powerfully_perfect(t=2.0)": lambda: is_powerfully_perfect(2, 2.0, Z),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS)
def test_non_integers_rejected_at_entry(call):
    # A float would otherwise flow into the exact arithmetic and come back
    # as a float result or fail deep inside it.
    with pytest.raises(TypeError, match="must be an integer"):
        call()
