"""The package surface: the names quadperfect exports, the README table
that documents them, and the README's Python tour."""

from __future__ import annotations

import re
from pathlib import Path

import quadperfect

README = Path(__file__).resolve().parent.parent / "README.md"

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
