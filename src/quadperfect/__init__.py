"""Exact arithmetic, divisor sums and perfect-element searches over the
nine imaginary quadratic rings with unique factorization."""

__version__ = "0.1.0"

from .divisor_functions import (
    abundancy_index,
    delta,
    delta_naive,
    divisors,
    is_powerfully_perfect,
    sigma,
)
from .errors import (
    MixedRings,
    NotPrime,
    OddExponent,
    PreconditionFailed,
    SplitDichotomyViolation,
    TooLarge,
    ZeroElement,
)
from .primes import (
    PrimeClass,
    classify_rational_prime,
    factor,
    factor_rational,
    is_prime,
    is_quadratic_prime,
    prime_above,
    split_prime_pair,
    valuation,
)
from .rings import ADMISSIBLE_D, QuadInt, Ring, parse_element
from .search import search_odd_norm, search_perfect
from .theorems import (
    check_mersenne_inert,
    check_odd_structure,
    check_prime_count,
    check_structure_bounds,
    conjecture_scan,
    decompose_even,
    lift_to_3perfect,
    norm2_prime,
)

__all__ = [
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
]
