"""Structural checks on 2-powerfully perfect elements.

An even-norm 2-powerfully 2-perfect z in d = -1, -2, -7 decomposes as
xi^gamma * x with xi the (or, for d=-7, exactly one of the two) norm-2
prime(s) and N(x) odd; writing q = 2^(gamma+1) - 1 forces delta_2(x) =
2^(gamma+1) * m and N(x) = q * m, and the verifiers below check everything
the decomposition is known to satisfy: q a Mersenne prime, inert in the
ring; m = q^k * v with k odd, v >= q + 2 and the lower bounds on m; for
odd norms, exactly one prime with odd exponent, that exponent and the
prime's norm both 1 mod 4, and at least 5 (d = -1, -2) or 11 (d = -7)
pairwise non-associated prime divisors.  Verifiers never assume any of
this: both sides of every claim are recomputed and failures are reported,
not raised.  Check ids ("2.1" .. "2.5", "count", "lift") are the CLI's
vocabulary for picking a verifier.
"""

from __future__ import annotations

from fractions import Fraction

from .divisor_functions import _geo_product, abundancy_index, geo
from .errors import (
    NotPrime,
    PreconditionFailed,
    SplitDichotomyViolation,
    ZeroElement,
    require_ints,
)
from .primes import (
    PrimeClass,
    QuadFactorization,
    _classify,
    classify_rational_prime,
    factor,
    is_prime,
    prime_above,
    valuation,
)
from .records import Record
from .rings import QuadInt, Ring

# The rings each even-norm check id applies to: 2.1 and 2.2 state the d = -1,
# -2 results, 2.3 and 2.4 the d = -7 ones with their extra congruences.
EVEN_CHECK_RINGS = {"2.1": (-1, -2), "2.2": (-1, -2), "2.3": (-7,), "2.4": (-7,)}

# Minimum count of pairwise non-associated prime divisors for an odd-norm
# 2-powerfully 2-perfect element.
PRIME_COUNT_FLOOR = {-1: 5, -2: 5, -7: 11}


class Check(Record):
    """One claim of a verifier: its name, the expected and actual values as
    text, and whether it passed."""

    __slots__ = ("name", "expected", "actual", "passed")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


class VerifierReport(Record):
    """The checks one verifier ran, by check id, on subject (or None)."""

    __slots__ = ("theorem", "subject", "checks")

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "subject": None if self.subject is None else self.subject.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "overall": self.overall,
        }


class EvenNormDecomposition(Record):
    """z = xi^gamma * x with N(x) odd, q = 2^(gamma+1) - 1, delta_2(x) =
    2^(gamma+1) * m, m = q^k * v with q not dividing v; fields ring, xi,
    gamma, x, q, m, k, v."""

    __slots__ = ("ring", "xi", "gamma", "x", "q", "m", "k", "v")

    def to_json(self) -> dict:
        return {
            "xi": self.xi.to_json(),
            "gamma": self.gamma,
            "x": self.x.to_json(),
            "q": self.q,
            "m": self.m,
            "k": self.k,
            "v": self.v,
        }


def _require_norm2(rg: Ring) -> None:
    # A prime above 2 has norm 2 unless 2 is inert.
    if _classify(2, rg) < 0:
        raise PreconditionFailed(f"no element of norm 2 exists for d={rg.d}")


def _index2(z: QuadInt, fac: QuadFactorization) -> Fraction:
    """index(2, z) from the factorization fac of z."""
    return Fraction(_geo_product(1, fac), z.norm())


def _require_perfect(
    z: QuadInt, parity: int, fac: QuadFactorization | None = None
) -> QuadFactorization:
    """z must be 2-powerfully 2-perfect with N(z) = parity mod 2; returns
    the factorization of z, which is fac when given."""
    if z.is_zero():
        raise ZeroElement("the zero element has no abundancy index")
    if z.norm() % 2 != parity:
        kind = "even" if parity else "odd"
        raise PreconditionFailed(f"N({z}) = {z.norm()} is {kind}")
    if fac is None:
        fac = factor(z)
    index = _index2(z, fac)
    if index != 2:
        raise PreconditionFailed(f"index(2, {z}) = {index} != 2")
    return fac


def norm2_prime(rg: Ring) -> QuadInt:
    """The canonical norm-2 prime of d = -1, -2 or -7."""
    _require_norm2(rg)
    return prime_above(2, rg)


def decompose_even(
    z: QuadInt, fac: QuadFactorization | None = None
) -> EvenNormDecomposition:
    """Split an even-norm 2-powerfully 2-perfect z off its norm-2 prime
    power and derive (q, m, k, v).  fac, when given, is factor(z)."""
    rg = z.ring
    _require_norm2(rg)
    fac = _require_perfect(z, 0, fac)
    # One norm-2 prime for d = -1, -2; two conjugate ones for d = -7.
    found = [(pi, e) for pi, e in fac.factors if pi.norm() == 2]
    if len(found) > 1:
        gammas = " and ".join(str(g) for _, g in found)
        raise SplitDichotomyViolation(
            f"both norm-2 primes divide {z}: exponents {gammas}"
        )
    [(xi, gamma)] = found
    # The factors are sorted by norm, so x = z / xi^gamma is the unit times
    # the odd-norm prime powers that follow xi^gamma.
    odd = QuadFactorization(rg, fac.unit, fac.factors[1:])
    x = odd.value()
    d2x = _geo_product(1, odd)
    q = (1 << (gamma + 1)) - 1
    m, rem = divmod(d2x, 1 << (gamma + 1))
    assert rem == 0, (z, d2x, gamma)
    assert x.norm() == q * m, (z, q, m)
    k, v = 0, m
    while v % q == 0:
        v //= q
        k += 1
    return EvenNormDecomposition(rg, xi, gamma, x, q, m, k, v)


def _congruence_checks(gamma: int, q: int) -> list[Check]:
    return [
        Check("gamma_mod_3", "1", str(gamma % 3), gamma % 3 == 1),
        Check("q_mod_7", "3", str(q % 7), q % 7 == 3),
    ]


def check_mersenne_inert(gamma: int, rg: Ring) -> VerifierReport:
    """q = 2^(gamma+1) - 1 must be a Mersenne prime, inert in the ring;
    check ids 2.1 (d = -1, -2) and 2.3 (d = -7)."""
    require_ints(gamma=gamma)
    _require_norm2(rg)
    if gamma < 1:
        raise PreconditionFailed(f"gamma must be >= 1, got {gamma}")
    q = (1 << (gamma + 1)) - 1
    # classify_rational_prime's primality test serves both checks.
    try:
        cls = classify_rational_prime(q, rg)
    except NotPrime:
        cls = None
    prime = cls is not None
    checks = [
        Check("q_value", f"2^{gamma + 1}-1", str(q), True),
        Check("q_prime", "prime", "prime" if prime else "composite", prime),
        Check(
            "q_inert", "inert", cls.value if prime else "q not prime", cls is PrimeClass.INERT
        ),
    ]
    if rg.d == -7:
        checks.extend(_congruence_checks(gamma, q))
    return VerifierReport("2.3" if rg.d == -7 else "2.1", None, checks)


def check_structure_bounds(dec: EvenNormDecomposition) -> VerifierReport:
    """Parity of k, the floors on v and m, and the inert valuation of q in
    the odd cofactor; check ids 2.2 (d = -1, -2) and 2.4 (d = -7)."""
    q, m, k, v = dec.q, dec.m, dec.k, dec.v
    checks = [
        Check("k_odd", "odd", str(k), k % 2 == 1),
        Check("v_floor", f">= {q + 2}", str(v), v >= q + 2),
    ]
    lower = q ** (k + 1) + (q + 3) * geo(q * q, (k - 1) // 2)
    checks.append(Check("m_floor", f">= {lower}", str(m), m >= lower))
    simple = q * q + q + 3
    checks.append(Check("m_floor_simple", f">= {simple}", str(m), m >= simple))
    if k % 2 == 1:
        expect = (k + 1) // 2
        try:
            rho = valuation(dec.ring.element(q), dec.x)
            checks.append(
                Check("inert_valuation", str(expect), str(rho), rho == expect)
            )
        except NotPrime:
            # element(q) is no prime of the ring when q is composite or a
            # prime that is not inert.
            why = "q not inert" if is_prime(q) else "q not prime"
            checks.append(Check("inert_valuation", str(expect), why, False))
    else:
        checks.append(Check("inert_valuation", "(k+1)/2", "k not odd", False))
    if dec.ring.d == -7:
        checks.extend(_congruence_checks(dec.gamma, q))
    return VerifierReport("2.4" if dec.ring.d == -7 else "2.2", None, checks)


def odd_factorization_shape_report(
    pairs: list[tuple[int, int]], subject: QuadInt | None = None
) -> VerifierReport:
    """Shape check on (prime norm, exponent) pairs: exactly one odd
    exponent, and for it both the exponent and the prime norm are 1 mod 4."""
    odd = [(np, e) for np, e in pairs if e % 2 == 1]
    checks = [
        Check(
            "single_odd_exponent",
            "exactly one prime with odd exponent",
            f"{len(odd)} primes with odd exponent",
            len(odd) == 1,
        )
    ]
    if len(odd) == 1:
        np, e = odd[0]
        checks.append(Check("exponent_mod_4", "1", str(e % 4), e % 4 == 1))
        checks.append(Check("prime_norm_mod_4", "1", str(np % 4), np % 4 == 1))
    return VerifierReport("2.5", subject, checks)


def check_odd_structure(z: QuadInt) -> VerifierReport:
    """Factorization shape of an odd-norm 2-powerfully 2-perfect element;
    check id 2.5."""
    pairs = [(pi.norm(), e) for pi, e in _require_perfect(z, 1).factors]
    return odd_factorization_shape_report(pairs, subject=z)


def check_prime_count(z: QuadInt) -> VerifierReport:
    """Prime-divisor count, with the ring's floor enforced when z is an
    odd-norm 2-powerfully 2-perfect element; check id count."""
    fac = factor(z)
    count = len(fac.factors)
    checks = [Check("prime_divisors", "counted", str(count), True)]
    floor = PRIME_COUNT_FLOOR.get(z.ring.d)
    if floor is not None and z.norm() % 2 == 1 and _index2(z, fac) == 2:
        checks.append(
            Check("prime_divisor_floor", f">= {floor}", str(count), count >= floor)
        )
    return VerifierReport("count", z, checks)


def lift_to_3perfect(z: QuadInt) -> QuadInt:
    """Multiply an odd-norm 2-powerfully 2-perfect z by the norm-2 prime;
    the result is 2-powerfully 3-perfect.  Check id lift."""
    _require_norm2(z.ring)
    _require_perfect(z, 1)
    w = prime_above(2, z.ring) * z
    if abundancy_index(2, w) != 3:
        raise AssertionError(f"the lift {w} of {z} is not 3-perfect")
    return w


def conjecture_scan(rg: Ring, bound: int) -> VerifierReport:
    """Exhaustively check that every even-norm 2-powerfully 2-perfect
    element with norm <= bound has k = 1; vacuous pass when none exist.
    It reads the hits, with the factorizations their revalidation built,
    from the search's hit half, and counts no elements."""
    from .search import _find, _validate

    _require_norm2(rg)
    _validate(2, 2, bound)
    found = _find(rg, 2, 2, bound, False)
    checks = []
    for z, fac in found:
        if z.norm() % 2 == 0:
            dec = decompose_even(z, fac)
            checks.append(Check(f"k[{z}]", "1", str(dec.k), dec.k == 1))
    if not checks:
        checks.append(
            Check(
                "vacuous",
                f"no even-norm hits with norm <= {bound}",
                f"{len(found)} hits, none even-norm",
                True,
            )
        )
    return VerifierReport("conjecture", None, checks)
