"""Even-norm decompositions, the structural verifiers, the odd-norm shape
checks, prime-count floors, the 3-perfect lift and the k=1 scan.

The bound-10^4 scans in d=-2 and d=-7 genuinely find even-norm perfect
elements whose decompositions have m=1 and k=0 (their norms are 6, 28 and
8128, with the odd cofactor itself prime of norm q).  The verifiers are
required to report those as failed checks rather than hide them, and the
tests below pin that behavior.
"""

from __future__ import annotations

from unittest import mock

import pytest

from quadperfect import (
    PreconditionFailed,
    Ring,
    SplitDichotomyViolation,
    ZeroElement,
    abundancy_index,
    check_mersenne_inert,
    check_odd_structure,
    check_prime_count,
    check_structure_bounds,
    conjecture_scan,
    decompose_even,
    delta,
    factor,
    is_quadratic_prime,
    lift_to_3perfect,
    norm2_prime,
    prime_above,
    search_perfect,
    split_prime_pair,
    valuation,
)
from quadperfect import search
from quadperfect.theorems import (
    EvenNormDecomposition,
    odd_factorization_shape_report,
    smallest_odd_prime_norms,
)

from conftest import ALL_D, NORM2_D, norm_ball_brute


def checks_by_name(report) -> dict:
    return {c.name: c for c in report.checks}


class TestNorm2Prime:
    def test_values(self):
        assert norm2_prime(Ring(-1)) == Ring(-1).element(1, 1)
        assert norm2_prime(Ring(-2)) == Ring(-2).element(0, 1)
        assert norm2_prime(Ring(-7)) == Ring(-7).element(0, 1)

    def test_rejected_elsewhere(self):
        with pytest.raises(PreconditionFailed):
            norm2_prime(Ring(-3))


class TestDecomposeEven:
    def test_gauss_fixture(self):
        rg = Ring(-1)
        dec = decompose_even(rg.element(3, 9))
        assert dec.xi == rg.element(1, 1)
        assert dec.gamma == 1
        assert dec.x == rg.element(6, 3)
        assert (dec.q, dec.m, dec.k, dec.v) == (3, 15, 1, 5)

    def test_gauss_conjugate_fixture(self):
        rg = Ring(-1)
        dec = decompose_even(rg.element(9, 3))
        assert dec.gamma == 1
        assert dec.x == rg.element(6, -3)
        assert (dec.q, dec.m, dec.k, dec.v) == (3, 15, 1, 5)

    def test_reconstruction_and_pivotal_identity(self):
        for d in NORM2_D:
            rg = Ring(d)
            for z in search_perfect(rg, 2, 2, 10**4).hits:
                if z.norm() % 2:
                    continue
                dec = decompose_even(z)
                assert dec.xi**dec.gamma * dec.x == z
                assert dec.x.norm() % 2 == 1
                assert dec.q == 2 ** (dec.gamma + 1) - 1
                # delta_2(x) and N(x) are locked together.
                assert 2 ** (dec.gamma + 1) * dec.x.norm() == dec.q * delta(2, dec.x)
                assert delta(2, dec.x) == 2 ** (dec.gamma + 1) * dec.m
                assert dec.x.norm() == dec.q * dec.m
                assert dec.m == dec.q**dec.k * dec.v
                assert dec.v % dec.q != 0

    def test_counterexample_decompositions(self):
        # Norms 6, 28 and 8128: the odd cofactor is a single prime of norm
        # q, so m = 1 and k = 0.
        r2 = Ring(-2)
        dec = decompose_even(r2.element(2, 1))
        assert (dec.gamma, dec.q, dec.m, dec.k, dec.v) == (1, 3, 1, 0, 1)
        r7 = Ring(-7)
        dec28 = decompose_even(r7.element(2, 3))
        assert (dec28.gamma, dec28.q, dec28.m, dec28.k) == (2, 7, 1, 0)
        dec8128 = decompose_even(r7.element(82, 13))
        assert (dec8128.gamma, dec8128.q, dec8128.m, dec8128.k) == (6, 127, 1, 0)

    def test_dichotomy_records_the_dividing_prime(self):
        r7 = Ring(-7)
        eps, epsbar = split_prime_pair(2, r7)
        for z in search_perfect(r7, 2, 2, 100).hits:
            dec = decompose_even(z)
            assert dec.xi in (eps, epsbar)
            other = (
                epsbar if dec.xi == eps else eps
            )
            assert valuation(other, z) == 0
            assert valuation(dec.xi, z) == dec.gamma

    def test_conjugation_swaps_the_branch(self):
        r7 = Ring(-7)
        z = r7.element(2, 3)
        zbar = z.conjugate().canonical_associate()
        assert decompose_even(z).xi != decompose_even(zbar).xi

    def test_preconditions(self):
        with pytest.raises(PreconditionFailed):
            decompose_even(Ring(-3).element(2))
        with pytest.raises(PreconditionFailed):
            decompose_even(Ring(-1).element(3, 0))  # odd norm
        with pytest.raises(PreconditionFailed):
            decompose_even(Ring(-1).element(2, 0))  # even norm, not perfect
        with pytest.raises(ZeroElement):
            decompose_even(Ring(-1).zero())

    def test_split_dichotomy_guard_fires(self):
        # No genuine element divisible by both norm-2 primes passes the
        # perfection precondition, so force the precondition to exercise
        # the guard.
        r7 = Ring(-7)
        eps, epsbar = split_prime_pair(2, r7)
        z = eps * epsbar * r7.element(1, 2)
        with mock.patch(
            "quadperfect.theorems._require_perfect", return_value=factor(z)
        ):
            with pytest.raises(SplitDichotomyViolation):
                decompose_even(z)

    @pytest.mark.parametrize("d,a,b", [(-1, 3, 9), (-2, 2, 1), (-7, 82, 13)])
    def test_factors_once(self, factor_calls, d, a, b):
        dec = decompose_even(Ring(d).element(a, b))
        assert dec.xi**dec.gamma * dec.x == Ring(d).element(a, b)
        assert len(factor_calls) == 1

    def test_json(self):
        obj = decompose_even(Ring(-1).element(3, 9)).to_json()
        assert set(obj) == {"xi", "gamma", "x", "q", "m", "k", "v"}


class TestMersenneInert:
    def test_gamma_1_gauss(self):
        rep = check_mersenne_inert(1, Ring(-1))
        assert rep.theorem == "2.1" and rep.overall
        named = checks_by_name(rep)
        assert named["q_prime"].actual == "prime"
        assert named["q_inert"].actual == "inert"

    def test_gamma_2_gauss(self):
        assert check_mersenne_inert(2, Ring(-1)).overall  # q = 7

    def test_gamma_3_composite(self):
        rep = check_mersenne_inert(3, Ring(-1))
        assert not rep.overall
        named = checks_by_name(rep)
        assert named["q_prime"].actual == "composite"  # 15 = 3 * 5
        assert not named["q_inert"].passed

    def test_one_primality_test_per_q(self, monkeypatch):
        from quadperfect import primes, theorems

        real, seen = primes.is_prime, []

        def counting(n):
            seen.append(n)
            return real(n)

        monkeypatch.setattr(primes, "is_prime", counting)
        monkeypatch.setattr(theorems, "is_prime", counting)
        q = 2**61 - 1
        assert check_mersenne_inert(60, Ring(-1)).overall
        assert seen == [q]

    def test_gamma_1_d2_fails_split(self):
        # q = 3 splits in d=-2; exactly the norm-6 counterexample's shape.
        rep = check_mersenne_inert(1, Ring(-2))
        named = checks_by_name(rep)
        assert named["q_prime"].passed
        assert named["q_inert"].actual == "split"
        assert not rep.overall

    def test_d7_congruences(self):
        rep = check_mersenne_inert(1, Ring(-7))
        assert rep.theorem == "2.3" and rep.overall
        named = checks_by_name(rep)
        assert named["gamma_mod_3"].passed and named["q_mod_7"].passed
        # gamma = 2: q = 7 ramifies and both congruences break.
        rep = check_mersenne_inert(2, Ring(-7))
        named = checks_by_name(rep)
        assert named["q_inert"].actual == "ramified"
        assert not named["gamma_mod_3"].passed
        assert not named["q_mod_7"].passed
        # gamma = 6: q = 127 splits, 127 = 1 mod 7, 6 = 0 mod 3.
        rep = check_mersenne_inert(6, Ring(-7))
        named = checks_by_name(rep)
        assert named["q_inert"].actual == "split"
        assert named["q_mod_7"].actual == "1"

    def test_guards(self):
        with pytest.raises(PreconditionFailed):
            check_mersenne_inert(1, Ring(-11))
        with pytest.raises(PreconditionFailed):
            check_mersenne_inert(0, Ring(-1))


class TestStructureBounds:
    def test_gauss_fixture_all_equalities(self):
        dec = decompose_even(Ring(-1).element(3, 9))
        rep = check_structure_bounds(dec)
        assert rep.theorem == "2.2" and rep.overall
        named = checks_by_name(rep)
        assert named["k_odd"].passed
        # v = q + 2 and m = q^2 + q + 3 exactly.
        assert named["v_floor"].expected == ">= 5" and named["v_floor"].actual == "5"
        assert named["m_floor"].expected == ">= 15" and named["m_floor"].actual == "15"
        assert named["m_floor_simple"].expected == ">= 15"
        assert named["inert_valuation"].expected == "1"
        assert named["inert_valuation"].actual == "1"

    def test_synthetic_even_k(self):
        dec = EvenNormDecomposition(
            Ring(-1), Ring(-1).element(1, 1), 1, Ring(-1).element(6, 3), 3, 9, 2, 1
        )
        rep = check_structure_bounds(dec)
        named = checks_by_name(rep)
        assert not named["k_odd"].passed
        assert named["inert_valuation"].actual == "k not odd"

    def test_synthetic_small_v(self):
        dec = EvenNormDecomposition(
            Ring(-1), Ring(-1).element(1, 1), 1, Ring(-1).element(6, 3), 3, 9, 1, 3
        )
        named = checks_by_name(check_structure_bounds(dec))
        assert not named["v_floor"].passed

    def test_synthetic_split_q(self):
        # q = 3 is prime and splits in d = -2, so element(3) is no prime of
        # the ring: the valuation check fails as "q not inert".
        rg = Ring(-2)
        dec = EvenNormDecomposition(rg, rg.element(0, 1), 1, rg.element(1, 1), 3, 3, 1, 1)
        named = checks_by_name(check_structure_bounds(dec))
        assert named["inert_valuation"].actual == "q not inert"
        assert not named["inert_valuation"].passed

    def test_counterexample_reports(self):
        dec = decompose_even(Ring(-2).element(2, 1))
        rep = check_structure_bounds(dec)
        assert not rep.overall
        named = checks_by_name(rep)
        assert not named["k_odd"].passed  # k = 0
        assert not named["v_floor"].passed  # v = 1 < 5
        assert not named["m_floor_simple"].passed  # m = 1 < 15
        rep7 = check_structure_bounds(decompose_even(Ring(-7).element(2, 3)))
        assert rep7.theorem == "2.4" and not rep7.overall

    def test_nested_floor_on_larger_k(self):
        # k = 3: the tighter floor q^4 + (q+3)(1 + q^2) must be enforced.
        dec = EvenNormDecomposition(
            Ring(-1), Ring(-1).element(1, 1), 1, Ring(-1).element(6, 3), 3, 135, 3, 5
        )
        named = checks_by_name(check_structure_bounds(dec))
        expect = 3**4 + 6 * (1 + 9)
        assert named["m_floor"].expected == f">= {expect}"
        assert not named["m_floor"].passed  # 135 < 141


class TestOddShape:
    def test_valid_shape(self):
        rep = odd_factorization_shape_report([(5, 5), (9, 2)])
        assert rep.theorem == "2.5" and rep.overall

    def test_exponent_3_fails(self):
        named = checks_by_name(odd_factorization_shape_report([(5, 3), (9, 2)]))
        assert not named["exponent_mod_4"].passed

    def test_two_odd_exponents_fail(self):
        rep = odd_factorization_shape_report([(5, 5), (9, 3)])
        named = checks_by_name(rep)
        assert not named["single_odd_exponent"].passed
        assert "exponent_mod_4" not in named

    def test_prime_norm_3_mod_4_fails(self):
        named = checks_by_name(odd_factorization_shape_report([(7, 5), (25, 2)]))
        assert not named["prime_norm_mod_4"].passed

    def test_check_odd_structure_preconditions(self):
        with pytest.raises(PreconditionFailed):
            check_odd_structure(Ring(-1).element(1, 1))  # even norm
        with pytest.raises(PreconditionFailed):
            check_odd_structure(Ring(-1).element(3, 0))  # not perfect
        with pytest.raises(ZeroElement):
            check_odd_structure(Ring(-1).zero())

    def test_check_odd_structure_factors_once(self, factor_calls):
        # No odd-norm perfect element is known; force the index check.
        z = Ring(-1).element(2, 1)  # norm 5, one prime
        with mock.patch("quadperfect.theorems._index2", return_value=2):
            rep = check_odd_structure(z)
        assert len(factor_calls) == 1
        assert rep.overall

    def test_prime_power_delta_parity(self, rg):
        # delta_2 of an odd-norm prime power has parity opposite to the
        # exponent: alpha + 1 odd terms.
        from quadperfect import is_prime

        seen = 0
        for p in range(3, 100, 2):
            if not is_prime(p):
                continue
            pi = prime_above(p, rg)
            if pi.norm() > 100 or pi.norm() % 2 == 0:
                continue
            for alpha in range(1, 7):
                assert delta(2, pi**alpha) % 2 != alpha % 2
                seen += 1
        assert seen


class TestPrimeCount:
    def test_count(self):
        rg = Ring(-1)
        for z, count in [((9, 3), 3), ((30, 30), 4), ((7, 0), 1)]:
            rep = check_prime_count(rg.element(*z))
            assert checks_by_name(rep)["prime_divisors"].actual == str(count)
        with pytest.raises(ZeroElement):
            check_prime_count(rg.zero())

    def test_factors_once(self, factor_calls):
        # Odd norm in a ring with a floor, so the perfection test runs too.
        check_prime_count(Ring(-1).element(2, 1))
        assert len(factor_calls) == 1

    def test_floor_only_in_odd_perfect_context(self):
        # Even-norm perfect element: counted, no floor applied.
        rep = check_prime_count(Ring(-1).element(9, 3))
        assert [c.name for c in rep.checks] == ["prime_divisors"]
        assert rep.overall
        # Odd-norm non-perfect element: same.
        rep = check_prime_count(Ring(-2).element(3, 1))
        assert [c.name for c in rep.checks] == ["prime_divisors"]

    def test_floor_applied_via_forced_context(self):
        # No genuine odd-norm perfect element is known; force the context
        # check to confirm the floor comparison and its failure report.
        z = Ring(-7).element(1, 2)  # norm 11, one prime
        with mock.patch("quadperfect.theorems._index2", return_value=2):
            rep = check_prime_count(z)
        named = checks_by_name(rep)
        assert named["prime_divisor_floor"].expected == ">= 11"
        assert not named["prime_divisor_floor"].passed

    def test_smallest_odd_prime_norm_tables(self):
        assert smallest_odd_prime_norms(Ring(-1), 5) == [5, 5, 9, 13, 13]
        assert smallest_odd_prime_norms(Ring(-2), 6) == [3, 3, 11, 11, 17, 17]
        assert smallest_odd_prime_norms(Ring(-7), 11) == [
            7, 9, 11, 11, 23, 23, 25, 29, 29, 37, 37,
        ]

    def test_table_guards_and_growth(self):
        with pytest.raises(ValueError):
            smallest_odd_prime_norms(Ring(-1), 0)
        norms = smallest_odd_prime_norms(Ring(-163), 40)
        assert len(norms) == 40 and norms == sorted(norms)
        # Against the odd norms of the primes among all canonical elements
        # of norm <= 2000, for every count that those norms settle.
        for d in ALL_D:
            rg = Ring(d)
            want = sorted(
                z.norm()
                for z in norm_ball_brute(rg, 2000)
                if z.norm() % 2 and is_quadratic_prime(z)
            )
            for count in range(1, len(want) + 1):
                assert smallest_odd_prime_norms(rg, count) == want[:count], (d, count)


class TestLift:
    def test_norm2_prime_index(self):
        # The multiplier itself: divisor classes 1 and xi, so the index is
        # (1 + 2) / 2 in each of the three rings.
        from fractions import Fraction

        for d in NORM2_D:
            xi = norm2_prime(Ring(d))
            assert abundancy_index(2, xi) == Fraction(3, 2)

    def test_identity_on_synthetic_odd_products(self):
        # I_2(xi * z) = (3/2) I_2(z) for any odd-norm z coprime to xi.
        from fractions import Fraction

        samples = {
            -1: [(2, 1), (2, 1), (3, 2)],
            -2: [(1, 1), (1, 2), (3, 2)],
            -7: [(1, 2), (3, 2), (1, 4)],
        }
        for d, coords in samples.items():
            rg = Ring(d)
            xi = norm2_prime(rg)
            z = rg.one()
            for a, b in coords:
                z = z * rg.element(a, b)
            assert z.norm() % 2 == 1
            assert abundancy_index(2, xi * z) == Fraction(3, 2) * abundancy_index(2, z)

    def test_lift_preconditions(self):
        with pytest.raises(PreconditionFailed):
            lift_to_3perfect(Ring(-1).element(9, 3))  # even norm
        with pytest.raises(PreconditionFailed):
            lift_to_3perfect(Ring(-1).element(3, 0))  # not perfect
        with pytest.raises(PreconditionFailed):
            lift_to_3perfect(Ring(-11).element(3, 0))
        with pytest.raises(ZeroElement):
            lift_to_3perfect(Ring(-1).zero())

    def test_lift_on_forced_perfect_input(self):
        # Force the perfection precondition with an element whose index is
        # known, then check the asserted output identity is what fires.
        z = Ring(-1).element(3, 0)
        with mock.patch("quadperfect.theorems._require_perfect"):
            with pytest.raises(AssertionError):
                lift_to_3perfect(z)  # index(2, 3) != 2, so the lift is not 3


class TestConjectureScan:
    def test_gauss_consistent(self):
        rep = conjecture_scan(Ring(-1), 100)
        assert rep.overall
        assert [c.name for c in rep.checks] == ["k[3+9*w]", "k[9+3*w]"]
        assert all(c.actual == "1" for c in rep.checks)

    def test_gauss_10k_consistent(self):
        assert conjecture_scan(Ring(-1), 10**4).overall

    def test_vacuous_pass_below_first_hit(self):
        rep = conjecture_scan(Ring(-2), 5)
        assert rep.overall
        assert rep.checks[0].name == "vacuous"

    def test_d2_counterexamples_reported(self):
        rep = conjecture_scan(Ring(-2), 10**4)
        assert not rep.overall
        assert [(c.name, c.actual) for c in rep.checks] == [
            ("k[-2+1*w]", "0"),
            ("k[2+1*w]", "0"),
        ]

    def test_factors_once_per_hit(self, factor_calls, factor_rational_calls):
        # The search's revalidation factors each hit once; decompose_even
        # reuses that factorization.  The hits share their norm's rational
        # factorization: the hit norms are 28 and 8128.
        rep = conjecture_scan(Ring(-7), 10**4)
        assert len(rep.checks) == 6
        assert len(factor_calls) == 6
        assert sorted(factor_rational_calls) == [28, 8128]

    def test_counts_no_elements(
        self, monkeypatch, factor_calls, factor_rational_calls
    ):
        # The scan takes its hits from the search's hit half; the element
        # count, which it never reports, is not run.
        def refuse(rg, bound):
            raise AssertionError("conjecture_scan counted elements")

        monkeypatch.setattr(search, "_element_count", refuse)
        rep = conjecture_scan(Ring(-7), 10**4)
        assert len(rep.checks) == 6
        assert len(factor_calls) == 6
        assert sorted(factor_rational_calls) == [28, 8128]

    def test_d7_counterexamples_reported(self):
        rep = conjecture_scan(Ring(-7), 10**4)
        assert not rep.overall
        assert len(rep.checks) == 6
        assert all(c.actual == "0" and not c.passed for c in rep.checks)

    def test_rejected_outside_norm2_rings(self):
        with pytest.raises(PreconditionFailed):
            conjecture_scan(Ring(-11), 100)

    def test_report_json(self):
        obj = conjecture_scan(Ring(-2), 5).to_json()
        assert set(obj) == {"theorem", "subject", "checks", "overall"}
        assert obj["checks"][0]["pass"] is True
