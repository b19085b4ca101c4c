"""Element arithmetic, conjugation, norms, units, the fundamental sector
and the text encoding."""

from __future__ import annotations

import operator
import pickle
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadperfect import MixedRings, QuadInt, Ring, ZeroElement, parse_element
from quadperfect.records import Record

from conftest import ALL_D, box_elements, canonical_by_units, norm_ball_elements

coords = st.integers(min_value=-10**6, max_value=10**6)
d_values = st.sampled_from(ALL_D)


@st.composite
def elements(draw, nonzero=False):
    rg = Ring(draw(d_values))
    a = draw(coords)
    b = draw(coords)
    if nonzero and a == 0 and b == 0:
        a = 1
    return rg.element(a, b)


def pair(draw, rg):
    return rg.element(draw(coords), draw(coords))


@st.composite
def element_triples(draw):
    rg = Ring(draw(d_values))
    return tuple(pair(draw, rg) for _ in range(3))


class TestRing:
    def test_interned(self):
        assert Ring(-7) is Ring(-7)

    @pytest.mark.parametrize("bad", [0, 1, -5, -6, -10, -164, 7])
    def test_rejects_inadmissible_d(self, bad):
        with pytest.raises(ValueError):
            Ring(bad)

    def test_basis_law(self):
        # w^2 = w + (d-1)/4 with conj(w) = 1 - w in the half-integer basis;
        # w^2 = d with conj(w) = -w in the plain one.  Both are w^2 = T*w + c.
        for d in ALL_D:
            rg = Ring(d)
            w = rg.element(0, 1)
            if rg.T:
                assert w * w == rg.element((d - 1) // 4, 1)
                assert w.conjugate() == rg.element(1, -1)
            else:
                assert w * w == rg.element(d) and rg.c == d
                assert w.conjugate() == rg.element(0, -1)
            assert w * w == rg.T * w + rg.c
            assert w.conjugate() == rg.T - w
            assert rg.D == (d if rg.T else 4 * d)

    def test_unit_counts(self):
        # The units come as the powers of w for d = -1, -3, and as 1, -1
        # elsewhere, in that order.
        powers_of_w = {
            -1: [(1, 0), (0, 1), (-1, 0), (0, -1)],
            -3: [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
        }
        for d in ALL_D:
            rg = Ring(d)
            count = {-1: 4, -3: 6}.get(d, 2)
            assert len(rg.units()) == count
            assert all(u.is_unit() for u in rg.units())
            assert len(set(rg.units())) == count
            order = powers_of_w.get(d, [(1, 0), (-1, 0)])
            assert [(u.a, u.b) for u in rg.units()] == order

    def test_units_are_exactly_norm_one(self, rg):
        found = {z for z in box_elements(rg, 3, 3) if z.norm() == 1}
        assert found == set(rg.units())


class TestArithmetic:
    @given(element_triples())
    def test_ring_axioms(self, triple):
        x, y, z = triple
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == x.ring.zero()
        assert x * x.ring.one() == x

    @given(element_triples())
    def test_norm_multiplicative(self, triple):
        x, y, _ = triple
        assert (x * y).norm() == x.norm() * y.norm()
        assert x.norm() >= 0

    @given(element_triples())
    def test_conjugation(self, triple):
        x, y, _ = triple
        assert x.conjugate().conjugate() == x
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        # z * conj(z) is the norm embedded as a rational integer.
        assert x * x.conjugate() == x.ring.element(x.norm())
        assert x.conjugate().norm() == x.norm()

    @given(elements())
    def test_int_coercion(self, z):
        assert 2 * z == z + z
        assert z - 1 == z + (-1)
        assert 1 + z == z + 1

    @given(elements(nonzero=True), st.integers(min_value=0, max_value=6))
    def test_pow_matches_repeated_product(self, z, e):
        expect = z.ring.one()
        for _ in range(e):
            expect = expect * z
        assert z**e == expect

    def test_non_element_operands_rejected(self):
        z = Ring(-1).element(1, 2)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(z, 2.5)
            with pytest.raises(TypeError):
                op(2.5, z)
        with pytest.raises(TypeError):
            z**-1

    def test_mixed_rings_rejected(self):
        with pytest.raises(MixedRings):
            Ring(-1).element(1, 1) + Ring(-2).element(1, 1)
        with pytest.raises(MixedRings):
            Ring(-3).element(1) * Ring(-7).element(1)

    def test_immutable(self):
        # An element is a Record: built by position or by field name, and
        # pickled as QuadInt(ring, a, b).
        z = Ring(-1).element(1, 2)
        with pytest.raises(AttributeError, match="QuadInt is immutable"):
            z.a = 5
        with pytest.raises(AttributeError, match="immutable"):
            del z.a
        assert (z.a, z.b) == (1, 2)
        assert isinstance(z, Record)
        assert QuadInt(ring=z.ring, a=1, b=2) == z == QuadInt(z.ring, 1, 2)
        assert z.__reduce__() == (QuadInt, (z.ring, 1, 2))
        assert pickle.loads(pickle.dumps(z)) == z

    def test_norm_formulas(self):
        assert Ring(-1).element(3, 4).norm() == 25
        assert Ring(-2).element(3, 4).norm() == 41
        assert Ring(-3).element(2, 5).norm() == 39  # a^2 + ab + b^2
        assert Ring(-163).element(0, 1).norm() == 41
        assert Ring(-7).element(1, 1).norm() == 4


class TestExactDivision:
    @given(element_triples())
    def test_product_divides(self, triple):
        x, y, _ = triple
        if y.is_zero():
            return
        assert (x * y).exact_divide(y) == x
        assert (x * y).exact_divide(y) is not None

    def test_non_divisor_returns_none(self):
        rg = Ring(-1)
        assert rg.element(3).exact_divide(rg.element(2)) is None
        assert rg.element(1, 1).exact_divide(rg.element(0, 2)) is None

    def test_zero_divisor_raises(self):
        rg = Ring(-2)
        with pytest.raises(ZeroDivisionError):
            rg.element(3, 1).exact_divide(rg.zero())

    @given(elements(nonzero=True))
    def test_associates(self, z):
        for u in z.ring.units():
            assert z.is_associated(u * z)
        assert not z.is_associated(z + z.ring.one() if z.b else z * 2)

    def test_is_associated_rejects_non_elements(self):
        z = Ring(-1).element(3)
        assert z.is_associated(3) and z.is_associated(-3)
        for other in (2.5, "3", None):
            with pytest.raises(TypeError, match="cannot divide QuadInt by"):
                z.is_associated(other)
            with pytest.raises(TypeError, match="cannot divide QuadInt by"):
                z.exact_divide(other)

    def test_zero_is_associated_only_with_zero(self, rg):
        z = rg.element(3, 1)
        assert rg.zero().is_associated(0)
        assert not z.is_associated(rg.zero())
        assert not rg.zero().is_associated(z)


class TestFundamentalSector:
    def test_exactly_one_associate_in_sector(self, rg):
        for z in box_elements(rg, 20, 20):
            inside = [u * z for u in rg.units() if (u * z).in_fundamental_sector()]
            assert len(inside) == 1, z

    def test_canonical_associate(self, rg):
        for z in box_elements(rg, 12, 12):
            c = z.canonical_associate()
            assert c.in_fundamental_sector()
            assert c.is_associated(z)
            assert c.canonical_associate() == c
            assert c.norm() == z.norm()

    def test_canonical_matches_unit_loop(self, rg):
        for z in norm_ball_elements(rg, 2000):
            assert z.canonical_associate() == canonical_by_units(z), z

    def test_zero_has_no_sector(self, rg):
        with pytest.raises(ZeroElement):
            rg.zero().in_fundamental_sector()
        with pytest.raises(ZeroElement):
            rg.zero().canonical_associate()

    def test_sector_shape(self):
        # Quarter plane for d=-1, sixth for d=-3, half plane otherwise.
        assert Ring(-1).element(1, 0).in_fundamental_sector()
        assert not Ring(-1).element(0, 1).in_fundamental_sector()
        assert Ring(-3).element(1, 1).in_fundamental_sector()
        assert not Ring(-3).element(0, 1).in_fundamental_sector()
        assert Ring(-2).element(-3, 1).in_fundamental_sector()
        assert Ring(-2).element(3, 0).in_fundamental_sector()
        assert not Ring(-2).element(-3, 0).in_fundamental_sector()


class TestEncodings:
    @given(elements())
    def test_str_parse_round_trip(self, z):
        assert parse_element(z.ring, str(z)) == z

    def test_str_forms(self):
        rg = Ring(-11)
        assert str(rg.element(3)) == "3"
        assert str(rg.element(-2, 5)) == "-2+5*w"
        assert str(rg.element(0, -1)) == "0-1*w"

    def test_i_alias_only_for_gauss(self):
        assert parse_element(Ring(-1), "9+3*i") == Ring(-1).element(9, 3)
        with pytest.raises(ValueError):
            parse_element(Ring(-7), "9+3*i")

    @pytest.mark.parametrize(
        "text",
        ["", "w", "3+w", "3 + 1*w", "3+1*w*w", "1.5", "3+-2*w", "++3"]
        + ["3+9*i\n", "3\n", "\u0663"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_element(Ring(-1), text)

    @given(elements())
    def test_sort_key(self, z):
        assert z.sort_key() == (z.norm(), z.a, z.b)

    def test_equality_with_ints(self):
        # Equality holds within one ring only: an element never equals an
        # int, nor the same coordinates in another ring.
        for d in ALL_D:
            rg, other = Ring(d), Ring(-2 if d == -1 else -1)
            for a, b in ((7, 0), (7, 1), (0, 0), (1, 0)):
                z = rg.element(a, b)
                assert z == rg.element(a, b)
                assert z != a and a != z
                assert z != other.element(a, b)

    def test_hash_agrees_with_equality(self, rg):
        # Equal elements hash alike, and a set holding an element, its int
        # and the same coordinates in another ring keeps all three members
        # whatever the order they arrive in.
        other = Ring(-2 if rg.d == -1 else -1)
        for a, b in ((-7, 0), (0, 0), (3, 0), (10**30, 0), (0, 1), (3, -2)):
            z = rg.element(a, b)
            assert hash(z) == hash(rg.element(a, b)) == hash((rg.d, a, b))
            assert {z: "z"}[rg.element(a, b)] == "z"
            for members in permutations((z, other.element(a, b), a)):
                assert len(set(members)) == 3
                assert len(dict.fromkeys(members)) == 3
