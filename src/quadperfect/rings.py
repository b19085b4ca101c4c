"""Exact arithmetic in the nine imaginary quadratic rings with unique
factorization.

For d in {-1, -2} (d = 2, 3 mod 4) the ring is Z[sqrt(d)] with w = sqrt(d).
For the seven d = 1 mod 4 the ring is Z[(1 + sqrt(d))/2] with
w = (1 + sqrt(d))/2.  Elements are stored as a + b*w, so every coordinate pair
is a pair of plain integers in both cases.  Both bases obey one law,
w^2 = T*w + c (T = 0, c = d for the first; T = 1, c = (d - 1)/4 for the
second), and product, conjugate and norm are each written once in terms of
T and c.  The field discriminant D (4d for the first basis, d for the
second) decides how a rational prime factors.  All arithmetic is exact;
nothing here touches floating point.
"""

from __future__ import annotations

import re

from .errors import MixedRings, ZeroElement, require_ints

# The nine imaginary quadratic fields whose integers factor uniquely.
ADMISSIBLE_D = (-163, -67, -43, -19, -11, -7, -3, -2, -1)


class Ring:
    """One of the nine rings, identified by its squarefree d."""

    # T and c give the law w^2 = T*w + c of the basis element w; D is the
    # field discriminant.
    __slots__ = ("d", "T", "c", "D", "_units")

    _cache: dict[int, "Ring"] = {}

    def __new__(cls, d: int) -> "Ring":
        # -7.0 == -7 would otherwise find, or fill, the cache slot of Ring(-7).
        require_ints(d=d)
        if d in cls._cache:
            return cls._cache[d]
        if d not in ADMISSIBLE_D:
            raise ValueError(f"d must be one of {ADMISSIBLE_D}, got {d!r}")
        self = object.__new__(cls)
        self.d = d
        self.T, self.c = (1, (d - 1) // 4) if d % 4 == 1 else (0, d)
        self.D = self.T + 4 * self.c
        self._units = None
        cls._cache[d] = self
        return self

    def units(self) -> tuple["QuadInt", ...]:
        if self._units is None:
            one = self.element(1)
            if self.d == -1:
                w = self.element(0, 1)
                us = (one, w, -one, -w)
            elif self.d == -3:
                w = self.element(0, 1)
                us = (one, w, w - 1, -one, -w, one - w)
            else:
                us = (one, -one)
            self._units = us
        return self._units

    def element(self, a: int, b: int = 0) -> "QuadInt":
        require_ints(a=a, b=b)
        return QuadInt(self, a, b)

    def zero(self) -> "QuadInt":
        return QuadInt(self, 0, 0)

    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    def __repr__(self) -> str:
        return f"Ring({self.d})"

    def __reduce__(self):
        # A copy is the cached instance, as the ring identity checks need.
        return Ring, (self.d,)


# Strict element grammar: <int> [("+"|"-") <uint> "*w"], ASCII digits, no
# whitespace; matched against the whole text, so no trailing newline.
_ELEM_RE = re.compile(r"(-?\d+)(?:([+-])(\d+)\*(w|i))?", re.ASCII)


def parse_element(rg: Ring, text: str) -> "QuadInt":
    m = _ELEM_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed element {text!r}; expected e.g. 3, -2+1*w, 3-9*w")
    a = int(m.group(1))
    if m.group(2) is None:
        return rg.element(a)
    if m.group(4) == "i" and rg.d != -1:
        raise ValueError("the 'i' spelling is only valid for d=-1")
    b = int(m.group(3))
    if m.group(2) == "-":
        b = -b
    return rg.element(a, b)


class QuadInt:
    """An element a + b*w of one of the nine rings, immutable."""

    __slots__ = ("ring", "a", "b")

    def __init__(self, rg: Ring, a: int, b: int) -> None:
        # The slot descriptors' own setters bypass __setattr__ below.
        _set_ring(self, rg)
        _set_a(self, a)
        _set_b(self, b)

    def __setattr__(self, name, value):
        raise AttributeError("QuadInt is immutable")

    def __delattr__(self, name):
        raise AttributeError("QuadInt is immutable")

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "QuadInt | None":
        if isinstance(other, QuadInt):
            if other.ring is not self.ring:
                raise MixedRings(
                    f"cannot mix elements of d={self.ring.d} and d={other.ring.d}"
                )
            return other
        if isinstance(other, int):
            return QuadInt(self.ring, other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.ring, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.ring, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.ring, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        rg = self.ring
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        bb = b1 * b2
        return QuadInt(rg, a1 * a2 + rg.c * bb, a1 * b2 + a2 * b1 + rg.T * bb)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QuadInt":
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def conjugate(self) -> "QuadInt":
        # The conjugate of w is T - w.
        return QuadInt(self.ring, self.a + self.ring.T * self.b, -self.b)

    def norm(self) -> int:
        a, b, rg = self.a, self.b, self.ring
        return a * a + rg.T * a * b - rg.c * b * b

    def exact_divide(self, other) -> "QuadInt | None":
        """self / other when other divides self exactly, else None."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot divide QuadInt by {type(other).__name__}")
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by the zero element")
        num = self * o.conjugate()
        qa, ra = divmod(num.a, n)
        if ra:
            return None
        qb, rb = divmod(num.b, n)
        if rb:
            return None
        return QuadInt(self.ring, qa, qb)

    def is_associated(self, other) -> bool:
        o = self._coerce(other)
        if self.is_zero() or o.is_zero():
            return self.is_zero() and o.is_zero()
        q = self.exact_divide(o)
        return q is not None and q.is_unit()

    # -- canonical sector ---------------------------------------------------

    def in_fundamental_sector(self) -> bool:
        """Exactly one associate of every nonzero element lands here.

        The sector is an angular slice of the plane chosen so unit
        multiplication tiles it: [0, pi/2) for d=-1, [0, pi/3) for d=-3,
        [0, pi) otherwise.  Both membership tests reduce to sign checks on
        the stored coordinates.
        """
        if self.is_zero():
            raise ZeroElement("the zero element belongs to no sector")
        if self.ring.d in (-1, -3):
            return self.a > 0 and self.b >= 0
        # Im(z) has the sign of b in either basis; on the real axis b = 0.
        return self.b > 0 or (self.b == 0 and self.a > 0)

    def canonical_associate(self) -> "QuadInt":
        """The associate in the fundamental sector, read off the signs of
        (a, b) where the units are +-1 or the powers of i."""
        a, b, rg = self.a, self.b, self.ring
        if rg.d == -1:
            # Multiplying by i maps a + b*i to -b + a*i, a quarter turn.
            if a > 0 and b >= 0:
                return self
            if b > 0:  # a <= 0: times -i
                return QuadInt(rg, b, -a)
            if a < 0:  # b <= 0: times -1
                return QuadInt(rg, -a, -b)
            if b < 0:  # a >= 0: times i
                return QuadInt(rg, -b, a)
        elif rg.d != -3:
            if b > 0 or (b == 0 and a > 0):
                return self
            if a or b:
                return QuadInt(rg, -a, -b)
        if self.is_zero():
            raise ZeroElement("the zero element has no canonical associate")
        for u in rg.units():
            cand = u * self
            if cand.in_fundamental_sector():
                return cand
        raise AssertionError(f"no associate of {self!r} lies in the sector")

    def sort_key(self) -> tuple[int, int, int]:
        return (self.norm(), self.a, self.b)

    # -- conversions --------------------------------------------------------

    def to_json(self) -> dict:
        return {"d": self.ring.d, "a": self.a, "b": self.b}

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*w"

    def __repr__(self) -> str:
        return f"QuadInt(d={self.ring.d}, a={self.a}, b={self.b})"

    def __eq__(self, other) -> bool:
        # Equal only within one ring, and never to an int: 3 in d = -1 and
        # 3 in d = -2 differ, so neither can equal the int 3.
        if isinstance(other, QuadInt):
            return (
                self.ring is other.ring and self.a == other.a and self.b == other.b
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring.d, self.a, self.b))

    def __reduce__(self):
        return QuadInt, (self.ring, self.a, self.b)


_set_ring, _set_a, _set_b = (vars(QuadInt)[name].__set__ for name in QuadInt.__slots__)
