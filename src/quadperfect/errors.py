"""Exception types and the integer-argument check shared across the
package."""


class MixedRings(ValueError):
    """Two operands live in different quadratic rings."""


class ZeroElement(ValueError):
    """The operation requires a nonzero element."""


class NotPrime(ValueError):
    """The given element or integer is not prime."""


class OddExponent(ValueError):
    """Norm-power divisor sums are only defined for even exponents."""


class TooLarge(ValueError):
    """The requested computation exceeds its safety cap."""


class PreconditionFailed(ValueError):
    """A verifier or decomposition was invoked outside its hypotheses."""


class SplitDichotomyViolation(ArithmeticError):
    """Both conjugate norm-2 primes divide an element whose even-norm
    decomposition requires exactly one of them to."""


def require_ints(**values) -> None:
    """Raise TypeError naming the first of values that is not an int, so a
    float never reaches the exact arithmetic; a bool is refused too, though
    Python counts it as an int."""
    for name, x in values.items():
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"{name} must be an integer, got {x!r}")
