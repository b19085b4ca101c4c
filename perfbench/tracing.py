"""Per-layer spans and counts for the traced run.

The library is left untouched: the tracer rebinds module-level names to
wrappers for as long as it is installed.  A name is rebound in every
quadperfect module (and on QuadInt) that holds the same function object,
so a call is seen whichever module the caller looked the name up in.  A
span records calls and inclusive time, and charges its duration to the
enclosing span as child time; a layer's self time is its inclusive time
minus its child time.  Counters only count, to keep the cost of the hot
QuadInt methods low.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name).  The search span also collects what every
# SearchReport says it scanned, found and which backend ran.
SPANS = (
    ("search", "search_perfect", "search"),
    ("search", "search_odd_norm", "search"),
    ("search", "_revalidate", "search.revalidate"),
    ("divisor_functions", "delta", "divisor_functions.delta"),
    ("divisor_functions", "divisors", "divisor_functions.divisors"),
    ("primes", "factor", "primes.factor"),
    ("primes", "factor_rational", "primes.factor_rational"),
    ("primes", "_norm_equation_solutions", "primes.norm_solve"),
    ("primes", "_valuation_unchecked", "primes.valuation"),
    ("theorems", "decompose_even", "theorems.decompose"),
    ("theorems", "conjecture_scan", "theorems.conjecture"),
    ("cli", "main", "cli.command"),
)

# (module, attribute, counter name); attributes with a dot live on a class.
COUNTERS = (
    ("primes", "is_prime", "primes.is_prime"),
    ("rings", "QuadInt.__mul__", "rings.mul"),
    ("rings", "QuadInt.exact_divide", "rings.exact_divide"),
)


class Tracer:
    """Install with install(), remove with uninstall(); read calls, total
    and child, keyed by span or counter name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.elements_scanned = 0
        self.hits = 0
        self.backends: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def _span(self, name: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if name == "search":
                self.elements_scanned += result.elements_scanned
                self.hits += len(result.hits)
                self.backends[result.backend] += 1
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper, owners) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, original))

    def _wrap(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(f"quadperfect.{module}")
        owner, name = mod, attr
        if "." in attr:
            cls, name = attr.split(".")
            owner = getattr(mod, cls, None)
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        if owner is mod:
            owners = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "quadperfect"]
        else:
            owners = [owner]
        self._rebind(original, make(original), owners)

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._wrap(module, attr, lambda fn, name=name: self._span(name, fn))
        for module, attr, name in COUNTERS:
            self._wrap(module, attr, lambda fn, name=name: self._counter(name, fn))
        # Delta calls made by the scan loop itself, on top of the delta span.
        scan = sys.modules.get("quadperfect._scan_py")
        if scan is not None and hasattr(scan, "delta"):
            inner = scan.delta
            self._rebind(inner, self._counter("search.delta", inner), [scan])
        else:
            self.missing.append("_scan_py.delta")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics this tracer can give, as (value, unit)."""
        c, s = self.calls, self.self_time
        return {
            "search.elements_scanned": (self.elements_scanned, "count"),
            "search.hits": (self.hits, "count"),
            "search.delta_calls": (c["search.delta"], "count"),
            "search.self_s": (s("search"), "s"),
            "search.revalidate_s": (self.total["search.revalidate"], "s"),
            "divisor_functions.delta_calls": (c["divisor_functions.delta"], "count"),
            "divisor_functions.delta_self_s": (s("divisor_functions.delta"), "s"),
            "divisor_functions.divisors_s": (self.total["divisor_functions.divisors"], "s"),
            "primes.factor_calls": (c["primes.factor"], "count"),
            "primes.factor_s": (self.total["primes.factor"], "s"),
            "primes.factor_rational_s": (self.total["primes.factor_rational"], "s"),
            "primes.is_prime_calls": (c["primes.is_prime"], "count"),
            "primes.norm_solves": (c["primes.norm_solve"], "count"),
            "primes.norm_solve_s": (self.total["primes.norm_solve"], "s"),
            "primes.valuation_calls": (c["primes.valuation"], "count"),
            "primes.valuation_s": (self.total["primes.valuation"], "s"),
            "rings.mul_calls": (c["rings.mul"], "count"),
            "rings.exact_divide_calls": (c["rings.exact_divide"], "count"),
            "theorems.decompose_calls": (c["theorems.decompose"], "count"),
            "theorems.decompose_s": (self.total["theorems.decompose"], "s"),
            "theorems.conjecture_self_s": (s("theorems.conjecture"), "s"),
        }
