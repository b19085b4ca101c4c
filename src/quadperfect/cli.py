"""qp: command line front end.

Subcommands: factor, delta, index, divisors, classify, search, verify,
conjecture.  Elements are written in the grammar <int>[(+|-)<uint>*w]
(with i accepted for w when d=-1); --json switches every subcommand to a
stable, key-sorted JSON rendering.  In it the delta and index values and
the expected/actual texts of checks are decimal strings; every other
number (coordinates, factor and divisor norms, exponents, counts,
decomposition invariants) is an exact JSON integer, which a reader that
parses numbers as 53-bit floats must read as a big integer.
Exit codes: 0 on success (an empty search is a success), 2 on usage
errors and on inputs beyond a safety cap (TooLarge), 1 on computation
errors, when --out cannot be written and when a search bound exceeds
BOUND_GUARD without --force.

Each subcommand returns (obj, lines): the object --json writes and the
lines of the text rendering; main renders one of them.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .divisor_functions import abundancy_index, delta, divisors
from .errors import PreconditionFailed, TooLarge
from .primes import classify_rational_prime, factor
from .rings import ADMISSIBLE_D, QuadInt, Ring, parse_element
from .search import search_odd_norm, search_perfect
from .theorems import (
    EVEN_CHECK_RINGS,
    Check,
    VerifierReport,
    check_mersenne_inert,
    check_odd_structure,
    check_prime_count,
    check_structure_bounds,
    conjecture_scan,
    decompose_even,
    lift_to_3perfect,
)

BOUND_GUARD = 10**10

THEOREM_IDS = ("2.1", "2.2", "2.3", "2.4", "2.5", "count", "lift")


def _int_arg(flag: str, ok, rule: str):
    """argparse type for an integer option that refuses any v failing
    ok(v) with "<flag> must be <rule>", where {} in rule stands for v."""

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} must be an integer, got {text!r}")
        if not ok(v):
            raise argparse.ArgumentTypeError(f"{flag} must be {rule.format(v)}")
        return v

    return parse


_d_arg = _int_arg("--d", ADMISSIBLE_D.__contains__, f"one of {ADMISSIBLE_D}")
_n_arg = _int_arg("--n", lambda n: n and n % 2 == 0, "a nonzero even integer, got {}")
_positive_n_arg = _int_arg(
    "--n", lambda n: n > 0 and n % 2 == 0, "a positive even integer, got {}"
)
_t_arg = _int_arg("--t", lambda t: t >= 2, ">= 2, got {}")
_bound_arg = _int_arg("--bound", lambda b: b >= 1, ">= 1, got {}")


def _parse_elem(args) -> QuadInt:
    return parse_element(Ring(args.d), args.elem)


def _report_text(rep) -> list[str]:
    lines = []
    for c in rep.checks:
        mark = "pass" if c.passed else "FAIL"
        lines.append(f"  [{mark}] {c.name:20s} expected {c.expected}, actual {c.actual}")
    lines.append(f"overall: {'PASS' if rep.overall else 'FAIL'}")
    return lines


def _cmd_factor(args):
    fac = factor(_parse_elem(args))
    lines = [f"unit: {fac.unit}"]
    for pi, e in fac.factors:
        lines.append(f"  {str(pi):12s} exp {e}  norm {pi.norm()}")
    return fac.to_json(), lines


def _cmd_delta_index(args):
    z = _parse_elem(args)
    n = args.n
    # For n > 0 both commands print delta, an integer of at least
    # N(z)^(n/2); for n < 0 delta is delta(-n, z) / N(z)^(-n/2) before
    # reduction.  Refuse before computing when a lower bound on that power's
    # digit count, from N(z) >= 2^(bitlen - 1) and log10(2) > 0.3, is past
    # the limit of int to str conversion; 0, or no such function, is none.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = abs(n) // 2 * (z.norm().bit_length() - 1) * 3 // 10 + 1
    if limit and digits > limit:
        raise TooLarge(
            f"N(z)^{abs(n) // 2} has at least {digits} digits, "
            f"more than the {limit} that Python will print"
        )
    val = delta(n, z)
    obj = {f"delta{n}": str(val)}
    if n > 0:
        # index(n, z) = delta(n, z) / N(z)^(n/2), from the delta above.
        idx = Fraction(val, z.norm() ** (n // 2))
        obj[f"index{n}"] = {"num": str(idx.numerator), "den": str(idx.denominator)}
    return obj, [str(val if args.command == "delta" else idx)]


def _cmd_divisors(args):
    divs = divisors(_parse_elem(args))
    obj = {
        "count": len(divs),
        "divisors": [x.to_json() for x in divs],
        "norms": [x.norm() for x in divs],
    }
    lines = [f"{len(divs)} divisor classes:"]
    for x in divs:
        lines.append(f"  {str(x):12s} norm {x.norm()}")
    return obj, lines


def _cmd_classify(args):
    z = _parse_elem(args)
    if z.b != 0:
        raise ValueError(f"classify expects a rational prime, got {z}")
    cls = classify_rational_prime(z.a, Ring(args.d))
    return {"p": z.a, "d": args.d, "class": cls.value}, [cls.value]


def _check_bound(args) -> None:
    if args.bound > BOUND_GUARD and not args.force:
        raise ValueError(
            f"bound {args.bound} exceeds {BOUND_GUARD}; pass --force to proceed"
        )


def _cmd_search(args):
    _check_bound(args)
    rg = Ring(args.d)
    if args.odd_norm:
        rep = search_odd_norm(rg, args.bound)
    else:
        rep = search_perfect(rg, args.n, args.t, args.bound)
    lines = [
        f"ring d={rg.d}  n={rep.n}  t={rep.t}  bound={rep.norm_bound}"
        + ("  odd-norm" if rep.odd_norm else ""),
        f"scanned {rep.elements_scanned} elements in {rep.wall_time_ms} ms "
        f"(backend: {rep.backend})",
        f"hits ({len(rep.hits)}):",
    ]
    for z in rep.hits:
        lines.append(f"  {str(z):12s} norm {z.norm()}")
    for z, reps in zip(rep.hits, rep.hit_checks):
        for r in reps:
            lines.append(f"checks [{r.theorem}] on {z}:")
            lines.extend(_report_text(r))
    return rep.to_json(), lines


def _cmd_verify(args):
    z = _parse_elem(args)
    rg = z.ring
    tid = args.theorem
    if tid in EVEN_CHECK_RINGS and rg.d not in EVEN_CHECK_RINGS[tid]:
        raise PreconditionFailed(f"check {tid} applies to d in {EVEN_CHECK_RINGS[tid]}")
    obj: dict = {}
    lines: list[str] = []
    if tid in ("2.1", "2.2", "2.3", "2.4"):
        dec = decompose_even(z)
        if tid in ("2.1", "2.3"):
            rep = check_mersenne_inert(dec.gamma, rg)
        else:
            rep = check_structure_bounds(dec)
        obj["decomposition"] = dec.to_json()
        lines.append(
            f"decomposition: xi={dec.xi} gamma={dec.gamma} x={dec.x} "
            f"q={dec.q} m={dec.m} k={dec.k} v={dec.v}"
        )
    elif tid == "2.5":
        rep = check_odd_structure(z)
    elif tid == "count":
        rep = check_prime_count(z)
    else:
        w = lift_to_3perfect(z)
        idx = abundancy_index(2, w)
        rep = VerifierReport(
            "lift", z, [Check("lifted_index", "3", str(idx), idx == 3)]
        )
        obj["lifted"] = w.to_json()
        lines.append(f"lifted: {w}")
    obj.update(rep.to_json())
    return obj, [f"check {rep.theorem} on {z} (d={rg.d})"] + lines + _report_text(rep)


def _cmd_conjecture(args):
    _check_bound(args)
    rep = conjecture_scan(Ring(args.d), args.bound)
    obj = rep.to_json()
    obj["norm_bound"] = args.bound
    return obj, [f"conjecture scan d={args.d} bound={args.bound}"] + _report_text(rep)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qp",
        description="Exact divisor sums and perfect-element searches in the "
        "nine imaginary quadratic rings with unique factorization.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"qp {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, help, run, elem=False, n=None, t=False, bound=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--d", type=_d_arg, required=True, help="ring discriminant")
        if elem:
            p.add_argument("--elem", required=True, help="element, e.g. 3+9*w")
        if n:
            p.add_argument("--n", type=n, default=2, help="even exponent")
        if t:
            p.add_argument("--t", type=_t_arg, default=2, help="target index")
        if bound:
            p.add_argument("--bound", type=_bound_arg, required=True, help="norm bound")
            p.add_argument(
                "--force",
                action="store_true",
                help=f"allow bounds above {BOUND_GUARD}",
            )
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    common("factor", "unique factorization", _cmd_factor, elem=True)
    common("delta", "norm-power divisor sum", _cmd_delta_index, elem=True, n=_n_arg)
    common("index", "abundancy index", _cmd_delta_index, elem=True, n=_positive_n_arg)
    common("divisors", "divisor classes", _cmd_divisors, elem=True)
    common("classify", "ramified/split/inert", _cmd_classify, elem=True)
    search = common(
        "search",
        "perfect-element search",
        _cmd_search,
        n=_positive_n_arg,
        t=True,
        bound=True,
    )
    search.add_argument(
        "--odd-norm",
        action="store_true",
        help="restrict to odd norms (n=2, t=2 only) and verify hits",
    )
    ver = common("verify", "structural checks", _cmd_verify, elem=True)
    ver.add_argument("--theorem", required=True, choices=THEOREM_IDS, help="check id")
    common("conjecture", "k=1 scan", _cmd_conjecture, bound=True)
    return parser


def _attach_elem(argv: list[str]) -> list[str]:
    """Fold "--elem VALUE" into "--elem=VALUE", so that an element with a
    leading minus sign, such as -2+1*w, is not read as an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--elem" and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            tok = f"--elem={argv[i + 1]}"
            i += 1
        out.append(tok)
        i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_elem(sys.argv[1:] if argv is None else argv))
    if getattr(args, "odd_norm", False) and (args.n, args.t) != (2, 2):
        parser.error(
            f"--odd-norm searches n=2, t=2 only, got --n {args.n} --t {args.t}"
        )
    try:
        obj, lines = args.run(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"qp: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, TooLarge) else 1
    if args.json:
        # Imported here so that only --json output pays for loading json.
        import json

        text = json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
    else:
        text = "\n".join(lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"qp: error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
