"""qp: command line front end.

Subcommands: factor, delta, index, divisors, classify, search, verify,
conjecture.  Elements are written in the grammar <int>[(+|-)<uint>*w]
(with i accepted for w when d=-1); --json switches every subcommand to a
stable, key-sorted JSON rendering with large integers as decimal strings.
Exit codes: 0 on success (an empty search is a success), 2 on usage
errors and on inputs beyond a safety cap (TooLarge), 1 on computation
errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .divisor_functions import abundancy_index, delta, divisors
from .errors import PreconditionFailed, TooLarge
from .primes import classify_rational_prime, factor, is_prime
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

BOUND_GUARD = 10**8

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
_t_arg = _int_arg("--t", lambda t: t >= 2, ">= 2, got {}")


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

    def common(p, elem=False, n=False, t=False, bound=False):
        p.add_argument("--d", type=_d_arg, required=True, help="ring discriminant")
        if elem:
            p.add_argument("--elem", required=True, help="element, e.g. 3+9*w")
        if n:
            p.add_argument("--n", type=_n_arg, default=2, help="even exponent")
        if t:
            p.add_argument("--t", type=_t_arg, default=2, help="target index")
        if bound:
            p.add_argument("--bound", type=int, required=True, help="norm bound")
            p.add_argument(
                "--force",
                action="store_true",
                help=f"allow bounds above {BOUND_GUARD}",
            )
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--out", help="write output to this file instead of stdout")

    common(sub.add_parser("factor", help="unique factorization"), elem=True)
    common(sub.add_parser("delta", help="norm-power divisor sum"), elem=True, n=True)
    common(sub.add_parser("index", help="abundancy index"), elem=True, n=True)
    common(sub.add_parser("divisors", help="divisor classes"), elem=True)
    common(sub.add_parser("classify", help="ramified/split/inert"), elem=True)
    common(
        sub.add_parser("search", help="perfect-element search"),
        n=True,
        t=True,
        bound=True,
    )
    sub.choices["search"].add_argument(
        "--odd-norm",
        action="store_true",
        help="restrict to odd norms (forces n=2, t=2) and verify hits",
    )
    ver = sub.add_parser("verify", help="structural checks")
    common(ver, elem=True)
    ver.add_argument("--theorem", required=True, choices=THEOREM_IDS, help="check id")
    common(sub.add_parser("conjecture", help="k=1 scan"), bound=True)
    return parser


def _rational_str(x) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    # Imported here so that only --json output pays for loading json.
    import json

    _emit(args, json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1))


def _parse_elem(args) -> QuadInt:
    return parse_element(Ring(args.d), args.elem)


def _report_text(rep) -> list[str]:
    lines = []
    for c in rep.checks:
        mark = "pass" if c.passed else "FAIL"
        lines.append(f"  [{mark}] {c.name:20s} expected {c.expected}, actual {c.actual}")
    lines.append(f"overall: {'PASS' if rep.overall else 'FAIL'}")
    return lines


def _cmd_factor(args) -> int:
    fac = factor(_parse_elem(args))
    if args.json:
        _emit_json(args, fac.to_json())
        return 0
    lines = [f"unit: {fac.unit}"]
    for pi, e in fac.factors:
        lines.append(f"  {str(pi):12s} exp {e}  norm {pi.norm()}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_delta(args) -> int:
    z = _parse_elem(args)
    val = delta(args.n, z)
    if args.json:
        obj = {f"delta{args.n}": _rational_str(val)}
        if args.n > 0:
            # index(n, z) = delta(n, z) / N(z)^(n/2), from the delta above.
            idx = Fraction(val, z.norm() ** (args.n // 2))
            obj[f"index{args.n}"] = {
                "num": str(idx.numerator),
                "den": str(idx.denominator),
            }
        _emit_json(args, obj)
        return 0
    _emit(args, _rational_str(val))
    return 0


def _cmd_index(args) -> int:
    z = _parse_elem(args)
    idx = abundancy_index(args.n, z)
    if args.json:
        obj = {
            f"delta{args.n}": _rational_str(idx * z.norm() ** (args.n // 2)),
            f"index{args.n}": {
                "num": str(idx.numerator),
                "den": str(idx.denominator),
            },
        }
        _emit_json(args, obj)
        return 0
    _emit(args, _rational_str(idx))
    return 0


def _cmd_divisors(args) -> int:
    divs = divisors(_parse_elem(args))
    if args.json:
        _emit_json(
            args,
            {
                "count": len(divs),
                "divisors": [x.to_json() for x in divs],
                "norms": [str(x.norm()) for x in divs],
            },
        )
        return 0
    lines = [f"{len(divs)} divisor classes:"]
    for x in divs:
        lines.append(f"  {str(x):12s} norm {x.norm()}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_classify(args) -> int:
    z = _parse_elem(args)
    if z.b != 0 or z.a < 2:
        raise ValueError(f"classify expects a rational prime, got {z}")
    p = z.a
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cls = classify_rational_prime(p, Ring(args.d))
    if args.json:
        _emit_json(args, {"p": p, "d": args.d, "class": cls.value})
    else:
        _emit(args, cls.value)
    return 0


def _check_bound(args) -> None:
    if args.bound > BOUND_GUARD and not args.force:
        raise ValueError(
            f"bound {args.bound} exceeds {BOUND_GUARD}; pass --force to proceed"
        )


def _cmd_search(args) -> int:
    _check_bound(args)
    rg = Ring(args.d)
    if args.odd_norm:
        rep = search_odd_norm(rg, args.bound)
    else:
        rep = search_perfect(rg, args.n, args.t, args.bound)
    if args.json:
        _emit_json(args, rep.to_json())
        return 0
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
    _emit(args, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    z = _parse_elem(args)
    rg = z.ring
    tid = args.theorem
    if tid in EVEN_CHECK_RINGS and rg.d not in EVEN_CHECK_RINGS[tid]:
        raise PreconditionFailed(f"check {tid} applies to d in {EVEN_CHECK_RINGS[tid]}")
    body: dict = {}
    lines: list[str] = []
    if tid in ("2.1", "2.2", "2.3", "2.4"):
        dec = decompose_even(z)
        if tid in ("2.1", "2.3"):
            rep = check_mersenne_inert(dec.gamma, rg)
        else:
            rep = check_structure_bounds(dec)
        body["decomposition"] = dec.to_json()
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
        rep = VerifierReport(
            "lift",
            z,
            [Check("lifted_index", "3", _rational_str(abundancy_index(2, w)), True)],
        )
        body["lifted"] = w.to_json()
        lines.append(f"lifted: {w}")
    if args.json:
        body.update(rep.to_json())
        _emit_json(args, body)
        return 0
    lines.insert(0, f"check {rep.theorem} on {z} (d={rg.d})")
    lines.extend(_report_text(rep))
    _emit(args, "\n".join(lines))
    return 0


def _cmd_conjecture(args) -> int:
    _check_bound(args)
    rep = conjecture_scan(Ring(args.d), args.bound)
    if args.json:
        obj = rep.to_json()
        obj["norm_bound"] = args.bound
        _emit_json(args, obj)
        return 0
    lines = [f"conjecture scan d={args.d} bound={args.bound}"]
    lines.extend(_report_text(rep))
    _emit(args, "\n".join(lines))
    return 0


_COMMANDS = {
    "factor": _cmd_factor,
    "delta": _cmd_delta,
    "index": _cmd_index,
    "divisors": _cmd_divisors,
    "classify": _cmd_classify,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
}


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
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"qp: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, TooLarge) else 1


if __name__ == "__main__":
    sys.exit(main())
