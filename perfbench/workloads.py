"""The three workloads, their inputs and their output checks.

Each workload runs in rounds: one round is a fixed list of operations whose
inputs come from the seed and the round index.  Program caches
(functools caches in quadperfect) are cleared at the start of every round,
so each round does the same work as a fresh session.  Checks run outside
the timed calls and compare against reference.py, which imports nothing
from quadperfect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import reference as ref

ALL_D = (-1, -2, -3, -7, -11, -19, -43, -67, -163)


def elem_text(a: int, b: int) -> str:
    if b == 0:
        return str(a)
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*w"


_ELEM = re.compile(r"^(-?\d+)(?:([+-])(\d+)\*w)?$")


def parse_elem(d: int, text: str) -> tuple[int, int]:
    """Printed library element to reference coordinates."""
    m = _ELEM.match(text)
    if m is None:
        raise ValueError(f"unparsable element {text!r}")
    a = int(m.group(1))
    b = 0 if m.group(2) is None else int(m.group(3)) * (1 if m.group(2) == "+" else -1)
    return ref.to_uv(d, a, b)


def key_of(d: int, z) -> tuple[int, int]:
    """Reference class key of a library QuadInt."""
    return ref.class_key(d, ref.to_uv(d, z.a, z.b))


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "quadperfect":
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def warm_up(qp, cli) -> None:
    """One small call into every layer, so that lazy imports and first-use
    set-up are done before timing; inside the trace window it also makes
    every layer show in every workload."""
    rg = qp.Ring(-1)
    qp.search_perfect(rg, 2, 2, 200)
    qp.conjecture_scan(qp.Ring(-7), 100)
    qp.delta(2, rg.element(9, 3))
    qp.divisors(rg.element(9, 3))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["factor", "--d", "-1", "--elem", "9+3*i"])


class Workload:
    """Counts operations, times the answered ones and collects check
    failures.  run_round returns a dict with at least round_s, the seconds
    spent in the round's operations, failed ones included."""

    def __init__(self, qp, seed: int) -> None:
        self.qp = qp
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.samples: list[float] = []
        self.errors: list[str] = []
        self.failures: dict[str, int] = {}

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.errors) < 50:
            self.errors.append(what)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        key = f"{what}: {type(exc).__name__}: {exc}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def final_checks(self) -> None:
        """Checks made once per run, after the timed rounds."""

    def metrics(self, rounds: list[dict]) -> dict:
        """The end-to-end metrics every workload reports: the median time
        of one round and the median time of one answered operation."""
        return {
            "round_s": (statistics.median(r["round_s"] for r in rounds), "s"),
            "op_ms_p50": (statistics.median(self.samples) * 1000, "ms"),
        }

    def details(self) -> dict:
        return {"failures": self.failures}


# ---------------------------------------------------------------------------
# norm-scan

# Bounds put each call at about a second on the pure path.  The t = 2
# bounds are at least the conjecture bounds in the same ring, so every
# conjecture check can be matched against a checked hit list.
T2_SCANS = ((-1, 10000), (-2, 8000), (-7, 8000), (-11, 10000))
T3_SCANS = ((-1, 8000),)
ODD_SCANS = ((-1, 20000), (-7, 16000))
CONJECTURES = ((-1, 6000), (-2, 5000), (-7, 5000))


class NormScan(Workload):
    name = "norm-scan"

    def __init__(self, qp, seed: int) -> None:
        super().__init__(qp, seed)
        rng = random.Random(f"norm-scan:{seed}")
        calls = [("search", d, 2, b) for d, b in T2_SCANS]
        calls += [("search", d, 3, b) for d, b in T3_SCANS]
        calls += [("odd", d, 2, b) for d, b in ODD_SCANS]
        calls += [("conjecture", d, 2, b) for d, b in CONJECTURES]
        rng.shuffle(calls)
        self.calls = calls
        self.reduced_bound = 1500 + rng.randrange(1000)
        self.backends: dict[str, int] = {}
        self._count: dict = {}
        self._sigma: dict = {}

    def count(self, d: int, bound: int, odd: bool) -> int:
        k = (d, bound, odd)
        if k not in self._count:
            self._count[k] = ref.count_canonical(d, bound, odd)
        return self._count[k]

    def sigma(self, d: int, z) -> int:
        k = (d, z.a, z.b)
        if k not in self._sigma:
            self._sigma[k] = ref.sigma2(d, ref.to_uv(d, z.a, z.b))
        return self._sigma[k]

    def run_round(self, index: int) -> dict:
        qp = self.qp
        clear_caches()
        search_s = conjecture_s = 0.0
        elements = 0
        reports = {}
        for kind, d, t, bound in self.calls:
            rg = qp.Ring(d)
            self.attempted += 1
            start = time.perf_counter()
            try:
                if kind == "search":
                    rep = qp.search_perfect(rg, 2, t, bound)
                elif kind == "odd":
                    rep = qp.search_odd_norm(rg, bound)
                else:
                    rep = qp.conjecture_scan(rg, bound)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                self.fail(f"{kind} d={d} t={t} bound={bound}", exc)
                continue
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            reports[kind, d, t] = rep
            if kind == "conjecture":
                conjecture_s += elapsed
            else:
                search_s += elapsed
                elements += rep.elements_scanned
                self.backends[rep.backend] = self.backends.get(rep.backend, 0) + 1
        for (kind, d, t), rep in reports.items():
            if kind == "conjecture":
                self.check_conjecture(d, rep, reports.get(("search", d, 2)))
            else:
                self.check_search(d, t, rep.norm_bound, kind == "odd", rep)
        return {
            "round_s": search_s + conjecture_s,
            "search_s": search_s,
            "conjecture_s": conjecture_s,
            "elements": elements,
        }

    def check_search(self, d: int, t: int, bound: int, odd: bool, rep) -> None:
        what = f"{'odd ' if odd else ''}search d={d} t={t} bound={bound}"
        expect = self.count(d, bound, odd)
        self.check(
            rep.elements_scanned == expect,
            f"{what}: scanned {rep.elements_scanned}, lattice count {expect}",
        )
        keys = {key_of(d, z) for z in rep.hits}
        self.check(len(keys) == len(rep.hits), f"{what}: associated hits reported")
        for z in rep.hits:
            nz = z.norm()
            self.check(nz <= bound and (nz % 2 == 1 or not odd), f"{what}: hit {z} out of range")
            self.check(self.sigma(d, z) == t * nz, f"{what}: hit {z} is not {t}-perfect")
        if odd:
            self.check(len(rep.hit_checks) == len(rep.hits), f"{what}: hit checks missing")

    def check_conjecture(self, d: int, rep, search) -> None:
        what = f"conjecture d={d}"
        if search is None:
            self.check(False, f"{what}: no search report to compare with")
            return
        bound = dict(CONJECTURES)[d]
        even = [z for z in search.hits if z.norm() % 2 == 0 and z.norm() <= bound]
        names = {c.name: c for c in rep.checks}
        if not even:
            self.check(list(names) == ["vacuous"] and rep.overall, f"{what}: expected a vacuous pass")
            return
        self.check(len(names) == len(even), f"{what}: {len(names)} checks for {len(even)} even hits")
        for z in even:
            c = names.get(f"k[{z}]")
            if c is None:
                self.check(False, f"{what}: no check for hit {z}")
                continue
            k = ref.decompose_even(d, ref.to_uv(d, z.a, z.b))["k"]
            self.check(c.actual == str(k) and c.passed == (k == 1), f"{what}: k of {z}")

    def final_checks(self) -> None:
        """At a reduced bound, every hit list equals an independent
        brute-force search."""
        qp = self.qp
        bound = self.reduced_bound
        scans = [(d, 2, False) for d, _ in T2_SCANS] + [(d, 3, False) for d, _ in T3_SCANS]
        scans += [(d, 2, True) for d, _ in ODD_SCANS]
        tables: dict = {}
        for d, t, odd in scans:
            rg = qp.Ring(d)
            rep = qp.search_odd_norm(rg, bound) if odd else qp.search_perfect(rg, 2, t, bound)
            if d not in tables:
                tables[d] = ref.sigma_table(d, bound)
            expect = ref.hits_in(d, tables[d], t, bound, odd)
            got = {key_of(d, z) for z in rep.hits}
            self.check(got == expect, f"reduced search d={d} t={t} odd={odd}: hit list differs")
            self.check_search(d, t, bound, odd, rep)

    def metrics(self, rounds: list[dict]) -> dict:
        elements = rounds[0]["elements"]
        self.check(
            all(r["elements"] == elements for r in rounds), "elements scanned differ between rounds"
        )
        return super().metrics(rounds)

    def details(self) -> dict:
        return {
            "backends": self.backends,
            "reduced_bound": self.reduced_bound,
            "calls": self.calls,
            "failures": self.failures,
        }


# ---------------------------------------------------------------------------
# large-factor

LF_RINGS = (-1, -2, -7, -11)
RAMIFIED = {-1: 2, -2: 2, -7: 7, -11: 11}


def probe_element() -> tuple[int, tuple[int, int], list]:
    """The product of the five smallest split primes of Z[i] above 10^6:
    norm about 10^30, beyond the trial-division bound and the deterministic
    Miller-Rabin range of the library."""
    d, z, parts = -1, (2, 0), []
    p = 10**6
    while len(parts) < 5:
        p += 1
        if ref.is_prime(p) and p % 4 == 1:
            pi = ref.cornacchia(d, p)
            parts.append((pi, 1))
            z = ref.mul(d, z, pi)
    return d, z, parts


class LargeFactor(Workload):
    name = "large-factor"

    def __init__(self, qp, seed: int) -> None:
        super().__init__(qp, seed)
        small = [p for p in range(2, 10**4) if ref.is_prime(p)]
        self.split = {d: [p for p in small if ref.classify(d, p) == "split"] for d in LF_RINGS}
        self.inert = {d: [p for p in small if p < 100 and ref.classify(d, p) == "inert"] for d in LF_RINGS}
        self.used: set[tuple[int, int]] = set()
        self.rounds: dict[int, list] = {}
        self.probe = probe_element()

    def draw_large(self, rng, d: int, lo: int, hi: int) -> tuple[int, int]:
        """A split prime of norm in [lo, hi) not used before in this run."""
        while True:
            p = rng.randrange(lo, hi) | 1
            while p < hi and not (ref.is_prime(p) and ref.classify(d, p) == "split"):
                p += 2
            if p < hi and (d, p) not in self.used:
                self.used.add((d, p))
                pi = ref.cornacchia(d, p)
                return pi if rng.random() < 0.5 else ref.conjugate(pi)

    def draw_small(self, rng, d: int, limit: int, taken: set) -> tuple[int, int]:
        while True:
            p = rng.choice([q for q in self.split[d] if q < limit])
            pi = ref.prime_element(d, p)
            if rng.random() < 0.5:
                pi = ref.conjugate(pi)
            k = ref.class_key(d, pi)
            if k not in taken:
                taken.add(k)
                return pi

    def build(self, rng, d: int, shape: str) -> tuple[int, tuple[int, int], list]:
        taken: set = set()
        parts = []
        if shape == "wide":
            parts.append((self.draw_large(rng, d, 9 * 10**10, 10**11), 1))
            parts.append((self.draw_small(rng, d, 1000, taken), rng.randint(1, 2)))
            parts.append(((2 * rng.choice(self.inert[d]), 0), 1))
            parts.append((ref.prime_element(d, RAMIFIED[d]), rng.randint(1, 2)))
        elif shape == "rho":
            parts.append((self.draw_large(rng, d, 10**7, 11 * 10**6), 1))
            parts.append((self.draw_large(rng, d, 10**8, 11 * 10**7), 1))
            parts.append((self.draw_small(rng, d, 1000, taken), 1))
        else:
            for _ in range(3):
                parts.append((self.draw_small(rng, d, 10**4, taken), rng.randint(1, 2)))
            parts.append(((2 * rng.choice(self.inert[d]), 0), 1))
            parts.append((ref.prime_element(d, RAMIFIED[d]), 2))
        z = rng.choice(ref.units(d))
        for pi, e in parts:
            z = ref.mul(d, z, ref.power(d, pi, e))
        return d, z, parts

    def round_inputs(self, index: int) -> list:
        if index not in self.rounds:
            rng = random.Random(f"large-factor:{self.seed}:{index}")
            elems = [self.build(rng, d, s) for d in LF_RINGS for s in ("wide", "rho", "smooth")]
            rng.shuffle(elems)
            self.rounds[index] = elems
        return self.rounds[index]

    def run_round(self, index: int) -> dict:
        clear_caches()
        samples: list[float] = []
        total = 0.0
        for d, z, parts in self.round_inputs(index):
            total += self.query_element(d, z, parts, samples)
        d, z, parts = self.probe
        total += self.query_element(d, z, parts, samples, only_factor=True)
        self.samples.extend(samples)
        return {"queries": len(samples), "round_s": total}

    def query_element(self, d, z_uv, parts, samples, only_factor=False):
        """Time each query on one element and check the answers; returns
        the seconds spent in the queries."""
        qp = self.qp
        a, b = ref.from_uv(d, z_uv)
        z = qp.Ring(d).element(a, b)
        expect = sorted((ref.norm(d, pi), ref.class_key(d, pi), e) for pi, e in parts)
        nz = ref.norm(d, z_uv)
        delta2 = 1
        ndiv = 1
        for n, _, e in expect:
            delta2 *= (n ** (e + 1) - 1) // (n - 1)
            ndiv *= e + 1
        queries = [
            ("factor", lambda: qp.factor(z)),
            ("delta2", lambda: qp.delta(2, z)),
            ("delta-2", lambda: qp.delta(-2, z)),
            ("index", lambda: qp.abundancy_index(2, z)),
            ("divisors", lambda: qp.divisors(z)),
        ]
        if only_factor:
            queries = queries[:1]
        spent = 0.0
        results = {}
        for name, call in queries:
            self.attempted += 1
            start = time.perf_counter()
            try:
                results[name] = call()
            except Exception as exc:  # noqa: BLE001 - counted and reported
                spent += time.perf_counter() - start
                self.fail(f"{name} on d={d} norm {nz}", exc)
                continue
            elapsed = time.perf_counter() - start
            spent += elapsed
            samples.append(elapsed)
        what = f"d={d} z={elem_text(a, b)}"
        if "factor" in results:
            fac = results["factor"]
            got = sorted((pi.norm(), key_of(d, pi), e) for pi, e in fac.factors)
            self.check(got == expect, f"factor {what}: factors differ from the construction")
            self.check(fac.value() == z, f"factor {what}: value() != z")
        if "delta2" in results:
            self.check(results["delta2"] == delta2, f"delta(2) {what}")
        if "delta-2" in results:
            self.check(results["delta-2"] == Fraction(delta2, nz), f"delta(-2) {what}")
        if "index" in results:
            self.check(results["index"] == Fraction(delta2, nz), f"index {what}")
            if "delta-2" in results:
                self.check(results["index"] == results["delta-2"], f"index != delta(-2) {what}")
        if "divisors" in results:
            divs = results["divisors"]
            self.check(len(divs) == ndiv, f"divisors {what}: {len(divs)} classes, expected {ndiv}")
            self.check(sum(x.norm() for x in divs) == delta2, f"divisors {what}: norm sum")
            keys = {key_of(d, x) for x in divs}
            self.check(len(keys) == len(divs), f"divisors {what}: associated divisors")
            self.check(
                all(ref.divide(d, z_uv, ref.to_uv(d, x.a, x.b)) is not None for x in divs),
                f"divisors {what}: a listed divisor does not divide",
            )
        return spent

    def details(self) -> dict:
        return {"samples": len(self.samples), "failures": self.failures}


# ---------------------------------------------------------------------------
# cli-oneshot

SEARCH_BOUNDS = (400, 600, 800)
CONJECTURE_BOUNDS = (300, 500)
POOL_BOUND = 3000


class CliOneshot(Workload):
    name = "cli-oneshot"

    def __init__(self, qp, seed: int, root: str, env: dict) -> None:
        super().__init__(qp, seed)
        self.root = root
        self.env = env
        self.tables = {d: ref.sigma_table(d, POOL_BOUND) for d in (-1, -2, -7, -11)}
        self.pool = {
            d: sorted(z for z in self.tables[d] if ref.norm(d, z) % 2 == 0
                      and self.tables[d][z] == 2 * ref.norm(d, z))
            for d in (-1, -2, -7)
        }
        self.cycles: dict[int, list] = {}
        self.peak_kib = 0

    def random_elem(self, rng) -> tuple[int, int, int]:
        d = rng.choice(ALL_D)
        while True:
            a, b = rng.randint(-300, 300), rng.randint(-100, 100)
            if (a or b) and ref.norm(d, ref.to_uv(d, a, b)) > 1:
                return d, a, b

    def perfect_elem(self, rng, d: int) -> tuple[int, int]:
        z = ref.mul(d, rng.choice(ref.units(d)), rng.choice(self.pool[d]))
        return ref.from_uv(d, z)

    def cycle(self, index: int) -> list[tuple[list[str], tuple]]:
        """The commands of one cycle, each with what its check needs."""
        if index in self.cycles:
            return self.cycles[index]
        rng = random.Random(f"cli-oneshot:{self.seed}:{index}")
        cmds = []
        for sub in ("factor", "delta", "index", "divisors"):
            d, a, b = self.random_elem(rng)
            cmds.append(([sub, "--d", str(d), f"--elem={elem_text(a, b)}"], (sub, d, a, b)))
        d = rng.choice(ALL_D)
        p = rng.choice([q for q in range(2, 10**4) if ref.is_prime(q)])
        cmds.append((["classify", "--d", str(d), f"--elem={p}"], ("classify", d, p, 0)))
        for tid in ("2.1", "2.2", "2.3", "2.4"):
            d = rng.choice((-1, -2)) if tid in ("2.1", "2.2") else -7
            a, b = self.perfect_elem(rng, d)
            argv = ["verify", "--theorem", tid, "--d", str(d), f"--elem={elem_text(a, b)}"]
            cmds.append((argv, (tid, d, a, b)))
        d, a, b = self.random_elem(rng)
        argv = ["verify", "--theorem", "count", "--d", str(d), f"--elem={elem_text(a, b)}"]
        cmds.append((argv, ("count", d, a, b)))
        d, bound = rng.choice((-1, -2, -7, -11)), rng.choice(SEARCH_BOUNDS)
        cmds.append((["search", "--d", str(d), "--bound", str(bound), "--json"], ("search", d, bound, 0)))
        d, bound = rng.choice((-1, -2, -7)), rng.choice(CONJECTURE_BOUNDS)
        cmds.append((["conjecture", "--d", str(d), "--bound", str(bound)], ("conjecture", d, bound, 0)))
        self.cycles[index] = cmds
        return cmds

    def spawn(self, argv: list[str]) -> tuple[float, int, str, str, int]:
        """Run the CLI in a fresh interpreter: (seconds, exit code, stdout,
        stderr, peak RSS in KiB)."""
        return run_child(["-m", "quadperfect.cli", *argv], self.root, self.env)

    def run_round(self, index: int) -> dict:
        spent = 0.0
        for argv, spec in self.cycle(index):
            self.attempted += 1
            elapsed, code, out, err, rss = self.spawn(argv)
            spent += elapsed
            self.peak_kib = max(self.peak_kib, rss)
            if code != 0:
                self.fail(" ".join(argv), RuntimeError(f"exit {code}: {err.strip()[-200:]}"))
                continue
            self.samples.append(elapsed)
            self.check_output(spec, out, " ".join(argv))
        return {"round_s": spent}

    def run_inprocess(self, index: int, cli) -> float:
        """The same commands through cli.main in this process; returns the
        seconds spent in cli.main."""
        spent = 0.0
        for argv, spec in self.cycle(index):
            self.attempted += 1
            buf, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            spent += time.perf_counter() - start
            if code != 0:
                self.fail(" ".join(argv), RuntimeError(f"exit {code}: {err.getvalue().strip()}"))
                continue
            self.check_output(spec, buf.getvalue(), " ".join(argv))
        return spent

    def check_output(self, spec: tuple, out: str, what: str) -> None:
        try:
            ok = self._output_agrees(spec, out)
        except (ValueError, KeyError, IndexError, AttributeError) as exc:
            ok = False
            what += f" ({type(exc).__name__}: {exc})"
        self.check(ok, f"cli {what}: output disagrees with the reference")

    def _output_agrees(self, spec: tuple, out: str) -> bool:
        kind, d, x, y = spec
        lines = out.splitlines()
        if kind in ("factor", "delta", "index", "divisors", "count"):
            z = ref.to_uv(d, x, y)
        if kind == "factor":
            unit = parse_elem(d, lines[0].split("unit: ")[1])
            got, prod = [], unit
            for line in lines[1:]:
                elem, _, e, _, n = line.split()
                pi = parse_elem(d, elem)
                got.append((int(n), ref.class_key(d, pi), int(e)))
                prod = ref.mul(d, prod, ref.power(d, pi, int(e)))
                if ref.norm(d, pi) != int(n):
                    return False
            return sorted(got) == ref.factorization(d, z) and prod == z and ref.norm(d, unit) == 1
        if kind == "delta":
            return int(out) == ref.sigma2(d, z)
        if kind == "index":
            return Fraction(out.strip()) == ref.index2(d, z)
        if kind == "divisors":
            classes = ref.divisor_classes(d, z)
            if lines[0] != f"{len(classes)} divisor classes:":
                return False
            listed = [line.split() for line in lines[1:]]
            keys = {ref.class_key(d, parse_elem(d, e)) for e, _, _ in listed}
            norms = sorted(int(n) for _, _, n in listed)
            return keys == {k for _, k in classes} and norms == [m for m, _ in classes]
        if kind == "classify":
            return out.strip() == ref.classify(d, x)
        if kind == "count":
            m = re.search(r"prime_divisors\s+expected counted, actual (\d+)", out)
            return int(m.group(1)) == len(ref.factorization(d, z))
        if kind in ("2.1", "2.2", "2.3", "2.4"):
            return self._verify_agrees(kind, d, ref.to_uv(d, x, y), out)
        if kind == "search":
            obj = json.loads(out)
            got = {ref.class_key(d, ref.to_uv(d, h["a"], h["b"])) for h in obj["hits"]}
            expect = ref.hits_in(d, self.tables[d], 2, x)
            return (
                obj["elements_scanned"] == ref.count_canonical(d, x)
                and obj["norm_bound"] == x
                and got == expect
                and len(obj["hits"]) == len(expect)
            )
        if kind == "conjecture":
            got = {}
            for m in re.finditer(r"\[(pass|FAIL)\] k\[(\S+)\]\s+expected 1, actual (\d+)", out):
                got[ref.class_key(d, parse_elem(d, m.group(2)))] = int(m.group(3))
            even = {h for h in ref.hits_in(d, self.tables[d], 2, x) if ref.norm(d, h) % 2 == 0}
            expect = {h: ref.decompose_even(d, h)["k"] for h in even}
            overall = all(k == 1 for k in expect.values())
            if not expect and "vacuous" not in out:
                return False
            return got == expect and (f"overall: {'PASS' if overall else 'FAIL'}" in out)
        raise ValueError(f"unknown command kind {kind}")

    def _verify_agrees(self, tid: str, d: int, z: tuple[int, int], out: str) -> bool:
        dec = ref.decompose_even(d, z)
        m = re.search(r"gamma=(\d+) x=(\S+) q=(\d+) m=(\d+) k=(\d+) v=(\d+)", out)
        got = [int(m.group(i)) for i in (1, 3, 4, 5, 6)]
        if got != [dec[k] for k in ("gamma", "q", "m", "k", "v")]:
            return False
        if ref.class_key(d, parse_elem(d, m.group(2))) != ref.class_key(d, dec["x"]):
            return False
        gamma, q, mm, k, v = got
        q_inert = ref.is_prime(q) and ref.classify(d, q) == "inert"
        if tid in ("2.1", "2.3"):
            verdict = q_inert
        else:
            lower = q ** (k + 1) + (q + 3) * sum(q ** (2 * j) for j in range((k - 1) // 2 + 1))
            rho_ok = (
                k % 2 == 1
                and q_inert
                and ref.valuation(d, (2 * q, 0), dec["x"]) == (k + 1) // 2
            )
            verdict = k % 2 == 1 and v >= q + 2 and mm >= lower and mm >= q * q + q + 3 and rho_ok
        if d == -7:
            verdict = verdict and gamma % 3 == 1 and q % 7 == 3
        return f"overall: {'PASS' if verdict else 'FAIL'}" in out

    def details(self) -> dict:
        return {"samples": len(self.samples), "failures": self.failures}


def run_child(args: list[str], root: str, env: dict) -> tuple[float, int, str, str, int]:
    """Run the interpreter with args: (seconds, exit code, stdout, stderr,
    peak RSS of that child in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    with proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out, err, usage.ru_maxrss
