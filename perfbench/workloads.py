"""The four workloads: fixed query lists, generated from a seed.

Each builder returns the queries of one round.  Most of a list is a fixed
catalogue whose cost classes are placed so that the median and the 90th
percentile fall inside a block of identical queries (see README.md).  The
seed draws a block of small random inputs, all far cheaper than the
median's block, and the order in which the queries run.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks as C

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A query that runs longer than this is stopped and counted as failed.  The
# slowest query in any list takes under 2 s on the reference machine.
QUERY_BUDGET_S = 30.0

WORKLOADS = ("closure", "series", "cone", "cli")


@dataclass(eq=False)
class Query:
    """One timed call.  Copies of a query share the object and its label."""

    label: str
    call: Callable[[], object]
    normal: Callable[[object], object]  # output -> plain data, compared across copies
    check: Callable[[object], None]     # raises checks.CheckFailure or checks.OperationFailed


def library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wstable
    return wstable


def build(name: str, seed: int, in_process_cli: bool = False) -> list[Query]:
    """The queries of one round of ``name``, in the order they run."""
    rng = random.Random(f"{name}:{seed}")
    if name == "cli":
        queries = _cli(rng, in_process_cli)
    else:
        queries = {"closure": _closure, "series": _series, "cone": _cone}[name](rng)
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# shared pieces

def _mono(text, n):
    return C.parse_monomial(text, n)


def _ideal(text, n):
    return sorted({_mono(t, n) for t in text.split(",")})


def _gens(ideal):
    return tuple(sorted(g.exponents for g in ideal.gens))


def _random_weights(rng, n, top):
    return tuple(sorted((rng.randint(1, top) for _ in range(n)), reverse=True))


def _random_seed(rng, n, degree):
    e = [0] * n
    for _ in range(degree):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _small_weighted_seed(rng):
    """A weighted principal seed whose closure has at most a few dozen generators."""
    n = rng.choice((3, 4, 5, 6))
    return _random_seed(rng, n, rng.randint(2, 4 if n <= 4 else 3)), _random_weights(rng, n, 3)


class _Lib:
    """Builds library values from tuples and calls through the package namespace.

    Calls look their function up at call time, so a traced run that rebinds
    the package's names sees them.
    """

    def __init__(self):
        self.L = library()
        self._ideals = {}

    def w(self, weights):
        return self.L.WeightVector(tuple(weights))

    def ideal(self, gens):
        key = tuple(sorted(gens))
        if key not in self._ideals:
            self._ideals[key] = self.L.MonomialIdeal(
                len(key[0]), [self.L.Monomial(g) for g in key])
        return self._ideals[key]

    def closure(self, seeds, weights):
        return _gens(self.L.w_closure([self.L.Monomial(s) for s in seeds], self.w(weights)))


def _copies(queries, query, count):
    queries.extend([query] * count)


# ---------------------------------------------------------------------------
# closure: expansions, stability checks and Borel generators

def _closure(rng):
    lib = _Lib()
    L = lib.L
    queries = []

    def closure_q(label, seeds, weights, check=None):
        seeds_m = [L.Monomial(s) for s in seeds]
        w = lib.w(weights)
        return Query(f"w_closure {label}", lambda: L.w_closure(seeds_m, w), _gens,
                     check or (lambda out: C.check_closure(out, seeds, weights)))

    def power_q(n, d):
        seed = (0,) * (n - 1) + (d,)
        return closure_q(f"x{n}^{d}", [seed], (1,) * n,
                         lambda out: C.check_standard_power_closure(out, n, d))

    def stable_q(label, gens, weights):
        ideal, w = lib.ideal(gens), lib.w(weights)
        return Query(f"is_w_stable {label}", lambda: L.is_w_stable(ideal, w), bool,
                     lambda out: C.check_stability(out, gens, weights))

    def bgens_q(label, gens, weights):
        ideal, w = lib.ideal(gens), lib.w(weights)
        return Query(f"w_borel_gens {label}", lambda: L.w_borel_gens(ideal, w),
                     lambda out: tuple(sorted(g.exponents for g in out)),
                     lambda out: C.check_borel_gens(out, gens, weights))

    for i in range(16):
        seed, weights = _small_weighted_seed(rng)
        _copies(queries, closure_q(f"random {seed} w={weights}", [seed], weights), 1)
    for i in range(6):
        n = rng.choice((3, 4))
        weights = _random_weights(rng, n, 3)
        seeds = [_random_seed(rng, n, rng.randint(2, 3)) for _ in range(rng.choice((2, 3)))]
        _copies(queries, closure_q(f"random sum {seeds} w={weights}", seeds, weights), 1)

    w3211 = (3, 2, 1, 1)
    small = lib.closure([(2, 1, 2, 3)], w3211)
    broken = [g for g in small if g != max(small)]  # x1^k left out: not stable
    _copies(queries, stable_q("(3,2,1,1) principal, 23 gens", small, w3211), 3)
    _copies(queries, stable_q("(3,2,1,1) principal less x1^k", broken, w3211), 3)
    _copies(queries, bgens_q("(3,2,1,1) principal, 23 gens", small, w3211), 3)
    wsum = (3, 2, 2, 1, 1)
    sum_seeds = [_mono(t, 5) for t in ("x1*x2^2*x5^3", "x3^3*x4^2", "x2*x4^2*x5^2")]
    _copies(queries, bgens_q("(3,2,2,1,1) sum of 3 seeds", lib.closure(sum_seeds, wsum), wsum), 2)
    _copies(queries, closure_q("(4,3,2,2,1,1) x1*x2*x3*x4*x5^2*x6^2",
                               [(1, 1, 1, 1, 2, 2)], (4, 3, 2, 2, 1, 1)), 3)

    # the median's block
    _copies(queries, closure_q("(3,2,2,1,1,1) x1*x2*x3*x4*x5*x6^3",
                               [(1, 1, 1, 1, 1, 3)], (3, 2, 2, 1, 1, 1)), 24)

    w6 = (3, 3, 2, 2, 1, 1)
    mid = lib.closure([(1, 1, 1, 1, 1, 2)], w6)
    _copies(queries, stable_q("(3,3,2,2,1,1) principal, 80 gens", mid, w6), 4)
    _copies(queries, bgens_q("(3,3,2,2,1,1) principal, 80 gens", mid, w6), 4)
    _copies(queries, power_q(5, 6), 5)
    std_seeds = [_mono(t, 5) for t in ("x1^3*x4^3", "x2^2*x3^2*x5^2", "x3*x5^5")]
    _copies(queries, closure_q("standard sum of 3 seeds, 203 gens", std_seeds, (1,) * 5), 5)
    _copies(queries, closure_q("(2,2,1,1,1,1) x2*x3*x4*x5*x6^3",
                               [(0, 1, 1, 1, 1, 3)], (2, 2, 1, 1, 1, 1)), 5)

    # the 90th percentile's block
    w145 = (3, 2, 2, 1, 1, 1)
    big = lib.closure([(1, 1, 1, 1, 1, 3)], w145)
    _copies(queries, stable_q("(3,2,2,1,1,1) principal, 145 gens", big, w145), 15)

    m5 = C.degree_d_monomials(5, 6)
    m6 = C.degree_d_monomials(6, 6)
    _copies(queries, stable_q("standard x5^6 closure, 210 gens", m5, (1,) * 5), 1)
    _copies(queries, power_q(6, 6), 1)
    _copies(queries, power_q(6, 8), 1)
    _copies(queries, stable_q("standard x6^6 closure, 462 gens", m6, (1,) * 6), 1)
    _copies(queries, stable_q("standard x6^6 closure less x1^6", m6[1:], (1,) * 6), 1)
    _copies(queries, bgens_q("standard x6^6 closure, 462 gens", m6, (1,) * 6), 1)
    return queries


# ---------------------------------------------------------------------------
# series: Catalan path for principal closures, Stanley filtration otherwise

# Non-principal weighted ideals: closures of two seeds, neither in the
# other's closure, so each has two weighted Borel generators and takes the
# Stanley filtration path.  Hilbert series cost 9-320 ms on each.
NON_PRINCIPAL = {
    "np-a": ((3, 3, 1), ("x2*x3", "x1")),
    "np-b": ((2, 2, 1), ("x2^2*x3", "x1*x3^2")),
    "np-c": ((3, 2, 2, 1), ("x3^2*x4", "x2")),
    "np-d": ((3, 2, 1, 1), ("x1*x2^2*x3", "x1^2*x4")),
    "np-e": ((3, 3, 1, 1), ("x2*x3*x4", "x1*x4")),
    "np-f": ((3, 2, 2), ("x2^2*x3^2", "x1*x2^2")),
    "np-g": ((3, 3, 2, 1), ("x3^2*x4^2", "x2*x4^2")),
    "np-h": ((3, 3, 3, 3), ("x1*x2^2*x3", "x1^2*x4")),
    "np-i": ((2, 2, 1, 1), ("x1^2*x2*x3^2*x4^2", "x1^2*x2^2*x4")),
    "np-j": ((3, 2, 2), ("x2*x3^2", "x1")),
    "np-k": ((3, 3, 1), ("x1*x2^2*x3^2", "x1^2")),
}


def _series_queries(lib, label, gens, weights):
    """Hilbert, Poincare, Betti and Stanley queries on one stable ideal."""
    L = lib.L
    ideal, w = lib.ideal(gens), lib.w(weights)
    return {
        "hilbert": Query(
            f"hilbert_series {label}", lambda: L.hilbert_series(ideal, w),
            lambda s: (tuple(sorted(s.numerator.items())), s.terms),
            lambda out: C.check_hilbert(dict(out[0]), out[1], gens, weights)),
        "poincare": Query(
            f"poincare_series {label}", lambda: L.poincare_series(ideal, w),
            lambda p: tuple(sorted(p.coefficients.items())),
            lambda out: C.check_poincare(dict(out), gens, weights)),
        "betti": Query(
            f"betti_numbers {label}", lambda: L.betti_numbers(ideal, w),
            lambda r: (tuple(r[0]), tuple(sorted(r[1].coefficients.items()))),
            lambda out: C.check_betti(out[0], dict(out[1]), gens, weights)),
        "stanley": Query(
            f"stanley_decomposition {label}", lambda: L.stanley_decomposition(ideal, w),
            lambda d: tuple((c.exponents, tuple(sorted(f))) for c, f in d.pieces),
            lambda out: C.check_stanley(out, gens, weights)),
    }


def _series(rng):
    lib = _Lib()
    queries = []
    kinds = ("hilbert", "poincare", "betti", "stanley")
    for i in range(21):
        n = 3
        seed, weights = _random_seed(rng, n, rng.randint(2, 4)), _random_weights(rng, n, 3)
        gens = lib.closure([seed], weights)
        q = _series_queries(lib, f"random {seed} w={weights}", gens, weights)
        _copies(queries, q[kinds[i % 4]], 1)

    def principal(weights, seed_text):
        n = len(weights)
        return _series_queries(lib, f"{weights} closure of {seed_text}",
                               lib.closure([_mono(seed_text, n)], weights), weights)

    def non_principal(key):
        weights, seeds = NON_PRINCIPAL[key]
        n = len(weights)
        gens = lib.closure([_mono(s, n) for s in seeds], weights)
        return _series_queries(lib, f"{key} {weights} closure of {', '.join(seeds)}",
                               gens, weights)

    for key in ("np-a", "np-b", "np-c", "np-d", "np-e", "np-f"):
        _copies(queries, non_principal(key)["poincare"], 1)
    for key in ("np-a", "np-b", "np-c"):
        _copies(queries, non_principal(key)["betti"], 1)

    # the median's block: a principal closure on the Catalan-diagram path;
    # everything before it costs under 15 ms, everything after over 30 ms
    p5 = principal((5, 4, 3, 2, 1), "x1*x2*x3*x4^2*x5^2")
    _copies(queries, p5["hilbert"], 32)

    p32211 = principal((3, 2, 2, 1, 1), "x1*x2*x3*x4^2*x5^3")
    for kind, copies in (("hilbert", 3), ("stanley", 3), ("poincare", 3), ("betti", 2)):
        _copies(queries, p32211[kind], copies)
    _copies(queries, non_principal("np-j")["hilbert"], 2)
    _copies(queries, non_principal("np-k")["hilbert"], 2)
    _copies(queries, non_principal("np-k")["stanley"], 2)

    # the 90th percentile's block: Stanley filtration of a non-principal ideal
    _copies(queries, non_principal("np-f")["hilbert"], 20)

    _copies(queries, non_principal("np-g")["stanley"], 1)
    _copies(queries, non_principal("np-h")["hilbert"], 1)
    _copies(queries, non_principal("np-i")["hilbert"], 1)
    _copies(queries, non_principal("np-i")["stanley"], 1)
    return queries


# ---------------------------------------------------------------------------
# cone: constraint systems, double description and Fourier-Motzkin

# Standard-graded closures, given by their Borel seeds.
CONE_IDEALS = {
    "c4-rays": (4, ("x2^2*x3^3",)),
    "c4-vec-a": (4, ("x2*x4^2", "x1*x2^3*x3")),
    "c4-vec-c": (4, ("x3^3*x4", "x1^2*x3*x4^3", "x2^3*x3^2*x4")),
    "c4-none-a": (4, ("x2^3*x4", "x1*x3*x4^3", "x1^2*x2^2*x3^2*x4^3")),
    "c4-none-b": (4, ("x1*x2*x3^3*x4^3", "x1*x2*x4^2", "x2^3*x4^2")),
    "c4-none-c": (4, ("x1^3*x4", "x1^2*x2^2*x3^2*x4^2", "x2^3*x3^2*x4^2")),
    "c4-none-d": (4, ("x1*x2*x3^2*x4^3", "x1^2*x3^3*x4")),
    "c5-vec": (5, ("x2*x3*x4^3", "x4*x5")),
    "c5-vec-b": (5, ("x1^3*x2^3*x3^3*x4", "x1^2*x2^3*x3*x5")),
    "c5-rays": (5, ("x1^3*x2^2*x5^3", "x2*x3^3*x4", "x2^3*x3*x4*x5^3")),
    # Fourier-Motzkin takes 0.04-1 s on these
    "fm-vec-a": (4, ("x1*x2*x3^3*x4^2", "x2^2*x3^3*x4")),
    "fm-vec-b": (4, ("x1^2*x2*x4^3", "x1^2*x2^2*x3^2*x4^3")),
    "fm-vec-c": (4, ("x2^3*x4", "x2^3*x3^3", "x2^2*x3^3*x4^3")),
    "fm-none": (4, ("x1^3*x2^3*x3^3*x4", "x1^3*x2^2*x3^3*x4^3")),
    "fm-none-5": (5, ("x1^2*x2^3*x4*x5", "x1^2*x3^2*x4^3*x5^2", "x1^3*x3^2*x5^2")),
    # ROADMAP item 1's 5-variable case: double description only, since
    # Fourier-Motzkin does not finish on it
    "roadmap-5": (5, ("x1^3*x2^3*x3^2*x4^2*x5", "x1*x2*x4^2*x5^3")),
}

# Bounded search for the "none" check and the region check: every weight
# vector with entries up to this value.
SEARCH_TOP = {3: 8, 4: 6, 5: 5}


def _cone_gens(lib, key):
    n, seeds = CONE_IDEALS[key]
    return lib.closure([_mono(s, n) for s in seeds], (1,) * n)


def _system_data(system):
    return ([(h.normal, h.strict) for h in system.halfspaces],
            system.trivially_empty, system.candidate.exponents)


def _cone_queries(lib, label, gens):
    L = lib.L
    ideal, n = lib.ideal(gens), len(gens[0])

    def check_system(out):
        halfspaces, empty, candidate = out
        C.check_constraint_system(halfspaces, empty, candidate, gens, n, SEARCH_TOP[n])

    def cone():
        system = L.constraint_system(ideal)
        return system, L.cone_rays(system)

    return {
        "system": Query(f"constraint_system {label}", lambda: L.constraint_system(ideal),
                        _system_data, check_system),
        "rays": Query(f"cone_rays {label}", cone,
                      lambda r: ([h.normal for h in r[0].halfspaces], r[1].rays),
                      lambda out: C.check_rays(out[1], out[0], n)),
        "vector": Query(f"principal_weight_vector {label}",
                        lambda: L.principal_weight_vector(ideal),
                        lambda v: None if v is None else tuple(v),
                        lambda out: C.check_weight_vector(out, gens, n, SEARCH_TOP[n])),
    }


def _cone(rng):
    lib = _Lib()
    queries = []
    for i in range(16):
        seeds = [_random_seed(rng, 3, rng.randint(1, 4)) for _ in range(rng.choice((1, 2)))]
        gens = lib.closure(seeds, (1, 1, 1))
        _copies(queries, _cone_queries(lib, f"random {seeds}", gens)["vector"], 1)

    def q(key):
        return _cone_queries(lib, key, _cone_gens(lib, key))

    for key in ("c4-vec-a", "c4-vec-c", "c4-none-a", "c4-none-b", "c5-vec"):
        _copies(queries, q(key)["system"], 2)
    for key in ("c4-vec-a", "c4-none-a", "c4-none-b", "c5-vec"):
        _copies(queries, q(key)["vector"], 1)

    # the median's block: double description on a 4-variable system
    _copies(queries, q("c4-rays")["rays"], 30)

    for key in ("c5-vec-b", "c4-none-c", "c4-none-d"):
        _copies(queries, q(key)["vector"], 3)
    _copies(queries, q("c5-rays")["rays"], 9)
    _copies(queries, q("fm-vec-c")["vector"], 1)

    # the 90th percentile's block: Fourier-Motzkin decides emptiness
    _copies(queries, q("fm-vec-a")["vector"], 15)
    _copies(queries, q("fm-none-5")["vector"], 2)

    for key in ("fm-vec-b", "fm-none"):
        _copies(queries, q(key)["vector"], 1)
    _copies(queries, q("roadmap-5")["rays"], 3)
    return queries


# ---------------------------------------------------------------------------
# cli: the command line as a subprocess, one at a time

def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(argv, stdin):
    proc = subprocess.run([sys.executable, "-m", "wstable.cli", *argv], input=stdin,
                          capture_output=True, text=True, cwd=ROOT, env=_cli_env(),
                          timeout=QUERY_BUDGET_S)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(argv, stdin):
    """``cli.main`` in this interpreter, with its streams captured."""
    library()
    from wstable import cli
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _expect_exit(result, code):
    got, _, err = result
    if got != code:
        raise C.OperationFailed(f"exit code {got}, expected {code}: {err.strip()[-200:]}")


def _expect_error(result, code, needle=""):
    """A one-line ``error:`` diagnostic on stderr that contains ``needle``."""
    _expect_exit(result, code)
    lines = result[2].strip().splitlines()
    if len(lines) != 1 or not lines[0].startswith("error:") or needle not in lines[0]:
        raise C.OperationFailed(f"diagnostic {result[2].strip()[-200:]!r}")


def _json(result):
    return json.loads(result[1])["result"]


def _cli(rng, in_process):
    run = run_cli_in_process if in_process else run_cli_subprocess
    queries = []

    def add(argv, check, copies, stdin=None):
        label = " ".join(argv) if stdin is None else f"{' '.join(argv)} <{len(stdin)} bytes>"
        query = Query(label, lambda: run(argv, stdin), lambda r: r, check)
        _copies(queries, query, copies)

    def monos(texts, n):
        return [_mono(t, n) for t in texts]

    c321 = _ideal("x1*x2*x3^2, x1^2*x3, x1*x2^2, x1^2*x2, x1^3", 3)
    letters_h = _ideal("x^2, x*y, x*z, y^3, y^2*z, y*z^2, z^4", 3)
    i221 = _ideal("x^2, x*y, y^2, x*z^2, y*z^2, z^4", 3)
    stable4 = _ideal("x1^2, x1*x2, x2^3, x1*x3", 4)
    principal_a = _ideal("x^3, x^2*y, x*y^3, x*y^2*z", 3)
    seed = _random_seed(rng, 3, rng.randint(2, 4))
    weights = _random_weights(rng, 3, 3)
    seed_text, w_text = C.format_monomial(seed), ",".join(map(str, weights))
    wv = (3, 2, 2, 1)
    sum_seeds = monos(("x2^3*x4", "x1*x3^2"), 4)

    def text_gens(result, n):
        return [_mono(t, n) for t in result[1].strip().split(", ")]

    def json_gens(result, n):
        return [_mono(t, n) for t in _json(result)["generators"]]

    def ok(check, code=0):
        def wrapped(result):
            _expect_exit(result, code)
            check(result)
        return wrapped

    small = [
        (["closure", "x1*x2*x3^2", "--weights", "3,2,1"],
         ok(lambda r: C.check_closure(text_gens(r, 3), [(1, 1, 2)], (3, 2, 1)))),
        (["closure", "x1*x2*x3^2", "--json"],
         ok(lambda r: C.check_closure(json_gens(r, 3), [(1, 1, 2)], (1, 1, 1)))),
        (["closure", seed_text, "--weights", w_text, "--json"],
         ok(lambda r: C.check_closure(json_gens(r, 3), [seed], weights))),
        (["closure", "x2^3*x4, x1*x3^2", "--weights", "3,2,2,1", "--json"],
         ok(lambda r: C.check_closure(json_gens(r, 4), sum_seeds, wv))),
        (["bgens", "x1^2, x1*x2^2, x2^4", "--weights", "2,1"],
         ok(lambda r: C.check_borel_gens(text_gens(r, 2), _ideal("x1^2, x1*x2^2, x2^4", 2), (2, 1)))),
        (["bgens", "x^2, x*y, x*z, y^3, y^2*z, y*z^2, z^4", "--weights", "5,3,2", "--json"],
         ok(lambda r: C.check_borel_gens(json_gens(r, 3), letters_h, (5, 3, 2)))),
        (["bgens", "x2"],
         lambda r: (_expect_error(r, 2, "not"), C.check_stability(False, [(0, 1)], (1, 1)))),
        (["is-wstable", "x1, x2^2", "--weights", "2,1"],
         ok(lambda r: C.check_stability(r[1].strip() == "true", _ideal("x1, x2^2", 2), (2, 1)))),
        (["is-wstable", "x1^2, x2", "--json"],
         ok(lambda r: C.check_stability(_json(r)["stable"], _ideal("x1^2, x2", 2), (1, 1)), 3)),
        (["tree", "x1*x2*x3^2", "--weights", "3,2,1"],
         ok(lambda r: _check_tree_text(r[1], (1, 1, 2), (3, 2, 1)))),
        (["tree", "x1^2*x2^3*x3^4", "--weights", "3,2,1", "--json"],
         ok(lambda r: C.check_tree_sinks(monos(_json(r)["sinks"], 3), (2, 3, 4), (3, 2, 1)))),
        (["tree-ideal", "x1^2, x1*x2, x2^3, x1*x3", "--nvars", "4", "--json"],
         ok(lambda r: C.check_tree_ideal(
             monos(_json(r)["vertices"], 4),
             [tuple(monos(e, 4)) for e in _json(r)["edges"]], stable4, 4))),
        (["catalan", "x1*x2^3*x3^2", "--weights", "3,2,1"],
         ok(lambda r: C.check_catalan(
             [[int(v) for v in line.strip("| ").split()] for line in r[1].strip().splitlines()],
             11, (1, 3, 2), (3, 2, 1)))),
        (["catalan", "x1*x2*x3*x4^2*x5^2", "--weights", "5,4,3,2,1", "--json"],
         ok(lambda r: C.check_catalan(_json(r)["rows"], _json(r)["weighted_degree"],
                                      (1, 1, 1, 2, 2), (5, 4, 3, 2, 1)))),
        (["hilbert", C.format_ideal(c321), "--weights", "3,2,1", "--expand-to", "12", "--json"],
         ok(lambda r: C.check_hilbert(
             {d: c for d, c in _json(r)["numerator"]},
             [tuple(t) for t in _json(r)["terms"]], c321, (3, 2, 1), _json(r)["expansion"]))),
        (["hilbert", "x^2, x*y, y^2, x*z^2, y*z^2, z^4", "--weights", "2,2,1", "--expand-to", "10"],
         ok(lambda r: C.check_hilbert_text(r[1], i221, (2, 2, 1)))),
        (["stanley", C.format_ideal(c321), "--weights", "3,2,1", "--json"],
         ok(lambda r: C.check_stanley(
             [(_mono(p["coset"], 3), tuple(p["free"])) for p in _json(r)["pieces"]],
             c321, (3, 2, 1)))),
        (["stanley", "x^2, x*y, y^2, x*z^2, y*z^2, z^4", "--weights", "2,2,1"],
         ok(lambda r: C.check_stanley(_stanley_text(r[1]), i221, (2, 2, 1)))),
        (["poincare", C.format_ideal(c321), "--weights", "3,2,1", "--json"],
         ok(lambda r: C.check_poincare(
             {(i, j): c for i, j, c in _json(r)["terms"]}, c321, (3, 2, 1)))),
        (["betti", "x^2, x*y, y^2, x*z^2, y*z^2, z^4", "--weights", "2,2,1", "--json"],
         ok(lambda r: C.check_betti(
             _json(r)["total"], {(i, j): c for i, j, c in _json(r)["graded"]}, i221, (2, 2, 1)))),
        (["betti", C.format_ideal(c321), "--weights", "3,2,1"],
         ok(lambda r: C.require(_betti_table_totals(r[1]) == [1] + C.betti_totals(c321, 3),
                                "Betti table totals differ"))),
        (["cone", "x^3, x^2*y, x*y^3, x*y^2*z"],
         ok(lambda r: _check_rays_against_library(
             [tuple(int(v) for v in line.split()) for line in r[1].strip().splitlines()],
             principal_a))),
        (["cone", C.format_ideal(stable4), "--nvars", "4", "--json"],
         ok(lambda r: _check_rays_against_library(
             [tuple(v) for v in _json(r)["rays"]], stable4))),
        (["weight-vector", "x^3, x^2*y, x*y^3, x*y^2*z"],
         ok(lambda r: C.check_weight_vector(
             tuple(int(v) for v in r[1].strip().split(",")), principal_a, 3, SEARCH_TOP[3]))),
        (["weight-vector", "x^2, x*y, x*z, y^3, y^2*z, y*z^2, z^4", "--json"],
         ok(lambda r: C.check_weight_vector(
             _json(r).get("weights"), letters_h, 3, SEARCH_TOP[3]), 3)),
        (["closure", "x1", "--weights", "3,2,1", "--nvars", "2"],
         lambda r: _expect_error(r, 1, "conflicts")),
        (["closure", "x1^"], lambda r: _expect_error(r, 1, "(at position 2)")),
    ]
    for argv, check in small:
        add(argv, check, 3)

    # Faults in the program today; both stay in until they are mended.
    add(["hilbert", "x1", "--expand-to", "-5"], lambda r: _expect_error(r, 1), 1)
    add(["closure", "x1,,x2"], lambda r: _expect_error(r, 1, "(at position 3)"), 1)

    m5 = C.degree_d_monomials(5, 6)
    m5_text = C.format_ideal(m5)
    add(["closure", "x5^6"],
        ok(lambda r: C.check_standard_power_closure(text_gens(r, 5), 5, 6)), 2)
    # the 90th percentile's block: an output of 462 generators
    add(["closure", "x6^6", "--json"],
        ok(lambda r: C.check_standard_power_closure(json_gens(r, 6), 6, 6)), 14)

    add(["is-wstable", "-", "--json"],
        ok(lambda r: C.check_stability(_json(r)["stable"], m5, (1,) * 5)), 1, stdin=m5_text)
    add(["bgens", "-"],
        ok(lambda r: C.check_borel_gens(text_gens(r, 5), m5, (1,) * 5)), 1, stdin=m5_text)
    add(["poincare", "-", "--json"],
        ok(lambda r: C.check_poincare({(i, j): c for i, j, c in _json(r)["terms"]},
                                      m5, (1,) * 5)), 1, stdin=m5_text)
    add(["betti", "-"],
        ok(lambda r: C.require(_betti_table_totals(r[1]) == [1] + C.betti_totals(m5, 5),
                               "Betti table totals differ")), 1, stdin=m5_text)
    roadmap = _ideal_text_closure(CONE_IDEALS["roadmap-5"])
    add(["cone", "-", "--json"],
        ok(lambda r: _check_rays_against_library([tuple(v) for v in _json(r)["rays"]],
                                                 _ideal(roadmap, 5))), 1, stdin=roadmap)
    fm = _ideal_text_closure(CONE_IDEALS["fm-vec-a"])
    add(["weight-vector", "-", "--json"],
        ok(lambda r: C.check_weight_vector(_json(r)["weights"], _ideal(fm, 4), 4, SEARCH_TOP[4])),
        1, stdin=fm)
    return queries


def _ideal_text_closure(spec):
    """Text of the standard closure of the seeds, worked out by checks.py."""
    n, seeds = spec
    return C.format_ideal(C.closure_gens([_mono(s, n) for s in seeds], (1,) * n))


def _check_tree_text(text, m, w):
    """Adjacency lines ``v: c1 c2``; the vertices without children are the sinks."""
    n = len(w)
    sinks = []
    for line in text.strip().splitlines():
        vertex, _, kids = line.partition(":")
        if not kids.strip():
            sinks.append(_mono(vertex, n))
    C.check_tree_sinks(sinks, m, w)


def _stanley_text(text):
    pieces = []
    for line in text.strip().splitlines():
        coset, _, free = line.partition(" * K[")
        names = [v.strip() for v in free.rstrip("]").split(",") if v.strip()]
        pieces.append((_mono(coset, 3), tuple("xyz".index(v) + 1 for v in names)))
    return pieces


def _betti_table_totals(text):
    for line in text.splitlines():
        if line.strip().startswith("total:"):
            return [int(v) for v in line.split(":", 1)[1].split()]
    raise C.CheckFailure("no totals row")


def _check_rays_against_library(rays, gens):
    """Rays against the half-spaces of the library's constraint system.

    The half-spaces are themselves checked against the closure on a grid of
    weight vectors, so the rays are tested against a verified system.
    """
    lib = _Lib()
    n = len(gens[0])
    system = lib.L.constraint_system(lib.ideal(gens))
    halfspaces, empty, candidate = _system_data(system)
    C.check_rays(rays, [h for h, _ in halfspaces], n)
    if n <= 4:
        C.check_constraint_system(halfspaces, empty, candidate, gens, n, SEARCH_TOP[n])
