"""Correctness checks that never call the library, on plain exponent tuples.

A monomial is a tuple of exponents and a weight vector a tuple of positive,
non-increasing integers.  Everything here is worked out from the
definitions, so a check passes only if the library's answer agrees with an
independent computation, not with an earlier run of the library.

Membership in a weighted closure uses the definition through the
substitution psi(x_i) = y_i^{w_i}: u lies in the w-closure of s when psi(u)
is divisible by a Borel move of psi(s).  On factored forms that reads
"the first deg psi(s) factors of psi(u) are, position by position, no
larger than those of psi(s)", which is the same as the prefix-sum test

    sum_{i <= j} w_i u_i  >=  sum_{i <= j} w_i s_i   for every j.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction


class CheckFailure(AssertionError):
    """An output that disagrees with the independent computation."""


class OperationFailed(Exception):
    """The operation gave no result: a crash, a wrong exit code or diagnostic."""


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# monomials as tuples

def wdeg(u, w):
    return sum(a * b for a, b in zip(u, w))


def max_index(u):
    """1-based index of the last variable dividing u; 1 for the unit monomial."""
    for i in range(len(u), 0, -1):
        if u[i - 1]:
            return i
    return 1


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def in_ideal(u, gens):
    return any(divides(g, u) for g in gens)


def minimal(monomials):
    """The divisibility-minimal elements of a collection of monomials."""
    kept = []
    for m in sorted(set(monomials), key=lambda m: (sum(m), m)):
        if not any(divides(g, m) for g in kept):
            kept.append(m)
    return set(kept)


def prefix_sums(u, w):
    out, total = [], 0
    for a, b in zip(u, w):
        total += a * b
        out.append(total)
    return out


def in_principal_closure(u, s, w):
    """u lies in the w-closure of s (see the module docstring)."""
    return all(pu >= ps for pu, ps in zip(prefix_sums(u, w), prefix_sums(s, w)))


def principal_closure_gens(s, w):
    """Minimal generators of the w-closure of one monomial.

    A minimal generator g has wdeg(g) < wdeg(s) + w[max_index(g)-1]: if not,
    dropping one factor of its last variable keeps every prefix sum above
    those of s.  So the search runs over exponent vectors of weighted
    degree below wdeg(s) + max(w), pruned by the prefix-sum condition, and
    keeps the members whose every one-factor divisor falls out.
    """
    n = len(w)
    ps = prefix_sums(s, w)
    top = ps[-1] + max(w) - 1
    gens = set()

    def extend(prefix, total, j):
        if j == n:
            u = tuple(prefix)
            if all(not u[i] or not in_principal_closure(
                    u[:i] + (u[i] - 1,) + u[i + 1:], s, w) for i in range(n)):
                gens.add(u)
            return
        e = max(0, -(-(ps[j] - total) // w[j]))
        while total + e * w[j] <= top:
            prefix.append(e)
            extend(prefix, total + e * w[j], j + 1)
            prefix.pop()
            e += 1

    extend([], 0, 0)
    return gens


def closure_gens(seeds, w):
    """Minimal generators of the w-closure of a set of monomials."""
    out = set()
    for s in set(seeds):
        out |= principal_closure_gens(s, w)
    return minimal(out)


def borel_gens(gens, w):
    """The members of a generating set that no other member's closure reaches."""
    gens = set(gens)
    return {g for g in gens
            if not any(h != g and in_principal_closure(g, h, w) for h in gens)}


def monomials_up_to(n, w, bound):
    """All exponent vectors of weighted degree at most ``bound``."""
    def rec(j, left):
        if j == n:
            yield ()
            return
        for e in range(left // w[j] + 1):
            for rest in rec(j + 1, left - e * w[j]):
                yield (e,) + rest
    return rec(0, bound)


def degree_d_monomials(n, d):
    """All monomials of total degree d in n variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


# ---------------------------------------------------------------------------
# closures, stability and Borel generators

def check_closure(gens, seeds, w):
    """``gens`` is the minimal generating set of the w-closure of ``seeds``."""
    expected = closure_gens(seeds, w)
    got = set(gens)
    require(len(got) == len(gens), "duplicate generators")
    require(got == expected,
            f"closure differs: {len(got - expected)} extra, "
            f"{len(expected - got)} missing of {len(expected)}")


def check_standard_power_closure(gens, n, d):
    """The standard-graded closure of x_n^d is every monomial of degree d."""
    got = set(gens)
    require(len(got) == len(gens), "duplicate generators")
    require(all(len(g) == n and sum(g) == d and min(g) >= 0 for g in got),
            f"a generator is not a monomial of degree {d} in {n} variables")
    require(len(got) == math.comb(n + d - 1, d),
            f"{len(got)} generators, expected C({n + d - 1},{d}) = "
            f"{math.comb(n + d - 1, d)}")


def is_strongly_stable(gens):
    """Closed under single Borel moves x_j -> x_i (i < j) of its generators.

    For equal weights this is the whole of w-stability, and checking the
    generators suffices.
    """
    gens = set(gens)
    for g in gens:
        for j in range(1, len(g)):
            if not g[j]:
                continue
            for i in range(j):
                moved = list(g)
                moved[j] -= 1
                moved[i] += 1
                moved = tuple(moved)
                if moved not in gens and not in_ideal(moved, gens):
                    return False
    return True


def check_stability(answer, gens, w):
    if len(set(w)) == 1:
        expected = is_strongly_stable(gens)
    else:
        expected = closure_gens(gens, w) == set(gens)
    require(answer == expected, f"stability answer {answer}, expected {expected}")


def check_borel_gens(bgens, gens, w):
    """``bgens`` is the unique minimal set whose closure is the ideal."""
    got = set(bgens)
    require(got == borel_gens(gens, w), "Borel generators differ")
    require(closure_gens(got, w) == set(gens),
            "closure of the Borel generators is not the ideal")


# ---------------------------------------------------------------------------
# series

def poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def series_expansion(numerator, denom_weights, bound):
    """Coefficients up to ``bound`` of numerator / prod (1 - t^w)."""
    coeffs = [0] * (bound + 1)
    for deg, c in numerator.items():
        if 0 <= deg <= bound:
            coeffs[deg] += c
    for wj in denom_weights:
        for t in range(wj, bound + 1):
            coeffs[t] += coeffs[t - wj]
    return coeffs


def complement_counts(gens, w, bound):
    """Number of monomials outside the ideal in each weighted degree."""
    return list(_complement_counts(tuple(sorted(gens)), tuple(w), bound))


@functools.lru_cache(maxsize=256)
def _complement_counts(gens, w, bound):
    counts = [0] * (bound + 1)
    for u in monomials_up_to(len(w), w, bound):
        if not in_ideal(u, gens):
            counts[wdeg(u, w)] += 1
    return tuple(counts)


def numerator_bound(gens, w):
    """A degree that the Hilbert numerator of a stable ideal cannot exceed."""
    return max((wdeg(g, w) for g in gens), default=0) + sum(w)


def hilbert_numerator(gens, w):
    """The Hilbert numerator over prod (1 - t^{w_j}), from complement counts."""
    bound = numerator_bound(gens, w)
    poly = {t: c for t, c in enumerate(complement_counts(gens, w, bound)) if c}
    for wj in w:
        poly = poly_mul(poly, {0: 1, wj: -1})
    return {k: v for k, v in poly.items() if k <= bound}


def check_hilbert(numerator, terms, gens, w, expansion=None):
    bound = numerator_bound(gens, w)
    counts = complement_counts(gens, w, bound)
    require(series_expansion(numerator, w, bound) == counts,
            "Hilbert expansion differs from the complement counts")
    require({k: v for k, v in numerator.items() if v} == hilbert_numerator(gens, w),
            "Hilbert numerator differs")
    if terms is not None:
        total = [0] * (bound + 1)
        for c, s, k in terms:
            for t, v in enumerate(series_expansion({s: c}, w[k:], bound)):
                total[t] += v
        require(total == counts, "structured Hilbert terms differ")
    if expansion is not None:
        require(list(expansion) == complement_counts(gens, w, len(expansion) - 1),
                "Hilbert series coefficients differ")


def check_hilbert_text(text, gens, w):
    """Text mode: the numerator line and the ``series:`` coefficient line."""
    lines = text.strip().splitlines()
    require(len(lines) == 2 and lines[1].startswith("series: "), "unexpected layout")
    numerator = _read_univariate(lines[0].split(") / (")[0].lstrip("("))
    require(numerator == hilbert_numerator(gens, w), "Hilbert numerator differs")
    expansion = [int(v) for v in lines[1][len("series: "):].split()]
    require(expansion == complement_counts(gens, w, len(expansion) - 1),
            "Hilbert series coefficients differ")


def _read_univariate(text):
    """``1 - 9*t^16 + t^17 - t`` into {degree: coefficient}."""
    poly = {}
    for sign, term in re.findall(r"([+-]?)\s*([^+-]+)", text.replace(" ", "")):
        coeff, _, power = term.partition("t")
        coeff = coeff.rstrip("*")
        value = int(coeff) if coeff else 1
        degree = (int(power[1:]) if power.startswith("^") else 1) if "t" in term else 0
        poly[degree] = poly.get(degree, 0) + (-value if sign == "-" else value)
    return {k: v for k, v in poly.items() if v}


def check_stanley(pieces, gens, w):
    """Pieces (coset, free indices) partition the complement of the ideal.

    Up to the numerator's degree bound, every monomial of every piece lies
    outside the ideal, no monomial lies in two pieces, and together they
    number the complement.
    """
    bound = numerator_bound(gens, w)
    n = len(w)
    covered = set()
    for coset, free in pieces:
        require(all(1 <= j <= n for j in free), "free index out of range")
        if wdeg(coset, w) > bound:
            continue
        free = sorted(free)
        sub_w = [w[j - 1] for j in free]
        for v in monomials_up_to(len(free), sub_w, bound - wdeg(coset, w)):
            u = list(coset)
            for j, e in zip(free, v):
                u[j - 1] += e
            u = tuple(u)
            require(u not in covered, f"monomial {u} lies in two pieces")
            require(not in_ideal(u, gens), f"piece of {coset} meets the ideal at {u}")
            covered.add(u)
    require(len(covered) == sum(complement_counts(gens, w, bound)),
            "the pieces miss part of the complement")


def check_poincare(coefficients, gens, w):
    """Graded Betti numbers: first column and N(t) = 1 + P(-1, t)."""
    first = {}
    for g in gens:
        first[wdeg(g, w)] = first.get(wdeg(g, w), 0) + 1
    got_first = {j: c for (i, j), c in coefficients.items() if i == 1 and c}
    require(got_first == first, "beta_1 differs from the generator degrees")
    at_minus_one = {0: 1}
    for (i, j), c in coefficients.items():
        at_minus_one[j] = at_minus_one.get(j, 0) + c * (-1) ** i
    at_minus_one = {k: v for k, v in at_minus_one.items() if v}
    require(at_minus_one == hilbert_numerator(gens, w),
            "Hilbert numerator differs from 1 + P(-1, t)")


def betti_totals(gens, n):
    return [sum(math.comb(max_index(g) - 1, i - 1) for g in gens)
            for i in range(1, n + 1)]


def check_betti(totals, coefficients, gens, w):
    require(list(totals) == betti_totals(gens, len(w)), "Betti totals differ")
    for i, total in enumerate(totals, start=1):
        require(sum(c for (k, _), c in coefficients.items() if k == i) == total,
                f"graded Betti numbers of step {i} do not sum to the total")
    check_poincare(coefficients, gens, w)


# ---------------------------------------------------------------------------
# cones

def rank(rows):
    mat = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col] / mat[r][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def check_rays(rays, normals, n):
    """Each ray is an extreme ray of the closed cone {x : a.x >= 0}."""
    require(len(set(map(tuple, rays))) == len(rays), "duplicate rays")
    for ray in rays:
        values = [sum(a * x for a, x in zip(nrm, ray)) for nrm in normals]
        require(all(v >= 0 for v in values), f"ray {ray} violates a half-space")
        tight = [nrm for nrm, v in zip(normals, values) if v == 0]
        require(rank(tight) == n - 1,
                f"ray {ray} is tight on a system of rank {rank(tight)}, not {n - 1}")
        require(math.gcd(*ray) == 1, f"ray {ray} is not primitive")


def realizes(gens, w):
    """Some generator's w-closure is exactly the ideal."""
    gens = set(gens)
    for m in gens:
        if all(in_principal_closure(g, m, w) for g in gens) \
                and principal_closure_gens(m, w) == gens:
            return True
    return False


def weight_grid(n, top):
    """Non-increasing positive integer vectors with entries at most ``top``."""
    for combo in itertools.combinations_with_replacement(range(top, 0, -1), n):
        yield combo


def check_weight_vector(found, gens, n, search_top):
    if found is not None:
        found = tuple(found)
        require(all(found[i] >= found[i + 1] for i in range(n - 1)) and found[-1] >= 1,
                f"{found} is not a weight vector")
        require(realizes(gens, found), f"{found} does not reproduce the ideal")
        return
    hit = next((v for v in weight_grid(n, search_top) if realizes(gens, v)), None)
    require(hit is None, f"answer 'none', but {hit} realizes the ideal")


def check_constraint_system(halfspaces, empty, candidate, gens, n, search_top):
    """The strict region is exactly the set of weights realizing the ideal.

    Compared on every weight vector with entries up to ``search_top``.
    ``halfspaces`` is a list of (normal, strict) pairs; ``empty`` marks a
    system whose strict region is known to be empty.
    """
    require(candidate == min(gens), "candidate is not the lex-smallest generator")
    for v in weight_grid(n, search_top):
        inside = not empty and all((lambda s: s > 0 if strict else s >= 0)(
            sum(a * b for a, b in zip(normal, v))) for normal, strict in halfspaces)
        require(inside == (principal_closure_gens(candidate, v) == set(gens)),
                f"region membership of {v} disagrees with the closure")


# ---------------------------------------------------------------------------
# trees and diagrams

def factored(u):
    return [i for i, e in enumerate(u, start=1) for _ in range(e)]


def check_tree_ideal(vertices, edges, gens, n):
    """Vertices are the factored-form prefixes of the generators."""
    expected = set()
    for g in gens:
        prefix = [0] * n
        expected.add(tuple(prefix))
        for j in factored(g):
            prefix[j - 1] += 1
            expected.add(tuple(prefix))
    require(set(vertices) == expected, "tree vertices differ")
    require(len(edges) == len(expected) - 1, "tree edge count differs")
    for parent, child in edges:
        diff = [b - a for a, b in zip(parent, child)]
        require(sorted(diff) == [0] * (n - 1) + [1]
                and diff.index(1) + 1 >= max_index(parent), "bad tree edge")


def check_tree_sinks(sinks, m, w):
    require(set(sinks) == principal_closure_gens(m, w),
            "tree sinks are not the closure generators")


def check_catalan(rows, degree, m, w):
    """Generator rows count closure generators by degree and maximal index."""
    n = len(w)
    require(degree == wdeg(m, w), "diagram degree differs")
    require(len(rows) == degree + max(w), "diagram has the wrong number of rows")
    require(list(rows[0]) == [1] + [0] * (n - 1), "first row differs")
    counts = {}
    for g in principal_closure_gens(m, w):
        key = (wdeg(g, w), max_index(g))
        counts[key] = counts.get(key, 0) + 1
    for a in range(degree, len(rows)):
        for b in range(1, n + 1):
            require(rows[a][b - 1] == counts.get((a, b), 0),
                    f"diagram entry ({a},{b}) differs")


# ---------------------------------------------------------------------------
# reading the command line's monomials

_FACTOR = re.compile(r"^(x_?(\d+)|[xyz])(?:\^(\d+))?$")


def parse_monomial(text, n):
    """Read ``x1^2*x3``, ``x*y^2`` or ``1`` into an exponent tuple."""
    exps = [0] * n
    text = text.strip()
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        match = _FACTOR.match(factor.strip())
        require(match is not None, f"unreadable monomial {text!r}")
        index = int(match.group(2)) if match.group(2) else "xyz".index(match.group(1)) + 1
        exps[index - 1] += int(match.group(3) or 1)
    return tuple(exps)


def format_monomial(u):
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}"
             for i, e in enumerate(u, start=1) if e]
    return "*".join(parts) or "1"


def format_ideal(gens):
    return ", ".join(format_monomial(g) for g in sorted(gens))
