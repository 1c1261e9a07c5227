"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive: single Borel moves to a fixpoint,
direct monomial enumeration, and membership tests by divisibility.  The
oracles never call the code paths they check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from wstable import Monomial, MonomialIdeal, WeightVector, psi


def monomials_of_degree(n: int, d: int):
    """All monomials in n variables of total degree d."""
    if n == 1:
        yield Monomial((d,))
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - first):
            yield Monomial((first,) + rest.exponents)


def all_monomials(n: int, max_degree: int):
    for d in range(max_degree + 1):
        yield from monomials_of_degree(n, d)


def monomials_of_weighted_degree(n: int, w: WeightVector, t: int):
    """All monomials with the given weighted degree."""
    if n == 1:
        q, r = divmod(t, w[0])
        if r == 0:
            yield Monomial((q,))
        return
    tail = WeightVector(tuple(w)[1:])
    for e in range(t // w[0] + 1):
        for rest in monomials_of_weighted_degree(n - 1, tail, t - e * w[0]):
            yield Monomial((e,) + rest.exponents)


def single_borel_moves(m: Monomial):
    """All monomials obtained from m by one exchange x_j -> x_i with i < j."""
    for j in range(2, m.nvars + 1):
        if m.exponents[j - 1] == 0:
            continue
        for i in range(1, j):
            exps = list(m.exponents)
            exps[j - 1] -= 1
            exps[i - 1] += 1
            yield Monomial(tuple(exps))


def borel_closure_by_moves(monomials, n: int) -> MonomialIdeal:
    """Strongly stable closure as the fixpoint of single Borel moves."""
    reached = set(monomials)
    frontier = list(reached)
    while frontier:
        m = frontier.pop()
        for moved in single_borel_moves(m):
            if moved not in reached:
                reached.add(moved)
                frontier.append(moved)
    return MonomialIdeal(n, reached)


def in_w_closure_oracle(u: Monomial, gens, w: WeightVector) -> bool:
    """Membership of u in the weighted closure of ``gens`` by the definition.

    Substitutes everything into the standard-graded ring, takes the
    move-fixpoint closure there, and tests divisibility membership of the
    substituted image.
    """
    image_ideal = borel_closure_by_moves([psi(g, w) for g in gens], w.nvars)
    return image_ideal.contains(psi(u, w))


def complement_counts(ideal: MonomialIdeal, w: WeightVector, bound: int):
    """Number of monomials outside the ideal, per weighted degree 0..bound."""
    counts = []
    for t in range(bound + 1):
        counts.append(sum(1 for m in monomials_of_weighted_degree(ideal.nvars, w, t)
                          if not ideal.contains(m)))
    return counts


def ideal_monomials_up_to_degree(ideal: MonomialIdeal, max_degree: int):
    """All members of the ideal with total degree at most ``max_degree``."""
    for m in all_monomials(ideal.nvars, max_degree):
        if ideal.contains(m):
            yield m


def distinct_part_partitions(total: int, parts, count: int) -> int:
    """Number of ways to pick ``count`` distinct entries of ``parts`` summing to ``total``.

    ``parts`` is a sequence of values (one per position); positions are
    distinct even when values repeat.
    """
    hits = 0
    for combo in itertools.combinations(parts, count):
        if sum(combo) == total:
            hits += 1
    return hits


def random_monomial(rng, n: int, max_exponent: int = 3) -> Monomial:
    return Monomial(tuple(rng.randint(0, max_exponent) for _ in range(n)))


def random_weight_vector(rng, n: int, max_weight: int = 4) -> WeightVector:
    ws = sorted((rng.randint(1, max_weight) for _ in range(n)), reverse=True)
    return WeightVector(tuple(ws))


# ---------------------------------------------------------------------------
# cones, on plain integer tuples and independent of ``wstable``

def primitive(vec) -> tuple[int, ...]:
    """The vector divided by the gcd of its entries."""
    vec = tuple(vec)
    g = 0
    for v in vec:
        g = gcd(g, v)
    return tuple(v // g for v in vec) if g else vec


def _row_reduce(rows, n: int):
    """Reduced row echelon form over the rationals, and its pivot columns."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [v - factor * p for v, p in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots


def rank(rows, n: int) -> int:
    return len(_row_reduce(rows, n)[1])


def kernel_basis(rows, n: int):
    """Primitive integer basis of the common kernel of the given row vectors."""
    mat, pivots = _row_reduce(rows, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][free]
        lcm = 1
        for v in vec:
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        basis.append(primitive(int(v * lcm) for v in vec))
    return basis


def fourier_motzkin_is_empty(constraints, n: int) -> bool:
    """Whether ``{w : a.w >= 0, and > 0 where strict}`` is empty.

    ``constraints`` are ``(normal, strict)`` pairs.  Fourier-Motzkin
    elimination of every coordinate, tracking strictness through each
    combination, so the answer is exact over the rationals.
    """
    def keep_strict(cs):
        # a strict and a non-strict copy of the same normal: the strict one wins
        return {(a, st) for a, st in cs if st or (a, True) not in cs}

    constraints = keep_strict({(tuple(a), st) for a, st in constraints})
    for col in range(n):
        nxt = {(a, st) for a, st in constraints if not a[col]}
        pos = [(a, st) for a, st in constraints if a[col] > 0]
        neg = [(a, st) for a, st in constraints if a[col] < 0]
        for ap, sp in pos:
            for an, sn in neg:
                combo = tuple(ap[col] * y - an[col] * x for x, y in zip(ap, an))
                if any(combo):
                    nxt.add((primitive(combo), sp or sn))
                elif sp or sn:
                    return True
        constraints = keep_strict(nxt)
    return any(st for _, st in constraints)
