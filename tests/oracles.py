"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive: single Borel moves to a fixpoint,
direct monomial enumeration, and membership tests by divisibility, all on
plain exponent tuples.  The oracles never call the code paths they check:
``wstable`` supplies only the ``Monomial``, ``MonomialIdeal`` and
``WeightVector`` containers that they return.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from math import gcd
from operator import le

from wstable import Monomial, MonomialIdeal, WeightVector


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


def _moves(exps):
    """Exponent tuples reached from ``exps`` by one exchange x_j -> x_i with i < j."""
    for j in range(1, len(exps)):
        if exps[j]:
            for i in range(j):
                moved = list(exps)
                moved[j] -= 1
                moved[i] += 1
                yield tuple(moved)


def _move_fixpoint(vectors):
    """Exponent tuples reached from ``vectors`` by single Borel moves."""
    reached = set(vectors)
    frontier = list(reached)
    while frontier:
        for moved in _moves(frontier.pop()):
            if moved not in reached:
                reached.add(moved)
                frontier.append(moved)
    return reached


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _in_ideal(u, gens) -> bool:
    return any(_divides(g, u) for g in gens)


def _in_coset(u, coset, free) -> bool:
    """Whether ``u`` is ``coset`` times a monomial in the 1-based indices ``free``."""
    return all(a == c or (a > c and i in free)
               for i, (a, c) in enumerate(zip(u, coset), start=1))


def _minimal_exponents(vectors) -> set[tuple[int, ...]]:
    """The divisibility-minimal exponent tuples, by a pairwise scan.

    A tuple one step above another tuple of the set is not minimal, so it
    is dropped before the scan.  Every minimal tuple survives the drop, so
    the scan still finds a divisor of each remaining tuple that is not.
    """
    vectors = set(vectors)
    rest = {a for a in vectors
            if not any(e and a[:i] + (e - 1,) + a[i + 1:] in vectors for i, e in enumerate(a))}
    return {a for a in rest if not any(b != a and _divides(b, a) for b in rest)}


def _ideal(n: int, vectors) -> MonomialIdeal:
    # the generators are minimal already, so the library's minimalize is skipped
    return MonomialIdeal._minimal(n, (Monomial(v) for v in _minimal_exponents(vectors)))


def borel_closure_by_moves(monomials, n: int) -> MonomialIdeal:
    """Strongly stable closure as the fixpoint of single Borel moves."""
    return _ideal(n, _move_fixpoint(m.exponents for m in monomials))


def _psi(exps, w):
    return tuple(wi * e for wi, e in zip(w, exps))


def in_w_closure_oracle(u: Monomial, gens, w: WeightVector) -> bool:
    """Membership of u in the weighted closure of ``gens`` by the definition.

    Substitutes everything into the standard-graded ring, takes the
    move-fixpoint closure there, and tests divisibility membership of the
    substituted image.
    """
    reached = _move_fixpoint(_psi(g.exponents, w) for g in gens)
    return _in_ideal(_psi(u.exponents, w), reached)


def w_closure_oracle(gens, w: WeightVector) -> MonomialIdeal:
    """The weighted closure of ``gens`` by the definition.

    The move fixpoint of the substituted images generates their standard
    closure; its pullback is generated by the vectors ``ceil(r_i / w_i)``.
    """
    reached = _move_fixpoint(_psi(g.exponents, w) for g in gens)
    pulled = {tuple(-(-r // wi) for r, wi in zip(v, w)) for v in reached}
    return _ideal(w.nvars, pulled)


def truncation_tree_bfs(exponents, weights, bound: int):
    """Breadth-first ``(vertex, children)`` pairs of a seed's truncation tree, on exponent tuples.

    A vertex of weighted degree ``d < bound`` appends ``x_j`` for ``j`` from
    its maximal index up to the seed's branching limit at ``d``: the least
    ``k`` whose weighted prefix sum exceeds ``d``, capped at the seed's
    maximal index (1 for the unit seed).  Children come in ``j`` order.
    """
    prefix = list(itertools.accumulate(wi * e for wi, e in zip(weights, exponents)))
    top = max((k for k, e in enumerate(exponents, start=1) if e), default=1)
    limits = [min([k for k, p in enumerate(prefix, start=1) if p > d] + [top])
              for d in range(bound)]
    queue = deque([((0,) * len(exponents), 0, 1)])  # vertex, weighted degree, max index
    while queue:
        v, dv, lo = queue.popleft()
        kids = []
        if dv < bound:
            for j in range(lo, limits[dv] + 1):
                child = v[:j - 1] + (v[j - 1] + 1,) + v[j:]
                kids.append(child)
                queue.append((child, dv + weights[j - 1], j))
        yield v, kids


def complement_counts(ideal: MonomialIdeal, w: WeightVector, bound: int):
    """Number of monomials outside the ideal, per weighted degree 0..bound."""
    gens = [g.exponents for g in ideal.gens]
    counts = []
    for t in range(bound + 1):
        counts.append(sum(1 for m in monomials_of_weighted_degree(ideal.nvars, w, t)
                          if not _in_ideal(m.exponents, gens)))
    return counts


def ideal_monomials_up_to_degree(ideal: MonomialIdeal, max_degree: int):
    """All members of the ideal with total degree at most ``max_degree``."""
    gens = [g.exponents for g in ideal.gens]
    for m in all_monomials(ideal.nvars, max_degree):
        if _in_ideal(m.exponents, gens):
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


def principal_cases(seed: int, count: int = 300):
    """Seeded ``(m, w)`` pairs: n = 1-4, exponents <= 3, weights <= 4.

    The list starts with the unit monomial in one and in three variables.
    """
    rng = random.Random(seed)
    cases = [(Monomial.unit(1), WeightVector((3,))), (Monomial.unit(3), WeightVector((4, 2, 1)))]
    while len(cases) < count:
        n = rng.randint(1, 4)
        cases.append((random_monomial(rng, n), random_weight_vector(rng, n)))
    return cases


# ---------------------------------------------------------------------------
# cones, on plain integer tuples and independent of ``wstable``

def primitive(vec) -> tuple[int, ...]:
    """The vector divided by the gcd of its entries."""
    vec = tuple(vec)
    g = 0
    for v in vec:
        g = gcd(g, v)
    return tuple(v // g for v in vec) if g else vec


def monotone_seed(n: int):
    """Rays and normals of the cone of non-increasing non-negative vectors in ``n`` entries.

    The rays are ``(1, ..., 1, 0, ..., 0)`` with ``p + 1`` ones; the normals
    are ``w_p - w_{p+1} >= 0`` for ``p < n - 1``, then ``w_n >= 0``.
    """
    rays = [tuple(1 if q <= p else 0 for q in range(n)) for p in range(n)]
    normals = [tuple(1 if q == p else -1 if q == p + 1 else 0 for q in range(n))
               for p in range(n - 1)]
    normals.append(tuple(1 if q == n - 1 else 0 for q in range(n)))
    return rays, normals


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
