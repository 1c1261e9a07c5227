"""Weight-vector cones deciding when a strongly stable ideal is a principal closure."""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from operator import mul, sub

from .closure import w_borel_gens, w_closure
from .ideals import MonomialIdeal
from .monomials import DimensionMismatch, Monomial, WeightVector, _Frozen, _minimal_vectors
from .trees import _prefix_walk


class HalfSpace(_Frozen):
    """A homogeneous linear condition ``normal . w >= 0`` (``> 0`` if strict)."""

    __slots__ = ("normal", "strict")

    def __init__(self, normal: tuple[int, ...], strict: bool = False):
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "strict", strict)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.normal, self.strict) == (other.normal, other.strict)
        return NotImplemented

    def __hash__(self):
        return hash((self.normal, self.strict))

    def __repr__(self):
        return f"HalfSpace(normal={self.normal!r}, strict={self.strict!r})"

    def value(self, w) -> int:
        if len(w) != len(self.normal):
            raise DimensionMismatch(f"variable counts differ: {len(self.normal)} vs {len(w)}")
        return sum(map(mul, self.normal, w))

    def holds(self, w, closed: bool = False) -> bool:
        v = self.value(w)
        return v >= 0 if (closed or not self.strict) else v > 0


class ConstraintSystem(_Frozen):
    """Half-space description of the weight vectors realizing a principal closure.

    Contains the degree comparisons against sinks and subsinks of the
    generator walk, the branching conditions at its interior vertices, and the
    monotonicity/positivity constraints that every weight vector satisfies.
    ``candidate`` is the lexicographically smallest generator, the only
    possible single closure generator.  ``trivially_empty`` marks a strict
    condition that degenerated to ``0 > 0``; only a hand-built system sets
    it, since :func:`constraint_system` never writes one.
    """

    __slots__ = ("nvars", "halfspaces", "candidate", "trivially_empty")

    def __init__(self, nvars: int, halfspaces: tuple[HalfSpace, ...], candidate: Monomial,
                 trivially_empty: bool = False):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "halfspaces", halfspaces)
        object.__setattr__(self, "candidate", candidate)
        object.__setattr__(self, "trivially_empty", trivially_empty)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.nvars, self.halfspaces, self.candidate, self.trivially_empty)
                    == (other.nvars, other.halfspaces, other.candidate, other.trivially_empty))
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.halfspaces, self.candidate, self.trivially_empty))

    def __repr__(self):
        return (f"ConstraintSystem(nvars={self.nvars!r}, halfspaces={self.halfspaces!r}, "
                f"candidate={self.candidate!r}, trivially_empty={self.trivially_empty!r})")

    def open_region_contains(self, w) -> bool:
        """Membership with strict constraints honored."""
        if self.trivially_empty:
            return False
        return all(h.holds(w) for h in self.halfspaces)

    def closed_cone_contains(self, w) -> bool:
        """Membership in the closure (all constraints relaxed to non-strict)."""
        return all(h.holds(w, closed=True) for h in self.halfspaces)


class Cone(_Frozen):
    """Extreme rays (primitive integer vectors) of a pointed rational cone."""

    __slots__ = ("rays", "lineality")

    def __init__(self, rays: tuple[tuple[int, ...], ...],
                 lineality: tuple[tuple[int, ...], ...] = ()):
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "lineality", lineality)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rays, self.lineality) == (other.rays, other.lineality)
        return NotImplemented

    def __hash__(self):
        return hash((self.rays, self.lineality))

    def __repr__(self):
        return f"Cone(rays={self.rays!r}, lineality={self.lineality!r})"


def _parent(b):
    """``b`` less its last factor: one off the exponent of its largest variable."""
    j = max(p for p, e in enumerate(b) if e)
    return b[:j] + (b[j] - 1,) + b[j + 1:]


def constraint_system(ideal: MonomialIdeal) -> ConstraintSystem:
    """Half-space system for the weights making ``ideal`` a principal closure.

    Requires a strongly stable ideal with at least one generator, else
    raises :class:`~wstable.closure.NotWStableError` naming the first
    missing closure generator.  A row ``(u, v, strict)`` reads ``w . u >=
    w . v`` (``>`` if strict); its normal is ``u - v``.  With ``a`` the
    candidate and ``a<=k = a[:k] + 0``, the prefix walk over the generators
    gives, each family sorted: ``(b, a)`` for each sink ``b`` (a generator);
    ``(a, p, strict)`` for each subsink ``p`` (a generator less its last
    factor); ``(b, a<=k-1)`` and ``(a<=k, b, strict)`` for each interior
    vertex ``b`` (a proper prefix; ``k`` its largest appended index); then
    ``(e_p, e_{p+1})`` for ``p < n`` and ``(e_n, 0, strict)``.  Zero normals
    and repeats are dropped.

    No strict row vanishes, so ``trivially_empty`` stays unset.  A subsink
    row vanishes only if ``a`` is a generator's parent, which it then
    properly divides, against minimality.  An interior strict row vanishes
    only if ``b = a<=k``.  If ``a`` has a factor past ``k``, ``b`` is a
    proper prefix of ``a`` and the walk appends that factor's index, above
    ``k``, to ``b``, against the choice of ``k``.  Otherwise ``b = a`` is a
    proper prefix of another generator, against minimality.
    """
    n = ideal.nvars
    w_borel_gens(ideal, WeightVector.ones(n))
    if ideal.is_zero():
        raise ValueError("the zero ideal has no candidate generator")
    m = ideal.lex_smallest_gen()
    a = m.exponents
    zero = (0,) * n
    head = [a[:k] + zero[k:] for k in range(n + 1)]
    unit = [zero[:p] + (1,) + zero[p + 1:] for p in range(n)]
    sinks = sorted(g.exponents for g in ideal.gens)
    nexts = _prefix_walk(sinks)
    rows = [(b, a, False) for b in sinks]
    rows += [(a, p, True) for p in sorted({_parent(b) for b in sinks if any(b)})]
    for b in sorted(nexts):
        k = max(nexts[b])
        rows += [(b, head[k - 1], False), (head[k], b, True)]
    rows += [(u, v, False) for u, v in zip(unit, unit[1:])]
    rows.append((unit[-1], zero, True))
    halfspaces = (HalfSpace(tuple(map(sub, u, v)), strict) for u, v, strict in rows)
    return ConstraintSystem(n, tuple(dict.fromkeys(h for h in halfspaces if any(h.normal))), m)


# ---------------------------------------------------------------------------
# double description

def _primitive(vec) -> tuple[int, ...]:
    vec = tuple(vec)
    g = 0
    for v in vec:
        g = gcd(g, v)
    return tuple(v // g for v in vec) if g else vec


def _essential(halfspaces, nvars: int) -> list[tuple[int, ...]]:
    """The prefix sums ``A`` of the rows that neither ``d >= 0`` nor another row implies.

    A row is kept when some ``A_k`` is negative and ``A`` is minimal under
    componentwise ``<=`` among those rows: the shared filter
    :func:`~wstable.monomials._minimal_vectors`, in its (sum, vector) order.
    Strictness is dropped.  :func:`cone_rays` gives the argument.  A row
    whose length is not ``nvars`` raises ``DimensionMismatch``.
    """
    rows = {tuple(accumulate(h.normal)) for h in halfspaces}
    for s in rows:
        if len(s) != nvars:
            raise DimensionMismatch(f"variable counts differ: {len(s)} vs {nvars}")
    return _minimal_vectors(s for s in rows if min(s) < 0)


def cone_rays(system: ConstraintSystem) -> Cone:
    """Extreme rays of the closed cone of a constraint system.

    Exact double description in the coordinates ``d_k = w_k - w_{k+1}``
    (``w_{n+1} = 0``).  Abel summation gives ``a . w = sum_k A_k d_k`` with
    ``A`` the prefix sums of ``a``, and the monotone rows become ``d >= 0``.
    So a row whose ``A`` is ``>= 0`` holds on that whole orthant, and a row
    whose ``A`` lies componentwise at or above another's holds wherever that
    one does: :func:`_essential` drops both, and strictness, which the closed
    cone ignores.

    The orthant's unit vectors seed the rays, and each kept row is processed
    in turn, keeping non-negative rays and adding combinations of adjacent
    positive/negative pairs.  Every ray carries the bit set of processed
    constraints tight at it, and adjacency is the combinatorial test of
    Fukuda and Prodon: two rays are adjacent when they share at least
    ``n - 2`` tight constraints and no third ray is tight on all of them.
    The seed is pointed, so there is no lineality space.  Suffix sums map the
    rays back to ``w``; the map is unimodular, so they stay primitive and
    distinct.  They come back in lexicographic descending order.
    """
    n = system.nvars
    # ray -> bit set of the processed constraints it is tight on; bit p is d_p >= 0
    rays = {tuple(int(q == p) for q in range(n)): ((1 << n) - 1) ^ (1 << p) for p in range(n)}
    for k, row in enumerate(_essential(system.halfspaces, n), start=n):
        values = {r: sum(map(mul, row, r)) for r in rays}
        bit = 1 << k
        pos = [r for r in rays if values[r] > 0]
        neg = [r for r in rays if values[r] < 0]
        new = {r: z | bit if not values[r] else z
               for r, z in rays.items() if values[r] >= 0}
        for rp in pos:
            for rn in neg:
                common = rays[rp] & rays[rn]
                if common.bit_count() < n - 2 or any(
                        r not in (rp, rn) and common & z == common
                        for r, z in rays.items()):
                    continue
                combo = _primitive(
                    values[rp] * x - values[rn] * y for x, y in zip(rn, rp))
                new[combo] = common | bit
        rays = new
    return Cone(tuple(sorted((tuple(accumulate(d[::-1]))[::-1] for d in rays), reverse=True)))


def _ray_sum(system: ConstraintSystem) -> tuple[int, ...]:
    rays = cone_rays(system).rays
    return tuple(sum(r[p] for r in rays) for p in range(system.nvars))


def open_region_is_empty(system: ConstraintSystem) -> bool:
    """Decide emptiness of the strict region from the extreme rays.

    The closed cone is pointed, so the sum of its extreme rays lies in its
    relative interior.  A strict constraint is positive there unless it
    vanishes on the whole cone, so the region is empty exactly when the ray
    sum fails it.
    """
    return not system.open_region_contains(_ray_sum(system))


def principal_weight_vector(ideal: MonomialIdeal):
    """A verified weight vector realizing ``ideal`` as a principal closure.

    Returns ``None`` when no weight vector exists (the strict region is
    empty).  Otherwise returns the sum of the extreme rays of the closed
    cone, which lies in the strict region, after verifying it by
    recomputing the closure of the candidate generator.
    """
    system = constraint_system(ideal)
    vec = _ray_sum(system)
    if not system.open_region_contains(vec):
        return None
    w = WeightVector(vec)
    if w_closure([system.candidate], w) != ideal:
        raise RuntimeError(
            f"ray sum {vec} lies in the strict region but does not realize the ideal")
    return w
