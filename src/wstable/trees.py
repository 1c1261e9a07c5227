"""Truncation trees of monomials and generator trees of ideals."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .ideals import MonomialIdeal
from .monomials import (
    Monomial,
    WeightVector,
    _branch_limits,
    _check_nvars,
    weighted_degree,
)


@dataclass(frozen=True)
class TruncationTree:
    """A rooted tree of monomials with edges that append one variable.

    Every non-root vertex has exactly one parent, and an edge from ``v``
    appends a variable of index at least ``max_index(v)``, so each vertex's
    factored form is the path from the root.  ``degree_bound`` records the
    weighted-degree bound used during construction (None for generator
    trees of ideals, which are not degree-bounded).
    """

    root: Monomial
    edges: frozenset[tuple[Monomial, Monomial]]
    degree_bound: int | None = None
    _children: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        children: dict[Monomial, list[Monomial]] = {self.root: []}
        for parent, child in self.edges:
            children.setdefault(parent, []).append(child)
            children.setdefault(child, [])
        for kids in children.values():
            kids.sort(key=lambda m: m.exponents, reverse=True)
        object.__setattr__(self, "_children", children)

    @property
    def nvars(self) -> int:
        return self.root.nvars

    def vertices(self) -> set[Monomial]:
        return set(self._children)

    def children(self, v: Monomial) -> list[Monomial]:
        """Children of ``v``, ordered by the index of the appended variable."""
        return list(self._children[v])

    def sinks(self) -> set[Monomial]:
        """Vertices with no outgoing edges."""
        return {v for v, kids in self._children.items() if not kids}

    def subsinks(self) -> set[Monomial]:
        """Vertices with an edge into a sink."""
        sinks = self.sinks()
        return {v for v, kids in self._children.items() if any(c in sinks for c in kids)}

    def bfs_vertices(self) -> list[Monomial]:
        """All vertices in breadth-first order starting at the root."""
        order = []
        queue = deque([self.root])
        while queue:
            v = queue.popleft()
            order.append(v)
            queue.extend(self._children[v])
        return order

    def adjacency_lines(self, fmt=None) -> list[str]:
        """One ``vertex: child child ...`` line per vertex, breadth first."""
        if fmt is None:
            from .parsing import format_monomial
            fmt = format_monomial
        lines = []
        for v in self.bfs_vertices():
            kids = " ".join(fmt(c) for c in self._children[v])
            lines.append(f"{fmt(v)}: {kids}".rstrip())
        return lines


def _expand(exponents, weights, bound: int):
    """Breadth-first ``(vertex, children)`` pairs of a truncation tree, on exponent tuples.

    A vertex of weighted degree ``d < bound`` appends ``x_j`` for ``j`` from
    its maximal index up to the seed's branching limit at ``d``
    (:func:`~wstable.monomials._branch_limits`).  These limits grow with
    ``d``, so every vertex below the bound has a child and the sinks are
    the vertices at or above it.
    """
    weights = tuple(weights)
    jmax = _branch_limits(exponents, weights, bound)
    queue = deque([((0,) * len(exponents), 0, 1)])  # vertex, weighted degree, max index
    while queue:
        v, dv, lo = queue.popleft()
        kids = []
        if dv < bound:
            for j in range(lo, jmax[dv] + 1):
                child = v[:j - 1] + (v[j - 1] + 1,) + v[j:]
                kids.append(child)
                queue.append((child, dv + weights[j - 1], j))
        yield v, kids


def tree_from_monomial(m: Monomial, w: WeightVector, bound: int | None = None) -> TruncationTree:
    """The branching tree of the principal weighted closure of ``m``.

    Starting at the unit monomial, a vertex ``v`` below the weighted-degree
    bound branches to ``v * x_j`` for every ``j`` from ``max_index(v)`` up
    to the maximal index of the appropriate truncation of the substituted
    image of ``m``.  With the default bound (the weighted degree of ``m``)
    the sinks are exactly the minimal generators of the closure.
    """
    _check_nvars(m, w)
    if bound is None:
        bound = weighted_degree(m, w)
    edges = set()
    for v, kids in _expand(m.exponents, w, bound):
        parent = Monomial._of(v)
        edges.update((parent, Monomial._of(c)) for c in kids)
    return TruncationTree(Monomial.unit(m.nvars), frozenset(edges), bound)


def iter_tree_sinks(m: Monomial, w: WeightVector, bound: int | None = None):
    """Stream the sinks of :func:`tree_from_monomial` without storing edges."""
    _check_nvars(m, w)
    if bound is None:
        bound = weighted_degree(m, w)
    for v, kids in _expand(m.exponents, w, bound):
        if not kids:
            yield Monomial._of(v)


def _prefix_walk(gens) -> dict:
    """Map each proper factored prefix of the exponent vectors to the indices appended to it.

    A vector drops its last factor until it reaches a prefix already
    recorded, whose own prefixes are recorded too.
    """
    nexts = {}
    for v in gens:
        j = len(v)
        while j:
            if not v[j - 1]:
                j -= 1
                continue
            v = v[:j - 1] + (v[j - 1] - 1,) + v[j:]
            if v in nexts:
                nexts[v].add(j)
                break
            nexts[v] = {j}
    return nexts


def tree_from_ideal(ideal: MonomialIdeal) -> TruncationTree:
    """The tree of factored-form prefixes of the minimal generators of ``ideal``.

    There is an edge ``(v, v*x_j)`` exactly when ``v*x_j`` is a prefix of
    some minimal generator.  For a strongly stable ideal the sinks are the
    minimal generators, and the interior vertices tile the complement:
    ``v`` covers ``v`` times the monomials in those ``x_j``, ``j >=
    max_index(v)``, that have no edge from ``v`` (Eliahou-Kervaire).
    """
    edges = set()
    for v, nexts in _prefix_walk(g.exponents for g in ideal.gens).items():
        parent = Monomial._of(v)
        edges.update((parent, parent.times_variable(j)) for j in nexts)
    return TruncationTree(Monomial.unit(ideal.nvars), frozenset(edges), None)
