"""Truncation trees of monomials and generator trees of ideals."""

from __future__ import annotations

from collections import deque
from operator import index

from .closure import _close
from .ideals import MonomialIdeal
from .monomials import (
    Monomial,
    WeightVector,
    _check_nvars,
    _Frozen,
    _prefix_sums,
    weighted_degree,
)


class TruncationTree(_Frozen):
    """A rooted tree of monomials with edges that append one variable.

    Every non-root vertex has exactly one parent, and an edge from ``v``
    appends a variable of index at least ``max_index(v)``, so each vertex's
    factored form is the path from the root.  ``degree_bound`` records the
    weighted-degree bound used during construction (None for generator
    trees of ideals, which are not degree-bounded).
    """

    __slots__ = ("root", "edges", "degree_bound", "_children")

    def __init__(self, root: Monomial, edges: frozenset[tuple[Monomial, Monomial]],
                 degree_bound: int | None = None):
        children: dict[Monomial, list[Monomial]] = {root: []}
        for parent, child in edges:
            children.setdefault(parent, []).append(child)
            children.setdefault(child, [])
        for kids in children.values():
            kids.sort(key=lambda m: m.exponents, reverse=True)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "degree_bound", degree_bound)
        object.__setattr__(self, "_children", children)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.root, self.edges, self.degree_bound)
                    == (other.root, other.edges, other.degree_bound))
        return NotImplemented

    def __hash__(self):
        return hash((self.root, self.edges, self.degree_bound))

    def __repr__(self):
        return (f"TruncationTree(root={self.root!r}, edges={self.edges!r}, "
                f"degree_bound={self.degree_bound!r})")

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
        return [f"{fmt(v)}: {' '.join(map(fmt, self._children[v]))}".rstrip()
                for v in self.bfs_vertices()]


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


def _prefix_tree(nvars: int, sinks, bound: int | None) -> TruncationTree:
    """The tree of factored-form prefixes of the exponent vectors ``sinks``."""
    edges = frozenset((Monomial._of(v), Monomial._of(v[:j - 1] + (v[j - 1] + 1,) + v[j:]))
                      for v, nexts in _prefix_walk(sinks).items() for j in nexts)
    return TruncationTree(Monomial.unit(nvars), edges, bound)


def _truncation_sinks(m: Monomial, w: WeightVector, bound) -> tuple[int, set]:
    """The checked bound and the sinks, as exponent tuples, of the truncation tree of ``m``.

    With ``P`` the weighted prefix sums of ``m`` and ``q`` its maximal index,
    a vertex of weighted degree ``d < bound`` branches up to the least ``k``
    with ``P_k > d``, capped at ``q``.  The sinks are the minimal generators
    of ``P(u) >= Q`` for the clamped seed ``Q_k = min(P_k, bound)`` (``k <
    q``), ``Q_k = bound`` (``k >= q``); ``Q = P`` at the default bound.
    ``Q`` is non-decreasing, all the closure walk needs.  For ``d < bound``,
    ``Q_k > d`` exactly when ``P_k > d`` (``k < q``), and ``Q_q = bound >
    d``, so the least such ``k`` is the cap: the walk of ``P(u) >= Q``
    branches like the tree.  Every vertex below the bound has a child, so
    the tree is the prefix tree of its sinks.
    """
    _check_nvars(m, w)
    bound = weighted_degree(m, w) if bound is None else index(bound)
    prefix = _prefix_sums(m.exponents, w)
    q = max((k for k, e in enumerate(m.exponents, start=1) if e), default=1)
    seed = tuple(min(p, bound) for p in prefix[:q - 1]) + (bound,) * (len(prefix) - q + 1)
    return bound, _close([seed], w)


def tree_from_monomial(m: Monomial, w: WeightVector, bound: int | None = None) -> TruncationTree:
    """The branching tree of the principal weighted closure of ``m``.

    Starting at the unit monomial, a vertex ``v`` below the weighted-degree
    bound branches to ``v * x_j`` for every ``j`` from ``max_index(v)`` up
    to the maximal index of the appropriate truncation of the substituted
    image of ``m``.  With the default bound (the weighted degree of ``m``)
    the sinks are exactly the minimal generators of the closure.
    """
    bound, sinks = _truncation_sinks(m, w, bound)
    return _prefix_tree(m.nvars, sinks, bound)


def iter_tree_sinks(m: Monomial, w: WeightVector, bound: int | None = None):
    """Yield the sorted sink set of :func:`_truncation_sinks`: by degree, exponents descending.

    A generator only so that perfbench's tracer counts ``trees.sinks`` in its generator branch.
    """
    bound, sinks = _truncation_sinks(m, w, bound)
    yield from map(Monomial._of, sorted(sorted(sinks, reverse=True), key=sum))


def tree_from_ideal(ideal: MonomialIdeal) -> TruncationTree:
    """The tree of factored-form prefixes of the minimal generators of ``ideal``.

    There is an edge ``(v, v*x_j)`` exactly when ``v*x_j`` is a prefix of
    some minimal generator.  For a strongly stable ideal the sinks are the
    minimal generators, and the interior vertices tile the complement:
    ``v`` covers ``v`` times the monomials in those ``x_j``, ``j >=
    max_index(v)``, that have no edge from ``v`` (Eliahou-Kervaire).
    """
    return _prefix_tree(ideal.nvars, (g.exponents for g in ideal.gens), None)
