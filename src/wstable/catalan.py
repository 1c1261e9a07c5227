"""Weighted Catalan diagrams of principal closures."""

from __future__ import annotations

from .monomials import (
    Monomial,
    WeightVector,
    _branch_limits,
    _Frozen,
    _check_nvars,
    weighted_degree,
)


class CatalanDiagram(_Frozen):
    """Integer matrix counting truncation-tree data of a principal closure.

    Row ``a`` runs over weighted degrees 0 .. d + max(w) - 1 where ``d`` is
    the weighted degree of the monomial; column ``b`` (1-based) tracks the
    maximal variable index.  Rows below ``d`` count the tree's interior
    vertices by degree; rows from ``d`` on count minimal generators of the
    closure by degree and maximal index.
    """

    __slots__ = ("monomial", "weights", "degree", "rows")

    def __init__(self, monomial: Monomial, weights: WeightVector, degree: int,
                 rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.monomial, self.weights, self.degree, self.rows)
                    == (other.monomial, other.weights, other.degree, other.rows))
        return NotImplemented

    def __hash__(self):
        return hash((self.monomial, self.weights, self.degree, self.rows))

    def __repr__(self):
        return (f"CatalanDiagram(monomial={self.monomial!r}, weights={self.weights!r}, "
                f"degree={self.degree!r}, rows={self.rows!r})")

    @property
    def nvars(self) -> int:
        return self.monomial.nvars

    def entry(self, a: int, b: int) -> int:
        """Entry at weighted degree ``a`` and 1-based column ``b``."""
        if not (0 <= a < len(self.rows) and 1 <= b <= self.nvars):
            raise IndexError(
                f"entry ({a}, {b}) outside rows 0..{len(self.rows) - 1}, columns 1..{self.nvars}")
        return self.rows[a][b - 1]

    def row_sum(self, a: int) -> int:
        if not 0 <= a < len(self.rows):
            raise IndexError(f"row {a} outside rows 0..{len(self.rows) - 1}")
        return sum(self.rows[a])

    def text_lines(self) -> list[str]:
        """Rows rendered ``| 1 0 0 |`` style with right-aligned columns."""
        widths = [max(len(str(row[j])) for row in self.rows)
                  for j in range(self.nvars)]
        return ["| " + " ".join(str(v).rjust(w) for v, w in zip(row, widths)) + " |"
                for row in self.rows]


def catalan_diagram(m: Monomial, w: WeightVector) -> CatalanDiagram:
    """Fill the weighted Catalan diagram of ``m`` by the branching recursion.

    The entry at (a, b) sums the entries of row ``a - w_b`` up to column
    ``b`` provided that source row lies strictly below the weighted degree
    of ``m`` and that the branching limit of ``m`` at the source row
    reaches column ``b``; otherwise it is zero.
    """
    _check_nvars(m, w)
    n = m.nvars
    d = weighted_degree(m, w)
    limits = _branch_limits(m.exponents, w, d)
    nrows = d + w.max_weight
    rows = [[0] * n for _ in range(nrows)]
    rows[0][0] = 1
    for a in range(1, nrows):
        for b in range(1, n + 1):
            src = a - w[b - 1]
            if 0 <= src < d and limits[src] >= b:
                rows[a][b - 1] = sum(rows[src][:b])
    return CatalanDiagram(m, w, d, tuple(tuple(r) for r in rows))


def generator_stats(diagram: CatalanDiagram) -> list[tuple[int, int, int]]:
    """Nonzero generator counts from the rows at and above the degree of ``m``.

    Returns triples (weighted degree, maximal index, count); these describe
    the minimal generating set of the principal closure.
    """
    stats = []
    for a in range(diagram.degree, len(diagram.rows)):
        for b in range(1, diagram.nvars + 1):
            q = diagram.entry(a, b)
            if q:
                stats.append((a, b, q))
    return stats
