"""Stanley decompositions, Hilbert series, Poincare series, and Betti numbers."""

from __future__ import annotations

from collections import Counter
from operator import mul

from .catalan import catalan_diagram
from .closure import w_borel_gens
from .ideals import MonomialIdeal
from .monomials import Monomial, WeightVector, _branch_limits, _Frozen, max_index
from .trees import _prefix_walk


# ---------------------------------------------------------------------------
# sparse-polynomial helpers: dicts from exponents to coefficients.  Sums
# accept any exponent keys; products add exponent tuples componentwise.

def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def format_univariate(p, var="t") -> str:
    """Render a sparse univariate polynomial, descending by degree."""
    if not p:
        return "0"
    parts = []
    for deg in sorted(p, reverse=True):
        c = p[deg]
        mag = _term_text(abs(c), ((var, deg),))
        if not parts:
            parts.append(mag if c > 0 else f"-{mag}")
        else:
            parts.append(f"+ {mag}" if c > 0 else f"- {mag}")
    return " ".join(parts)


def _term_text(coeff, powers):
    factors = []
    for var, exp in powers:
        if exp == 1:
            factors.append(var)
        elif exp != 0:
            factors.append(f"{var}^{exp}")
    if coeff != 1 or not factors:
        factors.insert(0, str(coeff))
    return "*".join(factors)


def _weighted_counts(weights: tuple[int, ...], bound: int) -> tuple[int, ...]:
    """Number of exponent vectors of each weighted degree up to ``bound``."""
    counts = [0] * (bound + 1)
    counts[0] = 1
    for w in weights:
        for t in range(w, bound + 1):
            counts[t] += counts[t - w]
    return tuple(counts)


# ---------------------------------------------------------------------------
# Stanley decompositions

class StanleyDecomposition(_Frozen):
    """A disjoint cover of the monomials outside an ideal.

    Each piece is a coset monomial together with the set of 1-based
    variable indices that may grow freely; the pieces partition the
    complement of the ideal.
    """

    __slots__ = ("nvars", "weights", "pieces")

    def __init__(self, nvars: int, weights: WeightVector,
                 pieces: tuple[tuple[Monomial, frozenset[int]], ...]):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "pieces", pieces)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.nvars, self.weights, self.pieces)
                    == (other.nvars, other.weights, other.pieces))
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.weights, self.pieces))

    def __repr__(self):
        return (f"StanleyDecomposition(nvars={self.nvars!r}, weights={self.weights!r}, "
                f"pieces={self.pieces!r})")

    def count_monomials(self, wdeg: int) -> int:
        """Number of complement monomials of the given weighted degree."""
        total, tables = 0, {}  # one count table to ``wdeg`` per free-weight tuple
        for coset, free in self.pieces:
            rem = wdeg - sum(map(mul, self.weights, coset.exponents))
            if rem < 0:
                continue
            free_weights = tuple(sorted(self.weights[j - 1] for j in free))
            if free_weights not in tables:
                tables[free_weights] = _weighted_counts(free_weights, wdeg)
            total += tables[free_weights][rem]
        return total


def stanley_decomposition(ideal: MonomialIdeal, w: WeightVector) -> StanleyDecomposition:
    """Decompose the complement of a weighted-stable ideal into free cosets.

    A weighted-stable ideal is strongly stable, so its complement has the
    Eliahou-Kervaire tiling: every monomial outside the ideal is ``v`` times
    a monomial in ``x_j``, ``j >= max_index(v)``, where ``v`` runs over the
    proper factored prefixes of the minimal generators.  Each prefix gives
    one piece whose free variables are those indices, less the ones that
    extend ``v`` to a longer prefix.  The weights only order the pieces, by
    weighted degree and then exponents.
    """
    w_borel_gens(ideal, w)
    n = ideal.nvars
    if ideal.is_zero():
        pieces = ((Monomial.unit(n), frozenset(range(1, n + 1))),)
        return StanleyDecomposition(n, w, pieces)

    nexts = _prefix_walk(g.exponents for g in ideal.gens)
    pieces = []
    for v in sorted(nexts, key=lambda v: (sum(map(mul, w, v)), v)):
        coset = Monomial._of(v)
        pieces.append((coset, frozenset(range(max_index(coset), n + 1)) - nexts[v]))
    return StanleyDecomposition(n, w, tuple(pieces))


# ---------------------------------------------------------------------------
# Hilbert series

class HilbertSeries(_Frozen):
    """Hilbert series of the quotient by a weighted-stable ideal.

    ``numerator`` is a sparse polynomial over the common denominator
    ``prod_j (1 - t^{w_j})``.  For principal closures ``terms`` also
    records the structured form: triples (count, degree, column) meaning
    ``count * t^degree / prod_{j>column} (1 - t^{w_j})``.
    """

    __slots__ = ("weights", "numerator", "terms")

    def __init__(self, weights: WeightVector, numerator: dict,
                 terms: tuple[tuple[int, int, int], ...] | None = None):
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "terms", terms)

    def __repr__(self):
        return (f"HilbertSeries(weights={self.weights!r}, numerator={self.numerator!r}, "
                f"terms={self.terms!r})")

    @property
    def nvars(self) -> int:
        return self.weights.nvars

    def expansion(self, bound: int) -> list[int]:
        """Power-series coefficients of the normalized form up to ``bound``."""
        return self._expand(self.numerator, tuple(self.weights), bound)

    def expansion_from_terms(self, bound: int) -> list[int]:
        """Power-series coefficients computed from the structured terms."""
        if self.terms is None:
            raise ValueError("no structured term form is recorded")
        columns = {}  # the terms over one denominator share one expansion
        for c, s, k in self.terms:
            columns.setdefault(k, Counter())[s] += c
        coeffs = [0] * (bound + 1)
        for k, numerator in columns.items():
            piece = self._expand(numerator, tuple(self.weights[k:]), bound)
            for t in range(bound + 1):
                coeffs[t] += piece[t]
        return coeffs

    @staticmethod
    def _expand(numerator, denom_weights, bound):
        counts = _weighted_counts(tuple(sorted(denom_weights)), bound)
        out = [0] * (bound + 1)
        for deg, c in numerator.items():
            if deg > bound:
                continue
            for t in range(deg, bound + 1):
                out[t] += c * counts[t - deg]
        return out

    def text(self) -> str:
        num = format_univariate(self.numerator)
        den = "*".join(f"(1 - t^{wj})" if wj != 1 else "(1 - t)" for wj in self.weights)
        return f"({num}) / ({den})"


def hilbert_series(ideal: MonomialIdeal, w: WeightVector) -> HilbertSeries:
    """Hilbert series of the quotient, graded by the weight vector.

    The numerator over ``prod_j (1 - t^{w_j})`` is ``1 + P(-1, t)``, where
    ``P`` is the Poincare polynomial summed over the minimal generators
    (Eliahou-Kervaire).  For principal closures the Catalan diagram also
    gives the structured terms: row sums below the weighted degree give the
    term counts and the branching limits give the free denominator blocks.
    """
    bgens = w_borel_gens(ideal, w)
    numerator = _poly_add({0: 1}, _poincare(ideal, w).at_u(-1))
    terms = None
    if len(bgens) == 1:
        (m,) = bgens
        diagram = catalan_diagram(m, w)
        limits = _branch_limits(m.exponents, w, diagram.degree)
        terms = tuple((diagram.row_sum(s), s, limits[s])
                      for s in range(diagram.degree) if diagram.row_sum(s))
    return HilbertSeries(w, numerator, terms)


# ---------------------------------------------------------------------------
# Poincare series and Betti numbers

class PoincarePolynomial(_Frozen):
    """Graded Betti numbers as a sparse bivariate polynomial.

    ``coefficients`` maps (homological index i, internal degree j) to
    beta_{i,j}; index 1 corresponds to the minimal generators of the
    ideal.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: dict):
        object.__setattr__(self, "coefficients", coefficients)

    def __repr__(self):
        return f"PoincarePolynomial(coefficients={self.coefficients!r})"

    def beta(self, i: int, j: int) -> int:
        return self.coefficients.get((i, j), 0)

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """Triples (i, j, coefficient), descending by degree then index."""
        return [(i, j, self.coefficients[(i, j)])
                for i, j in sorted(self.coefficients, key=lambda ij: (-ij[1], -ij[0]))]

    def at_u(self, value: int) -> dict:
        """Evaluate the homological variable, leaving a polynomial in t."""
        out = {}
        for (i, j), c in self.coefficients.items():
            out[j] = out.get(j, 0) + c * value ** i
        return {j: c for j, c in out.items() if c}

    def total(self, i: int) -> int:
        return sum(c for (k, _), c in self.coefficients.items() if k == i)

    def text(self) -> str:
        if not self.coefficients:
            return "0"
        parts = [_term_text(c, (("t", j), ("u", i))) for i, j, c in self.sorted_terms()]
        return " + ".join(parts)


def poincare_series(ideal: MonomialIdeal, w: WeightVector) -> PoincarePolynomial:
    """Generating function of the graded Betti numbers of a stable ideal.

    Each minimal generator of weighted degree d and maximal index q
    contributes ``u t^d`` times the product of ``1 + u t^{w_k}`` over
    k < q, the Eliahou-Kervaire resolution in weighted form.
    """
    w_borel_gens(ideal, w)
    return _poincare(ideal, w)


def _poincare(ideal: MonomialIdeal, w: WeightVector) -> PoincarePolynomial:
    """Shift the prefix products of ``1 + u t^{w_k}`` by each generator shape."""
    koszul = [{(0, 0): 1}]
    for wk in w.weights[:-1]:
        koszul.append(_poly_mul(koszul[-1], {(0, 0): 1, (1, wk): 1}))
    shapes = Counter((sum(map(mul, w, g.exponents)), max_index(g)) for g in ideal.gens)
    coeffs = {}
    for (degree, maxidx), count in shapes.items():
        coeffs = _poly_add(coeffs, _poly_mul({(1, degree): count}, koszul[maxidx - 1]))
    return PoincarePolynomial(coeffs)


def betti_numbers(ideal: MonomialIdeal, w: WeightVector):
    """Total and graded Betti numbers of a weighted-stable ideal.

    The graded table is the Poincare polynomial and the totals are its
    column sums, so they depend only on the generators' maximal indices,
    not on the weights.  Returns ``(totals, graded)`` with ``totals[i-1]``
    the rank of the i-th step, i = 1 corresponding to minimal generators.
    """
    graded = poincare_series(ideal, w)
    return tuple(graded.total(i) for i in range(1, ideal.nvars + 1)), graded


def format_betti_table(poincare: PoincarePolynomial, nvars: int) -> str:
    """Betti table with rows indexed by j - i and a leading rank-one column.

    Column i >= 1 lists the ideal's i-th Betti numbers with i = 1 counting
    minimal generators; column 0 is the free cover of the quotient.  These
    columns coincide with the homological degrees of the quotient's
    resolution and sit one above the ideal-as-module convention.
    """
    entries = {(0, 0): 1}
    for (i, j), c in poincare.coefficients.items():
        entries[(j - i, i)] = c
    ncols = nvars + 1
    row_range = range(min(r for r, _ in entries), max(r for r, _ in entries) + 1)
    totals = [sum(c for (_, i), c in entries.items() if i == col) for col in range(ncols)]
    grid = {r: [entries.get((r, i), 0) for i in range(ncols)] for r in row_range}
    widths = [max(len(str(totals[i])), len(str(i)),
                  max(len(str(grid[r][i])) for r in row_range))
              for i in range(ncols)]
    label = max(max(len(str(r)) for r in row_range) + 1, len("total:"))
    lines = [" " * label + " " + " ".join(str(i).rjust(widths[i]) for i in range(ncols))]
    lines.append("total:".rjust(label) + " "
                 + " ".join(str(totals[i]).rjust(widths[i]) for i in range(ncols)))
    for r in row_range:
        cells = [str(grid[r][i]) if grid[r][i] else "." for i in range(ncols)]
        lines.append(f"{r}:".rjust(label) + " "
                     + " ".join(cells[i].rjust(widths[i]) for i in range(ncols)))
    return "\n".join(lines)
