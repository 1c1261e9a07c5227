"""Monomial ideals presented by minimal generating sets."""

from __future__ import annotations

from operator import add, le

from .monomials import DimensionMismatch, Monomial, _Frozen, _minimal_vectors


def minimalize(monomials) -> list[Monomial]:
    """The divisibility-minimal subset of a collection of monomials.

    Idempotent; duplicates collapse.  All inputs must share one variable
    count, else :class:`DimensionMismatch` is raised.  Divisibility is
    componentwise ``<=`` on exponent tuples, so the shared filter
    :func:`~wstable.monomials._minimal_vectors` finds them, listed by
    degree and then exponents.
    """
    exponents = {m.exponents for m in monomials}
    counts = {len(e) for e in exponents}
    if len(counts) > 1:
        raise DimensionMismatch(f"variable counts differ: {min(counts)} vs {max(counts)}")
    return [Monomial._of(e) for e in _minimal_vectors(exponents)]


class MonomialIdeal(_Frozen):
    """An ideal generated by monomials, stored minimalized.

    The zero ideal has no generators and the unit ideal is generated by the
    unit monomial.  Generators are exposed in graded-lexicographic
    descending order (first variable largest) for deterministic printing.
    Instances are immutable values.
    """

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, gens=()):
        gens = tuple(gens)
        for g in gens:
            if g.nvars != nvars:
                raise DimensionMismatch(
                    f"generator {g} has {g.nvars} variables, expected {nvars}")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "gens", frozenset(minimalize(gens)))

    @classmethod
    def _minimal(cls, nvars: int, gens) -> "MonomialIdeal":
        """Wrap generators already known to be minimal, skipping ``minimalize``."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "nvars", nvars)
        object.__setattr__(ideal, "gens", frozenset(gens))
        return ideal

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars)

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, (Monomial.unit(nvars),))

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return Monomial.unit(self.nvars) in self.gens

    def contains(self, m: Monomial) -> bool:
        """Ideal membership: some generator divides ``m``."""
        if m.nvars != self.nvars:
            raise DimensionMismatch(
                f"monomial has {m.nvars} variables, expected {self.nvars}")
        u = m.exponents
        return any(all(map(le, g.exponents, u)) for g in self.gens)

    def sorted_gens(self) -> list[Monomial]:
        """Generators in graded-lex descending order."""
        return sorted(self.gens, key=lambda m: (m.degree(), m.exponents), reverse=True)

    def lex_smallest_gen(self) -> Monomial:
        """The lexicographically smallest generator (first variable dominant)."""
        if self.is_zero():
            raise ValueError("the zero ideal has no generators")
        return min(self.gens, key=lambda m: m.exponents)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.nvars, tuple(self.gens) + tuple(other.gens))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return self._pairwise(other, add)

    def intersection(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection via pairwise least common multiples of generators."""
        return self._pairwise(other, max)

    def _pairwise(self, other, op):
        """The ideal generated by ``op`` applied entrywise to each pair of generators."""
        self._check(other)
        vectors = {tuple(map(op, a.exponents, b.exponents)) for a in self.gens for b in other.gens}
        return MonomialIdeal._minimal(self.nvars, map(Monomial._of, _minimal_vectors(vectors)))

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"variable counts differ: {self.nvars} vs {other.nvars}")

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.gens == other.gens

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        exps = ", ".join(str(m.exponents) for m in self.sorted_gens())
        return f"MonomialIdeal(n={self.nvars}, gens=[{exps}])"
