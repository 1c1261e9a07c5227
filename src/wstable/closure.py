"""Weighted Borel closures, stability tests, and weighted Borel generators."""

from __future__ import annotations

from .ideals import MonomialIdeal
from .monomials import Monomial, WeightVector, truncate, w_borel_below
from .trees import iter_tree_sinks


class NotWStableError(ValueError):
    """An operation requiring a weighted-stable ideal received one that is not.

    ``witness`` is a minimal generator of the closure that the ideal fails
    to contain.
    """

    def __init__(self, weights: WeightVector, witness: Monomial):
        from .parsing import format_monomial
        self.weights = weights
        self.witness = witness
        super().__init__(
            f"ideal is not {tuple(weights)}-stable: closure generator "
            f"{format_monomial(witness)} is missing")


def _gens_of(monomials):
    if isinstance(monomials, MonomialIdeal):
        return monomials.gens
    return monomials


def w_closure(monomials, w: WeightVector) -> MonomialIdeal:
    """Smallest weighted-stable ideal containing the given monomials.

    Computed one monomial at a time: the minimal generators of a principal
    closure are the sinks of the monomial's truncation tree, and closures
    of unions are sums of principal closures.
    """
    gens = []
    for m in _gens_of(monomials):
        gens.extend(iter_tree_sinks(m, w))
    return MonomialIdeal(w.nvars, gens)


def is_w_stable(ideal: MonomialIdeal, w: WeightVector) -> bool:
    """Whether ``ideal`` equals its weighted Borel closure."""
    return w_closure(ideal, w).gens == ideal.gens


def _check_w_stable(ideal: MonomialIdeal, w: WeightVector) -> None:
    closed = w_closure(ideal, w)
    if closed.gens != ideal.gens:
        witness = next(g for g in closed.sorted_gens() if g not in ideal.gens)
        raise NotWStableError(w, witness)


def _require_w_stable(ideal: MonomialIdeal, w: WeightVector) -> frozenset[Monomial]:
    """Check stability with one closure and return the weighted Borel generators."""
    _check_w_stable(ideal, w)
    return frozenset(
        g for g in ideal.gens
        if not any(h != g and w_borel_below(h, g, w) for h in ideal.gens))


def w_borel_gens(ideal: MonomialIdeal, w: WeightVector) -> frozenset[Monomial]:
    """The unique minimal set of monomials whose weighted closure is ``ideal``.

    These are the minimal generators with no other generator below them in
    the weighted Borel order.  Requires a weighted-stable input.
    """
    return _require_w_stable(ideal, w)


def trunc_ideal(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """Truncation of a strongly stable ideal at degree ``d``.

    Equals the Borel closure of the d-truncations of the Borel generators.
    The 0-truncation is the unit ideal.
    """
    if d < 0:
        raise ValueError("truncation degree must be non-negative")
    if d == 0:
        return MonomialIdeal.unit(ideal.nvars)
    ones = WeightVector.ones(ideal.nvars)
    truncated = [truncate(b, d) for b in w_borel_gens(ideal, ones)]
    return w_closure(truncated, ones)
