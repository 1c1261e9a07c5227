"""Weighted Borel closures, stability tests, and weighted Borel generators.

The core works on exponent tuples.  With the weighted prefix sums
``P(u)_k = sum_{i<=k} w_i * u_i``, a monomial ``u`` lies in the weighted
closure of ``s`` exactly when ``P(u) >= P(s)`` componentwise.  So the
closure of a set is the closure of its dominance-minimal elements, its
weighted Borel generators, and only those are used.
"""

from __future__ import annotations

from .ideals import MonomialIdeal
from .monomials import Monomial, WeightVector, _check_nvars, _minimal_vectors, _prefix_sums, truncate


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


def _exponents(monomials, w: WeightVector) -> list[tuple[int, ...]]:
    """Exponent tuples of an ideal, checked once, or of monomials, checked each."""
    if isinstance(monomials, MonomialIdeal):
        _check_nvars(monomials, w)
        return [g.exponents for g in monomials.gens]
    out = []
    for m in monomials:
        _check_nvars(m, w)
        out.append(m.exponents)
    return out


def _borel_gens(gens, w: WeightVector) -> dict:
    """Prefix sums of the dominance-minimal exponent vectors, each mapped to its vector.

    Dominance is componentwise ``<=`` on prefix sums, so the shared filter
    :func:`~wstable.monomials._minimal_vectors` finds them.
    """
    prefix = {_prefix_sums(e, w): e for e in gens}
    return {p: prefix[p] for p in _minimal_vectors(prefix)}


def _close(bgens, w: WeightVector) -> set[tuple[int, ...]]:
    """Minimal generators of the closure of the dominance-minimal prefix sums ``bgens``.

    ``u`` is one exactly when it lies in the closure and ``u / x_max(u)``
    does not (Eliahou-Kervaire).  The walk picks ``u_1, u_2, ...`` in turn,
    carrying the ``b`` with ``P(b)_i <= P(u)_i`` so far.  ``u_k`` starts at
    the first value that admits one.  The prefix ends as a generator once
    ``P_k`` reaches the least weighted degree admitted; below that, it goes
    on to ``u_{k+1}`` with the admitted ``b`` only.  Any non-decreasing
    vectors are accepted, not just prefix sums: the stop test needs no more.
    """
    weights = tuple(w)
    closed = set()
    stack = [((), 0, list(bgens))] if bgens else []
    while stack:
        head, low, cands = stack.pop()
        k = len(head)
        wk = weights[k]
        cands.sort(key=lambda q: q[k])
        e = max(0, -((low - cands[0][k]) // wk))
        pk = low + e * wk
        kept, least = 1, cands[0][-1]
        while True:
            while kept < len(cands) and cands[kept][k] <= pk:
                least = min(least, cands[kept][-1])
                kept += 1
            if pk >= least:
                closed.add(head + (e,) + (0,) * (len(weights) - k - 1))
                break
            stack.append((head + (e,), pk, cands[:kept]))
            e += 1
            pk += wk
    return closed


def _stability(ideal: MonomialIdeal, w: WeightVector):
    """The weighted Borel generators of ``ideal`` and the closure generators it lacks."""
    gens = _exponents(ideal, w)
    bgens = _borel_gens(gens, w)
    return bgens, _close(bgens, w).difference(gens)


def w_closure(monomials, w: WeightVector) -> MonomialIdeal:
    """Smallest weighted-stable ideal containing the given monomials.

    Only the weighted Borel generators of the input (its elements not
    dominating another) are used.  One walk over exponent prefixes emits
    the closure's minimal generators and nothing else, so no tree is
    expanded and no ``minimalize`` runs.
    """
    closed = _close(_borel_gens(_exponents(monomials, w), w), w)
    return MonomialIdeal._minimal(w.nvars, map(Monomial._of, closed))


def is_w_stable(ideal: MonomialIdeal, w: WeightVector) -> bool:
    """Whether ``ideal`` equals its weighted Borel closure.

    The minimal generators of the closure of the ideal's weighted Borel
    generators are enumerated once; the ideal is stable exactly when none
    of them is missing from its own generators.
    """
    return not _stability(ideal, w)[1]


def w_borel_gens(ideal: MonomialIdeal, w: WeightVector) -> frozenset[Monomial]:
    """The unique minimal set of monomials whose weighted closure is ``ideal``.

    These are the minimal generators outside the closure of every other
    generator: no other generator's weighted prefix sums are componentwise
    at most theirs.  The shared minimal-vector filter finds them, and
    stability is checked by closing only them, so this is the library's one
    stability check.  A non-stable input raises
    :class:`NotWStableError` whose witness is the first missing generator
    of the closure in graded-lex descending order.
    """
    bgens, missing = _stability(ideal, w)
    if missing:
        raise NotWStableError(w, Monomial._of(max(missing, key=lambda u: (sum(u), u))))
    return frozenset(map(Monomial._of, bgens.values()))


def trunc_ideal(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """Truncation of a strongly stable ideal at degree ``d``.

    Equals the Borel closure of the d-truncations of the Borel generators,
    so the 0-truncation of a nonzero ideal is the unit ideal.
    """
    if d < 0:
        raise ValueError("truncation degree must be non-negative")
    ones = WeightVector.ones(ideal.nvars)
    truncated = [truncate(b, d) for b in w_borel_gens(ideal, ones)]
    return w_closure(truncated, ones)
