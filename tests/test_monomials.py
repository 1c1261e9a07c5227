"""Monomial arithmetic, the substitution map, and the weighted Borel order."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_monomials, borel_closure_by_moves, principal_cases, random_monomial
from timing import time_limit
from wstable import (
    DimensionMismatch,
    Monomial,
    WeightVector,
    factored_indices,
    max_index,
    meet_w,
    psi,
    psi_inverse,
    truncate,
    w_borel_below,
    weighted_degree,
)
from wstable.monomials import _minimal_vectors

W21 = WeightVector((2, 1))
W321 = WeightVector((3, 2, 1))
W421 = WeightVector((4, 2, 1))


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector((1, 2))
    with pytest.raises(ValueError):
        WeightVector((2, 0))
    with pytest.raises(ValueError):
        WeightVector(())
    with pytest.raises(TypeError):
        WeightVector((2.7, 1))
    assert WeightVector.ones(3).weights == (1, 1, 1)
    assert W321.max_weight == 3


def test_weighted_degree_known_values():
    assert weighted_degree(Monomial((1, 3, 2)), W321) == 11
    assert weighted_degree(Monomial.unit(3), W321) == 0
    assert weighted_degree(Monomial((1, 1, 2)), W321) == 7


def test_weighted_degree_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        weighted_degree(Monomial((1, 0)), W321)


def test_psi_known_values():
    assert psi(Monomial((1, 0)), W21) == Monomial((2, 0))
    assert psi(Monomial.unit(2), W21) == Monomial.unit(2)
    assert psi(Monomial((0, 2, 1)), W421) == Monomial((0, 4, 1))


def test_psi_inverse_known_values():
    assert psi_inverse(Monomial((2, 2)), W21) == Monomial((1, 2))
    # an image-ring monomial with no preimage is a normal outcome
    assert psi_inverse(Monomial((1, 1)), W21) is None
    assert psi_inverse(Monomial.unit(2), W21) == Monomial.unit(2)


def test_psi_inverse_is_left_inverse_of_psi():
    for w in (W21, WeightVector((3, 1)), WeightVector((2, 2))):
        for m in all_monomials(2, 4):
            assert psi_inverse(psi(m, w), w) == m


def test_weighted_degree_equals_degree_of_image():
    for w in (W321, W421, WeightVector((2, 2, 1))):
        for m in all_monomials(3, 3):
            assert weighted_degree(m, w) == psi(m, w).degree()


def test_factored_indices():
    assert factored_indices(Monomial((1, 3, 2))) == (1, 2, 2, 2, 3, 3)
    assert factored_indices(Monomial.unit(2)) == ()


def test_truncate_known_values():
    m = Monomial((1, 3, 2))  # factors (1, 2, 2, 2, 3, 3)
    assert truncate(m, 4) == Monomial((1, 3, 0))
    assert truncate(Monomial((0, 2)), 5) == Monomial((0, 2))
    assert truncate(Monomial((1, 1)), 0) == Monomial.unit(2)
    with pytest.raises(ValueError, match="non-negative"):
        truncate(Monomial((1, 1)), -1)
    with pytest.raises(TypeError):
        truncate(Monomial((1, 1)), 0.5)


def test_truncate_at_full_degree_is_identity():
    for m in all_monomials(3, 4):
        assert truncate(m, m.degree()) == m


def test_truncate_monotone_under_divisibility():
    for m in all_monomials(2, 5):
        for d in range(m.degree()):
            assert truncate(m, d).divides(truncate(m, d + 1))


@st.composite
def monomials_and_lengths(draw):
    """A monomial in 1-4 variables with exponents <= 5, and a length up to two past its degree."""
    n = draw(st.integers(1, 4))
    m = Monomial(tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))))
    return m, draw(st.integers(0, m.degree() + 2))


@settings(derandomize=True, database=None, max_examples=300)
@given(monomials_and_lengths())
def test_truncate_matches_factor_prefix(case):
    m, d = case
    assert truncate(m, d) == Monomial.from_factors(factored_indices(m)[:d], m.nvars)


def test_truncate_is_independent_of_the_degree():
    m = Monomial((10**7, 1))
    with time_limit(0.05):
        assert truncate(m, 3) == Monomial((3, 0))


def test_times_variable_checks_its_index():
    m = Monomial((1, 2))
    assert m.times_variable(1) == Monomial((2, 2))
    assert m.times_variable(2) == Monomial((1, 3))
    for index in (0, -1, 3):
        with pytest.raises(ValueError, match=f"variable index {index} out of range 1..2"):
            m.times_variable(index)


def test_max_index():
    assert max_index(Monomial((1, 3, 2))) == 3
    assert max_index(Monomial.unit(3)) == 1  # convention for the unit
    assert max_index(Monomial((0, 4))) == 2


def test_w_borel_below_known_values():
    # x1*x2^2 lies in the (2,1)-closure of x2^4
    assert w_borel_below(Monomial((0, 4)), Monomial((1, 2)), W21)
    m = Monomial((1, 2))
    assert w_borel_below(m, m, W21)
    ones = WeightVector.ones(2)
    assert not w_borel_below(Monomial((1, 0)), Monomial((0, 1)), ones)


def test_w_borel_below_matches_move_oracle():
    """Dominance agrees with reachability inside the substituted closure."""
    for w in (W21, WeightVector((3, 2))):
        for m in all_monomials(2, 3):
            closure = borel_closure_by_moves([psi(m, w)], 2)
            for u in all_monomials(2, 4):
                assert w_borel_below(m, u, w) == closure.contains(psi(u, w))


@settings(derandomize=True, database=None, max_examples=300)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=25)), st.integers(0, 8))
def test_minimal_vectors_matches_pairwise_filter(vectors, repeats):
    """On vectors with negative entries, mixed sums and repeats, the shared
    filter keeps exactly the vectors no other vector lies at or below, once
    each, in (sum, vector) order."""
    vectors = vectors + vectors[:repeats]
    pairwise = {v for v in vectors
                if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in vectors)}
    assert _minimal_vectors(vectors) == sorted(pairwise, key=lambda v: (sum(v), v))


def _relation(monomials, w):
    return {(m, u) for m in monomials for u in monomials if w_borel_below(m, u, w)}


@pytest.mark.parametrize("nvars,max_deg,weights", [
    (2, 6, (2, 1)),
    (2, 6, (1, 1)),
    (3, 4, (3, 2, 1)),
    (3, 4, (1, 1, 1)),
])
def test_w_borel_below_is_partial_order(nvars, max_deg, weights):
    w = WeightVector(weights)
    monomials = list(all_monomials(nvars, max_deg))
    rel = _relation(monomials, w)
    for m in monomials:
        assert (m, m) in rel
    for m, u in rel:
        if (u, m) in rel:
            assert m == u
    below = {}
    for m, u in rel:
        below.setdefault(m, set()).add(u)
    for m, mid in rel:
        for u in below.get(mid, ()):
            assert (m, u) in rel


def test_unweighted_dominance_implies_weighted():
    ones = WeightVector.ones(2)
    weighted = [W21, WeightVector((3, 2)), WeightVector((4, 1))]
    monomials = list(all_monomials(2, 5))
    for m in monomials:
        for u in monomials:
            if w_borel_below(m, u, ones):
                for w in weighted:
                    assert w_borel_below(m, u, w)


def test_meet_known_values():
    assert meet_w(Monomial((0, 4)), Monomial((1, 1)), W21) == Monomial((1, 2))
    u = Monomial((2, 1))
    assert meet_w(u, u, W21) == u


def test_meet_outside_image():
    # factored meet of y2^6 and y1^3 is y1^3*y2^3; 3 is not a multiple of w2=2
    assert meet_w(Monomial((0, 3)), Monomial((1, 0)), WeightVector((3, 2))) is None
    assert meet_w(Monomial((0, 2, 0)), Monomial((1, 0, 0)), W321) is None


def _factored_meet(u, v, w):
    """Reference meet on the factored forms of the substituted images.

    Positionwise minima over the shorter factor list, the tail from the
    longer one, pulled back when the result lies in the image.
    """
    fu = factored_indices(psi(u, w))
    fv = factored_indices(psi(v, w))
    if len(fu) < len(fv):
        fu, fv = fv, fu
    merged = tuple(min(a, b) for a, b in zip(fu, fv)) + fu[len(fv):]
    return psi_inverse(Monomial.from_factors(merged, u.nvars), w)


def test_meet_matches_factored_form_rule():
    rng = random.Random(61)
    for u, w in principal_cases(61):
        for v in (u, Monomial.unit(u.nvars), random_monomial(rng, u.nvars)):
            assert meet_w(u, v, w) == _factored_meet(u, v, w), (u, v, w)
            assert meet_w(v, u, w) == _factored_meet(v, u, w), (u, v, w)


def test_meet_in_image_for_unit_second_weight():
    """With the last weight 1 and two variables, the meet never leaves the image.

    The count of first-variable factors of the meet is the larger of two
    multiples of the first weight, so it is always divisible.
    """
    for u in all_monomials(2, 4):
        for v in all_monomials(2, 4):
            assert meet_w(u, v, W21) is not None


def test_meet_is_least_common_dominator():
    """The meet lies in both closures and every common member dominates it.

    Equivalently the principal closure of the meet is the intersection of
    the two principal closures.
    """
    monomials = list(all_monomials(2, 4))
    for w in (W21, WeightVector((3, 2))):
        for u in monomials:
            for v in monomials:
                q = meet_w(u, v, w)
                if q is None:
                    continue
                assert w_borel_below(u, q, w)
                assert w_borel_below(v, q, w)
                for p in monomials:
                    if w_borel_below(u, p, w) and w_borel_below(v, p, w):
                        assert w_borel_below(q, p, w)


def test_monomial_validation_and_ops():
    with pytest.raises(ValueError):
        Monomial((-1, 0))
    for exponents in ((1.5, 2), ("3",)):
        with pytest.raises(TypeError):
            Monomial(exponents)
    for index in (0, 4):
        with pytest.raises(ValueError, match="out of range"):
            Monomial.variable(index, 3)
        with pytest.raises(ValueError, match="out of range"):
            Monomial.from_factors((1, index), 3)
    m = Monomial.from_factors((1, 2, 2, 2, 3, 3), 3)
    assert m == Monomial((1, 3, 2))
    assert Monomial.variable(2, 3) == Monomial((0, 1, 0))
    assert Monomial((1, 0)).lcm(Monomial((0, 2))) == Monomial((1, 2))
    assert Monomial((1, 0)) * Monomial((0, 2)) == Monomial((1, 2))
    assert Monomial((1, 0)).divides(Monomial((1, 2)))
    assert not Monomial((2, 0)).divides(Monomial((1, 2)))
