"""Minimal generating sets and ideal arithmetic."""

import operator
import random

import pytest

from oracles import (
    _in_ideal,
    _minimal_exponents,
    all_monomials,
    in_w_closure_oracle,
    monomials_of_degree,
    random_monomial,
    random_weight_vector,
)
from timing import time_limit
from wstable import (
    DimensionMismatch,
    Monomial,
    MonomialIdeal,
    WeightVector,
    meet_w,
    minimalize,
    w_closure,
)


def test_minimalize_known_values():
    x1, x1x2 = Monomial((1, 0)), Monomial((1, 1))
    assert set(minimalize([x1, x1x2])) == {x1}
    assert minimalize([]) == []
    gens = [Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 3)), Monomial((2, 1))]
    assert set(minimalize(gens)) == {Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 3))}


def test_minimalize_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        gens = [random_monomial(rng, 3) for _ in range(6)]
        once = minimalize(gens)
        assert minimalize(once) == once


def test_minimalize_matches_pairwise_oracle():
    """Mixed degrees and repeated inputs: the same set as a full pairwise scan,
    listed by degree and then exponents."""
    rng = random.Random(89)
    for _ in range(300):
        n = rng.randint(1, 4)
        gens = [random_monomial(rng, n) for _ in range(rng.randint(0, 12))]
        gens += rng.choices(gens, k=min(len(gens), 4))
        got = minimalize(gens)
        assert {m.exponents for m in got} == _minimal_exponents(m.exponents for m in gens)
        assert got == sorted(set(got), key=lambda m: (m.degree(), m.exponents))


def test_minimalize_x6_power_generators_at_scale():
    """The 1,287 monomials of degree 8 in six variables are all minimal."""
    gens = list(monomials_of_degree(6, 8))
    with time_limit(0.25):
        ideal = MonomialIdeal(6, gens)
    assert len(ideal) == 1287


def test_minimalize_rejects_mixed_variable_counts():
    """Mixed variable counts raise whether or not the degrees differ."""
    with pytest.raises(DimensionMismatch):
        minimalize([Monomial((1,)), Monomial((0, 1))])
    with pytest.raises(DimensionMismatch):
        minimalize([Monomial((1,)), Monomial((1, 1))])


def test_minimalize_weighted_closure_generators_at_scale():
    """The 544 generators, in 7 degrees, of the (3,2,2,1,1,1)-closure of
    x1*x2*x3*x4*x5*x6^6 are all minimal."""
    gens = list(w_closure([Monomial((1, 1, 1, 1, 1, 6))], WeightVector((3, 2, 2, 1, 1, 1))).gens)
    assert len(gens) == 544 and len({g.degree() for g in gens}) == 7
    with time_limit(0.1):
        ideal = MonomialIdeal(6, gens)
    assert ideal.gens == frozenset(gens)


def test_ideal_construction_minimalizes():
    ideal = MonomialIdeal(2, [Monomial((1, 0)), Monomial((1, 1))])
    assert ideal.gens == {Monomial((1, 0))}
    with pytest.raises(DimensionMismatch):
        MonomialIdeal(2, [Monomial((1, 0, 0))])


def test_zero_and_unit():
    zero = MonomialIdeal.zero(2)
    unit = MonomialIdeal.unit(2)
    assert zero.is_zero() and not zero.is_unit()
    assert unit.is_unit() and not unit.is_zero()
    assert not zero.contains(Monomial((1, 0)))
    assert unit.contains(Monomial.unit(2))
    assert hash(unit) == hash(MonomialIdeal(2, [Monomial((0, 0)), Monomial((1, 0))]))
    assert hash(zero) == hash(MonomialIdeal.zero(2))
    assert repr(zero) == "MonomialIdeal(n=2, gens=[])"
    assert repr(unit) == "MonomialIdeal(n=2, gens=[(0, 0)])"


def test_contains_known_values():
    ideal = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 2))])
    assert ideal.contains(Monomial((1, 1)))
    assert not ideal.contains(Monomial((0, 1)))


def test_sum_product_intersection_known_values():
    n = 2
    maximal = MonomialIdeal(n, [Monomial((1, 0)), Monomial((0, 1))])
    square = maximal * maximal
    assert square.gens == {Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))}
    zero = MonomialIdeal.zero(n)
    ideal = MonomialIdeal(n, [Monomial((1, 2))])
    assert ideal + zero == ideal
    assert ideal.intersection(maximal) == ideal


def test_intersection_of_principal_closures_is_closure_of_meet():
    w = WeightVector((2, 1))
    u, v = Monomial((0, 4)), Monomial((1, 1))
    q = meet_w(u, v, w)
    assert q == Monomial((1, 2))
    lhs = w_closure([u], w).intersection(w_closure([v], w))
    assert lhs == w_closure([q], w)


def test_arithmetic_algebraic_laws():
    rng = random.Random(11)
    for _ in range(40):
        ideals = [MonomialIdeal(3, [random_monomial(rng, 3) for _ in range(3)])
                  for _ in range(3)]
        a, b, c = ideals
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a.intersection(a) == a


def test_contains_respects_arithmetic():
    rng = random.Random(13)
    monomials = list(all_monomials(2, 6))
    for _ in range(25):
        a = MonomialIdeal(2, [random_monomial(rng, 2) for _ in range(3)])
        b = MonomialIdeal(2, [random_monomial(rng, 2) for _ in range(3)])
        for m in monomials:
            assert (a + b).contains(m) == (a.contains(m) or b.contains(m))
            assert a.intersection(b).contains(m) == (a.contains(m) and b.contains(m))
        for m in all_monomials(2, 4):
            # membership in the product is implied by split divisibility
            for u in monomials:
                if a.contains(m) and b.contains(u):
                    assert (a * b).contains(m * u)


def test_membership_product_and_intersection_match_oracles():
    """Membership against a divisor scan; products and intersections against
    the pairwise minimal sums and maxima of the generator pairs."""
    rng = random.Random(97)
    for _ in range(300):
        n = rng.randint(1, 4)
        a, b = (MonomialIdeal(n, [random_monomial(rng, n) for _ in range(rng.randint(0, 5))])
                for _ in range(2))
        ga, gb = [g.exponents for g in a.gens], [g.exponents for g in b.gens]
        for _ in range(5):
            u = random_monomial(rng, n, max_exponent=5)
            assert a.contains(u) == _in_ideal(u.exponents, ga)
        sums = (tuple(map(sum, zip(p, q))) for p in ga for q in gb)
        maxima = (tuple(map(max, p, q)) for p in ga for q in gb)
        assert {g.exponents for g in (a * b).gens} == _minimal_exponents(sums)
        assert {g.exponents for g in a.intersection(b).gens} == _minimal_exponents(maxima)
        assert (a * b).nvars == a.intersection(b).nvars == n
    with pytest.raises(DimensionMismatch):
        a.contains(Monomial.unit(n + 1))
    for combine in (operator.add, operator.mul, MonomialIdeal.intersection):
        with pytest.raises(DimensionMismatch):
            combine(a, MonomialIdeal.unit(n + 1))


def test_sorted_gens_graded_lex_descending():
    ideal = MonomialIdeal(
        3, [Monomial((1, 1, 2)), Monomial((3, 0, 0)), Monomial((2, 1, 0)),
            Monomial((2, 0, 1)), Monomial((1, 2, 0))])
    assert [m.exponents for m in ideal.sorted_gens()] == [
        (1, 1, 2), (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0)]


def test_lex_smallest_gen():
    ideal = MonomialIdeal(
        3, [Monomial((3, 0, 0)), Monomial((2, 1, 0)), Monomial((1, 3, 0)),
            Monomial((1, 2, 1))])
    assert ideal.lex_smallest_gen() == Monomial((1, 2, 1))
    with pytest.raises(ValueError):
        MonomialIdeal.zero(3).lex_smallest_gen()


def test_closure_sum_of_unions():
    """Sums of closures are closures of unions."""
    rng = random.Random(17)
    for _ in range(30):
        w = random_weight_vector(rng, 3)
        seta = [random_monomial(rng, 3) for _ in range(2)]
        setb = [random_monomial(rng, 3) for _ in range(2)]
        assert (w_closure(seta, w) + w_closure(setb, w)
                == w_closure(seta + setb, w))


def test_closure_product_identity_standard_grading():
    """With all weights one, products of principal closures close products."""
    rng = random.Random(19)
    ones = WeightVector.ones(3)
    for _ in range(30):
        u, v = random_monomial(rng, 3, 2), random_monomial(rng, 3, 2)
        assert w_closure([u], ones) * w_closure([v], ones) == w_closure([u * v], ones)


def test_closure_product_containment_and_weighted_counterexample():
    """The product of closures sits inside the closure of the product.

    The containment can be strict for non-trivial weights: with weights
    (3,2,1), u = x1*x2, and v = x2*x3^2, the closure of u*v contains x1^3
    (its substituted image y1^9 dominates y1^3*y2^4*y3^2) but any
    factorization a*b = x1^3 with a, b in the respective closures would
    need 3*a1 >= 5 and 3*b1 >= 4, hence a1 + b1 >= 4 > 3.  So the product
    identity that holds in the standard grading does not survive weighting.
    """
    rng = random.Random(19)
    for _ in range(30):
        w = random_weight_vector(rng, 3)
        u, v = random_monomial(rng, 3, 2), random_monomial(rng, 3, 2)
        product = w_closure([u], w) * w_closure([v], w)
        closed = w_closure([u * v], w)
        assert all(closed.contains(g) for g in product.gens)

    w = WeightVector((3, 2, 1))
    u, v = Monomial((1, 1, 0)), Monomial((0, 1, 2))
    product = w_closure([u], w) * w_closure([v], w)
    closed = w_closure([u * v], w)
    witness = Monomial((3, 0, 0))
    assert closed.contains(witness)
    assert not product.contains(witness)
    assert product != closed
    # The same facts from the definition alone, without w_closure: x1^3 lies
    # in the closure of u*v, and no split x1^k * x1^(3-k) has its factors in
    # the closures of u and v.
    assert in_w_closure_oracle(witness, [u * v], w)
    assert not any(in_w_closure_oracle(Monomial((k, 0, 0)), [u], w)
                   and in_w_closure_oracle(Monomial((3 - k, 0, 0)), [v], w)
                   for k in range(4))
