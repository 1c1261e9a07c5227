"""Weighted closures, stability, weighted Borel generators, and truncations."""

import itertools
import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from oracles import (
    all_monomials,
    borel_closure_by_moves,
    ideal_monomials_up_to_degree,
    in_w_closure_oracle,
    monomials_of_degree,
    random_monomial,
    random_weight_vector,
    w_closure_oracle,
)
from timing import time_limit
from wstable import (
    DimensionMismatch,
    Monomial,
    MonomialIdeal,
    NotWStableError,
    WeightVector,
    hilbert_series,
    is_w_stable,
    parse_ideal,
    trunc_ideal,
    truncate,
    w_borel_gens,
    w_closure,
)


def test_closure_golden_stable_pair():
    gens = golden.monomials(golden.CLOSURE_STABLE_PAIR["gens"], 2)
    closed = w_closure(gens, golden.CLOSURE_STABLE_PAIR["weights"])
    assert closed.gens == set(golden.monomials(golden.CLOSURE_STABLE_PAIR["closure"], 2))


def test_closure_golden_ones():
    closed = w_closure([golden.monomial("x1*x2*x3^2")], golden.ONES3)
    assert closed.gens == set(golden.monomials(golden.CLOSURE_ONES, 3))


def test_closure_golden_321():
    closed = w_closure([golden.monomial("x1*x2*x3^2")], golden.W321)
    assert closed.gens == set(golden.monomials(golden.CLOSURE_321, 3))


def test_closure_matches_move_oracle_exhaustively():
    """Standard-graded closure equals the single-move fixpoint, n<=3, deg<=5."""
    for n in (1, 2, 3):
        ones = WeightVector.ones(n)
        for m in all_monomials(n, 5):
            assert w_closure([m], ones) == borel_closure_by_moves([m], n)


def test_closure_membership_matches_definition_for_general_weights():
    rng = random.Random(23)
    for _ in range(20):
        w = random_weight_vector(rng, 3)
        gens = [random_monomial(rng, 3, 2) for _ in range(2)]
        closed = w_closure(gens, w)
        for u in all_monomials(3, 4):
            assert closed.contains(u) == in_w_closure_oracle(u, gens, w)


def test_closure_operator_properties():
    """Extensive, monotone, and idempotent on random inputs."""
    rng = random.Random(29)
    for _ in range(60):
        n = rng.choice((2, 3))
        w = random_weight_vector(rng, n)
        gens = [random_monomial(rng, n) for _ in range(rng.randint(1, 3))]
        closed = w_closure(gens, w)
        for g in gens:
            assert closed.contains(g)
        bigger = w_closure(gens + [random_monomial(rng, n)], w)
        assert all(bigger.contains(g) for g in closed.gens)
        assert w_closure(closed, w) == closed


def test_closure_checks_variable_counts():
    """Monomial lists are checked one by one, and an ideal, the zero ideal
    included, once."""
    with pytest.raises(DimensionMismatch):
        w_closure([Monomial((1, 0)), Monomial((1, 0, 0))], golden.ONES2)
    with pytest.raises(DimensionMismatch):
        w_closure(MonomialIdeal.unit(3), golden.ONES2)
    with pytest.raises(DimensionMismatch):
        is_w_stable(MonomialIdeal.zero(3), golden.ONES2)


def test_is_w_stable_golden():
    assert is_w_stable(parse_ideal("x1, x2^2", 2), golden.W21)
    assert not is_w_stable(parse_ideal("x1^2, x2^2", 2), golden.ONES2)
    assert is_w_stable(MonomialIdeal.unit(3), golden.W321)
    assert is_w_stable(MonomialIdeal.zero(3), golden.W321)


def test_not_strongly_stable_for_any_weights_when_not_borel():
    ideal = parse_ideal("x1^2, x2^2", 2)
    for w1 in range(1, 5):
        for w2 in range(1, w1 + 1):
            assert not is_w_stable(ideal, WeightVector((w1, w2)))


def test_w_stable_implies_strongly_stable():
    rng = random.Random(31)
    for _ in range(30):
        w = random_weight_vector(rng, 3)
        ideal = w_closure([random_monomial(rng, 3, 2) for _ in range(2)], w)
        assert is_w_stable(ideal, w)
        assert is_w_stable(ideal, WeightVector.ones(3))


def test_w_borel_gens_golden():
    ideal = parse_ideal("x1^2, x1*x2^2, x2^4", 2)
    assert w_borel_gens(ideal, golden.W21) == {golden.monomial("x2^4", 2)}


@pytest.mark.parametrize("row", sorted(golden.CORNER_CUT_TABLE))
def test_corner_cut_table_row(row):
    weights_text, ideal_text, bgens_text, wbgens_text = golden.CORNER_CUT_TABLE[row]
    from wstable import parse_weights
    w = parse_weights(weights_text)
    ideal = parse_ideal(ideal_text, 3)
    assert is_w_stable(ideal, w)
    assert w_borel_gens(ideal, WeightVector.ones(3)) == set(golden.monomials(bgens_text, 3))
    assert w_borel_gens(ideal, w) == set(golden.monomials(wbgens_text, 3))


def test_w_borel_gens_rejects_unstable_input():
    ideal = parse_ideal("x2^2", 2)  # not stable: closure adds x1-divisible gens
    with pytest.raises(NotWStableError) as info:
        w_borel_gens(ideal, golden.ONES2)
    assert info.value.witness.nvars == 2
    assert not ideal.contains(info.value.witness)


def test_bgens_nested_in_generators():
    rng = random.Random(37)
    for _ in range(30):
        w = random_weight_vector(rng, 3)
        ideal = w_closure([random_monomial(rng, 3, 2) for _ in range(2)], w)
        weighted = w_borel_gens(ideal, w)
        unweighted = w_borel_gens(ideal, WeightVector.ones(3))
        assert weighted <= unweighted <= ideal.gens
        assert w_closure(weighted, w) == ideal
        assert w_closure(unweighted, WeightVector.ones(3)) == ideal


def test_trunc_ideal_known_values():
    borel_y2sq = w_closure([Monomial((0, 2))], golden.ONES2)
    assert trunc_ideal(borel_y2sq, 1) == MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 1))])
    assert trunc_ideal(borel_y2sq, 5) == borel_y2sq
    assert trunc_ideal(borel_y2sq, 0) == MonomialIdeal.unit(2)
    with pytest.raises(ValueError, match="non-negative"):
        trunc_ideal(borel_y2sq, -1)


def test_trunc_ideal_at_degree_zero_is_no_special_case():
    """The zero ideal stays zero and a non-stable ideal is rejected at every degree."""
    for d in range(3):
        assert trunc_ideal(MonomialIdeal.zero(2), d) == MonomialIdeal.zero(2)
        with pytest.raises(NotWStableError):
            trunc_ideal(parse_ideal("x2", 2), d)


def test_trunc_ideal_matches_elementwise_oracle():
    """Truncating the Borel generators agrees with truncating every member."""
    cases = [
        (w_closure([Monomial((1, 3))], golden.ONES2), 2),
        (w_closure([Monomial((1, 1, 2))], golden.ONES3), 2),
        (w_closure([Monomial((0, 2, 1))], golden.ONES3), 1),
        (w_closure([Monomial((0, 0, 3))], golden.ONES3), 2),
    ]
    for ideal, d in cases:
        maxdeg = max(g.degree() for g in ideal.gens)
        members = ideal_monomials_up_to_degree(ideal, maxdeg + d)
        expected = MonomialIdeal(ideal.nvars, (truncate(m, d) for m in members))
        assert trunc_ideal(ideal, d) == expected


def test_trunc_ideal_golden_derived():
    ideal = w_closure([Monomial((1, 3))], golden.ONES2)
    assert trunc_ideal(ideal, 2) == w_closure([Monomial((1, 1))], golden.ONES2)


# ---------------------------------------------------------------------------
# differential tests against the move-fixpoint oracle

# Examples take well under 0.5 s; the deadline turns a closure that keeps
# too many Borel generators, and so runs quadratically, into a failure.
DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=120,
                        deadline=timedelta(seconds=5))


@st.composite
def weighted_seeds(draw):
    """A weight vector and 1-3 seeds: n <= 4, exponents <= 3, weights <= 3.

    Half the cases are standard graded, where the first prefix sum moves in
    steps of one.
    """
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        weights = [1] * n
    else:
        weights = sorted(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), reverse=True)
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    seeds = draw(st.lists(exponents, min_size=1, max_size=3))
    return WeightVector(tuple(weights)), [Monomial(s) for s in seeds]


def _antichain(vectors, weights):
    """The vectors, in order, that have weighted prefix sums incomparable
    with those of every vector kept before them."""
    kept = {}
    for v in vectors:
        p = tuple(itertools.accumulate(map(int.__mul__, weights, v)))
        if all(any(map(int.__lt__, p, q)) and any(map(int.__gt__, p, q)) for q in kept.values()):
            kept[v] = p
    return list(kept)


@st.composite
def many_seeds(draw):
    """A weight vector and 1-8 Borel generators: 3 <= n <= 5, exponents <= 3, weights <= 3.

    Half the cases are standard graded.  The exponent vectors of one
    weighted degree are shuffled, and each is kept when its prefix sums are
    incomparable with those of every vector kept before it.
    """
    n = draw(st.integers(3, 5))
    if draw(st.booleans()):
        weights = (1,) * n
    else:
        weights = tuple(sorted(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
                               reverse=True))
    degree = sum(map(int.__mul__, weights, draw(st.tuples(*[st.integers(0, 3)] * n))))
    pool = [e for e in itertools.product(range(4), repeat=n)
            if sum(map(int.__mul__, weights, e)) == degree]
    draw(st.randoms(use_true_random=False)).shuffle(pool)
    seeds = _antichain(pool, weights)[:8]
    return WeightVector(weights), [Monomial(s) for s in seeds]


def _first_missing(closed, ideal):
    """The first generator of ``closed``, in graded-lex descending order, not in ``ideal``."""
    return max((g for g in closed.gens if g not in ideal.gens),
               key=lambda m: (m.degree(), m.exponents))


def _check_against_oracle(ideal, w):
    """Stability and the witness or Borel generators of ``ideal``, from the oracle."""
    closed = w_closure_oracle(ideal.gens, w)
    stable = closed == ideal
    assert is_w_stable(ideal, w) == stable
    if not stable:
        with pytest.raises(NotWStableError) as info:
            w_borel_gens(ideal, w)
        assert info.value.witness == _first_missing(closed, ideal)
        return
    bgens = w_borel_gens(ideal, w)
    # the unique subset of generators that closes to the ideal and has no
    # redundant element
    assert bgens <= ideal.gens
    assert w_closure_oracle(bgens, w) == ideal
    for b in bgens:
        assert not in_w_closure_oracle(b, bgens - {b}, w)


@DIFFERENTIAL
@given(weighted_seeds())
def test_closure_matches_move_fixpoint_oracle(case):
    w, seeds = case
    assert w_closure(seeds, w) == w_closure_oracle(seeds, w)


@DIFFERENTIAL
@given(weighted_seeds())
def test_closure_is_stable_with_oracle_borel_gens(case):
    w, seeds = case
    _check_against_oracle(w_closure_oracle(seeds, w), w)


@DIFFERENTIAL
@given(weighted_seeds(), st.integers(0, 10 ** 6))
def test_stability_and_witness_match_oracle_on_broken_ideals(case, drop):
    """The seed ideal itself, and the closure less one generator, are often unstable."""
    w, seeds = case
    n = w.nvars
    _check_against_oracle(MonomialIdeal(n, seeds), w)
    gens = sorted(w_closure_oracle(seeds, w).gens, key=lambda m: m.exponents)
    del gens[drop % len(gens)]
    _check_against_oracle(MonomialIdeal(n, gens), w)


@settings(derandomize=True, database=None, max_examples=60, deadline=timedelta(seconds=5))
@given(many_seeds(), st.integers(0, 10 ** 6))
def test_closure_of_many_seeds_matches_oracle(case, drop):
    """Closure, stability, Borel generators, and the witness on the closure less one generator."""
    w, seeds = case
    closed = w_closure_oracle(seeds, w)
    assert w_closure(seeds, w) == closed
    _check_against_oracle(closed, w)
    gens = sorted(closed.gens, key=lambda m: m.exponents)
    del gens[drop % len(gens)]
    _check_against_oracle(MonomialIdeal(w.nvars, gens), w)


def test_standard_closure_of_x6_power_at_scale():
    """x6^8 in six variables: all 1,287 degree-8 monomials, closed and checked quickly."""
    ones = WeightVector.ones(6)
    with time_limit(2.0):
        ideal = w_closure([Monomial((0, 0, 0, 0, 0, 8))], ones)
        stable = is_w_stable(ideal, ones)
    assert len(ideal) == 1287
    assert all(g.degree() == 8 for g in ideal.gens)
    assert stable


def _incomparable_seeds(n, d):
    """Degree-``d`` monomials in ``n`` variables with pairwise incomparable prefix sums.

    All of them, in ascending lex order of exponents, are shuffled with
    ``random.Random(1)`` before :func:`_antichain` picks them.
    """
    vectors = [m.exponents for m in reversed(list(monomials_of_degree(n, d)))]
    random.Random(1).shuffle(vectors)
    return [Monomial(v) for v in _antichain(vectors, (1,) * n)]


def test_closure_of_many_borel_generators_at_scale():
    """46 Borel generators of degree 10 in six variables, once 7 s for each call."""
    ones = WeightVector.ones(6)
    seeds = _incomparable_seeds(6, 10)
    assert len(seeds) == 46
    with time_limit(0.5):
        ideal = w_closure(seeds, ones)
    assert len(ideal) == 1653
    with time_limit(0.5):
        stable = is_w_stable(ideal, ones)
    assert stable
    with time_limit(0.5):
        series = hilbert_series(ideal, ones)
    # every generator has degree 10, out of the 3,003 monomials of that degree
    assert series.expansion(10)[10] == 3003 - 1653


def test_closure_of_high_power_at_scale():
    """The standard closure of x2^4000: 4,001 generators, once 9 s."""
    with time_limit(0.5):
        ideal = w_closure([Monomial((0, 4000))], WeightVector.ones(2))
    assert len(ideal) == 4001


def test_closure_in_1500_variables_does_not_recurse():
    """The walk keeps an explicit stack, so 1,500 coordinates stay below the recursion limit."""
    n = 1500
    with time_limit(5.0):
        ideal = w_closure([Monomial.variable(n, n)], WeightVector.ones(n))
    assert ideal.gens == {Monomial.variable(i, n) for i in range(1, n + 1)}
