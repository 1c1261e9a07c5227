"""Stanley decompositions, Hilbert series, Poincare series, Betti numbers."""

import random
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from oracles import (
    _in_coset,
    _in_ideal,
    all_monomials,
    complement_counts,
    distinct_part_partitions,
    principal_cases,
    random_monomial,
    random_weight_vector,
)
from timing import time_limit
from wstable import (
    Monomial,
    MonomialIdeal,
    NotWStableError,
    WeightVector,
    betti_numbers,
    catalan_diagram,
    format_betti_table,
    hilbert_series,
    max_index,
    parse_ideal,
    parse_monomial,
    poincare_series,
    psi,
    psi_inverse,
    stanley_decomposition,
    tree_from_monomial,
    trunc_ideal,
    truncate,
    w_borel_gens,
    w_closure,
    weighted_degree,
)

X123 = parse_monomial("x1*x2*x3^2")


def closure_321():
    return w_closure([X123], golden.W321)


def closure_ones():
    return w_closure([X123], golden.ONES3)


# ---------------------------------------------------------------------------
# Stanley decompositions

def test_stanley_single_variable_ideal():
    ideal = w_closure([Monomial((1, 0, 0))], golden.ONES3)
    decomposition = stanley_decomposition(ideal, golden.ONES3)
    assert decomposition.pieces == ((Monomial.unit(3), frozenset({2, 3})),)


def test_stanley_isolated_cosets():
    ideal = w_closure([Monomial((0, 2))], golden.ONES2)
    decomposition = stanley_decomposition(ideal, golden.ONES2)
    assert set(decomposition.pieces) == {
        (Monomial.unit(2), frozenset()),
        (Monomial((1, 0)), frozenset()),
        (Monomial((0, 1)), frozenset()),
    }


def test_stanley_zero_and_unit_ideal():
    zero = stanley_decomposition(MonomialIdeal.zero(2), golden.W21)
    assert zero.pieces == ((Monomial.unit(2), frozenset({1, 2})),)
    unit = stanley_decomposition(MonomialIdeal.unit(2), golden.W21)
    assert unit.pieces == ()


def test_stanley_rejects_unstable_input():
    with pytest.raises(NotWStableError):
        stanley_decomposition(parse_ideal("x2^2", 2), golden.ONES2)


def _assert_partitions_complement(ideal, w, bound):
    decomposition = stanley_decomposition(ideal, w)
    expected = complement_counts(ideal, w, bound)
    got = [decomposition.count_monomials(t) for t in range(bound + 1)]
    assert got == expected


def test_stanley_partitions_complement_golden():
    _assert_partitions_complement(closure_321(), golden.W321, 30)
    _assert_partitions_complement(closure_ones(), golden.ONES3, 12)
    ideal = parse_ideal("x1, x2^2", 2)
    _assert_partitions_complement(ideal, golden.W21, 30)


def test_stanley_partitions_complement_random():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.choice((2, 3))
        w = random_weight_vector(rng, n)
        gens = [random_monomial(rng, n, 2) for _ in range(rng.randint(1, 2))]
        ideal = w_closure(gens, w)
        _assert_partitions_complement(ideal, w, 15)


def _principal_pieces(m, w):
    """Reference pieces of the principal closure of ``m``, from its truncation tree.

    Every vertex below the tree's degree bound is a coset; its free indices
    run from its maximal index up, less those its children append.
    """
    tree = tree_from_monomial(m, w)
    pieces = []
    for v in sorted(tree.vertices(), key=lambda u: (weighted_degree(u, w), u.exponents)):
        if weighted_degree(v, w) >= tree.degree_bound:
            continue
        taken = {max_index(c) for c in tree.children(v)}
        free = frozenset(j for j in range(max_index(v), m.nvars + 1) if j not in taken)
        pieces.append((v, free))
    return pieces


def _filtration_pieces(ideal, w):
    """Reference pieces from the truncation filtration of the substituted closure.

    A generator ``g`` of the s-th truncation with degree s, outside the
    closure, is a coset when it pulls back to some ``u``; its free indices
    are those ``j`` with ``g * x_j`` outside the (s+1)-st truncation.
    """
    n = ideal.nvars
    closed_image = w_closure([psi(g, w) for g in ideal.gens], WeightVector.ones(n))
    d = max(g.degree() for g in closed_image.gens)
    truncations = [trunc_ideal(closed_image, s) for s in range(d + 1)]
    pieces = []
    for s in range(d):
        for g in sorted(truncations[s].gens, key=lambda m: m.exponents):
            if g.degree() != s or closed_image.contains(g):
                continue
            u = psi_inverse(g, w)
            if u is None:
                continue
            free = frozenset(
                j for j in range(1, n + 1)
                if not truncations[s + 1].contains(g.times_variable(j)))
            pieces.append((u, free))
    return pieces


def test_stanley_principal_routes_agree():
    """The prefix walk lists the pieces of both reference routes, in their order."""
    cases = [(closure_321(), golden.W321),
             (w_closure([Monomial((0, 2))], golden.ONES2), golden.ONES2),
             (w_closure([Monomial((0, 2, 1))], WeightVector((4, 2, 1))),
              WeightVector((4, 2, 1)))]
    for ideal, w in cases:
        (m,) = w_borel_gens(ideal, w)
        pieces = list(stanley_decomposition(ideal, w).pieces)
        assert pieces == _principal_pieces(m, w)
        assert pieces == _filtration_pieces(ideal, w)
    for ideal, w in _non_principal_cases(79, 15):
        assert list(stanley_decomposition(ideal, w).pieces) == _filtration_pieces(ideal, w)


@st.composite
def stable_closures(draw):
    """A weight vector and the closure of 1-3 seeds: n <= 4, weights <= 3, exponents <= 2."""
    n = draw(st.integers(1, 4))
    w = WeightVector(tuple(sorted(
        draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), reverse=True)))
    seeds = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=3))
    return w, w_closure([Monomial(s) for s in seeds], w)


@settings(derandomize=True, database=None, max_examples=120, deadline=timedelta(seconds=5))
@given(stable_closures())
def test_stanley_pieces_tile_complement(case):
    """Up to two degrees past the generators, each monomial outside the ideal
    lies in exactly one piece, and each monomial of the ideal in none."""
    w, ideal = case
    pieces = [(coset.exponents, free)
              for coset, free in stanley_decomposition(ideal, w).pieces]
    gens = [g.exponents for g in ideal.gens]
    for m in all_monomials(w.nvars, max(sum(g) for g in gens) + 2):
        u = m.exponents
        hits = sum(1 for coset, free in pieces if _in_coset(u, coset, free))
        assert hits == (0 if _in_ideal(u, gens) else 1), u


@pytest.mark.parametrize("nvars, weights, seeds, npieces", [
    (4, (3, 3, 3, 1), "x2^2*x3^2*x4^2, x1*x2*x3*x4", 19),
    (4, (3, 2, 2, 1), "x1*x2^2*x3^2*x4^2, x1^2*x2*x3^2", 21),
    (6, (1, 1, 1, 1, 1, 1), "x6^8", 1716),
])
def test_stanley_runs_fast(nvars, weights, seeds, npieces):
    """Inputs whose decomposition once took 0.1-2 s through truncation filtrations."""
    w = WeightVector(weights)
    ideal = w_closure(parse_ideal(seeds, nvars).gens, w)
    with time_limit(0.05):
        decomposition = stanley_decomposition(ideal, w)
    assert len(decomposition.pieces) == npieces


# ---------------------------------------------------------------------------
# Hilbert series

def test_hilbert_polynomial_ring_in_two_variables():
    ideal = w_closure([Monomial((1, 0, 0))], golden.ONES3)
    series = hilbert_series(ideal, golden.ONES3)
    assert series.terms == ((1, 0, 1),)
    # 1/(1-t)^2 expands to 1, 2, 3, ...
    assert series.expansion(6) == [t + 1 for t in range(7)]


def test_hilbert_finite_complement():
    ideal = w_closure([Monomial((0, 2))], golden.ONES2)
    series = hilbert_series(ideal, golden.ONES2)
    assert series.expansion(8) == [1, 2, 0, 0, 0, 0, 0, 0, 0]


def test_hilbert_matches_counting_golden():
    for ideal, w in ((closure_321(), golden.W321), (closure_ones(), golden.ONES3)):
        series = hilbert_series(ideal, w)
        assert series.expansion(30) == complement_counts(ideal, w, 30)
        assert series.expansion_from_terms(30) == series.expansion(30)


def test_hilbert_terms_from_diagram_rows():
    series = hilbert_series(closure_321(), golden.W321)
    assert series.terms == ((1, 0, 1), (1, 3, 2), (1, 5, 3), (2, 6, 3))
    image = psi(X123, golden.W321)
    for _, s, k in series.terms:
        assert k == max_index(truncate(image, s + 1))


def _truncation_terms(m, w):
    """Reference structured terms: each row truncates the substituted image of ``m`` anew.

    Row ``s`` of the Catalan diagram below the weighted degree gives the term
    ``(row sum, s, maximal index of the (s+1)-factor truncation)``.
    """
    diagram = catalan_diagram(m, w)
    image = psi(m, w)
    return tuple((diagram.row_sum(s), s, max_index(truncate(image, s + 1)))
                 for s in range(diagram.degree) if diagram.row_sum(s))


def test_hilbert_terms_match_truncation_rule():
    for m, w in principal_cases(59):
        terms = hilbert_series(w_closure([m], w), w).terms
        assert terms == _truncation_terms(m, w), (m, w)


def test_hilbert_matches_counting_random_principal():
    rng = random.Random(53)
    checked = 0
    while checked < 25:
        n = rng.choice((2, 3))
        w = random_weight_vector(rng, n)
        m = random_monomial(rng, n, 2)
        if m.is_unit():
            continue
        ideal = w_closure([m], w)
        series = hilbert_series(ideal, w)
        assert series.expansion(20) == complement_counts(ideal, w, 20)
        if series.terms is not None:
            assert series.expansion_from_terms(20) == series.expansion(20)
        checked += 1


def _non_principal_cases(seed, count):
    """Seeded weighted closures of 2-3 monomials that are not principal."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.choice((2, 3))
        w = random_weight_vector(rng, n)
        ideal = w_closure([random_monomial(rng, n, 2)
                           for _ in range(rng.randint(2, 3))], w)
        if len(w_borel_gens(ideal, w)) >= 2:
            cases.append((ideal, w))
    return cases


def test_hilbert_matches_counting_random_non_principal():
    for ideal, w in _non_principal_cases(67, 15):
        series = hilbert_series(ideal, w)
        assert series.terms is None
        assert series.expansion(20) == complement_counts(ideal, w, 20)
        with pytest.raises(ValueError, match="no structured term form"):
            series.expansion_from_terms(20)


def _stanley_numerator(decomposition, w):
    """Sum the pieces over the common denominator ``prod_j (1 - t^{w_j})``."""
    numerator = {}
    for coset, free in decomposition.pieces:
        block = {weighted_degree(coset, w): 1}
        for j in range(1, w.nvars + 1):
            if j not in free:
                shifted = {d + w[j - 1]: -c for d, c in block.items()}
                for d, c in shifted.items():
                    block[d] = block.get(d, 0) + c
        for d, c in block.items():
            numerator[d] = numerator.get(d, 0) + c
    return {d: c for d, c in numerator.items() if c}


def test_hilbert_numerator_matches_stanley_sum():
    """The generator formula and the Stanley decomposition give one numerator."""
    cases = _non_principal_cases(71, 15) + [
        (closure_321(), golden.W321), (closure_ones(), golden.ONES3)]
    for ideal, w in cases:
        assert (_stanley_numerator(stanley_decomposition(ideal, w), w)
                == hilbert_series(ideal, w).numerator)


@pytest.mark.parametrize("weights, seeds", [
    ((3, 3, 3, 1), "x2^2*x3^2*x4^2, x1*x2*x3*x4"),
    ((3, 2, 2, 1), "x1*x2^2*x3^2*x4^2, x1^2*x2*x3^2"),
])
def test_hilbert_non_principal_runs_fast(weights, seeds):
    """Two closures whose Hilbert series once took seconds through Stanley pieces."""
    w = WeightVector(weights)
    ideal = w_closure(parse_ideal(seeds, 4).gens, w)
    start = time.perf_counter()
    series = hilbert_series(ideal, w)
    assert time.perf_counter() - start < 1.0
    assert series.expansion(20) == complement_counts(ideal, w, 20)


def test_hilbert_of_high_power_closure_at_scale():
    """The closure of x2^2000, once 3 s: the stability check and one truncation per row."""
    ones = WeightVector.ones(2)
    ideal = w_closure([Monomial((0, 2000))], ones)
    with time_limit(0.5):
        series = hilbert_series(ideal, ones)
    assert series.terms == tuple((s + 1, s, 2) for s in range(2000))


def test_hilbert_rejects_unstable_input():
    with pytest.raises(NotWStableError):
        hilbert_series(parse_ideal("x1^2, x2^2", 2), golden.ONES2)


# ---------------------------------------------------------------------------
# Poincare series

def test_poincare_golden_321():
    series = poincare_series(closure_321(), golden.W321)
    assert series.coefficients == golden.POINCARE_321
    assert series.text() == ("2*t^12*u^3 + t^11*u^2 + 3*t^10*u^2 + 2*t^9*u^2"
                             + " + t^9*u + t^8*u + 3*t^7*u")


def test_poincare_koszul_two_variables():
    maximal = parse_ideal("x1, x2", 2)
    series = poincare_series(maximal, golden.ONES2)
    assert series.coefficients == {(1, 1): 2, (2, 2): 1}


def test_poincare_ones_support_matches_linear_resolution():
    series = poincare_series(closure_ones(), golden.ONES3)
    assert series.coefficients == {(1, 4): 9, (2, 5): 13, (3, 6): 5}
    assert {i: series.total(i) for i in (1, 2, 3)} == {1: 9, 2: 13, 3: 5}


def test_poincare_counts_distinct_part_partitions():
    """Each generator contributes distinct-part partition counts.

    The coefficient of u^i t^j coming from one generator of weighted degree
    d and maximal index q counts the ways to write j - d as a sum of i - 1
    distinct entries drawn from the first q - 1 weights.
    """
    for ideal, w in ((closure_321(), golden.W321),
                     (parse_ideal("x1, x2^2", 2), golden.W21),
                     (closure_ones(), golden.ONES3)):
        series = poincare_series(ideal, w)
        expected = {}
        for g in ideal.gens:
            d, q = weighted_degree(g, w), max_index(g)
            for i in range(1, q + 1):
                for j in range(d, d + sum(tuple(w)[:q - 1]) + 1):
                    count = distinct_part_partitions(j - d, tuple(w)[:q - 1], i - 1)
                    if count:
                        expected[i, j] = expected.get((i, j), 0) + count
        assert series.coefficients == expected


# ---------------------------------------------------------------------------
# Betti numbers

def test_betti_totals_golden():
    totals_ones, _ = betti_numbers(closure_ones(), golden.ONES3)
    assert totals_ones == golden.BETTI_TOTALS_ONES
    totals_321, _ = betti_numbers(closure_321(), golden.W321)
    assert totals_321 == golden.BETTI_TOTALS_321


def test_betti_graded_golden_entries():
    _, graded = betti_numbers(closure_321(), golden.W321)
    for (i, j), expected in golden.POINCARE_321.items():
        assert graded.beta(i, j) == expected
    _, graded_ones = betti_numbers(closure_ones(), golden.ONES3)
    assert graded_ones.beta(1, 4) == 9
    assert graded_ones.beta(2, 5) == 13
    assert graded_ones.beta(3, 6) == 5


def test_betti_principal_ideal():
    totals, graded = betti_numbers(parse_ideal("x1", 3), golden.W321)
    assert totals == (1, 0, 0)
    assert graded.coefficients == {(1, 3): 1}


def test_betti_table_layout():
    _, graded = betti_numbers(closure_321(), golden.W321)
    table = format_betti_table(graded, 3)
    lines = table.splitlines()
    assert lines[0].split() == ["0", "1", "2", "3"]
    assert lines[1].split() == ["total:", "1", "5", "6", "2"]
    rows = {line.split(":")[0].strip(): line.split(":")[1].split()
            for line in lines[2:]}
    assert rows["0"] == ["1", ".", ".", "."]
    assert rows["6"] == [".", "3", ".", "."]
    assert rows["7"] == [".", "1", "2", "."]
    assert rows["8"] == [".", "1", "3", "."]
    assert rows["9"] == [".", ".", "1", "2"]


def test_totals_depend_only_on_generator_max_indices():
    """Totals are a function of the multiset of generator maximal indices."""
    import math
    rng = random.Random(59)
    weight_choices = [golden.ONES3, golden.W321, WeightVector((2, 2, 1)),
                      WeightVector((4, 2, 1))]
    for _ in range(10):
        seeds = [random_monomial(rng, 3, 2) for _ in range(2)]
        for w in weight_choices:
            ideal = w_closure(seeds, w)
            totals, _ = betti_numbers(ideal, w)
            counts = {}
            for g in ideal.gens:
                counts[max_index(g)] = counts.get(max_index(g), 0) + 1
            expected = tuple(
                sum(cnt * math.comb(q - 1, i - 1) for q, cnt in counts.items())
                for i in range(1, 4))
            assert totals == expected


def test_betti_totals_weight_independent_on_golden_closures():
    """Each golden closure keeps its totals under every weighting it admits."""
    import math

    from wstable import is_w_stable
    for ideal in (closure_ones(), closure_321()):
        expected = tuple(
            sum(math.comb(max_index(g) - 1, i - 1) for g in ideal.gens)
            for i in range(1, 4))
        for w in (golden.ONES3, golden.W321, WeightVector((2, 2, 1))):
            if not is_w_stable(ideal, w):
                continue
            totals, _ = betti_numbers(ideal, w)
            assert totals == expected


# ---------------------------------------------------------------------------
# the numerator identity

def _assert_numerator_identity(ideal, w):
    series = hilbert_series(ideal, w)
    poincare = poincare_series(ideal, w)
    signed = poincare.at_u(-1)
    signed[0] = signed.get(0, 0) + 1
    assert {j: c for j, c in signed.items() if c} == series.numerator


def test_numerator_identity_golden():
    _assert_numerator_identity(closure_321(), golden.W321)
    _assert_numerator_identity(closure_ones(), golden.ONES3)
    _assert_numerator_identity(parse_ideal("x1, x2^2", 2), golden.W21)
    _assert_numerator_identity(MonomialIdeal.unit(2), golden.W21)
    _assert_numerator_identity(MonomialIdeal.zero(2), golden.W21)


def test_numerator_identity_random():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.choice((2, 3))
        w = random_weight_vector(rng, n)
        ideal = w_closure([random_monomial(rng, n, 2)
                           for _ in range(rng.randint(1, 2))], w)
        _assert_numerator_identity(ideal, w)
