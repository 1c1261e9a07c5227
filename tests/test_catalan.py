"""Weighted Catalan diagrams."""

import golden
from oracles import principal_cases
from timing import time_limit
from wstable import (
    Monomial,
    WeightVector,
    catalan_diagram,
    generator_stats,
    max_index,
    parse_monomial,
    psi,
    truncate,
    w_closure,
    weighted_degree,
)


def test_diagram_golden_321_deg11():
    diagram = catalan_diagram(parse_monomial("x1*x2^3*x3^2"), golden.W321)
    assert diagram.rows == golden.CATALAN_321_DEG11
    assert diagram.degree == 11
    assert len(diagram.rows) == 14


def test_diagram_golden_ones():
    diagram = catalan_diagram(parse_monomial("x1*x2*x3^2"), golden.ONES3)
    assert diagram.rows == golden.CATALAN_ONES_DEG4


def test_diagram_golden_321_deg7():
    diagram = catalan_diagram(parse_monomial("x1*x2*x3^2"), golden.W321)
    assert diagram.rows == golden.CATALAN_321_DEG7
    assert diagram.rows[-3:] == ((0, 1, 2), (0, 1, 0), (1, 0, 0))


def test_text_rendering():
    diagram = catalan_diagram(parse_monomial("x1*x2^3*x3^2"), golden.W321)
    assert "\n".join(diagram.text_lines()) == golden.CATALAN_TEXT_321_DEG11


def test_generator_stats_golden():
    d321 = catalan_diagram(parse_monomial("x1*x2*x3^2"), golden.W321)
    assert generator_stats(d321) == golden.GENERATOR_STATS_321_DEG7
    dones = catalan_diagram(parse_monomial("x1*x2*x3^2"), golden.ONES3)
    assert generator_stats(dones) == golden.GENERATOR_STATS_ONES_DEG4
    dx1 = catalan_diagram(Monomial((1, 0)), WeightVector.ones(2))
    assert generator_stats(dx1) == [(1, 1, 1)]


def test_generator_rows_count_closure_generators():
    """Rows at and above the degree reproduce the closure's generator counts."""
    import random

    from oracles import random_monomial, random_weight_vector
    rng = random.Random(43)
    cases = [(parse_monomial("x1*x2^3*x3^2"), golden.W321),
             (parse_monomial("x1*x2*x3^2"), golden.ONES3)]
    for _ in range(20):
        n = rng.choice((2, 3))
        cases.append((random_monomial(rng, n, 2), random_weight_vector(rng, n)))
    for m, w in cases:
        if m.is_unit():
            continue
        expected = {}
        for g in w_closure([m], w).gens:
            key = (weighted_degree(g, w), max_index(g))
            expected[key] = expected.get(key, 0) + 1
        stats = {(a, b): q for a, b, q in generator_stats(catalan_diagram(m, w))}
        assert stats == expected


def test_interior_row_sums_count_tree_vertices():
    """Row sums below the degree count the tree's vertices by weighted degree."""
    from wstable import tree_from_monomial
    cases = [(parse_monomial("x1*x2^3*x3^2"), golden.W321),
             (parse_monomial("x2^2*x3", 3), WeightVector((4, 2, 1)))]
    for m, w in cases:
        diagram = catalan_diagram(m, w)
        tree = tree_from_monomial(m, w)
        for s in range(diagram.degree):
            at_degree = sum(1 for v in tree.vertices()
                            if weighted_degree(v, w) == s)
            assert diagram.row_sum(s) == at_degree


def test_diagram_invariants():
    diagram = catalan_diagram(parse_monomial("x1*x2^3*x3^2"), golden.W321)
    assert diagram.entry(0, 1) == 1
    assert all(diagram.entry(0, b) == 0 for b in range(2, 4))
    # no sources at or above the degree: those entries stay zero
    d, w = diagram.degree, golden.W321
    for a in range(d, len(diagram.rows)):
        for b in range(1, 4):
            if a - w[b - 1] >= d:
                assert diagram.entry(a, b) == 0


def test_unit_monomial_diagram():
    diagram = catalan_diagram(Monomial.unit(2), WeightVector((2, 1)))
    assert diagram.degree == 0
    assert diagram.rows == ((1, 0), (0, 0))
    assert generator_stats(diagram) == [(0, 1, 1)]


def _per_cell_rows(m, w):
    """Reference diagram: each cell truncates the substituted image of ``m`` anew.

    Entry (a, b) sums row ``a - w_b`` up to column ``b`` when that row lies
    below the weighted degree and the (a - w_b + 1)-factor truncation of
    the image has maximal index at least ``b``.
    """
    d = weighted_degree(m, w)
    image = psi(m, w)
    rows = [[0] * m.nvars for _ in range(d + w.max_weight)]
    rows[0][0] = 1
    for a in range(1, len(rows)):
        for b in range(1, m.nvars + 1):
            src = a - w[b - 1]
            if 0 <= src < d and max_index(truncate(image, src + 1)) >= b:
                rows[a][b - 1] = sum(rows[src][:b])
    return tuple(tuple(r) for r in rows)


def test_diagram_matches_per_cell_truncation_rule():
    for m, w in principal_cases(47):
        assert catalan_diagram(m, w).rows == _per_cell_rows(m, w), (m, w)


def test_diagram_of_high_power_at_scale():
    """x2^4000: 4,001 rows, once 2 s through one truncation per cell."""
    m = Monomial((0, 4000))
    with time_limit(0.5):
        diagram = catalan_diagram(m, WeightVector.ones(2))
    assert generator_stats(diagram) == [(4000, 1, 1), (4000, 2, 4000)]
