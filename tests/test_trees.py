"""Truncation trees and generator trees."""

from datetime import timedelta

import golden
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import all_monomials, borel_closure_by_moves, truncation_tree_bfs
from wstable import (
    Monomial,
    WeightVector,
    format_monomial,
    iter_tree_sinks,
    parse_ideal,
    parse_monomial,
    psi,
    truncate,
    tree_from_ideal,
    tree_from_monomial,
    w_closure,
    weighted_degree,
)


def _edge_names(tree, letters=False):
    return {(format_monomial(a, letters), format_monomial(b, letters))
            for a, b in tree.edges}


def test_tree_golden_edges_421():
    tree = tree_from_monomial(parse_monomial("x2^2*x3", 3), WeightVector((4, 2, 1)))
    assert _edge_names(tree) == set(golden.TREE_421_EDGES)
    assert {format_monomial(s) for s in tree.sinks()} == set(golden.TREE_421_SINKS)


def test_tree_ones_lacks_mixed_vertex():
    tree = tree_from_monomial(parse_monomial("x2^2*x3", 3), golden.ONES3)
    assert parse_monomial("x1*x3", 3) not in tree.vertices()


def test_tree_single_variable():
    tree = tree_from_monomial(Monomial((1, 0)), WeightVector.ones(2))
    assert tree.edges == {(Monomial.unit(2), Monomial((1, 0)))}
    assert tree.sinks() == {Monomial((1, 0))}


def test_tree_unit_monomial_is_lone_root():
    tree = tree_from_monomial(Monomial.unit(2), WeightVector.ones(2))
    assert tree.edges == frozenset()
    assert tree.vertices() == {Monomial.unit(2)}


def _streamed_sinks(m, w, bound=None):
    """The sinks from :func:`iter_tree_sinks`, each streamed once."""
    sinks = list(iter_tree_sinks(m, w) if bound is None else iter_tree_sinks(m, w, bound))
    assert len(sinks) == len(set(sinks))
    return set(sinks)


def test_tree_sinks_are_closure_generators():
    import random

    from oracles import random_monomial, random_weight_vector
    rng = random.Random(41)
    bounds = random.Random(43)
    for _ in range(25):
        w = random_weight_vector(rng, 3)
        m = random_monomial(rng, 3, 2)
        tree = tree_from_monomial(m, w)
        assert tree.sinks() == w_closure([m], w).gens
        assert _streamed_sinks(m, w) == tree.sinks()
        bound = bounds.randint(0, weighted_degree(m, w) + 3)
        assert _streamed_sinks(m, w, bound) == tree_from_monomial(m, w, bound).sinks()
        sinks = list(tree.sinks())
        for a in sinks:
            for b in sinks:
                if a != b:
                    assert not a.divides(b)


@st.composite
def bounded_seeds(draw):
    """A seed, a weight vector and a bound: n <= 5, weights <= 5, exponents <= 3.

    The bound runs from -3 to ``d + max(w) + 1`` for ``d`` the seed's
    weighted degree, or is left to its default.
    """
    n = draw(st.integers(1, 5))
    weights = tuple(sorted(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
                           reverse=True))
    exponents = draw(st.tuples(*[st.integers(0, 3)] * n))
    d = sum(map(int.__mul__, weights, exponents))
    bound = draw(st.none() | st.integers(-3, d + weights[0] + 1))
    return Monomial(exponents), WeightVector(weights), bound


@settings(derandomize=True, database=None, max_examples=200, deadline=timedelta(seconds=5))
@given(bounded_seeds())
def test_tree_matches_breadth_first_oracle(case):
    """Edges, adjacency lines, bound and sink order agree with a breadth-first walk."""
    m, w, bound = case
    cap = weighted_degree(m, w) if bound is None else bound
    walk = list(truncation_tree_bfs(m.exponents, tuple(w), cap))
    tree = tree_from_monomial(m, w, bound)
    assert tree.edges == {(Monomial(v), Monomial(c)) for v, kids in walk for c in kids}
    fmt = format_monomial
    assert tree.adjacency_lines() == [
        f"{fmt(Monomial(v))}: {' '.join(fmt(Monomial(c)) for c in kids)}".rstrip()
        for v, kids in walk]
    assert tree.degree_bound == cap
    assert [s.exponents for s in iter_tree_sinks(m, w, bound)] == [v for v, kids in walk if not kids]


@pytest.mark.parametrize("bound", [2.5, "3"])
def test_tree_bound_must_be_an_integer(bound):
    m, w = parse_monomial("x1*x2^2", 2), WeightVector((2, 1))
    with pytest.raises(TypeError):
        tree_from_monomial(m, w, bound)
    with pytest.raises(TypeError):
        list(iter_tree_sinks(m, w, bound))


def test_tree_vertices_match_truncation_ideals():
    """Vertices at weighted degree >= t generate the pullback of the t-truncation.

    The vertices are always contained in the pullback of the truncated
    closure, and they generate the same ideal; at t equal to the weighted
    degree the two sets coincide (that equality is what makes the sinks the
    minimal generators).
    """
    from wstable import MonomialIdeal
    cases = [
        (parse_monomial("x2^2*x3", 3), WeightVector((4, 2, 1))),
        (parse_monomial("x1*x2*x3^2", 3), golden.W321),
        (parse_monomial("x2^3", 2), WeightVector((3, 2))),
    ]
    for m, w in cases:
        n = m.nvars
        d = weighted_degree(m, w)
        cap = d + w.max_weight
        tree = tree_from_monomial(m, w, bound=cap)
        image = psi(m, w)
        for t in range(d + 1):
            pullback = borel_closure_by_moves([truncate(image, t)], n)
            at_least_t = {v for v in tree.vertices()
                          if t <= weighted_degree(v, w) <= cap}
            members = {u for u in all_monomials(n, cap)
                       if t <= weighted_degree(u, w) <= cap
                       and pullback.contains(psi(u, w))}
            assert at_least_t <= members
            assert MonomialIdeal(n, at_least_t) == MonomialIdeal(n, members)
            if t == d:
                assert at_least_t == members


def test_generator_tree_golden():
    tree = tree_from_ideal(parse_ideal(golden.CONE_IDEAL_TEXT, 3))
    assert _edge_names(tree, letters=True) == set(golden.GENERATOR_TREE_EDGES)
    assert ({format_monomial(s, True) for s in tree.sinks()}
            == set(golden.GENERATOR_TREE_SINKS))
    assert ({format_monomial(s, True) for s in tree.subsinks()}
            == set(golden.GENERATOR_TREE_SUBSINKS))


def test_generator_tree_principal_ideal():
    tree = tree_from_ideal(parse_ideal("x1", 2))
    assert tree.edges == {(Monomial.unit(2), Monomial((1, 0)))}


def test_generator_tree_matches_rule_oracle():
    """Edges agree with a direct scan of all truncation equations."""
    ideals = [
        parse_ideal("x1^2, x1*x2, x2^2", 2),
        parse_ideal(golden.CONE_IDEAL_TEXT, 3),
        parse_ideal("x1, x2^3", 2),
    ]
    from wstable import max_index
    for ideal in ideals:
        maxdeg = max(g.degree() for g in ideal.gens)
        edges = set()
        for v in all_monomials(ideal.nvars, maxdeg):
            # edges append a variable index of at least max_index(v); without
            # that constraint the truncation rule would give vertices two parents
            for j in range(max_index(v), ideal.nvars + 1):
                child = v.times_variable(j)
                if any(g != v and truncate(g, child.degree()) == child
                       for g in ideal.gens):
                    edges.add((v, child))
        # restrict to edges reachable from the root
        reachable = {Monomial.unit(ideal.nvars)}
        frontier = list(reachable)
        children = {}
        for a, b in edges:
            children.setdefault(a, []).append(b)
        while frontier:
            v = frontier.pop()
            for c in children.get(v, ()):
                if c not in reachable:
                    reachable.add(c)
                    frontier.append(c)
        oracle_edges = {(a, b) for a, b in edges if a in reachable}
        assert tree_from_ideal(ideal).edges == oracle_edges


def test_generator_tree_zero_and_unit():
    from wstable import MonomialIdeal
    assert tree_from_ideal(MonomialIdeal.zero(2)).vertices() == {Monomial.unit(2)}
    assert tree_from_ideal(MonomialIdeal.unit(2)).vertices() == {Monomial.unit(2)}


def test_generator_tree_of_principal_closure_shares_vertices():
    """The generator tree of a principal closure retraces the truncation tree.

    Equal edges mean equal children, so the truncation tree's interior
    vertices give the same Stanley pieces as the closure's prefix walk.
    """
    import random

    from oracles import random_monomial, random_weight_vector
    rng = random.Random(73)
    for _ in range(20):
        w = random_weight_vector(rng, 3)
        m = random_monomial(rng, 3, 2)
        truncation_tree = tree_from_monomial(m, w)
        generator_tree = tree_from_ideal(w_closure([m], w))
        assert generator_tree.vertices() == truncation_tree.vertices()
        assert generator_tree.edges == truncation_tree.edges


def test_adjacency_lines_bfs_order():
    tree = tree_from_monomial(parse_monomial("x2^2*x3", 3), WeightVector((4, 2, 1)))
    lines = tree.adjacency_lines()
    assert lines[0] == "1: x1 x2"
    assert "x2^2: x2^3 x2^2*x3" in lines
    assert lines.index("1: x1 x2") < lines.index("x2^2: x2^3 x2^2*x3")
