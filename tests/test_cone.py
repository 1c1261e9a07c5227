"""Constraint systems, extreme rays, and principal weight vectors."""

import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from oracles import (
    fourier_motzkin_is_empty,
    kernel_basis,
    monotone_seed,
    primitive,
    random_monomial,
    rank,
)
from timing import time_limit
from wstable import (
    DimensionMismatch,
    HalfSpace,
    Monomial,
    MonomialIdeal,
    NotWStableError,
    WeightVector,
    cone_rays,
    constraint_system,
    max_index,
    open_region_is_empty,
    parse_ideal,
    parse_monomial,
    principal_weight_vector,
    tree_from_ideal,
    w_closure,
)
from wstable.cone import ConstraintSystem, _essential


def test_constraint_system_golden_candidate_and_families():
    system = constraint_system(parse_ideal(golden.CONE_IDEAL_TEXT, 3))
    assert system.candidate == Monomial((1, 2, 1))
    normals = {(hs.normal, hs.strict) for hs in system.halfspaces}
    # sink degree comparisons
    assert ((0, 1, -1), False) in normals
    assert ((1, -1, -1), False) in normals
    assert ((2, -2, -1), False) in normals
    # subsink comparisons are strict
    assert ((0, 0, 1), True) in normals
    assert ((-1, 2, 1), True) in normals
    # branching condition at the vertex x^2
    assert ((-1, 2, 0), True) in normals
    # monotonicity is always present
    assert ((1, -1, 0), False) in normals


def test_constraint_system_single_generator():
    system = constraint_system(parse_ideal("x1", 2))
    assert system.candidate == Monomial((1, 0))
    normals = {(hs.normal, hs.strict) for hs in system.halfspaces}
    assert normals == {((1, 0), True), ((1, -1), False), ((0, 1), True)}


def test_constraint_system_rejects_non_stable():
    with pytest.raises(NotWStableError):
        constraint_system(parse_ideal("x2^2", 2))
    with pytest.raises(ValueError):
        constraint_system(MonomialIdeal.zero(2))


def _tree_constraint_system(ideal):
    """Reference system read off the generator tree of ``ideal`` built as ``Monomial`` objects.

    Rows for the sinks, the subsinks (vertices with an edge into a sink)
    and the interior vertices, each family sorted by exponents, then the
    monotone rows; the first copy of a repeated row is kept.
    """
    n = ideal.nvars
    m = ideal.lex_smallest_gen()
    a = m.exponents
    tree = tree_from_ideal(ideal)
    sinks = tree.sinks()
    rows = []
    trivially_empty = False

    def add(normal, strict):
        nonlocal trivially_empty
        normal = tuple(normal)
        if not any(normal):
            trivially_empty |= strict
        elif HalfSpace(normal, strict) not in rows:
            rows.append(HalfSpace(normal, strict))

    def by_exponents(vertices):
        return sorted(v.exponents for v in vertices)

    for b in by_exponents(sinks):
        add((bi - ai for ai, bi in zip(a, b)), strict=False)
    for b in by_exponents(tree.subsinks()):
        add((ai - bi for ai, bi in zip(a, b)), strict=True)
    for u in sorted(tree.vertices() - sinks, key=lambda v: v.exponents):
        b = u.exponents
        k = max(max_index(c) for c in tree.children(u))
        add((b[p] - a[p] if p < k - 1 else b[p] for p in range(n)), strict=False)
        add((a[p] - b[p] if p < k else -b[p] for p in range(n)), strict=True)
    for p in range(n - 1):
        add((1 if q == p else -1 if q == p + 1 else 0 for q in range(n)), strict=False)
    add((1 if q == n - 1 else 0 for q in range(n)), strict=True)
    return ConstraintSystem(n, tuple(rows), m, trivially_empty)


def test_constraint_system_matches_tree_reference():
    """Half-spaces in order, candidate and ``trivially_empty`` on seeded standard closures."""
    rng = random.Random(89)
    ideals = [MonomialIdeal.unit(n) for n in (1, 3)]
    while len(ideals) < 120:
        n = rng.randint(1, 5)
        seeds = [random_monomial(rng, n, 3) for _ in range(rng.randint(1, 3))]
        ideals.append(w_closure(seeds, WeightVector.ones(n)))
    for ideal in ideals:
        assert constraint_system(ideal) == _tree_constraint_system(ideal), ideal


@st.composite
def standard_closures(draw):
    """The standard closure of 1-3 seeds: n <= 4, exponents <= 3, not the zero ideal."""
    n = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=3))
    return w_closure([Monomial(s) for s in seeds], WeightVector.ones(n))


@settings(derandomize=True, database=None, max_examples=120, deadline=timedelta(seconds=5))
@given(standard_closures())
def test_constraint_system_matches_tree_reference_drawn(ideal):
    assert constraint_system(ideal) == _tree_constraint_system(ideal)


def test_cone_rays_golden():
    system = constraint_system(parse_ideal(golden.CONE_IDEAL_TEXT, 3))
    cone = cone_rays(system)
    assert cone.rays == golden.CONE_RAYS
    assert cone.lineality == ()


def test_cone_rays_monotone_orthant():
    system = ConstraintSystem(2, tuple(
        HalfSpace(n) for n in monotone_seed(2)[1]), Monomial((1, 0)))
    assert cone_rays(system).rays == ((1, 1), (1, 0))


def test_cone_rays_full_monotone_cone_for_maximal_ideal():
    # (x1, x2) is the closure of x2 for every weight vector
    system = constraint_system(parse_ideal("x1, x2", 2))
    assert cone_rays(system).rays == ((1, 1), (1, 0))
    for w1, w2 in ((1, 1), (2, 1), (3, 2), (5, 1)):
        w = WeightVector((w1, w2))
        assert w_closure([Monomial((0, 1))], w) == parse_ideal("x1, x2", 2)
        assert system.open_region_contains((w1, w2))


def _unfiltered_cone_rays(system):
    """Reference extreme rays: double description over every row of ``system`` in order.

    It runs on ``w`` itself, seeded with the monotone cone of
    ``oracles.monotone_seed``, and drops no row as implied.  The tight-set
    adjacency test and the ray order are those of ``cone_rays``.
    """
    n = system.nvars
    seed_rays, seed_normals = monotone_seed(n)
    rays = {r: sum(1 << k for k, a in enumerate(seed_normals)
                   if not HalfSpace(a).value(r))
            for r in seed_rays}
    for k, hs in enumerate(system.halfspaces, start=len(seed_normals)):
        values = {r: hs.value(r) for r in rays}
        bit = 1 << k
        new = {r: z | bit if not values[r] else z
               for r, z in rays.items() if values[r] >= 0}
        for rp in (r for r in rays if values[r] > 0):
            for rn in (r for r in rays if values[r] < 0):
                common = rays[rp] & rays[rn]
                if common.bit_count() < n - 2 or any(
                        r not in (rp, rn) and common & z == common
                        for r, z in rays.items()):
                    continue
                combo = primitive(
                    values[rp] * x - values[rn] * y for x, y in zip(rn, rp))
                new[combo] = common | bit
        rays = new
    return tuple(sorted(rays, reverse=True))


def test_cone_rays_match_unfiltered_reference():
    """Rays on the unit ideal and seeded standard closures (n = 1-5, 1-3 seeds, exponents <= 3)."""
    rng = random.Random(97)
    ideals = [MonomialIdeal.unit(n) for n in (1, 3)]
    while len(ideals) < 120:
        n = rng.randint(1, 5)
        seeds = [random_monomial(rng, n, 3) for _ in range(rng.randint(1, 3))]
        ideals.append(w_closure(seeds, WeightVector.ones(n)))
    for ideal in ideals:
        system = constraint_system(ideal)
        assert cone_rays(system).rays == _unfiltered_cone_rays(system), ideal


# The essential rows of the standard closure of x1^2*x2^3*x4*x5,
# x1^2*x3^2*x4^3*x5^2 and x1^3*x3^2*x5^2: six rows whose closed cone is the apex.
_APEX_5 = ((-4, 0, 2, 3, 2), (0, -2, -2, 3, 2), (-2, 0, 2, -1, 2),
           (1, 0, 0, -3, 0), (0, -3, 2, 3, 0), (0, 3, -2, -2, -1))


@pytest.mark.parametrize("nvars, rows", [
    # duplicate normals with both strictnesses
    (3, [((-1, 2, 0), True), ((-1, 2, 0), False), ((0, -1, 2), False),
         ((0, -1, 2), True), ((1, -1, 0), False)]),
    # every prefix sum >= 0: the seed cone implies them all
    (3, [((1, 0, 0), True), ((2, -1, -1), False), ((0, 1, -1), False),
         ((0, 0, 0), False), ((1, -1, 1), True)]),
    # the same, with one essential row among them
    (4, [((1, 0, 0, 0), True), ((-2, 1, 0, 2), False), ((0, 1, -1, 0), False)]),
    # a dominance chain: each row is the previous one plus x1
    (4, [((-3 + c, 1, 1, 1), bool(c % 2)) for c in range(5)]),
    # an apex, with a dominated copy (plus x1) of every row
    (5, [(r, True) for r in _APEX_5]
        + [((r[0] + 1,) + r[1:], False) for r in _APEX_5]),
    (2, []),
])
def test_cone_rays_match_unfiltered_reference_on_hand_built_systems(nvars, rows):
    system = ConstraintSystem(nvars, tuple(HalfSpace(a, s) for a, s in rows),
                              Monomial.unit(nvars))
    assert cone_rays(system).rays == _unfiltered_cone_rays(system)


@st.composite
def constraint_systems(draw):
    """A system of 0-7 rows in n <= 4 variables, entries in [-3, 3], either strictness."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * n), st.booleans()),
                         max_size=7))
    return ConstraintSystem(n, tuple(HalfSpace(a, s) for a, s in rows), Monomial.unit(n))


@settings(derandomize=True, database=None, max_examples=200, deadline=timedelta(seconds=5))
@given(constraint_systems())
def test_cone_rays_match_unfiltered_reference_drawn(system):
    assert cone_rays(system).rays == _unfiltered_cone_rays(system)


@pytest.mark.parametrize("d, rows", [(8, 4721), (10, 13015)])
def test_prefilter_keeps_one_row_of_a_high_power(d, rows):
    """The standard closure of ``x6^d``: one essential row, and the same six rays."""
    system = constraint_system(w_closure([Monomial((0,) * 5 + (d,))], WeightVector.ones(6)))
    assert len(system.halfspaces) == rows
    assert len(_essential(system.halfspaces)) == 1
    assert cone_rays(system).rays == tuple(
        (d,) * k + (d - 1,) * (6 - k) for k in range(5, 0, -1)) + ((1,) * 6,)


def test_principal_weight_vector_at_scale():
    ideal = w_closure([Monomial((0,) * 5 + (10,))], WeightVector.ones(6))
    with time_limit(0.3):
        found = principal_weight_vector(ideal)
    assert tuple(found) == (51, 50, 49, 48, 47, 46)


def test_rays_satisfy_all_closed_constraints():
    cases = [(golden.CONE_IDEAL_TEXT, 3), (golden.NOT_PRINCIPAL_IDEAL_TEXT, 3),
             ("x1, x2^2", 2), ("x1^2, x1*x2, x2^2", 2)]
    for text, nvars in cases:
        system = constraint_system(parse_ideal(text, nvars))
        for ray in cone_rays(system).rays:
            assert system.closed_cone_contains(ray)


@pytest.mark.parametrize("w", [(1, 1, 5), (1,), ()])
def test_membership_rejects_a_vector_of_the_wrong_length(w):
    system = constraint_system(parse_ideal("x1^2, x1*x2, x2^2", 2))
    assert system.open_region_contains((1, 1))
    for check in (system.halfspaces[0].holds, system.open_region_contains,
                  system.closed_cone_contains):
        with pytest.raises(DimensionMismatch):
            check(w)


def _brute_force_rays(system):
    """Extreme rays by kernel enumeration over constraint subsets.

    A candidate direction spans the kernel of n-1 of the (closed) normals;
    it is an extreme ray when it satisfies every constraint and its tight
    set has rank n-1.  Entirely independent of the incremental algorithm.
    """
    import itertools

    n = system.nvars
    normals = [hs.normal for hs in system.halfspaces] + monotone_seed(n)[1]
    rays = set()
    for subset in itertools.combinations(range(len(normals)), n - 1):
        basis = kernel_basis([normals[k] for k in subset], n)
        if len(basis) != 1:
            continue
        for sign in (1, -1):
            vec = primitive(sign * c for c in basis[0])
            if not all(sum(a * b for a, b in zip(nm, vec)) >= 0 for nm in normals):
                continue
            tight = [nm for nm in normals
                     if sum(a * b for a, b in zip(nm, vec)) == 0]
            if rank(tight, n) == n - 1:
                rays.add(vec)
    return rays


def test_cone_rays_match_brute_force_enumeration():
    rng = random.Random(79)
    ideals = [parse_ideal(golden.CONE_IDEAL_TEXT, 3),
              parse_ideal(golden.NOT_PRINCIPAL_IDEAL_TEXT, 3),
              parse_ideal("x1, x2^2", 2)]
    while len(ideals) < 13:
        seeds = [random_monomial(rng, 3, 2) for _ in range(rng.randint(1, 2))]
        candidate = w_closure(seeds, WeightVector.ones(3))
        if not candidate.is_zero():
            ideals.append(candidate)
    for ideal in ideals:
        system = constraint_system(ideal)
        assert set(cone_rays(system).rays) == _brute_force_rays(system)


def test_every_constraint_tight_somewhere_or_redundant():
    system = constraint_system(parse_ideal(golden.CONE_IDEAL_TEXT, 3))
    rays = cone_rays(system).rays
    for drop in range(len(system.halfspaces)):
        kept = tuple(h for i, h in enumerate(system.halfspaces) if i != drop)
        reduced = ConstraintSystem(system.nvars, kept, system.candidate)
        tight = any(system.halfspaces[drop].value(r) == 0 for r in rays)
        redundant = cone_rays(reduced).rays == rays
        assert tight or redundant


def test_principal_weight_vector_golden():
    found = principal_weight_vector(parse_ideal(golden.CONE_IDEAL_TEXT, 3))
    assert tuple(found) == golden.CONE_WEIGHT_VECTOR
    ideal = parse_ideal(golden.CONE_IDEAL_TEXT, 3)
    assert w_closure([ideal.lex_smallest_gen()], found) == ideal


def test_principal_weight_vector_counterexample():
    assert principal_weight_vector(parse_ideal(golden.NOT_PRINCIPAL_IDEAL_TEXT, 3)) is None


def test_principal_weight_vector_single_variable():
    found = principal_weight_vector(parse_ideal("x1", 2))
    assert found is not None
    assert tuple(found) == (2, 1)
    assert w_closure([Monomial((1, 0))], found) == parse_ideal("x1", 2)


def test_principal_weight_vector_unit_ideal():
    found = principal_weight_vector(MonomialIdeal.unit(3))
    assert found is not None
    assert w_closure([Monomial.unit(3)], found) == MonomialIdeal.unit(3)


def test_cone_collapses_to_apex():
    system = ConstraintSystem(2, (HalfSpace((-1, 0)), HalfSpace((0, -1))),
                              Monomial((1, 0)))
    cone = cone_rays(system)
    assert cone.rays == ()
    assert cone.lineality == ()
    system = ConstraintSystem(5, tuple(map(HalfSpace, _APEX_5)), Monomial.unit(5))
    assert cone_rays(system).rays == ()


def test_open_region_emptiness_simple_cases():
    empty = ConstraintSystem(2, (HalfSpace((0, 1), True), HalfSpace((0, -1))),
                             Monomial((1, 0)))
    assert open_region_is_empty(empty)
    okay = ConstraintSystem(2, (HalfSpace((0, 1), True), HalfSpace((1, -1))),
                            Monomial((1, 0)))
    assert not open_region_is_empty(okay)
    degenerate = ConstraintSystem(2, (), Monomial((1, 0)), trivially_empty=True)
    assert open_region_is_empty(degenerate)


def test_open_region_counterexample_is_empty():
    system = constraint_system(parse_ideal(golden.NOT_PRINCIPAL_IDEAL_TEXT, 3))
    assert open_region_is_empty(system)
    for w1 in range(1, 7):
        for w2 in range(1, w1 + 1):
            for w3 in range(1, w2 + 1):
                assert not system.open_region_contains((w1, w2, w3))


def _random_strongly_stable(rng, n, max_exp):
    seeds = [random_monomial(rng, n, max_exp) for _ in range(rng.randint(1, 2))]
    return w_closure(seeds, WeightVector.ones(n))


def test_region_membership_matches_closure_equality():
    """Strict-region membership decides when the lex-least generator closes to the ideal."""
    rng = random.Random(67)
    tried = 0
    while tried < 12:
        ideal = _random_strongly_stable(rng, 3, 2)
        if ideal.is_zero():
            continue
        tried += 1
        system = constraint_system(ideal)
        m = ideal.lex_smallest_gen()
        for w1 in range(1, 6):
            for w2 in range(1, w1 + 1):
                for w3 in range(1, w2 + 1):
                    w = WeightVector((w1, w2, w3))
                    in_region = system.open_region_contains((w1, w2, w3))
                    realizes = w_closure([m], w) == ideal
                    assert in_region == realizes, (ideal, w)


def test_emptiness_agrees_with_search_on_small_grid():
    rng = random.Random(71)
    tried = 0
    while tried < 12:
        ideal = _random_strongly_stable(rng, 3, 2)
        if ideal.is_zero():
            continue
        tried += 1
        system = constraint_system(ideal)
        grid_hit = any(
            system.open_region_contains((w1, w2, w3))
            for w1 in range(1, 7) for w2 in range(1, w1 + 1)
            for w3 in range(1, w2 + 1))
        if open_region_is_empty(system):
            assert not grid_hit
        else:
            vector = principal_weight_vector(ideal)
            assert vector is not None


def test_emptiness_matches_fourier_motzkin_oracle():
    """The ray-sum decision agrees with Fourier-Motzkin elimination, n <= 3."""
    rng = random.Random(83)
    tried = empty = 0
    while tried < 200:
        n = rng.choice((2, 3))
        ideal = _random_strongly_stable(rng, n, 3)
        if ideal.is_zero():
            continue
        tried += 1
        system = constraint_system(ideal)
        expected = system.trivially_empty or fourier_motzkin_is_empty(
            [(hs.normal, hs.strict) for hs in system.halfspaces], n)
        empty += expected
        assert open_region_is_empty(system) == expected, ideal
        assert (principal_weight_vector(ideal) is None) == expected, ideal
    assert 0 < empty < tried


@pytest.mark.parametrize("nvars, seeds, expected", [
    (4, ("x2*x3*x4^3",), (13, 12, 11, 10)),
    (5, ("x1^3*x2^3*x3^2*x4^2*x5", "x1*x2*x4^2*x5^3"), (20, 19, 18, 17, 16)),
])
def test_principal_weight_vector_where_elimination_was_slow(nvars, seeds, expected):
    ideal = w_closure([parse_monomial(s, nvars) for s in seeds],
                      WeightVector.ones(nvars))
    found = principal_weight_vector(ideal)
    assert tuple(found) == expected
    assert w_closure([ideal.lex_smallest_gen()], found) == ideal
