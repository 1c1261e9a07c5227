"""The value classes: repr text, hash values, equality, defaults and immutability.

Each class was a frozen dataclass and is now a ``__slots__`` class.  The
repr strings and hash values below were taken from the dataclass versions;
a hash is that of the tuple of the compared fields, so sets and every output
order built on them stay as they were.  ``HilbertSeries`` and
``PoincarePolynomial`` compare and hash by identity.
"""

import sys

import pytest

from wstable import (
    CatalanDiagram,
    Cone,
    ConstraintSystem,
    HalfSpace,
    HilbertSeries,
    IdealExpression,
    Monomial,
    MonomialIdeal,
    PoincarePolynomial,
    StanleyDecomposition,
    TruncationTree,
    WeightVector,
)

M, W = Monomial, WeightVector

# label -> (build, compared fields, repr, hash on 64-bit builds; None where it
# depends on the process: string hashes and, before Python 3.12, hash(None))
VALUES = {
    "monomial": (
        lambda: M((1, 0, 2)), ("exponents",),
        "Monomial((1, 0, 2))", -2233331782423402873),
    "weights": (
        lambda: W((2, 1, 1)), ("weights",),
        "WeightVector(weights=(2, 1, 1))", -7357096242870313452),
    "catalan": (
        lambda: CatalanDiagram(M((1, 2)), W((2, 1)), 4,
                               ((1, 0), (0, 0), (1, 0), (0, 1), (1, 1), (0, 0))),
        ("monomial", "weights", "degree", "rows"),
        "CatalanDiagram(monomial=Monomial((1, 2)), weights=WeightVector(weights=(2, 1)), "
        "degree=4, rows=((1, 0), (0, 0), (1, 0), (0, 1), (1, 1), (0, 0)))",
        5635861848272362615),
    "tree": (
        lambda: TruncationTree(M((0, 0)), frozenset({(M((0, 0)), M((1, 0))),
                                                     (M((1, 0)), M((2, 0))),
                                                     (M((1, 0)), M((1, 1)))}), 2),
        ("root", "edges", "degree_bound"),
        "TruncationTree(root=Monomial((0, 0)), edges=frozenset({(Monomial((0, 0)), "
        "Monomial((1, 0))), (Monomial((1, 0)), Monomial((2, 0))), (Monomial((1, 0)), "
        "Monomial((1, 1)))}), degree_bound=2)",
        -1964704312002718273),
    "tree-unbounded": (
        lambda: TruncationTree(M((0, 0)), frozenset({(M((0, 0)), M((0, 1)))})),
        ("root", "edges", "degree_bound"),
        "TruncationTree(root=Monomial((0, 0)), edges=frozenset({(Monomial((0, 0)), "
        "Monomial((0, 1)))}), degree_bound=None)",
        None),
    "expression": (
        lambda: IdealExpression("x*y, z^2", MonomialIdeal(3, [M((1, 1, 0)), M((0, 0, 2))]), True),
        ("source", "ideal", "letters"),
        "IdealExpression(source='x*y, z^2', ideal=MonomialIdeal(n=3, gens=[(1, 1, 0), "
        "(0, 0, 2)]), letters=True)",
        None),
    "stanley": (
        lambda: StanleyDecomposition(2, W((1, 1)), ((M((0, 0)), frozenset({2})),
                                                    (M((1, 0)), frozenset()))),
        ("nvars", "weights", "pieces"),
        "StanleyDecomposition(nvars=2, weights=WeightVector(weights=(1, 1)), "
        "pieces=((Monomial((0, 0)), frozenset({2})), (Monomial((1, 0)), frozenset())))",
        -7261943466999356369),
    "halfspace": (
        lambda: HalfSpace((1, -1, 0)), ("normal", "strict"),
        "HalfSpace(normal=(1, -1, 0), strict=False)", -6297394905430105320),
    "halfspace-strict": (
        lambda: HalfSpace((0, 1, -1), True), ("normal", "strict"),
        "HalfSpace(normal=(0, 1, -1), strict=True)", 5659540810108381311),
    "system": (
        lambda: ConstraintSystem(2, (HalfSpace((1, -1)), HalfSpace((0, 1), True)), M((0, 2))),
        ("nvars", "halfspaces", "candidate", "trivially_empty"),
        "ConstraintSystem(nvars=2, halfspaces=(HalfSpace(normal=(1, -1), strict=False), "
        "HalfSpace(normal=(0, 1), strict=True)), candidate=Monomial((0, 2)), "
        "trivially_empty=False)",
        1191361606967723281),
    "system-empty": (
        lambda: ConstraintSystem(1, (), M((1,)), True),
        ("nvars", "halfspaces", "candidate", "trivially_empty"),
        "ConstraintSystem(nvars=1, halfspaces=(), candidate=Monomial((1,)), trivially_empty=True)",
        2284717133635308305),
    "cone": (
        lambda: Cone(((2, 1), (1, 1))), ("rays", "lineality"),
        "Cone(rays=((2, 1), (1, 1)), lineality=())", 4851789416455698152),
    "cone-lineality": (
        lambda: Cone(((1, 0, 0),), ((0, 1, -1),)), ("rays", "lineality"),
        "Cone(rays=((1, 0, 0),), lineality=((0, 1, -1),))", -1600654416663025073),
}

# compared and hashed by identity
IDENTITY = {
    "hilbert": (
        lambda: HilbertSeries(W((1, 1)), {0: 1, 2: -3, 3: 2}, ((1, 0, 2), (2, 1, 2))),
        ("weights", "numerator", "terms"),
        "HilbertSeries(weights=WeightVector(weights=(1, 1)), numerator={0: 1, 2: -3, 3: 2}, "
        "terms=((1, 0, 2), (2, 1, 2)))"),
    "hilbert-default": (
        lambda: HilbertSeries(W((1,)), {0: 1}), ("weights", "numerator", "terms"),
        "HilbertSeries(weights=WeightVector(weights=(1,)), numerator={0: 1}, terms=None)"),
    "poincare": (
        lambda: PoincarePolynomial({(1, 2): 3, (2, 3): 2}), ("coefficients",),
        "PoincarePolynomial(coefficients={(1, 2): 3, (2, 3): 2})"),
}


@pytest.mark.parametrize("label", VALUES)
def test_value_repr_and_hash(label):
    build, fields, text, pinned = VALUES[label]
    value = build()
    assert repr(value) == text
    assert hash(value) == hash(tuple(getattr(value, f) for f in fields))
    if pinned is not None and sys.hash_info.width == 64:
        assert hash(value) == pinned


@pytest.mark.parametrize("label", VALUES)
def test_value_equality_is_by_class_and_fields(label):
    build, fields, _, _ = VALUES[label]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert len({a, b}) == 1
    assert a.__eq__(tuple(getattr(a, f) for f in fields)) is NotImplemented
    assert a != object()


@pytest.mark.parametrize("a, b", [
    (M((1, 0)), M((0, 1))),
    (W((2, 1)), W((1, 1))),
    (CatalanDiagram(M((1,)), W((1,)), 1, ((1,), (1,))),
     CatalanDiagram(M((1,)), W((1,)), 1, ((1,), (0,)))),
    (TruncationTree(M((0,)), frozenset(), 1), TruncationTree(M((0,)), frozenset())),
    (IdealExpression("x", MonomialIdeal(1, [M((1,))]), True),
     IdealExpression("x1", MonomialIdeal(1, [M((1,))]), False)),
    (StanleyDecomposition(1, W((1,)), ()), StanleyDecomposition(1, W((2,)), ())),
    (HalfSpace((1,)), HalfSpace((1,), True)),
    (ConstraintSystem(1, (), M((1,))), ConstraintSystem(1, (), M((1,)), True)),
    (Cone(((1,),)), Cone(((1,),), ((1,),))),
])
def test_values_differing_in_one_field_are_unequal(a, b):
    assert a != b and not a == b


@pytest.mark.parametrize("label", [*VALUES, *IDENTITY])
def test_value_rejects_assignment(label):
    build, fields, *_ = VALUES.get(label) or IDENTITY[label]
    value = build()
    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, f, None)
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("label", IDENTITY)
def test_series_values_compare_by_identity(label):
    build, _, text = IDENTITY[label]
    a, b = build(), build()
    assert repr(a) == repr(b) == text
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


def test_value_defaults():
    assert HalfSpace((1, 0)).strict is False
    assert Cone(((1, 0),)).lineality == ()
    assert TruncationTree(M((0,)), frozenset()).degree_bound is None
    assert HilbertSeries(W((1,)), {0: 1}).terms is None
    assert ConstraintSystem(1, (), M((1,))).trivially_empty is False


def test_value_constructors_check_their_input():
    with pytest.raises(ValueError, match="negative exponent"):
        Monomial((1, -1))
    with pytest.raises(ValueError, match="must not be empty"):
        WeightVector(())
    with pytest.raises(ValueError, match="positive"):
        WeightVector((1, 0))
    with pytest.raises(ValueError, match="non-increasing"):
        WeightVector((1, 2))
    with pytest.raises(TypeError):
        Monomial((1.5,))
    assert Monomial([1, 2]).exponents == (1, 2)
    assert WeightVector([2, 1]).weights == (2, 1)
