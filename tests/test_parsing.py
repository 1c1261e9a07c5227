"""Expression parsing, printing, and round trips."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parsing_reference as reference
from oracles import _minimal_exponents
from wstable import (
    IdealExpression,
    Monomial,
    MonomialIdeal,
    ParseError,
    WeightVector,
    format_ideal,
    format_monomial,
    parse_ideal,
    parse_monomial,
    parse_weights,
)
from wstable import parsing
from wstable.cli import main
from wstable.parsing import naming_mode


def test_parse_monomial_indexed():
    assert parse_monomial("x1^2*x2", 3) == Monomial((2, 1, 0))
    assert parse_monomial("x_1^2*x_2", 3) == Monomial((2, 1, 0))
    assert parse_monomial("1", 2) == Monomial.unit(2)
    assert parse_monomial("x2^4") == Monomial((0, 4))


def test_parse_ideal_letters():
    ideal = parse_ideal("x^3, x^2*y, x*y^3, x*y^2*z")
    assert ideal.nvars == 3
    assert ideal.gens == {Monomial((3, 0, 0)), Monomial((2, 1, 0)),
                          Monomial((1, 3, 0)), Monomial((1, 2, 1))}


def test_parse_weights():
    assert parse_weights("3,2,1") == WeightVector((3, 2, 1))
    assert parse_weights("5, 3, 1") == WeightVector((5, 3, 1))
    with pytest.raises(ParseError, match="non-increasing"):
        parse_weights("1,2")
    with pytest.raises(ParseError, match="not positive"):
        parse_weights("2,0")
    with pytest.raises(ParseError, match="integer weight"):
        parse_weights("2,,1")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_monomial("x1^*x2")
    assert err.value.position == 2
    with pytest.raises(ParseError, match="unknown variable"):
        parse_monomial("x*q", 3)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_ideal("x1 + x2")
    with pytest.raises(ParseError, match="exceeds"):
        parse_ideal("x5", 3)


def test_parse_zero_ideal():
    assert parse_ideal("0", 2).is_zero()
    with pytest.raises(ParseError):
        parse_ideal("0")


def test_variable_count_below_one_is_rejected():
    """A count below 1 is named before the text is read, not as a variable index."""
    for nvars in (0, -2):
        for parse, text in ((parse_ideal, "1"), (parse_ideal, "0"), (parse_monomial, "1"),
                            (IdealExpression.parse, "x1")):
            with pytest.raises(ValueError) as err:
                parse(text, nvars)
            assert not isinstance(err.value, ParseError)
            assert str(err.value) == f"variable count must be at least 1, got {nvars}"


def test_naming_mode_inference():
    assert naming_mode("x^2*y") == "letters"
    assert naming_mode("x1*x2") == "indexed"
    assert naming_mode("1") == "indexed"
    assert naming_mode("z^4") == "letters"


def test_format_monomial():
    assert format_monomial(Monomial((2, 1, 0))) == "x1^2*x2"
    assert format_monomial(Monomial((2, 1, 0)), letters=True) == "x^2*y"
    assert format_monomial(Monomial.unit(2)) == "1"


def test_round_trip_ideals():
    texts = ["x1^2, x1*x2, x2^3", "x^3, x^2*y, x*y^3, x*y^2*z", "1", "x2^4"]
    for text in texts:
        expr = IdealExpression.parse(text)
        reparsed = parse_ideal(expr.format(), expr.ideal.nvars)
        assert reparsed == expr.ideal


def test_format_ideal_deterministic():
    ideal = parse_ideal("x2^2, x1*x2, x1^2", 2)
    assert format_ideal(ideal) == "x1^2, x1*x2, x2^2"
    assert format_ideal(parse_ideal("0", 2)) == "0"


def test_too_large_variable_is_reported_where_it_occurs():
    with pytest.raises(ParseError, match="variable index 5 exceeds") as err:
        parse_ideal("x1, x5", 3)
    assert err.value.position == 4
    with pytest.raises(ParseError, match="variable index 9 exceeds") as err:
        parse_monomial("x1*x4*x_9*x9", 3)
    assert err.value.position == 6


# Pieces of the drawn texts: names of either naming and malformed ones,
# integers, operators, characters that start no token, and whitespace.
NAMES = ["x1", "x2", "x3", "x4", "x_1", "x_2", "x12", "x", "y", "z",
         "xy", "x0", "x_0", "y2", "x_", "X1", "x1y", "x\u0663"]
INTEGERS = ["0", "1", "1", "2", "3", "07", "10"]
OPERATORS = ["*", "*", "^", ",", ","]
STRAYS = ["$", "+", "-", "_", "(", "\u00e9", "\u00b2"]
SPACES = ["", "", "", " ", "  ", "\t", "\n", "\u00a0"]


def _piece(rng):
    pool = rng.choices([NAMES, INTEGERS, OPERATORS, STRAYS], weights=[8, 3, 7, 1])[0]
    return rng.choice(pool)


def _factor(rng, letters):
    if rng.random() < 0.1:
        return "1"
    name = (rng.choice("xyz") if letters
            else rng.choice(["x", "x_"]) + str(rng.randint(1, 5)))
    return name + rng.choice(["", "", "^2", "^ 3", "^10", " ^0"])


def _draw_text(rng):
    """A drawn text: a valid ideal, a valid one with one edit, or loose pieces."""
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(SPACES).join(_piece(rng) for _ in range(rng.randint(0, 8)))
    letters = rng.random() < 0.4
    text = ", ".join("*".join(_factor(rng, letters) for _ in range(rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 4)))
    if roll < 0.5:
        return text
    at = rng.randint(0, len(text))
    edit = rng.random()
    if edit < 0.4:      # insert a piece, a grammar slip or a stray character
        return text[:at] + _piece(rng) + text[at:]
    if edit < 0.6:      # delete a character
        return text[:at] + text[at + 1:]
    if edit < 0.8:      # a grammar error followed later by a stray character
        return text[:at] + rng.choice(["**", ",,", "^", "^^", "2*"]) + text[at:] + rng.choice(STRAYS)
    return rng.choice(SPACES) + text + rng.choice(["", ",", "*", " ,", "^"]) + rng.choice(SPACES)


FIXED_TEXTS = ["", " ", "\t\n", "0", " 0 ", "00", "0, x1", "1", "1^2", "x1,,x2", "x1,", ",x1",
               "x1*,x2", "x1**x2", "x1^", "x1^*x2", "x^2^3", "x^^2", "2*x1", "x1 x2",
               "x1*x2 $", "x1**x2, +", "xy", "x0", "y2", "x_", "x1*y", "x*x1", "x_1^2*x_3",
               "2,,1", "2,,x^3", "2,3,", "3,2,1", "1,2", "2,0", "3 2", "x^2, 1"]


def _library(parse, *args):
    """The parsed value as the reference gives it, or the rejection."""
    try:
        value = parse(*args)
    except ParseError as err:
        return reference.Rejected(str(err).rpartition(" (at position ")[0], err.position)
    if isinstance(value, MonomialIdeal):
        return value.nvars, {g.exponents for g in value.gens}
    if isinstance(value, Monomial):
        return value.exponents
    return value if isinstance(value, str) else value.weights


def _fixed(outcome, text):
    """A too-large variable index is reported at its first occurrence."""
    if not isinstance(outcome, reference.Rejected) or "exceeds" not in outcome.message:
        return outcome
    index = int(outcome.message.split()[2])
    letters = reference.naming_mode(text) == "letters"
    return outcome._replace(position=next(
        pos for kind, value, pos in reference.tokenize(text)
        if kind == "name" and reference.variable_index(value, pos, letters) == index))


def test_parsers_match_the_reference_parser():
    """Value, message and position agree with the token-list parser on drawn
    texts, except the position of a too-large variable index."""
    rng = random.Random(2024)
    texts = FIXED_TEXTS + [_draw_text(rng) for _ in range(3000)]
    ideals_read, messages = 0, set()
    for text in texts:
        assert _library(naming_mode, text) == reference.naming_mode(text), text
        assert _library(parse_weights, text) == reference.weights(text), text
        for nvars in (None, rng.randint(1, 5)):
            expected = _fixed(reference.monomial(text, nvars), text)
            assert _library(parse_monomial, text, nvars) == expected, (text, nvars)
            expected = _fixed(reference.ideal(text, nvars), text)
            if not isinstance(expected, reference.Rejected):
                ideals_read += 1
                expected = expected[0], _minimal_exponents(expected[1])
            assert _library(parse_ideal, text, nvars) == expected, (text, nvars)
            for outcome in (expected, reference.monomial(text, nvars), reference.weights(text)):
                if isinstance(outcome, reference.Rejected):
                    messages.add(re.sub(r"'.*'|\d+", "_", outcome.message))
    # both outcomes occur, and so does every message the parsers have
    assert ideals_read > 0.1 * 2 * len(texts)
    assert len(messages) == 14


@st.composite
def ideals(draw):
    n = draw(st.integers(1, 5))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6))
    return MonomialIdeal(n, [Monomial(v) for v in vectors])


@settings(derandomize=True, database=None, max_examples=300)
@given(ideals(), st.booleans())
def test_format_then_parse_round_trip(ideal, letters):
    letters = letters and ideal.nvars <= 3
    assert parse_ideal(format_ideal(ideal, letters), ideal.nvars) == ideal


def test_each_text_is_tokenized_once(monkeypatch, capsys):
    seen = []
    tokenize = parsing._tokenize

    def spy(text):
        seen.append(text)
        return tokenize(text)

    monkeypatch.setattr(parsing, "_tokenize", spy)
    calls = [
        (lambda: main(["closure", "x1*x2^2, x2^3"]), ["x1*x2^2, x2^3"]),
        (lambda: main(["tree", "x*y^2", "--weights", "2,1"]), ["2,1", "x*y^2"]),
        (lambda: parse_ideal("x1, x2^2"), ["x1, x2^2"]),
        (lambda: IdealExpression.parse("x^2, y"), ["x^2, y"]),
    ]
    for call, texts in calls:
        seen.clear()
        call()
        assert seen == texts
    capsys.readouterr()
