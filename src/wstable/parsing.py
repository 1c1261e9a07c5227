"""Parsing and printing of monomials, ideals, and weight vectors."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ideals import MonomialIdeal
from .monomials import Monomial, WeightVector

LETTER_NAMES = ("x", "y", "z")

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z]+(?:_?\d+)?)|(?P<int>\d+)"
                    r"|(?P<op>[*^,]))")


class ParseError(ValueError):
    """A diagnostic with the character position where parsing failed."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


def naming_mode(text: str) -> str:
    """Infer the variable naming scheme from the first identifier.

    Bare letters x, y, z select ``letters`` mode (three variables at most);
    an indexed name such as ``x2`` or ``x_2`` selects ``indexed`` mode,
    which is also the default when no identifier occurs.
    """
    for kind, value, _ in _tokenize(text):
        if kind == "name":
            return "letters" if value in LETTER_NAMES else "indexed"
    return "indexed"


def _variable_index(name, pos, letters):
    if letters:
        if name in LETTER_NAMES:
            return LETTER_NAMES.index(name) + 1
        raise ParseError(f"unknown variable {name!r}", pos)
    match = re.fullmatch(r"x_?(\d+)", name)
    if match is None:
        raise ParseError(f"unknown variable {name!r}", pos)
    index = int(match.group(1))
    if index < 1:
        raise ParseError(f"unknown variable {name!r}", pos)
    return index


def _parse_monomial_tokens(tokens, letters):
    """Parse one monomial; returns a dict index -> exponent."""
    if not tokens:
        raise ParseError("empty monomial", 0)
    exps: dict[int, int] = {}
    expect_factor = True
    i = 0
    while i < len(tokens):
        kind, value, pos = tokens[i]
        if expect_factor:
            if kind == "name":
                index = _variable_index(value, pos, letters)
                power = 1
                if i + 1 < len(tokens) and tokens[i + 1][1] == "^":
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "int":
                        raise ParseError("malformed exponent", tokens[i + 1][2])
                    power = int(tokens[i + 2][1])
                    i += 2
                exps[index] = exps.get(index, 0) + power
            elif kind == "int":
                if value != "1":
                    raise ParseError(
                        f"unexpected coefficient {value!r}; only monomials are allowed", pos)
            else:
                raise ParseError(f"expected a variable, got {value!r}", pos)
            expect_factor = False
        else:
            if kind == "op" and value == "*":
                expect_factor = True
            else:
                raise ParseError(f"expected '*', got {value!r}", pos)
        i += 1
    if expect_factor:
        raise ParseError("dangling '*'", tokens[-1][2])
    return exps


def _split_commas(tokens):
    groups, current = [], []
    for tok in tokens:
        if tok[0] == "op" and tok[1] == ",":
            groups.append(current)
            current = []
        else:
            current.append(tok)
    groups.append(current)
    return groups


def parse_monomial(text: str, nvars: int | None = None) -> Monomial:
    """Parse a single monomial expression such as ``x1^2*x2`` or ``x*y^3``."""
    letters = naming_mode(text) == "letters"
    tokens = _tokenize(text)
    exps = _parse_monomial_tokens(tokens, letters)
    n = _resolve_nvars([exps], nvars, letters, tokens)
    return Monomial(tuple(exps.get(i, 0) for i in range(1, n + 1)))


def parse_ideal(text: str, nvars: int | None = None) -> MonomialIdeal:
    """Parse a comma-separated list of monomials; ``0`` denotes the zero ideal."""
    letters = naming_mode(text) == "letters"
    tokens = _tokenize(text)
    if len(tokens) == 1 and tokens[0][0] == "int" and tokens[0][1] == "0":
        if nvars is None:
            raise ParseError("the zero ideal needs an explicit variable count", 0)
        return MonomialIdeal.zero(nvars)
    groups = _split_commas(tokens)
    parsed = [_parse_monomial_tokens(group, letters) for group in groups]
    n = _resolve_nvars(parsed, nvars, letters, tokens)
    gens = [Monomial(tuple(exps.get(i, 0) for i in range(1, n + 1))) for exps in parsed]
    return MonomialIdeal(n, gens)


def _resolve_nvars(parsed, nvars, letters, tokens):
    used = max((i for exps in parsed for i in exps), default=0)
    if nvars is None:
        return max(used, 1)
    if used > nvars:
        pos = tokens[0][2] if tokens else 0
        raise ParseError(
            f"variable index {used} exceeds the variable count {nvars}", pos)
    if letters and nvars > 3:
        raise ParseError("letter naming supports at most 3 variables", 0)
    return nvars


def parse_weights(text: str) -> WeightVector:
    """Parse a comma-separated weight vector such as ``3,2,1``."""
    tokens = _tokenize(text)
    groups = _split_commas(tokens)
    weights = []
    positions = []
    for group in groups:
        if len(group) != 1 or group[0][0] != "int":
            pos = group[0][2] if group else (tokens[-1][2] if tokens else 0)
            raise ParseError("expected an integer weight", pos)
        weights.append(int(group[0][1]))
        positions.append(group[0][2])
    for w, pos in zip(weights, positions):
        if w < 1:
            raise ParseError(f"weight {w} is not positive", pos)
    for i in range(len(weights) - 1):
        if weights[i] < weights[i + 1]:
            raise ParseError(
                f"weights must be non-increasing ({weights[i]} < {weights[i + 1]})",
                positions[i + 1])
    return WeightVector(tuple(weights))


def format_monomial(m: Monomial, letters: bool = False) -> str:
    """Print a monomial with explicit ``*`` and ``^`` so it re-parses."""
    parts = []
    for i, e in enumerate(m.exponents, start=1):
        if e == 0:
            continue
        name = variable_name(i, letters)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_ideal(ideal: MonomialIdeal, letters: bool = False) -> str:
    if ideal.is_zero():
        return "0"
    return ", ".join(format_monomial(g, letters) for g in ideal.sorted_gens())


def variable_name(index: int, letters: bool = False) -> str:
    return LETTER_NAMES[index - 1] if letters else f"x{index}"


@dataclass(frozen=True)
class IdealExpression:
    """A parsed ideal together with its source text and naming scheme."""

    source: str
    ideal: MonomialIdeal
    letters: bool

    @classmethod
    def parse(cls, text: str, nvars: int | None = None) -> "IdealExpression":
        ideal = parse_ideal(text, nvars)
        return cls(text, ideal, naming_mode(text) == "letters")

    def format(self) -> str:
        return format_ideal(self.ideal, self.letters)
