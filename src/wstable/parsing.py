"""Parsing and printing of monomials, ideals, and weight vectors.

An ideal is a comma-separated list of monomials; ``0`` is the zero ideal
and needs an explicit variable count.  A monomial is a ``*``-separated
product of the coefficient ``1`` and variables with optional ``^``
exponents, named ``x1`` or ``x_1``, or ``x, y, z`` for at most three
variables (the first name fixes the naming).  A weight vector is a
comma-separated list of positive integers.  Each text is tokenized once,
and a :class:`ParseError` gives the 0-based position of the character or
token at fault.
"""

from __future__ import annotations

import re
from itertools import repeat
from operator import itemgetter

from .ideals import MonomialIdeal
from .monomials import Monomial, WeightVector, _Frozen

LETTER_NAMES = ("x", "y", "z")

# One token per match, with the whitespace after it, so ``match.start()`` is
# the token's position.  A name carries its stem, index and ``^`` power.
_TOKEN = re.compile(r"(?:(?P<name>(?P<stem>[A-Za-z]+)(?:_?(?P<index>\d+))?)"
                    r"(?:\s*\^\s*(?P<power>\d+))?|(?P<int>\d+)|(?P<op>[*^,])|(?P<bad>\S))\s*")


class ParseError(ValueError):
    """A diagnostic with the character position where parsing failed."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


def _tokenize(text):
    """``(position, name, stem, index, power, int, op, bad)`` per token.

    A character that starts no token is reported before any grammar error.
    """
    tokens = [(m.start(), *m.groups()) for m in _TOKEN.finditer(text)]
    bad = next(filter(itemgetter(-1), tokens), None)
    if bad:
        raise ParseError(f"unexpected character {bad[-1]!r}", bad[0])
    return tokens


def _letters(tokens) -> bool:
    return next((token[1] in LETTER_NAMES for token in tokens if token[1]), False)


def naming_mode(text: str) -> str:
    """Infer the variable naming scheme from the first identifier.

    Bare letters x, y, z select ``letters`` mode (three variables at most);
    an indexed name such as ``x2`` or ``x_2`` selects ``indexed`` mode,
    which is also the default when no identifier occurs.
    """
    return "letters" if _letters(_tokenize(text)) else "indexed"


def _parse(text, nvars, ideal):
    """Parse ``text`` as an ideal or, if not ``ideal``, as one monomial.

    Returns the result and whether the names are letters.  A monomial is
    the one-group case: its commas are not separators.
    """
    if nvars is not None and nvars < 1:
        raise ValueError(f"variable count must be at least 1, got {nvars}")
    tokens = _tokenize(text)
    letters = _letters(tokens)
    if ideal and len(tokens) == 1 and tokens[0][5] == "0":
        if nvars is None:
            raise ParseError("the zero ideal needs an explicit variable count", 0)
        return MonomialIdeal.zero(nvars), letters
    groups = [{}]
    star = None         # position of the '*' awaiting a factor; None at a group's start
    factor = None       # the token awaiting a '*', ',' or the end
    top = top_at = 0    # largest variable index and where it first occurs
    for token in tokens:
        pos, name, stem, index, power, integer, op, _ = token
        if factor is None:
            if name:
                if letters:
                    k = LETTER_NAMES.index(name) + 1 if name in LETTER_NAMES else 0
                else:
                    k = int(index) if stem == "x" and index else 0
                if k < 1:
                    raise ParseError(f"unknown variable {name!r}", pos)
                if k > top:
                    top, top_at = k, pos
                exps = groups[-1]
                exps[k] = exps.get(k, 0) + (int(power) if power else 1)
            elif integer:
                if integer != "1":
                    raise ParseError(
                        f"unexpected coefficient {integer!r}; only monomials are allowed", pos)
            elif ideal and op == ",":
                _end_group(star)
            else:
                raise ParseError(f"expected a variable, got {op!r}", pos)
            factor = token
        elif op == "*":
            star, factor = pos, None
        elif ideal and op == ",":
            groups.append({})
            star = factor = None
        elif op == "^" and factor[1] and not factor[4]:     # a name whose '^' has no integer
            raise ParseError("malformed exponent", pos)
        else:
            raise ParseError(f"expected '*', got {name or integer or op!r}", pos)
    if factor is None:
        _end_group(star)
    if nvars is not None and top > nvars:
        raise ParseError(f"variable index {top} exceeds the variable count {nvars}", top_at)
    if nvars is not None and letters and nvars > 3:
        raise ParseError("letter naming supports at most 3 variables", 0)
    n = max(top, 1) if nvars is None else nvars
    gens = [Monomial._of(tuple(map(exps.get, range(1, n + 1), repeat(0)))) for exps in groups]
    return (MonomialIdeal(n, gens) if ideal else gens[0]), letters


def _end_group(star):
    """A group ends where a factor is due: after a '*', or before its first factor."""
    raise ParseError("empty monomial", 0) if star is None else ParseError("dangling '*'", star)


def parse_monomial(text: str, nvars: int | None = None) -> Monomial:
    """Parse a single monomial expression such as ``x1^2*x2`` or ``x*y^3``."""
    return _parse(text, nvars, False)[0]


def parse_ideal(text: str, nvars: int | None = None) -> MonomialIdeal:
    """Parse a comma-separated list of monomials; ``0`` denotes the zero ideal."""
    return _parse(text, nvars, True)[0]


def parse_weights(text: str) -> WeightVector:
    """Parse a comma-separated weight vector such as ``3,2,1``."""
    tokens = _tokenize(text)
    weights, positions = [], []
    for i, (pos, *_, integer, op, _) in enumerate(tokens):
        if i % 2 == 0 and integer:
            weights.append(int(integer))
            positions.append(pos)
        elif op != ",":
            raise ParseError("expected an integer weight", positions[-1] if i % 2 else pos)
        elif i % 2 == 0:
            break
    if len(tokens) != 2 * len(weights) - 1:
        # an empty slot is reported at the last token, a name's power being a token of its own
        pos, _, _, _, power, *_ = tokens[-1] if tokens else (0, None, None, None, None)
        raise ParseError("expected an integer weight",
                         len(text.rstrip()) - len(power) if power else pos)
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


class IdealExpression(_Frozen):
    """A parsed ideal together with its source text and naming scheme."""

    __slots__ = ("source", "ideal", "letters")

    def __init__(self, source: str, ideal: MonomialIdeal, letters: bool):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.source, self.ideal, self.letters)
                    == (other.source, other.ideal, other.letters))
        return NotImplemented

    def __hash__(self):
        return hash((self.source, self.ideal, self.letters))

    def __repr__(self):
        return (f"IdealExpression(source={self.source!r}, ideal={self.ideal!r}, "
                f"letters={self.letters!r})")

    @classmethod
    def parse(cls, text: str, nvars: int | None = None) -> "IdealExpression":
        ideal, letters = _parse(text, nvars, True)
        return cls(text, ideal, letters)

    def format(self) -> str:
        return format_ideal(self.ideal, self.letters)
