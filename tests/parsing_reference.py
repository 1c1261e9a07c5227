"""The token-list parser that ``wstable.parsing`` replaced, kept as a reference.

It tokenizes a text into ``(kind, value, position)`` triples, splits them at
commas and reads each group on its own.  It imports nothing from the
library: ``monomial``, ``ideal`` and ``weights`` return exponent tuples, or a
:class:`Rejected` with the message and position of the first error.
"""

import re
from typing import NamedTuple

LETTER_NAMES = ("x", "y", "z")

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z]+(?:_?\d+)?)|(?P<int>\d+)"
                    r"|(?P<op>[*^,]))")


class Rejected(NamedTuple):
    message: str
    position: int


class _Error(Exception):
    pass


def _fail(message, position):
    raise _Error(Rejected(message, position))


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            _fail(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


def _naming_mode(text):
    for kind, value, _ in tokenize(text):
        if kind == "name":
            return "letters" if value in LETTER_NAMES else "indexed"
    return "indexed"


def variable_index(name, pos, letters):
    if letters:
        if name in LETTER_NAMES:
            return LETTER_NAMES.index(name) + 1
        _fail(f"unknown variable {name!r}", pos)
    match = re.fullmatch(r"x_?(\d+)", name)
    if match is None or int(match.group(1)) < 1:
        _fail(f"unknown variable {name!r}", pos)
    return int(match.group(1))


def _monomial_tokens(tokens, letters):
    if not tokens:
        _fail("empty monomial", 0)
    exps = {}
    expect_factor = True
    i = 0
    while i < len(tokens):
        kind, value, pos = tokens[i]
        if expect_factor:
            if kind == "name":
                index = variable_index(value, pos, letters)
                power = 1
                if i + 1 < len(tokens) and tokens[i + 1][1] == "^":
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "int":
                        _fail("malformed exponent", tokens[i + 1][2])
                    power = int(tokens[i + 2][1])
                    i += 2
                exps[index] = exps.get(index, 0) + power
            elif kind == "int":
                if value != "1":
                    _fail(f"unexpected coefficient {value!r}; only monomials are allowed", pos)
            else:
                _fail(f"expected a variable, got {value!r}", pos)
            expect_factor = False
        elif kind == "op" and value == "*":
            expect_factor = True
        else:
            _fail(f"expected '*', got {value!r}", pos)
        i += 1
    if expect_factor:
        _fail("dangling '*'", tokens[-1][2])
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


def _resolve_nvars(parsed, nvars, letters, tokens):
    used = max((i for exps in parsed for i in exps), default=0)
    if nvars is None:
        return max(used, 1)
    if used > nvars:
        _fail(f"variable index {used} exceeds the variable count {nvars}",
              tokens[0][2] if tokens else 0)
    if letters and nvars > 3:
        _fail("letter naming supports at most 3 variables", 0)
    return nvars


def _monomial(text, nvars):
    letters = _naming_mode(text) == "letters"
    tokens = tokenize(text)
    exps = _monomial_tokens(tokens, letters)
    n = _resolve_nvars([exps], nvars, letters, tokens)
    return tuple(exps.get(i, 0) for i in range(1, n + 1))


def _ideal(text, nvars):
    """``(nvars, generator tuples)``: the tuples as written, not minimalized."""
    letters = _naming_mode(text) == "letters"
    tokens = tokenize(text)
    if len(tokens) == 1 and tokens[0][0] == "int" and tokens[0][1] == "0":
        if nvars is None:
            _fail("the zero ideal needs an explicit variable count", 0)
        return nvars, []
    parsed = [_monomial_tokens(group, letters) for group in _split_commas(tokens)]
    n = _resolve_nvars(parsed, nvars, letters, tokens)
    return n, [tuple(exps.get(i, 0) for i in range(1, n + 1)) for exps in parsed]


def _weights(text):
    tokens = tokenize(text)
    weights, positions = [], []
    for group in _split_commas(tokens):
        if len(group) != 1 or group[0][0] != "int":
            pos = group[0][2] if group else (tokens[-1][2] if tokens else 0)
            _fail("expected an integer weight", pos)
        weights.append(int(group[0][1]))
        positions.append(group[0][2])
    for w, pos in zip(weights, positions):
        if w < 1:
            _fail(f"weight {w} is not positive", pos)
    for i in range(len(weights) - 1):
        if weights[i] < weights[i + 1]:
            _fail(f"weights must be non-increasing ({weights[i]} < {weights[i + 1]})",
                  positions[i + 1])
    return tuple(weights)


def _outcome(parse):
    def run(*args):
        try:
            return parse(*args)
        except _Error as err:
            return err.args[0]
    run.__doc__ = parse.__doc__
    return run


monomial = _outcome(_monomial)
ideal = _outcome(_ideal)
weights = _outcome(_weights)
naming_mode = _outcome(_naming_mode)
