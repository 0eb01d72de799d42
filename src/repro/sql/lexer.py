"""Tokenizer for the SQL subset.

Supported lexemes: identifiers (optionally ``rel.col`` qualified),
integer/float/string literals, comparison operators, parentheses,
commas, ``*`` and the keywords the parser understands.  Case-insensitive
keywords, single-quoted strings with ``''`` escaping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ReproError


class SqlError(ReproError):
    """A SQL string could not be tokenized, parsed or translated."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "AND",
    "OR",
    "NOT",
    "GROUP",
    "ORDER",
    "BY",
    "LIMIT",
    "AS",
    "BETWEEN",
    "ASC",
    "DESC",
    "NULL",
    "IS",
}

#: Token kinds.
KEYWORD = "keyword"
IDENT = "ident"
NUMBER = "number"
STRING = "string"
OPERATOR = "operator"
PUNCT = "punct"
END = "end"

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<operator><=|>=|!=|<>|=|<|>)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)
  | (?P<punct>[(),*-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        """Whether this token is the given keyword."""
        return self.kind == KEYWORD and self.value == word.upper()

    def __repr__(self) -> str:
        return f"{self.kind}:{self.value}"


def tokenize(sql: str) -> list[Token]:
    """Tokenize a SQL string.

    Raises:
        SqlError: on an unrecognized character.
    """
    tokens: list[Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SqlError(f"unexpected character {sql[position]!r}", position)
        if match.lastgroup != "ws":
            text = match.group()
            kind = match.lastgroup
            if kind == "ident" and text.upper() in KEYWORDS and "." not in text:
                tokens.append(Token(KEYWORD, text.upper(), position))
            elif kind == "operator" and text == "<>":
                tokens.append(Token(OPERATOR, "!=", position))
            else:
                assert kind is not None
                tokens.append(Token(kind, text, position))
        position = match.end()
    tokens.append(Token(END, "", len(sql)))
    return tokens


def unquote(literal: str) -> str:
    """Strip quotes from a string literal and unescape ``''``."""
    return literal[1:-1].replace("''", "'")

