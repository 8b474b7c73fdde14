"""Tokenizer for the HiveQL subset.

One precompiled master regex, one match per token, producing a flat
token list; line/column for error messages are derived from newline
offsets.  Keywords are case-insensitive; identifiers keep their
original spelling but compare lowercased.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List

from repro.common.errors import ParseError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "as", "and", "or", "not", "in", "like", "between", "is", "null",
    "case", "when", "then", "else", "end", "cast", "distinct",
    "join", "inner", "left", "right", "full", "outer", "on", "cross",
    "create", "table", "drop", "insert", "overwrite", "into", "if",
    "exists", "stored", "set", "asc", "desc", "union", "all", "true",
    "false", "interval", "explain", "partitioned", "partition",
    "analyze", "compute", "statistics",
}

# One alternative per token class, tried in this order at every offset.
# Character classes are ASCII on purpose: non-ASCII letters and digits
# are folded to "a" / "0" before matching (see _fold_non_ascii), which
# keeps str.isalpha()/isdigit() as the definition of both.  A string's
# closing quote must not be followed by the same quote, so a doubled
# quote can only ever match as an escape and an unterminated literal
# fails the whole alternative instead of ending early.
_MASTER = re.compile(
    r"""
      (?P<space>      [ \t\r\n]+ | --[^\n]* | /\*.*?\*/ )
    | (?P<word>       [A-Za-z_]\w* )
    | (?P<number>     (?: [0-9]+ (?: \.[0-9]+ )? | \.[0-9]+ ) (?: [eE][+-]?[0-9]+ )? )
    | (?P<string>     ' (?: [^'\\] | \\. | '' )* ' (?!')
                    | " (?: [^"\\] | \\. | "" )* " (?!") )
    | (?P<backtick>   `[^`]*` )
    | (?P<unterminated> /\* | ['"`] )
    | (?P<operator>   <> | != | <= | >= | \|\| | [=<>+\-*/%] )
    | (?P<punct>      [(),.;] )
    """,
    re.VERBOSE | re.DOTALL,
)
_NON_ASCII = re.compile(r"[^\x00-\x7f]")
_STRING_ESCAPE = {
    "'": re.compile(r"\\(.)|''", re.DOTALL),
    '"': re.compile(r'\\(.)|""', re.DOTALL),
}
_ESCAPED = {"n": "\n", "t": "\t"}
_UNTERMINATED = {
    "/*": "unterminated comment",
    "'": "unterminated string literal",
    '"': "unterminated string literal",
    "`": "unterminated backtick identifier",
}


def _fold_non_ascii(match: "re.Match[str]") -> str:
    char = match.group()
    return "a" if char.isalpha() else "0" if char.isdigit() else char


def _unescape(match: "re.Match[str]") -> str:
    escaped = match.group(1)
    if escaped is None:
        return match.group()[0]  # doubled quote escapes itself
    return _ESCAPED.get(escaped, escaped)


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str  # keywords/identifiers lowercased except IDENT keeps .raw
    raw: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in names

    def __str__(self) -> str:
        return self.raw if self.type is not TokenType.EOF else "<eof>"


# token classes whose text is the matched slice as written
_VERBATIM = {
    "operator": TokenType.OPERATOR,
    "punct": TokenType.PUNCT,
    "number": TokenType.NUMBER,
}


class Lexer:
    """Scan HiveQL text into tokens (skips whitespace and comments)."""

    def __init__(self, text: str):
        self.text = text

    def tokenize(self) -> List[Token]:
        text = self.text
        scan = text if text.isascii() else _NON_ASCII.sub(_fold_non_ascii, text)
        tokens: List[Token] = []
        line = 1
        line_start = 0  # offset of the first character of `line`
        pos = 0
        for match in _MASTER.finditer(scan):
            start, end = match.span()
            if start != pos:
                break  # finditer skipped a character no alternative matches
            pos = end
            kind = match.lastgroup
            column = start - line_start + 1
            if kind == "word":
                raw = text[start:end]
                lowered = raw.lower()
                token_type = (
                    TokenType.KEYWORD if lowered in KEYWORDS else TokenType.IDENT
                )
                tokens.append(Token(token_type, lowered, raw, line, column))
                continue
            if kind in _VERBATIM:
                raw = text[start:end]
                tokens.append(Token(_VERBATIM[kind], raw, raw, line, column))
                continue
            if kind == "string":
                quote = text[start]
                value = text[start + 1 : end - 1]
                if "\\" in value or quote in value:
                    value = _STRING_ESCAPE[quote].sub(_unescape, value)
                tokens.append(Token(TokenType.STRING, value, value, line, column))
            elif kind == "backtick":
                raw = text[start + 1 : end - 1]
                tokens.append(Token(TokenType.IDENT, raw.lower(), raw, line, column))
            elif kind == "unterminated":
                message = _UNTERMINATED[match.group()]
                if match.group() == "/*":  # reported where the text ends
                    line += text.count("\n", start)
                    column = len(text) - text.rfind("\n")
                raise ParseError(message, line, column)
            # only these can span lines: whitespace, comments, quoted tokens
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", start, end) + 1
        if pos < len(text):
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        tokens.append(Token(TokenType.EOF, "", "", line, pos - line_start + 1))
        return tokens
