"""Reference tokenizer for `rgkit.modelfile`, kept with the tests as the
oracle that the package's tokenizer is differentially tested against.
It matches one token or whitespace run at a time and tracks the line and
column of every token as it goes."""

from __future__ import annotations

import re
from dataclasses import dataclass

from rgkit.values import LoadError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<num>-?\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|;;|\.\.|!=|<=|>=|->|[()\[\]{}:,;.=<>+\-*^@|])
    """,
    re.VERBOSE,
)


@dataclass
class Tok:
    kind: str  # "num" | "id" | "op" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise LoadError(f"unexpected character {text[i]!r}", (line, col))
        kind = m.lastgroup
        t = m.group()
        if kind not in ("ws", "comment"):
            toks.append(Tok(kind, t, line, col))
        nl = t.count("\n")
        if nl:
            line += nl
            col = len(t) - t.rfind("\n")
        else:
            col += len(t)
        i = m.end()
    toks.append(Tok("eof", "", line, col))
    return toks
