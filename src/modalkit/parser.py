"""Concrete syntax for formulas: tokenizer and recursive-descent parser.

Every connective's spellings and the binary binding levels come from the
one syntax table in ``formula`` (``_SPELLINGS`` and ``_LEVELS``), which
``render`` reads too.  The grammar accepts the ASCII and Unicode spellings
and the aliases of every connective, mixed freely in one input.  The unary
prefixes bind tightest and nest without parentheses.  Each binary level,
loosest first, collects its operands and nests them to the left or to the
right; connectives that share a level (``=>`` and ``|>``) may not be mixed
without parentheses.

Quantifier bodies extend maximally to the right.  A bare lowercase
identifier is a PropAtom, a bare uppercase identifier is a SchemeVar, and
``ident(term, ...)`` is a PredAtom whatever the case of its name.  An
identifier in term position is a BoundVar when an enclosing quantifier binds
that name and a RigidConst otherwise.

The tokenizer makes no object per token: one ``findall`` gives the words,
and their kinds go in a parallel list.  A ParseError carries a SourceSpan of
UTF-8 byte offsets into the input, computed only when the error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from string import ascii_letters

from .formula import (
    _LEVELS, _QUANT, _SPELLINGS, _UNARY, BoundVar, Eq, Formula, PredAtom,
    PropAtom, RigidConst, SchemeVar, Term,
)

__all__ = ["SourceSpan", "ParseError", "parse"]


@dataclass(frozen=True)
class SourceSpan:
    """Half-open byte range [start, end) into the UTF-8 encoded input."""

    start: int
    end: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"at {span.start}..{span.end}: {message}")
        self.message = message
        self.span = span


# ---------------------------------------------------------------------------
# Tokenizer

# A token's kind is its connective's class, the punctuation itself, "IDENT"
# for any other identifier, or "EOF".
_KINDS = {s: c for c, (ascii_, uni, _, *aliases) in _SPELLINGS.items()
          for s in (ascii_, uni, *aliases)}
_KINDS.update((p, p) for p in "().,=")

# An identifier (a keyword spelling is one too), the longest symbol, or any
# other character but whitespace, which is an unknown token.  Whitespace
# matches no alternative, so findall skips it.
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|{}|\S".format(
    "|".join(map(re.escape, sorted((s for s in _KINDS if not s.isalpha()),
                                   key=len, reverse=True)))))


def _tokenize(text: str) -> tuple[list, list[str]]:
    """The kinds and the words of text's tokens, ending with "EOF" and ""."""
    words = _WORD_RE.findall(text)
    kinds = [_KINDS.get(w) or ("IDENT" if w[0] in ascii_letters else None)
             for w in words]
    if None in kinds:
        i = kinds.index(None)
        raise ParseError(f"unknown token {words[i]!r}", _span(text, i))
    kinds.append("EOF")
    words.append("")
    return kinds, words


def _span(text: str, i: int) -> SourceSpan:
    """The byte span of token i (or of the end of input) in text.  A lone
    surrogate counts as one byte, the byte of argv it was decoded from."""
    m = next(islice(_WORD_RE.finditer(text), i, None), None)
    s, e = m.span() if m else (len(text), len(text))
    start = len(text[:s].encode("utf-8", "replace"))
    return SourceSpan(start, start + len(text[s:e].encode("utf-8", "replace")))


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds, self.words = _tokenize(text)
        self.pos = 0
        self.bound: list[str] = []

    def expect(self, kind: str, what: str) -> str:
        """The word of the next token, which must be of kind."""
        word = self.words[self.pos]     # "" at the end of input
        if self.kinds[self.pos] != kind:
            found = repr(word) if word else "end of input"
            raise ParseError(f"expected {what}, found {found}",
                             _span(self.text, self.pos))
        self.pos += 1
        return word

    def formula(self, level: int = 0) -> Formula:
        """A formula whose binary connectives bind at `level` or tighter."""
        if level == len(_LEVELS):
            return self.unary()
        ops, right = _LEVELS[level]
        operands = [self.formula(level + 1)]
        if self.kinds[self.pos] not in ops:
            return operands[0]
        at: list[int] = []
        while self.kinds[self.pos] in ops:
            at.append(self.pos)
            self.pos += 1
            operands.append(self.formula(level + 1))
        node = self.kinds[at[0]]
        for i in at[1:]:
            if self.kinds[i] is not node:
                mixed = " and ".join(repr(_SPELLINGS[c][0]) for c in ops)
                raise ParseError(f"mixed {mixed} need parentheses",
                                 _span(self.text, i))
        if right:
            return reduce(lambda rhs, lhs: node(lhs, rhs), reversed(operands))
        return reduce(node, operands)

    def unary(self) -> Formula:
        k = self.kinds[self.pos]
        if k in _UNARY:
            self.pos += 1
            return k(self.unary())
        if k in _QUANT:
            return self.quantifier()
        return self.atom()

    def quantifier(self) -> Formula:
        kind = self.kinds[self.pos]
        self.pos += 1
        var = self.expect("IDENT", "a variable name")
        self.expect(".", "'.' after the bound variable")
        self.bound.append(var)
        try:
            body = self.formula()
        finally:
            self.bound.pop()
        return kind(var, body)

    def atom(self) -> Formula:
        k = self.kinds[self.pos]
        if k == "(":
            self.pos += 1
            inner = self.formula()
            self.expect(")", "')'")
            return inner
        name = self.expect("IDENT", "a formula")
        if self.kinds[self.pos] == "(":
            self.pos += 1
            args = [self.term()]
            while self.kinds[self.pos] == ",":
                self.pos += 1
                args.append(self.term())
            self.expect(")", "')' closing the argument list")
            return PredAtom(name, tuple(args))
        if self.kinds[self.pos] == "=":
            self.pos += 1
            return Eq(self.make_term(name), self.term())
        if name[0].isupper():
            return SchemeVar(name)
        return PropAtom(name)

    def term(self) -> Term:
        return self.make_term(self.expect("IDENT", "a term"))

    def make_term(self, name: str) -> Term:
        if name in self.bound:
            return BoundVar(name)
        return RigidConst(name)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError on bad input."""
    p = _Parser(text)
    f = p.formula()
    if p.kinds[p.pos] != "EOF":
        raise ParseError(f"unexpected {p.words[p.pos]!r} after a complete "
                         "formula", _span(text, p.pos))
    return f
