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

Errors are reported as ParseError carrying a SourceSpan whose start/end are
UTF-8 byte offsets into the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

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

# Whitespace, an identifier (a keyword spelling is one too), the longest
# symbol, or any other character, which is an error.
_TOKEN_RE = re.compile(r"\s+|([A-Za-z][A-Za-z0-9_]*)|({})|(.)".format(
    "|".join(map(re.escape, sorted((s for s in _KINDS if not s.isalpha()),
                                   key=len, reverse=True)))), re.DOTALL)


@dataclass(frozen=True)
class _Token:
    kind: object
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i = b = 0      # a character index and its byte offset
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        s, word = m.start(), m.group()
        b += len(text[i:s].encode("utf-8"))
        end = b + len(word.encode("utf-8"))
        if group == 3:
            raise ParseError(f"unknown token {word!r}", SourceSpan(b, end))
        toks.append(_Token(_KINDS.get(word, "IDENT"), word, SourceSpan(b, end)))
        i = s
    b += len(text[i:].encode("utf-8"))
    toks.append(_Token("EOF", "", SourceSpan(b, b)))
    return toks


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0
        self.bound: list[str] = []

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            found = "end of input" if t.kind == "EOF" else repr(t.text)
            raise ParseError(f"expected {what}, found {found}", t.span)
        return self.next()

    def formula(self, level: int = 0) -> Formula:
        """A formula whose binary connectives bind at `level` or tighter."""
        if level == len(_LEVELS):
            return self.unary()
        ops, right = _LEVELS[level]
        operands = [self.formula(level + 1)]
        if self.peek().kind not in ops:
            return operands[0]
        toks: list[_Token] = []
        while self.peek().kind in ops:
            toks.append(self.next())
            operands.append(self.formula(level + 1))
        node = toks[0].kind
        for t in toks[1:]:
            if t.kind is not node:
                mixed = " and ".join(repr(_SPELLINGS[c][0]) for c in ops)
                raise ParseError(f"mixed {mixed} need parentheses", t.span)
        if right:
            return reduce(lambda rhs, lhs: node(lhs, rhs), reversed(operands))
        return reduce(node, operands)

    def unary(self) -> Formula:
        k = self.peek().kind
        if k in _UNARY:
            self.next()
            return k(self.unary())
        if k in _QUANT:
            return self.quantifier()
        return self.atom()

    def quantifier(self) -> Formula:
        kw = self.next()
        var = self.expect("IDENT", "a variable name").text
        self.expect(".", "'.' after the bound variable")
        self.bound.append(var)
        try:
            body = self.formula()
        finally:
            self.bound.pop()
        return kw.kind(var, body)

    def atom(self) -> Formula:
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.formula()
            self.expect(")", "')'")
            return inner
        if t.kind != "IDENT":
            found = "end of input" if t.kind == "EOF" else repr(t.text)
            raise ParseError(f"expected a formula, found {found}", t.span)
        self.next()
        if self.peek().kind == "(":
            self.next()
            args = [self.term()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.term())
            self.expect(")", "')' closing the argument list")
            return PredAtom(t.text, tuple(args))
        if self.peek().kind == "=":
            self.next()
            return Eq(self.make_term(t.text), self.term())
        if t.text[0].isupper():
            return SchemeVar(t.text)
        return PropAtom(t.text)

    def term(self) -> Term:
        t = self.expect("IDENT", "a term")
        return self.make_term(t.text)

    def make_term(self, name: str) -> Term:
        if name in self.bound:
            return BoundVar(name)
        return RigidConst(name)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError on bad input."""
    p = _Parser(_tokenize(text))
    f = p.formula()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"unexpected {t.text!r} after a complete formula",
                         t.span)
    return f
