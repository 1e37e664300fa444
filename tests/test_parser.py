"""Concrete syntax: pinned parses, precedence, spans, and round-trips.

The front end is also compared with the tokenizer and parser it replaced,
which built a token object with its byte span for every token.  Run as a
script, this file makes that comparison on about 200000 seeded strings:
``PYTHONPATH=src python tests/test_parser.py``.
"""

import random
import re
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from modalkit import (FORMATS, And, Box, BoundVar, Dia, Eq, Exists, Forall,
                      Iff, Imp, Not, Or, ParseError, PredAtom, PropAtom,
                      RigidConst, SchemeVar, StrictImp, parse, render)
from modalkit.formula import _LEVELS, _QUANT, _SPELLINGS, _UNARY
from modalkit.parser import _KINDS, SourceSpan
from conftest import random_fo_formula, random_prop_formula, seeded_randoms

P, Q, R = SchemeVar("P"), SchemeVar("Q"), SchemeVar("R")
p, q = PropAtom("p"), PropAtom("q")


class TestPinnedParses:
    @pytest.mark.parametrize("text,ast", [
        ("p", p),
        ("P", P),
        ("~p", Not(p)),
        ("[]P => P", Imp(Box(P), P)),
        ("<>P => []<>P", Imp(Dia(P), Box(Dia(P)))),
        ("P => Q => R", Imp(P, Imp(Q, R))),           # right associative
        ("P & Q & R", And(And(P, Q), R)),             # left associative
        ("P | Q | R", Or(Or(P, Q), R)),
        ("P & Q | R & S", Or(And(P, Q), And(SchemeVar("R"),
                                            SchemeVar("S")))),
        ("~[]~p", Not(Box(Not(p)))),
        ("P |> Q", StrictImp(P, Q)),
        ("P <=> Q <=> R", Iff(P, Iff(Q, R))),
        ("alive(c)", PredAtom("alive", (RigidConst("c"),))),
        ("Alive(c)", PredAtom("Alive", (RigidConst("c"),))),
        ("forall x. P(x)", Forall("x", PredAtom("P", (BoundVar("x"),)))),
        ("forall x. alive(x) & p",
         Forall("x", And(PredAtom("alive", (BoundVar("x"),)), p))),
        ("(forall x. alive(x)) & p",
         And(Forall("x", PredAtom("alive", (BoundVar("x"),))), p)),
        ("exists x. x = c",
         Exists("x", Eq(BoundVar("x"), RigidConst("c")))),
        ("forall x. forall y. near(x, y)",
         Forall("x", Forall("y", PredAtom("near", (BoundVar("x"),
                                                   BoundVar("y")))))),
    ])
    def test_ascii(self, text, ast):
        assert parse(text) == ast

    @pytest.mark.parametrize("uni,ascii_equiv", [
        ("□P ⊃ P", "[]P => P"),
        ("◇P → □◇P", "<>P => []<>P"),
        ("¬(P ∧ Q) ↔ (¬P ∨ ¬Q)", "~(P & Q) <=> (~P | ~Q)"),
        ("P ⥽ Q", "P |> Q"),
        ("∀x. P(x)", "forall x. P(x)"),
        ("∃x. ¬P(x)", "exists x. ~P(x)"),
    ])
    def test_unicode_aliases(self, uni, ascii_equiv):
        assert parse(uni) == parse(ascii_equiv)

    def test_quantifier_scopes_maximally_right(self):
        assert parse("forall x. P(x) => Q(x)") == Forall(
            "x", Imp(PredAtom("P", (BoundVar("x"),)),
                     PredAtom("Q", (BoundVar("x"),))))

    def test_term_binder_context_disambiguates(self):
        inside = parse("forall x. alive(x)")
        outside = parse("alive(x)")
        assert inside.body.args == (BoundVar("x"),)
        assert outside.args == (RigidConst("x"),)

    def test_canonical_scheme_texts_round_trip_bytewise(self):
        for text in ("(forall x. []P(x)) => [] forall x. P(x)",
                     "[](forall x. P(x)) => forall x. []P(x)"):
            assert render(parse(text), "ascii") == text

    def test_equation_between_constants(self):
        assert parse("p = q") == Eq(RigidConst("p"), RigidConst("q"))

    def test_vacuous_binder_over_atom(self):
        assert parse("forall p. p") == Forall("p", PropAtom("p"))


class TestErrors:
    @pytest.mark.parametrize("text", [
        "", "(", "p &", "& p", "p q", "[]", "p =>", "forall", "forall x",
        "forall x.", "p (", "alive()", "P => Q |> R", "p = ", "1p",
    ])
    def test_raises_parse_error(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_mixed_arrows_need_parens(self):
        with pytest.raises(ParseError, match="mixed"):
            parse("P => Q |> R")
        assert parse("P => (Q |> R)") == Imp(P, StrictImp(Q, R))
        assert parse("(P => Q) |> R") == StrictImp(Imp(P, Q), R)

    def test_spans_are_byte_offsets(self):
        try:
            parse("p &")
            assert False
        except ParseError as e:
            assert (e.span.start, e.span.end) == (3, 3)
        try:
            parse("□p ⊃")          # box is 3 bytes in UTF-8
            assert False
        except ParseError as e:
            assert e.span.start == len("□p ⊃".encode())
        try:
            parse("p q")
            assert False
        except ParseError as e:
            assert (e.span.start, e.span.end) == (2, 3)
            assert "after a complete formula" in str(e)

    def test_error_message_carries_span(self):
        with pytest.raises(ParseError, match=r"at 3\.\.3"):
            parse("p &")

    @pytest.mark.parametrize("text,span", [
        ("p & \udcff", (4, 5)),      # the byte 0xff of argv, surrogateescaped
        ("□ \udc80", (4, 5)),
        ("p & \ud800", (4, 5)),      # not from argv, but no crash either
        ("\udfff\ud83d", (0, 1)),
    ])
    def test_lone_surrogate_is_an_unknown_token_of_one_byte(self, text, span):
        with pytest.raises(ParseError) as e:
            parse(text)
        word = text.split()[-1][0]
        assert e.value.message == f"unknown token {word!r}"
        assert (e.value.span.start, e.value.span.end) == span


class TestRoundTrip:
    def test_seeded_prop_round_trip(self):
        rng = random.Random(20260823)
        for _ in range(500):
            f = random_prop_formula(rng, depth=6, schemes=("P", "Q"))
            for fmt in ("ascii", "unicode"):
                assert parse(render(f, fmt)) == f

    def test_seeded_fo_round_trip(self):
        rng = random.Random(4161)
        for _ in range(500):
            f = random_fo_formula(rng, depth=5)
            for fmt in ("ascii", "unicode"):
                assert parse(render(f, fmt)) == f

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_parser_is_total(self, text):
        """Arbitrary text either parses or raises ParseError, never anything
        else; successful parses re-render and re-parse stably."""
        try:
            f = parse(text)
        except ParseError:
            return
        assert parse(render(f, "ascii")) == f


def test_nesting_depth_of_the_recursive_front_end():
    """parse and render spend a fixed number of stack frames per nesting
    level; a change that spends more per level shrinks these depths, which
    sit well inside the default recursion limit today."""
    assert parse("(" * 100 + "p" + ")" * 100) == PropAtom("p")
    f = parse("~" * 800 + "p")
    for _ in range(400):
        f = f.body
    assert render(f, "ascii") == "~" * 400 + "p"
    for text in ("~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000):
        for parser in (parse, oracle_parse):
            with pytest.raises(RecursionError):
                parser(text)


# ---------------------------------------------------------------------------
# The replaced front end, kept as the oracle: a frozen token with its byte
# span for every token, and a parser that reads them through peek and next.

_ORACLE_RE = re.compile(r"\s+|([A-Za-z][A-Za-z0-9_]*)|({})|(.)".format(
    "|".join(map(re.escape, sorted((s for s in _KINDS if not s.isalpha()),
                                   key=len, reverse=True)))), re.DOTALL)


@dataclass(frozen=True)
class _Token:
    kind: object
    text: str
    span: SourceSpan


def _oracle_tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i = b = 0      # a character index and its byte offset
    for m in _ORACLE_RE.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        s, word = m.start(), m.group()
        # a lone surrogate counts as one byte, as the front end counts it
        b += len(text[i:s].encode("utf-8", "replace"))
        end = b + len(word.encode("utf-8", "replace"))
        if group == 3:
            raise ParseError(f"unknown token {word!r}", SourceSpan(b, end))
        toks.append(_Token(_KINDS.get(word, "IDENT"), word, SourceSpan(b, end)))
        i = s
    b += len(text[i:].encode("utf-8", "replace"))
    toks.append(_Token("EOF", "", SourceSpan(b, b)))
    return toks


class _OracleParser:
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

    def formula(self, level: int = 0):
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

    def unary(self):
        k = self.peek().kind
        if k in _UNARY:
            self.next()
            return k(self.unary())
        if k in _QUANT:
            return self.quantifier()
        return self.atom()

    def quantifier(self):
        kw = self.next()
        var = self.expect("IDENT", "a variable name").text
        self.expect(".", "'.' after the bound variable")
        self.bound.append(var)
        try:
            body = self.formula()
        finally:
            self.bound.pop()
        return kw.kind(var, body)

    def atom(self):
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

    def term(self):
        return self.make_term(self.expect("IDENT", "a term").text)

    def make_term(self, name: str):
        if name in self.bound:
            return BoundVar(name)
        return RigidConst(name)


def oracle_parse(text: str):
    p = _OracleParser(_oracle_tokenize(text))
    f = p.formula()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"unexpected {t.text!r} after a complete formula",
                         t.span)
    return f


def _outcome(parser, text: str):
    """The formula, or the error's message and byte span."""
    try:
        return parser(text)
    except ParseError as e:
        return e.message, e.span.start, e.span.end


def assert_same_as_oracle(text: str):
    """The outcome of parse on text, which must be the oracle's."""
    got = _outcome(parse, text)
    assert got == _outcome(oracle_parse, text), text
    return got


# Pieces that mutations insert: every spelling the parser reads, the latex
# ones it does not, punctuation, digits, near-miss symbols, non-ASCII and
# non-BMP characters, and Unicode whitespace.
_PIECES = (*_KINDS, *(s[2] for s in _SPELLINGS.values()), "p", "Q", "x",
           "alive", "_", "0", "9", "<", ">", "-", "[", "]", "\\", "{", "}",
           "é", "ß", "Ω", "😀", "𝒫", "\U0001f9ea", " ", "\t", "\n",
           "\u00a0", "\u2003", "\u3000", "\x0b", "\x00")


def _mutate(rng: random.Random, text: str) -> str:
    """text with one character deleted, replaced or duplicated, a piece
    inserted, or two of its slices swapped."""
    i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
    op = rng.randrange(5)
    if op == 0:
        return text[:i] + text[i + 1:]
    if op == 1:
        return text[:i] + rng.choice(_PIECES) + text[i + 1:]
    if op == 2:
        return text[:i] + text[i:i + 1] * 2 + text[i + 1:]
    if op == 3:
        return text[:i] + rng.choice(_PIECES) + text[i:]
    return text[j:] + text[i:j] + text[:i]


def corpus(rng: random.Random):
    """Endless strings: empty input, rendered random formulas in every
    format, up to three stacked mutations of each, and soups of pieces."""
    yield ""
    while True:
        if rng.random() < 0.2:
            yield "".join(rng.choice(_PIECES)
                          for _ in range(rng.randrange(1, 12)))
            continue
        f = (random_prop_formula(rng, 5, schemes=("P", "Q"))
             if rng.random() < 0.5 else random_fo_formula(rng, 4))
        text = render(f, rng.choice(FORMATS))
        yield text
        for _ in range(rng.randrange(4)):
            text = _mutate(rng, text)
            yield text


class TestAgainstTheReplacedFrontEnd:
    def test_seeded_corpus(self):
        for text in islice(corpus(random.Random(20261020)), 4000):
            assert_same_as_oracle(text)

    @given(seeded_randoms)
    @settings(max_examples=200, deadline=None)
    def test_mutated_formulas(self, rng):
        for text in islice(corpus(rng), 8):
            assert_same_as_oracle(text)

    @given(st.lists(st.sampled_from(_PIECES) | st.characters(), max_size=16)
           .map("".join))
    @settings(max_examples=300, deadline=None)
    def test_soups(self, text):
        assert_same_as_oracle(text)


def main() -> int:
    """Compare the front end with the oracle on 200000 seeded strings."""
    n = 200000
    errors = sum(isinstance(assert_same_as_oracle(text), tuple)
                 for text in islice(corpus(random.Random(25)), n))
    print(f"front end: {n} strings match the oracle ({n - errors} parse, "
          f"{errors} raise ParseError)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
