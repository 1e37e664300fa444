"""Concrete syntax: pinned parses, precedence, spans, and round-trips."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from modalkit import (And, Box, BoundVar, Dia, Eq, Exists, Forall, Iff, Imp,
                      Not, Or, ParseError, PredAtom, PropAtom, RigidConst,
                      SchemeVar, StrictImp, parse, render)
from conftest import random_fo_formula, random_prop_formula

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
