"""AST construction, queries, and rendering."""

import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import modalkit.formula as formula_mod
from modalkit import (And, Box, BoundVar, Dia, Eq, Exists, Forall, Iff, Imp,
                      Not, Or, PredAtom, PropAtom, RigidConst, SchemeVar,
                      StrictImp, bind_free, const_names, free_vars,
                      is_closed, is_propositional, parse, pred_symbols,
                      prop_atoms, render, scheme_vars)

P, Q = SchemeVar("P"), SchemeVar("Q")
p, q = PropAtom("p"), PropAtom("q")


class TestConstruction:
    def test_nodes_are_immutable(self):
        f = Imp(Box(P), P)
        with pytest.raises(AttributeError):
            f.lhs = P

    def test_equality_is_structural(self):
        assert Imp(Box(P), P) == Imp(Box(P), P)
        assert Imp(Box(P), P) != Imp(P, Box(P))
        assert hash(Box(p)) == hash(Box(PropAtom("p")))

    def test_atom_case_conventions_enforced(self):
        with pytest.raises(ValueError):
            PropAtom("Upper")
        with pytest.raises(ValueError):
            SchemeVar("lower")
        with pytest.raises(ValueError):
            PropAtom("")

    def test_pred_atoms_need_arguments(self):
        with pytest.raises(ValueError):
            PredAtom("alive", ())
        PredAtom("alive", (RigidConst("c"),))  # fine


class TestQueries:
    def test_atom_and_scheme_listing_sorted(self):
        f = And(Or(q, p), Imp(Q, P))
        assert prop_atoms(f) == ["p", "q"]
        assert scheme_vars(f) == ["P", "Q"]

    def test_pred_symbols_with_arities(self):
        f = And(PredAtom("near", (RigidConst("c"), RigidConst("d"))),
                Forall("x", PredAtom("alive", (BoundVar("x"),))))
        assert pred_symbols(f) == {"alive": 1, "near": 2}

    def test_pred_arity_clash_rejected(self):
        f = And(PredAtom("r", (RigidConst("c"),)),
                PredAtom("r", (RigidConst("c"), RigidConst("d"))))
        with pytest.raises(ValueError):
            pred_symbols(f)

    def test_free_vars_respect_binders(self):
        f = Forall("x", And(PredAtom("alive", (BoundVar("x"),)),
                            PredAtom("alive", (BoundVar("y"),))))
        assert free_vars(f) == ["y"]
        assert not is_closed(f)
        assert is_closed(Forall("y", f))

    def test_is_propositional(self):
        assert is_propositional(Imp(Box(P), Dia(p)))
        assert not is_propositional(Forall("x",
                                           PredAtom("alive",
                                                    (BoundVar("x"),))))
        assert not is_propositional(Eq(RigidConst("c"), RigidConst("c")))

    def test_const_names(self):
        f = PredAtom("near", (RigidConst("c"), BoundVar("x")))
        assert const_names(Exists("x", f)) == ["c"]


QUERIES = (prop_atoms, scheme_vars, pred_symbols, const_names, free_vars,
           is_propositional)


class TestDeepFormulas:
    """The queries walk iteratively: far past the recursion limit."""

    DEPTH = 10000

    def test_box_not_chain(self):
        f = Imp(p, P)
        for i in range(self.DEPTH):
            f = Box(f) if i % 2 else Not(f)
        assert [q(f) for q in QUERIES] == [["p"], ["P"], {}, [], [], True]

    def test_forall_chain_over_one_free_variable(self):
        f = PredAtom("near", (BoundVar("x"), BoundVar("y"), RigidConst("c")))
        for i in range(self.DEPTH):
            f = Forall("x" if i % 2 else "z", f)
        assert [q(f) for q in QUERIES] == [[], [], {"near": 3}, ["c"], ["y"],
                                           False]

    def test_equality_and_hash_of_a_100000_deep_chain(self):
        wraps = (Not, Box, lambda g: And(g, p))

        def chain(leaf):
            f = leaf
            for i in range(100000):
                f = wraps[i % 3](f)
            return f
        f, twin, other = chain(P), chain(P), chain(SchemeVar("Q"))
        assert f == twin and f != other
        assert hash(f) == hash(twin) and {f: 1}[twin] == 1
        # the kept hash is not pickled: str hashes vary by interpreter
        small = Not(Box(p))
        g = pickle.loads(pickle.dumps((hash(small), small)[1]))
        assert "_hash" in small.__dict__ and "_hash" not in g.__dict__
        assert g == small and hash(g) == hash(small)


def _reference(f):
    """The six answers by plain recursion: (atoms, metavariables, predicate
    uses in pre-order, constants, free variables, propositional)."""
    atoms, schemes, consts, free = set(), set(), set(), set()
    preds, first_order = [], []

    def go(g, bound):
        if isinstance(g, PropAtom):
            atoms.add(g.name)
        elif isinstance(g, SchemeVar):
            schemes.add(g.name)
        elif isinstance(g, (PredAtom, Eq)):
            first_order.append(g)
            if isinstance(g, PredAtom):
                preds.append((g.name, len(g.args)))
                terms = g.args
            else:
                terms = (g.lhs, g.rhs)
            for t in terms:
                if isinstance(t, RigidConst):
                    consts.add(t.name)
                elif t.name not in bound:
                    free.add(t.name)
        elif isinstance(g, (Forall, Exists)):
            first_order.append(g)
            go(g.body, bound | {g.var})
        elif isinstance(g, (Not, Box, Dia)):
            go(g.body, bound)
        else:
            go(g.lhs, bound)
            go(g.rhs, bound)

    go(f, frozenset())
    return (sorted(atoms), sorted(schemes), preds, sorted(consts),
            sorted(free), not first_order)


_NAMES = st.sampled_from(["x", "y", "c"])
_TERMS = st.one_of(st.builds(BoundVar, _NAMES), st.builds(RigidConst, _NAMES))
_LEAVES = st.one_of(
    st.builds(PropAtom, st.sampled_from(["p", "q"])),
    st.builds(SchemeVar, st.sampled_from(["P", "Q"])),
    st.builds(PredAtom, st.sampled_from(["alive", "near"]),
              st.lists(_TERMS, min_size=1, max_size=2).map(tuple)),
    st.builds(Eq, _TERMS, _TERMS))
_FORMULAS = st.recursive(_LEAVES, lambda sub: st.one_of(
    *(st.builds(op, sub) for op in (Not, Box, Dia)),
    *(st.builds(op, sub, sub) for op in (And, Or, Imp, Iff, StrictImp)),
    *(st.builds(op, st.sampled_from(["x", "y"]), sub)
      for op in (Forall, Exists))), max_leaves=12)


class TestQueriesMatchRecursiveReference:
    @given(_FORMULAS)
    @settings(max_examples=300, deadline=None)
    @example(And(Forall("x", PredAtom("alive", (BoundVar("x"),))),
                 PredAtom("alive", (BoundVar("x"),))))   # x is free again
    def test_six_queries(self, f):
        atoms, schemes, preds, consts, free, prop = _reference(f)
        assert prop_atoms(f) == atoms
        assert scheme_vars(f) == schemes
        assert const_names(f) == consts
        assert free_vars(f) == free
        assert is_closed(f) == (not free)
        assert is_propositional(f) == prop
        arity: dict[str, int] = {}
        for name, n in preds:
            if arity.setdefault(name, n) != n:
                msg = (f"predicate {name!r} used at arities {arity[name]} "
                       f"and {n}")
                with pytest.raises(ValueError) as ei:
                    pred_symbols(f)
                assert str(ei.value) == msg
                break
        else:
            assert pred_symbols(f) == dict(sorted(arity.items()))


class TestQueryMemo:
    @staticmethod
    def fresh():
        return Forall("x", And(PredAtom("near", (BoundVar("x"),
                                                 RigidConst("c"))),
                               Imp(Box(P), Or(p, PredAtom("alive",
                                                          (BoundVar("y"),))))))

    def test_each_query_walks_a_formula_once(self, monkeypatch):
        """prop_atoms, scheme_vars and is_propositional share one walk, so
        the six queries walk a fresh formula four times."""
        walks = []
        real = formula_mod._walk
        monkeypatch.setattr(formula_mod, "_walk",
                            lambda f: walks.append(f) or real(f))
        f = self.fresh()
        assert is_propositional(f) is False
        assert (scheme_vars(f), prop_atoms(f)) == (["P"], ["p"])
        assert len(walks) == 1
        first = [q(f) for q in QUERIES]
        assert len(walks) == 4
        assert [q(f) for q in QUERIES] == first
        assert is_closed(f) is False
        assert len(walks) == 4

    def test_mutating_an_answer_does_not_reach_the_memo(self):
        f = self.fresh()
        for q in (prop_atoms, scheme_vars, const_names, free_vars):
            q(f).append("zz")
        pred_symbols(f)["zz"] = 9
        assert [q(f) for q in QUERIES] == [["p"], ["P"],
                                           {"alive": 1, "near": 2}, ["c"],
                                           ["y"], False]

    def test_arity_clash_raises_every_time(self):
        f = And(PredAtom("r", (RigidConst("c"),)),
                PredAtom("r", (RigidConst("c"), RigidConst("d"))))
        for _ in range(2):
            with pytest.raises(ValueError, match="arities 1 and 2"):
                pred_symbols(f)
        assert prop_atoms(f) == []

    def test_equality_hash_and_pickle_unchanged_by_queries(self):
        f, twin = self.fresh(), self.fresh()
        before = pickle.loads(pickle.dumps(f))
        answers = [q(f) for q in QUERIES]
        assert f == twin and hash(f) == hash(twin)
        assert f == before and hash(f) == hash(before)
        g = pickle.loads(pickle.dumps(f))
        assert g == twin and hash(g) == hash(twin)
        assert repr(g) == repr(twin)
        assert [q(g) for q in QUERIES] == answers


class TestBindFree:
    def test_rewrites_matching_constants_to_variables(self):
        f = parse("alive(x)")        # bare x parses as a rigid constant
        assert const_names(f) == ["x"]
        g = bind_free(f, ["x"])
        assert free_vars(g) == ["x"]
        assert const_names(g) == []

    def test_leaves_bound_occurrences_alone(self):
        f = parse("forall x. near(x, x)")
        assert bind_free(f, ["x"]) == f


class TestRender:
    @pytest.mark.parametrize("text,expected", [
        ("[]P => P", r"\Box P \supset P"),
        ("P |> Q", r"P \strictif Q"),
        ("~<>(P & ~Q)", r"\neg \Diamond (P \wedge \neg Q)"),
        ("P <=> Q", r"P \leftrightarrow Q"),
        ("forall x. P(x)", r"\forall x. P(x)"),
        ("exists x. x = c", r"\exists x. x = c"),
        ("P & Q | R", r"P \wedge Q \vee R"),
    ])
    def test_latex_table(self, text, expected):
        assert render(parse(text), "latex") == expected

    @pytest.mark.parametrize("text,expected", [
        ("~<>(P & ~Q)", "¬◇(P ∧ ¬Q)"),
        ("[]P => P", "□P => P"),
        ("P |> Q", "P |> Q"),
        ("forall x. alive(x)", "∀x. alive(x)"),
        ("P | Q", "P ∨ Q"),
        ("P <=> Q", "P <=> Q"),
        ("exists x. alive(x)", "∃x. alive(x)"),
    ])
    def test_unicode_table(self, text, expected):
        assert render(parse(text), "unicode") == expected

    def test_minimal_parens_drop_redundant_grouping(self):
        assert render(parse("(P & Q) | R"), "ascii") == "P & Q | R"
        assert render(parse("P & (Q | R)"), "ascii") == "P & (Q | R)"
        assert render(parse("P => (Q => R)"), "ascii") == "P => Q => R"
        assert render(parse("(P => Q) => R"), "ascii") == "(P => Q) => R"

    def test_quantifier_scope_renders_unambiguously(self):
        f = parse("(forall x. P(x)) & q")
        g = parse("forall x. P(x) & q")
        assert f != g
        assert parse(render(f, "ascii")) == f
        assert parse(render(g, "ascii")) == g

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(p, "html")

    def test_round_trip_spot_checks(self):
        for text in ["[](P => Q) => ([]P => []Q)",
                     "(forall x. []P(x)) => [] forall x. P(x)",
                     "[](forall x. P(x)) => forall x. []P(x)",
                     "<>p |> []q",
                     "exists x. exists y. ~(x = y)"]:
            f = parse(text)
            for fmt in ("ascii", "unicode"):
                assert parse(render(f, fmt)) == f
