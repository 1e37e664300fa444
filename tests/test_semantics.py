"""Evaluation, validity, scheme checking, meta-level inference and the
quantifier/Box exchange, with the reference evaluator as oracle."""

import pickle
import random
import re
import weakref
from contextlib import contextmanager
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from modalkit import (And, ArityMismatch, BF_SCHEME, Box, Budget, CBF_SCHEME,
                      Dia, DomainFrame, Eq, EvalError, FlexiblePred, FoModel,
                      Forall, Frame, Iff, Imp, Not, NotPropositional, Or,
                      PredAtom, PropAtom, PropModel, ResourceLimit, RigidPred,
                      SchemeVar, StrictImp, UnboundScheme, UnboundVar,
                      UnknownSymbol, Verdict, bf_readings, evaluate,
                      fo_scheme_valid, frame_valid, meta_implies, parse,
                      scheme_valid, valid)
import modalkit.semantics as sem
from modalkit.search import frame_from_mask
from modalkit.formula import BoundVar, bind_free, prop_atoms, scheme_vars
from modalkit.semantics import BF_LHS, BF_RHS

from conftest import (random_fo_formula, random_model, random_prop_formula,
                      seeded_randoms)


def ev(m, text, w, **kw):
    return evaluate(m, parse(text), w, **kw)


class TestEvaluate:
    def test_worked_examples(self, chain_model):
        m = chain_model  # w0 -> w1 -> w1, g true at w1 only
        assert not ev(m, "g", "w0")
        assert ev(m, "g", "w1")
        assert ev(m, "[]g", "w0")
        assert ev(m, "<>g", "w0")
        assert ev(m, "[][]g", "w0")
        assert ev(m, "~g & <>g", "w0")
        assert not ev(m, "g | []~g", "w0")
        assert ev(m, "g |> []g", "w0")

    def test_dead_end_world(self):
        m = PropModel(Frame(("w",)), {"p": []})
        assert ev(m, "[]p", "w")       # vacuous
        assert not ev(m, "<>p", "w")
        assert ev(m, "p |> ~p", "w")

    def test_unknown_atom_is_false(self, chain_model):
        assert not ev(m := chain_model, "zebra", "w0")
        assert ev(m, "~zebra", "w1")

    def test_scheme_var_needs_instantiation(self, chain_model):
        with pytest.raises(UnboundScheme):
            ev(chain_model, "P", "w0")
        assert ev(chain_model, "P", "w0", scheme_vals={"P": {"w0"}})
        assert not ev(chain_model, "[]P", "w0", scheme_vals={"P": ["w0"]})

    def test_fo_formula_on_prop_model_rejected(self, chain_model):
        with pytest.raises(NotPropositional):
            ev(chain_model, "alive(c)", "w0")


def shrink_model():
    """w0 -> w1; element a exists only at w0; alive is empty."""
    fr = Frame(("w0", "w1"), (("w0", "w1"),))
    df = DomainFrame(fr, ("a",), {"w0": ["a"], "w1": []})
    return FoModel(df, "varying",
                   flexible_preds={
                       "alive": FlexiblePred(1, {"w0": set(), "w1": set()})})


def grow_model():
    """w0 -> w1; element a exists only at w1."""
    fr = Frame(("w0", "w1"), (("w0", "w1"),))
    df = DomainFrame(fr, ("a",), {"w0": [], "w1": ["a"]})
    return FoModel(df, "varying",
                   flexible_preds={
                       "alive": FlexiblePred(1, {"w0": set(), "w1": set()})})


class TestEvaluateFo:
    def build(self):
        fr = Frame(("u", "v"), (("u", "v"), ("v", "v")))
        df = DomainFrame(fr, ("a", "b"), {"u": ["a"], "v": ["a", "b"]})
        return FoModel(
            df, "varying",
            flexible_preds={"alive": FlexiblePred(
                1, {"u": {("a",)}, "v": {("b",)}})},
            rigid_preds={"near": RigidPred(2, frozenset({("a", "b")}))},
            rigid_consts={"c": "b"})

    def test_quantifiers_range_over_local_domain(self):
        m = self.build()
        assert ev(m, "forall x. alive(x)", "u")      # only a exists at u
        assert not ev(m, "forall x. alive(x)", "v")
        assert ev(m, "exists x. alive(x)", "v")

    def test_empty_local_domain(self):
        m = grow_model()
        assert ev(m, "forall x. alive(x)", "w0")
        assert not ev(m, "exists x. alive(x) | ~alive(x)", "w0")

    def test_terms_denote_independently_of_existence(self):
        m = self.build()
        # c denotes b everywhere, even at u where b does not exist
        assert not ev(m, "alive(c)", "u")
        assert ev(m, "alive(c)", "v")
        assert ev(m, "exists x. near(x, c)", "u")

    def test_equality_is_rigid(self):
        m = self.build()
        assert ev(m, "c = c", "u")
        assert ev(m, "exists x. ~(x = c)", "v")
        assert not ev(m, "exists x. ~(x = x)", "v")

    def test_de_re_de_dicto_contrast(self):
        m = shrink_model()
        assert ev(m, "[](forall x. alive(x))", "w0")   # vacuous at w1
        assert not ev(m, "forall x. []alive(x)", "w0")

    def test_errors(self):
        m = self.build()
        with pytest.raises(UnknownSymbol):
            ev(m, "happy(c)", "u")
        with pytest.raises(ArityMismatch):
            ev(m, "alive(c, c)", "u")
        with pytest.raises(UnknownSymbol):
            ev(m, "alive(d)", "u")
        with pytest.raises(UnboundVar):
            evaluate(m, PredAtom("alive", (BoundVar("x"),)), "u")

    @pytest.mark.parametrize("first_order, text", [
        (False, "P"),                       # an unbound metavariable
        (False, "forall x. p"),             # a quantifier on a PropModel
        (True, "exists x. happy(x)"),       # an unknown predicate
        (True, "exists x. alive(x, x)"),    # a predicate at the wrong arity
    ])
    def test_checks_raise_what_evaluate_raises(self, chain_model,
                                               first_order, text):
        m, f = shrink_model() if first_order else chain_model, parse(text)
        with pytest.raises(EvalError) as want:
            evaluate(m, f, m.worlds[0])
        with pytest.raises(EvalError) as got:
            valid(m, f)
        assert (type(got.value), str(got.value)) == \
            (type(want.value), str(want.value))

    def test_error_hierarchy(self):
        for exc in (UnboundScheme, UnboundVar, UnknownSymbol, ArityMismatch,
                    NotPropositional):
            assert issubclass(exc, EvalError)


class TestCompiledAgreesWithReference:
    """valid() labels every subformula with its truth set; cross-check it
    against the plain recursive evaluator on random inputs."""

    def test_propositional(self):
        rng = random.Random(2024)
        for _ in range(300):
            m = random_model(rng)
            f = random_prop_formula(rng, rng.randint(0, 6))
            ref = all(evaluate(m, f, w) for w in m.worlds)
            v = valid(m, f)
            assert v.holds == ref
            if not v.holds:
                assert not evaluate(m, f, v.world)

    def test_first_order(self):
        rng = random.Random(77)
        fr = Frame(("u", "v"), (("u", "v"), ("v", "u")))
        df = DomainFrame(fr, ("a", "b"))
        for _ in range(200):
            exts = {w: {(e,) for e in "ab" if rng.random() < 0.5}
                    for w in fr.worlds}
            nears = {w: {p for p in product("ab", repeat=2)
                         if rng.random() < 0.5} for w in fr.worlds}
            m = FoModel(df, "constant",
                        flexible_preds={"alive": FlexiblePred(1, exts),
                                        "near": FlexiblePred(2, nears)},
                        rigid_consts={"c": "a"})
            f = random_fo_formula(rng, rng.randint(0, 5))
            ref = all(evaluate(m, f, w) for w in m.worlds)
            v = valid(m, f)
            assert v.holds == ref
            if not v.holds:
                assert not evaluate(m, f, v.world)

    def test_dualities(self):
        rng = random.Random(5)
        for _ in range(150):
            m = random_model(rng)
            f = random_prop_formula(rng, rng.randint(0, 4))
            g = random_prop_formula(rng, rng.randint(0, 4))
            for w in m.worlds:
                assert evaluate(m, Dia(f), w) == \
                    evaluate(m, Not(Box(Not(f))), w)
                assert evaluate(m, StrictImp(f, g), w) == \
                    evaluate(m, Box(Imp(f, g)), w)

    # One program over several formulas that share subformulas: each
    # formula's truth sets are evaluate's at every (world, instance), and a
    # malformed one raises the first structural error in the order of
    # labelling every subformula left to right, each quantifier body once
    # per element (once over an empty domain).

    @staticmethod
    def _sharing(rng, make):
        a, b = make(), make()
        pool = [a, b, Not(a), Imp(a, b), Box(Or(a, b)), And(Dia(a), b),
                Imp(Box(a), Box(Or(a, b)))]
        return rng.sample(pool, rng.randint(1, len(pool)))

    @given(seeded_randoms, st.sampled_from([12, 2]))
    @settings(max_examples=120, deadline=None)
    def test_shared_program_propositional(self, rng, block_bits):
        m = random_model(rng, max_worlds=3, atoms=("p", "q"))
        names = sorted(rng.sample(("P", "Q"), rng.randint(0, 2)))
        fs = self._sharing(rng, lambda: random_prop_formula(
            rng, rng.randint(0, 3), ("p", "q"), ("P", "Q", "R")))
        ws = m.worlds
        fields = sem._fields(len(ws), 0, (), tuple(names))
        err = _first_error(m, fs, names)
        self._agree(m, fs, err, fields, (), {}, lambda i: (m, {
            k: frozenset(v) for k, v in sem._decode(fields, (), ws, i)[0]
            .items()}), block_bits)

    @given(seeded_randoms, st.sampled_from([12, 2]))
    @settings(max_examples=120, deadline=None)
    def test_shared_program_first_order(self, rng, block_bits):
        fm = _random_fo_model(rng)
        if rng.random() < 0.25:     # an empty domain and no constants
            fm = FoModel(DomainFrame(fm.frame, ()), "varying", fm.valuation,
                         {"alive": FlexiblePred(1, {})},
                         {"R": RigidPred(1, frozenset())})
        preds = _FO_PREDS + (("ghost", 1), ("alive", 2))[
            :rng.randint(0, 2) * (rng.random() < 0.3)]
        fs = self._sharing(rng, lambda: random_fo_formula(
            rng, rng.randint(0, 3), preds=preds,
            consts=("c", "k") if rng.random() < 0.2 else ("c",)))
        n = len(fm.worlds)
        fields = sem._fields(n, len(fm.domain), (("P", 1),), ())
        err = _first_error(fm, fs, (), {"P": 1})
        self._agree(fm, fs, err, fields, fm.domain, {"P": 1},
                    lambda i: (_with_hole(fm, i), {}), block_bits)

    @given(seeded_randoms)
    @settings(max_examples=80, deadline=None)
    def test_first_order_on_a_propositional_model(self, rng):
        m = random_model(rng, max_worlds=2, atoms=("p",))
        fs = self._sharing(rng, lambda: random_fo_formula(
            rng, rng.randint(0, 3)) if rng.random() < 0.5
            else random_prop_formula(rng, rng.randint(0, 2), ("p",), ("P",)))
        err = _first_error(m, fs)
        self._agree(m, fs, err, (), (), {}, lambda i: (m, {}), 12)

    @staticmethod
    def _agree(m, fs, err, fields, domain, preds, decoded, block_bits):
        n = len(m.worlds)
        leaves = sem._leaves(fields, domain, n)
        with _block_bits(block_bits):
            blocks = list(sem._blocks(sum(w for *_, w in fields)))
        def truths(cols, full):
            lv = leaves(cols)
            return sem._run(sem._compiled(m, fs, lv, preds), m, lv, full)
        if err is not None:
            with pytest.raises(EvalError) as got:
                truths(blocks[0][2], blocks[0][1])
            assert (type(got.value), str(got.value)) == (type(err), str(err))
            if len(fs) == 1 and not fields:
                with pytest.raises(type(err), match=re.escape(str(err))):
                    valid(m, fs[0])
            return
        for first, full, cols in blocks:
            sets = truths(cols, full)
            for i in range(full.bit_length()):
                model, sv = decoded(first + i)
                for f, per_world in zip(fs, sets):
                    assert [x >> i & 1 for x in per_world] == [
                        evaluate(model, f, w, scheme_vals=sv)
                        for w in model.worlds], (f, first + i)

    def test_shared_subformulas_get_one_slot(self):
        # [], <> and []<> of P are shared by B, D and 5; P by all of them
        fs = tuple(parse(t) for t in ("P => []<>P", "[]P => <>P",
                                      "<>P => []<>P", "[]P", "P"))
        ops, outs = sem._program(fs, frozenset({"P"}), (), None)
        assert len(ops) == 7    # P, []P, <>P, []<>P and the three =>
        assert outs[3:] == [ops.index((sem._BOX, 0, None)), 0]
        # ~~ cancels
        ops, outs = sem._program((Not(Not(fs[4])),), frozenset({"P"}), (),
                                 None)
        assert ops[0] == (sem._LEAF, "P", None) and outs == [0]

    def test_one_program_per_formulas_and_shape(self):
        f = parse("[]P => P")
        m = PropModel(Frame(("a", "b"), (("a", "b"),)), {})
        lv = {"P": [0, 1]}
        prog = sem._compiled(m, (f,), lv)
        assert sem._compiled(m, [f], lv) is prog
        assert sem._compiled(m, (f,), {"P": [0, 1], "Q": [0, 0]}) is not prog
        fm = FoModel(DomainFrame(m.frame, ("a",)), "constant")
        assert sem._compiled(fm, (f,), lv) is not prog

    def test_program_cache_is_bounded_and_never_stale(self):
        m = PropModel(Frame(("a",)), {})
        kept = [parse(f"p & ~q{i}") for i in range(70)]
        for f in kept:
            sem._compiled(m, (f,), {})
        assert len(sem._PROGRAMS) == 64
        # an entry whose formula died, under an id a new formula now has
        f, dead = parse("p | q"), parse("p & q")
        sem._PROGRAMS[id(f), (frozenset(), (), None)] = (
            sem._program((dead,), frozenset(), (), None), [weakref.ref(dead)])
        del dead
        assert sem._compiled(m, (f,), {}) == \
            sem._program((f,), frozenset(), (), None)


class TestDeepFormulas:
    """The checks compile a formula by an iterative walk, so chains of
    100000 connectives built through the API do not overflow the stack,
    and each deep check gives its shallow equivalent's verdict."""

    @pytest.mark.parametrize("wrap", [Not, Box])
    def test_chains_of_100000(self, wrap):
        fr = frame_from_mask(2, 5)      # both worlds see w0 alone
        m = PropModel(fr, {"p": ["w0"]})
        fm = FoModel(DomainFrame(fr, ("a", "b")), "constant")
        # an even chain of ~ is its body; here a chain of [] is one []
        short = Box if wrap is Box else (lambda g: g)
        for check, body in (
                (lambda g: valid(m, g), PropAtom("p")),
                (lambda g: frame_valid(fr, g), PropAtom("p")),
                (lambda g: scheme_valid(m, g), SchemeVar("P")),
                (lambda g: fo_scheme_valid(fm, Forall("x", g), "P"),
                 PredAtom("P", (BoundVar("x"),)))):
            deep = body
            for _ in range(100_000):
                deep = wrap(deep)
            assert check(deep) == check(short(body))


def _first_error(m, fs, names=(), preds=None):
    """The error the truth-set checks raise first on fs: every subformula
    visited left to right, each quantifier body once per element of the
    domain (once, unbound, over an empty one), the way the recursive
    labelling met them; None when there is none."""
    preds = preds or {}
    fo = isinstance(m, FoModel)

    def resolve(t, env):
        if isinstance(t, BoundVar):
            if t.name not in env:
                raise UnboundVar(f"unbound variable {t.name!r}")
            return env[t.name]
        if t.name not in m.rigid_consts:
            raise UnknownSymbol(f"unknown constant {t.name!r}")
        return m.rigid_consts[t.name]

    def go(g, env):
        if isinstance(g, (PropAtom, SchemeVar)):
            if isinstance(g, SchemeVar) and g.name not in names:
                raise UnboundScheme(
                    f"scheme variable {g.name!r} has no instantiation")
        elif isinstance(g, (Not, Box, Dia)):
            go(g.body, env)
        elif isinstance(g, (And, Or, Imp, Iff, StrictImp)):
            go(g.lhs, env)
            go(g.rhs, env)
        elif not fo:
            raise NotPropositional(f"{type(g).__name__} needs a first-order "
                                   "model, got a PropModel")
        elif isinstance(g, PredAtom):
            vals = [resolve(a, env) for a in g.args]
            pred = m.flexible_preds.get(g.name) or m.rigid_preds.get(g.name)
            arity = preds.get(g.name, pred and pred.arity)
            if arity is None:
                raise UnknownSymbol(f"unknown predicate {g.name!r}")
            if arity != len(vals):
                raise ArityMismatch(f"predicate {g.name!r} has arity "
                                    f"{arity}, got {len(vals)}")
        elif isinstance(g, Eq):
            resolve(g.lhs, env)
            resolve(g.rhs, env)
        else:
            for e in m.domain or (None,):
                go(g.body, {**env, g.var: e})
    try:
        for f in fs:
            go(f, {})
    except EvalError as e:
        return e
    return None


# ---------------------------------------------------------------------------
# Differential: every check against the scan it replaced, a plain loop over
# the reference evaluator.  A check charges its full size, one unit per
# (formula, instance, world) of the scan, however early it finds a witness.

def _worlds_of(worlds, mask):
    return tuple(w for i, w in enumerate(worlds) if mask >> i & 1)


def _scan(worlds, instances, holds):
    """World-major scan: ((world, instance) of the first failure or None,
    units charged: every (instance, world) pair)."""
    wit = next(((w, inst) for w in worlds for inst in instances
                if not holds(inst, w)), None)
    return wit, len(worlds) * len(instances)


def _charged(call, used, limit):
    """Run call(budget): it charges ``used`` units in one go, so under
    ``limit`` it trips exactly when used > limit, having charged them all."""
    bud = Budget(10**9)
    result = call(bud)
    assert bud.used == used
    small = Budget(limit)
    if used > limit:
        with pytest.raises(ResourceLimit, match=rf"\({limit} units\)"):
            call(small)
        assert small.used == used
    else:
        assert call(small) == result
        assert small.used == used
    return result


@contextmanager
def _block_bits(bits):
    """Shrink instance blocks so that small checks span several blocks."""
    old, sem._BLOCK_BITS = sem._BLOCK_BITS, bits
    try:
        yield
    finally:
        sem._BLOCK_BITS = old


def _random_fo_model(rng, max_worlds=2):
    """Varying domains (a world may be empty), a flexible unary and binary
    predicate, a rigid predicate, a constant and an atom."""
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    fr = Frame(worlds, [(a, b) for a in worlds for b in worlds
                        if rng.random() < 0.5])
    dom = ("a", "b")[:rng.randint(1, 2)]
    df = DomainFrame(fr, dom, {w: [e for e in dom if rng.random() < 0.6]
                               for w in worlds})
    return FoModel(
        df, "varying",
        valuation={"p": [w for w in worlds if rng.random() < 0.5]},
        flexible_preds={
            "alive": FlexiblePred(1, {w: {(e,) for e in dom
                                          if rng.random() < 0.5}
                                      for w in worlds}),
            "near": FlexiblePred(2, {w: {t for t in product(dom, repeat=2)
                                         if rng.random() < 0.4}
                                     for w in worlds})},
        rigid_preds={"R": RigidPred(1, frozenset(
            (e,) for e in dom if rng.random() < 0.5))},
        rigid_consts={"c": dom[-1]})


def _with_hole(fm, mask, hole="P"):
    """fm with the hole interpreted by a cell-major mask."""
    n = len(fm.worlds)
    ext = {w: {(e,) for ci, e in enumerate(fm.domain)
               if mask >> (ci * n + wi) & 1}
           for wi, w in enumerate(fm.worlds)}
    return FoModel(fm.dframe, fm.mode, fm.valuation,
                   {**fm.flexible_preds, hole: FlexiblePred(1, ext)},
                   fm.rigid_preds, fm.rigid_consts)


_FO_PREDS = (("alive", 1), ("near", 2), ("R", 1), ("P", 1))
_DIFF = settings(max_examples=40, deadline=None)


@pytest.mark.parametrize("block_bits", [12, 2])
class TestTruthSetsMatchScalarScan:
    def test_witness_is_least_world_then_least_instance(self, block_bits):
        # Fails only at b, in every block: the first block's failure wins.
        m = PropModel(Frame(("a", "b")), {"p": ["a"]})
        bud = Budget(10**9)
        with _block_bits(block_bits):
            v = scheme_valid(m, parse("p | P & Q"), bud)
        assert v == Verdict(False, world="b", assignment={"P": (), "Q": ()})
        assert bud.used == 2 * 16

    @given(seeded_randoms)
    @_DIFF
    def test_valid(self, block_bits, rng):
        if rng.random() < 0.5:
            m = random_model(rng, max_worlds=3)
            f = random_prop_formula(rng, rng.randint(0, 5))
        else:
            m = _random_fo_model(rng, max_worlds=3)
            f = random_fo_formula(rng, rng.randint(0, 4),
                                  preds=_FO_PREDS[:3])
        wit, used = _scan(m.worlds, [None],
                          lambda _, w: evaluate(m, f, w))
        with _block_bits(block_bits):
            v = _charged(lambda b: valid(m, f, b), used,
                         rng.randint(0, used + 1))
        assert v == (Verdict(True) if wit is None
                     else Verdict(False, world=wit[0]))

    @given(seeded_randoms)
    @_DIFF
    def test_scheme_and_frame_valid(self, block_bits, rng):
        m = random_model(rng, max_worlds=3, atoms=("p", "q"))
        f = random_prop_formula(rng, rng.randint(0, 5), atoms=("p", "q"),
                                schemes=("P", "Q"))
        ws = m.worlds
        for names, check, model_of in (
                (scheme_vars(f), scheme_valid, lambda val: m),
                (sorted(set(scheme_vars(f)) | set(prop_atoms(f))),
                 lambda m_, f_, b: frame_valid(m_.frame, f_, b),
                 lambda val: PropModel(m.frame, val))):
            def holds(masks, w):
                inst = {nm: _worlds_of(ws, k) for nm, k in zip(names, masks)}
                val = {nm: v for nm, v in inst.items() if nm.islower()}
                sv = {nm: v for nm, v in inst.items() if nm.isupper()}
                return evaluate(model_of(val), f, w, scheme_vals=sv)
            wit, used = _scan(ws, list(product(range(1 << len(ws)),
                                               repeat=len(names))), holds)
            with _block_bits(block_bits):
                v = _charged(lambda b: check(m, f, b), used,
                             rng.randint(0, used + 1))
            assert v == (Verdict(True) if wit is None else Verdict(
                False, world=wit[0], assignment={
                    nm: _worlds_of(ws, k) for nm, k in zip(names, wit[1])}))

    @given(seeded_randoms, st.integers(0, 2))
    @_DIFF
    def test_meta_implies(self, block_bits, rng, n_premises):
        m = random_model(rng, max_worlds=3, atoms=("p",))
        premises = [random_prop_formula(rng, rng.randint(0, 3), atoms=("p",),
                                        schemes=("P", "Q"))
                    for _ in range(n_premises)]
        concl = random_prop_formula(rng, rng.randint(0, 4), atoms=("p",),
                                    schemes=("P", "Q"))
        names = sorted(set().union(*map(scheme_vars, premises + [concl])))
        ws, expect = m.worlds, Verdict(True)
        used = (n_premises + 1) * len(ws) << len(ws) * len(names)
        for masks in product(range(1 << len(ws)), repeat=len(names)):
            sv = {nm: _worlds_of(ws, k) for nm, k in zip(names, masks)}
            ok = all(evaluate(m, p, w, scheme_vals=sv)
                     for p in premises for w in ws)
            bad = next((w for w in ws if ok and not evaluate(
                m, concl, w, scheme_vals=sv)), None)
            if bad is not None:
                expect = Verdict(False, world=bad, assignment=sv)
                break
        with _block_bits(block_bits):
            v = _charged(lambda b: meta_implies(m, premises, concl, b), used,
                         rng.randint(0, used + 1))
        assert v == expect

    @given(seeded_randoms)
    @_DIFF
    def test_fo_scheme_valid(self, block_bits, rng):
        fm = _random_fo_model(rng)
        f = random_fo_formula(rng, rng.randint(0, 4), preds=_FO_PREDS)
        masks = range(1 << (len(fm.domain) * len(fm.worlds)))
        models = [_with_hole(fm, k) for k in masks]
        wit, used = _scan(fm.worlds, masks,
                          lambda k, w: evaluate(models[k], f, w))
        with _block_bits(block_bits):
            v = _charged(lambda b: fo_scheme_valid(fm, f, "P", b), used,
                         rng.randint(0, used + 1))
        assert v.holds == (wit is None)
        if wit is not None:
            pairs = tuple((e, w) for e in fm.domain for w in fm.worlds
                          if (e,) in models[wit[1]].flexible_preds["P"]
                          .extension[w])
            assert (v.world, v.interpretation) == (wit[0], pairs)

    @given(seeded_randoms)
    @_DIFF
    def test_bf_readings(self, block_bits, rng):
        fm = _random_fo_model(rng)
        ws = fm.worlds
        pointwise = meta_iff = meta_imp = True
        bad = []
        for k in range(1 << (len(fm.domain) * len(ws))):
            m2 = _with_hole(fm, k)
            ls = [evaluate(m2, BF_LHS(), w) for w in ws]
            rs = [evaluate(m2, BF_RHS(), w) for w in ws]
            pointwise = pointwise and ls == rs
            meta_iff = meta_iff and all(ls) == all(rs)
            meta_imp = meta_imp and (all(rs) or not all(ls))
            bad += [(wi, k) for wi in range(len(ws)) if ls[wi] and not rs[wi]]
        used = 2 * len(ws) << (len(fm.domain) * len(ws))
        with _block_bits(block_bits):
            r = _charged(lambda b: bf_readings(fm, "P", b), used,
                         rng.randint(0, used + 1))
        assert (r.pointwise, r.meta_iff, r.meta_implies, r.object_implies) \
            == (pointwise, meta_iff, meta_imp, not bad)
        if bad:
            wi, k = min(bad)
            interp = tuple((e, w) for e in fm.domain for w in ws
                           if (e,) in _with_hole(fm, k)
                           .flexible_preds["P"].extension[w])
            assert r.object_witness == (interp, ws[wi])
        else:
            assert r.object_witness is None


# A varying-domain model on which the Barcan implication fails: b exists
# only at v, which u sees, so P false of b at v breaks []forall at u.
_BF_FAILS = FoModel(DomainFrame(Frame(("u", "v"), (("u", "v"),)), ("a", "b"),
                                {"u": ["a"], "v": ["a", "b"]}), "varying")


@pytest.mark.parametrize("block_bits", [12, 2])
class TestChecksChargeTheirFullSize:
    """Each single-model check leaves Budget.used at formulas x worlds x
    2**(instance bits), whether it holds or finds a witness early: the
    tautology f | ~f holds and the contradiction f & ~f fails at once."""

    @staticmethod
    def _both(f):
        return ((Or(f, Not(f)), True), (And(f, Not(f)), False))

    @given(seeded_randoms)
    @_DIFF
    def test_propositional_checks(self, block_bits, rng):
        m = random_model(rng, max_worlds=3, atoms=("p", "q"))
        f = random_prop_formula(rng, rng.randint(0, 4), atoms=("p", "q"),
                                schemes=("P", "Q"))
        plain = random_prop_formula(rng, rng.randint(0, 4), atoms=("p", "q"))
        n, top = len(m.worlds), parse("P | ~P")
        for (g, holds), (p, _) in zip(self._both(f), self._both(plain)):
            k = len(set(scheme_vars(g)) | set(prop_atoms(g)))
            for check, size in (
                    (lambda b: valid(m, p, b), n),
                    (lambda b: scheme_valid(m, g, b),
                     n << n * len(scheme_vars(g))),
                    (lambda b: frame_valid(m.frame, g, b), n << n * k),
                    (lambda b: meta_implies(m, [top], g, b),
                     2 * n << n * len(set(scheme_vars(g)) | {"P"}))):
                bud = Budget(10**9)
                with _block_bits(block_bits):
                    assert check(bud).holds == holds
                assert bud.used == size

    @given(seeded_randoms)
    @_DIFF
    def test_first_order_checks(self, block_bits, rng):
        fm = _random_fo_model(rng)
        f = random_fo_formula(rng, rng.randint(0, 4), preds=_FO_PREDS)
        for g, holds in self._both(f):
            bud = Budget(10**9)
            with _block_bits(block_bits):
                assert fo_scheme_valid(fm, g, "P", bud).holds == holds
            assert bud.used == len(fm.worlds) << len(fm.domain) * len(
                fm.worlds)
        const = FoModel(DomainFrame(fm.frame, fm.domain), "constant")
        for model, holds in ((const, True), (_BF_FAILS, False)):
            bud = Budget(10**9)
            with _block_bits(block_bits):
                assert bf_readings(model, "P", bud).object_implies == holds
            n = len(model.worlds)
            assert bud.used == 2 * n << len(model.domain) * n


class TestSchemeValid:
    def test_witness_pinned_and_revalidates(self):
        m = PropModel(Frame(("a", "b")), {})      # no edges at all
        v = scheme_valid(m, parse("[]P => P"))
        assert not v.holds
        assert v.world == "a"
        # least instantiation: P false everywhere makes []P => P fail at a?
        # []P holds vacuously, P empty fails -> mask 0 is already a witness.
        assert v.assignment == {"P": ()}
        assert not evaluate(m, parse("[]P => P"), v.world,
                            scheme_vals=v.assignment)

    def test_brute_force_agreement(self):
        rng = random.Random(31)
        schemes = [parse(t) for t in
                   ("[]P => P", "[]P => [][]P", "P => []<>P",
                    "[]P => <>P", "<>P => []<>P",
                    "[](P => Q) => ([]P => []Q)",
                    "(P => Q) => ([]~Q => []~P)")]
        for _ in range(60):
            m = random_model(rng, max_worlds=3)
            ws = m.worlds
            subsets = [frozenset(c) for r in range(len(ws) + 1)
                       for c in combinations(ws, r)]
            for sch in schemes:
                names = scheme_vars(sch)
                ref = all(
                    evaluate(m, sch, w, scheme_vals=dict(zip(names, combo)))
                    for combo in product(subsets, repeat=len(names))
                    for w in ws)
                assert scheme_valid(m, sch).holds == ref

    def test_scheme_instances_vs_formula_validity(self):
        # A scheme with no metavariables degenerates to plain validity.
        m = PropModel(Frame(("x", "y"), (("x", "y"),)), {"p": ["y"]})
        assert scheme_valid(m, parse("[]p")).holds == valid(m, parse("[]p")).holds

    def test_rejects_first_order_scheme(self, chain_model):
        with pytest.raises(NotPropositional):
            scheme_valid(chain_model, parse("forall x. P(x)"))

    def test_no_metavariables_builds_no_instance_table(self, monkeypatch):
        # Without metavariables there is one instance and no instance bit,
        # so no column is built, however many worlds the model has.
        monkeypatch.setattr(sem, "_columns",
                            lambda width: pytest.fail("column built"))
        ws = [f"w{i}" for i in range(40)]
        m = PropModel(Frame(ws), {"p": ws})
        assert scheme_valid(m, parse("p")).holds
        assert meta_implies(m, [parse("p")], parse("p")).holds


class TestFrameValid:
    def test_lowercase_atoms_are_schematic_on_frames(self):
        fr = Frame(("a",), (("a", "a"),))
        assert frame_valid(fr, parse("[]p => p")).holds
        assert frame_valid(fr, parse("[]P => P")).holds

    def test_t_refuted_on_irreflexive_point(self):
        fr = Frame(("a", "b"), (("a", "b"), ("b", "b")))
        v = frame_valid(fr, parse("[]P => P"))
        assert not v.holds and v.world == "a"
        assert v.assignment == {"P": ("b",)}
        m = PropModel(fr, {"p": v.assignment["P"]})
        assert not evaluate(m, parse("[]p => p"), v.world)

    def test_rejects_quantified_scheme(self):
        with pytest.raises(NotPropositional, match="frame_valid needs a "
                           "propositional scheme"):
            frame_valid(Frame(("a",)), parse("forall x. []P(x)"))

    def test_k_on_arbitrary_frames(self):
        rng = random.Random(13)
        from modalkit.search import frame_from_mask
        for _ in range(40):
            n = rng.randint(1, 3)
            fr = frame_from_mask(n, rng.getrandbits(n * n))
            assert frame_valid(fr, parse("[](P => Q) => ([]P => []Q)")).holds


class TestMetaImplies:
    def test_necessitation_is_validity_preserving(self):
        rng = random.Random(8)
        for _ in range(60):
            m = random_model(rng, max_worlds=4)
            assert meta_implies(m, [SchemeVar("P")],
                                Box(SchemeVar("P"))).holds

    def test_meta_vs_object_tollens(self):
        # Strengthened antecedent-to-contrapositive under Box: a sound
        # metatheorem everywhere, yet invalid as an object implication on
        # models with a world that refutes the inner conditional.
        sch = parse("(P => Q) => ([]~Q => []~P)")
        m = PropModel(Frame(("w0", "w1"), (("w0", "w1"),)),
                      {"p": ["w1"], "q": []})
        assert meta_implies(m, [sch.lhs], sch.rhs).holds
        v = scheme_valid(m, sch)
        assert not v.holds
        assert not evaluate(m, sch, v.world, scheme_vals=v.assignment)

    def test_witness_contains_premise_valid_conclusion_invalid(self):
        m = PropModel(Frame(("w0", "w1"), (("w0", "w1"),)), {})
        v = meta_implies(m, [SchemeVar("P")], Box(SchemeVar("P")))
        if not v.holds:  # pragma: no cover - depends on frame
            assert all(evaluate(m, SchemeVar("P"), w,
                                scheme_vals=v.assignment) for w in m.worlds)

    def test_deduction_style_gap(self):
        # Valid implication does not follow from premise-to-conclusion
        # validity transfer: on this model P -> []P transfers vacuously
        # but P => []P is refutable.
        m = PropModel(Frame(("w0", "w1"), (("w0", "w1"),)), {})
        p = SchemeVar("P")
        assert meta_implies(m, [p], Box(p)).holds
        assert not scheme_valid(m, Imp(p, Box(p))).holds


class TestFoSchemeValid:
    def test_bf_cbf_on_constant_domain(self):
        fr = Frame(("u", "v"), (("u", "v"),))
        m = FoModel(DomainFrame(fr, ("a", "b")), "constant")
        assert fo_scheme_valid(m, BF_SCHEME, "P").holds
        assert fo_scheme_valid(m, CBF_SCHEME, "P").holds

    def test_cbf_fails_when_domain_shrinks(self):
        v = fo_scheme_valid(shrink_model(), CBF_SCHEME, "P")
        assert not v.holds
        assert v.world == "w0"
        assert v.interpretation == ()
        assert fo_scheme_valid(shrink_model(), BF_SCHEME, "P").holds

    def test_bf_fails_when_domain_grows(self):
        v = fo_scheme_valid(grow_model(), BF_SCHEME, "P")
        assert not v.holds
        assert v.world == "w0"
        assert fo_scheme_valid(grow_model(), CBF_SCHEME, "P").holds

    def test_witness_revalidates_via_reference(self):
        m = grow_model()
        v = fo_scheme_valid(m, BF_SCHEME, "P")
        ext = {w: set() for w in m.worlds}
        for e, w in v.interpretation:
            ext[w].add((e,))
        m2 = FoModel(m.dframe, m.mode,
                     flexible_preds={**m.flexible_preds,
                                     "P": FlexiblePred(1, ext)})
        inst = bind_free(BF_SCHEME, {})  # closed already; keep as-is
        assert not evaluate(m2, inst, v.world)

    def test_open_scheme_rejected(self):
        open_scheme = PredAtom("P", (BoundVar("x"),))
        with pytest.raises(ValueError):
            fo_scheme_valid(shrink_model(), open_scheme, "P")


class TestBfReadings:
    def test_divergence_model(self):
        # w0 reflexive, w1 -> w0; a exists only at w0.
        fr = Frame(("w0", "w1"), (("w0", "w0"), ("w1", "w0")))
        df = DomainFrame(fr, ("a",), {"w0": ["a"], "w1": []})
        r = bf_readings(FoModel(df, "varying"))
        assert not r.pointwise
        assert r.meta_iff and r.meta_implies
        assert not r.object_implies
        interp, w = r.object_witness
        assert (interp, w) == ((), "w1")
        d = r.to_dict()
        assert d["object_witness"] == {"interpretation": [], "world": "w1"}

    def test_constant_domain_all_readings_hold(self):
        fr = Frame(("u", "v"), (("u", "v"), ("v", "u")))
        r = bf_readings(FoModel(DomainFrame(fr, ("a", "b")), "constant"))
        assert r.pointwise and r.meta_iff
        assert r.meta_implies and r.object_implies
        assert r.object_witness is None
        assert "object_witness" not in r.to_dict()


class TestBudgets:
    def test_budget_exhaustion(self, chain_model):
        with pytest.raises(ResourceLimit):
            scheme_valid(chain_model, parse("[]P => P"), budget=Budget(1))

    def test_zero_limit_budget(self, chain_model):
        with pytest.raises(ResourceLimit):
            valid(chain_model, parse("g"), budget=Budget(0))

    def test_bit_ceiling(self):
        m = PropModel(Frame(tuple(f"w{i}" for i in range(7))), {})
        with pytest.raises(ResourceLimit):
            scheme_valid(m, parse("P => Q | R & S"))

    def test_scheme_bit_ceiling_is_scanned_in_blocks(self):
        # 6 metavariables on 4 worlds: 2**24 instances at each world, all
        # charged, with no column wider than one 2**12-instance block.
        fr = Frame(("a", "b", "c", "d"),
                   (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                    ("a", "a")))
        k_or = "[](A => B) => ([]A => []B) | C & D & E & F"
        bud = Budget(10**8)
        assert frame_valid(fr, parse(k_or), bud).holds
        assert bud.used == 4 * 2**24
        assert sem._COLUMNS and all(c.bit_length() <= 1 << 12
                                    for cols in sem._COLUMNS.values()
                                    for c in cols)
        with pytest.raises(ResourceLimit, match=r"4\*7 = 28 bits"):
            frame_valid(fr, parse(k_or + " & G"), Budget(10**8))

    def test_fo_pair_ceiling(self):
        fr = Frame(tuple(f"w{i}" for i in range(3)))
        m = FoModel(DomainFrame(fr, tuple("abcdefgh")), "constant")
        with pytest.raises(ResourceLimit):
            fo_scheme_valid(m, BF_SCHEME, "P")

    def test_resource_limit_pickles_with_frontier(self):
        e = ResourceLimit("out of gas", frontier={"worlds": 2})
        e2 = pickle.loads(pickle.dumps(e))
        assert e2.args == e.args
        assert e2.frontier == {"worlds": 2}

    def test_verdict_to_dict(self):
        assert Verdict(True).to_dict() == {"holds": True}
        d = Verdict(False, world="a", assignment={"P": ("b",)}).to_dict()
        assert d == {"holds": False,
                     "witness": {"world": "a", "assignment": {"P": ["b"]}}}
