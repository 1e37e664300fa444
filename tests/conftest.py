"""Shared fixtures and the random-AST generator used across the suite."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import strategies as st

from modalkit import (And, Box, BoundVar, Dia, Eq, Exists, Forall, Frame,
                      Iff, Imp, Not, Or, PredAtom, PropAtom, PropModel,
                      RigidConst, SchemeVar, StrictImp)


# Random generators seeded from a drawn integer.  hypothesis' own
# st.randoms(use_true_random=False) draws shrink-friendly values that keep
# the generated models and formulas small: with it, an evaluator whose
# `exists` ignored existence passed every test.
seeded_randoms = st.integers(0, 2**32 - 1).map(random.Random)


@pytest.fixture
def chain_model():
    """Two worlds in a chain w0 -> w1 -> w1, with g true at w1 only."""
    return PropModel(Frame(("w0", "w1"), (("w0", "w1"), ("w1", "w1"))),
                     {"g": ("w1",)})


@pytest.fixture
def write_json(tmp_path):
    def _write(name: str, payload) -> str:
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)
    return _write


# ---------------------------------------------------------------------------
# Random formula generation (seeded, reproducible)

_CONNECTIVES = (Not, Box, Dia, And, Or, Imp, Iff, StrictImp)


def random_prop_formula(rng: random.Random, depth: int,
                        atoms=("p", "q", "r"), schemes=()) -> object:
    """A random propositional formula of at most the given depth."""
    leaves = [PropAtom(a) for a in atoms] + [SchemeVar(s) for s in schemes]
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    op = rng.choice(_CONNECTIVES)
    if op in (Not, Box, Dia):
        return op(random_prop_formula(rng, depth - 1, atoms, schemes))
    return op(random_prop_formula(rng, depth - 1, atoms, schemes),
              random_prop_formula(rng, depth - 1, atoms, schemes))


_VAR_POOL = ("x", "y", "z")


def random_fo_formula(rng: random.Random, depth: int, bound=(),
                      preds=(("alive", 1), ("near", 2)),
                      consts=("c",), atoms=("p",)) -> object:
    """A random closed-unless-bound first-order formula.  Terms follow the
    parser's convention: a variable only where an enclosing binder binds it,
    a rigid constant otherwise."""

    def term():
        if bound and rng.random() < 0.7:
            return BoundVar(rng.choice(bound))
        return RigidConst(rng.choice(consts))

    def leaf():
        kind = rng.random()
        if kind < 0.55:
            name, arity = rng.choice(preds)
            return PredAtom(name, tuple(term() for _ in range(arity)))
        if kind < 0.75 and bound:
            return Eq(term(), term())
        return PropAtom(rng.choice(atoms))

    if depth <= 0 or rng.random() < 0.2:
        return leaf()
    roll = rng.random()
    if roll < 0.25:
        var = rng.choice(_VAR_POOL)
        binder = Forall if rng.random() < 0.5 else Exists
        return binder(var, random_fo_formula(rng, depth - 1,
                                             tuple(set(bound) | {var}),
                                             preds, consts, atoms))
    op = rng.choice(_CONNECTIVES)
    if op in (Not, Box, Dia):
        return op(random_fo_formula(rng, depth - 1, bound, preds, consts,
                                    atoms))
    return op(random_fo_formula(rng, depth - 1, bound, preds, consts, atoms),
              random_fo_formula(rng, depth - 1, bound, preds, consts, atoms))


def random_model(rng: random.Random, max_worlds: int = 5,
                 atoms=("p", "q", "r")) -> PropModel:
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    edges = tuple((a, b) for a in worlds for b in worlds
                  if rng.random() < 0.4)
    valuation = {a: tuple(w for w in worlds if rng.random() < 0.5)
                 for a in atoms}
    return PropModel(Frame(worlds, edges), valuation)
