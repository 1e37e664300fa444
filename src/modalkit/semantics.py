"""Truth, validity and schematic validity over finite Kripke models.

Box quantifies over accessible worlds, Diamond asks for one, and validity is
truth at every world of the model.  Schematic ops (scheme_valid, frame_valid,
fo_scheme_valid) instantiate metavariables extensionally — a SchemeVar ranges
over arbitrary sets of worlds, a first-order predicate hole over arbitrary
subsets of domain x worlds — so "valid for every instance" is a literal
finite enumeration, guarded by budgets.

Two evaluators live here on purpose: ``evaluate`` is the plain recursive
reference implementation, and ``_compile`` builds a closure tree used by the
enumeration loops.  They are property-tested against each other, and search
certificates are re-checked through ``evaluate`` before being reported.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

from .formula import (
    And, Box, BoundVar, Dia, Eq, Exists, Forall, Formula, Iff, Imp, Not, Or,
    PredAtom, PropAtom, RigidConst, SchemeVar, StrictImp,
    free_vars, is_propositional, prop_atoms, scheme_vars,
)
from .model import (FoModel, Frame, PropModel, _bits, _extension, _pairs,
                    _subsets)

__all__ = [
    "EvalError", "UnboundScheme", "UnboundVar", "UnknownSymbol",
    "ArityMismatch", "NotPropositional", "ResourceLimit", "Budget",
    "DEFAULT_EVAL_BUDGET", "SCHEME_BITS_LIMIT", "FO_PAIRS_LIMIT", "Verdict",
    "evaluate", "valid", "scheme_valid", "frame_valid", "meta_implies",
    "fo_scheme_valid", "BF_LHS", "BF_RHS", "bf_readings", "BfReadings",
]


# ---------------------------------------------------------------------------
# Errors and budgets

class EvalError(Exception):
    """Base class for evaluation-time failures."""


class UnboundScheme(EvalError):
    """A SchemeVar reached an op that expected a concrete formula."""


class UnboundVar(EvalError):
    """A BoundVar occurrence had no binding in the environment."""


class UnknownSymbol(EvalError):
    """A predicate or constant name the model does not interpret."""


class ArityMismatch(EvalError):
    """A predicate applied to the wrong number of arguments."""


class NotPropositional(EvalError):
    """A first-order construct where only propositional ones are allowed."""


class ResourceLimit(Exception):
    """An enumeration would exceed its configured budget.

    ``frontier`` describes how far work got before refusal (for searches,
    the largest size completed)."""

    def __init__(self, message: str, frontier=None):
        super().__init__(message)
        self.frontier = frontier

    def __reduce__(self):
        # keep the frontier when crossing a process boundary
        return (type(self), (self.args[0], self.frontier))


DEFAULT_EVAL_BUDGET = 100_000_000
SCHEME_BITS_LIMIT = 24   # refuse scheme enumeration beyond 2**24 instances
FO_PAIRS_LIMIT = 20      # refuse interpretation enumeration beyond 2**20


def _env_budget() -> int:
    raw = os.environ.get("MODALKIT_BUDGET")
    if raw is None:
        return DEFAULT_EVAL_BUDGET
    try:
        v = int(raw)
    except ValueError:
        v = 0
    if v <= 0:
        raise ValueError(f"MODALKIT_BUDGET must be a positive integer, "
                         f"got {raw!r}")
    return v


class Budget:
    """Meters evaluator calls (one unit = one formula evaluated at one
    world).  The default limit comes from MODALKIT_BUDGET or 10**8; a
    MODALKIT_BUDGET that is not a positive integer raises ValueError."""

    def __init__(self, limit: int | None = None):
        self.limit = _env_budget() if limit is None else limit
        self.used = 0

    def charge(self, n: int = 1, frontier=None) -> None:
        self.used += n
        if self.used > self.limit:
            raise ResourceLimit(
                f"evaluator-call budget exhausted ({self.limit} calls)",
                frontier=frontier)


def _as_budget(budget) -> Budget:
    if isinstance(budget, Budget):
        return budget
    return Budget(budget)


# ---------------------------------------------------------------------------
# Verdicts

@dataclass(frozen=True)
class Verdict:
    """Outcome of a validity-style check; the witness fields are populated
    exactly when the check fails and re-evaluating at them yields false."""

    holds: bool
    world: str | None = None
    assignment: Mapping[str, tuple[str, ...]] | None = None
    interpretation: tuple[tuple[str, str], ...] | None = None

    def to_dict(self) -> dict:
        out: dict = {"holds": self.holds}
        if self.holds:
            return out
        w: dict = {}
        if self.world is not None:
            w["world"] = self.world
        if self.assignment is not None:
            w["assignment"] = {k: list(v) for k, v in sorted(self.assignment.items())}
        if self.interpretation is not None:
            w["interpretation"] = [list(p) for p in self.interpretation]
        out["witness"] = w
        return out


# ---------------------------------------------------------------------------
# Reference evaluator

Env = dict[str, str]

_MISSING = object()


def evaluate(m: PropModel | FoModel, f: Formula, w: str,
             env: Mapping[str, str] | None = None,
             scheme_vals: Mapping[str, Iterable[str]] | None = None) -> bool:
    """Truth of f at world w.

    ``env`` supplies values for free variables of an open first-order
    formula; ``scheme_vals`` optionally instantiates SchemeVars with sets of
    worlds (without it, any SchemeVar raises UnboundScheme).
    """
    if w not in m.frame.index:
        raise ValueError(f"unknown world {w!r}")
    sv = {k: frozenset(v) for k, v in scheme_vals.items()} if scheme_vals else {}
    return _ev(m, f, w, dict(env) if env else {}, sv)


def _resolve(m: FoModel, t, env: Env) -> str:
    if isinstance(t, BoundVar):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVar(f"unbound variable {t.name!r}") from None
    try:
        return m.rigid_consts[t.name]
    except KeyError:
        raise UnknownSymbol(f"unknown constant {t.name!r}") from None


def _ev(m, f: Formula, w: str, env: Env, sv: Mapping[str, frozenset[str]]) -> bool:
    if isinstance(f, PropAtom):
        val = m.valuation.get(f.name)
        return val is not None and w in val
    if isinstance(f, SchemeVar):
        if f.name in sv:
            return w in sv[f.name]
        raise UnboundScheme(f"scheme variable {f.name!r} has no instantiation")
    if isinstance(f, Not):
        return not _ev(m, f.body, w, env, sv)
    if isinstance(f, And):
        return _ev(m, f.lhs, w, env, sv) and _ev(m, f.rhs, w, env, sv)
    if isinstance(f, Or):
        return _ev(m, f.lhs, w, env, sv) or _ev(m, f.rhs, w, env, sv)
    if isinstance(f, Imp):
        return (not _ev(m, f.lhs, w, env, sv)) or _ev(m, f.rhs, w, env, sv)
    if isinstance(f, Iff):
        return _ev(m, f.lhs, w, env, sv) == _ev(m, f.rhs, w, env, sv)
    if isinstance(f, Box):
        return all(_ev(m, f.body, v, env, sv) for v in m.frame.successors(w))
    if isinstance(f, Dia):
        return any(_ev(m, f.body, v, env, sv) for v in m.frame.successors(w))
    if isinstance(f, StrictImp):
        return not any(
            _ev(m, f.lhs, v, env, sv) and not _ev(m, f.rhs, v, env, sv)
            for v in m.frame.successors(w))
    if not isinstance(m, FoModel):
        raise NotPropositional(
            f"{type(f).__name__} needs a first-order model, got a PropModel")
    if isinstance(f, PredAtom):
        vals = tuple(_resolve(m, a, env) for a in f.args)
        fp = m.flexible_preds.get(f.name)
        if fp is not None:
            if fp.arity != len(vals):
                raise ArityMismatch(
                    f"predicate {f.name!r} has arity {fp.arity}, got {len(vals)}")
            return vals in fp.extension[w]
        rp = m.rigid_preds.get(f.name)
        if rp is not None:
            if rp.arity != len(vals):
                raise ArityMismatch(
                    f"predicate {f.name!r} has arity {rp.arity}, got {len(vals)}")
            return vals in rp.extension
        raise UnknownSymbol(f"unknown predicate {f.name!r}")
    if isinstance(f, Eq):
        return _resolve(m, f.lhs, env) == _resolve(m, f.rhs, env)
    if isinstance(f, Forall):
        dom = m.domain_at(w)
        for e in m.domain:
            if e in dom:
                env2 = dict(env)
                env2[f.var] = e
                if not _ev(m, f.body, w, env2, sv):
                    return False
        return True
    if isinstance(f, Exists):
        dom = m.domain_at(w)
        for e in m.domain:
            if e in dom:
                env2 = dict(env)
                env2[f.var] = e
                if _ev(m, f.body, w, env2, sv):
                    return True
        return False
    raise TypeError(f"not a Formula: {f!r}")


# ---------------------------------------------------------------------------
# Compiled evaluator (internal fast path)

class _Ctx:
    """Mutable evaluation context a compiled formula closes over.  The
    enumeration loops swap ``schemes`` entries / flexible extensions in
    place instead of recompiling."""

    __slots__ = ("succ", "valuation", "schemes", "env", "flex", "flex_arity",
                 "rigid", "consts", "domain_at", "first_order",
                 "atoms_schematic")

    def __init__(self, m: PropModel | FoModel, schematic: bool = False,
                 atoms_schematic: bool = False):
        fr = m.frame
        self.succ = fr.successor_map
        self.valuation = m.valuation
        self.schemes: dict[str, frozenset[str]] = {}
        self.env: Env = {}
        self.atoms_schematic = atoms_schematic
        self.first_order = isinstance(m, FoModel)
        if not schematic and not atoms_schematic:
            self.schemes = None  # type: ignore[assignment]
        if self.first_order:
            self.flex = {name: dict(fp.extension)
                         for name, fp in m.flexible_preds.items()}
            self.flex_arity = {name: fp.arity
                               for name, fp in m.flexible_preds.items()}
            self.rigid = m.rigid_preds
            self.consts = m.rigid_consts
            # ordered inhabitant tuples per world
            self.domain_at = {
                w: tuple(e for e in m.domain if e in m.domain_at(w))
                for w in m.worlds
            }
        else:
            self.flex = {}
            self.flex_arity = {}
            self.rigid = {}
            self.consts = {}
            self.domain_at = {}


def _compile(f: Formula, ctx: _Ctx):
    """Build a ``fn(world) -> bool`` closure for f over ctx.  Structural
    errors (unknown symbols, arity, schemes where none are allowed) are
    raised here, at compile time."""
    if isinstance(f, PropAtom):
        if ctx.atoms_schematic:
            g, n = ctx.schemes, f.name
            return lambda w: w in g[n]
        s = ctx.valuation.get(f.name, frozenset())
        return lambda w: w in s
    if isinstance(f, SchemeVar):
        if ctx.schemes is None:
            raise UnboundScheme(
                f"scheme variable {f.name!r} has no instantiation")
        g, n = ctx.schemes, f.name
        return lambda w: w in g[n]
    if isinstance(f, Not):
        b = _compile(f.body, ctx)
        return lambda w: not b(w)
    if isinstance(f, And):
        l, r = _compile(f.lhs, ctx), _compile(f.rhs, ctx)
        return lambda w: l(w) and r(w)
    if isinstance(f, Or):
        l, r = _compile(f.lhs, ctx), _compile(f.rhs, ctx)
        return lambda w: l(w) or r(w)
    if isinstance(f, Imp):
        l, r = _compile(f.lhs, ctx), _compile(f.rhs, ctx)
        return lambda w: r(w) if l(w) else True
    if isinstance(f, Iff):
        l, r = _compile(f.lhs, ctx), _compile(f.rhs, ctx)
        return lambda w: l(w) == r(w)
    if isinstance(f, Box):
        b, succ = _compile(f.body, ctx), ctx.succ
        return lambda w: all(map(b, succ[w]))
    if isinstance(f, Dia):
        b, succ = _compile(f.body, ctx), ctx.succ
        return lambda w: any(map(b, succ[w]))
    if isinstance(f, StrictImp):
        l, r = _compile(f.lhs, ctx), _compile(f.rhs, ctx)
        succ = ctx.succ
        def strict(w):
            for v in succ[w]:
                if l(v) and not r(v):
                    return False
            return True
        return strict
    if not ctx.first_order:
        raise NotPropositional(
            f"{type(f).__name__} needs a first-order model, got a PropModel")
    if isinstance(f, PredAtom):
        getters = tuple(_term_getter(a, ctx) for a in f.args)
        if f.name in ctx.flex:
            arity = ctx.flex_arity[f.name]
            if arity != len(getters):
                raise ArityMismatch(
                    f"predicate {f.name!r} has arity {arity}, got {len(getters)}")
            flex, n, e = ctx.flex, f.name, ctx.env
            return lambda w: tuple(g(e) for g in getters) in flex[n][w]
        if f.name in ctx.rigid:
            rp = ctx.rigid[f.name]
            if rp.arity != len(getters):
                raise ArityMismatch(
                    f"predicate {f.name!r} has arity {rp.arity}, got {len(getters)}")
            ext, e = rp.extension, ctx.env
            return lambda w: tuple(g(e) for g in getters) in ext
        raise UnknownSymbol(f"unknown predicate {f.name!r}")
    if isinstance(f, Eq):
        gl, gr = _term_getter(f.lhs, ctx), _term_getter(f.rhs, ctx)
        e = ctx.env
        return lambda w: gl(e) == gr(e)
    if isinstance(f, (Forall, Exists)):
        b = _compile(f.body, ctx)
        dom, e, x = ctx.domain_at, ctx.env, f.var
        want = isinstance(f, Exists)  # short-circuit value
        def quant(w):
            old = e.get(x, _MISSING)
            out = not want
            for d in dom[w]:
                e[x] = d
                if b(w) == want:
                    out = want
                    break
            if old is _MISSING:
                e.pop(x, None)
            else:
                e[x] = old
            return out
        return quant
    raise TypeError(f"not a Formula: {f!r}")


def _term_getter(t, ctx: _Ctx):
    if isinstance(t, BoundVar):
        n = t.name
        def get(env, n=n):
            try:
                return env[n]
            except KeyError:
                raise UnboundVar(f"unbound variable {n!r}") from None
        return get
    try:
        v = ctx.consts[t.name]
    except KeyError:
        raise UnknownSymbol(f"unknown constant {t.name!r}") from None
    return lambda env, v=v: v


# ---------------------------------------------------------------------------
# Validity

def valid(m: PropModel | FoModel, f: Formula, budget=None) -> Verdict:
    """Truth at every world; the witness is the least failing world in
    declaration order."""
    bud = _as_budget(budget)
    fn = _compile(f, _Ctx(m))
    for w in m.worlds:
        bud.charge()
        if not fn(w):
            return Verdict(False, world=w)
    return Verdict(True)


def scheme_valid(m: PropModel | FoModel, scheme: Formula, budget=None,
                 max_bits: int = SCHEME_BITS_LIMIT) -> Verdict:
    """Validity of every instance of a propositional scheme on m.

    SchemeVars are instantiated with all sets of worlds; PropAtoms keep the
    model's valuation.  The witness is the least failing world, then the
    lexicographically least instantiation (metavariables in sorted order,
    world-index bitmasks)."""
    if not is_propositional(scheme):
        raise NotPropositional("scheme_valid needs a propositional scheme")
    return _scheme_check(m, scheme, scheme_vars(scheme), False, budget, max_bits)


def frame_valid(fr: Frame, scheme: Formula, budget=None,
                max_bits: int = SCHEME_BITS_LIMIT) -> Verdict:
    """Validity of a scheme on a bare frame: every atom, schematic or not,
    ranges over all sets of worlds."""
    if not is_propositional(scheme):
        raise NotPropositional("frame_valid needs a propositional scheme")
    m = PropModel(fr, {})
    names = sorted(set(scheme_vars(scheme)) | set(prop_atoms(scheme)))
    return _scheme_check(m, scheme, names, True, budget, max_bits)


def _scheme_check(m, scheme: Formula, names: Sequence[str],
                  atoms_schematic: bool, budget, max_bits: int) -> Verdict:
    bud = _as_budget(budget)
    worlds = m.worlds
    n, k = len(worlds), len(names)
    if n * k > max_bits:
        raise ResourceLimit(
            f"scheme enumeration needs {n}*{k} = {n * k} bits "
            f"(limit {max_bits})")
    ctx = _Ctx(m, schematic=True, atoms_schematic=atoms_schematic)
    fn = _compile(scheme, ctx)
    sch = ctx.schemes
    if k == 0:
        for w in worlds:
            bud.charge()
            if not fn(w):
                return Verdict(False, world=w, assignment={})
        return Verdict(True)
    subsets = _subsets(worlds)
    for w in worlds:
        for masks in product(range(1 << n), repeat=k):
            for nm, mask in zip(names, masks):
                sch[nm] = subsets[mask]
            bud.charge()
            if not fn(w):
                return Verdict(
                    False, world=w,
                    assignment={nm: _bits(worlds, mask)
                                for nm, mask in zip(names, masks)})
    return Verdict(True)


def meta_implies(m: PropModel | FoModel, premises: Sequence[Formula],
                 conclusion: Formula, budget=None,
                 max_bits: int = SCHEME_BITS_LIMIT) -> Verdict:
    """The meta reading of an inference: for every instantiation of the
    metavariables shared across premises and conclusion, if every premise is
    valid on m then the conclusion is valid on m.

    The witness is the least instantiation (then least failing world of the
    conclusion) making all premises valid and the conclusion invalid.  The
    object reading of an implication is ``valid``/``scheme_valid`` of a
    single Imp formula instead.
    """
    bud = _as_budget(budget)
    worlds = m.worlds
    names = sorted(set().union(*(scheme_vars(p) for p in premises),
                               scheme_vars(conclusion)))
    n, k = len(worlds), len(names)
    if n * k > max_bits:
        raise ResourceLimit(
            f"scheme enumeration needs {n}*{k} = {n * k} bits "
            f"(limit {max_bits})")
    ctx = _Ctx(m, schematic=True)
    fps = [_compile(p, ctx) for p in premises]
    fc = _compile(conclusion, ctx)
    subsets = _subsets(worlds) if k else ()
    sch = ctx.schemes
    for masks in product(range(1 << n), repeat=k):
        for nm, mask in zip(names, masks):
            sch[nm] = subsets[mask]
        premises_valid = True
        for fp in fps:
            for w in worlds:
                bud.charge()
                if not fp(w):
                    premises_valid = False
                    break
            if not premises_valid:
                break
        if not premises_valid:
            continue
        for w in worlds:
            bud.charge()
            if not fc(w):
                return Verdict(
                    False, world=w,
                    assignment={nm: _bits(worlds, mask)
                                for nm, mask in zip(names, masks)})
    return Verdict(True)


# ---------------------------------------------------------------------------
# First-order schematic validity

def fo_scheme_valid(fm: FoModel, scheme: Formula, hole: str, budget=None,
                    max_pairs: int = FO_PAIRS_LIMIT) -> Verdict:
    """Validity of a closed first-order scheme for every interpretation of
    ``hole``, a unary flexible predicate enumerated over all subsets of
    domain x worlds (the full domain, not just local inhabitants).

    Other predicates and constants take their interpretation from fm.  The
    witness is the least failing world, then the least interpretation in
    element-major bitmask order."""
    if free_vars(scheme):
        raise ValueError(f"scheme must be closed, free: {free_vars(scheme)}")
    bud = _as_budget(budget)
    worlds, domain = fm.worlds, fm.domain
    bits = len(domain) * len(worlds)
    if bits > max_pairs:
        raise ResourceLimit(
            f"interpretation enumeration needs |domain|*|worlds| = {bits} "
            f"bits (limit {max_pairs})")
    ctx = _Ctx(fm)
    ctx.flex[hole] = {w: set() for w in worlds}
    ctx.flex_arity[hole] = 1
    fn = _compile(scheme, ctx)
    for w in worlds:
        for mask in range(1 << bits):
            ctx.flex[hole] = _extension(domain, worlds, mask)
            bud.charge()
            if not fn(w):
                return Verdict(False, world=w,
                               interpretation=_pairs(domain, worlds, mask))
    return Verdict(True)


# ---------------------------------------------------------------------------
# The quantifier/Box exchange and its four readings

def BF_LHS(hole: str = "P") -> Formula:
    return Forall("x", Box(PredAtom(hole, (BoundVar("x"),))))


def BF_RHS(hole: str = "P") -> Formula:
    return Box(Forall("x", PredAtom(hole, (BoundVar("x"),))))


@dataclass(frozen=True)
class BfReadings:
    """The four formal readings of the Barcan exchange on one model, each
    quantifying over every interpretation of the hole:

    - pointwise: both sides take the same truth value at every world;
    - meta_iff: validity of one side is equivalent to validity of the other;
    - meta_implies: validity of the left side implies validity of the right;
    - object_implies: the implication formula itself is valid.

    ``object_witness`` refutes object_implies (least world, then least
    interpretation mask) when that reading fails.
    """

    pointwise: bool
    meta_iff: bool
    meta_implies: bool
    object_implies: bool
    object_witness: tuple[tuple[tuple[str, str], ...], str] | None = None

    def to_dict(self) -> dict:
        out = {
            "pointwise": self.pointwise,
            "meta_iff": self.meta_iff,
            "meta_implies": self.meta_implies,
            "object_implies": self.object_implies,
        }
        if self.object_witness is not None:
            interp, w = self.object_witness
            out["object_witness"] = {
                "interpretation": [list(p) for p in interp], "world": w}
        return out


def bf_readings(fm: FoModel, hole: str = "P", budget=None,
                max_pairs: int = FO_PAIRS_LIMIT) -> BfReadings:
    """Evaluate all four readings of the Barcan exchange on fm."""
    bud = _as_budget(budget)
    worlds, domain = fm.worlds, fm.domain
    bits = len(domain) * len(worlds)
    if bits > max_pairs:
        raise ResourceLimit(
            f"interpretation enumeration needs |domain|*|worlds| = {bits} "
            f"bits (limit {max_pairs})")
    ctx = _Ctx(fm)
    ctx.flex[hole] = {w: set() for w in worlds}
    ctx.flex_arity[hole] = 1
    lhs = _compile(BF_LHS(hole), ctx)
    rhs = _compile(BF_RHS(hole), ctx)
    pointwise = meta_iff = meta_imp = obj = True
    best: tuple[int, int] | None = None
    widx = {w: i for i, w in enumerate(worlds)}
    for mask in range(1 << bits):
        ctx.flex[hole] = _extension(domain, worlds, mask)
        lvalid = rvalid = True
        for w in worlds:
            bud.charge(2)
            lv, rv = lhs(w), rhs(w)
            lvalid = lvalid and lv
            rvalid = rvalid and rv
            if lv != rv:
                pointwise = False
            if lv and not rv:
                obj = False
                key = (widx[w], mask)
                if best is None or key < best:
                    best = key
        if lvalid != rvalid:
            meta_iff = False
        if lvalid and not rvalid:
            meta_imp = False
    witness = None
    if best is not None:
        wi, mask = best
        witness = (_pairs(domain, worlds, mask), worlds[wi])
    return BfReadings(pointwise, meta_iff, meta_imp, obj, witness)
