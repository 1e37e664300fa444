"""Truth, validity and schematic validity over finite Kripke models.

Box quantifies over accessible worlds, Diamond asks for one, and validity is
truth at every world of the model.  Schematic ops (scheme_valid, frame_valid,
fo_scheme_valid) instantiate metavariables extensionally — a SchemeVar ranges
over arbitrary sets of worlds, a first-order predicate hole over arbitrary
subsets of domain x worlds — so "valid for every instance" is a literal
finite enumeration, guarded by budgets.

``evaluate`` is the plain recursive reference implementation.  The checks
below instead label every subformula with its truth set: per world, one int
whose bit i says whether it holds there under instance i of the scan, so all
instances are evaluated at once.  The two are property-tested against each
other, and search certificates are re-checked through ``evaluate`` before
being reported.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Iterable, Mapping, Sequence

from .formula import (
    And, Box, BoundVar, Dia, Eq, Exists, Forall, Formula, Iff, Imp, Not, Or,
    PredAtom, PropAtom, RigidConst, SchemeVar, StrictImp,
    free_vars, is_propositional, prop_atoms, scheme_vars,
)
from .model import FoModel, Frame, PropModel, _bits, _pairs

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
    """Meters evaluator work: one unit is one formula at one (instance,
    world) pair of a check, counted in its scan order up to and including
    the witness.  The default limit comes from MODALKIT_BUDGET or 10**8; a
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
# Truth sets (internal fast path)
#
# A check's instances (scheme instantiations, hole interpretations) are
# numbered in its scan order, and a subformula's truth set at a world is one
# int whose bit i is set iff it holds there under instance i.  Instances are
# taken in blocks of 2**_BLOCK_BITS, so no int is wider than 4096 bits.

_BLOCK_BITS = 12
_COLUMNS: dict[int, tuple[int, ...]] = {}


def _columns(width: int) -> tuple[int, ...]:
    """Bit b of the instance number over a block of 2**width instances:
    bit i of _columns(width)[b] is bit b of i.  Built by shift-and-OR
    doubling and cached."""
    cols = _COLUMNS.get(width)
    if cols is None:
        out = []
        for b in range(width):
            span = 2 << b
            x = ((1 << (1 << b)) - 1) << (1 << b)
            while span < 1 << width:
                x |= x << span
                span <<= 1
            out.append(x)
        cols = _COLUMNS[width] = tuple(out)
    return cols


def _blocks(bits: int):
    """Yield (first instance, all-ones int, cols) for each block of the
    2**bits instances, ascending; cols[b] is instance bit b over the block,
    a cached column for the low bits and constant for the block's own."""
    width = min(bits, _BLOCK_BITS)
    full = (1 << (1 << width)) - 1
    low = _columns(width) if width else ()
    for blk in range(1 << (bits - width)):
        yield blk << width, full, low + tuple(
            full if blk >> j & 1 else 0 for j in range(bits - width))


def _truth(m: PropModel | FoModel, f: Formula, leaves: Mapping, full: int,
           hole: str | None = None) -> Sequence[int]:
    """Truth sets of f over one block: entry wi has bit i set iff f holds
    at worlds[wi] under the block's instance i.  ``leaves`` maps each
    instantiated symbol to its per-world columns: metavariables and
    schematic atoms by name, cells of the unary predicate ``hole`` by their
    element tuple.  Structural errors raise the exceptions evaluate raises."""
    worlds, rows = m.worlds, m.frame.rows
    succ = [[j for j in range(len(worlds)) if r >> j & 1] for r in rows]
    ones, zeros = [full] * len(worlds), [0] * len(worlds)
    fo = isinstance(m, FoModel)
    if fo:
        # an empty domain still visits each quantifier body once, so its
        # structural errors are raised as for any other model
        elems = m.domain or (None,)
        local = [[ci for ci, e in enumerate(elems) if e in m.domain_at(w)]
                 for w in worlds]

    def go(g: Formula, env: Env) -> Sequence[int]:
        if isinstance(g, (PropAtom, SchemeVar)):
            col = leaves.get(g.name)
            if col is not None:
                return col
            if isinstance(g, SchemeVar):
                raise UnboundScheme(
                    f"scheme variable {g.name!r} has no instantiation")
            val = m.valuation.get(g.name, ())
            return [full if w in val else 0 for w in worlds]
        if isinstance(g, Not):
            return [full ^ a for a in go(g.body, env)]
        if isinstance(g, (And, Or, Imp, Iff, StrictImp)):
            ls, rs = go(g.lhs, env), go(g.rhs, env)
            if isinstance(g, And):
                return [a & b for a, b in zip(ls, rs)]
            if isinstance(g, Or):
                return [a | b for a, b in zip(ls, rs)]
            if isinstance(g, Iff):
                return [full ^ a ^ b for a, b in zip(ls, rs)]
            imp = [(full ^ a) | b for a, b in zip(ls, rs)]
            return imp if isinstance(g, Imp) else _meet(imp, succ, full)
        if isinstance(g, Box):
            return _meet(go(g.body, env), succ, full)
        if isinstance(g, Dia):
            nots = [full ^ a for a in go(g.body, env)]
            return [full ^ a for a in _meet(nots, succ, full)]
        if not fo:
            raise NotPropositional(
                f"{type(g).__name__} needs a first-order model, got a PropModel")
        if isinstance(g, PredAtom):
            vals = tuple(_resolve(m, a, env) for a in g.args)
            if g.name == hole:
                arity = 1
            else:
                pred = (m.flexible_preds.get(g.name)
                        or m.rigid_preds.get(g.name))
                if pred is None:
                    raise UnknownSymbol(f"unknown predicate {g.name!r}")
                arity = pred.arity
            if arity != len(vals):
                raise ArityMismatch(
                    f"predicate {g.name!r} has arity {arity}, got {len(vals)}")
            if g.name == hole:
                return leaves.get(vals, zeros)  # no cell: the None above
            if g.name in m.flexible_preds:
                return [full if vals in pred.extension[w] else 0
                        for w in worlds]
            return ones if vals in pred.extension else zeros
        if isinstance(g, Eq):
            same = _resolve(m, g.lhs, env) == _resolve(m, g.rhs, env)
            return ones if same else zeros
        if isinstance(g, (Forall, Exists)):
            bodies = [go(g.body, {**env, g.var: e}) for e in elems]
            every = isinstance(g, Forall)
            out = []
            for wi, cis in enumerate(local):
                x = full if every else 0
                for ci in cis:
                    x = x & bodies[ci][wi] if every else x | bodies[ci][wi]
                out.append(x)
            return out
        raise TypeError(f"not a Formula: {g!r}")

    return go(f, {})


def _meet(sets: Sequence[int], succ: list[list[int]], full: int) -> list[int]:
    """Per world, the instances where sets holds at every successor."""
    out = []
    for s in succ:
        x = full
        for j in s:
            x &= sets[j]
        out.append(x)
    return out


def _charge(bud: Budget, units: int, step: int = 1) -> None:
    """Charge what a scan charging ``step`` units at a time charges by its
    end, or by the step that crosses the limit, so a trip happens at the
    same point and leaves ``used`` where that scan left it."""
    bud.charge(min(units, step * max(1, (bud.limit - bud.used) // step + 1)))


def _least_failure(m, f: Formula, bits: int, leaves, bud: Budget,
                   hole: str | None = None) -> tuple[int, int] | None:
    """(world index, instance) of the first failure of f in world-major
    scan order over its 2**bits instances, or None when every instance
    holds everywhere; charges one unit per (instance, world) pair that scan
    visits, up to and including the failure.  ``leaves(cols)`` builds the
    _truth leaves of a block from its instance-bit columns."""
    n, best = len(m.worlds), None
    for first, full, cols in _blocks(bits):
        sets = _truth(m, f, leaves(cols), full, hole)
        for wi in range(n if best is None else best[0]):
            miss = full ^ sets[wi]
            if miss:
                best = (wi, first + (miss & -miss).bit_length() - 1)
                break
        if best is not None and best[0] == 0:
            break
    total = 1 << bits
    _charge(bud, n * total if best is None else best[0] * total + best[1] + 1)
    return best


# ---------------------------------------------------------------------------
# Validity

def valid(m: PropModel | FoModel, f: Formula, budget=None) -> Verdict:
    """Truth at every world; the witness is the least failing world in
    declaration order."""
    best = _least_failure(m, f, 0, lambda cols: {}, _as_budget(budget))
    return Verdict(True) if best is None else Verdict(
        False, world=m.worlds[best[0]])


def scheme_valid(m: PropModel | FoModel, scheme: Formula,
                 budget=None) -> Verdict:
    """Validity of every instance of a propositional scheme on m.

    SchemeVars are instantiated with all sets of worlds; PropAtoms keep the
    model's valuation.  The witness is the least failing world, then the
    lexicographically least instantiation (metavariables in sorted order,
    world-index bitmasks)."""
    if not is_propositional(scheme):
        raise NotPropositional("scheme_valid needs a propositional scheme")
    return _scheme_check(m, scheme, scheme_vars(scheme), budget)


def frame_valid(fr: Frame, scheme: Formula, budget=None) -> Verdict:
    """Validity of a scheme on a bare frame: every atom, schematic or not,
    ranges over all sets of worlds."""
    if not is_propositional(scheme):
        raise NotPropositional("frame_valid needs a propositional scheme")
    m = PropModel(fr, {})
    names = sorted(set(scheme_vars(scheme)) | set(prop_atoms(scheme)))
    return _scheme_check(m, scheme, names, budget)


def _scheme_bits(n: int, k: int) -> int:
    if n * k > SCHEME_BITS_LIMIT:
        raise ResourceLimit(
            f"scheme enumeration needs {n}*{k} = {n * k} bits "
            f"(limit {SCHEME_BITS_LIMIT})")
    return n * k


def _scheme_leaves(names: Sequence[str], n: int):
    """names[j] at world wi is instance bit n*(k-1-j) + wi, so instances
    ascend as product(range(2**n), repeat=k) over the names' world masks."""
    k = len(names)
    return lambda cols: {nm: cols[n * (k - 1 - j):n * (k - j)]
                         for j, nm in enumerate(names)}


def _assignment(worlds: Sequence[str], names: Sequence[str], i: int) -> dict:
    n, k = len(worlds), len(names)
    return {nm: _bits(worlds, i >> n * (k - 1 - j) & ((1 << n) - 1))
            for j, nm in enumerate(names)}


def _scheme_check(m, scheme: Formula, names: Sequence[str],
                  budget) -> Verdict:
    bud = _as_budget(budget)
    worlds = m.worlds
    bits = _scheme_bits(len(worlds), len(names))
    best = _least_failure(m, scheme, bits, _scheme_leaves(names, len(worlds)),
                          bud)
    if best is None:
        return Verdict(True)
    return Verdict(False, world=worlds[best[0]],
                   assignment=_assignment(worlds, names, best[1]))


def meta_implies(m: PropModel | FoModel, premises: Sequence[Formula],
                 conclusion: Formula, budget=None) -> Verdict:
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
    n = len(worlds)
    units = 0
    for first, full, cols in _blocks(_scheme_bits(n, len(names))):
        lv = _scheme_leaves(names, n)(cols)
        psets = [_truth(m, p, lv, full) for p in premises]
        csets = _truth(m, conclusion, lv, full)
        # An instance is charged at each world of a premise it reaches while
        # that premise held at every earlier world: pre lists those sets.
        pre, reach = [], full
        for sets in psets:
            for s in sets:
                pre.append(reach)
                reach &= s
        fail = reach & ~reduce(and_, csets, full)
        hit = fail & -fail
        upto = hit * 2 - 1 if hit else full
        units += sum((x & upto).bit_count() for x in pre)
        if not hit:
            units += n * reach.bit_count()
            continue
        wi = next(wi for wi, c in enumerate(csets) if not c & hit)
        _charge(bud, units + n * (reach & (hit - 1)).bit_count() + wi + 1)
        return Verdict(False, world=worlds[wi], assignment=_assignment(
            worlds, names, first + hit.bit_length() - 1))
    _charge(bud, units)
    return Verdict(True)


# ---------------------------------------------------------------------------
# First-order schematic validity

def _fo_bits(fm: FoModel) -> int:
    bits = len(fm.domain) * len(fm.worlds)
    if bits > FO_PAIRS_LIMIT:
        raise ResourceLimit(
            f"interpretation enumeration needs |domain|*|worlds| = {bits} "
            f"bits (limit {FO_PAIRS_LIMIT})")
    return bits


def _cell_leaves(domain: Sequence[str], n: int):
    """Hole cell (e,) at world wi is instance bit ci*n + wi for e =
    domain[ci]: instances are the cell-major masks of model._extension."""
    return lambda cols: {(e,): cols[ci * n:(ci + 1) * n]
                         for ci, e in enumerate(domain)}


def fo_scheme_valid(fm: FoModel, scheme: Formula, hole: str,
                    budget=None) -> Verdict:
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
    best = _least_failure(fm, scheme, _fo_bits(fm),
                          _cell_leaves(domain, len(worlds)), bud, hole)
    if best is None:
        return Verdict(True)
    return Verdict(False, world=worlds[best[0]],
                   interpretation=_pairs(domain, worlds, best[1]))


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


def bf_readings(fm: FoModel, hole: str = "P", budget=None) -> BfReadings:
    """Evaluate all four readings of the Barcan exchange on fm."""
    bud = _as_budget(budget)
    worlds, domain = fm.worlds, fm.domain
    bits = _fo_bits(fm)
    lhs, rhs = BF_LHS(hole), BF_RHS(hole)
    leaves = _cell_leaves(domain, len(worlds))
    pointwise = meta_iff = meta_imp = True
    best: tuple[int, int] | None = None
    for first, full, cols in _blocks(bits):
        lv = leaves(cols)
        ls = _truth(fm, lhs, lv, full, hole)
        rs = _truth(fm, rhs, lv, full, hole)
        pointwise = pointwise and ls == rs
        lvalid, rvalid = reduce(and_, ls, full), reduce(and_, rs, full)
        meta_iff = meta_iff and lvalid == rvalid
        meta_imp = meta_imp and not lvalid & ~rvalid
        for wi in range(len(worlds) if best is None else best[0]):
            bad = ls[wi] & ~rs[wi]
            if bad:
                best = (wi, first + (bad & -bad).bit_length() - 1)
                break
    _charge(bud, 2 * len(worlds) << bits, step=2)
    witness = best and (_pairs(domain, worlds, best[1]), worlds[best[0]])
    return BfReadings(pointwise, meta_iff, meta_imp, best is None, witness)
