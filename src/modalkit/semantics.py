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
from functools import lru_cache, reduce
from itertools import product
from operator import and_, or_
from typing import Iterable, Mapping, Sequence

from .formula import (
    And, Box, BoundVar, Dia, Eq, Exists, Forall, Formula, Iff, Imp, Not, Or,
    PredAtom, PropAtom, SchemeVar, StrictImp,
    free_vars, is_propositional, prop_atoms, scheme_vars,
)
from .model import (FlexiblePred, FoModel, Frame, PropModel, _bits,
                    _extension, _pairs)

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

    ``frontier`` says how far a search got: the stage in progress at a
    budget trip or a check too wide to enumerate, or the last stage searched
    when a first-order stage is refused for its width (FO_SEARCH_BITS)."""

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
    """Meters evaluator work: a check charges its full size, formulas x
    instances x worlds, once per model it is run on, and a search charges
    it once per candidate that reaches the check, up to and including the
    hit candidate.  The default limit comes from MODALKIT_BUDGET or 10**8;
    a MODALKIT_BUDGET that is not a positive integer raises ValueError."""

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


def _blocks(bits: int, span: int | None = None, start: int = 0):
    """Yield (first instance, all-ones int, cols) for each block of the
    2**span instances from start (all 2**bits by default), ascending;
    cols[b] is instance bit b over the block, a cached column for the low
    bits and constant for the block's own."""
    span = bits if span is None else span
    width = min(span, _BLOCK_BITS)
    full = (1 << (1 << width)) - 1
    low = _columns(width) if width else ()
    for first in range(start, start + (1 << span), 1 << width):
        yield first, full, low + tuple(
            full if first >> j & 1 else 0 for j in range(width, bits))


def _truth(m: PropModel | FoModel, f: Formula, leaves: Mapping, full: int,
           preds: Mapping[str, int] | None = None) -> Sequence[int]:
    """Truth sets of f over one block: entry wi has bit i set iff f holds
    at worlds[wi] under the block's instance i.  ``leaves`` maps each
    instantiated symbol to its per-world columns: metavariables and atoms by
    name, the cells of each predicate in ``preds`` (name -> arity) by
    (name, element tuple), and under ``Exists`` the per-world existence
    columns of each element of m.domain (by default, m.domain_at's).
    Edge columns under ``Box`` ([i][j]: where worlds[i] sees worlds[j])
    replace m.frame's.  Structural errors raise what evaluate raises."""
    worlds, succ, edges = m.worlds, m.frame.succ, leaves.get(Box)
    ones, zeros = [full] * len(worlds), [0] * len(worlds)
    preds = preds or {}
    fo = isinstance(m, FoModel)
    if fo:
        # an empty domain still visits each quantifier body once, so its
        # structural errors are raised as for any other model
        elems = m.domain or (None,)
        ex = leaves.get(Exists) or [[full if e in m.domain_at(w) else 0
                                     for w in worlds] for e in elems]

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
            return imp if isinstance(g, Imp) else _meet(imp, succ, full,
                                                        edges)
        if isinstance(g, Box):
            return _meet(go(g.body, env), succ, full, edges)
        if isinstance(g, Dia):
            nots = [full ^ a for a in go(g.body, env)]
            return [full ^ a for a in _meet(nots, succ, full, edges)]
        if not fo:
            raise NotPropositional(
                f"{type(g).__name__} needs a first-order model, got a PropModel")
        if isinstance(g, PredAtom):
            vals = tuple(_resolve(m, a, env) for a in g.args)
            sliced = g.name in preds
            if sliced:
                arity = preds[g.name]
            else:
                pred = (m.flexible_preds.get(g.name)
                        or m.rigid_preds.get(g.name))
                if pred is None:
                    raise UnknownSymbol(f"unknown predicate {g.name!r}")
                arity = pred.arity
            if arity != len(vals):
                raise ArityMismatch(
                    f"predicate {g.name!r} has arity {arity}, got {len(vals)}")
            if sliced:
                # no cell for the empty domain's stand-in element None
                return leaves.get((g.name, vals), zeros)
            if g.name in m.flexible_preds:
                return [full if vals in pred.extension[w] else 0
                        for w in worlds]
            return ones if vals in pred.extension else zeros
        if isinstance(g, Eq):
            same = _resolve(m, g.lhs, env) == _resolve(m, g.rhs, env)
            return ones if same else zeros
        if isinstance(g, (Forall, Exists)):
            every = isinstance(g, Forall)
            out = ones if every else zeros
            for e, x in zip(elems, ex):     # x: where e exists
                b = go(g.body, {**env, g.var: e})
                out = ([o & (a | full ^ c) for o, a, c in zip(out, b, x)]
                       if every else [o | a & c for o, a, c in zip(out, b, x)])
            return out
        raise TypeError(f"not a Formula: {g!r}")

    return go(f, {})


def _meet(sets: Sequence[int], succ: Sequence[Sequence[int]], full: int,
          edges: Sequence[Sequence[int]] | None = None) -> list[int]:
    """Per world i, the instances where sets holds at every successor:
    full ^ OR_j (edges[i][j] & ~sets[j]), or the AND over succ[i]."""
    if edges is not None:
        nots = [full ^ x for x in sets]
        return [full ^ reduce(or_, map(and_, row, nots), 0) for row in edges]
    out = []
    for s in succ:
        x = full
        for j in s:
            x &= sets[j]
        out.append(x)
    return out


def _least(m, f: Formula, bits: int, leaves, preds=None, span=None,
           start: int = 0) -> tuple[int, int] | None:
    """(world index, instance) of the first failure of f in world-major
    scan order over the 2**span instances from start (all 2**bits by
    default; instances counted from start), or None when every instance
    holds everywhere.  ``leaves(cols)`` builds the _truth leaves of a block
    from its instance-bit columns."""
    n, best = len(m.worlds), None
    for first, full, cols in _blocks(bits, span, start):
        sets = _truth(m, f, leaves(cols), full, preds)
        for wi in range(n if best is None else best[0]):
            miss = full ^ sets[wi]
            if miss:
                best = (wi, first - start + (miss & -miss).bit_length() - 1)
                break
        if best is not None and best[0] == 0:
            break
    return best


def _meta_groups(psets, csets, full: int, base: int, any_):
    """The meta reading over the groups of a block, one from each bit of
    base: (the groups where it holds, per world each failing group's witness
    bit).  any_(x) marks the groups where x has a bit set."""
    reach = reduce(and_, (x for sets in psets for x in sets), full)
    fail = reach & ~reduce(and_, csets, full)
    t = any_(fail)
    y = fail & t * (full // base)
    low = y & ~(y - t)      # each failing group's least failure
    hits, seen = [], 0
    for x in csets:
        hits.append(low & ~x & ~seen)
        seen |= hits[-1]
    return base & ~t, hits


def _meta(m, premises: Sequence[Formula], conclusion: Formula, bits: int,
          leaves, preds=None, span=None, start: int = 0
          ) -> tuple[int, int] | None:
    """(least failing world of the conclusion, instance) at the least
    instance, over the same range as _least, where every premise holds at
    every world and the conclusion does not, or None."""
    for first, full, cols in _blocks(bits, span, start):
        lv = leaves(cols)
        holds, hits = _meta_groups(
            [_truth(m, p, lv, full, preds) for p in premises],
            _truth(m, conclusion, lv, full, preds), full, 1, bool)
        if not holds:
            wi, h = next((wi, h) for wi, h in enumerate(hits) if h)
            return wi, first - start + h.bit_length() - 1
    return None


# ---------------------------------------------------------------------------
# Instance spaces
#
# Every space a scan enumerates is one layout of named fields over the bits
# of an instance number: a scheme's metavariables are arity-0 fields, a
# first-order hole is one unary predicate field, and a search's candidate
# models are their valuation, predicate and existence fields.
#
# A search labels many candidate models at once: the candidate's own choices
# (existence map, predicate cells, valuation) are columns above a check's
# instance bits, so an instance is numbered candidate << g | instance.  When
# a check's instances leave room, a block holds several candidates, each a
# group of 2**g bits, and per-candidate verdicts are reductions over the
# groups.  A candidate whose instances fill a block is scanned alone, by the
# same _least and _meta scans as a single model.  Each candidate that
# reaches a check is charged its full size, formulas x 2**(instance bits) x
# worlds: a popcount times a constant, whatever the block width.

@lru_cache(maxsize=1024)
def _fields(n: int, d: int, preds: tuple[tuple[str, int], ...],
            atoms: tuple[str, ...], varying: bool = False) -> tuple:
    """(name, arity, offset, width) of each field of an instance number on
    n worlds and d elements, least significant first, so that instances
    ascend in scan order: the arity-0 masks (atoms, the first highest), the
    masks of the (name, arity) preds (sorted, the first highest; cell-major,
    as decoded by model._extension) and, when varying, the existence mask
    (name None; world-major, bit wi*d+ei puts element ei at world wi).
    Memoised, as are the leaves, since checks rebuild the same few layouts
    over and over."""
    parts = [(a, 0) for a in reversed(atoms)]
    parts += sorted(preds, reverse=True)
    out, off = [], 0
    for name, arity in parts + [(None, 1)] * varying:
        out.append((name, arity, off, d ** arity * n))
        off += d ** arity * n
    return tuple(out)


@lru_cache(maxsize=1024)
def _leaves(fields, domain: tuple, n: int):
    """The _truth leaves of the fields from the columns of their bits:
    arity-0 fields by name, predicate cells by (name, element tuple), and
    the existence field under Exists, one column list per element."""
    d = len(domain)
    cells = [((name, cell) if arity else name, off + ci * n)
             for name, arity, off, _ in fields if name is not None
             for ci, cell in enumerate(product(domain, repeat=arity))]
    ex = [off for name, _, off, _ in fields if name is None]

    def leaves(cols):
        out = {key: cols[lo:lo + n] for key, lo in cells}
        for off in ex:
            out[Exists] = [cols[off + ei:off + d * n:d] for ei in range(d)]
        return out
    return leaves


def _decode(fields, domain: tuple, worlds: tuple, i: int):
    """What instance number i gives the fields, most significant first:
    (arity-0 name -> worlds where it holds, predicate -> FlexiblePred, world
    -> elements existing there, or None without an existence field)."""
    val, flex, exists = {}, {}, None
    for name, arity, off, width in reversed(fields):
        mask = i >> off & ((1 << width) - 1)
        if name is None:
            pairs = _pairs(worlds, domain, mask)
            exists = {w: [e for v, e in pairs if v == w] for w in worlds}
        elif arity:
            flex[name] = FlexiblePred(arity, _extension(domain, worlds, mask,
                                                        arity))
        else:
            val[name] = _bits(worlds, mask)
    return val, flex, exists


def _edges(n: int, frames: Sequence[int], w: int) -> list[list[int]]:
    """Edge columns over slots k, bits k << w to (k + 1) << w, on n-world
    frames[k]: [i][j] covers the slots whose mask has bit i*n+j.  One frame
    gives constants, -1 (fits any block, as _meet ANDs it inside) or 0."""
    if len(frames) == 1:
        return [[-(frames[0] >> i * n + j & 1) for j in range(n)]
                for i in range(n)]
    ones = (1 << (1 << w)) - 1
    base = ((1 << (len(frames) << w)) - 1) // ones   # each slot's bit 0
    c = min(n * n, 1 << w)     # the mask bits one pass places in a slot
    ys = [sum((m >> e0 & (1 << c) - 1) << (k << w)
              for k, m in enumerate(frames)) for e0 in range(0, n * n, c)]
    cols = [(ys[e // c] >> e % c & base) * ones for e in range(n * n)]
    return [cols[i * n:i * n + n] for i in range(n)]


class _Batch:
    """Candidates c0 .. c0 + 2**cbb - 1 of a space of 2**cb candidates on
    each of ``frames`` (masks) over the base model m: candidate k << cb | c
    is candidate c on frames[k], and ``cand(cols)`` gives its leaves from
    the columns of the candidate bits.  A candidate mask has bit i << g set
    for candidate c0 + i (bit 0 when the batch holds one candidate); each
    frame's slot of 2**(g + cb) bits gives the edge columns, and live drops
    from base the slots past the end of frames.  The checks give (holds,
    witness): the candidates where the check holds, and witness(c) the
    (world index, instance) of candidate bit c's failure."""

    def __init__(self, m, cb: int, c0: int, cbb: int, g: int, cand, preds,
                 frames):
        self.m, self.cb, self.c0, self.cbb, self.g = m, cb, c0, cbb, g
        self.cand, self.preds, self.frames = cand, preds, frames
        _, self.full, self.cols = next(_blocks(g + cb, g + cbb, c0 << g))
        self.ones = (1 << (1 << g)) - 1
        self.base = self.live = self.full // self.ones
        slots = frames[c0 >> cb:(c0 >> cb) + (1 << max(0, cbb - cb))]
        self.edges = {Box: _edges(len(m.worlds), slots, g + cb)}
        if cbb > cb:
            self.live &= (1 << (len(slots) << g + cb)) - 1
        self.leaves = {**cand(self.cols[g:]), **self.edges}

    def number(self, c: int) -> tuple[int, int]:
        """The frame mask and the candidate whose bit is c."""
        k, cand = divmod(self.c0 + ((c.bit_length() - 1) >> self.g),
                         1 << self.cb)
        return self.frames[k], cand

    def _any(self, x: int) -> int:
        """The candidates whose group has a bit set in x."""
        for b in range(self.g):
            x |= x >> (1 << b)
        return x & self.base

    def _sets(self, f: Formula, inst) -> Sequence[int]:
        return _truth(self.m, f, {**inst(self.cols), **self.leaves},
                      self.full, self.preds)

    def _alone(self, scan, ib: int, inst):
        best = scan(ib + self.cb, lambda cols: {
            **inst(cols), **self.cand(cols[ib:]), **self.edges}, self.preds,
            ib, self.c0 << ib)
        return int(best is None), lambda c: best

    def _result(self, holds: int, hits):
        """The check from, per world, each failing candidate's witness
        instance (a group's bits above the check's own repeat them)."""
        ones = self.ones

        def witness(c: int) -> tuple[int, int]:
            return next((wi, (h & c * ones).bit_length() - c.bit_length())
                        for wi, h in enumerate(hits) if h & c * ones)
        return holds, witness

    def least(self, f: Formula, ib: int, inst):
        """World-major validity of f over 2**ib instances (leaves
        inst(cols)), per candidate, with _least's witness."""
        if not self.cbb:
            return self._alone(lambda *a: _least(self.m, f, *a), ib, inst)
        hits, alive = [], self.base
        for x in self._sets(f, inst):
            miss = self.full ^ x
            t = self._any(miss) & alive     # first failing at this world
            alive &= ~t
            y = miss & t * self.ones
            hits.append(y & ~(y - t))
        return self._result(alive, hits)

    def meta(self, premises: Sequence[Formula], conclusion: Formula,
             ib: int, inst):
        """The meta reading over 2**ib instances, per candidate, with
        _meta's witness."""
        if not self.cbb:
            return self._alone(
                lambda *a: _meta(self.m, premises, conclusion, *a), ib, inst)
        return self._result(*_meta_groups(
            [self._sets(p, inst) for p in premises],
            self._sets(conclusion, inst), self.full, self.base, self._any))


def _batches(m, cb: int, ibs: Sequence[int], cand, frames, preds=None):
    """The batches of 2**cb candidates on each of ``frames`` in turn (see
    _Batch), as many to a block as the widest of checks with ``ibs``
    instance bits leaves room for."""
    top = max(ibs, default=0)
    cbb = max(0, min(cb + (len(frames) - 1).bit_length(), _BLOCK_BITS - top))
    for c0 in range(0, len(frames) << cb, 1 << cbb):
        yield _Batch(m, cb, c0, cbb, top if cbb else 0, cand, preds, frames)


# ---------------------------------------------------------------------------
# Validity

def valid(m: PropModel | FoModel, f: Formula, budget=None) -> Verdict:
    """Truth at every world; the witness is the least failing world in
    declaration order."""
    best = _least(m, f, 0, lambda cols: {})
    _as_budget(budget).charge(len(m.worlds))
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
    return _scheme_check(m, scheme_vars(scheme), budget, 1, _least, scheme)


def frame_valid(fr: Frame, scheme: Formula, budget=None) -> Verdict:
    """Validity of a scheme on a bare frame: every atom, schematic or not,
    ranges over all sets of worlds."""
    if not is_propositional(scheme):
        raise NotPropositional("frame_valid needs a propositional scheme")
    m = PropModel(fr, {})
    names = sorted(set(scheme_vars(scheme)) | set(prop_atoms(scheme)))
    return _scheme_check(m, names, budget, 1, _least, scheme)


def _scheme_bits(n: int, k: int) -> int:
    if n * k > SCHEME_BITS_LIMIT:
        raise ResourceLimit(
            f"scheme enumeration needs {n}*{k} = {n * k} bits "
            f"(limit {SCHEME_BITS_LIMIT})")
    return n * k


def _scheme_check(m, names: Sequence[str], budget, k: int, scan,
                  *fs) -> Verdict:
    """The verdict of scan(m, *fs, bits, leaves) over the instantiations of
    the metavariables names, charged to budget as k formulas."""
    bud = _as_budget(budget)
    worlds = m.worlds
    bits = _scheme_bits(len(worlds), len(names))
    fields = _fields(len(worlds), 0, (), tuple(names))
    best = scan(m, *fs, bits, _leaves(fields, (), len(worlds)))
    bud.charge(k * len(worlds) << bits)
    if best is None:
        return Verdict(True)
    return Verdict(False, world=worlds[best[0]],
                   assignment=_decode(fields, (), worlds, best[1])[0])


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
    names = sorted(set().union(*(scheme_vars(p) for p in premises),
                               scheme_vars(conclusion)))
    return _scheme_check(m, names, budget, len(premises) + 1, _meta,
                         premises, conclusion)


# ---------------------------------------------------------------------------
# First-order schematic validity

def _fo_bits(fm: FoModel) -> int:
    bits = len(fm.domain) * len(fm.worlds)
    if bits > FO_PAIRS_LIMIT:
        raise ResourceLimit(
            f"interpretation enumeration needs |domain|*|worlds| = {bits} "
            f"bits (limit {FO_PAIRS_LIMIT})")
    return bits


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
    n, bits = len(worlds), _fo_bits(fm)
    best = _least(fm, scheme, bits, _leaves(
        _fields(n, len(domain), ((hole, 1),), ()), domain, n), {hole: 1})
    bud.charge(n << bits)
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
    leaves = _leaves(_fields(len(worlds), len(domain), ((hole, 1),), ()),
                     domain, len(worlds))
    preds = {hole: 1}
    pointwise = meta_iff = meta_imp = True
    best: tuple[int, int] | None = None
    for first, full, cols in _blocks(bits):
        lv = leaves(cols)
        ls = _truth(fm, lhs, lv, full, preds)
        rs = _truth(fm, rhs, lv, full, preds)
        pointwise = pointwise and ls == rs
        lvalid, rvalid = reduce(and_, ls, full), reduce(and_, rs, full)
        meta_iff = meta_iff and lvalid == rvalid
        meta_imp = meta_imp and not lvalid & ~rvalid
        for wi in range(len(worlds) if best is None else best[0]):
            bad = ls[wi] & ~rs[wi]
            if bad:
                best = (wi, first + (bad & -bad).bit_length() - 1)
                break
    bud.charge(2 * len(worlds) << bits)
    witness = best and (_pairs(domain, worlds, best[1]), worlds[best[0]])
    return BfReadings(pointwise, meta_iff, meta_imp, best is None, witness)
