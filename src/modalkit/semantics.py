"""Truth, validity and schematic validity over finite Kripke models.

Box quantifies over accessible worlds, Diamond asks for one, and validity is
truth at every world of the model.  Schematic ops (scheme_valid, frame_valid,
fo_scheme_valid) instantiate metavariables extensionally — a SchemeVar ranges
over arbitrary sets of worlds, a first-order predicate hole over arbitrary
subsets of domain x worlds — so "valid for every instance" is a literal
finite enumeration, guarded by budgets.

``evaluate`` is the plain recursive reference implementation.  The checks
compile their formulas into one flat program, which labels each distinct
subformula with its truth set: one int whose bit (wi << w) + i says whether
it holds at world wi under instance i of a block of 2**w, so a connective is
one int op, and Box one shift and mask per world offset.  A report is one
program over its schemes.  The evaluators are property-tested against each
other, and search certificates are re-checked through ``evaluate``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import islice, product
from operator import and_
from struct import pack
from typing import Iterable, Mapping, Sequence
from weakref import ref

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
    return _parse_budget(os.environ.get("MODALKIT_BUDGET"))


@lru_cache(maxsize=16)
def _parse_budget(raw: str | None) -> int:
    """MODALKIT_BUDGET's limit, parsed once per distinct value; a bad value
    raises ValueError, which is not cached, on every call."""
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

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise ResourceLimit(
                f"evaluator budget exhausted ({self.limit} units)")


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
# numbered in its scan order and taken in blocks of 2**w: a single model's
# scan in blocks of at most 2**_BLOCK_BITS, a search's batches in blocks
# that grow to 2**(_BLOCK_BITS + _WIDE_BITS) (see _batches).  A
# subformula's truth set over a block is one int, each world's 2**w bits
# packed in turn: bit (wi << w) + i is set iff it holds at world wi under
# the block's instance i.
#
# The formulas a scan checks (all of a report's schemes, say) compile, by an
# iterative post-order walk that grounds quantifiers over the elements, into
# one program of ops over numbered slots.  Equal ops share a slot (value
# numbering, as in hash-consing): one label per subformula and block.

_BLOCK_BITS = 12
_WIDE_BITS = 4      # how far a search's later batches grow past one block
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


def _blocks(bits: int, span: int | None = None, start: int = 0,
            cap: int | None = None):
    """Yield (first instance, w, cols) for each block of 2**w, w at most
    cap (by default _BLOCK_BITS), of the 2**span instances from start (all
    2**bits by default), ascending; cols[b] is instance bit b over the
    block, a cached column for the low bits and constant for the block's
    own."""
    span = bits if span is None else span
    width = min(span, _BLOCK_BITS if cap is None else cap)
    full = (1 << (1 << width)) - 1
    low = _columns(width) if width else ()
    for first in range(start, start + (1 << span), 1 << width):
        yield first, width, low + tuple(
            full if first >> j & 1 else 0 for j in range(width, bits))


# opcodes: the leaves, then the ops (_BOX: at every successor, _DIA: at
# some) _BUILD makes each node of, by op(code, a, b) over operands' slots
_LEAF, _VAL, _PRED, _CONST, _EXIST = range(5)
_NOT, _AND, _OR, _IMP, _BOX, _DIA = range(5, 11)
_BUILD = {
    Not: lambda op, x: op(_NOT, x),
    Box: lambda op, x: op(_BOX, x),
    Dia: lambda op, x: op(_DIA, x),
    And: lambda op, x, y: op(_AND, x, y),
    Or: lambda op, x, y: op(_OR, x, y),
    Imp: lambda op, x, y: op(_IMP, x, y),
    Iff: lambda op, x, y: op(_AND, op(_IMP, x, y), op(_IMP, y, x)),
    StrictImp: lambda op, x, y: op(_BOX, op(_IMP, x, y)),
    Forall: lambda op, *xs: reduce(partial(op, _AND), [
        op(_OR, x, op(_NOT, op(_EXIST, k))) for k, x in enumerate(xs)]),
    Exists: lambda op, *xs: reduce(partial(op, _OR), [
        op(_AND, x, op(_EXIST, k)) for k, x in enumerate(xs)]),
}
_PROGRAMS: dict = {}    # (formula ids, shape) -> (program, formula refs)


def _program(fs: tuple, names: frozenset, preds: tuple, sig: tuple | None):
    """(ops, output slot of each formula) of fs, ~~x read as x.  ``names``
    are the arity-0 leaves, ``preds`` the sliced (name, arity) predicates,
    and ``sig`` None on a PropModel, else the model's elements, (name,
    arity) predicates and (constant, element) pairs."""
    slot, negated, sliced = {}, {}, dict(preds)     # negated: ~x -> x
    if sig is not None:
        elems, (arities, consts) = sig[0], map(dict, sig[1:])

    def op(code: int, a, b=None) -> int:
        if code == _NOT and a in negated:
            return negated[a]
        s = slot.setdefault((code, a, b), len(slot))
        if code == _NOT:
            negated[s] = a
        return s

    def resolve(t, env: dict) -> str:
        known = env if isinstance(t, BoundVar) else consts
        if t.name not in known:
            raise (UnboundVar(f"unbound variable {t.name!r}") if known is env
                   else UnknownSymbol(f"unknown constant {t.name!r}"))
        return known[t.name]

    def leaf(g, env: dict) -> int:
        if isinstance(g, (PropAtom, SchemeVar)):
            if g.name in names or isinstance(g, PropAtom):
                return op(_LEAF if g.name in names else _VAL, g.name)
            raise UnboundScheme(
                f"scheme variable {g.name!r} has no instantiation")
        if sig is None:
            raise NotPropositional(f"{type(g).__name__} needs a "
                                   "first-order model, got a PropModel")
        if isinstance(g, Eq):
            return op(_CONST, resolve(g.lhs, env) == resolve(g.rhs, env))
        if not isinstance(g, PredAtom):
            raise TypeError(f"not a Formula: {g!r}")
        vals = tuple(resolve(a, env) for a in g.args)
        arity = sliced.get(g.name, arities.get(g.name))
        if arity is None:
            raise UnknownSymbol(f"unknown predicate {g.name!r}")
        if arity != len(vals):
            raise ArityMismatch(
                f"predicate {g.name!r} has arity {arity}, got {len(vals)}")
        return (op(_LEAF, (g.name, vals)) if g.name in sliced  # cell or zeros
                else op(_PRED, g.name, vals))

    outs = []
    for f in fs:
        todo, done = [(f, {})], []      # done: operands not yet used
        while todo:
            g, env = todo.pop()
            t = type(g)
            if t is tuple:      # (builder, operand count)
                done[len(done) - g[1]:] = [g[0](op, *done[len(done) - g[1]:])]
            elif (t is Forall or t is Exists) and sig is not None:
                todo.append(((_BUILD[t], len(elems)), env))
                todo += [(g.body, {**env, g.var: e}) for e in reversed(elems)]
            elif t in _BUILD and t is not Forall and t is not Exists:
                kids = t.__match_args__     # the operands' field names
                todo.append(((_BUILD[t], len(kids)), env))
                todo += [(getattr(g, k), env) for k in reversed(kids)]
            else:       # a leaf, or a quantifier on a PropModel
                done.append(leaf(g, env))
        outs.append(done[0])
    return list(slot), outs


def _compiled(m, fs: Sequence[Formula], leaves: Mapping, preds=None):
    """The program of fs on m over blocks with the keys of ``leaves``, from
    a cache of the 64 last compiled (a search or report uses a few), keyed
    by the formulas' ids; an entry refers to its formulas weakly, so a dead
    one's id, reused, is a miss."""
    fs, sig = tuple(fs), None
    if isinstance(m, FoModel):
        sig = (m.domain or (None,), tuple((k, p.arity) for k, p in (
            *m.rigid_preds.items(), *m.flexible_preds.items())),
            tuple(m.rigid_consts.items()))
    shape = (frozenset(k for k in leaves if type(k) is str),
             tuple(sorted((preds or {}).items())), sig)
    key = (*map(id, fs), shape)
    entry = _PROGRAMS.get(key)
    if entry is not None and all(r() is not None for r in entry[1]):
        return entry[0]
    _PROGRAMS.pop(key, None)    # a dead entry goes; the new one is newest
    entry = _PROGRAMS[key] = _program(fs, *shape), [ref(f) for f in fs]
    if len(_PROGRAMS) > 64:
        del _PROGRAMS[next(iter(_PROGRAMS))]
    return entry[0]


def _run(prog, m: PropModel | FoModel, leaves: Mapping, w: int) -> list[int]:
    """Each formula's truth set over a block of 2**w, from ``leaves``:
    metavariables' and atoms' by name, sliced predicate cells' by (name,
    element tuple), each element's existence set under ``Exists`` (by
    default, m.domain_at's) and the offset masks under ``Box``."""
    ops, outs = prog
    worlds, box, full = m.worlds, leaves[Box], (1 << (1 << w)) - 1
    every, vals = (1 << (len(worlds) << w)) - 1, []
    put = vals.append
    for code, a, b in ops:
        if code == _NOT:
            put(every ^ vals[a])
        elif code == _OR:
            put(vals[a] | vals[b])
        elif code == _AND:
            put(vals[a] & vals[b])
        elif code == _IMP:
            put(every ^ vals[a] | vals[b])
        elif code == _BOX or code == _DIA:      # [] as ~<>~
            x, y = vals[a] if code == _DIA else every ^ vals[a], 0
            for s, mask in box.items():     # x's worlds at each offset
                y |= (x >> s if s >= 0 else x << -s) & mask
            put(y if code == _DIA else every ^ y)
        elif code == _LEAF:
            put(leaves.get(a, 0))
        elif code == _VAL:
            val = m.valuation.get(a, ())
            put(_pack([full if v in val else 0 for v in worlds], w))
        elif code == _PRED:
            p = m.flexible_preds.get(a)
            put(_pack([full if b in p.extension[v] else 0 for v in worlds], w)
                if p else every if b in m.rigid_preds[a].extension else 0)
        elif code == _CONST:
            put(every if a else 0)
        else:   # _EXIST: where the a-th element exists
            e, ex = (m.domain or (None,))[a], leaves.get(Exists)
            put(ex[a] if ex else _pack([full if e in m.domain_at(v) else 0
                                        for v in worlds], w))
    return [vals[s] for s in outs]


def _pack(xs: Sequence[int], w: int) -> int:
    """The truth set whose block of 2**w bits at world wi is xs[wi]."""
    v = 0
    for x in reversed(xs):
        v = v << (1 << w) | x
    return v


def _fold(x: int, n: int, w: int) -> int:
    """The OR of packed x's n world blocks of 2**w bits."""
    s = 1 << w
    while s < n << w:
        x |= x >> s
        s <<= 1
    return x & (1 << (1 << w)) - 1


def _least(m, fs: Sequence[Formula], checks: Sequence, bits: int, leaves,
           preds=None, span=None, start: int = 0) -> list:
    """Per check, the (world index, instance) of its least failure over the
    2**span instances from start (all 2**bits by default; counted from
    start), or None.  A check is the index of a formula of fs, failing
    first in world-major order, or (premise indexes, conclusion index), the
    meta reading: the least instance where the premises hold everywhere and
    the conclusion does not, at its least failing world.  One program labels
    fs per block, with leaves(cols, w) from the block's instance columns
    (_columns' own when one block holds every instance) and m's offset
    masks, built once; each failure is the lowest bit of a truth set's
    misses, the meta reading's at the lowest of its failing instances."""
    n, span = len(m.worlds), bits if span is None else span
    w = min(span, _BLOCK_BITS)
    every, block = (1 << (n << w)) - 1, (1 << (1 << w)) - 1
    box: dict[int, int] = {}    # offset d << w: blocks of worlds i -> i + d
    for i, s in enumerate(m.frame.succ):
        at = block << (i << w)
        for j in s:
            box[j - i << w] = box.get(j - i << w, 0) | at
    blocks = ([(start, w, _columns(w) if w else ())]
              if span == bits <= _BLOCK_BITS else _blocks(bits, span, start))
    best, prog, todo = [None] * len(checks), None, list(range(len(checks)))
    for first, w, cols in blocks:
        lv = {Box: box, **leaves(cols, w)}
        prog = prog or _compiled(m, fs, lv, preds)
        sets = _run(prog, m, lv, w)
        for ci in todo:
            c = checks[ci]
            if type(c) is int:
                miss = every ^ sets[c]
            else:
                miss = every ^ sets[c[1]]
                fail = _fold(miss, n, w) & ~_fold(every ^ reduce(
                    and_, (sets[p] for p in c[0]), every), n, w)
                miss &= _pack([fail & -fail] * n, w)
            if miss:
                wi, i = divmod((miss & -miss).bit_length() - 1, 1 << w)
                if best[ci] is None or wi < best[ci][0]:
                    best[ci] = (wi, first - start + i)
        todo = [ci for ci in todo if best[ci] is None
                or type(checks[ci]) is int and best[ci][0]]
        if not todo:
            break
    return best


def _checked(sets, checks: Sequence, n: int, w: int, base: int, any_
             ) -> list:
    """Each check (as for _least) over a batch's groups in a block of 2**w
    on n worlds, one from each of base's two or more bits: (the groups where
    it holds, least), least(c) the (world index, instance in the group) of
    group bit c's least failure.  any_(x) marks the groups x has bits in."""
    every, out = (1 << (n << w)) - 1, []
    for c in checks:
        if isinstance(c, int):
            miss, fail = every ^ sets[c], None
            bad = _fold(miss, n, w)
        else:
            ok = reduce(and_, (sets[p] for p in c[0]), every)
            miss = every ^ sets[c[1]]
            bad = fail = _fold(miss, n, w) & ~_fold(every ^ ok, n, w)
        out.append((base ^ any_(bad), partial(_failure, miss, fail, n, w,
                                              base)))
    return out


def _failure(miss: int, fail, n: int, w: int, base: int, c: int):
    """_checked's least failure of group bit c: the lowest bit of miss in
    the group, or at the least of the meta reading's failing instances."""
    mask = c * (((1 << (1 << w)) - 1) // base)     # the group
    if fail is not None:    # its least failing instance
        mask = fail & mask & -(fail & mask)
    miss &= _pack([mask] * n, w)
    wi, i = divmod((miss & -miss).bit_length() - 1, 1 << w)
    return wi, i - c.bit_length() + 1


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
# same _least scan as a single model.  Each candidate that
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
    """The _run leaves of the fields from the columns of their bits over
    blocks of 2**w, each packed once: arity-0 fields by name, predicate
    cells by (name, element tuple), and the existence field under Exists,
    one packed set per element."""
    d = len(domain)
    cells = [((name, cell) if arity else name, off + ci * n)
             for name, arity, off, _ in fields if name is not None
             for ci, cell in enumerate(product(domain, repeat=arity))]
    ex = [off for name, _, off, _ in fields if name is None]

    def leaves(cols, w: int):
        out = {key: _pack(cols[lo:lo + n], w) for key, lo in cells}
        for off in ex:
            out[Exists] = [_pack(cols[off + ei:off + d * n:d], w)
                           for ei in range(d)]
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


@lru_cache(maxsize=256)
def _lanes(n: int, s: int, v: int, size: int) -> tuple[int, int]:
    """Over size bits of wide slots of 2**s: each slot's low n bits, and
    each slot's bit 0 in every one of n blocks of 2**v."""
    base, span = 1, 1 << s
    while span < size:      # each slot's bit 0, by doubling
        base |= base << span
        span <<= 1
    base &= (1 << size) - 1
    return base * ((1 << n) - 1), sum(base << (i << v) for i in range(n))


def _edges(n: int, frames: Sequence[int], slot: int, w: int) -> dict:
    """The offset masks over blocks of 2**w of n-world frames[k], each in
    slot k, bits k << slot to (k + 1) << slot (or all) of each world's block:
    cell (i, j) covers bit i*n+j's slots.

    Built diagonally: the frames are packed one to a wide slot of 2**s
    bits, whole bytes that hold a frame, and world i's block takes each
    frame's row i shifted down by i, so cell (i, i + d) sits at bit d of its
    slot in every block, and one shift by d and a mask give offset d's
    mask.  When slots are narrower than that, frames r, r + per, ... are
    packed and placed in turn, one group per offset r in a wide slot, and
    blocks narrower than a wide slot are built at its width.  A frame has
    at most 8 worlds, 64 bits."""
    slot = min(slot, w)
    s = max(slot, 3, (n * n - 1).bit_length())
    v = max(w, s)                       # a block holds a wide slot
    per = 1 << s - slot                 # frames to a wide slot
    nb = 1 << s - 3                     # a wide slot's bytes
    unit = {1: "B", 2: "H", 4: "I"}.get(nb, f"Q{nb - 8}x")
    rows, every = _lanes(n, s, v, -(-len(frames) // per) << s)
    block = (1 << (1 << w)) - 1
    out: dict[int, int] = {}
    for r in range(min(per, len(frames))):
        group = frames[r::per]
        y = int.from_bytes(pack(f"<{unit * len(group)}", *group), "little")
        x = 0
        for i in range(n):
            x |= (y >> i * n & rows) << (i << v) >> i
        for d in range(1 - n, n):
            col = (x >> d if d >= 0 else x << -d) & every
            if v > w:   # back to blocks of 2**w
                col = sum((col >> (i << v) & block) << (i << w)
                          for i in range(n))
            if col:
                out[d << w] = out.get(d << w, 0) | col << (r << slot)
    # fill each slot from its bit 0
    return {k: (col << (1 << slot)) - col for k, col in out.items()}


class _Batch:
    """Candidates c0 .. c0 + 2**cbb - 1 of a space of 2**cb candidates on
    each of ``frames`` (masks) over the base model m: candidate k << cb | c
    is candidate c on frames[k], and ``cand(cols, w)`` gives its leaves
    from the columns of the candidate bits.  A batch is one block of 2**w,
    w = g + cbb, which _batches keeps to at most _BLOCK_BITS + _WIDE_BITS.
    Candidate c0 + i is group i, 2**g bits, of each world's block, its mask
    the group's bit 0 (bit 0 for a batch of one); frames' slots of
    2**(g + cb) bits give the offset masks, and live drops from base the
    slots past the end of frames.  The checks give (holds, witness): the
    candidates where the check holds, and witness(c) the (world index,
    instance) of candidate bit c's failure."""

    def __init__(self, m, cb: int, c0: int, cbb: int, g: int, cand, preds,
                 frames):
        self.m, self.cb, self.c0, self.cbb, self.g = m, cb, c0, cbb, g
        self.cand, self.preds, self.frames = cand, preds, frames
        _, self.w, self.cols = next(_blocks(g + cb, g + cbb, c0 << g,
                                            g + cbb))
        self.n, self.full = len(m.worlds), (1 << (1 << self.w)) - 1
        self.every = (1 << (self.n << self.w)) - 1
        self.base = self.live = self.full // ((1 << (1 << g)) - 1)
        self.top = self.base << (1 << g) - 1    # each group's last bit
        self.slots = frames[c0 >> cb:(c0 >> cb) + (1 << max(0, cbb - cb))]
        self.edges = {Box: _edges(self.n, self.slots, g + cb, self.w)}
        if cbb > cb:
            self.live &= (1 << (len(self.slots) << g + cb)) - 1
        self.leaves = {**cand(self.cols[g:], self.w), **self.edges}

    def number(self, c: int) -> tuple[int, int]:
        """The frame mask and the candidate whose bit is c."""
        k, cand = divmod(self.c0 + ((c.bit_length() - 1) >> self.g),
                         1 << self.cb)
        return self.frames[k], cand

    def _any(self, x: int) -> int:
        """The candidates whose group has a bit set in x."""
        low = self.top - self.base  # x's low bits + these carry into top
        return (((x & low) + low | x) & self.top) >> (1 << self.g) - 1

    def run(self, fs: Sequence[Formula], checks: Sequence, ib: int, inst
            ) -> list:
        """Each check over fs (as for _least) over 2**ib instances with
        leaves inst(cols, w); witness bits above the check's repeat them."""
        if not self.cbb:    # one candidate, over _least's blocks
            box = _edges(self.n, self.slots, ib, min(ib, _BLOCK_BITS))
            bests = _least(self.m, fs, checks, ib + self.cb, lambda cols, w: {
                **inst(cols, w), **self.cand(cols[ib:], w), Box: box},
                self.preds, ib, self.c0 << ib)
            return [(int(b is None), lambda c, b=b: b) for b in bests]
        lv = {**inst(self.cols, self.w), **self.leaves}
        sets = _run(_compiled(self.m, fs, lv, self.preds), self.m, lv, self.w)
        return _checked(sets, checks, self.n, self.w, self.base, self._any)


def _batches(m, cb: int, ibs: Sequence[int], cand, frames, preds=None):
    """The batches of 2**cb candidates on each of the masks ``frames``
    gives, in turn (see _Batch), as many to a block as the widest of checks
    with ``ibs`` instance bits leaves room for; the masks are drawn lazily,
    a piece at a time.  The first piece fills one block of 2**_BLOCK_BITS,
    so an early hit costs no more than that, and each later piece doubles
    the candidates, up to blocks of 2**(_BLOCK_BITS + _WIDE_BITS), so a
    long scan builds and runs few batches.  A check whose instances fill a
    block alone leaves no room, and its candidates go one at a time."""
    top, frames = max(ibs, default=0), iter(frames)
    room = max(0, _BLOCK_BITS - top)    # the candidate bits of a block
    wide = room and _BLOCK_BITS + _WIDE_BITS - top
    while piece := list(islice(frames, 1 << max(0, room - cb))):
        cbb = min(cb + (len(piece) - 1).bit_length(), room)
        for c0 in range(0, len(piece) << cb, 1 << cbb):
            yield _Batch(m, cb, c0, cbb, top if cbb else 0, cand, preds, piece)
        room = min(room + 1, wide)


# ---------------------------------------------------------------------------
# Validity

def _verdict(worlds, best, decode=lambda i: {}) -> Verdict:
    """The verdict of a check whose least failure _least gives as best;
    decode(instance) gives the witness's fields beside its world."""
    return Verdict(True) if best is None else Verdict(
        False, world=worlds[best[0]], **decode(best[1]))


def valid(m: PropModel | FoModel, f: Formula, budget=None) -> Verdict:
    """Truth at every world; the witness is the least failing world in
    declaration order."""
    best, = _least(m, (f,), [0], 0, lambda cols, w: {})
    _as_budget(budget).charge(len(m.worlds))
    return _verdict(m.worlds, best)


def scheme_valid(m: PropModel | FoModel, scheme: Formula,
                 budget=None) -> Verdict:
    """Validity of every instance of a propositional scheme on m.

    SchemeVars are instantiated with all sets of worlds; PropAtoms keep the
    model's valuation.  The witness is the least failing world, then the
    lexicographically least instantiation (metavariables in sorted order,
    world-index bitmasks)."""
    if not is_propositional(scheme):
        raise NotPropositional("scheme_valid needs a propositional scheme")
    return _scheme_check(m, scheme_vars(scheme), budget, (scheme,), 0)


def frame_valid(fr: Frame, scheme: Formula, budget=None) -> Verdict:
    """Validity of a scheme on a bare frame: every atom, schematic or not,
    ranges over all sets of worlds."""
    if not is_propositional(scheme):
        raise NotPropositional("frame_valid needs a propositional scheme")
    m = PropModel(fr, {})
    names = sorted(set(scheme_vars(scheme)) | set(prop_atoms(scheme)))
    return _scheme_check(m, names, budget, (scheme,), 0)


def _scheme_bits(n: int, k: int) -> int:
    if n * k > SCHEME_BITS_LIMIT:
        raise ResourceLimit(
            f"scheme enumeration needs {n}*{k} = {n * k} bits "
            f"(limit {SCHEME_BITS_LIMIT})")
    return n * k


def _scheme_check(m, names: Sequence[str], budget, fs: tuple,
                  check) -> Verdict:
    """The verdict of the check over fs (as for _least) for every
    instantiation of the metavariables names, charged as len(fs) formulas."""
    bud, worlds = _as_budget(budget), m.worlds
    bits = _scheme_bits(len(worlds), len(names))
    fields = _fields(len(worlds), 0, (), tuple(names))
    best, = _least(m, fs, [check], bits, _leaves(fields, (), len(worlds)))
    bud.charge(len(fs) * len(worlds) << bits)
    return _verdict(worlds, best, lambda i: {
        "assignment": _decode(fields, (), worlds, i)[0]})


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
    k = len(premises)
    return _scheme_check(m, names, budget, (*premises, conclusion),
                         (tuple(range(k)), k))


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
    best, = _fo_least(fm, (scheme,), hole, _as_budget(budget))
    return _verdict(fm.worlds, best, lambda i: {
        "interpretation": _pairs(fm.domain, fm.worlds, i)})


def _fo_least(fm: FoModel, fs: tuple, hole: str, bud: Budget) -> list:
    """_least's least failure of each of fs for every interpretation of
    the hole (as for fo_scheme_valid), one program labelling them all, each
    charged in turn."""
    worlds, domain = fm.worlds, fm.domain
    n, bits = len(worlds), _fo_bits(fm)
    bests = _least(fm, fs, range(len(fs)), bits, _leaves(
        _fields(n, len(domain), ((hole, 1),), ()), domain, n), {hole: 1})
    for _ in fs:
        bud.charge(n << bits)
    return bests


# ---------------------------------------------------------------------------
# The quantifier/Box exchange and its four readings

# cached, so the checks that label them reuse one compiled program
@lru_cache(maxsize=None)
def BF_LHS(hole: str = "P") -> Formula:
    return Forall("x", Box(PredAtom(hole, (BoundVar("x"),))))


@lru_cache(maxsize=None)
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
        out = {k: getattr(self, k) for k in (
            "pointwise", "meta_iff", "meta_implies", "object_implies")}
        if self.object_witness is not None:
            interp, w = self.object_witness
            out["object_witness"] = {
                "interpretation": [list(p) for p in interp], "world": w}
        return out


@lru_cache(maxsize=8)
def _exchange(lhs: Formula, rhs: Formula) -> tuple[Formula, ...]:
    """The two sides of the exchange, their implication and biconditional,
    labelled by one program with each side once."""
    return lhs, rhs, Imp(lhs, rhs), Iff(lhs, rhs)


def bf_readings(fm: FoModel, hole: str = "P", budget=None) -> BfReadings:
    """Evaluate all four readings of the Barcan exchange on fm."""
    bud = _as_budget(budget)
    worlds, domain = fm.worlds, fm.domain
    n, bits = len(worlds), _fo_bits(fm)
    leaves = _leaves(_fields(n, len(domain), ((hole, 1),), ()), domain, n)
    # the rule reading both ways, the implication and the biconditional
    rule, back, obj, iff = _least(fm, _exchange(BF_LHS(hole), BF_RHS(hole)),
                                  [((0,), 1), ((1,), 0), 2, 3], bits, leaves,
                                  {hole: 1})
    bud.charge(2 * n << bits)
    witness = obj and (_pairs(domain, worlds, obj[1]), worlds[obj[0]])
    return BfReadings(iff is None, rule is None and back is None,
                      rule is None, obj is None, witness)
