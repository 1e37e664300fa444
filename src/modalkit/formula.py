"""Deep-embedded syntax for propositional and first-order modal formulas.

Formulas are immutable dataclass trees with structural equality.  Diamond,
disjunction, biconditional and strict implication are primitive nodes, not
abbreviations, so a parsed formula prints back exactly as written.

Atom naming follows the case convention used throughout the package: a bare
lowercase identifier is a fixed propositional atom (``PropAtom``), a bare
uppercase identifier is a schematic metavariable (``SchemeVar``) that
enumeration ops instantiate with arbitrary sets of worlds.

The six structural queries (``prop_atoms`` through ``is_propositional``)
filter one iterative pre-order walk and keep their answer on the formula
asked about, so asking again is a lookup.  ``prop_atoms``, ``scheme_vars``
and ``is_propositional`` share one walk.
"""

from __future__ import annotations

import re
from collections import Counter
from copy import copy
from dataclasses import dataclass
from functools import wraps
from typing import Iterator

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _check_ident(name: str, what: str) -> None:
    if not isinstance(name, str) or not _IDENT_RE.match(name):
        raise ValueError(f"{what} must be an identifier, got {name!r}")


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class BoundVar:
    """A variable occurrence; bound by a quantifier or supplied via an Env."""

    name: str

    def __post_init__(self) -> None:
        _check_ident(self.name, "variable name")


@dataclass(frozen=True)
class RigidConst:
    """A constant naming the same domain element in every world."""

    name: str

    def __post_init__(self) -> None:
        _check_ident(self.name, "constant name")


Term = BoundVar | RigidConst


# ---------------------------------------------------------------------------
# Formulas

def _eq(self, other):
    """Structural equality on an explicit stack, unbounded by recursion."""
    if type(other) is not type(self):
        return NotImplemented
    todo = [(self, other)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b) or not isinstance(a, Formula) and a != b:
            return False
        if isinstance(a, Formula):
            todo += [(getattr(a, k), getattr(b, k)) for k in a.__match_args__]
    return True


def _hash(self) -> int:
    memo = self.__dict__
    if "_hash" not in memo:     # over _walk: each node's class, leaf fields
        memo["_hash"] = hash(tuple(
            (type(g), *(getattr(g, k) for k in g.__match_args__
                        if not isinstance(getattr(g, k), Formula)))
            for g, _ in _walk(self)))
    return memo["_hash"]


def _node(cls):
    """A formula node class: a frozen dataclass with _eq and _hash, whose
    pickle leaves the kept hash out, as str hashes vary by interpreter."""
    cls = dataclass(frozen=True, eq=False)(cls)
    cls.__eq__, cls.__hash__, cls.__getstate__ = _eq, _hash, lambda self: {
        k: v for k, v in self.__dict__.items() if k != "_hash"}
    return cls


@_node
class PropAtom:
    name: str

    def __post_init__(self) -> None:
        _check_ident(self.name, "atom name")
        if not self.name[0].islower():
            raise ValueError(
                f"propositional atom name must start lowercase: {self.name!r}")


@_node
class SchemeVar:
    name: str

    def __post_init__(self) -> None:
        _check_ident(self.name, "scheme variable name")
        if not self.name[0].isupper():
            raise ValueError(
                f"scheme variable name must start uppercase: {self.name!r}")


@_node
class PredAtom:
    """First-order atom; rigid or flexible is decided by the model."""

    name: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        _check_ident(self.name, "predicate name")
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("predicate atoms take at least one argument")
        for a in self.args:
            if not isinstance(a, (BoundVar, RigidConst)):
                raise ValueError(f"predicate argument must be a Term: {a!r}")


@_node
class Eq:
    """Built-in rigid equality between terms."""

    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        for a in (self.lhs, self.rhs):
            if not isinstance(a, (BoundVar, RigidConst)):
                raise ValueError(f"equality applies to Terms: {a!r}")


@_node
class Not:
    body: Formula


@_node
class And:
    lhs: Formula
    rhs: Formula


@_node
class Or:
    lhs: Formula
    rhs: Formula


@_node
class Imp:
    lhs: Formula
    rhs: Formula


@_node
class Iff:
    lhs: Formula
    rhs: Formula


@_node
class Box:
    body: Formula


@_node
class Dia:
    body: Formula


@_node
class StrictImp:
    """Strict implication: no accessible world satisfies lhs without rhs."""

    lhs: Formula
    rhs: Formula


@_node
class Forall:
    var: str
    body: Formula

    def __post_init__(self) -> None:
        _check_ident(self.var, "bound variable name")


@_node
class Exists:
    var: str
    body: Formula

    def __post_init__(self) -> None:
        _check_ident(self.var, "bound variable name")


Formula = (
    PropAtom | SchemeVar | PredAtom | Eq | Not | And | Or | Imp | Iff
    | Box | Dia | StrictImp | Forall | Exists
)

_BINARY = (And, Or, Imp, Iff, StrictImp)
_UNARY = (Not, Box, Dia)
_QUANT = (Forall, Exists)


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas of f (terms are not formulas)."""
    if isinstance(f, _BINARY):
        return (f.lhs, f.rhs)
    if isinstance(f, _UNARY):
        return (f.body,)
    if isinstance(f, _QUANT):
        return (f.body,)
    return ()


# ---------------------------------------------------------------------------
# Structural queries

def _terms(f: Formula) -> tuple[Term, ...]:
    """The terms f applies to directly (a PredAtom's or Eq's arguments)."""
    if isinstance(f, PredAtom):
        return f.args
    if isinstance(f, Eq):
        return (f.lhs, f.rhs)
    return ()


def _walk(f: Formula) -> Iterator[tuple[Formula, Counter[str]]]:
    """Every node of f in pre-order, with the multiset of names bound there.

    Iterative, so depth is bounded by memory rather than the recursion
    limit.  The multiset is updated in place as the walk leaves a
    quantifier's scope: read it before drawing the next node."""
    bound: Counter[str] = Counter()
    stack: list[Formula | str] = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):          # the end of quantifier g's scope
            bound[g] -= 1
            continue
        yield g, bound
        if isinstance(g, _QUANT):
            bound[g.var] += 1
            stack.append(g.var)
        stack.extend(reversed(children(g)))


def _memo(query):
    """Keep query(f) in f's instance __dict__, as functools.cached_property
    does (frozen nodes compare and hash by their fields alone), and give
    every caller its own copy of a list or dict answer.  A query that
    raises stores nothing and raises again when asked again."""
    key = "_" + query.__name__

    @wraps(query)
    def cached(f: Formula):
        memo = f.__dict__
        if key not in memo:
            memo[key] = query(f)
        return copy(memo[key])
    return cached


@_memo
def _names(f: Formula) -> tuple[tuple[str, ...], tuple[str, ...], bool]:
    """prop_atoms, scheme_vars and is_propositional of f, from one walk."""
    nodes = [g for g, _ in _walk(f)]
    return (tuple(sorted({g.name for g in nodes if isinstance(g, PropAtom)})),
            tuple(sorted({g.name for g in nodes if isinstance(g, SchemeVar)})),
            not any(isinstance(g, (PredAtom, Eq) + _QUANT) for g in nodes))


def prop_atoms(f: Formula) -> list[str]:
    """Sorted names of the PropAtoms occurring in f."""
    return list(_names(f)[0])


def scheme_vars(f: Formula) -> list[str]:
    """Sorted names of the SchemeVars occurring in f."""
    return list(_names(f)[1])


@_memo
def pred_symbols(f: Formula) -> dict[str, int]:
    """Predicate names used in f mapped to their arity.

    Raises ValueError if one name is used at two different arities.
    """
    out: dict[str, int] = {}
    for g, _ in _walk(f):
        if isinstance(g, PredAtom):
            seen = out.setdefault(g.name, len(g.args))
            if seen != len(g.args):
                raise ValueError(
                    f"predicate {g.name!r} used at arities {seen} and {len(g.args)}")
    return dict(sorted(out.items()))


@_memo
def const_names(f: Formula) -> list[str]:
    """Sorted names of RigidConst occurrences in f."""
    return sorted({t.name for g, _ in _walk(f) for t in _terms(g)
                   if isinstance(t, RigidConst)})


@_memo
def free_vars(f: Formula) -> list[str]:
    """Sorted names of BoundVar occurrences not captured by a quantifier."""
    return sorted({t.name for g, bound in _walk(f) for t in _terms(g)
                   if isinstance(t, BoundVar) and not bound[t.name]})


def is_propositional(f: Formula) -> bool:
    """True when f contains no first-order construct (PredAtom/Eq/quantifier)."""
    return _names(f)[2]


def is_closed(f: Formula) -> bool:
    return not free_vars(f)


def bind_free(f: Formula, names: set[str] | frozenset[str]) -> Formula:
    """Turn free RigidConst occurrences with the given names into BoundVars.

    The concrete syntax cannot distinguish a free variable from a constant, so
    the parser reads unbound term identifiers as constants; callers that want
    to evaluate an open formula under an environment (e.g. the CLI's --env)
    re-bind the environment's names with this helper.  Occurrences shadowed by
    a quantifier of the same name are left alone.
    """

    def fix(t: Term, bound: frozenset[str]) -> Term:
        if isinstance(t, RigidConst) and t.name in names and t.name not in bound:
            return BoundVar(t.name)
        return t

    def go(g: Formula, bound: frozenset[str]) -> Formula:
        if isinstance(g, PredAtom):
            return PredAtom(g.name, tuple(fix(a, bound) for a in g.args))
        if isinstance(g, Eq):
            return Eq(fix(g.lhs, bound), fix(g.rhs, bound))
        if isinstance(g, Forall):
            return Forall(g.var, go(g.body, bound | {g.var}))
        if isinstance(g, Exists):
            return Exists(g.var, go(g.body, bound | {g.var}))
        if isinstance(g, _UNARY):
            return type(g)(go(g.body, bound))
        if isinstance(g, _BINARY):
            return type(g)(go(g.lhs, bound), go(g.rhs, bound))
        return g

    return go(f, frozenset())


# ---------------------------------------------------------------------------
# Concrete syntax, shared by render and the parser

FORMATS = ("ascii", "unicode", "latex")

# Each connective's spelling per format, in FORMATS order, then the aliases
# that only the parser accepts.  The parser reads every spelling but latex.
# The unicode column deliberately keeps the implication family in ASCII.
_SPELLINGS = {
    Not: ("~", "¬", r"\neg"),
    Box: ("[]", "□", r"\Box"),
    Dia: ("<>", "◇", r"\Diamond"),
    And: ("&", "∧", r"\wedge"),
    Or: ("|", "∨", r"\vee"),
    Imp: ("=>", "=>", r"\supset", "⊃", "→"),
    StrictImp: ("|>", "|>", r"\strictif", "⥽"),
    Iff: ("<=>", "<=>", r"\leftrightarrow", "↔"),
    Forall: ("forall", "∀", r"\forall"),
    Exists: ("exists", "∃", r"\exists"),
}

# Binary binding levels, loosest first: the connectives of a level and
# whether a chain of them nests to the right.  Connectives that share a
# level may not be mixed without parentheses.
_LEVELS = (((Iff,), True), ((Imp, StrictImp), True), ((Or,), False),
           ((And,), False))

# Precedence for minimal parenthesisation: a binary connective's level,
# then the unary prefixes, then atoms.  Quantifiers (absent, so -1) are
# below every level: their body extends maximally to the right, so a
# quantified operand needs parentheses exactly when output follows it.
_PREC = {c: i for i, (ops, _) in enumerate(_LEVELS) for c in ops}
_PREC.update(dict.fromkeys(_UNARY, len(_LEVELS)))
_PREC.update(dict.fromkeys((PropAtom, SchemeVar, PredAtom, Eq),
                           len(_LEVELS) + 1))

_TABLES = {fmt: {c: s[i] for c, s in _SPELLINGS.items()}
           for i, fmt in enumerate(FORMATS)}


def _prec(f: Formula) -> int:
    return _PREC.get(type(f), -1)


def render(f: Formula, fmt: str = "unicode") -> str:
    """Concrete syntax for f with minimal parentheses.

    ascii and unicode output parse back to a structurally equal formula;
    latex output is for typesetting only.
    """
    if fmt not in _TABLES:
        raise ValueError(f"unknown render format {fmt!r}; pick one of {FORMATS}")
    return _render(f, _TABLES[fmt], fmt == "latex", True)


def _ident(name: str, latex: bool) -> str:
    return name.replace("_", r"\_") if latex else name


def _render(f: Formula, t: dict[type, str], lx: bool, tail: bool) -> str:
    if isinstance(f, (PropAtom, SchemeVar)):
        return _ident(f.name, lx)
    if isinstance(f, PredAtom):
        args = ", ".join(_ident(a.name, lx) for a in f.args)
        return f"{_ident(f.name, lx)}({args})"
    if isinstance(f, Eq):
        return f"{_ident(f.lhs.name, lx)} = {_ident(f.rhs.name, lx)}"
    if isinstance(f, _UNARY):
        body = _sub(f.body, t, lx, tail, len(_LEVELS))
        if lx:
            sep = " "
        else:
            sep = " " if isinstance(f.body, _QUANT) and not body.startswith("(") else ""
        return t[type(f)] + sep + body
    if isinstance(f, _BINARY):
        # A right-nesting level leaves its right operand bare only for the
        # same connective, since connectives sharing a level may not mix.
        p = _prec(f)
        if _LEVELS[p][1]:
            lhs, same = _sub(f.lhs, t, lx, False, p + 1), type(f)
        else:
            lhs, same = _sub(f.lhs, t, lx, False, p), None
        return f"{lhs} {t[type(f)]} " + _sub(f.rhs, t, lx, tail, p + 1, same)
    if isinstance(f, _QUANT):
        kw = t[type(f)]
        sep = " " if kw[-1].isalpha() else ""
        return f"{kw}{sep}{_ident(f.var, lx)}. {_render(f.body, t, lx, True)}"
    raise TypeError(f"not a Formula: {f!r}")


def _sub(f: Formula, t: dict[type, str], lx: bool, tail: bool, min_prec: int,
         same_ok: type | None = None) -> str:
    p = _prec(f)
    if p < 0:
        parens = not tail
    elif p < min_prec:
        parens = same_ok is None or type(f) is not same_ok
    else:
        parens = False
    if parens:
        return "(" + _render(f, t, lx, True) + ")"
    return _render(f, t, lx, tail)
