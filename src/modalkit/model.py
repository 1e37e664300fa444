"""Kripke frames and models, their finite-property checks, and the JSON
model file format.

Worlds and domain elements are plain strings; their declaration order is the
package-wide total order used for witness tie-breaking and serialization.
All model types are immutable; evaluation never mutates a model.

The constructors hold every well-formedness rule.  They raise ModelError, a
ValueError, whose path names the offending argument in the layout of the
JSON model format, which mirrors the constructor arguments: ``Frame``
reports ``$.worlds[1]`` or ``$.access[0][1]``, ``FoModel`` reports
``$.flexible_preds.alive.extension.w0[0]``.  They take collections of names
and tuples as lists, tuples or sets.  The JSON readers check only the
document's objects and their keys, then call the constructors, so a loaded
file is checked once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "Frame", "PropModel", "DomainFrame", "FoModel", "FlexiblePred",
    "RigidPred", "ModelError", "FRAME_PROPERTIES", "frame_property",
    "is_total", "DomainMonotonicity", "domain_monotonicity",
    "model_from_dict", "frame_from_dict", "domain_frame_from_dict",
    "model_to_dict", "load_model", "load_frame", "load_domain_frame",
]


class ModelError(ValueError):
    """Raised for an ill-formed model, by the constructors and the JSON
    readers alike; path points at the first offending location in the JSON
    model format (e.g. ``$.exists_in.w0[1]``)."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ---------------------------------------------------------------------------
# Bitmask codec: the one place that turns enumeration masks into worlds,
# elements, cells and edges.  Search certificates carry these masks, so the
# bit layouts are part of the output format.

def _bits(items: Sequence, mask: int) -> tuple:
    """The items whose bit is set in mask: bit i stands for items[i]."""
    return tuple(x for i, x in enumerate(items) if mask >> i & 1)


def _pairs(rows: Sequence, cols: Sequence, mask: int) -> tuple:
    """The (row, col) pairs whose bit is set in mask, row-major: bit
    i*len(cols)+j stands for (rows[i], cols[j])."""
    k = len(cols)
    return tuple((r, c) for i, r in enumerate(rows)
                 for j, c in enumerate(cols) if mask >> (i * k + j) & 1)


def _extension(domain: tuple[str, ...], worlds: tuple[str, ...], mask: int,
               arity: int = 1) -> dict[str, frozenset[tuple[str, ...]]]:
    """World -> extension of a flexible predicate, decoded cell-major: bit
    ci*len(worlds)+wi puts the ci-th arity-tuple over domain (in product
    order) in the extension at worlds[wi]."""
    pairs = _pairs(tuple(product(domain, repeat=arity)), worlds, mask)
    return {w: frozenset(c for c, v in pairs if v == w) for w in worlds}


# ---------------------------------------------------------------------------
# Well-formedness checks shared by the constructors.  Search builds a frame,
# a domain frame and a base model for every frame it scans, so the checks
# those run build a path string only when they fail.

_SEQS = (list, tuple, set, frozenset)


def _want(x, path: str, kinds, what: str):
    """x, if it is an instance of kinds."""
    if not isinstance(x, kinds):
        raise ModelError(path, f"expected {what}")
    return x


def _names(items, path: str, what: str, bad: str,
           dup: str) -> tuple[tuple[str, ...], set[str]]:
    """items as a tuple of nonempty, pairwise distinct strings, and as a
    set."""
    items, seen = tuple(_want(items, path, _SEQS, what)), set()
    for x in items:     # every item before x is in seen: x is items[len(seen)]
        if not isinstance(x, str) or not x:
            raise ModelError(f"{path}[{len(seen)}]", bad)
        if x in seen:
            raise ModelError(f"{path}[{len(seen)}]", f"{dup} {x!r}")
        seen.add(x)
    return items, seen


def _known(items, known, path: str, noun: str):
    """items, if each of them is a name in known."""
    for i, x in enumerate(items):
        if not isinstance(x, str) or x not in known:
            raise ModelError(f"{path}[{i}]", f"unknown {noun} {x!r}")
    return items


def _by_world(mapping: Mapping, index: Mapping, path: str):
    """The items of mapping, if each of its keys is a world of index."""
    for w in mapping:
        if w not in index:
            raise ModelError(f"{path}.{w}", f"unknown world {w!r}")
    return mapping.items()


# ---------------------------------------------------------------------------
# Frames

@dataclass(frozen=True)
class Frame:
    worlds: tuple[str, ...]
    access: frozenset[tuple[str, str]]

    def __init__(self, worlds: Collection[str],
                 access: Collection[tuple[str, str]] = ()):
        worlds, seen = _names(worlds, "$.worlds", "a list of world names",
                              "world names must be nonempty strings",
                              "duplicate world")
        if not worlds:
            raise ModelError("$.worlds", "at least one world is required")
        access = tuple(_want(access, "$.access", _SEQS,
                             "a list of world pairs"))
        for pair in access:
            try:
                match pair:
                    case [a, b] if a in seen and b in seen:
                        continue
            except TypeError:   # an unhashable end, reported below
                pass
            # index finds the first pair equal to this one, which fails too
            p = f"$.access[{access.index(pair)}]"
            if not isinstance(pair, (list, tuple)):
                raise ModelError(p, "expected a pair [from, to]")
            if len(pair) != 2:
                raise ModelError(p, "a pair [from, to] has exactly two entries")
            _known(pair, seen, p, "world")
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "access", frozenset(map(tuple, access)))

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.worlds)}

    def successors(self, w: str) -> tuple[str, ...]:
        return self.successor_map[w]

    @cached_property
    def successor_map(self) -> dict[str, tuple[str, ...]]:
        """world -> its successors in declaration order (cached)."""
        return {
            w: tuple(v for v in self.worlds if (w, v) in self.access)
            for w in self.worlds
        }

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Accessibility as one bitmask per world: bit j of rows[i] is set
        iff worlds[i] can see worlds[j] (cached)."""
        idx = self.index
        out = [0] * len(self.worlds)
        for a, b in self.access:
            out[idx[a]] |= 1 << idx[b]
        return tuple(out)

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        """Per world, the indices of its successors, ascending (cached)."""
        return tuple(tuple(j for j in range(len(self.worlds)) if r >> j & 1)
                     for r in self.rows)


FRAME_PROPERTIES = ("reflexive", "transitive", "symmetric", "serial",
                    "euclidean", "equivalence")


# Row tests: each decides row i of Frame.rows against the rows after it.  A
# frame has a property iff every row passes its tests, so a generator that
# fixes rows from the last down can drop a prefix at its first failing row.

def _symmetric(rows: Sequence[int], i: int) -> bool:
    for j in range(i + 1, len(rows)):
        if (rows[i] >> j ^ rows[j] >> i) & 1:
            return False
    return True


def _transitive(rows: Sequence[int], i: int) -> bool:
    # a world sees everything that the worlds it sees see
    r = rows[i]
    for j, s in enumerate(rows[i + 1:], i + 1):
        if r >> j & 1 and s | r != r or s >> i & 1 and s | r != s:
            return False
    return True


def _euclidean(rows: Sequence[int], i: int) -> bool:
    # the worlds a world sees see everything it sees
    r = rows[i]
    for j, s in enumerate(rows[i + 1:], i + 1):
        if r >> j & 1 and s | r != s or s >> i & 1 and s | r != r:
            return False
    return True


_ROW_TESTS = {"reflexive": (lambda rows, i: rows[i] >> i & 1,),
              "transitive": (_transitive,), "symmetric": (_symmetric,),
              "serial": (lambda rows, i: rows[i] != 0,), "euclidean": (_euclidean,),
              "total": (lambda rows, i: rows[i] == (1 << len(rows)) - 1,)}
_ROW_TESTS["equivalence"] = (*_ROW_TESTS["reflexive"], _symmetric, _transitive)


def _rows_pass(rows: Sequence[int], tests) -> bool:
    for t in tests:
        for i in range(len(rows)):
            if not t(rows, i):
                return False
    return True


def frame_property(fr: Frame, prop: str) -> bool:
    """Decide a named relational property by literal finite check."""
    if prop not in FRAME_PROPERTIES:
        raise ValueError(f"unknown frame property {prop!r}; "
                         f"expected one of {FRAME_PROPERTIES}")
    return _rows_pass(fr.rows, _ROW_TESTS[prop])


def is_total(fr: Frame) -> bool:
    """Every world sees every world (the no-relation reading of necessity)."""
    return _rows_pass(fr.rows, _ROW_TESTS["total"])


# ---------------------------------------------------------------------------
# Propositional models

def _valuation(valuation: Mapping[str, Collection[str]],
               frame: Frame) -> dict[str, frozenset[str]]:
    out = {}
    for name, ws in valuation.items():
        p = f"$.valuation.{name}"
        out[name] = frozenset(_known(_want(ws, p, _SEQS, "a list of worlds"),
                                     frame.index, p, "world"))
        if not isinstance(name, str) or not name or not name[0].islower():
            raise ModelError(p, "atom names start lowercase")
    return out


@dataclass(frozen=True)
class PropModel:
    frame: Frame
    valuation: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "valuation",
                           _valuation(self.valuation, self.frame))

    @property
    def worlds(self) -> tuple[str, ...]:
        return self.frame.worlds


# ---------------------------------------------------------------------------
# Domains

@dataclass(frozen=True)
class DomainFrame:
    frame: Frame
    domain: tuple[str, ...]
    exists_in: Mapping[str, frozenset[str]]

    def __init__(self, frame: Frame, domain: Collection[str],
                 exists_in: Mapping[str, Collection[str]] | None = None):
        domain, eset = _names(domain, "$.domain", "a list of element names",
                              "domain elements must be nonempty strings",
                              "duplicate element")
        if exists_in is None:
            ex = dict.fromkeys(frame.worlds, frozenset(domain))
        else:
            given = {}
            for w, es in _by_world(exists_in, frame.index, "$.exists_in"):
                p = f"$.exists_in.{w}"
                given[w] = frozenset(_known(
                    _want(es, p, _SEQS, "a list of elements"), eset, p,
                    "element"))
            ex = {}
            for w in frame.worlds:
                if w not in given:
                    raise ModelError("$.exists_in",
                                     f"missing entry for world {w!r}")
                ex[w] = given[w]
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "exists_in", ex)

    @property
    def worlds(self) -> tuple[str, ...]:
        return self.frame.worlds


class DomainMonotonicity(NamedTuple):
    constant: bool
    nondecreasing: bool
    nonincreasing: bool


def domain_monotonicity(df: DomainFrame) -> DomainMonotonicity:
    """Edge-wise domain comparison: nondecreasing means every accessibility
    step can only gain inhabitants, nonincreasing means it can only lose
    them, constant means every world carries the full domain."""
    full = frozenset(df.domain)
    constant = all(df.exists_in[w] == full for w in df.worlds)
    nondec = all(df.exists_in[a] <= df.exists_in[b] for a, b in df.frame.access)
    noninc = all(df.exists_in[b] <= df.exists_in[a] for a, b in df.frame.access)
    return DomainMonotonicity(constant, nondec, noninc)


# ---------------------------------------------------------------------------
# First-order models

@dataclass(frozen=True)
class FlexiblePred:
    """World-indexed predicate extension."""

    arity: int
    extension: Mapping[str, frozenset[tuple[str, ...]]]


@dataclass(frozen=True)
class RigidPred:
    """World-independent predicate extension."""

    arity: int
    extension: frozenset[tuple[str, ...]]


def _arity(arity, path: str) -> int:
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
        raise ModelError(f"{path}.arity", "arity must be a positive integer")
    return arity


def _tuples(raw, arity: int, domain: frozenset[str],
            path: str) -> frozenset[tuple[str, ...]]:
    out = set()
    for i, tp in enumerate(_want(raw, path, _SEQS, "a list of element tuples")):
        if not isinstance(tp, (list, tuple)):
            raise ModelError(f"{path}[{i}]", "expected an element tuple")
        if len(tp) != arity:
            raise ModelError(f"{path}[{i}]", f"expected a tuple of arity {arity}")
        out.add(tuple(_known(tp, domain, f"{path}[{i}]", "element")))
    return frozenset(out)


@dataclass(frozen=True)
class FoModel:
    dframe: DomainFrame
    mode: str = "constant"
    valuation: Mapping[str, frozenset[str]] = field(default_factory=dict)
    flexible_preds: Mapping[str, FlexiblePred] = field(default_factory=dict)
    rigid_preds: Mapping[str, RigidPred] = field(default_factory=dict)
    rigid_consts: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        df = self.dframe
        if self.mode not in ("constant", "varying"):
            raise ModelError("$.mode", "must be 'constant' or 'varying'")
        full = frozenset(df.domain)
        if self.mode == "constant":
            for w in df.worlds:
                if df.exists_in[w] != full:
                    raise ModelError(f"$.exists_in.{w}",
                                     "constant mode requires the full domain")
        valuation = _valuation(self.valuation, df.frame)
        flex = {}
        for name, fp in self.flexible_preds.items():
            p = f"$.flexible_preds.{name}"
            arity = _arity(fp.arity, p)
            ext = dict.fromkeys(df.worlds, frozenset())
            for w, tuples in _by_world(fp.extension, df.frame.index,
                                       f"{p}.extension"):
                ext[w] = _tuples(tuples, arity, full, f"{p}.extension.{w}")
            flex[name] = FlexiblePred(arity, ext)
        rigid = {}
        for name, rp in self.rigid_preds.items():
            p = f"$.rigid_preds.{name}"
            if name in flex:
                raise ModelError(p, "predicate is also declared flexible")
            arity = _arity(rp.arity, p)
            rigid[name] = RigidPred(
                arity, _tuples(rp.extension, arity, full, f"{p}.extension"))
        for name, e in self.rigid_consts.items():
            if not isinstance(e, str) or e not in full:
                raise ModelError(f"$.rigid_consts.{name}",
                                 f"unknown domain element {e!r}")
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "flexible_preds", flex)
        object.__setattr__(self, "rigid_preds", rigid)
        object.__setattr__(self, "rigid_consts", dict(self.rigid_consts))

    @property
    def frame(self) -> Frame:
        return self.dframe.frame

    @property
    def worlds(self) -> tuple[str, ...]:
        return self.dframe.worlds

    @property
    def domain(self) -> tuple[str, ...]:
        return self.dframe.domain

    def domain_at(self, w: str) -> frozenset[str]:
        """Inhabitants quantifiers range over at w (the full domain when
        mode is constant)."""
        return self.dframe.exists_in[w]


# ---------------------------------------------------------------------------
# JSON model format: the readers check the document's objects and their
# keys, and leave every other rule to the constructors.

_FRAME_KEYS = ("worlds", "access")
_FO_KEYS = ("domain", "mode", "exists_in", "flexible_preds", "rigid_preds",
            "rigid_consts")


def _object(obj, path: str, what: str, keys: Sequence[str], kind: str,
            required: Sequence[str]) -> dict:
    """obj, if it is a JSON object whose keys are among keys and include
    the required ones."""
    for key in _want(obj, path, dict, what):
        if key not in keys:
            raise ModelError(f"{path}.{key}", f"unknown key in a {kind}")
    for key in required:
        if key not in obj:
            raise ModelError(path, f"missing required key {key!r}")
    return obj


def _mapping(obj: dict, key: str, what: str, default=None):
    """obj[key], if it is a JSON object, or default when key is absent."""
    if key not in obj:
        return default
    return _want(obj[key], f"$.{key}", dict, f"an object mapping {what}")


def frame_from_dict(obj) -> Frame:
    """Read a bare frame: an object with exactly 'worlds' and 'access'."""
    obj = _object(obj, "$", "an object", _FRAME_KEYS, "frame description",
                  _FRAME_KEYS)
    return Frame(obj["worlds"], obj["access"])


def domain_frame_from_dict(obj) -> DomainFrame:
    """Read a domained frame: 'worlds', 'access', 'domain' and optionally
    'exists_in' (omitted means every world carries the full domain)."""
    obj = _object(obj, "$", "an object", (*_FRAME_KEYS, "domain", "exists_in"),
                  "domain-frame description", (*_FRAME_KEYS, "domain"))
    return DomainFrame(Frame(obj["worlds"], obj["access"]), obj["domain"],
                       _mapping(obj, "exists_in", "worlds to element lists"))


def _decl(decl, path: str) -> tuple:
    """The arity and extension of a predicate declaration."""
    keys = ("arity", "extension")
    decl = _object(decl, path, "an object with 'arity' and 'extension'", keys,
                   "predicate declaration", keys)
    return decl["arity"], decl["extension"]


def model_from_dict(obj) -> PropModel | FoModel:
    """Read a model description; returns a PropModel when no 'domain' key is
    present and an FoModel otherwise.  Raises ModelError at the first
    violation, identified by JSON path."""
    obj = _object(obj, "$", "an object", (*_FRAME_KEYS, "valuation", *_FO_KEYS),
                  "model description", _FRAME_KEYS)
    frame = Frame(obj["worlds"], obj["access"])
    valuation = _mapping(obj, "valuation", "atom names to world lists", {})
    if "domain" not in obj:
        for key in _FO_KEYS:
            if key in obj:
                raise ModelError(f"$.{key}", "requires a 'domain' key")
        return PropModel(frame, valuation)
    dframe = DomainFrame(frame, obj["domain"],
                         _mapping(obj, "exists_in", "worlds to element lists"))
    flex = {}
    for name, decl in _mapping(obj, "flexible_preds",
                               "predicate names to declarations", {}).items():
        p = f"$.flexible_preds.{name}"
        arity, ext = _decl(decl, p)
        flex[name] = FlexiblePred(arity, _want(
            ext, f"{p}.extension", dict,
            "an object mapping worlds to tuple lists"))
    rigid = {name: RigidPred(*_decl(decl, f"$.rigid_preds.{name}"))
             for name, decl in _mapping(obj, "rigid_preds",
                                        "predicate names to declarations",
                                        {}).items()}
    consts = _mapping(obj, "rigid_consts", "constant names to elements", {})
    return FoModel(dframe, obj.get("mode", "constant"), valuation, flex,
                   rigid, consts)


# ---------------------------------------------------------------------------
# Serialization (canonical order: declaration order for worlds/elements,
# sorted names elsewhere) — certificates depend on this being deterministic.

def _sorted_worlds(ws: Iterable[str], order: dict[str, int]) -> list[str]:
    return sorted(ws, key=order.__getitem__)


def model_to_dict(m: PropModel | FoModel) -> dict:
    frame = m.frame
    order = frame.index
    out: dict = {
        "worlds": list(frame.worlds),
        "access": sorted([list(p) for p in frame.access],
                         key=lambda p: (order[p[0]], order[p[1]])),
        "valuation": {
            name: _sorted_worlds(ws, order)
            for name, ws in sorted(m.valuation.items())
        },
    }
    if isinstance(m, PropModel):
        return out
    eorder = {e: i for i, e in enumerate(m.domain)}
    out["domain"] = list(m.domain)
    out["mode"] = m.mode
    out["exists_in"] = {
        w: sorted(m.dframe.exists_in[w], key=eorder.__getitem__)
        for w in m.worlds
    }
    if m.flexible_preds:
        out["flexible_preds"] = {
            name: {
                "arity": fp.arity,
                "extension": {
                    w: sorted([list(t) for t in fp.extension[w]],
                              key=lambda t: [eorder[e] for e in t])
                    for w in m.worlds
                },
            }
            for name, fp in sorted(m.flexible_preds.items())
        }
    if m.rigid_preds:
        out["rigid_preds"] = {
            name: {
                "arity": rp.arity,
                "extension": sorted([list(t) for t in rp.extension],
                                    key=lambda t: [eorder[e] for e in t]),
            }
            for name, rp in sorted(m.rigid_preds.items())
        }
    if m.rigid_consts:
        out["rigid_consts"] = dict(sorted(m.rigid_consts.items()))
    return out


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelError("$", f"cannot read {path!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelError("$", f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ModelError("$", "invalid JSON: nested too deeply") from exc


def load_model(path: str) -> PropModel | FoModel:
    return model_from_dict(_load(path))


def load_frame(path: str) -> Frame:
    return frame_from_dict(_load(path))


def load_domain_frame(path: str) -> DomainFrame:
    return domain_frame_from_dict(_load(path))
