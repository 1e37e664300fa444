"""Kripke frames and models, their finite-property checks, and the JSON
model file format.

Worlds and domain elements are plain strings; their declaration order is the
package-wide total order used for witness tie-breaking and serialization.
All model types are immutable; evaluation never mutates a model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "Frame", "PropModel", "DomainFrame", "FoModel", "FlexiblePred",
    "RigidPred", "ModelError", "FRAME_PROPERTIES", "frame_property",
    "is_total", "DomainMonotonicity", "domain_monotonicity",
    "model_from_dict", "frame_from_dict", "domain_frame_from_dict",
    "model_to_dict", "load_model", "load_frame", "load_domain_frame",
]


class ModelError(Exception):
    """Raised for an invalid model description; path points at the first
    offending location in the JSON document (e.g. ``$.exists_in.w0[1]``)."""

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


def _subsets(items: Sequence) -> list[frozenset]:
    """Every subset of items, at the index of its mask in the _bits layout:
    adding items[i] to the subsets built so far sets bit i."""
    out = [frozenset()]
    for x in items:
        out += [s | {x} for s in out]
    return out


@lru_cache(maxsize=4096)
def _extension(domain: tuple[str, ...], worlds: tuple[str, ...], mask: int,
               arity: int = 1) -> dict[str, frozenset[tuple[str, ...]]]:
    """World -> extension of a flexible predicate, decoded cell-major: bit
    ci*len(worlds)+wi puts the ci-th arity-tuple over domain (in product
    order) in the extension at worlds[wi].  Memoised, so the returned dict
    is shared and must not be mutated."""
    pairs = _pairs(tuple(product(domain, repeat=arity)), worlds, mask)
    return {w: frozenset(c for c, v in pairs if v == w) for w in worlds}


# ---------------------------------------------------------------------------
# Frames

@dataclass(frozen=True)
class Frame:
    worlds: tuple[str, ...]
    access: frozenset[tuple[str, str]]

    def __init__(self, worlds: Iterable[str],
                 access: Iterable[tuple[str, str]] = ()):
        worlds = tuple(worlds)
        if not worlds:
            raise ValueError("a frame needs at least one world")
        seen = set()
        for w in worlds:
            if not isinstance(w, str) or not w:
                raise ValueError(f"world names must be nonempty strings: {w!r}")
            if w in seen:
                raise ValueError(f"duplicate world {w!r}")
            seen.add(w)
        pairs = frozenset((a, b) for a, b in access)
        for a, b in pairs:
            if a not in seen or b not in seen:
                raise ValueError(f"access edge ({a!r}, {b!r}) leaves the frame")
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "access", pairs)

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

def _norm_valuation(valuation: Mapping[str, Iterable[str]],
                    worlds: tuple[str, ...]) -> dict[str, frozenset[str]]:
    out = {}
    wset = set(worlds)
    for name in valuation:
        if not isinstance(name, str) or not name or not name[0].islower():
            raise ValueError(
                f"valuation keys are PropAtom names (lowercase): {name!r}")
        vs = frozenset(valuation[name])
        bad = vs - wset
        if bad:
            raise ValueError(
                f"valuation of {name!r} mentions unknown world {sorted(bad)[0]!r}")
        out[name] = vs
    return out


@dataclass(frozen=True)
class PropModel:
    frame: Frame
    valuation: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "valuation",
                           _norm_valuation(self.valuation, self.frame.worlds))

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

    def __init__(self, frame: Frame, domain: Iterable[str],
                 exists_in: Mapping[str, Iterable[str]] | None = None):
        domain = tuple(domain)
        seen = set()
        for e in domain:
            if not isinstance(e, str) or not e:
                raise ValueError(f"domain elements must be nonempty strings: {e!r}")
            if e in seen:
                raise ValueError(f"duplicate domain element {e!r}")
            seen.add(e)
        if exists_in is None:
            ex = {w: frozenset(domain) for w in frame.worlds}
        else:
            ex = {}
            for w in frame.worlds:
                if w not in exists_in:
                    raise ValueError(f"exists_in is missing world {w!r}")
                es = frozenset(exists_in[w])
                bad = es - seen
                if bad:
                    raise ValueError(
                        f"exists_in[{w!r}] mentions unknown element {sorted(bad)[0]!r}")
                ex[w] = es
            for w in exists_in:
                if w not in frame.index:
                    raise ValueError(f"exists_in mentions unknown world {w!r}")
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


def _check_tuples(tuples: Iterable[tuple[str, ...]], arity: int,
                  domain: frozenset[str], where: str) -> frozenset[tuple[str, ...]]:
    out = set()
    for tp in tuples:
        tp = tuple(tp)
        if len(tp) != arity:
            raise ValueError(f"{where}: tuple {tp!r} does not have arity {arity}")
        for e in tp:
            if e not in domain:
                raise ValueError(f"{where}: unknown domain element {e!r}")
        out.add(tp)
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
            raise ValueError(f"mode must be 'constant' or 'varying': {self.mode!r}")
        full = frozenset(df.domain)
        if self.mode == "constant":
            for w in df.worlds:
                if df.exists_in[w] != full:
                    raise ValueError(
                        f"constant mode requires exists_in[{w!r}] to be the full domain")
        object.__setattr__(self, "valuation",
                           _norm_valuation(self.valuation, df.worlds))
        flex = {}
        for name, fp in self.flexible_preds.items():
            if fp.arity < 1:
                raise ValueError(f"predicate {name!r}: arity must be >= 1")
            ext = {}
            for w in fp.extension:
                if w not in df.frame.index:
                    raise ValueError(
                        f"predicate {name!r}: unknown world {w!r} in extension")
                ext[w] = _check_tuples(fp.extension[w], fp.arity, full,
                                       f"predicate {name!r} at {w!r}")
            for w in df.worlds:
                ext.setdefault(w, frozenset())
            flex[name] = FlexiblePred(fp.arity, ext)
        rigid = {}
        for name, rp in self.rigid_preds.items():
            if name in flex:
                raise ValueError(f"predicate {name!r} is both flexible and rigid")
            if rp.arity < 1:
                raise ValueError(f"predicate {name!r}: arity must be >= 1")
            rigid[name] = RigidPred(
                rp.arity,
                _check_tuples(rp.extension, rp.arity, full, f"predicate {name!r}"))
        consts = {}
        for name, e in self.rigid_consts.items():
            if e not in full:
                raise ValueError(
                    f"constant {name!r} names unknown domain element {e!r}")
            consts[name] = e
        object.__setattr__(self, "flexible_preds", flex)
        object.__setattr__(self, "rigid_preds", rigid)
        object.__setattr__(self, "rigid_consts", consts)

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
# JSON model format

_TOP_KEYS = ("worlds", "access", "valuation", "domain", "mode", "exists_in",
             "flexible_preds", "rigid_preds", "rigid_consts")
_FO_KEYS = ("domain", "mode", "exists_in", "flexible_preds", "rigid_preds",
            "rigid_consts")


def _want(obj, path: str, kind: type, what: str):
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise ModelError(path, f"expected {what}")
    return obj


def _read_worlds(obj: dict, path_prefix: str = "$") -> tuple[str, ...]:
    if "worlds" not in obj:
        raise ModelError(path_prefix, "missing required key 'worlds'")
    raw = _want(obj["worlds"], f"{path_prefix}.worlds", list, "a list of world names")
    if not raw:
        raise ModelError(f"{path_prefix}.worlds", "at least one world is required")
    seen = set()
    for i, w in enumerate(raw):
        p = f"{path_prefix}.worlds[{i}]"
        if not isinstance(w, str) or not w:
            raise ModelError(p, "world names must be nonempty strings")
        if w in seen:
            raise ModelError(p, f"duplicate world {w!r}")
        seen.add(w)
    return tuple(raw)


def _read_access(obj: dict, worlds: tuple[str, ...],
                 path_prefix: str = "$") -> set[tuple[str, str]]:
    if "access" not in obj:
        raise ModelError(path_prefix, "missing required key 'access'")
    raw = _want(obj["access"], f"{path_prefix}.access", list, "a list of world pairs")
    wset = set(worlds)
    pairs = set()
    for i, item in enumerate(raw):
        p = f"{path_prefix}.access[{i}]"
        item = _want(item, p, list, "a pair [from, to]")
        if len(item) != 2:
            raise ModelError(p, "a pair [from, to]" " has exactly two entries")
        for j, w in enumerate(item):
            if not isinstance(w, str) or w not in wset:
                raise ModelError(f"{p}[{j}]", f"unknown world {w!r}")
        pairs.add((item[0], item[1]))
    return pairs


def _read_world_sets(raw, wset: set[str], path: str,
                     what: str) -> dict[str, frozenset[str]]:
    raw = _want(raw, path, dict, f"an object mapping {what}")
    out = {}
    for name, vals in raw.items():
        p = f"{path}.{name}"
        vals = _want(vals, p, list, "a list of worlds")
        for i, w in enumerate(vals):
            if not isinstance(w, str) or w not in wset:
                raise ModelError(f"{p}[{i}]", f"unknown world {w!r}")
        out[name] = frozenset(vals)
    return out


def frame_from_dict(obj) -> Frame:
    """Read a bare frame: an object with exactly 'worlds' and 'access'."""
    obj = _want(obj, "$", dict, "an object")
    for key in obj:
        if key not in ("worlds", "access"):
            raise ModelError(f"$.{key}", "unknown key in a frame description")
    worlds = _read_worlds(obj)
    return Frame(worlds, _read_access(obj, worlds))


def domain_frame_from_dict(obj) -> DomainFrame:
    """Read a domained frame: 'worlds', 'access', 'domain' and optionally
    'exists_in' (omitted means every world carries the full domain)."""
    obj = _want(obj, "$", dict, "an object")
    for key in obj:
        if key not in ("worlds", "access", "domain", "exists_in"):
            raise ModelError(f"$.{key}", "unknown key in a domain-frame description")
    worlds = _read_worlds(obj)
    frame = Frame(worlds, _read_access(obj, worlds))
    domain = _read_domain(obj)
    exists_in = _read_exists_in(obj, worlds, domain) if "exists_in" in obj else None
    return DomainFrame(frame, domain, exists_in)


def _read_domain(obj: dict) -> tuple[str, ...]:
    raw = _want(obj["domain"], "$.domain", list, "a list of element names")
    seen = set()
    for i, e in enumerate(raw):
        p = f"$.domain[{i}]"
        if not isinstance(e, str) or not e:
            raise ModelError(p, "domain elements must be nonempty strings")
        if e in seen:
            raise ModelError(p, f"duplicate element {e!r}")
        seen.add(e)
    return tuple(raw)


def _read_exists_in(obj: dict, worlds: tuple[str, ...],
                    domain: tuple[str, ...]) -> dict[str, frozenset[str]]:
    raw = _want(obj["exists_in"], "$.exists_in", dict,
                "an object mapping worlds to element lists")
    wset, eset = set(worlds), set(domain)
    out = {}
    for w, vals in raw.items():
        p = f"$.exists_in.{w}"
        if w not in wset:
            raise ModelError(p, f"unknown world {w!r}")
        vals = _want(vals, p, list, "a list of elements")
        for i, e in enumerate(vals):
            if not isinstance(e, str) or e not in eset:
                raise ModelError(f"{p}[{i}]", f"unknown element {e!r}")
        out[w] = frozenset(vals)
    for w in worlds:
        if w not in out:
            raise ModelError("$.exists_in", f"missing entry for world {w!r}")
    return out


def model_from_dict(obj) -> PropModel | FoModel:
    """Read a model description; returns a PropModel when no 'domain' key is
    present and an FoModel otherwise.  Raises ModelError at the first
    violation, identified by JSON path."""
    obj = _want(obj, "$", dict, "an object")
    for key in obj:
        if key not in _TOP_KEYS:
            raise ModelError(f"$.{key}", "unknown key in a model description")
    worlds = _read_worlds(obj)
    wset = set(worlds)
    frame = Frame(worlds, _read_access(obj, worlds))

    valuation: dict[str, frozenset[str]] = {}
    if "valuation" in obj:
        valuation = _read_world_sets(obj["valuation"], wset, "$.valuation",
                                     "atom names to world lists")
        for name in valuation:
            if not name or not name[0].islower():
                raise ModelError(f"$.valuation.{name}",
                                 "atom names start lowercase")

    if "domain" not in obj:
        for key in _FO_KEYS:
            if key in obj:
                raise ModelError(f"$.{key}", "requires a 'domain' key")
        return PropModel(frame, valuation)

    domain = _read_domain(obj)
    eset = set(domain)

    mode = "constant"
    if "mode" in obj:
        mode = obj["mode"]
        if mode not in ("constant", "varying"):
            raise ModelError("$.mode", "must be 'constant' or 'varying'")

    if "exists_in" in obj:
        exists_in = _read_exists_in(obj, worlds, domain)
        if mode == "constant":
            for w in worlds:
                if exists_in[w] != eset:
                    raise ModelError(f"$.exists_in.{w}",
                                     "constant mode requires the full domain")
    else:
        exists_in = {w: frozenset(domain) for w in worlds}
    dframe = DomainFrame(frame, domain, exists_in)

    flex: dict[str, FlexiblePred] = {}
    if "flexible_preds" in obj:
        raw = _want(obj["flexible_preds"], "$.flexible_preds", dict,
                    "an object mapping predicate names to declarations")
        for name, decl in raw.items():
            p = f"$.flexible_preds.{name}"
            arity = _read_pred_decl(decl, p)
            ext_raw = _want(decl["extension"], f"{p}.extension", dict,
                            "an object mapping worlds to tuple lists")
            ext: dict[str, frozenset[tuple[str, ...]]] = {}
            for w, tuples in ext_raw.items():
                pw = f"{p}.extension.{w}"
                if w not in wset:
                    raise ModelError(pw, f"unknown world {w!r}")
                ext[w] = _read_tuples(tuples, arity, eset, pw)
            flex[name] = FlexiblePred(arity, ext)

    rigid: dict[str, RigidPred] = {}
    if "rigid_preds" in obj:
        raw = _want(obj["rigid_preds"], "$.rigid_preds", dict,
                    "an object mapping predicate names to declarations")
        for name, decl in raw.items():
            p = f"$.rigid_preds.{name}"
            if name in flex:
                raise ModelError(p, "predicate is also declared flexible")
            arity = _read_pred_decl(decl, p)
            rigid[name] = RigidPred(
                arity, _read_tuples(decl["extension"], arity, eset,
                                    f"{p}.extension"))

    consts: dict[str, str] = {}
    if "rigid_consts" in obj:
        raw = _want(obj["rigid_consts"], "$.rigid_consts", dict,
                    "an object mapping constant names to elements")
        for name, e in raw.items():
            p = f"$.rigid_consts.{name}"
            if not isinstance(e, str) or e not in eset:
                raise ModelError(p, f"unknown domain element {e!r}")
            consts[name] = e

    return FoModel(dframe, mode, valuation, flex, rigid, consts)


def _read_pred_decl(decl, path: str) -> int:
    decl = _want(decl, path, dict, "an object with 'arity' and 'extension'")
    for key in decl:
        if key not in ("arity", "extension"):
            raise ModelError(f"{path}.{key}", "unknown key in a predicate declaration")
    if "arity" not in decl:
        raise ModelError(path, "missing required key 'arity'")
    if "extension" not in decl:
        raise ModelError(path, "missing required key 'extension'")
    arity = decl["arity"]
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
        raise ModelError(f"{path}.arity", "arity must be a positive integer")
    return arity


def _read_tuples(raw, arity: int, eset: set[str],
                 path: str) -> frozenset[tuple[str, ...]]:
    raw = _want(raw, path, list, "a list of element tuples")
    out = set()
    for i, tp in enumerate(raw):
        p = f"{path}[{i}]"
        tp = _want(tp, p, list, "an element tuple")
        if len(tp) != arity:
            raise ModelError(p, f"expected a tuple of arity {arity}")
        for j, e in enumerate(tp):
            if not isinstance(e, str) or e not in eset:
                raise ModelError(f"{p}[{j}]", f"unknown element {e!r}")
        out.add(tuple(tp))
    return frozenset(out)


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
    except json.JSONDecodeError as exc:
        raise ModelError("$", f"invalid JSON: {exc}") from exc


def load_model(path: str) -> PropModel | FoModel:
    return model_from_dict(_load(path))


def load_frame(path: str) -> Frame:
    return frame_from_dict(_load(path))


def load_domain_frame(path: str) -> DomainFrame:
    return domain_frame_from_dict(_load(path))
