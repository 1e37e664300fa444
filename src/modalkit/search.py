"""Bounded countermodel search by exhaustive enumeration of finite models.

Everything here scans a fixed, documented order — world count ascending,
then frame bitmask, then (for quantified models) domain size, existence
mask, predicate-interpretation masks, and valuation masks — and returns the
first hit, so results are reproducible run to run.  Each stage is scanned
in this process in fixed chunks, in order, against the caller's one budget:
a Budget passed to a search or sweep ends with ``used`` raised by the units
the scan charged, and one already partly spent trips that much sooner.
``jobs`` is validated (at least 1) and no longer changes how a scan runs.

Candidate models are not built one at a time: their existence, predicate
and valuation bits are instance columns above each check's own instance
bits, so one truth-set pass labels them all, and a candidate's verdict is
a reduction over its group of bits.  Each check a candidate reaches, up to
and including the hit candidate, charges the budget the check's full size,
formulas x 2**(instance bits) x worlds.  Every scan, the sweeps and the
deduction-gap search (whose candidates are its metavariables'
instantiations) included, shares these batches: a chunk's frames sit above
their candidates, with the edges as columns, and a frame and a model are
built only for a witness or a reported disagreement.
Every search returns through ``_first``, which re-checks what the
witness's certificate reports with the plain reference evaluator, and the
spec's frame constraints with the relational frame tests; a failure there
raises RuntimeError and would mean a bug in the truth-set evaluator or
the frame generator, not in the caller's input.
Malformed specs, and stages too wide to enumerate, are refused before
their first candidate is scanned, so no check raises inside a batch.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations, product
from operator import and_
from typing import Iterable, Iterator

from .formula import (And, Box, Exists, Formula, Imp, SchemeVar, const_names,
                      free_vars, is_propositional, pred_symbols, prop_atoms,
                      render, scheme_vars)
from .correspondence import BF_SCHEME, CBF_SCHEME
from .model import (DomainFrame, FlexiblePred, FoModel, Frame,
                    FRAME_PROPERTIES, PropModel, _ROW_TESTS, _extension,
                    _pairs, frame_property, is_total, model_to_dict)
from .semantics import (BF_LHS, BF_RHS, Budget, ResourceLimit, _as_budget,
                        _batches, _decode, _exchange, _fields, _fo_bits,
                        _leaves, _scheme_bits, bf_readings, evaluate)

__all__ = [
    "SearchSpec", "SearchResult", "CONSTRAINT_NAMES",
    "PROP_WORLD_CEILING", "FO_WORLD_CEILING", "FO_SEARCH_BITS",
    "frame_from_mask", "frame_mask", "enumerate_frames",
    "find_countermodel", "find_fo_countermodel",
    "find_barcan_divergence", "find_deduction_gap",
    "barcan_sweep", "bf_agreement_sweep",
]

# Hard ceilings on the enumeration size a search will accept.
PROP_WORLD_CEILING = 4
FO_WORLD_CEILING = 3
# Refuse a first-order stage whose per-frame enumeration needs more bits
# (existence map + predicate interpretations + valuations) than this.
FO_SEARCH_BITS = 22

CONSTRAINT_NAMES = FRAME_PROPERTIES + ("total", "none")


# ---------------------------------------------------------------------------
# Frame enumeration

def frame_from_mask(n: int, mask: int) -> Frame:
    """The n-world frame w0..w{n-1} whose accessibility bitmask is ``mask``;
    bit i*n+j set means world i sees world j."""
    worlds = tuple(f"w{i}" for i in range(n))
    return Frame(worlds, _pairs(worlds, worlds, mask))


def frame_mask(fr: Frame) -> int:
    """Inverse of frame_from_mask up to world names."""
    return sum(r << (i * len(fr.rows)) for i, r in enumerate(fr.rows))


def _canonical_mask(n: int, mask: int) -> int:
    edges = _pairs(range(n), range(n), mask)
    return min(sum(1 << (perm[i] * n + perm[j]) for i, j in edges)
               for perm in permutations(range(n)))


def _check_constraints(constraints: Iterable[str]) -> frozenset[str]:
    cs = frozenset(constraints)
    bad = cs - set(CONSTRAINT_NAMES)
    if bad:
        raise ValueError(f"unknown frame constraint(s): {sorted(bad)}; "
                         f"known: {list(CONSTRAINT_NAMES)}")
    return cs - {"none"}


def _masks(n: int, masks: range, constraints: frozenset[str] = frozenset()
           ) -> Iterable[int]:
    """The masks of ``masks`` whose n-world frames meet constraints, in
    ascending order: rows are fixed from the last (most significant) down,
    and a prefix is dropped once a row fails or its masks leave ``masks``."""
    tests = {t: None for c in sorted(constraints) for t in _ROW_TESTS[c]}
    if not tests:
        return masks
    rows = [0] * n

    def fix(i: int, prefix: int) -> Iterator[int]:
        s = i * n
        for r in range(max(0, (masks.start - prefix) >> s),
                       min(1 << n, ((masks.stop - 1 - prefix) >> s) + 1)):
            rows[i] = r
            if all(t(rows, i) for t in tests):
                yield from fix(i - 1, prefix | r << s) if i else (prefix | r,)
    return fix(n - 1, 0)


def enumerate_frames(n: int, constraints: Iterable[str] = (),
                     dedup: bool = False) -> Iterator[Frame]:
    """All labelled frames on n worlds in ascending bitmask order, filtered
    by the named constraints.  With ``dedup`` only the least representative
    of each relabelling (isomorphism) class is yielded.  Bad arguments are
    rejected immediately; the frames themselves come lazily."""
    if n < 1:
        raise ValueError("need at least one world")
    masks = _masks(n, range(1 << (n * n)), _check_constraints(constraints))
    return (frame_from_mask(n, m) for m in masks
            if not dedup or _canonical_mask(n, m) == m)


def _domain_names(d: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:d])


# ---------------------------------------------------------------------------
# Search specification and results

@dataclass(frozen=True)
class SearchSpec:
    """What to search for: a model where every premise holds (formulas valid,
    schemes schematically valid) but the conclusion fails under the chosen
    reading.

    reading "object": the conclusion formula/scheme itself must fail.
    reading "meta": the conclusion must be an implication A => B, and the
    model must make some shared instantiation of A valid while B is not —
    refuting the rule reading rather than the formula.
    max_domain 0 means propositional search; quantified search needs at
    least 1.  mode applies to quantified search only: "constant" keeps
    every element present everywhere, "varying" also enumerates existence
    maps.
    """

    conclusion: Formula
    premise_formulas: tuple[Formula, ...] = ()
    premise_schemes: tuple[Formula, ...] = ()
    frame_constraints: frozenset[str] = frozenset()
    max_worlds: int = 3
    max_domain: int = 0
    reading: str = "object"
    mode: str = "constant"

    def __post_init__(self):
        object.__setattr__(self, "premise_formulas",
                           tuple(self.premise_formulas))
        object.__setattr__(self, "premise_schemes",
                           tuple(self.premise_schemes))
        object.__setattr__(self, "frame_constraints",
                           _check_constraints(self.frame_constraints))
        if self.reading not in ("object", "meta"):
            raise ValueError(f"reading must be 'object' or 'meta', "
                             f"got {self.reading!r}")
        if self.mode not in ("constant", "varying"):
            raise ValueError(f"mode must be 'constant' or 'varying', "
                             f"got {self.mode!r}")
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        if self.max_domain < 0:
            raise ValueError("max_domain must be at least 0 (0 means "
                             "propositional search)")
        if self.reading == "meta" and not isinstance(self.conclusion, Imp):
            raise ValueError("the meta reading needs an implication "
                             "conclusion")
        if any(scheme_vars(p) for p in self.premise_formulas):
            raise ValueError("a premise formula cannot contain "
                             "metavariables; pass it as a scheme premise")
        if not all(is_propositional(s) for s in self.premise_schemes):
            raise ValueError("scheme premises must be propositional")

    def formulas(self) -> tuple[Formula, ...]:
        return (*self.premise_formulas, *self.premise_schemes,
                self.conclusion)


@dataclass(frozen=True)
class SearchResult:
    """A found countermodel plus a self-describing certificate dict."""

    model: PropModel | FoModel
    certificate: dict

    def to_dict(self) -> dict:
        return {"model": model_to_dict(self.model),
                "certificate": self.certificate}


# ---------------------------------------------------------------------------
# Deterministic chunked scanning

def _chunk_ranges(total: int) -> list[tuple[int, int]]:
    """Split range(total) into at most 128 fixed chunks."""
    size = max(1, total >> 7)
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _stage_frontier(stage: tuple[int, ...]) -> dict:
    return dict(zip(("worlds", "domain"), stage))


def _scan(stages: Iterable[tuple[int, ...]], worker, arg, jobs: int, budget,
          frontier=_stage_frontier) -> Iterator:
    """Yield the payload of every chunk of every stage, in scan order.

    A stage is a tuple whose first entry is the world count; its frame masks
    are split by _chunk_ranges, and ``worker(stage, masks, arg, budget)``
    returns the payload of one chunk.  Every chunk runs in this process and
    charges the caller's one budget, so a passed Budget's ``used`` rises by
    all the scan charged, and a trip falls at the same candidate whatever
    ``jobs`` says.  A trip without a frontier (a budget's, or a check too
    wide to enumerate) is re-raised with ``frontier(stage)``, called at the
    trip, so it sees what the caller has summed of the chunks before.
    ``jobs`` must be at least 1 and changes nothing else."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    bud = _as_budget(budget)
    for stage in stages:
        try:
            for lo, hi in _chunk_ranges(1 << stage[0] ** 2):
                yield worker(stage, range(lo, hi), arg, bud)
        except ResourceLimit as e:
            if e.frontier is not None:
                raise
            raise ResourceLimit(e.args[0], frontier(stage)) from None


def _first(stages, worker, arg, jobs: int, budget, recheck
           ) -> SearchResult | None:
    """The first hit of _scan as a SearchResult, or None; the budget is
    charged as _scan charges it, up to and including the hit.  A hit is the
    worker's (model, certificate); recheck(model, certificate, arg) raises
    RuntimeError unless the reference evaluator confirms it."""
    for hit in _scan(stages, worker, arg, jobs, budget):
        if hit is not None:
            recheck(*hit, arg)
            return SearchResult(*hit)
    return None


def _check_ceiling(max_worlds: int, ceiling: int, kind: str) -> None:
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    if max_worlds > ceiling:
        raise ValueError(f"max_worlds {max_worlds} exceeds the {kind} "
                         f"ceiling {ceiling}")


def _check_domain(name: str, d: int, least: int) -> None:
    """A domain bound from least to 26, the elements' one-letter names."""
    if d < least:
        raise ValueError(f"{name} must be at least {least}")
    if d > len(string.ascii_lowercase):
        raise ValueError(f"{name} {d} exceeds the domain ceiling 26")


# ---------------------------------------------------------------------------
# Candidate models: the models a stage scans on one frame

def _candidate(fr: Frame, domain, mode: str, fields, c: int):
    """The model that candidate number c stands for on fr: a PropModel
    when domain is None."""
    val, flex, exists = _decode(fields, domain or (), fr.worlds, c)
    if domain is None:
        return PropModel(fr, val)
    return FoModel(DomainFrame(fr, domain, exists), mode, val,
                   flexible_preds=flex)


# ---------------------------------------------------------------------------
# Shared premise/conclusion checking

def _conclusion_names(spec: SearchSpec) -> list[str]:
    c = spec.conclusion
    if spec.reading == "meta":
        return sorted(set(scheme_vars(c.lhs)) | set(scheme_vars(c.rhs)))
    return scheme_vars(c) if is_propositional(c) else []


def _checks(spec: SearchSpec, n: int) -> list:
    """(instance bits, unit, run) for each check a candidate passes
    through, in order: premise formulas (valid), premise schemes
    (scheme_valid), then the conclusion (scheme_valid or valid, or
    meta_implies).  unit is the check's size, what it charges each
    candidate that reaches it; run(batch) gives (holds, witness) per
    candidate.  A check with too many instances to enumerate raises
    ResourceLimit here, before any candidate is scanned."""
    def check(names, f):
        ib = _scheme_bits(n, len(names))
        inst = _leaves(_fields(n, 0, (), tuple(names)), (), n)
        fs, c = (f, ((0,), 1)) if isinstance(f, tuple) else ((f,), 0)
        return ib, len(fs) * n << ib, lambda b: b.run(fs, [c], ib, inst)[0]

    c = spec.conclusion
    return [*(check((), p) for p in spec.premise_formulas),
            *(check(scheme_vars(s), s) for s in spec.premise_schemes),
            check(_conclusion_names(spec),
                  (c.lhs, c.rhs) if spec.reading == "meta" else c)]


def _hit(batch, checks, bud: Budget):
    """The least candidate bit of batch at which every check but the last
    holds and the last fails (0 when none does), and the last check's
    witness function.  Charges each check's unit per candidate that reaches
    it, up to the hit or over the whole batch.  A check runs only on a
    batch that some candidate reaches it in."""
    reach, spent, witness = batch.live, [], None
    for j, (_, unit, run) in enumerate(checks):
        if not reach:
            break
        holds, witness = run(batch)
        spent.append((unit, reach))
        reach &= holds if j < len(checks) - 1 else ~holds
    hit = reach & -reach
    bud.charge(sum(u * (r & (2 * hit - 1)).bit_count() for u, r in spent))
    return hit, witness


def _certificate(spec: SearchSpec, worlds, wi: int, i: int) -> dict:
    """What the conclusion's witness, world index wi and instance i,
    certifies, in the order the single-model checks' verdicts gave it."""
    names = _conclusion_names(spec)
    val = _decode(_fields(len(worlds), 0, (), tuple(names)), (), worlds,
                  i)[0]
    assignment = {k: list(vs) for k, vs in sorted(val.items())}
    cert = {"reading": spec.reading,
            "conclusion": render(spec.conclusion, "ascii")}
    if spec.reading == "meta":
        cert["assignment"] = assignment
    cert["world"] = worlds[wi]
    if spec.reading == "object" and names:
        cert["assignment"] = assignment
    if spec.premise_formulas:
        cert["premises"] = [render(p, "ascii")
                            for p in spec.premise_formulas]
    if spec.premise_schemes:
        cert["scheme_premises"] = [render(s, "ascii")
                                   for s in spec.premise_schemes]
    return cert


def _valid(m, f: Formula, sv) -> bool:
    """Truth of f at every world of m under the instantiation sv."""
    return all(evaluate(m, f, w, scheme_vals=sv) for w in m.worlds)


def _recheck_failed(kind: str) -> RuntimeError:
    return RuntimeError(f"{kind} witness failed the independent re-check; "
                        "this is a bug, please report it")


def _revalidate(m, cert: dict, spec: SearchSpec) -> None:
    """Independent re-check of a countermodel: the spec's frame constraints
    by the relational frame tests, every instance of each premise (a
    premise formula is a scheme with no metavariables) and the conclusion
    at the reported world and assignment by the reference evaluator."""
    worlds = m.worlds
    ok = all(is_total(m.frame) if p == "total" else frame_property(m.frame, p)
             for p in spec.frame_constraints)
    for s in (*spec.premise_formulas, *spec.premise_schemes):
        names = scheme_vars(s)
        fields = _fields(len(worlds), 0, (), tuple(names))
        ok = ok and all(_valid(m, s, _decode(fields, (), worlds, i)[0])
                        for i in range(1 << len(worlds) * len(names)))
    sv = {k: frozenset(v) for k, v in cert.get("assignment", {}).items()}
    c = spec.conclusion
    if spec.reading == "meta":
        ok = ok and _valid(m, c.lhs, sv)
        c = c.rhs
    if not ok or evaluate(m, c, cert["world"], scheme_vals=sv):
        raise _recheck_failed("search")


def _signature(spec: SearchSpec) -> tuple[dict[str, int], list[str]]:
    """Predicate arities and sorted propositional atoms over spec, from each
    formula's memoised answers; a predicate used at two arities raises
    ValueError, naming the first conflict in spec order."""
    fs = spec.formulas()
    try:
        pairs = {p for f in fs for p in pred_symbols(f).items()}
        conflict = len(dict(pairs)) < len(pairs)
    except ValueError:
        conflict = True
    if conflict:    # one walk over the whole spec names its first conflict
        pred_symbols(reduce(And, fs))
    return dict(sorted(pairs)), sorted({a for f in fs for a in prop_atoms(f)})


@lru_cache(maxsize=None)
def _blank(n: int, domain: tuple[str, ...] | None):
    """A stage's model with no edges, valuation or predicates."""
    fr = Frame(tuple(f"w{i}" for i in range(n)))
    return (PropModel(fr, {}) if domain is None
            else FoModel(DomainFrame(fr, domain), "constant"))


def _spec_chunk(stage, masks, spec: SearchSpec, bud: Budget):
    """The chunk's least countermodel as (model, certificate), or None.
    Its admitted frames and their candidates are columns over _blank."""
    n, d = stage if len(stage) > 1 else (stage[0], 0)
    domain = _domain_names(d) if len(stage) > 1 else None
    preds, atoms = _signature(spec)
    varying = spec.mode == "varying" and domain is not None
    fields = _fields(n, d, tuple(preds.items()), tuple(atoms), varying)
    cb = sum(f[3] for f in fields)
    checks = _checks(spec, n)
    frames = list(_masks(n, masks, spec.frame_constraints))
    for batch in _batches(_blank(n, domain), cb, [c[0] for c in checks],
                          _leaves(fields, domain or (), n), frames, preds):
        hit, witness = _hit(batch, checks, bud)
        if hit:
            fmask, c = batch.number(hit)
            fr = frame_from_mask(n, fmask)
            cert = {**_stage_frontier(stage), "frame_mask": fmask}
            if domain is not None:
                cert["exists_mask"] = (c >> fields[-1][2] if varying
                                       else (1 << d * n) - 1)
            return (_candidate(fr, domain, spec.mode, fields, c),
                    {**cert, **_certificate(spec, fr.worlds, *witness(hit))})
    return None


# ---------------------------------------------------------------------------
# Propositional countermodel search

def find_countermodel(spec: SearchSpec, jobs: int = 1, budget=None
                      ) -> SearchResult | None:
    """Least propositional countermodel for spec, or None if the bounded
    space holds none.  Scan order: world count, then frame bitmask, then
    valuation bitmasks (atoms sorted).  ``jobs`` never changes the answer.
    """
    for f in spec.formulas():
        if not is_propositional(f):
            raise ValueError(
                "find_countermodel is propositional; use "
                "find_fo_countermodel for quantified formulas")
    _check_ceiling(spec.max_worlds, PROP_WORLD_CEILING, "propositional")
    return _first(((n,) for n in range(1, spec.max_worlds + 1)), _spec_chunk,
                  spec, jobs, budget, _revalidate)


# ---------------------------------------------------------------------------
# First-order countermodel search

def _fo_stages(spec: SearchSpec) -> Iterator[tuple[int, int]]:
    """(worlds, domain) stages in scan order.  A stage whose per-frame
    enumeration needs more than FO_SEARCH_BITS bits is refused when the scan
    reaches it, after the earlier stages have been searched; the frontier
    names the last of those, or (0, 0) when there is none."""
    preds, atoms = _signature(spec)
    last = (0, 0)
    for n in range(1, spec.max_worlds + 1):
        for d in range(1, spec.max_domain + 1):
            bits = sum(f[3] for f in _fields(
                n, d, tuple(preds.items()), tuple(atoms),
                spec.mode == "varying"))
            if bits > FO_SEARCH_BITS:
                raise ResourceLimit(
                    f"stage {n} worlds x {d} elements needs 2**{bits} "
                    f"models per frame (limit 2**{FO_SEARCH_BITS})",
                    frontier=_stage_frontier(last))
            yield n, d
            last = n, d


def find_fo_countermodel(spec: SearchSpec, jobs: int = 1, budget=None
                         ) -> SearchResult | None:
    """Least quantified countermodel for spec, enumerating predicate
    interpretations and (in varying mode) existence maps as part of the
    model.  Scan order: world count, then domain size, then frame bitmask,
    then existence mask, then interpretation masks (predicates sorted),
    then valuation masks.  ``jobs`` never changes the answer."""
    for f in spec.formulas():
        if free_vars(f):
            raise ValueError(f"formulas must be closed; "
                             f"free: {sorted(free_vars(f))}")
        if const_names(f):
            raise ValueError(
                "rigid constants are not searched over; replace "
                f"{sorted(const_names(f))} with quantified variables")
        if scheme_vars(f) and not is_propositional(f):
            raise ValueError("schematic metavariables are only supported "
                             "in purely propositional (sub)formulas")
    _check_ceiling(spec.max_worlds, FO_WORLD_CEILING, "quantified")
    _check_domain("max_domain", spec.max_domain, 1)
    return _first(_fo_stages(spec), _spec_chunk, spec, jobs, budget,
                  _revalidate)


# ---------------------------------------------------------------------------
# The quantifier/Box exchange: divergence search and exhaustive sweeps

def _divergences(stage, masks, varying: bool, bud: Budget) -> Iterator:
    """(frame mask, candidate, model, its BfReadings) of each model, in scan
    order, where the rule reading of the exchange holds and the implication
    fails: over the stage's constant-domain frames, or its existence masks
    when varying.  Each model is charged bf_readings' size, by that call for
    those yielded, whose readings it gives."""
    n, d = stage
    m = _blank(n, _domain_names(d))
    bits = _fo_bits(m)
    fields = _fields(n, d, (), (), varying)
    hole = _leaves(_fields(n, d, (("P", 1),), ()), m.domain, n)
    fs = _exchange(BF_LHS("P"), BF_RHS("P"))[:3]
    for b in _batches(m, d * n if varying else 0, [bits],
                      _leaves(fields, m.domain, n), list(masks), {"P": 1}):
        rest = b.live
        (rule, _), (imp, _) = b.run(fs, [((0,), 1), 2], bits, hole)
        div = rest & rule & ~imp
        while True:
            hit = div & -div
            bud.charge((2 * n << bits) * (rest & (hit - 1)).bit_count())
            if not hit:
                break
            div ^= hit
            rest &= -2 * hit
            fmask, c = b.number(hit)
            fm = _candidate(frame_from_mask(n, fmask), m.domain,
                            "varying" if varying else "constant", fields, c)
            yield fmask, c, fm, bf_readings(fm, "P", bud)


def _div_chunk(stage, masks, _, bud: Budget):
    """The chunk's least divergence as (model, certificate), or None."""
    for fmask, emask, fm, r in _divergences(stage, masks, True, bud):
        return fm, {"kind": "barcan_divergence", "worlds": stage[0],
                    "domain": stage[1], "frame_mask": fmask,
                    "exists_mask": emask, "readings": r.to_dict()}
    return None


def find_barcan_divergence(max_worlds: int = 3, max_domain: int = 2,
                           jobs: int = 1, budget=None
                           ) -> SearchResult | None:
    """Least varying-domain model on which the rule reading of the
    quantifier/Box exchange holds while the implication formula fails.

    Scan order: world count, then domain size, then frame bitmask, then
    existence mask.  Returns None when no divergence exists in bounds
    (e.g. with max_worlds=1, where the two readings coincide)."""
    _check_ceiling(max_worlds, FO_WORLD_CEILING, "quantified")
    _check_domain("max_domain", max_domain, 1)
    stages = product(range(1, max_worlds + 1), range(1, max_domain + 1))
    return _first(stages, _div_chunk, None, jobs, budget,
                  _revalidate_divergence)


def _revalidate_divergence(fm: FoModel, cert: dict, _) -> None:
    """Reference-evaluator re-check that the rule reading holds and the
    implication reading fails on fm, at the certificate's object witness."""
    lhs, rhs = BF_LHS("P"), BF_RHS("P")
    worlds, domain = fm.worlds, fm.domain

    def with_p(ext) -> FoModel:
        return FoModel(fm.dframe, "varying",
                       flexible_preds={"P": FlexiblePred(1, ext)})
    models = (with_p(_extension(domain, worlds, mask))
              for mask in range(1 << (len(domain) * len(worlds))))
    ok = all(not _valid(m2, lhs, {}) or _valid(m2, rhs, {}) for m2 in models)
    witness = cert["readings"]["object_witness"]
    w0 = witness["world"]
    m2 = with_p({w: frozenset((e,) for e, wx in witness["interpretation"]
                              if wx == w) for w in worlds})
    if not ok or not evaluate(m2, lhs, w0) or evaluate(m2, rhs, w0):
        raise _recheck_failed("divergence")


def _monotone(edges, exists, full: int) -> tuple[int, int]:
    """Truth sets of domain monotonicity over edge columns edges[a][b] and
    existence columns exists[e][w]: (nondecreasing, nonincreasing) along
    every edge."""
    inc = dec = full
    for a, row in enumerate(edges):
        for b, r in enumerate(row):
            if r:   # absent edges constrain nothing
                for col in exists:
                    inc &= ~(r & col[a] & ~col[b])
                    dec &= ~(r & col[b] & ~col[a])
    return inc, dec


def _sweep_chunk(stage, masks, _, bud: Budget):
    n, d = stage
    m = _blank(n, _domain_names(d))
    bits = _fo_bits(m)
    hole = _leaves(_fields(n, d, (("P", 1),), ()), m.domain, n)
    exists = _leaves(_fields(n, d, (), (), varying=True), m.domain, n)
    violations: list[dict] = []
    for b in _batches(m, d * n, [bits], exists, list(masks), {"P": 1}):
        (bf, _), (cbf, _) = b.run((BF_SCHEME, CBF_SCHEME), [0, 1], bits,
                                  hole)
        bud.charge((2 * n << bits) * b.live.bit_count())
        edges = b.edges[Box]
        inc, dec = _monotone(edges, b.leaves[Exists], b.full)
        symmetric = reduce(and_, (~(edges[i][j] ^ edges[j][i])
                                  for i in range(n) for j in range(i)), b.full)
        # (check, where it applies, (key, verdicts), (key, verdicts)): the
        # two verdict masks must agree on every candidate where it applies
        table = [("bf_vs_nonincreasing", b.full, ("bf", bf),
                  ("nonincreasing", dec)),
                 ("cbf_vs_nondecreasing", b.full, ("cbf", cbf),
                  ("nondecreasing", inc)),
                 ("bf_iff_cbf_on_symmetric", symmetric, ("bf", bf),
                  ("cbf", cbf))]
        odd = 0
        for _, on, (_, x), (_, y) in table:
            odd |= b.live & on & (x ^ y)
        while odd:
            c = odd & -odd
            odd ^= c
            fmask, e = b.number(c)
            coords = {"worlds": n, "frame_mask": fmask, "exists_mask": e}
            for check, on, (k1, x), (k2, y) in table:
                if on & c and bool(x & c) != bool(y & c):
                    violations.append({**coords, "check": check,
                                       k1: bool(x & c), k2: bool(y & c)})
    return len(masks) << d * n, violations


def barcan_sweep(max_worlds: int = 3, domain_size: int = 2, jobs: int = 1,
                 budget=None) -> dict:
    """Exhaustively pair both exchange schemes with domain monotonicity over
    every frame of up to max_worlds worlds and every existence map for a
    fixed domain size.  Returns a summary dict whose ``violations`` list is
    expected to stay empty; ``jobs`` never changes the summary."""
    _check_ceiling(max_worlds, FO_WORLD_CEILING, "quantified")
    _check_domain("domain_size", domain_size, 0)
    checked = 0
    violations: list[dict] = []
    stages = ((n, domain_size) for n in range(1, max_worlds + 1))
    for cnt, viol in _scan(
            stages, _sweep_chunk, None, jobs, budget,
            frontier=lambda st: {"worlds": st[0], "checked": checked}):
        checked += cnt
        violations.extend(viol)
    return {"max_worlds": max_worlds, "domain_size": domain_size,
            "checked": checked, "violations": violations,
            "all_consistent": not violations}


def _agree_chunk(stage, masks, _, bud: Budget):
    n, d = stage
    return len(masks), [
        {"worlds": n, "domain": d, "frame_mask": fmask,
         "readings": r.to_dict()}
        for fmask, _, _, r in _divergences(stage, masks, False, bud)]


def bf_agreement_sweep(max_worlds: int = 3, max_domain: int = 2,
                       jobs: int = 1, budget=None) -> dict:
    """Check that on every constant-domain model in bounds the rule reading
    and the implication reading of the exchange agree.  The summary's
    ``disagreements`` list is expected to stay empty."""
    _check_ceiling(max_worlds, FO_WORLD_CEILING, "quantified")
    _check_domain("max_domain", max_domain, 1)
    checked = 0
    disagreements: list[dict] = []
    stages = product(range(1, max_worlds + 1), range(1, max_domain + 1))
    for cnt, dis in _scan(stages, _agree_chunk, None, jobs, budget):
        checked += cnt
        disagreements.extend(dis)
    return {"max_worlds": max_worlds, "max_domain": max_domain,
            "checked": checked, "disagreements": disagreements,
            "all_agree": not disagreements}


# ---------------------------------------------------------------------------
# Deduction-theorem gap

def _gap_chunk(stage, masks, conclusion: Imp, bud: Budget):
    """The chunk's least gap as (model, certificate), or None.
    The metavariables' world masks are the candidate fields, one instance
    per candidate."""
    (n,) = stage
    fields = _fields(n, 0, (), tuple(scheme_vars(conclusion)))
    for b in _batches(_blank(n, None), n * len(fields), [0],
                      _leaves(fields, (), n), list(masks)):
        (lhs, _), (rhs, _), (imp, witness) = b.run(
            (conclusion.lhs, conclusion.rhs, conclusion), [0, 1, 2], 0,
            lambda cols: {})
        rule = b.live & ~(lhs & ~rhs)
        gap = rule & ~imp
        hit = gap & -gap
        upto = (2 * hit - 1) & b.live
        bud.charge(n * (2 * upto.bit_count() + (upto & rule).bit_count()))
        if hit:
            fmask, c = b.number(hit)
            m = PropModel(frame_from_mask(n, fmask), {})
            val = _decode(fields, (), m.worlds, c)[0]
            return m, {
                "worlds": n, "frame_mask": fmask,
                "kind": "deduction_gap",
                "conclusion": render(conclusion, "ascii"),
                "assignment": {k: list(v) for k, v in sorted(val.items())},
                "world": m.worlds[witness(hit)[0]],
                "lhs_valid": bool(lhs & hit),
                "rhs_valid": bool(rhs & hit),
            }
    return None


def _revalidate_gap(m, cert: dict, conclusion: Imp) -> None:
    """Reference-evaluator re-check of a gap: each side's validity, the
    rule reading, and the implication failing at the reported world."""
    sv = {k: frozenset(v) for k, v in cert["assignment"].items()}
    lhs, rhs = (_valid(m, f, sv) for f in (conclusion.lhs, conclusion.rhs))
    if ((lhs, rhs) != (cert["lhs_valid"], cert["rhs_valid"]) or lhs and not rhs
            or evaluate(m, conclusion, cert["world"], scheme_vals=sv)):
        raise _recheck_failed("gap")


def find_deduction_gap(conclusion: Formula | None = None,
                       max_worlds: int = 2, jobs: int = 1, budget=None
                       ) -> SearchResult | None:
    """Least model and instantiation where the rule reading of an
    implication holds (premise valid implies conclusion valid) while the
    implication formula itself fails — the deduction-theorem direction that
    modal consequence lacks.  Default conclusion: P => Q over metavariables.

    The metavariables' instantiations are the candidates of the shared
    truth-set batches.  Each candidate up to the hit charges the budget one
    unit per world for each side of the implication, and for the
    implication itself where the rule reading holds.  The witness is
    re-checked with the reference evaluator before it is returned.  No such
    gap fits in a single world; the least witnesses appear at two."""
    if conclusion is None:
        conclusion = Imp(SchemeVar("P"), SchemeVar("Q"))
    if not isinstance(conclusion, Imp):
        raise ValueError("the deduction gap needs an implication conclusion")
    if not is_propositional(conclusion):
        raise ValueError("the deduction gap search is propositional")
    if prop_atoms(conclusion):
        raise ValueError("build the conclusion from metavariables (uppercase"
                         " initial), not fixed atoms")
    _check_ceiling(max_worlds, PROP_WORLD_CEILING, "propositional")
    return _first(((n,) for n in range(1, max_worlds + 1)), _gap_chunk,
                  conclusion, jobs, budget, _revalidate_gap)
