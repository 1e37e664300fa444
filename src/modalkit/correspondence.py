"""Axiom schemes, their frame properties, and consistency reports.

Each classical axiom is checked two ways on a finite frame: schematically
(valid for every valuation, as in frame_valid) and relationally (the literal
property of the accessibility relation).  The two verdicts must agree — a
``consistent: false`` entry in a report is an implementation bug, and the
test suite treats it as such.  The quantifier analogue pairs the Barcan
schemes with domain monotonicity.

A report labels all its schemes with one truth-set program, each shared
subformula once, and keeps one check's witness and charge per scheme.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .formula import Box, Formula, SchemeVar
from .model import (DomainFrame, FoModel, Frame, FRAME_PROPERTIES,
                    PropModel, domain_monotonicity, frame_property)
from .parser import parse
from .semantics import (Verdict, _as_budget, _decode, _fields, _fo_verdicts,
                        _leaves, _least, _scheme_bits, frame_valid)

__all__ = [
    "AXIOM_IDS", "AXIOM_SCHEMES", "AXIOM_PROPERTY", "axiom_scheme",
    "BF_SCHEME", "CBF_SCHEME", "axiom_report", "barcan_report",
    "refute_on_frame",
]

# Canonical scheme texts.  N has no object-level scheme: it is the meta rule
# "if P is valid then so is Box P", checked via meta_implies.
AXIOM_SCHEMES: Mapping[str, str | None] = {
    "K": "□(P => Q) => (□P => □Q)",
    "T": "□P => P",
    "4": "□P => □□P",
    "B": "P => □<>P",
    "D": "□P => <>P",
    "5": "<>P => □<>P",
    "N": None,
    "BF": "(forall x. □P(x)) => □ forall x. P(x)",
    "CBF": "□(forall x. P(x)) => forall x. □P(x)",
}

AXIOM_IDS = tuple(AXIOM_SCHEMES)

# The relational property each axiom characterises; K and N hold on every
# frame and have no property to pair with.
AXIOM_PROPERTY: Mapping[str, str] = {
    "T": "reflexive",
    "4": "transitive",
    "B": "symmetric",
    "D": "serial",
    "5": "euclidean",
}

@lru_cache(maxsize=None)
def axiom_scheme(axiom_id: str) -> Formula:
    """The parsed canonical scheme for an axiom id (not N, which is meta)."""
    text = AXIOM_SCHEMES[axiom_id]
    if text is None:
        raise ValueError(f"axiom {axiom_id!r} has no object-level scheme")
    return parse(text)


BF_SCHEME = parse(AXIOM_SCHEMES["BF"])
CBF_SCHEME = parse(AXIOM_SCHEMES["CBF"])


def _entry(verdict: Verdict, prop: bool) -> dict:
    return {"holds": verdict.holds, "property": prop,     # then a witness
            "consistent": verdict.holds == prop, **verdict.to_dict()}


@lru_cache(maxsize=None)
def _report_formulas() -> tuple[Formula, ...]:
    """K, T, 4, B, D, 5, and N's premise P and conclusion □P."""
    return (*map(axiom_scheme, "KT4BD5"), SchemeVar("P"), Box(SchemeVar("P")))


def axiom_report(fr: Frame, budget=None) -> dict:
    """Schematic validity of K/T/4/B/D/5 plus the meta rule N on a frame,
    against the frame's relational properties.  The instances are K's, P's
    world mask above Q's, where a scheme in P alone first fails at Q = {}."""
    bud = _as_budget(budget)
    props = {p: frame_property(fr, p) for p in FRAME_PROPERTIES}
    worlds, n = fr.worlds, len(fr.worlds)
    bits, fields = _scheme_bits(n, 2), _fields(n, 0, (), ("P", "Q"))
    axioms: dict[str, dict] = {}
    for aid, best in zip("KT4BD5N", _least(
            PropModel(fr, {}), _report_formulas(),
            [0, 1, 2, 3, 4, 5, ((6,), 7)], bits, _leaves(fields, (), n))):
        # K spans P and Q, the rest P alone (fields[1:]), N is two formulas
        bud.charge((1 + (aid == "N")) * n << (bits if aid == "K" else n))
        prop = AXIOM_PROPERTY.get(aid)
        has = prop is None or props[prop]
        e = axioms[aid] = {"holds": best is None, "property": has,
                           "consistent": (best is None) == has}
        if best:
            val = _decode(fields[aid != "K":], (), worlds, best[1])[0]
            e["witness"] = {"world": worlds[best[0]], "assignment": {
                k: list(v) for k, v in sorted(val.items())}}
        if prop:
            e["frame_property"] = prop
    return {"properties": props, "axioms": axioms}


def barcan_report(df: DomainFrame, budget=None) -> dict:
    """BF and CBF (varying-domain semantics) against domain monotonicity.

    BF pairs with nonincreasing domains, CBF with nondecreasing ones, and on
    a symmetric frame the two schemes stand or fall together."""
    bud = _as_budget(budget)
    fm = FoModel(df, "varying")
    mono = domain_monotonicity(df)
    bf, cbf = _fo_verdicts(fm, (BF_SCHEME, CBF_SCHEME), "P", bud)
    symmetric = frame_property(df.frame, "symmetric")
    return {"monotonicity": mono._asdict(), "symmetric": symmetric,
            "axioms": {"BF": _entry(bf, mono.nonincreasing),
                       "CBF": _entry(cbf, mono.nondecreasing)},
            "bf_iff_cbf_on_symmetric": (not symmetric)
            or (bf.holds == cbf.holds)}


def refute_on_frame(fr: Frame, scheme: Formula, budget=None
                    ) -> tuple[dict[str, tuple[str, ...]], str] | None:
    """Least refuting (valuation, world) for a scheme on a frame, or None
    when the scheme is frame-valid.  The valuation covers every enumerated
    atom of the scheme; re-evaluating the scheme there yields false."""
    v = frame_valid(fr, scheme, budget)
    if v.holds:
        return None
    return dict(v.assignment), v.world
