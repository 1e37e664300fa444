"""Axiom schemes, their frame properties, and consistency reports.

Each classical axiom is checked two ways on a finite frame: schematically
(valid for every valuation, via frame_valid) and relationally (the literal
property of the accessibility relation).  The two verdicts must agree — a
``consistent: false`` entry in a report is an implementation bug, and the
test suite treats it as such.  The quantifier analogue pairs the Barcan
schemes with domain monotonicity.
"""

from __future__ import annotations

from typing import Mapping

from .formula import Box, Formula, SchemeVar
from .model import (DomainFrame, FoModel, Frame, FRAME_PROPERTIES,
                    PropModel, domain_monotonicity, frame_property)
from .parser import parse
from .semantics import (Verdict, _as_budget, fo_scheme_valid, frame_valid,
                        meta_implies)

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

_parsed: dict[str, Formula] = {}


def axiom_scheme(axiom_id: str) -> Formula:
    """The parsed canonical scheme for an axiom id (not N, which is meta)."""
    text = AXIOM_SCHEMES[axiom_id]
    if text is None:
        raise ValueError(f"axiom {axiom_id!r} has no object-level scheme")
    if axiom_id not in _parsed:
        _parsed[axiom_id] = parse(text)
    return _parsed[axiom_id]


BF_SCHEME = parse(AXIOM_SCHEMES["BF"])
CBF_SCHEME = parse(AXIOM_SCHEMES["CBF"])


def _entry(verdict: Verdict, prop: bool) -> dict:
    out = {
        "holds": verdict.holds,
        "property": prop,
        "consistent": verdict.holds == prop,
    }
    if not verdict.holds:
        out["witness"] = verdict.to_dict()["witness"]
    return out


def axiom_report(fr: Frame, budget=None) -> dict:
    """Schematic validity of K/T/4/B/D/5 plus the meta rule N on a frame,
    against the frame's relational properties."""
    bud = _as_budget(budget)
    props = {p: frame_property(fr, p) for p in FRAME_PROPERTIES}
    axioms: dict[str, dict] = {}
    k = frame_valid(fr, axiom_scheme("K"), bud)
    axioms["K"] = _entry(k, True)
    for axiom_id, prop_name in AXIOM_PROPERTY.items():
        v = frame_valid(fr, axiom_scheme(axiom_id), bud)
        axioms[axiom_id] = _entry(v, props[prop_name])
        axioms[axiom_id]["frame_property"] = prop_name
    n = meta_implies(PropModel(fr, {}), [SchemeVar("P")],
                     Box(SchemeVar("P")), bud)
    axioms["N"] = _entry(n, True)
    return {"properties": props, "axioms": axioms}


def barcan_report(df: DomainFrame, budget=None) -> dict:
    """BF and CBF (varying-domain semantics) against domain monotonicity.

    BF pairs with nonincreasing domains, CBF with nondecreasing ones, and on
    a symmetric frame the two schemes stand or fall together."""
    bud = _as_budget(budget)
    fm = FoModel(df, "varying")
    mono = domain_monotonicity(df)
    bf = fo_scheme_valid(fm, BF_SCHEME, "P", bud)
    cbf = fo_scheme_valid(fm, CBF_SCHEME, "P", bud)
    symmetric = frame_property(df.frame, "symmetric")
    out = {
        "monotonicity": {
            "constant": mono.constant,
            "nondecreasing": mono.nondecreasing,
            "nonincreasing": mono.nonincreasing,
        },
        "symmetric": symmetric,
        "axioms": {
            "BF": _entry(bf, mono.nonincreasing),
            "CBF": _entry(cbf, mono.nondecreasing),
        },
        "bf_iff_cbf_on_symmetric": (not symmetric) or (bf.holds == cbf.holds),
    }
    return out


def refute_on_frame(fr: Frame, scheme: Formula, budget=None
                    ) -> tuple[dict[str, tuple[str, ...]], str] | None:
    """Least refuting (valuation, world) for a scheme on a frame, or None
    when the scheme is frame-valid.  The valuation covers every enumerated
    atom of the scheme; re-evaluating the scheme there yields false."""
    v = frame_valid(fr, scheme, budget)
    if v.holds:
        return None
    return dict(v.assignment), v.world
