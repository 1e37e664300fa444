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
                    PropModel, _bits, _pairs, _rows_pass,
                    domain_monotonicity, frame_property)
from .parser import parse
from .semantics import (_as_budget, _fields, _fo_least, _leaves, _least,
                        _scheme_bits, frame_valid)

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

# axiom_report's entries: the axiom, the relational property it characterises
# (None for K and N, which hold on every frame), and the formulas and
# metavariables charged: N is P and []P, and only K's instances span Q.
_REPORT = (("K", None, 1, 2), ("T", "reflexive", 1, 1),
           ("4", "transitive", 1, 1), ("B", "symmetric", 1, 1),
           ("D", "serial", 1, 1), ("5", "euclidean", 1, 1), ("N", None, 2, 1))
_REPORT_CHECKS = (0, 1, 2, 3, 4, 5, ((6,), 7))

AXIOM_PROPERTY: Mapping[str, str] = {a: p for a, p, *_ in _REPORT if p}

@lru_cache(maxsize=None)
def axiom_scheme(axiom_id: str) -> Formula:
    """The parsed canonical scheme for an axiom id (not N, which is meta)."""
    text = AXIOM_SCHEMES[axiom_id]
    if text is None:
        raise ValueError(f"axiom {axiom_id!r} has no object-level scheme")
    return parse(text)


BF_SCHEME = parse(AXIOM_SCHEMES["BF"])
CBF_SCHEME = parse(AXIOM_SCHEMES["CBF"])


@lru_cache(maxsize=None)
def _report_formulas() -> tuple[Formula, ...]:
    """K, T, 4, B, D, 5, and N's premise P and conclusion □P."""
    return (*map(axiom_scheme, "KT4BD5"), SchemeVar("P"), Box(SchemeVar("P")))


def axiom_report(fr: Frame, budget=None) -> dict:
    """Schematic validity of K/T/4/B/D/5 plus the meta rule N on a frame,
    against the frame's relational properties.  The instances are K's, P's
    world mask above Q's."""
    bud = _as_budget(budget)
    rows, worlds, n = fr.rows, fr.worlds, len(fr.worlds)
    props = {p: _rows_pass(rows, p) for p in FRAME_PROPERTIES}
    bits = _scheme_bits(n, 2)
    axioms: dict[str, dict] = {}
    for (aid, prop, k, v), best in zip(_REPORT, _least(
            PropModel(fr, {}), _report_formulas(), _REPORT_CHECKS, bits,
            _leaves(_fields(n, 0, (), ("P", "Q")), (), n))):
        bud.charge(k * n << v * n)
        has = prop is None or props[prop]
        e = axioms[aid] = {"holds": best is None, "property": has,
                           "consistent": (best is None) == has}
        if best:
            wi, i = best
            val = {"P": list(_bits(worlds, i >> n))}
            if v == 2:
                val["Q"] = list(_bits(worlds, i & (1 << n) - 1))
            e["witness"] = {"world": worlds[wi], "assignment": val}
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
    bests = _fo_least(fm, (BF_SCHEME, CBF_SCHEME), "P", bud)
    symmetric = frame_property(df.frame, "symmetric")
    axioms: dict[str, dict] = {}
    for aid, has, best in zip(("BF", "CBF"), (mono.nonincreasing,
                                              mono.nondecreasing), bests):
        e = axioms[aid] = {"holds": best is None, "property": has,
                           "consistent": (best is None) == has}
        if best:
            e["witness"] = {"world": fm.worlds[best[0]], "interpretation": [
                list(p) for p in _pairs(fm.domain, fm.worlds, best[1])]}
    return {"monotonicity": mono._asdict(), "symmetric": symmetric,
            "axioms": axioms, "bf_iff_cbf_on_symmetric": (not symmetric)
            or (bests[0] is None) == (bests[1] is None)}


def refute_on_frame(fr: Frame, scheme: Formula, budget=None
                    ) -> tuple[dict[str, tuple[str, ...]], str] | None:
    """Least refuting (valuation, world) for a scheme on a frame, or None
    when the scheme is frame-valid.  The valuation covers every enumerated
    atom of the scheme; re-evaluating the scheme there yields false."""
    v = frame_valid(fr, scheme, budget)
    if v.holds:
        return None
    return dict(v.assignment), v.world
