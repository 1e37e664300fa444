"""Correctness oracle for every benchmark output.

The checks come from outside the code under test:

- counts and verdicts that theory fixes (33032 Barcan pairs with no
  violation, 1060 agreeing constant-domain models, no countermodel to BF,
  CBF, K, 4 or 5 where their frame conditions hold, and each axiom holding on
  a frame exactly when its relational property does, computed here from the
  edge list);
- every returned certificate or witness, replayed with the reference
  evaluator ``modalkit.semantics.evaluate``, premises included;
- every "no countermodel" answer of a seeded search, checked by brute force
  with the reference evaluator over every model of up to NONE_CHECK_WORLDS
  worlds in the search's bounds;
- a byte comparison of the canonical output against the goldens recorded by
  ``perfbench/record_goldens.py``, whenever a golden exists for the input.

Each check returns ``None`` when the output is right and a one-line problem
otherwise.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from pathlib import Path

from modalkit.formula import (Imp, SchemeVar, is_propositional, pred_symbols,
                              prop_atoms, scheme_vars)
from modalkit.model import (DomainFrame, FlexiblePred, FoModel, Frame,
                            PropModel, model_from_dict)
from modalkit.parser import parse
from modalkit.semantics import BF_LHS, BF_RHS, evaluate

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# Theory's expected totals for the fixed anchors.
BARCAN_PAIRS_3_2 = 33032
BF_AGREEMENT_MODELS_3_2 = 1060
FRAMES_UP_TO_3 = 530

AXIOM_PROPERTY = {"T": "reflexive", "4": "transitive", "B": "symmetric",
                  "D": "serial", "5": "euclidean"}


# ---------------------------------------------------------------------------
# Canonical output bytes and goldens

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(result) -> str:
    """Stable text for a library result: SearchResult, summary dict, list of
    reports or None."""
    if hasattr(result, "to_dict"):
        result = result.to_dict()
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def cli_canonical(out: tuple[int, str, str]) -> str:
    code, stdout, _stderr = out
    return f"{code}\n{stdout}"


def load_goldens() -> dict[str, str]:
    if not GOLDENS_PATH.exists():
        return {}
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def check_golden(goldens: dict[str, str], key: str | None, text: str
                 ) -> str | None:
    """Problem if a golden exists for key and the output differs from it.
    Goldens map digest(key) to digest(output)."""
    if key is None or digest(key) not in goldens:
        return None
    if goldens[digest(key)] != digest(text):
        return f"output differs from the recorded golden for {key[:60]}"
    return None


# ---------------------------------------------------------------------------
# Independent relational facts

def frame_of(doc: dict) -> Frame:
    return Frame(doc["worlds"], [tuple(p) for p in doc["access"]])


def relational_properties(worlds, access) -> dict[str, bool]:
    """The five frame properties from the literal edge set."""
    r = {(a, b) for a, b in access}
    ws = list(worlds)
    refl = all((w, w) in r for w in ws)
    sym = all((b, a) in r for a, b in r)
    trans = all((a, d) in r for a, b in r for c, d in r if b == c)
    serial = all(any((w, v) in r for v in ws) for w in ws)
    eucl = all((b, d) in r for a, b in r for c, d in r if a == c)
    return {"reflexive": refl, "transitive": trans, "symmetric": sym,
            "serial": serial, "euclidean": eucl,
            "equivalence": refl and sym and trans}


def monotonicity(access, exists_in: dict, domain) -> dict[str, bool]:
    full = set(domain)
    ex = {w: set(es) for w, es in exists_in.items()}
    return {"constant": all(es == full for es in ex.values()),
            "nondecreasing": all(ex[a] <= ex[b] for a, b in access),
            "nonincreasing": all(ex[b] <= ex[a] for a, b in access)}


def _subsets(worlds):
    n = len(worlds)
    return [frozenset(w for i, w in enumerate(worlds) if m >> i & 1)
            for m in range(1 << n)]


def _all_assignments(names, worlds):
    subsets = _subsets(worlds)
    for choice in product(subsets, repeat=len(names)):
        yield dict(zip(names, choice))


# ---------------------------------------------------------------------------
# Replays with the reference evaluator

def replay_countermodel(spec, payload: dict) -> str | None:
    """payload is SearchResult.to_dict() or the CLI's countermodel JSON."""
    m = model_from_dict(payload["model"])
    cert = payload["certificate"]
    worlds = m.worlds
    for p in spec.premise_formulas:
        if not all(evaluate(m, p, w) for w in worlds):
            return "a premise formula fails on the countermodel"
    for s in spec.premise_schemes:
        for sv in _all_assignments(scheme_vars(s), worlds):
            if not all(evaluate(m, s, w, scheme_vals=sv) for w in worlds):
                return "a premise scheme fails on the countermodel"
    for c in spec.frame_constraints:
        props = relational_properties(worlds, m.frame.access)
        if c == "total":
            ok = all((a, b) in m.frame.access for a in worlds for b in worlds)
        else:
            ok = props[c]
        if not ok:
            return f"the countermodel's frame is not {c}"
    sv = {k: frozenset(v) for k, v in cert.get("assignment", {}).items()}
    w = cert["world"]
    if cert["reading"] == "object":
        if evaluate(m, spec.conclusion, w, scheme_vals=sv):
            return "the conclusion holds at the certificate's world"
    else:
        if not all(evaluate(m, spec.conclusion.lhs, v, scheme_vals=sv)
                   for v in worlds):
            return "the meta certificate's premise instance is not valid"
        if evaluate(m, spec.conclusion.rhs, w, scheme_vals=sv):
            return "the meta certificate's conclusion holds at its world"
    return None


def _frames(n: int, constraints) -> list[Frame]:
    """Every frame on n worlds that meets the named constraints."""
    worlds = [f"w{i}" for i in range(n)]
    pairs = [(a, b) for a in worlds for b in worlds]
    out = []
    for bits in product((0, 1), repeat=len(pairs)):
        access = [e for e, b in zip(pairs, bits) if b]
        props = relational_properties(worlds, access)
        props["total"] = len(access) == len(pairs)
        if all(props[c] for c in constraints):
            out.append(Frame(worlds, access))
    return out


def _models(spec, n: int):
    """Every model on n worlds in the bounds of spec."""
    forms = spec.formulas()
    atoms = sorted(set().union(*(prop_atoms(f) for f in forms)))
    first_order = not all(is_propositional(f) for f in forms)
    preds: dict[str, int] = {}
    for f in forms:
        preds.update(pred_symbols(f))
    for fr in _frames(n, spec.frame_constraints):
        worlds = fr.worlds
        for val in _all_assignments(atoms, worlds):
            if not first_order:
                yield PropModel(fr, val)
                continue
            for d in range(1, spec.max_domain + 1):
                domain = [chr(ord("a") + i) for i in range(d)]
                if spec.mode == "varying":
                    exists = [dict(zip(worlds, c)) for c in product(
                        _subsets(domain), repeat=n)]
                else:
                    exists = [None]
                names = sorted(preds)
                exts = [list(product(_subsets(list(product(
                    domain, repeat=preds[p]))), repeat=n)) for p in names]
                for ex in exists:
                    df = DomainFrame(fr, domain, ex)
                    for choice in product(*exts):
                        flex = {p: FlexiblePred(preds[p], dict(zip(worlds, c)))
                                for p, c in zip(names, choice)}
                        yield FoModel(df, spec.mode, val,
                                      flexible_preds=flex)


def _is_countermodel(m, spec) -> bool:
    worlds = m.worlds
    if not all(evaluate(m, p, w) for p in spec.premise_formulas
               for w in worlds):
        return False
    for s in spec.premise_schemes:
        for sv in _all_assignments(scheme_vars(s), worlds):
            if not all(evaluate(m, s, w, scheme_vals=sv) for w in worlds):
                return False
    c = spec.conclusion
    for sv in _all_assignments(scheme_vars(c), worlds):
        if spec.reading == "object":
            if not all(evaluate(m, c, w, scheme_vals=sv) for w in worlds):
                return True
        elif all(evaluate(m, c.lhs, w, scheme_vals=sv) for w in worlds) \
                and not all(evaluate(m, c.rhs, w, scheme_vals=sv)
                            for w in worlds):
            return True
    return False


def refuted_on_empty_frame(spec) -> bool:
    """Whether some countermodel to spec has one world that sees nothing."""
    def frame(m) -> Frame:
        return m.dframe.frame if isinstance(m, FoModel) else m.frame
    return any(not frame(m).access and _is_countermodel(m, spec)
               for m in _models(spec, 1))


NONE_CHECK_WORLDS = 2
_none_checked: dict = {}


def check_no_countermodel(spec) -> str | None:
    """Problem if brute force finds a countermodel on up to
    min(spec.max_worlds, NONE_CHECK_WORLDS) worlds, where the search said
    there is none.  Remembered per spec, since passes repeat specs."""
    if spec not in _none_checked:
        found = next((n for n in range(1, min(spec.max_worlds,
                                              NONE_CHECK_WORLDS) + 1)
                      if any(_is_countermodel(m, spec)
                             for m in _models(spec, n))), None)
        _none_checked[spec] = None if found is None else \
            f"no countermodel reported, but one exists on {found} worlds"
    return _none_checked[spec]


def _hole_model(df: DomainFrame, pairs) -> FoModel:
    ext = {w: frozenset((e,) for e, x in pairs if x == w) for w in df.worlds}
    return FoModel(df, "varying", flexible_preds={"P": FlexiblePred(1, ext)})


def replay_divergence(result) -> str | None:
    if result is None:
        return "no divergence found, but theory puts one at 2 worlds"
    cert = result.certificate
    fm = result.model
    df = fm.dframe
    lhs, rhs = BF_LHS("P"), BF_RHS("P")
    cells = [(e, w) for e in df.domain for w in df.worlds]
    for bits in product((0, 1), repeat=len(cells)):
        m = _hole_model(df, [c for c, b in zip(cells, bits) if b])
        if all(evaluate(m, lhs, w) for w in df.worlds) and \
                not all(evaluate(m, rhs, w) for w in df.worlds):
            return "the rule reading fails on the divergence model"
    wit = cert["readings"].get("object_witness")
    if wit is None:
        return "divergence certificate has no object witness"
    m = _hole_model(df, [tuple(p) for p in wit["interpretation"]])
    if not (evaluate(m, lhs, wit["world"]) and
            not evaluate(m, rhs, wit["world"])):
        return "the object witness does not refute the implication"
    return None


def replay_gap(result) -> str | None:
    if result is None:
        return "no deduction gap found, but theory puts one at 2 worlds"
    m = result.model
    cert = result.certificate
    conclusion = Imp(SchemeVar("P"), SchemeVar("Q"))
    sv = {k: frozenset(v) for k, v in cert["assignment"].items()}
    lhs_valid = all(evaluate(m, conclusion.lhs, w, scheme_vals=sv)
                    for w in m.worlds)
    rhs_valid = all(evaluate(m, conclusion.rhs, w, scheme_vals=sv)
                    for w in m.worlds)
    if (lhs_valid, rhs_valid) != (cert["lhs_valid"], cert["rhs_valid"]):
        return "gap certificate misreports the validity of its sides"
    if lhs_valid and not rhs_valid:
        return "the rule reading fails at the gap certificate"
    if evaluate(m, conclusion, cert["world"], scheme_vals=sv):
        return "the implication holds at the gap certificate's world"
    return None


# ---------------------------------------------------------------------------
# Reports

_AXIOMS = {k: parse(t) for k, t in {
    "T": "[]P => P", "4": "[]P => [][]P", "B": "P => []<>P",
    "D": "[]P => <>P", "5": "<>P => []<>P",
    "BF": "(forall x. []P(x)) => [] forall x. P(x)",
    "CBF": "[](forall x. P(x)) => forall x. []P(x)"}.items()}


def check_axiom_report(fr: Frame, report: dict) -> str | None:
    props = relational_properties(fr.worlds, fr.access)
    for name, value in report["properties"].items():
        if props[name] != value:
            return f"property {name} misreported"
    m = PropModel(fr, {})
    for axiom_id, entry in report["axioms"].items():
        expect = props[AXIOM_PROPERTY[axiom_id]] \
            if axiom_id in AXIOM_PROPERTY else True
        if entry["holds"] != expect or not entry["consistent"]:
            return f"axiom {axiom_id} verdict contradicts its frame property"
        if not entry["holds"]:
            wit = entry["witness"]
            sv = {k: frozenset(v) for k, v in wit["assignment"].items()}
            if evaluate(m, _AXIOMS[axiom_id], wit["world"], scheme_vals=sv):
                return f"axiom {axiom_id} witness does not refute it"
    return None


def check_barcan_report(df: DomainFrame, report: dict) -> str | None:
    mono = monotonicity(df.frame.access, df.exists_in, df.domain)
    if report["monotonicity"] != mono:
        return "domain monotonicity misreported"
    sym = relational_properties(df.worlds, df.frame.access)["symmetric"]
    if report["symmetric"] != sym:
        return "symmetry misreported"
    expect = {"BF": mono["nonincreasing"], "CBF": mono["nondecreasing"]}
    for axiom_id, entry in report["axioms"].items():
        if entry["holds"] != expect[axiom_id] or not entry["consistent"]:
            return f"{axiom_id} verdict contradicts domain monotonicity"
        if not entry["holds"]:
            wit = entry["witness"]
            m = _hole_model(df, [tuple(p) for p in wit["interpretation"]])
            if evaluate(m, _AXIOMS[axiom_id], wit["world"]):
                return f"{axiom_id} witness does not refute it"
    if not report["bf_iff_cbf_on_symmetric"]:
        return "BF and CBF disagree on a symmetric frame"
    return None


def check_sweep(summary: dict) -> str | None:
    if summary["checked"] != BARCAN_PAIRS_3_2:
        return f"barcan_sweep checked {summary['checked']} pairs, " \
               f"theory counts {BARCAN_PAIRS_3_2}"
    if summary["violations"] or not summary["all_consistent"]:
        return "barcan_sweep reports violations"
    return None


def check_agreement(summary: dict) -> str | None:
    if summary["checked"] != BF_AGREEMENT_MODELS_3_2:
        return f"bf_agreement_sweep checked {summary['checked']} models, " \
               f"theory counts {BF_AGREEMENT_MODELS_3_2}"
    if summary["disagreements"] or not summary["all_agree"]:
        return "bf_agreement_sweep reports disagreements"
    return None


def expect_none(result) -> str | None:
    if result is not None:
        return "found a countermodel where theory says none exists"
    return None


def pool_stopped_early(cert: dict | None) -> str | None:
    """Flag a pooled search (jobs >= 2) that returned a countermodel found
    before the last chunk of its stage, a known open defect.

    The search leaves its pool's ``with`` block while workers still scan
    later chunks, so ``Pool.terminate`` kills them, possibly while one
    holds the result queue's lock; the pool's task handler then waits for
    that lock for ever and the request hangs (measured: 3 hangs in 3000
    such CLI requests on 2 vCPUs, none in 6000 pooled requests that ran to
    their stage's end).  Which request hangs is a race, so every request
    that takes this path counts as failed and ``failed`` repeats exactly
    from run to run.  A stage scans its 2**(n*n) frames in chunks of
    max(1, 2**(n*n) >> 7) frames (``modalkit.search._chunk_ranges``)."""
    if cert is None:
        return None
    total = 1 << cert["worlds"] ** 2
    size = max(1, total >> 7)
    if cert["frame_mask"] // size < (total - 1) // size:
        return "pooled search stopped before its stage's last chunk " \
               "(can hang in Pool.terminate)"
    return None


# ---------------------------------------------------------------------------
# CLI outputs

EXIT_HOLDS, EXIT_FOUND, EXIT_USAGE = 0, 1, 2


def _json_out(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _expect_code(code: int, holds: bool) -> str | None:
    want = EXIT_HOLDS if holds else EXIT_FOUND
    if code != want:
        return f"exit code {code}, expected {want}"
    return None


def cli_pool_stopped_early(out: tuple[int, str, str]) -> str | None:
    """pool_stopped_early for a ``countermodel --json`` answer."""
    doc = _json_out(out[1])
    return pool_stopped_early(doc["certificate"]) \
        if doc and doc.get("found") else None


def check_cli(req: dict, out: tuple[int, str, str]) -> str | None:
    """Check one CLI answer against what the request's inputs imply.

    ``req`` carries the subcommand under ``kind`` and the parsed inputs the
    oracle needs (model dicts, formulas, specs)."""
    code, stdout, _ = out
    kind = req["kind"]
    if kind == "deep":
        if code != EXIT_USAGE:
            return f"exit code {code} for a deeply nested formula, " \
                   f"expected {EXIT_USAGE}"
        return None
    if kind == "render":
        if code != EXIT_HOLDS:
            return f"render exited {code}"
        if req["format"] != "latex" and \
                parse(stdout.rstrip("\n")) != parse(req["formula"]):
            return "rendered text does not parse back to the input"
        return None
    doc = _json_out(stdout)
    if doc is None:
        return "stdout is not one JSON document"
    if kind == "check":
        m = model_from_dict(req["model"])
        f = parse(req["formula"])
        truth = [evaluate(m, f, w) for w in m.worlds]
        if "world" in req:
            value = truth[m.worlds.index(req["world"])]
            if doc.get("value") != value:
                return "check value contradicts the reference evaluator"
            return _expect_code(code, value)
        holds = all(truth)
        if doc.get("valid") != holds:
            return "check verdict contradicts the reference evaluator"
        if not holds and doc["witness"]["world"] != \
                m.worlds[truth.index(False)]:
            return "check witness is not the least failing world"
        return _expect_code(code, holds)
    if kind == "frame-valid":
        fr = frame_of(req["frame"])
        if doc["holds"]:
            return _expect_code(code, True)
        wit = doc["witness"]
        val = {k: v for k, v in wit["assignment"].items() if k[0].islower()}
        sv = {k: frozenset(v) for k, v in wit["assignment"].items()
              if k[0].isupper()}
        if evaluate(PropModel(fr, val), parse(req["scheme"]), wit["world"],
                    scheme_vals=sv):
            return "frame-valid witness does not refute the scheme"
        return _expect_code(code, False)
    if kind == "correspond":
        fr = frame_of(req["frame"])
        problem = check_axiom_report(fr, doc)
        if problem:
            return problem
        return _expect_code(code, all(e["holds"]
                                      for e in doc["axioms"].values()))
    if kind == "barcan":
        d = req["dframe"]
        df = DomainFrame(frame_of(d), d["domain"], d["exists_in"])
        problem = check_barcan_report(df, doc)
        if problem:
            return problem
        return _expect_code(code, all(e["holds"]
                                      for e in doc["axioms"].values()))
    if kind == "countermodel":
        if not doc["found"]:
            return check_no_countermodel(req["spec"]) or \
                _expect_code(code, True)
        problem = replay_countermodel(req["spec"], doc)
        return problem or _expect_code(code, False)
    return f"unknown request kind {kind!r}"
