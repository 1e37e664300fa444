"""Axiom/property correspondence reports and frame refutation.

The reports run each as one truth-set program; the oracles below compose
them from one single-model check per scheme, and every witness a report
gives is replayed through the reference evaluate, which shares no code with
either.  Run as a script, this file does both on every 4-world frame and
every barcan_sweep(3, 2) point (about a minute):
``PYTHONPATH=src python tests/test_correspondence.py``.
"""

import json
import random
import sys
from functools import partial

import pytest

from modalkit import (AXIOM_IDS, AXIOM_PROPERTY, AXIOM_SCHEMES, BF_SCHEME,
                      Box, Budget, CBF_SCHEME, DomainFrame, FlexiblePred,
                      FoModel, Frame, PropModel, ResourceLimit, SchemeVar,
                      axiom_report, axiom_scheme, barcan_report,
                      domain_monotonicity, evaluate, fo_scheme_valid,
                      frame_property, frame_valid, meta_implies, parse,
                      refute_on_frame, render)
from modalkit.model import FRAME_PROPERTIES
from modalkit.search import enumerate_frames, frame_from_mask
import modalkit.correspondence as corr
import modalkit.semantics as sem

from test_semantics import _block_bits


EQUIV = Frame(("a", "b"),
              (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")))
NONREFL = Frame(("a", "b"), (("a", "b"), ("b", "b")))


class TestSchemeTable:
    def test_ids_and_texts(self):
        assert AXIOM_IDS == ("K", "T", "4", "B", "D", "5", "N", "BF", "CBF")
        assert AXIOM_SCHEMES["N"] is None
        for aid, text in AXIOM_SCHEMES.items():
            if text is not None:
                axiom_scheme(aid)  # parses

    def test_canonical_ascii_spellings(self):
        # right side of => needs no parens under right associativity
        assert render(axiom_scheme("K"), "ascii") == \
            "[](P => Q) => []P => []Q"
        assert parse("[](P => Q) => ([]P => []Q)") == axiom_scheme("K")
        assert render(axiom_scheme("T"), "ascii") == "[]P => P"
        assert render(axiom_scheme("4"), "ascii") == "[]P => [][]P"
        assert render(axiom_scheme("B"), "ascii") == "P => []<>P"
        assert render(axiom_scheme("D"), "ascii") == "[]P => <>P"
        assert render(axiom_scheme("5"), "ascii") == "<>P => []<>P"
        assert render(BF_SCHEME, "ascii") == \
            "(forall x. []P(x)) => [] forall x. P(x)"
        assert render(CBF_SCHEME, "ascii") == \
            "[](forall x. P(x)) => forall x. []P(x)"

    def test_n_has_no_scheme(self):
        with pytest.raises(ValueError):
            axiom_scheme("N")

    def test_property_pairing(self):
        assert AXIOM_PROPERTY == {"T": "reflexive", "4": "transitive",
                                  "B": "symmetric", "D": "serial",
                                  "5": "euclidean"}


class TestAxiomReport:
    def test_equivalence_frame(self):
        rep = axiom_report(EQUIV)
        assert rep["properties"] == {
            "reflexive": True, "serial": True, "symmetric": True,
            "transitive": True, "euclidean": True, "equivalence": True}
        for aid in ("K", "T", "4", "B", "D", "5", "N"):
            assert rep["axioms"][aid]["holds"], aid
            assert rep["axioms"][aid]["consistent"], aid
        assert rep["axioms"]["T"]["frame_property"] == "reflexive"
        assert "frame_property" not in rep["axioms"]["K"]

    def test_nonreflexive_frame(self):
        rep = axiom_report(NONREFL)
        assert not rep["properties"]["reflexive"]
        t = rep["axioms"]["T"]
        assert not t["holds"] and not t["property"] and t["consistent"]
        assert t["witness"] == {"world": "a", "assignment": {"P": ["b"]}}
        assert rep["axioms"]["K"]["holds"]
        assert rep["axioms"]["N"]["holds"]

    def test_k_witness_decodes_p_and_q(self, monkeypatch):
        # K holds on every frame, so its witness, the one that spans Q, is
        # decoded only under a scheme that fails: it is frame_valid's.
        f = parse("P & Q => []~P")
        forms = corr._report_formulas()
        monkeypatch.setattr(corr, "_report_formulas", lambda: (f, *forms[1:]))
        k = axiom_report(NONREFL)["axioms"]["K"]
        assert k["witness"] == frame_valid(NONREFL, f).to_dict()["witness"]
        assert k["witness"]["assignment"] == {"P": ["a", "b"], "Q": ["a"]}

    def test_consistent_on_all_small_frames(self):
        for n in (1, 2, 3):
            for fr in enumerate_frames(n):
                rep = axiom_report(fr)
                for aid, entry in rep["axioms"].items():
                    assert entry["consistent"], (fr.access, aid)

    def test_k_and_n_hold_everywhere(self):
        for fr in enumerate_frames(2):
            rep = axiom_report(fr)
            assert rep["axioms"]["K"]["holds"]
            assert rep["axioms"]["N"]["holds"]


def _df(frame, domain, exists):
    return DomainFrame(frame, domain, exists)


class TestBarcanReport:
    def test_shrinking_domain(self):
        fr = Frame(("w0", "w1"), (("w0", "w1"),))
        rep = barcan_report(_df(fr, ("a",), {"w0": ["a"], "w1": []}))
        assert rep["monotonicity"] == {
            "constant": False, "nondecreasing": False, "nonincreasing": True}
        assert rep["axioms"]["BF"]["holds"]
        assert not rep["axioms"]["CBF"]["holds"]
        assert rep["axioms"]["BF"]["consistent"]
        assert rep["axioms"]["CBF"]["consistent"]
        assert rep["axioms"]["CBF"]["witness"]["world"] == "w0"

    def test_growing_domain(self):
        fr = Frame(("w0", "w1"), (("w0", "w1"),))
        rep = barcan_report(_df(fr, ("a",), {"w0": [], "w1": ["a"]}))
        assert not rep["axioms"]["BF"]["holds"]
        assert rep["axioms"]["CBF"]["holds"]
        assert rep["axioms"]["BF"]["consistent"]
        assert rep["axioms"]["CBF"]["consistent"]

    def test_constant_domain(self):
        fr = Frame(("w0", "w1"), (("w0", "w1"),))
        rep = barcan_report(DomainFrame(fr, ("a", "b")))
        assert rep["monotonicity"]["constant"]
        assert rep["axioms"]["BF"]["holds"]
        assert rep["axioms"]["CBF"]["holds"]

    def test_symmetric_frame_links_bf_and_cbf(self):
        fr = Frame(("w0", "w1"),
                   (("w0", "w1"), ("w1", "w0")))
        for ex in ({"w0": ["a"], "w1": []}, {"w0": [], "w1": ["a"]},
                   {"w0": ["a"], "w1": ["a"]}, {"w0": [], "w1": []}):
            rep = barcan_report(_df(fr, ("a",), ex))
            assert rep["symmetric"]
            assert rep["bf_iff_cbf_on_symmetric"]
            assert rep["axioms"]["BF"]["holds"] == \
                rep["axioms"]["CBF"]["holds"]


class TestRefuteOnFrame:
    def test_t_pin(self):
        got = refute_on_frame(NONREFL, axiom_scheme("T"))
        assert got == ({"P": ("b",)}, "a")

    def test_refutation_revalidates(self):
        val, w = refute_on_frame(NONREFL, axiom_scheme("T"))
        m = PropModel(NONREFL, {"p": val["P"]})
        assert not evaluate(m, parse("[]p => p"), w)

    def test_none_when_frame_valid(self):
        assert refute_on_frame(EQUIV, axiom_scheme("T")) is None
        assert refute_on_frame(NONREFL, axiom_scheme("K")) is None

    def test_lowercase_atoms_refutable_too(self):
        got = refute_on_frame(NONREFL, parse("[]p => p"))
        assert got == ({"p": ("b",)}, "a")

    def test_full_correspondence_sweep(self):
        """frame_valid(axiom) iff frame_property(property), every axiom with
        a paired property, every frame with at most 3 worlds."""
        for n in (1, 2, 3):
            for fr in enumerate_frames(n):
                for aid, prop in AXIOM_PROPERTY.items():
                    assert (refute_on_frame(fr, axiom_scheme(aid)) is None) \
                        == frame_property(fr, prop), (fr.access, aid)


# ---------------------------------------------------------------------------
# Oracles: each report as one single-model check per scheme, in entry order

def _entry(verdict, prop):
    out = {"holds": verdict.holds, "property": prop,
           "consistent": verdict.holds == prop}
    if not verdict.holds:
        out["witness"] = verdict.to_dict()["witness"]
    return out


def oracle_axiom_report(fr, budget):
    props = {p: frame_property(fr, p) for p in FRAME_PROPERTIES}
    axioms = {"K": _entry(frame_valid(fr, axiom_scheme("K"), budget), True)}
    for aid, prop in AXIOM_PROPERTY.items():
        axioms[aid] = _entry(frame_valid(fr, axiom_scheme(aid), budget),
                             props[prop])
        axioms[aid]["frame_property"] = prop
    axioms["N"] = _entry(meta_implies(PropModel(fr, {}), [SchemeVar("P")],
                                      Box(SchemeVar("P")), budget), True)
    return {"properties": props, "axioms": axioms}


def oracle_barcan_report(df, budget):
    fm = FoModel(df, "varying")
    mono = domain_monotonicity(df)
    bf = fo_scheme_valid(fm, BF_SCHEME, "P", budget)
    cbf = fo_scheme_valid(fm, CBF_SCHEME, "P", budget)
    symmetric = frame_property(df.frame, "symmetric")
    return {"monotonicity": {"constant": mono.constant,
                             "nondecreasing": mono.nondecreasing,
                             "nonincreasing": mono.nonincreasing},
            "symmetric": symmetric,
            "axioms": {"BF": _entry(bf, mono.nonincreasing),
                       "CBF": _entry(cbf, mono.nondecreasing)},
            "bf_iff_cbf_on_symmetric": (not symmetric)
            or (bf.holds == cbf.holds)}


def replay_axiom_report(fr, report):
    """Each witness of an axiom report fails under evaluate: the scheme at
    its world and assignment, and for N, P valid on fr and []P false."""
    m, P = PropModel(fr, {}), SchemeVar("P")
    for aid, entry in report["axioms"].items():
        if "witness" in entry:
            w, sv = entry["witness"]["world"], entry["witness"]["assignment"]
            refuted = (all(evaluate(m, P, v, scheme_vals=sv)
                           for v in fr.worlds)
                       and not evaluate(m, Box(P), w, scheme_vals=sv)
                       if aid == "N" else
                       not evaluate(m, axiom_scheme(aid), w, scheme_vals=sv))
            assert refuted, (fr.access, aid, entry["witness"])


def replay_barcan_report(df, report):
    """Each witness of a Barcan report fails under evaluate: the scheme at
    its world, with P interpreted by its (element, world) pairs."""
    for aid, scheme in (("BF", BF_SCHEME), ("CBF", CBF_SCHEME)):
        wit = report["axioms"][aid].get("witness")
        if wit is not None:
            ext = {w: {(e,) for e, v in wit["interpretation"] if v == w}
                   for w in df.frame.worlds}
            fm = FoModel(df, "varying",
                         flexible_preds={"P": FlexiblePred(1, ext)})
            assert not evaluate(fm, scheme, wit["world"]), (aid, wit)


_REPLAY = {axiom_report: replay_axiom_report,
           barcan_report: replay_barcan_report}


class _Ledger(Budget):
    """A budget that records the running total after each charge."""

    def __init__(self, limit=None):
        super().__init__(limit)
        self.totals = []

    def charge(self, n=1):
        self.totals.append(self.used + n)
        super().charge(n)


def _same_report(report, oracle, x, trips=True):
    """report(x, budget) matches oracle(x, budget) byte for byte, with the
    same Budget.used, its witnesses replay through evaluate, and with a
    limit one below each running total of the oracle's ledger, both trip
    with that total used."""
    want, got = _Ledger(10**9), Budget(10**9)
    text, rep = json.dumps(oracle(x, want), sort_keys=True), report(x, got)
    assert json.dumps(rep, sort_keys=True) == text, x
    assert got.used == want.used, x
    _REPLAY[report](x, rep)
    for total in want.totals if trips else ():
        for run in (report, oracle):
            bud = Budget(total - 1)
            with pytest.raises(ResourceLimit):
                run(x, bud)
            assert bud.used == total, (x, total)


def _barcan_point(n, fmask, emask, d=2):
    fr = frame_from_mask(n, fmask)
    fields = sem._fields(n, d, (), (), True)
    domain = tuple("ab"[:d])
    return DomainFrame(fr, domain, sem._decode(fields, domain, fr.worlds,
                                                emask)[2])


def _barcan_points(max_worlds=3, d=2):
    return [(n, fmask, emask) for n in range(1, max_worlds + 1)
            for fmask in range(1 << n * n) for emask in range(1 << n * d)]


class TestReportsMatchOracles:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_frame_up_to_3_worlds(self, n):
        for mask in range(1 << n * n):
            _same_report(axiom_report, oracle_axiom_report,
                         frame_from_mask(n, mask))

    def test_4_world_sample(self):
        rng = random.Random(4)
        for mask in rng.sample(range(1 << 16), 150):
            _same_report(axiom_report, oracle_axiom_report,
                         frame_from_mask(4, mask), trips=mask % 5 == 0)

    def test_wider_frames_scan_several_blocks(self):
        rng = random.Random(7)
        for mask in (0, (1 << 49) - 1, rng.getrandbits(49)):
            _same_report(axiom_report, oracle_axiom_report,
                         frame_from_mask(7, mask))

    def test_barcan_sweep_sample(self):
        points = random.Random(32).sample(_barcan_points(), 400)
        for point in points + [(1, 0, 0), (2, 15, 15)]:
            _same_report(barcan_report, oracle_barcan_report,
                         _barcan_point(*point))

    def test_empty_and_one_element_domains(self):
        for d in (0, 1):
            for n, fmask, emask in _barcan_points(2, d):
                _same_report(barcan_report, oracle_barcan_report,
                             _barcan_point(n, fmask, emask, d))

    def test_one_block_scan_matches_several_blocks(self):
        """Each report's instances in the one block of 2**12 that holds
        them all, and in _blocks' blocks of 2**2, give the same bytes and
        Budget.used: every frame to 3 worlds, and a seeded sample of
        barcan_sweep(3, 2) points."""
        cases = [(axiom_report, frame_from_mask(n, mask))
                 for n in (1, 2, 3) for mask in range(1 << n * n)]
        cases += [(barcan_report, _barcan_point(*p))
                  for p in random.Random(33).sample(_barcan_points(), 200)]
        for report, x in cases:
            got = []
            for bits in (12, 2):
                bud = Budget(10**9)
                with _block_bits(bits):
                    got.append((json.dumps(report(x, bud)), bud.used))
            assert got[0] == got[1], x

    def test_replay_refutes_a_moved_witness(self):
        rep = axiom_report(NONREFL)
        replay_axiom_report(NONREFL, rep)
        rep["axioms"]["T"]["witness"]["world"] = "b"    # T holds at b
        with pytest.raises(AssertionError):
            replay_axiom_report(NONREFL, rep)
        fr = Frame(("w0", "w1"), (("w0", "w1"),))
        df = _df(fr, ("a",), {"w0": ["a"], "w1": []})
        rep = barcan_report(df)
        replay_barcan_report(df, rep)
        rep["axioms"]["CBF"]["witness"]["world"] = "w1"   # no successor
        with pytest.raises(AssertionError):
            replay_barcan_report(df, rep)

    def test_too_wide_is_refused_as_the_oracle_does(self):
        for report, oracle, x in (
                (axiom_report, oracle_axiom_report, frame_from_mask(13, 0)),
                (barcan_report, oracle_barcan_report,
                 DomainFrame(frame_from_mask(3, 0), tuple("abcdefg")))):
            with pytest.raises(ResourceLimit) as want:
                oracle(x, Budget(10**9))
            with pytest.raises(ResourceLimit) as got:
                report(x, Budget(10**9))
            assert str(got.value) == str(want.value)


def main() -> int:
    """Compare both reports with their oracles on every 4-world frame and
    every barcan_sweep(3, 2) point, budgets included, and replay every
    witness they give through evaluate."""
    for name, report, oracle, xs in (
            ("axiom_report", axiom_report, oracle_axiom_report,
             (partial(frame_from_mask, 4, m) for m in range(1 << 16))),
            ("barcan_report", barcan_report, oracle_barcan_report,
             (partial(_barcan_point, *p) for p in _barcan_points()))):
        count = 0
        for x in xs:
            _same_report(report, oracle, x(), trips=False)
            count += 1
        print(f"{name}: {count} inputs match the oracle, witnesses "
              "replayed through evaluate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
