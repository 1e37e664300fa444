"""Bounded countermodel search: enumeration order, pinned least witnesses,
exhaustive sweeps, and independence of the answer from the jobs count."""

import multiprocessing.pool
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import modalkit.formula as formula
import modalkit.search as search
import modalkit.semantics as sem
from conftest import random_prop_formula, seeded_randoms
from modalkit import (BF_SCHEME, CBF_SCHEME, FRAME_PROPERTIES, And, Box, Dia,
                      DomainFrame, Eq, Exists, FlexiblePred, FoModel, Forall,
                      Frame, Iff, Imp, Not, Or, PredAtom, PropAtom, PropModel,
                      StrictImp, ResourceLimit, SchemeVar, SearchResult,
                      SearchSpec, barcan_sweep, bf_agreement_sweep,
                      bf_readings, domain_monotonicity, evaluate,
                      find_barcan_divergence, find_countermodel,
                      find_deduction_gap, find_fo_countermodel,
                      fo_scheme_valid, frame_property, is_total, meta_implies,
                      model_from_dict, model_to_dict, parse, render,
                      scheme_valid, valid)
from modalkit.formula import BoundVar, is_propositional, scheme_vars
from modalkit.model import _bits, _extension, _pairs
from modalkit.search import (CONSTRAINT_NAMES, enumerate_frames, frame_from_mask,
                             frame_mask)
from modalkit.semantics import Budget, EvalError
from test_semantics import _block_bits

TOLLENS = parse("(P => Q) => ([]~Q => []~P)")


def relabel_orbit(n, mask):
    """All masks reachable by permuting world labels (brute force)."""
    out = set()
    for perm in permutations(range(n)):
        pm = 0
        for i in range(n):
            for j in range(n):
                if mask >> (i * n + j) & 1:
                    pm |= 1 << (perm[i] * n + perm[j])
        out.add(pm)
    return out


class TestFrameEnumeration:
    def test_mask_round_trip(self):
        for n in (1, 2, 3):
            for mask in range(1 << (n * n)):
                fr = frame_from_mask(n, mask)
                assert frame_mask(fr) == mask
                assert fr.worlds == tuple(f"w{i}" for i in range(n))

    def test_mask_bit_layout(self):
        fr = frame_from_mask(2, 0b0010)   # bit 1 = source 0, target 1
        assert fr.access == frozenset({("w0", "w1")})

    def test_counts(self):
        assert len(list(enumerate_frames(1))) == 2
        assert len(list(enumerate_frames(2))) == 16
        assert len(list(enumerate_frames(3))) == 512

    def test_constraint_filters_against_oracle(self):
        for name in ("reflexive", "serial", "symmetric", "transitive",
                     "euclidean", "equivalence"):
            got = list(enumerate_frames(2, [name]))
            assert [frame_mask(f) for f in got] == \
                [m for m in range(16)
                 if frame_property(frame_from_mask(2, m), name)]
        assert len(list(enumerate_frames(2, ["symmetric"]))) == 8
        assert len(list(enumerate_frames(2, ["serial"]))) == 9

    def test_total_constraint_is_the_universal_relation(self):
        got = enumerate_frames(2, ["total"])
        assert [frame_mask(f) for f in got] == [0b1111]

    def test_none_constraint_is_no_filter(self):
        assert len(list(enumerate_frames(2, ["none"]))) == 16
        assert "none" in CONSTRAINT_NAMES

    def test_unknown_constraint_rejected(self):
        with pytest.raises(ValueError):
            enumerate_frames(2, ["dense"])

    def test_dedup_matches_orbit_count(self):
        for n, expect in ((1, 2), (2, 10), (3, 104)):
            classes = {min(relabel_orbit(n, m)) for m in range(1 << (n * n))}
            got = [frame_mask(f) for f in enumerate_frames(n, dedup=True)]
            assert got == sorted(classes)
            assert len(got) == expect

    def test_dedup_n2_representatives(self):
        got = [frame_mask(f) for f in enumerate_frames(2, dedup=True)]
        assert got == [0, 1, 2, 3, 5, 6, 7, 9, 11, 15]

    def test_dedup_keeps_constraint(self):
        for f in enumerate_frames(3, ["reflexive"], dedup=True):
            assert frame_property(f, "reflexive")

    def test_dedup_equals_canonical_then_constraint_filter(self):
        for n in (1, 2, 3):
            canonical = [m for m in range(1 << (n * n))
                         if min(relabel_orbit(n, m)) == m]
            for name in CONSTRAINT_NAMES:
                cs = frozenset({name}) - {"none"}
                got = enumerate_frames(n, [name], dedup=True)
                assert [frame_mask(f) for f in got] == \
                    [m for m in canonical
                     if cs <= relational_props(frame_from_mask(n, m))]

    def test_dedup_equivalences_on_four_worlds_are_the_partitions_of_4(self):
        got = list(enumerate_frames(4, ["equivalence"], dedup=True))
        blocks = [sorted(len(c) for c in {fr.successors(w)
                                          for w in fr.worlds})
                  for fr in got]
        assert sorted(blocks) == [[1, 1, 1, 1], [1, 1, 2], [1, 3], [2, 2],
                                  [4]]


# ---------------------------------------------------------------------------
# Constrained frame generation against a relational reference: each
# property decided on the Frame.access pairs alone, never on rows.

def relational_props(fr: Frame) -> frozenset[str]:
    """The constraint names (all but "none") that fr meets."""
    ws, acc = fr.worlds, fr.access
    succ = {w: {b for a, b in acc if a == w} for w in ws}
    props = {
        "reflexive": all((w, w) in acc for w in ws),
        "serial": all(succ[w] for w in ws),
        "symmetric": all((b, a) in acc for a, b in acc),
        "transitive": all((a, c) in acc for a, b in acc for c in succ[b]),
        "euclidean": all((b, c) in acc for a, b in acc for c in succ[a]),
        "total": len(acc) == len(ws) ** 2,
    }
    props["equivalence"] = (props["reflexive"] and props["symmetric"]
                            and props["transitive"])
    return frozenset(p for p, holds in props.items() if holds)


_CONSTRAINT_SETS = [frozenset(cs) for k in (1, 2)
                    for cs in combinations(CONSTRAINT_NAMES[:-1], k)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generated_masks_match_the_relational_reference(n):
    whole = range(1 << (n * n))
    table = [relational_props(frame_from_mask(n, m)) for m in whole]
    for cs in _CONSTRAINT_SETS:
        want = [m for m in whole if cs <= table[m]]
        assert list(search._masks(n, whole, cs)) == want, sorted(cs)
        chunks = [m for lo, hi in search._chunk_ranges(len(whole))
                  for m in search._masks(n, range(lo, hi), cs)]
        assert chunks == want, sorted(cs)


@given(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=5,
                unique=True), st.data())
@settings(max_examples=300, deadline=None)
def test_row_tests_match_the_relational_reference(worlds, data):
    """frame_property and is_total on any world names, in any declaration
    order, over sparse relations and their (dense) complements."""
    pairs = [(a, b) for a in worlds for b in worlds]
    access = data.draw(st.sets(st.sampled_from(pairs)))
    if data.draw(st.booleans()):
        access = set(pairs) - access
    fr = Frame(worlds, access)
    props = relational_props(fr)
    for prop in FRAME_PROPERTIES:
        assert frame_property(fr, prop) == (prop in props), prop
    assert is_total(fr) == ("total" in props)


@pytest.mark.parametrize("text, constraint, admitted", [
    ("<>P => []<>P", "equivalence", 1 + 2 + 5 + 15),     # Bell numbers
    ("[]P => [][]P", "transitive", 2 + 13 + 171 + 3994),  # OEIS A006905
])
def test_constrained_search_builds_only_admitted_frames(
        monkeypatch, text, constraint, admitted):
    """The scan labels exactly the admitted frames, as edge columns, and
    builds a Frame for none of them when no countermodel is found."""
    real_masks, real_frame, labelled, built = (search._masks,
                                               search.frame_from_mask, [], [])

    def counting_masks(n, masks, constraints=frozenset()):
        out = list(real_masks(n, masks, constraints))
        labelled.extend(out)
        return out

    def counting_frames(n, mask):
        built.append(mask)
        return real_frame(n, mask)
    monkeypatch.setattr(search, "_masks", counting_masks)
    monkeypatch.setattr(search, "frame_from_mask", counting_frames)
    spec = SearchSpec(parse(text), frame_constraints={constraint},
                      max_worlds=4)
    assert find_countermodel(spec) is None
    assert len(labelled) == admitted
    assert built == []


def test_found_countermodel_builds_only_its_frame(monkeypatch):
    real, built = search.frame_from_mask, []

    def counting(n, mask):
        built.append(mask)
        return real(n, mask)
    monkeypatch.setattr(search, "frame_from_mask", counting)
    spec = SearchSpec(parse("[]P => [][]P"), frame_constraints={"reflexive"},
                      max_worlds=4)
    r = find_countermodel(spec)
    assert built == [r.certificate["frame_mask"]] == [285]


@pytest.mark.parametrize("call, witness", [
    (lambda: barcan_sweep(2, 2), False),
    (lambda: bf_agreement_sweep(2, 2), False),
    (lambda: find_barcan_divergence(2, 1), True),
    (lambda: find_deduction_gap(), True),
], ids=["barcan_sweep", "bf_agreement_sweep", "find_barcan_divergence",
        "find_deduction_gap"])
def test_scans_build_only_their_payload_frames(monkeypatch, call, witness):
    """The sweeps and the exchange and gap searches label their frames as
    edge columns: a Frame is built for a witness only."""
    real, built = search.frame_from_mask, []

    def counting(n, mask):
        built.append(mask)
        return real(n, mask)
    monkeypatch.setattr(search, "frame_from_mask", counting)
    out = call()
    assert built == ([out.certificate["frame_mask"]] if witness else [])


# One search to 4 worlds per constraint: the certificate (None when the
# bounded space holds no countermodel), the units the scan charges up to
# its answer, and the world count at which a budget one unit short trips.
# Each admitted frame's candidate is charged the conclusion's full size,
# worlds x 2**(instance bits), up to and including the hit; filtering
# frames never charges a unit.
CONSTRAINED_PINS = {
    "reflexive": ("[]P => [][]P", 202, 3, {
        "worlds": 3, "frame_mask": 285, "reading": "object",
        "conclusion": "[]P => [][]P", "world": "w1",
        "assignment": {"P": ["w0", "w1"]}}),
    "transitive": ("[]P => [][]P", 259828, 4, None),
    "symmetric": ("[]P => [][]P", 28, 2, {
        "worlds": 2, "frame_mask": 6, "reading": "object",
        "conclusion": "[]P => [][]P", "world": "w0",
        "assignment": {"P": ["w1"]}}),
    "serial": ("[]P => P", 10, 2, {
        "worlds": 2, "frame_mask": 5, "reading": "object",
        "conclusion": "[]P => P", "world": "w1", "assignment": {"P": ["w0"]}}),
    "euclidean": ("<>P => []<>P", 20580, 4, None),
    "equivalence": ("<>P => []<>P", 1098, 4, None),
    "total": ("[]P => [][]P", 98, 4, None),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("constraint", sorted(CONSTRAINED_PINS))
def test_constrained_search_is_pinned(constraint, jobs):
    text, used, trip_worlds, cert = CONSTRAINED_PINS[constraint]
    spec = SearchSpec(parse(text), frame_constraints={constraint},
                      max_worlds=4)
    r = find_countermodel(spec, jobs=jobs, budget=used)
    assert (None if r is None else r.certificate) == cert
    with pytest.raises(ResourceLimit) as ei:
        find_countermodel(spec, jobs=jobs, budget=used - 1)
    assert ei.value.args[0] == \
        f"evaluator budget exhausted ({used - 1} units)"
    assert ei.value.frontier == {"worlds": trip_worlds}


def test_k_to_four_worlds_is_pinned():
    """K over p and q holds on every frame to 4 worlds: 65536 frames at the
    last stage, 16 to a block.  The units are the per-frame scan's."""
    spec = SearchSpec(parse("[](p => q) => ([]p => []q)"), max_worlds=4)
    used = 67207688
    assert find_countermodel(spec, jobs=1, budget=used) is None
    with pytest.raises(ResourceLimit) as ei:
        find_countermodel(spec, jobs=1, budget=used - 1)
    assert ei.value.frontier == {"worlds": 4}


class TestSearchSpecValidation:
    def test_bad_reading(self):
        with pytest.raises(ValueError):
            SearchSpec(parse("P"), reading="sideways")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SearchSpec(parse("P"), mode="oscillating")

    def test_bad_constraint(self):
        with pytest.raises(ValueError):
            SearchSpec(parse("P"), frame_constraints={"shiny"})

    def test_meta_reading_needs_implication(self):
        with pytest.raises(ValueError):
            SearchSpec(parse("[]P"), reading="meta")
        SearchSpec(parse("P => Q"), reading="meta")  # fine

    def test_min_worlds(self):
        with pytest.raises(ValueError):
            SearchSpec(parse("P"), max_worlds=0)

    @pytest.mark.parametrize("premises", [["P => p"], ["q & ~q", "P => p"]])
    def test_metavariable_in_premise_formula(self, premises):
        # refused whether or not a candidate would reach that premise
        with pytest.raises(ValueError, match="metavariables"):
            SearchSpec(parse("p"), tuple(map(parse, premises)))

    def test_scheme_premise_must_be_propositional(self):
        with pytest.raises(ValueError, match="propositional"):
            SearchSpec(parse("p"), premise_schemes=(
                parse("forall x. alive(x)"),))

    def test_negative_domain(self):
        with pytest.raises(ValueError, match="max_domain must be at least 0"):
            SearchSpec(parse("[]P => P"), max_domain=-1)
        SearchSpec(parse("[]P => P"), max_domain=0)  # propositional search


# Each entry point with a bound below its least meaningful value: a plain
# ValueError, not a vacuous answer or an accidental error.
BAD_BOUNDS = {
    "barcan_sweep worlds": (lambda: barcan_sweep(0, 2),
                            "max_worlds must be at least 1"),
    "barcan_sweep domain": (lambda: barcan_sweep(2, -1),
                            "domain_size must be at least 0"),
    "bf_agreement_sweep worlds": (lambda: bf_agreement_sweep(0, 2),
                                  "max_worlds must be at least 1"),
    "bf_agreement_sweep domain": (lambda: bf_agreement_sweep(2, 0),
                                  "max_domain must be at least 1"),
    "find_barcan_divergence worlds": (lambda: find_barcan_divergence(-1, 2),
                                      "max_worlds must be at least 1"),
    "find_barcan_divergence domain": (lambda: find_barcan_divergence(2, 0),
                                      "max_domain must be at least 1"),
    "find_deduction_gap worlds": (lambda: find_deduction_gap(max_worlds=0),
                                  "max_worlds must be at least 1"),
    # elements are named a to z
    "barcan_sweep domain 27": (lambda: barcan_sweep(1, 27),
                               "domain_size 27 exceeds the domain ceiling"),
    "bf_agreement_sweep domain 27": (lambda: bf_agreement_sweep(1, 27),
                                     "max_domain 27 exceeds the domain "
                                     "ceiling"),
    "find_barcan_divergence domain 27": (
        lambda: find_barcan_divergence(1, 27),
        "max_domain 27 exceeds the domain ceiling"),
    "find_fo_countermodel domain 27": (
        lambda: find_fo_countermodel(SearchSpec(BF_SCHEME, max_worlds=1,
                                                max_domain=27)),
        "max_domain 27 exceeds the domain ceiling"),
}


@pytest.mark.parametrize("case", sorted(BAD_BOUNDS))
def test_bad_bound_is_a_value_error(case):
    call, message = BAD_BOUNDS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_domain_ceiling_is_refused_before_the_scan(monkeypatch):
    def scanned(*args):
        raise AssertionError("a chunk was scanned")
    for worker in ("_spec_chunk", "_div_chunk", "_sweep_chunk",
                   "_agree_chunk", "_gap_chunk"):
        monkeypatch.setattr(search, worker, scanned)
    for case in BAD_BOUNDS:
        if case.endswith("domain 27"):
            with pytest.raises(ValueError, match="domain ceiling"):
                BAD_BOUNDS[case][0]()


def test_empty_domain_sweep_is_a_real_sweep():
    # domain size 0 is the empty domain, on which both schemes hold
    assert barcan_sweep(2, 0) == {"max_worlds": 2, "domain_size": 0,
                                  "checked": 18, "violations": [],
                                  "all_consistent": True}


class TestFindCountermodel:
    def test_t_least_witness(self):
        r = find_countermodel(SearchSpec(parse("[]P => P")))
        c = r.certificate
        assert c["worlds"] == 1 and c["frame_mask"] == 0
        assert c["world"] == "w0"
        assert c["assignment"] == {"P": []}
        assert c["reading"] == "object"

    def test_tollens_object_least_witness(self):
        r = find_countermodel(SearchSpec(TOLLENS))
        c = r.certificate
        assert c["worlds"] == 2
        assert c["frame_mask"] == 2          # single edge w0 -> w1
        assert c["world"] == "w0"
        assert c["assignment"] == {"P": ["w1"], "Q": []}

    def test_tollens_meta_has_no_countermodel(self):
        spec = SearchSpec(TOLLENS, reading="meta")
        assert find_countermodel(spec) is None

    def test_k_has_no_countermodel(self):
        assert find_countermodel(
            SearchSpec(parse("[](P => Q) => ([]P => []Q)"))) is None

    def test_constraint_respected(self):
        spec = SearchSpec(parse("[]P => P"),
                          frame_constraints={"reflexive"})
        assert find_countermodel(spec) is None

    def test_premises_hold_on_result(self):
        spec = SearchSpec(parse("g"),
                          premise_schemes=(parse("P => []P"),),
                          frame_constraints={"symmetric"},
                          max_worlds=2)
        r = find_countermodel(spec)
        assert r is not None
        m = r.model
        assert not evaluate(m, parse("g"), r.certificate["world"])
        assert r.certificate["scheme_premises"] == ["P => []P"]

    def test_possibility_premise_blocks_it(self):
        spec = SearchSpec(parse("g"),
                          premise_formulas=(parse("<>g"),),
                          premise_schemes=(parse("P => []P"),),
                          frame_constraints={"symmetric"})
        assert find_countermodel(spec) is None

    def test_fo_conclusion_rejected(self):
        with pytest.raises(ValueError):
            find_countermodel(SearchSpec(parse("forall x. alive(x)")))

    def test_world_ceiling(self):
        with pytest.raises(ValueError):
            find_countermodel(SearchSpec(parse("P"), max_worlds=9))

    def test_result_serializes_and_model_round_trips(self):
        r = find_countermodel(SearchSpec(TOLLENS))
        d = r.to_dict()
        assert set(d) == {"model", "certificate"}
        m2 = model_from_dict(d["model"])
        assert not evaluate(
            m2, TOLLENS, d["certificate"]["world"],
            scheme_vals={k: frozenset(v) for k, v in
                         d["certificate"]["assignment"].items()})


class TestFindFoCountermodel:
    def test_cbf_fails_on_varying_domains(self):
        spec = SearchSpec(CBF_SCHEME, max_worlds=2, max_domain=1,
                          mode="varying")
        r = find_fo_countermodel(spec)
        c = r.certificate
        assert (c["worlds"], c["domain"]) == (2, 1)
        assert c["frame_mask"] == 2
        assert c["exists_mask"] == 1          # element a exists at w0 only
        assert c["world"] == "w0"
        assert r.model.dframe.exists_in == {"w0": frozenset({"a"}),
                                            "w1": frozenset()}

    def test_bf_fails_on_varying_domains(self):
        spec = SearchSpec(BF_SCHEME, max_worlds=2, max_domain=1,
                          mode="varying")
        r = find_fo_countermodel(spec)
        c = r.certificate
        assert (c["worlds"], c["domain"]) == (2, 1)
        assert c["frame_mask"] == 2
        assert c["exists_mask"] == 2          # element a exists at w1 only
        assert r.model.dframe.exists_in == {"w0": frozenset(),
                                            "w1": frozenset({"a"})}

    def test_bf_holds_on_constant_domains(self):
        spec = SearchSpec(BF_SCHEME, max_worlds=2, max_domain=2,
                          mode="constant")
        assert find_fo_countermodel(spec) is None

    def test_validation(self):
        with pytest.raises(ValueError):     # rigid constant
            find_fo_countermodel(
                SearchSpec(parse("alive(c)"), max_domain=1))
        with pytest.raises(ValueError):     # open formula
            find_fo_countermodel(
                SearchSpec(PredAtom("alive", (BoundVar("x"),)),
                           max_domain=1))
        with pytest.raises(ValueError):     # metavariable under quantifier
            find_fo_countermodel(
                SearchSpec(parse("P & exists x. alive(x)"), max_domain=1))
        with pytest.raises(ValueError):     # propositional ceiling
            find_fo_countermodel(SearchSpec(BF_SCHEME, max_domain=0))
        with pytest.raises(ValueError):
            find_fo_countermodel(
                SearchSpec(BF_SCHEME, max_worlds=5, max_domain=1))

    def test_stage_bit_refusal(self, monkeypatch):
        import modalkit.search as search_mod
        monkeypatch.setattr(search_mod, "FO_SEARCH_BITS", 2)
        spec = SearchSpec(BF_SCHEME, max_worlds=2, max_domain=2,
                          mode="constant")
        with pytest.raises(ResourceLimit) as ei:
            find_fo_countermodel(spec)
        assert ei.value.frontier == {"worlds": 2, "domain": 1}

    @pytest.mark.parametrize("bits, atoms, max_domain, frontier", [
        (2, "", 1, {"worlds": 2, "domain": 1}),
        (8, " | p | q", 2, {"worlds": 2, "domain": 2}),
        (0, "", 2, {"worlds": 0, "domain": 0}),
    ])
    def test_stage_bit_refusal_at_domain_one(self, monkeypatch, bits, atoms,
                                             max_domain, frontier):
        # a refused (n, 1) stage names the last stage searched before it,
        # (n - 1, max_domain), or (0, 0) when it is the first stage
        monkeypatch.setattr(search, "FO_SEARCH_BITS", bits)
        spec = SearchSpec(parse("(forall x. P(x)) | ~(forall x. P(x))"
                                + atoms), max_worlds=3, max_domain=max_domain)
        with pytest.raises(ResourceLimit, match=r"stage \d worlds x 1 "
                           r"elements") as ei:
            find_fo_countermodel(spec)
        assert ei.value.frontier == frontier


class TestBarcanDivergence:
    def test_least_divergence_pinned(self):
        r = find_barcan_divergence(max_worlds=2, max_domain=1)
        c = r.certificate
        assert c["kind"] == "barcan_divergence"
        assert (c["worlds"], c["domain"]) == (2, 1)
        assert c["frame_mask"] == 5          # w0 -> w0 and w1 -> w0
        assert c["exists_mask"] == 1
        assert c["readings"] == {
            "pointwise": False, "meta_iff": True, "meta_implies": True,
            "object_implies": False,
            "object_witness": {"interpretation": [], "world": "w1"}}

    def test_no_divergence_on_one_world(self):
        assert find_barcan_divergence(max_worlds=1, max_domain=2) is None


class TestDeductionGap:
    def test_least_gap_pinned(self):
        r = find_deduction_gap()
        c = r.certificate
        assert c["kind"] == "deduction_gap"
        assert c["worlds"] == 2 and c["frame_mask"] == 0
        assert c["conclusion"] == "P => Q"
        assert c["assignment"] == {"P": ["w0"], "Q": []}
        assert c["world"] == "w0"
        assert c["lhs_valid"] is False and c["rhs_valid"] is False
        # the implication really fails there, yet the rule reading holds:
        # P is not valid, so validity transfer is vacuous.
        sv = {k: frozenset(v) for k, v in c["assignment"].items()}
        assert not evaluate(r.model, parse("P => Q"), "w0", scheme_vals=sv)

    def test_no_gap_on_one_world(self):
        assert find_deduction_gap(max_worlds=1) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            find_deduction_gap(parse("[]P"))
        with pytest.raises(ValueError):
            find_deduction_gap(parse("p => q"))
        with pytest.raises(ValueError):
            find_deduction_gap(Imp(SchemeVar("P"), Box(SchemeVar("P"))),
                               max_worlds=9)


def _merged(cert: dict, tamper: dict) -> dict:
    """cert with tamper written over it, nested dicts merged key by key."""
    return {**cert, **{k: _merged(cert[k], v) if isinstance(v, dict)
                       and isinstance(cert.get(k), dict) else v
                       for k, v in tamper.items()}}


@pytest.mark.parametrize("chunk, call, tamper, kind", [
    # the tollens conclusion holds at w1
    pytest.param("_spec_chunk", lambda: find_countermodel(SearchSpec(TOLLENS)),
                 {"world": "w1"}, "search", id="countermodel-world"),
    # no interpretation refutes the implication at w0
    pytest.param("_div_chunk", lambda: find_barcan_divergence(2, 1),
                 {"readings": {"object_witness": {"world": "w0"}}},
                 "divergence", id="divergence-world"),
    # P => Q holds at w1
    pytest.param("_gap_chunk", find_deduction_gap, {"world": "w1"}, "gap",
                 id="gap-world"),
    # P is not valid
    pytest.param("_gap_chunk", find_deduction_gap, {"lhs_valid": True}, "gap",
                 id="gap-lhs-valid"),
    # the rule reading fails
    pytest.param("_gap_chunk", find_deduction_gap,
                 {"assignment": {"P": ["w0", "w1"], "Q": []}}, "gap",
                 id="gap-assignment"),
])
def test_witness_is_rechecked(monkeypatch, chunk, call, tamper, kind):
    """Every search re-checks the (model, certificate) its chunk worker
    reports, and refuses a certificate the model does not bear out."""
    real = getattr(search, chunk)

    def tampered(*args):
        hit = real(*args)
        return hit and (hit[0], _merged(hit[1], tamper))
    call()      # untampered, the witness passes its re-check
    monkeypatch.setattr(search, chunk, tampered)
    with pytest.raises(RuntimeError, match=f"{kind} witness failed the "
                       "independent re-check"):
        call()


def test_recheck_covers_frame_constraints(monkeypatch):
    """A frame generator that drops the constraints hands the search the
    non-reflexive one-world frame; the re-check refuses it."""
    real = search._masks
    monkeypatch.setattr(search, "_masks",
                        lambda n, masks, constraints=frozenset():
                        real(n, masks))
    spec = SearchSpec(parse("[]P => P"), frame_constraints={"reflexive"},
                      max_worlds=2)
    with pytest.raises(RuntimeError, match="search witness failed the "
                       "independent re-check"):
        find_countermodel(spec)


class TestSweeps:
    def test_barcan_sweep_small(self):
        out = barcan_sweep(max_worlds=2, domain_size=2)
        assert out == {"max_worlds": 2, "domain_size": 2, "checked": 264,
                       "violations": [], "all_consistent": True}

    def test_agreement_sweep_small(self):
        out = bf_agreement_sweep(max_worlds=2, max_domain=2)
        assert out == {"max_worlds": 2, "max_domain": 2, "checked": 36,
                       "disagreements": [], "all_agree": True}

    def test_agreement_sweep_reports_disagreements(self, monkeypatch):
        """With a perturbed exchange, forall x P(x) against its boxed form,
        the implication fails on every frame with an edge between two
        worlds while the rule reading holds: each is reported with its
        readings, as the per-frame oracle reports it."""
        def lhs(hole="P"):
            return Forall("x", PredAtom(hole, (BoundVar("x"),)))

        def rhs(hole="P"):
            return Box(lhs(hole))
        for module in (sem, search):
            monkeypatch.setattr(module, "BF_LHS", lhs)
            monkeypatch.setattr(module, "BF_RHS", rhs)
        for block_bits in (12, 3):
            with _block_bits(block_bits):
                # at 3 worlds a block holds several frames
                _chunk_ledger(search._agree_chunk, _oracle_agree_chunk,
                              [(1, 1), (2, 1), (2, 2), (3, 1)], None)
                out = bf_agreement_sweep(max_worlds=2, max_domain=2)
            with monkeypatch.context() as mp:
                mp.setattr(search, "_agree_chunk", _oracle_agree_chunk)
                assert bf_agreement_sweep(max_worlds=2, max_domain=2) == out
        assert (out["checked"], out["all_agree"]) == (36, False)
        crossing = [fm for fm in range(16) if fm & 0b0110]
        assert [(x["worlds"], x["domain"], x["frame_mask"])
                for x in out["disagreements"]] == \
            [(2, d, fm) for d in (1, 2) for fm in crossing]
        for x in out["disagreements"]:
            r = x["readings"]
            assert (r["meta_implies"], r["object_implies"]) == (True, False)
            assert r["object_witness"]["world"] in ("w0", "w1")

    def test_sweep_ceiling(self):
        with pytest.raises(ValueError):
            barcan_sweep(max_worlds=4)
        with pytest.raises(ValueError):
            bf_agreement_sweep(max_worlds=4)


class TestJobsInvariance:
    """A scan must return byte-identical results and hit budget limits at
    the same point regardless of the jobs count."""

    def test_countermodel_results_identical(self):
        spec = SearchSpec(TOLLENS)
        a = find_countermodel(spec, jobs=1).to_dict()
        b = find_countermodel(spec, jobs=2).to_dict()
        assert a == b

    def test_fo_results_identical(self):
        spec = SearchSpec(CBF_SCHEME, max_worlds=2, max_domain=1,
                          mode="varying")
        a = find_fo_countermodel(spec, jobs=1).to_dict()
        b = find_fo_countermodel(spec, jobs=2).to_dict()
        assert a == b

    def test_divergence_identical(self):
        a = find_barcan_divergence(2, 1, jobs=1).to_dict()
        b = find_barcan_divergence(2, 1, jobs=2).to_dict()
        assert a == b

    def test_gap_identical(self):
        assert find_deduction_gap(jobs=1).to_dict() == \
            find_deduction_gap(jobs=2).to_dict()

    def test_sweep_identical(self):
        assert barcan_sweep(2, 1, jobs=1) == barcan_sweep(2, 1, jobs=2)

    def test_budget_trips_at_same_point(self):
        spec = SearchSpec(TOLLENS)
        trips = []
        for jobs in (1, 2):
            with pytest.raises(ResourceLimit) as ei:
                find_countermodel(spec, jobs=jobs, budget=60)
            trips.append((ei.value.args[0], ei.value.frontier))
        assert trips[0] == trips[1]
        assert trips[0][1] == {"worlds": 2}


# One entry per search driver: a call that scans more than one stage, and a
# budget that lets the first stage finish but trips in the second.
TRIPS = {
    "find_countermodel": (
        lambda jobs, budget: find_countermodel(
            SearchSpec(TOLLENS), jobs=jobs, budget=budget),
        60, {"worlds": 2}),
    "find_fo_countermodel": (
        lambda jobs, budget: find_fo_countermodel(
            SearchSpec(BF_SCHEME, max_worlds=2, max_domain=1,
                       mode="constant"), jobs=jobs, budget=budget),
        100, {"worlds": 2, "domain": 1}),
    "find_barcan_divergence": (
        lambda jobs, budget: find_barcan_divergence(
            2, 1, jobs=jobs, budget=budget),
        100, {"worlds": 2, "domain": 1}),
    "barcan_sweep": (
        lambda jobs, budget: barcan_sweep(2, 1, jobs=jobs, budget=budget),
        100, {"worlds": 2, "checked": 8}),
    "bf_agreement_sweep": (
        lambda jobs, budget: bf_agreement_sweep(2, 1, jobs=jobs,
                                                budget=budget),
        100, {"worlds": 2, "domain": 1}),
    "find_deduction_gap": (
        lambda jobs, budget: find_deduction_gap(parse("P => P"), jobs=jobs,
                                                budget=budget),
        100, {"worlds": 2}),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("driver", sorted(TRIPS))
def test_budget_trip_point_is_pinned(driver, jobs):
    call, budget, frontier = TRIPS[driver]
    with pytest.raises(ResourceLimit) as ei:
        call(jobs, budget)
    assert ei.value.args[0] == \
        f"evaluator budget exhausted ({budget} units)"
    assert ei.value.frontier == frontier


@pytest.mark.parametrize("driver", sorted(TRIPS))
def test_passed_budget_is_charged(driver):
    """A Budget passed to a search or sweep ends with ``used`` raised by the
    units the scan charged, the least limit it finishes under; one already
    partly spent trips where a fresh one with what is left would."""
    call, budget, frontier = TRIPS[driver]
    bud = Budget(10**9)
    answer = _outcome(lambda b: call(1, b), bud)
    units = bud.used
    assert budget < units <= bud.limit
    assert _outcome(lambda b: call(1, b), units) == answer
    with pytest.raises(ResourceLimit):
        call(1, units - 1)
    spent = Budget(units + 5)
    spent.used = 5
    assert _outcome(lambda b: call(1, b), spent) == answer
    assert spent.used == units + 5
    nearly = Budget(budget + 5)
    nearly.used = 5
    with pytest.raises(ResourceLimit) as ei:
        call(1, nearly)
    assert ei.value.frontier == frontier
    assert nearly.used > nearly.limit


def test_no_driver_starts_a_pool(monkeypatch):
    """Every stage, one of 3 worlds included, is scanned in this process
    whatever ``jobs`` says."""
    def refused(self, *args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", refused)
    reflexive = SearchSpec(parse("[]P => [][]P"),
                           frame_constraints={"reflexive"})
    cert = find_countermodel(reflexive, jobs=2).certificate
    assert (cert["worlds"], cert["frame_mask"]) == (3, 285)
    sweep = barcan_sweep(3, 1, jobs=2)
    assert (sweep["checked"], sweep["all_consistent"]) == (4 + 64 + 4096, True)
    for call, _, _ in TRIPS.values():
        call(2, None)


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize("driver", sorted(TRIPS))
def test_jobs_below_one_is_rejected(driver, jobs):
    call, budget, _ = TRIPS[driver]
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        call(jobs, budget)


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_bad_budget_env_var_is_a_usage_error(monkeypatch, raw):
    monkeypatch.setenv("MODALKIT_BUDGET", raw)
    with pytest.raises(ValueError, match="MODALKIT_BUDGET"):
        find_countermodel(SearchSpec(parse("[]P => P"), max_worlds=1))


def test_predicate_at_two_arities_is_refused_before_the_scan():
    # the second premise is never reached, but the signature is refused
    spec = SearchSpec(parse("exists x. exists y. r(x, y)"),
                      (parse("q & ~q"), parse("exists x. r(x)")),
                      max_worlds=2, max_domain=1)
    with pytest.raises(ValueError, match="used at arities 1 and 2"):
        find_fo_countermodel(spec)
    # a premise fixes r's arity before the conclusion's own s conflict
    spec = SearchSpec(parse("exists x. s(x) & r(x) & s(x, x)"),
                      (parse("exists x. r(x, x)"),), max_worlds=1,
                      max_domain=1)
    with pytest.raises(ValueError) as ei:
        find_fo_countermodel(spec)
    assert str(ei.value) == "predicate 'r' used at arities 2 and 1"


def test_signature_reuses_each_formulas_memo(monkeypatch):
    spec = SearchSpec(parse("exists x. r(x) & p"),
                      (parse("forall x. s(x, x) | q"),), max_worlds=1,
                      max_domain=1)
    first = search._signature(spec)
    walks = []
    walk = formula._walk
    monkeypatch.setattr(formula, "_walk",
                        lambda f: walks.append(f) or walk(f))
    assert search._signature(spec) == first == ({"r": 1, "s": 2}, ["p", "q"])
    assert walks == []


def test_wide_scheme_stage_is_refused_at_its_first_chunk():
    # no candidate reaches the conclusion, whose instances at 4 worlds need
    # 28 bits: the stage is refused before it is scanned, not passed over
    spec = SearchSpec(parse("A | B | C | D | E | F | G | q"),
                      premise_formulas=(parse("q & ~q"),), max_worlds=4)
    with pytest.raises(ResourceLimit) as ei:
        find_countermodel(spec)
    assert ei.value.args[0] == \
        "scheme enumeration needs 4*7 = 28 bits (limit 24)"
    assert ei.value.frontier == {"worlds": 4}


@pytest.mark.parametrize("jobs", [1, 2])
def test_gap_budget_counts_each_reached_check_at_full_size(jobs):
    # Each candidate up to the hit is charged one unit per world for each
    # side, and for the implication where the rule reading holds
    # (_oracle_gap_chunk), pinned: a scan with no gap charges every
    # candidate.
    calls = 22
    assert find_deduction_gap(max_worlds=1, jobs=jobs, budget=calls) is None
    with pytest.raises(ResourceLimit) as ei:
        find_deduction_gap(max_worlds=1, jobs=jobs, budget=calls - 1)
    assert ei.value.frontier == {"worlds": 1}
    # The default search stops at a hit in the first chunk of its second
    # stage; that chunk is charged too, the candidates up to the hit.
    total = 52
    assert find_deduction_gap(jobs=jobs, budget=total).to_dict() == \
        find_deduction_gap().to_dict()
    with pytest.raises(ResourceLimit) as ei:
        find_deduction_gap(jobs=jobs, budget=total - 1)
    assert ei.value.frontier == {"worlds": 2}
    with pytest.raises(ResourceLimit) as ei:
        find_deduction_gap(jobs=jobs, budget=calls - 1)
    assert ei.value.frontier == {"worlds": 1}


# ---------------------------------------------------------------------------
# Differential gate.  The search labels each frame's candidate models as
# instance columns and builds a model only for the witness; the oracle below
# is the candidate-by-candidate scan it replaced: one PropModel or FoModel
# per candidate, checked with the public single-model checks, on frames
# built for every mask and filtered by the relational reference.  Both must
# give the same payload and Budget.used for every chunk, and the public
# searches the same result or the same trip.

def _oracle_frames(n, masks, constraints):
    for fmask in masks:
        fr = frame_from_mask(n, fmask)
        if constraints <= relational_props(fr):
            yield fmask, fr


def _oracle_domain_frames(n, d, masks, varying, constraints=frozenset()):
    domain = search._domain_names(d)
    full = (1 << (d * n)) - 1
    for fmask, fr in _oracle_frames(n, masks, constraints):
        for emask in range(full + 1) if varying else (full,):
            pairs = _pairs(fr.worlds, domain, emask)
            yield fmask, emask, DomainFrame(
                fr, domain,
                {w: [e for v, e in pairs if v == w] for w in fr.worlds})


def _oracle_check_model(m, spec, bud):
    for p in spec.premise_formulas:
        if not valid(m, p, bud).holds:
            return None
    for s in spec.premise_schemes:
        if not scheme_valid(m, s, bud).holds:
            return None
    if spec.reading == "object":
        if is_propositional(spec.conclusion):
            v = scheme_valid(m, spec.conclusion, bud)
        else:
            v = valid(m, spec.conclusion, bud)
        if v.holds:
            return None
        cert = {"reading": "object",
                "conclusion": render(spec.conclusion, "ascii"),
                "world": v.world}
        if v.assignment:
            cert["assignment"] = {k: list(vs)
                                  for k, vs in sorted(v.assignment.items())}
    else:
        v = meta_implies(m, [spec.conclusion.lhs], spec.conclusion.rhs, bud)
        if v.holds:
            return None
        cert = {"reading": "meta",
                "conclusion": render(spec.conclusion, "ascii"),
                "assignment": {k: list(vs)
                               for k, vs in sorted(v.assignment.items())},
                "world": v.world}
    if spec.premise_formulas:
        cert["premises"] = [render(p, "ascii")
                            for p in spec.premise_formulas]
    if spec.premise_schemes:
        cert["scheme_premises"] = [render(s, "ascii")
                                   for s in spec.premise_schemes]
    return cert


def _oracle_spec_chunk(stage, masks, spec, bud):
    preds, atoms = search._signature(spec)
    if len(stage) == 1:
        (n,) = stage
        frames = ((mask, 0, fr) for mask, fr in
                  _oracle_frames(n, masks, spec.frame_constraints))
    else:
        n, d = stage
        frames = _oracle_domain_frames(n, d, masks, spec.mode == "varying",
                                       spec.frame_constraints)
    names = sorted(preds)
    for fmask, emask, fr in frames:
        cells = [range(1 << (len(fr.domain) ** preds[p] * n)) for p in names]
        for pmasks in product(*cells) if len(stage) > 1 else [()]:
            for vmasks in product(range(1 << n), repeat=len(atoms)):
                val = {a: _bits(fr.worlds, vm)
                       for a, vm in zip(atoms, vmasks)}
                if len(stage) == 1:
                    m = PropModel(fr, val)
                else:
                    m = FoModel(fr, spec.mode, val, flexible_preds={
                        p: FlexiblePred(preds[p], _extension(
                            fr.domain, fr.worlds, pm, preds[p]))
                        for p, pm in zip(names, pmasks)})
                cert = _oracle_check_model(m, spec, bud)
                if cert is not None:
                    masks = {**dict(zip(("worlds", "domain"), stage)),
                             "frame_mask": fmask}
                    if len(stage) > 1:
                        masks["exists_mask"] = emask
                    return m, {**masks, **cert}
    return None


def _oracle_sweep_chunk(stage, masks, _, bud):
    n, d = stage
    checked, violations = 0, []
    for fmask, emask, df in _oracle_domain_frames(n, d, masks, True):
        fm = FoModel(df, "varying")
        mono = domain_monotonicity(df)
        bf = fo_scheme_valid(fm, BF_SCHEME, "P", bud).holds
        cbf = fo_scheme_valid(fm, CBF_SCHEME, "P", bud).holds
        checked += 1
        coords = {"worlds": n, "frame_mask": fmask, "exists_mask": emask}
        if bf != mono.nonincreasing:
            violations.append({**coords, "check": "bf_vs_nonincreasing",
                               "bf": bf, "nonincreasing": mono.nonincreasing})
        if cbf != mono.nondecreasing:
            violations.append({**coords, "check": "cbf_vs_nondecreasing",
                               "cbf": cbf, "nondecreasing": mono.nondecreasing})
        if bf != cbf and frame_property(df.frame, "symmetric"):
            violations.append({**coords, "check": "bf_iff_cbf_on_symmetric",
                               "bf": bf, "cbf": cbf})
    return checked, violations


def _oracle_agree_chunk(stage, masks, _, bud):
    """The agreement sweep model by model: bf_readings of every
    constant-domain model."""
    n, d = stage
    checked, disagreements = 0, []
    for fmask in masks:
        fm = FoModel(DomainFrame(frame_from_mask(n, fmask),
                                 search._domain_names(d)), "constant")
        r = bf_readings(fm, "P", bud)
        checked += 1
        if r.meta_implies != r.object_implies:
            disagreements.append({"worlds": n, "domain": d,
                                  "frame_mask": fmask,
                                  "readings": r.to_dict()})
    return checked, disagreements


def _oracle_div_chunk(stage, masks, _, bud):
    n, d = stage
    for fmask, emask, df in _oracle_domain_frames(n, d, masks, True):
        fm = FoModel(df, "varying")
        r = bf_readings(fm, "P", bud)
        if r.meta_implies and not r.object_implies:
            return fm, {"kind": "barcan_divergence", "worlds": n, "domain": d,
                        "frame_mask": fmask, "exists_mask": emask,
                        "readings": r.to_dict()}
    return None


def _oracle_gap_chunk(stage, masks, conclusion, bud):
    """The deduction-gap scan instance by instance on the reference
    evaluator, each formula charged one unit per world of the model."""
    (n,) = stage
    names = scheme_vars(conclusion)
    lhs, rhs = conclusion.lhs, conclusion.rhs

    def charged(m, f, sv):
        bud.charge(n)
        return [w for w in m.worlds
                if not evaluate(m, f, w, scheme_vals=sv)]
    for fmask, fr in _oracle_frames(n, masks, frozenset()):
        m = PropModel(fr, {})
        worlds = fr.worlds
        for vmasks in product(range(1 << n), repeat=len(names)):
            sv = {nm: _bits(worlds, vm) for nm, vm in zip(names, vmasks)}
            lhs_valid = not charged(m, lhs, sv)
            rhs_valid = not charged(m, rhs, sv)
            if lhs_valid and not rhs_valid:
                continue  # the rule reading fails here: not a gap
            fail = next(iter(charged(m, conclusion, sv)), None)
            if fail is not None:
                return m, {
                    "worlds": n, "frame_mask": fmask,
                    "kind": "deduction_gap",
                    "conclusion": render(conclusion, "ascii"),
                    "assignment": {k: sorted(v, key=fr.index.__getitem__)
                                   for k, v in sorted(sv.items())},
                    "world": fail,
                    "lhs_valid": lhs_valid,
                    "rhs_valid": rhs_valid,
                }
    return None


def _plain(payload):
    """A chunk payload with its model as a dict."""
    if isinstance(payload, tuple):
        return tuple(model_to_dict(x) if isinstance(x, (PropModel, FoModel))
                     else x for x in payload)
    return payload


def _chunk_ledger(worker, oracle, stages, arg):
    """Per chunk, in scan order up to the first hit: the payload and
    Budget.used (or what was raised) of worker and oracle, which must agree;
    returns the oracle's chunk usages."""
    used = []
    for stage in stages:
        for lo, hi in search._chunk_ranges(1 << stage[0] ** 2):
            outs = []
            for run in (worker, oracle):
                bud = Budget(10**9)
                try:
                    outs.append((_plain(run(stage, range(lo, hi), arg, bud)),
                                 bud.used))
                except (EvalError, ResourceLimit) as e:
                    outs.append((type(e).__name__, str(e), bud.used))
            assert outs[0] == outs[1], (stage, lo, hi)
            if len(outs[0]) == 3:
                return used
            used.append(outs[0][1])
            if isinstance(arg, SearchSpec) and outs[0][0] is not None:
                return used
    return used


def _outcome(call, budget):
    try:
        r = call(budget)
    except ResourceLimit as e:
        return "limit", e.args[0], e.frontier
    except EvalError as e:
        return type(e).__name__, str(e)
    return r.to_dict() if isinstance(r, SearchResult) else r


def _same_trips(monkeypatch, name, oracle, call, used, rng):
    """The public search gives what it gives with the oracle as its chunk
    worker, at budgets around the oracle's chunk ledger."""
    sums = [sum(used[:k + 1]) for k in range(len(used))] or [0]
    budgets = {sums[-1], rng.choice(sums) - 1, rng.randint(0, sums[-1] + 1)}
    for budget in sorted(b for b in budgets if b >= 1):
        got = _outcome(call, budget)
        with monkeypatch.context() as mp:
            mp.setattr(search, name, oracle)
            assert _outcome(call, budget) == got, budget


def _random_prop_spec(rng):
    atoms = ("p",) if rng.random() < 0.5 else ("p", "q")
    schemes = ("P", "Q")[:rng.randint(0, 2)]
    reading = rng.choice(("object", "meta"))
    if reading == "meta":
        conclusion = Imp(random_prop_formula(rng, 2, atoms, schemes),
                         random_prop_formula(rng, 2, atoms, schemes))
    else:
        conclusion = random_prop_formula(rng, 3, atoms, schemes)
    premises = tuple(random_prop_formula(rng, 2, atoms, ("P",)
                                         if rng.random() < 0.1 else ())
                     for _ in range(rng.choice((0, 0, 1, 2))))
    premise_schemes = tuple(random_prop_formula(rng, 2, ("p",), ("P",))
                            for _ in range(rng.choice((0, 0, 1))))
    constraints = {c for c in ("reflexive", "symmetric", "serial")
                   if rng.random() < 0.15}
    return SearchSpec(conclusion, premises, premise_schemes, constraints,
                      max_worlds=3 if len(atoms) < 2 else 2, reading=reading)


def _closed_fo_formula(rng, depth, bound=(), preds=(("alive", 1),),
                       atoms=("p",)):
    """A random closed formula over preds (name, arity) and atoms."""
    if depth <= 0 or rng.random() < 0.2:
        roll = rng.random()
        if bound and roll < 0.6:
            name, arity = rng.choice(preds)
            return PredAtom(name, tuple(BoundVar(rng.choice(bound))
                                        for _ in range(arity)))
        if bound and roll < 0.7:
            return Eq(BoundVar(rng.choice(bound)), BoundVar(rng.choice(bound)))
        return PropAtom(rng.choice(atoms))
    if rng.random() < 0.3:
        var = rng.choice(("x", "y"))
        return rng.choice((Forall, Exists))(var, _closed_fo_formula(
            rng, depth - 1, (*bound, var), preds, atoms))
    op = rng.choice((Not, Box, Dia, And, Or, Imp, Iff, StrictImp))
    if op in (Not, Box, Dia):
        return op(_closed_fo_formula(rng, depth - 1, bound, preds, atoms))
    return op(_closed_fo_formula(rng, depth - 1, bound, preds, atoms),
              _closed_fo_formula(rng, depth - 1, bound, preds, atoms))


def _random_fo_spec(rng):
    reading = rng.choice(("object", "meta"))

    def closed(depth):
        return Forall("x", _closed_fo_formula(rng, depth, ("x",)))
    conclusion = Imp(closed(2), closed(2)) if reading == "meta" else closed(3)
    premises = tuple(closed(1) for _ in range(rng.choice((0, 0, 1))))
    premise_schemes = (parse("P => []P"),) if rng.random() < 0.2 else ()
    return SearchSpec(conclusion, premises, premise_schemes,
                      {"reflexive"} if rng.random() < 0.2 else (),
                      max_worlds=2, max_domain=2, reading=reading,
                      mode=rng.choice(("constant", "varying")))


# exhaustive scans, a binary predicate, and a varying-domain hit at 2 worlds
_PINNED_FO_SPECS = {
    "BF constant": SearchSpec(BF_SCHEME, max_worlds=2, max_domain=2),
    "CBF varying": SearchSpec(CBF_SCHEME, max_worlds=2, max_domain=2,
                              mode="varying"),
    "near meta": SearchSpec(
        parse("(forall x. exists y. near(x, y)) => exists x. near(x, x)"),
        max_worlds=1, max_domain=2, reading="meta", mode="varying"),
    "near premise": SearchSpec(
        parse("exists x. near(x, x)"),
        premise_formulas=(parse("forall x. exists y. near(x, y)"),),
        max_worlds=1, max_domain=2, mode="varying"),
}


# Valid on every frame the constraint admits, so every chunk is scanned.
_PINNED_SPARSE_SPECS = {
    "4 transitive": SearchSpec(parse("[]P => [][]P"),
                               frame_constraints={"transitive"}),
    "5 euclidean": SearchSpec(parse("<>P => []<>P"),
                              frame_constraints={"euclidean"}),
    "B symmetric meta": SearchSpec(parse("P => []<>P"), reading="meta",
                                   frame_constraints={"symmetric"}),
}


_SCHEMES = tuple(parse(t) for t in (
    "[]P => P", "[]P => [][]P", "<>P => []<>P", "P => []<>P", "[]P => <>P",
    "<>[]P => []<>P", "<>P => []P", "P => []P"))


def _sparse_prop_spec(rng):
    """A spec whose constraints admit few, scattered masks of a chunk, over
    schemes that some of those frames refute and others do not."""
    a, b = rng.sample(_SCHEMES, 2)
    if rng.random() < 0.5:
        b = Or(b, random_prop_formula(rng, 2, ("p",), ("P",)))
    reading = rng.choice(("object", "meta"))
    conclusion = (Imp(a, b) if reading == "meta"
                  else rng.choice((a, Or(a, b), And(a, b))))
    constraints = rng.sample(("transitive", "euclidean", "symmetric",
                              "reflexive"), rng.randint(1, 2))
    return SearchSpec(conclusion, frame_constraints=constraints,
                      reading=reading)


@pytest.mark.parametrize("block_bits", [12, 3, 6])
class TestSlicedScanMatchesPerCandidateScan:
    @pytest.mark.parametrize("seed", range(24))
    def test_find_countermodel(self, monkeypatch, block_bits, seed):
        rng = random.Random(seed)
        if seed in (10, 23):
            # these draw a metavariable in a premise formula: refused
            with pytest.raises(ValueError, match="metavariables"):
                _random_prop_spec(rng)
            return
        spec = _random_prop_spec(rng)
        stages = [(n,) for n in range(1, spec.max_worlds + 1)]
        with _block_bits(block_bits):
            used = _chunk_ledger(search._spec_chunk, _oracle_spec_chunk,
                                 stages, spec)
            _same_trips(monkeypatch, "_spec_chunk", _oracle_spec_chunk,
                        lambda b: find_countermodel(spec, budget=b), used,
                        rng)

    @pytest.mark.parametrize("seed", [*range(12), *_PINNED_FO_SPECS])
    def test_find_fo_countermodel(self, monkeypatch, block_bits, seed):
        rng = random.Random(seed)
        spec = (_PINNED_FO_SPECS[seed] if seed in _PINNED_FO_SPECS
                else _random_fo_spec(rng))
        stages = list(search._fo_stages(spec))
        with _block_bits(block_bits):
            used = _chunk_ledger(search._spec_chunk, _oracle_spec_chunk,
                                 stages, spec)
            _same_trips(monkeypatch, "_spec_chunk", _oracle_spec_chunk,
                        lambda b: find_fo_countermodel(spec, budget=b), used,
                        rng)

    @pytest.mark.parametrize("seed", [*range(8), *_PINNED_SPARSE_SPECS])
    def test_sparse_frames(self, monkeypatch, block_bits, seed):
        """Several frames to a block, with the block's last slots unused:
        every chunk to 3 worlds with the public search's trips, and two
        chunks of the 4-world stage."""
        rng = random.Random(seed)
        spec = (_PINNED_SPARSE_SPECS[seed] if seed in _PINNED_SPARSE_SPECS
                else _sparse_prop_spec(rng))
        with _block_bits(block_bits):
            used = _chunk_ledger(search._spec_chunk, _oracle_spec_chunk,
                                 [(1,), (2,), (3,)], spec)
            _same_trips(monkeypatch, "_spec_chunk", _oracle_spec_chunk,
                        lambda b: find_countermodel(spec, budget=b), used,
                        rng)
            for lo, hi in rng.sample(search._chunk_ranges(1 << 16), 2):
                outs = []
                for run in (search._spec_chunk, _oracle_spec_chunk):
                    bud = Budget(10**9)
                    outs.append((_plain(run((4,), range(lo, hi), spec, bud)),
                                 bud.used))
                assert outs[0] == outs[1], (lo, hi)

    def test_barcan_sweep(self, monkeypatch, block_bits):
        stages = [(1, 2), (2, 2)]
        with _block_bits(block_bits):
            used = _chunk_ledger(search._sweep_chunk, _oracle_sweep_chunk,
                                 stages, None)
            _same_trips(monkeypatch, "_sweep_chunk", _oracle_sweep_chunk,
                        lambda b: barcan_sweep(2, 2, budget=b), used,
                        random.Random(0))

    def test_find_barcan_divergence(self, monkeypatch, block_bits):
        stages = [(1, 1), (1, 2), (2, 1), (2, 2)]
        with _block_bits(block_bits):
            used = _chunk_ledger(search._div_chunk, _oracle_div_chunk,
                                 stages, None)
            _same_trips(monkeypatch, "_div_chunk", _oracle_div_chunk,
                        lambda b: find_barcan_divergence(2, 2, budget=b),
                        used, random.Random(0))

    def test_bf_agreement_sweep(self, monkeypatch, block_bits):
        stages = [(1, 1), (1, 2), (2, 1), (2, 2)]
        with _block_bits(block_bits):
            used = _chunk_ledger(search._agree_chunk, _oracle_agree_chunk,
                                 stages, None)
            _same_trips(monkeypatch, "_agree_chunk", _oracle_agree_chunk,
                        lambda b: bf_agreement_sweep(2, 2, budget=b), used,
                        random.Random(0))

    @pytest.mark.parametrize("seed", ["P => Q", "P => []P", "[]P => P",
                                      "P => P", *range(8)])
    def test_find_deduction_gap(self, monkeypatch, block_bits, seed):
        rng = random.Random(seed)
        conclusion = parse(seed) if isinstance(seed, str) else Imp(
            *(random_prop_formula(rng, 2, (), ("P", "Q", "R"))
              for _ in range(2)))
        with _block_bits(block_bits):
            used = _chunk_ledger(search._gap_chunk, _oracle_gap_chunk,
                                 [(1,), (2,)], conclusion)
            _same_trips(monkeypatch, "_gap_chunk", _oracle_gap_chunk,
                        lambda b: find_deduction_gap(conclusion, budget=b),
                        used, rng)


@pytest.mark.parametrize("block_bits", [12, 3])
def test_sweep_reports_violations_as_the_oracle_does(monkeypatch, block_bits):
    """With perturbed exchange schemes every check of the sweep reports
    violations, the symmetric-frame check included, and each chunk's report
    and Budget.used match the per-model oracle's."""
    bf = parse("(forall x. P(x)) => []forall x. P(x)")
    cbf = parse("[](forall x. P(x)) => forall x. P(x)")
    monkeypatch.setattr(search, "BF_SCHEME", bf)
    monkeypatch.setattr(search, "CBF_SCHEME", cbf)
    monkeypatch.setitem(globals(), "BF_SCHEME", bf)   # the oracle's schemes
    monkeypatch.setitem(globals(), "CBF_SCHEME", cbf)
    with _block_bits(block_bits):
        _chunk_ledger(search._sweep_chunk, _oracle_sweep_chunk,
                      [(1, 2), (2, 2)], None)
        violations = barcan_sweep(2, 2)["violations"]
    checks = {(v["check"], frame_property(
        frame_from_mask(v["worlds"], v["frame_mask"]), "symmetric"))
        for v in violations}
    assert checks == {(c, sym) for c in ("bf_vs_nonincreasing",
                                         "cbf_vs_nondecreasing")
                      for sym in (False, True)} | \
        {("bf_iff_cbf_on_symmetric", True)}


class TestCandidateColumnsMatchReference:
    """Bit c of the truth sets over the leaves of an instance space is
    evaluate on the model (and instantiation) that instance number c
    decodes to, for every instance and world: candidate models, a scheme's
    metavariables and a first-order hole."""

    @given(seeded_randoms, st.sampled_from([12, 3]),
           st.sampled_from(["candidate", "scheme", "hole"]))
    @settings(max_examples=150, deadline=None)
    def test_every_candidate(self, rng, block_bits, space):
        n = rng.randint(1, 2)
        worlds = tuple(f"w{i}" for i in range(n))
        fr = Frame(worlds, [(a, b) for a in worlds for b in worlds
                            if rng.random() < 0.5])
        atoms = sorted(rng.sample(("p", "q"), rng.randint(0, 2)))
        if space == "scheme":
            domain, preds = (), {}
            names = sorted(rng.sample(("P", "Q", "R"), rng.randint(0, 3)))
            fields = sem._fields(n, 0, (), tuple(names))
            f = random_prop_formula(rng, rng.randint(0, 4), ("p",), names)
            base = PropModel(fr, {"p": _bits(worlds, rng.getrandbits(n))})

            def decoded(c):
                return base, sem._decode(fields, (), worlds, c)[0]
        elif space == "hole":
            # the empty domain, and empty local domains, included
            domain, preds = search._domain_names(rng.randint(0, 2)), {"P": 1}
            fields = sem._fields(n, len(domain), (("P", 1),), ())
            f = _closed_fo_formula(rng, rng.randint(0, 4), (), (("P", 1),),
                                   ("p",))
            base = FoModel(DomainFrame(fr, domain, {
                w: [e for e in domain if rng.random() < 0.7]
                for w in worlds}), "varying", {"p": worlds[:1]})

            def decoded(c):
                return FoModel(base.dframe, "varying", base.valuation,
                               flexible_preds=sem._decode(
                                   fields, domain, worlds, c)[1]), None
        else:
            if rng.random() < 0.25:
                domain, preds, varying = None, {}, False
                f = random_prop_formula(rng, rng.randint(0, 4),
                                        atoms or ("p",))
                base = PropModel(fr, {})
            else:
                domain = search._domain_names(rng.randint(0, 2))
                # at most 2**12 candidates
                table = (("alive", 1), ("near", 2))[
                    :rng.randint(1, 1 + (n * len(domain) ** 2 <= 4))]
                preds, varying = dict(table), rng.random() < 0.7
                f = _closed_fo_formula(rng, rng.randint(0, 4), (), table,
                                       atoms or ("p",))
                base = FoModel(DomainFrame(fr, domain), "constant")
            mode = "varying" if varying else "constant"
            fields = sem._fields(n, len(domain or ()),
                                 tuple(preds.items()), tuple(atoms), varying)

            def decoded(c):
                return search._candidate(fr, domain, mode, fields, c), None
        cb = sum(width for *_, width in fields)
        leaves = sem._leaves(fields, domain or (), n)
        with _block_bits(block_bits):
            for first, full, cols in sem._blocks(cb):
                lv = leaves(cols)
                sets = sem._run(sem._compiled(base, (f,), lv, preds), base,
                                lv, full)[0]
                for i in range(full.bit_length()):
                    m, sv = decoded(first + i)
                    assert [x >> i & 1 for x in sets] == \
                        [evaluate(m, f, w, scheme_vals=sv) for w in worlds], \
                        first + i
