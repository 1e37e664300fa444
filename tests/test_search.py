"""Bounded countermodel search: enumeration order, pinned least witnesses,
exhaustive sweeps, and independence of the answer from the jobs count."""

import multiprocessing
import multiprocessing.pool
from itertools import permutations

import pytest

from modalkit import (BF_SCHEME, CBF_SCHEME, Box, FoModel, Imp, PredAtom,
                      PropModel, ResourceLimit, SchemeVar, SearchSpec,
                      barcan_sweep, bf_agreement_sweep, evaluate,
                      find_barcan_divergence, find_countermodel,
                      find_deduction_gap, find_fo_countermodel,
                      frame_property, model_from_dict, parse)
from modalkit.formula import BoundVar
from modalkit.search import (CONSTRAINT_NAMES, enumerate_frames, frame_from_mask,
                             frame_mask)

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


class TestSweeps:
    def test_barcan_sweep_small(self):
        out = barcan_sweep(max_worlds=2, domain_size=2)
        assert out == {"max_worlds": 2, "domain_size": 2, "checked": 264,
                       "violations": [], "all_consistent": True}

    def test_agreement_sweep_small(self):
        out = bf_agreement_sweep(max_worlds=2, max_domain=2)
        assert out == {"max_worlds": 2, "max_domain": 2, "checked": 36,
                       "disagreements": [], "all_agree": True}

    def test_sweep_ceiling(self):
        with pytest.raises(ValueError):
            barcan_sweep(max_worlds=4)
        with pytest.raises(ValueError):
            bf_agreement_sweep(max_worlds=4)


class TestJobsInvariance:
    """The parallel scan must return byte-identical results and hit budget
    limits at the same point regardless of the jobs count."""

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
        100, {"worlds": 2, "checked": 12}),
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
        f"evaluator-call budget exhausted ({budget} calls)"
    assert ei.value.frontier == frontier


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


def test_pooled_search_stops_without_terminating_its_pool(monkeypatch):
    """Pool.terminate can kill a worker while it holds the result queue's
    lock, which hangs the pool; an early stop must close and join."""
    terminated = []
    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate",
                        lambda self: terminated.append(self))
    # the least countermodel sits on the empty one-world frame, the first
    # of the stage's two chunks
    r = find_countermodel(SearchSpec(parse("[]P => P"), max_worlds=1),
                          jobs=2)
    assert (r.certificate["worlds"], r.certificate["frame_mask"]) == (1, 0)
    with pytest.raises(ResourceLimit):
        find_countermodel(SearchSpec(TOLLENS), jobs=2, budget=60)
    assert terminated == []
    assert multiprocessing.active_children() == []


def _count_evaluate(monkeypatch, call):
    import modalkit.search as search_mod
    real, calls = search_mod.evaluate, []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(search_mod, "evaluate", counting)
        result = call()
    return result, len(calls)


@pytest.mark.parametrize("jobs", [1, 2])
def test_gap_budget_counts_one_unit_per_evaluate_call(monkeypatch, jobs):
    # A scan with no gap charges every call to the parent ledger.
    none, calls = _count_evaluate(
        monkeypatch, lambda: find_deduction_gap(max_worlds=1))
    assert none is None
    assert find_deduction_gap(max_worlds=1, jobs=jobs, budget=calls) is None
    with pytest.raises(ResourceLimit) as ei:
        find_deduction_gap(max_worlds=1, jobs=jobs, budget=calls - 1)
    assert ei.value.frontier == {"worlds": 1}
    # The default search stops at a hit in the first chunk of its second
    # stage; the ledger only charges chunks whose payload was passed over.
    hit, total = _count_evaluate(monkeypatch, find_deduction_gap)
    assert find_deduction_gap(jobs=jobs, budget=total).to_dict() == \
        hit.to_dict()
    with pytest.raises(ResourceLimit) as ei:
        find_deduction_gap(jobs=jobs, budget=calls - 1)
    assert ei.value.frontier == {"worlds": 1}
