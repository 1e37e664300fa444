"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from modalkit.parser import parse
from modalkit.search import SearchSpec, find_countermodel

from perfbench import bench, gen, oracle, run, workloads
from perfbench.tracing import Tracer


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _inputs(wl: workloads.Workload) -> list:
    """Job names, golden keys and fresh-process argv, with file paths
    reduced to file names."""
    return [(j.name, j.golden) for j in wl.jobs + wl.requests] + \
        [[Path(a).name if "/" in a else a for a in c.argv] for c in wl.cold]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(tmp_path, name):
    a = workloads.build(name, 7, tmp_path / "a", {})
    b = workloads.build(name, 7, tmp_path / "b", {})
    c = workloads.build(name, 8, tmp_path / "c", {})
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _inputs(a) == _inputs(b)
    assert _inputs(a) != _inputs(c)


def test_formula_generators_repeat_exactly():
    for seed in (0, 1, gen.VALIDATION_SEED):
        one = [gen.closed_unary_formula(gen.rng_for(seed, "t")),
               gen.prop_formula(gen.rng_for(seed, "u"), gen.PROP_ATOMS, 4),
               json.dumps(gen.fo_model_dict(gen.rng_for(seed, "v"), 3, 2))]
        two = [gen.closed_unary_formula(gen.rng_for(seed, "t")),
               gen.prop_formula(gen.rng_for(seed, "u"), gen.PROP_ATOMS, 4),
               json.dumps(gen.fo_model_dict(gen.rng_for(seed, "v"), 3, 2))]
        assert one == two
        parse(one[0])
        parse(one[1])


def test_oracle_flags_a_tampered_certificate():
    spec = SearchSpec(parse("[]P => P"), max_worlds=2)
    payload = find_countermodel(spec).to_dict()
    assert oracle.replay_countermodel(spec, payload) is None
    # the refuting world sees nothing, so P is vacuously boxed there; giving
    # P that world makes the certificate's instance true
    bad = json.loads(json.dumps(payload))
    bad["certificate"]["assignment"]["P"] = list(bad["model"]["worlds"])
    assert oracle.replay_countermodel(spec, bad) is not None
    text = oracle.canonical(payload)
    goldens = {oracle.digest("k"): oracle.digest(text)}
    assert oracle.check_golden(goldens, "k", text) is None
    assert oracle.check_golden(goldens, "k", text.replace("w0", "w1"))


def test_oracle_flags_a_wrong_exit_code(tmp_path):
    doc = {"worlds": ["w0", "w1"], "access": [["w0", "w1"]],
           "valuation": {"p": ["w1"]}}
    path = gen.write_json(tmp_path / "m.json", doc)
    req = {"kind": "check", "model": doc, "formula": "[]p"}
    answer = workloads.run_cli(["check", "--model", str(path), "--formula",
                                "[]p", "--json"])
    assert answer[0] == 0
    assert oracle.check_cli(req, answer) is None
    assert oracle.check_cli(req, (1,) + answer[1:]) is not None
    deep = {"kind": "deep"}
    assert oracle.check_cli(deep, (2, "", "error")) is None
    assert oracle.check_cli(deep, (1, "", "")) is not None


def test_oracle_checks_a_none_answer_by_brute_force():
    refutable = SearchSpec(parse("[]P => P"), max_worlds=2)
    assert oracle.check_no_countermodel(refutable) is not None
    t_on_reflexive = SearchSpec(parse("[]P => P"), max_worlds=3,
                                frame_constraints={"reflexive"})
    assert oracle.check_no_countermodel(t_on_reflexive) is None
    # one world, one element: f may be empty there
    fo = SearchSpec(parse("exists x. f(x)"), max_worlds=1, max_domain=1,
                    mode="varying")
    assert oracle.check_no_countermodel(fo) is not None
    said_none = (0, json.dumps({"command": "countermodel", "found": False,
                                "max_worlds": 1}), "")
    assert oracle.check_cli({"kind": "countermodel", "spec": fo}, said_none)


def _raising(exc: type[BaseException], known=()) -> workloads.Job:
    def call():
        raise exc("boom")
    return workloads.Job("raiser", call, lambda r: None, known_raises=known)


def test_a_raise_is_wrong_unless_it_is_a_known_defect(capsys):
    tally = bench.Tally()
    bench.run_job(_raising(RecursionError, (RecursionError,)), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    bench.report({}, tally)
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]
    bench.run_job(_raising(ValueError, (RecursionError,)), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 1)
    bench.report({}, tally)
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["correct"] is False and doc["failed"] == 2


def test_only_deep_and_pooled_cli_requests_tolerate_a_raise(tmp_path):
    wl = workloads.build("cli_mix", 2, tmp_path, {})
    kinds = {}
    for job in wl.jobs:
        kinds.setdefault(job.known_raises, set()).add(job.name)
        assert (job.known_defect is not None) == \
            (job.known_raises == (workloads.JobTimeout,))
    assert set(kinds) == {(), (RecursionError,), (workloads.JobTimeout,)}
    assert kinds[(workloads.JobTimeout,)] == {"cli_mix:countermodel"}


@pytest.mark.parametrize("seed", [1, 2])
def test_every_seed_has_as_many_pooled_searches_that_stop_early(seed,
                                                                tmp_path):
    distinct, _files = workloads._cli_requests(seed, tmp_path)
    pooled = [req["spec"] for argv, req in distinct
              if req["kind"] == "countermodel"
              and workloads._jobs_of(argv) == "2"]
    assert len(pooled) == workloads.CLI_MIX["countermodel"]
    assert sum(map(oracle.refuted_on_empty_frame, pooled)) == len(pooled) // 2


def test_a_pooled_search_that_stops_early_is_failed_not_wrong():
    # one world: two chunks of one frame each
    assert oracle.pool_stopped_early({"worlds": 1, "frame_mask": 0})
    assert oracle.pool_stopped_early({"worlds": 1, "frame_mask": 1}) is None
    # three worlds: 128 chunks of four frames each
    assert oracle.pool_stopped_early({"worlds": 3, "frame_mask": 507})
    assert oracle.pool_stopped_early({"worlds": 3, "frame_mask": 508}) is None
    assert oracle.pool_stopped_early(None) is None
    spec = SearchSpec(parse("[]P => P"), max_worlds=1)
    job = workloads.Job("t", lambda: find_countermodel(spec, jobs=2),
                        lambda r: None, **workloads._pool_limits(2))
    tally = bench.Tally()
    _dt, right = bench.run_job(job, tally)
    assert right and (tally.failed, tally.wrong) == (1, 0)
    job.call = lambda: None
    bench.run_job(job, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 0)


def _traced(jobs):
    tally = bench.Tally()
    tracer = Tracer()
    tracer.install()
    try:
        wall, _ = bench.run_pass(jobs, tally, tracer)
    finally:
        tracer.uninstall()
    return tracer, wall, tally


def test_traced_self_times_are_nonnegative_and_within_wall(tmp_path):
    wl = workloads.build("cli_mix", 3, tmp_path, {})
    jobs = wl.traced_jobs[:150]
    tracer, wall, tally = _traced(jobs)
    assert len(tracer) > 0 and tally.attempted == len(jobs)
    selfs = tracer.self_times()
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= wall
    metrics = bench.layer_metrics(tracer, wall, wall)
    assert metrics["cli.self_ms"][0] > 0
    assert sum(t["self"] for t in tracer.layer_totals().values()) <= wall


def test_tracing_leaves_the_library_as_it_was():
    import modalkit.search as search
    before = dict(vars(search))
    tracer = Tracer()
    tracer.install()
    assert search.PropModel is not before["PropModel"]
    assert isinstance(search.frame_from_mask(2, 1), search.Frame)
    tracer.uninstall()
    assert dict(vars(search)) == before


def test_search_frames_count_the_five_on_equivalence_anchor(tmp_path):
    wl = workloads.build("prop_search", 1, tmp_path, {})
    (job,) = [j for j in wl.traced_jobs if "5 equivalence" in j.name]
    counts = []
    for _ in range(2):
        tracer, wall, tally = _traced([job])
        assert tally.failed == 0
        m = bench.layer_metrics(tracer, wall, wall)
        counts.append((m["search.frames"][0], m["search.candidates"][0],
                       m["semantics.units"][0]))
    assert counts[0][0] == 66066
    assert counts[0][1] == 23       # equivalence relations on 1..4 worlds
    assert counts[0] == counts[1]


def test_benchmark_json_and_layer_map_name_every_traced_metric():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    layer_map = json.loads(
        (root / "perfbench" / "layer_map.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    produced = set(bench.layer_metrics(Tracer(), 1.0, 1.0)) | {
        "search.pool_ms", "cli.import_ms"}
    mapped = {m for layer in layer_map["layers"].values()
              for m in layer["metrics"]}
    assert declared == produced == mapped
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_a_run_does_the_same_work_however_fast_the_host(monkeypatch):
    """attempted and failed follow from the seed and --seconds alone, so two
    runs of one seed agree on them even if one is much slower."""
    delay = [0.0]

    def slow_call():
        end = bench.perf_counter() + delay[0]
        while bench.perf_counter() < end:
            pass
        return None

    def workload():
        jobs = [workloads.Job("ok", slow_call, lambda r: None)
                for _ in range(workloads.BLOCK - 1)]
        jobs.append(_raising(RecursionError, (RecursionError,)))
        return workloads.Workload("toy", jobs, jobs, jobs, [None], [], [],
                                  pass_s=0.5, requests_are_pass=True)

    monkeypatch.setattr(bench, "measure_setup", lambda args: 1.0)
    monkeypatch.setattr(bench, "setup", lambda args: (workload(), {}))
    monkeypatch.setattr(bench, "measure_cold", lambda c, t, g: 1.0)
    args = type("Args", (), {"seconds": 2.0})()
    counts = []
    for delay[0] in (0.0, 2e-5):
        metrics, tally = bench.end_to_end(args)
        counts.append((tally.attempted, tally.failed, metrics["wall_s"][2]))
    assert counts[0] == counts[1] == (4 * workloads.BLOCK, 4, 4)
