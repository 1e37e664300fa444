"""The three benchmark workloads and what each one loads.

``fo_sweep``: the first-order scheme loop, which tops the profile.  Fixed
anchors (the Barcan sweep over 33032 pairs, the agreement sweep over 1060
constant-domain models, the least divergence, exhaustive BF and CBF search
on constant domains) plus seeded closed unary formulas searched in varying
mode.  ``fo_scheme_valid``, the quantifier closures and the hole extensions
do the work; the parser, the CLI and the pool do none.  Its request stream
is ``barcan_report`` on domain frames drawn with the seed from the 33032
that ``barcan_sweep(3, 2)`` visits, so requests come in the sweep's own size
mix (99% of them at 3 worlds).

``prop_search``: per-candidate ``PropModel`` construction, compilation,
formula walkers and frame enumeration.  Fixed anchors (K over p and q to 3
worlds, 5 on equivalence frames and 4 on transitive frames to 4 worlds,
``axiom_report`` on all 530 frames up to 3 worlds, the deduction gap) plus
seeded specs.  No first-order code runs.  Its request stream is
``axiom_report`` on the 530 frames of the ``axiom_report`` anchor, each
eight times in an order drawn with the seed, so requests come in that
anchor's own size mix (97% at 3 worlds).

``cli_mix``: a closed loop of ``modalkit.cli.main(argv)`` with one client
over generated model, frame and domain-frame files.  The parser, JSON model
validation, the reference evaluator, argparse and pool start-up dominate;
the compiled evaluator and the sweeps are nearly absent, so an evaluator or
scan optimisation should leave it unchanged.  One pass is its request
stream, and 1% of the requests nest 3000 operators.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import modalkit
import modalkit.cli
from modalkit.correspondence import BF_SCHEME, CBF_SCHEME
from modalkit.model import domain_frame_from_dict, frame_from_dict
from modalkit.parser import parse
from modalkit.search import SearchSpec

from . import gen, oracle

WORKLOADS = ("fo_sweep", "prop_search", "cli_mix")

# Past these limits a job is taken as hung: a search that stops early on a
# hit terminates its fork pool, and a pool that never finishes terminating
# is a failed request.  A healthy CLI request answers within 0.1 s and a
# seeded search at jobs=2 within a few seconds; the limits sit far above
# both, so that a host that is slow for a moment fails no request.
CLI_TIMEOUT = 10.0
# A pooled CLI request that hangs is failed whatever its limit, and the
# hang's time stays in its pass, so its limit is kept short.
POOLED_CLI_TIMEOUT = 2.0
SEARCH_TIMEOUT = 30.0

FO_SEEDED_FORMULAS = 6
PROP_SEEDED_SPECS = 8
BLOCK = 1000             # requests per percentile block
LIBRARY_BLOCKS = 4       # percentile blocks in a library request stream
CLI_REPEATS = 5          # each distinct CLI request appears this often
COLD_REQUESTS = 6        # distinct requests in the fresh-process subset
COLD_ROUNDS = 4          # rounds over the fresh-process subset per run


class JobTimeout(Exception):
    """A job ran past its timeout, for instance hung in the process pool."""


@dataclass
class Job:
    """One timed call and the oracle check of its result.  ``cli`` jobs
    return (exit code, stdout, stderr)."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    golden: str | None = None
    cli: bool = False
    timeout: float | None = None   # seconds; used for jobs that fork a pool
    # Exceptions from a known, open defect: they count as failed, not as
    # wrong.  Any other exception makes the job wrong.
    known_raises: tuple[type[BaseException], ...] = ()
    # Flags a right answer that took a known defective path: failed, not
    # wrong (see oracle.pool_stopped_early).
    known_defect: Callable[[object], str | None] | None = None

    def canonical(self, result) -> str:
        return oracle.cli_canonical(result) if self.cli \
            else oracle.canonical(result)


@dataclass
class ColdRequest:
    argv: list[str]
    req: dict
    golden: str | None


@dataclass
class Workload:
    name: str
    jobs: list[Job]                       # one pass
    traced_jobs: list[Job]                # the same pass at jobs=1
    requests: list[Job]                   # closed-loop request stream
    cold: list[ColdRequest]
    pool_pairs: list[tuple[Job, Job]]     # same work at jobs=1 and jobs=2
    warmup: list[Job]
    # Nominal seconds per pass, with the run's set-up runs, request blocks
    # and fresh-process requests shared out over the passes (measured on 2
    # vCPUs of an Intel Xeon); a run of --seconds makes
    # round(seconds / pass_s) passes, at least one.
    pass_s: float
    requests_are_pass: bool = False
    block: int = BLOCK     # requests per percentile block


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = modalkit.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _with_golden(goldens: dict, job: Job) -> Job:
    """Wrap the job's check so it also byte-compares against the golden."""
    base = job.check

    def check(result):
        return base(result) or oracle.check_golden(
            goldens, job.golden, job.canonical(result))
    job.check = check
    return job


# ---------------------------------------------------------------------------
# fo_sweep

def _pool_limits(jobs: int) -> dict:
    """Timeout, tolerated exception and defect flag for a search that forks
    a pool: a search that stops early on a hit can deadlock while its pool
    terminates."""
    if jobs == 1:
        return {}
    return {"timeout": SEARCH_TIMEOUT, "known_raises": (JobTimeout,),
            "known_defect": lambda r: oracle.pool_stopped_early(
                r.certificate if r is not None else None)}


def _fo_search_job(name: str, spec: SearchSpec, expect, jobs: int = 1
                   ) -> Job:
    return Job(name, lambda: modalkit.find_fo_countermodel(spec, jobs=jobs),
               expect, golden=name, **_pool_limits(jobs))


def _replay(spec):
    """Replay a found countermodel; check a "none" answer by brute force."""
    def check(result):
        if result is None:
            return oracle.check_no_countermodel(spec)
        return oracle.replay_countermodel(spec, result.to_dict())
    return check


def _fo_seeded_specs(seed: int) -> list[tuple[str, SearchSpec]]:
    rng = gen.rng_for(seed, "fo_sweep.formulas")
    out = []
    for _ in range(FO_SEEDED_FORMULAS):
        text = gen.closed_unary_formula(rng)
        spec = SearchSpec(parse(text), max_worlds=2, max_domain=2,
                          mode="varying")
        out.append((f"fo_sweep:fo_countermodel:{text}", spec))
    return out


def _barcan_requests(seed: int, count: int) -> list[tuple[dict, object]]:
    """Domain frames drawn uniformly, with replacement, from the (worlds,
    frame mask, existence mask) points of ``barcan_sweep(3, 2)``."""
    points = [(n, fmask, emask) for n in (1, 2, 3)
              for fmask in range(1 << (n * n)) for emask in range(1 << 2 * n)]
    assert len(points) == oracle.BARCAN_PAIRS_3_2
    rng = gen.rng_for(seed, "fo_sweep.dframes")
    out = []
    for _ in range(count):
        n, fmask, emask = rng.choice(points)
        doc = gen.dframe_dict_from_masks(n, 2, fmask, emask)
        out.append((doc, domain_frame_from_dict(doc)))
    return out


def fo_sweep(seed: int, work: Path, goldens: dict) -> Workload:
    seeded = [_fo_search_job(n, s, _replay(s))
              for n, s in _fo_seeded_specs(seed)]
    # the Barcan sweep first, so that work spread over the pass (see
    # bench.end_to_end) also runs after it
    jobs = [
        Job("fo_sweep:barcan_sweep(3,2)", lambda: modalkit.barcan_sweep(3, 2),
            oracle.check_sweep, golden="fo_sweep:barcan_sweep(3,2)"),
        Job("fo_sweep:bf_agreement_sweep(3,2)",
            lambda: modalkit.bf_agreement_sweep(3, 2), oracle.check_agreement,
            golden="fo_sweep:bf_agreement_sweep(3,2)"),
        Job("fo_sweep:find_barcan_divergence(3,2)",
            lambda: modalkit.find_barcan_divergence(3, 2),
            oracle.replay_divergence,
            golden="fo_sweep:find_barcan_divergence(3,2)"),
        _fo_search_job("fo_sweep:BF constant 3 worlds domain 2",
                       SearchSpec(BF_SCHEME, max_worlds=3, max_domain=2),
                       oracle.expect_none),
        *seeded[:3],
        _fo_search_job("fo_sweep:CBF constant 3 worlds domain 2",
                       SearchSpec(CBF_SCHEME, max_worlds=3, max_domain=2),
                       oracle.expect_none),
        *seeded[3:],
    ]
    jobs = [_with_golden(goldens, j) for j in jobs]
    dframes = _barcan_requests(seed, LIBRARY_BLOCKS * BLOCK)
    requests = [Job("fo_sweep:barcan_report",
                    lambda df=df: modalkit.barcan_report(df),
                    lambda rep, df=df: oracle.check_barcan_report(df, rep))
                for _doc, df in dframes]
    cold = []
    for i, (doc, _df) in enumerate(dframes[:COLD_REQUESTS]):
        path = gen.write_json(work / f"dframe{i}.json", doc)
        cold.append(ColdRequest(["barcan", "--dframe", str(path), "--json"],
                                {"kind": "barcan", "dframe": doc}, None))
    pairs = [(_with_golden(goldens, _fo_search_job(n, s, _replay(s), 1)),
              _with_golden(goldens, _fo_search_job(n, s, _replay(s), 2)))
             for n, s in _fo_seeded_specs(seed)]
    warm = [Job("warmup", lambda: modalkit.barcan_sweep(2, 1),
                lambda r: None)] + requests[:20]
    return Workload("fo_sweep", jobs, jobs, requests, cold, pairs, warm,
                    pass_s=50.0)


# ---------------------------------------------------------------------------
# prop_search

def _prop_seeded_specs(seed: int) -> list[tuple[str, SearchSpec]]:
    rng = gen.rng_for(seed, "prop_search.specs")
    out = []
    for _ in range(PROP_SEEDED_SPECS):
        with_atoms = rng.random() < 0.25
        leaves = gen.SCHEME_VARS + (("p",) if with_atoms else ())
        reading = rng.choice(("object", "meta"))
        if reading == "meta":
            text = (f"({gen.prop_formula(rng, leaves, 2)}) => "
                    f"({gen.prop_formula(rng, leaves, 2)})")
        else:
            text = gen.prop_formula(rng, leaves, 3)
        constraints = tuple(sorted(
            c for c in gen.FRAME_CONSTRAINTS if rng.random() < 0.2))
        schemes = ()
        if rng.random() < 0.4:
            schemes = (gen.prop_formula(rng, ("P",), 2),)
        max_worlds = 2 if with_atoms else 3
        spec = SearchSpec(parse(text), premise_schemes=tuple(
            parse(s) for s in schemes), frame_constraints=constraints,
            max_worlds=max_worlds, reading=reading)
        name = (f"prop_search:countermodel:{text}:{reading}:"
                f"{','.join(constraints)}:{';'.join(schemes)}:w{max_worlds}")
        out.append((name, spec))
    return out


def _all_frame_reports() -> list[dict]:
    return [modalkit.axiom_report(modalkit.frame_from_mask(n, mask))
            for n in (1, 2, 3) for mask in range(1 << (n * n))]


def _check_all_reports(reports: list[dict]) -> str | None:
    if len(reports) != oracle.FRAMES_UP_TO_3:
        return f"{len(reports)} axiom reports, theory counts " \
               f"{oracle.FRAMES_UP_TO_3} frames"
    i = 0
    for n in (1, 2, 3):
        for mask in range(1 << (n * n)):
            doc = gen.frame_dict_from_mask(n, mask)
            problem = oracle.check_axiom_report(oracle.frame_of(doc),
                                                reports[i])
            if problem:
                return f"{n} worlds mask {mask}: {problem}"
            i += 1
    return None


def prop_search(seed: int, work: Path, goldens: dict) -> Workload:
    def prop_job(name, spec, check, jobs=1):
        return Job(name, lambda: modalkit.find_countermodel(spec, jobs=jobs),
                   check, golden=name, **_pool_limits(jobs))

    k = SearchSpec(parse("[](p => q) => ([]p => []q)"), max_worlds=3)
    five = SearchSpec(parse("<>P => []<>P"), max_worlds=4,
                      frame_constraints={"equivalence"})
    four = SearchSpec(parse("[]P => [][]P"), max_worlds=4,
                      frame_constraints={"transitive"})
    seeded = _prop_seeded_specs(seed)
    seeded_jobs = [prop_job(n, spec, _replay(spec)) for n, spec in seeded]
    # ordered so that thirds of the job list take about a third of the
    # pass time each (see bench.end_to_end)
    jobs = [
        prop_job("prop_search:K p q 3 worlds", k, oracle.expect_none),
        *seeded_jobs[:3],
        prop_job("prop_search:5 equivalence 4 worlds", five,
                 oracle.expect_none),
        Job("prop_search:axiom_report 530 frames", _all_frame_reports,
            _check_all_reports, golden="prop_search:axiom_report 530 frames"),
        *seeded_jobs[3:6],
        prop_job("prop_search:4 transitive 4 worlds", four,
                 oracle.expect_none),
        Job("prop_search:find_deduction_gap",
            lambda: modalkit.find_deduction_gap(), oracle.replay_gap,
            golden="prop_search:find_deduction_gap"),
        *seeded_jobs[6:],
    ]
    # Every seed sends the same requests, each of the anchor's 530 frames
    # twice per percentile block's worth, and only their order, drawn with
    # the seed, differs; frames drawn at random would give each seed its own
    # share of cheap frames.
    points = [(n, mask) for n in (1, 2, 3) for mask in range(1 << (n * n))]
    rng = gen.rng_for(seed, "prop_search.frames")
    frames = []
    for _ in range(LIBRARY_BLOCKS):
        block = points * 2
        rng.shuffle(block)
        for n, mask in block:
            doc = gen.frame_dict_from_mask(n, mask)
            frames.append((doc, frame_from_dict(doc)))
    requests = [Job("prop_search:axiom_report",
                    lambda fr=fr: modalkit.axiom_report(fr),
                    lambda rep, fr=fr: oracle.check_axiom_report(fr, rep))
                for _doc, fr in frames]
    cold = []
    for i, (doc, _fr) in enumerate(frames[:COLD_REQUESTS]):
        path = gen.write_json(work / f"frame{i}.json", doc)
        cold.append(ColdRequest(["correspond", "--frame", str(path),
                                 "--json"],
                                {"kind": "correspond", "frame": doc}, None))
    pairs = [(_with_golden(goldens, prop_job(n, s, _replay(s), 1)),
              _with_golden(goldens, prop_job(n, s, _replay(s), 2)))
             for n, s in seeded]
    warm = [prop_job("warmup", SearchSpec(parse("[]P => P"), max_worlds=2),
                     lambda r: None)] + requests[:20]
    jobs = [_with_golden(goldens, j) for j in jobs]
    return Workload("prop_search", jobs, jobs, requests, cold, pairs,
                    warm, pass_s=15.0, block=2 * len(points))


# ---------------------------------------------------------------------------
# cli_mix

# Distinct requests per kind, 200 in all; each is repeated CLI_REPEATS times
# per pass.  Every countermodel spec appears once at --jobs 1 and once at
# --jobs 2, so 16 specs make 32 requests; the two "deep" requests are 1%.
CLI_MIX = {"check_prop": 46, "check_fo": 40, "frame_valid": 24,
           "correspond": 16, "barcan": 16, "render": 24,
           "countermodel": 16, "deep": 2}


def _file_key(argv: list[str], files: dict[str, str]) -> str:
    """Golden key: argv with file paths replaced by their content digest
    and the --jobs value dropped, since --jobs must not change output."""
    parts, skip = [], False
    for a in argv:
        if skip:
            skip = False
            continue
        if a == "--jobs":
            skip = True
            continue
        parts.append("@" + oracle.digest(files[a]) if a in files else a)
    return "cli_mix:" + oracle.digest(json.dumps(parts))


def _cli_requests(seed: int, work: Path) -> tuple[list[tuple[list[str], dict]],
                                                   dict[str, str]]:
    """The distinct requests of one seed as (argv, oracle request)."""
    rng = gen.rng_for(seed, "cli_mix")
    files: dict[str, str] = {}

    def put(name: str, doc: dict) -> str:
        path = gen.write_json(work / name, doc)
        files[str(path)] = path.read_text(encoding="utf-8")
        return str(path)

    prop_models = [gen.prop_model_dict(rng, rng.choice((2, 3, 4)))
                   for _ in range(12)]
    fo_models = [gen.fo_model_dict(rng, rng.choice((2, 3)),
                                   rng.choice((1, 2, 3))) for _ in range(8)]
    frames = [gen.frame_dict(rng, rng.choice((2, 3, 4))) for _ in range(16)]
    dframes = [gen.dframe_dict(rng, rng.choice((2, 3)), rng.choice((1, 2)))
               for _ in range(16)]
    pm = [put(f"model{i}.json", d) for i, d in enumerate(prop_models)]
    fm = [put(f"fomodel{i}.json", d) for i, d in enumerate(fo_models)]
    fr = [put(f"frame{i}.json", d) for i, d in enumerate(frames)]
    df = [put(f"dframe{i}.json", d) for i, d in enumerate(dframes)]

    out: list[tuple[list[str], dict]] = []
    for _ in range(CLI_MIX["check_prop"]):
        i = rng.randrange(len(pm))
        text = gen.prop_formula(rng, gen.PROP_ATOMS, 4)
        argv = ["check", "--model", pm[i], "--formula", text, "--json"]
        req = {"kind": "check", "model": prop_models[i], "formula": text}
        if rng.random() < 0.3:
            w = rng.choice(prop_models[i]["worlds"])
            argv[-1:-1] = ["--world", w]
            req["world"] = w
        out.append((argv, req))
    for _ in range(CLI_MIX["check_fo"]):
        i = rng.randrange(len(fm))
        text = gen.fo_check_formula(rng)
        out.append((["check", "--model", fm[i], "--formula", text, "--json"],
                    {"kind": "check", "model": fo_models[i],
                     "formula": text}))
    for _ in range(CLI_MIX["frame_valid"]):
        i = rng.randrange(len(fr))
        leaves = gen.SCHEME_VARS + (("p",) if rng.random() < 0.3 else ())
        text = gen.prop_formula(rng, leaves, 3)
        out.append((["frame-valid", "--frame", fr[i], "--scheme", text,
                     "--json"],
                    {"kind": "frame-valid", "frame": frames[i],
                     "scheme": text}))
    for i in range(CLI_MIX["correspond"]):
        out.append((["correspond", "--frame", fr[i], "--json"],
                    {"kind": "correspond", "frame": frames[i]}))
    for i in range(CLI_MIX["barcan"]):
        out.append((["barcan", "--dframe", df[i], "--json"],
                    {"kind": "barcan", "dframe": dframes[i]}))
    for _ in range(CLI_MIX["render"]):
        if rng.random() < 0.5:
            text = gen.prop_formula(rng, gen.PROP_ATOMS + gen.SCHEME_VARS, 4)
        else:
            text = gen.fo_check_formula(rng)
        fmt = rng.choice(("ascii", "unicode", "latex"))
        out.append((["render", "--formula", text, "--format", fmt],
                    {"kind": "render", "formula": text, "format": fmt}))
    # One world, so a --jobs 2 run starts exactly one pool over two frame
    # chunks, the empty relation and the reflexive one.  The p99 falls among
    # these requests; a fixed pool count keeps it from hopping with the seed
    # between one-pool and two-pool searches.  Of each kind's specs, half
    # have their least countermodel on the empty relation, so that the
    # search stops at its first chunk (the path oracle.pool_stopped_early
    # flags), and half do not: specs are drawn until both halves are full,
    # so every seed fails the same number of pooled requests.
    half = CLI_MIX["countermodel"] // 4
    quota = {(kind, early): half for kind in ("prop", "fo")
             for early in (True, False)}
    while any(quota.values()):
        kind = "prop" if rng.random() < 0.5 else "fo"
        if kind == "prop":
            text = gen.prop_formula(rng, gen.SCHEME_VARS, 3)
            argv = ["countermodel", "--conclusion", text, "--max-worlds", "1"]
            if rng.random() < 0.5:
                argv += ["--require", rng.choice(gen.FRAME_CONSTRAINTS)]
        else:
            text = gen.closed_unary_formula(rng, depth=2)
            argv = ["countermodel", "--conclusion", text, "--max-worlds", "1",
                    "--max-domain", "1", "--mode", "varying"]
        spec = _spec_from_argv(argv)
        slot = (kind, oracle.refuted_on_empty_frame(spec))
        if not quota[slot]:
            continue
        quota[slot] -= 1
        for jobs in ("1", "2"):
            out.append((argv + ["--jobs", jobs, "--json"],
                        {"kind": "countermodel", "spec": spec}))
    for i in range(CLI_MIX["deep"]):
        text = gen.deep_formula(i)
        argv = (["render", "--formula", text] if i % 2 == 0 else
                ["check", "--model", pm[0], "--formula", text, "--json"])
        out.append((argv, {"kind": "deep"}))
    return out, files


def _spec_from_argv(argv: list[str]) -> SearchSpec:
    args = dict(zip(argv[1::2], argv[2::2]))
    return SearchSpec(parse(args["--conclusion"]),
                      frame_constraints=frozenset(
                          [args["--require"]] if "--require" in args else []),
                      max_worlds=int(args["--max-worlds"]),
                      max_domain=int(args.get("--max-domain", 0)),
                      mode=args.get("--mode", "constant"))


def _set_jobs(argv: list[str], n: str) -> list[str]:
    i = argv.index("--jobs") + 1
    return argv[:i] + [n] + argv[i + 1:]


def _jobs_of(argv: list[str]) -> str:
    return argv[argv.index("--jobs") + 1] if "--jobs" in argv else "1"


def _cli_job(argv: list[str], req: dict, key: str, goldens: dict) -> Job:
    # Known open defects: a deeply nested formula overflows the recursive
    # parser and printer, and a --jobs 2 search can hang in its pool.
    limits: dict = {"timeout": CLI_TIMEOUT}
    if req["kind"] == "deep":
        limits["known_raises"] = (RecursionError,)
    elif _jobs_of(argv) != "1":
        limits = {"timeout": POOLED_CLI_TIMEOUT,
                  "known_raises": (JobTimeout,),
                  "known_defect": oracle.cli_pool_stopped_early}
    job = Job(f"cli_mix:{argv[0]}", lambda: run_cli(argv),
              lambda out: oracle.check_cli(req, out), golden=key, cli=True,
              **limits)
    return _with_golden(goldens, job)


def cli_mix(seed: int, work: Path, goldens: dict) -> Workload:
    distinct, files = _cli_requests(seed, work)
    keyed = [(argv, req, _file_key(argv, files)) for argv, req in distinct]
    order = [i for i in range(len(keyed)) for _ in range(CLI_REPEATS)]
    gen.rng_for(seed, "cli_mix.order").shuffle(order)
    jobs = [_cli_job(*keyed[i], goldens) for i in order]

    traced = [_cli_job(_set_jobs(argv, "1") if "--jobs" in argv else argv,
                       req, key, goldens)
              for argv, req, key in (keyed[i] for i in order)]
    pairs = [(_cli_job(argv, req, key, goldens),
              _cli_job(_set_jobs(argv, "2"), req, key, goldens))
             for argv, req, key in keyed
             if argv[0] == "countermodel" and _jobs_of(argv) == "1"]
    cold_pick = ("check", "frame-valid", "correspond", "barcan", "render",
                 "countermodel")
    cold = []
    for kind in cold_pick[:COLD_REQUESTS]:
        argv, req, key = next(
            (a, r, k) for a, r, k in keyed
            if a[0] == kind and r["kind"] != "deep" and _jobs_of(a) == "1")
        cold.append(ColdRequest(argv, req, key))
    warm = [_cli_job(argv, req, key, goldens)
            for argv, req, key in keyed if req["kind"] != "deep"][:40]
    return Workload("cli_mix", jobs, traced, jobs, cold, pairs, warm,
                    pass_s=5.0, requests_are_pass=True)


FACTORIES = {"fo_sweep": fo_sweep, "prop_search": prop_search,
            "cli_mix": cli_mix}


def build(name: str, seed: int, work: Path, goldens: dict) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return FACTORIES[name](seed, work, goldens)
