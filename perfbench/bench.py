"""Measurement harness: set-up timing, passes, request streams, fresh-process
requests, the traced pass and the metrics report.

End-to-end run (``--trace 0``), tracing off:

- ``setup_s``: median over SETUP_REPEATS fresh interpreters of
  ``run.py --setup-only`` (import modalkit, generate and write the seeded
  inputs, warm up), timed from spawn to exit;
- ``wall_s``: median time of one pass over the fixed job list in this
  process at jobs=1 (cli_mix: one pass over its request stream).  A run
  makes ``round(--seconds / Workload.pass_s)`` passes, at least one: the
  count follows from the arguments, not from the clock, so every run of a
  seed does the same work and counts the same attempted and failed
  operations however fast the host is;
- ``request_p50_ms`` / ``request_p99_ms``: per-request latency of a closed
  loop with one client, as the median over blocks of ``Workload.block``
  requests of each block's percentile; failed requests keep their measured
  time (failures are reported by count, as ``failed`` of ``attempted``).
  In the library request streams of fo_sweep and prop_search each request
  is sent twice back to back and the faster time counts (see
  ``run_requests``); cli_mix times each request of its pass once;
- ``cold_start_ms``: median wall time of a fixed subset of requests, each in
  a fresh ``python -m modalkit`` process;

The set-up runs, library requests and fresh-process requests are spread
evenly over the passes (``spread``).
- ``peak_rss_mb``: peak resident set of this process or its largest child.

Traced run (``--trace 1``): one untraced and one traced pass over the job
list at jobs=1, paired jobs=1/jobs=2 runs for ``search.pool_ms``, and fresh
interpreters for ``cli.import_ms``.  The spans go to
``.perfbench_work/spans-<workload>-<seed>.tsv.gz``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from . import oracle, workloads
from .tracing import Tracer
from .workloads import JobTimeout

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
POOL_ROUNDS = 2
IMPORT_PAIRS = 5
SUBPROCESS_TIMEOUT = 120
GROUPS_PER_BLOCK = 10    # a library request block is sent in this many groups


@dataclass
class Tally:
    """Oracle outcome over every job and request run."""

    attempted: int = 0
    known: int = 0           # failed by a known, open defect
    wrong: int = 0           # a wrong answer or any other exception
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.known + self.wrong

    def note(self, name: str, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {problem}")


def run_job(job, tally: Tally, tracer: Tracer | None = None,
            request_id: int = -1) -> tuple[float, bool]:
    """Run and check one job: its latency in seconds and whether it gave a
    right answer.  A raise is a failed job, not a benchmark error; it is
    also a wrong one unless the job lists it among its known defects.  A
    right answer that the job's ``known_defect`` flags is a failed job too.
    A job still running when its timeout fires counts as a JobTimeout even
    if it answers afterwards (a pool hang ends that way: the alarm's
    exception surfaces inside a finaliser, which swallows it)."""
    fired = []
    if job.timeout:
        def on_alarm(signum, frame):
            fired.append(signum)
            raise JobTimeout(f"no answer within {job.timeout} s")
        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, job.timeout)
    if tracer is not None:
        tracer.request_id = request_id
        tracer.active = True
    t0 = perf_counter()
    error: type[BaseException] | None = None
    try:
        result = job.call()
    except Exception as exc:
        error = type(exc)
    finally:
        if job.timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)
    if fired:
        error = JobTimeout
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    tally.attempted += 1
    right = False
    if error is not None:
        problem = f"raised {error.__name__}"
        if issubclass(error, job.known_raises):
            tally.known += 1
        else:
            tally.wrong += 1
    else:
        problem = job.check(result)
        right = problem is None
        if problem:
            tally.wrong += 1
        elif job.known_defect is not None:
            problem = job.known_defect(result)
            if problem:
                tally.known += 1
    if problem:
        tally.note(job.name, problem)
    return dt, right


def run_pass(jobs, tally: Tally, tracer: Tracer | None = None,
             between: dict[int, list[Callable[[], object]]] | None = None
             ) -> tuple[float, list[float]]:
    """Wall time of one pass (the sum of job latencies) and the per-job
    latencies.  A failed job keeps its measured latency; failures are
    counted in the tally, not folded into the percentiles.  ``between``
    maps a job index to untimed work done just before that job."""
    lat = []
    for i, job in enumerate(jobs):
        for work in (between or {}).get(i, ()):
            work()
        lat.append(run_job(job, tally, tracer, i)[0])
    return sum(lat), lat


def run_requests(jobs, tally: Tally) -> list[float]:
    """Latency of each request as the faster of two back-to-back runs.

    A shared virtual machine (measured on 2 vCPUs) loses its CPU to other
    guests about 1% of the time, in stretches of several milliseconds
    (steal time), so a single 1 ms request's p99 reads whether such a
    stretch hit 1% of a block rather than the cost of the stream's
    heaviest requests.  Both
    runs are checked and counted.  The library keeps no cache between
    calls, so the second run repeats the first's work."""
    return [min(run_job(job, tally)[0], run_job(job, tally)[0])
            for job in jobs]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def block_percentile(blocks: list[list[float]], q: float) -> float:
    """Median over request blocks of each block's percentile, so that one
    burst of machine noise moves one block only.  With blocks of at least
    1000 requests, p99 still has ten samples beyond it in every block."""
    return statistics.median(percentile(b, q) for b in blocks)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _timed_subprocess(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    return perf_counter() - t0, proc


def measure_setup(args) -> float:
    """Spawn-to-exit time of one ``run.py --setup-only`` interpreter."""
    dt, proc = _timed_subprocess(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
    return dt


def measure_cold(cold, tally: Tally, goldens: dict) -> float:
    """Time and check one request in a fresh ``python -m modalkit``."""
    dt, proc = _timed_subprocess([sys.executable, "-m", "modalkit",
                                  *cold.argv])
    tally.attempted += 1
    answer = (proc.returncode, proc.stdout, proc.stderr)
    problem = oracle.check_cli(cold.req, answer) or \
        oracle.check_golden(goldens, cold.golden, oracle.cli_canonical(answer))
    if problem:
        tally.wrong += 1
        tally.note(f"fresh process {cold.argv[0]}", problem)
    return dt


def spread(groups: list[list], slots: int) -> dict[int, list]:
    """Place each group's items at even positions over ``slots`` job
    positions: position -> the items to run just before that job, in
    group order."""
    at: dict[int, list] = {}
    for items in groups:
        for i, item in enumerate(items):
            at.setdefault(int((i + 0.5) * slots / len(items)), []).append(
                item)
    return at


def setup(args) -> tuple[object, dict]:
    goldens = oracle.load_goldens()
    work = WORK / f"{args.workload}-{args.seed}"
    wl = workloads.build(args.workload, args.seed, work, goldens)
    warm = Tally()
    for job in wl.warmup:
        run_job(job, warm)
    # The harness's own inputs and jobs live for the whole run; keep the
    # cyclic collector from re-scanning them during measured requests.
    gc.collect()
    gc.freeze()
    return wl, goldens


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def end_to_end(args) -> tuple[dict, Tally]:
    wl, goldens = setup(args)
    tally = Tally()
    setup_times: list[float] = []
    passes: list[float] = []
    pass_lat: list[list[float]] = []
    cold: list[float] = []
    # The host's speed drifts by 10-50% over seconds to tens of seconds, so
    # the set-up runs, fresh-process requests and library requests are
    # spread over all passes, at even job positions, rather than run in one
    # stretch: every metric then samples the whole run, and the medians
    # ride out one slow stretch.  The workloads order their jobs so that
    # these positions split the pass time about evenly.  A library request
    # stream goes out in groups of a tenth of a percentile block, and block
    # b gathers every n_blocks-th group, so that each block's percentile,
    # too, samples the whole run rather than one stretch of it.
    size = wl.block // GROUPS_PER_BLOCK
    groups = [] if wl.requests_are_pass else [
        wl.requests[i:i + size] for i in range(0, len(wl.requests), size)]
    group_lat: list[list[float]] = [[] for _ in groups]
    n_passes = max(1, round(args.seconds / wl.pass_s))
    n = len(wl.jobs)
    at = spread([
        [lambda: setup_times.append(measure_setup(args))] * SETUP_REPEATS,
        [lambda c=c: cold.append(measure_cold(c, tally, goldens))
         for c in wl.cold] * workloads.COLD_ROUNDS,
        [lambda k=k: group_lat[k].extend(run_requests(groups[k], tally))
         for k in range(len(groups))],
    ], n_passes * n)

    for p in range(n_passes):
        wall, lat = run_pass(wl.jobs, tally, between={
            i - p * n: work for i, work in at.items()
            if p * n <= i < (p + 1) * n})
        passes.append(wall)
        pass_lat.append(lat)
    n_blocks = len(wl.requests) // wl.block
    blocks = pass_lat if wl.requests_are_pass else [
        [t for k in range(b, len(groups), n_blocks) for t in group_lat[k]]
        for b in range(n_blocks)]
    n_requests = sum(map(len, blocks))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median(passes), "s", len(passes)),
        "request_p50_ms": (block_percentile(blocks, 0.50) * 1e3, "ms",
                           n_requests),
        "request_p99_ms": (block_percentile(blocks, 0.99) * 1e3, "ms",
                           n_requests),
        "cold_start_ms": (statistics.median(cold) * 1e3, "ms", len(cold)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    return metrics, tally


def traced(args) -> tuple[dict, Tally]:
    wl, goldens = setup(args)
    tally = Tally()
    untraced_wall, _ = run_pass(wl.traced_jobs, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, _ = run_pass(wl.traced_jobs, tally, tracer)
    finally:
        tracer.uninstall()
    diffs = []
    for _ in range(POOL_ROUNDS):
        for one, two in wl.pool_pairs:
            t1, ok1 = run_job(one, tally)
            t2, ok2 = run_job(two, tally)
            if ok1 and ok2:
                diffs.append(t2 - t1)
    imports = []
    for _ in range(IMPORT_PAIRS):
        bare, p1 = _timed_subprocess([sys.executable, "-c", "pass"])
        full, p2 = _timed_subprocess([sys.executable, "-c", "import modalkit"])
        if p1.returncode or p2.returncode:
            raise RuntimeError(f"interpreter start failed: {p2.stderr}")
        imports.append(full - bare)
    tracer.write(WORK / f"spans-{args.workload}-{args.seed}.tsv.gz")
    metrics = layer_metrics(tracer, traced_wall, untraced_wall)
    metrics["search.pool_ms"] = (
        statistics.median(diffs) * 1e3 if diffs else 0.0, "ms", len(diffs))
    metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms",
                                len(imports))
    return metrics, tally


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float
                  ) -> dict:
    totals = tracer.layer_totals()

    def agg(layer: str) -> tuple[int, float, float]:
        calls = self_s = incl = 0.0
        for label, t in totals.items():
            if label.rsplit("/", 1)[0] == layer:
                calls += t["calls"]
                self_s += t["self"]
                incl += t["incl"]
        return int(calls), self_s, incl

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    parser = agg("parser")
    render = agg("formula.render")
    walk = agg("formula.walk")
    build = agg("model.build")
    prop = agg("model.frame_property")
    load = agg("model.load")
    check = agg("semantics.check")
    ev = agg("semantics.evaluate")
    corr = agg("correspondence")
    search = agg("search")
    frames = agg("search.frame")
    cli = agg("cli")
    units = tracer.outer_units()
    n = len(tracer)
    return {
        "parser.calls": (parser[0], "count", n),
        "parser.self_ms": (parser[1] * 1e3, "ms", parser[0]),
        "parser.us_per_call": (per(parser[1] * 1e6, parser[0]), "us",
                               parser[0]),
        "formula.render.self_ms": (render[1] * 1e3, "ms", render[0]),
        "formula.walk.calls": (walk[0], "count", n),
        "formula.walk.self_ms": (walk[1] * 1e3, "ms", walk[0]),
        "model.build.calls": (build[0], "count", n),
        "model.build.self_ms": (build[1] * 1e3, "ms", build[0]),
        "model.frame_property.calls": (prop[0], "count", n),
        "model.frame_property.self_ms": (prop[1] * 1e3, "ms", prop[0]),
        "model.load.self_ms": (load[1] * 1e3, "ms", load[0]),
        "semantics.check.calls": (check[0], "count", n),
        "semantics.check.self_ms": (check[1] * 1e3, "ms", check[0]),
        "semantics.units": (units, "count", check[0]),
        "semantics.units_per_s": (per(units, check[1]), "1/s", check[0]),
        "semantics.evaluate.calls": (ev[0], "count", n),
        "semantics.evaluate.self_ms": (ev[1] * 1e3, "ms", ev[0]),
        "correspondence.calls": (corr[0], "count", n),
        "correspondence.self_ms": (corr[1] * 1e3, "ms", corr[0]),
        "search.frames": (frames[0], "count", n),
        # frames the search scans per second of time inside search calls
        "search.frames_per_s": (per(frames[0], search[2]), "1/s", frames[0]),
        "search.candidates": (tracer.candidates(), "count", n),
        "search.self_ms": ((search[1] + frames[1]) * 1e3, "ms",
                           search[0] + frames[0]),
        "cli.self_ms": (per(cli[1] * 1e3, cli[0]), "ms", cli[0]),
        "trace.wall_s": (traced_wall, "s", 1),
        "trace.untraced_wall_s": (untraced_wall, "s", 1),
        "trace.overhead_pct": (
            per((traced_wall - untraced_wall) * 100, untraced_wall), "%", 1),
        "trace.spans": (n, "count", n),
    }


def report(metrics: dict, tally: Tally) -> None:
    """Print each metric with its unit and sample count, then the result
    line."""
    print(f"machine: nproc={os.cpu_count()} "
          f"python={platform.python_version()} arch={platform.machine()}")
    fail_ratio = tally.failed / max(1, tally.attempted)
    rows = {**metrics, "fail_ratio": (fail_ratio, "ratio", tally.attempted)}
    for name, (value, unit, count) in rows.items():
        print(f"{name:30s} {value:14.4f} {unit:6s} n={count}")
    for problem in tally.problems:
        print(f"failed: {problem}", file=sys.stderr)
    doc = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _count) in metrics.items()},
    }
    print(json.dumps(doc))


def main(args) -> int:
    if args.setup_only:
        setup(args)
        return 0
    metrics, tally = traced(args) if args.trace else end_to_end(args)
    report(metrics, tally)
    return 0
