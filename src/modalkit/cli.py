"""Command-line surface: batch checks over model files and formula text.

Exit status contract, shared by every subcommand:
  0  the property holds / the formula is valid / no countermodel in range
  1  a countermodel or refutation was found
  2  usage, parse, or model-validation error; also a formula nested too
     deeply for the recursive parser and evaluator, a MODALKIT_BUDGET that
     is not a positive integer, --jobs below 1, and a stdout that is closed
     or cannot be written
  3  a resource limit was reached (see MODALKIT_BUDGET)

With ``--json``, stdout carries exactly one JSON document and nothing else;
human-readable diagnostics go to stderr.  ``--jobs N`` is validated (N at
least 1) and no longer changes how a search runs: every stage is scanned in
this process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .formula import FORMATS, bind_free, is_propositional, render
from .model import ModelError, load_domain_frame, load_frame, load_model
from .parser import ParseError, parse
from .correspondence import axiom_report, barcan_report
from .semantics import (Budget, EvalError, ResourceLimit, evaluate,
                        frame_valid)
from .search import (SearchSpec, find_countermodel, find_fo_countermodel,
                     FO_WORLD_CEILING, PROP_WORLD_CEILING)

__all__ = ["main", "main_entry"]

EXIT_HOLDS = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _emit(args, doc: dict, human: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=False))
    else:
        print(human)


def _fail(args, kind: str, message: str, code: int, extra: dict | None = None
          ) -> int:
    if args is not None and getattr(args, "json", False):
        doc = {"error": {"kind": kind, "message": message, **(extra or {})}}
        print(json.dumps(doc, indent=2))
        print(message, file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _parse_env(pairs: list[str] | None) -> dict[str, str]:
    env: dict[str, str] = {}
    for raw in pairs or ():
        name, sep, value = raw.partition("=")
        if not sep or not name or not value:
            raise ValueError(f"--env expects name=element, got {raw!r}")
        env[name] = value
    return env


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_check(args) -> int:
    m = load_model(args.model)
    f = parse(args.formula)
    env = _parse_env(args.env)
    if env:
        f = bind_free(f, env.keys())
    if args.world is not None:
        value = evaluate(m, f, args.world, env=env)
        _emit(args, {"command": "check", "formula": args.formula,
                     "world": args.world, "value": value},
              "true" if value else "false")
        return EXIT_HOLDS if value else EXIT_FOUND
    witness = None
    for w in m.worlds:
        if not evaluate(m, f, w, env=env):
            witness = w
            break
    doc = {"command": "check", "formula": args.formula,
           "valid": witness is None}
    if witness is None:
        _emit(args, doc, "valid")
        return EXIT_HOLDS
    doc["witness"] = {"world": witness}
    _emit(args, doc, f"invalid at {witness}")
    return EXIT_FOUND


def _cmd_frame_valid(args) -> int:
    fr = load_frame(args.frame)
    scheme = parse(args.scheme)
    v = frame_valid(fr, scheme, Budget())
    doc = {"command": "frame-valid", "scheme": args.scheme, **v.to_dict()}
    if v.holds:
        _emit(args, doc, "frame-valid")
        return EXIT_HOLDS
    parts = [f"refuted at {v.world}"]
    for name, worlds in sorted(v.assignment.items()):
        parts.append(f"  {name} = {{{', '.join(worlds)}}}")
    _emit(args, doc, "\n".join(parts))
    return EXIT_FOUND


def _yes(v: bool) -> str:
    return "yes" if v else "no"


def _report(args, doc: dict, head: str) -> int:
    """Emit a report: the head line, then whether each axiom holds, with
    its frame property when it names one and a note where the two are
    inconsistent; exit 0 when every axiom holds."""
    lines = [head]
    for axiom_id, e in doc["axioms"].items():
        prop = e.get("frame_property")
        tag = f" ({prop}={_yes(e['property'])})" if prop else ""
        note = "" if e["consistent"] else "  INCONSISTENT"
        status = "holds" if e["holds"] else "fails"
        lines.append(f"{axiom_id}: {status}{tag}{note}")
    _emit(args, doc, "\n".join(lines))
    holds = all(e["holds"] for e in doc["axioms"].values())
    return EXIT_HOLDS if holds else EXIT_FOUND


def _cmd_correspond(args) -> int:
    rep = axiom_report(load_frame(args.frame), Budget())
    return _report(args, {"command": "correspond", **rep}, "properties: " +
                   " ".join(f"{k}={_yes(v)}"
                            for k, v in rep["properties"].items()))


def _cmd_barcan(args) -> int:
    rep = barcan_report(load_domain_frame(args.dframe), Budget())
    return _report(args, {"command": "barcan", **rep}, "domains: " +
                   " ".join(f"{k}={_yes(v)}"
                            for k, v in rep["monotonicity"].items())
                   + f" symmetric={_yes(rep['symmetric'])}")


def _cmd_countermodel(args) -> int:
    conclusion = parse(args.conclusion)
    premises = tuple(parse(t) for t in args.premise or ())
    schemes = tuple(parse(t) for t in args.scheme_premise or ())
    constraints = frozenset(
        c.strip() for chunk in args.require or ()
        for c in chunk.split(",") if c.strip())
    spec = SearchSpec(conclusion=conclusion,
                      premise_formulas=premises,
                      premise_schemes=schemes,
                      frame_constraints=constraints,
                      max_worlds=args.max_worlds,
                      max_domain=args.max_domain,
                      reading=args.reading,
                      mode=args.mode)
    first_order = not all(is_propositional(f) for f in spec.formulas())
    if first_order:
        if spec.max_domain < 1:
            raise ValueError("quantified formulas need --max-domain >= 1")
        result = find_fo_countermodel(spec, jobs=args.jobs)
    else:
        result = find_countermodel(spec, jobs=args.jobs)
    if result is None:
        scope = f"up to {spec.max_worlds} worlds"
        if first_order:
            scope += f", domain up to {spec.max_domain}"
        doc = {"command": "countermodel", "found": False,
               "max_worlds": spec.max_worlds}
        if first_order:
            doc["max_domain"] = spec.max_domain
        _emit(args, doc, f"no countermodel {scope}")
        return EXIT_HOLDS
    payload = result.to_dict()
    doc = {"command": "countermodel", "found": True, **payload}
    # the human text is encoded only when it is printed, not under --json
    _emit(args, doc, "" if args.json else
          "countermodel found:\n" + json.dumps(payload, indent=2))
    return EXIT_FOUND


def _cmd_render(args) -> int:
    f = parse(args.formula)
    print(render(f, args.format))
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# Argument parsing and dispatch

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser, built on the first call and shared after it:
    building it costs about as much as a small request, and ``parse_args``
    reads it without changing it and returns a fresh namespace each call."""
    p = argparse.ArgumentParser(
        prog="modalkit",
        description="Finite-model workbench for propositional and "
                    "quantified modal logic.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit a single JSON document on stdout")

    sp = sub.add_parser("check", help="evaluate a formula on a model")
    sp.add_argument("--model", required=True, help="model JSON file")
    sp.add_argument("--formula", required=True, help="formula text")
    sp.add_argument("--world", help="evaluate at this world only")
    sp.add_argument("--env", action="append", metavar="NAME=ELEMENT",
                    help="bind a free variable (repeatable)")
    add_json(sp)
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("frame-valid",
                        help="schematic validity on a bare frame")
    sp.add_argument("--frame", required=True, help="frame JSON file")
    sp.add_argument("--scheme", required=True, help="scheme text")
    add_json(sp)
    sp.set_defaults(fn=_cmd_frame_valid)

    sp = sub.add_parser("correspond",
                        help="axiom/property correspondence report")
    sp.add_argument("--frame", required=True, help="frame JSON file")
    add_json(sp)
    sp.set_defaults(fn=_cmd_correspond)

    sp = sub.add_parser("barcan",
                        help="Barcan schemes vs domain monotonicity")
    sp.add_argument("--dframe", required=True,
                    help="domain-frame JSON file")
    add_json(sp)
    sp.set_defaults(fn=_cmd_barcan)

    sp = sub.add_parser("countermodel", help="bounded countermodel search")
    sp.add_argument("--conclusion", required=True, help="formula to refute")
    sp.add_argument("--premise", action="append", metavar="TEXT",
                    help="formula that must be valid (repeatable)")
    sp.add_argument("--scheme-premise", action="append", metavar="TEXT",
                    help="scheme that must be schematically valid "
                         "(repeatable)")
    sp.add_argument("--require", action="append", metavar="PROPS",
                    help="frame constraints, comma-separated (repeatable)")
    sp.add_argument("--max-worlds", type=int, default=3,
                    help=f"world bound (default 3; ceiling "
                         f"{PROP_WORLD_CEILING} propositional, "
                         f"{FO_WORLD_CEILING} quantified)")
    sp.add_argument("--max-domain", type=int, default=0,
                    help="domain bound for quantified search "
                         "(default 0 = propositional)")
    sp.add_argument("--mode", choices=("constant", "varying"),
                    default="constant", help="domain regime")
    sp.add_argument("--reading", choices=("object", "meta"),
                    default="object", help="how to read the conclusion")
    sp.add_argument("--jobs", type=int, default=1,
                    help="at least 1; kept for compatibility, every "
                         "search runs in this process")
    add_json(sp)
    sp.set_defaults(fn=_cmd_countermodel)

    sp = sub.add_parser("render", help="re-render a formula")
    sp.add_argument("--formula", required=True, help="formula text")
    sp.add_argument("--format", choices=FORMATS, default="unicode")
    sp.set_defaults(fn=_cmd_render)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except ParseError as e:
        span = {"start": e.span.start, "end": e.span.end} if e.span else None
        return _fail(args, "parse", str(e), EXIT_USAGE,
                     {"span": span} if span else None)
    except ModelError as e:
        return _fail(args, "model", str(e), EXIT_USAGE, {"path": e.path})
    except ResourceLimit as e:
        extra = {"frontier": e.frontier} if e.frontier is not None else None
        return _fail(args, "resource-limit", str(e), EXIT_LIMIT, extra)
    except EvalError as e:
        return _fail(args, "evaluation", str(e), EXIT_USAGE)
    except ValueError as e:
        return _fail(args, "usage", str(e), EXIT_USAGE)
    except RecursionError:
        return _fail(args, "usage", "formula nested too deeply", EXIT_USAGE)


def main_entry() -> None:
    if sys.stdout is None:      # started with file descriptor 1 closed
        print("error: stdout is closed", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except OSError as e:
        # A closed pipe, a full disk: stdout takes no more.  Send what is
        # left to devnull so the interpreter's final flush does not fail a
        # second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {e.strerror or e}",
              file=sys.stderr)
        code = EXIT_USAGE
    raise SystemExit(code)
