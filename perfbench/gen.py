"""Seeded input generators for the benchmark.

Every generator takes a seed and derives its own ``random.Random`` from the
seed and a purpose string, so one generator's draws never shift another's
and the same seed always gives byte-identical inputs.  Formulas are built as
text by the printers below, not by the library, so the program under test
only ever receives generated text and JSON files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# The seed kept back for checking a claimed gain on inputs not used while
# the change was written.
VALIDATION_SEED = 104729

PROP_ATOMS = ("p", "q", "r")
SCHEME_VARS = ("P", "Q")
FRAME_CONSTRAINTS = ("reflexive", "transitive", "symmetric", "serial",
                     "euclidean")
DEEP_NESTING = 3000


def rng_for(seed: int, purpose: str) -> random.Random:
    # str seeds are hashed with SHA-512, so this does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"modalkit-perfbench:{seed}:{purpose}")


# ---------------------------------------------------------------------------
# Formula text

_BINARY = ("&", "|", "=>", "<=>")
_UNARY = ("~", "[]", "<>")


def prop_formula(rng: random.Random, leaves: tuple[str, ...],
                 depth: int) -> str:
    """A random propositional formula over ``leaves``, fully parenthesised
    below the top so that the text parses the same under any precedence."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(leaves)
    if rng.random() < 0.4:
        return rng.choice(_UNARY) + prop_formula(rng, leaves, depth - 1)
    op = rng.choice(_BINARY + ("|>",) if rng.random() < 0.1 else _BINARY)
    lhs = prop_formula(rng, leaves, depth - 1)
    rhs = prop_formula(rng, leaves, depth - 1)
    return f"({lhs} {op} {rhs})"


def _fo_body(rng: random.Random, var: str, preds: tuple[str, ...],
             depth: int) -> str:
    """Text whose only free variable is ``var``."""
    if depth <= 0 or rng.random() < 0.25:
        return f"{rng.choice(preds)}({var})"
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(_UNARY) + _fo_body(rng, var, preds, depth - 1)
    if roll < 0.5:
        q = rng.choice(("forall", "exists"))
        return f"({q} {var}. {_fo_body(rng, var, preds, depth - 1)})"
    op = rng.choice(_BINARY)
    return (f"({_fo_body(rng, var, preds, depth - 1)} {op} "
            f"{_fo_body(rng, var, preds, depth - 1)})")


def closed_unary_formula(rng: random.Random, preds: tuple[str, ...] = ("f",),
                         depth: int = 3) -> str:
    """A closed first-order formula over unary predicates and the one
    variable x, mixing quantifiers with the modal operators."""
    def go(d: int) -> str:
        roll = rng.random()
        if d <= 0 or roll < 0.45:
            q = rng.choice(("forall", "exists"))
            return f"({q} x. {_fo_body(rng, 'x', preds, depth)})"
        if roll < 0.7:
            return rng.choice(_UNARY) + go(d - 1)
        return f"({go(d - 1)} {rng.choice(_BINARY)} {go(d - 1)})"
    return go(2)


def deep_formula(kind: int) -> str:
    """DEEP_NESTING nested operators: prefix negations or parentheses."""
    if kind % 2 == 0:
        return "~" * DEEP_NESTING + "p"
    return "(" * DEEP_NESTING + "p" + ")" * DEEP_NESTING


# ---------------------------------------------------------------------------
# Frames, models and domain frames as JSON-ready dicts

def world_names(n: int) -> list[str]:
    return [f"w{i}" for i in range(n)]


def random_access(rng: random.Random, worlds: list[str],
                  density: float = 0.4) -> list[list[str]]:
    return [[a, b] for a in worlds for b in worlds if rng.random() < density]


def frame_dict(rng: random.Random, n: int) -> dict:
    worlds = world_names(n)
    return {"worlds": worlds, "access": random_access(rng, worlds)}


def frame_dict_from_mask(n: int, mask: int) -> dict:
    """Bit i*n+j set means world i sees world j."""
    worlds = world_names(n)
    return {"worlds": worlds,
            "access": [[worlds[i], worlds[j]] for i in range(n)
                       for j in range(n) if mask >> (i * n + j) & 1]}


def dframe_dict_from_masks(n: int, d: int, fmask: int, emask: int) -> dict:
    """The frame of ``fmask`` with a domain of d elements; bit i*d+e of
    ``emask`` puts element e at world i."""
    out = frame_dict_from_mask(n, fmask)
    domain = [chr(ord("a") + i) for i in range(d)]
    out["domain"] = domain
    out["exists_in"] = {w: [e for j, e in enumerate(domain)
                            if emask >> (i * d + j) & 1]
                        for i, w in enumerate(out["worlds"])}
    return out


def _subset(rng: random.Random, items: list[str], p: float = 0.5
            ) -> list[str]:
    return [x for x in items if rng.random() < p]


def dframe_dict(rng: random.Random, n: int, d: int) -> dict:
    out = frame_dict(rng, n)
    domain = [chr(ord("a") + i) for i in range(d)]
    out["domain"] = domain
    out["exists_in"] = {w: _subset(rng, domain) for w in out["worlds"]}
    return out


def prop_model_dict(rng: random.Random, n: int) -> dict:
    out = frame_dict(rng, n)
    out["valuation"] = {a: _subset(rng, out["worlds"]) for a in PROP_ATOMS}
    return out


def fo_model_dict(rng: random.Random, n: int, d: int) -> dict:
    out = prop_model_dict(rng, n)
    worlds = out["worlds"]
    domain = [chr(ord("a") + i) for i in range(d)]
    mode = rng.choice(("constant", "varying"))
    out["domain"] = domain
    out["mode"] = mode
    out["exists_in"] = {w: (list(domain) if mode == "constant"
                            else _subset(rng, domain, 0.6)) for w in worlds}
    out["flexible_preds"] = {
        "f": {"arity": 1, "extension": {
            w: [[e] for e in _subset(rng, domain)] for w in worlds}},
        "r": {"arity": 2, "extension": {
            w: [[a, b] for a in domain for b in domain if rng.random() < 0.4]
            for w in worlds}},
    }
    out["rigid_preds"] = {"s": {"arity": 1, "extension": [
        [e] for e in _subset(rng, domain)]}}
    out["rigid_consts"] = {"c": rng.choice(domain)}
    return out


def fo_check_formula(rng: random.Random) -> str:
    """Closed text over f, r, s, the constant c and equality."""
    atoms = ("f(x)", "s(x)", "r(x, c)", "r(c, x)", "x = c", "f(c)")

    def body(d: int) -> str:
        if d <= 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        roll = rng.random()
        if roll < 0.35:
            return rng.choice(_UNARY) + body(d - 1)
        return f"({body(d - 1)} {rng.choice(_BINARY)} {body(d - 1)})"

    q = rng.choice(("forall", "exists"))
    top = f"({q} x. {body(3)})"
    if rng.random() < 0.5:
        top = rng.choice(_UNARY) + top
    return top


def write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
