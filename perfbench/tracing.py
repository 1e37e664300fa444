"""Span tracing from outside the library.

The tracer replaces, for the length of one traced pass, the public names
that each modalkit module imports from the layer below (for example
``modalkit.search.PropModel`` or ``modalkit.cli.parse``) with wrappers that
record a span per call.  Library code is not changed: the wrappers live in
the importing module's namespace only and are removed afterwards.  Classes
are wrapped by a stand-in whose ``isinstance`` answer is the real class's,
so the instances built are the library's own.

A span is (kind, start, end, parent, request).  Spans are kept in flat
arrays while the pass runs and written out once at the end.  A span's self
time is its duration minus the time its direct children cover.  Spans made
inside forked pool workers stay in those workers and are not collected.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

from modalkit.semantics import Budget

SEARCH_API = ("find_countermodel", "find_fo_countermodel",
              "find_barcan_divergence", "find_deduction_gap", "barcan_sweep",
              "bf_agreement_sweep")
CHECKS = ("valid", "scheme_valid", "frame_valid", "meta_implies",
          "fo_scheme_valid", "bf_readings")
WALKERS = ("is_propositional", "prop_atoms", "scheme_vars", "pred_symbols",
           "free_vars", "const_names")
MODELS = ("Frame", "PropModel", "DomainFrame", "FoModel")
PROPERTIES = ("frame_property", "is_total", "domain_monotonicity")
LOADERS = ("load_model", "load_frame", "load_domain_frame")
REPORTS = ("axiom_report", "barcan_report", "refute_on_frame")

# layer -> (importing modules, names).  The top-level ``modalkit`` package
# is where the benchmark itself imports from.
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "parser": (("modalkit.cli", "modalkit.correspondence"), ("parse",)),
    "formula.render": (("modalkit.cli", "modalkit.search"), ("render",)),
    "formula.walk": (("modalkit.search", "modalkit.semantics"), WALKERS),
    "model.build": (("modalkit.search", "modalkit.semantics",
                     "modalkit.correspondence"), MODELS),
    "model.frame_property": (("modalkit.search", "modalkit.correspondence"),
                             PROPERTIES),
    "model.load": (("modalkit.cli",), LOADERS),
    "semantics.check": (("modalkit", "modalkit.search",
                         "modalkit.correspondence", "modalkit.cli"), CHECKS),
    "semantics.evaluate": (("modalkit.cli", "modalkit.search"),
                           ("evaluate",)),
    "correspondence": (("modalkit", "modalkit.cli"), REPORTS),
    "search": (("modalkit", "modalkit.cli"), SEARCH_API),
    "search.frame": (("modalkit.search",), ("frame_from_mask",)),
    "cli": (("modalkit.cli",), ("main",)),
}


class Tracer:
    """Collects spans while ``active``; inactive wrappers just call through.
    """

    def __init__(self):
        self.kinds: list[str] = []          # kind id -> "layer/name"
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.units: dict[int, int] = {}     # span -> Budget.used delta
        self.stack: list[int] = []
        self.request_id = -1
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _kind_id(self, label: str) -> int:
        self.kinds.append(label)
        return len(self.kinds) - 1

    def _wrap_call(self, fn, kind: int, metered: bool):
        tr = self
        start, end, stack = self.start, self.end, self.stack
        if metered:
            pos = list(inspect.signature(fn).parameters).index("budget")

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(start)
            tr.kind.append(kind)
            tr.parent.append(stack[-1] if stack else -1)
            tr.request.append(tr.request_id)
            end.append(0.0)
            stack.append(idx)
            bud = None
            if metered:
                bud = args[pos] if len(args) > pos else kwargs.get("budget")
                if not isinstance(bud, Budget):
                    bud = None
                used = bud.used if bud is not None else 0
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if bud is not None:
                    tr.units[idx] = bud.used - used
        return traced

    def _wrap(self, obj, label: str, metered: bool):
        kind = self._kind_id(label)
        call = self._wrap_call(obj, kind, metered)
        if not isinstance(obj, type):
            return functools.wraps(obj)(call)

        class _Stand(type):
            def __instancecheck__(cls, inst):
                return isinstance(inst, obj)

            def __subclasscheck__(cls, sub):
                return issubclass(sub, obj)

            def __call__(cls, *args, **kwargs):
                return call(*args, **kwargs)

            def __getattr__(cls, name):
                return getattr(obj, name)

        return _Stand(obj.__name__, (), {"__module__": obj.__module__,
                                         "__doc__": obj.__doc__})

    def install(self) -> None:
        for layer, (modules, names) in LAYERS.items():
            for modname in modules:
                mod = importlib.import_module(modname)
                for name in names:
                    if not hasattr(mod, name):
                        continue
                    orig = getattr(mod, name)
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, self._wrap(
                        orig, f"{layer}/{name}", layer == "semantics.check"))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patches):
            setattr(mod, name, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Duration minus the time direct children cover, per span."""
        start, end, parent = self.start, self.end, self.parent
        out = [end[i] - start[i] for i in range(len(start))]
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                out[p] -= end[i] - start[i]
        return out

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per "layer/name" label: calls, self seconds, inclusive seconds."""
        selfs = self.self_times()
        tot = {label: {"calls": 0, "self": 0.0, "incl": 0.0}
               for label in self.kinds}
        for i, k in enumerate(self.kind):
            t = tot[self.kinds[k]]
            t["calls"] += 1
            t["self"] += selfs[i]
            t["incl"] += self.end[i] - self.start[i]
        return tot

    def outer_units(self) -> int:
        """Budget units charged inside check spans that have no enclosing
        check span, so nested checks are not counted twice."""
        checks = {k for k, label in enumerate(self.kinds)
                  if label.startswith("semantics.check/")}
        total = 0
        for idx, n in self.units.items():
            p = self.parent[idx]
            while p >= 0 and self.kind[p] not in checks:
                p = self.parent[p]
            if p < 0:
                total += n
        return total

    def candidates(self) -> int:
        """PropModel/FoModel builds whose caller is a search call."""
        models = {k for k, label in enumerate(self.kinds)
                  if label in ("model.build/PropModel", "model.build/FoModel")}
        search = {k for k, label in enumerate(self.kinds)
                  if label.startswith("search")}
        return sum(1 for i, k in enumerate(self.kind)
                   if k in models and self.parent[i] >= 0
                   and self.kind[self.parent[i]] in search)

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\trequest\n")
            kinds, start, end = self.kinds, self.start, self.end
            parent, request = self.parent, self.request
            for i, k in enumerate(self.kind):
                fh.write(f"{i}\t{kinds[k]}\t{start[i]:.9f}\t{end[i]:.9f}\t"
                         f"{parent[i]}\t{request[i]}\n")
