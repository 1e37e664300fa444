"""Frames, models, property checks against brute-force oracles, and the
JSON model format with first-violation paths."""

import copy
import json
import random
from itertools import product

import pytest

from modalkit import (DomainFrame, FlexiblePred, FoModel, Frame,
                      FRAME_PROPERTIES, ModelError, PropModel, RigidPred,
                      domain_frame_from_dict, domain_monotonicity,
                      frame_from_dict, frame_property, is_total,
                      load_domain_frame, load_frame, load_model,
                      model_from_dict, model_to_dict)
from modalkit.model import _bits, _extension, _pairs
from modalkit.search import enumerate_frames, frame_from_mask


# ---------------------------------------------------------------------------
# Independent property oracles: literal quantifier nests over edge sets,
# sharing no code with the bitmask implementations under test.

def _holds(fr, a, b):
    return (a, b) in fr.access


def oracle_property(fr: Frame, prop: str) -> bool:
    ws = fr.worlds
    if prop == "reflexive":
        return all(_holds(fr, w, w) for w in ws)
    if prop == "serial":
        return all(any(_holds(fr, w, v) for v in ws) for w in ws)
    if prop == "symmetric":
        return all(_holds(fr, b, a) for a in ws for b in ws
                   if _holds(fr, a, b))
    if prop == "transitive":
        return all(_holds(fr, a, c) for a in ws for b in ws for c in ws
                   if _holds(fr, a, b) and _holds(fr, b, c))
    if prop == "euclidean":
        return all(_holds(fr, b, c) for a in ws for b in ws for c in ws
                   if _holds(fr, a, b) and _holds(fr, a, c))
    if prop == "equivalence":
        return (oracle_property(fr, "reflexive")
                and oracle_property(fr, "symmetric")
                and oracle_property(fr, "transitive"))
    raise KeyError(prop)


class TestMaskCodec:
    """The bit layouts search certificates are written in."""

    def test_bits(self):
        assert _bits(("a", "b", "c"), 0b101) == ("a", "c")

    def test_pairs_are_row_major(self):
        rows, cols = ("r0", "r1"), ("c0", "c1", "c2")
        assert _pairs(rows, cols, 1 << (1 * 3 + 2) | 1) == \
            (("r0", "c0"), ("r1", "c2"))

    @pytest.mark.parametrize("arity", [1, 2])
    def test_extension_is_cell_major(self, arity):
        domain, worlds = ("a", "b"), ("w0", "w1", "w2")
        cells = list(product(domain, repeat=arity))
        for mask in range(1 << (len(cells) * len(worlds))):
            assert _extension(domain, worlds, mask, arity) == {
                w: frozenset(c for ci, c in enumerate(cells)
                             if mask >> (ci * len(worlds) + wi) & 1)
                for wi, w in enumerate(worlds)}


class TestFrame:
    def test_validation(self):
        with pytest.raises(ValueError):
            Frame(())
        with pytest.raises(ValueError):
            Frame(("a", "a"))
        with pytest.raises(ValueError):
            Frame(("a",), (("a", "b"),))

    def test_successors_in_declaration_order(self):
        fr = Frame(("c", "a", "b"), (("c", "b"), ("c", "a")))
        assert fr.successors("c") == ("a", "b")

    @pytest.mark.parametrize("seed", range(40))
    def test_successors_match_their_pairwise_definitions(self, seed):
        """succ and successor_map, built in one pass over access, are the
        all-pairs tests they replaced, in declaration order, on worlds
        declared out of name order."""
        rng = random.Random(seed)
        worlds = [f"w{i}" for i in range(rng.randint(1, 9))]
        rng.shuffle(worlds)
        density = rng.random()
        fr = Frame(worlds, [(a, b) for a in worlds for b in worlds
                            if rng.random() < density])
        n = len(worlds)
        assert fr.succ == tuple(tuple(j for j in range(n) if r >> j & 1)
                                for r in fr.rows)
        assert list(fr.successor_map.items()) == [
            (w, tuple(v for v in fr.worlds if (w, v) in fr.access))
            for w in fr.worlds]

    def test_rows_bitmask_layout(self):
        fr = Frame(("x", "y"), (("x", "y"), ("y", "y")))
        assert fr.rows == (0b10, 0b10)

    def test_properties_match_oracle_on_all_small_frames(self):
        for n in (1, 2, 3):
            for fr in enumerate_frames(n):
                for prop in FRAME_PROPERTIES:
                    assert frame_property(fr, prop) == \
                        oracle_property(fr, prop), (n, fr.access, prop)

    def test_properties_match_oracle_on_random_larger_frames(self):
        rng = random.Random(97)
        for _ in range(200):
            n = rng.randint(4, 6)
            fr = frame_from_mask(n, rng.getrandbits(n * n))
            for prop in FRAME_PROPERTIES:
                assert frame_property(fr, prop) == oracle_property(fr, prop)

    def test_is_total(self):
        assert is_total(Frame(("a",), (("a", "a"),)))
        assert not is_total(Frame(("a",)))
        assert is_total(frame_from_mask(2, 0b1111))
        assert not is_total(frame_from_mask(2, 0b0111))

    def test_unknown_property_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            frame_property(Frame(("a",)), "dense")


class TestPropModel:
    def test_valuation_normalized(self):
        m = PropModel(Frame(("a", "b")), {"p": ["b", "a", "b"]})
        assert m.valuation["p"] == frozenset({"a", "b"})

    def test_valuation_validation(self):
        fr = Frame(("a",))
        with pytest.raises(ValueError):
            PropModel(fr, {"P": ["a"]})       # uppercase = metavariable
        with pytest.raises(ValueError):
            PropModel(fr, {"p": ["zz"]})


class TestDomainFrame:
    def test_default_is_full_domain(self):
        df = DomainFrame(Frame(("a", "b")), ("u", "v"))
        assert df.exists_in["a"] == frozenset({"u", "v"})

    def test_exists_in_must_cover_every_world(self):
        with pytest.raises(ValueError):
            DomainFrame(Frame(("a", "b")), ("u",), {"a": ["u"]})

    def test_exists_in_elements_must_be_in_domain(self):
        with pytest.raises(ValueError):
            DomainFrame(Frame(("a",)), ("u",), {"a": ["w"]})

    def test_monotonicity_two_phrasings_agree(self):
        """Edge-wise subset checks (implementation) vs the universally
        quantified membership phrasing (oracle) on random domain frames."""
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 4)
            fr = frame_from_mask(n, rng.getrandbits(n * n))
            dom = tuple("abc"[:rng.randint(1, 3)])
            ex = {w: frozenset(e for e in dom if rng.random() < 0.5)
                  for w in fr.worlds}
            df = DomainFrame(fr, dom, ex)
            mono = domain_monotonicity(df)
            grow = all(e in ex[b]
                       for (a, b) in fr.access for e in dom if e in ex[a])
            shrink = all(e in ex[a]
                         for (a, b) in fr.access for e in dom if e in ex[b])
            const = all(ex[w] == frozenset(dom) for w in fr.worlds)
            assert mono.nondecreasing == grow
            assert mono.nonincreasing == shrink
            assert mono.constant == const


class TestFoModel:
    def test_constant_mode_requires_full_domains(self):
        df = DomainFrame(Frame(("a",)), ("u", "v"), {"a": ["u"]})
        with pytest.raises(ValueError):
            FoModel(df, "constant")
        FoModel(df, "varying")  # fine

    def test_flexible_rigid_name_clash_rejected(self):
        df = DomainFrame(Frame(("a",)), ("u",))
        with pytest.raises(ValueError):
            FoModel(df, "constant",
                    flexible_preds={"r": FlexiblePred(1, {"a": set()})},
                    rigid_preds={"r": RigidPred(1, frozenset())})

    def test_rigid_consts_must_denote_domain_elements(self):
        df = DomainFrame(Frame(("a",)), ("u",))
        with pytest.raises(ValueError):
            FoModel(df, "constant", rigid_consts={"c": "nope"})

    def test_domain_at(self):
        df = DomainFrame(Frame(("a", "b")), ("u", "v"),
                         {"a": ["u"], "b": ["u", "v"]})
        m = FoModel(df, "varying")
        assert m.domain_at("a") == frozenset({"u"})
        assert m.domain_at("b") == frozenset({"u", "v"})


# ---------------------------------------------------------------------------
# JSON model format

GOOD = {
    "worlds": ["w0", "w1"],
    "access": [["w0", "w1"]],
    "valuation": {"g": ["w1"]},
}

GOOD_FO = {
    "worlds": ["w0", "w1"],
    "access": [["w0", "w1"]],
    "valuation": {},
    "domain": ["a", "b"],
    "mode": "varying",
    "exists_in": {"w0": ["a", "b"], "w1": ["a"]},
    "flexible_preds": {
        "alive": {"arity": 1, "extension": {"w0": [["a"], ["b"]],
                                            "w1": [["a"]]}}},
    "rigid_preds": {"eqish": {"arity": 2, "extension": [["a", "a"]]}},
    "rigid_consts": {"c": "a"},
}


class TestModelJson:
    def test_prop_model_loads(self):
        m = model_from_dict(GOOD)
        assert isinstance(m, PropModel)
        assert m.valuation["g"] == frozenset({"w1"})

    def test_fo_model_loads(self):
        m = model_from_dict(GOOD_FO)
        assert isinstance(m, FoModel)
        assert m.flexible_preds["alive"].extension["w0"] == {("a",), ("b",)}
        assert m.rigid_consts["c"] == "a"

    def test_round_trip_is_canonical(self):
        for doc in (GOOD, GOOD_FO):
            m = model_from_dict(doc)
            d1 = model_to_dict(m)
            d2 = model_to_dict(model_from_dict(d1))
            assert d1 == d2

    @pytest.mark.parametrize("mutate,path", [
        (lambda d: d.update(extra=1), "$.extra"),
        (lambda d: d.update(worlds=[]), "$.worlds"),
        (lambda d: d.update(worlds=["w0", "w0"]), "$.worlds[1]"),
        (lambda d: d.update(worlds="w0"), "$.worlds"),
        (lambda d: d.update(access=[["w0", "zz"]]), "$.access[0][1]"),
        (lambda d: d.update(access=[["w0"]]), "$.access[0]"),
        (lambda d: d.update(valuation={"G": []}), "$.valuation.G"),
        (lambda d: d.update(valuation={"g": ["zz"]}), "$.valuation.g[0]"),
        (lambda d: d.update(valuation={"g": "w0"}), "$.valuation.g"),
    ])
    def test_first_violation_path(self, mutate, path):
        doc = {k: (v.copy() if isinstance(v, (dict, list)) else v)
               for k, v in GOOD.items()}
        mutate(doc)
        with pytest.raises(ModelError) as ei:
            model_from_dict(doc)
        assert ei.value.path == path

    @pytest.mark.parametrize("mutate,path", [
        (lambda d: d.update(mode="sometimes"), "$.mode"),
        (lambda d: d.update(exists_in={"w0": ["a"]}), "$.exists_in"),
        (lambda d: d.update(exists_in={"w0": ["zz"], "w1": []}),
         "$.exists_in.w0[0]"),
        (lambda d: d.__setitem__(
            "flexible_preds",
            {"alive": {"arity": 0, "extension": {}}}),
         "$.flexible_preds.alive.arity"),
        (lambda d: d.__setitem__(
            "flexible_preds",
            {"alive": {"arity": 1,
                       "extension": {"w0": [["a", "b"]], "w1": []}}}),
         "$.flexible_preds.alive.extension.w0[0]"),
        (lambda d: d.update(rigid_consts={"c": "zz"}), "$.rigid_consts.c"),
    ])
    def test_first_violation_path_fo(self, mutate, path):
        doc = {k: (v.copy() if isinstance(v, (dict, list)) else v)
               for k, v in GOOD_FO.items()}
        mutate(doc)
        with pytest.raises(ModelError) as ei:
            model_from_dict(doc)
        assert ei.value.path == path

    def test_fo_keys_without_domain_rejected(self):
        doc = dict(GOOD)
        doc["exists_in"] = {"w0": [], "w1": []}
        with pytest.raises(ModelError, match="requires a 'domain' key"):
            model_from_dict(doc)

    def test_constant_mode_with_partial_domains_rejected(self):
        doc = {k: (v.copy() if isinstance(v, (dict, list)) else v)
               for k, v in GOOD_FO.items()}
        doc["mode"] = "constant"
        with pytest.raises(ModelError):
            model_from_dict(doc)

    def test_frame_from_dict_is_strict(self):
        frame_from_dict({"worlds": ["a"], "access": []})
        with pytest.raises(ModelError):
            frame_from_dict({"worlds": ["a"], "access": [],
                             "valuation": {}})

    def test_domain_frame_from_dict(self):
        df = domain_frame_from_dict(
            {"worlds": ["a"], "access": [], "domain": ["u"],
             "exists_in": {"a": []}})
        assert df.exists_in["a"] == frozenset()

    def test_load_model_file_errors(self, tmp_path, write_json):
        with pytest.raises(ModelError) as ei:
            load_model(str(tmp_path / "missing.json"))
        assert ei.value.path == "$"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ModelError) as ei:
            load_model(str(bad))
        assert ei.value.path == "$"

    def test_load_model_good_file(self, write_json):
        path = write_json("m.json", GOOD)
        m = load_model(path)
        assert m.worlds == ("w0", "w1")

    def test_serialization_key_order_stable(self):
        d = model_to_dict(model_from_dict(GOOD_FO))
        assert list(d) == ["worlds", "access", "valuation", "domain",
                           "mode", "exists_in", "flexible_preds",
                           "rigid_preds", "rigid_consts"]

    def test_domain_frame_without_domain_is_a_model_error(self):
        with pytest.raises(ModelError) as ei:
            domain_frame_from_dict({"worlds": ["a"], "access": []})
        assert (ei.value.path, ei.value.message) == \
            ("$", "missing required key 'domain'")


class TestConstructorPaths:
    """The constructors raise the readers' ModelError, a ValueError, with
    the path of the offending argument in the model-file layout."""

    @pytest.mark.parametrize("build,path,message", [
        (lambda: Frame(()), "$.worlds", "at least one world is required"),
        (lambda: Frame(("a", "a")), "$.worlds[1]", "duplicate world 'a'"),
        (lambda: Frame(("a", "")), "$.worlds[1]",
         "world names must be nonempty strings"),
        (lambda: Frame("ab"), "$.worlds", "expected a list of world names"),
        (lambda: Frame(("a",), (("a", "a"), ("a", "b"))), "$.access[1][1]",
         "unknown world 'b'"),
        (lambda: Frame(("a",), (("a",),)), "$.access[0]",
         "a pair [from, to] has exactly two entries"),
        (lambda: PropModel(Frame(("a",)), {"P": ["a"]}), "$.valuation.P",
         "atom names start lowercase"),
        (lambda: DomainFrame(Frame(("a", "b")), ("u",), {"a": ["u"]}),
         "$.exists_in", "missing entry for world 'b'"),
        (lambda: DomainFrame(Frame(("a",)), ("u",), {"a": ["u", "w"]}),
         "$.exists_in.a[1]", "unknown element 'w'"),
        (lambda: FoModel(DomainFrame(Frame(("a",)), ("u",), {"a": []})),
         "$.exists_in.a", "constant mode requires the full domain"),
        (lambda: FoModel(DomainFrame(Frame(("a",)), ("u",)), "varying",
                         flexible_preds={"r": FlexiblePred(1, {"b": []})}),
         "$.flexible_preds.r.extension.b", "unknown world 'b'"),
        (lambda: FoModel(DomainFrame(Frame(("a",)), ("u",)),
                         rigid_preds={"r": RigidPred(2, [("u",)])}),
         "$.rigid_preds.r.extension[0]", "expected a tuple of arity 2"),
        (lambda: FoModel(DomainFrame(Frame(("a",)), ("u",)),
                         rigid_preds={"r": RigidPred(True, [])}),
         "$.rigid_preds.r.arity", "arity must be a positive integer"),
    ])
    def test_path_and_message(self, build, path, message):
        with pytest.raises(ModelError) as ei:
            build()
        assert isinstance(ei.value, ValueError)
        assert (ei.value.path, ei.value.message) == (path, message)


# ---------------------------------------------------------------------------
# Seeded mutation corpus: one or two random edits of a good document.

_MUTATION_BASES = [
    GOOD, GOOD_FO,
    {k: GOOD[k] for k in ("worlds", "access")},
    {k: GOOD_FO[k] for k in ("worlds", "access", "domain", "exists_in")},
    {k: GOOD_FO[k] for k in ("worlds", "access", "domain")},
]
_MUTATION_VALUES = [0, 1, -1, True, None, 1.5, "", "w0", "zz", "a", "G",
                    "alive", "constant", "sometimes", [], ["w0"], ["zz"],
                    ["w0", "w0"], [["a"]], [["a", "b"]], [1], [[1]], {},
                    {"w0": []}, {"w0": ["a"]}, {"arity": 0, "extension": {}},
                    {"arity": 1, "extension": []}]
_MUTATION_KEYS = ["worlds", "access", "valuation", "domain", "mode",
                  "exists_in", "flexible_preds", "rigid_preds", "arity",
                  "extension", "w0", "w1", "zz", "a", "c", "g", "G", "alive",
                  ""]


def _nodes(doc, path=()):
    """(path of the container, key) for every node below doc."""
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    out = []
    for k, v in items:
        out += [(path, k), *_nodes(v, (*path, k))]
    return out


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _mutate(rng, doc):
    nodes = _nodes(doc)
    if not nodes:
        return rng.choice(_MUTATION_VALUES)
    path, key = rng.choice(nodes)
    parent = _at(doc, path)
    value = copy.deepcopy(rng.choice(_MUTATION_VALUES))
    edit = rng.randrange(4)
    if edit == 0:
        parent[key] = value
    elif edit == 1:
        del parent[key]
    elif isinstance(parent, list):
        parent.append(value)
    elif edit == 2:
        parent[rng.choice(_MUTATION_KEYS)] = value
    else:
        parent[rng.choice(_MUTATION_KEYS)] = parent.pop(key)
    return doc


def test_mutated_documents_raise_only_model_errors(tmp_path):
    """Every reader, from a dict or a file, accepts a mutated document or
    raises ModelError; what it accepts round-trips through model_to_dict."""
    rng = random.Random(2024)
    path = tmp_path / "doc.json"
    readers = [  # reader, loader, the model it reads, the keys it reads
        (model_from_dict, load_model, lambda m: m, tuple(GOOD_FO)),
        (frame_from_dict, load_frame, PropModel, ("worlds", "access")),
        (domain_frame_from_dict, load_domain_frame,
         lambda df: FoModel(df, "varying"),
         ("worlds", "access", "domain", "exists_in")),
    ]
    accepted = 0
    for i in range(2000):
        doc = copy.deepcopy(rng.choice(_MUTATION_BASES))
        for _ in range(rng.choice((1, 2))):
            doc = _mutate(rng, doc)
        path.write_text(json.dumps(doc))
        for read, load, as_model, keys in readers:
            outcomes = []
            for call in (lambda: read(copy.deepcopy(doc)),
                         lambda: load(str(path))):
                try:
                    outcomes.append(model_to_dict(as_model(call())))
                except ModelError as e:
                    outcomes.append((e.path, e.message))
            assert outcomes[0] == outcomes[1], (i, doc)
            if isinstance(outcomes[0], dict):
                accepted += 1
                d = {k: v for k, v in outcomes[0].items() if k in keys}
                assert model_to_dict(as_model(read(d))) == outcomes[0], \
                    (i, doc)
    assert accepted > 200
