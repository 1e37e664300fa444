"""The command-line interface: subcommands, exit codes, JSON output purity,
and the budget environment variable."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import modalkit
from modalkit.cli import (EXIT_FOUND, EXIT_HOLDS, EXIT_LIMIT, EXIT_USAGE,
                          _build_parser, main)

PROP_MODEL = {
    "worlds": ["w0", "w1"],
    "access": [["w0", "w1"], ["w1", "w1"]],
    "valuation": {"g": ["w1"]},
}

FO_MODEL = {
    "worlds": ["w0", "w1"],
    "access": [["w0", "w1"]],
    "valuation": {},
    "domain": ["a", "b"],
    "mode": "constant",
    "exists_in": {"w0": ["a", "b"], "w1": ["a", "b"]},
    "flexible_preds": {
        "alive": {"arity": 1,
                  "extension": {"w0": [["a"]], "w1": [["a"], ["b"]]}}},
    "rigid_preds": {},
    "rigid_consts": {"c": "a"},
}

TOTAL_FRAME = {"worlds": ["a", "b"],
               "access": [["a", "a"], ["a", "b"], ["b", "a"], ["b", "b"]]}
NONREFL_FRAME = {"worlds": ["a", "b"], "access": [["a", "b"], ["b", "b"]]}
SHRINK_DFRAME = {"worlds": ["w0", "w1"], "access": [["w0", "w1"]],
                 "domain": ["a"], "exists_in": {"w0": ["a"], "w1": []}}


# What the console-script wrapper generated by an installer does.
ENTRY_WRAPPER = ("import sys; from modalkit.cli import main_entry; "
                 "sys.exit(main_entry())")


def child_env():
    """Environment for a child interpreter that imports the same modalkit
    package as this test session, whatever the cwd or what is installed."""
    src = str(Path(modalkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_world_true(self, capsys, write_json):
        path = write_json("m.json", PROP_MODEL)
        code, out, err = run(capsys, "check", "--model", path,
                             "--formula", "<>g", "--world", "w0")
        assert (code, out, err) == (EXIT_HOLDS, "true\n", "")

    def test_world_false(self, capsys, write_json):
        path = write_json("m.json", PROP_MODEL)
        code, out, _ = run(capsys, "check", "--model", path,
                           "--formula", "g", "--world", "w0")
        assert (code, out) == (EXIT_FOUND, "false\n")

    def test_all_worlds_valid(self, capsys, write_json):
        path = write_json("m.json", PROP_MODEL)
        code, out, _ = run(capsys, "check", "--model", path,
                           "--formula", "<>g")
        assert (code, out) == (EXIT_HOLDS, "valid\n")

    def test_all_worlds_invalid_names_witness(self, capsys, write_json):
        path = write_json("m.json", PROP_MODEL)
        code, out, _ = run(capsys, "check", "--model", path,
                           "--formula", "g")
        assert (code, out) == (EXIT_FOUND, "invalid at w0\n")

    def test_json_document(self, capsys, write_json):
        path = write_json("m.json", PROP_MODEL)
        code, out, err = run(capsys, "check", "--model", path,
                             "--formula", "g", "--json")
        doc = json.loads(out)
        assert doc == {"command": "check", "formula": "g", "valid": False,
                       "witness": {"world": "w0"}}
        assert err == ""

    def test_env_binds_variables(self, capsys, write_json):
        path = write_json("fo.json", FO_MODEL)
        code, out, _ = run(capsys, "check", "--model", path,
                           "--formula", "alive(x)", "--world", "w0",
                           "--env", "x=a")
        assert (code, out) == (EXIT_HOLDS, "true\n")
        code, out, _ = run(capsys, "check", "--model", path,
                           "--formula", "alive(x)", "--world", "w0",
                           "--env", "x=b")
        assert (code, out) == (EXIT_FOUND, "false\n")

    def test_env_without_equals_is_usage(self, capsys, write_json):
        path = write_json("fo.json", FO_MODEL)
        code, out, err = run(capsys, "check", "--model", path,
                             "--formula", "alive(x)", "--env", "x")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --env expects name=element, got 'x'\n"

    def test_open_formula_without_env(self, capsys, write_json):
        # without --env the parser reads x as a rigid constant
        path = write_json("fo.json", FO_MODEL)
        code, out, err = run(capsys, "check", "--model", path,
                             "--formula", "alive(x)")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: unknown constant 'x'\n"

    def test_evaluation_error_is_usage(self, capsys, write_json):
        path = write_json("m.json", PROP_MODEL)
        code, out, err = run(capsys, "check", "--model", path,
                             "--formula", "[]P", "--json")
        assert code == EXIT_USAGE
        assert json.loads(out) == {"error": {
            "kind": "evaluation",
            "message": "scheme variable 'P' has no instantiation"}}
        assert err == "scheme variable 'P' has no instantiation\n"

    def test_unknown_world(self, capsys, write_json):
        path = write_json("m.json", PROP_MODEL)
        code, _, err = run(capsys, "check", "--model", path,
                           "--formula", "g", "--world", "zz")
        assert code == EXIT_USAGE
        assert "unknown world" in err
        code, out, _ = run(capsys, "check", "--model", path,
                           "--formula", "g", "--world", "zz", "--json")
        assert code == EXIT_USAGE
        assert json.loads(out) == {"error": {
            "kind": "usage", "message": "unknown world 'zz'"}}

    def test_parse_error(self, capsys, write_json):
        path = write_json("m.json", PROP_MODEL)
        code, _, err = run(capsys, "check", "--model", path,
                           "--formula", "g &")
        assert code == EXIT_USAGE
        assert err.startswith("error: ")

    def test_parse_error_json_has_span(self, capsys, write_json):
        path = write_json("m.json", PROP_MODEL)
        code, out, err = run(capsys, "check", "--model", path,
                             "--formula", "g &", "--json")
        assert code == EXIT_USAGE
        doc = json.loads(out)
        assert doc["error"]["kind"] == "parse"
        # the missing operand is noticed at end of input
        assert doc["error"]["span"] == {"start": 3, "end": 3}
        assert err != ""

    def test_parse_error_on_unicode_json_bytes(self, capsys, write_json):
        """The span counts UTF-8 bytes: the ◇, ∧ and → before the stray ⊃
        are three bytes each."""
        path = write_json("m.json", PROP_MODEL)
        code, out, _ = run(capsys, "check", "--model", path,
                           "--formula", "◇(p ∧ q) → ⊃", "--json")
        assert code == EXIT_USAGE
        assert out == json.dumps({"error": {
            "kind": "parse",
            "message": "at 17..20: expected a formula, found '⊃'",
            "span": {"start": 17, "end": 20}}}, indent=2) + "\n"

    def test_undecodable_argv_byte_is_a_parse_error(self):
        """Python decodes the byte 0xff of argv to a lone surrogate, which
        is an unknown token of one byte at the byte's own offset."""
        out = subprocess.run(
            [sys.executable, "-c", ENTRY_WRAPPER, "countermodel",
             "--conclusion", b"p & \xff", "--json"],
            capture_output=True, env=child_env(), timeout=60)
        assert out.returncode == EXIT_USAGE
        assert json.loads(out.stdout) == {"error": {
            "kind": "parse", "message": "at 4..5: unknown token '\\udcff'",
            "span": {"start": 4, "end": 5}}}

    def test_model_error_reports_path(self, capsys, write_json):
        bad = dict(PROP_MODEL, access=[["w0", "nope"]])
        path = write_json("bad.json", bad)
        code, out, err = run(capsys, "check", "--model", path,
                             "--formula", "g", "--json")
        assert code == EXIT_USAGE
        doc = json.loads(out)
        assert doc["error"]["kind"] == "model"
        assert doc["error"]["path"] == "$.access[0][1]"
        assert "unknown world 'nope'" in doc["error"]["message"]


class TestFrameValid:
    def test_holds(self, capsys, write_json):
        path = write_json("f.json", TOTAL_FRAME)
        code, out, _ = run(capsys, "frame-valid", "--frame", path,
                           "--scheme", "[]P => P")
        assert (code, out) == (EXIT_HOLDS, "frame-valid\n")

    def test_refuted_with_valuation(self, capsys, write_json):
        path = write_json("f.json", NONREFL_FRAME)
        code, out, _ = run(capsys, "frame-valid", "--frame", path,
                           "--scheme", "[]P => P")
        assert code == EXIT_FOUND
        assert out == "refuted at a\n  P = {b}\n"

    def test_json_has_witness(self, capsys, write_json):
        path = write_json("f.json", NONREFL_FRAME)
        code, out, _ = run(capsys, "frame-valid", "--frame", path,
                           "--scheme", "[]P => P", "--json")
        doc = json.loads(out)
        assert doc["holds"] is False
        assert doc["witness"] == {"world": "a", "assignment": {"P": ["b"]}}

    def test_rejects_model_file(self, capsys, write_json):
        path = write_json("m.json", PROP_MODEL)
        code, _, err = run(capsys, "frame-valid", "--frame", path,
                           "--scheme", "[]P => P")
        assert code == EXIT_USAGE


class TestCorrespond:
    def test_equivalence_frame_all_hold(self, capsys, write_json):
        path = write_json("f.json", TOTAL_FRAME)
        code, out, _ = run(capsys, "correspond", "--frame", path)
        assert code == EXIT_HOLDS
        assert "T: holds (reflexive=yes)" in out
        assert "K: holds" in out and "N: holds" in out

    def test_nonreflexive_frame(self, capsys, write_json):
        path = write_json("f.json", NONREFL_FRAME)
        code, out, _ = run(capsys, "correspond", "--frame", path)
        assert code == EXIT_FOUND
        assert "T: fails (reflexive=no)" in out
        assert "INCONSISTENT" not in out

    def test_json_shape(self, capsys, write_json):
        path = write_json("f.json", NONREFL_FRAME)
        code, out, _ = run(capsys, "correspond", "--frame", path, "--json")
        doc = json.loads(out)
        assert doc["command"] == "correspond"
        assert set(doc["axioms"]) == {"K", "T", "4", "B", "D", "5", "N"}
        assert all(e["consistent"] for e in doc["axioms"].values())


class TestBarcan:
    def test_shrinking_domains(self, capsys, write_json):
        path = write_json("df.json", SHRINK_DFRAME)
        code, out, _ = run(capsys, "barcan", "--dframe", path)
        assert code == EXIT_FOUND
        assert "BF: holds" in out
        assert "CBF: fails" in out
        assert "nonincreasing=yes" in out

    def test_constant_domains(self, capsys, write_json):
        df = {"worlds": ["w0", "w1"], "access": [["w0", "w1"]],
              "domain": ["a"],
              "exists_in": {"w0": ["a"], "w1": ["a"]}}
        path = write_json("df.json", df)
        code, out, _ = run(capsys, "barcan", "--dframe", path)
        assert code == EXIT_HOLDS
        assert "BF: holds" in out and "CBF: holds" in out

    def test_json_consistent(self, capsys, write_json):
        path = write_json("df.json", SHRINK_DFRAME)
        code, out, _ = run(capsys, "barcan", "--dframe", path, "--json")
        doc = json.loads(out)
        assert doc["axioms"]["BF"]["consistent"]
        assert doc["axioms"]["CBF"]["consistent"]
        assert doc["bf_iff_cbf_on_symmetric"] is True

    @pytest.mark.parametrize("flag", ["--model", "--frame", "--dframe"])
    @pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100000],
                             ids=["not_utf8", "nested"])
    def test_unreadable_file_is_a_model_error(self, capsys, tmp_path, flag,
                                              content):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        argv = {"--model": ("check", "--formula", "p"),
                "--frame": ("correspond",), "--dframe": ("barcan",)}[flag]
        code, out, _ = run(capsys, argv[0], flag, str(path), *argv[1:],
                           "--json")
        assert code == EXIT_USAGE
        err = json.loads(out)["error"]
        assert (err["kind"], err["path"]) == ("model", "$")

    def test_missing_domain_is_a_model_error(self, capsys, write_json):
        path = write_json("df.json", TOTAL_FRAME)
        code, out, _ = run(capsys, "barcan", "--dframe", path, "--json")
        assert code == EXIT_USAGE
        doc = json.loads(out)
        assert doc["error"]["kind"] == "model"
        assert doc["error"]["path"] == "$"
        assert "missing required key 'domain'" in doc["error"]["message"]


class TestCountermodel:
    def test_found_propositional(self, capsys):
        code, out, _ = run(capsys, "countermodel",
                           "--conclusion", "[]P => P")
        assert code == EXIT_FOUND
        assert out.startswith("countermodel found:\n")
        payload = json.loads(out.split("\n", 1)[1])
        assert payload["certificate"]["worlds"] == 1

    def test_none_under_constraint(self, capsys):
        code, out, _ = run(capsys, "countermodel",
                           "--conclusion", "[]P => P",
                           "--require", "reflexive")
        assert (code, out) == (EXIT_HOLDS, "no countermodel up to 3 worlds\n")

    def test_premises_and_schemes(self, capsys):
        code, out, _ = run(capsys, "countermodel",
                           "--conclusion", "g",
                           "--premise", "<>g",
                           "--scheme-premise", "P => []P",
                           "--require", "symmetric")
        assert (code, out) == (EXIT_HOLDS, "no countermodel up to 3 worlds\n")

    def test_quantified_search(self, capsys):
        code, out, _ = run(capsys, "countermodel",
                           "--conclusion",
                           "[](forall x. P(x)) => forall x. []P(x)",
                           "--max-worlds", "2", "--max-domain", "1",
                           "--mode", "varying", "--json")
        assert code == EXIT_FOUND
        doc = json.loads(out)
        assert doc["found"] is True
        assert doc["certificate"]["exists_mask"] == 1

    def test_quantified_none_found(self, capsys):
        # the Barcan formula holds on constant domains
        argv = ("countermodel", "--conclusion",
                "(forall x. []P(x)) => [](forall x. P(x))",
                "--max-worlds", "2", "--max-domain", "1")
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (
            EXIT_HOLDS, "no countermodel up to 2 worlds, domain up to 1\n")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_HOLDS
        assert json.loads(out) == {"command": "countermodel", "found": False,
                                   "max_worlds": 2, "max_domain": 1}

    def test_quantified_needs_max_domain(self, capsys):
        code, _, err = run(capsys, "countermodel",
                           "--conclusion", "forall x. P(x)")
        assert code == EXIT_USAGE
        assert "--max-domain" in err

    def test_meta_reading(self, capsys):
        code, out, _ = run(capsys, "countermodel",
                           "--conclusion", "(P => Q) => ([]~Q => []~P)",
                           "--reading", "meta")
        assert (code, out) == (EXIT_HOLDS, "no countermodel up to 3 worlds\n")

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("MODALKIT_BUDGET", "60")
        code, out, err = run(capsys, "countermodel",
                             "--conclusion", "(P => Q) => ([]~Q => []~P)",
                             "--json")
        assert code == EXIT_LIMIT
        doc = json.loads(out)
        assert doc["error"]["kind"] == "resource-limit"
        assert doc["error"]["frontier"] == {"worlds": 2}

    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_bad_budget_env_var_is_usage(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("MODALKIT_BUDGET", raw)
        code, out, _ = run(capsys, "countermodel",
                           "--conclusion", "[]P => P", "--json")
        assert code == EXIT_USAGE
        doc = json.loads(out)
        assert doc["error"]["kind"] == "usage"
        assert "MODALKIT_BUDGET must be a positive integer" in \
            doc["error"]["message"]

    def test_metavariable_in_premise_is_usage(self, capsys):
        # refused before the scan, not when a candidate first reaches it
        code, out, _ = run(capsys, "countermodel", "--conclusion", "p",
                           "--premise", "P => p", "--json")
        assert code == EXIT_USAGE
        doc = json.loads(out)
        assert doc["error"]["kind"] == "usage"
        assert "metavariables" in doc["error"]["message"]

    @pytest.mark.parametrize("flag", ["--max-worlds", "--max-domain"])
    def test_bound_below_its_least_is_usage(self, capsys, flag):
        # a negative domain bound used to run a propositional search
        code, out, err = run(capsys, "countermodel",
                             "--conclusion", "[]P => P", flag, "-1")
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{flag[2:].replace('-', '_')} must be at least" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage(self, capsys, jobs):
        code, _, err = run(capsys, "countermodel",
                           "--conclusion", "[]P => P", "--jobs", jobs)
        assert code == EXIT_USAGE
        assert "jobs must be at least 1" in err

    def test_jobs_do_not_change_output(self, capsys):
        outputs = []
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "countermodel",
                               "--conclusion", "(P => Q) => ([]~Q => []~P)",
                               "--jobs", jobs, "--json")
            assert code == EXIT_FOUND
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestRender:
    @pytest.mark.parametrize("text,fmt,expect", [
        ("~<>(P & ~Q)", "unicode", "¬◇(P ∧ ¬Q)"),
        ("[]P => P", "latex", r"\Box P \supset P"),
        ("P |> Q", "latex", r"P \strictif Q"),
        ("□P ⊃ P", "ascii", "[]P => P"),
    ])
    def test_pins(self, capsys, text, fmt, expect):
        code, out, _ = run(capsys, "render", "--formula", text,
                           "--format", fmt)
        assert (code, out) == (EXIT_HOLDS, expect + "\n")

    def test_default_format_is_unicode(self, capsys):
        # the unicode table keeps the implication family in ASCII
        code, out, _ = run(capsys, "render", "--formula", "[]P => P")
        assert (code, out) == (EXIT_HOLDS, "□P => P\n")


class TestParserReuse:
    """main builds its argparse parser once per process; a call must behave
    as it would on a freshly built parser."""

    @staticmethod
    def after_and_fresh(capsys, argv):
        """argv's result on the parser as earlier calls left it, then on a
        freshly built one."""
        reused = run(capsys, *argv)
        _build_parser.cache_clear()
        return reused, run(capsys, *argv)

    @pytest.mark.parametrize("flag, value", [
        ("--premise", "p & ~p"),
        ("--scheme-premise", "[]P => P"),
        ("--require", "reflexive"),
    ])
    def test_countermodel_append_flags_do_not_leak(self, capsys, flag,
                                                   value):
        bare = ("countermodel", "--conclusion", "[]P => P", "--json")
        code, _, _ = run(capsys, *bare, flag, value)
        assert code == EXIT_HOLDS
        reused, fresh = self.after_and_fresh(capsys, bare)
        assert reused == fresh
        assert reused[0] == EXIT_FOUND

    def test_env_does_not_leak(self, capsys, write_json):
        path = write_json("fo.json", FO_MODEL)
        bare = ("check", "--model", path, "--formula", "alive(x)",
                "--world", "w0")
        assert run(capsys, *bare, "--env", "x=a")[:2] == (EXIT_HOLDS,
                                                          "true\n")
        reused, fresh = self.after_and_fresh(capsys, bare)
        assert reused == fresh
        assert reused[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv, code", [
        (("--help",), EXIT_HOLDS),
        (("countermodel", "--help"), EXIT_HOLDS),
        (("countermodel",), EXIT_USAGE),
        (("frobnicate",), EXIT_USAGE),
    ])
    def test_help_and_usage_errors_match_a_fresh_parser(self, capsys, argv,
                                                        code):
        run(capsys, "render", "--formula", "p")
        reused, fresh = self.after_and_fresh(capsys, argv)
        assert reused == fresh
        assert reused[0] == code
        assert (reused[1] if code == EXIT_HOLDS else reused[2]).startswith(
            "usage: modalkit")


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "check", "--formula", "p")[0] == EXIT_USAGE

    def test_formula_nested_too_deeply_is_usage(self, capsys):
        code, out, err = run(capsys, "render", "--formula", "~" * 3000 + "p")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: formula nested too deeply\n"

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "check", "--model", "/no/such.json",
                           "--formula", "p")
        assert code == EXIT_USAGE

    def test_entry_point_subprocess(self):
        # Run modalkit.cli:main_entry the way the console script installed
        # for [project.scripts] runs it, so no install step is needed.
        env = child_env()

        def script(*argv):
            return subprocess.run(
                [sys.executable, "-c", ENTRY_WRAPPER, *argv],
                capture_output=True, text=True, env=env)

        out = script("render", "--formula", "[]P => P", "--format", "ascii")
        assert out.returncode == 0
        assert out.stdout == "[]P => P\n"
        assert script("frobnicate").returncode == EXIT_USAGE
        mod = subprocess.run([sys.executable, "-m", "modalkit", "render",
                              "--formula", "[]P => P", "--format", "ascii"],
                             capture_output=True, text=True, env=env)
        assert mod.returncode == 0
        assert mod.stdout == "[]P => P\n"

    @pytest.mark.parametrize("text", ["~" * 3000 + "p",
                                      "(" * 3000 + "p" + ")" * 3000],
                             ids=["negations", "parentheses"])
    def test_deeply_nested_formula_is_usage(self, capsys, write_json, text):
        path = write_json("m.json", PROP_MODEL)
        for argv in (("render", "--formula", text),
                     ("check", "--model", path, "--formula", text)):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (EXIT_USAGE, "")
            assert "nested too deeply" in err

    @pytest.mark.parametrize("text", ["~" * 3000 + "p",
                                      "(" * 3000 + "p" + ")" * 3000],
                             ids=["negations", "parentheses"])
    def test_deeply_nested_formula_json_bytes(self, capsys, write_json, text):
        path = write_json("m.json", PROP_MODEL)
        code, out, _ = run(capsys, "check", "--model", path,
                           "--formula", text, "--json")
        assert (code, out) == (EXIT_USAGE, json.dumps({"error": {
            "kind": "usage", "message": "formula nested too deeply"}},
            indent=2) + "\n")

    def test_closed_stdout_exits_usage(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-c", ENTRY_WRAPPER, "countermodel",
                 "--conclusion", "[]P => P", "--max-worlds", "1", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=child_env(), timeout=60)
        finally:
            os.close(write_end)
        assert out.returncode == EXIT_USAGE
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("redirect", [">/dev/full", ">&-"],
                             ids=["full", "closed"])
    def test_unwritable_stdout_exits_usage(self, redirect):
        if redirect == ">/dev/full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        out = subprocess.run(
            ["sh", "-c", f'exec "$0" "$@" {redirect}', sys.executable, "-c",
             ENTRY_WRAPPER, "render", "--formula", "p"],
            stderr=subprocess.PIPE, text=True, env=child_env(), timeout=60)
        assert out.returncode == EXIT_USAGE
        assert out.stderr.count("\n") == 1
        assert out.stderr.startswith("error: ")

    def test_console_script_declared(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts["modalkit"] == "modalkit.cli:main_entry"

    @pytest.mark.skipif(shutil.which("modalkit") is None,
                        reason="modalkit console script not on PATH "
                               "(pip install -e .)")
    def test_installed_console_script(self):
        out = subprocess.run(["modalkit", "render", "--formula", "[]P => P",
                              "--format", "ascii"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout == "[]P => P\n"
