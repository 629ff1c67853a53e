import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarl import cli, models
from tarl.cli import build_parser, main
from tarl.formulas import clear_caches, print_formula
from tarl.models import check_postulates
from tarl.registry import data_dir, get_formula, get_structure
from tarl.search import REFUTE_AFTER


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse(capsys):
    code, out, _ = run(capsys, "parse", "(p o q) & r")
    assert code == 0
    assert out.splitlines()[0] == "p o q & r"


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "p -> p", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == "p -> p"
    assert payload["ast"]["op"] == "->"


def test_parse_resolves_a_named_formula(capsys):
    code, out, _ = run(capsys, "parse", "reflection", "--json")
    assert code == 0
    assert json.loads(out)["formula"] == print_formula(get_formula("reflection").formula)


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", "p ->")
    assert code == 2
    assert "error" in err


def test_check_valid_script(capsys):
    path = data_dir() / "corpus" / "t6.prf"
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out.strip() == "t6: valid, objects {0}"


@pytest.mark.parametrize("line", [
    "1. (p)[0,1] => (p)[1,0] ; axiom",
    "1. => (p)[0,0] ; premise",  # a derived rule's hypothesis proves nothing
])
def test_check_invalid_script(tmp_path, capsys, line):
    bad = tmp_path / "bad.prf"
    bad.write_text(f"lemma bad\n{line}\n")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "INVALID" in out


def test_corpus(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert out.strip() == "38/38 valid; objects columns match"


def test_corpus_filter(capsys):
    code, out, _ = run(capsys, "corpus", "--filter", "reflection")
    assert code == 0
    assert "1/1 valid" in out


def test_prove_success_prints_script(capsys):
    code, out, _ = run(capsys, "prove", "a & b -> a")
    assert code == 0
    assert out.startswith("lemma found")
    assert "impR" in out


def test_prove_failure(capsys):
    code, out, _ = run(capsys, "prove", "ming", "--depth", "10")
    assert code == 1
    assert "not_found" in out or "budget_exhausted" in out


@pytest.mark.parametrize("argv, status", [
    (("a & b -> a",), "proved"),
    (("ming", "--depth", "10"), "not_found"),
    (("~((p -> q) -> ~p)",), "refuted"),
])
def test_prove_json_reports_the_search_counters(capsys, argv, status):
    code, out, _ = run(capsys, "prove", *argv, "--json")
    payload = json.loads(out)
    assert payload["status"] == status
    # the node at which the search refutes its goal ends no other way
    refuted = status == "refuted"
    assert payload["nodes"] == refuted + sum(payload[name] for name in (
        "axioms", "cutoffs", "loop_prunes", "cache_prunes", "expansions"))
    assert 0 < payload["canonical_forms"] <= payload["nodes"]
    assert payload["refutation_checks"] == refuted
    assert payload["limit"] is None


@pytest.mark.parametrize("flag, limit", [("--nodes", "nodes"), ("--depth", "depth")])
def test_prove_json_says_which_limit_stopped_the_search(capsys, flag, limit):
    code, out, _ = run(capsys, "prove", "(b -> (c -> a)) -> (~(b -> ~c) -> a)",
                       flag, "5", "--json")
    payload = json.loads(out)
    assert code == 1
    assert (payload["status"], payload["limit"]) == ("budget_exhausted", limit)


def test_prove_refuted_names_the_base_and_the_point(capsys):
    code, out, _ = run(capsys, "prove", "~((p -> q) -> ~p)")
    assert code == 1
    assert out.startswith(f"refuted after {REFUTE_AFTER} nodes: base 3, point 0: "
                          "(0,0) is outside")
    assert "p = {(0,1),(1,1)," in out


def test_prove_json_reports_the_counterexample(capsys):
    code, out, _ = run(capsys, "prove", "~((p -> q) -> ~p)", "--json")
    assert code == 1
    cert = json.loads(out)["counterexample"]
    assert (cert["base"], cert["point"], sorted(cert["relations"])) == (3, 0, ["p", "q"])
    assert cert["relations"]["q"] == [[0, 0], [1, 0], [1, 1], [1, 2]]


def test_prove_json_reports_the_proof_level(capsys):
    code, out, _ = run(capsys, "prove", "a & b -> a", "--json")
    payload = json.loads(out)
    assert (payload["objects"], payload["level"]) == ([0, 1], 2)


def test_prove_json_finds_t10_at_its_level(capsys):
    # t10's goal, written out: "tarl prove t10" reads t10 as a variable
    code, out, _ = run(capsys, "prove", "(b -> (c -> a)) -> (~(b -> ~c) -> a)", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["level"] == 4 <= payload["bound"]


def test_valid_pass(capsys):
    code, out, _ = run(capsys, "valid", "K3", "contr")
    assert code == 0
    assert "valid" in out


def test_valid_json_counts_valuations(capsys):
    code, out, _ = run(capsys, "valid", "K5", "contra", "--json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["valid"], payload["valuations"]) == (False, 16 ** 2)  # p, q over 16 subsets


def test_valid_and_countermodel_json_report_counters(capsys):
    code, out, _ = run(capsys, "valid", "K1", "(p -> q) o r", "--json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["valuations"], payload["grid"]) == (1024, 16 ** 3)  # one block of 1,024
    assert payload["witness"] == {"p": [], "q": [], "r": []}
    code, out, _ = run(capsys, "countermodel", "K1", "(p -> q) o r", "--json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["valuations"], payload["grid"]) == (1024, 16 ** 3)
    assert payload["countermodel"] == {"p": [], "q": [], "r": []}
    code, out, _ = run(capsys, "countermodel", "K5", "p -> p", "--json")
    assert code == 0
    assert json.loads(out) == {"model": "K5", "countermodel": None,
                               "valuations": 16, "grid": 16}


def test_valid_refuted_with_witness(capsys):
    code, out, _ = run(capsys, "valid", "K5", "contra")
    assert code == 1
    assert out.strip() == "invalid; witness p->{a} q->{b}"


def test_countermodel_singletons(capsys):
    code, out, _ = run(capsys, "countermodel", "K5", "mp", "--singletons")
    assert code == 1
    assert "p->{a} q->{a}" in out
    assert "p->{b} q->{a}" in out


def test_countermodel_none(capsys):
    code, out, _ = run(capsys, "countermodel", "K4", "p -> p")
    assert code == 0
    assert "no countermodel" in out


def test_postulates(capsys):
    code, out, _ = run(capsys, "postulates", "K1")
    assert code == 0
    assert "peirce   FAIL" in out
    code, out, _ = run(capsys, "postulates", "K3")
    assert code == 0


def test_postulates_json(capsys):
    code, out, _ = run(capsys, "postulates", "K2", "--json")
    payload = json.loads(out)
    assert payload["flags"]["comm"] is True
    assert payload["peirce_missing"] == [["b*", "b*", "b"]]


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "p -> q")
    assert code == 0
    assert out.strip() == "-(p^;-q)"


def test_algebra_test_named_law(capsys):
    code, out, _ = run(capsys, "algebra-test", "ra7", "--base", "4",
                       "--trials", "200", "--seed", "1")
    assert code == 0
    assert "Pass" in out


def test_algebra_test_json_counts_are_integers(capsys):
    code, out, _ = run(capsys, "algebra-test", "ra1", "--base", "3", "--trials", "50",
                       "--json")
    assert code == 0
    assert json.loads(out)["results"][0]["checked"] == 50


def test_algebra_test_counterexamples_hold_plain_ints(tmp_path, capsys):
    chain = tmp_path / "comm.chain"
    chain.write_text("x;y = y;x ; comm\n")
    argv = ("algebra-test", str(chain), "--base", "2", "--trials", "20")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "Counterexample" in out and "np." not in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    counterexample = json.loads(out)["results"][0]["counterexample"]
    assert counterexample == {"x": [[0, 0], [0, 1]], "y": [[0, 0], [0, 1], [1, 0]]}
    x, y = ({tuple(pair) for pair in counterexample[name]} for name in ("x", "y"))
    assert ({(a, c) for (a, b) in x for (b2, c) in y if b == b2}
            != {(a, c) for (a, b) in y for (b2, c) in x if b == b2})


def test_algebra_test_unknown_name(capsys):
    code, _, err = run(capsys, "algebra-test", "zzz")
    assert code == 2
    assert "unknown identity" in err


def test_chain(capsys):
    chain = data_dir() / "chains" / "ra4.chain"
    code, out, _ = run(capsys, "chain", "K3", str(chain))
    assert code == 0
    assert "end-to-end" in out


def test_chain_json_lists_the_segments_its_text_prints(capsys, tmp_path):
    chain = data_dir() / "chains" / "ra4.chain"
    code, out, _ = run(capsys, "chain", "K3", str(chain), "--json")
    assert code == 0
    assert json.loads(out)["segments"] == [{"span": "1..4", "rel": "=", "passed": True}]
    broken = tmp_path / "broken.chain"
    broken.write_text("x = x + y ; wrong\nx + y = y + x ; ra1\n")
    code, out, _ = run(capsys, "chain", "K4", str(broken), "--json")
    assert code == 1
    assert json.loads(out)["segments"] == [{"span": "1..2", "rel": "=", "passed": False}]


def test_grouprep(capsys):
    code, out, _ = run(capsys, "grouprep", "--partition", "2")
    assert code == 0
    assert "table equals K3: True" in out


def test_sharing_shared(capsys):
    code, out, _ = run(capsys, "sharing", "p & q", "p")
    assert code == 0
    assert "shared variables: p" in out


def test_sharing_disjoint(capsys):
    code, out, _ = run(capsys, "sharing", "p", "q")
    assert code == 1
    assert "K4 refutes" in out


def test_postulates_json_holds_plain_values(capsys):
    code, out, _ = run(capsys, "postulates", "K1", "--json")
    payload = json.loads(out)
    report = check_postulates(get_structure("K1"))
    assert code == 0
    assert payload["flags"] == report.flags
    assert all(type(ok) is bool for ok in payload["flags"].values())
    assert payload["witnesses"] == {k: list(v) for k, v in report.witnesses.items()}
    assert payload["peirce_missing"] == [list(t) for t in report.peirce_missing]


def test_model_file_resolution(tmp_path, capsys):
    src = (data_dir() / "models" / "K4.model").read_text()
    path = tmp_path / "mine.model"
    path.write_text(src)
    code, out, _ = run(capsys, "postulates", str(path))
    assert code == 0


def test_postulates_refuses_a_model_too_large_to_audit(tmp_path, capsys, monkeypatch):
    # p3 and p3' have n**4 positions each, about 11 GB of tables at 100
    # elements: the audit is refused before any table is built
    def unbuilt(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(models, "_tensor", unbuilt)
    monkeypatch.setattr(models, "_audit_table", unbuilt)
    elements = [f"e{i}" for i in range(100)]
    path = tmp_path / "large.model"
    path.write_text("model large\nelements " + " ".join(elements) + "\nzero e0\nstar "
                    + " ".join(f"{e}:{e}" for e in elements) + "\ntriples\nend\n")
    code = cli.main(["postulates", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_valid_refuses_a_model_too_large_for_its_tables(tmp_path, capsys):
    # the subset tables stop at 10 elements
    elements = [f"e{i}" for i in range(11)]
    path = tmp_path / "eleven.model"
    path.write_text("model eleven\nelements " + " ".join(elements) + "\nzero e0\nstar "
                    + " ".join(f"{e}:{e}" for e in elements) + "\ntriples\nend\n")
    code, out, err = run(capsys, "valid", str(path), "contra")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "11 elements is beyond table support" in err


def test_unknown_model(capsys):
    code, _, err = run(capsys, "valid", "K9", "contra")
    assert code == 2
    assert "unknown model" in err


def test_data_dir_override(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "t6.prf").write_text((data_dir() / "corpus" / "t6.prf").read_text())
    monkeypatch.setenv("TARL_DATA", str(tmp_path))
    clear_caches()
    try:
        code, out, _ = run(capsys, "corpus", "--filter", "t6")
        assert code == 0
    finally:
        clear_caches()


@pytest.mark.parametrize("model_file", [None, "K3"])
def test_builtin_structure_missing_from_data_dir(tmp_path, monkeypatch, capsys,
                                                 model_file):
    # no models/ at all, or a K4.model that declares another structure
    if model_file:
        (tmp_path / "models").mkdir()
        text = (data_dir() / "models" / f"{model_file}.model").read_text()
        (tmp_path / "models" / "K4.model").write_text(text)
    monkeypatch.setenv("TARL_DATA", str(tmp_path))
    code, out, err = run(capsys, "valid", "K4", "contra")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# (data file, its text before and after an edit, a command that reads it):
# files that declare another name, and malformed ones
DATA_FILE_FAULTS = [
    ("corpus/A2.prf", ("lemma A2 ", "lemma A2x "), ("corpus",)),
    ("corpus/t6.prf", ("(a)[0,0] ;", "(a)[0 0] ;"), ("corpus", "--filter", "t6")),
    ("models/K4.model", ("model K4", "model K9"), ("valid", "K4", "contra")),
    ("models/K4.model", ("a*:a", "a*:a a:a"), ("valid", "K4", "contra")),
    ("models/K4.model", ("a*:a", "a*:a a:a"), ("sharing", "p", "q")),
    ("models/K3.model", ("elements 0 a b b*", "elements 0 a b"),
     ("grouprep", "--partition", "1")),
]


@pytest.mark.parametrize("name, edit, argv", DATA_FILE_FAULTS)
def test_a_bad_data_file_is_named_in_one_error_line(tmp_path, monkeypatch, capsys,
                                                    name, edit, argv):
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    path = copy / name
    text = path.read_text()
    assert edit[0] in text
    path.write_text(text.replace(*edit))
    monkeypatch.setenv("TARL_DATA", str(copy))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")


CHAIN = str(data_dir() / "chains" / "ra4.chain")


class BadModel(str):
    """A model file's text, passed on the command line as a file's path."""

    file_name = "bad.model"

    def write(self, directory) -> str:
        path = directory / self.file_name
        path.write_text(self)
        return str(path)


class NotUtf8(BadModel):
    """A file, for any command that reads one, whose bytes are not UTF-8."""

    def write(self, directory) -> str:
        path = directory / "bad.bin"
        path.write_bytes(b"\xff\xfe\x00")
        return str(path)


class BadScript(BadModel):
    """A proof script's text, passed on the command line as a file's path."""

    file_name = "bad.prf"


class BadChain(BadModel):
    """A chain file's text, passed on the command line as a file's path."""

    file_name = "bad.chain"


def bad_model(elements, star, triple):
    return BadModel(f"model bad\nelements {elements}\nzero 0\nstar {star}\n"
                    f"triples\n0 0 0\n{triple}\nend\n")


@pytest.mark.parametrize("argv", [
    ("prove", "a", "--max-index", "0"),
    ("prove", "a", "--depth", "0"),
    ("prove", "a", "--nodes", "0"),
    ("algebra-test", "ra1", "--base", "1"),
    ("chain", "proper:9", CHAIN),
    ("chain", "proper:x", CHAIN),
    ("algebra-test", "ra1", "--trials", "0"),
    ("algebra-test", "ra1", "--trials", "-5"),
    ("chain", "proper:3", CHAIN, "--trials", "0"),
    ("postulates", bad_model("0 a", "0:0 a:a", "0 a zz")),
    ("postulates", bad_model("0 a", "0:0 a:zz", "0 a a")),
    ("postulates", bad_model("0 a a", "0:0 a:a", "0 a a")),
    ("postulates", bad_model("0 a", "0:0 a:a 0:a", "0 a a")),
    ("postulates", BadModel(bad_model("0 a", "0:0 a:a", "0 a a") + "zero a\n")),
    ("translate", "id -> q"),
    ("translate", "id -> q", "--json"),
    ("check", NotUtf8()),
    ("valid", NotUtf8(), "p"),
    ("chain", "K3", NotUtf8()),
    ("algebra-test", NotUtf8()),
    ("postulates", BadModel("model bad\nelements 0 a\nzero 0\nstar 0:0 a:a\n"
                            "table\n{0} {a}\n")),
    ("postulates", BadModel("model bad\nelements 0 a\nzero 0\nstar 0:0 a:a\n"
                            "triples\n0 0 0\n")),
    ("check", BadScript("lemma bad\n1. (p)[0,0] => (p)[0,0] ; axiom 7 k=3\n")),
    ("check", BadScript("lemma bad\n1. (p)[0,0] => (p)[0,0] ; axiom\n"
                        "2. (p)[0,0], (q)[0,0] => (p)[0,0] ; weaken 1 9\n")),
    ("grouprep", "--partition", "0"),
    ("grouprep", "--partition", "9"),
    ("countermodel", "--singletons", "K1", "a&b&c&d&e&f&g&h&i&j&k&l"),
    ("chain", "K3", BadChain("# no step\n")),
    ("algebra-test", BadChain("")),
    ("postulates", BadModel("model bad\nelements 0 a\nzero 0\nstar 0:0 a:a\n"
                            "triples\n0 0 0\n0 x a\na y 0\nz a a\nend\n")),
    ("postulates", bad_model("0 a", "0:0 a", "0 a a")),
])
def test_bad_arguments_exit_2_with_one_error_line(capsys, tmp_path, argv):
    argv = [a.write(tmp_path) if isinstance(a, BadModel) else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("parse", "p -> q"),
    ("check", str(data_dir() / "corpus" / "t6.prf")),
    ("prove", "a & b -> a"),
    ("prove", "~((p -> q) -> ~p)"),
    ("valid", "K5", "contra"),
    ("countermodel", "K5", "mp"),
    ("countermodel", "K5", "mp", "--singletons"),
    ("postulates", "K5"),
    ("corpus", "--filter", "t6"),
    ("translate", "p -> q"),
    ("algebra-test", "ra1", "--base", "3", "--trials", "20"),
    ("chain", "K3", CHAIN, "--trials", "20"),
    ("grouprep", "--partition", "1"),
    ("sharing", "p", "q"),
])
def test_commands_return_a_report_and_print_nothing(capsys, argv):
    args = build_parser().parse_args(argv)
    passed, payload, text = args.fn(args)
    assert capsys.readouterr() == ("", "")
    assert type(passed) is bool and isinstance(payload, dict) and isinstance(text, str)
    for flag, shown in (((), text),
                        (("--json",), json.dumps(payload, sort_keys=True,
                                                 default=cli._jsonable))):
        code, out, err = run(capsys, *argv, *flag)
        assert (code, out, err) == (0 if passed else 1, shown + "\n", "")


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_failed_write_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["corpus"]) == 2
    err = capsys.readouterr().err
    assert err == "error: [Errno 32] Broken pipe\n"


def test_a_payload_value_that_is_not_plain_is_a_type_error(monkeypatch):
    monkeypatch.setattr(cli, "cmd_translate", lambda args: (True, {"value": object()}, ""))
    with pytest.raises(TypeError):
        main(["translate", "p", "--json"])


def _python_m_tarl(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-m", "tarl", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_tarl_runs_the_cli():
    done = _python_m_tarl("prove", "a -> a")
    assert done.returncode == 0
    assert done.stdout.startswith("lemma found")
    bad = _python_m_tarl("prove", "a ->")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert len(bad.stderr.splitlines()) == 1 and bad.stderr.startswith("error: ")


# chains of each connective and nested parentheses, n deep
CHAINS = {"~": lambda n: "~" * n + "p", "&": lambda n: " & ".join("p" * (n + 1)),
          "|": lambda n: " | ".join("p" * (n + 1)), "->": lambda n: " -> ".join("p" * (n + 1)),
          "o": lambda n: " o ".join("p" * (n + 1)), "()": lambda n: "(" * n + "p" + ")" * n}


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from([("parse",), ("translate",), ("valid", "K3"), ("prove",)]),
       formula=st.one_of(
           st.builds(lambda conn, n: CHAINS[conn](n), st.sampled_from(sorted(CHAINS)),
                     st.integers(0, 3000)),
           st.text("pqo~&|-> ()∧∨→¬∘", max_size=80),
           st.text(max_size=30)),
       flags=st.sampled_from([(), ("--json",)]))
def test_no_input_makes_a_traceback(command, formula, flags):
    """Any formula text, however deep, through parse, translate, valid and
    prove: exit 0 or 1 with nothing on stderr, or exit 2 with one error line
    and nothing on stdout; main raises nothing.  The text comes after '--',
    so that argparse reads it as the formula whatever it starts with."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, *flags, "--", formula])
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
    else:
        assert code in (0, 1) and err.getvalue() == "" and out.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv,message", [
    (["parse", "-p"], "the following arguments are required: formula"),
    (["parse"], "the following arguments are required: formula"),
    (["parse", "p", "-p"], "unrecognized arguments: -p"),
    (["nosuch"], "invalid choice: 'nosuch'"),
    ([], "the following arguments are required: command"),
    (["prove", "p", "--depth", "x"], "argument --depth: invalid int value: 'x'"),
    (["grouprep"], "the following arguments are required: --partition"),
])
def test_argparse_errors_are_one_error_line(capsys, argv, message):
    """What argparse refuses is reported by main like any other usage error:
    exit 2, nothing on stdout and one `error:` line, with no usage line
    and no SystemExit."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("argv", [["--help"], ["parse", "--help"], ["-h"]])
def test_help_still_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: tarl") and err == ""
