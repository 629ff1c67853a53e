"""Error positions in the three file formats: proof scripts, model files and
chain files.  A ParseError of a file names the 1-based line and column at
fault; found is the text there as it is typed."""

import random
import re

import pytest

from tarl.algebra import parse_chain
from tarl.cli import main
from tarl.formulas import ParseError
from tarl.models import load_model_file
from tarl.registry import corpus_ids, data_dir
from tarl.sequents import parse_proof_script

AXIOM = "1. (p)[0,0] => (p)[0,0] ; axiom\n"
LONG = "7" * 5000  # more digits than int reads by default (4,300)
DEEP = 3000  # nesting deeper than Python's default recursion limit (1,000)
MODEL = "model m\nelements 0 a\nzero 0\nstar 0:0 a:a\n"


def script(line):
    return "lemma x\n" + line + "\n"


def fitted(elements, zero, star):
    """A model file whose every line parses, with no triples."""
    return f"model m\nelements {elements}\nzero {zero}\nstar {star}\ntriples\nend\n"


# reader, text, line, column, found
CASES = [
    # proof scripts
    (parse_proof_script, "lemma\n", 1, 1, ""),
    (parse_proof_script, "lemma x bound 9\n", 1, 15, "9"),
    (parse_proof_script, "lemma x : p &\n", 1, 14, "end of input"),
    (parse_proof_script, "lemma x : p & bound 3\n", 1, 15, "b"),
    (parse_proof_script, "lemma x :\n" + AXIOM, 1, 10, "end of line"),
    (parse_proof_script, "lemmax : p\n" + AXIOM, 1, 1, ""),
    (parse_proof_script, "lemma x\n" + AXIOM + "lemma x bound 2\n", 3, 1, "lemma"),
    (parse_proof_script, AXIOM, 2, 1, "end of file"),
    (parse_proof_script, "lemma x : p -> p\n", 2, 1, "end of file"),
    (parse_proof_script, "lemma x\n", 2, 1, "end of file"),
    (parse_proof_script, script("x. (p)[0,0] => (p)[0,0] ; axiom"), 2, 1, ""),
    (parse_proof_script, script("2. (p)[0,0] => (p)[0,0] ; axiom"), 2, 1, "2"),
    (parse_proof_script, script("1. (p)[0,0] => (p)[0,0] axiom"), 2, 30, "end of line"),
    (parse_proof_script, script("1. (p)[0,0] (p)[0,0] ; axiom"), 2, 22, ";"),
    (parse_proof_script, script("1. p)[0,0] => (p)[0,0] ; axiom"), 2, 4, "p"),
    (parse_proof_script, script("1. (p[0,0] => (p)[0,0] ; axiom"), 2, 4, "("),
    (parse_proof_script, script("1. (p)[0] => (p)[0,0] ; axiom"), 2, 7, "["),
    (parse_proof_script, script("1. (p)[0,0] => (p) ; axiom"), 2, 20, ";"),
    (parse_proof_script, script("1. (p)[0,0] => (p)[0,0] x ; axiom"), 2, 25, "x"),
    (parse_proof_script, script("1. (a &)[1,0] => (p)[0,0] ; axiom"), 2, 8, ")"),
    (parse_proof_script, script("1. (a & )[1,0] => (p)[0,0] ; axiom"), 2, 9, ")"),
    (parse_proof_script, script("1. (p ∨∨ q)[0,0] => (p)[0,0] ; axiom"), 2, 8, "∨"),
    (parse_proof_script, script("  1. (p)[0,0] => (q ->)[0,0] ; axiom  # note"), 2, 23,
     ")"),
    (parse_proof_script, script("1. (p)[0,0] => (p)[0,0] ; foo 1"), 2, 27, "foo"),
    (parse_proof_script, script("1. (p)[0,0] => (p)[0,0] ;"), 2, 26, "end of line"),
    (parse_proof_script, script("1. (p)[0,0] => (p)[0,0] ; weaken x"), 2, 34, "x"),
    (parse_proof_script, script("1. => (p -> p)[0,0] ; impR k=1 k=2"), 2, 32, "k=2"),
    (parse_proof_script, script("1. (p)[0,0] => (p)[0,0] ; axiom 7 k=3"), 2, 27,
     "axiom 7 k=3"),
    (parse_proof_script, "lemma x\n" + AXIOM + "2. (p)[0,0] => (p)[0,0] ; weaken 1 9\n",
     3, 27, "weaken 1 9"),
    (parse_proof_script, script("1. => (p -> p)[0,0] ; impR 1"), 2, 23, "impR 1"),
    # a number too long for int, in each field that holds one
    pytest.param(parse_proof_script, script(LONG + ". (p)[0,0] => (p)[0,0] ; axiom"),
                 2, 1, LONG, id="long line number"),
    pytest.param(parse_proof_script, script(f"1. (p)[0,0] => (p)[0,{LONG}] ; axiom"),
                 2, 22, LONG, id="long index"),
    pytest.param(parse_proof_script, script(f"1. (p)[0,0] => (p)[0,0] ; weaken {LONG}"),
                 2, 34, LONG, id="long reference"),
    pytest.param(parse_proof_script, script(f"1. => (p -> p)[0,0] ; impR k={LONG}"),
                 2, 28, "k=" + LONG, id="long eigen index"),
    pytest.param(parse_proof_script, f"lemma x bound {LONG}\n" + AXIOM, 1, 15, LONG,
                 id="long bound"),
    # a formula nested deeper than the recursion limit, read to its error
    pytest.param(parse_proof_script,
                 script("1. (" + "(" * DEEP + "p &" + ")" * DEEP + ")[0,0] => (p)[0,0] ; axiom"),
                 2, 8 + DEEP, ")", id="deep formula"),
    pytest.param(parse_proof_script, script("1. (" + "~" * DEEP + "p)[0] => (p)[0,0] ; axiom"),
                 2, 7 + DEEP, "[", id="deep formula, bad indices"),
    # model files
    (load_model_file, MODEL + "zero a\n", 5, 1, "zero"),
    (load_model_file, "model m\nelements 0 a\nzero 0\nstar 0:0 a:a  0:a\n", 4, 15, "0:a"),
    (load_model_file, "model m\nelements 0 a\nzero 0\nstar 0:0 a\n", 4, 10, "a"),
    (load_model_file, "model m\nelements 0 a\nzero 0\nstar 0:0 a:a:a\n", 4, 10, "a:a:a"),
    (load_model_file, "model m\nelements 0 a\nzero 0\nstar 0: a:a\n", 4, 6, "0:"),
    (load_model_file, "model m\nelements 0 a\nzero 0\nstar 0:0 :a\n", 4, 10, ":a"),
    (load_model_file, MODEL + "triples\n0 0 0\n 0 a\nend\n", 7, 2, "0 a"),
    (load_model_file, MODEL + "triples\n0 0 0\n", 7, 1, "end of file"),
    (load_model_file, "model m\ntable\n", 2, 1, "table"),
    (load_model_file, MODEL + "table\n{0} {a}\n{a}   # one cell\n", 7, 1, "{a}"),
    (load_model_file, MODEL + "table\n{0} {a}\n", 7, 1, "end of file"),
    (load_model_file, MODEL + "  tripels\n", 5, 3, "tripels"),
    (load_model_file, "model m\nelements 0 a\n", 3, 1, "end of file"),
    (load_model_file, MODEL, 5, 1, "end of file"),
    (load_model_file, MODEL + "triples\n0 0 0\nend\ntable\n{0} {a}\n{a} {0,a}\n", 8, 1, ""),
    # sections that do not fit together, placed at the section at fault
    (load_model_file, fitted("0 a", "0", "0:0"), 4, 1, "star"),
    (load_model_file, fitted("0 a", "0", "0:0 a:zz"), 4, 1, "star"),
    (load_model_file, fitted("0 a", "0", "0:0 a:a b:b"), 4, 1, "star"),
    (load_model_file, fitted("0 a", "b", "0:0 a:a"), 3, 1, "zero"),
    (load_model_file, "model m\n  elements 0 a 0\nzero 0\nstar 0:0 a:a\ntriples\nend\n",
     2, 3, "elements"),
    (load_model_file, MODEL + "triples\n0 0 0\n0 x a\nend\n", 5, 1, "triples"),
    (load_model_file, MODEL + "table\n{0} {a}\n{a} {0,q}\n", 5, 1, "table"),
    # chain files
    (parse_chain, "x;y ; tag\n", 1, 1, "x;y"),
    (parse_chain, "# a comment\nx;; = y ; tag\n", 2, 3, ";"),
    (parse_chain, "x = y\n\n   x;y = (y;x ; t  # note\n", 3, 15, ";"),
    (parse_chain, "x + = y ; t\n", 1, 5, "="),
    (parse_chain, "x <= y + ; t\n", 1, 10, ";"),
    (parse_chain, "x = y +\n", 1, 8, "end of input"),
    (parse_chain, "", 1, 1, "end of file"),
    (parse_chain, "# a comment\n\n   # another\n", 4, 1, "end of file"),
    pytest.param(parse_chain, "x = " + "(" * DEEP + "x;" + ")" * DEEP + " ; t\n", 1, 7 + DEEP,
                 ")", id="deep term"),
    pytest.param(parse_chain, "x = y ; t\n" + "-" * DEEP + "x = y + ; t\n", 2, 9 + DEEP, ";",
                 id="deep term, bad right side"),
]


@pytest.mark.parametrize("parse, text, line, column, found", CASES)
def test_a_file_error_names_its_line_and_column(parse, text, line, column, found):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.position, e.value.found) == (line, column, found)
    assert str(e.value).startswith(f"line {line}, column {column}: expected ")


# what str.splitlines also takes for a line end, and the readers do not
NOT_LINE_ENDS = "\f\v\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda char: f"U+{ord(char):04X}")
@pytest.mark.parametrize("parse, text, line, column, found", [
    # in a comment, in blanks at the end of a line, and alone on a line
    (parse_proof_script, "lemma x  # a{}b\n" + AXIOM + "2. (p)[0,0] => (p)[0,0] ; bogus\n",
     3, 27, "bogus"),
    (parse_proof_script, "lemma x{}\n", 2, 1, "end of file"),
    (parse_proof_script, "lemma x\n{}\n", 3, 1, "end of file"),
    (load_model_file, "model m  # a{}b\n" + MODEL[8:] + "zero a\n", 5, 1, "zero"),
    (load_model_file, MODEL + "triples\n0 0 0{}\n", 7, 1, "end of file"),
    (parse_chain, "x = x  # a{}b\n\nx + = y ; t\n", 3, 5, "="),
    (parse_chain, "x = x ; t{}\n{}\nx + = y ; t\n", 3, 5, "="),
])
def test_only_newlines_and_returns_end_a_line(char, parse, text, line, column, found):
    with pytest.raises(ParseError) as e:
        parse(text.replace("{}", char))
    assert (e.value.line, e.value.position, e.value.found) == (line, column, found)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=repr)
def test_every_newline_convention_ends_a_line(end):
    text = "lemma x\n" + AXIOM + "2. (p)[0,0] => (p)[0,0] ; bogus\n"
    with pytest.raises(ParseError) as e:
        parse_proof_script(text.replace("\n", end))
    assert (e.value.line, e.value.position) == (3, 27)
    with pytest.raises(ParseError) as e:
        parse_proof_script(("lemma x\n\n").replace("\n", end))
    assert e.value.line == 3


def test_the_cli_names_the_file(capsys, tmp_path):
    path = tmp_path / "bad.prf"
    path.write_text(script("1. (p)[0,0] => (p)[0,0] ; axiom 7 k=3"))
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {path}: line 2, column 27: expected 'axiom', "
                       f"found 'axiom 7 k=3'\n")


@pytest.mark.parametrize("argv", [("chain", "K3"), ("algebra-test",)])
def test_a_chain_file_with_no_step_is_an_error(capsys, tmp_path, argv):
    path = tmp_path / "empty.chain"
    path.write_text("# no step\n")
    assert main([*argv, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {path}: line 2, column 1: expected a chain step, "
                       f"found 'end of file'\n")


# each mutation of a script line: the new line and the 0-based span of the
# token at fault in it, or None where it does not apply to the line
def _dollar(line, rng):
    """'$' just inside a parenthesis of the sequent."""
    sequent = line[:line.index(";")]
    spots = [m.end() for m in re.finditer(r"\(", sequent)]
    spots += [m.start() for m in re.finditer(r"\)", sequent)]
    at = rng.choice(spots)
    return line[:at] + "$" + line[at:], (at, at)


def _no_bracket(line, rng):
    """An assertion's ']' deleted: its [i,j] is at fault."""
    m = rng.choice(list(re.finditer(r"\[\d+,\d+\]", line)))
    return line[:m.end() - 1] + line[m.end():], (m.start(), m.end() - 2)


def _bad_index(line, rng):
    m = rng.choice(list(re.finditer(r"\[\d+,\d+\]", line)))
    digit = rng.choice((m.start() + 1, m.end() - 2))
    return line[:digit] + "x" + line[digit + 1:], (m.start(), m.end() - 1)


def _no_open(line, rng):
    """An assertion's '(' deleted, where the formula does not start with one."""
    spots = [m.end() - 1 for m in re.finditer(r"(?:\. |=> |\], )\((?!\()", line)]
    if not spots:
        return None
    at = rng.choice(spots)
    return line[:at] + line[at + 1:], (at, at)


def _stray_and(line, rng):
    spots = [m.end() for m in re.finditer(r" -> ", line)]
    if not spots:
        return None
    at = rng.choice(spots)
    return line[:at] + "& " + line[at:], (at, at)


def _double_alias(line, rng):
    """'∧∧' for '&': the second is at fault, found as typed."""
    spots = [m.start() for m in re.finditer(r"&", line)]
    if not spots:
        return None
    at = rng.choice(spots)
    return line[:at] + "∧∧" + line[at + 1:], (at + 1, at + 1)


def _rule_name(line, rng):
    at = line.index(";") + 2
    end = at + len(line[at:].split()[0])
    return line[:at] + "nosuch" + line[end:], (at, at + 5)


def _extra_refs(line, rng):
    at = line.index(";") + 2
    return line + " 99 99 99", (at, len(line) + 8)


def _line_number(line, rng):
    number = line.split(".")[0]
    wrong = str(int(number) + 1)
    return wrong + line[len(number):], (0, len(wrong) - 1)


def _no_semicolon(line, rng):
    return line.replace(" ; ", " ", 1), None


MUTATIONS = (_dollar, _no_bracket, _bad_index, _no_open, _stray_and, _double_alias,
             _rule_name, _extra_refs, _line_number, _no_semicolon)


def test_mutated_corpus_scripts_report_the_token_at_fault():
    rng = random.Random(14)
    texts = [(data_dir() / "corpus" / f"{lemma}.prf").read_text() for lemma in corpus_ids()]
    audited = {mutation: 0 for mutation in MUTATIONS}
    while min(audited.values()) < 30:
        lines = rng.choice(texts).splitlines()
        n = rng.randrange(1, len(lines))  # a proof line, not the header
        mutation = rng.choice(MUTATIONS)
        mutated = mutation(lines[n], rng)
        if mutated is None:
            continue
        new, span = mutated
        text = "\n".join(lines[:n] + [new] + lines[n + 1:]) + "\n"
        with pytest.raises(ParseError) as e:
            parse_proof_script(text)
        where = (mutation.__name__, new, e.value.line, e.value.position)
        assert e.value.line == n + 1, where
        column = e.value.position - 1
        assert (span is not None and span[0] <= column <= span[1]
                or column == len(new)), where
        if mutation is _double_alias:
            assert e.value.found == "∧", where
        audited[mutation] += 1


def test_files_nested_deeper_than_the_recursion_limit_read_and_check(capsys, tmp_path):
    """A proof script and a chain file whose formula and terms are nested
    DEEP levels read, check and print as shallow ones do."""
    f = "~" * DEEP + "p"
    proof = tmp_path / "deep.prf"
    proof.write_text(f"lemma deep : {f} -> {f}\n1. ({f})[1,0] => ({f})[1,0] ; axiom\n"
                     f"2. => ({f} -> {f})[0,0] ; impR 1 k=1\n")
    assert main(["check", str(proof)]) == 0
    assert capsys.readouterr() == ("deep: valid, objects {0,1}\n", "")
    term = "-" * DEEP + "x"
    chain = tmp_path / "deep.chain"
    chain.write_text(f"x = {term} ; dneg\n{term} = x ; back\n")
    for algebra in ("K3", "proper:3"):
        assert main(["chain", algebra, str(chain), "--trials", "20"]) == 0
        assert capsys.readouterr() == (f"step 1: x = {term}  [dneg]  Pass\n"
                                       f"step 2: {term} = x  [back]  Pass\n"
                                       "end-to-end 1..2 (=): Pass\n", "")
