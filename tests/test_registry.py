import shutil
import time

import pytest

from tarl.formulas import parse_formula, variables
from tarl.models import composition_table, load_model_file
from tarl.registry import (
    UnknownName, UnknownStructure, corpus_ids, data_dir, get_corpus_entry,
    get_formula, get_structure, list_corpus,
)
from tarl.sequents import check_proof


def cell(m, x, y):
    return composition_table(m)[(x, y)]


def test_structure_lookup_errors():
    with pytest.raises(UnknownStructure):
        get_structure("K9")
    with pytest.raises(UnknownName):
        get_formula("nonesuch")


def test_k1_table_cells():
    k1 = get_structure("K1")
    assert cell(k1, "a", "a") == {"0", "a", "b"}
    assert cell(k1, "b", "b*") == {"0", "a", "b", "b*"}
    assert len(k1.triples) == 34


def test_k2_table_cells():
    k2 = get_structure("K2")
    assert cell(k2, "b*", "b*") == {"a", "b*"}
    assert len(k2.triples) == 36


def test_k3_is_k1_plus_three_and_k2_plus_one():
    k1, k2, k3 = (get_structure(n) for n in ("K1", "K2", "K3"))
    assert k3.triples == k1.triples | {("b", "a", "a"), ("a", "b", "a"),
                                       ("a", "a", "b*")}
    assert k3.triples == k2.triples | {("b*", "b*", "b")}


def test_k4_table():
    k4 = get_structure("K4")
    assert k4.elements == ("0", "a", "a*")
    assert cell(k4, "a", "a") == {"a"}
    assert cell(k4, "a", "a*") == {"0", "a", "a*"}
    assert k4.star == {"0": "0", "a": "a*", "a*": "a"}


def test_k5_table_is_noncommutative():
    k5 = get_structure("K5")
    assert cell(k5, "a", "b") != cell(k5, "b", "a")
    assert cell(k5, "b*", "b") == {"0", "a", "b", "b*"}


def test_named_formulas():
    assert get_formula("contra").formula == parse_formula("(p -> ~q) -> (q -> ~p)")
    assert get_formula("reflectionB").formula == parse_formula(
        "((p & ~s) o q) | (p o (q & (s o r)))")
    assert get_formula("ming").formula == parse_formula("p -> (p -> p)")


def test_l5_formula_parses_with_distinct_indexed_variables():
    f = get_formula("l5shorter").formula
    assert variables(f) == {"a01", "a02", "a04", "a10", "a12", "a23",
                            "a24", "a34", "a43"}


def test_corpus_complete_and_checks():
    entries = list_corpus()
    assert len(entries) == 38
    assert [e.lemma_id for e in entries] == corpus_ids()
    t0 = time.perf_counter()
    for entry in entries:
        report = check_proof(entry.proof)
        assert report.valid, (entry.lemma_id, report.first_error)
        assert frozenset(report.objects_used) == entry.expected_objects, entry.lemma_id
    assert time.perf_counter() - t0 < 1.0


def test_corpus_goals_match_headers():
    # every script names its formula; the checker verified it appears at [0,0]
    for entry in list_corpus():
        assert entry.proof.goal is not None


def test_assocfusion_details():
    entry = get_corpus_entry("assocfusion")
    assert len(entry.proof.lines) == 20
    assert entry.expected_objects == {0, 1, 2, 3}


def test_t6_details():
    entry = get_corpus_entry("t6")
    assert len(entry.proof.lines) == 3
    report = check_proof(entry.proof)
    assert report.objects_used == {0}
    assert report.level == 1


def test_corpus_follows_a_change_of_data_directory(tmp_path, monkeypatch):
    assert len(get_corpus_entry("t6").proof.lines) == 3  # cached from the default
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    script = copy / "corpus" / "t6.prf"
    script.write_text(script.read_text().replace("; orR", "; orR\n4. => (a | ~a)[0,0] ; weaken"))
    monkeypatch.setenv("TARL_DATA", str(copy))
    assert len(get_corpus_entry("t6").proof.lines) == 4
    monkeypatch.delenv("TARL_DATA")
    assert len(get_corpus_entry("t6").proof.lines) == 3


def test_model_files_match_registry():
    for name in ("K1", "K2", "K3", "K4", "K5"):
        path = data_dir() / "models" / f"{name}.model"
        loaded = load_model_file(path.read_text())
        assert loaded.same_as(get_structure(name))
