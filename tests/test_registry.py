import hashlib
import shutil
import time
from pathlib import Path

import pytest

from tarl import derived, registry
from tarl.algebra import ProperAlgebra, verified_in_algebra
from tarl.formulas import (
    Imp, Var, desugar_fusion, parse_formula, substitute, variables,
)
from tarl.models import (
    ModelStructure, check_postulates, composition_table, dump_model_file,
    load_model_file, valid_in,
)
from tarl.registry import (
    UnknownName, UnknownStructure, corpus_ids, data_dir, formula_names,
    get_corpus_entry, get_formula, get_structure, list_corpus,
    structure_names,
)
from tarl.sequents import check_proof


def cell(m, x, y):
    return composition_table(m)[(x, y)]


def test_structure_lookup_errors():
    with pytest.raises(UnknownStructure):
        get_structure("K9")
    with pytest.raises(UnknownName):
        get_formula("nonesuch")


def test_unknown_corpus_entry():
    with pytest.raises(UnknownName):
        get_corpus_entry("nonesuch")


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


@pytest.mark.cache_behaviour
def test_a_loaded_file_is_found_with_no_path_built(monkeypatch):
    structure, entry = get_structure("K3"), get_corpus_entry("t6")
    skeleton = derived._skeleton("erule")
    monkeypatch.setattr(registry, "data_dir", lambda: pytest.fail("a hit built a Path"))
    assert get_structure("k3") is structure
    assert get_corpus_entry("t6").proof is entry.proof
    assert derived._skeleton("erule") is skeleton
    monkeypatch.setenv("TARL_DATA", "")  # the default data directory, as when unset
    assert get_structure("K3") is structure


# sha256 of the repr of (elements, zero, sorted star items, sorted triples),
# recorded from the composition tables the registry held before it read
# data/models
STRUCTURE_DIGESTS = {
    "K1": "160ac7848df2c8e0928f4c51faab778337844b6eca7fdf4b017b9e10e2e4b03d",
    "K2": "3c19e4d6c47eb6af9882c43e617bdea560a48ad68fa5b5cd2a7c34973e97e9a5",
    "K3": "2384c50bd47c552b10fc06eab51cdea4b07ba615e140f3ddd0ff984dbc7e60d4",
    "K4": "a1e0e47ff91194b9e981ba810e07c77ae9602d561524efe4d01a687027260547",
    "K5": "d9bddd8c4456c3470a34980b0284db54c177e47b246eaf7f469ee799da3a74b6",
}


def test_builtin_structures_are_pinned():
    assert structure_names() == list(STRUCTURE_DIGESTS)
    for name, digest in STRUCTURE_DIGESTS.items():
        m = get_structure(name)
        assert m.name == name
        key = (m.elements, m.zero, sorted(m.star.items()), sorted(m.triples))
        assert hashlib.sha256(repr(key).encode()).hexdigest() == digest, name
        assert get_structure(name.lower()) is m    # one object keeps its tables


@pytest.mark.cache_behaviour
def test_structures_follow_a_change_of_data_directory(tmp_path, monkeypatch):
    original = get_structure("K4")
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    path = copy / "models" / "K4.model"
    edited = load_model_file(path.read_text())
    edited = ModelStructure("K4", edited.elements, edited.zero, edited.star,
                            edited.triples - {("a", "a", "a")})
    path.write_text(dump_model_file(edited))
    monkeypatch.setenv("TARL_DATA", str(copy))
    assert get_structure("K4").same_as(edited)
    assert not get_structure("K4").same_as(original)
    monkeypatch.delenv("TARL_DATA")
    assert get_structure("K4") is original


def test_structure_file_must_name_its_structure(tmp_path, monkeypatch):
    (tmp_path / "models").mkdir()
    text = (data_dir() / "models" / "K3.model").read_text()
    (tmp_path / "models" / "K4.model").write_text(text)
    monkeypatch.setenv("TARL_DATA", str(tmp_path))
    with pytest.raises(ValueError, match="declares model 'K3'"):
        get_structure("K4")


# Each named formula's note, as the engines see it: in which built-in
# structures it is valid, whether proper algebras refute it, and the objects
# of its corpus proof (None: none is shipped).  A note that changes must
# change here too.
PROPER_BASES = (2, 3, 4)
NOTE_CLAIMS = {
    # "needs commuting relations": K5 is the only non-commutative built-in
    "contra": ({"K1", "K2", "K3", "K4"}, True, None),
    "perm": ({"K1", "K2", "K3", "K4"}, True, None),
    "suff": ({"K1", "K2", "K3", "K4"}, True, None),
    "mp": ({"K1", "K2", "K3", "K4"}, True, None),
    # "density of every relation": binary relations need not be dense
    "contr": ({"K1", "K2", "K3", "K4", "K5"}, True, None),
    "reduc": ({"K1", "K2", "K3", "K4", "K5"}, True, None),
    # "transitivity of every relation"
    "ming": (set(), True, None),
    "reflectionA": (set(), True, None),
    "reflectionB": (set(), True, None),
    # "provable with 3 objects but refuted in K1 and K2"
    "reflection": ({"K3", "K4", "K5"}, False, {0, 1, 2}),
    # "refuted in proper algebras ... kept unproved"; too many variables
    # for exhaustive validity in K1..K5
    "l5shorter": (None, True, None),
}


def test_formula_notes_agree_with_the_engines():
    assert sorted(NOTE_CLAIMS) == formula_names()
    assert [n for n in structure_names()
            if not check_postulates(get_structure(n)).flags["comm"]] == ["K5"]
    assert get_formula("reflection").formula == Imp(
        get_formula("reflectionA").formula, get_formula("reflectionB").formula)
    for name, (valid_in_k, refuted_in_proper, objects) in NOTE_CLAIMS.items():
        f = get_formula(name).formula
        if valid_in_k is not None:
            assert {k for k in structure_names()
                    if valid_in(get_structure(k), f).valid} == valid_in_k, name
        refuted = {b for b in PROPER_BASES if not verified_in_algebra(
            ProperAlgebra(b), f, trials=500, seed=1).passed}
        assert refuted == (set(PROPER_BASES) if refuted_in_proper else set()), name
        if objects is None:
            assert name not in corpus_ids(), name
        else:
            proof = get_corpus_entry(name).proof
            renamed = substitute(f, {v: Var(a) for v, a in zip("pqrs", "abcd")})
            assert proof.goal == desugar_fusion(renamed), name
            assert check_proof(proof).objects_used == objects


def test_package_data_globs_cover_the_data_directory():
    tomllib = pytest.importorskip("tomllib")
    package = Path(registry.__file__).parent
    config = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["tarl"]
    shipped = {p for g in globs for p in package.glob(g)}
    files = {p for p in (package / "data").rglob("*") if p.is_file()}
    assert files and files <= shipped, sorted(map(str, files - shipped))
