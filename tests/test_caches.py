"""The caches: every module-level dict that a run fills is a Cache listed
in CACHES (the intern table aside), and no result depends on what the
caches hold."""

import importlib
import pkgutil
import shutil

import tarl
from tarl import formulas
from tarl.algebra import (
    DERIVED_LAWS, TARSKI_AXIOMS, ComplexAlgebra, ProperAlgebra, check_chain, holds_law,
    parse_chain,
)
from tarl.formulas import CACHES, Cache, clear_caches
from tarl.models import enumerate_structures, find_invalidating_singletons, valid_in
from tarl.registry import (
    data_dir, formula_names, get_formula, get_structure, list_corpus, structure_names,
)
from tarl.search import search_proof
from tarl.sequents import check_proof, format_proof_script, parse_proof_script

MODULES = [importlib.import_module(f"tarl.{info.name}")
           for info in pkgutil.iter_modules(tarl.__path__) if info.name != "__main__"]


def _results():
    """What a run of every engine gives: the corpus checked, printed and read
    back, its 38 goals searched, they and the named formulas checked in
    K1..K5, the laws in a complex and a proper algebra, a chain, and the
    structures of 3 elements that satisfy p1..p6."""
    corpus = list_corpus()
    structures = [get_structure(name) for name in structure_names()]
    texts = [format_proof_script(e.lemma_id, e.proof) for e in corpus]
    out = [(text, parse_proof_script(text), check_proof(e.proof)) for text, e in zip(texts, corpus)]
    for e in corpus:
        found = search_proof(e.proof.goal)
        out.append((found, found.proof and format_proof_script(e.lemma_id, found.proof)))
    named = [get_formula(n).formula for n in formula_names() if n != "l5shorter"]  # 14 variables
    for f in [e.proof.goal for e in corpus] + named:
        out += [(valid_in(m, f), find_invalidating_singletons(m, f)) for m in structures]
    algebras = {"K3": ComplexAlgebra(structures[2]), "P3": ProperAlgebra(3)}
    out += [holds_law(alg, law, trials=50) for alg in algebras.values()
            for law in (*TARSKI_AXIOMS.values(), *DERIVED_LAWS.values())]
    steps = parse_chain((data_dir() / "chains" / "refleq.chain").read_text())
    out.append(check_chain(algebras, steps, trials=50))
    out.append(list(enumerate_structures(3, ("p1", "p2", "p3", "p4", "p5", "p6"))))
    return out


def test_every_module_level_cache_is_listed(tmp_path, monkeypatch):
    # a fresh data directory, so that every data file is read again
    shutil.copytree(data_dir(), tmp_path / "data")
    monkeypatch.setenv("TARL_DATA", str(tmp_path / "data"))
    clear_caches()
    dicts = [(f"{module.__name__}.{name}", value) for module in MODULES
             for name, value in vars(module).items() if isinstance(value, dict)]
    sizes = [len(value) for _, value in dicts]
    _results()
    grew = [(name, value) for (name, value), size in zip(dicts, sizes)
            if len(value) > size and value is not formulas._TABLE]
    assert grew
    assert [name for name, value in grew
            if not (isinstance(value, Cache) and CACHES.get(value.name) is value)] == []


def test_no_result_depends_on_what_the_caches_hold(monkeypatch):
    _results()
    warm = _results()
    clear_caches()
    assert _results() == warm
    for cache in CACHES.values():
        monkeypatch.setattr(cache, "bound", 0)
    clear_caches()
    assert _results() == warm
