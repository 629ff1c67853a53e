"""Built-in data: the finite structures K1..K5, named formulas, proof corpus.

Each structure is one model file under data/models, holding both its
singleton composition table (row x, column y holds {x} o {y}) and its
triples R x y z, which the loader cross-checks; the file's `model` line must
name the structure.  Proof scripts live under data/corpus, one file per
lemma, and are cross-checked against the expected objects column;
``derived`` reads its rule skeletons, data/rules, through the same loader.
The TARL_DATA environment variable overrides the data directory for all
three.  Each file is read by one loader, once per path, and an error in
one raises DataFileError naming the file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .formulas import Cache, Formula, parse_formula
from .models import ModelStructure, load_model_file
from .sequents import Proof, parse_proof_script

__all__ = [
    "NamedFormula", "CorpusEntry", "UnknownStructure", "UnknownName",
    "DataFileError",
    "get_structure", "structure_names", "get_formula", "formula_names",
    "get_corpus_entry", "list_corpus", "corpus_ids", "data_dir",
]


class UnknownStructure(KeyError):
    pass


class UnknownName(KeyError):
    pass


class DataFileError(ValueError):
    """A data file that does not read: its path, then what is wrong."""


@dataclass(frozen=True)
class NamedFormula:
    name: str
    formula: Formula
    provenance: str


@dataclass
class CorpusEntry:
    lemma_id: str
    proof: Proof
    expected_objects: frozenset[int]


def data_dir() -> Path:
    override = os.environ.get("TARL_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


# keyed on the path, which holds the data directory, so that a change of
# TARL_DATA reloads; each path then yields one object, which keeps a
# structure's tables cached on it; unbounded: the files are few
_LOADED = Cache("data files", float("inf"))


def _load(path: Path, parse, kind: str, name: str):
    """What parse makes of the text of the data file at path, read once.
    parse returns the name the file declares, which must be name, and the
    object.  A ValueError on the way is a DataFileError naming the file."""
    if path not in _LOADED:
        try:
            declared, value = parse(path.read_text())
            if declared != name:
                raise ValueError(f"declares {kind} {declared!r}, not {name!r}")
        except ValueError as e:
            raise DataFileError(f"{path}: {e}") from None
        _LOADED.keep(path, value)
    return _LOADED[path]


# ------------------------------------------------------------------
# Structures: one model file each under data/models
# ------------------------------------------------------------------

STRUCTURE_NAMES = ("K1", "K2", "K3", "K4", "K5")


def _named_model(text: str) -> tuple[str, ModelStructure]:
    m = load_model_file(text)
    return m.name, m


def get_structure(name: str) -> ModelStructure:
    key = name.upper()
    if key not in STRUCTURE_NAMES:
        raise UnknownStructure(name)
    return _load(data_dir() / "models" / f"{key}.model", _named_model, "model", key)


def structure_names() -> list[str]:
    return list(STRUCTURE_NAMES)


# ------------------------------------------------------------------
# Named formulas
# ------------------------------------------------------------------

_L5_TEXT = (
    "(((a34 o a23) & a24) o ((a12 o a01) & a02)) & a04 ->"
    " ((((a34 o a23) & a24) o ((a12 o (a01 & ~a01)) & a02)) & a04)"
    " | (((((a34 & ~a34) o a23) & a24) o ((a12 o a01) & a02)) & a04)"
    " | (a34 o ((a23 o a12)"
    "          & (((a23 o a02) & (a43 o a04)) o a10)"
    "          & (a43 o ((a04 o a10) & (a24 o a12)))) o a01)"
)

_FORMULA_TEXTS = {
    "contra": ("(p -> ~q) -> (q -> ~p)",
               "contraposition axiom; needs commuting relations"),
    "perm": ("(p -> (q -> r)) -> (q -> (p -> r))",
             "permutation axiom; needs commuting relations"),
    "suff": ("(p -> q) -> ((q -> r) -> (p -> r))",
             "suffixing axiom; holds when relations commute"),
    "mp": ("p -> ((p -> q) -> q)",
           "assertion/modus-ponens axiom; holds when relations commute"),
    "contr": ("(p -> (p -> q)) -> (p -> q)",
              "contraction axiom; equivalent to density of every relation"),
    "reduc": ("(p -> ~p) -> ~p",
              "reductio axiom; equivalent to density of every relation"),
    "ming": ("p -> (p -> p)",
             "mingle axiom; equivalent to transitivity of every relation"),
    "reflectionA": ("(p o q) & r",
                    "antecedent of the reflection instance"),
    "reflectionB": ("((p & ~s) o q) | (p o (q & (s o r)))",
                    "consequent of the reflection instance"),
    "reflection": ("(p o q) & r -> ((p & ~s) o q) | (p o (q & (s o r)))",
                   "reflection law instance; provable with 3 objects but "
                   "refuted in K1 and K2, so outside the Anderson-Belnap "
                   "system R"),
    "l5shorter": (_L5_TEXT,
                  "transcription of a law conjectured to need 5 objects; "
                  "as shipped it is refuted in proper algebras of binary "
                  "relations, so it is kept unproved; subscripted variables "
                  "are encoded as distinct identifiers a01..a43"),
}

def get_formula(name: str) -> NamedFormula:
    if name not in _FORMULA_TEXTS:
        raise UnknownName(name)
    text, provenance = _FORMULA_TEXTS[name]
    return NamedFormula(name, parse_formula(text), provenance)


def formula_names() -> list[str]:
    return sorted(_FORMULA_TEXTS)


# ------------------------------------------------------------------
# Proof corpus: ids in presentation order with their objects columns
# ------------------------------------------------------------------

_CORPUS_OBJECTS: dict[str, frozenset[int]] = {}
for _id in ["t6"]:
    _CORPUS_OBJECTS[_id] = frozenset({0})
for _id in ["A1", "A2", "A3", "A5", "A6", "comm1", "comm2", "assoc1",
            "assoc2", "A8", "T9s", "T10", "A9", "t3", "T2", "t4", "t5",
            "t5a", "T11"]:
    _CORPUS_OBJECTS[_id] = frozenset({0, 1})
for _id in ["A4", "A7", "t11", "T6", "T8", "t7", "t9", "t13", "t14",
            "T12", "T15s", "reflection", "tqq"]:
    _CORPUS_OBJECTS[_id] = frozenset({0, 1, 2})
for _id in ["prefixingA", "t10", "T19", "tq", "assocfusion"]:
    _CORPUS_OBJECTS[_id] = frozenset({0, 1, 2, 3})

def corpus_ids() -> list[str]:
    return list(_CORPUS_OBJECTS)


def get_corpus_entry(lemma_id: str) -> CorpusEntry:
    if lemma_id not in _CORPUS_OBJECTS:
        raise UnknownName(lemma_id)
    proof = _load(data_dir() / "corpus" / f"{lemma_id}.prf", parse_proof_script,
                  "lemma", lemma_id)
    return CorpusEntry(lemma_id, proof, _CORPUS_OBJECTS[lemma_id])


def list_corpus() -> list[CorpusEntry]:
    return [get_corpus_entry(i) for i in _CORPUS_OBJECTS]
