"""Built-in data: the finite structures K1..K5, named formulas, proof corpus.

The five structures are stored as their singleton composition tables (row x,
column y holds {x} o {y}); the ternary relation is recovered as
R x y z  iff  z in {x} o {y}.  Proof scripts live under data/corpus, one
file per lemma, and are cross-checked against the expected objects column.
The TARL_DATA environment variable overrides the data directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .derived import DERIVED_RULES
from .formulas import Formula, parse_formula
from .models import ModelStructure, structure_from_table
from .sequents import Proof, parse_proof_script

__all__ = [
    "NamedFormula", "CorpusEntry", "UnknownStructure", "UnknownName",
    "get_structure", "structure_names", "get_formula", "formula_names",
    "get_corpus_entry", "list_corpus", "corpus_ids", "data_dir",
    "DERIVED_RULE_NAMES",
]


class UnknownStructure(KeyError):
    pass


class UnknownName(KeyError):
    pass


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


# ------------------------------------------------------------------
# Structures: elements ordered (0, a, b, b*) resp. (0, a, a*); star fixes 0
# and a and swaps the starred pair.  Tables give {x} o {y} per row/column.
# ------------------------------------------------------------------

_O, _A, _B, _BS = "0", "a", "b", "b*"
_AS = "a*"

_TABLES = {
    "K1": (
        (_O, _A, _B, _BS),
        {_O: _O, _A: _A, _B: _BS, _BS: _B},
        [
            [{_O}, {_A}, {_B}, {_BS}],
            [{_A}, {_O, _A, _B}, {_B, _BS}, {_A, _B, _BS}],
            [{_B}, {_B, _BS}, {_A, _B, _BS}, {_O, _A, _B, _BS}],
            [{_BS}, {_A, _B, _BS}, {_O, _A, _B, _BS}, {_A, _B, _BS}],
        ],
    ),
    "K2": (
        (_O, _A, _B, _BS),
        {_O: _O, _A: _A, _B: _BS, _BS: _B},
        [
            [{_O}, {_A}, {_B}, {_BS}],
            [{_A}, {_O, _A, _B, _BS}, {_A, _B, _BS}, {_A, _B, _BS}],
            [{_B}, {_A, _B, _BS}, {_A, _B, _BS}, {_O, _A, _B, _BS}],
            [{_BS}, {_A, _B, _BS}, {_O, _A, _B, _BS}, {_A, _BS}],
        ],
    ),
    "K3": (
        (_O, _A, _B, _BS),
        {_O: _O, _A: _A, _B: _BS, _BS: _B},
        [
            [{_O}, {_A}, {_B}, {_BS}],
            [{_A}, {_O, _A, _B, _BS}, {_A, _B, _BS}, {_A, _B, _BS}],
            [{_B}, {_A, _B, _BS}, {_A, _B, _BS}, {_O, _A, _B, _BS}],
            [{_BS}, {_A, _B, _BS}, {_O, _A, _B, _BS}, {_A, _B, _BS}],
        ],
    ),
    "K4": (
        (_O, _A, _AS),
        {_O: _O, _A: _AS, _AS: _A},
        [
            [{_O}, {_A}, {_AS}],
            [{_A}, {_A}, {_O, _A, _AS}],
            [{_AS}, {_O, _A, _AS}, {_AS}],
        ],
    ),
    # K5 is oriented to agree with the published countermodel valuation
    # lists; the published composition table is its mirror image under the
    # relabelling b <-> b* (the two presentations are isomorphic).
    "K5": (
        (_O, _A, _B, _BS),
        {_O: _O, _A: _A, _B: _BS, _BS: _B},
        [
            [{_O}, {_A}, {_B}, {_BS}],
            [{_A}, {_O, _A, _B, _BS}, {_A}, {_A, _BS}],
            [{_B}, {_A, _B}, {_B}, {_O, _B, _BS}],
            [{_BS}, {_A}, {_O, _A, _B, _BS}, {_BS}],
        ],
    ),
}

_STRUCTURES: dict[str, ModelStructure] = {}


def get_structure(name: str) -> ModelStructure:
    key = name.upper()
    if key not in _TABLES:
        raise UnknownStructure(name)
    if key not in _STRUCTURES:
        elements, star, table = _TABLES[key]
        _STRUCTURES[key] = structure_from_table(key, elements, "0", star, table)
    return _STRUCTURES[key]


def structure_names() -> list[str]:
    return sorted(_TABLES)


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
                  "a law of binary relations conjectured to need 5 objects; "
                  "kept unproved (no 5-line proof is shipped), subscripted "
                  "variables are encoded as distinct identifiers a01..a43"),
}

_FORMULAS: dict[str, NamedFormula] = {}


def get_formula(name: str) -> NamedFormula:
    if name not in _FORMULA_TEXTS:
        raise UnknownName(name)
    if name not in _FORMULAS:
        text, provenance = _FORMULA_TEXTS[name]
        _FORMULAS[name] = NamedFormula(name, parse_formula(text), provenance)
    return _FORMULAS[name]


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

CORPUS_IDS = list(_CORPUS_OBJECTS)

DERIVED_RULE_NAMES = list(DERIVED_RULES)

# keyed on the data directory too, so that a change of TARL_DATA reloads
_CORPUS_CACHE: dict[tuple[Path, str], CorpusEntry] = {}


def corpus_ids() -> list[str]:
    return list(CORPUS_IDS)


def get_corpus_entry(lemma_id: str) -> CorpusEntry:
    if lemma_id not in _CORPUS_OBJECTS:
        raise UnknownName(lemma_id)
    key = (data_dir(), lemma_id)
    if key not in _CORPUS_CACHE:
        path = key[0] / "corpus" / f"{lemma_id}.prf"
        name, proof = parse_proof_script(path.read_text())
        if name != lemma_id:
            raise ValueError(f"{path} declares lemma {name!r}")
        _CORPUS_CACHE[key] = CorpusEntry(lemma_id, proof, _CORPUS_OBJECTS[lemma_id])
    return _CORPUS_CACHE[key]


def list_corpus() -> list[CorpusEntry]:
    return [get_corpus_entry(i) for i in CORPUS_IDS]
