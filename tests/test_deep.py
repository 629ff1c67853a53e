"""Formulas far deeper than Python's recursion limit: a chain 3,000 deep of
each connective, and 3,000 nested parentheses, go through every walk over
formulas and terms, under the default recursion limit.  Each walk is a fold
with an explicit stack (``Grammar.evaluate``) or an iterative companion of
it (the parser, ``derived._match``), so none of them recurses."""

import sys

import numpy as np
import pytest

from tarl.algebra import (ComplexAlgebra, ProperAlgebra, parse_ra_term, print_ra_term,
                          term_variables, translate, verified_in_algebra)
from tarl.derived import _match
from tarl.formulas import (FORMULAS, And, Fusion, Imp, Neg, Or, ParseError, Var,
                           desugar_fusion, parse_formula, print_formula, substitute,
                           variables)
from tarl.models import tables_for, valid_in
from tarl.registry import get_structure
from tarl.search import search_proof

DEPTH = 3000
K3 = get_structure("K3")
P, Q = Var("p"), Var("q")


def chain(cls, depth=DEPTH):
    """cls applied depth times, built bottom up as the parser builds it:
    binary connectives but -> associate to the left."""
    f = P
    for _ in range(depth):
        f = Neg(f) if cls is Neg else Imp(P, f) if cls is Imp else cls(f, P)
    return f


def text(cls, depth=DEPTH):
    """The text of chain(cls, depth) as it is typed."""
    if cls is Neg:
        return "~" * depth + "p"
    return f" {FORMULAS.spelling[cls]} ".join("p" * (depth + 1))


def folded(cls, ops, p, depth=DEPTH):
    """The value of chain(cls, depth) under ops with p's value p, by a loop
    along the chain: an evaluation that shares no code with Grammar.evaluate."""
    value = p
    for _ in range(depth):
        value = ops[cls](value) if cls is Neg else ops[cls](p, value) if cls is Imp \
            else ops[cls](value, p)
    return value


@pytest.mark.parametrize("cls", [Neg, And, Or, Imp, Fusion], ids=lambda c: c.__name__)
def test_a_deep_chain_goes_through_every_walk(cls):
    assert DEPTH > sys.getrecursionlimit()
    f = chain(cls)
    assert parse_formula(text(cls)) is f
    assert parse_formula(print_formula(f)) is f
    assert FORMULAS.parse(print_formula(f)) is f
    assert variables(f) == {"p"}
    g = substitute(f, {"p": Q})
    assert variables(g) == {"q"} and substitute(g, {"q": P}) is f
    core = desugar_fusion(f)
    assert core._core and variables(core) == {"p"}
    assert (core is f) == (cls is not Fusion)
    binding = {}
    assert _match(f, g, binding) and binding == {"p": Q}
    assert not _match(f, substitute(f, {"p": Neg(P)}), {"p": P})
    # translate, print the term, read it back and print it again
    term = translate(f)
    shown = print_ra_term(term)
    assert print_ra_term(parse_ra_term(shown)) == shown
    assert term_variables(term) == {"p"}
    # every mask as p's value, evaluated by the fold and along the chain
    t = tables_for(K3)
    masks = np.arange(t.size)
    assert np.array_equal(FORMULAS.evaluate(f, {"p": masks}, t.ops),
                          folded(cls, t.ops, masks))
    assert isinstance(valid_in(K3, f).valid, bool)
    for alg in (ComplexAlgebra(K3), ProperAlgebra(3)):
        assert isinstance(verified_in_algebra(alg, f, trials=64).passed, bool)
    out = search_proof(f)
    assert out.status in ("proved", "refuted", "not_found", "budget_exhausted")


def test_deep_parentheses_read_and_report():
    assert parse_formula("(" * DEPTH + "p -> q" + ")" * DEPTH) is Imp(P, Q)
    assert print_ra_term(parse_ra_term("(" * DEPTH + "x^" + ")" * DEPTH + "^")) == "x^^"
    # an unclosed group is reported where the text ends
    e = pytest.raises(ParseError, parse_formula, "(" * DEPTH + "p").value
    assert (e.position, e.expected, e.found) == (DEPTH + 1, "')'", "end of input")
