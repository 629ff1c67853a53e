import copy
import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarl import formulas as formulas_module
from tarl.formulas import (
    And, Fusion, Imp, Neg, Or, ParseError, Var,
    desugar_fusion, is_core, parse_formula, print_formula,
    shared_variables, substitute, variables,
)
from tarl.gen import random_formula


def v(name):
    return Var(name)


def test_parse_smallest_implication():
    assert parse_formula("p -> p") == Imp(v("p"), v("p"))


def test_parse_fusion_conjunction():
    assert parse_formula("(p o q) & r") == And(Fusion(v("p"), v("q")), v("r"))


def test_parse_precedence_chain():
    # ~ binds tightest, -> associates right
    assert parse_formula("~p -> q -> r") == Imp(Neg(v("p")), Imp(v("q"), v("r")))


def test_parse_left_associative_connectives():
    assert parse_formula("p & q & r") == And(And(v("p"), v("q")), v("r"))
    assert parse_formula("p | q | r") == Or(Or(v("p"), v("q")), v("r"))
    assert parse_formula("p o q o r") == Fusion(Fusion(v("p"), v("q")), v("r"))


def test_fusion_binds_tighter_than_and():
    assert parse_formula("p o q & r") == And(Fusion(v("p"), v("q")), v("r"))


def test_unicode_aliases():
    assert parse_formula("p ∧ q → ¬r ∨ p∘q") == parse_formula("p & q -> ~r | p o q")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_formula("p -> ")
    assert e.value.position == 5
    with pytest.raises(ParseError):
        parse_formula("(p -> q")
    with pytest.raises(ParseError):
        parse_formula("p q")


def test_keyword_o_is_not_an_identifier():
    with pytest.raises(ParseError):
        parse_formula("o -> o")


def test_print_examples():
    assert print_formula(Imp(v("p"), v("p"))) == "p -> p"
    assert print_formula(And(Fusion(v("p"), v("q")), v("r"))) == "p o q & r"
    assert print_formula(Neg(Neg(v("p")))) == "~~p"


def test_print_no_redundant_parens_on_atoms():
    assert "(" not in print_formula(Neg(v("p")))
    assert print_formula(Or(v("p"), And(v("q"), v("r")))) == "p | q & r"


def test_desugar_single_fusion():
    assert desugar_fusion(parse_formula("p o q")) == parse_formula("~(p -> ~q)")


def test_desugar_is_identity_on_core():
    f = parse_formula("p -> q")
    assert desugar_fusion(f) == f


def test_desugar_nested_fusion():
    got = desugar_fusion(parse_formula("(p o q) o r"))
    assert got == parse_formula("~(~(p -> ~q) -> ~r)")
    assert is_core(got)


def test_variables():
    assert variables(parse_formula("p & q")) == {"p", "q"}
    assert variables(parse_formula("(p o q) & r")) == {"p", "q", "r"}
    assert variables(parse_formula("~~p")) == {"p"}


def test_shared_variables():
    assert shared_variables(parse_formula("p & q"), v("p")) == {"p"}
    assert shared_variables(v("p"), v("q")) == frozenset()


def test_substitute():
    f = parse_formula("a -> a & b")
    got = substitute(f, {"a": parse_formula("p | q")})
    assert got == parse_formula("(p | q) -> (p | q) & b")


def test_bad_variable_name():
    with pytest.raises(ValueError):
        Var("P")
    with pytest.raises(ValueError):
        Var("o")


def test_non_string_variable_name():
    with pytest.raises(ValueError, match="^bad variable name: 3$"):
        Var(3)
    with pytest.raises(TypeError):
        Neg("p")


def test_seeded_roundtrip_bulk():
    rng = random.Random(20250810)
    for size in range(1, 15):
        for _ in range(50):
            f = random_formula(rng, size, ["p", "q", "r", "s"])
            assert parse_formula(print_formula(f)) == f


def test_desugar_preserves_variables_bulk():
    rng = random.Random(99)
    for _ in range(200):
        f = random_formula(rng, 10, ["p", "q", "r"])
        core = desugar_fusion(f)
        assert variables(core) == variables(f)
        assert desugar_fusion(core) == core  # idempotent


@st.composite
def formulas(draw, max_size=10):
    size = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32))
    return random_formula(random.Random(seed), size, ["p", "q", "r", "s"])


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_roundtrip_property(f):
    assert parse_formula(print_formula(f)) == f


# ------------------------------------------------------------------
# Interning
# ------------------------------------------------------------------

def shape(f):
    """f as nested tuples, built without touching any cached value."""
    if isinstance(f, Var):
        return ("Var", f.name)
    if isinstance(f, Neg):
        return ("Neg", shape(f.body))
    return (type(f).__name__, shape(f.left), shape(f.right))


def relatives(f, g):
    """f, g and formulas built from them by each route that builds nodes."""
    out = [f, g, desugar_fusion(f), parse_formula(print_formula(g)),
           substitute(f, {"p": g}), substitute(g, {"q": Var("p"), "r": f})]
    out += [desugar_fusion(h) for h in out]
    return out


@settings(max_examples=200, deadline=None)
@given(formulas(max_size=6), formulas(max_size=6))
def test_identity_equality_is_structural_equality(f, g):
    built = relatives(f, g)
    for a in built:
        for b in built:
            same = shape(a) == shape(b)
            assert (a is b) == same
            assert (a == b) == same
            assert (print_formula(a) == print_formula(b)) == same
            if same:
                assert hash(a) == hash(b)


def test_hash_is_that_of_the_fields():
    f = parse_formula("p & ~q")
    assert hash(f) == hash((f.left, f.right))
    assert hash(f.right) == hash((f.right.body,))
    assert hash(Var("p")) == hash(("p",))


def test_pickle_and_copy_return_the_interned_node():
    f = parse_formula("(p o q) & r -> ~s")
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert copy.deepcopy({"key": [f]})["key"][0] is f


def test_nodes_are_immutable():
    f = parse_formula("p -> q")
    with pytest.raises(AttributeError):
        f.left = Var("r")
    with pytest.raises(AttributeError):
        del f.right
    assert repr(f) == "Imp(left=Var(name='p'), right=Var(name='q'))"


def test_intern_table_shrinks_after_the_last_reference_goes():
    gc.collect()
    before = len(formulas_module._TABLE)
    names = [f"unshared{k}" for k in range(40)]  # no other test uses these
    f = Var(names[0])
    for name in names[1:]:
        f = Imp(And(f, Var(name)), Neg(Var(name)))
    print_formula(f), variables(f)
    assert len(formulas_module._TABLE) >= before + 4 * len(names) - 3
    del f
    gc.collect()
    assert len(formulas_module._TABLE) <= before


def test_parse_error_is_raised_again_with_its_position():
    for _ in range(2):
        with pytest.raises(ParseError) as e:
            parse_formula("p & (q -> ")
        assert e.value.position == 10
