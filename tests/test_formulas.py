import copy
import gc
import pickle
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarl import algebra
from tarl import formulas as formulas_module
from tarl.formulas import (
    CACHES, FORMULAS, And, Fusion, Imp, Neg, Or, ParseError, Var,
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


@pytest.mark.parametrize("text, position, found", [
    ("p ∧ q q", 6, "q"),          # a token after an alias
    ("r→", 2, "end of input"),    # the end of a text that ends in an alias
    ("p ∧∧ q", 3, "∧"),           # an alias, found as it is typed
    ("p ∧ $", 4, "$"),            # a character that starts no token
    ("p  $", 3, "$"),             # ... at itself, not at the white space before it
])
def test_parse_error_positions_index_the_given_text(text, position, found):
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert (e.value.position, e.value.found) == (position, found)


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
            assert FORMULAS.parse(print_formula(f)) == f  # the printer fills parse_formula's memo


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
    assert FORMULAS.parse(print_formula(f)) == f


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
    out = [f, g, desugar_fusion(f), FORMULAS.parse(print_formula(g)),
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


def test_a_node_hashes_by_its_identity():
    f = parse_formula("(p o q) & r -> ~s")
    for g in [*subformulas(f), f]:
        assert hash(g) == object.__hash__(g)
        assert type(g)(*(getattr(g, name) for name in g._fields)) is g
        for same in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert same is g
    assert And(Var("p"), Neg(Var("q"))) is parse_formula("p & ~q")


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


def test_a_new_node_of_every_class_of_both_grammars_has_every_slot_set():
    name = "every_slot"  # no other test uses it, so each node below is new
    for grammar, leaf in ((FORMULAS, Var(name)), (algebra.TERMS, algebra.RVar(name))):
        for cls, arity in [*grammar.arity.items(), (grammar.variable, -1)]:
            children = {-1: (name,), 0: (), 1: (leaf,), 2: (leaf, leaf)}[arity]
            node = cls(*children)
            slots = {slot for k in cls.__mro__ for slot in k.__dict__.get("__slots__", ())}
            slots.discard("__weakref__")
            assert slots == {*cls._fields, "uid", "_vars", "_core", "_text", "_program"} or (
                slots == {*cls._fields, "uid", "_vars", "_term_program"}), cls
            for slot in slots:
                getattr(node, slot)  # raises AttributeError if the slot was never set
            assert tuple(getattr(node, field) for field in cls._fields) == children
            assert type(node.uid) is int
            if arity == 0:  # a constant, built at import and maybe folded since
                continue
            assert node._vars == (frozenset(children) if arity < 0 else None), cls
            if grammar is FORMULAS:
                assert node._core is (cls is not Fusion), cls
                assert node._text == ((grammar.atom, name) if arity < 0 else None), cls
                assert node._program is None
            else:
                assert node._term_program is None


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


def test_forget_removes_only_a_dead_entry():
    class Node:  # a referent that can die, unlike a node other tests may hold
        pass

    def dead_ref(key):
        gone = Node()
        ref = formulas_module._Ref(gone)
        ref.key = key
        return ref  # dead once returned

    live = Var("forget_live")  # no other test uses these names
    late = dead_ref((Var, "forget_live"))
    formulas_module._forget(late)  # a dead node's callback, run late
    assert formulas_module._TABLE[late.key]() is live
    assert Var("forget_live") is live
    dead = dead_ref((Var, "forget_dead"))
    formulas_module._TABLE[dead.key] = dead
    formulas_module._forget(dead)
    assert dead.key not in formulas_module._TABLE
    formulas_module._forget(dead)  # a key no longer there is left alone
    assert dead.key not in formulas_module._TABLE


def test_threads_that_build_and_drop_the_same_formulas_share_each_node():
    threads, rounds = 8, 400
    names = [f"stress{k}" for k in range(6)]  # no other test uses these
    rng = random.Random(7)
    shapes = [random_formula(rng, rng.randint(2, 12), names) for _ in range(30)]
    texts = [print_formula(f) for f in shapes]
    del shapes
    gc.collect()
    before = len(formulas_module._TABLE)
    barrier = threading.Barrier(threads, timeout=30)
    built = [None] * threads
    failures = []
    deadline, stop = time.monotonic() + 1.0, [False]

    def build(t):
        try:
            for r in range(rounds):
                # each thread builds every formula afresh, from its leaves
                nodes = [FORMULAS.parse(text) for text in texts]
                built[t] = [g for f in nodes for g in (*subformulas(f), f)]
                barrier.wait()
                if t == 0:
                    # formulas are equal only when they are one node
                    if any(other != built[0] for other in built[1:]):
                        failures.append(r)
                    stop[0] = time.monotonic() > deadline
                barrier.wait()
                # dropped while other threads build the next round's nodes
                built[t] = nodes = None
                if stop[0]:
                    break
        except BaseException as e:  # pragma: no cover - reported below
            failures.append(e)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    built.clear()
    gc.collect()
    assert len(formulas_module._TABLE) == before


def test_parse_error_is_raised_again_with_its_position():
    for _ in range(2):
        with pytest.raises(ParseError) as e:
            parse_formula("p & (q -> ")
        assert e.value.position == 10


# ------------------------------------------------------------------
# The parse memo: parse_formula against a parse with no memo
# ------------------------------------------------------------------

SPELLINGS = {"~": ("~", "¬", "～"), "&": ("&", "∧"), "|": ("|", "∨"),
             "->": ("->", "→"), "o": (" o ", "∘")}  # ASCII o needs blanks
CONNECTIVES = {And: ("&", 3), Or: ("|", 2), Imp: ("->", 1), Fusion: ("o", 4)}


def spelled(f, rng, least=0, printed=None):
    """f in the surface syntax, with blanks, aliases and redundant
    parentheses drawn from rng; half of the subtrees are printed plainly,
    so that their texts recur in later texts.  Each subtree whose text is
    first built here is appended to the list printed, if one is given."""
    if rng.random() < 0.5:
        if printed is not None and f._text is None:
            printed.append(f)
        text = print_formula(f)
        level = 6 if isinstance(f, Var) else 5 if isinstance(f, Neg) else CONNECTIVES[type(f)][1]
    else:
        blank = lambda: rng.choice(("", "", " ", "  "))
        if isinstance(f, Var):
            text, level = f.name, 6
        elif isinstance(f, Neg):
            text = rng.choice(SPELLINGS["~"]) + blank() + spelled(f.body, rng, 5, printed)
            level = 5
        else:
            token, level = CONNECTIVES[type(f)]
            right = type(f) is Imp
            text = (spelled(f.left, rng, level + right, printed) + blank()
                    + rng.choice(SPELLINGS[token]) + blank()
                    + spelled(f.right, rng, level + (not right), printed))
    if level < least or rng.random() < 0.15:
        text = "(" + text + ")"
    return text


def subformulas(f):
    """The proper subformulas of f, leaves first."""
    children = [f.body] if isinstance(f, Neg) else [] if isinstance(f, Var) else [f.left, f.right]
    for child in children:
        yield from subformulas(child)
        yield child


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return (e.position, e.expected, e.found)


def parser_builds(monkeypatch):
    """The texts that a formulas._Parser is built for from now on."""
    texts, parser = [], formulas_module._Parser

    def spy(grammar, text):
        texts.append(text)
        return parser(grammar, text)

    monkeypatch.setattr(formulas_module, "_Parser", spy)
    return texts


@pytest.mark.cache_behaviour
def test_memoised_parse_agrees_with_a_parse_without_memo(monkeypatch):
    CACHES["formulas"].clear()
    rng = random.Random(18)
    texts, printed = [], []
    for _ in range(300):
        # a formula after some of its subformulas, as proof lines come
        f = random_formula(rng, rng.randint(1, 16), ["p", "q", "r", "s"])
        texts += [spelled(g, rng, printed=printed) for g in subformulas(f) if rng.random() < 0.3]
        texts.append(spelled(f, rng, printed=printed))
    for text in texts:
        assert parse_formula(text) is FORMULAS.parse(text), text
    assert len(printed) > len(texts) // 4
    with monkeypatch.context() as patch:
        built = parser_builds(patch)
        for g in printed:  # the printer stored each text it built
            assert parse_formula(print_formula(g)) is g
        assert built == []
    characters = "()$~&|->o∧¬ pq"
    for text in texts:
        at = rng.randrange(len(text) + 1)
        new = rng.choice(characters)
        for mutant in (text[:at] + new + text[at:], text[:at] + new + text[at + 1:],
                       text[:at] + text[at + 1:]):
            assert outcome(parse_formula, mutant) == outcome(FORMULAS.parse, mutant), mutant


def test_a_bad_character_wins_over_an_earlier_syntax_error():
    CACHES["formulas"].clear()
    for memoised in ((), ("q", "-> q $")):
        for text in memoised:
            outcome(parse_formula, text)
        assert outcome(parse_formula, "p -> -> q $") == (
            10, "a connective, '(' or an identifier", "$")
    assert outcome(parse_formula, "(q) -> ((q) ->") == (14, "'~', '(' or an identifier",
                                                         "end of input")
    assert outcome(parse_formula, "(q) -> ((q) $") == (12, "a connective, '(' or an identifier",
                                                        "$")


def test_the_memo_stays_within_its_bound():
    CACHES["formulas"].clear()
    for k in range(20_000):
        f = parse_formula(f"(p{k} -> q) & (r | p{k})")
        assert len(CACHES["formulas"]) <= formulas_module.MEMO_SIZE
    assert f == And(Imp(Var("p19999"), Var("q")), Or(Var("r"), Var("p19999")))


def test_the_memo_stays_within_its_bound_while_printing():
    CACHES["formulas"].clear()
    for k in range(20_000):
        text = print_formula(And(Imp(Var(f"p{k}"), Var("q")), Or(Var("r"), Var(f"p{k}"))))
        assert len(CACHES["formulas"]) <= formulas_module.MEMO_SIZE
    assert text == "(p19999 -> q) & (r | p19999)"


@pytest.mark.cache_behaviour
def test_a_printed_formula_is_read_back_without_a_parse(monkeypatch):
    CACHES["formulas"].clear()
    p, q = Var("printed_p"), Var("printed_q")  # no other test uses these
    f = Imp(And(Fusion(p, Neg(q)), p), Or(Neg(Neg(q)), Imp(q, p)))
    print_formula(f)  # and so each subformula, each text stored once built
    built = parser_builds(monkeypatch)
    for g in [*subformulas(f), f]:
        if not isinstance(g, Var):  # a variable's text is set when it is built
            assert parse_formula(print_formula(g)) is g
    assert built == []


def test_a_parsed_formula_leaves_the_intern_table(monkeypatch):
    CACHES["formulas"].clear()
    gc.collect()
    before = len(formulas_module._TABLE)
    names = [f"parsed{k}" for k in range(40)]  # no other test uses these
    text = names[0]
    for name in names[1:]:
        text = f"({text} & {name}) -> ~{name}"
    built = parser_builds(monkeypatch)
    f = parse_formula(text)
    assert parse_formula(text) is f and len(built) == 1  # the second from the memo
    assert len(formulas_module._TABLE) >= before + 4 * len(names) - 3
    del f
    gc.collect()
    assert len(formulas_module._TABLE) <= before  # the memo keeps no node alive
    assert parse_formula(text) == FORMULAS.parse(text)  # a dead reference is parsed again
    assert len(built) == 3


def test_a_memo_emptied_while_printing_keeps_parses_right(monkeypatch):
    CACHES["formulas"].clear()
    monkeypatch.setattr(CACHES["formulas"], "bound", 16)
    rng = random.Random(42)
    fused = [f for f in (random_formula(rng, rng.randint(3, 14), ["p", "q", "r", "s"])
                         for _ in range(400)) if not is_core(f)]
    assert len(fused) > 150
    for f in fused:
        for g in [*subformulas(f), f]:
            text = print_formula(g)
            for written in (text, spelled(g, rng)):
                assert parse_formula(written) is FORMULAS.parse(written) is g, written
        assert len(CACHES["formulas"]) <= 16
