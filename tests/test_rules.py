"""The rule table read in both directions: every backward search step
re-checks forward, and each rule's shape error names that rule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarl.formulas import And, Imp, Neg, Or, Var, parse_formula
from tarl.search import _Table, _backward, _fresh_index
from tarl.sequents import RULES, Assertion, RuleError, Sequent, check_step

BOUND = 4
LOGICAL = [rule for rule in RULES if rule.side]

formulas = st.recursive(
    st.sampled_from("pqr").map(Var),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda ab: And(*ab)),
        st.tuples(sub, sub).map(lambda ab: Or(*ab)),
        st.tuples(sub, sub).map(lambda ab: Imp(*ab))),
    max_leaves=5)
indices = st.integers(0, BOUND - 1)
assertions = st.builds(Assertion, formulas, indices, indices)
contexts = st.frozensets(assertions, max_size=3)


def principal_of(rule, data):
    """A random assertion whose main connective is the rule's."""
    a, b = data.draw(formulas), data.draw(formulas)
    f = rule.conn(a) if rule.conn is Neg else rule.conn(a, b)
    return Assertion(f, data.draw(indices), data.draw(indices))


@pytest.mark.parametrize("rule", LOGICAL, ids=lambda r: r.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), left=contexts, right=contexts)
def test_backward_step_rechecks_forward(rule, data, left, right):
    principal = principal_of(rule, data)
    table = _Table(BOUND)  # search builds premises as masks of its table
    if rule.side == "left":
        concl = Sequent(left | {principal}, right)
    else:
        concl = Sequent(left, right | {principal})
    masks = (table.side(concl.left), table.side(concl.right))
    if rule.index == "eigen":
        k = _fresh_index(masks, BOUND, table)
        if k is None:
            return
        assert k not in concl.indices() | {principal.i, principal.j}
    else:
        k = data.draw(indices) if rule.index else None
    premises = [Sequent(table.decode(left), table.decode(right))
                for left, right in _backward(rule, masks, table.side({principal}), k, table)]
    assert len(premises) == rule.refs
    just = rule(*range(1, rule.refs + 1), eigen=k if rule.index == "eigen" else None)
    check_step(premises, (concl, just), BOUND)  # raises RuleError on failure


@pytest.mark.parametrize("rule", [r for r in RULES if r.refs], ids=lambda r: r.name)
def test_shape_mismatch_names_its_rule(rule):
    p = Assertion(parse_formula("p"), 0, 0)
    premise = Sequent.of((p,), (p,))
    concl = Sequent.of((), (Assertion(parse_formula("q"), 0, 0),))
    just = rule(*range(1, rule.refs + 1), eigen=1 if rule.index == "eigen" else None)
    with pytest.raises(RuleError) as e:
        check_step([premise] * rule.refs, (concl, just), BOUND)
    assert e.value.kind == "ShapeMismatch"
    assert [r.name for r in RULES if r.name in e.value.detail] == [rule.name]
