"""The four workloads: seeded inputs, each as a list of timed tasks.

A task is one item: a call into tarl's public API (or, for `check`, one
substitute -> format -> parse -> check round trip).  A stream task yields a
generator, and each `next()` on it is an item of its own.  `check` holds the
task's known answer and runs after the timed region; `verdict` is what must
be identical with and without tracing; `positive` marks an established
result (a goal proved, a proof accepted, a law verified, a structure found).

Every call goes through an attribute of the `tarl` package at call time, so
the tracer's wrappers apply when they are installed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import tarl
from tarl import algebra, groups, registry
from tarl.formulas import Imp, Neg, Var, desugar_fusion, substitute, variables
from tarl.gen import random_core_formula, random_formula

import oracle

SKELETON_VARS = ("p", "q", "r")
NAME_POOL = ("p", "q", "r", "s", "t", "u", "v", "w", "x", "y", "z", "x1",
             "y1", "z1", "foo", "bar")
LETTERS = "abcdefghijklmnopqrstuvwxyz"
TWO_LETTER = tuple(a + b for a in LETTERS for b in LETTERS)
SEMANTIC_VARS = ("p", "q", "r", "s")
STRUCTURES = ("K1", "K2", "K3", "K4", "K5")
PEIRCEAN = ("K3", "K4", "K5")       # every corpus goal is valid in these
AGREEING = ("K3", "K4")             # they meet every postulate: valid_in == algebra


@dataclass
class Task:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None] = lambda out: None
    verdict: Callable[[object], object] = lambda out: None
    positive: Callable[[object], bool] = lambda out: False
    stream: bool = False


def setup() -> None:
    """What a CLI invocation pays before its first item: the built-in
    structures, named formulas, corpus and the built-ins' tables."""
    registry.list_corpus()
    for name in registry.formula_names():
        registry.get_formula(name)
    for name in registry.structure_names():
        tarl.models.tables_for(registry.get_structure(name))


def _rename(f, rng: random.Random):
    """Rename p < q < r to three seeded names of one length, in the same
    order: printed formulas then sort alike, so search does the same work."""
    names = sorted(rng.sample(TWO_LETTER, len(SKELETON_VARS)))
    return substitute(f, {v: Var(n) for v, n in zip(SKELETON_VARS, names)})


def _witness_error(m, f, assignment, empty: bool) -> str | None:
    """A reported countermodel must falsify f under the set-based operations."""
    value = oracle.evaluate(m, assignment, f)
    if empty and value:
        return f"singleton witness leaves {sorted(value)}"
    if not empty and m.zero in value:
        return "validity witness does not falsify the formula"
    return None


# ----------------------------------------------------------------------
# prove
# ----------------------------------------------------------------------

def prove(seed: int, seconds: int) -> list[Task]:
    """All 38 corpus goals, substitution instances of the one- and
    two-object lemmas whose proofs have at most nine lines, and random core
    formulas of sizes 8..14.

    Search cost is heavy-tailed (about 1% of random formulas take 60% of the
    time), so freshly drawn formulas would make run time differ by half
    between seeds.  The instance and random skeletons therefore come from a
    constant seed through tarl.gen, unscreened; the run's seed renames their
    variables, keeping their order, which changes names and hashes but not
    the work search does, and orders the items.
    """
    rng = random.Random(seed)
    skeletons = random.Random("prove-skeletons")
    entries = registry.list_corpus()
    goals = [("corpus", e.proof.goal) for e in entries]
    easy = [e.proof.goal for e in entries
            if len(e.expected_objects) <= 2 and len(e.proof.lines) <= 9]
    for k in range(15 * seconds):
        src = easy[k % len(easy)]
        subs = {v: random_core_formula(skeletons, skeletons.randint(2, 3), SKELETON_VARS)
                for v in sorted(variables(src))}
        goals.append(("instance", _rename(substitute(src, subs), rng)))
    for _ in range(3 * seconds):
        names = SKELETON_VARS[:skeletons.choice((2, 3))]
        f = random_core_formula(skeletons, skeletons.randint(8, 14), names)
        goals.append(("random", _rename(f, rng)))
    rng.shuffle(goals)
    return [Task(kind, lambda g=goal: tarl.search_proof(g),
                 check=lambda out, g=goal, k=kind: _check_search(out, g, k),
                 verdict=lambda out: (out.status, out.nodes),
                 positive=lambda out: out.proved)
            for kind, goal in goals]


def _check_search(out, goal, kind) -> str | None:
    if not out.proved:
        return None
    if out.proof.goal != goal or not tarl.check_proof(out.proof).valid:
        return "found proof does not re-check against its goal"
    if kind == "random":
        for name in PEIRCEAN:
            if not tarl.valid_in(registry.get_structure(name), goal).valid:
                return f"proved formula is invalid in {name}"
    return None


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------

def check(seed: int, seconds: int) -> list[Task]:
    """Substitution instances of every corpus proof taken through
    substitute -> format -> parse -> check, and chains of derived rules
    whose every output is checked."""
    rng = random.Random(seed)
    entries = registry.list_corpus()
    tasks = []
    for _ in range(13 * seconds):
        for e in entries:
            mapping = {v: random_core_formula(rng, rng.randint(2, 5), NAME_POOL)
                       for v in sorted(variables(e.proof.goal))}
            tasks.append(Task("roundtrip", lambda e=e, m=mapping: _roundtrip(e, m),
                              check=lambda out, e=e: _check_roundtrip(out, e),
                              verdict=lambda out: (out[4].valid, sorted(out[4].objects_used),
                                                   out[3]),
                              positive=lambda out: out[4].valid))
    implications = [e for e in entries if isinstance(desugar_fusion(e.proof.goal), Imp)]
    for _ in range(10 * seconds):
        e = rng.choice(implications)
        mapping = {v: random_core_formula(rng, rng.randint(1, 3), NAME_POOL)
                   for v in sorted(variables(e.proof.goal))}
        tasks.extend(_derived_chain(rng, tarl.substitute_proof(e.proof, mapping)))
    return tasks


def _roundtrip(entry, mapping):
    proof = tarl.substitute_proof(entry.proof, mapping)
    text = tarl.format_proof_script(entry.lemma_id, proof)
    name, parsed = tarl.parse_proof_script(text)
    return name, proof.goal, parsed.goal, len(parsed.lines), tarl.check_proof(parsed)


def _check_roundtrip(out, entry) -> str | None:
    name, goal, parsed_goal, _, report = out
    if name != entry.lemma_id or parsed_goal != goal:
        return "round trip changed the lemma header"
    if not report.valid:
        return f"instance does not check: {report.first_error}"
    if report.objects_used != entry.expected_objects:
        return "instance lost its objects column"
    return None


def _derived_chain(rng: random.Random, start) -> list[Task]:
    """Three derived rules applied in turn, each to the previous output."""
    state = [start]
    f = desugar_fusion(start.goal)
    tasks = []
    for _ in range(3):
        rules = ["contraposition", "suffixing", "prefixingR", "erule"]
        if isinstance(f.right, Imp):
            rules.append("cycling")
        rule = rng.choice(rules)
        c = random_core_formula(rng, rng.randint(1, 3), NAME_POOL)
        params = [c] if rule in ("suffixing", "prefixingR", "erule") else []
        a, b = f.left, f.right
        f = {"contraposition": lambda: Imp(Neg(b), Neg(a)),
             "suffixing": lambda: Imp(Imp(b, c), Imp(a, c)),
             "prefixingR": lambda: Imp(Imp(c, a), Imp(c, b)),
             "erule": lambda: Imp(Imp(f, c), c),
             "cycling": lambda: Imp(b.left, Imp(Neg(b.right), Neg(a)))}[rule]()
        tasks.append(Task("derived",
                          lambda r=rule, p=params: _apply(state, r, p),
                          check=lambda out, want=f: _check_derived(out, want),
                          verdict=lambda out: len(out.lines),
                          positive=lambda out: True))
    return tasks


def _apply(state: list, rule: str, params: list):
    out = tarl.apply_derived_rule(rule, [state[-1]], params)
    state.append(out)
    return out


def _check_derived(out, want) -> str | None:
    if out.goal != want:
        return "derived rule concluded the wrong formula"
    if not tarl.check_proof(out).valid:
        return "derived rule output does not check"
    return None


# ----------------------------------------------------------------------
# semantics
# ----------------------------------------------------------------------

def semantics(seed: int, seconds: int) -> list[Task]:
    """Exhaustive validity and singleton countermodels on K1..K5, table
    builds and validity on fresh 6..8-element structures, the soundness
    bridge into complex and sampled proper algebras, RA and derived laws,
    and the three chain files."""
    rng = random.Random(seed)
    structures = {name: registry.get_structure(name) for name in STRUCTURES}
    corpus = [e.proof.goal for e in registry.list_corpus()]
    named = [registry.get_formula(n).formula for n in registry.formula_names()
             if n != "l5shorter"]       # nine variables: beyond the valuation cap
    # variable counts cycle 1..4: the count sets valid_in's grid size, so
    # drawing it would make the run's cost differ between seeds
    fresh = [random_formula(rng, rng.randint(3, 10), SEMANTIC_VARS[:1 + k % 4])
             for k in range(120 * seconds)]
    tasks = []
    for name, m in structures.items():
        for kind, f in ([("corpus", f) for f in corpus] + [("named", f) for f in named]
                        + [("random", f) for f in fresh]):
            tasks.append(_valid_task(m, f, kind == "corpus" and name in PEIRCEAN))
            tasks.append(Task("singletons",
                              lambda m=m, f=f: tarl.find_invalidating_singletons(m, f),
                              check=lambda out, m=m, f=f: _check_singletons(m, f, out),
                              verdict=lambda out: [str(v) for v in out]))
    for name in PEIRCEAN:
        alg = tarl.ComplexAlgebra(structures[name])
        agree = structures[name] if name in AGREEING else None
        for is_goal, f in [(True, f) for f in corpus] + [(False, f) for f in fresh]:
            tasks.append(_algebra_task(alg, f, corpus_goal=is_goal, agree=agree))
    for base in (3, 4, 5):
        alg = tarl.ProperAlgebra(base)
        for f in corpus:
            tasks.append(_algebra_task(alg, f, corpus_goal=True, seed=seed))
    for base in (2, 3, 4, 5):
        alg = tarl.ProperAlgebra(base)
        for law in algebra.TARSKI_AXIOMS.values():
            tasks.append(_law_task(alg, law, seed))
    for name in PEIRCEAN:
        alg = tarl.ComplexAlgebra(structures[name])
        for law in algebra.DERIVED_LAWS.values():
            tasks.append(_law_task(alg, law, seed))
    complexes = {name: tarl.ComplexAlgebra(structures[name]) for name in PEIRCEAN}
    for chain in ("ra4", "ra7", "refleq"):
        text = (registry.data_dir() / "chains" / f"{chain}.chain").read_text()
        steps = tarl.parse_chain(text)
        tasks.append(Task("chain", lambda s=steps: tarl.check_chain(complexes, s),
                          check=lambda out: None if out.passed else "chain fails",
                          verdict=lambda out: out.passed,
                          positive=lambda out: out.passed))
    for k in range(3 * max(1, seconds // 2)):
        m = _fresh_structure(rng, 6 + k % 3, f"fresh{k}")
        tasks.append(Task("tables", lambda m=m: tarl.models.tables_for(m),
                          verdict=lambda out: out.size))
        for _ in range(3):
            f = random_formula(rng, rng.randint(3, 8), SEMANTIC_VARS[:2])
            tasks.append(_valid_task(m, f, must_hold=False))
    return tasks


def _valid_task(m, f, must_hold: bool) -> Task:
    return Task("valid", lambda: tarl.valid_in(m, f),
                check=lambda out: _check_valid(m, f, out, must_hold),
                verdict=lambda out: (out.valid, str(out.witness)),
                positive=lambda out: must_hold and out.valid)


def _check_valid(m, f, out, must_hold: bool) -> str | None:
    if out.valid:
        return None
    if must_hold:
        return f"corpus goal reported invalid in {m.name}"
    return _witness_error(m, f, out.witness.assignment, empty=False)


def _check_singletons(m, f, out) -> str | None:
    for v in out:
        if any(len(s) != 1 for s in v.assignment.values()):
            return "singleton witness assigns a non-singleton"
        error = _witness_error(m, f, v.assignment, empty=True)
        if error:
            return error
    return None


def _algebra_task(alg, f, corpus_goal: bool, agree=None, seed: int = 0) -> Task:
    def check(out):
        if corpus_goal and not out.passed:
            return f"corpus goal fails in the {alg.describe()}"
        if agree is not None and tarl.valid_in(agree, f).valid != out.passed:
            return f"valid_in and the {alg.describe()} disagree"
        return None
    return Task("algebra", lambda: tarl.verified_in_algebra(alg, f, seed=seed),
                check=check, verdict=lambda out: (out.passed, out.checked),
                positive=lambda out: corpus_goal and out.passed)


def _law_task(alg, law, seed: int) -> Task:
    return Task("law", lambda: tarl.holds_law(alg, law, seed=seed),
                check=lambda out: None if out.passed else f"{law.name} fails",
                verdict=lambda out: (out.passed, out.checked),
                positive=lambda out: out.passed)


def _fresh_structure(rng: random.Random, n: int, name: str):
    """A random structure whose zero row is exactly R 0 a a, so that every
    subset is hereditary; star is an involution fixing 0."""
    elements = ("0",) + tuple(f"e{i}" for i in range(1, n))
    star = _involution(rng, elements[1:])
    star["0"] = "0"
    triples = {("0", a, a) for a in elements}
    triples |= {(x, y, z) for x in elements[1:] for y in elements for z in elements
                if rng.random() < 0.3}
    return tarl.ModelStructure(name, elements, "0", star, frozenset(triples))


def _involution(rng: random.Random, elements) -> dict:
    """A random involution: shuffled elements, each pair swapped or fixed."""
    rest = list(elements)
    rng.shuffle(rest)
    star = {}
    while rest:
        a = rest.pop()
        b = rest.pop() if rest and rng.random() < 0.5 else a
        star[a], star[b] = b, a
    return star


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------

P1_P6 = ("p1", "p2", "p3", "p4", "p5", "p6")
QUERIES = [(2, ()), (2, ("p1",)), (2, ("comm",)), (2, ("normal",)), (2, P1_P6),
           (3, P1_P6), (3, P1_P6 + ("comm",)), (3, P1_P6 + ("normal", "comm")),
           (3, ("crstar", "p5", "comm"))]


def enumerate_(seed: int, seconds: int) -> list[Task]:
    """Structure enumeration at sizes 2 and 3, led by (3, p1..p6), and the
    postulate audit of K1..K5, of the eight group partition structures and
    of seeded random structures on 3 and 4 elements.  The queries are fixed
    (their yields are the established count); the seed draws the random
    structures and orders the items."""
    rng = random.Random(seed)
    k3 = registry.get_structure("K3")
    units = [[_audit_task(lambda m=registry.get_structure(name): m)] for name in STRUCTURES]
    for p in groups.PARTITIONS:
        built: list = []        # the audit reads what the build task made
        units.append([Task("groups", lambda p=p, b=built: _build(p, b),
                           check=lambda out: (None if out.same_as(k3)
                                              else "partition does not rebuild K3"),
                           verdict=lambda out: sorted(out.triples)),
                      _audit_task(lambda b=built: b[0])])
    for k in range(10 * seconds):
        m = _random_structure(rng, 3 + k % 2, f"random{k}")
        units.append([_audit_task(lambda m=m: m)])
    for size, required in QUERIES:
        units.append([Task("query",
                           lambda s=size, r=required: tarl.enumerate_structures(s, r),
                           check=lambda out, r=required: _check_enumerated(out, r),
                           verdict=lambda out: [(sorted(m.star.items()), sorted(m.triples))
                                                for m in out],
                           stream=True)])
    rng.shuffle(units)
    return [task for unit in units for task in unit]


def _random_structure(rng: random.Random, n: int, name: str):
    elements = tuple(str(i) for i in range(n))
    star = _involution(rng, elements)
    triples = frozenset(t for t in itertools.product(elements, repeat=3)
                        if rng.random() < 0.4)
    return tarl.ModelStructure(name, elements, "0", star, triples)


def _build(partition, built: list):
    m = tarl.groups.build_atom_structure(partition)
    built.append(m)
    return m


def _audit_task(structure: Callable) -> Task:
    def check(out):
        expected = oracle.postulates(structure())
        wrong = [n for n, ok in expected.items() if out.flags[n] != ok]
        return f"audit disagrees on {wrong}" if wrong else None
    return Task("audit", lambda: tarl.check_postulates(structure()), check=check,
                verdict=lambda out: sorted(out.flags.items()))


def _check_enumerated(structures, required) -> str | None:
    for m in structures:
        flags = oracle.postulates(m)
        missing = [n for n in required if not flags[n]]
        if missing:
            return f"{m.name} fails {missing}"
    return None


WORKLOADS = {"prove": prove, "check": check, "semantics": semantics,
             "enumerate": enumerate_}
