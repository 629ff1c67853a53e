"""Command-line front end.

Each command returns a Report, (passed, payload, text), and prints nothing:
its verdict, its --json payload of plain values and its text.  main prints
one of the two and owns the exit codes: 0 when the verdict passes, 1 when
not (a refutation, a countermodel, no proof), 2 with one `error:` line on
usage or format errors.  All commands are batch and deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import algebra, models, registry, search
from .formulas import FORMULAS, Env, Formula, Neg, ParseError, parse_formula, print_formula
from .sequents import MAX_BOUND, check_proof, format_proof_script, parse_proof_script

Report = tuple[bool, dict, str]


class UsageError(Exception):
    pass


def _checked(make, *args, **kwargs):
    """Build an object from, or call a function on, command-line values; a
    ValueError it raises is a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _read(path, parse):
    """parse(the text of the file at path).  A ValueError on the way, as a
    ParseError or text that is not UTF-8, is a usage error naming the file."""
    try:
        return parse(Path(path).read_text())
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from None


def _jsonable(obj):
    """A payload holds plain values and sets; a set is written sorted."""
    if isinstance(obj, (frozenset, set)):
        return sorted(obj, key=str)
    raise TypeError(f"{type(obj).__name__} in a report payload")


def _resolve_structure(arg: str) -> models.ModelStructure:
    path = Path(arg)
    if path.exists():
        m = _read(path, models.load_model_file)
        if arg.upper() in registry.structure_names():
            print(f"warning: file {arg} shadows built-in structure "
                  f"{arg.upper()}", file=sys.stderr)
        return m
    try:
        return _checked(registry.get_structure, arg)
    except registry.UnknownStructure:
        raise UsageError(f"unknown model {arg!r} (not a file, not built in)")


def _resolve_formula(arg: str) -> Formula:
    try:
        return registry.get_formula(arg).formula
    except registry.UnknownName:
        return parse_formula(arg)


def _binary_ast(op: str):
    return lambda left, right: {"op": op, "left": left, "right": right}


_AST_VARIABLES = Env(lambda name: {"var": name})
_AST = {Neg: lambda body: {"op": "~", "body": body},
        **{cls: _binary_ast(op) for cls, op in FORMULAS.spelling.items() if cls is not Neg}}


def _ast(f: Formula) -> dict:
    """f's tree as nested dicts, folded: {"var": name} at a variable, and
    {"op": connective, "body"} or {"op", "left", "right"} at a connective."""
    return FORMULAS.evaluate(f, _AST_VARIABLES, _AST)


def _dumps(value, sort_keys: bool = False) -> str:
    """json.dumps(value, sort_keys=sort_keys, default=_jsonable), with nested
    dicts written from an explicit stack of values and _Written pieces: json
    recurses once per level, and a formula's tree is as deep as it is."""
    out, todo = [], [value]
    while todo:
        item = todo.pop()
        if type(item) is _Written:
            out.append(item)
        elif isinstance(item, dict):
            pairs = sorted(item.items()) if sort_keys else list(item.items())
            todo.append(_Written("}"))
            for n in range(len(pairs) - 1, -1, -1):
                key, member = pairs[n]  # an int, float, bool or None key as json writes it
                key = json.dumps(key if isinstance(key, str) else json.dumps(key))
                todo += member, _Written((", " if n else "") + key + ": ")
            todo.append(_Written("{"))
        else:
            out.append(json.dumps(item, sort_keys=sort_keys, default=_jsonable))
    return "".join(out)


class _Written(str):
    """Text that _dumps writes as it is."""


# ------------------------------------------------------------------
# Subcommands: each returns a Report
# ------------------------------------------------------------------

def cmd_parse(args) -> Report:
    f = _resolve_formula(args.formula)
    ast = _ast(f)
    return (True, {"formula": print_formula(f), "ast": ast,
                   "variables": sorted(models.variables(f))},
            f"{print_formula(f)}\n{_dumps(ast)}")


def cmd_check(args) -> Report:
    name, proof = _read(args.proof_file, parse_proof_script)
    report = check_proof(proof)
    objs = sorted(report.objects_used)
    payload = {"lemma": name, "valid": report.valid, "objects": objs,
               "level": report.level, "first_error": report.first_error}
    if report.valid:
        return True, payload, f"{name}: valid, objects {{{','.join(map(str, objs))}}}"
    line, reason = report.first_error
    return False, payload, f"{name}: INVALID at line {line}: {reason}"


def cmd_prove(args) -> Report:
    goal = _resolve_formula(args.formula)
    budget = _checked(search.SearchBudget, max_depth=args.depth,
                      max_index=args.max_index, max_nodes=args.nodes)
    outcome = search.search_proof(goal, budget)
    payload = {"status": outcome.status, "limit": outcome.limit, "bound": outcome.bound,
               **outcome.counters()}
    if outcome.proved:
        script = format_proof_script("found", outcome.proof)
        return (True, {**payload, "lines": len(outcome.proof.lines), "script": script,
                       "objects": sorted(outcome.objects), "level": outcome.level},
                script.rstrip())
    if outcome.status != "refuted":
        return False, payload, f"{outcome.status} after {outcome.nodes} nodes"
    cert = outcome.counterexample
    x = cert["point"]
    relations = "; ".join(f"{name} = {{{','.join(f'({i},{j})' for i, j in pairs)}}}"
                          for name, pairs in cert["relations"].items())
    return (False, {**payload, "counterexample": cert},
            f"refuted after {outcome.nodes} nodes: base {cert['base']}, point {x}: "
            f"({x},{x}) is outside the goal's relation when {relations}")


def cmd_valid(args) -> Report:
    m = _resolve_structure(args.model)
    result = models.valid_in(m, _resolve_formula(args.formula))
    payload = {"model": m.name, "valid": result.valid, **result.counters()}
    if result.valid:
        return True, payload, f"valid in {m.name}"
    return (False, {**payload, "witness": result.witness.assignment},
            f"invalid; witness {result.witness}")


def cmd_countermodel(args) -> Report:
    m = _resolve_structure(args.model)
    f = _resolve_formula(args.formula)
    if args.singletons:
        witnesses = models.find_invalidating_singletons(m, f)
        payload = {"model": m.name, "witnesses": [w.assignment for w in witnesses]}
        if not witnesses:
            return True, payload, "no invalidating singleton valuation"
        return (False, payload, f"{len(witnesses)} invalidating singleton valuation(s):\n"
                + "\n".join(map(str, witnesses)))
    result = models.valid_in(m, f)
    payload = {"model": m.name, "countermodel": None, **result.counters()}
    if result.valid:
        return True, payload, "no countermodel (formula is valid)"
    return (False, {**payload, "countermodel": result.witness.assignment},
            f"countermodel: {result.witness}")


def cmd_postulates(args) -> Report:
    m = _resolve_structure(args.model)
    report = models.check_postulates(m)
    text = [f"postulate audit of {m.name}:"]
    for name in models.POSTULATE_NAMES:
        ok = report.flags[name]
        witness = report.witnesses.get(name)
        text.append(f"  {name:8s} {'pass' if ok else 'FAIL'}"
                    + ("" if ok or witness is None else f"  witness {witness}"))
    if report.peirce_missing:
        text.append(f"  missing peirce triples: {list(report.peirce_missing)}")
    return (report.passes([f"p{i}" for i in range(1, 7)]),
            {"model": m.name, **report.payload()}, "\n".join(text))


def cmd_corpus(args) -> Report:
    ids = [i for i in registry.corpus_ids() if not args.filter or i == args.filter]
    if not ids:
        raise UsageError(f"no corpus lemma named {args.filter!r}")
    results, oks = [], []
    for entry in map(registry.get_corpus_entry, ids):
        report = check_proof(entry.proof)
        objs_ok = frozenset(report.objects_used) == entry.expected_objects
        oks.append(report.valid and objs_ok)
        results.append({"lemma": entry.lemma_id, "valid": report.valid,
                        "objects": sorted(report.objects_used),
                        "expected_objects": sorted(entry.expected_objects),
                        "objects_match": objs_ok})
    all_ok = all(oks)
    text = [f"{sum(oks)}/{len(oks)} valid; "
            + ("objects columns match" if all_ok else "MISMATCHES")]
    if args.filter or not all_ok:
        text += [f"  {r['lemma']:12s} {'ok' if ok else 'BAD'} objects={r['objects']}"
                 for r, ok in zip(results, oks)]
    return all_ok, {"results": results, "all_ok": all_ok}, "\n".join(text)


def cmd_translate(args) -> Report:
    f = _resolve_formula(args.formula)
    term = _checked(algebra.print_ra_term, algebra.translate(f))
    return True, {"formula": print_formula(f), "term": term}, term


def cmd_algebra_test(args) -> Report:
    alg = _checked(algebra.ProperAlgebra, args.base)
    if Path(args.identity).exists():
        laws = [algebra.Law(f"step{i}", s.lhs, s.rel, s.rhs)
                for i, s in enumerate(_read(args.identity, algebra.parse_chain), 1)]
    else:
        try:
            laws = [algebra.get_law(args.identity)]
        except KeyError:
            raise UsageError(f"unknown identity {args.identity!r}; known: "
                             + ", ".join(algebra.law_names()))
    results = []
    for law in laws:
        r = _checked(algebra.holds_law, alg, law, trials=args.trials, seed=args.seed)
        results.append({"law": law.name, "passed": r.passed, "checked": r.checked,
                        "counterexample": r.counterexample})
    text = "\n".join(f"{r['law']}: {'Pass' if r['passed'] else 'Counterexample'}"
                     + ("" if r["passed"] else f" {r['counterexample']}")
                     for r in results)
    payload = {"base": args.base, "trials": args.trials, "seed": args.seed,
               "results": results}
    return all(r["passed"] for r in results), payload, text


def cmd_chain(args) -> Report:
    if args.algebra.lower().startswith("proper:"):
        alg = _checked(lambda: algebra.ProperAlgebra(int(args.algebra.split(":", 1)[1])))
    else:
        alg = algebra.ComplexAlgebra(_resolve_structure(args.algebra))
    steps = _read(args.chain_file, algebra.parse_chain)
    report = _checked(algebra.check_chain, {args.algebra: alg}, steps,
                      trials=args.trials, seed=args.seed)
    text = [f"step {i}: {s.step.lhs} {s.step.rel} {s.step.rhs}  [{s.step.name}]  "
            f"{'Pass' if s.passed else 'FAIL'}" for i, s in enumerate(report.steps, 1)]
    text += [f"end-to-end {s.step.name} ({s.step.rel}): {'Pass' if s.passed else 'FAIL'}"
             for s in report.segments]
    payload = {"passed": report.passed, "steps": [
        {"lhs": str(s.step.lhs), "rel": s.step.rel, "rhs": str(s.step.rhs),
         "tag": s.step.name, "passed": s.passed} for s in report.steps],
        "segments": [{"span": s.step.name, "rel": s.step.rel, "passed": s.passed}
                     for s in report.segments]}
    return report.passed, payload, "\n".join(text)


def cmd_grouprep(args) -> Report:
    from . import groups

    try:
        part = next(p for p in groups.PARTITIONS if p.id == args.partition)
    except StopIteration:
        raise UsageError("partition must be 1..8")
    m = groups.build_atom_structure(part)
    sigma_report = groups.check_sigma_homomorphism(part)
    k3 = registry.get_structure("K3")
    table_ok = (models.composition_table(m) == models.composition_table(k3)
                and m.star == k3.star)
    postulates_ok = models.check_postulates(m).passes(
        [f"p{i}" for i in range(1, 7)] + ["peirce"])
    model = models.dump_model_file(m)
    sigma = "all pass" if sigma_report.passed else sigma_report.failures()[:3]
    text = [model.rstrip(), f"table equals K3: {table_ok}",
            f"postulates p1..p6 + peirce: {postulates_ok}",
            f"sigma homomorphism checks: {sigma}"]
    payload = {"partition": args.partition, "table_equals_K3": table_ok,
               "sigma_passed": sigma_report.passed, "model": model}
    return sigma_report.passed and table_ok and postulates_ok, payload, "\n".join(text)


def cmd_sharing(args) -> Report:
    cert = models.variable_sharing_certificate(_resolve_formula(args.formula_a),
                                               _resolve_formula(args.formula_b))
    if isinstance(cert, models.Shared):
        return (True, {"shared": sorted(cert.variables)},
                f"shared variables: {', '.join(sorted(cert.variables))}")
    return (False, {"shared": [], "witness": dict(cert.valuation.assignment),
                    "implication_value": sorted(cert.implication_value)},
            "no shared variable; K4 refutes the implication under "
            f"{cert.valuation} (value {set(cert.implication_value) or '{}'})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tarl",
        description="Proof checking, proof search, finite countermodels and "
                    "relation-algebra verification for a bounded-variable "
                    "relevance logic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
        return p

    p = add("parse", cmd_parse, help="parse a formula and print its tree")
    p.add_argument("formula")

    p = add("check", cmd_check, help="check a proof script")
    p.add_argument("proof_file")

    p = add("prove", cmd_prove, help="bounded backward proof search")
    p.add_argument("formula")
    p.add_argument("--max-index", type=int, default=4,
                   help=f"largest index bound (objects) searched, 1..{MAX_BOUND} (default 4)")
    p.add_argument("--depth", type=int, default=16,
                   help=f"largest depth of a branch of the search, 1..{search.MAX_DEPTH} "
                        "(default 16)")
    p.add_argument("--nodes", type=int, default=20000,
                   help="nodes visited over all index bounds (default 20000)")

    p = add("valid", cmd_valid, help="exhaustive validity in a structure")
    p.add_argument("model")
    p.add_argument("formula")

    p = add("countermodel", cmd_countermodel,
            help="find an invalidating valuation")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--singletons", action="store_true",
                   help="list all singleton valuations sending it to {}")

    p = add("postulates", cmd_postulates, help="audit structure postulates")
    p.add_argument("model")

    p = add("corpus", cmd_corpus, help="re-check the embedded proof corpus")
    p.add_argument("--filter")

    p = add("translate", cmd_translate,
            help="translate a formula to a relation-algebra term")
    p.add_argument("formula")

    p = add("algebra-test", cmd_algebra_test,
            help="randomized identity testing in proper algebras")
    p.add_argument("identity", help="law name or identity file")
    p.add_argument("--base", type=int, default=4)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("chain", cmd_chain, help="verify a derivation chain semantically")
    p.add_argument("algebra", help="structure name, model file, or proper:N")
    p.add_argument("chain_file")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)

    p = add("grouprep", cmd_grouprep,
            help="build the group atom structure and audit it")
    p.add_argument("--partition", type=int, required=True)

    p = add("sharing", cmd_sharing, help="variable sharing certificate")
    p.add_argument("formula_a")
    p.add_argument("formula_b")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        passed, payload, text = args.fn(args)
        # printed here, so that a failed write (a closed pipe) is an error line
        print(_dumps(payload, sort_keys=True) if args.json else text)
    except (ParseError, UsageError, models.TooManyValuations, OSError,
            UnicodeDecodeError, registry.DataFileError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
