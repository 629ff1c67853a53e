"""Command-line front end.

Exit codes: 0 when the command's check passes, 1 when a refutation or
countermodel is found (or a proof is not found), 2 on usage or format
errors.  All commands are batch and deterministic; --json mirrors the
library report types.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import algebra, models, registry, search
from .formulas import FORMULAS, Formula, Neg, ParseError, Var, parse_formula, print_formula
from .sequents import MAX_BOUND, check_proof, format_proof_script, parse_proof_script


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


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, default=_jsonable))
    else:
        print(human)


def _jsonable(obj):
    if isinstance(obj, (frozenset, set)):
        return sorted(obj, key=str)
    if isinstance(obj, Formula):
        return print_formula(obj)
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    return str(obj)


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


def _ast(f: Formula) -> dict:
    if isinstance(f, Var):
        return {"var": f.name}
    op = FORMULAS.spelling[type(f)]
    if isinstance(f, Neg):
        return {"op": op, "body": _ast(f.body)}
    return {"op": op, "left": _ast(f.left), "right": _ast(f.right)}


# ------------------------------------------------------------------
# Subcommands
# ------------------------------------------------------------------

def cmd_parse(args) -> int:
    f = parse_formula(args.formula)
    _emit(args, {"formula": print_formula(f), "ast": _ast(f),
                 "variables": sorted(models.variables(f))},
          f"{print_formula(f)}\n{json.dumps(_ast(f))}")
    return 0


def cmd_check(args) -> int:
    name, proof = _read(args.proof_file, parse_proof_script)
    report = check_proof(proof)
    objs = sorted(report.objects_used)
    payload = {"lemma": name, "valid": report.valid, "objects": objs,
               "level": report.level, "first_error": report.first_error}
    if report.valid:
        _emit(args, payload, f"{name}: valid, objects {{{','.join(map(str, objs))}}}")
        return 0
    line, reason = report.first_error
    _emit(args, payload, f"{name}: INVALID at line {line}: {reason}")
    return 1


def cmd_prove(args) -> int:
    goal = _resolve_formula(args.formula)
    budget = _checked(search.SearchBudget, max_depth=args.depth,
                      max_index=args.max_index, max_nodes=args.nodes)
    outcome = search.search_proof(goal, budget)
    payload = {"status": outcome.status, "bound": outcome.bound, **outcome.counters()}
    if outcome.proved:
        script = format_proof_script("found", outcome.proof)
        _emit(args, {**payload, "lines": len(outcome.proof.lines), "script": script,
                     "objects": sorted(outcome.objects), "level": outcome.level},
              script.rstrip())
        return 0
    if outcome.status == "refuted":
        cert = outcome.counterexample
        x = cert["point"]
        relations = "; ".join(f"{name} = {{{','.join(f'({i},{j})' for i, j in pairs)}}}"
                              for name, pairs in cert["relations"].items())
        _emit(args, {**payload, "counterexample": cert},
              f"refuted after {outcome.nodes} nodes: base {cert['base']}, point {x}: "
              f"({x},{x}) is outside the goal's relation when {relations}")
        return 1
    _emit(args, payload, f"{outcome.status} after {outcome.nodes} nodes")
    return 1


def cmd_valid(args) -> int:
    m = _resolve_structure(args.model)
    f = _resolve_formula(args.formula)
    result = models.valid_in(m, f)
    payload = {"model": m.name, "valid": result.valid, **result.counters()}
    if result.valid:
        _emit(args, payload, f"valid in {m.name}")
        return 0
    _emit(args, {**payload, "witness": result.witness.assignment},
          f"invalid; witness {result.witness}")
    return 1


def cmd_countermodel(args) -> int:
    m = _resolve_structure(args.model)
    f = _resolve_formula(args.formula)
    if args.singletons:
        witnesses = models.find_invalidating_singletons(m, f)
        payload = {"model": m.name,
                   "witnesses": [w.assignment for w in witnesses]}
        if witnesses:
            lines = "\n".join(map(str, witnesses))
            _emit(args, payload, f"{len(witnesses)} invalidating singleton "
                                 f"valuation(s):\n{lines}")
            return 1
        _emit(args, payload, "no invalidating singleton valuation")
        return 0
    result = models.valid_in(m, f)
    if result.valid:
        _emit(args, {"model": m.name, "countermodel": None, **result.counters()},
              "no countermodel (formula is valid)")
        return 0
    _emit(args, {"model": m.name, "countermodel": result.witness.assignment,
                 **result.counters()},
          f"countermodel: {result.witness}")
    return 1


def cmd_postulates(args) -> int:
    m = _resolve_structure(args.model)
    report = models.check_postulates(m)
    human = [f"postulate audit of {m.name}:"]
    for name in models.POSTULATE_NAMES:
        status = "pass" if report.flags[name] else "FAIL"
        extra = ""
        if not report.flags[name] and name in report.witnesses:
            extra = f"  witness {report.witnesses[name]}"
        human.append(f"  {name:8s} {status}{extra}")
    if report.peirce_missing:
        human.append(f"  missing peirce triples: "
                     f"{[t for t in report.peirce_missing]}")
    _emit(args, {"model": m.name, "flags": report.flags,
                 "witnesses": {k: list(v) for k, v in report.witnesses.items()},
                 "peirce_missing": [list(t) for t in report.peirce_missing]},
          "\n".join(human))
    core = [f"p{i}" for i in range(1, 7)]
    return 0 if report.passes(core) else 1


def cmd_corpus(args) -> int:
    ids = registry.corpus_ids()
    if args.filter:
        ids = [i for i in ids if i == args.filter]
        if not ids:
            raise UsageError(f"no corpus lemma named {args.filter!r}")
    entries = [registry.get_corpus_entry(i) for i in ids]
    results = []
    all_ok = True
    for entry in entries:
        report = check_proof(entry.proof)
        objs_ok = frozenset(report.objects_used) == entry.expected_objects
        ok = report.valid and objs_ok
        all_ok &= ok
        results.append({"lemma": entry.lemma_id, "valid": report.valid,
                        "objects": sorted(report.objects_used),
                        "expected_objects": sorted(entry.expected_objects),
                        "objects_match": objs_ok})
    good = sum(1 for r in results if r["valid"] and r["objects_match"])
    summary = (f"{good}/{len(results)} valid; objects columns match"
               if all_ok else f"{good}/{len(results)} valid; MISMATCHES")
    lines = [summary]
    if args.filter or not all_ok:
        for r in results:
            mark = "ok" if r["valid"] and r["objects_match"] else "BAD"
            lines.append(f"  {r['lemma']:12s} {mark} objects={r['objects']}")
    _emit(args, {"results": results, "all_ok": all_ok}, "\n".join(lines))
    return 0 if all_ok else 1


def cmd_translate(args) -> int:
    f = _resolve_formula(args.formula)
    term = _checked(algebra.print_ra_term, algebra.translate(f))
    _emit(args, {"formula": print_formula(f), "term": term}, term)
    return 0


def _resolve_algebra(arg: str):
    if arg.lower().startswith("proper:"):
        return _checked(lambda: algebra.ProperAlgebra(int(arg.split(":", 1)[1])))
    return algebra.ComplexAlgebra(_resolve_structure(arg))


def cmd_algebra_test(args) -> int:
    alg = _checked(algebra.ProperAlgebra, args.base)
    path = Path(args.identity)
    if path.exists():
        laws = [algebra.Law(f"step{i}", s.lhs, s.rel, s.rhs)
                for i, s in enumerate(_read(path, algebra.parse_chain), 1)]
    else:
        try:
            laws = [algebra.get_law(args.identity)]
        except KeyError:
            raise UsageError(f"unknown identity {args.identity!r}; known: "
                             + ", ".join(algebra.law_names()))
    results = []
    ok = True
    for law in laws:
        r = _checked(algebra.holds_law, alg, law, trials=args.trials, seed=args.seed)
        ok &= r.passed
        results.append({"law": law.name, "passed": r.passed,
                        "checked": r.checked,
                        "counterexample": r.counterexample})
    human = "\n".join(
        f"{r['law']}: {'Pass' if r['passed'] else 'Counterexample'}"
        + ("" if r["passed"] else f" {r['counterexample']}")
        for r in results)
    _emit(args, {"base": args.base, "trials": args.trials, "seed": args.seed,
                 "results": results}, human)
    return 0 if ok else 1


def cmd_chain(args) -> int:
    alg = _resolve_algebra(args.algebra)
    steps = _read(args.chain_file, algebra.parse_chain)
    report = _checked(algebra.check_chain, {args.algebra: alg}, steps,
                      trials=args.trials, seed=args.seed)
    lines = []
    for i, step in enumerate(report.steps, 1):
        status = "Pass" if step.passed else "FAIL"
        lines.append(f"step {i}: {step.step.lhs} {step.step.rel} "
                     f"{step.step.rhs}  [{step.step.name}]  {status}")
    for (a, b, rel, end) in report.segments:
        if end is not None:
            lines.append(f"end-to-end {a + 1}..{b + 1} ({rel}): "
                         f"{'Pass' if end.passed else 'FAIL'}")
    _emit(args, {"passed": report.passed,
                 "steps": [{"lhs": str(s.step.lhs), "rel": s.step.rel,
                            "rhs": str(s.step.rhs), "tag": s.step.name,
                            "passed": s.passed} for s in report.steps]},
          "\n".join(lines))
    return 0 if report.passed else 1


def cmd_grouprep(args) -> int:
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
    ok = sigma_report.passed and table_ok and postulates_ok
    human = [models.dump_model_file(m).rstrip(),
             f"table equals K3: {table_ok}",
             f"postulates p1..p6 + peirce: {postulates_ok}",
             f"sigma homomorphism checks: "
             f"{'all pass' if sigma_report.passed else sigma_report.failures()[:3]}"]
    _emit(args, {"partition": args.partition, "table_equals_K3": table_ok,
                 "sigma_passed": sigma_report.passed,
                 "model": models.dump_model_file(m)},
          "\n".join(human))
    return 0 if ok else 1


def cmd_sharing(args) -> int:
    fa = _resolve_formula(args.formula_a)
    fb = _resolve_formula(args.formula_b)
    cert = models.variable_sharing_certificate(fa, fb)
    if isinstance(cert, models.Shared):
        _emit(args, {"shared": sorted(cert.variables)},
              f"shared variables: {', '.join(sorted(cert.variables))}")
        return 0
    _emit(args, {"shared": [], "witness": dict(cert.valuation.assignment),
                 "implication_value": sorted(cert.implication_value)},
          "no shared variable; K4 refutes the implication under "
          f"{cert.valuation} (value {set(cert.implication_value) or '{}'})")
    return 1


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
                   help="largest depth of a branch of the search (default 16)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, UsageError, models.TooManyValuations, OSError,
            UnicodeDecodeError, registry.DataFileError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
