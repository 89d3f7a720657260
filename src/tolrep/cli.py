"""Command line front end over algebra documents.

Each command reads one document (see `tolrep.document` for the format),
except `term-regular`, `corpus` and `verify-paper`.  `run` loads it and,
for a command with --rel, picks the relation, then calls the command's
handler; each handler ends in `_emit`, which prints text lines or a JSON
payload led by the command name and returns the exit code.

Exit codes: 0 when the queried property holds (or the command just
reports), 1 when it fails, 2 for usage or format errors, 3 when a search
or enumeration budget runs out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import decide
from .algebras import classify_relation, expand
from .corpus import corpus_get, corpus_names
from .document import Document, _rel_block, parse_document, print_document
from .errors import BudgetExceeded
from .relations import BinRel, compose
from .terms import eval_term, is_regular, parse_term

__all__ = ["run", "main"]


def _rel_json(rel: BinRel) -> dict:
    return {"n": rel.n, "pairs": [[a, b] for a, b in rel.pairs()]}


def _pairs_text(rel: BinRel) -> str:
    offdiag = [f"{a} {b}" for a, b in rel.pairs() if a != b]
    return "; ".join(offdiag) if offdiag else "(diagonal)"


def _load_document(path: str) -> Document:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ValueError(f"cannot read {path}: {err}") from None
    return parse_document(text)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err.strerror}") from None


def _pick_relation(doc: Document, name: str | None) -> tuple[str, BinRel]:
    known = ", ".join(doc.relations) or "(none)"
    if name is None:
        if len(doc.relations) != 1:
            raise ValueError(
                f"--rel is required when the document does not have exactly "
                f"one relation; known: {known}")
        name = next(iter(doc.relations))
    if name not in doc.relations:
        raise ValueError(f"no relation named {name!r} in the document; known: {known}")
    return name, doc.relations[name]


def _emit(args, payload: dict, lines: list[str], code: int = 0) -> int:
    """Print payload as JSON, led by the command name, or lines as text; return code."""
    if args.json:
        print(json.dumps({"command": args.command, **payload}, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def _cmd_check(args, doc: Document, rel_name: str, rel: BinRel) -> int:
    flags = classify_relation(doc.algebra, rel)._asdict()
    lines = [f"relation {rel_name} on algebra {doc.name} (size {doc.algebra.n})"]
    lines += [f"{key}: {'yes' if value else 'no'}" for key, value in flags.items()]
    return _emit(args, {"algebra": doc.name, "size": doc.algebra.n, "relation": rel_name,
                        **flags}, lines)


def _cmd_represent(args, doc: Document, rel_name: str, rel: BinRel) -> int:
    witness = decide.find_representation(doc.algebra, rel, node_budget=args.node_budget)
    if witness is None:
        return _emit(args, {"relation": rel_name, "representable": False, "witness": None},
                     [f"{rel_name} is not representable"], 1)
    lines = [f"{rel_name} is representable"]
    if args.witness:
        lines.append(_rel_block("witness", witness.rel))
    return _emit(args, {"relation": rel_name, "representable": True,
                        "witness": _rel_json(witness.rel)}, lines)


def _cmd_weak_represent(args, doc: Document, rel_name: str, rel: BinRel) -> int:
    witness = decide.find_weak_representation(doc.algebra, rel, rel_budget=args.rel_budget)
    if witness is None:
        return _emit(args, {"relation": rel_name, "weakly_representable": False,
                            "separators": None},
                     [f"{rel_name} is not weakly representable"], 1)
    lines = [f"{rel_name} is weakly representable ({len(witness.separators)} separators)"]
    if args.witness:
        for (a, b), sep in witness.separators.items():
            lines.append(_rel_block(f"sep_{a}_{b}", sep))
    return _emit(args, {"relation": rel_name, "weakly_representable": True,
                        "separators": [{"pair": [a, b], "rel": _rel_json(sep)}
                                       for (a, b), sep in witness.separators.items()]},
                 lines)


def _cmd_expand(args, doc: Document, rel_name: str, rel: BinRel) -> int:
    bigger = expand(doc.algebra, rel)
    out = Document(f"{doc.name}_plus", bigger, dict(doc.relations))
    _write_text(args.output, print_document(out))
    return _emit(args, {"relation": rel_name, "output": args.output,
                        "operations": len(bigger.ops)},
                 [f"wrote {out.name} with {len(bigger.ops)} operations to {args.output}"])


def _cmd_enumerate(args, doc: Document) -> int:
    truncated = False
    if args.kind == "admissible":
        rels, truncated = decide.enumerate_admissible(doc.algebra, limit=args.limit)
    elif args.kind == "tolerances":
        rels = decide.enumerate_tolerances(doc.algebra, limit=args.limit)
    else:
        rels = decide.enumerate_congruences(doc.algebra, limit=args.limit)
    lines = [f"{args.kind} of {doc.name}: {len(rels)}"
             + (" (truncated)" if truncated else "")]
    lines += [f"{i}: {_pairs_text(rel)}" for i, rel in enumerate(rels)]
    return _emit(args, {"kind": args.kind, "count": len(rels), "truncated": truncated,
                        "relations": [_rel_json(r) for r in rels]}, lines)


def _cmd_permutable(args, doc: Document) -> int:
    report = decide.check_permutability(doc.algebra, limit=args.rel_budget)
    count = report.congruence_count
    if report.permutable:
        return _emit(args, {"permutable": True, "congruence_count": count,
                            "counterexample": None},
                     [f"congruences permute ({count} congruences)"])
    alpha, beta, (a, b) = report.counterexample
    payload = {"permutable": False, "congruence_count": count,
               "counterexample": {"alpha": _rel_json(alpha), "beta": _rel_json(beta),
                                  "pair": [a, b]}}
    return _emit(args, payload, [
        "congruences do not permute",
        f"alpha: {_pairs_text(alpha)}",
        f"beta: {_pairs_text(beta)}",
        f"pair {a} {b} lies in alpha o beta but not in beta o alpha",
    ], 1)


def _cmd_term_eval(args, doc: Document) -> int:
    term = parse_term(args.term)
    env = {}
    for binding in args.bind or []:
        if "=" not in binding:
            raise ValueError(f"bad binding {binding!r}; expected VAR=REL")
        var, rel_name = binding.split("=", 1)
        env[var] = _pick_relation(doc, rel_name)[1]
    if args.square:
        env = {name: compose(rel, rel) for name, rel in env.items()}
    result = eval_term(term, env)
    return _emit(args, {"term": args.term, "squared": bool(args.square),
                        "result": _rel_json(result)},
                 [f"term: {args.term}", _rel_block("result", result)])


def _cmd_term_regular(args) -> int:
    regular = is_regular(parse_term(args.term))
    return _emit(args, {"term": args.term, "regular": regular},
                 ["regular" if regular else "not regular"], 0 if regular else 1)


def _cmd_corpus(args) -> int:
    text = print_document(corpus_get(args.name))
    if args.output:
        _write_text(args.output, text)
        return _emit(args, {"name": args.name, "output": args.output},
                     [f"wrote {args.name} to {args.output}"])
    return _emit(args, {"name": args.name, "document": text}, [text.rstrip("\n")])


def _cmd_verify_paper(args) -> int:
    from . import verify
    results = verify.run_all()
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    all_passed = all(r.passed for r in results)
    return _emit(args, {"all_passed": all_passed,
                        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                                    for r in results]}, lines, 0 if all_passed else 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tolrep",
        description="Tolerance representability workbench for finite algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, file=True, rel=False):
        p = sub.add_parser(name, help=help)
        if file:
            p.add_argument("file", help="algebra document")
        p.add_argument("--json", action="store_true", help="structured output")
        if rel:
            p.add_argument("--rel", help="relation name (defaults to the only one)")
        p.set_defaults(handler=handler)
        return p

    command("check", _cmd_check, "classify a named relation", rel=True)

    p = command("represent", _cmd_represent, "decide theta = R o R-converse", rel=True)
    p.add_argument("--witness", action="store_true", help="print the witness relation")
    p.add_argument("--node-budget", type=int, default=decide.DEFAULT_NODE_BUDGET)

    p = command("weak-represent", _cmd_weak_represent,
                "decide theta as an intersection of composites", rel=True)
    p.add_argument("--witness", action="store_true", help="print the separator family")
    p.add_argument("--rel-budget", type=int, default=decide.DEFAULT_REL_BUDGET)

    p = command("expand", _cmd_expand, "adjoin all unary maps into theta-related pairs", rel=True)
    p.add_argument("-o", "--output", required=True)

    p = command("enumerate", _cmd_enumerate,
                "list admissible relations, tolerances or congruences")
    p.add_argument("--kind", required=True,
                   choices=["admissible", "tolerances", "congruences"])
    p.add_argument("--limit", type=int, default=decide.DEFAULT_REL_BUDGET)

    p = command("permutable", _cmd_permutable, "check that all congruence pairs permute")
    p.add_argument("--rel-budget", type=int, default=decide.DEFAULT_REL_BUDGET)

    p = command("term-eval", _cmd_term_eval, "evaluate a composition/intersection term")
    p.add_argument("--term", required=True)
    p.add_argument("--bind", action="append", metavar="VAR=REL")
    p.add_argument("--square", action="store_true",
                   help="replace each binding theta by theta o theta first")

    p = command("term-regular", _cmd_term_regular, "check term regularity", file=False)
    p.add_argument("--term", required=True)

    p = command("corpus", _cmd_corpus, "print or write a bundled algebra document", file=False)
    p.add_argument("name", help=f"one of: {', '.join(corpus_names())}")
    p.add_argument("-o", "--output", default=None)

    command("verify-paper", _cmd_verify_paper, "run the built-in verification suite", file=False)

    return parser


def run(argv: list[str]) -> int:
    """Execute one command; returns the exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if not hasattr(args, "file"):
            return args.handler(args)
        doc = _load_document(args.file)
        if not hasattr(args, "rel"):
            return args.handler(args, doc)
        return args.handler(args, doc, *_pick_relation(doc, args.rel))
    except BudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # reader went away (e.g. piped into head); suppress the traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
