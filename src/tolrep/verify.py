"""Built-in verification suite.

Re-derives every bundled decision and cross-checks the main algorithms
against independent oracles: the CLI and the library must agree, searches
must match brute force on small instances, and the randomized sweeps run
from a fixed seed so every run sees the same cases.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import tempfile
import time
from dataclasses import dataclass
from itertools import combinations, product

from . import cli, corpus, decide
from .algebras import Algebra, OperationTable, classify_relation, closure, is_compatible
from .relations import BinRel, compose, converse, intersect, subset
from .terms import (Compose, Intersect, Var, eval_term, is_regular, parse_term, term_to_text,
                    term_variables)

__all__ = ["SEED", "CheckResult", "run_all", "CHECKS"]

SEED = 1729  # fixed so the randomized sweeps are reproducible


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _cli_run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _write_doc(dirpath: str, entry: corpus.CorpusEntry) -> str:
    safe = entry.name.replace("(", "_").replace(")", "").replace(",", "_")
    path = os.path.join(dirpath, f"{safe}.alg")
    doc = cli.Document(entry.name, entry.algebra, dict(entry.relations))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(cli.print_document(doc))
    return path


def _random_algebra(rng: random.Random) -> Algebra:
    n = rng.randint(1, 4)
    table = tuple(rng.randrange(n) for _ in range(n * n))
    return Algebra(n, (OperationTable("f", 2, table),))


def _all_reflexive_symmetric(n: int):
    """Every reflexive symmetric relation on n elements, by subsets of unordered pairs."""
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        rows = [1 << a for a in range(n)]
        for i, (a, b) in enumerate(slots):
            if mask >> i & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        yield BinRel(n, rows)


def check_five_set_not_representable() -> CheckResult:
    name = "five-set-not-representable"
    start = time.perf_counter()
    entry = corpus.five_set()
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _cli_run(["represent", _write_doc(tmp, entry), "--rel", "theta"])
    if code != 1 or "not representable" not in out:
        return CheckResult(name, False, f"CLI exit {code}, output {out!r}")
    oracle = decide.exhaustive_representation(entry.algebra, entry.relations["theta"])
    if oracle is not None:
        return CheckResult(name, False, "exhaustive oracle found a witness")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        return CheckResult(name, False, f"took {elapsed:.2f}s, expected under 1s")
    return CheckResult(name, True,
                       "search and the 4096-subset oracle agree: not representable")


def check_five_set_weak_witness() -> CheckResult:
    name = "five-set-weak-witness"
    entry = corpus.five_set()
    theta = entry.relations["theta"]
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _cli_run(["weak-represent", _write_doc(tmp, entry), "--rel", "theta"])
    if code != 0 or "weakly representable" not in out:
        return CheckResult(name, False, f"CLI exit {code}, output {out!r}")
    witness = decide.find_weak_representation(entry.algebra, theta)
    if witness is None or len(witness.separators) != 8:
        got = "none" if witness is None else str(len(witness.separators))
        return CheckResult(name, False, f"expected 8 separators, got {got}")
    if not decide.verify_weak_representation(entry.algebra, theta, witness):
        return CheckResult(name, False, "separator family failed re-verification")
    return CheckResult(name, True,
                       "8 separators cover every excluded pair and meet exactly in theta")


def check_semilattice_not_representable() -> CheckResult:
    name = "semilattice-not-representable"
    start = time.perf_counter()
    entry = corpus.s7_semilattice()
    theta = entry.relations["theta"]
    if not classify_relation(entry.algebra, theta).tolerance:
        return CheckResult(name, False, "theta is not a tolerance of the semilattice")
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _cli_run(["represent", _write_doc(tmp, entry), "--rel", "theta"])
    if code != 1 or "not representable" not in out:
        return CheckResult(name, False, f"CLI exit {code}, output {out!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        return CheckResult(name, False, f"took {elapsed:.1f}s, expected under 30s")
    return CheckResult(name, True,
                       "theta is a tolerance and the search exhausts: not representable")


def check_majority_not_representable() -> CheckResult:
    name = "majority-not-representable"
    entry = corpus.l7_majority()
    alg = entry.algebra
    table = alg.op("f").table
    for x in range(7):
        for y in range(7):
            vals = {table[(x * 7 + x) * 7 + y], table[(x * 7 + y) * 7 + x],
                    table[(y * 7 + x) * 7 + x]}
            if vals != {x}:
                return CheckResult(name, False, f"majority identity fails at ({x}, {y})")
    theta = entry.relations["theta"]
    if not classify_relation(alg, theta).tolerance:
        return CheckResult(name, False, "theta is not a tolerance of the majority algebra")
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _cli_run(["represent", _write_doc(tmp, entry), "--rel", "theta"])
    if code != 1 or "not representable" not in out:
        return CheckResult(name, False, f"CLI exit {code}, output {out!r}")
    return CheckResult(name, True,
                       "majority identities hold on all 49 pairs and theta is not representable")


def _lattice_congruences() -> list[tuple[Algebra, BinRel]]:
    out = []
    for entry_name in ("m3", "n5", "chain(4)"):
        entry = corpus.corpus_get(entry_name)
        for cong in decide.enumerate_congruences(entry.algebra):
            out.append((entry.algebra, cong))
    return out


def check_lattice_order_witnesses() -> CheckResult:
    name = "lattice-order-witnesses"
    for entry_name in ("m3", "n5", "chain(4)"):
        entry = corpus.corpus_get(entry_name)
        alg = entry.algebra
        tolerances = decide.enumerate_tolerances(alg)
        brute = {rel for rel in _all_reflexive_symmetric(alg.n) if is_compatible(alg, rel)}
        if set(tolerances) != brute:
            return CheckResult(name, False,
                               f"{entry_name}: enumeration gives {len(tolerances)} "
                               f"tolerances, brute force {len(brute)}")
        leq = entry.relations["leq"]
        for theta in tolerances:
            witness = decide.represent_via_order(alg, "join", "meet", theta)
            if witness.rel != intersect(theta, leq):
                return CheckResult(name, False, f"{entry_name}: order witness is not theta ∩ leq")
            if not decide.verify_representation(alg, theta, witness.rel):
                return CheckResult(name, False, f"{entry_name}: order witness fails verification")
            if decide.find_representation(alg, theta) is None:
                return CheckResult(name, False, f"{entry_name}: search missed a representation")
    return CheckResult(name, True,
                       "every tolerance of m3, n5 and chain(4) is representable via the "
                       "order, and counts match brute force")


def check_expansion_contains_theta() -> CheckResult:
    name = "expansion-contains-theta"
    entry = corpus.expand_five()
    alg = entry.algebra
    theta = entry.relations["theta"]
    if not classify_relation(alg, theta).tolerance:
        return CheckResult(name, False, "theta is not a tolerance of the expansion")
    for c in range(5):
        for d in range(5):
            if c == d:
                continue
            principal = closure(alg, ((c, d),), "reflexive")
            if not subset(theta, principal):
                return CheckResult(name, False,
                                   f"closure of ({c}, {d}) does not contain theta")
    return CheckResult(name, True,
                       "all 20 principal closures contain theta, which stays a tolerance")


def check_expansion_not_weakly_representable() -> CheckResult:
    name = "expansion-not-weakly-representable"
    entry = corpus.expand_five()
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _cli_run(["weak-represent", _write_doc(tmp, entry), "--rel", "theta"])
    if code != 1 or "not weakly representable" not in out:
        return CheckResult(name, False, f"CLI exit {code}, output {out!r}")
    return CheckResult(name, True, "no admissible relation separates any excluded pair")


def check_transitive_tolerances_permute() -> CheckResult:
    name = "transitive-tolerances-permute"
    rng = random.Random(SEED)
    covered = 0
    for _ in range(200):
        alg = _random_algebra(rng)
        tolerances = decide.enumerate_tolerances(alg)
        congruences = decide.enumerate_congruences(alg)
        if tolerances != congruences:
            continue
        covered += 1
        report = decide.check_permutability(alg)
        if not report.permutable:
            return CheckResult(name, False,
                               f"algebra with all tolerances transitive is not permutable "
                               f"(n={alg.n}, table={alg.op('f').table})")
    return CheckResult(name, True,
                       f"{covered} of 200 random algebras had only transitive tolerances; "
                       "all of them permute")


def check_join_inside_reverse_composite() -> CheckResult:
    name = "join-inside-reverse-composite"
    rng = random.Random(SEED)
    checked = 0
    while checked < 100:
        alg = _random_algebra(rng)
        congruences = decide.enumerate_congruences(alg)
        alpha = rng.choice(congruences)
        beta = rng.choice(congruences)
        joined = decide.tolerance_join(alg, alpha, beta)
        if not subset(joined, compose(beta, alpha)):
            return CheckResult(name, False,
                               f"join escapes beta∘alpha (n={alg.n}, "
                               f"table={alg.op('f').table})")
        checked += 1
    return CheckResult(name, True,
                       "100 random congruence pairs keep their join inside beta∘alpha")


def check_congruences_representable() -> CheckResult:
    name = "congruences-representable"
    cases = _lattice_congruences()
    rng = random.Random(SEED)
    for _ in range(200):
        alg = _random_algebra(rng)
        for cong in decide.enumerate_congruences(alg):
            cases.append((alg, cong))
    for alg, cong in cases:
        if decide.find_representation(alg, cong) is None:
            return CheckResult(name, False, f"search missed a congruence on n={alg.n}")
        if not decide.verify_representation(alg, cong, cong):
            return CheckResult(name, False,
                               f"a congruence fails as its own witness on n={alg.n}")
    return CheckResult(name, True,
                       f"{len(cases)} congruences all representable, each by itself")


def _random_term(rng: random.Random, size: int):
    if size < 3:
        return Var(rng.choice("wxyz"))
    left = rng.randrange(1, size - 1)
    node = Compose if rng.random() < 0.5 else Intersect
    return node(_random_term(rng, left), _random_term(rng, size - 1 - left))


def _eval_pairs(term, env_sets):
    """Independent evaluator over plain pair sets."""
    if isinstance(term, Var):
        return env_sets[term.name]
    left = _eval_pairs(term.left, env_sets)
    right = _eval_pairs(term.right, env_sets)
    if isinstance(term, Compose):
        return {(a, b) for a, c in left for c2, b in right if c == c2}
    return left & right


def check_term_eval_and_roundtrip() -> CheckResult:
    name = "term-eval-and-roundtrip"
    for text, want_regular in (("x o x", False), ("x & y", True), ("x o y", True)):
        if is_regular(parse_term(text)) != want_regular:
            return CheckResult(name, False, f"regularity wrong for {text!r}")
    rng = random.Random(SEED)
    for _ in range(500):
        term = _random_term(rng, rng.randint(1, 7))
        if parse_term(term_to_text(term)) != term:
            return CheckResult(name, False, f"round-trip broke on {term_to_text(term)!r}")
        n = rng.randint(1, 5)
        env = {}
        env_sets = {}
        for var in sorted({v for v in "wxyz"} & term_variables(term)):
            rel = BinRel(n, [rng.getrandbits(n) for _ in range(n)])
            env[var] = rel
            env_sets[var] = set(rel.pairs())
        got = eval_term(term, env)
        want = _eval_pairs(term, env_sets)
        if set(got.pairs()) != want:
            return CheckResult(name, False, f"evaluation differs on {term_to_text(term)!r}")
    return CheckResult(name, True,
                       "500 random terms: evaluation matches the pair-set oracle and "
                       "printing round-trips")


def check_oracle_sweep_small_sets() -> CheckResult:
    name = "oracle-sweep-small-sets"
    checked = 0
    for n in range(1, 5):
        alg = Algebra(n)
        for theta in _all_reflexive_symmetric(n):
            found = decide.find_representation(alg, theta)
            oracle = decide.exhaustive_representation(alg, theta)
            if (found is None) != (oracle is None):
                return CheckResult(name, False,
                                   f"search and oracle disagree on n={n}, "
                                   f"theta={sorted(theta.pairs())}")
            if found is not None:
                if not decide.verify_representation(alg, theta, found.rel):
                    return CheckResult(name, False, f"search witness invalid on n={n}")
                if not decide.verify_representation(alg, theta, oracle.rel):
                    return CheckResult(name, False, f"oracle witness invalid on n={n}")
            checked += 1
    return CheckResult(name, True,
                       f"{checked} tolerances on operation-free universes up to 4: "
                       "search and oracle decisions agree")


CHECKS = (
    check_five_set_not_representable,
    check_five_set_weak_witness,
    check_semilattice_not_representable,
    check_majority_not_representable,
    check_lattice_order_witnesses,
    check_expansion_contains_theta,
    check_expansion_not_weakly_representable,
    check_transitive_tolerances_permute,
    check_join_inside_reverse_composite,
    check_congruences_representable,
    check_term_eval_and_roundtrip,
    check_oracle_sweep_small_sets,
)


def run_all() -> list[CheckResult]:
    """Run every check in order; never raises, failures land in the results."""
    results = []
    for check in CHECKS:
        try:
            results.append(check())
        except Exception as err:  # a crash is a failure, not an abort
            results.append(CheckResult(check.__name__, False, f"raised {err!r}"))
    return results
