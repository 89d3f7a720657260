"""Built-in verification suite.

Re-derives every bundled decision and cross-checks the main algorithms
against independent oracles: the CLI and the library must agree, searches
must match brute force on small instances, and the randomized sweeps run
from a fixed seed so every run sees the same cases.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import random
import tempfile
import time
from itertools import chain, combinations
from typing import NamedTuple

from . import cli, corpus, decide
from .algebras import Algebra, OperationTable, classify_relation, closure, is_compatible
from .document import Document, print_document
from .relations import BinRel, compose, intersect, subset
from .terms import (Compose, Intersect, Var, eval_term, is_regular, parse_term, term_to_text,
                    term_variables)

__all__ = ["SEED", "CheckFailed", "CheckResult", "run_all", "CHECKS"]

SEED = 1729  # fixed so the randomized sweeps are reproducible


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class CheckFailed(Exception):
    """A condition of a check does not hold; the message says which."""


def _check(body):
    """Make a check body into a check that returns a CheckResult and never raises.

    The body raises CheckFailed on a failed condition and returns the pass
    detail; its name is the function name without "check_", hyphenated.
    """
    name = body.__name__.removeprefix("check_").replace("_", "-")

    @functools.wraps(body)
    def check() -> CheckResult:
        try:
            return CheckResult(name, True, body())
        except CheckFailed as failed:
            return CheckResult(name, False, str(failed))
        except Exception as err:  # a crash is a failure, not an abort
            return CheckResult(name, False, f"raised {err!r}")

    return check


def _cli_answer(entry: Document, command: str, code: int, phrase: str) -> None:
    """Run `tolrep COMMAND FILE --rel theta` on the entry written out as a file.

    Fails unless the command exits with `code` and its output holds `phrase`.
    """
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "entry.alg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(print_document(entry))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            got = cli.run([command, path, "--rel", "theta"])
    if got != code or phrase not in out.getvalue():
        raise CheckFailed(f"CLI exit {got}, output {out.getvalue()!r}")


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


@_check
def check_five_set_not_representable() -> str:
    start = time.perf_counter()
    entry = corpus.five_set()
    _cli_answer(entry, "represent", 1, "not representable")
    if decide.exhaustive_representation(entry.algebra, entry.relations["theta"]) is not None:
        raise CheckFailed("exhaustive oracle found a witness")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        raise CheckFailed(f"took {elapsed:.2f}s, expected under 1s")
    return "search and the 4096-subset oracle agree: not representable"


@_check
def check_five_set_weak_witness() -> str:
    entry = corpus.five_set()
    theta = entry.relations["theta"]
    _cli_answer(entry, "weak-represent", 0, "weakly representable")
    witness = decide.find_weak_representation(entry.algebra, theta)
    if witness is None or len(witness.separators) != 8:
        got = "none" if witness is None else str(len(witness.separators))
        raise CheckFailed(f"expected 8 separators, got {got}")
    if not decide.verify_weak_representation(entry.algebra, theta, witness):
        raise CheckFailed("separator family failed re-verification")
    return "8 separators cover every excluded pair and meet exactly in theta"


@_check
def check_semilattice_not_representable() -> str:
    start = time.perf_counter()
    entry = corpus.s7_semilattice()
    if not classify_relation(entry.algebra, entry.relations["theta"]).tolerance:
        raise CheckFailed("theta is not a tolerance of the semilattice")
    _cli_answer(entry, "represent", 1, "not representable")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        raise CheckFailed(f"took {elapsed:.1f}s, expected under 30s")
    return "theta is a tolerance and the search exhausts: not representable"


@_check
def check_majority_not_representable() -> str:
    entry = corpus.l7_majority()
    alg = entry.algebra
    table = alg.op("f").table
    for x in range(7):
        for y in range(7):
            vals = {table[(x * 7 + x) * 7 + y], table[(x * 7 + y) * 7 + x],
                    table[(y * 7 + x) * 7 + x]}
            if vals != {x}:
                raise CheckFailed(f"majority identity fails at ({x}, {y})")
    if not classify_relation(alg, entry.relations["theta"]).tolerance:
        raise CheckFailed("theta is not a tolerance of the majority algebra")
    _cli_answer(entry, "represent", 1, "not representable")
    return "majority identities hold on all 49 pairs and theta is not representable"


@_check
def check_lattice_order_witnesses() -> str:
    for entry_name in ("m3", "n5", "chain(4)"):
        entry = corpus.corpus_get(entry_name)
        alg = entry.algebra
        tolerances = decide.enumerate_tolerances(alg)
        brute = {rel for rel in _all_reflexive_symmetric(alg.n) if is_compatible(alg, rel)}
        if set(tolerances) != brute:
            raise CheckFailed(f"{entry_name}: enumeration gives {len(tolerances)} "
                              f"tolerances, brute force {len(brute)}")
        leq = entry.relations["leq"]
        for theta in tolerances:
            witness = decide.represent_via_order(alg, "join", "meet", theta)
            if witness.rel != intersect(theta, leq):
                raise CheckFailed(f"{entry_name}: order witness is not theta ∩ leq")
            if not decide.verify_representation(alg, theta, witness.rel):
                raise CheckFailed(f"{entry_name}: order witness fails verification")
            if decide.find_representation(alg, theta) is None:
                raise CheckFailed(f"{entry_name}: search missed a representation")
    return ("every tolerance of m3, n5 and chain(4) is representable via the "
            "order, and counts match brute force")


@_check
def check_expansion_contains_theta() -> str:
    entry = corpus.expand_five()
    alg = entry.algebra
    theta = entry.relations["theta"]
    if not classify_relation(alg, theta).tolerance:
        raise CheckFailed("theta is not a tolerance of the expansion")
    for c in range(5):
        for d in range(5):
            if c != d and not subset(theta, closure(alg, ((c, d),), "reflexive")):
                raise CheckFailed(f"closure of ({c}, {d}) does not contain theta")
    return "all 20 principal closures contain theta, which stays a tolerance"


@_check
def check_expansion_not_weakly_representable() -> str:
    _cli_answer(corpus.expand_five(), "weak-represent", 1, "not weakly representable")
    return "no admissible relation separates any excluded pair"


@_check
def check_transitive_tolerances_permute() -> str:
    rng = random.Random(SEED)
    covered = 0
    for _ in range(200):
        alg = _random_algebra(rng)
        if decide.enumerate_tolerances(alg) != decide.enumerate_congruences(alg):
            continue
        covered += 1
        if not decide.check_permutability(alg).permutable:
            raise CheckFailed(f"algebra with all tolerances transitive is not permutable "
                              f"(n={alg.n}, table={alg.op('f').table})")
    return (f"{covered} of 200 random algebras had only transitive tolerances; "
            "all of them permute")


@_check
def check_join_inside_reverse_composite() -> str:
    rng = random.Random(SEED)
    for _ in range(100):
        alg = _random_algebra(rng)
        congruences = decide.enumerate_congruences(alg)
        alpha = rng.choice(congruences)
        beta = rng.choice(congruences)
        if not subset(decide.tolerance_join(alg, alpha, beta), compose(beta, alpha)):
            raise CheckFailed(f"join escapes beta∘alpha (n={alg.n}, "
                              f"table={alg.op('f').table})")
    return "100 random congruence pairs keep their join inside beta∘alpha"


@_check
def check_congruences_representable() -> str:
    rng = random.Random(SEED)
    lattices = (corpus.corpus_get(name).algebra for name in ("m3", "n5", "chain(4)"))
    randoms = (_random_algebra(rng) for _ in range(200))
    cases = 0
    # Each algebra's congruences are decided as soon as they are listed,
    # while its kernel plan is still in _square_tables' cache.
    for alg in chain(lattices, randoms):
        for cong in decide.enumerate_congruences(alg):
            if decide.find_representation(alg, cong) is None:
                raise CheckFailed(f"search missed a congruence on n={alg.n}")
            if not decide.verify_representation(alg, cong, cong):
                raise CheckFailed(f"a congruence fails as its own witness on n={alg.n}")
            cases += 1
    return f"{cases} congruences all representable, each by itself"


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


@_check
def check_term_eval_and_roundtrip() -> str:
    for text, want_regular in (("x o x", False), ("x & y", True), ("x o y", True)):
        if is_regular(parse_term(text)) != want_regular:
            raise CheckFailed(f"regularity wrong for {text!r}")
    rng = random.Random(SEED)
    for _ in range(500):
        term = _random_term(rng, rng.randint(1, 7))
        if parse_term(term_to_text(term)) != term:
            raise CheckFailed(f"round-trip broke on {term_to_text(term)!r}")
        n = rng.randint(1, 5)
        env = {}
        env_sets = {}
        for var in sorted({v for v in "wxyz"} & term_variables(term)):
            rel = BinRel(n, [rng.getrandbits(n) for _ in range(n)])
            env[var] = rel
            env_sets[var] = set(rel.pairs())
        if set(eval_term(term, env).pairs()) != _eval_pairs(term, env_sets):
            raise CheckFailed(f"evaluation differs on {term_to_text(term)!r}")
    return ("500 random terms: evaluation matches the pair-set oracle and "
            "printing round-trips")


@_check
def check_oracle_sweep_small_sets() -> str:
    checked = 0
    for n in range(1, 5):
        alg = Algebra(n)
        for theta in _all_reflexive_symmetric(n):
            found = decide.find_representation(alg, theta)
            oracle = decide.exhaustive_representation(alg, theta)
            if (found is None) != (oracle is None):
                raise CheckFailed(f"search and oracle disagree on n={n}, "
                                  f"theta={sorted(theta.pairs())}")
            if found is not None:
                if not decide.verify_representation(alg, theta, found.rel):
                    raise CheckFailed(f"search witness invalid on n={n}")
                if not decide.verify_representation(alg, theta, oracle.rel):
                    raise CheckFailed(f"oracle witness invalid on n={n}")
            checked += 1
    return (f"{checked} tolerances on operation-free universes up to 4: "
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
    return [check() for check in CHECKS]
