import textwrap
from functools import cache
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    admissible_bfs_oracle,
    algebra_with_rel,
    algebras,
    binrels_on,
    closure_oracle,
    compatible_oracle,
    congruence_close_oracle,
    expanded_algebras,
    join_arguments,
    join_closure_oracle,
    join_every_principal_oracle,
    relabel,
    relabel_algebra,
    run_python,
    symmetric_algebras,
    warshall_close_oracle,
    weak_representation_oracle,
)
from tolrep import (
    Algebra,
    BinRel,
    BudgetExceeded,
    DimensionError,
    OperationTable,
    WeakRepWitness,
    check_permutability,
    classify_relation,
    closure,
    compose,
    converse,
    corpus_get,
    enumerate_admissible,
    enumerate_congruences,
    enumerate_tolerances,
    exhaustive_representation,
    expand,
    find_representation,
    find_weak_representation,
    intersect,
    is_compatible,
    represent_via_order,
    subset,
    tolerance_join,
    union,
    verify_representation,
    verify_weak_representation,
)
from tolrep.decide import (
    _congruence_close, _cover_search, _join_closure, _lattice, iter_admissible,
)


def all_reflexive_symmetric(n):
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        rows = [1 << a for a in range(n)]
        for i, (a, b) in enumerate(slots):
            if mask >> i & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        yield BinRel(n, rows)


class TestFindRepresentation:
    def test_diagonal(self):
        alg = corpus_get("s7_semilattice").algebra
        witness = find_representation(alg, BinRel.diagonal(7))
        assert witness is not None
        assert witness.rel == BinRel.diagonal(7)

    def test_full_no_ops(self):
        witness = find_representation(Algebra(3), BinRel.full(3))
        assert witness is not None
        assert verify_representation(Algebra(3), BinRel.full(3), witness.rel)

    def test_five_set_has_none(self):
        entry = corpus_get("five_set")
        assert find_representation(entry.algebra, entry.relations["theta"]) is None

    def test_semilattice_has_none(self):
        entry = corpus_get("s7_semilattice")
        assert find_representation(entry.algebra, entry.relations["theta"]) is None

    def test_majority_has_none(self):
        entry = corpus_get("l7_majority")
        assert find_representation(entry.algebra, entry.relations["theta"]) is None

    def test_near_full_family(self):
        for n in range(2, 6):
            for a in range(n):
                for b in range(a + 1, n):
                    entry = corpus_get(f"theta_ab({n},{a},{b})")
                    theta = entry.relations["theta"]
                    witness = find_representation(entry.algebra, theta)
                    assert witness is not None
                    assert verify_representation(entry.algebra, theta, witness.rel)

    def test_rejects_non_tolerance(self):
        with pytest.raises(ValueError):
            find_representation(Algebra(2), BinRel.from_pairs(2, [(0, 1)], reflexive=True))

    def test_budget_exhaustion(self):
        entry = corpus_get("five_set")
        with pytest.raises(BudgetExceeded):
            find_representation(entry.algebra, entry.relations["theta"], node_budget=1)

    @given(st.data())
    def test_agrees_with_exhaustive_oracle(self, data):
        alg = data.draw(algebras(max_n=3, max_ops=1))
        seed = data.draw(binrels_on(alg.n, reflexive=True, symmetric=True))
        from tolrep import closure

        theta = closure(alg, seed.pairs(), "reflexive-symmetric")
        fast = find_representation(alg, theta)
        slow = exhaustive_representation(alg, theta)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert verify_representation(alg, theta, fast.rel)
            assert verify_representation(alg, theta, slow.rel)

    def test_deep_search_needs_no_recursion(self):
        # The star tolerance on 150 points needs one branching level per
        # point; under a recursion limit of 100 the search must still
        # finish and return a valid witness.
        script = textwrap.dedent("""
            import sys
            sys.setrecursionlimit(100)
            from tolrep import Algebra, BinRel, find_representation, verify_representation
            n = 150
            theta = BinRel.from_pairs(n, [(0, x) for x in range(1, n)],
                                      reflexive=True, symmetric=True)
            witness = find_representation(Algebra(n), theta)
            assert witness is not None
            assert verify_representation(Algebra(n), theta, witness.rel)
            print("ok")
        """)
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_keep_test_reads_rows_the_closure_changed(self):
        # Branching on (1, 3) with c = 3 adds (1, 3), and f then adds
        # (f(1), f(3)) = (0, 1): row 0 meets row 2, so that child puts
        # (0, 2) outside theta into R∘R⁻ although rows 1 and 3 look fine.
        alg = Algebra(4, (OperationTable("f", 1, (0, 0, 0, 1)),))
        theta = BinRel.from_pairs(4, [(0, 1), (1, 2), (1, 3)], reflexive=True, symmetric=True)
        witness = find_representation(alg, theta)
        assert witness is not None and verify_representation(alg, theta, witness.rel)

    def test_composite_grows_with_relation(self):
        # pruning on composites is sound because composition is monotone
        entry = corpus_get("five_set")
        theta = entry.relations["theta"]
        pairs = [p for p in theta.pairs() if p[0] != p[1]]
        for k in range(len(pairs)):
            small = BinRel.from_pairs(5, pairs[:k], reflexive=True)
            big = BinRel.from_pairs(5, pairs, reflexive=True)
            assert subset(compose(small, converse(small)), compose(big, converse(big)))


@cache
def reflexive_rows(n):
    """The rows of every reflexive relation on n points."""
    return list(product(*[[row for row in range(1 << n) if row >> a & 1] for a in range(n)]))


class TestCoverSearch:
    # The search on its own, with any cover and any forbidden set, the two
    # of which may overlap; representation and the weak search pass only
    # theta's complement or a single excluded pair.
    @settings(max_examples=150)
    @given(st.data())
    def test_agrees_with_brute_force(self, data):
        # two draws in three take an algebra with operations, n <= 3, whose
        # 64 or fewer reflexive relations the oracle tries; the third takes
        # an operation-free n = 4, with 4 096
        if data.draw(st.integers(0, 2)):
            alg = data.draw(algebras(max_n=3, max_arity=3))
        else:
            alg = Algebra(4)
        n = alg.n
        point = st.integers(0, n - 1)
        cover = sorted({(min(p), max(p)) for p in data.draw(st.lists(st.tuples(point, point)))
                        if p[0] != p[1]})
        forbidden = {(a, b) for p in data.draw(st.lists(st.tuples(point, point), max_size=4))
                     for a, b in (p, p[::-1]) if a != b}
        outside = [sum(1 << y for y in range(n) if (x, y) in forbidden) for x in range(n)]

        def fits(rows):
            return (all(rows[a] & rows[b] for a, b in cover)
                    and not any(rows[a] & rows[b] for a, b in forbidden))

        exists = any(fits(rows) and compatible_oracle(alg, BinRel(n, rows))
                     for rows in reflexive_rows(n))
        found = _cover_search(alg, cover, outside, lambda: None)
        assert (found is not None) == exists
        if found is not None:
            assert all(row >> a & 1 for a, row in enumerate(found.rows))
            assert compatible_oracle(alg, found)
            assert fits(found.rows)


class TestExhaustiveOracle:
    def test_guard_on_large_theta(self):
        with pytest.raises(BudgetExceeded):
            exhaustive_representation(Algebra(6), BinRel.full(6))

    def test_small_sweep_matches_search(self):
        alg = Algebra(3)
        for theta in all_reflexive_symmetric(3):
            fast = find_representation(alg, theta)
            slow = exhaustive_representation(alg, theta)
            assert (fast is None) == (slow is None)


class TestVerifyRepresentation:
    def test_accepts_congruence_as_own_witness(self):
        entry = corpus_get("chain(4)")
        for cong in enumerate_congruences(entry.algebra):
            assert verify_representation(entry.algebra, cong, cong)

    def test_rejects_wrong_composite(self):
        alg = Algebra(3)
        theta = BinRel.from_pairs(3, [(0, 1)], reflexive=True, symmetric=True)
        assert not verify_representation(alg, theta, BinRel.full(3))

    def test_rejects_irreflexive_witness(self):
        alg = Algebra(2)
        assert not verify_representation(alg, BinRel.diagonal(2), BinRel.empty(2))

    def test_rejects_incompatible_witness(self):
        alg = corpus_get("s7_semilattice").algebra
        rel = BinRel.from_pairs(7, [(0, 1)], reflexive=True)
        assert not is_compatible(alg, rel)
        assert not verify_representation(alg, compose(rel, converse(rel)), rel)


class TestRepresentViaOrder:
    def test_m3_full(self):
        entry = corpus_get("m3")
        theta = BinRel.full(5)
        witness = represent_via_order(entry.algebra, "join", "meet", theta)
        assert witness.rel == entry.relations["leq"]
        assert verify_representation(entry.algebra, theta, witness.rel)

    def test_diagonal(self):
        entry = corpus_get("n5")
        witness = represent_via_order(entry.algebra, "join", "meet", BinRel.diagonal(5))
        assert witness.rel == BinRel.diagonal(5)

    def test_n5_principal_tolerance(self):
        entry = corpus_get("n5")
        alg = entry.algebra
        from tolrep import closure

        theta = closure(alg, [(0, 1)], "reflexive-symmetric")
        witness = represent_via_order(alg, "join", "meet", theta)
        assert witness.rel == intersect(theta, entry.relations["leq"])
        assert verify_representation(alg, theta, witness.rel)

    def test_rejects_non_semilattice_join(self):
        bad = Algebra(2, (OperationTable("j", 2, (1, 0, 0, 1)), OperationTable("m", 2, (0, 0, 0, 1))))
        with pytest.raises(ValueError, match="idempotent"):
            represent_via_order(bad, "j", "m", BinRel.full(2))

    def test_rejects_broken_absorption(self):
        join = OperationTable.from_function("join", 2, 2, max)
        bad_meet = OperationTable("meet", 2, (0, 0, 0, 0))
        alg = Algebra(2, (join, bad_meet))
        with pytest.raises(ValueError, match="absorption"):
            represent_via_order(alg, "join", "meet", BinRel.full(2))

    def test_rejects_non_binary_operations(self):
        alg = Algebra(2, (OperationTable("j", 1, (0, 1)), OperationTable("m", 2, (0, 0, 0, 1))))
        with pytest.raises(ValueError, match="binary"):
            represent_via_order(alg, "j", "m", BinRel.full(2))

    def test_rejects_non_commutative_join(self):
        left = OperationTable.from_function("j", 2, 2, lambda x, y: x)
        alg = Algebra(2, (left, OperationTable.from_function("m", 2, 2, min)))
        with pytest.raises(ValueError, match="commutative"):
            represent_via_order(alg, "j", "m", BinRel.full(2))

    def test_rejects_broken_first_absorption(self):
        join = OperationTable.from_function("join", 2, 2, max)
        right = OperationTable.from_function("meet", 2, 2, lambda x, y: y)
        with pytest.raises(ValueError, match=r"meet\(a, join\(a, b\)\) = a"):
            represent_via_order(Algebra(2, (join, right)), "join", "meet", BinRel.full(2))

    def test_rejects_non_associative_join(self):
        # 0, 1 < 2, 3 < 4: join picks the upper bound 2 for {0, 1}, so
        # (0 v 1) v 3 = 4 but 0 v (1 v 3) = 3; meet is the lower of two
        # comparable elements, so both absorption identities hold
        up = {0: {0, 2, 3, 4}, 1: {1, 2, 3, 4}, 2: {2, 4}, 3: {3, 4}, 4: {4}}

        def join(x, y):
            return min(up[x] & up[y])

        def meet(x, y):
            return x if y in up[x] else y if x in up[y] else 0

        alg = Algebra(5, (OperationTable.from_function("join", 2, 5, join),
                          OperationTable.from_function("meet", 2, 5, meet)))
        with pytest.raises(ValueError, match="associative"):
            represent_via_order(alg, "join", "meet", BinRel.full(5))

    def test_rejects_incompatible_order(self):
        chain2 = corpus_get("chain(2)").algebra
        flip = OperationTable("flip", 1, (1, 0))
        alg = Algebra(2, (*chain2.ops, flip))
        with pytest.raises(ValueError, match="not compatible"):
            represent_via_order(alg, "join", "meet", BinRel.full(2))

    def test_every_lattice_tolerance(self):
        for name in ("m3", "n5", "chain(4)", "chain(2)"):
            entry = corpus_get(name)
            for theta in enumerate_tolerances(entry.algebra):
                witness = represent_via_order(entry.algebra, "join", "meet", theta)
                assert verify_representation(entry.algebra, theta, witness.rel)


class TestAdmissibleEnumeration:
    def test_no_ops_counts(self):
        assert len(enumerate_admissible(Algebra(2)).relations) == 4
        assert len(enumerate_admissible(Algebra(3)).relations) == 64

    def test_truncation(self):
        got = enumerate_admissible(Algebra(3), limit=10)
        assert got.truncated
        assert len(got.relations) == 10

    def test_all_admissible_and_distinct(self):
        entry = corpus_get("s7_semilattice")
        got = enumerate_admissible(entry.algebra, limit=500)
        assert len(set(got.relations)) == len(got.relations)
        for rel in got.relations:
            assert classify_relation(entry.algebra, rel).admissible

    def test_expansion_census(self):
        entry = corpus_get("expand_five")
        theta = entry.relations["theta"]
        got = enumerate_admissible(entry.algebra)
        assert not got.truncated
        assert len(got.relations) == 257
        others = [r for r in got.relations if r != BinRel.diagonal(5)]
        assert all(subset(theta, r) for r in others)

    @settings(max_examples=40)
    @given(algebras(max_n=4, max_arity=3))
    def test_matches_bfs_oracle(self, alg):
        expected = list(admissible_bfs_oracle(alg))
        assert list(iter_admissible(alg)) == expected
        count = len(expected)
        for limit in {1, count - 1, count, count + 1} - {0}:
            got = enumerate_admissible(alg, limit)
            assert got.relations == tuple(expected[:limit])
            assert got.truncated == (count > limit)

    @pytest.mark.parametrize("name, limit", [("s7_semilattice", 300), ("l7_majority", 30)])
    def test_corpus_prefix_matches_bfs_oracle(self, name, limit):
        alg = corpus_get(name).algebra
        got = enumerate_admissible(alg, limit)
        assert got.relations == tuple(islice(admissible_bfs_oracle(alg), limit))
        assert got.truncated


class TestWeakRepresentation:
    def test_five_set(self):
        entry = corpus_get("five_set")
        theta = entry.relations["theta"]
        witness = find_weak_representation(entry.algebra, theta)
        assert witness is not None
        assert len(witness.separators) == 8
        assert verify_weak_representation(entry.algebra, theta, witness)

    def test_expansion_has_none(self):
        entry = corpus_get("expand_five")
        assert find_weak_representation(entry.algebra, entry.relations["theta"]) is None

    def test_full_theta_needs_no_separators(self):
        alg = corpus_get("m3").algebra
        witness = find_weak_representation(alg, BinRel.full(5))
        assert witness is not None
        assert witness.separators == {}
        assert verify_weak_representation(alg, BinRel.full(5), witness)

    def test_diagonal_theta(self):
        alg = Algebra(3)
        witness = find_weak_representation(alg, BinRel.diagonal(3))
        assert witness is not None
        assert len(witness.separators) == 6
        assert verify_weak_representation(alg, BinRel.diagonal(3), witness)

    def test_no_ops_always_weakly_representable(self):
        for theta in all_reflexive_symmetric(4):
            witness = find_weak_representation(Algebra(4), theta)
            assert witness is not None
            assert verify_weak_representation(Algebra(4), theta, witness)

    def test_representable_implies_weakly(self):
        alg = Algebra(3)
        for theta in all_reflexive_symmetric(3):
            if find_representation(alg, theta) is not None:
                assert find_weak_representation(alg, theta) is not None

    def test_verify_rejects_missing_pair(self):
        entry = corpus_get("five_set")
        theta = entry.relations["theta"]
        witness = find_weak_representation(entry.algebra, theta)
        clipped = type(witness)(dict(list(witness.separators.items())[:-1]))
        assert not verify_weak_representation(entry.algebra, theta, clipped)

    @pytest.mark.parametrize("corruption", [
        "extra key", "other universe", "not reflexive", "incompatible",
        "composite misses theta", "composite holds key",
    ])
    def test_verify_rejects_corrupted_family(self, corruption):
        # five_set has no operations, so only s7_semilattice can hold an incompatible one
        entry = corpus_get("s7_semilattice" if corruption == "incompatible" else "five_set")
        alg, theta, n = entry.algebra, entry.relations["theta"], entry.algebra.n
        witness = find_weak_representation(alg, theta)
        assert verify_weak_representation(alg, theta, witness)
        separators = dict(witness.separators)
        key = next(iter(separators))
        if corruption == "extra key":
            separators[(0, 0)] = BinRel.diagonal(n)
        else:
            separators[key] = {
                "other universe": BinRel.diagonal(n + 1),
                "not reflexive": BinRel.from_pairs(n, [(a, a) for a in range(n - 1)]),
                # join(0, 0) = 0 but join(1, 0) = 6, and (0, 6) is missing
                "incompatible": BinRel.from_pairs(n, [(0, 1)], reflexive=True),
                "composite misses theta": BinRel.diagonal(n),
                "composite holds key": BinRel.full(n),
            }[corruption]
        assert not verify_weak_representation(alg, theta, type(witness)(separators))

    @pytest.mark.parametrize("size", [3, 6])
    def test_verifiers_reject_theta_of_other_size(self, size):
        entry = corpus_get("five_set")
        alg, theta = entry.algebra, entry.relations["theta"]
        witness = find_weak_representation(alg, theta)
        # the 6-point theta agrees with five_set's on the first five rows
        other = BinRel.diagonal(3) if size == 3 else BinRel(6, theta.rows + (1 << 5,))
        assert not verify_weak_representation(alg, other, witness)
        assert not verify_representation(alg, other, witness.separators[(0, 4)])

    @pytest.mark.parametrize("name", ["s7_semilattice", "l7_majority"])
    def test_corpus_with_operations(self, name):
        entry = corpus_get(name)
        theta = entry.relations["theta"]
        witness = find_weak_representation(entry.algebra, theta)
        assert witness is not None
        assert verify_weak_representation(entry.algebra, theta, witness)
        assert_first_fit_reuse(witness)

    def test_expansions_agree_with_enumeration_oracle(self):
        answers = set()
        for n in (3, 4):
            for theta in all_reflexive_symmetric(n):
                alg = expand(Algebra(n), theta)
                fast = find_weak_representation(alg, theta)
                slow = weak_representation_oracle(alg, theta)
                assert (fast is None) == (slow is None)
                assert fast is None or verify_weak_representation(alg, theta, fast)
                answers.add(fast is None)
        assert answers == {True, False}

    def test_separator_may_leave_theta(self):
        # the separator for (3, 4) needs the pair (1, 0), which theta lacks
        alg = Algebra(5, (OperationTable("f", 1, (4, 4, 2, 2, 0)),
                          OperationTable("g", 1, (2, 4, 0, 4, 3))))
        theta = BinRel(5, [29, 6, 31, 13, 21])
        witness = find_weak_representation(alg, theta)
        assert witness is not None
        assert verify_weak_representation(alg, theta, witness)
        assert weak_representation_oracle(alg, theta) is not None
        assert not subset(witness.separators[(3, 4)], theta)

    def test_five_set_reuses_separators(self):
        # 8 keys are 4 unordered pairs, and a search runs only for a pair
        # that no separator found so far keeps apart
        entry = corpus_get("five_set")
        witness = find_weak_representation(entry.algebra, entry.relations["theta"])
        assert len(witness.separators) == 8
        assert len(set(witness.separators.values())) < 4
        assert_first_fit_reuse(witness)

    def test_budget(self):
        # s7_semilattice needs 26 relations across its separator searches
        entry = corpus_get("s7_semilattice")
        with pytest.raises(BudgetExceeded):
            find_weak_representation(entry.algebra, entry.relations["theta"], rel_budget=5)

    @given(st.data())
    def test_agrees_with_enumeration_oracle(self, data):
        alg = data.draw(algebras(max_n=4, max_ops=2, max_arity=3))
        point = st.integers(0, alg.n - 1)
        seed = data.draw(st.lists(st.tuples(point, point), max_size=3))
        theta = closure(alg, seed, "reflexive-symmetric")
        if data.draw(st.booleans()):
            # expansions make "no" answers common
            alg = expand(alg, theta)
        fast = find_weak_representation(alg, theta)
        slow = weak_representation_oracle(alg, theta)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert verify_weak_representation(alg, theta, fast)
            assert verify_weak_representation(alg, theta, slow)
            assert_first_fit_reuse(fast)
            # the keys come row-major, as weak-represent prints them
            assert list(fast.separators) == sorted(fast.separators)


def assert_first_fit_reuse(witness):
    """Row-major over the keys a < b, each is served by the first separator
    used so far whose rows a and b do not meet, and by a new one only when
    there is none; both orders of a pair share its separator."""
    used = []
    for a, b in sorted(key for key in witness.separators if key[0] < key[1]):
        sep = witness.separators[a, b]
        assert witness.separators[b, a] == sep
        assert not sep.rows[a] & sep.rows[b]
        apart = [old for old in used if not old.rows[a] & old.rows[b]]
        if apart:
            assert sep == apart[0]
        else:
            used.append(sep)


def tolerance_of(pairs):
    return BinRel.from_pairs(7, [(int(a), int(b)) for a, b in pairs.split()],
                             reflexive=True, symmetric=True)


# The costliest s7_semilattice tolerance for a covering search without
# the forward check (9 580 relations to say no); pinned at 95 below, so a
# search that loses the check fails fast instead of running for seconds.
HARD_NO = tolerance_of("01 02 03 06 12 13 16 23 24 25 26 34 35 36 45 46 56")

# Fail-first branching breaks ties by index.  A tie rule that first
# prefers the pairs with the fewest allowed candidates takes 199 relations
# to say no on both algebras instead of 35.
INDEX_TIES = tolerance_of("02 03 04 05 06 15 16 23 24 25 26 34 36 46 56")


class TestRelationsBuilt:
    # N is the number of relations each search builds to decide, one
    # spend() per relation: budget N decides and budget N - 1 runs out.
    # The counts pin the branching order as well as the pruning.  A name
    # ending in ":hard_no" or ":index_ties" decides HARD_NO or INDEX_TIES
    # instead of the entry's theta.
    @pytest.mark.parametrize("name, search, what, need, answer", [
        ("five_set", find_representation, "node", 10, False),
        ("s7_semilattice", find_representation, "node", 12, False),
        ("l7_majority", find_representation, "node", 12, False),
        ("expand_five", find_representation, "node", 2, False),
        ("theta_ab(5,1,3)", find_representation, "node", 5, True),
        ("five_set", find_weak_representation, "relation", 15, True),
        ("s7_semilattice", find_weak_representation, "relation", 26, True),
        ("l7_majority", find_weak_representation, "relation", 26, True),
        ("expand_five", find_weak_representation, "relation", 4, False),
        ("theta_ab(5,1,3)", find_weak_representation, "relation", 5, True),
        ("s7_semilattice:hard_no", find_representation, "node", 95, False),
        ("l7_majority:hard_no", find_representation, "node", 95, False),
        ("s7_semilattice:hard_no", find_weak_representation, "relation", 32, True),
        ("l7_majority:hard_no", find_weak_representation, "relation", 32, True),
        ("s7_semilattice:index_ties", find_representation, "node", 35, False),
        ("l7_majority:index_ties", find_representation, "node", 35, False),
    ])
    def test_budget_edge(self, name, search, what, need, answer):
        name, _, which = name.partition(":")
        entry = corpus_get(name)
        theta = {"": entry.relations.get("theta"), "hard_no": HARD_NO,
                 "index_ties": INDEX_TIES}[which]
        with pytest.raises(BudgetExceeded, match=f"^{what} budget of {need - 1} exhausted$"):
            search(entry.algebra, theta, need - 1)
        assert (search(entry.algebra, theta, need) is not None) == answer


class TestRelabelling:
    # Renaming the elements gives an isomorphic algebra, so both answers
    # must survive it.  The witnesses may differ, since the search's
    # branching order depends on the labels, but each must check out, and
    # so must the renamed witness of the original.
    @given(st.data())
    def test_answers_survive_relabelling(self, data):
        alg = data.draw(algebras(max_n=4, max_ops=2, max_arity=3))
        point = st.integers(0, alg.n - 1)
        seed = data.draw(st.lists(st.tuples(point, point), max_size=3))
        theta = closure(alg, seed, "reflexive-symmetric")
        if data.draw(st.booleans()):
            alg = expand(alg, theta)
        perm = data.draw(st.permutations(range(alg.n)))
        palg, ptheta = relabel_algebra(alg, perm), relabel(theta, perm)

        found = find_representation(alg, theta)
        moved = find_representation(palg, ptheta)
        assert (found is None) == (moved is None)
        if found is not None:
            assert verify_representation(palg, ptheta, moved.rel)
            assert verify_representation(palg, ptheta, relabel(found.rel, perm))

        found = find_weak_representation(alg, theta)
        moved = find_weak_representation(palg, ptheta)
        assert (found is None) == (moved is None)
        if found is not None:
            assert verify_weak_representation(palg, ptheta, moved)
            image = WeakRepWitness({(perm[a], perm[b]): relabel(sep, perm)
                                    for (a, b), sep in found.separators.items()})
            assert verify_weak_representation(palg, ptheta, image)


NOT_A_TOLERANCE = ("^relation is not a tolerance of the algebra "
                   r"\(needs reflexivity, symmetry and compatibility\)$")

# reflexive and symmetric, but f maps (0, 1) to (1, 2); both searches run
# out at budget 1 and find nothing at the default
SHIFT = Algebra(3, (OperationTable("f", 1, (1, 2, 2)),))
SHIFT_THETA = BinRel.from_pairs(3, [(0, 1)], reflexive=True, symmetric=True)


class TestToleranceGate:
    # Both searches test only size, reflexivity and symmetry up front, and
    # leave compatibility to the full check when they find no witness.
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rejects_exactly_the_non_tolerances(self, data):
        alg = data.draw(algebras(max_arity=3))
        n = alg.n
        theta = data.draw(binrels_on(n, reflexive=True, symmetric=True))
        if data.draw(st.integers(0, 3)) == 0:
            a, b = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
            theta = BinRel(n, [row ^ (a == x) << b for x, row in enumerate(theta.rows)])
        tolerance = classify_relation(alg, theta).tolerance
        for search, oracle, verify in (
                (find_representation, exhaustive_representation,
                 lambda w: verify_representation(alg, theta, w.rel)),
                (find_weak_representation, weak_representation_oracle,
                 lambda w: verify_weak_representation(alg, theta, w))):
            for budget in (None, 1):
                args = (alg, theta) if budget is None else (alg, theta, budget)
                if not tolerance:
                    with pytest.raises(ValueError, match=NOT_A_TOLERANCE):
                        search(*args)
                    continue
                try:
                    found = search(*args)
                except BudgetExceeded:
                    assert budget == 1
                    continue
                assert (found is None) == (oracle(alg, theta) is None)
                assert found is None or verify(found)

    @pytest.mark.parametrize("search", [find_representation, find_weak_representation])
    def test_incompatible_theta_out_of_budget(self, search):
        with pytest.raises(ValueError, match=NOT_A_TOLERANCE):
            search(SHIFT, SHIFT_THETA, 1)

    @pytest.mark.parametrize("search", [find_representation, find_weak_representation])
    def test_wrong_size(self, search):
        with pytest.raises(DimensionError, match="^relation lives on 4 elements, algebra on 3$"):
            search(SHIFT, BinRel.diagonal(4))

    def test_full_theta_certifies_itself(self):
        # the empty family needs no relation built, so a budget of 0 decides
        alg = corpus_get("l7_majority").algebra
        assert find_weak_representation(alg, BinRel.full(7), 0).separators == {}


class TestNegativeBudgets:
    @pytest.mark.parametrize("call, message", [
        (lambda alg, theta: find_representation(alg, theta, node_budget=-1), "node budget"),
        (lambda alg, theta: find_weak_representation(alg, theta, rel_budget=-1),
         "relation budget"),
        (lambda alg, theta: enumerate_tolerances(alg, limit=-1), "tolerance limit"),
        (lambda alg, theta: enumerate_congruences(alg, limit=-1), "congruence limit"),
        (lambda alg, theta: check_permutability(alg, limit=-1), "congruence limit"),
    ], ids=["represent", "weak", "tolerances", "congruences", "permutability"])
    def test_is_a_value_error(self, call, message):
        entry = corpus_get("five_set")
        with pytest.raises(ValueError, match=f"^{message} must not be negative, got -1$"):
            call(entry.algebra, entry.relations["theta"])

    # A negative budget is reported before anything about theta: its size,
    # its shape or its compatibility.
    @pytest.mark.parametrize("theta", [
        SHIFT_THETA, BinRel.from_pairs(3, [(0, 1)], reflexive=True), BinRel.diagonal(4),
    ], ids=["incompatible", "not symmetric", "wrong size"])
    @pytest.mark.parametrize("search, message", [
        (find_representation, "node budget"), (find_weak_representation, "relation budget"),
    ], ids=["represent", "weak"])
    def test_comes_before_theta(self, search, message, theta):
        with pytest.raises(ValueError, match=f"^{message} must not be negative, got -1$"):
            search(SHIFT, theta, -1)


class TestToleranceEnumeration:
    def test_no_ops_three(self):
        got = enumerate_tolerances(Algebra(3))
        assert len(got) == 8

    def test_sorted_by_size(self):
        got = enumerate_tolerances(Algebra(3))
        sizes = [rel.pair_count() for rel in got]
        assert sizes == sorted(sizes)
        assert got[0] == BinRel.diagonal(3)
        assert got[-1] == BinRel.full(3)

    def test_chain_counts(self):
        entry = corpus_get("chain(4)")
        assert len(enumerate_tolerances(entry.algebra)) == 14
        assert len(enumerate_congruences(entry.algebra)) == 8

    def test_limit(self):
        with pytest.raises(BudgetExceeded):
            enumerate_tolerances(Algebra(4), limit=3)
        # the diagonal counts too
        with pytest.raises(BudgetExceeded):
            enumerate_tolerances(Algebra(1), limit=0)

    def test_congruence_limit(self):
        # Bell(4) = 15 equivalence relations on a bare 4-element universe
        with pytest.raises(BudgetExceeded):
            enumerate_congruences(Algebra(4), limit=3)
        with pytest.raises(BudgetExceeded):
            enumerate_congruences(Algebra(1), limit=0)

    @given(algebras(max_n=4, max_ops=1))
    def test_matches_brute_force(self, alg):
        got = set(enumerate_tolerances(alg))
        want = {rel for rel in all_reflexive_symmetric(alg.n) if is_compatible(alg, rel)}
        assert got == want

    @given(algebras(max_n=4, max_ops=1))
    def test_congruences_are_exactly_transitive_tolerances(self, alg):
        tols = enumerate_tolerances(alg)
        congs = enumerate_congruences(alg)
        assert congs == [t for t in tols if subset(compose(t, t), t)]
        for cong in congs:
            assert classify_relation(alg, cong).congruence

    def test_semilattice_census(self):
        # the tolerance lattice of s7 runs to thousands of members, so the
        # congruence enumeration must not route through it
        s7 = corpus_get("s7_semilattice").algebra
        congs = enumerate_congruences(s7)
        assert len(congs) == 64
        for cong in congs:
            assert classify_relation(s7, cong).congruence

    def test_bare_universe_gives_bell_number(self):
        assert len(enumerate_congruences(Algebra(5))) == 52

    @settings(max_examples=100)
    @given(algebras(max_n=4, max_arity=3) | symmetric_algebras())
    def test_matches_join_closure_oracle(self, alg):
        assert enumerate_tolerances(alg) == join_closure_oracle(alg, "tolerances")
        assert enumerate_congruences(alg) == join_closure_oracle(alg, "congruences")

    @settings(max_examples=60)
    @given(symmetric_algebras(max_n=3))
    def test_admissible_matches_join_closure_oracle_on_symmetric_operations(self, alg):
        # On four points a projection keeps all 4 096 reflexive relations,
        # too many for the oracle's pairwise joins.
        admissible = enumerate_admissible(alg, limit=10**5)
        assert not admissible.truncated
        assert sorted(admissible.relations, key=lambda r: (r.pair_count(), r.rows)) == \
            join_closure_oracle(alg, "admissible")

    @settings(max_examples=40)
    @given(algebras(max_n=4, max_arity=3), st.sampled_from(["tolerances", "congruences"]))
    def test_limit_raises_exactly_past_the_count(self, alg, kind):
        enumerate_kind = enumerate_tolerances if kind == "tolerances" else enumerate_congruences
        count = len(join_closure_oracle(alg, kind))
        for limit in {1, count - 1, count, count + 1} - {0}:
            if count > limit:
                with pytest.raises(BudgetExceeded):
                    enumerate_kind(alg, limit=limit)
            else:
                assert len(enumerate_kind(alg, limit=limit)) == count

    def test_five_set_tolerances(self):
        # no operations: every reflexive symmetric relation, 2**10 of them
        assert len(enumerate_tolerances(corpus_get("five_set").algebra)) == 2**10

    def test_majority_congruences(self):
        l7 = corpus_get("l7_majority").algebra
        congs = enumerate_congruences(l7)
        assert len(congs) == 64
        for cong in congs:
            assert classify_relation(l7, cong).congruence

    def test_expansion_congruences(self):
        assert len(enumerate_congruences(corpus_get("expand_five").algebra)) == 2


class TestCongruenceClose:
    @settings(max_examples=60)
    @given(algebras(max_n=4, max_arity=3) | symmetric_algebras() | expanded_algebras(),
           st.data())
    def test_matches_alternating_oracle(self, alg, data):
        # The transitive closure of a closed tolerance, or of the union of
        # two congruences, is already compatible: no re-closure is needed.
        tol = data.draw(st.sampled_from(enumerate_tolerances(alg)))
        cong = _congruence_close(BinRel.diagonal(alg.n), tol)
        assert cong == congruence_close_oracle(alg, tol) == warshall_close_oracle(tol)
        assert subset(tol, cong) and subset(compose(cong, cong), cong)
        assert compatible_oracle(alg, cong)
        congruences = st.sampled_from(enumerate_congruences(alg))
        alpha, beta = data.draw(congruences), data.draw(congruences)
        both = union(alpha, beta)
        joined = _congruence_close(alpha, beta)
        assert joined == congruence_close_oracle(alg, both) == warshall_close_oracle(both)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_least_equivalence_of_every_partition_and_symmetric_relation(self, n):
        # With no operations to respect, the result is the least equivalence
        # holding both arguments, which Warshall computes.  Every partition
        # of n points against every reflexive symmetric relation: some
        # failures of a row that merges only one class need n = 5.
        partitions = {BinRel(n, [sum(1 << b for b in range(n) if blocks[b] == blocks[a])
                                 for a in range(n)])
                      for blocks in product(range(n), repeat=n)}
        pairs = list(combinations(range(n), 2))
        for rel in partitions:
            for k in range(len(pairs) + 1):
                for chosen in combinations(pairs, k):
                    extra = BinRel.from_pairs(n, chosen, reflexive=True, symmetric=True)
                    assert _congruence_close(rel, extra) == warshall_close_oracle(union(rel, extra))

    def test_merge_cascades_into_a_class_merged_earlier(self):
        # Row 1 merges {0, 1} with {2, 3}; row 3 then merges that class with {4, 5}.
        rel = BinRel.from_pairs(6, [(0, 1), (2, 3), (4, 5)], reflexive=True, symmetric=True)
        extra = BinRel.from_pairs(6, [(1, 2), (3, 4)], reflexive=True, symmetric=True)
        assert _congruence_close(rel, extra) == BinRel.full(6)


class TestJoinClosure:
    @settings(max_examples=60)
    @given(algebras(max_n=4, max_arity=3),
           st.sampled_from(["admissible", "tolerance", "congruence"]))
    def test_matches_every_principal_oracle(self, alg, kind):
        bottom, pairs, join = join_arguments(alg, kind)
        expected = list(join_every_principal_oracle(bottom, pairs, join))
        assert list(_join_closure(bottom, pairs, join)) == expected
        count = len(expected)
        with pytest.raises(BudgetExceeded):
            _lattice(_join_closure(bottom, pairs, join), count - 1, kind)
        assert (_lattice(_join_closure(bottom, pairs, join), count, kind)
                == _lattice(iter(expected), count, kind))

    @settings(max_examples=60)
    @given(algebras(max_n=4, max_arity=3),
           st.sampled_from(["admissible", "tolerance", "congruence"]))
    def test_principals_come_largest_first(self, alg, kind):
        # the principals by their definition, with no kernel closure
        n, symmetric = alg.n, kind != "admissible"
        row_major = [(a, b) for a in range(n) for b in range(n) if a < b or (a > b and not symmetric)]
        principal = [closure_oracle(alg, [pair], symmetric) for pair in row_major]
        if kind == "congruence":
            principal = [congruence_close_oracle(alg, rel) for rel in principal]
        first = {}  # each distinct principal -> the index of its first pair
        for i, rel in enumerate(principal):
            first.setdefault(rel, i)
        bottom, pairs, join = join_arguments(alg, kind)
        got = list(islice(_join_closure(bottom, pairs, join), 1, len(first) + 1))
        assert set(got) == set(first)
        keys = [(-rel.pair_count(), first[rel]) for rel in got]
        assert keys == sorted(keys)

    @settings(max_examples=40)
    @given(algebras(max_n=4, max_arity=3) | symmetric_algebras(max_n=3))
    def test_listed_relations_drop_their_codes(self, alg):
        # a listed relation keeps no kernel codes, yet still reads them off its rows
        diag = BinRel.diagonal(alg.n)
        admissible = enumerate_admissible(alg, limit=10**5)
        assert not admissible.truncated
        for rel in (*admissible.relations, *enumerate_tolerances(alg),
                    *enumerate_congruences(alg)):
            if rel != diag:
                assert rel._codes is None
                assert list(rel._pair_codes()) == [a * alg.n + b for a, b in rel.pairs()]

    @settings(max_examples=60)
    @given(algebras(max_n=4, max_arity=3), st.data())
    def test_lists_the_admissible_relations_inside_a_tolerance(self, alg, data):
        # Θ is admissible, so the principal of each of its pairs, and every
        # join of relations inside Θ, stays inside Θ: given Θ's pairs, the
        # admissible enumeration lists exactly the admissible R ⊆ Θ.
        n = alg.n
        point = st.integers(0, n - 1)
        seed = data.draw(st.lists(st.tuples(point, point), max_size=4))
        theta = closure(alg, seed, "reflexive-symmetric")
        off = [(a, b) for a, b in theta.pairs() if a != b]
        bottom, _, join = join_arguments(alg, "admissible")
        got = list(_join_closure(bottom, off, join))
        subsets = (BinRel.from_pairs(n, chosen, reflexive=True)
                   for k in range(len(off) + 1) for chosen in combinations(off, k))
        assert len(got) == len(set(got))
        assert set(got) == {rel for rel in subsets if compatible_oracle(alg, rel)}

    @staticmethod
    def members_and_joins(name, kind):
        """How many members _join_closure lists for a corpus entry, and how many joins it calls."""
        bottom, pairs, join = join_arguments(corpus_get(name).algebra, kind)
        calls = 0

        def counted(rel, pair):
            nonlocal calls
            calls += 1
            return join(rel, pair)

        return sum(1 for _ in _join_closure(bottom, pairs, counted)), calls

    @pytest.mark.parametrize("name, kind, members, joins", [
        ("five_set", "tolerance", 1024, 1023),
        ("s7_semilattice", "tolerance", 40069, 40068),
        ("chain(6)", "tolerance", 132, 131),
        ("chain(6)", "admissible", 17424, 17423),
    ])
    def test_every_join_lists_a_new_member(self, name, kind, members, joins):
        # joining every item with every principal takes 5 120 and 330 120
        # joins for the first two tolerance listings
        assert self.members_and_joins(name, kind) == (members, joins)

    @pytest.mark.parametrize("name, members, joins", [
        ("five_set", 52, 161),
        ("chain(6)", 32, 77),
        ("s7_semilattice", 64, 462),
        ("l7_majority", 64, 462),
        ("n5", 5, 11),
        ("m3", 2, 10),
    ])
    def test_congruence_joins(self, name, members, joins):
        # Principals included.  A congruence join often lands on a member
        # reached another way, which the prefix rule does not skip.
        assert self.members_and_joins(name, "congruence") == (members, joins)


class TestToleranceJoin:
    def test_example(self):
        alg = Algebra(3)
        a = BinRel.from_pairs(3, [(0, 1)], reflexive=True, symmetric=True)
        b = BinRel.from_pairs(3, [(1, 2)], reflexive=True, symmetric=True)
        joined = tolerance_join(alg, a, b)
        # no operations: join of tolerances is their union
        assert joined == (a | b)

    def test_join_is_least_upper_bound(self):
        entry = corpus_get("chain(4)")
        alg = entry.algebra
        tols = enumerate_tolerances(alg)
        for a in tols[:6]:
            for b in tols[:6]:
                joined = tolerance_join(alg, a, b)
                assert subset(a, joined) and subset(b, joined)
                assert classify_relation(alg, joined).tolerance
                uppers = [t for t in tols if subset(a, t) and subset(b, t)]
                assert min(uppers, key=lambda t: t.pair_count()).pair_count() == joined.pair_count()

    def test_rejects_non_tolerance(self):
        alg = Algebra(2)
        with pytest.raises(ValueError):
            tolerance_join(alg, BinRel.from_pairs(2, [(0, 1)], reflexive=True), BinRel.diagonal(2))

    @given(st.data())
    def test_congruence_join_inside_composite(self, data):
        alg = data.draw(algebras(max_n=4, max_ops=1))
        congs = enumerate_congruences(alg)
        a = data.draw(st.sampled_from(congs))
        b = data.draw(st.sampled_from(congs))
        assert subset(tolerance_join(alg, a, b), compose(b, a))


class TestPermutability:
    def test_no_ops_three_fails(self):
        report = check_permutability(Algebra(3))
        assert not report.permutable
        alpha, beta, pair = report.counterexample
        assert classify_relation(Algebra(3), alpha).congruence
        assert classify_relation(Algebra(3), beta).congruence
        assert compose(alpha, beta).has(*pair)
        assert not compose(beta, alpha).has(*pair)

    def test_semilattice_fails(self):
        s7 = corpus_get("s7_semilattice").algebra
        report = check_permutability(s7)
        assert not report.permutable
        alpha, beta, pair = report.counterexample
        assert compose(alpha, beta).has(*pair)
        assert not compose(beta, alpha).has(*pair)

    def test_single_element(self):
        assert check_permutability(Algebra(1)).permutable

    def test_simple_lattice(self):
        entry = corpus_get("m3")
        assert check_permutability(entry.algebra).permutable

    @given(algebras(max_n=4, max_ops=1))
    def test_report_matches_definition(self, alg):
        congs = enumerate_congruences(alg)
        truth = all(compose(a, b) == compose(b, a) for a in congs for b in congs)
        assert check_permutability(alg).permutable == truth

    @settings(max_examples=40)
    @given(algebras(max_n=4, max_ops=1))
    def test_all_tolerances_transitive_implies_permutable(self, alg):
        if enumerate_tolerances(alg) == enumerate_congruences(alg):
            assert check_permutability(alg).permutable
