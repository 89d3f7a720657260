from itertools import combinations

import pytest

from tolrep import (
    BinRel,
    classify_relation,
    classify_shape,
    corpus_get,
    corpus_names,
    eval_op,
    expand,
    is_compatible,
    subset,
    verify_representation,
)
from tolrep.corpus import _lattice_ops, chain, theta_ab
from tolrep.document import MAX_SIZE


class TestCatalogue:
    def test_names_are_sorted_and_complete(self):
        names = corpus_names()
        assert names == sorted(names[:-2]) + ["chain(k)", "theta_ab(n,a,b)"]
        for name in names[:-2]:
            assert corpus_get(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown corpus entry"):
            corpus_get("petersen")

    def test_every_entry_has_notes(self):
        for name in corpus_names()[:-2]:
            entry = corpus_get(name)
            assert entry.notes
            assert entry.relations

    def test_parametric_validation(self):
        with pytest.raises(ValueError):
            corpus_get("chain(0)")
        with pytest.raises(ValueError):
            corpus_get("theta_ab(3,1,1)")
        with pytest.raises(ValueError):
            corpus_get("theta_ab(3,1,5)")
        with pytest.raises(ValueError, match="at least two elements"):
            corpus_get("theta_ab(1,0,0)")
        with pytest.raises(ValueError, match="not a lattice"):
            _lattice_ops(2, set())  # two incomparable elements have no join

    def test_size_bound(self):
        assert chain(MAX_SIZE).algebra.n == MAX_SIZE
        assert theta_ab(MAX_SIZE, 0, 1).algebra.n == MAX_SIZE
        # rejected before anything of that size is built, so this returns at once
        with pytest.raises(ValueError, match=f"at most {MAX_SIZE}"):
            chain(10**9)
        with pytest.raises(ValueError, match=f"at most {MAX_SIZE}"):
            chain(MAX_SIZE + 1)
        with pytest.raises(ValueError, match=f"at most {MAX_SIZE}"):
            theta_ab(MAX_SIZE + 1, 0, 1)


class TestFiveSet:
    def test_theta_shape(self):
        entry = corpus_get("five_set")
        theta = entry.relations["theta"]
        assert entry.algebra.n == 5
        assert entry.algebra.ops == ()
        assert theta.pair_count() == 17
        kind = classify_relation(entry.algebra, theta)
        assert kind.tolerance and not kind.congruence

    def test_excluded_pairs(self):
        theta = corpus_get("five_set").relations["theta"]
        excluded = {(a, b) for a in range(5) for b in range(5) if not theta.has(a, b)}
        assert excluded == {(0, 4), (4, 0), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)}

    def test_hub_structure(self):
        # 0 and 4 see all three middle elements, the middles see only the hubs
        theta = corpus_get("five_set").relations["theta"]
        for middle in (1, 2, 3):
            assert theta.has(0, middle) and theta.has(middle, 4)


class TestS7:
    def test_join_is_semilattice(self):
        alg = corpus_get("s7_semilattice").algebra
        for x in range(7):
            assert eval_op(alg, "join", (x, x)) == x
            for y in range(7):
                assert eval_op(alg, "join", (x, y)) == eval_op(alg, "join", (y, x))
                if x != y:
                    assert eval_op(alg, "join", (x, y)) == 6

    def test_theta_is_tolerance(self):
        entry = corpus_get("s7_semilattice")
        kind = classify_relation(entry.algebra, entry.relations["theta"])
        assert kind.tolerance and not kind.congruence

    def test_no_three_minimals_pairwise_connected(self):
        # the obstruction: any composite covering theta needs a common witness
        theta = corpus_get("s7_semilattice").relations["theta"]
        for trio in combinations(range(6), 3):
            linked = all(theta.has(a, b) for a, b in combinations(trio, 2))
            assert not linked

    def test_top_sees_everything(self):
        theta = corpus_get("s7_semilattice").relations["theta"]
        assert all(theta.has(6, x) for x in range(7))


class TestL7:
    def test_majority_identities(self):
        alg = corpus_get("l7_majority").algebra
        for x in range(7):
            for y in range(7):
                assert eval_op(alg, "f", (x, x, y)) == x
                assert eval_op(alg, "f", (x, y, x)) == x
                assert eval_op(alg, "f", (y, x, x)) == x

    def test_same_theta_as_semilattice(self):
        assert (
            corpus_get("l7_majority").relations["theta"]
            == corpus_get("s7_semilattice").relations["theta"]
        )

    def test_theta_is_tolerance(self):
        entry = corpus_get("l7_majority")
        assert classify_relation(entry.algebra, entry.relations["theta"]).tolerance

    def test_median_symmetry(self):
        # f is a lattice median, so it is invariant under permuting arguments
        alg = corpus_get("l7_majority").algebra
        for x in range(7):
            for y in range(7):
                for z in range(7):
                    vals = {
                        eval_op(alg, "f", (x, y, z)),
                        eval_op(alg, "f", (z, x, y)),
                        eval_op(alg, "f", (y, z, x)),
                        eval_op(alg, "f", (x, z, y)),
                    }
                    assert len(vals) == 1


def lattice_entries():
    return [corpus_get(name) for name in ("m3", "n5", "chain(2)", "chain(4)", "chain(5)")]


class TestLattices:
    def test_absorption_laws(self):
        for entry in lattice_entries():
            alg = entry.algebra
            for a in range(alg.n):
                for b in range(alg.n):
                    j = eval_op(alg, "join", (a, b))
                    assert eval_op(alg, "meet", (a, j)) == a
                    assert eval_op(alg, "join", (a, eval_op(alg, "meet", (a, b)))) == a

    def test_leq_shape(self):
        for entry in lattice_entries():
            leq = entry.relations["leq"]
            shape = classify_shape(leq)
            assert shape.reflexive and shape.transitive and not shape.symmetric
            assert is_compatible(entry.algebra, leq)

    def test_leq_matches_join(self):
        for entry in lattice_entries():
            alg = entry.algebra
            leq = entry.relations["leq"]
            for a in range(alg.n):
                for b in range(alg.n):
                    assert leq.has(a, b) == (eval_op(alg, "join", (a, b)) == b)

    def test_m3_atoms_incomparable(self):
        leq = corpus_get("m3").relations["leq"]
        for a, b in combinations((1, 2, 3), 2):
            assert not leq.has(a, b) and not leq.has(b, a)

    def test_n5_pentagon(self):
        leq = corpus_get("n5").relations["leq"]
        assert leq.has(1, 3)
        assert not leq.has(1, 2) and not leq.has(2, 1)
        assert not leq.has(2, 3) and not leq.has(3, 2)

    def test_chain_is_total(self):
        entry = corpus_get("chain(4)")
        leq = entry.relations["leq"]
        for a in range(4):
            for b in range(4):
                assert leq.has(a, b) == (a <= b)


class TestThetaAb:
    def test_bundled_witness(self):
        for n in range(2, 7):
            for a in range(n):
                for b in range(a + 1, n):
                    entry = corpus_get(f"theta_ab({n},{a},{b})")
                    theta = entry.relations["theta"]
                    rep = entry.relations["rep"]
                    missing = {(x, y) for x in range(n) for y in range(n) if not theta.has(x, y)}
                    assert missing == {(a, b), (b, a)}
                    assert verify_representation(entry.algebra, theta, rep)


class TestExpandFive:
    def test_matches_expand(self):
        entry = corpus_get("expand_five")
        base = corpus_get("five_set")
        rebuilt = expand(base.algebra, base.relations["theta"])
        assert entry.algebra == rebuilt
        assert entry.relations["theta"] == base.relations["theta"]

    def test_operations_map_into_theta_pairs(self):
        entry = corpus_get("expand_five")
        theta = entry.relations["theta"]
        for op in entry.algebra.ops:
            values = set(op.table)
            assert len(values) <= 2
            if len(values) == 2:
                a, b = sorted(values)
                assert theta.has(a, b)

    def test_principal_closures_swallow_theta(self):
        entry = corpus_get("expand_five")
        theta = entry.relations["theta"]
        from tolrep import closure

        for c in range(5):
            for d in range(5):
                if c != d:
                    assert subset(theta, closure(entry.algebra, [(c, d)], "reflexive"))
