import pytest
from hypothesis import given

from helpers import binrels, compose_oracle, rel_pairs, rel_triples
from tolrep import (
    BinRel,
    DimensionError,
    classify_shape,
    compose,
    converse,
    intersect,
    subset,
    union,
)


class TestConstruction:
    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            BinRel(0, [])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            BinRel(3, [0, 0])

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            BinRel(2, [0b100, 0])

    def test_diagonal(self):
        d = BinRel.diagonal(3)
        assert sorted(d.pairs()) == [(0, 0), (1, 1), (2, 2)]

    def test_full(self):
        f = BinRel.full(2)
        assert f.pair_count() == 4

    def test_empty(self):
        assert BinRel.empty(3).pair_count() == 0

    def test_from_pairs_closures(self):
        r = BinRel.from_pairs(3, [(0, 1)], reflexive=True, symmetric=True)
        assert sorted(r.pairs()) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]

    def test_has_range_check(self):
        r = BinRel.diagonal(2)
        assert r.has(0, 0)
        assert not r.has(0, 1)
        with pytest.raises(ValueError):
            r.has(2, 0)
        with pytest.raises(ValueError, match="out of range"):
            BinRel.from_pairs(2, [(0, 2)])

    def test_pairs_row_major(self):
        r = BinRel(3, [0b110, 0b001, 0])
        assert list(r.pairs()) == [(0, 1), (0, 2), (1, 0)]
        assert repr(r) == "BinRel(3, pairs=[(0, 1), (0, 2), (1, 0)])"


class TestOperations:
    def test_compose_example(self):
        r = BinRel.from_pairs(3, [(0, 1)])
        s = BinRel.from_pairs(3, [(1, 2)])
        assert sorted(compose(r, s).pairs()) == [(0, 2)]
        assert compose(s, r).pair_count() == 0

    def test_converse_example(self):
        r = BinRel.from_pairs(2, [(0, 1)])
        assert sorted(converse(r).pairs()) == [(1, 0)]

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            compose(BinRel.diagonal(2), BinRel.diagonal(3))
        with pytest.raises(DimensionError):
            subset(BinRel.diagonal(2), BinRel.diagonal(3))

    @given(rel_pairs())
    def test_compose_matches_oracle(self, pair):
        r, s = pair
        assert set(compose(r, s).pairs()) == compose_oracle(r, s)

    @given(binrels())
    def test_converse_involution(self, r):
        assert converse(converse(r)) == r

    @given(rel_pairs())
    def test_converse_antihomomorphism(self, pair):
        r, s = pair
        assert converse(compose(r, s)) == compose(converse(s), converse(r))

    @given(rel_triples())
    def test_compose_associative(self, triple):
        r, s, t = triple
        assert compose(compose(r, s), t) == compose(r, compose(s, t))

    @given(rel_triples())
    def test_compose_monotone(self, triple):
        r, s, t = triple
        big = union(r, s)
        assert subset(compose(r, t), compose(big, t))
        assert subset(compose(t, r), compose(t, big))

    @given(binrels(reflexive=True))
    def test_reflexive_sits_inside_own_composite(self, r):
        c = compose(r, converse(r))
        assert subset(r, c)
        assert subset(converse(r), c)
        assert c == converse(c)

    @given(rel_pairs())
    def test_intersect_union_bounds(self, pair):
        r, s = pair
        both = intersect(r, s)
        either = union(r, s)
        assert subset(both, r) and subset(both, s)
        assert subset(r, either) and subset(s, either)

    @given(binrels())
    def test_dunder_operators_agree(self, r):
        assert (r & r) == intersect(r, r) == r
        assert (r | r) == union(r, r) == r
        assert r <= r


class TestClassifyShape:
    def test_diagonal(self):
        shape = classify_shape(BinRel.diagonal(3))
        assert shape.reflexive and shape.symmetric and shape.transitive

    def test_full(self):
        shape = classify_shape(BinRel.full(3))
        assert shape.reflexive and shape.symmetric and shape.transitive

    def test_single_arrow(self):
        shape = classify_shape(BinRel.from_pairs(2, [(0, 1)], reflexive=True))
        assert shape.reflexive
        assert not shape.symmetric
        assert shape.transitive

    def test_broken_transitivity(self):
        r = BinRel.from_pairs(3, [(0, 1), (1, 2)], reflexive=True)
        assert not classify_shape(r).transitive

    @given(binrels())
    def test_symmetric_means_equal_to_converse(self, r):
        assert classify_shape(r).symmetric == (r == converse(r))

    @given(binrels())
    def test_transitive_means_closed_under_compose(self, r):
        assert classify_shape(r).transitive == subset(compose(r, r), r)


class TestHashing:
    @given(binrels())
    def test_equal_relations_hash_alike(self, r):
        twin = BinRel(r.n, list(r.rows))
        assert r == twin
        assert hash(r) == hash(twin)

    def test_usable_in_sets(self):
        rels = {BinRel.diagonal(2), BinRel.diagonal(2), BinRel.full(2)}
        assert len(rels) == 2
