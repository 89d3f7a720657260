import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    binrels,
    binrels_on,
    compose_oracle,
    rel_pairs,
    rel_triples,
    shape_flags_oracle,
)
from tolrep import (
    Algebra,
    BinRel,
    DimensionError,
    OperationTable,
    classify_shape,
    closure,
    compose,
    converse,
    intersect,
    subset,
    union,
)
from tolrep.algebras import _reflexive_symmetric
from tolrep.relations import _shape_flags


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

    def test_public_constructor_keeps_every_check(self):
        # Only rows computed from valid relations skip these (BinRel._trusted).
        with pytest.raises(ValueError, match="^expected 3 rows, got 4$"):
            BinRel(3, [1, 2, 4, 0])
        with pytest.raises(ValueError, match="^row 1 has bits outside the universe$"):
            BinRel(3, [1, -2, 4])
        with pytest.raises(ValueError, match="^row 2 has bits outside the universe$"):
            BinRel(3, [1, 2, 0b1100])

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


def banded(n):
    """Rows of a reflexive symmetric relation with pairs in every byte of most rows.

    a and b are related when a == b, when 3 divides a + b, or when {a, b}
    is {0, n - 1}.
    """
    rows = [sum(1 << b for b in range(n) if a == b or (a + b) % 3 == 0) for a in range(n)]
    rows[0] |= 1 << n - 1
    rows[n - 1] |= 1
    return rows


class TestShapeFlags:
    """The packed-row test of reflexivity and symmetry against the pair-by-pair oracle."""

    @given(st.data())
    def test_matches_the_oracle(self, data):
        n = data.draw(st.integers(1, 20))
        rel = data.draw(binrels_on(n, reflexive=data.draw(st.booleans()),
                                   symmetric=data.draw(st.booleans())))
        flip = data.draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        if flip is not None:  # one pair toggled: often just short of reflexive or symmetric
            rows = list(rel.rows)
            rows[flip[0]] ^= 1 << flip[1]
            rel = BinRel(n, rows)
        want = shape_flags_oracle(rel)
        assert _shape_flags(rel) == want
        assert classify_shape(rel)[:2] == want
        assert _reflexive_symmetric(Algebra(n), rel) == all(want)

    # Sizes on both sides of the byte boundaries of the spread table.
    @pytest.mark.parametrize("n", [8, 9, 16, 17, 64, 256])
    def test_byte_boundaries(self, n):
        rows = banded(n)
        no_loop = rows.copy()
        no_loop[n - 1] ^= 1 << n - 1          # the last diagonal pair
        last_byte = rows.copy()
        last_byte[0] ^= 1 << n - 1            # (0, n - 1), in the last byte of row 0
        first_byte = rows.copy()
        first_byte[n - 1] ^= 1                # (n - 1, 0), in the first byte of the last row
        cases = [(rows, (True, True)), (no_loop, (False, True)),
                 (last_byte, (True, False)), (first_byte, (True, False))]
        for case, want in cases:
            rel = BinRel(n, case)
            assert shape_flags_oracle(rel) == want
            assert _shape_flags(rel) == want


class TestHashing:
    @given(binrels())
    def test_equal_relations_hash_alike(self, r):
        twin = BinRel(r.n, list(r.rows))
        assert r == twin
        assert hash(r) == hash(twin)

    def test_usable_in_sets(self):
        rels = {BinRel.diagonal(2), BinRel.diagonal(2), BinRel.full(2)}
        assert len(rels) == 2


# x -> x + 1 mod 3: the kernel closes (0, 1) to the cycle 0 -> 1 -> 2 -> 0
SHIFT = Algebra(3, (OperationTable("f", 1, (1, 2, 0)),))
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


class TestPickling:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_round_trips_at_every_protocol(self, protocol):
        built = closure(SHIFT, [(0, 1)], "reflexive")
        for rel in (built, BinRel(3, built.rows), BinRel.diagonal(3), BinRel.empty(1)):
            loaded = pickle.loads(pickle.dumps(rel, protocol))
            assert loaded == rel and hash(loaded) == hash(rel) and repr(loaded) == repr(rel)
            assert sorted(loaded._pair_codes()) == sorted(rel._pair_codes())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_kernel_built_relation_pickles_like_its_twin(self, protocol):
        built = closure(SHIFT, [(0, 1)], "reflexive")
        twin = BinRel(3, built.rows)
        assert built._codes is not None and twin._codes is None
        assert pickle.dumps(built, protocol) == pickle.dumps(twin, protocol)
