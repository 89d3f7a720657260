import pickle
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    algebra_with_rel,
    algebras,
    binrels_on,
    closure_oracle,
    compatible_oracle,
    expanded_algebras,
    grow,
    near_projection_algebras,
    symmetric_algebras,
)
from tolrep import (
    Algebra,
    BinRel,
    BudgetExceeded,
    DimensionError,
    OperationTable,
    RelationClass,
    classify_relation,
    classify_shape,
    closure,
    compose,
    converse,
    corpus_get,
    eval_op,
    expand,
    find_representation,
    intersect,
    is_compatible,
    subset,
    union,
)
from tolrep.algebras import (
    _grow,
    _kept_positions,
    _reflexive_symmetric,
    _square_tables,
)
from tolrep.decide import _congruence_close


def two_chain():
    join = OperationTable.from_function("join", 2, 2, max)
    return Algebra(2, (join,))


class TestConstruction:
    def test_from_function(self):
        op = OperationTable.from_function("join", 2, 3, max)
        assert op.table == (0, 1, 2, 1, 1, 2, 2, 2, 2)

    def test_rejects_wrong_table_length(self):
        with pytest.raises(ValueError):
            Algebra(2, (OperationTable("f", 2, (0, 1, 0)),))

    def test_rejects_huge_arity_without_taking_the_power(self):
        # 2 ** 100000 has more digits than int-to-str conversion allows
        with pytest.raises(ValueError, match=r"^operation 'f' expects 2 \*\* 100000 table "
                                             "entries, got 1$"):
            Algebra(2, (OperationTable("f", 100000, (0,)),))
        with pytest.raises(ValueError, match="^operation 'f' expects 8 table entries, got 7$"):
            Algebra(2, (OperationTable("f", 3, (0,) * 7),))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            Algebra(2, (OperationTable("f", 1, (0, 2)),))

    def test_rejects_duplicate_names(self):
        f = OperationTable("f", 1, (0, 1))
        with pytest.raises(ValueError):
            Algebra(2, (f, f))

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            OperationTable.from_function("f", 0, 2, lambda: 0)

    def test_rejects_empty_name_and_universe(self):
        with pytest.raises(ValueError, match="name must be nonempty"):
            OperationTable("", 1, (0, 1))
        with pytest.raises(ValueError, match="universe size must be positive"):
            Algebra(0)

    def test_op_lookup(self):
        alg = two_chain()
        assert alg.op("join").arity == 2
        with pytest.raises(ValueError):
            alg.op("meet")

    def test_eval_op(self):
        alg = corpus_get("s7_semilattice").algebra
        assert eval_op(alg, "join", (1, 2)) == 6
        assert eval_op(alg, "join", (3, 3)) == 3
        with pytest.raises(ValueError):
            eval_op(alg, "join", (1,))
        with pytest.raises(ValueError, match="argument 7 outside"):
            eval_op(alg, "join", (1, 7))


class TestClosure:
    def test_no_ops_reflexive(self):
        alg = Algebra(3)
        got = closure(alg, [(0, 1)], "reflexive")
        assert sorted(got.pairs()) == [(0, 0), (0, 1), (1, 1), (2, 2)]

    def test_no_ops_reflexive_symmetric(self):
        alg = Algebra(3)
        got = closure(alg, [(0, 1)], "reflexive-symmetric")
        assert sorted(got.pairs()) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            closure(Algebra(2), [(0, 1)], "transitive")

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            closure(Algebra(2), [(0, 5)], "reflexive")

    def test_semilattice_propagates(self):
        # (0,1) forces (join(0,x), join(1,x)) for every x
        alg = corpus_get("s7_semilattice").algebra
        got = closure(alg, [(0, 1)], "reflexive")
        assert got.has(0, 6)  # join of (0,1) with (0,0) componentwise
        assert got.has(6, 1)  # join of (0,1) with (1,1)
        assert not got.has(1, 0)

    @given(algebra_with_rel())
    def test_extensive(self, case):
        alg, rel = case
        got = closure(alg, rel.pairs(), "reflexive")
        assert subset(rel, got)
        assert subset(BinRel.diagonal(alg.n), got)

    @given(algebra_with_rel())
    def test_idempotent(self, case):
        alg, rel = case
        once = closure(alg, rel.pairs(), "reflexive-symmetric")
        again = closure(alg, once.pairs(), "reflexive-symmetric")
        assert once == again

    @given(algebra_with_rel())
    def test_monotone(self, case):
        alg, rel = case
        seed = list(rel.pairs())
        smaller = closure(alg, seed[: len(seed) // 2], "reflexive")
        bigger = closure(alg, seed, "reflexive")
        assert subset(smaller, bigger)

    @given(algebra_with_rel())
    def test_closure_is_compatible(self, case):
        alg, rel = case
        for mode in ("reflexive", "reflexive-symmetric"):
            got = closure(alg, rel.pairs(), mode)
            assert is_compatible(alg, got)

    @given(algebra_with_rel())
    def test_symmetric_mode_symmetric(self, case):
        alg, rel = case
        got = closure(alg, rel.pairs(), "reflexive-symmetric")
        assert classify_shape(got).symmetric


@st.composite
def seed_and_extra(draw, alg):
    seed = list(draw(binrels_on(alg.n)).pairs())
    extra = list(draw(binrels_on(alg.n)).pairs())
    return seed, extra


MODES = (("reflexive", False), ("reflexive-symmetric", True))


class TestKernelOracle:
    """The semi-naive kernel against the naive pair-set fixpoint."""

    def check(self, alg, seed, extra):
        for mode, symmetric in MODES:
            start = closure(alg, seed, mode)
            assert start == closure_oracle(alg, seed, symmetric)
            # _grow adds exactly the pairs given, so the symmetric mode passes converses.
            grown = grow(alg, start, extra + [(b, a) for a, b in extra] if symmetric else extra)
            assert grown == closure_oracle(alg, seed + extra, symmetric)

    @settings(max_examples=40)
    @given(algebras(max_n=4, max_arity=4), st.data())
    def test_closure_and_grow_up_to_arity_four(self, alg, data):
        self.check(alg, *data.draw(seed_and_extra(alg)))

    @settings(max_examples=60)
    @given(near_projection_algebras(), st.data())
    def test_closure_and_grow_on_near_projections(self, alg, data):
        self.check(alg, *data.draw(seed_and_extra(alg)))

    @settings(max_examples=30)
    @given(expanded_algebras(), st.data())
    def test_closure_and_grow_on_expansions(self, alg, data):
        self.check(alg, *data.draw(seed_and_extra(alg)))

    @settings(max_examples=80)
    @given(symmetric_algebras(), st.data())
    def test_closure_and_grow_on_symmetric_operations(self, alg, data):
        self.check(alg, *data.draw(seed_and_extra(alg)))

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_every_one_entry_change_of_a_projection(self, arity):
        # On two points, a projection with one table entry changed needs
        # the newest pair at each argument position in turn.
        for keep in range(arity):
            proj = [args[keep] for args in product(range(2), repeat=arity)]
            for idx in range(len(proj)):
                table = proj[:idx] + [1 - proj[idx]] + proj[idx + 1:]
                alg = Algebra(2, (OperationTable("f", arity, tuple(table)),))
                for pair in ((0, 1), (1, 0)):
                    self.check(alg, [], [pair])

    @pytest.mark.parametrize("n, row", [(16, bytes), (17, tuple)])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_binary_rows_past_one_byte(self, n, row, data):
        # Rows are bytes while the n * n codes fit in a byte, tuples beyond.
        alg = data.draw(near_projection_algebras(min_n=n, max_n=n, max_ops=1,
                                                 min_arity=2, max_arity=2))
        [(_, tables)] = _square_tables(alg).tables
        assert all(type(table[0]) is row for table in tables)
        pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)
        seed, extra = data.draw(pairs), data.draw(pairs)
        self.check(alg, seed, extra)
        rel = data.draw(binrels_on(n))
        assert is_compatible(alg, rel) == compatible_oracle(alg, rel)
        closed = closure(alg, seed, "reflexive")
        assert is_compatible(alg, closed) and compatible_oracle(alg, closed)

    def test_grow_returns_rel_when_nothing_is_new(self):
        alg = corpus_get("l7_majority").algebra
        rel = closure(alg, [(0, 1)], "reflexive")
        codes = rel._pair_codes()
        for extra in ([(0, 1), (2, 2)], []):
            assert _grow(alg, rel, extra) is rel
            assert rel._pair_codes() is codes


def codes_of(rel):
    return {a * rel.n + b for a, b in rel.pairs()}


class TestTrustedConstruction:
    """Relations built from valid rows or codes skip the constructor's checks, and pass them."""

    @settings(max_examples=60)
    @given(algebras(max_n=4, max_arity=3), st.data())
    def test_every_unchecked_result_passes_the_checks(self, alg, data):
        n = alg.n
        seed, extra = data.draw(seed_and_extra(alg))
        r, s = data.draw(binrels_on(n)), data.draw(binrels_on(n))
        diag = BinRel.diagonal(n)
        tolerance = closure(alg, seed, "reflexive-symmetric")
        grown = grow(alg, tolerance, extra + [(b, a) for a, b in extra])
        congruence = _congruence_close(diag, tolerance)
        built = [closure(alg, seed, "reflexive"), tolerance, grown,
                 compose(r, s), converse(r), intersect(r, s), union(r, s),
                 congruence, _congruence_close(congruence, _congruence_close(diag, grown)),
                 diag]
        for rel in built:
            assert type(rel.rows) is tuple
            assert rel == BinRel(rel.n, rel.rows)


class TestCodeHandOff:
    """A relation keeps its pair codes: the kernel's when it built it, else read off its rows."""

    @settings(max_examples=60)
    @given(algebras(max_n=4, max_arity=3), st.data())
    def test_grow_a_b_a(self, alg, data):
        # a's child is grown from the codes a kept, after b was grown.
        n = alg.n
        pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)
        held = {}
        for key in "ab":
            seed = data.draw(pairs)
            held[key] = closure(alg, seed, "reflexive"), seed
        for key in "aba":
            rel, seed = held[key]
            codes = rel._pair_codes()
            extra = data.draw(pairs)
            grown = _grow(alg, rel, extra)
            assert grown == closure_oracle(alg, seed + extra, symmetric=False)
            assert set(codes) == codes_of(rel) and rel._pair_codes() is codes
            assert is_compatible(alg, grown) and compatible_oracle(alg, grown)
            grown_codes = grown._codes  # carried from the kernel, not read off the rows
            assert set(grown_codes) == codes_of(grown)
            assert len(grown_codes) == grown.pair_count()
            assert grown_codes[:len(codes)] == codes
            held[key] = grown, seed + extra
            other = data.draw(binrels_on(n))
            assert is_compatible(alg, other) == compatible_oracle(alg, other)

    def test_codes_travel_with_each_relation(self):
        alg = corpus_get("n5").algebra
        n = alg.n
        diag = BinRel.diagonal(n)
        assert diag._codes == bytes(range(0, n * n, n + 1))
        child = _grow(alg, diag, [(1, 2)])
        grandchild = _grow(alg, child, [(2, 1)])
        sibling = _grow(alg, child, [(0, 1)])
        assert len({diag, child, grandchild, sibling}) == 4
        # The kernel's order: the parent's codes, then the new ones.
        assert grandchild._codes.startswith(child._codes)
        assert sibling._codes.startswith(child._codes)
        for rel in (diag, child, grandchild, sibling):
            codes = rel._codes
            assert type(codes) is bytes
            assert rel._pair_codes() is codes
            assert set(codes) == codes_of(rel)
            assert len(codes) == rel.pair_count()
        twin = BinRel(n, grandchild.rows)  # equal, but built without codes
        assert twin._codes is None
        codes = twin._pair_codes()  # read off its rows, row-major, and kept
        assert list(codes) == sorted(codes_of(grandchild))
        assert twin._pair_codes() is codes

    @pytest.mark.parametrize("strategy", [
        algebras(max_n=4, max_arity=3),
        near_projection_algebras(min_n=16, max_n=16, max_ops=1, min_arity=2, max_arity=2),
        near_projection_algebras(min_n=17, max_n=17, max_ops=1, min_arity=2, max_arity=2),
    ], ids=["up-to-4", "binary-16", "binary-17"])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_grow_from_shuffled_codes(self, strategy, data):
        # Kept codes come in the kernel's order, not row-major, and as
        # bytes or a tuple: bytes only while the n * n codes fit in a byte.
        alg = data.draw(strategy)
        n = alg.n
        packed = bytes if n * n <= 256 else tuple
        pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)
        seed, extra = data.draw(pairs), data.draw(pairs)
        rel = closure(alg, seed, "reflexive")
        shuffled = data.draw(st.permutations(sorted(codes_of(rel))))
        as_bytes = packed is bytes and data.draw(st.booleans())
        codes = bytes(shuffled) if as_bytes else tuple(shuffled)
        planted = BinRel._trusted(n, rel.rows, codes)
        grown = _grow(alg, planted, extra)
        assert grown == grow(alg, rel, extra)
        assert grown == closure_oracle(alg, seed + extra, symmetric=False)
        grown_codes = grown._pair_codes()
        assert set(grown_codes) == codes_of(grown)
        assert len(grown_codes) == grown.pair_count()
        if grown is planted:
            assert grown_codes is codes
        else:
            assert type(grown_codes) is packed
            assert grown_codes[:len(codes)] == packed(codes)

    @settings(max_examples=40)
    @given(algebras(max_n=4, max_arity=3), st.data())
    def test_kernel_built_relation_matches_its_row_twin(self, alg, data):
        seed = data.draw(binrels_on(alg.n)).pairs()
        mode, _ = data.draw(st.sampled_from(MODES))
        built = closure(alg, seed, mode)
        twin = BinRel(built.n, built.rows)
        assert built._codes is not None and twin._codes is None
        assert built == twin and hash(built) == hash(twin) and repr(built) == repr(twin)
        assert len({built, twin}) == 1
        for rel in (built, twin):
            loaded = pickle.loads(pickle.dumps(rel))
            assert loaded == twin and hash(loaded) == hash(twin) and repr(loaded) == repr(twin)
            assert set(loaded._pair_codes()) == codes_of(twin)


class TestCompatibility:
    def test_semilattice_counterexample(self):
        alg = corpus_get("s7_semilattice").algebra
        rel = BinRel.from_pairs(7, [(0, 1)], reflexive=True, symmetric=True)
        # join((0,1),(1,1)) = (6,1) escapes
        assert not is_compatible(alg, rel)

    def test_diagonal_always_compatible(self):
        alg = corpus_get("l7_majority").algebra
        assert is_compatible(alg, BinRel.diagonal(7))

    def test_full_always_compatible(self):
        alg = corpus_get("l7_majority").algebra
        assert is_compatible(alg, BinRel.full(7))

    @given(algebra_with_rel(reflexive=True))
    def test_fixpoint_characterization(self, case):
        # a reflexive relation is compatible iff closing it changes nothing
        alg, rel = case
        assert is_compatible(alg, rel) == (closure(alg, rel.pairs(), "reflexive") == rel)

    @settings(max_examples=100)
    @given(algebras(max_n=4, max_arity=4) | near_projection_algebras() | symmetric_algebras()
           | expanded_algebras(), st.data())
    def test_matches_definition_up_to_arity_four(self, alg, data):
        rel = data.draw(binrels_on(alg.n))
        assert is_compatible(alg, rel) == compatible_oracle(alg, rel)
        closed = closure(alg, rel.pairs(), "reflexive")
        assert is_compatible(alg, closed) and compatible_oracle(alg, closed)

    def test_algebra_without_operations(self):
        for rel in (BinRel.empty(3), BinRel.diagonal(3), BinRel.full(3)):
            assert is_compatible(Algebra(3), rel)

    def test_ternary_operation(self):
        table = tuple((x + y + z) % 3 for x in range(3) for y in range(3) for z in range(3))
        alg = Algebra(3, (OperationTable("f", 3, table),))
        shift = BinRel.from_pairs(3, [(0, 1), (1, 2), (2, 0)], reflexive=True)
        # (0,1)+(0,1)+(0,1) = (0,0) mod 3, adding diagonal pairs stays inside
        assert not is_compatible(alg, shift)
        assert is_compatible(alg, BinRel.full(3))


def image_codes(op, n):
    """The image code of every tuple of pair codes under op, in row-major order.

    Read from op.table at the argument tuples of the codes' first and
    second components.
    """
    m = n * n
    value = dict(zip(product(range(n), repeat=op.arity), op.table))
    firsts = seconds = [()]
    for _ in range(op.arity):
        firsts = [x + (c // n,) for x in firsts for c in range(m)]
        seconds = [x + (c % n,) for x in seconds for c in range(m)]
    return [value[x] * n + value[y] for x, y in zip(firsts, seconds)]


def assert_row_tables(image, arity, n, kept, tables):
    """Check an operation's plan tables against its image codes.

    Entry c of the table of kept position p fixes c at p and nests over
    the positions other than p and q, in order, down to rows over q: the
    last position, or the one before it when p is last.  Rows are bytes
    while the n * n codes fit in a byte, and tuples beyond.  A binary
    operation's byte rows are 256 long, the images and then zeros, as
    bytes.translate needs; every other row holds just the images.
    """
    m = n * n
    row = bytes if m <= 256 else tuple
    length = 256 if row is bytes and arity == 2 else m
    strides = [m ** (arity - 1 - j) for j in range(arity)]
    assert len(tables) == len(kept)
    for p, by_code in zip(kept, tables):
        q = arity - 1 if p < arity - 1 else arity - 2
        order = [p] + [j for j in range(arity) if j not in (p, q)]
        for fixed in product(range(m), repeat=arity - 1):
            entry = by_code
            for c in fixed:
                assert len(entry) == m
                entry = entry[c]
            assert type(entry) is row and len(entry) == length
            base = sum(c * strides[j] for c, j in zip(fixed, order))
            assert list(entry[:m]) == image[base:base + m * strides[q]:strides[q]]
            assert not any(entry[m:])


class TestKernelPlan:
    def test_equal_algebras_share_one_plan(self):
        def build():
            table = tuple((3 * x + y) % 4 for x in range(4) for y in range(4))
            return Algebra(4, (OperationTable("plan_share", 2, table),))

        first, second = build(), build()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        before = _square_tables.cache_info()
        assert _square_tables(first) is _square_tables(second)
        after = _square_tables.cache_info()
        # One build and one hit; currsize would not grow in a full cache.
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 1

    @pytest.mark.parametrize("mode", [mode for mode, _ in MODES])
    def test_closure_builds_the_plan_even_from_an_empty_seed(self, mode):
        # Callers build plans ahead of timed work through closure(alg, (), mode).
        table = tuple((x * y + 1) % 3 for x in range(3) for y in range(3))
        alg = Algebra(3, (OperationTable(f"plan_{mode}", 2, table),))
        before = _square_tables.cache_info().misses
        assert closure(alg, (), mode) == BinRel.diagonal(3)
        assert _square_tables.cache_info().misses - before == 1

    def test_grow_builds_the_plan_before_returning_rel(self):
        alg = Algebra(3, (OperationTable("plan_grow", 1, (1, 2, 0)),))
        diag = BinRel.diagonal(3)
        before = _square_tables.cache_info().misses
        assert _grow(alg, diag, [(1, 1), (2, 2)]) is diag  # each its own converse
        assert _square_tables.cache_info().misses - before == 1

    def test_pickled_algebra_recomputes_its_hash(self):
        alg = two_chain()
        object.__setattr__(alg, "_hash", 12345)  # as if hashed in another process
        loaded = pickle.loads(pickle.dumps(alg))
        assert loaded == alg and hash(loaded) == hash(two_chain())

    @settings(max_examples=40)
    @given(algebras(max_n=4, max_arity=4) | symmetric_algebras(), st.data())
    def test_row_tables_hold_componentwise_images(self, alg, data):
        # An operation keeps the least position of each orbit of its
        # symmetry group, and has one table per kept position, in order
        # (see assert_row_tables).  A dropped position's images, over any
        # listed codes, are those of the least position of its orbit.
        n, m = alg.n, alg.n ** 2
        plan = _square_tables(alg)
        ops = [op for op in alg.ops if op.arity > 1]
        assert [arity for arity, _ in plan.tables] == [op.arity for op in ops]
        for op, (arity, tables) in zip(ops, plan.tables):
            args = list(product(range(n), repeat=arity))
            value = {x: eval_op(alg, op.name, x) for x in args}
            group = [perm for perm in permutations(range(arity))
                     if all(value[tuple(x[j] for j in perm)] == value[x] for x in args)]
            least = [min(perm[p] for perm in group) for p in range(arity)]
            kept = _kept_positions(op.table, arity, n)
            assert kept == tuple(p for p in range(arity) if least[p] == p)
            image = image_codes(op, n)
            assert_row_tables(image, arity, n, kept, tables)
            strides = [m ** (arity - 1 - j) for j in range(arity)]

            def at(codes):
                return image[sum(c * s for c, s in zip(codes, strides))]

            listed = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=5, unique=True))
            for p in set(range(arity)) - set(kept):
                for c in listed:
                    def images_at(position):
                        return {at(codes) for codes in product(listed, repeat=arity)
                                if codes[position] == c}
                    assert images_at(p) == images_at(least[p])

    @pytest.mark.parametrize("n, arity, fn, kept", [
        (7, 3, None, (0,)),  # l7_majority's f
        (5, 3, lambda x, y, z: (x + 2 * y + z * z) % 5, (0, 1, 2)),
        (16, 2, lambda x, y: (x + 2 * y) % 16, (0, 1)),
        (17, 2, lambda x, y: (x + 2 * y) % 17, (0, 1)),
        (3, 4, lambda x, y, z, w: (x * y + z + 2 * w) % 3, (0, 2, 3)),
    ], ids=["l7_majority", "ternary-5", "binary-16", "binary-17", "arity-4"])
    def test_row_tables_hold_componentwise_images_past_small_n(self, n, arity, fn, kept):
        # Universe sizes and arities the hypothesis test above does not
        # draw: two-byte entries and tuple rows from n = 17, and strided
        # rows at every position of an operation without symmetries.
        if fn is None:
            alg = corpus_get("l7_majority").algebra
        else:
            alg = Algebra(n, (OperationTable.from_function("f", arity, n, fn),))
        op = alg.op("f")
        assert _kept_positions(op.table, arity, n) == kept
        [(_, tables)] = _square_tables(alg).tables
        assert_row_tables(image_codes(op, n), arity, n, kept, tables)

    def test_plan_past_the_entry_bound_is_refused(self):
        # A binary plan grows as n ** 4: chain(33) needs 33 ** 4 > 2 ** 20 entries.
        alg = corpus_get("chain(33)").algebra
        theta = BinRel.from_pairs(33, [(0, 1), (1, 0)], reflexive=True)
        message = ("operation 'join' of arity 2 on 33 elements needs 1185921 kernel plan "
                   "entries, past the bound of 1048576")
        calls = [lambda: closure(alg, [], "reflexive"),
                 lambda: is_compatible(alg, theta),
                 lambda: find_representation(alg, theta)]
        for call in calls:
            with pytest.raises(BudgetExceeded) as info:
                call()
            assert str(info.value) == message

    def test_entry_bound_admits_plans_up_to_it(self, monkeypatch):
        monkeypatch.setattr("tolrep.algebras.MAX_PLAN_ENTRIES", 81)
        binary = Algebra(3, (OperationTable.from_function("bound_b", 2, 3, max),))
        assert len(_square_tables(binary).tables) == 1  # 9 ** 2 = 81 entries
        past = [Algebra(3, (OperationTable.from_function("bound_t", 3, 3, lambda *x: max(x)),)),
                Algebra(10, (OperationTable("bound_u", 1, tuple(range(10))),))]  # 729 and 100
        for alg in past:
            with pytest.raises(BudgetExceeded, match=f"operation '{alg.ops[0].name}' of arity "):
                _square_tables(alg)

    def test_symmetry_search_past_the_bound_is_refused(self):
        # On one element every plan holds one entry, but the symmetry
        # search would try all 12! argument orders.
        alg = Algebra(1, (OperationTable("f", 12, (0,)),))
        theta = BinRel.diagonal(1)
        message = ("operation 'f' of arity 12 on 1 elements needs 12! * 1 ** 12 table "
                   "lookups to find its symmetries, past the bound of 1048576")
        calls = [lambda: closure(alg, [], "reflexive"),
                 lambda: is_compatible(alg, theta),
                 lambda: classify_relation(alg, theta)]
        for call in calls:
            with pytest.raises(BudgetExceeded) as info:
                call()
            assert str(info.value) == message
        # 8! * 2 ** 8 lookups, though the plan itself would hold only 4 ** 8
        with pytest.raises(BudgetExceeded, match="^operation 'g' of arity 8 on 2 elements "):
            _square_tables(Algebra(2, (OperationTable("g", 8, (0,) * 256),)))

    def test_symmetry_bound_admits_searches_up_to_it(self, monkeypatch):
        monkeypatch.setattr("tolrep.algebras.MAX_PLAN_ENTRIES", 24)
        at_bound = Algebra(1, (OperationTable("f", 4, (0,)),))  # 4! * 1 ** 4 = 24
        assert len(_square_tables(at_bound).tables) == 1
        with pytest.raises(BudgetExceeded, match=r"needs 5! \* 1 \*\* 5 table lookups"):
            _square_tables(Algebra(1, (OperationTable("f", 5, (0,)),)))

    def test_cache_is_bounded(self):
        # A sweep over many algebras must not keep every plan.
        maxsize = _square_tables.cache_info().maxsize
        assert maxsize is not None
        for i in range(maxsize + 1):
            _square_tables(Algebra(1, (OperationTable(f"bounded{i}", 1, (0,)),)))
        assert _square_tables.cache_info().currsize <= maxsize

    def test_cache_interface_that_the_benchmark_tracer_uses(self):
        # perfbench's tracer times plan builds by caching _square_tables.__wrapped__
        # afresh, and its load_package empties every cache_clear before a re-import.
        assert callable(_square_tables.__wrapped__)
        assert callable(_square_tables.cache_clear)
        assert callable(_square_tables.cache_info)

    @pytest.mark.parametrize("name", ["chain(4)", "n5", "s7_semilattice"])
    def test_commutative_operations_keep_rows_only(self, name):
        binary = [tables for arity, tables in _square_tables(corpus_get(name).algebra).tables
                  if arity == 2]
        assert binary and all(len(tables) == 1 for tables in binary)

    def test_majority_keeps_one_table(self):
        alg = corpus_get("l7_majority").algebra
        [(arity, tables)] = _square_tables(alg).tables
        assert (arity, len(tables)) == (3, 1)
        assert _kept_positions(alg.op("f").table, 3, 7) == (0,)

    def test_almost_commutative_operation_keeps_both_positions(self):
        table = [max(x, y) for x in range(3) for y in range(3)]
        table[1] = 2  # (0, 1) -> 2, while (1, 0) -> 1
        alg = Algebra(3, (OperationTable("f", 2, tuple(table)),))
        [(arity, tables)] = _square_tables(alg).tables
        assert (arity, len(tables)) == (2, 2)

    @pytest.mark.parametrize("fn, kept", [
        (lambda x, y, z: (x + y * z) % 3, (0, 1)),  # invariant under swapping y and z only
        (lambda x, y, z: (x * y * y + y * z * z + z * x * x) % 3, (0,)),  # under a 3-cycle only
        (lambda x, y, z: (x + 2 * y + z * z) % 3, (0, 1, 2)),  # no symmetry
    ])
    def test_ternary_operations_keep_one_position_per_orbit(self, fn, kept):
        alg = Algebra(3, (OperationTable.from_function("f", 3, 3, fn),))
        [(_, tables)] = _square_tables(alg).tables
        assert _kept_positions(alg.op("f").table, 3, 3) == kept
        assert len(tables) == len(kept)

    def test_tables_follow_the_operation_order(self):
        # Unary operations go to the merged images; every other one is
        # listed with its arity, in the order of the algebra's operations.
        ops = (OperationTable("u", 1, (1, 2, 0)),
               OperationTable.from_function("t", 3, 3, lambda x, y, z: (x + 2 * y + z * z) % 3),
               OperationTable.from_function("b", 2, 3, lambda x, y: (x + 2 * y) % 3))
        plan = _square_tables(Algebra(3, ops))
        assert [arity for arity, _ in plan.tables] == [3, 2]
        assert plan.unary == tuple(((a + 1) % 3 * 3 + (b + 1) % 3,)
                                   for a in range(3) for b in range(3))

    def test_unary_images_are_merged(self):
        plus = expand(corpus_get("five_set").algebra, corpus_get("five_set").relations["theta"])
        unary = _square_tables(plus).unary
        assert len(unary) == 25
        assert all(len(set(images)) == len(images) <= 25 for images in unary)


class TestClassifyRelation:
    def test_tolerance_not_congruence(self):
        entry = corpus_get("five_set")
        kind = classify_relation(entry.algebra, entry.relations["theta"])
        assert kind.tolerance and kind.admissible
        assert not kind.congruence

    def test_order_is_admissible_only(self):
        entry = corpus_get("n5")
        kind = classify_relation(entry.algebra, entry.relations["leq"])
        assert kind.admissible
        assert not kind.tolerance

    @given(algebra_with_rel())
    def test_consistent_with_parts(self, case):
        alg, rel = case
        kind = classify_relation(alg, rel)
        shape = classify_shape(rel)
        compat = is_compatible(alg, rel)
        assert kind.admissible == (shape.reflexive and compat)
        assert kind.tolerance == (kind.admissible and shape.symmetric)
        assert kind.congruence == (kind.tolerance and shape.transitive)
        assert (kind.reflexive, kind.symmetric, kind.transitive) == (
            shape.reflexive, shape.symmetric, shape.transitive)
        assert kind.compatible == compat

    def test_flags_in_check_order(self):
        assert list(RelationClass._fields) == [
            "reflexive", "symmetric", "transitive", "compatible", "admissible", "tolerance",
            "congruence"]

    def test_compatible_without_reflexive(self):
        kind = classify_relation(two_chain(), BinRel.empty(2))
        assert kind.compatible and not kind.reflexive and not kind.admissible

    def test_size_mismatch(self):
        with pytest.raises(DimensionError, match="relation lives on 3 elements, algebra on 2"):
            classify_relation(two_chain(), BinRel.diagonal(3))

    @given(algebra_with_rel())
    def test_reflexive_symmetric_matches_the_shape(self, case):
        alg, rel = case
        shape = classify_shape(rel)
        assert _reflexive_symmetric(alg, rel) == (shape.reflexive and shape.symmetric)


class TestExpand:
    def test_five_set_count(self):
        entry = corpus_get("five_set")
        plus = expand(entry.algebra, entry.relations["theta"])
        assert len(plus.ops) == 185
        assert all(op.arity == 1 for op in plus.ops)

    def test_five_set_raw_count_before_dedup(self):
        entry = corpus_get("five_set")
        theta = entry.relations["theta"]
        raw = set()
        distinct = set()
        slots = [(a, b) for a in range(5) for b in range(a + 1, 5) if theta.has(a, b)]
        assert len(slots) == 6
        for a, b in slots:
            for mask in range(1 << 5):
                table = tuple(b if mask >> i & 1 else a for i in range(5))
                raw.add((a, b, table))
                distinct.add(table)
        assert len(raw) == 192
        assert len(distinct) == 185

    def test_diagonal_gives_constants(self):
        plus = expand(Algebra(4), BinRel.diagonal(4))
        tables = sorted(op.table for op in plus.ops)
        assert tables == [(a,) * 4 for a in range(4)]

    def test_requires_tolerance(self):
        with pytest.raises(ValueError, match="^relation is not a tolerance of the algebra"):
            expand(Algebra(3), BinRel.from_pairs(3, [(0, 1)], reflexive=True))

    def test_skips_taken_names(self):
        theta = BinRel.full(2)
        clash = Algebra(2, (OperationTable("u0", 1, (0, 1)), OperationTable("u2", 1, (1, 0))))
        plain = Algebra(2, (OperationTable("f", 1, (0, 1)), OperationTable("g", 1, (1, 0))))
        names = [op.name for op in expand(clash, theta).ops]
        assert names[:2] == ["u0", "u2"]
        assert len(names) == len(set(names))
        assert len(names) == len(expand(plain, theta).ops)
        assert names[2:5] == ["u1", "u3", "u4"]

    def test_keeps_original_operations(self):
        alg = two_chain()
        plus = expand(alg, BinRel.full(2))
        assert plus.op("join") is alg.op("join")
        assert len(plus.ops) > 1

    def test_one_pair_admitted_up_to_fifteen_points(self):
        theta = BinRel.from_pairs(15, [(0, 1)], reflexive=True, symmetric=True)
        assert len(expand(Algebra(15), theta).ops) == 15 + 2 ** 15 - 2

    @pytest.mark.parametrize("n, tables", [(16, 65550), (17, 131087)])
    def test_refused_past_the_plan_bound(self, n, tables):
        # One pair gives n + 2 ** n - 2 tables of n entries: past
        # MAX_PLAN_ENTRIES from n = 16, so refused before any is built.
        theta = BinRel.from_pairs(n, [(0, 1)], reflexive=True, symmetric=True)
        with pytest.raises(BudgetExceeded, match=f"^expansion on {n} elements needs {tables} "
                                                 f"unary tables of {n} entries, past the bound "
                                                 f"of 1048576$"):
            expand(Algebra(n), theta)

    def test_theta_still_tolerance(self):
        entry = corpus_get("five_set")
        theta = entry.relations["theta"]
        plus = expand(entry.algebra, theta)
        assert classify_relation(plus, theta).tolerance

    @settings(max_examples=25)
    @given(algebras(max_n=3), st.data())
    def test_expansion_shrinks_tolerances(self, alg, data):
        # closing any symmetric seed under more operations gives a larger result
        rel = data.draw(binrels_on(alg.n, reflexive=True, symmetric=True))
        theta = closure(alg, rel.pairs(), "reflexive-symmetric")
        plus = expand(alg, theta)
        assert classify_relation(plus, theta).tolerance
        for a in range(alg.n):
            for b in range(alg.n):
                base = closure(alg, [(a, b)], "reflexive")
                richer = closure(plus, [(a, b)], "reflexive")
                assert subset(base, richer)
