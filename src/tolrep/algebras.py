"""Finite algebras as flat operation tables, plus compatibility and closure.

An operation of arity k on a universe of size n is a tuple of n**k result
values in row-major argument order: the first argument is the most
significant digit of the index.  Compatibility and closure both work on
"pair codes": the ordered pair (a, b) becomes the single integer a*n + b,
and every operation acts componentwise on codes.  A relation is compatible
exactly when its code set is closed under those componentwise operations.

The componentwise tables are built once per algebra into a kernel plan:
for each code, the distinct images under all unary operations merged; and
for each operation of arity k >= 2, one row table per kept argument
position p.  It is position 0's row table of the operation with argument
p moved first and the others kept in order: it takes a code at p and
codes at the next k - 2 positions to the row of images over the last
one.  For a binary operation these are the row and, unless it is
commutative, the column of images of each code.  Position 0's rows are
the consecutive slices of one flat image table, bytes while the codes
fit in a byte.  The image of codes with first components a and second
components b is x * n + y, with x the image of a and y that of b, so the
flat table is built as the sum of two integers whose bytes list the
x * n and the y, width bytes to an entry (one while the codes fit in a
byte, else two): as x * n + y <= n * n - 1 < 256 ** width, no entry
carries into the next.  An operation whose plan would hold more than
MAX_PLAN_ENTRIES image codes, or whose symmetry search would look up
more table entries than that, raises BudgetExceeded before anything is
built.  A position is kept unless a permutation of the
arguments that leaves the operation unchanged sends it to an earlier
position: its images would repeat that position's.  A binary
operation's byte rows are padded with zeros to 256 bytes, so that they
are translation tables.  The closure kernel is semi-naive (as in Datalog
fixpoint evaluation): its code list is a FIFO worklist, a bytearray while
the codes fit in a byte, and code i meets only codes[:i + 1], so each
argument tuple is built once its last-added component is reached at a
kept position.  A whole row of images is picked and tested against the
code set in one step: a binary row by one bytes.translate call while the
codes fit in a byte, and the rows of an operation of arity 3 or more are
picked, tested and gathered in C, with no Python bytecode run per row.
A relation keeps its own codes (BinRel._pair_codes): _grow reads rel's
and builds the grown relation with its worklist, so a relation the kernel
built has its codes read back off its rows only after the join enumerator
has listed it and dropped them (see decide._join_closure).  is_compatible
runs the same kernel over a relation's codes, with nothing closed yet, and
stops at the first code with an image outside them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, count, filterfalse, islice, permutations, product
from operator import itemgetter
from sys import byteorder
from typing import Iterable, NamedTuple

from .errors import BudgetExceeded, DimensionError
from .relations import BinRel, _packed, _shape_flags, classify_shape

__all__ = [
    "OperationTable",
    "Algebra",
    "RelationClass",
    "eval_op",
    "is_compatible",
    "closure",
    "classify_relation",
    "expand",
]

CLOSURE_MODES = ("reflexive", "reflexive-symmetric")

# The most image codes one operation's kernel plan may hold, m ** arity,
# the most table entries its symmetry search may look up,
# arity! * n ** arity, and the most table entries expand may build.
MAX_PLAN_ENTRIES = 2 ** 20


def _read_only(self, name, *value):
    """__setattr__ and __delattr__ of an immutable class."""
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class OperationTable:
    """Named finitary operation given by its value table; immutable."""

    __slots__ = ("name", "arity", "table")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, name: str, arity: int, table: Iterable[int]):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "arity", arity)
        init(self, "table", tuple(table))
        if not name:
            raise ValueError("operation name must be nonempty")
        if arity < 1:
            raise ValueError(f"operation {name!r} must take at least one argument")

    @classmethod
    def from_function(cls, name, arity, n, fn) -> OperationTable:
        table = tuple(fn(*args) for args in product(range(n), repeat=arity))
        return cls(name, arity, table)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.arity, self.table) == (other.name, other.arity, other.table)

    def __hash__(self) -> int:
        return hash((self.name, self.arity, self.table))

    def __reduce__(self):
        return OperationTable, (self.name, self.arity, self.table)

    def __repr__(self):
        return f"OperationTable(name={self.name!r}, arity={self.arity!r}, table={self.table!r})"


class Algebra:
    """Finite algebra: universe {0..n-1} and a tuple of operation tables; immutable."""

    __slots__ = ("n", "ops", "_by_name", "_hash")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, n: int, ops: Iterable[OperationTable] = ()):
        ops = tuple(ops)
        if n <= 0:
            raise ValueError(f"universe size must be positive, got {n}")
        by_name = {}
        for op in ops:
            if op.name in by_name:
                raise ValueError(f"duplicate operation name {op.name!r}")
            # Past the bit length of len(table), n ** arity exceeds it, so
            # the power is not taken: a huge arity would build a huge
            # integer just to be refused.
            want = (f"{n} ** {op.arity}" if n > 1 and op.arity > len(op.table).bit_length()
                    else n ** op.arity)
            if len(op.table) != want:
                raise ValueError(
                    f"operation {op.name!r} expects {want} table entries, got {len(op.table)}"
                )
            for v in op.table:
                if not (0 <= v < n):
                    raise ValueError(f"operation {op.name!r} has value {v} outside the universe")
            by_name[op.name] = op
        init = object.__setattr__
        init(self, "n", n)
        init(self, "ops", ops)
        init(self, "_by_name", by_name)
        # Hashing every table on each kernel-plan lookup would dominate small closures.
        init(self, "_hash", hash((n, ops)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.ops == other.ops

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild on unpickling: the cached hash covers string hashes,
        # which differ between processes.
        return Algebra, (self.n, self.ops)

    def __repr__(self):
        return f"Algebra(n={self.n!r}, ops={self.ops!r})"

    def op(self, name: str) -> OperationTable:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown operation {name!r}") from None


def eval_op(algebra: Algebra, op: str, args: Iterable[int]) -> int:
    """Apply the named operation to an argument tuple."""
    table = algebra.op(op)
    args = tuple(args)
    if len(args) != table.arity:
        raise ValueError(f"operation {op!r} has arity {table.arity}, got {len(args)} arguments")
    n = algebra.n
    idx = 0
    for a in args:
        if not (0 <= a < n):
            raise ValueError(f"argument {a} outside the universe of size {n}")
        idx = idx * n + a
    return table.table[idx]


class _Plan(NamedTuple):
    """The operations of the square algebra, laid out for the closure kernel.

    unary[c] lists the distinct images of code c under all unary
    operations at once (unary is empty when there are none).  tables holds
    (arity, tables) for every operation of arity k >= 2, in operation
    order, with one table per kept position p, in position order.  Each is
    position 0's table of the operation with argument p moved first and
    the others kept in order: it takes code c to the entry that fixes c at
    p and nests one level of m entries per following position but the
    last, whose innermost entries are rows of the m image codes over the
    last.  So a binary operation's tables are rows, with rows[c][d] the
    image of (c, d), and, unless it is commutative, cols, with cols[c][d]
    the image of (d, c).  While the m = n * n codes fit in a byte, a
    binary row is 256 bytes, the m images and then zeros, so
    head.translate(rows[c]) picks the images of c with the codes in head;
    the rows of higher arities stay m bytes long.  _kept_positions says
    which positions are kept.
    """

    unary: tuple[tuple[int, ...], ...]
    tables: tuple[tuple[int, tuple], ...]


@lru_cache(maxsize=128)
def _square_tables(algebra: Algebra) -> _Plan:
    """The kernel plan: componentwise tables on pair codes.

    Unary images are merged from the components of each code; every other
    operation gets one row table from _row_table per kept position, so a
    commutative binary operation has no cols and a fully symmetric
    ternary one a single table.  Rows are bytes while the m = n * n codes
    fit in a byte (n <= 16), binary ones padded to 256 bytes, and tuples
    beyond.  An operation's plan
    holds m ** arity image codes, and its symmetry search looks up n **
    arity entries for each of the arity! argument orders.  So before
    anything is built, an operation past MAX_PLAN_ENTRIES on either count
    raises BudgetExceeded: that admits binary operations up to n = 32,
    ternary ones up to n = 10, and on n = 2 and n = 1 arities up to 7
    and 9.
    """
    n = algebra.n
    m = n * n
    for op in algebra.ops:
        if m ** op.arity > MAX_PLAN_ENTRIES:
            raise BudgetExceeded(
                f"operation {op.name!r} of arity {op.arity} on {n} elements needs "
                f"{m ** op.arity} kernel plan entries, past the bound of {MAX_PLAN_ENTRIES}")
        lookups = 1  # arity! * n ** arity, stopped once past the bound
        for j in range(1, op.arity + 1):
            lookups *= j * n
            if lookups > MAX_PLAN_ENTRIES:
                raise BudgetExceeded(
                    f"operation {op.name!r} of arity {op.arity} on {n} elements needs "
                    f"{op.arity}! * {n} ** {op.arity} table lookups to find its "
                    f"symmetries, past the bound of {MAX_PLAN_ENTRIES}")
    has_unary = any(op.arity == 1 for op in algebra.ops)
    # Both scratch tables take m entries, so skip them when nothing reads them.
    decomp = [divmod(c, n) for c in range(m)] if has_unary else ()
    unary = [{} for _ in range(m)] if has_unary else ()
    tables = []
    for op in algebra.ops:
        tab, arity = op.table, op.arity
        if arity == 1:
            for images, (a, b) in zip(unary, decomp):
                images[tab[a] * n + tab[b]] = None
        else:
            # Each kept position p, moved first, the others kept in order.
            orders = ([p, *range(p), *range(p + 1, arity)] for p in _kept_positions(tab, arity, n))
            tables.append((arity, tuple(_row_table(_permuted(tab, arity, n, order), arity, n)
                                        for order in orders)))
    return _Plan(tuple(tuple(images) for images in unary), tuple(tables))


def _permuted(tab, arity, n, order):
    """The table of x -> tab(y) with y[order[j]] = x[j]: argument order[j] moved to j."""
    # Position j of x moves the index into tab by order[j]'s stride.
    index = [0]
    for p in order:
        stride = n ** (arity - 1 - p)
        index = [i + a * stride for i in index for a in range(n)]
    return tuple(map(tab.__getitem__, index))


def _kept_positions(tab, arity, n):
    """The argument positions whose images the closure kernel must build.

    A symmetry of the operation is a permutation s of its positions with
    tab(x[s(0)], ..., x[s(k-1)]) = tab(x) for every x; each is found by
    comparing tab with its permuted copy.  The symmetries form a group,
    and permuting the entries of an argument tuple by one keeps its image
    while moving each entry within its position's orbit.  So, over the
    same listed codes, the tuples with code c at position p have the same
    images as those with c at any other position of p's orbit.  The least
    position of each orbit is kept and the others are dropped: whatever a
    dropped position would add, an earlier kept one adds first.  Position
    0 is always kept, and an operation without symmetries keeps them all.
    """
    dropped = set()
    for perm in permutations(range(arity)):
        lower = {p for p in range(arity) if perm[p] < p}
        if lower <= dropped:  # the identity, or nothing new to drop
            continue
        # _permuted gives x -> tab(x[s(0)], ..., x[s(k-1)]) for s the
        # inverse of perm, a symmetry exactly when perm is one.
        if _permuted(tab, arity, n, perm) == tab:
            dropped |= lower
    return tuple(p for p in range(arity) if p not in dropped)


def _row_table(tab, arity, n):
    """Position 0's row table of one operation of arity 2 or more.

    The flat image table lists the image codes of all argument tuples of
    codes in row-major order.  The image of codes c_j = a_j * n + b_j is
    x * n + y, with x = tab(a_0, ..., a_{k-1}) and y = tab(b_0, ...,
    b_{k-1}), so the flat table is the sum of a high table of the x * n
    and a low table of the y.  Each is built level by level, from the
    last position out, by joining and repeating blocks: a code's high part
    repeats over its second component and its low part over its first.
    Entries are one byte wide while the m = n * n codes fit in a byte and
    two bytes beyond; both tables are read as one integer each and added.
    As x * n + y <= m - 1 < 256 ** width, no entry carries into the next,
    so the sum's bytes are the flat table.  Its consecutive m-slices are
    the rows over the last position, grouped by m once per other position,
    innermost first.  A binary operation's byte rows are padded with zeros
    to 256 bytes, the length of a bytes.translate table; no pick reads
    past entry m - 1.  Every other kept position's table is this table of
    the operation with that position moved first.
    """
    m = n * n
    width = 1 if m <= 256 else 2
    blocks = range(0, len(tab), n)
    # Over the last position: per leading first components, each x * n
    # repeated n times; per leading second components, the block tiled n
    # times.  Native byte order, as memoryview reads two-byte entries.
    high = [b"".join([(x * n).to_bytes(width, byteorder) * n for x in tab[i:i + n]])
            for i in blocks]
    low = [b"".join([y.to_bytes(width, byteorder) for y in tab[i:i + n]]) * n for i in blocks]
    for _ in range(arity - 1):
        high = [b"".join([block * n for block in high[i:i + n]]) for i in range(0, len(high), n)]
        low = [b"".join(low[i:i + n]) * n for i in range(0, len(low), n)]
    [high], [low] = high, low
    size = len(high)
    # Each rebinding frees what it replaces, so at most three objects as
    # large as the flat table are alive at once, and none once it is built.
    high = int.from_bytes(high, byteorder)
    low = int.from_bytes(low, byteorder)
    high += low
    del low
    flat = high.to_bytes(size, byteorder)
    del high
    if width == 2:
        flat = memoryview(flat).cast("H")
    table = [flat[i:i + m] for i in range(0, len(flat), m)]
    if width == 2:
        table = list(map(tuple, table))
    elif arity == 2:
        table = [row.ljust(256, b"\0") for row in table]
    for _ in range(arity - 1):
        table = [tuple(table[i:i + m]) for i in range(0, len(table), m)]
    return table[0]


def _saturate(plan, member, codes, start, stop=False):
    """Close the code list under the operations of the plan, semi-naively.

    plan is the algebra's kernel plan, from _square_tables.  codes is
    its own FIFO worklist and codes[:start] is already closed: a bytearray
    while the codes fit in a byte, and a list beyond.  Code i is combined
    only with codes[:i + 1], in every kept argument position, so an
    argument tuple is built only once its last-added component is reached,
    and no tuple inside the closed prefix is built.  A dropped position
    would add nothing new: its images are those of an earlier kept
    position of the same operation (see _kept_positions), which are
    already in member or earlier in found, so dropping it changes neither
    the closure nor the order of codes.  member is the set of codes
    present; a whole row of images is picked and tested against it at
    once.  The table of each kept position is entered at code i and picked
    at codes[:i + 1].  For arity 2 that pick is already the row of images,
    tested in one direct step; on byte codes it is codes[:i + 1].translate
    of the 256-byte row, one C call, and otherwise an itemgetter over
    codes[:i + 1], which is built only when a pick needs it.  For arity
    k >= 3 the pick descends k - 2 levels down to rows, which are then
    picked by that itemgetter, tested and gathered without a Python loop
    per row.  New images are appended after each code.  Images of swapped
    tuples are the swapped images, so a symmetric start closes to a
    symmetric list.

    _grow closes; is_compatible sets stop and only tests, from start 0,
    so its codes may be bytes or a tuple.  Then the first code with an
    image outside member returns False before anything is added, and a
    list that is already closed returns True.  An empty plan returns at
    once, without a pass over the codes.
    """
    unary, tables = plan
    if not (unary or tables):
        return True
    covered = member.issuperset
    bytewise = isinstance(codes, (bytes, bytearray))
    i = start
    while i < len(codes):
        c = codes[i]
        found = []
        if unary and not covered(unary[c]):
            found += unary[c]
        if tables:
            head = codes[:i + 1]
            if bytewise:
                pick_row, pick = head.translate, None
            else:
                pick_row = pick = _picker(head)
            for arity, by_position in tables:
                if arity == 2:
                    for table in by_position:
                        images = pick_row(table[c])
                        if not covered(images):
                            found += images
                    continue
                if pick is None:
                    pick = _picker(head)
                for table in by_position:
                    rows = pick(table[c])
                    for _ in range(arity - 3):
                        rows = chain.from_iterable(map(pick, rows))
                    found += chain.from_iterable(filterfalse(covered, map(pick, rows)))
        if found and stop:
            return False
        for v in found:
            if v not in member:
                member.add(v)
                codes.append(v)
        i += 1
    return True


def _picker(idx):
    """A function taking a sequence to the tuple of its items at idx, which is nonempty."""
    if len(idx) == 1:
        j = idx[0]
        return lambda seq: (seq[j],)
    return itemgetter(*idx)


def closure(algebra: Algebra, seed: Iterable[tuple[int, int]], mode: str) -> BinRel:
    """Least relation containing the seed that the mode and the operations allow.

    "reflexive" adds the diagonal; "reflexive-symmetric" also adds the
    converse of every pair.  The result is closed under every operation of
    the algebra applied componentwise, hence always admissible (and a
    tolerance in the symmetric mode).  After checking the mode and the
    seed, this is _grow from the diagonal, which comes with its codes,
    with the seed's converses appended in the symmetric mode, so it builds
    the algebra's kernel plan even when the seed adds nothing.
    """
    if mode not in CLOSURE_MODES:
        raise ValueError(f"mode must be one of {CLOSURE_MODES}, got {mode!r}")
    n = algebra.n
    seed = list(seed)
    for a, b in seed:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"seed pair ({a}, {b}) out of range for universe of size {n}")
    if mode == "reflexive-symmetric":
        seed += [(b, a) for a, b in seed]
    # The diagonal is closed: operations map diagonal tuples to the diagonal.
    return _grow(algebra, BinRel.diagonal(n), seed)


def _grow(algebra: Algebra, rel: BinRel, extra: Iterable[tuple[int, int]]) -> BinRel:
    """The closure of a closed rel plus exactly the extra pairs; rel itself if they add nothing.

    The one way to grow a relation in the closure kernel.  The plan is
    fetched first, so every call builds it for a new algebra.  The
    worklist starts as a copy of rel's codes, only the new codes are ORed
    into a copy of rel's rows, and the result is built unchecked, as every
    code is a valid pair, with the worklist as its codes: rel's, then the
    new ones in the order the kernel found them.  A symmetric rel grown by
    pairs listed with their converses stays symmetric (see _saturate), so
    tolerance callers pass each converse themselves.
    """
    n = algebra.n
    plan = _square_tables(algebra)
    codes = rel._pair_codes()
    member = set(codes)
    work = bytearray(codes) if n * n <= 256 else list(codes)
    start = len(work)
    for a, b in extra:
        code = a * n + b
        if code not in member:
            member.add(code)
            work.append(code)
    if len(work) == start:
        return rel
    _saturate(plan, member, work, start)
    rows = list(rel.rows)
    for code in islice(work, start, None):
        rows[code // n] |= 1 << (code % n)
    return BinRel._trusted(n, tuple(rows), _packed(n, work))


def is_compatible(algebra: Algebra, rel: BinRel) -> bool:
    """Do the operations preserve the relation componentwise?

    rel's own codes go to _saturate as a worklist with nothing closed, so
    each tuple of related argument pairs is built once, a row of images at
    a time, and the test stops at the first code with an image outside rel.
    An algebra with no operations preserves every relation, so its empty
    plan answers before any code is read.
    """
    if rel.n != algebra.n:
        raise DimensionError(f"relation lives on {rel.n} elements, algebra on {algebra.n}")
    plan = _square_tables(algebra)
    if not any(plan):
        return True
    codes = rel._pair_codes()
    return _saturate(plan, set(codes), codes, 0, stop=True)


class RelationClass(NamedTuple):
    """The flags of `tolrep check`, in the order it prints them."""

    reflexive: bool
    symmetric: bool
    transitive: bool
    compatible: bool
    admissible: bool
    tolerance: bool
    congruence: bool


def classify_relation(algebra: Algebra, rel: BinRel) -> RelationClass:
    """Admissible = reflexive compatible; tolerance adds symmetry; congruence adds transitivity."""
    compatible = is_compatible(algebra, rel)
    shape = classify_shape(rel)
    admissible = shape.reflexive and compatible
    tolerance = admissible and shape.symmetric
    return RelationClass(shape.reflexive, shape.symmetric, shape.transitive, compatible,
                         admissible, tolerance, tolerance and shape.transitive)


def _reflexive_symmetric(algebra: Algebra, rel: BinRel) -> bool:
    """Is rel reflexive and symmetric?  DimensionError unless it has the algebra's size.

    Tested on rel's packed rows and their transpose (see _shape_flags).
    """
    if rel.n != algebra.n:
        raise DimensionError(f"relation lives on {rel.n} elements, algebra on {algebra.n}")
    return all(_shape_flags(rel))


def _require_tolerance(algebra: Algebra, rel: BinRel) -> None:
    """Raise ValueError unless rel is a tolerance of the algebra."""
    if not (_reflexive_symmetric(algebra, rel) and is_compatible(algebra, rel)):
        raise ValueError("relation is not a tolerance of the algebra "
                         "(needs reflexivity, symmetry and compatibility)")


def expand(algebra: Algebra, theta: BinRel) -> Algebra:
    """Adjoin every unary map whose range sits inside one theta-related pair.

    For each pair a theta b (diagonal included, which contributes the
    constants) and each function f from the universe into {a, b}, the
    expansion gains f as a unary operation; duplicate tables appear once.
    theta stays a tolerance of the result, and any reflexive compatible
    relation of the expansion other than the diagonal contains theta,
    because an off-diagonal (c, d) maps onto every (a, b) with a theta b.
    There are n + k * (2 ** n - 2) new tables for k off-diagonal pairs {a, b};
    past MAX_PLAN_ENTRIES entries in all, BudgetExceeded is raised before any is built.
    """
    _require_tolerance(algebra, theta)
    n = algebra.n
    needed = n + (theta.pair_count() - n) // 2 * ((1 << n) - 2)
    if needed * n > MAX_PLAN_ENTRIES:
        raise BudgetExceeded(f"expansion on {n} elements needs {needed} unary tables of {n} "
                             f"entries, past the bound of {MAX_PLAN_ENTRIES}")
    tables = dict.fromkeys(func for a in range(n) for b in range(a, n) if theta.has(a, b)
                           for func in product((a,) if a == b else (a, b), repeat=n))
    # The new operations are named u0, u1, ..., skipping the names already taken.
    taken = {op.name for op in algebra.ops}
    names = (name for name in map("u{}".format, count()) if name not in taken)
    return Algebra(n, algebra.ops + tuple(OperationTable(name, 1, func)
                                          for name, func in zip(names, tables)))
