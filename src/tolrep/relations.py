"""Binary relations on a finite universe {0..n-1}, stored as bit rows.

Row ``a`` is an integer whose bit ``b`` is set exactly when the ordered
pair ``(a, b)`` belongs to the relation.  Universes in this package stay
tiny (the bundled algebras top out at seven elements), so plain integer
bit twiddling is both the fastest and the simplest representation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionError

__all__ = [
    "BinRel",
    "RelationShape",
    "classify_shape",
    "compose",
    "converse",
    "intersect",
    "union",
    "subset",
]


def _packed(n: int, codes: Iterable[int]) -> Sequence[int]:
    """Pair codes as the closure kernel keeps them: bytes while n * n <= 256, else a tuple."""
    return bytes(codes) if n * n <= 256 else tuple(codes)


@lru_cache(maxsize=32)
def _diagonal(n: int) -> tuple[tuple[int, ...], Sequence[int]]:
    """The diagonal's rows and its pair codes, every (n + 1)-th one, packed."""
    return tuple(1 << a for a in range(n)), _packed(n, range(0, n * n, n + 1))


def _check_size(n: int) -> None:
    if n <= 0:
        raise ValueError(f"universe size must be positive, got {n}")


class BinRel:
    """Immutable binary relation on {0..n-1}; equality is cell-wise.

    The constructor checks the size, the row count and that every row lies
    inside the universe.  _trusted skips those checks; it takes rows
    computed from rows or pair codes of valid relations on the same
    universe (their unions, intersections, compositions, transposes and
    kernel closures), which cannot leave it.

    The closure kernel's pair codes a * n + b are kept in a private slot:
    passed to _trusted, else read off the rows by _pair_codes.  The join
    enumerator (decide._join_closure) empties the slot of each relation it
    lists once it has joined it, so a complete listing holds no codes.  Equality,
    hashing, repr and pickling see only n and rows.
    """

    __slots__ = ("n", "rows", "_codes")

    def __init__(self, n: int, rows: Iterable[int]):
        _check_size(n)
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        mask = (1 << n) - 1
        for a, row in enumerate(rows):
            if row < 0 or row & ~mask:
                raise ValueError(f"row {a} has bits outside the universe")
        self.n = n
        self.rows = rows
        self._codes = None

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...], codes: Sequence[int] | None = None) -> BinRel:
        """The relation with these rows, unchecked: a tuple of n rows inside the universe.

        codes, when given, are exactly its pair codes, packed, in any order.
        """
        rel = object.__new__(cls)
        rel.n = n
        rel.rows = rows
        rel._codes = codes
        return rel

    @classmethod
    def empty(cls, n: int) -> BinRel:
        return cls(n, (0,) * n)

    @classmethod
    def diagonal(cls, n: int) -> BinRel:
        _check_size(n)
        return cls._trusted(n, *_diagonal(n))

    @classmethod
    def full(cls, n: int) -> BinRel:
        mask = (1 << n) - 1
        return cls(n, (mask,) * n)

    @classmethod
    def from_pairs(cls, n, pairs, reflexive=False, symmetric=False) -> BinRel:
        rows = [1 << a for a in range(n)] if reflexive else [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a}, {b}) out of range for universe of size {n}")
            rows[a] |= 1 << b
            if symmetric:
                rows[b] |= 1 << a
        return cls(n, rows)

    def has(self, a: int, b: int) -> bool:
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"pair ({a}, {b}) out of range for universe of size {self.n}")
        return bool(self.rows[a] >> b & 1)

    def pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs, sorted row-major."""
        pairs = []
        for a, row in enumerate(self.rows):
            while row:
                low = row & -row
                pairs.append((a, low.bit_length() - 1))
                row ^= low
        return pairs

    def pair_count(self) -> int:
        return sum(map(int.bit_count, self.rows))

    def _pair_codes(self) -> Sequence[int]:
        """The packed pair codes: those kept, else read off the rows row-major and kept."""
        codes = self._codes
        if codes is None:
            found = []
            for a, row in enumerate(self.rows):
                base = a * self.n
                while row:
                    low = row & -row
                    found.append(base + low.bit_length() - 1)
                    row ^= low
            codes = self._codes = _packed(self.n, found)
        return codes

    def __eq__(self, other):
        if not isinstance(other, BinRel):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __and__(self, other):
        return intersect(self, other)

    def __or__(self, other):
        return union(self, other)

    def __le__(self, other):
        return subset(self, other)

    def __reduce__(self):
        # Rebuild through the checked constructor: a pickle holds n and the
        # rows alone, so equal relations pickle alike, whatever codes they keep.
        return BinRel, (self.n, self.rows)

    def __repr__(self):
        return f"BinRel({self.n}, pairs={self.pairs()!r})"


def _check_same_universe(r: BinRel, s: BinRel) -> None:
    if r.n != s.n:
        raise DimensionError(f"universe sizes differ: {r.n} vs {s.n}")


def compose(r: BinRel, s: BinRel) -> BinRel:
    """(a, b) is in r∘s when some c has (a, c) in r and (c, b) in s."""
    _check_same_universe(r, s)
    srows = s.rows
    out = []
    for row in r.rows:
        acc = 0
        while row:
            low = row & -row
            acc |= srows[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return BinRel._trusted(r.n, tuple(out))


def converse(r: BinRel) -> BinRel:
    """Transpose: (a, b) swapped to (b, a)."""
    out = [0] * r.n
    for a, row in enumerate(r.rows):
        bit = 1 << a
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return BinRel._trusted(r.n, tuple(out))


def intersect(r: BinRel, s: BinRel) -> BinRel:
    _check_same_universe(r, s)
    return BinRel._trusted(r.n, tuple(x & y for x, y in zip(r.rows, s.rows)))


def union(r: BinRel, s: BinRel) -> BinRel:
    _check_same_universe(r, s)
    return BinRel._trusted(r.n, tuple(x | y for x, y in zip(r.rows, s.rows)))


def subset(r: BinRel, s: BinRel) -> bool:
    _check_same_universe(r, s)
    return all(x & ~y == 0 for x, y in zip(r.rows, s.rows))


class RelationShape(NamedTuple):
    reflexive: bool
    symmetric: bool
    transitive: bool


@lru_cache(maxsize=32)
def _shape_tables(n: int) -> tuple[tuple[int, ...], int]:
    """_shape_flags's spread table and diagonal mask on n points.

    spread[v] has bit i of the byte v moved to bit i * n, and the mask has
    bit a * n + a for every a.  The table has 256 entries of at most
    7 * n + 1 bits whatever n is, not one entry per possible row.
    """
    spread = [0]
    for i in range(8):
        bit = 1 << i * n
        spread += [v | bit for v in spread]
    return tuple(spread), sum(1 << a * (n + 1) for a in range(n))


def _shape_flags(r: BinRel) -> tuple[bool, bool]:
    """(reflexive, symmetric): the package's one test of either, with no loop over pairs.

    The rows are packed into one n * n-bit integer, with pair (a, b) at bit
    a * n + b, and its transpose, with (a, b) at bit b * n + a, is built
    alongside: byte k of row a is looked up in the spread table, which
    takes its bit i to bit i * n, and shifted by 8 * k * n + a.  That is
    one lookup per byte of a row.  r is symmetric when the two integers
    are equal, and reflexive when the packed rows hold the diagonal mask.
    """
    n = r.n
    spread, diagonal = _shape_tables(n)
    step = 8 * n
    packed = transposed = 0
    for a, row in enumerate(r.rows):
        packed |= row << a * n
        shift = a
        while row:
            transposed |= spread[row & 255] << shift
            row >>= 8
            shift += step
    return packed & diagonal == diagonal, packed == transposed


def classify_shape(r: BinRel) -> RelationShape:
    """Reflexivity, symmetry and transitivity flags of a relation."""
    reflexive, symmetric = _shape_flags(r)
    transitive = subset(compose(r, r), r)
    return RelationShape(reflexive, symmetric, transitive)
